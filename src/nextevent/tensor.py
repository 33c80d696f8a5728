"""Dense float64 arrays with reverse-mode automatic differentiation.

Every operation returns a new :class:`DiffNode` holding a value, its parent
nodes, and a closure that routes the output gradient back to those parents.
A leaf, trained or not, is ``DiffNode(value)``.
The graph is rebuilt on every forward pass, which keeps variable-length
sequences simple. ``backward()`` on a scalar root runs a topological sort
and accumulates gradients by addition, so a node feeding several consumers
receives every contribution exactly once; call ``DiffNode.zero_grad`` on
each leaf between optimization steps. ``backward()`` releases the graph as
it goes: each interior node drops its closure (and the arrays the op saved
for backward) and its gradient once it has passed that gradient on, so its
``.grad`` reads zero afterwards and a kept result holds only the forward
values. A graph can therefore be differentiated once; a second
``backward()`` through it raises.

Everything is 64-bit: the tests hold each backward to central finite
differences within relative errors around 1e-4, which 32-bit arithmetic
cannot reach. Nothing broadcasts: :func:`add` takes two operands of the
same shape and raises otherwise.

The model's three hot spots are one node each, with a hand-written backward:
:func:`multi_head_attention` here, ``encoding.fcpe_matrix`` and the decoder
head in ``model``. The attention node reads the rows it attends among by
index and writes them back into the whole matrix, so attention over a subset
of rows needs no separate gather or scatter node.

The attention node takes its largest temporaries from a workspace that
persists across calls, so that a train step does not grow the heap back,
page by page, after releasing the graph has trimmed it. The workspace is per
thread and holds one buffer per role: ``"p"``, the probabilities of a tile
too large to keep until backward, which forward forms there and backward
rebuilds there; ``"ds"``, a tile's score gradient; ``"ds*p"``, that gradient
times the probabilities; and ``"part"``, one head's Q, K or V input-gradient
product. Each buffer grows to the largest request it has served, up to
``_WORKSPACE_BYTES`` (2 MB); a larger request takes a fresh array for that
call alone. Every buffer is written in full before it is read and no result
keeps a view of one, so values and gradients are bit for bit those of fresh
arrays.
"""

from __future__ import annotations

import itertools
import math
import threading

import numpy as np

from .errors import ConfigError, HierarchyError

__all__ = [
    "DiffNode",
    "as_tensor",
    "add",
    "matmul",
    "concat_cols",
    "multi_head_attention",
    "segment_mean",
]


def as_tensor(data) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float64 array (row-major)."""
    return np.ascontiguousarray(data, dtype=np.float64)


class DiffNode:
    """A value in the computation graph plus its accumulated gradient.

    ``value`` and ``grad`` are float64 arrays of identical shape. A leaf has
    no parents; interior nodes carry a backward closure installed by the
    operation that created them, until :meth:`backward` releases it.
    """

    __slots__ = ("value", "_grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = as_tensor(value)
        self._grad = None  # allocated on first use; forward-only graphs stay light
        self.parents = tuple(parents)
        self._backward = backward

    @property
    def grad(self) -> np.ndarray:
        """The accumulated gradient, allocated as zeros on first read. A
        released interior node returns fresh zeros without keeping them, so
        reading it does not grow a kept graph back."""
        if self._grad is None:
            if self.parents and self._backward is None:
                return np.zeros(self.value.shape)
            self._grad = np.zeros(self.value.shape)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self):
        return self.value.size

    def zero_grad(self):
        if self._grad is not None:
            self._grad[...] = 0.0

    def backward(self):
        """Propagate gradients from a scalar root through the whole graph.

        Each interior node is released once it has passed its gradient on:
        its backward closure, with every array the op saved for it, and its
        own gradient are dropped, so its ``.grad`` reads zero afterwards.
        Leaves keep their gradients, and every node keeps its ``value`` and
        ``parents``. A later ``backward()`` that reaches a released node
        raises ``RuntimeError`` before it touches any gradient.
        """
        if self.size != 1:
            raise ValueError(f"backward() requires a scalar root, got shape {self.shape}")
        order = _toposort(self)
        if any(node.parents and node._backward is None for node in order):
            raise RuntimeError(
                "backward() reached a node that an earlier backward() released; "
                "run the forward pass again"
            )
        self.grad = np.ones_like(self.value)
        for node in order:
            if node.parents:
                node._backward(node.grad)
                node._backward = None
                node._grad = None

    def __repr__(self):
        return f"DiffNode(shape={self.shape})"


def _toposort(root: DiffNode) -> list[DiffNode]:
    """Reverse topological order (root first), iterative to spare the stack."""
    order: list[DiffNode] = []
    visited: set[int] = set()
    stack: list[tuple[DiffNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def _wrap(x) -> DiffNode:
    return x if isinstance(x, DiffNode) else DiffNode(x)


# ---------------------------------------------------------------------------
# Elementwise and structural operations
# ---------------------------------------------------------------------------


def add(a, b) -> DiffNode:
    """Elementwise sum of two nodes of the same shape."""
    a, b = _wrap(a), _wrap(b)
    if a.shape != b.shape:
        raise ValueError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = DiffNode(a.value + b.value, parents=(a, b))

    def backward(g):
        a.grad += g
        b.grad += g

    out._backward = backward
    return out


def matmul(a, b) -> DiffNode:
    a, b = _wrap(a), _wrap(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError(f"matmul requires 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree for {a.shape} and {b.shape}")
    out = DiffNode(a.value @ b.value, parents=(a, b))

    def backward(g):
        a.grad += g @ b.value.T
        b.grad += a.value.T @ g

    out._backward = backward
    return out


def concat_cols(*nodes) -> DiffNode:
    """Stack matrices horizontally (axis 1)."""
    nodes = [_wrap(n) for n in nodes]
    if not nodes:
        raise ValueError("concat of zero nodes")
    values = [n.value for n in nodes]
    out = DiffNode(np.concatenate(values, axis=1), parents=tuple(nodes))
    offsets = list(itertools.accumulate([v.shape[1] for v in values], initial=0))

    def backward(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            node.grad += g[:, lo:hi]

    out._backward = backward
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# Heads whose score blocks together hold at most this many entries (256 KB)
# share one pass of the in-place softmax and its backward, so that the pass
# runs in cache; a larger block takes one head at a time.
_GROUP_ENTRIES = 1 << 15
# Height of the row blocks causal attention is cut into (see _plan_tiles).
# Taller blocks form more masked scores; shorter ones pay numpy's fixed cost
# per call more often. Of 24, 32, 48 and 64 rows, 32 gave the fastest causal
# train steps at L=256 (2-core x86 VM, OpenBLAS on one thread).
_TILE_ROWS = 32
# Where a causal row block's diagonal square takes the -inf fill: the keys
# after each row, the strict upper triangle.
_CAUSAL_FILL = np.triu(np.ones((_TILE_ROWS, _TILE_ROWS), dtype=bool), 1)


# The attention backward's workspace keeps no buffer larger than this (2 MB).
_WORKSPACE_BYTES = 1 << 21


class _Workspace(threading.local):
    """One thread's reusable temporaries for the attention node: a flat
    float64 buffer per role, grown to the largest request it served."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple) -> np.ndarray:
        """An uninitialised float64 array of ``shape``: a view of this
        thread's buffer for ``role``, or a fresh array when it would take
        more than ``_WORKSPACE_BYTES``. The view is valid until the next
        request for the same role."""
        size = math.prod(shape)
        if 8 * size > _WORKSPACE_BYTES:
            return np.empty(shape)
        buf = self.buffers.get(role)
        if buf is None or buf.size < size:
            buf = self.buffers[role] = np.empty(size)
        return buf[:size].reshape(shape)


_workspace = _Workspace()


def _plan_tiles(n: int, m: int, nh: int, causal: bool) -> list:
    """The tiles ``(heads, rows, keys)`` that :func:`multi_head_attention`
    forms scores on, each a slice: a group of heads, a block of query rows
    and the key columns those rows read.

    Without ``causal`` there is one block of every row and every key. With
    it, the rows are cut into blocks ``[r0, r1)`` of ``_TILE_ROWS`` and each
    block reads the keys ``[0, r1)``, so its last ``r1 - r0`` columns are
    its diagonal square. Each block is then split into the largest head
    groups whose scores hold at most ``_GROUP_ENTRIES``.
    """
    height = _TILE_ROWS if causal else n
    tiles = []
    for r0 in range(0, n, height):
        r1 = min(r0 + height, n)
        k1 = r1 if causal else m
        step = max(1, _GROUP_ENTRIES // ((r1 - r0) * k1))
        tiles += [(slice(h, min(h + step, nh)), slice(r0, r1), slice(0, k1))
                  for h in range(0, nh, step)]
    return tiles


def _tile_probs(q, kt, tile, c, causal, stats=None):
    """``(P, stats)`` of one tile ``(heads, rows, keys)``: ``P`` is the
    softmax over the keys of the scores ``q kt * c``; with ``causal`` the
    scores right of the diagonal of its diagonal square take ``-inf``.

    A tile whose scores hold at most ``_GROUP_ENTRIES`` entries forms them in
    a fresh array and returns ``stats`` None. A larger one forms them in the
    workspace's ``"p"`` buffer and returns ``stats``, the row max and row sum
    ``P`` was normalised with, each ``(heads, rows, 1)``. Called again with
    those ``stats``, it rebuilds the same ``P`` by the same operations on the
    same operands, so bit for bit.
    """
    hs, qrows, keys = tile
    shape = (hs.stop - hs.start, qrows.stop - qrows.start, keys.stop - keys.start)
    large = math.prod(shape) > _GROUP_ENTRIES
    p = np.matmul(q[hs, qrows], kt[hs, :, keys],
                  out=_workspace.take("p", shape) if large else None)
    p *= c
    if causal:
        b = shape[1]
        np.copyto(p[:, :, qrows], -np.inf, where=_CAUSAL_FILL[:b, :b])
    row_max, row_sum = (p.max(axis=2, keepdims=True), None) if stats is None else stats
    p -= row_max
    np.exp(p, out=p)
    if row_sum is None:
        row_sum = p.sum(axis=2, keepdims=True)
    p /= row_sum
    return p, (row_max, row_sum) if large else None


def multi_head_attention(x, rows, w_qkv, w_out, causal: bool, last_only: bool = False) -> DiffNode:
    """Attention among the rows ``r = x[rows]``, all heads in one node:
    ``concat_h(softmax((q Wq_h) (r Wk_h).T / sqrt(d_k)) (r Wv_h)) @ w_out + q``.

    ``rows`` must be non-empty integers, strictly increase and lie in
    ``[0, len(x))``, or :class:`HierarchyError` is raised. By default
    every row of ``r`` is a query (``q = r``), with ``causal`` the i-th
    reading only ``r[:i + 1]``, and the value is ``x`` with ``rows``
    replaced by the result: every other row passes through. With
    ``last_only`` the last of ``rows`` is the sole query (``q = r[-1:]``)
    and reads every row of ``r``, as ``causal`` lets it; the value is its one
    output row.

    ``w_qkv`` is ``(3 * heads, d, d_k)``: head ``h``'s Wq, Wk and Wv are
    ``w_qkv[h]``, ``w_qkv[heads + h]`` and ``w_qkv[2 * heads + h]``, and
    ``w_out`` is ``(heads * d_k, d)``.

    The heads' projections are batched ``np.matmul`` calls over the copy
    ``x[rows]``, which make the same 2-D BLAS call per head as
    :func:`matmul`, whether or not ``rows`` covers all of ``x``. Scores, the
    in-place softmax, ``P @ V`` and their backward run tile by tile (see
    ``_plan_tiles``): a tile is a group of heads, a block of query rows and
    the keys ``[0, k1)`` those rows read, so a causal block never forms the
    scores right of its diagonal square, and only that square's upper
    triangle takes the ``-inf`` fill. ``gq`` is written per tile; ``gk`` and
    ``gv`` start at zero and each tile adds its part to ``[0, k1)``.

    What backward keeps per tile depends on its size. A tile whose scores
    hold at most ``_GROUP_ENTRIES`` entries (256 KB, the budget that groups
    the heads) keeps its probabilities ``P``. A larger tile, always a single
    head's (without ``causal``, one over more than 181 rows), keeps only
    each row's max and sum, ``(heads, rows, 1)`` each, and forms its scores
    in the workspace's ``"p"`` buffer; backward rebuilds ``P`` there (see
    ``_tile_probs``). The rebuild is exact: it is the same ``np.matmul`` of
    the same slices of ``q`` and ``kt``, the same scale and ``-inf`` fill,
    then the kept max is subtracted, ``exp`` taken and the kept sum divided
    out, so ``P`` and every gradient are bit for bit what a kept ``P``
    gives. Small tiles keep ``P`` because rebuilding one saves little memory
    and costs numpy calls, and those calls bound short causal tiles.

    Backward also takes three temporaries from the calling thread's
    workspace (see the module docstring): a tile's ``dS``, the product
    ``dS * P``, and one ``(rows, d)`` buffer that receives each head's Q, K
    and V input-gradient product in turn, the same 2-D product a batched
    matmul over the heads forms. Each buffer grows to the largest request it
    has served and never past ``_WORKSPACE_BYTES`` (2 MB); a larger request
    is allocated for the call alone. Every buffer is written in full before
    it is read, so values and gradients are bit for bit those of fresh
    arrays.

    ``causal`` and ``last_only`` must be ``bool`` or ``np.bool_``, or
    :class:`ConfigError` is raised.

    Exactness: when the plan is one full-width tile per head group (not
    causal, or causal over at most ``_TILE_ROWS`` rows) the operations and
    the order in which gradients are added follow a chain of nodes: a row
    gather of ``x[rows]`` (and of its last row with ``last_only``), then
    matmul, transpose, scale, softmax, concat and add, then a scatter of the
    result back into ``x`` unless ``last_only``. Value and gradients round
    exactly as that chain does (with a 0/-inf constant added to the scores
    for causal): the queried rows' gradient starts from the output's and
    adds each head's Q, K and V parts in turn, and ``x``'s gradient takes
    it in one addition. Narrower tiles shorten the inner dimension of
    ``P @ V``, ``P.T @ gO``, ``dS @ K`` and ``Q.T @ dS``, which BLAS may
    round differently, so they agree with the chain to within rounding
    (1e-12 in the tests), not bit for bit.
    """
    for name, flag in (("causal", causal), ("last_only", last_only)):
        if not isinstance(flag, (bool, np.bool_)):
            raise ConfigError(f"multi_head_attention: {name} must be True or False, got {flag!r}")
    x, w_qkv, w_out = _wrap(x), _wrap(w_qkv), _wrap(w_out)
    if (any(a.value.ndim != 2 for a in (x, w_out)) or w_qkv.value.ndim != 3
            or w_qkv.shape[0] % 3 or not w_qkv.shape[0]):
        raise ValueError("multi_head_attention requires 2-D operands and a"
                         " (3 * heads, d, d_k) w_qkv with at least one head")
    d, nh, dk = x.shape[1], w_qkv.shape[0] // 3, w_qkv.shape[2]
    if w_qkv.shape[1] != d or w_out.shape != (nh * dk, d):
        raise ValueError(f"multi_head_attention: shapes x {x.shape}, w_qkv {w_qkv.shape},"
                         f" w_out {w_out.shape} disagree")
    rows = np.asarray(rows)  # floats and bools are refused, not truncated
    if rows.ndim != 1 or rows.size == 0 or rows.dtype.kind not in "iu":
        raise HierarchyError("multi_head_attention: rows must be a non-empty 1-D integer array")
    rows = rows.astype(np.int64, copy=False)
    if rows.size > 1 and np.minimum.reduce(rows[1:] - rows[:-1]) <= 0:
        raise HierarchyError("multi_head_attention: rows must strictly increase")
    if rows[0] < 0 or rows[-1] >= x.shape[0]:
        raise HierarchyError(f"multi_head_attention: rows out of range [0, {x.shape[0]})")
    causal = causal and not last_only  # the last row reads every row either way
    r = x.value[rows]
    xq = r[-1:] if last_only else r
    n, m = xq.shape[0], r.shape[0]
    c = 1.0 / np.sqrt(dk)
    q = np.matmul(xq, w_qkv.value[:nh])  # (heads, n, d_k)
    kv = np.matmul(r, w_qkv.value[nh:])  # (2 * heads, m, d_k)
    kt = np.ascontiguousarray(kv[:nh].transpose(0, 2, 1))
    v = kv[nh:]
    tiles = _plan_tiles(n, m, nh, causal)
    kept = []  # per tile, its P or, past _GROUP_ENTRIES, its row max and row sum
    o = np.empty((nh, n, dk))
    for tile in tiles:
        hs, qrows, keys = tile
        p, stats = _tile_probs(q, kt, tile, c, causal)
        np.matmul(p, v[hs, keys], out=o[hs, qrows])
        kept.append(p if stats is None else stats)
    # concat_cols of the heads' outputs
    a = o.transpose(1, 0, 2).reshape(n, nh * dk)  # C-ordered
    attended = a @ w_out.value + xq
    if last_only:
        value = attended
    else:  # the attended rows replace theirs; the others pass through
        value = x.value.copy()
        value[rows] = attended
    out = DiffNode(value, parents=(x, w_qkv, w_out))

    def backward(g):
        g_q = g.copy() if last_only else g[rows]  # the queries' output gradient, a copy
        w_out.grad += a.T @ g_q
        ga = (g_q @ w_out.value.T).reshape(n, nh, dk)
        go = np.ascontiguousarray(ga.transpose(1, 0, 2))  # (heads, n, d_k)
        gq = np.empty_like(q)
        gkt = np.zeros_like(kt)  # gk transposed, so that each tile adds whole rows
        gkv = np.zeros_like(kv)
        gv = gkv[nh:]
        for tile, p in zip(tiles, kept):
            hs, qrows, keys = tile
            if isinstance(p, tuple):
                p, _ = _tile_probs(q, kt, tile, c, causal, p)
            gv[hs, keys] += np.matmul(p.transpose(0, 2, 1), go[hs, qrows])
            ds = np.matmul(go[hs, qrows], v[hs, keys].transpose(0, 2, 1),
                           out=_workspace.take("ds", p.shape))
            ds -= np.multiply(ds, p, out=_workspace.take("ds*p", p.shape)).sum(
                axis=2, keepdims=True)
            ds *= p
            ds *= c
            np.matmul(ds, kt[hs, :, keys].transpose(0, 2, 1), out=gq[hs, qrows])
            gkt[hs, :, keys] += np.matmul(q[hs, qrows].transpose(0, 2, 1), ds)
        gkv[:nh] = gkt.transpose(0, 2, 1)
        wt = w_qkv.value.transpose(0, 2, 1)
        # The chain adds the residual first, then each head's Q, K and V
        # parts. With last_only the query sums its own and joins the last key
        # row at the end, as the gather of that row added it. Each part is
        # the 2-D product a batched matmul over the heads would form.
        part = _workspace.take("part", r.shape)
        g_keys = np.zeros_like(r) if last_only else g_q
        for h in range(nh):
            g_q += np.matmul(gq[h], wt[h], out=part[:n])
            g_keys += np.matmul(gkv[h], wt[nh + h], out=part)
            g_keys += np.matmul(gkv[nh + h], wt[2 * nh + h], out=part)
        if last_only:
            g_keys[-1] += g_q[0]
        gx = np.zeros_like(x.value) if last_only else g.copy()
        gx[rows] = g_keys
        x.grad += gx
        w_qkv.grad[:nh] += np.matmul(xq.T, gq)
        w_qkv.grad[nh:] += np.matmul(r.T, gkv)

    out._backward = backward
    return out


def segment_mean(a, starts) -> DiffNode:
    """Row ``g`` of the output is the mean of input rows
    ``starts[g]:starts[g + 1]`` (the last segment runs to the end).

    The segments partition the rows in order, so ``starts`` must be integers
    that begin at 0, strictly increase and stay below the row count. Backward
    hands each member 1/count of its output row's gradient.

    Exactness: forward sums every segment with one ``np.bincount`` over
    flattened (segment, column) indices, then divides by the count.
    bincount adds its weights in input order starting from 0, so each entry
    is the row-by-row sum in order, as ``np.add.at`` forms it and as
    ``np.mean(run, axis=0)`` does for input of two or more dimensions.
    (``np.add.reduceat`` adds in another order, and ``np.mean`` of a 1-D run
    of 8 or more values sums pairwise, so both round differently.)
    """
    a = _wrap(a)
    starts = np.asarray(starts)  # floats and bools are refused, not truncated
    n = a.shape[0]
    if starts.ndim != 1 or starts.size == 0 or starts.dtype.kind not in "iu" or starts[0] != 0:
        raise HierarchyError("segment_mean: starts must be a 1-D integer array beginning at 0")
    starts = starts.astype(np.int64, copy=False)
    k = starts.size
    counts = np.empty(k, dtype=np.int64)
    counts[:-1] = starts[1:] - starts[:-1]
    if k > 1 and np.minimum.reduce(counts[:-1]) <= 0:
        raise HierarchyError("segment_mean: empty segment (starts must strictly increase)")
    if starts[-1] >= n:
        raise HierarchyError(f"segment_mean: start {starts[-1]} out of range [0, {n})")
    counts[-1] = n - starts[-1]
    rows = a.value.reshape(n, -1)
    c = rows.shape[1]
    # The output cell each input entry adds into, in input order.
    cells = np.arange(k * c).reshape(k, c).repeat(counts, axis=0).ravel()
    sums = np.bincount(cells, weights=rows.ravel(), minlength=k * c)
    per_row = counts.reshape((-1,) + (1,) * (a.value.ndim - 1))
    out = DiffNode(sums.reshape((k,) + a.shape[1:]) / per_row, parents=(a,))

    def backward(g):
        a.grad += (g / per_row).repeat(counts, axis=0)

    out._backward = backward
    return out
