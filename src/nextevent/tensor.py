"""Dense float64 arrays with reverse-mode automatic differentiation.

Every operation returns a new :class:`DiffNode` holding a value, its parent
nodes, and a closure that routes the output gradient back to those parents.
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
head in ``model``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import HierarchyError

__all__ = [
    "DiffNode",
    "as_tensor",
    "constant",
    "parameter",
    "add",
    "matmul",
    "concat_cols",
    "gather_rows",
    "scatter_rows",
    "multi_head_attention",
    "segment_mean",
]


def as_tensor(data) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float64 array (row-major)."""
    return np.ascontiguousarray(data, dtype=np.float64)


class DiffNode:
    """A value in the computation graph plus its accumulated gradient.

    ``value`` and ``grad`` are float64 arrays of identical shape. Leaf nodes
    (parameters, constants) have no parents; interior nodes carry a backward
    closure installed by the operation that created them, until
    :meth:`backward` releases it.
    """

    __slots__ = ("value", "_grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = as_tensor(value)
        self._grad = None  # allocated on first use; forward-only graphs stay light
        self.parents = tuple(parents)
        self._backward = backward

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
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


def constant(data) -> DiffNode:
    """Leaf node whose gradient nobody reads."""
    return DiffNode(data)


def parameter(data) -> DiffNode:
    """Leaf node intended as a trainable parameter."""
    return DiffNode(data)


def _wrap(x) -> DiffNode:
    return x if isinstance(x, DiffNode) else constant(x)


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


def _check_indices(idx: np.ndarray, bound: int, what: str) -> None:
    # Viewed as unsigned, a negative index is larger than any bound, so one
    # maximum checks both ends of the range.
    if idx.size and np.maximum.reduce(idx.view(np.uint64), axis=None) >= bound:
        raise IndexError(f"{what} index out of range [0, {bound})")


def _distinct(idx: np.ndarray, bound: int) -> bool:
    """Whether ``idx``, all in ``[0, bound)``, holds no repeats."""
    seen = np.zeros(bound, dtype=bool)
    seen[idx] = True
    return np.count_nonzero(seen) == idx.size


def gather_rows(a, idx) -> DiffNode:
    """Select rows by index; repeated indices sum their gradients.

    With distinct indices backward adds ``g`` by one fancy-indexed ``+=``:
    each row then takes a single addition, as under ``np.add.at``, which
    repeated indices still take. The check runs in backward, so a forward
    pass never pays for it.
    """
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    _check_indices(idx, a.shape[0], "row")
    out = DiffNode(a.value[idx], parents=(a,))

    def backward(g):
        if _distinct(idx, a.shape[0]):
            a.grad[idx] += g
        else:
            np.add.at(a.grad, idx, g)

    out._backward = backward
    return out


def scatter_rows(base, idx, rows) -> DiffNode:
    """Copy of ``base`` with rows at ``idx`` replaced by ``rows``.

    ``idx`` must not contain repeats; carried-over rows keep their gradient
    path through ``base``, replaced rows route theirs through ``rows``.
    """
    base, rows = _wrap(base), _wrap(rows)
    idx = np.asarray(idx, dtype=np.int64)
    _check_indices(idx, base.shape[0], "row")
    if not _distinct(idx, base.shape[0]):
        raise ValueError("scatter_rows requires distinct indices")
    value = base.value.copy()
    value[idx] = rows.value
    out = DiffNode(value, parents=(base, rows))

    def backward(g):
        g_base = g.copy()
        g_base[idx] = 0.0
        base.grad += g_base
        rows.grad += g[idx]

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


def multi_head_attention(xq, x, w_qkv, w_out, causal: bool) -> DiffNode:
    """``concat_h(softmax((xq Wq_h) (x Wk_h).T / sqrt(d_k)) (x Wv_h)) @ w_out + xq``,
    where with ``causal`` query row j reads only the keys ``0..j``.

    ``w_qkv`` is ``(3 * heads, d, d_k)``: head ``h``'s Wq, Wk and Wv are
    ``w_qkv[h]``, ``w_qkv[heads + h]`` and ``w_qkv[2 * heads + h]``, and
    ``w_out`` is ``(heads * d_k, d)``. ``causal`` needs as many rows in
    ``xq`` as in ``x``.

    One node stands for the whole block: the heads' projections are batched
    ``np.matmul`` calls, which make the same 2-D BLAS call per head as
    :func:`matmul`. Scores, the in-place softmax, ``P @ V`` and their
    backward run tile by tile (see ``_plan_tiles``): a tile is a group of
    heads, a block of query rows and the keys ``[0, k1)`` those rows read,
    so a causal block never forms the scores right of its diagonal square,
    and only that square's upper triangle takes the ``-inf`` fill. ``gq`` is
    written per tile; ``gk`` and ``gv`` start at zero and each tile adds its
    part to ``[0, k1)``.

    Exactness: when the plan is one full-width tile per head group (not
    causal, or causal over at most ``_TILE_ROWS`` rows) the operations and
    the order in which gradients are added follow the chain of matmul,
    transpose, scale, softmax, concat and add nodes, so value and gradients
    round exactly as that chain does (with a 0/-inf constant added to the
    scores for causal). Narrower tiles shorten the inner dimension of
    ``P @ V``, ``P.T @ gO``, ``dS @ K`` and ``Q.T @ dS``, which BLAS may
    round differently, so they agree with the chain to within rounding
    (1e-12 in the tests), not bit for bit.
    """
    xq, x, w_qkv, w_out = _wrap(xq), _wrap(x), _wrap(w_qkv), _wrap(w_out)
    if (any(a.value.ndim != 2 for a in (xq, x, w_out)) or w_qkv.value.ndim != 3
            or w_qkv.shape[0] % 3 or not w_qkv.shape[0]):
        raise ValueError("multi_head_attention requires 2-D operands and a"
                         " (3 * heads, d, d_k) w_qkv with at least one head")
    n, d = xq.shape
    m, nh, dk = x.shape[0], w_qkv.shape[0] // 3, w_qkv.shape[2]
    if x.shape[1] != d or w_qkv.shape[1] != d or w_out.shape != (nh * dk, d):
        raise ValueError(
            f"multi_head_attention: shapes xq {xq.shape}, x {x.shape},"
            f" w_qkv {w_qkv.shape}, w_out {w_out.shape} disagree"
        )
    if causal and n != m:
        raise ValueError(f"multi_head_attention: causal needs as many queries as keys,"
                         f" got {n} and {m}")
    c = 1.0 / np.sqrt(dk)
    q = np.matmul(xq.value, w_qkv.value[:nh])  # (heads, n, d_k)
    kv = np.matmul(x.value, w_qkv.value[nh:])  # (2 * heads, m, d_k)
    kt = np.ascontiguousarray(kv[:nh].transpose(0, 2, 1))
    v = kv[nh:]
    tiles = _plan_tiles(n, m, nh, causal)
    probs = []  # one (heads, rows, keys) array per tile
    o = np.empty((nh, n, dk))
    for hs, rows, keys in tiles:
        p = np.matmul(q[hs, rows], kt[hs, :, keys])
        p *= c
        if causal:
            b = rows.stop - rows.start
            np.copyto(p[:, :, rows], -np.inf, where=_CAUSAL_FILL[:b, :b])
        p -= p.max(axis=2, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=2, keepdims=True)
        np.matmul(p, v[hs, keys], out=o[hs, rows])
        probs.append(p)
    # concat_cols of the heads' outputs
    a = o.transpose(1, 0, 2).reshape(n, nh * dk)  # C-ordered
    out = DiffNode(a @ w_out.value + xq.value, parents=(xq, x, w_qkv, w_out))

    def backward(g):
        # The chain adds the residual first, then each head's Q, K and V parts.
        xq.grad += g
        w_out.grad += a.T @ g
        ga = (g @ w_out.value.T).reshape(n, nh, dk)
        go = np.ascontiguousarray(ga.transpose(1, 0, 2))  # (heads, n, d_k)
        gq = np.empty_like(q)
        gkt = np.zeros_like(kt)  # gk transposed, so that each tile adds whole rows
        gkv = np.zeros_like(kv)
        gv = gkv[nh:]
        for (hs, rows, keys), p in zip(tiles, probs):
            gv[hs, keys] += np.matmul(p.transpose(0, 2, 1), go[hs, rows])
            ds = np.matmul(go[hs, rows], v[hs, keys].transpose(0, 2, 1))
            ds -= (ds * p).sum(axis=2, keepdims=True)
            ds *= p
            ds *= c
            np.matmul(ds, kt[hs, :, keys].transpose(0, 2, 1), out=gq[hs, rows])
            gkt[hs, :, keys] += np.matmul(q[hs, rows].transpose(0, 2, 1), ds)
        gkv[:nh] = gkt.transpose(0, 2, 1)
        wt = w_qkv.value.transpose(0, 2, 1)
        dxq = np.matmul(gq, wt[:nh])
        dx = np.matmul(gkv, wt[nh:])
        for h in range(nh):
            xq.grad += dxq[h]
            x.grad += dx[h]
            x.grad += dx[nh + h]
        w_qkv.grad[:nh] += np.matmul(xq.value.T, gq)
        w_qkv.grad[nh:] += np.matmul(x.value.T, gkv)

    out._backward = backward
    return out


def segment_mean(a, starts) -> DiffNode:
    """Row ``g`` of the output is the mean of input rows
    ``starts[g]:starts[g + 1]`` (the last segment runs to the end).

    The segments partition the rows in order, so ``starts`` must begin at 0,
    strictly increase and stay below the row count. Backward hands each
    member 1/count of its output row's gradient.

    Exactness: forward sums every segment with one ``np.bincount`` over
    flattened (segment, column) indices, then divides by the count.
    bincount adds its weights in input order starting from 0, so each entry
    is the row-by-row sum in order, as ``np.add.at`` forms it and as
    ``np.mean(run, axis=0)`` does for input of two or more dimensions.
    (``np.add.reduceat`` adds in another order, and ``np.mean`` of a 1-D run
    of 8 or more values sums pairwise, so both round differently.)
    """
    a = _wrap(a)
    starts = np.asarray(starts, dtype=np.int64)
    n = a.shape[0]
    if starts.ndim != 1 or starts.size == 0 or starts[0] != 0:
        raise HierarchyError("segment_mean: starts must be a 1-D array beginning at 0")
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
