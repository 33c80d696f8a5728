"""Dense float64 arrays with reverse-mode automatic differentiation.

Every operation returns a new :class:`DiffNode` holding a value, its parent
nodes, and a closure that routes the output gradient back to those parents.
The graph is rebuilt on every forward pass, which keeps variable-length
sequences simple. ``backward()`` on a scalar root runs a topological sort
and accumulates gradients by addition, so a node feeding several consumers
receives every contribution exactly once; call ``DiffNode.zero_grad`` on
each leaf between optimization steps.

Everything is 64-bit: the finite-difference checks in
:func:`check_gradients` target relative errors around 1e-4, which 32-bit
arithmetic cannot reach. Nothing broadcasts: the elementwise operations take
two operands of the same shape and raise otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import HierarchyError, NumericsError

__all__ = [
    "DiffNode",
    "as_tensor",
    "constant",
    "parameter",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "transpose",
    "concat_cols",
    "gather_rows",
    "gather_cols",
    "scatter_rows",
    "sum_all",
    "exp",
    "log",
    "cos_sin",
    "softplus",
    "softmax",
    "logsumexp",
    "multi_head_attention",
    "segment_mean",
    "check_gradients",
    "GradCheckReport",
]


def as_tensor(data) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float64 array (row-major)."""
    return np.ascontiguousarray(np.asarray(data, dtype=np.float64))


class DiffNode:
    """A value in the computation graph plus its accumulated gradient.

    ``value`` and ``grad`` are float64 arrays of identical shape. Leaf nodes
    (parameters, constants) have no parents; interior nodes carry a backward
    closure installed by the operation that created them.
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
            self._grad = np.zeros_like(self.value)
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
        """Propagate gradients from a scalar root through the whole graph."""
        if self.size != 1:
            raise ValueError(f"backward() requires a scalar root, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.value)
        for node in order:
            if node._backward is not None:
                node._backward(node.grad)

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


def _check_same_shape(a: DiffNode, b: DiffNode, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def add(a, b) -> DiffNode:
    """Elementwise sum of two nodes of the same shape."""
    a, b = _wrap(a), _wrap(b)
    _check_same_shape(a, b, "add")
    out = DiffNode(a.value + b.value, parents=(a, b))

    def backward(g):
        a.grad += g
        b.grad += g

    out._backward = backward
    return out


def sub(a, b) -> DiffNode:
    """Elementwise difference of two nodes of the same shape."""
    a, b = _wrap(a), _wrap(b)
    _check_same_shape(a, b, "sub")
    out = DiffNode(a.value - b.value, parents=(a, b))

    def backward(g):
        a.grad += g
        b.grad += -g

    out._backward = backward
    return out


def mul(a, b) -> DiffNode:
    """Elementwise product of two nodes of the same shape."""
    a, b = _wrap(a), _wrap(b)
    _check_same_shape(a, b, "mul")
    out = DiffNode(a.value * b.value, parents=(a, b))

    def backward(g):
        a.grad += g * b.value
        b.grad += g * a.value

    out._backward = backward
    return out


def scale(a, c: float) -> DiffNode:
    """Multiply by a python float constant."""
    a = _wrap(a)
    c = float(c)
    out = DiffNode(a.value * c, parents=(a,))

    def backward(g):
        a.grad += g * c

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


def transpose(a) -> DiffNode:
    a = _wrap(a)
    out = DiffNode(a.value.T, parents=(a,))

    def backward(g):
        a.grad += g.T

    out._backward = backward
    return out


def concat_cols(*nodes) -> DiffNode:
    """Stack matrices horizontally (axis 1)."""
    nodes = [_wrap(n) for n in nodes]
    if not nodes:
        raise ValueError("concat of zero nodes")
    values = [n.value for n in nodes]
    out = DiffNode(np.concatenate(values, axis=1), parents=tuple(nodes))
    offsets = np.cumsum([0] + [v.shape[1] for v in values])

    def backward(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            node.grad += g[:, lo:hi]

    out._backward = backward
    return out


def _check_indices(idx: np.ndarray, bound: int, what: str) -> None:
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        raise IndexError(f"{what} index out of range [0, {bound})")


def gather_rows(a, idx) -> DiffNode:
    """Select rows by index; repeated indices sum their gradients."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    _check_indices(idx, a.shape[0], "row")
    out = DiffNode(a.value[idx], parents=(a,))

    def backward(g):
        np.add.at(a.grad, idx, g)

    out._backward = backward
    return out


def gather_cols(a, idx) -> DiffNode:
    """Select columns by index; repeated indices sum their gradients."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    _check_indices(idx, a.shape[1], "column")
    out = DiffNode(a.value[:, idx], parents=(a,))

    def backward(g):
        np.add.at(a.grad.T, idx, g.T)

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
    if len(np.unique(idx)) != len(idx):
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


def sum_all(a) -> DiffNode:
    a = _wrap(a)
    out = DiffNode(np.sum(a.value), parents=(a,))

    def backward(g):
        a.grad += np.broadcast_to(g, a.shape)

    out._backward = backward
    return out


def exp(a) -> DiffNode:
    a = _wrap(a)
    value = np.exp(a.value)
    out = DiffNode(value, parents=(a,))

    # Capturing ``out`` here would make a reference cycle that keeps the
    # whole upstream graph alive until the cyclic garbage collector runs.
    def backward(g):
        a.grad += g * value

    out._backward = backward
    return out


def log(a) -> DiffNode:
    a = _wrap(a)
    if np.any(a.value <= 0.0):
        raise NumericsError("log requires strictly positive input")
    out = DiffNode(np.log(a.value), parents=(a,))

    def backward(g):
        a.grad += g / a.value

    out._backward = backward
    return out


def cos_sin(a) -> tuple[DiffNode, DiffNode]:
    """Elementwise cosine and sine of one node. Each backward reuses the
    other's forward values instead of recomputing the trig."""
    a = _wrap(a)
    # The closures hold the arrays, not the nodes, so no reference cycle forms.
    cos_value, sin_value = np.cos(a.value), np.sin(a.value)

    def cos_backward(g):
        a.grad += -g * sin_value

    def sin_backward(g):
        a.grad += g * cos_value

    return (DiffNode(cos_value, (a,), cos_backward),
            DiffNode(sin_value, (a,), sin_backward))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a) -> DiffNode:
    """log(1 + exp(x)) computed without overflow; strictly positive output."""
    a = _wrap(a)
    out = DiffNode(np.logaddexp(0.0, a.value), parents=(a,))

    def backward(g):
        a.grad += g * _sigmoid(a.value)

    out._backward = backward
    return out


def softmax(a, axis: int = -1) -> DiffNode:
    """Stable softmax along ``axis`` (max-subtraction); rows sum to one."""
    a = _wrap(a)
    if not -a.value.ndim <= axis < a.value.ndim:
        raise ValueError(f"softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.value - np.max(a.value, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)
    out = DiffNode(y, parents=(a,))

    def backward(g):
        inner = np.sum(g * y, axis=axis, keepdims=True)
        a.grad += y * (g - inner)

    out._backward = backward
    return out


def logsumexp(a, axis: int = -1) -> DiffNode:
    """log(sum(exp(x))) along ``axis`` with keepdims, overflow-safe."""
    a = _wrap(a)
    m = np.max(a.value, axis=axis, keepdims=True)
    value = m + np.log(np.sum(np.exp(a.value - m), axis=axis, keepdims=True))
    out = DiffNode(value, parents=(a,))

    def backward(g):
        soft = np.exp(a.value - value)
        a.grad += g * soft

    out._backward = backward
    return out


# Heads whose score blocks together hold at most this many entries (256 KB)
# share one pass of the in-place softmax and its backward, so that the pass
# runs in cache; a larger block takes one head at a time.
_GROUP_ENTRIES = 1 << 15


def multi_head_attention(xq, x, w_qkv, w_out, mask, scale: float) -> DiffNode:
    """``concat_h(softmax(scale * (xq Wq_h) (x Wk_h).T) (x Wv_h)) @ w_out + xq``
    with keys outside ``mask`` excluded.

    ``w_qkv`` is ``(3 * heads, d, d_k)``: head ``h``'s Wq, Wk and Wv are
    ``w_qkv[h]``, ``w_qkv[heads + h]`` and ``w_qkv[2 * heads + h]``, and
    ``w_out`` is ``(heads * d_k, d)``. ``mask`` is a boolean ``(n, m)`` array
    over the rows of ``xq`` and ``x`` (row j lists the keys query j may read;
    no row may be empty), or ``None`` for every key.

    One node stands for the whole block: the heads' projections, scores and
    products are batched ``np.matmul`` calls, which make the same 2-D BLAS
    call per head as :func:`matmul`, and the softmax and its backward work in
    place on the ``(heads, n, m)`` scores, a group of heads at a time (see
    ``_GROUP_ENTRIES``). The operations and the order in
    which gradients are added follow the chain of :func:`matmul`,
    :func:`transpose`, :func:`scale`, :func:`softmax`, :func:`concat_cols`
    and :func:`add` nodes, so value and gradients round exactly as that chain
    does (with a 0/-inf constant added to the scores for a mask).
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
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n, m):
            raise ValueError(f"multi_head_attention: mask shape {mask.shape} != {(n, m)}")
        if not mask.any(axis=1).all():
            raise ValueError("multi_head_attention: every query needs at least one key")
    c = float(scale)
    q = np.matmul(xq.value, w_qkv.value[:nh])  # (heads, n, d_k)
    kv = np.matmul(x.value, w_qkv.value[nh:])  # (2 * heads, m, d_k)
    kt = np.ascontiguousarray(kv[:nh].transpose(0, 2, 1))
    v = kv[nh:]
    excluded = None if mask is None else ~mask
    step = max(1, _GROUP_ENTRIES // (n * m))
    groups = [slice(lo, lo + step) for lo in range(0, nh, step)]
    probs = []  # one (heads in the group, n, m) array per group
    o = np.empty((nh, n, dk))
    for hs in groups:
        p = np.matmul(q[hs], kt[hs])
        p *= c
        if excluded is not None:
            np.copyto(p, -np.inf, where=excluded)
        p -= np.max(p, axis=2, keepdims=True)
        np.exp(p, out=p)
        p /= np.sum(p, axis=2, keepdims=True)
        np.matmul(p, v[hs], out=o[hs])
        probs.append(p)
    # concat_cols of the heads' outputs
    a = as_tensor(o.transpose(1, 0, 2).reshape(n, nh * dk))
    out = DiffNode(a @ w_out.value + xq.value, parents=(xq, x, w_qkv, w_out))

    def backward(g):
        # The chain adds the residual first, then each head's Q, K and V parts.
        xq.grad += g
        w_out.grad += a.T @ g
        ga = (g @ w_out.value.T).reshape(n, nh, dk)
        go = np.ascontiguousarray(ga.transpose(1, 0, 2))  # (heads, n, d_k)
        gq = np.empty_like(q)
        gkv = np.empty_like(kv)
        gk, gv = gkv[:nh], gkv[nh:]
        for hs, p in zip(groups, probs):
            np.matmul(p.transpose(0, 2, 1), go[hs], out=gv[hs])
            ds = np.matmul(go[hs], v[hs].transpose(0, 2, 1))
            ds -= np.sum(ds * p, axis=2, keepdims=True)
            ds *= p
            ds *= c
            np.matmul(ds, kt[hs].transpose(0, 2, 1), out=gq[hs])
            gk[hs] = np.matmul(q[hs].transpose(0, 2, 1), ds).transpose(0, 2, 1)
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
    strictly increase and stay below the row count. Forward adds each
    segment's rows in order, as ``np.mean`` does, and divides by the count;
    backward hands each member 1/count of its output row's gradient.
    """
    a = _wrap(a)
    starts = np.asarray(starts, dtype=np.int64)
    n = a.shape[0]
    if starts.ndim != 1 or starts.size == 0 or starts[0] != 0:
        raise HierarchyError("segment_mean: starts must be a 1-D array beginning at 0")
    if np.any(np.diff(starts) <= 0):
        raise HierarchyError("segment_mean: empty segment (starts must strictly increase)")
    if starts[-1] >= n:
        raise HierarchyError(f"segment_mean: start {starts[-1]} out of range [0, {n})")
    counts = np.diff(starts, append=n)
    sums = np.zeros((len(starts),) + a.shape[1:])
    # np.add.reduceat sums in another order and rounds unlike np.mean.
    np.add.at(sums, np.repeat(np.arange(len(starts)), counts), a.value)
    per_row = counts.reshape((-1,) + (1,) * (a.value.ndim - 1))
    out = DiffNode(sums / per_row, parents=(a,))

    def backward(g):
        a.grad += np.repeat(g / per_row, counts, axis=0)

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


class GradCheckReport:
    """Outcome of :func:`check_gradients`: worst relative error per parameter."""

    def __init__(self, per_param: dict[str, float], num_checked: int):
        self.per_param = per_param
        self.num_checked = num_checked
        self.max_rel_error = max(per_param.values()) if per_param else 0.0

    def __repr__(self):
        return (
            f"GradCheckReport(max_rel_error={self.max_rel_error:.3e},"
            f" entries={self.num_checked})"
        )


def check_gradients(
    f,
    params: dict[str, DiffNode],
    step: float = 1e-5,
    tol: float | None = None,
    max_entries: int = 100,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients of ``f(params)`` to central differences.

    ``f`` must deterministically build a scalar DiffNode from the parameter
    leaves. Every entry is checked for small tensors; for tensors with more
    than ``max_entries`` entries, a seeded random sample of ``max_entries``
    is used. The relative error denominator is floored at 1e-6 so that
    finite-difference noise on near-zero gradients does not register.
    """
    rng = np.random.default_rng(seed)
    root = f(params)
    if root.size != 1:
        raise ValueError("check_gradients: f must return a scalar node")
    if not np.isfinite(root.value).all():
        raise NumericsError("check_gradients: loss is not finite")
    for node in params.values():
        node.zero_grad()
    root.backward()
    analytic = {name: node.grad.copy() for name, node in params.items()}

    per_param: dict[str, float] = {}
    checked = 0
    for name, node in params.items():
        flat = node.value.reshape(-1)
        n = flat.size
        if n <= max_entries:
            entries = np.arange(n)
        else:
            entries = rng.choice(n, size=max_entries, replace=False)
        worst = 0.0
        for i in entries:
            original = flat[i]
            flat[i] = original + step
            up = f(params).value.item()
            flat[i] = original - step
            down = f(params).value.item()
            flat[i] = original
            numeric = (up - down) / (2.0 * step)
            a = analytic[name].reshape(-1)[i]
            denom = max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, abs(a - numeric) / denom)
            checked += 1
        per_param[name] = worst

    report = GradCheckReport(per_param, checked)
    if tol is not None and report.max_rel_error >= tol:
        bad = {k: v for k, v in per_param.items() if v >= tol}
        raise AssertionError(f"gradient check failed (tol={tol}): {bad}")
    return report
