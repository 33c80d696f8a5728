"""Independent reference implementations used to cross-check the package.

These deliberately avoid the production code paths: brute-force O(n^3)
single linkage over explicit member sets, heap-driven single linkage over
adjacent gaps (fast enough for benchmark-sized windows), dense masked
attention in plain numpy, quadrature for distribution moments, the
node-by-node chains that the fused FCPE, attention and decoder-head nodes
replace, built from the small autodiff ops below, sliding windows built
as checked copies, and the synthetic generators drawing through the
``Generator``'s general calls.
"""

import heapq
import math

import numpy as np

from nextevent import model as M
from nextevent import tensor as T
from nextevent.errors import ConfigError, DataError, NumericsError
from nextevent.events import EventSequence, PredictionExample
from nextevent.tensor import DiffNode


def brute_force_single_linkage(times):
    """All-pairs single-linkage agglomeration over explicit member sets.

    Returns (order, left_id, right_id, result_id, distance) tuples with the
    same id scheme as the fast path: leaves 0..L-1, merge o creates L-1+o.
    Ties on distance go to the pair whose earlier cluster starts first, then
    to the earlier start of the other cluster.
    """
    t = np.asarray(times, dtype=np.float64)
    n = len(t)
    clusters = {i: np.array([i]) for i in range(n)}
    steps = []
    next_id = n
    for order in range(1, n):
        best = None
        ids = sorted(clusters)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                ta, tb = t[clusters[a]], t[clusters[b]]
                dist = np.abs(ta[:, None] - tb[None, :]).min()
                if ta.min() <= tb.min():
                    left, right = a, b
                else:
                    left, right = b, a
                key = (dist, t[clusters[left]].min(), t[clusters[right]].min())
                if best is None or key < best[0]:
                    best = (key, left, right)
        (dist, _, _), left, right = best
        merged = np.sort(np.concatenate([clusters.pop(left), clusters.pop(right)]))
        clusters[next_id] = merged
        steps.append((order, left, right, next_id, float(dist)))
        next_id += 1
    return steps


def heap_single_linkage(times):
    """Single linkage on sorted 1-D points with a heap over adjacent gaps.

    Returns the same (order, left_id, right_id, result_id, distance) tuples
    as :func:`brute_force_single_linkage`, in O(n log n). Heap keys are
    (distance, first time of the left cluster, gap index, version); a gap
    whose left cluster grows is pushed again and its stale entry skipped.
    """
    t = np.asarray(times, dtype=np.float64)
    n = len(t)

    # Active clusters are contiguous spans [lo, hi] of leaf indices, tracked
    # through a doubly linked list of gap slots. Gap g sits between leaf g
    # and g+1; merging across it fuses the flanking spans.
    left_span_lo = list(range(n - 1))  # gap g: lowest leaf of the span ending at g
    cluster_id_left = list(range(n - 1))
    cluster_id_right = list(range(1, n))
    prev_gap = list(range(-1, n - 2))
    next_gap = list(range(1, n - 1)) + [-1]
    alive = [True] * (n - 1)
    version = [0] * (n - 1)

    heap = []
    for g in range(n - 1):
        heapq.heappush(heap, (t[g + 1] - t[g], t[left_span_lo[g]], g, 0))

    steps = []
    next_id = n
    order = 0
    while len(steps) < n - 1:
        dist, _, g, ver = heapq.heappop(heap)
        if not alive[g] or version[g] != ver:
            continue
        order += 1
        left_id = cluster_id_left[g]
        right_id = cluster_id_right[g]
        new_id = next_id
        next_id += 1
        steps.append((order, left_id, right_id, new_id, float(dist)))
        alive[g] = False

        lo = left_span_lo[g]
        pg, ng = prev_gap[g], next_gap[g]
        if pg >= 0:
            # Left neighbour's right cluster becomes the merged one; its key
            # (distance, left-cluster first time) is unchanged.
            cluster_id_right[pg] = new_id
            next_gap[pg] = ng
        if ng >= 0:
            # Right neighbour's left cluster grew leftward: its tie-break key
            # changes, so push a fresh entry and invalidate the stale one.
            cluster_id_left[ng] = new_id
            left_span_lo[ng] = lo
            prev_gap[ng] = pg
            version[ng] += 1
            heapq.heappush(heap, (t[ng + 1] - t[ng], t[lo], ng, version[ng]))
    return steps


def dense_masked_attention(H, Wq, Wk, Wv, key_sets, scale):
    """Single-head attention over all rows with -inf masking outside key sets.

    ``key_sets[j]`` lists the permitted key rows for query j. Returns the
    post-softmax mixture rows (no output projection, no residual).
    """
    H = np.asarray(H, dtype=np.float64)
    n = H.shape[0]
    Q, K, V = H @ Wq, H @ Wk, H @ Wv
    scores = (Q @ K.T) * scale
    mask = np.full((n, n), -np.inf)
    for j, keys in enumerate(key_sets):
        mask[j, list(keys)] = 0.0
    scores = scores + mask
    scores -= scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    e[np.isinf(mask)] = 0.0
    probs = e / e.sum(axis=1, keepdims=True)
    return probs @ V, probs


def weibull_mean_by_quadrature(lam, gamma):
    """E[T] for Weibull(scale=lam, shape=gamma) by integrating t*pdf on [0, inf).

    A finite upper limit drops the tail, which matters for shapes below 1:
    at 0.54, cutting at 50 lam loses 1% of the mean."""
    from scipy.integrate import quad

    def integrand(x):
        return x * (gamma / lam) * (x / lam) ** (gamma - 1.0) * np.exp(-((x / lam) ** gamma))

    value, _ = quad(integrand, 0.0, np.inf, limit=200)
    return value


# ---------------------------------------------------------------------------
# Small autodiff ops: each a DiffNode with its own backward, on top of the
# engine's add, matmul and concat_cols
# ---------------------------------------------------------------------------


def _wrap(x):
    return x if isinstance(x, DiffNode) else T.DiffNode(x)


def transpose(a):
    a = _wrap(a)

    def backward(g):
        a.grad += g.T

    return DiffNode(a.value.T, (a,), backward)


def _same_shape(op, a, b):
    a, b = _wrap(a), _wrap(b)
    if a.shape != b.shape:
        raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}")
    return a, b


def sub(a, b):
    a, b = _same_shape("sub", a, b)

    def backward(g):
        a.grad += g
        b.grad += -g

    return DiffNode(a.value - b.value, (a, b), backward)


def mul(a, b):
    a, b = _same_shape("mul", a, b)

    def backward(g):
        a.grad += g * b.value
        b.grad += g * a.value

    return DiffNode(a.value * b.value, (a, b), backward)


def scale(a, c):
    a, c = _wrap(a), float(c)

    def backward(g):
        a.grad += g * c

    return DiffNode(a.value * c, (a,), backward)


def sum_all(a):
    a = _wrap(a)

    def backward(g):
        a.grad += np.broadcast_to(g, a.shape)

    return DiffNode(np.sum(a.value), (a,), backward)


def exp(a):
    a = _wrap(a)
    value = np.exp(a.value)

    def backward(g):
        a.grad += g * value

    return DiffNode(value, (a,), backward)


def log(a):
    a = _wrap(a)
    if np.any(a.value <= 0.0):
        raise NumericsError("log requires strictly positive input")

    def backward(g):
        a.grad += g / a.value

    return DiffNode(np.log(a.value), (a,), backward)


def cos_sin(a):
    """Two nodes; each backward reuses the other's forward values."""
    a = _wrap(a)
    cos_value, sin_value = np.cos(a.value), np.sin(a.value)

    def cos_backward(g):
        a.grad += -g * sin_value

    def sin_backward(g):
        a.grad += g * cos_value

    return DiffNode(cos_value, (a,), cos_backward), DiffNode(sin_value, (a,), sin_backward)


def gather_cols(a, idx):
    """Select columns by index; repeated indices sum their gradients."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise IndexError(f"column index out of range [0, {a.shape[1]})")

    def backward(g):
        np.add.at(a.grad.T, idx, g.T)

    return DiffNode(a.value[:, idx], (a,), backward)


def softplus(a):
    a = _wrap(a)

    def backward(g):
        a.grad += g * T._sigmoid(a.value)

    return DiffNode(np.logaddexp(0.0, a.value), (a,), backward)


def softmax(a, axis=-1):
    a = _wrap(a)
    if not -a.value.ndim <= axis < a.value.ndim:
        raise ValueError(f"softmax axis {axis} invalid for shape {a.shape}")
    e = np.exp(a.value - np.max(a.value, axis=axis, keepdims=True))
    y = e / np.sum(e, axis=axis, keepdims=True)

    def backward(g):
        a.grad += y * (g - np.sum(g * y, axis=axis, keepdims=True))

    return DiffNode(y, (a,), backward)


def logsumexp(a, axis=-1):
    a = _wrap(a)
    m = np.max(a.value, axis=axis, keepdims=True)
    value = m + np.log(np.sum(np.exp(a.value - m), axis=axis, keepdims=True))

    def backward(g):
        a.grad += g * np.exp(a.value - value)

    return DiffNode(value, (a,), backward)


# ---------------------------------------------------------------------------
# The chains the fused nodes replace
# ---------------------------------------------------------------------------


def _row_indices(a, idx):
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"row index out of range [0, {a.shape[0]})")
    return idx


def gather_rows(a, idx):
    """Select rows by index; repeated indices sum their gradients."""
    a = _wrap(a)
    idx = _row_indices(a, idx)

    def backward(g):
        np.add.at(a.grad, idx, g)

    return DiffNode(a.value[idx], (a,), backward)


def scatter_rows(base, idx, rows):
    """Copy of ``base`` with the rows at ``idx``, which must be distinct,
    replaced by ``rows``; the other rows route their gradient to ``base``."""
    base, rows = _wrap(base), _wrap(rows)
    idx = _row_indices(base, idx)
    if np.unique(idx).size != idx.size:
        raise ValueError("scatter_rows requires distinct indices")
    value = base.value.copy()
    value[idx] = rows.value

    def backward(g):
        g_base = g.copy()
        g_base[idx] = 0.0
        base.grad += g_base
        rows.grad += g[idx]

    return DiffNode(value, (base, rows), backward)


def attention_chain(xq, x, w_qkv, w_out, causal):
    """Attention as about 9 nodes per head: rows of ``xq`` query rows of
    ``x``, with causal as an additive 0/-inf constant. ``w_qkv`` is a list
    of one leaf per head slice, in ``tensor.multi_head_attention``'s order.
    Fed by :func:`gather_rows` and followed by :func:`scatter_rows` (or, for
    a sole last query, fed its row by a second gather), it is the chain
    that kernel stands for."""
    nh = len(w_qkv) // 3
    c = 1.0 / math.sqrt(w_qkv[0].shape[1])
    outs = []
    for h in range(nh):
        wq, wk, wv = w_qkv[h], w_qkv[nh + h], w_qkv[2 * nh + h]
        scores = scale(T.matmul(T.matmul(xq, wq), transpose(T.matmul(x, wk))), c)
        if causal:
            n = x.shape[0]
            scores = T.add(scores, T.DiffNode(np.where(np.tri(n), 0.0, -np.inf)))
        outs.append(T.matmul(softmax(scores, axis=1), T.matmul(x, wv)))
    return T.add(T.matmul(T.concat_cols(*outs), w_out), xq)


def fcpe_chain(freqs, density_map, times, type_weights, trig):
    """``encoding.fcpe_matrix`` as 10 nodes: phases and amplitudes as
    matmuls, cos/sin, the two products, then the interleave as a column
    gather of their concatenation. ``trig`` is ignored: the chain computes
    its own cos and sin."""
    half = freqs.shape[1]
    dim = 2 * half
    interleave = np.empty(dim, dtype=np.int64)
    interleave[0::2] = np.arange(half)
    interleave[1::2] = np.arange(half) + half
    t_col = T.DiffNode(np.asarray(times, dtype=np.float64).reshape(-1, 1))
    phases = T.matmul(t_col, freqs)
    weights = T.DiffNode(np.asarray(type_weights, dtype=np.float64))
    mu = T.matmul(weights, density_map)
    cos_phases, sin_phases = cos_sin(phases)
    return gather_cols(T.concat_cols(mul(mu, cos_phases), mul(mu, sin_phases)), interleave)


def weibull_nll_chain(lam, gamma, gap):
    """-[ log g - log l + (g - 1)(log t - log l) - (t / l)^g ] as nodes."""
    u = sub(T.DiffNode([[math.log(gap)]]), log(lam))
    z = exp(mul(gamma, u))
    term = sub(T.add(sub(log(gamma), log(lam)), mul(sub(gamma, T.DiffNode([[1.0]])), u)), z)
    return scale(term, -1.0)


def decode_chain(params, H_L, target, gap):
    """The decoder head of ``model.forward`` as about 31 nodes; returns a
    ``ForwardResult`` like ``model._decode``."""
    gap = float(gap)
    if gap <= 0.0:
        raise DataError(f"inter-event gap must be positive, got {gap}")
    logits = T.matmul(H_L, params.w_type)
    ce = sub(logsumexp(logits, axis=1), gather_cols(logits, [target]))
    pre = T.matmul(H_L, params.w_time)
    floor = T.DiffNode([[M.POSITIVE_FLOOR]])
    lam = T.add(softplus(gather_cols(pre, [0])), floor)
    gamma = T.add(softplus(gather_cols(pre, [1])), floor)
    nll = weibull_nll_chain(lam, gamma, gap)
    total = T.add(scale(nll, 0.5), scale(ce, 0.5))
    return M.ForwardResult(
        total=total,
        time_nll=nll.value.item(),
        type_ce=ce.value.item(),
        type_probs=softmax(logits, axis=1).value[0].copy(),
        lam=lam.value.item(),
        gamma=gamma.value.item(),
    )


# ---------------------------------------------------------------------------
# Sliding windows as copies
# ---------------------------------------------------------------------------


def copied_examples(seq, window):
    """``events.make_examples`` as one checked copy per window: every history
    is a fresh ``EventSequence`` and every example runs its own checks."""
    if window < 2:
        raise ConfigError(f"window must be >= 2, got {window}")
    out = []
    for i in range(window, len(seq)):
        history = EventSequence(
            seq.times[i - window : i].copy(),
            seq.types[i - window : i].copy(),
            seq.num_types,
            seq_id=f"{seq.seq_id}[{i - window}:{i}]",
        )
        out.append(PredictionExample(history, float(seq.times[i]), int(seq.types[i])))
    return out


# ---------------------------------------------------------------------------
# Synthetic generators through the Generator's general calls
# ---------------------------------------------------------------------------


def hawkes_oracle(num_seqs, horizon, base_rate, excitation, decay, num_types, seed):
    """``events.generate_hawkes`` with each thinning test's uniform drawn by
    ``rng.uniform()``; parameters are taken as valid, not checked."""
    rng = np.random.default_rng(seed)
    sequences = []
    for s in range(num_seqs):
        times = []
        t = 0.0
        excite = 0.0
        while True:
            bound = base_rate + excite
            w = rng.exponential(1.0 / bound)
            excite *= math.exp(-decay * w)
            t += w
            if t >= horizon:
                break
            if rng.uniform() * bound <= base_rate + excite:
                times.append(t)
                excite += excitation
        types = rng.integers(0, num_types, size=len(times))
        sequences.append(EventSequence(np.asarray(times), types, num_types, seq_id=f"hawkes-{s}"))
    return sequences


def multiscale_oracle(num_seqs, burst_rate, burst_size, gap_scale, num_types, seed,
                      num_bursts=8, pattern_noise=0.1):
    """``events.generate_multiscale`` with uniforms from ``rng.uniform()``,
    flips from ``rng.choice`` over array pools and times summed one event at
    a time; parameters are taken as valid, not checked."""
    n_open = max(1, num_types // 2)
    open_pool = np.arange(0, n_open)
    within_pool = np.arange(n_open, num_types) if num_types > 1 else np.arange(0, 1)
    rng = np.random.default_rng(seed)
    sequences = []
    for s in range(num_seqs):
        times, types = [], []
        t = 0.0
        for b in range(num_bursts):
            t += rng.exponential(gap_scale)
            opener = open_pool[b % len(open_pool)]
            if rng.uniform() < pattern_noise:
                opener = rng.choice(open_pool)
            times.append(t)
            types.append(int(opener))
            for j in range(1, burst_size):
                t += rng.exponential(1.0 / burst_rate)
                k = within_pool[(b + j) % len(within_pool)]
                if rng.uniform() < pattern_noise:
                    k = rng.choice(within_pool)
                times.append(t)
                types.append(int(k))
        sequences.append(EventSequence(np.asarray(times), np.asarray(types), num_types,
                                       seq_id=f"multiscale-{s}"))
    return sequences
