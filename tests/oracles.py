"""Independent reference implementations used to cross-check the package.

These deliberately avoid the production code paths: brute-force O(n^3)
single linkage over explicit member sets, heap-driven single linkage over
adjacent gaps (fast enough for benchmark-sized windows), dense masked
attention in plain numpy, and quadrature for distribution moments.
"""

import heapq

import numpy as np


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
    """E[T] for Weibull(scale=lam, shape=gamma) by integrating t*pdf on [0, 50 lam]."""
    from scipy.integrate import quad

    def integrand(x):
        return x * (gamma / lam) * (x / lam) ** (gamma - 1.0) * np.exp(-((x / lam) ** gamma))

    value, _ = quad(integrand, 0.0, 50.0 * lam, limit=200)
    return value
