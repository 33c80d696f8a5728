"""Multi-scale time hierarchy from bottom-up clustering of 1-D timestamps.

Clusters are merged by single linkage (minimum pairwise distance). Single
linkage follows the Kruskal order of the minimum spanning tree (Gower & Ross
1969), and on sorted 1-D input that tree is the chain of neighbour gaps: each
merge joins two time-adjacent clusters across the smallest remaining gap. The
whole merge order is therefore ``np.argsort(np.diff(t), kind="stable")``; the
stable order breaks distance ties toward the pair whose left cluster starts
first. The merge order is then sliced into consecutive intervals; the
interval index gives the temporal scale.

The tree follows from the gap ranks (positions in that order) alone. The
cluster formed across gap ``g`` spans from one past the nearest gap on its
left with a larger rank to the nearest gap on its right with a larger rank;
one monotone-stack pass finds both. A cluster's parent is formed across
whichever of its two bounding gaps has the lower rank (for leaf ``i``: gaps
``i - 1`` and ``i``).

Because only neighbours merge, every cluster is a contiguous span of leaves
``[lo, hi]``, and the spans in node-id order are the tree's only encoding.
Merge ``k + 1`` creates node ``L + k``. Its left child is the largest
earlier node id whose span starts at the same ``lo``, its right child covers
the rest of the span, and the gap it fused follows the left child's last
leaf. :class:`ScaleHierarchy` stores the spans with each node's scale and
mean time, filled once when the merge order is sliced. Disjoint spans
ordered by ``lo`` are also in time order.

Two node-set views matter downstream and are deliberately distinct:

* ``frontier(s)`` -- the clusters that exist when interval ``s`` begins and
  are consumed by one of its merges. These are the attention participants
  at scale ``s``; a query's key set is drawn from this set.
* ``active_nodes(s)`` -- every cluster alive when interval ``s`` begins.
  This is a partition of all leaves (frontier(s) plus carried-over nodes
  that merge at a later scale) and is what hierarchical pooling walks.
  Each node of ``active_nodes(s+1)`` absorbs a contiguous run of
  ``active_nodes(s)``, so ``pool_groups(s)`` describes the pooling by the
  run starts alone.

For a single scale the two views coincide with the full leaf set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ConfigError, DataError, HierarchyError

__all__ = [
    "ScaleHierarchy",
    "default_merge_counts",
    "build_hierarchy",
]


def _merge_tree(times):
    """Validated times plus the single-linkage tree as arrays.

    Returns ``(t, lo, hi, consumed)``: per node id its leaf span and the
    order of the merge that absorbs it (L for the root).
    """
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1:
        raise HierarchyError(f"times must be a 1-D array, got shape {t.shape}")
    n = len(t)
    if n < 2:
        raise HierarchyError(f"need at least 2 points to cluster, got {n}")
    gaps = t[1:] - t[:-1]
    if not (gaps > 0).all():  # also rejects NaN, which no gap order can place
        raise HierarchyError("times must be strictly increasing with no duplicates")

    m = n - 1
    order = gaps.argsort(kind="stable")  # order[k]: the gap merge k + 1 fuses
    rank = np.full(n, m)  # rank[m] == rank[-1] == m: "no gap" past either end
    rank[order] = np.arange(m)
    # Nearest gap with a larger rank on each side (-1 / m when there is none),
    # from one monotone-stack pass. The floor -1 outranks every gap.
    ranks = rank.tolist()
    prev_larger, next_larger = [-1] * m, [m] * m
    stack = [-1]
    for g, r in enumerate(ranks[:m]):
        while ranks[stack[-1]] < r:
            next_larger[stack.pop()] = g
        prev_larger[g] = stack[-1]
        stack.append(g)

    # Each node lies between two bounding gaps: leaf i between gaps i - 1 and
    # i, the node merged across gap g between g's nearest larger-rank gaps.
    # Its parent is merged across whichever of the two has the lower rank.
    left_gap = np.concatenate([np.arange(-1, m), np.asarray(prev_larger)[order]])
    right_gap = np.concatenate([np.arange(n), np.asarray(next_larger)[order]])
    consumed = np.minimum(rank[left_gap], rank[right_gap]) + 1
    return t, left_gap + 1, right_gap, consumed


def _is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def default_merge_counts(num_points: int, num_scales: int) -> list[int]:
    """Split L-1 merges into S near-equal interval counts, remainder first."""
    merges = num_points - 1
    if not _is_integer(num_scales) or not 1 <= num_scales <= merges:
        raise ConfigError(
            f"num_scales must lie in the integers 1..{merges} for {num_points} points,"
            f" got {num_scales!r}"
        )
    base, rem = divmod(merges, num_scales)
    return [base + (1 if s < rem else 0) for s in range(num_scales)]


@dataclass
class ScaleHierarchy:
    """Merge tree plus the scale slicing derived from ``merge_counts``.

    Every per-node array is indexed by node id (leaves 0..L-1, merge ``o``
    creates L-1+o) and is filled once by :func:`build_hierarchy`. The spans
    ``lo``/``hi`` are the tree's only encoding. Merge ``k + 1`` creates node
    L+k; its left child is the largest id below L+k whose span starts at
    ``lo[L+k]``, its right child holds the rest of the span, and the gap it
    fused lies after the left child's last leaf ``g``: ``t[g+1] - t[g]``,
    with the leaves' times in ``rep_time[:L]``.
    """

    merge_counts: list[int]
    lo: np.ndarray  # first leaf of the node's span
    hi: np.ndarray  # last leaf of the node's span
    scale: np.ndarray
    rep_time: np.ndarray  # mean time of the span's leaves; a leaf's own time
    active: list[np.ndarray]  # per scale: ids of active_nodes(s), ordered by lo
    frontier_pos: list[np.ndarray]  # per scale: positions of frontier(s) in active

    @property
    def num_scales(self) -> int:
        return len(self.merge_counts)

    @property
    def num_leaves(self) -> int:
        return (len(self.lo) + 1) // 2

    def _check_scale(self, s: int) -> None:
        if not 1 <= s <= self.num_scales:
            raise ConfigError(f"scale {s} out of range [1, {self.num_scales}]")

    def active_nodes(self, s: int) -> list[int]:
        """Clusters alive at the start of interval ``s``: a partition of all
        leaves, in time order."""
        self._check_scale(s)
        return self.active[s - 1].tolist()

    def frontier(self, s: int) -> list[int]:
        """Attention participants at scale ``s``: the active clusters that one
        of interval ``s``'s merges consumes, in time order."""
        self._check_scale(s)
        return self.active[s - 1][self.frontier_pos[s - 1]].tolist()

    def key_set(self, s: int, node_id: int, causal: bool = False) -> list[int]:
        """Keys for query ``node_id`` at scale ``s``: the whole frontier there
        (itself included), optionally restricted to nodes no later than it.

        A carried-over node (active at ``s`` but not in the frontier) runs no
        query: ``encode`` passes its row through untouched and
        ``hierarchy_key_set_sizes`` counts frontier queries only. Its key set
        is ``[node_id]`` by convention.
        """
        frontier = self.frontier(s)
        if node_id not in frontier:
            if node_id in self.active_nodes(s):
                return [node_id]
            raise HierarchyError(f"node {node_id} is not active at scale {s}")
        if not causal:
            return frontier
        t_q = self.rep_time[node_id]
        return [i for i in frontier if self.rep_time[i] <= t_q]

    def pool_groups(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Grouping that takes active_nodes(s) to active_nodes(s+1).

        Returns the ids of active_nodes(s+1) in time order and, for each,
        the position within active_nodes(s) of the first cluster it absorbs.
        Both sets partition the leaves into spans ordered by ``lo``, so next
        node ``g`` absorbs the contiguous run of positions from ``starts[g]``
        up to ``starts[g + 1]`` (the last run goes to the end); a carried-over
        node is a run of one.
        """
        if not 1 <= s < self.num_scales:
            raise ConfigError(f"pooling needs 1 <= s < {self.num_scales}, got {s}")
        nxt = self.active[s]  # read-only: callers may not write into the hierarchy
        return nxt, np.searchsorted(self.lo[self.active[s - 1]], self.lo[nxt])

    def type_mixture(self, node_ids: int | np.ndarray, types: np.ndarray,
                     num_types: int) -> np.ndarray:
        """Distribution of member leaf types (one-hot for a leaf): shape
        ``(num_types,)`` for one id, ``(len(node_ids), num_types)`` for an
        array of ids.

        Counts are differences of per-type prefix counts over the leaves.
        They are exact integers, so each row equals ``bincount / size`` bit
        for bit. ``types`` must hold one integer id in ``[0, num_types)`` per
        leaf; anything else raises :class:`DataError`.
        """
        types = np.asarray(types)
        if (types.shape != (self.num_leaves,) or types.dtype.kind not in "iu"
                or types.min() < 0 or types.max() >= num_types):
            raise DataError(f"types must hold one integer id in [0, {num_types}) for each"
                            f" of the {self.num_leaves} leaves")
        ids = np.asarray(node_ids)
        prefix = np.zeros((self.num_leaves + 1, num_types), dtype=np.int64)
        np.eye(num_types, dtype=np.int64)[types].cumsum(axis=0, out=prefix[1:])
        lo, end = self.lo[ids], self.hi[ids] + 1
        return (prefix[end] - prefix[lo]) / (end - lo)[..., None]

    def format_tree(self) -> str:
        """Indented text rendering of the merge tree, root first.

        Sorting the spans by first leaf, longest first, gives the pre-order
        with each left child before its sibling. A node's depth is the number
        of spans still open at its first leaf.
        """
        n = self.num_leaves
        lines: list[str] = []
        open_ends: list[int] = []
        for i in np.lexsort((-self.hi, self.lo)).tolist():
            lo, hi = int(self.lo[i]), int(self.hi[i])
            while open_ends and open_ends[-1] < lo:
                open_ends.pop()
            lines.append(
                "  " * len(open_ends)
                + f"{'node' if i >= n else 'leaf'} id={i} scale={self.scale[i]}"
                + f" t={self.rep_time[i]:.6g} members={list(range(lo, hi + 1))}"
            )
            open_ends.append(hi)
        return "\n".join(lines)


# numpy's add.reduce adds fewer values than this one by one, left to right
# from 0; from this many on it sums pairwise, with eight partial sums.
_PAIRWISE_FROM = 8


def _span_sums(t: np.ndarray, lo: np.ndarray, end: np.ndarray) -> np.ndarray:
    """``np.add.reduce(t[lo[i]:end[i]])`` for every span ``i``, bit for bit.

    Most spans are shorter than ``_PAIRWISE_FROM``. They become the rows of
    one zero-padded matrix of ``_PAIRWISE_FROM - 1`` columns, and one
    ``add.reduce`` along the rows adds each row one value after another,
    as it would the span alone: adding 0.0 leaves a sum unchanged, and only
    a span of zeros (never distinct times) sums to -0.0. Longer spans keep
    one ``add.reduce`` each.
    """
    out = np.empty(len(lo))
    size = end - lo
    short = size < _PAIRWISE_FROM
    cols = np.arange(_PAIRWISE_FROM - 1)
    inside = cols < size[short, None]
    leaves = np.where(inside, lo[short, None] + cols, 0)
    out[short] = np.add.reduce(np.where(inside, t[leaves], 0.0), axis=1)
    add = np.add.reduce
    long = ~short
    for i, a, b in zip(long.nonzero()[0].tolist(), lo[long].tolist(), end[long].tolist()):
        out[i] = add(t[a:b])
    return out


def build_hierarchy(times, merge_counts) -> ScaleHierarchy:
    """Agglomerate and slice the merge order into scale intervals.

    ``merge_counts`` is the only spec of the scales: interval ``s`` holds
    ``merge_counts[s-1]`` consecutive merges, each count a positive integer,
    and together they hold all L-1. The model slices every window by
    ``default_merge_counts(L, num_scales)``, the even split. A cluster
    created by a merge in interval ``s`` gets scale ``s``; a leaf inherits
    the scale of the interval in which it is first merged away.
    """
    t, lo, hi, consumed = _merge_tree(times)
    n = len(t)
    if not all(map(_is_integer, merge_counts)):
        raise ConfigError(f"merge counts must be integers, got {list(merge_counts)!r}")
    merge_counts = [int(c) for c in merge_counts]
    if any(c < 1 for c in merge_counts):
        raise ConfigError(f"merge counts must all be >= 1, got {merge_counts}")
    if sum(merge_counts) != n - 1:
        raise ConfigError(
            f"merge counts sum to {sum(merge_counts)} but there are {n - 1} steps"
        )

    # A span's mean time is what .mean() gives: add.reduce over the span,
    # divided by the count. _span_sums adds in add.reduce's order, so the
    # means are bit-identical; prefix sums or np.add.reduceat would not be.
    rep_time = np.empty(len(lo))
    rep_time[:n] = t
    span_end = hi[n:] + 1
    rep_time[n:] = _span_sums(t, lo[n:], span_end) / (span_end - lo[n:])

    # Order of the merge that creates each node (0 for leaves).
    formed = np.zeros(len(lo), dtype=np.int64)
    formed[n:] = np.arange(1, n)
    # A node created in interval s has scale s; a leaf takes the scale of
    # the merge that absorbs it.
    merge_scale = np.arange(1, len(merge_counts) + 1).repeat(merge_counts)
    scale = np.empty(len(lo), dtype=np.int64)
    scale[:n] = merge_scale[consumed[:n] - 1]
    scale[n:] = merge_scale
    ends = list(itertools.accumulate(merge_counts))
    # The nodes alive after `start` merges partition the leaves, one node
    # per first leaf, so taking them from the node ids sorted by first leaf
    # puts them in time order.
    by_lo = lo.argsort(kind="stable")
    formed_by_lo, consumed_by_lo = formed[by_lo], consumed[by_lo]
    active, frontier_pos = [], []
    for start, end in zip([0] + ends[:-1], ends):
        alive = (formed_by_lo <= start) & (consumed_by_lo > start)
        ids = by_lo[alive]
        ids.flags.writeable = False  # returned by pool_groups without a copy
        active.append(ids)
        frontier_pos.append((consumed_by_lo[alive] <= end).nonzero()[0])
    return ScaleHierarchy(merge_counts, lo, hi, scale, rep_time, active, frontier_pos)
