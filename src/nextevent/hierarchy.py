"""Multi-scale time hierarchy from bottom-up clustering of 1-D timestamps.

Clusters are merged by single linkage (minimum pairwise distance), which on
sorted 1-D input always joins time-adjacent clusters, so the whole merge
sequence can be produced in O(L log L) with a heap over adjacent gaps. The
merge order is then sliced into consecutive intervals; the interval index
gives the temporal scale.

Because only neighbours merge, every cluster is a contiguous span of leaves
``[lo, hi]``. :class:`ScaleHierarchy` therefore stores the tree as integer
arrays over node ids (span bounds, the merge orders that form and consume
each node, its scale and its mean time), all filled once when the merge
order is sliced. Disjoint spans ordered by ``lo`` are also in time order.

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

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, HierarchyError

__all__ = [
    "MergeStep",
    "ScaleHierarchy",
    "agglomerate",
    "assign_scales",
    "default_merge_counts",
    "build_hierarchy",
]


@dataclass(frozen=True)
class MergeStep:
    """One agglomeration step: clusters ``left`` and ``right`` -> ``result``."""

    order: int  # 1-based merge index
    left: int
    right: int
    result: int
    distance: float


def agglomerate(times) -> list[MergeStep]:
    """Single-linkage merge sequence over sorted 1-D points.

    Ties on distance are broken toward the pair whose left cluster has the
    earliest first point. Cluster ids: leaves are 0..L-1 in time order, the
    merge at ``order`` o creates id L-1+o. Exactly L-1 steps are returned.
    """
    t = np.asarray(times, dtype=np.float64)
    n = len(t)
    if n < 2:
        raise HierarchyError(f"need at least 2 points to agglomerate, got {n}")
    if np.any(np.diff(t) <= 0):
        raise HierarchyError("times must be strictly increasing with no duplicates")

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

    heap: list[tuple[float, float, int, int]] = []
    for g in range(n - 1):
        heapq.heappush(heap, (t[g + 1] - t[g], t[left_span_lo[g]], g, 0))

    steps: list[MergeStep] = []
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
        steps.append(MergeStep(order, left_id, right_id, new_id, float(dist)))
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


def default_merge_counts(num_points: int, num_scales: int) -> list[int]:
    """Split L-1 merges into S near-equal interval counts, remainder first."""
    merges = num_points - 1
    if not 1 <= num_scales <= merges:
        raise ConfigError(
            f"num_scales must lie in [1, {merges}] for {num_points} points,"
            f" got {num_scales}"
        )
    base, rem = divmod(merges, num_scales)
    return [base + (1 if s < rem else 0) for s in range(num_scales)]


@dataclass
class ScaleHierarchy:
    """Merge tree plus the scale slicing derived from ``merge_counts``.

    Every per-node array is indexed by node id (leaves 0..L-1, merge ``o``
    creates L-1+o) and is filled once by :func:`assign_scales`.
    """

    times: np.ndarray
    steps: list[MergeStep]
    merge_counts: list[int]
    lo: np.ndarray  # first leaf of the node's span
    hi: np.ndarray  # last leaf of the node's span
    formed: np.ndarray  # order of the creating merge; 0 for leaves
    consumed: np.ndarray  # order of the absorbing merge; len(steps) + 1 for the root
    scale: np.ndarray
    rep_time: np.ndarray  # mean time of the span's leaves
    active: list[np.ndarray]  # per scale: ids of active_nodes(s), ordered by lo
    frontier_pos: list[np.ndarray]  # per scale: positions of frontier(s) in active

    @property
    def num_scales(self) -> int:
        return len(self.merge_counts)

    @property
    def num_leaves(self) -> int:
        return len(self.times)

    @property
    def root_id(self) -> int:
        return self.steps[-1].result if self.steps else 0

    def interval_of_step(self, order: int) -> int:
        s = int(np.searchsorted(np.cumsum(self.merge_counts), order)) + 1
        if s > self.num_scales:
            raise HierarchyError(f"merge order {order} beyond {len(self.steps)} steps")
        return s

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
        (itself included), optionally restricted to nodes no later than it."""
        frontier = self.frontier(s)
        if node_id not in frontier:
            if node_id in self.active_nodes(s):
                return [node_id]  # carried-over node: attends to itself only
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
        nxt = self.active[s].copy()  # callers may not write into the hierarchy
        return nxt, np.searchsorted(self.lo[self.active[s - 1]], self.lo[nxt])

    def type_mixture(self, node_ids: int | np.ndarray, types: np.ndarray,
                     num_types: int) -> np.ndarray:
        """Distribution of member leaf types (one-hot for a leaf): shape
        ``(num_types,)`` for one id, ``(len(node_ids), num_types)`` for an
        array of ids.

        Counts are differences of per-type prefix counts over the leaves.
        They are exact integers, so each row equals ``bincount / size`` bit
        for bit.
        """
        ids = np.asarray(node_ids)
        prefix = np.zeros((self.num_leaves + 1, num_types), dtype=np.int64)
        np.cumsum(np.eye(num_types, dtype=np.int64)[types], axis=0, out=prefix[1:])
        lo, end = self.lo[ids], self.hi[ids] + 1
        return (prefix[end] - prefix[lo]) / (end - lo)[..., None]

    def _children(self, node_id: int) -> list[int]:
        if node_id < self.num_leaves:
            return []
        step = self.steps[node_id - self.num_leaves]
        return [step.left, step.right]

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {
                    "id": i,
                    "scale": int(self.scale[i]),
                    "children": self._children(i),
                    "members": list(range(self.lo[i], self.hi[i] + 1)),
                    "time": float(self.rep_time[i]),
                }
                for i in range(len(self.lo))
            ]
        }

    def format_tree(self) -> str:
        """Indented text rendering of the merge tree, root first."""
        lines: list[str] = []

        def walk(node_id: int, depth: int):
            children = self._children(node_id)
            kind = "node" if children else "leaf"
            lines.append(
                "  " * depth
                + f"{kind} id={node_id} scale={self.scale[node_id]}"
                + f" t={self.rep_time[node_id]:.6g}"
                + f" members={list(range(self.lo[node_id], self.hi[node_id] + 1))}"
            )
            for c in children:
                walk(c, depth + 1)

        walk(self.root_id, 0)
        return "\n".join(lines)


def assign_scales(times, steps: list[MergeStep], merge_counts) -> ScaleHierarchy:
    """Slice the merge order into intervals and label every node with a scale.

    Interval ``s`` holds ``merge_counts[s-1]`` consecutive steps. A cluster
    created by a step in interval ``s`` gets scale ``s``; a leaf inherits the
    scale of the interval in which it is first merged away.
    """
    t = np.asarray(times, dtype=np.float64)
    merge_counts = [int(c) for c in merge_counts]
    if any(c < 1 for c in merge_counts):
        raise ConfigError(f"merge counts must all be >= 1, got {merge_counts}")
    if sum(merge_counts) != len(steps):
        raise ConfigError(
            f"merge counts sum to {sum(merge_counts)} but there are {len(steps)} steps"
        )

    n = len(t)
    lo = np.arange(n + len(steps))
    hi = lo.copy()
    formed = np.zeros_like(lo)
    consumed = np.full_like(lo, len(steps) + 1)
    rep_time = np.concatenate([t, np.empty(len(steps))])
    for step in steps:
        r = step.result
        lo[r], hi[r] = lo[step.left], hi[step.right]
        formed[r] = step.order
        consumed[step.left] = consumed[step.right] = step.order
        # Same float64 sum and division as .mean(), without numpy's _mean
        # wrapper, which costs more than the sum on spans this short.
        rep_time[r] = t[lo[r] : hi[r] + 1].sum() / (hi[r] - lo[r] + 1)

    ends = np.cumsum(merge_counts)
    scale = np.searchsorted(ends, np.where(formed > 0, formed, consumed)) + 1
    active, frontier_pos = [], []
    for start, end in zip(np.concatenate([[0], ends[:-1]]), ends):
        ids = np.flatnonzero((formed <= start) & (consumed > start))
        ids = ids[np.argsort(lo[ids])]
        active.append(ids)
        frontier_pos.append(np.flatnonzero(consumed[ids] <= end))
    return ScaleHierarchy(
        t, steps, merge_counts, lo, hi, formed, consumed, scale, rep_time, active,
        frontier_pos,
    )


def build_hierarchy(times, num_scales: int | None = None, merge_counts=None) -> ScaleHierarchy:
    """Agglomerate and slice in one call.

    Exactly one of ``num_scales`` / ``merge_counts`` may be given; the
    default is ceil(log2 L) scales (capped at L-1).
    """
    t = np.asarray(times, dtype=np.float64)
    steps = agglomerate(t)
    if merge_counts is None:
        if num_scales is None:
            num_scales = max(1, min(len(t) - 1, int(np.ceil(np.log2(len(t))))))
        merge_counts = default_merge_counts(len(t), num_scales)
    elif num_scales is not None and num_scales != len(merge_counts):
        raise ConfigError("give either num_scales or merge_counts, not conflicting both")
    return assign_scales(t, steps, merge_counts)
