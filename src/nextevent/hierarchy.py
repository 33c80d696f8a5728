"""Multi-scale time hierarchy from bottom-up clustering of 1-D timestamps.

Clusters are merged by single linkage (minimum pairwise distance). Single
linkage follows the Kruskal order of the minimum spanning tree (Gower & Ross
1969), and on sorted 1-D input that tree is the chain of neighbour gaps: each
merge joins two time-adjacent clusters across the smallest remaining gap. The
whole merge order is therefore ``np.argsort(np.diff(t), kind="stable")``; the
stable order breaks distance ties toward the pair whose left cluster starts
first. A gap's rank is its position in that order. The merge order is then
sliced into S consecutive intervals, one per temporal scale, as evenly as
the L-1 merges allow: with ``base, rem = divmod(L - 1, S)``, interval
``s + 1`` starts after ``s * base + min(s, rem)`` merges, so the first
``rem`` intervals hold one merge more.

Because only neighbours merge, every cluster is a contiguous run of leaves,
and the clusters alive after ``k`` merges are the leaves cut at every gap of
rank ``k`` or more. The encoder reads the clustering only where an interval
begins, so the hierarchy is S partitions of the leaves, one per interval
start, cut at gap-rank thresholds; no merge tree is built. Runs ordered by
first leaf are also in time order.

A node id is a row of one node table per window: ids ``0..L-1`` are the
leaves, and each run of two or more leaves gets the next id at the scale
where it first appears. A run carried over to later scales keeps its id, so
no two ids share a run and each run is encoded once.

Two node-set views matter downstream and are deliberately distinct:

* ``frontier(s)`` -- the runs that exist when interval ``s`` begins and
  are consumed by one of its merges. These are the attention participants
  at scale ``s``; a query's key set is drawn from this set.
* ``active_nodes(s)`` -- every run alive when interval ``s`` begins: the
  partition of all leaves at that start (frontier(s) plus carried-over runs
  that merge at a later scale). This is what hierarchical pooling walks.
  Each run of ``active_nodes(s+1)`` absorbs a contiguous run of
  ``active_nodes(s)``, so the cut that makes the next partition stores the
  pooling as the group starts alone (``group_starts``; ``pool_groups(s)``).

For a single scale the two views coincide with the full leaf set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, HierarchyError, check_int

__all__ = [
    "ScaleHierarchy",
    "build_hierarchy",
]


@dataclass
class ScaleHierarchy:
    """The partition of the leaves at each interval start, over one node table.

    ``lo``, ``end`` and ``rep_time`` are the node table, indexed by node id
    and filled once by :func:`build_hierarchy`: node ``i`` is the run of
    leaves ``lo[i]`` to ``end[i] - 1``. Ids ``0..L-1`` are the leaves; the
    runs of two or more leaves follow, numbered by the scale where each first
    appears, then by time. No two ids share a run. The root, and any cluster
    formed and consumed within one interval, have no id. The per-scale index
    arrays ``active``, ``frontier_pos`` and ``group_starts`` are read-only.
    """

    lo: np.ndarray  # first leaf of the node's run
    end: np.ndarray  # one past the last leaf of the node's run
    rep_time: np.ndarray  # mean time of the run's leaves; a leaf's own time
    active: list[np.ndarray]  # per scale: ids of active_nodes(s), in time order
    frontier_pos: list[np.ndarray]  # per scale: positions of frontier(s) in active
    group_starts: list[np.ndarray]  # per scale s < S: where each next run starts in active

    @property
    def num_scales(self) -> int:
        return len(self.active)

    @property
    def num_leaves(self) -> int:
        return len(self.active[0])

    def _check_scale(self, s: int, top: int) -> None:
        if check_int("scale", s, error=ConfigError) > top:
            raise ConfigError(f"scale {s} out of range [1, {top}]")

    def active_nodes(self, s: int) -> list[int]:
        """Runs alive at the start of interval ``s``: a partition of all
        leaves, in time order."""
        self._check_scale(s, self.num_scales)
        return self.active[s - 1].tolist()

    def frontier(self, s: int) -> list[int]:
        """Attention participants at scale ``s``: the active runs that one
        of interval ``s``'s merges consumes, in time order."""
        self._check_scale(s, self.num_scales)
        return self.active[s - 1][self.frontier_pos[s - 1]].tolist()

    def key_set(self, s: int, node_id: int, causal: bool = False) -> list[int]:
        """Keys for query ``node_id`` at scale ``s``: the whole frontier there
        (itself included), optionally restricted to nodes no later than it.

        A carried-over node (active at ``s`` but not in the frontier) runs no
        query: ``encode`` passes its row through untouched and
        ``hierarchy_key_set_sizes`` counts frontier queries only. Its key set
        is ``[node_id]`` by convention. A non-integer id raises HierarchyError.
        """
        node_id = check_int("node_id", node_id, low=0, error=HierarchyError)
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

        Returns ``active[s]`` and ``group_starts[s-1]``, as stored: the ids of
        active_nodes(s+1) in time order and, for each, the position within
        active_nodes(s) of the first run it absorbs. Both sets partition the
        leaves into runs ordered by ``lo``, so next node ``g`` absorbs the
        contiguous run of positions from ``starts[g]`` up to ``starts[g + 1]``
        (the last run goes to the end); a carried-over node is a group of one.
        """
        self._check_scale(s, self.num_scales - 1)
        return self.active[s], self.group_starts[s - 1]

    def type_mixture(self, node_ids: int | np.ndarray, types: np.ndarray,
                     num_types: int) -> np.ndarray:
        """Distribution of member leaf types (one-hot for a leaf): shape
        ``(num_types,)`` for one id, ``(len(node_ids), num_types)`` for an
        array of ids.

        Counts are differences of per-type prefix counts over the leaves.
        They are exact integers, so each row equals ``bincount / size`` bit
        for bit. ``types`` must hold one integer id in ``[0, num_types)`` per
        leaf; anything else raises :class:`DataError`. A node id that is not
        an integer in ``[0, number of nodes)`` raises :class:`HierarchyError`.
        """
        types = np.asarray(types)
        if (types.shape != (self.num_leaves,) or types.dtype.kind not in "iu"
                or types.min() < 0 or types.max() >= num_types):
            raise DataError(f"types must hold one integer id in [0, {num_types}) for each"
                            f" of the {self.num_leaves} leaves")
        ids = np.asarray(node_ids)
        if ids.dtype.kind not in "iu" or (ids.size and not (
                0 <= ids.min() and ids.max() < len(self.lo))):
            raise HierarchyError(f"node ids must be integers in [0, {len(self.lo)}),"
                                 f" got {node_ids!r}")
        prefix = np.zeros((self.num_leaves + 1, num_types), dtype=np.int64)
        np.eye(num_types, dtype=np.int64)[types].cumsum(axis=0, out=prefix[1:])
        lo, end = self.lo[ids], self.end[ids]
        return (prefix[end] - prefix[lo]) / (end - lo)[..., None]


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


def build_hierarchy(times, num_scales) -> ScaleHierarchy:
    """Agglomerate and cut the leaves at the start of each scale interval.

    The L-1 merges are split into ``num_scales`` intervals, remainder first:
    with ``base, rem = divmod(L - 1, num_scales)``, interval ``s + 1`` starts
    after ``s * base + min(s, rem)`` merges. ``num_scales`` must be an
    integer in ``1..L-1``, so that every interval holds a merge; anything
    else raises :class:`ConfigError`.
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
    num_scales = check_int("num_scales", num_scales)
    if num_scales > n - 1:
        raise ConfigError(f"num_scales must lie in 1..{n - 1} for {n} points, got {num_scales}")
    base, rem = divmod(n - 1, num_scales)

    # rank[i]: the rank of the gap before leaf i. The two ends, 0 and n,
    # outrank every gap, so they bound a run at every cut.
    rank = np.full(n + 1, n - 1)
    rank[1 + gaps.argsort(kind="stable")] = np.arange(n - 1)
    ids = np.arange(n)  # interval 1 starts before any merge: every leaf is a run
    edges = np.arange(n + 1)  # run k spans leaves edges[k] to edges[k + 1] - 1
    los, ends = [ids], [ids + 1]
    active, frontier_pos, group_starts = [ids], [], []
    next_id = n
    for s in range(1, num_scales):
        # Interval s + 1 starts after `cut` merges, where the runs alive are
        # the leaves cut at every gap of rank `cut` or more.
        cut = s * base + min(s, rem)
        kept = rank[edges] >= cut
        # A run both of whose edges are kept is carried over; the others
        # merge in interval s and form its frontier.
        carried = kept[:-1] & kept[1:]
        frontier_pos.append((~carried).nonzero()[0])
        # Each next run starts at a kept edge, at the position of the first
        # run it absorbs. A carried-over run keeps its id; a run of two or
        # more leaves appears here first and takes the next id.
        pos = kept[:-1].nonzero()[0]
        group_starts.append(pos)
        ids = ids[pos]
        new = (~carried[pos]).nonzero()[0]
        ids[new] = np.arange(next_id, next_id + len(new))
        next_id += len(new)
        edges = edges[kept]
        los.append(edges[new])
        ends.append(edges[new + 1])
        active.append(ids)
    frontier_pos.append(np.arange(len(ids)))  # the top scale's runs all merge
    for index in (*active, *frontier_pos, *group_starts):
        index.flags.writeable = False  # pool_groups returns them without a copy
    lo, end = np.concatenate(los), np.concatenate(ends)

    # A run's mean time is what .mean() gives: add.reduce over the run,
    # divided by the count. _span_sums adds in add.reduce's order, so the
    # means are bit-identical; prefix sums or np.add.reduceat would not be.
    rep_time = np.empty(len(lo))
    rep_time[:n] = t
    rep_time[n:] = _span_sums(t, lo[n:], end[n:]) / (end[n:] - lo[n:])
    return ScaleHierarchy(lo, end, rep_time, active, frontier_pos, group_starts)
