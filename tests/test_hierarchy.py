"""Tests for agglomeration, the per-scale partitions, frontiers, and key sets."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nextevent import events as E
from nextevent.errors import ConfigError, DataError, HierarchyError
from nextevent.hierarchy import build_hierarchy

from conftest import nine_point_layout
from oracles import brute_force_single_linkage, heap_single_linkage


def random_times(rng, n):
    """Strictly increasing times with occasional tied gaps."""
    gaps = rng.choice([0.5, 1.0, 1.5, 2.0, 3.5], size=n - 1) * rng.uniform(
        0.5, 1.5, size=n - 1
    )
    if rng.uniform() < 0.5:
        # Force exact gap ties to exercise the tie-break rule.
        gaps = np.round(gaps, 1) + 0.1
    return np.concatenate([[0.0], np.cumsum(gaps)])


def interval_starts(n, num_scales):
    """The number of merges before each interval starts, then all n - 1:
    the even split, remainder first."""
    base, rem = divmod(n - 1, num_scales)
    return [s * base + min(s, rem) for s in range(num_scales + 1)]


def active_sizes(h):
    return [len(h.active_nodes(s)) for s in range(1, h.num_scales + 1)]


def single_linkage(times):
    """The merge steps as (order, left, right, result, distance) tuples, read
    from the partitions of one merge per scale: interval ``o``'s frontier is
    the two runs that merge ``o`` joins, and the run they form is the one new
    id at scale ``o + 1``. The last merge forms the root, which has no id; it
    takes 2L - 2, the oracles' id for it."""
    n = len(times)
    t = np.asarray(times, dtype=np.float64)
    h = build_hierarchy(t, n - 1)
    steps = []
    for order in range(1, n):
        left, right = h.frontier(order)
        if order < n - 1:
            nxt, starts = h.pool_groups(order)
            sizes = np.diff(starts, append=len(h.active[order - 1]))
            assert sorted(sizes.tolist()) == [1] * (len(sizes) - 1) + [2]
            result = int(nxt[sizes == 2][0])
        else:
            result = 2 * n - 2
        g = h.lo[right]  # the fused gap lies before the right run's first leaf
        steps.append((order, left, right, result, float(t[g] - t[g - 1])))
    return steps


def assert_group_starts(h):
    """Each next run starts at the position, among the runs active before
    it, of the run with its first leaf."""
    assert len(h.group_starts) == h.num_scales - 1
    for s in range(1, h.num_scales):
        expected = np.searchsorted(h.lo[h.active[s - 1]], h.lo[h.active[s]])
        np.testing.assert_array_equal(h.group_starts[s - 1], expected)


def assert_one_id_per_run(h):
    """Leaves keep their own ids, and no two ids share a run."""
    n = h.num_leaves
    assert h.lo[:n].tolist() == list(range(n))
    assert h.end[:n].tolist() == list(range(1, n + 1))
    assert (h.end[n:] - h.lo[n:] >= 2).all()
    assert len(set(zip(h.lo.tolist(), h.end.tolist()))) == len(h.lo)


class TestAgglomerate:
    def test_obvious_nearest_pair_first(self):
        steps = single_linkage([0.0, 1.0, 10.0])
        _, left, right, _, distance = steps[0]
        assert (left, right) == (0, 1)
        assert distance == 1.0
        _, left, right, result, _ = steps[1]
        assert (left, right) == (3, 2)
        assert result == 4

    def test_nine_point_layout_merge_order(self):
        steps = single_linkage(nine_point_layout())
        first_three = [(left, right) for _, left, right, _, _ in steps[:3]]
        assert first_three == [(0, 1), (2, 3), (4, 5)]

    def test_requires_two_points(self):
        with pytest.raises(HierarchyError, match="at least 2 points"):
            build_hierarchy([1.0], 1)
        with pytest.raises(HierarchyError, match="at least 2 points"):
            build_hierarchy([], 1)

    def test_rejects_duplicates(self):
        with pytest.raises(HierarchyError, match="duplicates"):
            build_hierarchy([0.0, 1.0, 1.0, 3.0], num_scales=3)
        with pytest.raises(HierarchyError, match="duplicates"):
            build_hierarchy([0.0, 1.0, 1.0, 3.0], 1)

    def test_rejects_nan(self):
        with pytest.raises(HierarchyError, match="strictly increasing"):
            build_hierarchy([0.0, float("nan"), 2.0, 3.0], 1)

    @pytest.mark.parametrize("shape", [(4, 2), (2, 4), (1, 8)])
    def test_rejects_times_that_are_not_1d(self, shape):
        times = np.arange(8.0).reshape(shape)
        with pytest.raises(HierarchyError, match="1-D"):
            build_hierarchy(times, 1)

    def test_distances_non_decreasing(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(2, 30)
            d = [step[4] for step in single_linkage(random_times(rng, n))]
            assert all(a <= b + 1e-12 for a, b in zip(d, d[1:]))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            n = int(rng.integers(2, 13))
            t = random_times(rng, n)
            fast = single_linkage(t)
            slow = brute_force_single_linkage(t)
            assert len(fast) == len(slow) == n - 1
            for f, s in zip(fast, slow):
                assert f[:4] == s[:4]
                assert abs(f[4] - s[4]) < 1e-12

    @pytest.mark.parametrize("times", [[0.0, 1.0], [0.0, 2.0, 3.0], [0.0, 1.0, 2.0]])
    def test_two_and_three_points(self, times):
        # With three points and two equal gaps the left pair merges first.
        assert single_linkage(times) == brute_force_single_linkage(times)
        assert single_linkage(times) == heap_single_linkage(times)

    def test_matches_heap_oracle_on_long_windows(self):
        # Benchmark-sized windows of both generators, plus integer gaps drawn
        # from three values so that most gaps tie, up to L = 4096.
        multiscale = E.generate_multiscale(
            2, burst_rate=1.0, burst_size=16, gap_scale=4.0, num_types=4, seed=3,
            num_bursts=34,
        )
        hawkes = E.generate_hawkes(
            1, 600.0, base_rate=1.0, excitation=0.5, decay=1.0, num_types=4, seed=4
        )
        rng = np.random.default_rng(11)
        windows = [
            seq.times[start : start + L]
            for seq, L, start in itertools.product(multiscale + hawkes, (64, 256, 512), (0, 17))
        ] + [np.cumsum(rng.integers(1, 4, size=L)).astype(float) for L in (64, 256, 512, 4096)]
        sizes = set()
        for t in windows:
            fast = single_linkage(t)
            assert fast == heap_single_linkage(t)
            h = build_hierarchy(t, 4)
            assert_one_id_per_run(h)
            assert_group_starts(h)
            for i in range(len(h.lo)):
                assert h.rep_time[i] == t[h.lo[i] : h.end[i]].mean()
            sizes.update((h.end - h.lo).tolist())
        # Spans of fewer than 8 leaves are summed in padded rows, longer ones
        # by numpy's pairwise add.reduce: in blocks of 8 up to 128 leaves,
        # recursively in halves beyond. All three kinds occur here.
        assert sizes & set(range(1, 8))
        assert sizes & set(range(8, 129))
        assert max(sizes) > 128


class TestDefaultMergeCounts:
    """The split of the L-1 merges into num_scales intervals, remainder first
    (build_hierarchy). Each merge joins two runs, so an interval of k merges
    leaves k fewer runs active at the next interval's start."""

    def test_even_split(self):
        assert active_sizes(build_hierarchy(np.arange(9.0), 4)) == [9, 7, 5, 3]

    def test_remainder_goes_first(self):
        # 9 merges over 4 intervals: 3, 2, 2, 2.
        assert active_sizes(build_hierarchy(np.arange(10.0), 4)) == [10, 7, 5, 3]

    def test_single_scale(self):
        assert active_sizes(build_hierarchy(np.arange(5.0), 1)) == [5]

    def test_out_of_range(self):
        with pytest.raises(ConfigError, match="num_scales must lie in 1..4 for 5 points, got 5"):
            build_hierarchy(np.arange(5.0), 5)
        with pytest.raises(ConfigError, match="num_scales must be an integer >= 1, got 0"):
            build_hierarchy(np.arange(5.0), 0)

    @pytest.mark.parametrize("num_scales", [2.0, 2.5, "2", True, None])
    def test_rejects_a_num_scales_that_is_not_an_integer(self, num_scales):
        # Truncating 2.5 would split the merges in two without a word.
        match = rf"num_scales must be an integer >= 1, got {re.escape(repr(num_scales))}"
        with pytest.raises(ConfigError, match=match):
            build_hierarchy(np.arange(5.0), num_scales)

    def test_accepts_a_numpy_integer(self):
        h = build_hierarchy(np.arange(5.0), 2)
        for num_scales in (np.int64(2), np.int32(2), np.uint8(2)):
            g = build_hierarchy(np.arange(5.0), num_scales)
            assert type(g.num_scales) is int and g.num_scales == 2
            assert [g.active_nodes(s) for s in (1, 2)] == [h.active_nodes(s) for s in (1, 2)]


class TestAssignScales:
    """Slicing the merge order into scale intervals (build_hierarchy)."""

    def test_nine_point_scales(self):
        # A leaf's scale is the interval in which it is first merged away:
        # the one scale whose frontier holds it.
        h = build_hierarchy(nine_point_layout(), 4)
        leaf_scales = [s for i in range(9) for s in range(1, 5) if i in h.frontier(s)]
        assert leaf_scales == [1, 1, 1, 1, 2, 2, 3, 3, 4]
        assert h.num_scales == 4

    def test_single_interval_degenerates(self):
        t = [0.0, 1.0, 3.0, 7.0, 20.0]
        h = build_hierarchy(t, 1)
        assert h.num_scales == 1
        assert h.active_nodes(1) == h.frontier(1) == [0, 1, 2, 3, 4]
        assert h.lo.tolist() == [0, 1, 2, 3, 4]  # the node table holds the leaves alone

    def test_counts_mismatch(self):
        # Every interval holds a merge: three points merge twice, so they
        # make at most two scales.
        t = [0.0, 1.0, 3.0]
        assert active_sizes(build_hierarchy(t, 2)) == [3, 2]
        with pytest.raises(ConfigError, match="num_scales must lie in 1..2 for 3 points, got 3"):
            build_hierarchy(t, 3)

    def test_accepts_numpy_integer_merge_counts(self):
        # A num_scales read out of a numpy array slices the merges as the
        # plain int does, and is stored as a Python int.
        h = build_hierarchy(nine_point_layout(), 4)
        g = build_hierarchy(nine_point_layout(), np.array([4])[0])
        assert type(g.num_scales) is int and g.num_scales == 4
        assert g.lo.tolist() == h.lo.tolist() and g.end.tolist() == h.end.tolist()
        assert [g.frontier(s) for s in range(1, 5)] == [h.frontier(s) for s in range(1, 5)]

    def test_nine_point_node_table(self):
        # Leaves 0-8, then each run of two or more leaves where it first
        # appears: (e1 e2) and (e3 e4) at scale 2, (e1..e4) and (e5 e6) at
        # scale 3, (e1..e6) and (e7 e8) at scale 4. e9 joins e7e8 in the top
        # interval, and the root has no id.
        h = build_hierarchy(nine_point_layout(), 4)
        assert h.lo.tolist() == list(range(9)) + [0, 2, 0, 4, 0, 6]
        assert h.end.tolist() == list(range(1, 10)) + [2, 4, 4, 6, 6, 8]
        assert [h.active_nodes(s) for s in range(1, 5)] == [
            list(range(9)), [9, 10, 4, 5, 6, 7, 8], [11, 12, 6, 7, 8], [13, 14, 8]]

    def test_representative_time_is_member_mean(self):
        t = nine_point_layout()
        h = build_hierarchy(t, 4)
        for i in range(len(h.lo)):
            assert h.rep_time[i] == np.mean(np.asarray(t)[h.lo[i] : h.end[i]])

    def test_active_nodes_partition_every_scale(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(4, 20))
            t = random_times(rng, n)
            S = int(rng.integers(1, n - 1)) if n > 2 else 1
            h = build_hierarchy(t, S)
            for s in range(1, S + 1):
                members = np.concatenate(
                    [np.arange(h.lo[i], h.end[i]) for i in h.active_nodes(s)]
                )
                assert sorted(members.tolist()) == list(range(n))

    def test_active_counts_shrink_by_the_even_split(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(4, 24))
            h = build_hierarchy(random_times(rng, n), 3)
            assert active_sizes(h) == [n - cut for cut in interval_starts(n, 3)[:-1]]

    def test_earlier_merges_have_smaller_or_equal_scale(self):
        # A run's id is the next one free at the scale where it first
        # appears, and the runs new at one scale take theirs in time order.
        rng = np.random.default_rng(8)
        for _ in range(50):
            t = random_times(rng, int(rng.integers(5, 40)))
            h = build_hierarchy(t, 4)
            assert_one_id_per_run(h)
            next_id = h.num_leaves
            for s in range(2, h.num_scales + 1):
                new = [i for i in h.active_nodes(s) if i not in h.active_nodes(s - 1)]
                assert new == list(range(next_id, next_id + len(new)))
                next_id += len(new)
            assert next_id == len(h.lo)


class TestFrontier:
    def test_nine_point_frontier_at_scale_two(self):
        h = build_hierarchy(nine_point_layout(), 4)
        frontier = h.frontier(2)
        assert len(frontier) == 4
        # Two pair-clusters plus the two leaves merged in interval 2,
        # time-ordered so the last entry is leaf e6 (index 5).
        assert frontier[-1] == 5
        assert set(frontier) == {9, 10, 4, 5}

    def test_top_frontier_merges_into_root(self):
        h = build_hierarchy(nine_point_layout(), 4)
        top = h.frontier(h.num_scales)
        assert len(top) >= 1
        assert top == h.active_nodes(h.num_scales)

    def test_single_scale_frontier_is_all_leaves(self):
        t = [0.0, 1.0, 3.0, 7.0, 20.0]
        h = build_hierarchy(t, 1)
        assert h.frontier(1) == [0, 1, 2, 3, 4]

    def test_leaves_partition_across_frontiers_by_scale(self):
        # Each leaf participates in attention exactly once: at its own scale.
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(4, 20))
            h = build_hierarchy(random_times(rng, n), 3)
            seen = []
            for s in range(1, h.num_scales + 1):
                seen.extend(i for i in h.frontier(s) if i < h.num_leaves)
            assert sorted(seen) == list(range(n))

    def test_frontier_ordered_by_representative_time(self):
        rng = np.random.default_rng(10)
        h = build_hierarchy(random_times(rng, 20), 5)
        for s in range(1, 6):
            reps = [h.rep_time[i] for i in h.frontier(s)]
            assert reps == sorted(reps)


class TestKeySet:
    def test_nine_point_key_reduction(self):
        h = build_hierarchy(nine_point_layout(), 4)
        keys = h.key_set(2, 5)  # query is leaf e6
        assert len(keys) == 4
        assert 5 in keys
        assert h.num_leaves == 9  # reduction 9 -> 4 versus all-pair attention

    def test_single_node_frontier_self_only(self):
        h = build_hierarchy([0.0, 1.0], 1)
        assert h.frontier(1) == [0, 1]
        h2 = build_hierarchy([0.0, 1.0, 2.0, 4.0], 2)
        top = h2.frontier(2)
        first = top[0]
        assert h2.key_set(2, first, causal=True) == [first]

    def test_causal_first_node_is_self(self):
        h = build_hierarchy(nine_point_layout(), 4)
        frontier = h.frontier(2)
        assert h.key_set(2, frontier[0], causal=True) == [frontier[0]]
        assert h.key_set(2, frontier[-1], causal=True) == frontier

    def test_carried_node_attends_to_itself(self):
        h = build_hierarchy(nine_point_layout(), 4)
        # Leaf e7 (index 6) is active at scale 2 but only merges at scale 3.
        assert 6 in h.active_nodes(2)
        assert 6 not in h.frontier(2)
        assert h.key_set(2, 6) == [6]

    def test_inactive_node_rejected(self):
        h = build_hierarchy(nine_point_layout(), 4)
        with pytest.raises(HierarchyError):
            h.key_set(3, 0)  # e1 was absorbed during interval 1


def position_groups(h, s):
    """pool_groups(s) as the next ids and, for each, its run of positions."""
    nxt, starts = h.pool_groups(s)
    runs = np.split(np.arange(len(h.active_nodes(s))), starts[1:])
    return nxt.tolist(), [run.tolist() for run in runs]


class TestPoolGroups:
    def test_nine_point_pooling_path(self):
        h = build_hierarchy(nine_point_layout(), 4)
        nxt, groups = position_groups(h, 1)
        active1 = h.active_nodes(1)
        assert active1 == list(range(9))
        assert nxt == h.active_nodes(2)
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(9))
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1, 1, 1, 1, 1, 2, 2]

    def test_chain_merges_pool_flat_groups(self):
        # At S=3 the merges split 3, 3, 2. Interval 2 joins (e1 e2) with
        # (e3 e4) and then absorbs (e5 e6) through a chain; the next active
        # set must group all three runs together. (At S=4 no interval below
        # the top one chains two merges.)
        h = build_hierarchy(nine_point_layout(), 3)
        nxt, groups = position_groups(h, 2)
        assert len(nxt) == 3
        assert [len(g) for g in groups] == [3, 2, 1]

    def test_pool_groups_out_of_range(self):
        h = build_hierarchy(nine_point_layout(), 4)
        with pytest.raises(ConfigError):
            h.pool_groups(4)

    def test_pool_groups_returns_the_stored_arrays_read_only(self):
        h = build_hierarchy(nine_point_layout(), 4)
        for s in range(1, h.num_scales):
            nxt, starts = h.pool_groups(s)
            assert nxt is h.active[s] and starts is h.group_starts[s - 1]
            for index in (nxt, starts, h.frontier_pos[s - 1]):
                with pytest.raises(ValueError, match="read-only"):
                    index[0] = 1


@pytest.mark.parametrize("types", [
    [0, 1, 2, 0, 1, 2, 0, 1, -1],
    [0, 1, 2, 0, 1, 2, 0, 1, 3],
    [0, 1, 2, 0, 1, 2, 0, 1],
    [0, 1, 2, 0, 1, 2, 0, 1, 2, 0],
    [[0, 1, 2, 0, 1, 2, 0, 1, 2]],
    [0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0, 1.0, 2.0],
], ids=["negative", "too-large", "short", "long", "2-D", "float"])
def test_type_mixture_rejects_types_that_are_not_one_id_per_leaf(types):
    h = build_hierarchy(nine_point_layout(), 4)
    with pytest.raises(DataError, match=r"one integer id in \[0, 3\) for each of the 9 leaves"):
        h.type_mixture(14, np.array(types), 3)


@pytest.mark.parametrize("node_ids", [-1, 15, 1.0, True, np.array([0, 15]), np.array([-1, 3]),
                                      np.array([0.0, 1.0])],
                         ids=["negative", "past-the-end", "float", "bool", "array-past-the-end",
                              "array-negative", "float-array"])
def test_type_mixture_rejects_ids_that_are_not_nodes(node_ids):
    # The nine-point hierarchy has 15 node ids.
    h = build_hierarchy(nine_point_layout(), 4)
    with pytest.raises(HierarchyError, match=r"node ids must be integers in \[0, 15\)"):
        h.type_mixture(node_ids, np.arange(9) % 3, 3)


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("node_id", [5.0, np.float64(5.0), True, "5", None, -1],
                         ids=["float", "numpy-float", "bool", "str", "none", "negative"])
def test_key_set_rejects_ids_that_are_not_integers(node_id, causal):
    h = build_hierarchy(nine_point_layout(), 4)
    with pytest.raises(HierarchyError, match="node_id must be an integer >= 0"):
        h.key_set(2, node_id, causal=causal)


@pytest.mark.parametrize("causal", [False, True])
def test_key_set_takes_numpy_integer_ids(causal):
    h = build_hierarchy(nine_point_layout(), 4)
    for node_id in h.active_nodes(2):
        expected = h.key_set(2, node_id, causal=causal)
        for cast in (np.int64, np.int32, np.uint8):
            assert h.key_set(2, cast(node_id), causal=causal) == expected


@pytest.mark.parametrize("scale", [1.5, True, "1", None], ids=["float", "bool", "str", "none"])
@pytest.mark.parametrize("call", [
    lambda h, s: h.frontier(s), lambda h, s: h.active_nodes(s),
    lambda h, s: h.pool_groups(s), lambda h, s: h.key_set(s, 0),
], ids=["frontier", "active_nodes", "pool_groups", "key_set"])
def test_scale_arguments_must_be_integers(call, scale):
    # True would index scale 1, and 1.5 or "1" would fail in list indexing.
    h = build_hierarchy(nine_point_layout(), 4)
    match = rf"scale must be an integer >= 1, got {re.escape(repr(scale))}"
    with pytest.raises(ConfigError, match=match):
        call(h, scale)


@pytest.mark.parametrize("call, top", [
    (lambda h, s: h.frontier(s), 4), (lambda h, s: h.active_nodes(s), 4),
    (lambda h, s: h.pool_groups(s), 3),
], ids=["frontier", "active_nodes", "pool_groups"])
def test_scale_arguments_take_numpy_integers_up_to_their_top(call, top):
    h = build_hierarchy(nine_point_layout(), 4)
    for s in range(1, top + 1):
        for cast in (np.int64, np.uint8):
            assert repr(call(h, cast(s))) == repr(call(h, s))  # lists, or pool_groups' arrays
    with pytest.raises(ConfigError, match=rf"scale {top + 1} out of range \[1, {top}\]"):
        call(h, top + 1)
    with pytest.raises(ConfigError, match="scale must be an integer >= 1, got 0"):
        call(h, 0)


# Strictly increasing floats: distinct values, sorted (0.0 and -0.0 count as one).
increasing_times = st.lists(
    st.floats(-1e12, 1e12, allow_nan=False), min_size=2, max_size=24, unique=True
).map(sorted)


def oracle_members(times):
    """Leaf set of every node id, unioned along the brute-force merge steps."""
    n = len(times)
    members = {i: {i} for i in range(n)}
    for _, left, right, result, _ in brute_force_single_linkage(times):
        members[result] = members[left] | members[right]
    return members


class TestHierarchyProperties:
    @given(increasing_times)
    @example([0.0, 1.0])
    @example([0.0, 1.0, 2.0])  # every gap ties
    @example([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 9.0])
    def test_every_slicing_matches_the_brute_force_member_sets(self, times):
        t = np.asarray(times)
        n = len(t)
        oracle = brute_force_single_linkage(t)
        members = oracle_members(t)
        types = np.arange(n) * 7 % 3
        assert [step[:4] for step in single_linkage(t)] == [step[:4] for step in oracle]
        for S in range(1, n):
            h = build_hierarchy(t, S)
            assert_one_id_per_run(h)
            assert_group_starts(h)
            runs = [set(range(lo, end)) for lo, end in zip(h.lo.tolist(), h.end.tolist())]
            mixtures = h.type_mixture(np.arange(len(runs)), types, 3)
            for node_id, run in enumerate(runs):
                expected = sorted(run)
                assert h.rep_time[node_id] == t[expected].mean()
                counts = np.zeros(3)
                for leaf in expected:
                    counts[types[leaf]] += 1.0
                mixture = h.type_mixture(node_id, types, 3)
                np.testing.assert_array_equal(mixture, counts / len(expected))
                np.testing.assert_array_equal(mixtures[node_id], counts / len(expected))
            bounds = interval_starts(n, S)
            for s in range(1, S + 1):
                start, end = bounds[s - 1], bounds[s]
                done = [step for step in oracle if step[0] <= start]
                alive = set(range(n)) | {step[3] for step in done}
                alive -= {child for step in done for child in step[1:3]}
                merging = {child for step in oracle if start < step[0] <= end
                           for child in step[1:3]}
                active = h.active_nodes(s)
                in_time_order = sorted((members[i] for i in alive), key=min)
                assert [runs[i] for i in active] == in_time_order
                frontier = h.frontier(s)
                assert [runs[i] for i in frontier] == [m for m in in_time_order if any(
                    m == members[i] for i in merging)]
                if s < S:
                    nxt, groups = position_groups(h, s)
                    assert nxt == h.active_nodes(s + 1)
                    assert [p for g in groups for p in g] == list(range(len(active)))
                    for node_id, group in zip(nxt, groups):
                        absorbed = set().union(*(runs[active[p]] for p in group))
                        assert absorbed == runs[node_id]
            # Every id of the node table is active at some scale.
            assert {i for s in range(1, S + 1) for i in h.active_nodes(s)} == set(range(len(runs)))

    @given(
        st.lists(st.integers(1, 10**6), min_size=1, max_size=40, unique=True),
        st.integers(-8, 8),
        st.integers(-(10**9), 10**9),
        st.data(),
    )
    def test_merge_tree_is_invariant_under_affine_maps(self, gaps, log2_a, b, data):
        # Distinct integer gaps, a power-of-two scale and an integer shift keep
        # every time and distance exact, so no tie-breaking enters.
        t = np.concatenate([[0.0], np.cumsum(np.asarray(gaps, dtype=np.float64))])
        a = 2.0**log2_a
        steps_h, steps_g = single_linkage(t), single_linkage(a * t + b)
        assert [s[:4] for s in steps_g] == [s[:4] for s in steps_h]
        assert [s[4] for s in steps_g] == [a * s[4] for s in steps_h]
        S = data.draw(st.integers(1, len(t) - 1))
        h = build_hierarchy(t, S)
        g = build_hierarchy(a * t + b, S)
        assert g.num_scales == h.num_scales == S
        for s in range(1, S + 1):
            assert g.active_nodes(s) == h.active_nodes(s)
            assert g.frontier(s) == h.frontier(s)
