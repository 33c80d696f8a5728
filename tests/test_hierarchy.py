"""Tests for agglomeration, scale slicing, frontiers, and key sets."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nextevent import events as E
from nextevent.errors import ConfigError, DataError, HierarchyError
from nextevent.hierarchy import build_hierarchy, default_merge_counts

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


def merge_steps(h):
    """The merge tree as (order, left, right, result, distance) tuples, read
    from the spans: node L+k's left child is the largest earlier node that
    starts at its first leaf, its right child the largest earlier node that
    starts one past the left child's last leaf g, and the gap it fused is
    t[g+1] - t[g]."""
    n = h.num_leaves
    lo, hi, t = h.lo.tolist(), h.hi.tolist(), h.rep_time[:n]
    latest = list(range(n))  # per first leaf: the largest node id so far starting there
    steps = []
    for node in range(n, len(lo)):
        left = latest[lo[node]]
        g = hi[left]
        right = latest[g + 1]
        steps.append((node - n + 1, left, right, node, float(t[g + 1] - t[g])))
        latest[lo[node]] = node
    return steps


def single_linkage(times):
    return merge_steps(build_hierarchy(times, [len(times) - 1]))


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
            build_hierarchy([1.0], [])
        with pytest.raises(HierarchyError, match="at least 2 points"):
            build_hierarchy([1.0], [1])

    def test_rejects_duplicates(self):
        with pytest.raises(HierarchyError, match="duplicates"):
            build_hierarchy([0.0, 1.0, 1.0, 3.0], merge_counts=[1, 1, 1])
        with pytest.raises(HierarchyError, match="duplicates"):
            build_hierarchy([0.0, 1.0, 1.0, 3.0], [3])

    def test_rejects_nan(self):
        with pytest.raises(HierarchyError, match="strictly increasing"):
            build_hierarchy([0.0, float("nan"), 2.0, 3.0], [3])

    @pytest.mark.parametrize("shape", [(4, 2), (2, 4), (1, 8)])
    def test_rejects_times_that_are_not_1d(self, shape):
        times = np.arange(8.0).reshape(shape)
        with pytest.raises(HierarchyError, match="1-D"):
            build_hierarchy(times, [times.size - 1])

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

    def test_matches_heap_oracle_on_long_windows(self):
        # Benchmark-sized windows of both generators, plus integer gaps drawn
        # from three values so that most gaps tie.
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
        ] + [np.cumsum(rng.integers(1, 4, size=L)).astype(float) for L in (64, 256, 512)]
        sizes = set()
        for t in windows:
            fast = single_linkage(t)
            assert fast == heap_single_linkage(t)
            h = build_hierarchy(t, default_merge_counts(len(t), 4))
            for i in range(len(h.lo)):
                assert h.rep_time[i] == t[h.lo[i] : h.hi[i] + 1].mean()
            sizes.update((h.hi - h.lo + 1).tolist())
        # Spans of fewer than 8 leaves are summed in padded rows, longer ones
        # by numpy's pairwise add.reduce: in blocks of 8 up to 128 leaves,
        # recursively in halves beyond. All three kinds occur here.
        assert sizes & set(range(1, 8))
        assert sizes & set(range(8, 129))
        assert max(sizes) > 128


class TestDefaultMergeCounts:
    def test_even_split(self):
        assert default_merge_counts(9, 4) == [2, 2, 2, 2]

    def test_remainder_goes_first(self):
        assert default_merge_counts(10, 4) == [3, 2, 2, 2]

    def test_single_scale(self):
        assert default_merge_counts(5, 1) == [4]

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            default_merge_counts(5, 5)
        with pytest.raises(ConfigError):
            default_merge_counts(5, 0)

    @pytest.mark.parametrize("num_scales", [2.0, 2.5, "2", True, None])
    def test_rejects_a_num_scales_that_is_not_an_integer(self, num_scales):
        match = rf"num_scales must be an integer >= 1, got {re.escape(repr(num_scales))}"
        with pytest.raises(ConfigError, match=match):
            default_merge_counts(5, num_scales)

    def test_accepts_a_numpy_integer(self):
        assert default_merge_counts(5, np.int64(2)) == [2, 2]


class TestAssignScales:
    """Slicing the merge order into scale intervals (build_hierarchy)."""

    def test_nine_point_scales(self):
        t = nine_point_layout()
        h = build_hierarchy(t, merge_counts=[2, 2, 3, 1])
        leaf_scales = [h.scale[i] for i in range(9)]
        assert leaf_scales[:4] == [1, 1, 1, 1]
        assert [leaf_scales[4], leaf_scales[5]] == [2, 2]
        assert leaf_scales[6:] == [3, 3, 3]
        assert h.num_scales == 4

    def test_single_interval_degenerates(self):
        t = [0.0, 1.0, 3.0, 7.0, 20.0]
        h = build_hierarchy(t, merge_counts=[4])
        assert h.num_scales == 1
        assert all(h.scale[i] == 1 for i in range(len(h.scale)))

    def test_counts_mismatch(self):
        t = [0.0, 1.0, 3.0]
        with pytest.raises(ConfigError):
            build_hierarchy(t, merge_counts=[1])
        with pytest.raises(ConfigError):
            build_hierarchy(t, merge_counts=[2, 0])

    @pytest.mark.parametrize("counts", [[2.7, 1.2], [2.0, 2.0], ["2", 2], [True, 3]])
    def test_rejects_merge_counts_that_are_not_integers(self, counts):
        # Truncating [2.7, 1.2] would slice the merges as [2, 1] without a word.
        match = rf"each merge count must be an integer >= 1, got {re.escape(repr(counts[0]))}"
        with pytest.raises(ConfigError, match=match):
            build_hierarchy(np.arange(5.0), counts)

    def test_accepts_numpy_integer_merge_counts(self):
        h = build_hierarchy(np.arange(5.0), np.array([3, 1]))
        assert h.merge_counts == [3, 1]
        assert all(type(c) is int for c in h.merge_counts)

    def test_representative_time_is_member_mean(self):
        t = nine_point_layout()
        h = build_hierarchy(t, merge_counts=[2, 2, 3, 1])
        for i in range(len(h.scale)):
            assert h.rep_time[i] == np.mean(np.asarray(t)[h.lo[i] : h.hi[i] + 1])

    def test_active_nodes_partition_every_scale(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(4, 20))
            t = random_times(rng, n)
            S = int(rng.integers(1, n - 1)) if n > 2 else 1
            h = build_hierarchy(t, default_merge_counts(n, S))
            for s in range(1, S + 1):
                members = np.concatenate(
                    [np.arange(h.lo[i], h.hi[i] + 1) for i in h.active_nodes(s)]
                )
                assert sorted(members.tolist()) == list(range(n))

    def test_active_counts_shrink_by_merge_counts(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(4, 24))
            t = random_times(rng, n)
            h = build_hierarchy(t, default_merge_counts(n, 3))
            sizes = [len(h.active_nodes(s)) for s in range(1, h.num_scales + 1)]
            assert sizes[0] == n
            for s in range(1, h.num_scales):
                assert sizes[s] == sizes[s - 1] - h.merge_counts[s - 1]

    def test_earlier_merges_have_smaller_or_equal_scale(self):
        rng = np.random.default_rng(8)
        t = random_times(rng, 16)
        h = build_hierarchy(t, default_merge_counts(len(t), 4))
        # Merge ids increase with merge order, so their scales never decrease.
        assert np.all(np.diff(h.scale[h.num_leaves:]) >= 0)


class TestFrontier:
    def test_nine_point_frontier_at_scale_two(self):
        h = build_hierarchy(nine_point_layout(), merge_counts=[2, 2, 3, 1])
        frontier = h.frontier(2)
        assert len(frontier) == 4
        # Two pair-clusters plus the two leaves merged in interval 2,
        # time-ordered so the last entry is leaf e6 (index 5).
        assert frontier[-1] == 5
        assert set(frontier) == {9, 10, 4, 5}

    def test_top_frontier_merges_into_root(self):
        h = build_hierarchy(nine_point_layout(), merge_counts=[2, 2, 3, 1])
        top = h.frontier(h.num_scales)
        assert len(top) >= 1
        assert top == h.active_nodes(h.num_scales)

    def test_single_scale_frontier_is_all_leaves(self):
        t = [0.0, 1.0, 3.0, 7.0, 20.0]
        h = build_hierarchy(t, merge_counts=[4])
        assert h.frontier(1) == [0, 1, 2, 3, 4]

    def test_leaves_partition_across_frontiers_by_scale(self):
        # Each leaf participates in attention exactly once: at its own scale.
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(4, 20))
            h = build_hierarchy(random_times(rng, n), default_merge_counts(n, 3))
            seen = []
            for s in range(1, h.num_scales + 1):
                seen.extend(i for i in h.frontier(s) if i < h.num_leaves)
            assert sorted(seen) == list(range(n))

    def test_frontier_ordered_by_representative_time(self):
        rng = np.random.default_rng(10)
        h = build_hierarchy(random_times(rng, 20), default_merge_counts(20, 5))
        for s in range(1, 6):
            reps = [h.rep_time[i] for i in h.frontier(s)]
            assert reps == sorted(reps)


class TestKeySet:
    def test_nine_point_key_reduction(self):
        h = build_hierarchy(nine_point_layout(), merge_counts=[2, 2, 3, 1])
        keys = h.key_set(2, 5)  # query is leaf e6
        assert len(keys) == 4
        assert 5 in keys
        assert h.num_leaves == 9  # reduction 9 -> 4 versus all-pair attention

    def test_single_node_frontier_self_only(self):
        h = build_hierarchy([0.0, 1.0], merge_counts=[1])
        assert h.frontier(1) == [0, 1]
        h2 = build_hierarchy([0.0, 1.0, 2.0, 4.0], merge_counts=[2, 1])
        top = h2.frontier(2)
        first = top[0]
        assert h2.key_set(2, first, causal=True) == [first]

    def test_causal_first_node_is_self(self):
        h = build_hierarchy(nine_point_layout(), merge_counts=[2, 2, 3, 1])
        frontier = h.frontier(2)
        assert h.key_set(2, frontier[0], causal=True) == [frontier[0]]
        assert h.key_set(2, frontier[-1], causal=True) == frontier

    def test_carried_node_attends_to_itself(self):
        h = build_hierarchy(nine_point_layout(), merge_counts=[2, 2, 3, 1])
        # Leaf e7 (index 6) is active at scale 2 but only merges at scale 3.
        assert 6 in h.active_nodes(2)
        assert 6 not in h.frontier(2)
        assert h.key_set(2, 6) == [6]

    def test_inactive_node_rejected(self):
        h = build_hierarchy(nine_point_layout(), merge_counts=[2, 2, 3, 1])
        with pytest.raises(HierarchyError):
            h.key_set(3, 0)  # e1 was absorbed during interval 1


def position_groups(h, s):
    """pool_groups(s) as the next ids and, for each, its run of positions."""
    nxt, starts = h.pool_groups(s)
    runs = np.split(np.arange(len(h.active_nodes(s))), starts[1:])
    return nxt.tolist(), [run.tolist() for run in runs]


class TestPoolGroups:
    def test_nine_point_pooling_path(self):
        h = build_hierarchy(nine_point_layout(), merge_counts=[2, 2, 3, 1])
        nxt, groups = position_groups(h, 1)
        active1 = h.active_nodes(1)
        assert active1 == list(range(9))
        assert nxt == h.active_nodes(2)
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(9))
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1, 1, 1, 1, 1, 2, 2]

    def test_chain_merges_pool_flat_groups(self):
        # Interval 3 merges e7+e8 and then absorbs e9 through a chain; the
        # next active set must group all three leaves together.
        h = build_hierarchy(nine_point_layout(), merge_counts=[2, 2, 3, 1])
        nxt, groups = position_groups(h, 3)
        assert len(nxt) == 2
        sizes = sorted(len(g) for g in groups)
        assert sizes == [2, 3]

    def test_pool_groups_out_of_range(self):
        h = build_hierarchy(nine_point_layout(), merge_counts=[2, 2, 3, 1])
        with pytest.raises(ConfigError):
            h.pool_groups(4)


@pytest.mark.parametrize("types", [
    [0, 1, 2, 0, 1, 2, 0, 1, -1],
    [0, 1, 2, 0, 1, 2, 0, 1, 3],
    [0, 1, 2, 0, 1, 2, 0, 1],
    [0, 1, 2, 0, 1, 2, 0, 1, 2, 0],
    [[0, 1, 2, 0, 1, 2, 0, 1, 2]],
    [0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0, 1.0, 2.0],
], ids=["negative", "too-large", "short", "long", "2-D", "float"])
def test_type_mixture_rejects_types_that_are_not_one_id_per_leaf(types):
    h = build_hierarchy(nine_point_layout(), merge_counts=[2, 2, 3, 1])
    with pytest.raises(DataError, match=r"one integer id in \[0, 3\) for each of the 9 leaves"):
        h.type_mixture(16, np.array(types), 3)


NINE_POINT_TREE = """\
node id=16 scale=4 t=15.0778 members=[0, 1, 2, 3, 4, 5, 6, 7, 8]
  node id=14 scale=3 t=5.45 members=[0, 1, 2, 3, 4, 5]
    node id=12 scale=2 t=2.55 members=[0, 1, 2, 3]
      node id=9 scale=1 t=0.5 members=[0, 1]
        leaf id=0 scale=1 t=0 members=[0]
        leaf id=1 scale=1 t=1 members=[1]
      node id=10 scale=1 t=4.6 members=[2, 3]
        leaf id=2 scale=1 t=4 members=[2]
        leaf id=3 scale=1 t=5.2 members=[3]
    node id=11 scale=2 t=11.25 members=[4, 5]
      leaf id=4 scale=2 t=10 members=[4]
      leaf id=5 scale=2 t=12.5 members=[5]
  node id=15 scale=3 t=34.3333 members=[6, 7, 8]
    node id=13 scale=3 t=32 members=[6, 7]
      leaf id=6 scale=3 t=30 members=[6]
      leaf id=7 scale=3 t=34 members=[7]
    leaf id=8 scale=3 t=39 members=[8]"""


class TestSerialization:
    def test_format_tree_contains_all_nodes(self):
        # The whole text, root first, each child two spaces under its parent.
        h = build_hierarchy(nine_point_layout(), merge_counts=[2, 2, 3, 1])
        assert h.format_tree() == NINE_POINT_TREE


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


def merge_tree(h):
    return [step[:4] for step in merge_steps(h)]


class TestHierarchyProperties:
    @given(increasing_times)
    def test_every_slicing_matches_the_brute_force_member_sets(self, times):
        t = np.asarray(times)
        n = len(t)
        oracle = brute_force_single_linkage(t)
        members = oracle_members(t)
        types = np.arange(n) * 7 % 3
        for S in range(1, n):
            h = build_hierarchy(t, default_merge_counts(n, S))
            assert merge_tree(h) == [step[:4] for step in oracle]
            assert len(h.lo) == len(h.hi) == len(h.rep_time) == 2 * n - 1
            mixtures = h.type_mixture(np.arange(2 * n - 1), types, 3)
            for node_id in range(2 * n - 1):
                expected = sorted(members[node_id])
                assert list(range(h.lo[node_id], h.hi[node_id] + 1)) == expected
                assert h.rep_time[node_id] == t[expected].mean()
                counts = np.zeros(3)
                for leaf in expected:
                    counts[types[leaf]] += 1.0
                mixture = h.type_mixture(node_id, types, 3)
                np.testing.assert_array_equal(mixture, counts / len(expected))
                np.testing.assert_array_equal(mixtures[node_id], counts / len(expected))
            bounds = np.concatenate([[0], np.cumsum(h.merge_counts)])
            for s in range(1, S + 1):
                start, end = bounds[s - 1], bounds[s]
                done = [step for step in oracle if step[0] <= start]
                alive = set(range(n)) | {step[3] for step in done}
                alive -= {child for step in done for child in step[1:3]}
                merging = {child for step in oracle if start < step[0] <= end
                           for child in step[1:3]}
                active = h.active_nodes(s)
                assert set(active) == alive
                spans = [sorted(members[i]) for i in active]
                assert [i for span in spans for i in span] == list(range(n))
                frontier = h.frontier(s)
                assert frontier == [i for i in active if i in merging]
                if s < S:
                    nxt, groups = position_groups(h, s)
                    assert nxt == h.active_nodes(s + 1)
                    assert [p for g in groups for p in g] == list(range(len(active)))
                    for node_id, group in zip(nxt, groups):
                        absorbed = set().union(*(members[active[p]] for p in group))
                        assert absorbed == members[node_id]

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
        S = data.draw(st.integers(1, len(t) - 1))
        h = build_hierarchy(t, default_merge_counts(len(t), S))
        g = build_hierarchy(a * t + b, default_merge_counts(len(t), S))
        assert merge_tree(g) == merge_tree(h)
        assert [s[4] for s in merge_steps(g)] == [a * s[4] for s in merge_steps(h)]
        assert g.merge_counts == h.merge_counts
        for s in range(1, S + 1):
            assert g.active_nodes(s) == h.active_nodes(s)
            assert g.frontier(s) == h.frontier(s)

    @given(increasing_times, st.data())
    def test_format_tree_indents_each_node_by_its_ancestors(self, times, data):
        # Each node is on exactly one line, indented two spaces for every
        # other node whose brute-force member set contains its own.
        n = len(times)
        members = oracle_members(times)
        S = data.draw(st.integers(1, n - 1))
        h = build_hierarchy(np.asarray(times), default_merge_counts(n, S))
        lines = h.format_tree().split("\n")
        assert len(lines) == 2 * n - 1
        seen = {}
        for line in lines:
            body = line.lstrip(" ")
            kind, id_field = body.split(" ")[:2]
            node_id = int(id_field.removeprefix("id="))
            assert node_id not in seen
            seen[node_id] = (len(line) - len(body)) // 2
            assert kind == ("leaf" if node_id < n else "node")
            assert body.endswith(f"members={sorted(members[node_id])}")
        assert seen == {
            i: sum(1 for j in members if j != i and members[i] <= members[j])
            for i in members
        }
