"""Tests for the autodiff core: forward values and finite-difference gradients.

The small ops the fused nodes replaced live on in ``oracles`` (as ``O``),
where the exactness tests build the old chains from them; they are checked
here like the engine's own ops."""

import gc
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from nextevent import model as M
from nextevent import tensor as T
from nextevent.errors import ConfigError, HierarchyError, NumericsError
from gradcheck import check_gradients
import oracles as O
from oracles import dense_masked_attention
from test_fused_nodes import BENCHMARK, _benchmark_example


def finite_diff_grad(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at x, entry by entry."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = f(x)
        flat[i] = orig - step
        down = f(x)
        flat[i] = orig
        g.reshape(-1)[i] = (up - down) / (2.0 * step)
    return g


def assert_grad_matches(build, arrays, tol=1e-4, step=1e-5):
    """Check analytic gradients of sum(build(nodes)) against central differences."""
    nodes = [T.DiffNode(a) for a in arrays]
    out = O.sum_all(build(*nodes))
    out.backward()
    for k, node in enumerate(nodes):
        def f(x, k=k):
            probe = [T.DiffNode(a) for a in arrays]
            probe[k] = T.DiffNode(x)
            return O.sum_all(build(*probe)).value.item()

        numeric = finite_diff_grad(f, arrays[k].copy(), step)
        denom = np.maximum(np.maximum(np.abs(node.grad), np.abs(numeric)), 1e-6)
        rel = np.abs(node.grad - numeric) / denom
        assert rel.max() < tol, f"operand {k}: max rel err {rel.max():.2e}"


class TestForwardValues:
    def test_matmul_identity(self):
        out = T.matmul(T.DiffNode([[1.0, 0.0], [0.0, 1.0]]), T.DiffNode([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.value, [[3.0], [4.0]])

    def test_matmul_hand_computed(self):
        out = T.matmul(T.DiffNode([[1.0, 2.0]]), T.DiffNode([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.value, [[11.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(T.DiffNode(np.zeros((2, 3))), T.DiffNode(np.zeros((2, 2))))

    def test_softmax_symmetry(self):
        out = O.softmax(T.DiffNode([[0.0, 0.0, 0.0]]), axis=1)
        np.testing.assert_allclose(out.value, [[1 / 3] * 3], atol=1e-15)

    def test_softmax_no_overflow(self):
        out = O.softmax(T.DiffNode([[1000.0, 0.0]]), axis=1)
        assert np.isfinite(out.value).all()
        np.testing.assert_allclose(out.value, [[1.0, 0.0]], atol=1e-12)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        out = O.softmax(T.DiffNode(rng.uniform(-50, 50, size=(7, 5))), axis=1)
        np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            O.softmax(T.DiffNode([[1.0, 2.0]]), axis=2)

    def test_softplus_values(self):
        out = O.softplus(T.DiffNode([0.0, 100.0, -100.0]))
        np.testing.assert_allclose(out.value[0], np.log(2.0), rtol=1e-12)
        np.testing.assert_allclose(out.value[1], 100.0, rtol=1e-12)
        assert 0.0 < out.value[2] < 1e-40

    def test_segment_mean_mean_of_two(self):
        out = T.segment_mean(T.DiffNode([[2.0, 2.0], [4.0, 4.0]]), [0])
        np.testing.assert_array_equal(out.value, [[3.0, 3.0]])

    def test_segment_mean_singleton_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = T.segment_mean(T.DiffNode(x), [0, 1])
        np.testing.assert_array_equal(out.value, x)

    def test_segment_mean_empty_segment_raises(self):
        with pytest.raises(HierarchyError, match="empty segment"):
            T.segment_mean(T.DiffNode(np.zeros((2, 2))), [0, 1, 1])

    def test_segment_mean_equals_the_mean_of_each_run(self):
        # Runs longer than 8 rows would expose a summation order other than
        # np.mean's row-by-row one.
        rng = np.random.default_rng(21)
        for n in (1, 9, 40, 300):
            x = rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
            cuts = np.flatnonzero(rng.random(n - 1) < rng.choice([0.05, 0.3, 0.9])) + 1
            starts = np.concatenate([[0], cuts])
            expected = np.stack([run.mean(axis=0) for run in np.split(x, cuts)])
            assert np.array_equal(T.segment_mean(T.DiffNode(x), starts).value, expected)

    def test_segment_mean_of_3d_rows_equals_the_mean_of_each_run(self):
        rng = np.random.default_rng(22)
        for n in (1, 9, 40, 300):
            x = rng.normal(size=(n, 2, 3)) * 10.0 ** rng.integers(-3, 4, size=(n, 1, 1))
            cuts = np.flatnonzero(rng.random(n - 1) < rng.choice([0.05, 0.3, 0.9])) + 1
            expected = np.stack([run.mean(axis=0) for run in np.split(x, cuts)])
            out = T.segment_mean(T.DiffNode(x), np.concatenate([[0], cuts]))
            np.testing.assert_array_equal(out.value, expected)

    def test_segment_mean_of_1d_rows_adds_them_in_order(self):
        # A 1-D run's np.mean sums pairwise from 8 values on; segment_mean
        # adds one value after another from 0, as it does rows, so the two
        # agree on runs of up to 7 values, and on longer runs the oracle is
        # that left-to-right sum.
        rng = np.random.default_rng(23)
        for n in (1, 7, 40, 300):
            x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
            cuts = np.flatnonzero(rng.random(n - 1) < rng.choice([0.05, 0.3, 0.9])) + 1
            runs = np.split(x, cuts)
            in_order = [sum(run.tolist(), 0.0) / len(run) for run in runs]
            out = T.segment_mean(T.DiffNode(x), np.concatenate([[0], cuts]))
            np.testing.assert_array_equal(out.value, in_order)
            short = [i for i, run in enumerate(runs) if len(run) < 8]
            np.testing.assert_array_equal(out.value[short], [runs[i].mean() for i in short])

    @pytest.mark.parametrize("starts, match", [
        ([[0, 2]], "1-D"),
        ([], "1-D"),
        ([1, 2], "beginning at 0"),
        ([0, 3, 2], "empty segment"),
        ([0, 4], "out of range"),
        # Cast to int64, these would truncate to the valid starts [0, 1].
        ([0, 1.5], "integer"), (np.array([0.0, 1.0]), "integer"),
        ([False, True], "integer"),
    ], ids=["2-D", "empty", "not-at-0", "not-increasing", "out-of-range",
            "fractional", "whole-floats", "bool"])
    def test_segment_mean_rejects_bad_starts(self, starts, match):
        with pytest.raises(HierarchyError, match=match):
            T.segment_mean(T.DiffNode(np.zeros((4, 2))), starts)

    def test_gather_rows_identity_permutation(self):
        x = np.arange(12.0).reshape(4, 3)
        out = O.gather_rows(T.DiffNode(x), [0, 1, 2, 3])
        np.testing.assert_array_equal(out.value, x)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(NumericsError):
            O.log(T.DiffNode([1.0, 0.0]))

    def test_scatter_rows_values(self):
        base = np.zeros((4, 2))
        out = O.scatter_rows(T.DiffNode(base), [1, 3], T.DiffNode(np.ones((2, 2))))
        np.testing.assert_array_equal(out.value[[1, 3]], 1.0)
        np.testing.assert_array_equal(out.value[[0, 2]], 0.0)

    def test_scatter_rows_rejects_repeats(self):
        for idx in ([1, 1], [2, 0, 2]):  # adjacent and apart
            with pytest.raises(ValueError, match="distinct"):
                O.scatter_rows(T.DiffNode(np.zeros((3, 1))), idx, T.DiffNode(np.zeros((len(idx), 1))))

    @pytest.mark.parametrize("idx", [[3], [-1], [0, 5]])
    def test_gather_and_scatter_reject_out_of_range_rows(self, idx):
        x = T.DiffNode(np.zeros((3, 2)))
        with pytest.raises(IndexError, match="out of range"):
            O.gather_rows(x, idx)
        with pytest.raises(IndexError, match="out of range"):
            O.scatter_rows(x, idx, T.DiffNode(np.zeros((len(idx), 2))))


class TestBackwardRules:
    """Per-op gradients vs central finite differences on random inputs in [-2, 2]."""

    def rand(self, *shape, seed=0):
        return np.random.default_rng(seed).uniform(-2, 2, size=shape)

    def test_matmul_grad(self):
        assert_grad_matches(T.matmul, [self.rand(3, 4, seed=1), self.rand(4, 2, seed=2)])

    def test_softmax_jacobian(self):
        x = self.rand(1, 5, seed=3)
        # Check the full Jacobian row by row through weighted sums.
        for r in range(5):
            w = np.zeros((1, 5))
            w[0, r] = 1.0
            assert_grad_matches(lambda a: O.mul(O.softmax(a, axis=1), T.DiffNode(w)), [x])

    def test_softplus_grad(self):
        assert_grad_matches(O.softplus, [self.rand(4, 3, seed=4)])

    def test_segment_mean_grad_distributes(self):
        x = self.rand(6, 3, seed=5)
        starts = [0, 3, 4]
        assert_grad_matches(lambda a: T.segment_mean(a, starts), [x])
        node = T.DiffNode(x)
        O.sum_all(T.segment_mean(node, starts)).backward()
        np.testing.assert_allclose(node.grad[0], 1 / 3)
        np.testing.assert_allclose(node.grad[3], 1.0)

    def test_gather_repeated_index_sums(self):
        x = self.rand(4, 2, seed=6)
        node = T.DiffNode(x)
        O.sum_all(O.gather_rows(node, [1, 1, 2])).backward()
        np.testing.assert_allclose(node.grad[1], 2.0)
        np.testing.assert_allclose(node.grad[2], 1.0)
        np.testing.assert_allclose(node.grad[0], 0.0)
        assert_grad_matches(lambda a: O.gather_rows(a, [1, 1, 2]), [x])

    def test_gather_grad_of_distinct_rows_equals_add_at(self):
        # np.add.at adds each distinct row once, as one fancy-indexed +=
        # does, so the gather in the attention chains rounds like the
        # kernel's single addition into x.grad.
        rng = np.random.default_rng(24)
        for rows, cols in ((5, 3), (64, 32)):
            idx = rng.permutation(rows)[: rows // 2 + 1]
            g = rng.normal(size=(len(idx), cols)) * 10.0 ** rng.integers(-3, 4, size=(len(idx), 1))
            node = T.DiffNode(rng.normal(size=(rows, cols)))
            node.grad = rng.normal(size=(rows, cols))  # gradient from other consumers
            expected = node.grad.copy()
            expected[idx] += g
            O.gather_rows(node, idx)._backward(g)
            np.testing.assert_array_equal(node.grad, expected)

    def test_gather_cols_grad(self):
        assert_grad_matches(lambda a: O.gather_cols(a, [0, 2, 2]), [self.rand(3, 4, seed=7)])

    def test_concat_grads(self):
        assert_grad_matches(T.concat_cols, [self.rand(2, 3, seed=10), self.rand(2, 2, seed=11)])

    def test_elementwise_grads(self):
        a, b = self.rand(3, 3, seed=12), self.rand(3, 3, seed=13)
        assert_grad_matches(T.add, [a, b])
        assert_grad_matches(O.mul, [a, b])
        assert_grad_matches(O.sub, [a, b])
        assert_grad_matches(lambda x: O.scale(x, -1.7), [a])
        assert_grad_matches(O.exp, [a])
        assert_grad_matches(lambda x: O.cos_sin(x)[0], [a])
        assert_grad_matches(lambda x: O.cos_sin(x)[1], [a])
        assert_grad_matches(lambda x: T.add(*O.cos_sin(x)), [a])
        assert_grad_matches(lambda x: O.log(O.softplus(x)), [a])

    @pytest.mark.parametrize("op", [T.add, O.sub, O.mul])
    def test_elementwise_ops_do_not_broadcast(self, op):
        col, mat = T.DiffNode(self.rand(3, 1, seed=14)), T.DiffNode(self.rand(3, 4, seed=15))
        with pytest.raises(ValueError, match="incompatible shapes"):
            op(col, mat)
        with pytest.raises(ValueError, match="incompatible shapes"):
            op(mat, col)

    def test_logsumexp_grad(self):
        assert_grad_matches(lambda x: O.logsumexp(x, axis=1), [self.rand(2, 6, seed=16)])

    def test_scatter_rows_grad(self):
        base, rows = self.rand(5, 3, seed=17), self.rand(2, 3, seed=18)
        assert_grad_matches(lambda a, b: O.scatter_rows(a, [0, 4], b), [base, rows])

    def test_transpose_reshape_grads(self):
        a = self.rand(3, 4, seed=19)
        assert_grad_matches(O.transpose, [a])

    def test_fanout_accumulates_both_contributions(self):
        # One node feeding two consumers must receive the sum of both gradients.
        x = T.DiffNode([[1.5]])
        out = T.add(O.scale(x, 2.0), O.mul(x, x))
        out.backward()
        np.testing.assert_allclose(x.grad, [[2.0 + 2.0 * 1.5]])


# Spans at least three tiles, so causal attention is planned as narrowed
# tiles.
TILED_N = 3 * T._TILE_ROWS + 5
TILED_IDS = ["none", "causal", "tiled-causal"]


def _keys(n, causal):
    """The keys each of n queries reads: all of them, or 0..j for row j."""
    return [range(j + 1) if causal else range(n) for j in range(n)]


class TestMaskedAttention:
    """``multi_head_attention``: one node for every head over the rows
    ``x[rows]``, all-pair or causal, or with the last row the sole query."""

    N, D, DK, HEADS = 6, 5, 3, 4

    def _arrays(self, n=N, seed=3, d=D, dk=DK):
        """x, the (3 * heads, d, d_k) W_QKV and W_O."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        w_qkv = rng.normal(size=(self.HEADS, 3, d, dk)).transpose(1, 0, 2, 3).reshape(-1, d, dk)
        return x, w_qkv, rng.normal(size=(self.HEADS * dk, d))

    def _rows(self, n, k, seed):
        """k of the n row indices, drawn at random, in increasing order."""
        return np.sort(np.random.default_rng(seed).choice(n, size=k, replace=False))

    def _head(self, w_qkv, h):
        """Head h's (Wq, Wk, Wv) slices of W_QKV."""
        return w_qkv[h], w_qkv[self.HEADS + h], w_qkv[2 * self.HEADS + h]

    def _node(self, rows, causal, last_only=False):
        def build(x, w_qkv, w_out):
            return T.multi_head_attention(x, rows, w_qkv, w_out, causal, last_only)
        return build

    def _dense(self, r, w_qkv, w_out, causal, dk):
        """Every row of ``r`` attended by ``dense_masked_attention``, one head
        at a time, then W_O and the residual."""
        per_head = [
            dense_masked_attention(r, *self._head(w_qkv, h), _keys(len(r), causal),
                                   1.0 / np.sqrt(dk))[0]
            for h in range(self.HEADS)
        ]
        return np.concatenate(per_head, axis=1) @ w_out + r

    def _assert_matches_dense_oracle(self, causal, k, d=D, dk=DK, last_only=False):
        # k random rows of a larger x; the other rows pass through exactly.
        # With last_only the last row reads every row, as causal allows it.
        n = k + k // 2 + 1
        x, w_qkv, w_out = self._arrays(n, d=d, dk=dk)
        rows = self._rows(n, k, seed=k)
        out = T.multi_head_attention(x, rows, w_qkv, w_out, causal, last_only)
        expected = self._dense(x[rows], w_qkv, w_out, causal and not last_only, dk)
        if last_only:
            np.testing.assert_allclose(out.value, expected[-1:], rtol=1e-12, atol=1e-12)
            return
        np.testing.assert_allclose(out.value[rows], expected, rtol=1e-12, atol=1e-12)
        others = np.setdiff1d(np.arange(n), rows)
        np.testing.assert_array_equal(out.value[others], x[others])

    @pytest.mark.parametrize("causal, n, last_only", [
        (False, N, False), (True, N, False), (True, TILED_N, False),
        (False, N, True), (True, N, True),
    ], ids=[*TILED_IDS, "last-only", "last-only-causal"])
    def test_matches_dense_oracle(self, causal, n, last_only):
        self._assert_matches_dense_oracle(causal, n, last_only=last_only)

    def test_causal_at_model_width_matches_dense_oracle(self):
        # Narrow tiles shorten the inner dimension of P @ V and the backward
        # products, which BLAS may round differently from the chain, so the
        # causal case is held to the oracle within 1e-12, not bit for bit.
        self._assert_matches_dense_oracle(True, 300, d=32, dk=8)

    @pytest.mark.parametrize("causal, n, d, dk, last_only", [
        (False, N, D, DK, False), (True, N, D, DK, False),
        # Narrow widths keep the finite differences over TILED_N rows fast.
        (True, TILED_N, 2, 2, False),
        (False, N, D, DK, True),
    ], ids=[*TILED_IDS, "last-only"])
    def test_gradients(self, causal, n, d, dk, last_only):
        x, w_qkv, w_out = self._arrays(n + 3, seed=4, d=d, dk=dk)
        rows = self._rows(n + 3, n, seed=n)
        assert_grad_matches(self._node(rows, causal, last_only), [x, w_qkv, w_out])

    def test_unmasked_rounds_like_the_node_chain(self):
        # Large enough that BLAS rounds a product with a strided k.T
        # differently from one with a contiguous copy. The chain gathers
        # x[rows], runs oracles.attention_chain on them (causal as an
        # additive 0/-inf constant) and scatters the result back into x;
        # "one-query" gathers the last of the rows apart as the sole query
        # and keeps its output row (the summary). Widths are the benchmark
        # model's: d_model 32, 4 heads of 8. Causal attention over more than
        # one tile of rows is cut into narrower tiles, which round
        # differently; test_causal_at_model_width_matches_dense_oracle holds
        # it to the oracle instead, and here it runs over a single tile, both
        # as a subset of x and as every row of x.
        subset = self._rows(300, 211, seed=10)
        for name in ("none", "one-query"):
            self._check_rounds_like_the_chain(300, np.arange(300), name)
            self._check_rounds_like_the_chain(300, subset, name)
        self._check_rounds_like_the_chain(50, self._rows(50, T._TILE_ROWS, seed=11), "causal")
        self._check_rounds_like_the_chain(T._TILE_ROWS, np.arange(T._TILE_ROWS), "causal")

    def _check_rounds_like_the_chain(self, n, rows, name):
        causal, last_only = name == "causal", name == "one-query"
        x, w_qkv, w_out = self._arrays(n, seed=5, d=32, dk=8)
        upstream = np.random.default_rng(6).normal(size=(1, 32) if last_only else x.shape)

        def chain(x, *ws):
            """One leaf per slice of W_QKV, in its order, then W_O."""
            r = O.gather_rows(x, rows)
            if last_only:
                return O.attention_chain(O.gather_rows(x, rows[-1:]), r, ws[:-1], ws[-1], False)
            return O.scatter_rows(x, rows, O.attention_chain(r, r, ws[:-1], ws[-1], causal))

        results = []
        for build, ws in ((self._node(rows, causal, last_only), [w_qkv]), (chain, list(w_qkv))):
            ws = [T.DiffNode(w) for w in ws] + [T.DiffNode(w_out)]
            x_node = T.DiffNode(x)
            out = build(x_node, *ws)
            O.sum_all(O.mul(out, T.DiffNode(upstream))).backward()
            w_grads = [np.stack([w.grad for w in ws[:-1]]).reshape(w_qkv.shape), ws[-1].grad]
            results.append([out.value, x_node.grad] + w_grads)
        for fused, chained in zip(*results):
            assert np.array_equal(fused, chained), (name, len(rows))

    @pytest.mark.parametrize("causal, n", [(False, 300), (True, TILED_N)],
                             ids=["none", "tiled-causal"])
    @pytest.mark.parametrize("entries", [1, 2**30], ids=["head-by-head", "all-heads"])
    def test_head_groups_do_not_change_outputs(self, monkeypatch, causal, n, entries):
        # _GROUP_ENTRIES sets how many heads share a pass, and which tiles
        # keep only their row max and row sum and rebuild P in backward: at
        # 1 every tile rebuilds it, at 2**30 none does. Each head's products
        # and the order its gradients are added in stay the same, so it can
        # be retuned without moving an output.
        x, w_qkv, w_out = self._arrays(n, seed=7, d=32, dk=8)
        upstream = np.random.default_rng(8).normal(size=x.shape)

        def run():
            nodes = [T.DiffNode(a) for a in (x, w_qkv, w_out)]
            out = self._node(np.arange(n), causal)(*nodes)
            O.sum_all(O.mul(out, T.DiffNode(upstream))).backward()
            return [out.value] + [node.grad for node in nodes]

        default = run()
        monkeypatch.setattr(T, "_GROUP_ENTRIES", entries)
        for got, want in zip(run(), default):
            assert np.array_equal(got, want)

    def test_tile_above_the_workspace_bound_rounds_like_the_chain(self):
        # A head's score tile over 600 rows takes 2.9 MB, above the bound on
        # the backward's workspace: the backward allocates that tile's
        # temporaries for the call alone and neither keeps them nor grows
        # the buffers an earlier, smaller call left.
        n = 600
        assert 8 * n * n > T._WORKSPACE_BYTES
        T._workspace.buffers.clear()
        self._check_rounds_like_the_chain(50, np.arange(50), "none")
        small = dict(T._workspace.buffers)
        self._check_rounds_like_the_chain(n, np.arange(n), "none")
        held = T._workspace.buffers
        assert held["ds"] is small["ds"] and held["ds*p"] is small["ds*p"]
        assert held["part"].shape == (n * 32,)  # one head's (600, 32) product fits
        assert all(buf.nbytes <= T._WORKSPACE_BYTES for buf in held.values())

    def test_masked_keys_get_no_weight_or_gradient(self):
        x, w_qkv, w_out = self._arrays(5, seed=6)
        rows = [1, 2, 4]
        nodes = [T.DiffNode(a) for a in (x, w_qkv, w_out)]
        out = self._node(rows, True)(*nodes)
        # The first query reads only its own key, with weight exactly one,
        # and the rows outside ``rows`` pass through.
        r = x[rows]
        values = np.concatenate([r @ w_qkv[2 * self.HEADS + h] for h in range(self.HEADS)], axis=1)
        np.testing.assert_array_equal(out.value[1], (values @ w_out + r)[0])
        np.testing.assert_array_equal(out.value[[0, 3]], x[[0, 3]])
        upstream = np.zeros_like(x)
        upstream[1] = 1.0
        O.sum_all(O.mul(out, T.DiffNode(upstream))).backward()
        np.testing.assert_array_equal(nodes[0].grad[[0, 2, 3, 4]], 0.0)  # no row but the query's
        np.testing.assert_array_equal(nodes[1].grad[:2 * self.HEADS], 0.0)  # every Wq and Wk

    @pytest.mark.parametrize("name", ["causal"])
    def test_tiled_masked_keys_get_no_weight_or_gradient(self, name):
        x, w_qkv, w_out = self._arrays(TILED_N, seed=6)
        build = self._node(np.arange(TILED_N), True)
        # Rows 60-79 straddle two tiles; the keys after row 79 can change
        # without moving those rows and take no gradient from them.
        rows = slice(60, 80)
        unread = np.arange(TILED_N) >= rows.stop
        moved = x.copy()
        moved[unread] += 1.0
        before, after = build(x, w_qkv, w_out).value, build(moved, w_qkv, w_out).value
        np.testing.assert_array_equal(after[rows], before[rows])
        nodes = [T.DiffNode(a) for a in (x, w_qkv, w_out)]
        upstream = np.zeros_like(x)
        upstream[rows] = 1.0
        O.sum_all(O.mul(build(*nodes), T.DiffNode(upstream))).backward()
        np.testing.assert_array_equal(nodes[0].grad[unread], 0.0)
        assert np.abs(nodes[0].grad[~unread]).max(axis=1).all()

    def test_rejects_empty_row_and_bad_shapes(self):
        x = T.DiffNode(np.ones((3, 2)))
        w_qkv = T.DiffNode(np.ones((3, 2, 2)))
        w_out = T.DiffNode(np.ones((2, 2)))
        with pytest.raises(HierarchyError, match="non-empty"):
            T.multi_head_attention(x, [], w_qkv, w_out, False)
        with pytest.raises(ValueError, match="disagree"):
            T.multi_head_attention(T.DiffNode(np.ones((3, 4))), [0, 1], w_qkv, w_out, False)
        with pytest.raises(ValueError, match="disagree"):
            T.multi_head_attention(x, [0], w_qkv, T.DiffNode(np.ones((4, 2))), False)

    @pytest.mark.parametrize("rows, match", [
        ([-1], "out of range"), ([3], "out of range"), ([0, 5], "out of range"),
        ([1, 1], "strictly increase"), ([0, 2, 1], "strictly increase"), ([[0, 1]], "1-D"),
        # Cast to int64, these would truncate to the valid rows [0, 2].
        ([0.5, 2.9], "integer"), (np.array([0.0, 2.0]), "integer"),
        ([True, False, True], "integer"),
    ], ids=["negative", "past-the-end", "past-the-end-after-a-valid-row",
            "repeated", "decreasing", "2-D", "fractional", "whole-floats", "bool"])
    def test_rejects_bad_rows(self, rows, match):
        x, w_qkv, w_out = self._arrays(3)
        with pytest.raises(HierarchyError, match=match):
            T.multi_head_attention(x, rows, w_qkv, w_out, False)

    @pytest.mark.parametrize("flag", ["causal", "last_only"])
    @pytest.mark.parametrize("value", ["no", 1, 0, None, np.array([True])],
                             ids=["string", "one", "zero", "None", "array"])
    def test_rejects_flags_that_are_not_bools(self, flag, value):
        # "no" is truthy: taken as a flag it would run the causal tiles.
        x, w_qkv, w_out = self._arrays(3)
        flags = {"causal": False, "last_only": False, flag: value}
        with pytest.raises(ConfigError, match=flag):
            T.multi_head_attention(x, [0, 1, 2], w_qkv, w_out, **flags)

    @pytest.mark.parametrize("flag", ["causal", "last_only"])
    def test_numpy_bool_flags_act_as_bools(self, flag):
        x, w_qkv, w_out = self._arrays(3)
        flags = {"causal": False, "last_only": False}
        want = T.multi_head_attention(x, [0, 1, 2], w_qkv, w_out, **{**flags, flag: True})
        got = T.multi_head_attention(x, [0, 1, 2], w_qkv, w_out, **{**flags, flag: np.True_})
        assert np.array_equal(got.value, want.value)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 2, 2), (4, 2, 2), (2, 2)])
    def test_rejects_w_qkv_without_whole_heads(self, shape):
        x = T.DiffNode(np.ones((3, 2)))
        with pytest.raises(ValueError, match="at least one head"):
            T.multi_head_attention(x, [0, 1, 2], np.ones(shape), np.ones((2, 2)), False)

    def test_rejects_w_qkv_whose_width_disagrees_with_xq(self):
        x = T.DiffNode(np.ones((3, 2)))
        with pytest.raises(ValueError, match="disagree"):
            T.multi_head_attention(x, [0, 1, 2], np.ones((3, 4, 2)), np.ones((2, 2)), False)


class TestTilePlan:
    """``_plan_tiles``: which scores ``multi_head_attention`` forms."""

    HEADS = 4

    def _coverage(self, n, m, causal):
        """How often each (head, row, key) score is formed, checking on the
        way that the fill covers exactly the masked scores inside a tile."""
        tiles = T._plan_tiles(n, m, self.HEADS, causal)
        allowed = np.tri(n, m, dtype=bool) if causal else np.ones((n, m), dtype=bool)
        covered = np.zeros((self.HEADS, n, m), dtype=int)
        for heads, rows, keys in tiles:
            covered[heads, rows, keys] += 1
            filled = np.zeros((rows.stop - rows.start, keys.stop - keys.start), dtype=bool)
            if causal:
                b = rows.stop - rows.start
                filled[:, rows] = T._CAUSAL_FILL[:b, :b]
            np.testing.assert_array_equal(filled, ~allowed[rows, keys])
        return tiles, covered

    def test_causal_plan_covers_every_allowed_key(self):
        n = 300
        tiles, covered = self._coverage(n, n, True)
        assert covered.max() == 1
        assert covered[:, np.tri(n, dtype=bool)].all()
        assert covered.sum() / self.HEADS <= 0.65 * n * n
        # Each row block reads the keys up to the end of its diagonal square.
        assert all(keys == slice(0, rows.stop) for _, rows, keys in tiles)

    @pytest.mark.parametrize("name", ["none", "one-query", "causal within one tile"])
    def test_plans_without_narrowing_are_full_width(self, name):
        n = m = T._TILE_ROWS if name.startswith("causal") else 300
        if name == "one-query":
            n = 1
        tiles, covered = self._coverage(n, m, name.startswith("causal"))
        assert all(rows == slice(0, n) and keys == slice(0, m) for _, rows, keys in tiles)
        assert (covered == 1).all()  # each head in exactly one group


class TestBackwardWorkspace:
    """The attention backward's per-thread workspace: a buffer reused from
    an earlier call never carries that call's data into a gradient."""

    CASES = [(False, 300, False), (True, TILED_N, False), (False, 300, True)]

    def _loss(self, causal, n, last_only):
        """(loss, leaves) of one attention node over n of n + 7 rows, at the
        benchmark model's widths: d_model 32, 4 heads of 8."""
        rng = np.random.default_rng(n)
        leaves = [T.DiffNode(rng.normal(size=shape))
                  for shape in ((n + 7, 32), (12, 32, 8), (32, 32))]
        rows = np.sort(rng.choice(n + 7, size=n, replace=False))
        out = T.multi_head_attention(leaves[0], rows, *leaves[1:], causal, last_only)
        return O.sum_all(O.mul(out, T.DiffNode(rng.normal(size=out.shape)))), leaves

    @staticmethod
    def _grads(loss, leaves):
        loss.backward()
        return [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("causal, n, last_only", CASES,
                             ids=["none", "tiled-causal", "last-only"])
    def test_stale_buffers_never_reach_the_gradients(self, causal, n, last_only):
        T._workspace.buffers.clear()
        fresh = self._grads(*self._loss(causal, n, last_only))
        assert T._workspace.buffers  # the run left its buffers behind
        for buf in T._workspace.buffers.values():
            buf.fill(np.nan)
        again = self._grads(*self._loss(causal, n, last_only))
        for got, want in zip(again, fresh):
            assert np.array_equal(got, want)

    def test_interleaved_graphs_match_each_graph_alone(self):
        # B's tiles are the larger, so B's backward regrows the buffers that
        # A's backward then reads from.
        a, b = self.CASES[1], self.CASES[0]
        alone = self._grads(*self._loss(*a)) + self._grads(*self._loss(*b))
        graph_a = self._loss(*a)
        graph_b = self._loss(*b)
        got_b = self._grads(*graph_b)
        got_a = self._grads(*graph_a)
        for got, want in zip(got_a + got_b, alone):
            assert np.array_equal(got, want)

    def test_two_threads_train_as_a_serial_run_does(self, monkeypatch):
        # Each request for a buffer sleeps for a moment, which hands the
        # interpreter to the other thread while this one holds its buffer,
        # and a short switch interval makes the threads trade places often,
        # so each thread's backward runs while the other's does. A workspace
        # shared between threads fails this test.
        jobs = [(256, False), (128, True)]
        take = T._Workspace.take

        def take_then_yield(self, role, shape):
            buf = take(self, role, shape)
            time.sleep(1e-4)
            return buf

        def train(length, causal, grads):
            params, window = _train_window(length, causal)
            for _ in range(3):
                params.zero_grad()
                M.forward(params, window).total.backward()
                grads.append({k: leaf.grad.copy() for k, leaf in params.all_named().items()})
                for leaf in params.all_named().values():
                    leaf.value -= 0.01 * leaf.grad

        serial = [[], []]
        for job, grads in zip(jobs, serial):
            train(*job, grads)
        threaded = [[], []]
        threads = [threading.Thread(target=train, args=(*job, grads))
                   for job, grads in zip(jobs, threaded)]
        monkeypatch.setattr(T._Workspace, "take", take_then_yield)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(threaded, serial):
            assert len(got) == len(want) == 3  # a thread that raised stops short
            for step_got, step_want in zip(got, want):
                for name, grad in step_want.items():
                    assert np.array_equal(step_got[name], grad), name


class TestCheckGradients:
    def test_quadratic_analytic(self):
        w = T.DiffNode([1.0, 2.0])

        def f(params):
            v = params["w"]
            return O.sum_all(O.mul(v, v))

        report = check_gradients(f, {"w": w})
        assert report.max_rel_error < 1e-6
        f(None if False else {"w": w})
        w.zero_grad()
        O.sum_all(O.mul(w, w)).backward()
        np.testing.assert_allclose(w.grad, [2.0, 4.0], rtol=1e-12)

    def test_softmax_cross_entropy_composite(self):
        rng = np.random.default_rng(42)
        logits = T.DiffNode(rng.normal(size=(1, 6)))
        target = 2

        def f(params):
            lse = O.logsumexp(params["logits"], axis=1)
            picked = O.gather_cols(params["logits"], [target])
            return O.sum_all(O.sub(lse, picked))

        report = check_gradients(f, {"logits": logits})
        assert report.max_rel_error < 1e-4

    def test_non_finite_loss_raises(self):
        w = T.DiffNode([1.0])

        def f(params):
            return O.sum_all(O.scale(params["w"], np.inf))

        with pytest.raises(NumericsError):
            check_gradients(f, {"w": w})

    def test_large_tensor_sampling(self):
        rng = np.random.default_rng(1)
        w = T.DiffNode(rng.normal(size=(30, 30)))

        def f(params):
            return O.sum_all(O.mul(params["w"], params["w"]))

        report = check_gradients(f, {"w": w}, max_entries=100)
        assert report.num_checked == 100
        assert report.max_rel_error < 1e-6

    def test_backward_requires_scalar_root(self):
        with pytest.raises(ValueError, match="scalar"):
            T.DiffNode(np.zeros((2, 2))).backward()


def _keep_graph_backward(root):
    """Reference backward that releases nothing: every closure in the same
    reverse topological order as ``DiffNode.backward``."""
    root.grad = np.ones_like(root.value)
    for node in T._toposort(root):
        if node._backward is not None:
            node._backward(node.grad)


def _train_window(length, causal):
    """(params, window) of the benchmark's model on a multiscale window."""
    config = M.ModelConfig(**BENCHMARK, causal=causal)
    return M.init_model_params(config, seed=0), _benchmark_example(length)


class TestGraphRelease:
    """``backward()`` releases each interior node once it has passed its
    gradient on, and a released graph cannot be differentiated again."""

    def _step(self, params, window):
        params.zero_grad()
        result = M.forward(params, window)
        result.total.backward()
        return result

    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    def test_train_step_releases_every_interior_node(self, causal):
        params, window = _train_window(64, causal)
        params.zero_grad()
        kept = M.forward(params, window)
        _keep_graph_backward(kept.total)
        expected = {name: node.grad.copy() for name, node in params.all_named().items()}

        params.zero_grad()
        result = M.forward(params, window)
        nodes = T._toposort(result.total)
        values = [node.value.copy() for node in nodes]
        result.total.backward()
        interior = [node for node in nodes if node.parents]
        assert len(nodes) == 40 and len(interior) == 22
        for node in interior:
            assert node._backward is None
            assert node._grad is None
            assert not node.grad.any()
            assert node._grad is None  # the read kept nothing
        for node, value in zip(nodes, values):
            np.testing.assert_array_equal(node.value, value)
        for name, node in params.all_named().items():
            np.testing.assert_array_equal(node.grad, expected[name], err_msg=name)

    def test_second_backward_raises_and_leaves_the_gradients_alone(self):
        params, window = _train_window(64, False)
        result = self._step(params, window)
        grads = {name: node.grad.copy() for name, node in params.all_named().items()}
        with pytest.raises(RuntimeError, match="released"):
            result.total.backward()
        for name, node in params.all_named().items():
            np.testing.assert_array_equal(node.grad, grads[name], err_msg=name)

    def test_graph_built_on_a_released_node_raises(self):
        x = T.DiffNode([[1.5, -2.0]])
        hidden = O.scale(x, 3.0)
        O.sum_all(hidden).backward()
        again = O.sum_all(O.mul(hidden, hidden))
        with pytest.raises(RuntimeError, match="released"):
            again.backward()
        np.testing.assert_array_equal(x.grad, [[3.0, 3.0]])

    def test_a_leaf_keeps_the_zeros_its_gradient_reads(self):
        # Ops add into slices of a leaf's gradient (w_qkv.grad[:nh] += ...),
        # which never calls the setter, so a leaf keeps what .grad allocates.
        w = T.DiffNode(np.zeros((3, 2)))
        w.grad[:1] += 1.0
        np.testing.assert_array_equal(w.grad, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])

    def test_leaf_root_keeps_its_gradient(self):
        x = T.DiffNode([[2.0]])
        x.backward()
        x.backward()  # a leaf has nothing to release
        np.testing.assert_array_equal(x.grad, [[1.0]])

    @pytest.mark.parametrize("length, causal", [(512, False), (256, True)],
                             ids=["full-L512", "causal-L256"])
    def test_kept_result_holds_under_half_the_step_peak(self, length, causal):
        # A training loop keeps the last step's result while it runs the
        # next one. What that result still holds after backward() is its
        # forward values: 0.2-0.4 of the step's traced peak. A result that
        # also held every closure and interior gradient would hold about 0.9.
        params, window = _train_window(length, causal)
        previous = self._step(params, window)  # kept, as a loop keeps it
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = self._step(params, window)
            held, peak = tracemalloc.get_traced_memory()
            del result
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 0.5 * (peak - base), (held, peak - base)

    def test_forward_graph_at_L1024_holds_under_12_mb(self):
        # Each tile past _GROUP_ENTRIES keeps its row max and row sum, not
        # its P, so the graph a forward pass leaves grows with the rows and
        # keys, not with their product. Keeping every P, it holds 25 MB here.
        params, window = _train_window(1024, False)
        self._step(params, window)  # the workspace grows to its largest tiles
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = M.forward(params, window)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < 12e6, held
        result.total.backward()
