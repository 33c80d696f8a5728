"""Tests for the autodiff core: forward values and finite-difference gradients.

The small ops the fused nodes replaced live on in ``oracles`` (as ``O``),
where the exactness tests build the old chains from them; they are checked
here like the engine's own ops."""

import numpy as np
import pytest

from nextevent import tensor as T
from nextevent.errors import HierarchyError, NumericsError
from gradcheck import check_gradients
import oracles as O
from oracles import dense_masked_attention


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
    nodes = [T.parameter(a) for a in arrays]
    out = O.sum_all(build(*nodes))
    out.backward()
    for k, node in enumerate(nodes):
        def f(x, k=k):
            probe = [T.constant(a) for a in arrays]
            probe[k] = T.constant(x)
            return O.sum_all(build(*probe)).value.item()

        numeric = finite_diff_grad(f, arrays[k].copy(), step)
        denom = np.maximum(np.maximum(np.abs(node.grad), np.abs(numeric)), 1e-6)
        rel = np.abs(node.grad - numeric) / denom
        assert rel.max() < tol, f"operand {k}: max rel err {rel.max():.2e}"


class TestForwardValues:
    def test_matmul_identity(self):
        out = T.matmul(T.constant([[1.0, 0.0], [0.0, 1.0]]), T.constant([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.value, [[3.0], [4.0]])

    def test_matmul_hand_computed(self):
        out = T.matmul(T.constant([[1.0, 2.0]]), T.constant([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.value, [[11.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 2))))

    def test_softmax_symmetry(self):
        out = O.softmax(T.constant([[0.0, 0.0, 0.0]]), axis=1)
        np.testing.assert_allclose(out.value, [[1 / 3] * 3], atol=1e-15)

    def test_softmax_no_overflow(self):
        out = O.softmax(T.constant([[1000.0, 0.0]]), axis=1)
        assert np.isfinite(out.value).all()
        np.testing.assert_allclose(out.value, [[1.0, 0.0]], atol=1e-12)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        out = O.softmax(T.constant(rng.uniform(-50, 50, size=(7, 5))), axis=1)
        np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            O.softmax(T.constant([[1.0, 2.0]]), axis=2)

    def test_softplus_values(self):
        out = O.softplus(T.constant([0.0, 100.0, -100.0]))
        np.testing.assert_allclose(out.value[0], np.log(2.0), rtol=1e-12)
        np.testing.assert_allclose(out.value[1], 100.0, rtol=1e-12)
        assert 0.0 < out.value[2] < 1e-40

    def test_segment_mean_mean_of_two(self):
        out = T.segment_mean(T.constant([[2.0, 2.0], [4.0, 4.0]]), [0])
        np.testing.assert_array_equal(out.value, [[3.0, 3.0]])

    def test_segment_mean_singleton_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = T.segment_mean(T.constant(x), [0, 1])
        np.testing.assert_array_equal(out.value, x)

    def test_segment_mean_empty_segment_raises(self):
        with pytest.raises(HierarchyError, match="empty segment"):
            T.segment_mean(T.constant(np.zeros((2, 2))), [0, 1, 1])

    def test_segment_mean_equals_the_mean_of_each_run(self):
        # Runs longer than 8 rows would expose a summation order other than
        # np.mean's row-by-row one.
        rng = np.random.default_rng(21)
        for n in (1, 9, 40, 300):
            x = rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
            cuts = np.flatnonzero(rng.random(n - 1) < rng.choice([0.05, 0.3, 0.9])) + 1
            starts = np.concatenate([[0], cuts])
            expected = np.stack([run.mean(axis=0) for run in np.split(x, cuts)])
            assert np.array_equal(T.segment_mean(T.constant(x), starts).value, expected)

    def test_segment_mean_of_3d_rows_equals_the_mean_of_each_run(self):
        rng = np.random.default_rng(22)
        for n in (1, 9, 40, 300):
            x = rng.normal(size=(n, 2, 3)) * 10.0 ** rng.integers(-3, 4, size=(n, 1, 1))
            cuts = np.flatnonzero(rng.random(n - 1) < rng.choice([0.05, 0.3, 0.9])) + 1
            expected = np.stack([run.mean(axis=0) for run in np.split(x, cuts)])
            out = T.segment_mean(T.constant(x), np.concatenate([[0], cuts]))
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
            out = T.segment_mean(T.constant(x), np.concatenate([[0], cuts]))
            np.testing.assert_array_equal(out.value, in_order)
            short = [i for i, run in enumerate(runs) if len(run) < 8]
            np.testing.assert_array_equal(out.value[short], [runs[i].mean() for i in short])

    @pytest.mark.parametrize("starts, match", [
        ([[0, 2]], "1-D"),
        ([], "1-D"),
        ([1, 2], "beginning at 0"),
        ([0, 3, 2], "empty segment"),
        ([0, 4], "out of range"),
    ], ids=["2-D", "empty", "not-at-0", "not-increasing", "out-of-range"])
    def test_segment_mean_rejects_bad_starts(self, starts, match):
        with pytest.raises(HierarchyError, match=match):
            T.segment_mean(T.constant(np.zeros((4, 2))), starts)

    def test_gather_rows_identity_permutation(self):
        x = np.arange(12.0).reshape(4, 3)
        out = T.gather_rows(T.constant(x), [0, 1, 2, 3])
        np.testing.assert_array_equal(out.value, x)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(NumericsError):
            O.log(T.constant([1.0, 0.0]))

    def test_scatter_rows_values(self):
        base = np.zeros((4, 2))
        out = T.scatter_rows(T.constant(base), [1, 3], T.constant(np.ones((2, 2))))
        np.testing.assert_array_equal(out.value[[1, 3]], 1.0)
        np.testing.assert_array_equal(out.value[[0, 2]], 0.0)

    def test_scatter_rows_rejects_repeats(self):
        for idx in ([1, 1], [2, 0, 2]):  # adjacent and apart
            with pytest.raises(ValueError, match="distinct"):
                T.scatter_rows(T.constant(np.zeros((3, 1))), idx, T.constant(np.zeros((len(idx), 1))))

    @pytest.mark.parametrize("idx", [[3], [-1], [0, 5]])
    def test_gather_and_scatter_reject_out_of_range_rows(self, idx):
        x = T.constant(np.zeros((3, 2)))
        with pytest.raises(IndexError, match="out of range"):
            T.gather_rows(x, idx)
        with pytest.raises(IndexError, match="out of range"):
            T.scatter_rows(x, idx, T.constant(np.zeros((len(idx), 2))))


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
            assert_grad_matches(lambda a: O.mul(O.softmax(a, axis=1), T.constant(w)), [x])

    def test_softplus_grad(self):
        assert_grad_matches(O.softplus, [self.rand(4, 3, seed=4)])

    def test_segment_mean_grad_distributes(self):
        x = self.rand(6, 3, seed=5)
        starts = [0, 3, 4]
        assert_grad_matches(lambda a: T.segment_mean(a, starts), [x])
        node = T.parameter(x)
        O.sum_all(T.segment_mean(node, starts)).backward()
        np.testing.assert_allclose(node.grad[0], 1 / 3)
        np.testing.assert_allclose(node.grad[3], 1.0)

    def test_gather_repeated_index_sums(self):
        x = self.rand(4, 2, seed=6)
        node = T.parameter(x)
        O.sum_all(T.gather_rows(node, [1, 1, 2])).backward()
        np.testing.assert_allclose(node.grad[1], 2.0)
        np.testing.assert_allclose(node.grad[2], 1.0)
        np.testing.assert_allclose(node.grad[0], 0.0)
        assert_grad_matches(lambda a: T.gather_rows(a, [1, 1, 2]), [x])

    def test_gather_grad_of_distinct_rows_equals_add_at(self):
        rng = np.random.default_rng(24)
        for rows, cols in ((5, 3), (64, 32)):
            idx = rng.permutation(rows)[: rows // 2 + 1]
            g = rng.normal(size=(len(idx), cols)) * 10.0 ** rng.integers(-3, 4, size=(len(idx), 1))
            node = T.parameter(rng.normal(size=(rows, cols)))
            node.grad = rng.normal(size=(rows, cols))  # gradient from other consumers
            expected = node.grad.copy()
            np.add.at(expected, idx, g)
            T.gather_rows(node, idx)._backward(g)
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
        col, mat = T.constant(self.rand(3, 1, seed=14)), T.constant(self.rand(3, 4, seed=15))
        with pytest.raises(ValueError, match="incompatible shapes"):
            op(col, mat)
        with pytest.raises(ValueError, match="incompatible shapes"):
            op(mat, col)

    def test_logsumexp_grad(self):
        assert_grad_matches(lambda x: O.logsumexp(x, axis=1), [self.rand(2, 6, seed=16)])

    def test_scatter_rows_grad(self):
        base, rows = self.rand(5, 3, seed=17), self.rand(2, 3, seed=18)
        assert_grad_matches(lambda a, b: T.scatter_rows(a, [0, 4], b), [base, rows])

    def test_transpose_reshape_grads(self):
        a = self.rand(3, 4, seed=19)
        assert_grad_matches(T.transpose, [a])

    def test_fanout_accumulates_both_contributions(self):
        # One node feeding two consumers must receive the sum of both gradients.
        x = T.parameter([[1.5]])
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
    """``multi_head_attention``: one node for every head, all-pair or causal."""

    N, D, DK, HEADS = 6, 5, 3, 4
    C = 1.0 / np.sqrt(DK)

    def _arrays(self, n=N, nq=None, seed=3, d=D, dk=DK):
        """x, then xq (``nq`` rows, or x itself), the (3 * heads, d, d_k) W_QKV
        and W_O."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        xq = x if nq is None else rng.normal(size=(nq, d))
        w_qkv = rng.normal(size=(self.HEADS, 3, d, dk)).transpose(1, 0, 2, 3).reshape(-1, d, dk)
        return x, xq, w_qkv, rng.normal(size=(self.HEADS * dk, d))

    def _head(self, w_qkv, h):
        """Head h's (Wq, Wk, Wv) slices of W_QKV."""
        return w_qkv[h], w_qkv[self.HEADS + h], w_qkv[2 * self.HEADS + h]

    def _node(self, causal, c=C):
        def build(xq, x, w_qkv, w_out):
            return T.multi_head_attention(xq, x, w_qkv, w_out, causal, c)
        return build

    def _assert_matches_dense_oracle(self, causal, n, d=D, dk=DK):
        x, _, w_qkv, w_out = self._arrays(n, d=d, dk=dk)
        c = 1.0 / np.sqrt(dk)
        out = T.multi_head_attention(x, x, w_qkv, w_out, causal, c)
        per_head = [
            dense_masked_attention(x, *self._head(w_qkv, h), _keys(n, causal), c)[0]
            for h in range(self.HEADS)
        ]
        expected = np.concatenate(per_head, axis=1) @ w_out + x
        np.testing.assert_allclose(out.value, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("causal, n", [(False, N), (True, N), (True, TILED_N)], ids=TILED_IDS)
    def test_matches_dense_oracle(self, causal, n):
        self._assert_matches_dense_oracle(causal, n)

    def test_causal_at_model_width_matches_dense_oracle(self):
        # Narrow tiles shorten the inner dimension of P @ V and the backward
        # products, which BLAS may round differently from the chain, so the
        # causal case is held to the oracle within 1e-12, not bit for bit.
        self._assert_matches_dense_oracle(True, 300, d=32, dk=8)

    @pytest.mark.parametrize("causal, n, d, dk", [
        (False, N, D, DK), (True, N, D, DK),
        # Narrow widths keep the finite differences over TILED_N rows fast.
        (True, TILED_N, 2, 2),
    ], ids=TILED_IDS)
    def test_gradients(self, causal, n, d, dk):
        x, xq, w_qkv, w_out = self._arrays(n, nq=n, seed=4, d=d, dk=dk)
        assert_grad_matches(self._node(causal, 1.0 / np.sqrt(dk)), [xq, x, w_qkv, w_out])

    def test_unmasked_rounds_like_the_node_chain(self):
        # Large enough that BLAS rounds a product with a strided k.T
        # differently from one with a contiguous copy. The chain is built
        # from the other primitives, with causal as an additive 0/-inf
        # constant; "one-query" is one query row apart from x (the summary).
        # Widths are the benchmark model's: d_model 32, 4 heads of 8.
        # Causal attention over more than one tile of rows is cut into
        # narrower tiles, which round differently;
        # test_causal_at_model_width_matches_dense_oracle holds it to the
        # oracle instead, and here it runs over a single tile.
        self._check_rounds_like_the_chain(300, "none")
        self._check_rounds_like_the_chain(300, "one-query")
        self._check_rounds_like_the_chain(T._TILE_ROWS, "causal")

    def _check_rounds_like_the_chain(self, n, name):
        causal = name == "causal"
        nq = 1 if name == "one-query" else None
        x, xq, w_qkv, w_out = self._arrays(n, nq=nq, seed=5, d=32, dk=8)
        c = 1.0 / np.sqrt(8)
        upstream = np.random.default_rng(6).normal(size=xq.shape)

        def chain(xq, x, *ws):
            """One leaf per slice of W_QKV, in its order, then W_O."""
            outs = []
            for h in range(self.HEADS):
                wq, wk, wv = self._head(ws, h)
                scores = O.scale(T.matmul(T.matmul(xq, wq), T.transpose(T.matmul(x, wk))), c)
                if causal:
                    scores = T.add(scores, T.constant(np.where(np.tri(n), 0.0, -np.inf)))
                outs.append(T.matmul(O.softmax(scores, axis=1), T.matmul(x, wv)))
            return T.add(T.matmul(T.concat_cols(*outs), ws[-1]), xq)

        results = []
        for build, ws in ((self._node(causal, c), [w_qkv]), (chain, list(w_qkv))):
            ws = [T.parameter(w) for w in ws] + [T.parameter(w_out)]
            x_node = T.parameter(x)
            xq_node = x_node if xq is x else T.parameter(xq)
            out = build(xq_node, x_node, *ws)
            O.sum_all(O.mul(out, T.constant(upstream))).backward()
            w_grads = [np.stack([w.grad for w in ws[:-1]]).reshape(w_qkv.shape), ws[-1].grad]
            results.append([out.value, xq_node.grad, x_node.grad] + w_grads)
        for fused, chained in zip(*results):
            assert np.array_equal(fused, chained), name

    def test_masked_keys_get_no_weight_or_gradient(self):
        x, xq, w_qkv, w_out = self._arrays(4, nq=4, seed=6)
        nodes = [T.parameter(a) for a in (xq, x, w_qkv, w_out)]
        out = self._node(True)(*nodes)
        # The first query reads only its own key, with weight exactly one.
        values = np.concatenate([x @ w_qkv[2 * self.HEADS + h] for h in range(self.HEADS)], axis=1)
        np.testing.assert_array_equal(out.value[0], (values @ w_out + xq)[0])
        upstream = np.zeros_like(xq)
        upstream[0] = 1.0
        O.sum_all(O.mul(out, T.constant(upstream))).backward()
        np.testing.assert_array_equal(nodes[0].grad, upstream)  # the residual alone
        np.testing.assert_array_equal(nodes[2].grad[:2 * self.HEADS], 0.0)  # every Wq and Wk

    @pytest.mark.parametrize("name", ["causal"])
    def test_tiled_masked_keys_get_no_weight_or_gradient(self, name):
        x, xq, w_qkv, w_out = self._arrays(TILED_N, nq=TILED_N, seed=6)
        build = self._node(True)
        # Rows 60-79 straddle two tiles; the keys after row 79 can change
        # without moving those rows and take no gradient from them.
        rows = slice(60, 80)
        unread = np.arange(TILED_N) >= rows.stop
        moved = x.copy()
        moved[unread] += 1.0
        before, after = build(xq, x, w_qkv, w_out).value, build(xq, moved, w_qkv, w_out).value
        np.testing.assert_array_equal(after[rows], before[rows])
        nodes = [T.parameter(a) for a in (xq, x, w_qkv, w_out)]
        upstream = np.zeros_like(xq)
        upstream[rows] = 1.0
        O.sum_all(O.mul(build(*nodes), T.constant(upstream))).backward()
        np.testing.assert_array_equal(nodes[1].grad[unread], 0.0)
        assert np.abs(nodes[1].grad[~unread]).max(axis=1).all()

    def test_rejects_empty_row_and_bad_shapes(self):
        x = T.constant(np.ones((3, 2)))
        w_qkv = T.constant(np.ones((3, 2, 2)))
        w_out = T.constant(np.ones((2, 2)))
        # Causal attention pairs query j with key j, so the counts must agree.
        with pytest.raises(ValueError, match="as many queries as keys"):
            T.multi_head_attention(x, T.constant(np.ones((4, 2))), w_qkv, w_out, True, 1.0)
        with pytest.raises(ValueError, match="disagree"):
            T.multi_head_attention(x, T.constant(np.ones((3, 4))), w_qkv, w_out, False, 1.0)
        with pytest.raises(ValueError, match="disagree"):
            T.multi_head_attention(x, x, w_qkv, T.constant(np.ones((4, 2))), False, 1.0)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 2, 2), (4, 2, 2), (2, 2)])
    def test_rejects_w_qkv_without_whole_heads(self, shape):
        x = T.constant(np.ones((3, 2)))
        with pytest.raises(ValueError, match="at least one head"):
            T.multi_head_attention(x, x, np.ones(shape), np.ones((2, 2)), False, 1.0)

    def test_rejects_w_qkv_whose_width_disagrees_with_xq(self):
        x = T.constant(np.ones((3, 2)))
        with pytest.raises(ValueError, match="disagree"):
            T.multi_head_attention(x, x, np.ones((3, 4, 2)), np.ones((2, 2)), False, 1.0)


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


class TestCheckGradients:
    def test_quadratic_analytic(self):
        w = T.parameter([1.0, 2.0])

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
        logits = T.parameter(rng.normal(size=(1, 6)))
        target = 2

        def f(params):
            lse = O.logsumexp(params["logits"], axis=1)
            picked = O.gather_cols(params["logits"], [target])
            return O.sum_all(O.sub(lse, picked))

        report = check_gradients(f, {"logits": logits})
        assert report.max_rel_error < 1e-4

    def test_non_finite_loss_raises(self):
        w = T.parameter([1.0])

        def f(params):
            return O.sum_all(O.scale(params["w"], np.inf))

        with pytest.raises(NumericsError):
            check_gradients(f, {"w": w})

    def test_large_tensor_sampling(self):
        rng = np.random.default_rng(1)
        w = T.parameter(rng.normal(size=(30, 30)))

        def f(params):
            return O.sum_all(O.mul(params["w"], params["w"]))

        report = check_gradients(f, {"w": w}, max_entries=100)
        assert report.num_checked == 100
        assert report.max_rel_error < 1e-6

    def test_backward_requires_scalar_root(self):
        with pytest.raises(ValueError, match="scalar"):
            T.constant(np.zeros((2, 2))).backward()
