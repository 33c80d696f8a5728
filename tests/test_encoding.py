"""Tests for the positional encoding: exact identities and kernel properties."""

import numpy as np
import pytest

from nextevent import model as M
from nextevent import tensor as T
from nextevent.encoding import fcpe_matrix, fcpe_trig
from nextevent.errors import ConfigError
from gradcheck import check_gradients
import oracles as O


def make_params(dim=8, num_types=3, seed=0):
    """A one-scale model's leaves; the encoding's are the first it draws."""
    config = M.ModelConfig(d_model=dim, num_heads=1, num_scales=1, num_types=num_types)
    return M.init_model_params(config, seed)


def onehot(types, num_types):
    return np.eye(num_types)[types]


def fcpe_node(params, times, weights):
    """fcpe_matrix with the cos and sin of fcpe_trig, as the model passes them."""
    return fcpe_matrix(params.freqs, params.density_map, times, weights,
                       fcpe_trig(params.freqs, times))


def encode_rows(params, times, types):
    """fcpe_matrix rows for one-hot types, as a numpy array (n, d)."""
    return fcpe_node(params, times, onehot(types, params.config.num_types)).value


def amplitudes(params, types):
    """mu per row: the even slots of the encoding at time 0."""
    return encode_rows(params, np.zeros(len(types)), types)[:, 0::2]


def kernel(params, ta, tb, ka, kb):
    pa, pb = encode_rows(params, [ta, tb], [ka, kb])
    return float(pa @ pb)


def embed_node(model, times, weights):
    """model._embed with the cos and sin of fcpe_trig, as the model passes them."""
    return M._embed(model, times, weights, fcpe_trig(model.freqs, times))


def embed_rows(model, times, types):
    return embed_node(model, times, onehot(types, model.config.num_types)).value


class TestDensity:
    def test_column_selection(self):
        params = make_params(dim=4, num_types=2)
        params.density_map.value[:] = np.array([[1.0, 0.0], [5.0, 6.0]])
        np.testing.assert_array_equal(amplitudes(params, [0, 1]), [[1.0, 0.0], [5.0, 6.0]])

    def test_same_type_same_density(self):
        params = make_params()
        mu = amplitudes(params, [2, 0, 2])
        np.testing.assert_array_equal(mu[0], mu[2])

    def test_gradient_through_density_map(self):
        params = make_params(dim=6, num_types=2)

        def f(_leaves):
            enc = fcpe_node(params, [0.0, 1.7], onehot([1, 0], 2))
            return O.sum_all(O.mul(enc, enc))

        report = check_gradients(f, {"W_mu": params.density_map})
        assert report.max_rel_error < 1e-4


class TestFcpe:
    def test_time_zero_gives_mu_and_zero_pairs(self):
        params = make_params(dim=6, num_types=2)
        enc = encode_rows(params, [0.0, 0.0], [0, 1])
        np.testing.assert_allclose(enc[:, 0::2], params.density_map.value, atol=1e-15)
        np.testing.assert_allclose(enc[:, 1::2], 0.0, atol=1e-15)

    def test_unit_amplitude_norm_identity(self):
        params = make_params(dim=10, num_types=2)
        params.density_map.value[:] = 0.0
        params.density_map.value[0] = 1.0
        enc = encode_rows(params, [0.0, 0.37, 12.9, -4.0], [0, 0, 0, 0])
        np.testing.assert_allclose(np.sum(enc * enc, axis=1), 10 / 2, rtol=1e-12)

    def test_dot_product_kernel_closed_form(self):
        params = make_params(dim=12, num_types=3, seed=4)
        rng = np.random.default_rng(9)
        w = params.freqs.value.reshape(-1)
        for _ in range(50):
            ta, tb = rng.uniform(-5, 5, size=2)
            ka, kb = rng.integers(0, 3, size=2)
            mu_a, mu_b = amplitudes(params, [ka, kb])
            expected = float(np.sum(mu_a * mu_b * np.cos(w * (ta - tb))))
            np.testing.assert_allclose(kernel(params, ta, tb, ka, kb), expected, atol=1e-10)

    def test_translation_invariance_of_kernel(self):
        params = make_params(dim=8, num_types=2, seed=1)
        rng = np.random.default_rng(11)
        for _ in range(200):
            ta, tb, shift = rng.uniform(-20, 20, size=3)
            k = int(rng.integers(0, 2))
            base = kernel(params, ta, tb, k, k)
            moved = kernel(params, ta + shift, tb + shift, k, k)
            assert abs(base - moved) < 1e-10

    def test_per_component_periodicity(self):
        params = make_params(dim=10, num_types=2, seed=3)
        w = params.freqs.value.reshape(-1)
        t = 0.731
        periods = 2 * np.pi / w[1:]  # pair 0 is the DC component
        enc = encode_rows(params, np.concatenate([[t], t + periods]), np.zeros(len(w), int))
        for k in range(1, len(w)):
            np.testing.assert_allclose(enc[k, 2 * k:2 * k + 2], enc[0, 2 * k:2 * k + 2],
                                       rtol=0, atol=1e-10)

    def test_frequencies_start_on_the_dft_grid(self):
        params = make_params(dim=8, num_types=2)
        np.testing.assert_array_equal(params.freqs.value, [2 * np.pi * np.arange(4) / 4])
        assert params.freqs.value[0, 0] == 0.0

    def test_gradient_through_frequencies(self):
        params = make_params(dim=6, num_types=2)

        def f(_leaves):
            enc = fcpe_node(params, [0.3, 1.7, 4.1], onehot([1, 0, 1], 2))
            return O.sum_all(O.mul(enc, enc))

        report = check_gradients(f, {"freqs": params.freqs})
        assert report.max_rel_error < 1e-4

    def test_phase_gradient_is_exact(self):
        # At t = 1 the phases are the frequencies themselves. Loss on the
        # cosine slots alone (or the sine slots alone) makes the frequency
        # gradient exactly -g sin(w) (or g cos(w)), with g the loss weight
        # times the amplitude.
        params = make_params(dim=8, num_types=2, seed=2)
        w = params.freqs.value[0]
        mu = params.density_map.value[1]
        weight = np.random.default_rng(3).normal(size=(1, 8))
        for slot, expected in ((0, -(weight[0, 0::2] * mu) * np.sin(w)),
                               (1, weight[0, 1::2] * mu * np.cos(w))):
            params.freqs.zero_grad()
            only = np.zeros_like(weight)
            only[:, slot::2] = weight[:, slot::2]
            enc = fcpe_node(params, [1.0], onehot([1], 2))
            O.sum_all(O.mul(enc, T.DiffNode(only))).backward()
            np.testing.assert_array_equal(params.freqs.grad[0], expected)


class TestEmbedEvent:
    """The model's single embedding path: type column plus fcpe_matrix."""

    def test_zero_type_embedding_reduces_to_fcpe(self):
        model = make_params(dim=6, num_types=2)
        model.type_embed.value[:] = 0.0
        emb = embed_rows(model, [1.3, 2.0], [1, 0])
        np.testing.assert_allclose(emb, encode_rows(model, [1.3, 2.0], [1, 0]), atol=1e-15)

    def test_zero_density_reduces_to_type_column(self):
        model = make_params(dim=6, num_types=2)
        model.density_map.value[:] = 0.0
        emb = embed_rows(model, [2.9], [1])
        np.testing.assert_allclose(emb[0], model.type_embed.value[1], atol=1e-15)

    def test_same_type_kernel_translation_after_embedding(self):
        # With zero type columns the embedding kernel inherits the
        # positional kernel's shift invariance.
        model = make_params(dim=8, num_types=2, seed=5)
        model.type_embed.value[:] = 0.0
        rng = np.random.default_rng(17)
        for _ in range(50):
            ta, tb, c = rng.uniform(-10, 10, size=3)
            a0, b0, a1, b1 = embed_rows(model, [ta, tb, ta + c, tb + c], [0, 0, 0, 0])
            assert abs(a0 @ b0 - a1 @ b1) < 1e-10

    def test_gradients_through_all_parameters(self):
        model = make_params(dim=6, num_types=2, seed=6)

        def f(_leaves):
            emb = embed_node(model, [0.8, 1.9], onehot([1, 0], 2))
            return O.sum_all(O.mul(emb, emb))

        fcpe = {k: v for k, v in model.all_named().items() if k.startswith("fcpe.")}
        report = check_gradients(f, fcpe)
        assert report.max_rel_error < 1e-4

    def test_dim_must_be_even(self):
        with pytest.raises(ConfigError, match="d_model must be even, got 7"):
            M.ModelConfig(d_model=7, num_heads=1)

    @pytest.mark.parametrize("dim", [0, -2, 8.0, True])
    def test_dim_must_be_a_positive_integer(self, dim):
        with pytest.raises(ConfigError, match=rf"d_model must be an integer >= 1, got {dim}"):
            M.ModelConfig(d_model=dim, num_heads=1)

    def test_leaves_are_stored_as_the_forward_multiplies_by_them(self):
        params = make_params(dim=8, num_types=3)
        assert (params.freqs.shape, params.density_map.shape, params.type_embed.shape) == (
            (1, 4), (3, 4), (3, 8))
