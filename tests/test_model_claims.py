"""Checks of the model's documented behaviour against oracles and reruns."""

import gc
import math
import re

import numpy as np
import pytest

from nextevent import model as M
from nextevent import tensor as T
from nextevent.encoding import fcpe_trig
from nextevent.errors import ConfigError, NumericsError
from nextevent.events import generate_multiscale, make_examples, normalize_times
from gradcheck import check_gradients
from oracles import weibull_mean_by_quadrature


def _example(length=32, seed=0):
    seqs = generate_multiscale(
        1, burst_rate=1.0, burst_size=8, gap_scale=4.0, num_types=3, seed=seed,
        num_bursts=length // 8 + 2,
    )
    seqs, _ = normalize_times(seqs, "shift_and_scale")
    return make_examples(seqs[0], length)[5]


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("gamma", [0.7, 1.0, 3.5])
def test_point_estimate_is_the_weibull_mean(lam, gamma):
    expected = weibull_mean_by_quadrature(lam, gamma)
    assert M.point_estimate_time(lam, gamma) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_readouts_are_the_argmax_and_the_weibull_mean(seed):
    config = M.ModelConfig(d_model=8, num_heads=2, num_scales=3, num_types=3)
    result = M.forward(M.init_model_params(config, seed=seed), _example(seed=seed))
    assert result.predicted_type == int(np.argmax(result.type_probs))
    assert result.type_probs[result.predicted_type] == result.type_probs.max()
    expected = weibull_mean_by_quadrature(result.lam, result.gamma)
    assert result.predicted_gap == pytest.approx(expected, rel=1e-9)


def test_point_estimate_rejects_an_overflowing_mean():
    # Gamma(1 + 1/gamma) overflows a float for gamma below about 1/171.
    with pytest.raises(NumericsError, match="Weibull mean"):
        M.point_estimate_time(1.0, 0.0058)
    with pytest.raises(NumericsError, match="Weibull mean"):
        M.point_estimate_time(1e300, 0.05)
    assert M.point_estimate_time(1.0, 0.006) == math.gamma(1.0 + 1.0 / 0.006)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, True, "a", None],
                         ids=["zero", "negative", "nan", "inf", "bool", "str", "none"])
@pytest.mark.parametrize("name", ["lam", "gamma"])
def test_point_estimate_rejects_a_parameter_that_is_not_a_positive_real(name, bad):
    # NaN used to read as an overflowing mean, True as 1.0 and "a" as a TypeError.
    args = {"lam": 1.0, "gamma": 1.0, name: bad}
    match = rf"{name} must be a finite number > 0\.0, got {re.escape(repr(bad))}"
    with pytest.raises(ConfigError, match=match):
        M.point_estimate_time(**args)


def _numpy_positional(params, times, type_weights):
    """Interleaved amplitude * (cos, sin) pairs, in plain numpy: learned
    amplitudes for pe="fcpe", unit amplitudes for pe="base"."""
    weights = np.asarray(type_weights, dtype=np.float64)
    phases = np.asarray(times, dtype=np.float64).reshape(-1, 1) * params.freqs.value.reshape(1, -1)
    mu = weights @ params.density_map.value if params.config.pe == "fcpe" else 1.0
    pos = np.empty((len(weights), params.config.d_model))
    pos[:, 0::2] = mu * np.cos(phases)
    pos[:, 1::2] = mu * np.sin(phases)
    return pos


def _numpy_embedding(params, times, type_weights):
    """Type rows plus the positional pairs of :func:`_numpy_positional`."""
    weights = np.asarray(type_weights, dtype=np.float64)
    return weights @ params.type_embed.value + _numpy_positional(params, times, weights)


@pytest.mark.parametrize("pe", ["fcpe", "base"])
def test_embedding_matches_a_numpy_encoding(pe):
    params = M.init_model_params(M.ModelConfig(d_model=8, num_heads=2, num_types=3, pe=pe), 2)
    rng = np.random.default_rng(5)
    times = rng.uniform(-4.0, 9.0, size=7)
    weights = np.eye(3)[rng.integers(0, 3, size=7)]
    got = M._embed(params, times, weights, fcpe_trig(params.freqs, times)).value
    np.testing.assert_allclose(got, _numpy_embedding(params, times, weights), rtol=0, atol=1e-15)


def test_base_mode_pooled_context_has_unit_amplitude():
    # Pooled rows carry a cluster's type mixture, which sums to one only
    # within rounding.
    params = M.init_model_params(M.ModelConfig(d_model=8, num_heads=2, num_types=3, pe="base"), 2)
    mixture = np.array([[3.0, 2.0, 2.0]]) / 7.0
    got = M._embed(params, [2.37], mixture, fcpe_trig(params.freqs, [2.37])).value
    np.testing.assert_allclose(got, _numpy_embedding(params, [2.37], mixture), rtol=0, atol=1e-15)


def test_base_mode_backward_leaves_the_frozen_encoding_alone():
    # Under pe="base" the embedding and every pooled context row are
    # constants, so backward reaches neither frozen leaf.
    config = M.ModelConfig(d_model=8, num_heads=2, num_scales=3, num_types=3, pe="base")
    params = M.init_model_params(config, seed=1)
    M.forward(params, _example()).total.backward()
    assert not params.freqs.grad.any()
    assert not params.density_map.grad.any()
    assert params.type_embed.grad.any()


@pytest.mark.parametrize("pe", ["fcpe", "base"])
def test_hierarchical_pool_matches_a_numpy_pooling(pe):
    # Each next-scale node's row is the mean of the rows of the active nodes
    # whose leaves it contains, next to the positional encoding of its mean
    # time and type mixture, projected by pool_proj.
    config = M.ModelConfig(d_model=8, num_heads=2, num_scales=4, num_types=3, pe=pe)
    params = M.init_model_params(config, seed=4)
    seq = _example(length=64).history
    h = M.hierarchy_for(config, seq.times)
    table = (h.rep_time, h.type_mixture(np.arange(len(h.lo)), seq.types, 3),
             *fcpe_trig(params.freqs, h.rep_time))
    rng = np.random.default_rng(8)
    for s in range(1, h.num_scales):
        active, nxt = h.active_nodes(s), h.active_nodes(s + 1)
        H = rng.normal(size=(len(active), config.d_model))
        got = M.hierarchical_pool(T.constant(H), h, s, params, table).value
        pooled, mixtures = [], []
        for node_id in nxt:
            lo, end = h.lo[node_id], h.end[node_id]
            run = [p for p, a in enumerate(active) if lo <= h.lo[a] and h.end[a] <= end]
            pooled.append(H[run].mean(axis=0))
            mixtures.append(np.bincount(seq.types[lo:end], minlength=3) / (end - lo))
        times = h.rep_time[nxt]
        context = _numpy_positional(params, times, np.array(mixtures))
        expected = np.concatenate([np.array(pooled), context], axis=1) @ params.pool_proj[s - 1].value
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("extra", [
    dict(pe="fcpe"), dict(pe="base"), dict(causal=True),
], ids=["fcpe", "base", "causal"])
def test_loss_gradients_match_finite_differences(extra):
    example = _example(length=16)
    config = M.ModelConfig(d_model=8, num_heads=2, num_scales=3, num_types=3, **extra)
    params = M.init_model_params(config, seed=1)
    # 36 entries per leaf, so each scale's W_QKV (2 heads x Q, K, V) gets six
    # checks per projection matrix on average.
    report = check_gradients(
        lambda _: M.forward(params, example).total, params.named_parameters(), max_entries=36
    )
    assert report.max_rel_error < 1e-4


# Loss, lambda, gamma and type probabilities, as float.hex, for configs that
# bench/reference.json does not cover.
PINNED_OUTPUTS = {
    "causal": (
        "0x1.3955882f94966p+0", "0x1.4c65515a02b99p-1", "0x1.0747b239b7838p-1",
        ("0x1.d401ea3d10334p-2", "0x1.27ee80539c1a7p-2", "0x1.040f956f53b25p-2"),
    ),
    "base": (
        "0x1.08c6af52727c8p+0", "0x1.702844679a520p-1", "0x1.1ffc66dc79e84p-1",
        ("0x1.69a4dce0180aep-2", "0x1.3878189209574p-2", "0x1.5de30a8dde9dfp-2"),
    ),
    "one-scale": (
        "0x1.b91a9aadf0b2fp-1", "0x1.345ebc99ea6dfp-1", "0x1.8ca563485c363p-1",
        ("0x1.4c517e3e61de5p-2", "0x1.4fbd55e5a81d5p-2", "0x1.63f12bdbf6047p-2"),
    ),
}


PINNED_CONFIGS = {
    "causal": dict(causal=True),
    "base": dict(pe="base"),
    "one-scale": dict(num_scales=1),
}


@pytest.mark.parametrize("name", list(PINNED_CONFIGS))
def test_outputs_match_pinned_values(name):
    # These match bit for bit where they were recorded; numpy picks its exp,
    # log and BLAS kernels by CPU, so another machine may differ in the last
    # bits. The tolerance is bench/reference.json's.
    base = dict(d_model=8, num_heads=2, num_scales=3, num_types=3)
    config = M.ModelConfig(**{**base, **PINNED_CONFIGS[name]})
    result = M.forward(M.init_model_params(config, seed=1), _example())
    loss, lam, gamma, probs = PINNED_OUTPUTS[name]
    got = [result.total.value.item(), result.lam, result.gamma, *result.type_probs]
    want = [float.fromhex(v) for v in (loss, lam, gamma, *probs)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", list(PINNED_CONFIGS))
def test_loss_is_the_equal_weight_mean_of_the_two_terms(name):
    base = dict(d_model=8, num_heads=2, num_scales=3, num_types=3)
    config = M.ModelConfig(**{**base, **PINNED_CONFIGS[name]})
    result = M.forward(M.init_model_params(config, seed=1), _example())
    assert result.total.value.item() == 0.5 * result.time_nll + 0.5 * result.type_ce


def test_a_snapshot_reset_reproduces_the_first_step_bit_for_bit():
    # The benchmark restarts each training epoch this way and requires every
    # loss to equal the first epoch's.
    example = _example()
    config = M.ModelConfig(d_model=8, num_heads=2, num_scales=3, num_types=3, causal=True)
    params = M.init_model_params(config, seed=3)
    snapshot = params.copy_values()
    initial = {name: value.copy() for name, value in snapshot.items()}

    def sgd_step():
        params.zero_grad()
        loss = M.forward(params, example).total
        loss.backward()
        grads = {name: node.grad.copy() for name, node in params.all_named().items()}
        for node in params.named_parameters().values():
            node.value -= 0.1 * node.grad
        return loss.value.item(), grads

    first_loss, first_grads = sgd_step()
    losses = [sgd_step()[0] for _ in range(3)]
    assert first_loss not in losses
    for _ in range(2):  # the second reset reads the snapshot after in-place updates
        params.load_values(snapshot)
        loss, grads = sgd_step()
        assert loss == first_loss
        for name, grad in first_grads.items():
            np.testing.assert_array_equal(grads[name], grad, err_msg=name)
        for name, value in initial.items():
            np.testing.assert_array_equal(snapshot[name], value, err_msg=name)


def test_train_step_graph_is_freed_without_the_cycle_collector():
    # A reference cycle anywhere in the graph keeps every node upstream of it
    # alive until the cyclic collector runs: about 180 MB of peak RSS on the
    # L=512 train benchmark.
    params = M.init_model_params(M.ModelConfig(d_model=8, num_heads=2, num_types=3), 0)
    example = _example()
    gc.collect()
    gc.disable()
    try:
        result = M.forward(params, example)
        result.total.backward()
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()
