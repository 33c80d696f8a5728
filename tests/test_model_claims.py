"""Checks of the model's documented behaviour against oracles and reruns."""

import gc

import numpy as np
import pytest

from nextevent import model as M
from nextevent.events import generate_multiscale, make_examples, normalize_times
from oracles import weibull_mean_by_quadrature


def _example(length=32, seed=0):
    seqs = generate_multiscale(
        1, burst_rate=1.0, burst_size=8, gap_scale=4.0, num_types=3, seed=seed,
        num_bursts=length // 8 + 2,
    )
    seqs, _ = normalize_times(seqs, "shift_and_scale")
    return make_examples(seqs[0], length)[5]


def _loss(config, example, seed=0):
    return M.forward(M.init_model_params(config, seed), example).total.value.item()


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("gamma", [0.7, 1.0, 3.5])
def test_point_estimate_is_the_weibull_mean(lam, gamma):
    # The quadrature stops at 50 lambda, which drops ~8e-6 of the mean at 0.7.
    expected = weibull_mean_by_quadrature(lam, gamma)
    assert M.point_estimate_time(lam, gamma) == pytest.approx(expected, rel=1e-4)


@pytest.mark.parametrize("pe", ["fcpe", "base"])
def test_dense_attention_is_the_single_scale_hierarchy(pe):
    example = _example()
    base = dict(d_model=8, num_heads=2, num_types=3, pe=pe)
    dense = M.ModelConfig(attention="dense", num_scales=4, **base)
    one_scale = M.ModelConfig(attention="cross_scale", num_scales=1, **base)
    assert _loss(dense, example) == _loss(one_scale, example)


def test_checkpoint_round_trip_reproduces_the_loss(tmp_path):
    example = _example()
    config = M.ModelConfig(
        d_model=8, num_heads=2, num_scales=3, num_types=3, causal=True, layer_norm=True
    )
    params = M.init_model_params(config, seed=3)
    path = tmp_path / "ckpt.json"
    M.save_checkpoint(path, params)
    loaded, _ = M.load_checkpoint(path)
    before = M.forward(params, example).total.value
    after = M.forward(loaded, example).total.value
    np.testing.assert_array_equal(after, before)


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
