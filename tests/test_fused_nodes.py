"""The FCPE and decoder-head nodes round exactly like the node chains they
stand for (``oracles.fcpe_chain`` and ``oracles.decode_chain``): the same
values and readouts and bit-identical gradients, at the benchmark's model and
at the pinned-output configs. Also pins the graph size, so that a refactor
cannot grow the graph back unnoticed."""

import numpy as np
import pytest

from nextevent import model as M
from nextevent import tensor as T
from nextevent.encoding import fcpe_matrix, fcpe_trig
from nextevent.errors import NumericsError
from nextevent.events import generate_multiscale, make_examples, normalize_times
import oracles as O
from test_model_claims import PINNED_CONFIGS, _example

# The benchmark's model (bench/workloads.py) on a multiscale L=64 window.
BENCHMARK = dict(d_model=32, num_heads=4, num_scales=4, num_types=4)
CONFIGS = ["benchmark", *PINNED_CONFIGS]


def _benchmark_example(length=64):
    seqs = generate_multiscale(1, burst_rate=1.0, burst_size=16, gap_scale=4.0, num_types=4,
                               seed=0, num_bursts=length // 16 + 2)
    seqs, _ = normalize_times(seqs, "shift_and_scale")
    return make_examples(seqs[0], length)[3]


def _setup(name):
    """(params, example) for one of CONFIGS."""
    if name == "benchmark":
        return M.init_model_params(M.ModelConfig(**BENCHMARK), seed=0), _benchmark_example()
    base = dict(d_model=8, num_heads=2, num_scales=3, num_types=3)
    config = M.ModelConfig(**{**base, **PINNED_CONFIGS[name]})
    return M.init_model_params(config, seed=1), _example()


def _graph_size(root):
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


@pytest.mark.parametrize("name", CONFIGS)
def test_fcpe_node_rounds_like_its_chain(monkeypatch, name):
    params, example = _setup(name)
    calls = []

    def recording(freqs, density_map, times, type_weights, trig):
        calls.append((times, type_weights, trig))
        return fcpe_matrix(freqs, density_map, times, type_weights, trig)

    monkeypatch.setattr(M, "fcpe_matrix", recording)
    M.forward(params, example)
    assert len(calls) == params.config.num_scales
    freqs, density_map = params.freqs, params.density_map
    # One path for every node: each call reads rows of one table, a row per
    # node id, at the leaves' ids and then at each pooled scale's.
    seq = example.history
    h = M.hierarchy_for(params.config, seq.times)
    table = (h.rep_time, h.type_mixture(np.arange(len(h.lo)), seq.types, seq.num_types),
             *fcpe_trig(freqs, h.rep_time))
    for (times, weights, (cos, sin)), ids in zip(calls, h.active):
        for got, column in zip((times, weights, cos, sin), table):
            np.testing.assert_array_equal(got, column[ids])
    rng = np.random.default_rng(0)
    for times, weights, trig in calls:
        results = []
        upstream = rng.normal(size=(len(times), params.config.d_model))
        for build in (fcpe_matrix, O.fcpe_chain):
            freqs.zero_grad()
            density_map.zero_grad()
            out = build(freqs, density_map, times, weights, trig)
            O.sum_all(O.mul(out, T.DiffNode(upstream))).backward()
            results.append([out.value, freqs.grad.copy(), density_map.grad.copy()])
        for fused, chained in zip(*results):
            np.testing.assert_array_equal(fused, chained)


@pytest.mark.parametrize("name", CONFIGS)
def test_head_node_rounds_like_its_chain(name):
    params, example = _setup(name)
    H_L = M.summarize(params, M.encode(params, example.history)).value
    results = []
    for decode in (M._decode, O.decode_chain):
        params.zero_grad()
        h = T.DiffNode(H_L.copy())
        r = decode(params, h, int(example.target_type), example.target_gap)
        r.total.backward()
        results.append([r.total.value, r.time_nll, r.type_ce, r.type_probs, r.lam, r.gamma,
                        h.grad, params.w_time.grad.copy(), params.w_type.grad.copy()])
    for fused, chained in zip(*results):
        np.testing.assert_array_equal(fused, chained)


@pytest.mark.parametrize("name", CONFIGS)
def test_train_step_gradients_match_the_chains(monkeypatch, name):
    # Whole steps, so the order in which the fused nodes add into the shared
    # leaves is checked too.
    params, example = _setup(name)
    steps = []
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(M, "fcpe_matrix", O.fcpe_chain)
            monkeypatch.setattr(M, "_decode", O.decode_chain)
        params.zero_grad()
        result = M.forward(params, example)
        result.total.backward()
        steps.append([result.total.value] + [v.grad.copy() for v in params.all_named().values()])
    for fused, chained in zip(*steps):
        np.testing.assert_array_equal(fused, chained)


@pytest.mark.parametrize("num_scales, nodes", [(4, 40), (1, 16)], ids=["benchmark", "dense"])
def test_graph_size_is_pinned(num_scales, nodes):
    config = M.ModelConfig(**{**BENCHMARK, "num_scales": num_scales})
    result = M.forward(M.init_model_params(config, seed=0), _benchmark_example())
    assert _graph_size(result.total) == nodes


def test_head_raises_before_the_weibull_term_overflows():
    # Hand-set w_time so that H_L @ w_time = (-40, 60): lambda sits on its
    # floor and gamma near 60, so gamma * log(gap / lambda) is far above
    # log(float max), about 709.78.
    params, example = _setup("causal")
    H_L = M.summarize(params, M.encode(params, example.history)).value
    params.w_time.value[...] = np.outer(H_L[0] / (H_L[0] @ H_L[0]), [-40.0, 60.0])
    with np.errstate(over="ignore"):
        chained = O.decode_chain(params, T.DiffNode(H_L), int(example.target_type),
                                 example.target_gap)
    assert chained.total.value.item() == np.inf
    with pytest.raises(NumericsError, match=r"lambda=1\.0\d*e-06, gamma=60\.0\d*, gap="):
        M.forward(params, example)
