"""Tests for the encoder's attention key sets, score accounting and boundaries."""

import json
import math

import numpy as np
import pytest

from nextevent import model as M
from nextevent import tensor as T
from nextevent.errors import ConfigError, DataError, NumericsError
from nextevent.events import (
    EventSequence, NormStats, generate_multiscale, make_examples, normalize_times,
)
from oracles import dense_masked_attention


def _example(length=64, seed=0):
    seqs = generate_multiscale(
        1, burst_rate=1.0, burst_size=16, gap_scale=4.0, num_types=4, seed=seed,
        num_bursts=length // 16 + 2,
    )
    seqs, _ = normalize_times(seqs, "shift_and_scale")
    return make_examples(seqs[0], length)[3]


def _config(causal, **kw):
    return M.ModelConfig(d_model=8, num_heads=2, num_scales=4, num_types=4, causal=causal, **kw)


def _heads(sp):
    """Each head's (W_Q, W_K, W_V) slices of the scale's stacked W_QKV."""
    w, nh = sp.w_qkv.value, sp.w_qkv.shape[0] // 3
    return [(w[h], w[nh + h], w[2 * nh + h]) for h in range(nh)]


def _key_set_mask(hierarchy, s, causal):
    """Mask over the frontier of scale s built from ScaleHierarchy.key_set."""
    frontier = hierarchy.frontier(s)
    pos = {node_id: i for i, node_id in enumerate(frontier)}
    mask = np.zeros((len(frontier), len(frontier)), dtype=bool)
    for j, node_id in enumerate(frontier):
        mask[j, [pos[k] for k in hierarchy.key_set(s, node_id, causal=causal)]] = True
    return mask


@pytest.mark.parametrize("causal", [False, True])
def test_encode_masks_and_counts_follow_the_key_sets(monkeypatch, causal):
    cfg = _config(causal)
    params = M.init_model_params(cfg, seed=0)
    masks = {}
    original = M.cross_scale_attention

    def recording(H, causal_flag, params, s, counter=None):
        n = H.shape[0]
        masks[s] = np.tri(n, dtype=bool) if causal_flag else np.ones((n, n), dtype=bool)
        return original(H, causal_flag, params, s, counter)

    monkeypatch.setattr(M, "cross_scale_attention", recording)
    # The second window's first frontier spans two causal row tiles.
    for example in (_example(), _example(length=128)):
        masks.clear()
        counter = M.FlopCounter()
        M.forward(params, example, counter=counter)

        h = M.hierarchy_for(cfg, example.history.times)
        sizes = M.hierarchy_key_set_sizes(h, causal=causal)
        assert sorted(masks) == list(range(1, h.num_scales + 1))
        for s in masks:
            np.testing.assert_array_equal(masks[s], _key_set_mask(h, s, causal))
            assert masks[s].sum(axis=1).tolist() == sizes[s - 1]
        n_top = len(h.active_nodes(h.num_scales))
        assert counter.count == cfg.num_heads * cfg.head_dim * (sum(map(sum, sizes)) + n_top)
    assert len(masks[1]) > T._TILE_ROWS


def test_count_attention_flops_takes_the_per_scale_sizes():
    h = M.hierarchy_for(_config(False), _example().history.times)
    sizes = M.hierarchy_key_set_sizes(h)
    cross, dense = M.count_attention_flops(64, 3, 2, 4, sizes)
    assert cross == 3 * 2 * 4 * sum(len(h.frontier(s)) ** 2 for s in range(1, 5))
    assert dense == 3 * 2 * 64 * 64 * 4
    assert M.count_attention_flops(5, 1, 1, 1, [[2, 2], [], [3]]) == (7, 25)


@pytest.mark.parametrize("kind", ["none", "causal"])
def test_cross_scale_attention_matches_dense_oracle(kind):
    cfg = _config(False)
    params = M.init_model_params(cfg, seed=1)
    n = 7
    H = np.random.default_rng(2).normal(size=(n, cfg.d_model))
    causal = kind == "causal"
    out = M.cross_scale_attention(T.constant(H), causal, params, 1)

    keys = [range(j + 1) if causal else range(n) for j in range(n)]
    sp = params.attn[0]
    heads = [
        dense_masked_attention(H, wq, wk, wv, keys, 1.0 / math.sqrt(cfg.head_dim))[0]
        for wq, wk, wv in _heads(sp)
    ]
    expected = np.concatenate(heads, axis=1) @ sp.w_out.value + H
    np.testing.assert_allclose(out.value, expected, rtol=1e-12, atol=1e-12)


def test_summarize_matches_dense_oracle():
    cfg = _config(False)
    params = M.init_model_params(cfg, seed=3)
    n = 9
    H = np.random.default_rng(4).normal(size=(n, cfg.d_model))
    counter = M.FlopCounter()
    out = M.summarize(params, T.constant(H), counter)

    # Every row attends to all rows; the summary keeps the last one.
    sp = params.attn[-1]
    heads = [
        dense_masked_attention(H, wq, wk, wv, [range(n)] * n,
                               1.0 / math.sqrt(cfg.head_dim))[0][-1]
        for wq, wk, wv in _heads(sp)
    ]
    attended = np.concatenate(heads) @ sp.w_out.value + H[-1]
    expected = (attended @ params.w_summary.value)[None, :]
    np.testing.assert_allclose(out.value, expected, rtol=1e-12, atol=1e-12)
    assert counter.count == cfg.num_heads * cfg.head_dim * n


def test_config_from_dict_rejects_unknown_keys():
    d = M.ModelConfig().to_dict()
    assert M.ModelConfig.from_dict(d) == M.ModelConfig()
    with pytest.raises(ConfigError, match="unknown config keys.*'depth'"):
        M.ModelConfig.from_dict({**d, "depth": 3})
    with pytest.raises(ConfigError, match="unknown config keys.*'attention'"):
        M.ModelConfig.from_dict({**d, "attention": "dense"})
    with pytest.raises(ConfigError, match="unknown config keys.*'layer_norm'"):
        M.ModelConfig.from_dict({**d, "layer_norm": False})
    with pytest.raises(ConfigError, match="unknown config keys.*'alpha'"):
        M.ModelConfig.from_dict({**d, "alpha": 0.5})


def test_config_has_one_time_distribution():
    assert M.ModelConfig(distribution="weibull").distribution == "weibull"
    with pytest.raises(ConfigError, match="distribution must be 'weibull'"):
        M.ModelConfig(distribution="exponential")


@pytest.mark.parametrize("field, value", [
    ("d_model", "8"), ("d_model", 8.0), ("num_heads", 2.0), ("num_scales", True),
    ("num_types", None), ("causal", None), ("distribution", None), ("pe", None),
    ("causal", "yes"), ("causal", 1), ("distribution", ["weibull"]), ("pe", 0),
])
def test_config_rejects_wrongly_typed_fields(field, value):
    d = M.ModelConfig(d_model=8, num_heads=2).to_dict()
    with pytest.raises(ConfigError, match=field):
        M.ModelConfig.from_dict({**d, field: value})


def test_encode_rejects_a_history_shorter_than_the_scales_need():
    params = M.init_model_params(_config(False), seed=0)
    history = _example().history
    with pytest.raises(DataError, match="4 events .* 4 scales.* at least 5"):
        M.encode(params, EventSequence(history.times[:4], history.types[:4], 4))
    M.encode(params, EventSequence(history.times[:5], history.types[:5], 4))


def test_hierarchy_for_rejects_more_scales_than_merges():
    times = np.arange(5.0)
    assert M.hierarchy_for(_config(False), times).num_scales == 4
    with pytest.raises(ConfigError, match="num_scales must lie in"):
        M.hierarchy_for(M.ModelConfig(d_model=8, num_heads=2, num_scales=5), times)


def test_load_checkpoint_rejects_an_older_version(tmp_path):
    # A version-7 file is the last to hold the loss weight alpha.
    path = tmp_path / "v7.json"
    M.save_checkpoint(path, M.init_model_params(_config(False), seed=0))
    payload = json.loads(path.read_text())
    payload["version"] = 7
    payload["config"]["alpha"] = 0.5
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="unsupported checkpoint version 7"):
        M.load_checkpoint(path)


def test_load_checkpoint_rejects_non_finite_parameters(tmp_path):
    params = M.init_model_params(_config(False), seed=0)
    good = tmp_path / "good.json"
    M.save_checkpoint(good, params)
    loaded, _ = M.load_checkpoint(good)
    for name, node in params.all_named().items():
        np.testing.assert_array_equal(loaded.all_named()[name].value, node.value)

    params.w_type.value[0, 1] = np.nan
    bad = tmp_path / "bad.json"
    M.save_checkpoint(bad, params)
    with pytest.raises(NumericsError, match="dec.type"):
        M.load_checkpoint(bad)


def test_load_checkpoint_rejects_a_parameter_of_the_wrong_shape(tmp_path):
    # A checkpoint written before the FCPE leaves were stored transposed holds
    # fcpe.type_embed as (d, K); the data fill that shape, but it is not this
    # model's.
    path = tmp_path / "ckpt.json"
    M.save_checkpoint(path, M.init_model_params(_config(False), seed=0))
    payload = json.loads(path.read_text())
    payload["params"]["fcpe.type_embed"]["shape"] = [8, 4]
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=r"'fcpe.type_embed': shape \(8, 4\) does not match"):
        M.load_checkpoint(path)


@pytest.mark.parametrize("mean_gap", ["nan", -2.0, 0.0, "2.5", True])
def test_load_checkpoint_rejects_a_norm_whose_mean_gap_is_not_positive(tmp_path, mean_gap):
    path = tmp_path / "ckpt.json"
    M.save_checkpoint(path, M.init_model_params(_config(False), seed=0),
                      NormStats(2.0))
    payload = json.loads(path.read_text())
    payload["norm"]["mean_gap"] = mean_gap
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="mean_gap must be finite and positive"):
        M.load_checkpoint(path)


_MALFORMED_CHECKPOINTS = {
    "not JSON": "not a JSON checkpoint",
    "not an object": "a checkpoint is a JSON object",
    "no config": "checkpoint needs a config object and a params object",
    "no params": "checkpoint needs a config object and a params object",
    "short data": "'dec.type' needs numeric data that fills its shape",
    "norm without mean_gap": "norm stats need a mean_gap",
}


@pytest.mark.parametrize("case", list(_MALFORMED_CHECKPOINTS))
def test_load_checkpoint_rejects_a_malformed_file(tmp_path, case):
    path = tmp_path / "ckpt.json"
    norm = NormStats(2.0)
    M.save_checkpoint(path, M.init_model_params(_config(False), seed=0), norm)
    assert M.load_checkpoint(path)[1] == norm
    payload = json.loads(path.read_text())
    if case == "no config":
        del payload["config"]
    elif case == "no params":
        del payload["params"]
    elif case == "short data":
        payload["params"]["dec.type"]["data"].pop()
    elif case == "norm without mean_gap":
        del payload["norm"]["mean_gap"]
    text = {"not JSON": "{not json", "not an object": "[5]"}.get(case, json.dumps(payload))
    path.write_text(text)
    with pytest.raises(DataError, match=rf"ckpt\.json: {_MALFORMED_CHECKPOINTS[case]}"):
        M.load_checkpoint(path)
