"""Tests for the encoder's attention key sets, score accounting and boundaries."""

import math

import numpy as np
import pytest

from nextevent import model as M
from nextevent import tensor as T
from nextevent.errors import ConfigError, DataError
from nextevent.events import EventSequence, generate_multiscale, make_examples, normalize_times
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


def _heads(w_qkv):
    """Each head's (W_Q, W_K, W_V) slices of a scale's stacked W_QKV."""
    w, nh = w_qkv.value, w_qkv.shape[0] // 3
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

    def recording(H, causal_flag, params, s, counter=None, *, rows):
        n = len(rows)  # the frontier
        masks[s] = np.tri(n, dtype=bool) if causal_flag else np.ones((n, n), dtype=bool)
        return original(H, causal_flag, params, s, counter, rows=rows)

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


@pytest.mark.parametrize("args, name", [
    ((2.5, 1, 1, 1, [[1]]), "seq_len"), ((True, 1, 1, 1, [[1]]), "seq_len"),
    ((4, 0, 1, 1, [[1]]), "batch"), ((4, 1, 1.0, 1, [[1]]), "heads"),
    ((4, 1, 1, "2", [[1]]), "head_dim"), ((4, 1, 1, 1, [[1, "2"]]), "key-set size"),
    ((4, 1, 1, 1, [[1.5]]), "key-set size"), ((4, 1, 1, 1, [[True]]), "key-set size"),
    ((4, 1, 1, 1, [[0]]), "key-set size"),
], ids=["fractional-length", "bool-length", "zero-batch", "float-heads", "string-head-dim",
        "string-size", "fractional-size", "bool-size", "empty-key-set"])
def test_count_attention_flops_takes_integers_only(args, name):
    with pytest.raises(ConfigError, match=name):
        M.count_attention_flops(*args)


@pytest.mark.parametrize("n", [2.7, True, -1, "3", None])
def test_flop_counter_adds_integers_only(n):
    counter = M.FlopCounter()
    with pytest.raises(ConfigError, match="n must be an integer"):
        counter.add(n)
    counter.add(np.int64(3))
    assert counter.count == 3 and type(counter.count) is int


@pytest.mark.parametrize("kind", ["none", "causal"])
def test_cross_scale_attention_matches_dense_oracle(kind):
    cfg = _config(False)
    params = M.init_model_params(cfg, seed=1)
    n = 7
    H = np.random.default_rng(2).normal(size=(n, cfg.d_model))
    causal = kind == "causal"
    out = M.cross_scale_attention(T.constant(H), causal, params, 1, rows=np.arange(n))

    keys = [range(j + 1) if causal else range(n) for j in range(n)]
    heads = [
        dense_masked_attention(H, wq, wk, wv, keys, 1.0 / math.sqrt(cfg.head_dim))[0]
        for wq, wk, wv in _heads(params.w_qkv[0])
    ]
    expected = np.concatenate(heads, axis=1) @ params.w_out[0].value + H
    np.testing.assert_allclose(out.value, expected, rtol=1e-12, atol=1e-12)


def test_summarize_matches_dense_oracle():
    cfg = _config(False)
    params = M.init_model_params(cfg, seed=3)
    n = 9
    H = np.random.default_rng(4).normal(size=(n, cfg.d_model))
    counter = M.FlopCounter()
    out = M.summarize(params, T.constant(H), counter)

    # Every row attends to all rows; the summary keeps the last one.
    heads = [
        dense_masked_attention(H, wq, wk, wv, [range(n)] * n,
                               1.0 / math.sqrt(cfg.head_dim))[0][-1]
        for wq, wk, wv in _heads(params.w_qkv[-1])
    ]
    attended = np.concatenate(heads) @ params.w_out[-1].value + H[-1]
    expected = (attended @ params.w_summary.value)[None, :]
    np.testing.assert_allclose(out.value, expected, rtol=1e-12, atol=1e-12)
    assert counter.count == cfg.num_heads * cfg.head_dim * n


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
    with pytest.raises(ConfigError, match=field):
        M.ModelConfig(**{field: value})


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


def test_config_stores_numpy_scalars_as_python_values():
    config = M.ModelConfig(d_model=np.int64(8), num_types=np.uint8(3), causal=np.bool_(True))
    assert config == M.ModelConfig(d_model=8, num_types=3, causal=True)
    assert (type(config.d_model), type(config.num_types), type(config.causal)) == (int, int, bool)


def test_leaf_names_are_spelled_once():
    # named_parameters() is all_named() less what pe="base" freezes: exactly
    # the frequencies and the amplitude map.
    params = M.init_model_params(_config(False), seed=0)
    assert set(params.named_parameters()) == set(params.all_named())
    base = M.init_model_params(_config(False, pe="base"), seed=0)
    assert set(base.all_named()) - set(base.named_parameters()) == {"fcpe.freqs",
                                                                    "fcpe.density_map"}


@pytest.mark.parametrize("value, match", [
    ([[0.0] * 4] * 8, r"shape \(8, 4\) does not match \(4, 8\)"),
    ([[0.0, 1.0], [2.0]], "not an array of reals"),
    ({"data": [0.0]}, "not an array of reals"),
    ("abc", "not an array of reals"),
    (np.full((4, 8), "1.5"), "not an array of reals"),
    (np.ones((4, 8), dtype=bool), "not an array of reals"),
    ([[True] + [0.0] * 7] + [[0.0] * 8] * 3, "not an array of reals"),
    (np.full((4, 8), 1.0 + 1.0j), "not an array of reals"),
    ([[None] * 8] * 4, "not an array of reals"),
    (np.full((4, 8), np.nan), "not an array of reals, each finite"),
    (np.full((4, 8), -np.inf), "not an array of reals, each finite"),
], ids=["nested-list", "ragged", "dict", "str", "decimal-strings", "bools", "bool among floats",
        "complex", "none", "nan", "inf"])
def test_load_values_raises_config_error_for_what_is_not_a_leaf(value, match):
    params = M.init_model_params(_config(False), seed=0)
    before = params.type_embed.value.copy()
    with pytest.raises(ConfigError, match=rf"parameter 'fcpe.type_embed': {match}"):
        params.load_values({"fcpe.type_embed": value})
    np.testing.assert_array_equal(params.type_embed.value, before)
    # A nested list of the leaf's shape loads as its array would.
    params.load_values({"fcpe.type_embed": (before + 1.0).tolist()})
    np.testing.assert_array_equal(params.type_embed.value, before + 1.0)


@pytest.mark.parametrize("seed", [None, True, [1, 2], 1.0, -1, "0"])
def test_init_model_params_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ConfigError, match="seed must be an integer >= 0, got "):
        M.init_model_params(_config(False), seed)


@pytest.mark.parametrize("config", [None, {"d_model": 8}])
def test_init_model_params_rejects_a_config_that_is_not_a_model_config(config):
    with pytest.raises(ConfigError, match="config must be a ModelConfig, got "):
        M.init_model_params(config, 0)


def test_load_values_writes_nothing_when_a_later_entry_is_bad():
    params = M.init_model_params(_config(False), seed=0)
    freqs = params.freqs.value.copy()
    with pytest.raises(ConfigError, match=r"'fcpe.type_embed': shape \(1, 1\) does not match"):
        params.load_values({"fcpe.freqs": freqs + 1.0, "fcpe.type_embed": [[1.0]]})
    np.testing.assert_array_equal(params.freqs.value, freqs)
