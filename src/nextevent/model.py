"""The full network: cross-scale attention over a time hierarchy plus a
decoder that predicts the next event's type and a Weibull gap distribution.

Forward pass per history window:

1. embed every event (type column + positional encoding; ``pe="base"`` is
   the same encoding initialized to unit amplitudes, frozen and fed in as a
   constant),
2. for each scale s = 1..S: multi-head attention among the frontier nodes
   of scale s, one :func:`tensor.multi_head_attention` node for all heads,
   with each query's keys given as one boolean mask over that frontier (all
   of it, or with ``causal`` the nodes no later than the query; the counted
   score multiplications are ``mask.sum() * d_k`` per head); carried-over
   nodes pass through untouched; then pool to the next
   scale's active set as a segment mean: the active nodes and the next ones
   are both leaf spans in time order, so each next node is the mean of the
   contiguous run of rows it absorbs (a carried-over node is a run of one);
   each pooled row is concatenated with its node's positional context and
   projected back to ``d_model``,
3. one more :func:`tensor.multi_head_attention` node at the top scale, with
   the temporally last node as the sole query, then a dense layer, gives
   the sequence summary ``H_L``,
4. ``H_L`` feeds a softmax type head and a positive (scale, shape) time head.

``num_scales=1`` is the dense, all-pair baseline: the hierarchy has a single
scale whose frontier is every event, so the encoder is one all-pair
attention pass and nothing is pooled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import tensor as T
from .encoding import FcpeParams, fcpe_matrix, init_fcpe_params, onehot_matrix
from .errors import ConfigError, DataError, HierarchyError, NumericsError
from .events import EventSequence, PredictionExample
from .hierarchy import ScaleHierarchy, build_hierarchy
from .tensor import DiffNode

__all__ = [
    "ModelConfig",
    "ModelParams",
    "FlopCounter",
    "init_model_params",
    "hierarchy_for",
    "cross_scale_attention",
    "hierarchical_pool",
    "encode",
    "summarize",
    "type_logits",
    "predict_time_params",
    "time_nll",
    "point_estimate_time",
    "loss",
    "forward",
    "ForwardResult",
    "count_attention_flops",
    "hierarchy_key_set_sizes",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
]

DISTRIBUTIONS = ("weibull", "exponential")
PE_MODES = ("fcpe", "base")
POSITIVE_FLOOR = 1e-6


@dataclass
class ModelConfig:
    """Architecture and loss switches; every field is checkpointed."""

    d_model: int = 16
    num_heads: int = 2
    num_scales: int = 4
    num_types: int = 2
    alpha: float = 0.5
    distribution: str = "weibull"
    pe: str = "fcpe"
    causal: bool = False

    def __post_init__(self):
        if self.d_model <= 0 or self.d_model % 2 != 0:
            raise ConfigError(f"d_model must be positive and even, got {self.d_model}")
        if self.num_heads <= 0 or self.d_model % self.num_heads != 0:
            raise ConfigError(
                f"num_heads must divide d_model ({self.d_model}), got {self.num_heads}"
            )
        if self.num_scales < 1:
            raise ConfigError(f"num_scales must be >= 1, got {self.num_scales}")
        if self.num_types < 1:
            raise ConfigError(f"num_types must be >= 1, got {self.num_types}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError(f"distribution must be one of {DISTRIBUTIONS}")
        if self.pe not in PE_MODES:
            raise ConfigError(f"pe must be one of {PE_MODES}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.num_heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class ScaleAttentionParams:
    """Per-scale projections: ``w_qkv`` stacks every head's W_Q, then W_K,
    then W_V, as :func:`tensor.multi_head_attention` takes them; W_O."""

    w_qkv: DiffNode
    w_out: DiffNode


class ModelParams:
    """All learnable leaves, addressable by name for the optimizer and I/O."""

    def __init__(self, config: ModelConfig, fcpe: FcpeParams,
                 attn: list[ScaleAttentionParams], pool_proj: list[DiffNode],
                 w_summary: DiffNode, w_type: DiffNode, w_time: DiffNode):
        self.config = config
        self.fcpe = fcpe
        self.attn = attn
        self.pool_proj = pool_proj
        self.w_summary = w_summary
        self.w_type = w_type
        self.w_time = w_time

    def all_named(self) -> dict[str, DiffNode]:
        out = dict(self.fcpe.named())
        for s, sp in enumerate(self.attn, start=1):
            out[f"attn{s}.wqkv"] = sp.w_qkv
            out[f"attn{s}.wo"] = sp.w_out
        for s, wc in enumerate(self.pool_proj, start=1):
            out[f"pool{s}.wc"] = wc
        out["dec.summary"] = self.w_summary
        out["dec.type"] = self.w_type
        out["dec.time"] = self.w_time
        return out

    def named_parameters(self) -> dict[str, DiffNode]:
        """Trainable leaves only: base positional encoding freezes the
        frequencies and the unit amplitude map."""
        out = self.all_named()
        if self.config.pe == "base":
            out.pop("fcpe.freqs")
            out.pop("fcpe.density_map")
        return out

    def zero_grad(self) -> None:
        for node in self.all_named().values():
            node.zero_grad()

    def copy_values(self) -> dict[str, np.ndarray]:
        return {k: v.value.copy() for k, v in self.all_named().items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        named = self.all_named()
        for k, v in values.items():
            if k not in named:
                raise ConfigError(f"unknown parameter {k!r} in state")
            if named[k].value.shape != v.shape:
                raise ConfigError(
                    f"parameter {k!r}: shape {v.shape} does not match {named[k].value.shape}"
                )
            named[k].value[...] = v


def init_model_params(config: ModelConfig, seed: int) -> ModelParams:
    """Seeded initialization; identical (config, seed) gives identical values."""
    rng = np.random.default_rng(seed)
    d, dk = config.d_model, config.head_dim
    sigma = 1.0 / math.sqrt(d)
    fcpe = init_fcpe_params(d, config.num_types, rng)
    if config.pe == "base":
        # Fixed sinusoidal encoding: unit amplitudes on the DFT grid that
        # init_fcpe_params already set, both frozen by named_parameters.
        fcpe.density_map.value[...] = 1.0
    attn = []
    for _ in range(config.num_scales):
        # Drawn head by head as (W_Q, W_K, W_V), stored as Q, K and V blocks.
        qkv = rng.normal(0.0, sigma, size=(config.num_heads, 3, d, dk))
        w_qkv = T.parameter(qkv.transpose(1, 0, 2, 3).reshape(-1, d, dk))
        attn.append(ScaleAttentionParams(w_qkv, T.parameter(rng.normal(0.0, sigma, size=(d, d)))))
    pool_proj = [
        T.parameter(rng.normal(0.0, 1.0 / math.sqrt(2 * d), size=(2 * d, d)))
        for _ in range(config.num_scales - 1)
    ]
    w_summary = T.parameter(rng.normal(0.0, sigma, size=(d, d)))
    w_type = T.parameter(rng.normal(0.0, sigma, size=(d, config.num_types)))
    w_time = T.parameter(rng.normal(0.0, sigma, size=(d, 2)))
    return ModelParams(config, fcpe, attn, pool_proj, w_summary, w_type, w_time)


class FlopCounter:
    """Counts the query-key score multiplications the attention masks allow.

    A masked block still computes every score and discards the masked ones,
    so the count is what restricted attention needs, not what numpy runs.
    """

    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)


def hierarchy_for(config: ModelConfig, times) -> ScaleHierarchy:
    """Build the per-window hierarchy the encoder walks."""
    return build_hierarchy(times, num_scales=config.num_scales)


def _positional(params: ModelParams, times, type_weights) -> DiffNode:
    """Positional encodings (n, d); a constant under ``pe="base"``, whose
    frequencies and amplitudes are frozen, so backward skips them."""
    pos = fcpe_matrix(params.fcpe, times, type_weights)
    return T.constant(pos.value) if params.config.pe == "base" else pos


def _embed(params: ModelParams, times, type_weights) -> DiffNode:
    """Event embeddings (n, d): type-embedding rows plus positional encodings."""
    weights = T.constant(np.asarray(type_weights, dtype=np.float64))
    type_part = T.matmul(weights, T.transpose(params.fcpe.type_embed))
    return T.add(type_part, _positional(params, times, type_weights))


def _attend(Hq: DiffNode, H: DiffNode, mask: np.ndarray | None,
            sp: ScaleAttentionParams, counter: FlopCounter | None) -> DiffNode:
    """Rows of ``Hq`` attend to rows of ``H``: one
    :func:`tensor.multi_head_attention` node for every head, concat(heads)
    @ W_O and the ``Hq`` residual. Counts ``mask.sum() * d_k`` score
    multiplications per head (all pairs for ``None``)."""
    dk = sp.w_qkv.shape[2]
    if counter is not None:
        keys = Hq.shape[0] * H.shape[0] if mask is None else int(np.count_nonzero(mask))
        counter.add(sp.w_qkv.shape[0] // 3 * keys * dk)
    return T.multi_head_attention(Hq, H, sp.w_qkv, sp.w_out, mask, 1.0 / math.sqrt(dk))


def cross_scale_attention(
    H: DiffNode,
    mask: np.ndarray | None,
    params: ModelParams,
    s: int,
    counter: FlopCounter | None = None,
) -> DiffNode:
    """Multi-head attention where query row j reads only the keys in ``mask[j]``.

    ``mask`` is a boolean ``(n, n)`` array over the rows of ``H``, or ``None``
    for all-pair attention. Every query must be allowed to read itself, so
    the diagonal must be all true. All heads, W_O and the residual are one
    :func:`tensor.multi_head_attention` node; the counted score
    multiplications are ``mask.sum() * d_k`` per head (``n * n * d_k`` for
    ``None``). Output = concat(heads) @ W_O + residual.
    """
    if mask is not None:
        missing = np.flatnonzero(~np.diagonal(mask))
        if missing.size:
            raise HierarchyError(f"key set of query {missing[0]} must include itself")
    return _attend(H, H, mask, params.attn[s - 1], counter)


def hierarchical_pool(
    H_active: DiffNode, hierarchy: ScaleHierarchy, s: int, params: ModelParams,
    types: np.ndarray,
) -> DiffNode:
    """Ascend one scale: each next-scale node is the mean of the contiguous run
    of active rows it absorbs (carried-over nodes are runs of one), then
    concat each row with its positional context and project back to d_model."""
    nxt_ids, starts = hierarchy.pool_groups(s)
    if H_active.shape[0] != len(hierarchy.active[s - 1]):
        raise HierarchyError(
            f"pooling at scale {s}: got {H_active.shape[0]} rows for"
            f" {len(hierarchy.active[s - 1])} active nodes"
        )
    pooled = T.segment_mean(H_active, starts)
    mixtures = hierarchy.type_mixture(nxt_ids, types, params.config.num_types)
    context = _positional(params, hierarchy.rep_time[nxt_ids], mixtures)
    return T.matmul(T.concat_cols(pooled, context), params.pool_proj[s - 1])


def encode(params: ModelParams, seq: EventSequence,
           counter: FlopCounter | None = None) -> DiffNode:
    """Run the iterative cross-scale encoder over one history window.

    Returns the top-scale active-node representations (rows in time order).
    """
    cfg = params.config
    if seq.num_types != cfg.num_types:
        raise ConfigError(
            f"sequence has {seq.num_types} types but model expects {cfg.num_types}"
        )
    hierarchy = hierarchy_for(cfg, seq.times)
    S = hierarchy.num_scales
    H = _embed(params, seq.times, onehot_matrix(seq.types, cfg.num_types))
    for s in range(1, S + 1):
        fpos = hierarchy.frontier_pos[s - 1]
        # ScaleHierarchy.key_set's causal rule keeps the keys whose mean time
        # is no later than the query's. Frontier spans are disjoint and times
        # strictly increase, so those means strictly increase along the
        # frontier and the rule is the lower triangle.
        mask = np.tri(len(fpos), dtype=bool) if cfg.causal else None
        if len(fpos) == H.shape[0]:
            H = cross_scale_attention(H, mask, params, s, counter)
        else:
            Hf = cross_scale_attention(T.gather_rows(H, fpos), mask, params, s, counter)
            H = T.scatter_rows(H, fpos, Hf)
        if s < S:
            H = hierarchical_pool(H, hierarchy, s, params, seq.types)
    return H


def summarize(params: ModelParams, H_top: DiffNode,
              counter: FlopCounter | None = None) -> DiffNode:
    """Decoder attention at the top scale: the temporally last node queries
    every top node, then a dense layer produces the sequence summary H_L."""
    last = T.gather_rows(H_top, [H_top.shape[0] - 1])
    attended = _attend(last, H_top, None, params.attn[-1], counter)
    return T.matmul(attended, params.w_summary)


def type_logits(params: ModelParams, H_L: DiffNode) -> DiffNode:
    return T.matmul(H_L, params.w_type)


def predict_time_params(params: ModelParams, H_L: DiffNode) -> tuple[DiffNode, DiffNode]:
    """Positive Weibull (scale, shape); exponential mode pins shape to 1."""
    pre = T.matmul(H_L, params.w_time)  # (1, 2)
    floor = T.constant([[POSITIVE_FLOOR]])
    lam = T.add(T.softplus(T.gather_cols(pre, [0])), floor)
    if params.config.distribution == "exponential":
        gamma = T.constant([[1.0]])
    else:
        gamma = T.add(T.softplus(T.gather_cols(pre, [1])), floor)
    return lam, gamma


def time_nll(lam: DiffNode, gamma: DiffNode, gap: float) -> DiffNode:
    """Negative log Weibull density of the inter-event gap, in log space:

        -[ log g - log l + (g - 1)(log t - log l) - (t / l)^g ]
    """
    gap = float(gap)
    if gap <= 0.0:
        raise DataError(f"inter-event gap must be positive, got {gap}")
    log_t = T.constant([[math.log(gap)]])
    u = T.sub(log_t, T.log(lam))  # log(t / lambda)
    z = T.exp(T.mul(gamma, u))  # (t / lambda)^gamma
    term = T.sub(T.add(T.sub(T.log(gamma), T.log(lam)), T.mul(T.sub(gamma, T.constant([[1.0]])), u)), z)
    return T.scale(term, -1.0)


def point_estimate_time(lam: float, gamma: float) -> float:
    """Weibull mean lambda * Gamma(1 + 1/gamma) as the point prediction.

    Raises :class:`NumericsError` when the mean is too large for a float,
    which happens for shapes below about 1/171."""
    if lam <= 0 or gamma <= 0:
        raise ConfigError("Weibull parameters must be positive")
    try:
        mean = lam * math.gamma(1.0 + 1.0 / gamma)
    except OverflowError:
        mean = math.inf
    if not math.isfinite(mean):
        raise NumericsError(f"Weibull mean overflows for lambda={lam}, gamma={gamma}")
    return mean


@dataclass
class ForwardResult:
    """Everything the harness needs from one example's forward pass."""

    total: DiffNode
    time_nll: float
    type_ce: float
    type_probs: np.ndarray
    lam: float
    gamma: float

    @property
    def predicted_type(self) -> int:
        return int(np.argmax(self.type_probs))

    @property
    def predicted_gap(self) -> float:
        return point_estimate_time(self.lam, self.gamma)


def forward(params: ModelParams, example: PredictionExample,
            counter: FlopCounter | None = None) -> ForwardResult:
    """Forward pass producing the combined loss node plus decoded readouts."""
    cfg = params.config
    H_top = encode(params, example.history, counter)
    H_L = summarize(params, H_top, counter)
    logits = type_logits(params, H_L)
    target = int(example.target_type)
    if not 0 <= target < cfg.num_types:
        raise DataError(f"target type {target} outside [0, {cfg.num_types})")
    ce = T.sub(T.logsumexp(logits, axis=1), T.gather_cols(logits, [target]))
    lam, gamma = predict_time_params(params, H_L)
    lt = time_nll(lam, gamma, example.target_gap)
    total = T.add(T.scale(lt, 1.0 - cfg.alpha), T.scale(ce, cfg.alpha))
    probs = T.softmax(logits, axis=1).value[0].copy()
    if not np.isfinite(total.value).all():
        raise NumericsError("non-finite loss value")
    return ForwardResult(
        total=total,
        time_nll=lt.value.item(),
        type_ce=ce.value.item(),
        type_probs=probs,
        lam=lam.value.item(),
        gamma=gamma.value.item(),
    )


def loss(params: ModelParams, example: PredictionExample) -> DiffNode:
    """Combined objective (1 - alpha) * time NLL + alpha * type cross-entropy."""
    return forward(params, example).total


# ---------------------------------------------------------------------------
# Attention cost accounting
# ---------------------------------------------------------------------------


def count_attention_flops(seq_len: int, batch: int, heads: int, head_dim: int,
                          key_set_sizes) -> tuple[int, int]:
    """Score-multiplication counts for restricted vs all-pair attention.

    ``key_set_sizes`` holds one entry per executed query (nested per scale or
    flat): restricted attention costs batch * heads * head_dim * sum(sizes),
    the all-pair reference costs batch * heads * seq_len^2 * head_dim. These
    are accounting figures for the score computation, not hardware FLOPs.
    """
    if seq_len <= 0 or batch <= 0 or heads <= 0 or head_dim <= 0:
        raise ConfigError("count_attention_flops requires positive dimensions")
    flat: list[int] = []
    for entry in key_set_sizes:
        if isinstance(entry, (list, tuple, np.ndarray)):
            flat.extend(int(x) for x in entry)
        else:
            flat.append(int(entry))
    cross = batch * heads * head_dim * sum(flat)
    dense = batch * heads * seq_len * seq_len * head_dim
    return cross, dense


def hierarchy_key_set_sizes(hierarchy: ScaleHierarchy, causal: bool = False) -> list[list[int]]:
    """Key-set size per query per scale, as the encoder executes them."""
    sizes = []
    for s in range(1, hierarchy.num_scales + 1):
        frontier = hierarchy.frontier(s)
        sizes.append(
            [len(hierarchy.key_set(s, node_id, causal=causal)) for node_id in frontier]
        )
    return sizes


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 5


def save_checkpoint(path, params: ModelParams, norm_stats=None) -> None:
    """Single JSON file: config + named parameter tensors (shape + row-major
    data) + optional normalization stats. Floats round-trip exactly."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
        "params": {
            name: {"shape": list(node.value.shape), "data": node.value.reshape(-1).tolist()}
            for name, node in sorted(params.all_named().items())
        },
        "norm": norm_stats.to_dict() if norm_stats is not None else None,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint(path):
    """Inverse of :func:`save_checkpoint`; returns (params, norm_stats_or_None)."""
    from .events import NormStats

    path = Path(path)
    if not path.exists():
        raise DataError(f"no such checkpoint: {path}")
    payload = json.loads(path.read_text())
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {version!r}")
    config = ModelConfig.from_dict(payload["config"])
    params = init_model_params(config, seed=0)
    named = params.all_named()
    saved = payload["params"]
    if set(saved) != set(named):
        missing = set(named) ^ set(saved)
        raise ConfigError(f"checkpoint parameter names mismatch: {sorted(missing)}")
    for name, entry in saved.items():
        arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if arr.shape != named[name].value.shape:
            raise ConfigError(
                f"checkpoint {name!r}: shape {arr.shape} vs expected {named[name].value.shape}"
            )
        if not np.isfinite(arr).all():
            raise NumericsError(f"checkpoint {name!r} holds non-finite values")
        named[name].value[...] = arr
    norm = payload.get("norm")
    stats = NormStats.from_dict(norm) if norm else None
    return params, stats
