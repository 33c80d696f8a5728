"""The full network: cross-scale attention over a time hierarchy plus a
decoder that predicts the next event's type and a Weibull gap distribution.

Forward pass per history window:

1. embed every event from its row of one table per window, ``(time, mix,
   cos, sin)`` by node id: type column + positional encoding, one
   :func:`encoding.fcpe_matrix` node (``pe="base"`` is the same encoding
   initialized to unit amplitudes, frozen and fed in as a constant),
2. for each scale s = 1..S: multi-head attention among the frontier nodes
   of scale s, one :func:`tensor.multi_head_attention` node for all heads
   that reads the frontier rows by position and writes them back, over all
   pairs, or with ``causal`` each query reading the nodes no later than
   itself (the counted score multiplications are ``n * n * d_k`` or
   ``n (n + 1) / 2 * d_k`` per head over n frontier nodes; the kernel skips
   the key tiles after each block of causal queries, so causal attention
   runs fewer products than all-pair); carried-over rows pass through that
   node untouched; then pool to the next scale's active set as a segment
   mean: the active nodes and the next ones are both partitions of the
   leaves into runs in time order, so each next node is the mean of the
   contiguous group of rows it absorbs, starting where the hierarchy stored
   (a carried-over node is a group of one); each pooled row is concatenated
   with its node's positional context (one more ``fcpe_matrix`` node per
   scale, from the table's rows at the next ids) and projected to ``d_model``,
3. one more :func:`tensor.multi_head_attention` node reads every top-scale
   row, with the temporally last node as the sole query and the one output
   row; then a dense layer gives the sequence summary ``H_L``,
4. one node (``_decode``) maps ``H_L`` to the loss: the equal-weight mean
   of a softmax type head's cross-entropy and a positive (scale, shape) time
   head's Weibull NLL, computed in log space; it also gives the readouts of
   :class:`ForwardResult`.

``num_scales=1`` is the dense, all-pair baseline: the hierarchy has a single
scale whose frontier is every event, so the encoder is one all-pair
attention pass and nothing is pooled.

Every learnable leaf is an attribute of :class:`ModelParams`, and
:func:`init_model_params` draws them all, the encoding's two included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoding import fcpe_matrix, fcpe_trig
from .errors import ConfigError, DataError, HierarchyError, NumericsError, check_int, check_real
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
    "point_estimate_time",
    "forward",
    "ForwardResult",
    "count_attention_flops",
    "hierarchy_key_set_sizes",
]

PE_MODES = ("fcpe", "base")
POSITIVE_FLOOR = 1e-6


@dataclass
class ModelConfig:
    """Architecture switches. The sizes are stored as ``int`` and ``causal``
    as ``bool``, from numpy scalars too. ``distribution`` accepts only
    ``"weibull"``: the benchmark passes it, and the next change to the
    benchmark (ROADMAP item 3) can delete the field."""

    d_model: int = 16
    num_heads: int = 2
    num_scales: int = 4
    num_types: int = 2
    distribution: str = "weibull"
    pe: str = "fcpe"
    causal: bool = False

    def __post_init__(self):
        for name in ("d_model", "num_heads", "num_scales", "num_types"):
            setattr(self, name, check_int(name, getattr(self, name)))
        if not isinstance(self.causal, (bool, np.bool_)):
            raise ConfigError(f"causal must be True or False, got {self.causal!r}")
        self.causal = bool(self.causal)
        if self.d_model % 2 != 0:
            raise ConfigError(f"d_model must be even, got {self.d_model}")
        if self.d_model % self.num_heads != 0:
            raise ConfigError(
                f"num_heads must divide d_model ({self.d_model}), got {self.num_heads}"
            )
        if self.distribution != "weibull":
            raise ConfigError(f"distribution must be 'weibull', got {self.distribution!r}")
        if not isinstance(self.pe, str) or self.pe not in PE_MODES:
            raise ConfigError(f"pe must be one of {PE_MODES}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.num_heads


@dataclass(eq=False)
class ModelParams:
    """All learnable leaves, addressable by name for the optimizer.
    Each is stored as the forward multiplies by it: the encoding's ``freqs``
    (1, d/2) and ``density_map`` (K, d/2), ``type_embed`` (K, d); per scale,
    ``w_qkv[s]`` (3 * heads, d, d_k), every head's W_Q, then W_K, then W_V, as
    :func:`tensor.multi_head_attention` takes them, and W_O ``w_out[s]`` (d, d)."""

    config: ModelConfig
    freqs: DiffNode
    density_map: DiffNode
    type_embed: DiffNode
    w_qkv: list[DiffNode]
    w_out: list[DiffNode]
    pool_proj: list[DiffNode]
    w_summary: DiffNode
    w_type: DiffNode
    w_time: DiffNode

    def all_named(self) -> dict[str, DiffNode]:
        """Every leaf by name, frozen ones included; :meth:`copy_values` and
        :meth:`load_values` use these names as keys."""
        out = {
            "fcpe.freqs": self.freqs,
            "fcpe.density_map": self.density_map,
            "fcpe.type_embed": self.type_embed,
        }
        for s, (w_qkv, w_out) in enumerate(zip(self.w_qkv, self.w_out), start=1):
            out[f"attn{s}.wqkv"] = w_qkv
            out[f"attn{s}.wo"] = w_out
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
        """Write each named leaf's value, after checking every entry: each must
        be an array of finite numbers that numpy holds as int, uint or float,
        of the leaf's shape. A bad one raises :class:`ConfigError` and leaves
        every leaf as it was."""
        named = self.all_named()
        checked = {}
        for k, v in values.items():
            if k not in named:
                raise ConfigError(f"unknown parameter {k!r} in state")
            try:
                # np.asarray would read a bool among numbers as 0 or 1.
                bools = not isinstance(v, np.ndarray) and any(
                    isinstance(x, (bool, np.bool_)) for x in np.array(v, dtype=object).flat)
                v = np.asarray(v)
                ok = not bools and v.dtype.kind in "iuf" and np.isfinite(v).all()
            except (TypeError, ValueError):  # a ragged list
                ok = False
            if not ok:
                raise ConfigError(f"parameter {k!r}: not an array of reals, each finite")
            if named[k].value.shape != v.shape:
                raise ConfigError(
                    f"parameter {k!r}: shape {v.shape} does not match {named[k].value.shape}"
                )
            checked[k] = v
        for k, v in checked.items():
            named[k].value[...] = v


def init_model_params(config: ModelConfig, seed: int) -> ModelParams:
    """Seeded initialization; identical (config, seed) gives identical values.

    The frequencies sit on the DFT grid ``2*pi*k / (d/2)``. The amplitude map
    and the type embedding are drawn as (d/2, K) and (d, K) and stored
    transposed, so a seed gives the values it always has. ``seed`` must be an
    integer >= 0 and ``config`` a :class:`ModelConfig` (:class:`ConfigError`
    otherwise)."""
    if not isinstance(config, ModelConfig):
        raise ConfigError(f"config must be a ModelConfig, got {type(config).__name__}")
    rng = np.random.default_rng(check_int("seed", seed, low=0))
    d, dk, half = config.d_model, config.head_dim, config.d_model // 2
    sigma = 1.0 / math.sqrt(d)
    freqs = T.parameter((2.0 * np.pi * np.arange(half) / half).reshape(1, half))
    density_map = T.parameter(rng.normal(0.0, 0.5, size=(half, config.num_types)).T)
    type_embed = T.parameter(rng.normal(0.0, sigma, size=(d, config.num_types)).T)
    if config.pe == "base":
        # Fixed sinusoidal encoding: unit amplitudes on the DFT grid, both
        # frozen by named_parameters.
        density_map.value[...] = 1.0
    w_qkv, w_out = [], []
    for _ in range(config.num_scales):
        # Drawn head by head as (W_Q, W_K, W_V), stored as Q, K and V blocks.
        qkv = rng.normal(0.0, sigma, size=(config.num_heads, 3, d, dk))
        w_qkv.append(T.parameter(qkv.transpose(1, 0, 2, 3).reshape(-1, d, dk)))
        w_out.append(T.parameter(rng.normal(0.0, sigma, size=(d, d))))
    pool_proj = [
        T.parameter(rng.normal(0.0, 1.0 / math.sqrt(2 * d), size=(2 * d, d)))
        for _ in range(config.num_scales - 1)
    ]
    w_summary = T.parameter(rng.normal(0.0, sigma, size=(d, d)))
    w_type = T.parameter(rng.normal(0.0, sigma, size=(d, config.num_types)))
    w_time = T.parameter(rng.normal(0.0, sigma, size=(d, 2)))
    return ModelParams(config, freqs, density_map, type_embed, w_qkv, w_out, pool_proj,
                       w_summary, w_type, w_time)


class FlopCounter:
    """Counts the query-key score multiplications attention needs.

    The count is what restricted attention needs, not what numpy runs: the
    kernel forms scores a tile at a time, so a causal block also computes the
    masked scores in each row block's diagonal square (0.55 of the all-pair
    scores at 300 rows and 0.63 at 111, against about 0.50 counted).
    """

    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += check_int("n", n, low=0)


def hierarchy_for(config: ModelConfig, times) -> ScaleHierarchy:
    """Build the per-window hierarchy the encoder walks."""
    return build_hierarchy(times, config.num_scales)


def _positional(params: ModelParams, times, type_weights, trig) -> DiffNode:
    """Positional encodings (n, d); a constant under ``pe="base"``, whose
    frequencies and amplitudes are frozen, so backward skips them. ``trig``
    is as :func:`encoding.fcpe_matrix` takes it."""
    pos = fcpe_matrix(params.freqs, params.density_map, times, type_weights, trig)
    return T.constant(pos.value) if params.config.pe == "base" else pos


def _embed(params: ModelParams, times, type_weights, trig) -> DiffNode:
    """Event embeddings (n, d): type-embedding rows plus positional encodings."""
    type_part = T.matmul(T.constant(type_weights), params.type_embed)
    return T.add(type_part, _positional(params, times, type_weights, trig))


def _attend(H: DiffNode, rows, causal: bool, w_qkv: DiffNode, w_out: DiffNode,
            counter: FlopCounter | None, last_only: bool = False) -> DiffNode:
    """One :func:`tensor.multi_head_attention` node over ``H[rows]``: every
    head, concat(heads) @ W_O and the residual. Counts the keys each query
    reads times ``d_k`` score multiplications per head."""
    if counter is not None:
        n = len(rows)
        keys = n * (n + 1) // 2 if causal else (1 if last_only else n) * n
        counter.add(w_qkv.shape[0] // 3 * keys * w_qkv.shape[2])
    return T.multi_head_attention(H, rows, w_qkv, w_out, causal, last_only)


def cross_scale_attention(
    H: DiffNode,
    causal: bool,
    params: ModelParams,
    s: int,
    counter: FlopCounter | None = None,
    *,
    rows,
) -> DiffNode:
    """Multi-head attention among the rows ``H[rows]`` at scale ``s``: all
    pairs, or with ``causal`` the i-th row reads only the first i + 1.
    Returns ``H`` with those rows replaced by concat(heads) @ W_O +
    residual; every other row passes through.

    All heads, W_O and the residual are one
    :func:`tensor.multi_head_attention` node; the counted score
    multiplications are ``n * n * d_k`` per head over n rows, or
    ``n (n + 1) / 2 * d_k`` with ``causal``.
    """
    return _attend(H, rows, causal, params.w_qkv[s - 1], params.w_out[s - 1], counter)


def hierarchical_pool(H_active: DiffNode, hierarchy: ScaleHierarchy, s: int,
                      params: ModelParams, table: tuple[np.ndarray, ...]) -> DiffNode:
    """Ascend one scale: each next-scale node is the mean of the contiguous run
    of active rows it absorbs (carried-over nodes are runs of one), then
    concat each row with its positional context and project back to d_model.

    The groups are the stored :meth:`ScaleHierarchy.pool_groups`. ``table``
    is ``(time, mix, cos, sin)`` by node id, as ``rep_time``, ``type_mixture``
    and :func:`encoding.fcpe_trig` give them; the next scale's ids read it.
    """
    nxt_ids, starts = hierarchy.pool_groups(s)
    if H_active.shape[0] != len(hierarchy.active[s - 1]):
        raise HierarchyError(f"pooling at scale {s}: got {H_active.shape[0]} rows for"
                             f" {len(hierarchy.active[s - 1])} active nodes")
    time, mix, cos, sin = (column[nxt_ids] for column in table)
    pooled = T.segment_mean(H_active, starts)
    context = _positional(params, time, mix, (cos, sin))
    return T.matmul(T.concat_cols(pooled, context), params.pool_proj[s - 1])


def encode(params: ModelParams, seq: EventSequence,
           counter: FlopCounter | None = None) -> DiffNode:
    """Run the iterative cross-scale encoder over one history window.

    At each scale one attention node reads the frontier rows by their
    positions among the active nodes and writes them back; the carried-over
    rows pass through it. Returns the top-scale active-node representations
    (rows in time order).
    """
    cfg = params.config
    if seq.num_types != cfg.num_types:
        raise ConfigError(
            f"sequence has {seq.num_types} types but model expects {cfg.num_types}"
        )
    if len(seq.times) < cfg.num_scales + 1:
        raise DataError(
            f"a history of {len(seq.times)} events is too short for {cfg.num_scales}"
            f" scales, which need at least {cfg.num_scales + 1}"
        )
    hierarchy = hierarchy_for(cfg, seq.times)
    S = hierarchy.num_scales
    # (time, mix, cos, sin), a row per node id: a node carried over is encoded from one row.
    ids = np.arange(len(hierarchy.lo))
    table = (hierarchy.rep_time, hierarchy.type_mixture(ids, seq.types, cfg.num_types),
             *fcpe_trig(params.freqs, hierarchy.rep_time))
    time, mix, cos, sin = (column[hierarchy.active[0]] for column in table)
    H = _embed(params, time, mix, (cos, sin))
    for s in range(1, S + 1):
        # ScaleHierarchy.key_set's causal rule keeps the keys whose mean time
        # is no later than the query's. Frontier runs are disjoint and times
        # strictly increase, so those means strictly increase along the
        # frontier and the rule is the kernel's causal one.
        H = cross_scale_attention(H, cfg.causal, params, s, counter,
                                  rows=hierarchy.frontier_pos[s - 1])
        if s < S:
            H = hierarchical_pool(H, hierarchy, s, params, table)
    return H


def summarize(params: ModelParams, H_top: DiffNode,
              counter: FlopCounter | None = None) -> DiffNode:
    """Decoder attention at the top scale: the temporally last node queries
    every top node in one :func:`tensor.multi_head_attention` node, then a
    dense layer produces the sequence summary H_L."""
    rows = np.arange(H_top.shape[0])
    attended = _attend(H_top, rows, False, params.w_qkv[-1], params.w_out[-1], counter,
                       last_only=True)
    return T.matmul(attended, params.w_summary)


def point_estimate_time(lam: float, gamma: float) -> float:
    """Weibull mean lambda * Gamma(1 + 1/gamma) as the point prediction.

    Both must be finite reals > 0, else :class:`ConfigError`; a mean too large
    for a float, as for shapes below about 1/171, raises :class:`NumericsError`."""
    lam, gamma = check_real("lam", lam), check_real("gamma", gamma)
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


# exp overflows above this; the head raises before it gets there.
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)


def _decode(params: ModelParams, H_L: DiffNode, target: int, gap: float) -> ForwardResult:
    """The decoder head as one node over ``H_L``, ``w_time`` and ``w_type``:

        0.5 * time NLL + 0.5 * type cross-entropy

    with softplus (lambda, gamma) above ``POSITIVE_FLOOR`` and the Weibull
    NLL kept in log space,

        -[ log g - log l + (g - 1) u - exp(g u) ],  u = log t - log l.

    Forward and backward run the operations of the matmul, softplus, log,
    exp, logsumexp and sum chain the node stands for, and add gradients in
    the chain's order (gamma's: the ``g - 1`` term, ``log g``, then ``g u``),
    so value and gradients round exactly as that chain does. The time head's
    ``+ - * /`` run on Python floats; ``exp``, ``log`` and ``logaddexp`` stay
    numpy calls, since ``math``'s need not round the same.
    """
    gap = float(gap)
    if gap <= 0.0:
        raise DataError(f"inter-event gap must be positive, got {gap}")
    w_time, w_type = params.w_time, params.w_type
    h = H_L.value
    logits = h @ w_type.value  # (1, K)
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    e_sum = e.sum(axis=1, keepdims=True)
    lse = m + np.log(e_sum)
    ce = (lse - logits[:, [target]]).item()
    pre = h @ w_time.value  # (1, 2)
    lam, gamma = (np.logaddexp(0.0, pre[0]) + POSITIVE_FLOOR).tolist()
    log_lam = np.log(lam).item()
    u = math.log(gap) - log_lam  # log(t / lambda)
    gu = gamma * u
    if gu > _LOG_FLOAT_MAX:
        raise NumericsError(
            f"Weibull term (gap / lambda)^gamma overflows: lambda={lam!r},"
            f" gamma={gamma!r}, gap={gap!r}"
        )
    z = np.exp(gu).item()  # (t / lambda)^gamma
    nll = (((np.log(gamma).item() - log_lam) + (gamma - 1.0) * u) - z) * -1.0

    def backward(g):
        g = g.item()
        g_ce = g * 0.5
        g_term = (g * 0.5) * -1.0
        g_gu = -g_term * z
        g_u = g_term * (gamma - 1.0) + g_gu * gamma
        g_lam = -g_term / lam + -g_u / lam
        g_gamma = g_term * u + g_term / gamma + g_gu * u
        g_pre = np.array([[g_lam, g_gamma]]) * T._sigmoid(pre)
        g_logits = g_ce * np.exp(logits - lse)
        g_logits[0, target] += -g_ce
        H_L.grad += g_logits @ w_type.value.T
        w_type.grad += h.T @ g_logits
        H_L.grad += g_pre @ w_time.value.T
        w_time.grad += h.T @ g_pre

    return ForwardResult(
        total=DiffNode(np.array([[nll * 0.5 + ce * 0.5]]), (H_L, w_time, w_type), backward),
        time_nll=nll,
        type_ce=ce,
        type_probs=(e / e_sum)[0],
        lam=lam,
        gamma=gamma,
    )


def forward(params: ModelParams, example: PredictionExample,
            counter: FlopCounter | None = None) -> ForwardResult:
    """Forward pass producing the combined loss node plus decoded readouts."""
    cfg = params.config
    H_L = summarize(params, encode(params, example.history, counter), counter)
    target = int(example.target_type)
    if not 0 <= target < cfg.num_types:
        raise DataError(f"target type {target} outside [0, {cfg.num_types})")
    result = _decode(params, H_L, target, example.target_gap)
    if not np.isfinite(result.total.value).all():
        raise NumericsError("non-finite loss value")
    return result


# ---------------------------------------------------------------------------
# Attention cost accounting
# ---------------------------------------------------------------------------


def count_attention_flops(seq_len: int, batch: int, heads: int, head_dim: int,
                          key_set_sizes) -> tuple[int, int]:
    """Score-multiplication counts for restricted vs all-pair attention.

    ``key_set_sizes`` holds, per scale, the key-set size of each executed
    query, as :func:`hierarchy_key_set_sizes` gives them: restricted
    attention costs batch * heads * head_dim * (sum of the sizes), the
    all-pair reference costs batch * heads * seq_len^2 * head_dim. These are
    accounting figures for the score computation, not hardware FLOPs.
    """
    seq_len = check_int("seq_len", seq_len)
    batch = check_int("batch", batch)
    heads = check_int("heads", heads)
    head_dim = check_int("head_dim", head_dim)
    keys = sum(check_int("key-set size", size) for sizes in key_set_sizes for size in sizes)
    cross = batch * heads * head_dim * keys
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

