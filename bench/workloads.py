"""Workloads of the nextevent benchmark: inputs made from a seed, one step
per window, and the checks every window's outputs must pass.

Only the public API of ``nextevent`` is used, and always through module
attributes (``M.forward``, ``E.make_examples``), so that a :class:`Tracer`
that swaps those attributes sees every call.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from nextevent import events as E
from nextevent import hierarchy as H
from nextevent import model as M
from nextevent import tensor as T

from spans import Target, Tracer, per_window

D_MODEL, NUM_HEADS, NUM_SCALES, NUM_TYPES = 32, 4, 4, 4
LEARNING_RATE = 0.01
# Parameters start from the same values for every seed; only inputs vary.
INIT_SEED = 0
REFERENCE_SEED = 0
REL_TOL = 1e-12  # the loss tolerance the project holds refactors to
PROB_TOL = 1e-12

# Bursty generator: bursts of 16 events 1 time unit apart on average,
# separated by gaps of 4 units on average, so the merge tree has scales.
BURST_RATE, BURST_SIZE, GAP_SCALE = 1.0, 16, 4.0
# Hawkes generator: stationary rate base / (1 - excitation / decay) = 2.
HAWKES = dict(base_rate=1.0, excitation=0.5, decay=1.0)
# A calibration burst: CALIBRATION_REPEATS small matrix products and eight
# times as many small array allocations, taking CALIBRATION_NOMINAL_S on the
# nominal machine all times are scaled to.
CALIBRATION_REPEATS = 32
CALIBRATION_NOMINAL_S = 3e-4
_CAL_A = np.random.default_rng(0).normal(size=(32, 8))
_CAL_B = np.random.default_rng(1).normal(size=(8, 32))
# Inference windows are never reused, so the pool is sized for a program
# three times faster than today's ~100 windows/s; a run that exhausts it
# simply ends early.
INFER_POOL_PER_SECOND = 300


@dataclass(frozen=True)
class Workload:
    name: str
    train: bool
    generator: str  # "multiscale" or "hawkes"
    length: int  # events per history window (L)
    causal: bool
    loss_windows: int  # train: size of the fixed window set; infer: windows in loss_mean
    count_windows: int  # traced windows whose counts are averaged
    reference_windows: int  # windows compared against reference.json

    def config(self) -> M.ModelConfig:
        return M.ModelConfig(
            d_model=D_MODEL, num_heads=NUM_HEADS, num_scales=NUM_SCALES,
            num_types=NUM_TYPES, distribution="weibull", pe="fcpe", causal=self.causal,
        )

    def pool_size(self, seconds: float) -> int:
        if self.train:
            return self.loss_windows
        return max(self.loss_windows, int(INFER_POOL_PER_SECOND * seconds))


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_full_L512", True, "multiscale", 512, False,
            loss_windows=48, count_windows=8, reference_windows=3,
        ),
        Workload(
            "train_causal_L256", True, "multiscale", 256, True,
            loss_windows=48, count_windows=8, reference_windows=3,
        ),
        Workload(
            "infer_hawkes_L64", False, "hawkes", 64, False,
            loss_windows=1000, count_windows=100, reference_windows=16,
        ),
    )
}


def make_windows(wl: Workload, seed: int, count: int) -> list[E.PredictionExample]:
    """``count`` prediction examples drawn from the workload's generator."""
    if wl.generator == "multiscale":
        # One window per sequence. Offsets cycle through the positions in a
        # burst, so every set has the same share of burst-opening targets,
        # whose long gaps would otherwise make loss_mean vary between seeds.
        seqs = E.generate_multiscale(
            count, burst_rate=BURST_RATE, burst_size=BURST_SIZE, gap_scale=GAP_SCALE,
            num_types=NUM_TYPES, seed=seed, num_bursts=wl.length // BURST_SIZE + 2,
        )
        seqs, _ = E.normalize_times(seqs, "shift_and_scale")
        return [E.make_examples(s, wl.length)[i % BURST_SIZE] for i, s in enumerate(seqs)]
    rate = HAWKES["base_rate"] / (1.0 - HAWKES["excitation"] / HAWKES["decay"])
    horizon = 1.2 * (count + wl.length) / rate + 50.0
    seqs = E.generate_hawkes(1, horizon, num_types=NUM_TYPES, seed=seed, **HAWKES)
    seqs, _ = E.normalize_times(seqs, "shift_and_scale")
    return E.make_examples(seqs[0], wl.length)[:count]


def output_problems(result: M.ForwardResult) -> list[str]:
    """Why a window's outputs are wrong; empty when they pass."""
    problems = []
    loss = float(result.total.value.item())
    if not math.isfinite(loss):
        problems.append(f"loss {loss} is not finite")
    probs = np.asarray(result.type_probs, dtype=np.float64)
    if not (np.all(np.isfinite(probs)) and np.all(probs >= 0.0)):
        problems.append("type probabilities are not finite and non-negative")
    elif abs(probs.sum() - 1.0) > PROB_TOL:
        problems.append(f"type probabilities sum to {probs.sum()!r}")
    for name, v in (("lambda", result.lam), ("gamma", result.gamma)):
        if not (math.isfinite(v) and v > 0.0):
            problems.append(f"{name} = {v} is not finite and positive")
    return problems


def loss_mismatches(losses: list[float], expected: list[float]) -> list[int]:
    """Indices where ``losses`` differs from ``expected`` by more than REL_TOL
    relative; every index mismatches when the lengths differ."""
    if len(losses) != len(expected):
        return list(range(max(len(losses), len(expected))))
    return [
        i
        for i, (a, b) in enumerate(zip(losses, expected))
        if not (math.isfinite(a) and abs(a - b) <= REL_TOL * abs(b))
    ]


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (NumPy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def window_summary(durations_s: list[float]) -> dict:
    """Median and 90th percentile of window times in ms, with the count."""
    ms = [d * 1e3 for d in durations_s]
    return {"p50_ms": percentile(ms, 50), "p90_ms": percentile(ms, 90), "samples": len(ms)}


def calibrate() -> float:
    """Seconds one fixed burst of small numpy calls from Python takes now.

    A shared host's speed drifts by tens of percent over seconds to minutes,
    and the drift slows a window and this burst alike: the burst does what a
    window does most, many tiny numpy operations and small allocations. It
    never touches nextevent, so a window's time scaled by
    ``CALIBRATION_NOMINAL_S`` over the burst's time measured next to it is
    the same on a fast or a slow host.
    """
    a, b = _CAL_A, _CAL_B
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_REPEATS):
        np.exp((a @ b)[:2]).sum()
    for _ in range(8):
        [np.empty(3) for _ in range(CALIBRATION_REPEATS)]
    return time.perf_counter() - t0


def current_speed_factor(bursts: int = 25) -> float:
    """Nominal over measured calibration time, from the median of ``bursts``."""
    return CALIBRATION_NOMINAL_S / statistics.median(calibrate() for _ in range(bursts))


def speed_factors(calibrations: list[float], half_width: int = 2) -> list[float]:
    """Per window, nominal over measured calibration time, taking the median
    of the measurements within ``half_width`` windows so that one burst hit
    by an interrupt does not distort its window."""
    n = len(calibrations)
    return [
        CALIBRATION_NOMINAL_S
        / statistics.median(calibrations[max(0, i - half_width): i + half_width + 1])
        for i in range(n)
    ]


def graph_size(root: T.DiffNode) -> int:
    """Nodes reachable from ``root`` through ``DiffNode.parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def layer_targets() -> list[Target]:
    """Every attribute the traced run wraps, with the layer it belongs to."""
    return [
        *(Target(E, f, "events.prepare") for f in
          ("generate_multiscale", "generate_hawkes", "normalize_times", "make_examples")),
        Target(M, "hierarchy_for", "hierarchy.build"),
        *(Target(H.ScaleHierarchy, f, "hierarchy.query") for f in
          ("frontier", "active_nodes", "key_set", "pool_groups", "type_mixture")),
        # model.py imports fcpe_matrix by name, so it is wrapped where model looks it up.
        Target(M, "fcpe_matrix", "encoding.embed"),
        Target(M, "cross_scale_attention", "model.attn", scale_arg=3),
        Target(M, "hierarchical_pool", "model.pool"),
        Target(M, "encode", "model.encode"),
        Target(M, "summarize", "model.summary"),
        Target(M, "forward", "model.forward"),
        Target(T.DiffNode, "backward", "tensor.backward"),
    ]


@dataclass
class LoopResult:
    durations: list[float] = field(default_factory=list)  # wall seconds per window
    calibrations: list[float] = field(default_factory=list)  # burst before each window
    losses: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def factors(self) -> list[float]:
        return speed_factors(self.calibrations)

    def nominal_s(self) -> list[float]:
        """Window times scaled to the nominal machine."""
        return [d * f for d, f in zip(self.durations, self.factors())]


class Session:
    """One workload's inputs and model, set up as a user of the API would."""

    def __init__(self, wl: Workload, seed: int, seconds: float):
        self.wl = wl
        self.config = wl.config()
        self.windows = make_windows(wl, seed, wl.pool_size(seconds))
        self.params = M.init_model_params(self.config, INIT_SEED)
        self.initial = self.params.copy_values()
        M.forward(self.params, self.windows[0])  # warm-up, pays lazy imports
        self.tracer: Tracer | None = None
        self._reported = False

    def step(self, example, counter=None) -> M.ForwardResult:
        """One closed-loop step: a train step or one inference forward."""
        params = self.params
        if not self.wl.train:
            return M.forward(params, example, counter=counter)
        with self._span("bench.update"):
            params.zero_grad()
        result = M.forward(params, example, counter=counter)
        result.total.backward()
        with self._span("bench.update"):
            for node in params.named_parameters().values():
                node.value -= LEARNING_RATE * node.grad
        return result

    def _span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def fail(self, where: str, detail: str) -> None:
        if not self._reported:  # the first failure is enough to find the cause
            print(f"window failed ({where}): {detail}", file=sys.stderr)
            self._reported = True

    def run(self, seconds: float, min_windows: int, windows=None, tracer=None,
            on_window=None) -> LoopResult:
        """Closed loop for ``seconds`` and at least ``min_windows`` windows.

        Train workloads cycle over their fixed window set, restarting the
        parameters from their initial values at every epoch, so each epoch
        repeats the same steps and its losses must match the first epoch's.
        Inference takes each window once and stops early when the pool is
        used up. With a ``tracer``, each window is a ``bench.window`` span
        and a FlopCounter is passed to ``forward``.
        """
        windows = self.windows if windows is None else windows
        self.tracer = tracer
        out = LoopResult()
        start = time.perf_counter()
        deadline = start + seconds
        i = 0
        try:
            while self.wl.train or i < len(windows):
                k = i % len(windows)
                if self.wl.train and k == 0:
                    self.params.load_values(self.initial)
                counter = None
                out.calibrations.append(calibrate())
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        result = self.step(windows[k])
                    else:
                        counter = tracer.counter = M.FlopCounter()
                        tracer.window = i
                        try:
                            with tracer.span("bench.window"):
                                result = self.step(windows[k], counter)
                        finally:
                            tracer.counter = None
                except Exception:
                    out.durations.append(time.perf_counter() - t0)
                    out.losses.append(math.nan)
                    out.ok.append(False)
                    self.fail(f"window {i}", traceback.format_exc())
                else:
                    out.durations.append(time.perf_counter() - t0)
                    loss = float(result.total.value.item())
                    out.losses.append(loss)
                    problems = output_problems(result)
                    if self.wl.train and i >= len(windows):
                        if loss_mismatches([loss], [out.losses[k]]):
                            problems.append(f"epoch repeat loss {loss!r} != {out.losses[k]!r}")
                    if on_window is not None:
                        problems += on_window(i, windows[k], result, counter)
                    out.ok.append(not problems)
                    if problems:
                        self.fail(f"window {i}", "; ".join(problems))
                i += 1
                if i >= min_windows and time.perf_counter() >= deadline:
                    break
        finally:
            self.tracer = None
        out.elapsed = time.perf_counter() - start
        return out

    def reference_run(self) -> LoopResult:
        """Steps over the first reference windows made from REFERENCE_SEED,
        from the initial parameters; restores the parameters afterwards."""
        wl = self.wl
        windows = make_windows(wl, REFERENCE_SEED, wl.pool_size(0))[: wl.reference_windows]
        result = self.run(0.0, len(windows), windows=windows)
        self.params.load_values(self.initial)
        return result

    def check_reference(self, expected: list[float]) -> tuple[int, int]:
        """(attempted, failed) of the reference check against ``expected``."""
        result = self.reference_run()
        bad = set(loss_mismatches(result.losses, expected))
        if bad:
            self.fail("reference", f"loss mismatch at {sorted(bad)}: {result.losses} vs {expected}")
        bad |= {i for i, ok in enumerate(result.ok) if not ok}
        return max(len(result.losses), len(expected)), len(bad)


def _mean(values: list[float]) -> float:
    """NaN when every counted window failed before it could be counted."""
    return statistics.fmean(values) if values else math.nan


def trace_window_counts(session: Session, example, result, counter) -> tuple[dict, list[str]]:
    """Counts for one traced window and the accounting cross-check.

    The FlopCounter total must equal heads * d_k * (sum of the key-set sizes
    the hierarchy gives + the top scale's node count, which the summary
    attention reads). Runs with the tracer paused.
    """
    cfg = session.config
    h = M.hierarchy_for(cfg, example.history.times)
    S = h.num_scales
    sizes = M.hierarchy_key_set_sizes(h, causal=cfg.causal)
    per_key = cfg.num_heads * cfg.head_dim
    n_top = len(h.active_nodes(S))
    expected = per_key * (sum(map(sum, sizes)) + n_top)
    _, allpair = M.count_attention_flops(
        len(example.history), 1, cfg.num_heads, cfg.head_dim, sizes
    )
    counts = {
        "graph_nodes": graph_size(result.total),
        "frontier": [len(h.frontier(s)) for s in range(1, S + 1)],
        "active": [len(h.active_nodes(s)) for s in range(1, S + 1)],
        "scale_mults": [per_key * sum(ks) for ks in sizes],
        "allpair": allpair,
    }
    problems = []
    if counter.count != expected:
        problems.append(f"FlopCounter total {counter.count} != accounted {expected}")
    return counts, problems


def traced_metrics(session: Session, tracer: Tracer, seconds: float, setup_factor: float
                   ) -> tuple[dict[str, tuple[float, str]], LoopResult, LoopResult]:
    """Untraced then traced halves of a run, and the per-layer metrics.

    ``tracer`` already holds the set-up spans (window -1), which
    ``setup_factor`` scales to the nominal machine. Times are means per
    traced window at nominal speed; counts are means over the first
    ``count_windows`` traced windows, so they repeat exactly for a seed.
    """
    wl = session.wl
    # Inference gives each half its own half of the pool, so the traced
    # half always counts the same windows.
    half = len(session.windows) // 2
    plain = session.run(seconds / 2, 1, windows=None if wl.train else session.windows[:half])
    window_counts: dict[int, dict] = {}

    def on_window(i, example, result, counter):
        if i >= wl.count_windows:
            return []
        tracer.paused = True
        try:
            counts, problems = trace_window_counts(session, example, result, counter)
        finally:
            tracer.paused = False
        window_counts[i] = counts
        return problems

    pool = session.windows if wl.train else session.windows[half:]
    with tracer:
        traced = session.run(seconds / 2, wl.count_windows, windows=pool, tracer=tracer,
                             on_window=on_window)

    spans = per_window(tracer.spans)
    setup = spans.pop(-1, {})
    n = len(traced.durations)
    scales = range(1, NUM_SCALES + 1)

    # Per-scale executed multiplications must match the hierarchy's key sets.
    for w, counts in window_counts.items():
        seen = [spans[w][f"model.attn.s{s}"]["mults"] for s in scales]
        if seen != counts["scale_mults"]:
            traced.ok[w] = False
            session.fail(f"window {w}", f"per-scale mults {seen} != {counts['scale_mults']}")

    factors = traced.factors()

    def mean_time(name: str) -> float:
        total = sum(spans[w][name]["self_s"] * factors[w] for w in spans if name in spans[w])
        return total / n * 1e3

    def mean_span(name: str, key: str) -> float:
        return _mean([spans[w][name][key] for w in window_counts])

    def mean_count(key: str, s: int | None = None) -> float:
        return _mean([c[key] if s is None else c[key][s - 1] for c in window_counts.values()])

    m: dict[str, tuple[float, str]] = {}
    m["events.prepare_s"] = (setup["events.prepare"]["self_s"] * setup_factor, "s")
    m["hierarchy.build_ms"] = (mean_time("hierarchy.build"), "ms")
    m["hierarchy.query_ms"] = (mean_time("hierarchy.query"), "ms")
    m["hierarchy.query_calls"] = (mean_span("hierarchy.query", "calls"), "count")
    for s in scales:
        m[f"hierarchy.frontier_nodes.s{s}"] = (mean_count("frontier", s), "count")
    for s in scales:
        m[f"hierarchy.active_nodes.s{s}"] = (mean_count("active", s), "count")
    m["encoding.embed_ms"] = (mean_time("encoding.embed"), "ms")
    for s in scales:
        m[f"model.attn_ms.s{s}"] = (mean_time(f"model.attn.s{s}"), "ms")
    mults = [mean_span(f"model.attn.s{s}", "mults") for s in scales]
    for s in scales:
        m[f"model.attn_mults.s{s}"] = (mults[s - 1], "count")
    m["model.attn_mults_executed"] = (sum(mults), "count")
    m["model.attn_mults_allpair"] = (mean_count("allpair"), "count")
    m["model.attn_mults_ratio"] = (sum(mults) / mean_count("allpair"), "ratio")
    m["model.pool_ms"] = (mean_time("model.pool"), "ms")
    m["model.encode_self_ms"] = (mean_time("model.encode"), "ms")
    m["model.summary_ms"] = (mean_time("model.summary"), "ms")
    m["model.forward_self_ms"] = (mean_time("model.forward"), "ms")
    m["tensor.graph_nodes"] = (mean_count("graph_nodes"), "count")
    # Inference runs no backward pass and no update: both read 0 there.
    m["tensor.backward_ms"] = (mean_time("tensor.backward"), "ms")
    m["bench.update_ms"] = (mean_time("bench.update"), "ms")
    m["trace.unaccounted_ms"] = (mean_time("bench.window"), "ms")
    m["trace.window_ms"] = (statistics.fmean(traced.nominal_s()) * 1e3, "ms")
    m["trace.untraced_window_ms"] = (statistics.fmean(plain.nominal_s()) * 1e3, "ms")
    # Share of windows_per_s lost to tracing.
    m["trace.overhead_share"] = (
        1.0 - m["trace.untraced_window_ms"][0] / m["trace.window_ms"][0], "ratio")
    return m, plain, traced
