"""Tests of the benchmark harness itself, on workloads small enough to run
in well under a second."""

import dataclasses
import importlib
import json
import re
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

from nextevent import model as M
from spans import Target, Tracer, per_window, self_times
from workloads import (
    WORKLOADS, Session, Workload, layer_targets, loss_mismatches, output_problems, percentile,
    traced_metrics, window_summary,
)

BENCH_DIR = Path(__file__).resolve().parent
TINY_TRAIN = Workload("tiny_train", True, "multiscale", 16, True,
                      loss_windows=3, count_windows=2, reference_windows=2)
TINY_INFER = Workload("tiny_infer", False, "hawkes", 16, False,
                      loss_windows=4, count_windows=2, reference_windows=3)


class Fake:
    def outer(self):
        self.inner()
        return self.leaf()

    def inner(self):
        return 1

    def leaf(self):
        return 2


def test_self_time_counts_nested_call_into_same_layer_once():
    ticks = iter(range(100))
    tracer = Tracer(
        [Target(Fake, "outer", "a"), Target(Fake, "inner", "a"), Target(Fake, "leaf", "b")],
        clock=lambda: float(next(ticks)),
    )
    with tracer:
        with tracer.span("root"):
            assert Fake().outer() == 2
    # root [0, 5] > a [1, 4] (inner opens no span) > b [2, 3]
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("root", 0.0, 5.0, -1), ("a", 1.0, 4.0, 0), ("b", 2.0, 3.0, 1),
    ]
    assert self_times(tracer.spans) == [2.0, 2.0, 1.0]
    window = per_window(tracer.spans)[-1]
    assert window["a"] == {"self_s": 2.0, "calls": 1, "mults": 0}
    assert window["b"]["calls"] == 1


def test_percentiles_and_sample_count():
    assert percentile(list(range(1, 11)), 50) == 5.5
    assert percentile(list(range(1, 11)), 90) == pytest.approx(9.1)
    values = list(np.random.default_rng(3).exponential(size=37))
    for q in (0, 50, 90, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))
    summary = window_summary([0.004, 0.001, 0.002, 0.003])
    assert summary == {"p50_ms": pytest.approx(2.5), "p90_ms": pytest.approx(3.7), "samples": 4}


def _wrapped_attributes():
    return {(t.owner, t.attr): vars(t.owner)[t.attr] for t in layer_targets()}


@pytest.mark.parametrize("wl", [TINY_TRAIN, TINY_INFER], ids=lambda w: w.name)
def test_untraced_run_leaves_wrapped_attributes_identical(wl):
    originals = _wrapped_attributes()
    session = Session(wl, seed=1, seconds=0.01)
    result = session.run(0.0, wl.loss_windows)
    assert result.failed == 0 and len(result.ok) == wl.loss_windows
    assert all(_wrapped_attributes()[k] is v for k, v in originals.items())

    tracer = Tracer(layer_targets())
    with tracer:
        assert all(_wrapped_attributes()[k] is not v for k, v in originals.items())
        session = Session(wl, seed=1, seconds=0.01)
    assert all(_wrapped_attributes()[k] is v for k, v in originals.items())
    metrics, plain, traced = traced_metrics(session, tracer, 0.01, 1.0)
    assert plain.failed == 0 and traced.failed == 0
    assert all(_wrapped_attributes()[k] is v for k, v in originals.items())


def test_traced_counts_repeat_and_match_benchmark_json():
    def counts():
        tracer = Tracer(layer_targets())
        with tracer:
            session = Session(TINY_TRAIN, seed=2, seconds=0.01)
        metrics, _, traced = traced_metrics(session, tracer, 0.01, 1.0)
        assert traced.failed == 0
        return metrics

    first, second = counts(), counts()
    benchmark = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    declared = benchmark["per_layer"]
    assert [m["name"] for m in declared] == list(first)
    assert [m["unit"] for m in declared] == [unit for _, unit in first.values()]
    for name, (value, unit) in first.items():
        if unit == "count":
            assert second[name][0] == value, name
    assert first["tensor.backward_ms"][0] > 0.0


def test_output_check_flags_perturbed_loss():
    expected = [1.25, 0.5, 3.0]
    assert loss_mismatches(list(expected), expected) == []
    assert loss_mismatches([1.25, 0.5 * (1 + 1e-11), 3.0], expected) == [1]
    assert loss_mismatches([1.25, float("nan"), 3.0], expected) == [1]
    assert loss_mismatches([1.25, 0.5], expected) == [0, 1, 2]

    session = Session(TINY_INFER, seed=1, seconds=0.01)
    reference = session.reference_run().losses
    assert session.check_reference(reference) == (3, 0)
    perturbed = list(reference)
    perturbed[2] *= 1 + 1e-10
    assert session.check_reference(perturbed) == (3, 1)


def test_output_check_flags_bad_probabilities_and_parameters():
    session = Session(TINY_INFER, seed=1, seconds=0.01)
    good = M.forward(session.params, session.windows[0])
    assert output_problems(good) == []
    assert output_problems(dataclasses.replace(good, type_probs=good.type_probs * 1.001))
    assert output_problems(dataclasses.replace(good, lam=0.0))
    assert output_problems(dataclasses.replace(good, gamma=float("inf")))


def _resolve(dotted: str):
    parts = dotted.split(".")
    obj = importlib.import_module(".".join(parts[:2]))
    for name in parts[2:]:
        if hasattr(obj, name):
            obj = getattr(obj, name)
        elif name in getattr(obj, "__dataclass_fields__", {}) or name in vars(obj()):
            obj = None
        else:
            raise AttributeError(dotted)
    return obj


def test_public_surface_list_resolves():
    names = re.findall(r"^- `(nextevent\.[\w.]+)`", (BENCH_DIR / "SURFACE.md").read_text(), re.M)
    for name in names:
        _resolve(name)
    for t in layer_targets():
        owner = t.owner.__name__ if isinstance(t.owner, ModuleType) \
            else f"{t.owner.__module__}.{t.owner.__qualname__}"
        assert f"{owner}.{t.attr}" in names
