"""Timing spans around the layers of ``nextevent``, installed from outside.

A :class:`Tracer` replaces the module attributes and class methods named by
its targets with wrappers that record one span per call, and puts the
originals back when its ``with`` block ends. Nothing in the package itself
knows about tracing.

A span records its name, start, end, parent span and window id. A call into
a layer whose innermost open span already belongs to that layer opens no new
span (``key_set`` calls ``frontier``, ``pool_groups`` calls
``active_nodes``), so such nested calls count once. A span's self time is its
duration minus the durations of its direct children; the program is single
threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, NamedTuple


class Target(NamedTuple):
    """One attribute to wrap: ``owner.attr`` belongs to ``layer``.

    ``scale_arg`` is the position of the scale argument, when spans of this
    layer are kept apart per scale (their names end in ``.s<scale>``).
    """

    owner: Any
    attr: str
    layer: str
    scale_arg: int | None = None


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "window", "mults")

    def __init__(self, name, layer, start, parent, window):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent  # index into Tracer.spans, -1 for a root span
        self.window = window
        self.mults = 0  # score multiplications the FlopCounter saw inside

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "window": self.window,
            "mults": self.mults,
        }


class Tracer:
    """Records spans in memory while installed as a context manager.

    ``window`` tags new spans; ``counter`` (a ``FlopCounter`` or None) is
    read at both ends of every span. Setting ``paused`` lets the benchmark
    call wrapped functions for its own bookkeeping without recording them.
    """

    def __init__(self, targets: list[Target], clock: Callable[[], float] = time.perf_counter):
        self.targets = list(targets)
        self.clock = clock
        self.spans: list[Span] = []
        self.window = -1
        self.counter = None
        self.paused = False
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        if self._originals:
            raise RuntimeError("tracer is already installed")
        try:
            for t in self.targets:
                original = vars(t.owner)[t.attr]
                self._originals.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self._wrap(original, t))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def open(self, name: str, layer: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer or name, self.clock(), parent, self.window)
        if self.counter is not None:
            span.mults = -self.counter.count
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        span = self.spans[index]
        span.end = self.clock()
        if self.counter is not None:
            span.mults += self.counter.count
        else:
            span.mults = 0

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens around its own code."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _wrap(self, fn, target: Target):
        tracer = self
        layer, scale_arg = target.layer, target.scale_arg

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = tracer._stack
            if tracer.paused or (stack and tracer.spans[stack[-1]].layer == layer):
                return fn(*args, **kwargs)
            name = layer if scale_arg is None else f"{layer}.s{args[scale_arg]}"
            index = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return wrapped


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def per_window(spans: list[Span]) -> dict[int, dict[str, dict[str, float]]]:
    """Per window id and span name: summed self time, call count and mults."""
    out: dict[int, dict[str, dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: {"self_s": 0.0, "calls": 0, "mults": 0})
    )
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.window][span.name]
        entry["self_s"] += own
        entry["calls"] += 1
        entry["mults"] += span.mults
    return out
