"""Event sequence data model, file ingestion, synthetic generators, windowing
and time normalization.

Files are JSONL in and out, whatever their suffix: one object per sequence,
``{"id": ..., "times": [...], "types": [...]}``, so an empty sequence has a
line of its own.

An event sequence is an ordered list of (time, type) pairs with integer
types in ``[0, num_types)``. One rule, which :class:`EventSequence` applies to
every caller, says what a time and a type id are. A time is a real number
that numpy holds as an int, uint or float. A type id is an integer or a float
that holds a whole number; anything else is rejected, not truncated. A bool
or a string is neither, in a list or as an array's dtype, and an int, uint or
float array is judged with no per-element Python work. The loader validates
ordering rather than silently re-sorting; exact duplicate timestamps are
nudged forward by a tiny fraction of the mean gap (with a warning) because
exact ties would make the clustering hierarchy order-dependent. Normalization
shifts every sequence to start at zero and may divide by one global mean gap.
That mean gap, a ``float``, is all the state it returns; it keeps none per
sequence, so sequences that share an id are normalized independently.

Windows cost nothing until they are read: :func:`make_examples` checks a
sequence once and returns a read-only sequence of windows that builds each
window when it is read. A window's history is a read-only view of the
sequence's arrays and its target is read from them at that moment, so the
windows of a long sequence hold no memory until read and one that is read
holds a few small objects, not a copy of its events.
"""

from __future__ import annotations

import json
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, check_int, check_real, is_type_id

__all__ = [
    "EventSequence",
    "PredictionExample",
    "load_sequences",
    "save_sequences",
    "generate_hawkes",
    "generate_multiscale",
    "make_examples",
    "normalize_times",
    "apply_normalization",
]


def _checked(values, seq_id: str, name: str, rule: str, passes, ok) -> np.ndarray:
    """``values`` as an array whose elements are each ``rule``: ``passes``
    judges the whole array with no per-element work, and only when it fails
    does ``ok`` look for the first element that is not."""
    array = values
    if not isinstance(values, np.ndarray):
        try:  # np.asarray would read a bool among numbers as 0 or 1
            bools = isinstance(values, (list, tuple)) and not {bool, np.bool_}.isdisjoint(
                map(type, values))
            array = np.array(values, dtype=object) if bools else np.asarray(values)
        except ValueError:
            raise DataError(f"sequence {seq_id!r}: {name}s are a ragged list") from None
    if not passes(array):
        # Read a flat list as given: np.asarray turns its numbers to str if it holds one.
        flat = (values if isinstance(values, (list, tuple)) and array.ndim == 1
                else array.reshape(-1).tolist())
        bad = next((i for i, v in enumerate(flat) if not ok(v)), None)
        if bad is not None:
            raise DataError(f"sequence {seq_id!r}: {name} at event {bad} is not {rule}:"
                            f" {flat[bad]!r}")
    return array


def _time_array(values, seq_id: str) -> np.ndarray:
    """``values`` as ``float64`` times, if numpy holds each as an int, uint or float."""
    return _checked(values, seq_id, "time", "a real number", lambda a: a.dtype.kind in "iuf",
                    lambda v: np.ndim(v) == 0 and np.asarray(v).dtype.kind in "iuf"
                    ).astype(np.float64, copy=False)


def _whole(types: np.ndarray) -> bool:
    return types.dtype.kind in "iu" or types.dtype.kind == "f" and bool(
        (np.isfinite(types) & (np.floor(types) == types)).all())


# The largest num_types, so that every type id below it fits int64. The
# loader passes it until every line is read.
_NO_BOUND = int(np.iinfo(np.int64).max)


@dataclass
class EventSequence:
    """(time, type) pairs: finite, strictly increasing times and dense
    integer types in [0, num_types). It judges times and type ids for every
    caller: a time is a number numpy holds as an int, uint or float, a type
    id an integer or a whole float, and a bool or a string neither. No
    difference of two times may overflow, ``num_types`` may not exceed the
    int64 maximum, and ``seq_id`` must be a ``str``.

    Construction checks the whole sequence and stores ``times`` as
    ``float64``, ``types`` as ``int64`` and ``num_types`` as an ``int``. The
    histories that :func:`make_examples` cuts from a sequence skip these
    checks, which a contiguous slice of a checked sequence passes by
    construction; they are read-only views of the sequence's arrays.
    """

    times: np.ndarray
    types: np.ndarray
    num_types: int
    seq_id: str = ""

    def __post_init__(self):
        if not isinstance(self.seq_id, str):
            raise DataError(f"seq_id must be a str, got {self.seq_id!r}")
        self.times = _time_array(self.times, self.seq_id)
        self.types = _checked(self.types, self.seq_id, "type id", "an integer", _whole,
                              is_type_id)
        if self.times.shape != self.types.shape or self.times.ndim != 1:
            raise DataError(
                f"sequence {self.seq_id!r}: times and types must be equal-length"
                f" 1-D arrays, got {self.times.shape} and {self.types.shape}"
            )
        finite = np.isfinite(self.times)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise DataError(f"sequence {self.seq_id!r}: non-finite time at event {bad}")
        with np.errstate(over="ignore"):  # an overflow is reported below, not warned
            gaps = np.diff(self.times)
            bad_gaps = (gaps <= 0) | np.isinf(self.times[1:] - self.times[:1])
        if bad_gaps.any():
            bad = int(np.argmax(bad_gaps))
            kind = ("tied time" if gaps[bad] == 0 else "time regression" if gaps[bad] < 0
                    else "time span overflow")
            raise DataError(f"sequence {self.seq_id!r}: {kind} at event {bad + 1}")
        self.num_types = check_int("num_types", self.num_types, error=DataError)
        if self.num_types > _NO_BOUND:
            raise DataError(f"num_types must be at most {_NO_BOUND}, the int64 maximum,"
                            f" got {self.num_types}")
        if self.types.size and (self.types.min() < 0 or self.types.max() >= self.num_types):
            raise DataError(
                f"sequence {self.seq_id!r}: type ids must lie in [0, {self.num_types})"
            )
        # In range, so a float type id casts exactly.
        self.types = self.types.astype(np.int64, copy=False)

    def __len__(self):
        return len(self.times)

    def __eq__(self, other):
        """Equal content: the same times and types, ``num_types`` and ``seq_id``."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num_types, self.seq_id) == (other.num_types, other.seq_id) and all(
            map(np.array_equal, (self.times, self.types), (other.times, other.types)))


@dataclass
class PredictionExample:
    """A history window plus the next event it should predict. The target
    type follows the rule for a sequence's types: an integer, or a float that
    holds a whole number, in ``[0, history.num_types)``, stored as an ``int``;
    the target time is a finite real after the history, stored as a ``float``."""

    history: EventSequence
    target_time: float
    target_type: int

    def __post_init__(self):
        if len(self.history) < 2:
            raise DataError("history must contain at least 2 events")
        k = self.target_type
        if not is_type_id(k) or not 0 <= k < self.history.num_types:
            raise DataError(f"target_type must be an integer in"
                            f" [0, {self.history.num_types}), got {k!r}")
        self.target_type = int(k)
        self.target_time = check_real("target_time", self.target_time, -math.inf, error=DataError)
        if self.target_time <= self.history.times[-1]:
            raise DataError("target_time must exceed the last history time")

    @property
    def target_gap(self) -> float:
        return float(self.target_time - self.history.times[-1])


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------


def _dedupe_times(times: np.ndarray, seq_id: str) -> np.ndarray:
    """Nudge exact duplicate timestamps forward by 1e-9 * mean gap, and by at
    least one ulp so that large timestamps still become distinct.

    Times that regress, whose span overflows, or that are not finite, are
    returned as they are, for :class:`EventSequence` to reject by event."""
    if times.size < 2:
        return times
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = np.diff(times)
        if not np.any(diffs == 0.0) or np.any(diffs < 0.0):
            return times
        mean_gap = float(diffs.mean())
    if not math.isfinite(mean_gap):
        return times
    if mean_gap == 0.0:
        raise DataError(f"sequence {seq_id!r}: all timestamps identical")
    eps = 1e-9 * mean_gap
    out = times.copy()
    with np.errstate(over="ignore"):
        for i in range(1, len(out)):
            if out[i] <= out[i - 1]:
                out[i] = max(out[i - 1] + eps, np.nextafter(out[i - 1], np.inf))
    if np.isinf(out[-1]):  # a tie at the largest float has no larger neighbour
        bad = int(np.argmax(np.isinf(out)))
        raise DataError(f"sequence {seq_id!r}: tied time at event {bad} cannot be nudged"
                        f" without overflow")
    warnings.warn(
        f"sequence {seq_id!r}: duplicate timestamps perturbed by up to"
        f" {np.max(out - times):.3g}",
        stacklevel=3,
    )
    return out


def load_sequences(path, num_types: int | None = None) -> list[EventSequence]:
    """Load sequences from a JSONL file, whatever its suffix: one object
    ``{"id": ..., "times": [...], "types": [...]}`` per line, blank lines
    skipped.

    Each line is decoded as UTF-8 in any locale. ``id`` must be a string and
    ``times`` and ``types`` lists. :class:`EventSequence` judges those as it
    judges every caller's, once exact duplicate times are nudged apart: a
    time is a real number, a type id an integer or a whole float, and a bool
    or a string is neither. Every :class:`DataError` a line causes names its
    ``path:line``.
    ``num_types`` must be an integer >= 1, else :class:`ConfigError`, and
    defaults to one past the largest type id seen.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    if num_types is not None:
        num_types = check_int("num_types", num_types)
    out = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
                del line  # as large as the lists it holds, which become arrays below
                if not isinstance(obj, dict):
                    raise DataError("expected a JSON object")
                seq_id, times, types = obj["id"], obj["times"], obj["types"]
                if not isinstance(seq_id, str):
                    raise DataError(f"id must be a string, got {json.dumps(seq_id)}")
                if not isinstance(times, list) or not isinstance(types, list):
                    raise DataError("times and types must be lists")
                times = _dedupe_times(_time_array(times, seq_id), seq_id)
                out.append(EventSequence(times, types, num_types or _NO_BOUND, seq_id))
            except UnicodeDecodeError as e:
                raise DataError(f"{path}:{lineno}: not UTF-8 ({e.reason})") from None
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: invalid JSON ({e.msg})") from None
            except KeyError as e:
                raise DataError(f"{path}:{lineno}: missing key {e}") from None
            except DataError as e:
                raise DataError(f"{path}:{lineno}: {e}") from None
    if not out:
        warnings.warn(f"{path}: no sequences found", stacklevel=2)
        return []
    if num_types is None:
        seen = [seq.types.max() for seq in out if len(seq)]
        if not seen:
            raise DataError(f"{path}: every sequence is empty, so num_types must be given")
        num_types = 1 + int(max(seen))
        for seq in out:  # every id is below it
            seq.num_types = num_types
    return out


def save_sequences(path, sequences: list[EventSequence]) -> None:
    """Write sequences as the JSONL that :func:`load_sequences` reads,
    whatever the path's suffix: one line per sequence, empty ones included."""
    with open(path, "w") as fh:
        for seq in sequences:
            record = {"id": seq.seq_id, "times": seq.times.tolist(), "types": seq.types.tolist()}
            fh.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------


# Neither generator starts a call whose expected event count exceeds this:
# each event is drawn in Python and held in a list until the call returns.
_MAX_EVENTS = 10**7


def _check_work(expected: float) -> None:
    if not expected <= _MAX_EVENTS:
        raise ConfigError(f"the parameters ask for about {expected:.3g} events,"
                          f" more than the {_MAX_EVENTS} one call may generate")


def generate_hawkes(
    num_seqs: int,
    horizon: float,
    base_rate: float,
    excitation: float,
    decay: float,
    num_types: int,
    seed: int,
) -> list[EventSequence]:
    """Simulate a univariate self-exciting process by Ogata thinning.

    Intensity: lambda(t) = base_rate + sum_j excitation * exp(-decay (t - t_j)).
    Requires excitation < decay (stationarity). Between events the intensity
    only decays, so the value just after the latest event is a valid
    thinning bound. Types are drawn uniformly. Every parameter is checked
    before the first draw; the rates and the horizon must be finite, ``seed``
    a non-negative integer, and the expected total
    ``num_seqs * base_rate * horizon / (1 - excitation / decay)`` at most
    ``_MAX_EVENTS``.

    Draw order: per sequence, each candidate draws an exponential gap
    ``rng.exponential(1 / bound)`` and, unless it passes the horizon, one
    uniform ``rng.random()`` for the thinning test; then the sequence draws
    all its types with one ``rng.integers(0, num_types, size=n)``. Any
    change to these calls or their order changes every generated sequence,
    and with them ``bench/reference.json``.
    """
    num_seqs = check_int("num_seqs", num_seqs)
    horizon = check_real("horizon", horizon)
    base_rate = check_real("base_rate", base_rate)
    decay = check_real("decay", decay)
    excitation = check_real("excitation", excitation, low_included=True)
    if excitation >= decay:
        raise ConfigError(
            f"non-stationary parameters: excitation {excitation} must be < decay {decay}"
        )
    num_types = check_int("num_types", num_types)
    seed = check_int("seed", seed, low=0)
    _check_work(num_seqs * base_rate * horizon / (1.0 - excitation / decay))
    rng = np.random.default_rng(seed)
    exponential, uniform = rng.exponential, rng.random
    sequences = []
    for s in range(num_seqs):
        times: list[float] = []
        t = 0.0
        excite = 0.0  # running sum of excitation kernels at time t
        while True:
            bound = base_rate + excite
            w = exponential(1.0 / bound)
            excite *= math.exp(-decay * w)
            t += w
            if t >= horizon:
                break
            if uniform() * bound <= base_rate + excite:
                times.append(t)
                excite += excitation
        types = rng.integers(0, num_types, size=len(times))
        sequences.append(
            EventSequence(np.asarray(times), types, num_types, seq_id=f"hawkes-{s}")
        )
    return sequences


def generate_multiscale(
    num_seqs: int,
    burst_rate: float,
    burst_size: int,
    gap_scale: float,
    num_types: int,
    seed: int,
    num_bursts: int = 8,
    pattern_noise: float = 0.1,
) -> list[EventSequence]:
    """Bursty sequences: dense clusters of events separated by long gaps.

    Within-burst gaps are Exponential(burst_rate) (mean 1/burst_rate); gaps
    between bursts are Exponential(1/gap_scale) (mean gap_scale). Types are
    split into a burst-opening pool and a within-burst pool so that temporal
    scale correlates with type, and follow a cyclic pattern (opener type
    cycles with the burst index, within-burst types cycle within the burst)
    flipped to a random in-pool type with probability ``pattern_noise``.
    Every parameter is checked before the first draw; ``seed`` must be a
    non-negative integer and ``num_seqs * num_bursts * burst_size`` at most
    ``_MAX_EVENTS``.

    Draw order: each event, in time order, draws its gap
    ``rng.exponential(gap_scale)`` (a burst's opener) or
    ``rng.exponential(1 / burst_rate)`` (the rest), then one uniform
    ``rng.random()`` for the flip test, then, only if it flips, one
    ``rng.integers(0, len(pool))`` indexing its pool. Any change to these
    calls or their order changes every generated sequence, and with them
    ``bench/reference.json``. A sequence's times are the running sum of its
    gaps, added one at a time.
    """
    num_seqs = check_int("num_seqs", num_seqs)
    burst_rate = check_real("burst_rate", burst_rate)
    burst_size = check_int("burst_size", burst_size)
    gap_scale = check_real("gap_scale", gap_scale)
    num_types = check_int("num_types", num_types)
    num_bursts = check_int("num_bursts", num_bursts)
    pattern_noise = check_real("pattern_noise", pattern_noise, high=1.0, low_included=True)
    seed = check_int("seed", seed, low=0)
    _check_work(num_seqs * num_bursts * burst_size)
    if burst_size == 1:
        warnings.warn(
            "burst_size=1 degenerates to a renewal process of long gaps",
            stacklevel=2,
        )
    n_open = max(1, num_types // 2)
    open_pool = list(range(n_open))
    within_pool = list(range(n_open, num_types)) if num_types > 1 else [0]
    n_within = len(within_pool)
    within_mean = 1.0 / burst_rate

    rng = np.random.default_rng(seed)
    exponential, uniform, integers = rng.exponential, rng.random, rng.integers
    sequences = []
    for s in range(num_seqs):
        gaps: list[float] = []
        types: list[int] = []
        for b in range(num_bursts):
            gaps.append(exponential(gap_scale))
            opener = open_pool[b % n_open]
            if uniform() < pattern_noise:
                opener = open_pool[integers(0, n_open)]
            types.append(opener)
            for j in range(1, burst_size):
                gaps.append(exponential(within_mean))
                k = within_pool[(b + j) % n_within]
                if uniform() < pattern_noise:
                    k = within_pool[integers(0, n_within)]
                types.append(k)
        sequences.append(
            EventSequence(
                np.cumsum(gaps), np.asarray(types), num_types, seq_id=f"multiscale-{s}"
            )
        )
    return sequences


# ---------------------------------------------------------------------------
# Windowing and normalization
# ---------------------------------------------------------------------------


def make_examples(seq: EventSequence, window: int) -> Sequence[PredictionExample]:
    """Sliding windows: history = events [i-window, i), target = event i.

    The sequence is checked once, with the same :class:`DataError` as its
    constructor, because its arrays may have been edited in place since. The
    result is a read-only sequence of the ``len(seq) - window`` windows (none
    when that is not positive) that builds each window when it is read, so
    it costs no memory per window until then. It takes integer indices,
    negative ones too, and slices, which give the same kind of sequence, as
    a list would; but each read builds a new example with equal content, and
    the sequence never compares equal to a list. A history is a read-only
    view of the sequence's times and types, and the target time and type
    are read from them as a ``float`` and an ``int`` when the window is
    read: editing the sequence's arrays afterwards changes its windows, their
    targets included.
    """
    window = check_int("window", window, low=2)
    seq = EventSequence(seq.times, seq.types, seq.num_types, seq.seq_id)
    times, types = seq.times.view(), seq.types.view()
    times.flags.writeable = types.flags.writeable = False
    return _Windows(seq, times, types, window, range(max(0, len(seq) - window)))


class _Windows(Sequence):
    """The windows of ``make_examples`` whose histories start at ``starts``."""

    __slots__ = ("_seq", "_times", "_types", "_window", "_starts")

    def __init__(self, seq: EventSequence, times: np.ndarray, types: np.ndarray, window: int,
                 starts: range):
        self._seq, self._times, self._types = seq, times, types
        self._window, self._starts = window, starts

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _Windows(self._seq, self._times, self._types, self._window,
                            self._starts[index])
        lo = self._starts[index]  # range raises IndexError and TypeError as a list does
        return _window(self._seq, self._times, self._types, lo, lo + self._window)


def _window(seq: EventSequence, times: np.ndarray, types: np.ndarray, lo: int,
            hi: int) -> PredictionExample:
    """The example whose history is events ``[lo, hi)`` of ``seq`` and whose
    target is event ``hi``, read as a ``float`` and an ``int``, built without
    the checks of either dataclass; ``times`` and ``types`` are read-only
    views of ``seq``'s arrays.

    ``seq`` passed those checks in :func:`make_examples`, and the window
    inherits all of them: a contiguous slice of finite, strictly increasing times is finite
    and strictly increasing, its types lie in the same range, it holds
    ``hi - lo >= 2`` events, and the target follows the last of them. Running
    them again for every window would cost more than building it.
    """
    history = object.__new__(EventSequence)
    history.times, history.types = times[lo:hi], types[lo:hi]
    history.num_types, history.seq_id = seq.num_types, f"{seq.seq_id}[{lo}:{hi}]"
    example = object.__new__(PredictionExample)
    example.history = history
    example.target_time, example.target_type = times.item(hi), types.item(hi)
    return example


NORM_MODES = ("shift_to_zero", "shift_and_scale")


def normalize_times(seqs: list[EventSequence], mode: str) -> tuple[list[EventSequence], float]:
    """Shift each sequence to start at zero, and with ``"shift_and_scale"``
    divide by the mean gap: the times become ``(times - times[0]) / mean_gap``.

    Returns the sequences and ``mean_gap``, a ``float``: the mean inter-event
    gap of ``seqs`` under ``"shift_and_scale"`` and 1.0 under
    ``"shift_to_zero"``. A gap ``g`` in model units is ``g * mean_gap`` in the
    original ones. Use :func:`apply_normalization` to reuse the scale on
    held-out data.
    """
    if mode not in NORM_MODES:
        raise ConfigError(f"unknown normalization mode {mode!r}, expected {NORM_MODES}")
    mean_gap = 1.0
    if mode == "shift_and_scale":
        gaps = np.concatenate([np.empty(0)] + [np.diff(s.times) for s in seqs])
        if gaps.size == 0:  # times strictly increase, so any gap is positive
            raise ConfigError("cannot scale: no sequence has a mean inter-event gap")
        with np.errstate(over="ignore"):
            mean_gap = gaps.mean()
        if not np.isfinite(mean_gap):  # finite gaps whose sum overflows
            peak = gaps.max()
            mean_gap = (gaps / peak).mean() * peak
        mean_gap = float(mean_gap)
    return apply_normalization(seqs, mean_gap), mean_gap


def apply_normalization(seqs: list[EventSequence], mean_gap: float) -> list[EventSequence]:
    """Shift each of ``seqs`` to start at zero and divide by ``mean_gap``, which
    must be a finite real number > 0 (:class:`ConfigError` otherwise); each
    sequence is normalized on its own."""
    mean_gap = check_real("mean_gap", mean_gap)
    return [
        EventSequence((seq.times - seq.times[:1]) / mean_gap, seq.types.copy(),
                      seq.num_types, seq.seq_id)
        for seq in seqs
    ]
