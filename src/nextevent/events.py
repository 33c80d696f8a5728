"""Event sequence data model, synthetic generators, windowing and time
normalization.

An event sequence is an ordered list of (time, type) pairs with integer
types in ``[0, num_types)``. One rule, which :class:`EventSequence` applies to
every caller, says what a time and a type id are: a time is a number that
numpy holds as an int, uint or float, and a type id one it holds as an int or
uint. Anything else is rejected, not cast: a float type id such as ``2.0``, a
bool or a string. An array of an accepted dtype kind is judged with no
per-element Python work. Times must strictly increase: a regression is
rejected rather than re-sorted, and an exact tie is rejected too, because it
would make the clustering hierarchy order-dependent. Normalization shifts
every sequence to start at zero and divides by one global mean gap. That mean
gap, a ``float``, is all the state it returns; it keeps none per sequence, so
sequences that share an id are normalized independently.

Windows cost nothing until they are read: :func:`make_examples` checks a
sequence once and returns a read-only sequence of windows that builds each
window when it is read. A window's history is a read-only view of the
sequence's arrays and its target is read from them at that moment, so the
windows of a long sequence hold no memory until read and one that is read
holds a few small objects, not a copy of its events.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, check_int, check_real

__all__ = [
    "EventSequence",
    "PredictionExample",
    "generate_hawkes",
    "generate_multiscale",
    "make_examples",
    "normalize_times",
]


def _holds(value, kinds: str) -> bool:
    """Whether numpy holds ``value`` as one scalar of a dtype kind in ``kinds``."""
    return isinstance(value, (int, float, np.generic)) and np.asarray(value).dtype.kind in kinds


def _checked(values, seq_id: str, name: str, rule: str, kinds: str) -> np.ndarray:
    """``values`` as an array whose elements numpy each holds as a dtype kind in
    ``kinds``: an array of such a kind passes with no per-element work, and
    otherwise the first element that is not is named."""
    array = values
    if not isinstance(values, np.ndarray):
        try:  # np.asarray would read a bool among numbers as 0 or 1
            bools = isinstance(values, (list, tuple)) and not {bool, np.bool_}.isdisjoint(
                map(type, values))
            array = np.array(values, dtype=object) if bools else np.asarray(values)
        except ValueError:
            raise DataError(f"sequence {seq_id!r}: {name}s are a ragged list") from None
    if array.dtype.kind not in kinds:
        # Read a flat list as given: np.asarray turns its numbers to str if it holds one.
        flat = (values if isinstance(values, (list, tuple)) and array.ndim == 1
                else array.reshape(-1).tolist())
        bad = next((i for i, v in enumerate(flat) if not _holds(v, kinds)), None)
        if bad is not None:
            raise DataError(f"sequence {seq_id!r}: {name} at event {bad} is not {rule}:"
                            f" {flat[bad]!r}")
    return array


# The largest num_types, so that every type id below it fits int64.
_MAX_NUM_TYPES = int(np.iinfo(np.int64).max)


@dataclass
class EventSequence:
    """(time, type) pairs: finite, strictly increasing times and dense
    integer types in [0, num_types). It judges times and type ids for every
    caller: a time is a number numpy holds as an int, uint or float, a type
    id one it holds as an int or uint, and a bool or a string neither. No
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
        self.times = _checked(self.times, self.seq_id, "time", "a real number", "iuf"
                              ).astype(np.float64, copy=False)
        self.types = _checked(self.types, self.seq_id, "type id", "an integer", "iu")
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
        if self.num_types > _MAX_NUM_TYPES:
            raise DataError(f"num_types must be at most {_MAX_NUM_TYPES}, the int64 maximum,"
                            f" got {self.num_types}")
        if self.types.size and (self.types.min() < 0 or self.types.max() >= self.num_types):
            raise DataError(
                f"sequence {self.seq_id!r}: type ids must lie in [0, {self.num_types})"
            )
        # In range, so a uint64 type id casts exactly.
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
    """A history window plus the next event it should predict. The history
    must be an :class:`EventSequence`. The target type follows the rule for a
    sequence's types: a number numpy holds as an int or uint, in
    ``[0, history.num_types)``, stored as an ``int``; the target time is a
    finite real after the history, stored as a ``float``."""

    history: EventSequence
    target_time: float
    target_type: int

    def __post_init__(self):
        if not isinstance(self.history, EventSequence):
            raise DataError(f"history must be an EventSequence, got {type(self.history).__name__}")
        if len(self.history) < 2:
            raise DataError("history must contain at least 2 events")
        k = self.target_type
        if not _holds(k, "iu") or not 0 <= k < self.history.num_types:
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
    if not isinstance(seq, EventSequence):
        raise DataError(f"seq must be an EventSequence, got {type(seq).__name__}")
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


def normalize_times(seqs: Iterable[EventSequence], mode: str) -> tuple[list[EventSequence], float]:
    """Shift each sequence to start at zero and divide by the mean gap: the
    times become ``(times - times[0]) / mean_gap``. ``mode`` must be
    ``"shift_and_scale"``; the benchmark passes it.

    Returns the sequences and ``mean_gap``, a ``float``: the mean inter-event
    gap of ``seqs``. A gap ``g`` in model units is ``g * mean_gap`` in the
    original ones. ``seqs`` may be any iterable, read once; an item that is
    not an :class:`EventSequence` raises :class:`DataError`.
    """
    if mode != "shift_and_scale":
        raise ConfigError(f"mode must be 'shift_and_scale', got {mode!r}")
    seqs = list(seqs)
    for i, seq in enumerate(seqs):
        if not isinstance(seq, EventSequence):
            raise DataError(f"seqs[{i}] must be an EventSequence, got {type(seq).__name__}")
    gaps = np.concatenate([np.empty(0)] + [np.diff(s.times) for s in seqs])
    if gaps.size == 0:  # times strictly increase, so any gap is positive
        raise ConfigError("cannot scale: no sequence has a mean inter-event gap")
    with np.errstate(over="ignore"):
        mean_gap = gaps.mean()
    if not np.isfinite(mean_gap):  # finite gaps whose sum overflows
        peak = gaps.max()
        mean_gap = (gaps / peak).mean() * peak
    mean_gap = float(mean_gap)
    return [EventSequence((seq.times - seq.times[:1]) / mean_gap, seq.types.copy(),
                          seq.num_types, seq.seq_id) for seq in seqs], mean_gap
