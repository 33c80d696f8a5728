"""Tests for event sequences, synthetic generators, windowing, normalization."""

import contextlib
import itertools
import json
import re
import signal
import tracemalloc
import warnings
from collections.abc import Sequence

import numpy as np
import pytest
from scipy import stats as scipy_stats

from nextevent.errors import ConfigError, DataError
from nextevent.events import (
    EventSequence,
    apply_normalization,
    generate_hawkes,
    generate_multiscale,
    make_examples,
    normalize_times,
)
import oracles as O
from conftest import nine_point_layout


class TestEventSequence:
    def test_rejects_time_regression(self):
        with pytest.raises(DataError, match="regression"):
            EventSequence([0.0, 2.0, 1.0], [0, 0, 0], 1)

    def test_rejects_tied_times(self):
        with pytest.raises(DataError, match="'s': tied time at event 2"):
            EventSequence([0.0, 1.0, 1.0, 2.0], [0, 0, 0, 0], 1, seq_id="s")

    def test_rejects_out_of_range_type(self):
        with pytest.raises(DataError, match="type ids"):
            EventSequence([0.0, 1.0], [0, 3], 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_times(self, bad):
        # NaN compares false, so the order check alone lets it through.
        with pytest.raises(DataError, match="non-finite time at event 1"):
            EventSequence(np.array([0.0, bad, 2.0]), np.array([0, 0, 0]), 1)

    @pytest.mark.parametrize("bad", ["3", 2.5, True, None])
    def test_rejects_num_types_that_is_not_an_integer(self, bad):
        match = rf"num_types must be an integer >= 1, got {re.escape(repr(bad))}"
        with pytest.raises(DataError, match=match):
            EventSequence([0.0, 1.0], [0, 1], bad)

    @pytest.mark.parametrize("times, bad", [
        (["0.5", "2"], "0 is not a real number: '0.5'"),
        ([0.0, "2"], "1 is not a real number: '2'"),
        ([False, True], "0 is not a real number: False"),
        ([0.0, True], "1 is not a real number: True"),
        ([0.0, np.True_], f"1 is not a real number: {np.True_!r}"),
        (np.array([False, True]), "0 is not a real number: False"),
        (np.array(["0.5", "2"]), "0 is not a real number: '0.5'"),
        ([0.0, None], "1 is not a real number: None"),
        (np.array([0.0, 1j]), "0 is not a real number: 0j"),
    ], ids=["str list", "str after a number", "bool list", "bool after a number",
            "numpy bool after a number", "bool array", "str array", "none", "complex array"])
    def test_rejects_times_that_are_not_real_numbers(self, times, bad):
        # np.asarray reads [0.0, True] as [0.0, 1.0] and ["0.5", "2"] as strings
        # that float() would parse; neither is a time.
        with pytest.raises(DataError, match=rf"'s': time at event {re.escape(bad)}$"):
            EventSequence(times, [0, 0], 1, seq_id="s")

    @pytest.mark.parametrize("times", [
        [0, 1], np.array([0, 1], dtype=np.uint8), np.array([0.0, 1.0], dtype=np.float32),
        np.array([0, 1.0], dtype=object), (0, 1.0),
    ], ids=["int list", "uint8", "float32", "object", "tuple"])
    def test_accepts_real_times_of_any_int_uint_or_float_kind(self, times):
        seq = EventSequence(times, [0, 0], 1)
        assert seq.times.dtype == np.float64
        np.testing.assert_array_equal(seq.times, [0.0, 1.0])

    @pytest.mark.parametrize("name, times, types", [
        ("times", [0.0, [1.0]], [0, 0]), ("type ids", [0.0, 1.0], [0, [1]]),
    ])
    def test_rejects_a_ragged_list(self, name, times, types):
        with pytest.raises(DataError, match=f"'s': {name} are a ragged list"):
            EventSequence(times, types, 2, seq_id="s")

    def test_rejects_num_types_above_the_int64_maximum(self):
        # Above it, a type id that passes the range check would wrap in the
        # cast to int64: 10**19 used to be stored as -2**63.
        with pytest.raises(DataError, match=rf"num_types must be at most {2**63 - 1}"):
            EventSequence([0.0, 1.0], [0, 10**19], 10**20)
        seq = EventSequence([0.0, 1.0], [0, 2**63 - 2], 2**63 - 1)
        np.testing.assert_array_equal(seq.types, [0, 2**63 - 2])

    def test_accepts_a_numpy_integer_num_types(self):
        assert EventSequence([0.0, 1.0], [0, 1], np.int64(2)).num_types == 2

    def test_equality_compares_content(self):
        seq = EventSequence([0.0, 1.0, 2.5], [0, 1, 1], 2, seq_id="s")
        assert seq == EventSequence(seq.times.copy(), seq.types.copy(), 2, seq_id="s")
        for times, types, num_types, seq_id in (
                ([0.0, 1.0, 2.0], [0, 1, 1], 2, "s"), ([0.0, 1.0, 2.5], [0, 0, 1], 2, "s"),
                ([0.0, 1.0, 2.5], [0, 1, 1], 3, "s"), ([0.0, 1.0, 2.5], [0, 1, 1], 2, "t"),
                ([0.0, 1.0], [0, 1], 2, "s")):
            assert seq != EventSequence(times, types, num_types, seq_id=seq_id)
        assert seq != (seq.times, seq.types, 2, "s")

    @pytest.mark.parametrize("types", [
        [0, 1, 2], np.array([0, 1, 2], dtype=np.uint8), np.array([0, 1, 2], dtype=np.int32),
        [0.0, 1.0, 2.0], np.array([0.0, 1.0, 2.0], dtype=np.float32),
        np.array([0, 1, 2], dtype=object),
    ], ids=["list", "uint8", "int32", "whole-floats", "float32", "object"])
    def test_accepts_integer_types_and_whole_floats(self, types):
        seq = EventSequence([0.0, 0.5, 1.0], types, 3)
        assert seq.types.dtype == np.int64
        np.testing.assert_array_equal(seq.types, [0, 1, 2])

    @pytest.mark.parametrize("types, bad", [
        ([0.0, 1.0, 2.0, 0.9], "event 3 is not an integer: 0.9"),
        ([0, 1.7, 0.2, 1], "event 1 is not an integer: 1.7"),
        ([0, np.nan, 1, 1], "event 1 is not an integer: nan"),
        ([0, 1, np.inf, 1], "event 2 is not an integer: inf"),
        ([True, False, True, False], "event 0 is not an integer"),
        (["0", "1", "0", "1"], "event 0 is not an integer"),
        ([0, 1, None, 1], "event 2 is not an integer: None"),
        ([True, 0, 1, 0], "event 0 is not an integer: True"),
        ([0, 1, np.True_, 0], f"event 2 is not an integer: {re.escape(repr(np.True_))}"),
        ([0, 1, "1", 0], "event 2 is not an integer: '1'"),
        (np.array([0, 1, 1.5, 0]), "event 2 is not an integer: 1.5"),
    ], ids=["fraction", "fractions", "nan", "inf", "bool", "str", "none", "bool before ints",
            "numpy bool among ints", "str among ints", "fraction array"])
    def test_rejects_type_ids_that_are_not_integers(self, types, bad):
        # Truncation would read [0, 1.7, 0.2, 1] as [0, 1, 0, 1] without a word.
        with pytest.raises(DataError, match=rf"'s': type id at {bad}"):
            EventSequence([0.0, 1.0, 2.0, 3.0], types, 3, seq_id="s")

    @pytest.mark.parametrize("times, event", [([-1e308, 1e308], 1), ([-1e308, 0.0, 1e308], 2)])
    def test_rejects_times_whose_difference_overflows(self, times, event):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"time span overflow at event {event}"):
                EventSequence(times, [0] * len(times), 1)

    @pytest.mark.parametrize("seq_id", [np.int64(3), None, 3, b"a"])
    def test_rejects_a_seq_id_that_is_not_a_str(self, seq_id):
        match = rf"seq_id must be a str, got {re.escape(repr(seq_id))}"
        with pytest.raises(DataError, match=match):
            EventSequence([0.0, 1.0], [0, 0], 1, seq_id)

    def test_an_empty_sequence_constructs(self):
        seq = EventSequence([], [], 2)
        assert len(seq) == 0
        assert seq.types.dtype == np.int64

    def test_example_requires_future_target(self):
        seq = EventSequence([0.0, 1.0], [0, 0], 1)
        from nextevent.events import PredictionExample

        with pytest.raises(DataError, match="target_time"):
            PredictionExample(seq, 1.0, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_example_rejects_non_finite_target(self, bad):
        from nextevent.events import PredictionExample

        seq = EventSequence([0.0, 1.0], [0, 0], 1)
        match = rf"target_time must be a finite number > -inf, got {re.escape(repr(bad))}"
        with pytest.raises(DataError, match=match):
            PredictionExample(seq, bad, 0)

    @pytest.mark.parametrize("bad", [1.5, 1.9, 0.7, -1, 2, 2.0, np.nan, True, np.True_, "1",
                                     None])
    def test_example_rejects_a_target_type_that_is_not_a_type_id(self, bad):
        from nextevent.events import PredictionExample

        seq = EventSequence([0.0, 1.0], [0, 1], 2)
        with pytest.raises(DataError, match=r"target_type must be an integer in \[0, 2\)"):
            PredictionExample(seq, 2.0, bad)

    @pytest.mark.parametrize("good", [1, 1.0, np.int64(1), np.uint8(1), np.float64(1.0)])
    def test_example_accepts_an_integer_or_whole_float_target_type(self, good):
        from nextevent.events import PredictionExample

        assert PredictionExample(EventSequence([0.0, 1.0], [0, 1], 2), 2.0, good).target_type == 1

    @pytest.mark.parametrize("bad", ["9", None, True, [9.0]])
    def test_example_rejects_a_target_time_that_is_not_a_number(self, bad):
        from nextevent.events import PredictionExample

        seq = EventSequence([0.0, 1.0], [0, 0], 1)
        match = rf"target_time must be a finite number > -inf, got {re.escape(repr(bad))}"
        with pytest.raises(DataError, match=match):
            PredictionExample(seq, bad, 0)


def _record(line: str, num_types: int = 2) -> EventSequence:
    """The sequence one JSON line ``{"id": ..., "times": [...], "types": [...]}`` holds."""
    record = json.loads(line)
    return EventSequence(record["times"], record["types"], num_types, record["id"])


class TestLoadSequences:
    """Sequences built from JSON records. The package reads no files, so a
    caller that does hands ``EventSequence`` what ``json.loads`` returns:
    lists that may hold None, bools, strings, NaN or nested lists. Each bad
    record is a ``DataError`` that names its sequence."""

    def test_minimal_jsonl(self):
        seq = _record('{"id": "0", "times": [0.0, 2.5], "types": [1, 0]}')
        assert len(seq) == 2
        np.testing.assert_array_equal(seq.times, [0.0, 2.5])
        np.testing.assert_array_equal(seq.types, [1, 0])

    def test_time_regression_names_line(self):
        with pytest.raises(DataError, match=r"sequence 'c': time regression at event 2"):
            _record('{"id": "c", "times": [0.0, 5.0, 3.0], "types": [0, 0, 0]}')

    def test_unknown_type_id(self):
        match = r"sequence '0': type id at event 0 is not an integer: 'aspirin'"
        with pytest.raises(DataError, match=match):
            _record('{"id": "0", "times": [0.0], "types": ["aspirin"]}')

    def test_jsonl_numeric_type_ids_follow_the_in_memory_rule(self):
        seq = _record('{"id": "a", "times": [0.0, 1.0, 2.0], "types": [1.0, 0, 1]}')
        assert seq.types.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("bad, message", [
        ("true", "type id at event 1 is not an integer: True"),
        ("1.5", "type id at event 1 is not an integer: 1.5"),
        ("null", "type id at event 1 is not an integer: None"),
        ("[1]", "type ids are a ragged list"),
    ], ids=["true", "1.5", "null", "[1]"])
    def test_jsonl_rejects_a_type_id_that_is_not_a_whole_number(self, bad, message):
        with pytest.raises(DataError, match=rf"sequence 'a': {re.escape(message)}$"):
            _record('{"id": "a", "times": [0.0, 1.0], "types": [0, %s]}' % bad)

    @pytest.mark.parametrize("line, message", [
        ('{"id": "b", "times": [0.0, "soon"], "types": [0, 1]}',
         "sequence 'b': time at event 1 is not a real number: 'soon'"),
        ('{"id": "b", "times": [0.0, null], "types": [0, 1]}',
         "sequence 'b': time at event 1 is not a real number: None"),
        ('{"id": "b", "times": [true, 2.0], "types": [0, 1]}',
         "sequence 'b': time at event 0 is not a real number: True"),
        ('{"id": "b", "times": [0.0, 1.0], "types": [0]}',
         r"sequence 'b': times and types must be equal-length 1-D arrays, got \(2,\) and \(1,\)"),
        ('{"id": "b", "times": ["0.5", 2.0], "types": [0, 1]}',
         "sequence 'b': time at event 0 is not a real number: '0.5'"),
        ('{"id": "b", "times": [0.0, 1.0], "types": [0, "1"]}',
         "sequence 'b': type id at event 1 is not an integer: '1'"),
        ('{"id": "b", "times": [0.0, 1.0], "types": ["aspirin", 1]}',
         "sequence 'b': type id at event 0 is not an integer: 'aspirin'"),
        ('{"id": "b", "times": [0.0, 1.0], "types": [0, NaN]}',
         "sequence 'b': type id at event 1 is not an integer: nan"),
        ('{"id": "b", "times": [0, [1]], "types": [0, 1]}',
         "sequence 'b': times are a ragged list"),
    ], ids=["non-numeric time", "null time", "bool time", "fewer types than times",
            "decimal-string time", "decimal-string type id", "label type id", "NaN type id",
            "ragged times"])
    def test_bad_jsonl_line_names_line(self, line, message):
        with pytest.raises(DataError, match=message):
            _record(line)

    @pytest.mark.parametrize("seq_id", ["null", "3", "2.5", "true", '["x"]', '{"a": 1}'])
    def test_jsonl_rejects_an_id_that_is_not_a_string(self, seq_id):
        # Coerced through str(), null would read as "None", a real sequence's name.
        match = rf"seq_id must be a str, got {re.escape(repr(json.loads(seq_id)))}$"
        with pytest.raises(DataError, match=match):
            _record(f'{{"id": {seq_id}, "times": [0.0, 1.0], "types": [0, 1]}}')

    _TOP = float(np.finfo(np.float64).max)

    @pytest.mark.parametrize("times, message", [
        ([-1e308, 1e308], "time span overflow at event 1"),
        ([-1e308, 1e308, 1e308], "time span overflow at event 1"),
        ([0.0, _TOP, _TOP], "tied time at event 2"),
    ], ids=["no tie", "tie", "tie at the largest float"])
    def test_times_that_overflow_are_a_data_error(self, times, message):
        # A tie in a span that overflows reports the overflow, which comes
        # first; neither case warns.
        line = json.dumps({"id": "a", "times": times, "types": [0] * len(times)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"'a': {message}$"):
                _record(line)

    @pytest.mark.parametrize("line, message", [
        ('{"id": "b", "times": [0.0, NaN], "types": [0, 0]}', "non-finite time at event 1"),
        ('{"id": "b", "times": [0.0, "inf"], "types": [0, 0]}',
         "time at event 1 is not a real number: 'inf'"),
        ('{"id": "b", "times": [0.0, 1.0], "types": [0, 2]}', r"type ids must lie in \[0, 2\)"),
        ('{"id": "b", "times": [-1e308, 1e308], "types": [0, 0]}',
         "time span overflow at event 1"),
        ('{"id": "b", "times": [3.0, 3.0, 3.0], "types": [0, 0, 0]}', "tied time at event 1"),
        ('{"id": "b", "times": [1.0, 3.0, 2.0, 2.0], "types": [0, 0, 0, 0]}',
         "time regression at event 2"),
    ], ids=["NaN time", "inf string", "type outside num_types", "span overflow",
            "identical times", "regression next to a tie"])
    def test_a_sequence_error_names_its_line(self, line, message):
        # Ties are rejected, not nudged: a regression next to a tie is the
        # error reported, and nothing warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=rf"sequence 'b': {message}$"):
                _record(line)


@pytest.mark.parametrize("generate", [
    lambda k: generate_hawkes(1, 10.0, 1.0, 0.5, 1.0, k, seed=0),
    lambda k: generate_multiscale(1, 5.0, 4, 20.0, k, seed=0),
], ids=["hawkes", "multiscale"])
@pytest.mark.parametrize("num_types", [0, -1])
def test_generators_reject_fewer_than_one_type(generate, num_types):
    with pytest.raises(ConfigError, match=f"num_types must be an integer >= 1, got {num_types}"):
        generate(num_types)


@contextlib.contextmanager
def _returns_within(seconds):
    """Turn a call that runs past ``seconds`` into a TimeoutError instead of a
    hang (SIGALRM, so Unix only)."""
    def stop(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


_HAWKES = dict(num_seqs=1, horizon=10.0, base_rate=1.0, excitation=0.5, decay=1.0,
               num_types=2, seed=0)
_MULTISCALE = dict(num_seqs=1, burst_rate=5.0, burst_size=4, gap_scale=20.0, num_types=4,
                   seed=0)
_BAD_GENERATOR_PARAMETERS = [
    (generate_hawkes, _HAWKES, "horizon", np.nan),
    (generate_hawkes, _HAWKES, "horizon", np.inf),
    (generate_hawkes, _HAWKES, "base_rate", np.nan),
    (generate_hawkes, _HAWKES, "excitation", np.nan),
    (generate_hawkes, _HAWKES, "decay", np.nan),
    (generate_hawkes, _HAWKES, "num_seqs", 1.5),
    (generate_hawkes, _HAWKES, "num_seqs", True),
    (generate_hawkes, _HAWKES, "num_types", 2.5),
    (generate_multiscale, _MULTISCALE, "num_seqs", 1.5),
    (generate_multiscale, _MULTISCALE, "num_seqs", True),
    (generate_multiscale, _MULTISCALE, "num_types", 2.5),
    (generate_multiscale, _MULTISCALE, "burst_rate", np.nan),
    (generate_multiscale, _MULTISCALE, "burst_size", 2.5),
    (generate_multiscale, _MULTISCALE, "gap_scale", np.inf),
    (generate_multiscale, _MULTISCALE, "num_bursts", True),
    (generate_multiscale, _MULTISCALE, "pattern_noise", np.nan),
    (generate_multiscale, _MULTISCALE, "pattern_noise", -0.1),
    (generate_multiscale, _MULTISCALE, "pattern_noise", 1.5),
    *[(generate, valid, "seed", bad)
      for generate, valid in ((generate_hawkes, _HAWKES), (generate_multiscale, _MULTISCALE))
      for bad in (1.5, "a", -1, True, None)],
]


@pytest.mark.parametrize(
    "generate, valid, name, value", _BAD_GENERATOR_PARAMETERS,
    ids=[f"{g.__name__.removeprefix('generate_')}-{name}-{value!r}"
         for g, _, name, value in _BAD_GENERATOR_PARAMETERS],
)
def test_generators_reject_a_bad_parameter_by_name(generate, valid, name, value):
    # Some of these never returned, so each call runs under a time limit.
    with _returns_within(5.0), pytest.raises(ConfigError, match=rf"^{name} must be"):
        generate(**dict(valid, **{name: value}))


@pytest.mark.parametrize("call", [
    lambda: generate_hawkes(1, 1e300, 1.0, 0.0, 1.0, 2, seed=0),
    lambda: generate_hawkes(2, 5e6, 1.0, 0.5, 1.0, 2, seed=0),
    lambda: generate_multiscale(1, 1.0, 10**6, 4.0, 2, seed=0, num_bursts=10**6),
    lambda: generate_multiscale(10**6, 1.0, 4, 4.0, 2, seed=0, num_bursts=3),
], ids=["hawkes-horizon", "hawkes-excited", "multiscale-bursts", "multiscale-seqs"])
def test_generators_reject_more_than_ten_million_expected_events(call):
    # Without the bound each of these runs far past the time limit, so a
    # missing bound fails the test instead of hanging it.
    with _returns_within(5.0), pytest.raises(ConfigError, match="events"):
        call()


@pytest.mark.parametrize("generate, args", [
    (generate_hawkes, (2, 50.0, 0.7, 0.3, 1.1, 3)),
    (generate_multiscale, (2, 1.3, 4, 20.7, 3)),
], ids=["hawkes", "multiscale"])
def test_generators_compute_numpy_parameters_as_the_python_numbers_they_hold(generate, args):
    as_numpy = [np.int64(a) if isinstance(a, int) else np.float32(a) for a in args]
    expected = generate(*[type(a)(b) for a, b in zip(args, as_numpy)], seed=5)
    for got, want in zip(generate(*as_numpy, seed=np.int64(5)), expected, strict=True):
        np.testing.assert_array_equal(got.times, want.times)
        np.testing.assert_array_equal(got.types, want.types)


class TestHawkesGenerator:
    def test_deterministic_under_seed(self):
        a = generate_hawkes(5, 50.0, 0.5, 0.5, 1.0, 3, seed=11)
        b = generate_hawkes(5, 50.0, 0.5, 0.5, 1.0, 3, seed=11)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.times, y.times)
            np.testing.assert_array_equal(x.types, y.types)

    def test_rejects_nonstationary(self):
        with pytest.raises(ConfigError, match="non-stationary"):
            generate_hawkes(1, 10.0, 1.0, 2.0, 1.0, 2, seed=0)

    def test_poisson_limit_count(self):
        # excitation 0 reduces to a homogeneous Poisson process.
        mu, horizon = 0.8, 60.0
        seqs = generate_hawkes(1000, horizon, mu, 0.0, 1.0, 2, seed=42)
        counts = np.array([len(s) for s in seqs], dtype=float)
        expected = mu * horizon
        stderr = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - expected) < 3 * stderr

    def test_branching_ratio_count(self):
        # With ratio excitation/decay = 0.5 the mean count doubles.
        mu, horizon, alpha, beta = 0.5, 200.0, 1.0, 2.0
        seqs = generate_hawkes(1000, horizon, mu, alpha, beta, 2, seed=7)
        counts = np.array([len(s) for s in seqs], dtype=float)
        expected = mu * horizon / (1.0 - alpha / beta)
        stderr = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - expected) < 3 * stderr + 1.0  # +1 startup transient

    def test_poisson_gaps_pass_ks(self):
        mu = 2.0
        seqs = generate_hawkes(40, 150.0, mu, 0.0, 1.0, 2, seed=13)
        gaps = np.concatenate([np.diff(s.times) for s in seqs])
        assert gaps.size >= 10_000
        result = scipy_stats.kstest(gaps[:10_000], "expon", args=(0, 1.0 / mu))
        assert result.pvalue > 0.01


class TestMultiscaleGenerator:
    def test_deterministic_under_seed(self):
        a = generate_multiscale(4, 5.0, 4, 30.0, 4, seed=3)
        b = generate_multiscale(4, 5.0, 4, 30.0, 4, seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.times, y.times)
            np.testing.assert_array_equal(x.types, y.types)

    def test_burst_size_one_warns_degenerate(self):
        with pytest.warns(UserWarning, match="degenerate"):
            seqs = generate_multiscale(2, 5.0, 1, 20.0, 2, seed=0, num_bursts=6)
        assert all(len(s) == 6 for s in seqs)

    def test_gap_ratio_matches_parameters(self):
        burst_rate, gap_scale, burst_size = 8.0, 40.0, 5
        seqs = generate_multiscale(
            1000, burst_rate, burst_size, gap_scale, 4, seed=21, num_bursts=4
        )
        within, between = [], []
        for s in seqs:
            gaps = np.diff(s.times)
            for i, g in enumerate(gaps, start=1):
                if i % burst_size == 0:
                    between.append(g)
                else:
                    within.append(g)
        ratio = np.mean(within) / np.mean(between)
        expected = (1.0 / burst_rate) / gap_scale
        assert abs(ratio - expected) / expected < 0.1

    def test_scale_correlates_with_type(self):
        seqs = generate_multiscale(10, 10.0, 4, 50.0, 4, seed=5, pattern_noise=0.0)
        for s in seqs:
            opener_types = s.types[::4]
            within_types = np.concatenate([s.types[i::4] for i in (1, 2, 3)])
            assert set(opener_types) <= {0, 1}
            assert set(within_types) <= {2, 3}


def _assert_same_sequences(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.seq_id == b.seq_id and a.num_types == b.num_types
        assert a.times.dtype == b.times.dtype and a.types.dtype == b.types.dtype == np.int64
        assert np.array_equal(a.times, b.times) and np.array_equal(a.types, b.types)


class TestGeneratorsDrawLikeTheirOracles:
    """Each generator makes the oracle's draws, in its order, through cheaper
    calls, so every sequence is bit for bit the oracle's: a reordered or
    swapped draw shifts the stream and fails here."""

    def test_multiscale_over_a_grid(self):
        gap_scale = np.float64(3.7)  # a numpy scalar, as the checks accept
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # burst_size=1 warns
            for seed, num_types, noise, burst_size, num_bursts in itertools.product(
                    range(4), range(1, 7), (0.0, 0.1, 0.5, 1.0), (1, 2, 16), (1, 5)):
                args = (2, 1.3, burst_size, gap_scale, num_types, seed)
                kw = dict(num_bursts=num_bursts, pattern_noise=noise)
                _assert_same_sequences(generate_multiscale(*args, **kw),
                                       O.multiscale_oracle(*args, **kw))

    @pytest.mark.parametrize("excitation", [0.0, 0.9])
    @pytest.mark.parametrize("num_types", [1, 2, 4])
    def test_hawkes(self, excitation, num_types):
        for seed in range(3):
            args = (3, 40.0, 0.8, excitation, 1.0, num_types, seed)
            _assert_same_sequences(generate_hawkes(*args), O.hawkes_oracle(*args))

    # The calls bench/workloads.py makes: 48 windows at L=512 and at L=256
    # (bursts of 16, num_bursts L // 16 + 2), and a 30 s infer_hawkes_L64 run's
    # pool of 9000 windows, whose horizon is 1.2 * (9000 + 64) / 2 + 50.
    @pytest.mark.parametrize("length", [512, 256], ids=["train_full_L512", "train_causal_L256"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_multiscale_calls(self, length, seed):
        kw = dict(burst_rate=1.0, burst_size=16, gap_scale=4.0, num_types=4, seed=seed,
                  num_bursts=length // 16 + 2)
        _assert_same_sequences(generate_multiscale(48, **kw), O.multiscale_oracle(48, **kw))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_hawkes_call(self, seed):
        horizon = 1.2 * (9000 + 64) / 2.0 + 50.0
        kw = dict(base_rate=1.0, excitation=0.5, decay=1.0, num_types=4, seed=seed)
        _assert_same_sequences(generate_hawkes(1, horizon, **kw),
                               O.hawkes_oracle(1, horizon, **kw))


class TestMakeExamples:
    def seq(self, n):
        return EventSequence(np.arange(n, dtype=float), np.zeros(n, dtype=int), 1)

    def test_counting_short(self):
        assert len(make_examples(self.seq(5), 4)) == 1

    def test_counting_longer(self):
        assert len(make_examples(self.seq(10), 4)) == 6

    def test_first_target_is_window_index(self):
        seq = self.seq(8)
        ex = make_examples(seq, 4)[0]
        assert ex.target_time == seq.times[4]
        np.testing.assert_array_equal(ex.history.times, seq.times[:4])

    def test_too_short_yields_nothing(self):
        assert list(make_examples(self.seq(4), 4)) == []

    def test_window_must_be_at_least_two(self):
        with pytest.raises(ConfigError):
            make_examples(self.seq(5), 1)

    @pytest.mark.parametrize("window", [2.5, 3.0, "3", True, None])
    def test_window_must_be_an_integer(self, window):
        with pytest.raises(ConfigError, match=rf"window must be an integer >= 2, got {window!r}"):
            make_examples(self.seq(5), window)

    def test_window_may_be_a_numpy_integer(self):
        assert len(make_examples(self.seq(5), np.int64(3))) == 2

    @pytest.mark.parametrize("make, window", [
        (lambda: generate_hawkes(1, 20.0, 1.0, 0.5, 1.0, 3, seed=4)[0], 8),
        (lambda: generate_multiscale(1, 5.0, 4, 20.0, 3, seed=4, num_bursts=6)[0], 8),
        (lambda: EventSequence(nine_point_layout(), [2, 0, 1, 1, 0, 2, 2, 1, 0], 3, "h"), 2),
    ], ids=["hawkes", "multiscale", "hand-made"])
    def test_windows_equal_the_copying_oracle(self, make, window):
        seq = make()
        got, want = make_examples(seq, window), O.copied_examples(seq, window)
        assert isinstance(got, Sequence)
        assert len(got) == len(want) == len(seq) - window > 0
        for ex, ref in zip(got, want, strict=True):
            _assert_same_example(ex, ref)

    def hawkes_windows(self):
        seq = generate_hawkes(1, 20.0, 1.0, 0.5, 1.0, 3, seed=4)[0]
        return make_examples(seq, 8), O.copied_examples(seq, 8)

    def test_every_index_reads_as_the_oracle_does(self):
        got, want = self.hawkes_windows()
        n = len(want)
        for i in range(-n, n):
            for index in (i, np.int64(i), np.int32(i)):
                _assert_same_example(got[index], want[index])
        for i in (n, -n - 1, np.int64(n)):
            with pytest.raises(IndexError):
                want[i]
            with pytest.raises(IndexError):
                got[i]
        with pytest.raises(TypeError):
            got[1.0]

    @pytest.mark.parametrize("index", [
        slice(None), slice(2, None, 3), slice(None, None, -1), slice(-2, 1, -4),
        slice(5, 2), slice(100, None), slice(-100, 3),
    ], ids=["all", "step", "reversed", "negative step", "empty", "past the end",
            "before the start"])
    def test_slices_read_as_the_oracle_does(self, index):
        got, want = self.hawkes_windows()
        part = got[index]
        assert type(part) is type(got)
        assert len(part) == len(want[index])
        for ex, ref in zip(part, want[index], strict=True):
            _assert_same_example(ex, ref)
        for inner in (slice(1, None), slice(None, None, -2)):
            assert len(part[inner]) == len(want[index][inner])
            for ex, ref in zip(part[inner], want[index][inner], strict=True):
                _assert_same_example(ex, ref)

    def test_iteration_follows_the_window_starts(self):
        got, want = self.hawkes_windows()
        assert [ex.history.seq_id for ex in got] == [ex.history.seq_id for ex in want]
        assert [ex.history.seq_id for ex in reversed(got)] == [
            ex.history.seq_id for ex in reversed(want)]

    def test_each_read_builds_an_equal_window(self):
        got, _ = self.hawkes_windows()
        first, again = got[3], got[3]
        assert first is not again
        _assert_same_example(first, again)
        assert first == again and first != got[4]

    def test_windows_are_found_by_content(self):
        got, want = self.hawkes_windows()
        assert got.index(got[5]) == 5 and got.index(want[5]) == 5
        assert got[1] in got and want[-1] in got and got.count(got[2]) == 1
        other = make_examples(generate_hawkes(1, 20.0, 1.0, 0.5, 1.0, 3, seed=5)[0], 8)
        assert other[0] not in got and got.count(other[0]) == 0

    def test_windows_are_read_only_views_of_the_sequence(self):
        seq = generate_hawkes(1, 20.0, 1.0, 0.5, 1.0, 3, seed=4)[0]
        windows = make_examples(seq, 8)
        reads = [*windows, windows[-1], windows[np.int64(2)], *windows[::-3]]
        for ex in reads:
            h = ex.history
            assert np.shares_memory(h.times, seq.times)
            assert np.shares_memory(h.types, seq.types)
            with pytest.raises(ValueError, match="read-only"):
                h.times[0] = -1.0
            with pytest.raises(ValueError, match="read-only"):
                h.types[0] = 0
            EventSequence(h.times, h.types, h.num_types, h.seq_id)  # passes every check
        assert seq.times.flags.writeable and seq.types.flags.writeable

    def test_targets_are_read_when_the_window_is_read(self):
        seq = EventSequence(np.arange(10.0), np.zeros(10, dtype=np.int64), 2)
        windows = make_examples(seq, 4)
        seq.times[4:] += 0.5
        seq.types[4] = 1
        ex = windows[0]
        assert ex.target_time == 4.5 and ex.target_type == 1
        assert ex.history.times[-1] == 3.0

    def test_unread_windows_hold_no_memory(self):
        # 10**5 events: the windows made all at once would hold about 50 MB.
        # A read builds one window over views, whatever its length.
        n = 10**5
        seq = EventSequence(np.arange(float(n)), np.zeros(n, dtype=np.int64), 1, "s")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            windows = make_examples(seq, 4096)
            held = tracemalloc.get_traced_memory()[0] - before
            ex = windows[n // 2]
            one = tracemalloc.get_traced_memory()[0] - before - held
        finally:
            tracemalloc.stop()
        assert len(windows) == n - 4096 and len(ex.history) == 4096
        assert held < 64 * 1024
        assert one < 2 * 1024

    def test_a_sequence_edited_in_place_is_checked_again(self):
        seq = EventSequence(np.arange(10.0), np.zeros(10, dtype=int), 1, seq_id="s")
        seq.times[6] = seq.times[5]
        with pytest.raises(DataError, match="'s': tied time at event 6"):
            make_examples(seq, 4)


def _assert_same_example(ex, ref):
    np.testing.assert_array_equal(ex.history.times, ref.history.times)
    np.testing.assert_array_equal(ex.history.types, ref.history.types)
    assert ex.history.num_types == ref.history.num_types
    assert ex.history.seq_id == ref.history.seq_id
    assert type(ex.target_time) is float and ex.target_time == ref.target_time
    assert type(ex.target_type) is int and ex.target_type == ref.target_type


class TestNormalization:
    def test_shift_to_zero(self):
        seqs = [EventSequence([5.0, 6.0, 8.0], [0, 0, 0], 1, seq_id="a")]
        out, mean_gap = normalize_times(seqs, "shift_to_zero")
        np.testing.assert_allclose(out[0].times, [0.0, 1.0, 3.0])
        assert type(mean_gap) is float and mean_gap == 1.0

    def test_shift_and_scale(self):
        seqs = [EventSequence([5.0, 6.0, 8.0], [0, 0, 0], 1, seq_id="a")]
        out, mean_gap = normalize_times(seqs, "shift_and_scale")
        assert type(mean_gap) is float and mean_gap == 1.5
        np.testing.assert_allclose(out[0].times, [0.0, 1.0 / 1.5, 3.0 / 1.5])

    def test_zero_mean_gap_rejected(self):
        # Duplicate handling happens at load; all-duplicate times fed directly
        # fail at the sequence, and sequences without a single gap fail to
        # scale rather than divide by zero.
        with pytest.raises(DataError, match="tied time"):
            EventSequence([1.0, 1.0], [0, 0], 1, seq_id="a")
        seqs = [EventSequence([1.0], [0], 1, seq_id="a")]
        with pytest.raises(ConfigError, match="mean inter-event gap"):
            normalize_times(seqs, "shift_and_scale")

    def test_mean_gap_survives_a_gap_sum_that_overflows(self):
        # Each gap is finite, but their sum is not; the filterwarnings setting
        # turns numpy's overflow warning into a failure.
        seqs = [EventSequence([0.0, 1.5e308], [0, 0], 1) for _ in range(2)]
        out, mean_gap = normalize_times(seqs, "shift_and_scale")
        assert mean_gap == 1.5e308
        for seq in out:
            np.testing.assert_array_equal(seq.times, [0.0, 1.0])

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            normalize_times([], "weird")
        with pytest.raises(ConfigError, match="'none'"):
            normalize_times([EventSequence([0.0, 1.0], [0, 0], 1)], "none")

    def test_apply_reuses_fit_scale(self):
        train = [EventSequence([0.0, 2.0, 4.0], [0, 0, 0], 1, seq_id="tr")]
        _, mean_gap = normalize_times(train, "shift_and_scale")
        held = apply_normalization(
            [EventSequence([10.0, 11.0], [0, 0], 1, seq_id="te")], mean_gap
        )
        np.testing.assert_allclose(held[0].times, [0.0, 0.5])

    def test_sequences_sharing_an_id_normalize_independently(self):
        # Both use the default seq_id "": each still starts at its own zero.
        seqs = [EventSequence([10.0, 11.0, 13.0], [0, 0, 0], 1),
                EventSequence([100.0, 102.0], [0, 0], 1)]
        out, mean_gap = normalize_times(seqs, "shift_and_scale")
        assert mean_gap == 5.0 / 3.0
        np.testing.assert_array_equal(out[0].times, np.array([0.0, 1.0, 3.0]) / mean_gap)
        np.testing.assert_array_equal(out[1].times, np.array([0.0, 2.0]) / mean_gap)

    @pytest.mark.parametrize("mean_gap", [-2.0, 0.0, np.nan, np.inf, "2", True, None])
    def test_stats_reject_a_mean_gap_that_is_not_finite_and_positive(self, mean_gap):
        seqs = [EventSequence([0.0, 1.0], [0, 0], 1)]
        match = rf"mean_gap must be a finite number > 0\.0, got {re.escape(repr(mean_gap))}"
        with pytest.raises(ConfigError, match=match):
            apply_normalization(seqs, mean_gap)

    @pytest.mark.parametrize("mean_gap", ["nan", "-inf", -1.0, 0, "2.5", True])
    def test_stats_from_dict_reject_a_bad_mean_gap(self, mean_gap):
        # A stored mean gap is checked as it is, never coerced through
        # float(): "2.5" and True are rejected, not accepted.
        seqs = [EventSequence([0.0, 1.0], [0, 0], 1)]
        match = rf"mean_gap must be a finite number > 0\.0, got {re.escape(repr(mean_gap))}"
        with pytest.raises(ConfigError, match=match):
            apply_normalization(seqs, mean_gap)

    def test_gap_to_original_undoes_the_scaling(self):
        # Gaps 2, 4 and 6: the mean gap is 4, so a model-unit gap g is 4 g.
        seqs = [EventSequence([10.0, 12.0, 16.0, 22.0], [0, 0, 0, 0], 1)]
        out, mean_gap = normalize_times(seqs, "shift_and_scale")
        assert mean_gap == 4.0
        model_gaps = np.diff(out[0].times)
        np.testing.assert_array_equal(model_gaps, [0.5, 1.0, 1.5])
        assert [g * mean_gap for g in model_gaps] == [2.0, 4.0, 6.0]
