"""The scalar input rules: numpy scalars pass as the numbers they hold,
``bool`` never does, and the checks return plain Python values."""

import math
from fractions import Fraction

import numpy as np
import pytest

from nextevent.errors import ConfigError, DataError, check_int, check_real


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
def test_check_int_returns_a_plain_int(value):
    out = check_int("n", value)
    assert type(out) is int and out == 3


@pytest.mark.parametrize("value", [True, np.True_, 3.0, "3", None, 0])
def test_check_int_rejects_by_name_and_value(value):
    with pytest.raises(ConfigError, match=r"n must be an integer >= 1, got "):
        check_int("n", value)


def test_check_int_raises_the_error_it_is_given_at_its_bound():
    assert check_int("seed", 0, low=0) == 0
    with pytest.raises(DataError, match="w must be an integer >= 2, got 1"):
        check_int("w", 1, low=2, error=DataError)


@pytest.mark.parametrize("value", [2.5, np.float32(2.5), np.float64(2.5), 2, np.int64(2)])
def test_check_real_returns_a_plain_float(value):
    out = check_real("x", value)
    assert type(out) is float and out == float(value)


@pytest.mark.parametrize("value", [True, np.bool_(False), math.nan, math.inf, -1.0, 0.0, "1",
                                   10**400, Fraction(10**400, 3)])
def test_check_real_rejects_by_name_and_value(value):
    with pytest.raises(ConfigError, match=r"x must be a finite number > 0\.0, got "):
        check_real("x", value)


def test_check_real_bounds():
    assert check_real("p", 0.0, high=1.0, low_included=True) == 0.0
    assert check_real("p", 1.0, high=1.0, low_included=True) == 1.0
    with pytest.raises(DataError, match=r"p must be a finite number >= 0\.0 and <= 1\.0"):
        check_real("p", 1.5, high=1.0, low_included=True, error=DataError)

