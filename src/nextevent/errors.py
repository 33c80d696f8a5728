"""Exception types shared across the package, and the rules for scalar inputs.

Configuration, data and hierarchy errors subclass ``ValueError``; numerical
failures subclass ``RuntimeError``. The package has no command-line entry
point, so no exit codes are assigned yet.

The scalar input rules live here too: numpy scalars pass as the numbers
they hold, ``bool`` never does, and the checks return plain Python values.
"""

import math
from numbers import Integral, Real


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class DataError(ValueError):
    """Malformed input data (unsorted times, bad type ids, bad target)."""


class HierarchyError(ValueError):
    """Inconsistent clustering hierarchy or pooling groups."""


class NumericsError(RuntimeError):
    """Non-finite values where finite ones are required."""


def is_type_id(value) -> bool:
    """Integers and whole floats pass; fractions, NaN, bool, str and None do not."""
    return (isinstance(value, float) and value.is_integer()
            or isinstance(value, Integral) and not isinstance(value, bool))


def check_int(name: str, value, low: int = 1, error=ConfigError) -> int:
    """``value`` as an ``int``, or ``error`` unless it is an integer >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_real(name: str, value, low: float = 0.0, high: float = math.inf,
               low_included: bool = False, error=ConfigError) -> float:
    """``value`` as a ``float``; raises ``error`` unless it is a finite real
    number above ``low`` (or equal to it when ``low_included``) and <= ``high``."""
    try:
        x = math.nan if isinstance(value, bool) or not isinstance(value, Real) else float(value)
    except OverflowError:  # an int or fraction beyond the float range
        x = math.inf
    if not (math.isfinite(x) and (low <= x if low_included else low < x) and x <= high):
        raise error(f"{name} must be a finite number {'>=' if low_included else '>'} {low}"
                    + (f" and <= {high}" if high < math.inf else "") + f", got {value!r}")
    return x
