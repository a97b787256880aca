"""The two value checks every entry point shares: an integer at or above a
minimum, and a finite number inside an open interval.  Both refuse bools and
non-numbers and raise the caller's own error class, so a library call refuses
what the CLI refuses, with its module's error.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


def integer(v, name: str, error: type[Exception], minimum: float = 1) -> int:
    """v as an int when it is an integer, not a bool, and at least `minimum`."""
    if not isinstance(v, Integral) or isinstance(v, bool) or v < minimum:
        bound = "" if minimum == -math.inf else f" >= {minimum}"
        raise error(f"{name} must be an integer{bound}")
    return int(v)


def real(v, name: str, error: type[Exception], above: float = -math.inf,
         below: float = math.inf) -> float:
    """v as a float when it is a finite number, not a bool, in (above, below)."""
    try:
        x = float(v) if isinstance(v, Real) and not isinstance(v, bool) else math.nan
    except OverflowError:   # an int beyond the float range
        x = math.nan
    if not above < x < below:   # false for nan and, as the bounds are open, for +-inf
        raise error(f"{name} must be a finite number in ({above:g}, {below:g})")
    return x
