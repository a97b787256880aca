"""The checks every entry point shares: an integer at or above a minimum, a
finite number inside an open interval, an array of numbers, a list of counts N,
an array size under the cell cap, a UTF-8 JSON file and a JSON object with a
given key set.  Each raises the caller's own error class, so a library call
refuses what the CLI refuses, and a bad input is one message, never a traceback.
"""

from __future__ import annotations

import json
import math
from numbers import Integral, Real

import numpy as np

# Cap on the cells of every array sized from user input, checked before it is
# allocated.  With 3 refinement levels, continuum_energy_grid's deepest level
# needs 2,996,433 vectors in d = 4; d = 5 needs 16 to 19 million at the second.
MAX_CELLS = 4_000_000


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


def reals(v, name: str, error: type[Exception]) -> np.ndarray:
    """v as a new float array when every entry is a number, not a bool or a
    string, and nested rows are of one length."""
    arr = v if isinstance(v, np.ndarray) else np.array(v, dtype=object)
    try:
        if arr.dtype.kind in "iuf" or arr.dtype.kind == "O" and all(
                isinstance(x, Real) and not isinstance(x, bool) for x in arr.flat):
            return np.array(arr, dtype=float)
    except OverflowError:   # an int beyond the float range
        pass
    raise error(f"{name} must hold numbers only, in rows of one length")


def n_list(v, error: type[Exception]) -> list:
    """v as ints when it is a nonempty list or tuple of distinct integers >= 2."""
    if not isinstance(v, (list, tuple)) or not v:
        raise error("N_list must be a nonempty list")
    ns = [integer(n, "N_list entry", error, minimum=2) for n in v]
    if len(set(ns)) != len(ns):
        raise error("N_list entries must be distinct")
    return ns


def cells(count: int, what: str, error: type[Exception]):
    """Refuse with `error` the array `what` when its `count` cells are above MAX_CELLS."""
    if count > MAX_CELLS:
        raise error(f"{what} is above the cap of {MAX_CELLS} cells")


def json_file(path, what: str, error: type[Exception]):
    """The JSON value of the UTF-8 file at `path`.  Bad bytes, bad syntax and
    nesting too deep to parse raise `error` naming `what` and the file; an
    OSError passes through."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:   # UnicodeDecodeError is a ValueError
        raise error(f"{what} {path}: not a UTF-8 JSON file: {exc}") from None


def json_object(obj, where: str, error: type[Exception], required=(), optional=()) -> dict:
    """obj when it is a dict with every key of `required` and no key outside
    `required` and `optional`; else `error` naming `where` and the key."""
    if not isinstance(obj, dict):
        raise error(f"{where}: must be a JSON object")
    for key in required:
        if key not in obj:
            raise error(f"{where}: missing key {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise error(f"{where}: unknown key {key!r}")
    return obj
