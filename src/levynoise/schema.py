"""The number rule of every config value.

A number in a config is a JSON int or float: never a bool, never a string,
and always finite (an int past the float range is not).  Each parser raises
``TypeError`` for a value of the wrong type and ``ValueError`` for one out
of its domain; its caller names the key and raises the config error.
"""

from __future__ import annotations

import math
import sys


def number(raw, lo: float = -math.inf, strict: bool = False) -> float:
    """``raw`` as a float, finite and ``>= lo`` (``> lo`` when ``strict``)."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TypeError(f"must be a number, got {raw!r}")
    if not abs(raw) <= sys.float_info.max or raw < lo or strict and raw == lo:
        bound = "" if lo == -math.inf else f" and {'>' if strict else '>='} {lo}"
        raise ValueError(f"must be finite{bound}, got {raw!r}")
    return float(raw)


def integer(raw, lo: int, hi: float = math.inf, even: bool = False) -> int:
    """``raw`` as an int in ``[lo, hi]``; a float counts when it is integral."""
    if isinstance(raw, bool) or not (isinstance(raw, int)
                                     or isinstance(raw, float) and raw.is_integer()):
        raise TypeError(f"must be an integer, got {raw!r}")
    if not lo <= raw <= hi or even and raw % 2:
        domain = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise ValueError(f"must be an {'even ' * even}integer {domain}, got {raw!r}")
    return int(raw)
