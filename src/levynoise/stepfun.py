"""Real step functions with finitely many half-open cells.

A step function is determined by breakpoints ``b_0 < b_1 < ... < b_n``
and values ``v_1, ..., v_n``; it equals ``v_i`` on the cell
``(b_{i-1}, b_i]`` and vanishes outside ``(b_0, b_n]``.  All power
integrals are finite sums and can be evaluated in exact rational
arithmetic (binary floats are dyadic rationals, so the conversion to
`fractions.Fraction` is lossless).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import UnboundedSupportError


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function, right-continuous cells ``(b_{i-1}, b_i]``."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        bps, vals = self.breakpoints, self.values
        if len(bps) != len(vals) + 1:
            raise ValueError("need exactly one more breakpoint than values")
        if not all(math.isfinite(b) for b in bps):
            raise UnboundedSupportError("breakpoints must be finite")
        if any(b1 >= b2 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("values must be finite")

    # -- constructors ------------------------------------------------

    @classmethod
    def indicator(cls, a: float, b: float) -> "StepFunction":
        """Indicator of the interval ``(a, b]``."""
        return cls((float(a), float(b)), (1.0,))

    @classmethod
    def constant_on(cls, a: float, b: float, c: float) -> "StepFunction":
        return cls((float(a), float(b)), (float(c),))

    # -- evaluation --------------------------------------------------

    def __call__(self, x):
        """Value at ``x`` (scalar or array)."""
        bps = np.asarray(self.breakpoints)
        vals = np.asarray(self.values)
        xa = np.asarray(x, dtype=float)
        idx = np.searchsorted(bps, xa, side="left")
        inside = (idx >= 1) & (idx <= len(vals)) & (xa > bps[0])
        out = np.where(inside, vals[np.clip(idx - 1, 0, len(vals) - 1)], 0.0)
        return float(out) if np.isscalar(x) else out

    def value_at(self, x: float) -> float:
        return float(self(float(x)))

    # -- integrals ---------------------------------------------------

    def power_integral(self, q: int) -> Fraction:
        """Exact ``integral of f(x)^q dx`` (signed for odd q)."""
        total = Fraction(0)
        for (b1, b2), v in zip(zip(self.breakpoints, self.breakpoints[1:]), self.values):
            total += Fraction(v) ** q * (Fraction(b2) - Fraction(b1))
        return total

    def abs_power_integral(self, q: int) -> Fraction:
        """Exact ``integral of |f(x)|^q dx``."""
        total = Fraction(0)
        for (b1, b2), v in zip(zip(self.breakpoints, self.breakpoints[1:]), self.values):
            total += abs(Fraction(v)) ** q * (Fraction(b2) - Fraction(b1))
        return total

    @property
    def support(self) -> tuple[float, float]:
        return (self.breakpoints[0], self.breakpoints[-1])
