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
    def zero(cls) -> "StepFunction":
        return cls((0.0, 1.0), (0.0,))

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

    def cell_lengths(self) -> tuple[float, ...]:
        return tuple(b2 - b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:]))

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

    def integral(self) -> Fraction:
        return self.power_integral(1)

    @property
    def support(self) -> tuple[float, float]:
        return (self.breakpoints[0], self.breakpoints[-1])

    # -- algebra -----------------------------------------------------

    def scaled(self, c: float) -> "StepFunction":
        return StepFunction(self.breakpoints, tuple(c * v for v in self.values))

    def refined(self, extra: tuple[float, ...]) -> "StepFunction":
        """Equivalent step function whose grid also contains ``extra`` points.

        Extra points outside the support extend it with zero-valued cells,
        which leaves every integral unchanged.
        """
        pts = sorted(set(self.breakpoints) | {float(e) for e in extra})
        # new cells never straddle an original breakpoint, so the value at
        # the right end is the cell value (0 outside the original support);
        # a midpoint can round onto the open left end of a subnormal cell
        values = tuple(self.value_at(hi) for hi in pts[1:])
        return StepFunction(tuple(pts), values)

    def restricted(self, a: float, b: float) -> "StepFunction":
        """Pointwise product with the indicator of ``(a, b]``."""
        ref = self.refined((float(a), float(b)))
        vals = tuple(
            v if (lo >= a and hi <= b) else 0.0
            for (lo, hi), v in zip(zip(ref.breakpoints, ref.breakpoints[1:]), ref.values)
        )
        return StepFunction(ref.breakpoints, vals)
