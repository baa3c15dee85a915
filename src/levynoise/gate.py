"""The one pass rule of every check: a statistic against a target within a margin.

``margin = multiplier * se + tolerance * |target|``.  A ``two``-sided gate
passes when ``|statistic - target| <= margin``, an ``upper`` one when
``statistic <= target + margin`` and a ``lower`` one when
``statistic >= target - margin``.  An exact gate keeps the zero defaults,
so ``Fraction`` values compare with no rounding; a zero standard error
passes only on target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

REL_TOL = 1e-12  # of an exact inequality evaluated in floats


@dataclass(frozen=True)
class Gate:
    label: str
    statistic: float | Fraction
    target: float | Fraction
    side: str = "two"
    se: float = 0               # the int zeros keep an exact gate's margin exact
    multiplier: float = 0
    tolerance: float = 0

    @property
    def margin(self) -> float | Fraction:
        return self.multiplier * self.se + self.tolerance * abs(self.target)

    @property
    def passed(self) -> bool:
        if self.side == "two":
            return abs(self.statistic - self.target) <= self.margin
        if self.side == "upper":
            return self.statistic <= self.target + self.margin
        if self.side == "lower":
            return self.statistic >= self.target - self.margin
        raise ValueError(f"unknown gate side {self.side!r}")


class Gated:
    """A result whose verdict is its ``gate``'s."""

    @property
    def passed(self) -> bool:
        return self.gate.passed


def mean_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error, NaN for one sample."""
    n = len(samples)
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n) if n > 1 else math.nan)


def mean_gate(label: str, samples: np.ndarray, target: float, multiplier: float,
              side: str = "two") -> Gate:
    """Gate of a Monte Carlo mean against its target at ``multiplier`` SEs."""
    est, se = mean_se(samples)
    return Gate(label, est, target, side, se, multiplier)
