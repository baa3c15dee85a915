"""Closed catalog of coefficient functionals for simple processes.

A coefficient is a bounded functional of the noise configuration to the
left of a horizon.  The catalog is deliberately small, and a config spells it:

* ``Const(c)``                       -- reads nothing, bound |c|
* ``ClampedNoise(a, b, clip)``       -- clamp(L((a, b]), clip), reads (a, b]
* ``Poly(arg, coeffs)``              -- polynomial of one catalog entry
* ``Product(factors)``               -- product of catalog entries
* ``Sum(terms)``                     -- finite sum of catalog entries

The horizon is the right end of the intervals a coefficient reads (-inf
when it reads none), and the bound propagates syntactically through the
tree, which makes predictability of a simple process a static check: each
coefficient's horizon must not exceed the left endpoint of its cell.
Clamping is what keeps every noise read bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import UnboundedCoefficientError
from .prm import PointRealization, RealizationBatch
from .schema import number

DEFAULT_CLIP = 1e6


class Coefficient:
    """Base of the catalog.  ``eval`` returns an exact Fraction on a
    PointRealization and one float per realization on a RealizationBatch."""

    @property
    def horizon(self) -> float:
        """Right end of the noise intervals read; -inf when none is read."""
        return max((b for _, b in self.read_intervals()), default=-math.inf)

    def eval_batch(self, src: RealizationBatch) -> np.ndarray:
        """``eval`` under its older batch name, which perfbench still calls."""
        return self.eval(src)


@dataclass(frozen=True)
class Const(Coefficient):
    value: float

    @property
    def bound(self) -> float:
        return abs(self.value)

    def eval(self, src: PointRealization | RealizationBatch) -> Fraction | np.ndarray:
        return src.full(self.value)

    def read_intervals(self) -> list[tuple[float, float]]:
        return []


@dataclass(frozen=True)
class ClampedNoise(Coefficient):
    """``clamp(L((a, b]), clip)``: the compensated noise mass of an interval."""

    a: float
    b: float
    clip: float = DEFAULT_CLIP

    def __post_init__(self) -> None:
        if not (self.b > self.a):
            raise ValueError("need a < b")
        if not (self.clip > 0) or not math.isfinite(self.clip):
            raise UnboundedCoefficientError("clip bound must be positive and finite")

    @property
    def bound(self) -> float:
        return self.clip

    def eval(self, src: PointRealization | RealizationBatch) -> Fraction | np.ndarray:
        return src.clip(src.mass((self.a, self.b)), self.clip)

    def read_intervals(self) -> list[tuple[float, float]]:
        return [(self.a, self.b)]


@dataclass(frozen=True)
class Poly(Coefficient):
    """``c_0 + c_1 y + ... + c_d y^d`` of one catalog coefficient ``y``."""

    arg: Coefficient
    coeffs: tuple[float, ...]

    @property
    def bound(self) -> float:
        b = self.arg.bound
        return float(sum(abs(c) * b ** k for k, c in enumerate(self.coeffs)))

    def eval(self, src: PointRealization | RealizationBatch) -> Fraction | np.ndarray:
        # Horner in the order of numpy.polynomial.polynomial.polyval
        y = self.arg.eval(src)
        coeffs = self.coeffs or (0.0,)
        out = src.num(coeffs[-1]) + y * 0
        for c in coeffs[-2::-1]:
            out = src.num(c) + out * y
        return out

    def read_intervals(self) -> list[tuple[float, float]]:
        return self.arg.read_intervals()


@dataclass(frozen=True)
class Product(Coefficient):
    factors: tuple[Coefficient, ...]

    @property
    def bound(self) -> float:
        return float(math.prod(f.bound for f in self.factors))

    def eval(self, src: PointRealization | RealizationBatch) -> Fraction | np.ndarray:
        out = src.full(1.0)
        for f in self.factors:
            out = out * f.eval(src)
        return out

    def read_intervals(self) -> list[tuple[float, float]]:
        return [iv for f in self.factors for iv in f.read_intervals()]


@dataclass(frozen=True)
class Sum(Coefficient):
    terms: tuple[Coefficient, ...]

    @property
    def bound(self) -> float:
        return float(sum(t.bound for t in self.terms))

    def eval(self, src: PointRealization | RealizationBatch) -> Fraction | np.ndarray:
        out = src.full(0.0)
        for t in self.terms:
            out = out + t.eval(src)
        return out

    def read_intervals(self) -> list[tuple[float, float]]:
        return [iv for t in self.terms for iv in t.read_intervals()]


def scaled(coef: Coefficient, c: float) -> Coefficient:
    if isinstance(coef, Const):
        return Const(coef.value * c)
    return Product((Const(float(c)), coef))


# ---------------------------------------------------------------------------
# parsing (config files)
# ---------------------------------------------------------------------------

def coefficient_from_config(cfg: dict) -> Coefficient:
    kind = cfg.get("type")
    if kind == "const":
        return Const(number(cfg["value"]))
    if kind == "clamped_noise":
        a, b = cfg["interval"]
        return ClampedNoise(number(a), number(b), number(cfg.get("clip", DEFAULT_CLIP)))
    if kind == "poly":
        return Poly(coefficient_from_config(cfg["arg"]), tuple(number(c) for c in cfg["coeffs"]))
    if kind == "product":
        return Product(tuple(coefficient_from_config(f) for f in cfg["factors"]))
    if kind == "sum":
        return Sum(tuple(coefficient_from_config(t) for t in cfg["terms"]))
    raise TypeError(f"unknown coefficient type: {kind!r}")
