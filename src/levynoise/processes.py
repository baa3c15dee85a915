"""Predictable simple processes and their stochastic integral.

A simple process is ``X(x) = sum_i Y_i 1_{(b_{i-1}, b_i]}(x)`` with
strictly increasing breakpoints and bounded coefficients, each
measurable with respect to the noise strictly to the left of its cell.
Validation is syntactic: the horizon of every catalog coefficient must
not exceed the left endpoint of its cell.

The integral over the window ``[-K, K]`` is the finite sum

    I_K(X) = sum_i Y_i L((b_{i-1}, b_i] intersect [-K, K])

computed pathwise on a realization sampled on ``[-K, K]``.  On a single
realization it is an exact rational, so linearity and window restriction
hold with no rounding, and on a batch it is one float per realization.
A batch with many cells and many points per realization takes all the
cell masses ``L(A_i)`` of a part of its realizations from one guided
search and one bincount, with the same floats as one mass per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coefficients import (
    DEFAULT_CLIP,
    ClampedNoise,
    Coefficient,
    Const,
    Poly,
    Product,
    Sum,
    coefficient_from_config,
    scaled,
)
from .errors import (
    BreakpointOrderError,
    HorizonViolationError,
    UnboundedCoefficientError,
)
from .gate import mean_se
from .measure import _adaptive_gauss, signed_moment
from .prm import GuideTable, PointRealization, RealizationBatch, _check_window
from .schema import number
from .stepfun import StepFunction

# Clipped cells, and points per realization, from which a batch integral
# runs on parts: below either, the per-cell loop is as fast and holds less.
PARTITION_MIN_CELLS = 8


@dataclass(frozen=True)
class SimpleProcess:
    breakpoints: tuple[float, ...]
    coefficients: tuple[Coefficient, ...]

    @property
    def cells(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.breakpoints, self.breakpoints[1:]))

    @property
    def support(self) -> tuple[float, float]:
        return (self.breakpoints[0], self.breakpoints[-1])

    def read_window(self) -> float:
        """Smallest window radius that covers the support and every noise read."""
        lo, hi = self.support
        r = max(abs(lo), abs(hi))
        for coef in self.coefficients:
            for a, b in coef.read_intervals():
                r = max(r, abs(a), abs(b))
        return r

    def is_deterministic(self) -> bool:
        return not any(c.read_intervals() for c in self.coefficients)

    def as_step(self) -> StepFunction:
        if not self.is_deterministic():
            raise ValueError("only deterministic processes reduce to a step function")
        # a coefficient that reads no noise needs only the exact backend's
        # static ``num``/``full``: evaluate it exactly, then round once
        return StepFunction(self.breakpoints,
                            tuple(float(c.eval(PointRealization)) for c in self.coefficients))


def validate_simple(breakpoints, coefficients) -> SimpleProcess:
    """Check a simple-process description; raise on any predictability defect."""
    bps = tuple(float(b) for b in breakpoints)
    coefs = tuple(coefficients)
    if len(bps) != len(coefs) + 1:
        raise BreakpointOrderError("need one more breakpoint than coefficients")
    if not all(math.isfinite(b) for b in bps):
        raise BreakpointOrderError("breakpoints must be finite")
    if any(b1 >= b2 for b1, b2 in zip(bps, bps[1:])):
        raise BreakpointOrderError("breakpoints must be strictly increasing")
    for left, coef in zip(bps, coefs):
        if not math.isfinite(coef.bound):
            raise UnboundedCoefficientError(f"coefficient on cell starting at {left} is unbounded")
        if coef.horizon > left:
            raise HorizonViolationError(
                f"coefficient with horizon {coef.horizon} placed on cell starting at {left}")
    return SimpleProcess(bps, coefs)


def from_step(phi: StepFunction) -> SimpleProcess:
    """Deterministic simple process with the cells and values of ``phi``."""
    return validate_simple(phi.breakpoints, tuple(Const(v) for v in phi.values))


def process_from_config(cfg: dict) -> SimpleProcess:
    return validate_simple(tuple(number(b) for b in cfg["breakpoints"]),
                           tuple(coefficient_from_config(c) for c in cfg["coefficients"]))


# ---------------------------------------------------------------------------
# pathwise evaluation
# ---------------------------------------------------------------------------

def _clipped_cells(proc: SimpleProcess, window: float):
    for (a, b), coef in zip(proc.cells, proc.coefficients):
        lo, hi = max(a, -window), min(b, window)
        if hi > lo:
            yield (lo, hi), coef


def eval_I_K(src: PointRealization | RealizationBatch,
             proc: SimpleProcess) -> Fraction | np.ndarray:
    """Pathwise integral ``sum_i Y_i L(A_i)`` of ``proc`` over the window ``[-K, K]`` of ``src``.

    Exact on a PointRealization, one float per realization on a
    RealizationBatch.  Cells are clipped to the window; coefficient
    reads must lie inside it.  A batch with at least
    ``PARTITION_MIN_CELLS`` clipped cells and as many points per
    realization takes every cell's mass from one guided table search and
    one bincount per part (``RealizationBatch.cell_masses``), with the
    same floats as the per-cell loop; other batches and a
    PointRealization run the loop, one ``mass`` per cell, which on a batch
    runs part by part too.
    """
    cells = list(_clipped_cells(proc, src.window))
    if (isinstance(src, RealizationBatch) and len(cells) >= PARTITION_MIN_CELLS
            and len(src.x) >= PARTITION_MIN_CELLS * src.n > 0):
        return _eval_I_K_by_parts(src, cells)
    total = src.full(0.0)
    for (lo, hi), coef in cells:
        total += coef.eval(src) * src.mass((lo, hi))
    return total


def _eval_I_K_by_parts(batch: RealizationBatch, cells) -> np.ndarray:
    """``eval_I_K`` on realization-aligned parts of the batch, written into one output."""
    edges = GuideTable([cells[0][0][0]] + [hi for (_, hi), _ in cells])
    out = np.empty(batch.n)
    for r0, part in batch.parts(len(cells) + 2):
        masses = part.cell_masses(edges)
        total = out[r0:r0 + part.n]
        total[:] = 0.0
        for (_, coef), mass in zip(cells, masses):
            total += coef.eval(part) * mass
    return out


def abs_power_integral(proc: SimpleProcess, src: PointRealization | RealizationBatch,
                       p: int) -> Fraction | np.ndarray:
    """Pathwise ``integral |X(x)|^p dx`` over the window of ``src``."""
    total = src.full(0.0)
    for (lo, hi), coef in _clipped_cells(proc, src.window):
        total += abs(coef.eval(src)) ** p * (src.num(hi) - src.num(lo))
    return total


def square_integral(proc: SimpleProcess,
                    src: PointRealization | RealizationBatch) -> Fraction | np.ndarray:
    """Pathwise ``integral |X(x)|^2 dx`` over the window of ``src``."""
    return abs_power_integral(proc, src, 2)


# older batch names, kept because perfbench/workloads.py imports them
batch_I_K = eval_I_K
batch_square_integral = square_integral


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def restrict_process(proc: SimpleProcess, window: float) -> SimpleProcess:
    """Pointwise product ``X * 1_{[-K, K]}`` as a simple process."""
    cells = list(_clipped_cells(proc, float(window)))
    if not cells:
        return validate_simple((0.0, 1.0), (Const(0.0),))
    bps: list[float] = []
    coefs: list[Coefficient] = []
    for (lo, hi), coef in cells:
        if bps and lo > bps[-1]:
            coefs.append(Const(0.0))
            bps.append(lo)
        elif not bps:
            bps.append(lo)
        coefs.append(coef)
        bps.append(hi)
    return validate_simple(tuple(bps), tuple(coefs))


def linear_combination(a: float, X: SimpleProcess, b: float, Y: SimpleProcess) -> SimpleProcess:
    """``a X + b Y`` on the merged breakpoint grid."""
    pts = sorted(set(X.breakpoints) | set(Y.breakpoints))
    coefs: list[Coefficient] = []
    for lo, hi in zip(pts, pts[1:]):
        terms: list[Coefficient] = []
        for c, proc in ((a, X), (b, Y)):
            for (pa, pb), coef in zip(proc.cells, proc.coefficients):
                if pa <= lo and hi <= pb:
                    terms.append(scaled(coef, c))
                    break
        if not terms:
            coefs.append(Const(0.0))
        elif len(terms) == 1:
            coefs.append(terms[0])
        else:
            coefs.append(Sum(tuple(terms)))
    return validate_simple(tuple(pts), tuple(coefs))


# ---------------------------------------------------------------------------
# named catalog (used by configs, demos and the verification suite)
# ---------------------------------------------------------------------------

def catalog_process(name: str, clip: float = DEFAULT_CLIP) -> SimpleProcess:
    """Named predictable processes exercised by the verification suite."""
    if name == "det_step":
        return from_step(StepFunction.indicator(0.0, 1.0))
    if name == "det_two_cell":
        return from_step(StepFunction((0.0, 1.0, 2.0), (1.5, -0.5)))
    if name == "clamped_left":
        return validate_simple((0.0, 1.0), (ClampedNoise(-1.0, 0.0, clip),))
    if name == "two_block":
        return validate_simple((0.0, 1.0, 2.0),
                               (Const(1.5), ClampedNoise(0.0, 1.0, clip)))
    if name == "poly_block":
        return validate_simple((0.0, 1.0),
                               (Poly(ClampedNoise(-1.0, 0.0, 5.0), (-1.0, 0.0, 1.0)),))
    if name == "product_block":
        return validate_simple(
            (0.0, 1.0),
            (Product((ClampedNoise(-2.0, -1.0, 2.0), ClampedNoise(-1.0, 0.0, 2.0))),))
    raise KeyError(f"unknown catalog process: {name!r}")


CATALOG_PROCESS_NAMES = ("det_step", "det_two_cell", "clamped_left",
                         "two_block", "poly_block", "product_block")


# ---------------------------------------------------------------------------
# approximation of grid-declared predictable processes by simple ones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeterministicProfile:
    """Deterministic process ``X(x) = func(x)`` on a bounded support."""

    func: object  # vectorized callable

    def freeze(self, breakpoints) -> SimpleProcess:
        bps = tuple(float(b) for b in breakpoints)
        return validate_simple(bps, tuple(Const(float(self.func(b))) for b in bps[:-1]))


@dataclass(frozen=True)
class SlidingWindowProfile:
    """Left-looking process ``X(x) = clamp(L((x - width, x]), clip)``.

    At every grid point the coefficient reads noise up to the point
    itself, so freezing at left endpoints is predictable by
    construction.
    """

    width: float
    clip: float = DEFAULT_CLIP

    def freeze(self, breakpoints) -> SimpleProcess:
        bps = tuple(float(b) for b in breakpoints)
        coefs = tuple(ClampedNoise(b - self.width, b, self.clip) for b in bps[:-1])
        return validate_simple(bps, coefs)


def freeze_error_sq_deterministic(profile: DeterministicProfile, proc: SimpleProcess,
                                  window: float) -> float:
    """``integral (X - X_m)^2`` over the window for a deterministic profile.

    One adaptive Gauss quadrature per piece between the window ends and the
    process breakpoints, on each of which the frozen process is constant.
    """
    step = proc.as_step()
    diff_sq = lambda x: (np.asarray(profile.func(x), dtype=float) - step(x)) ** 2
    ends = sorted({-window, window} | {b for b in proc.breakpoints if -window < b < window})
    return math.fsum(_adaptive_gauss(diff_sq, lo, hi) for lo, hi in zip(ends, ends[1:]))


def freeze_error_sq_sliding(profile: SlidingWindowProfile, proc: SimpleProcess,
                            window: float, realizations) -> tuple[float, float]:
    """Monte Carlo mean and standard error of ``integral (X - X_m)^2``.

    Per realization the integrand is piecewise constant between the
    points, their right-shifts by ``width`` and the mesh breakpoints, so
    each integral is an exact finite sum.
    """
    vals = []
    for real in realizations:
        _check_window([(-window - profile.width, window)], real.window)  # what the profile reads
        xs = real.x
        ends = xs + profile.width  # nondecreasing, since xs is sorted
        zs = [Fraction(float(z)) for z in real.z]
        comp = Fraction(profile.width) * Fraction(signed_moment(real.model, 1))
        crit = {-window, window}
        crit.update(b for b in proc.breakpoints if -window <= b <= window)
        crit.update(float(c) for c in np.concatenate([xs, ends]) if -window < c < window)
        pts = sorted(crit)
        total = Fraction(0)
        for lo, hi in zip(pts, pts[1:]):
            # the profile is constant on [lo, hi), where the window
            # (x - width, x] holds the points with x_i <= lo < ends_i; the
            # mesh is constant on (lo, hi]
            first = int(np.searchsorted(ends, lo, side="right"))
            last = int(np.searchsorted(xs, lo, side="right"))
            xv = real.clip(sum(zs[first:last], Fraction(0)) - comp, profile.clip)
            mv = Fraction(0)
            for (a, b), coef in zip(proc.cells, proc.coefficients):
                if a < hi <= b:
                    mv = coef.eval(real)
                    break
            total += (xv - mv) ** 2 * (Fraction(hi) - Fraction(lo))
        vals.append(float(total))
    return mean_se(np.asarray(vals))
