"""Sampling of the driving Poisson random measure and noise evaluation.

The noise is driven by a Poisson point configuration on
``[-K, K] x R0`` with intensity ``dx nu(dz)``.  With ``nu(R0)`` finite
the configuration is a compound-Poisson object: the number of points is
Poisson with mean ``2K nu(R0)``, locations are i.i.d. uniform on
``[-K, K]`` and jump marks are i.i.d. ``nu / nu(R0)``.

Every set evaluation is fully compensated:

    L(A) = sum of jumps located in A  -  |A| * mt_1

Both realization types expose the same five backend methods: ``mass``
(compensated mass of a union of intervals), ``count`` (points in a
product cell), ``clip``, ``num`` (a scalar) and ``full`` (a constant
value).  Every evaluator in the package is written once against them,
and the type of its argument picks the backend.  A ``PointRealization``
computes in exact rational arithmetic, so pathwise identities
(additivity, restriction, linearity of the integral) hold exactly; a
``RealizationBatch`` computes one float per realization for Monte Carlo
work.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import PointCountError, WindowExceededError
from .measure import LevyMeasureModel, _density_integral, signed_moment
from .rng import CHAR_GAP_STREAM, derive_rng

Interval = tuple[float, float]


@dataclass(frozen=True, eq=False)
class PointRealization:
    """One sampled point configuration on ``[-K, K] x R0``.

    ``x`` is sorted ascending, so the part of the configuration left of
    any horizon is a prefix.  ``atom`` carries the atom index of each
    jump for atomic models (None in density mode).
    """

    window: float
    x: np.ndarray
    z: np.ndarray
    atom: np.ndarray | None
    model: LevyMeasureModel

    def __len__(self) -> int:
        return len(self.x)

    def with_point(self, x: float, z: float, atom: int | None = None) -> "PointRealization":
        """Configuration with one extra point inserted (sorted order kept)."""
        if abs(x) > self.window:
            raise WindowExceededError(f"location {x} outside window {self.window}")
        pos = int(np.searchsorted(self.x, x, side="right"))
        new_atom = None
        if self.atom is not None:
            new_atom = _inserted(self.atom, pos, -1 if atom is None else atom)
        return PointRealization(self.window, _inserted(self.x, pos, x),
                                _inserted(self.z, pos, z), new_atom, self.model)

    # -- exact backend: masses and counts are Fractions and ints ----------

    def mass(self, sets) -> Fraction:
        # Every float is a dyadic rational n / 2**k: the jumps and the interval
        # lengths are summed exactly as integers over the largest 2**k present,
        # and the one Fraction is built at the end.
        intervals = normalize_intervals(sets)
        _check_window(intervals, self.window)
        jumps: list[float] = []
        ends: list[float] = []
        for a, b in intervals:
            lo, hi = np.searchsorted(self.x, (a, b), side="right").tolist()
            jumps += self.z[lo:hi].tolist()
            ends += (b, -a)
        z_num, z_den = _dyadic_sum(jumps)
        len_num, len_den = _dyadic_sum(ends)
        mt1 = _mt1(self.model)
        return Fraction(z_num * len_den * mt1.denominator - len_num * z_den * mt1.numerator,
                        z_den * len_den * mt1.denominator)

    def count(self, a: float, b: float, marks) -> int:
        """Number of points in ``(a, b] x B``; ``marks`` as for ``RealizationBatch.count``."""
        lo = int(np.searchsorted(self.x, a, side="right"))
        hi = int(np.searchsorted(self.x, b, side="right"))
        if isinstance(marks, frozenset):
            return 0 if self.atom is None else sum(j in marks for j in self.atom[lo:hi].tolist())
        zlo, zhi = marks
        return sum(zlo < z <= zhi for z in self.z[lo:hi].tolist())

    @staticmethod
    def clip(v: Fraction, c: float) -> Fraction:
        n, d = c.as_integer_ratio()  # compared on ints: no Fraction unless v is clamped
        if abs(v.numerator) * d <= n * v.denominator:
            return v
        return Fraction(n if v > 0 else -n, d)

    @staticmethod
    def num(x) -> Fraction:
        return x if isinstance(x, Fraction) else Fraction(x)

    full = num


@dataclass(frozen=True, eq=False)
class RealizationBatch:
    """``n`` independent realizations stored as flat arrays.

    ``owner[k]`` is the index of the realization that point ``k``
    belongs to; per-realization reductions are bincounts over it.
    """

    window: float
    n: int
    x: np.ndarray
    z: np.ndarray
    owner: np.ndarray
    atom: np.ndarray | None
    model: LevyMeasureModel

    def realization(self, i: int) -> PointRealization:
        mask = self.owner == i
        order = np.argsort(self.x[mask], kind="stable")
        return PointRealization(self.window, self.x[mask][order], self.z[mask][order],
                                None if self.atom is None else self.atom[mask][order],
                                self.model)

    # -- float backend: one value per realization -------------------------

    def mass(self, sets) -> np.ndarray:
        intervals = normalize_intervals(sets)
        _check_window(intervals, self.window)
        out = np.zeros(self.n)
        length = 0.0
        for a, b in intervals:
            mask = (self.x > a) & (self.x <= b)
            out += np.bincount(self.owner[mask], weights=self.z[mask], minlength=self.n)
            length += b - a
        return out - length * float(_mt1(self.model))

    def count(self, a: float, b: float, marks) -> np.ndarray:
        """Per-realization point counts in ``(a, b] x B``.

        ``marks`` is a frozenset of atom indices (atomic models) or a
        ``(z_lo, z_hi]`` interval of jump sizes (density models).
        """
        mask = (self.x > a) & (self.x <= b)
        if isinstance(marks, frozenset):
            mask &= np.isin(self.atom, np.fromiter(marks, dtype=int))
        else:
            zlo, zhi = marks
            mask &= (self.z > zlo) & (self.z <= zhi)
        return np.bincount(self.owner[mask], minlength=self.n).astype(float)

    @staticmethod
    def clip(v: np.ndarray, c: float) -> np.ndarray:
        return np.clip(v, -c, c)

    @staticmethod
    def num(x) -> float:
        return float(x)

    def full(self, x) -> np.ndarray:
        return np.full(self.n, float(x))


# Compact per-point storage: a batch keeps 21 bytes per point (x, z, a 4-byte
# owner, a 1-byte atom index), and the mark lookup runs in chunks, so no
# whole-batch 8-byte index array lives next to the uniforms.
_MARK_CHUNK = 1 << 20
# Expected points of one sampling call: about 5.6 GB of batch arrays at 21 bytes
# per point.  Past it a call is refused before any draw, not left to fail in
# numpy's Poisson draw or in an allocation of the whole batch.
MAX_EXPECTED_POINTS = 1 << 28


def _check_point_count(expected: float) -> None:
    if not expected <= MAX_EXPECTED_POINTS:
        raise PointCountError(f"a sampling call expecting {expected:.3g} points is past "
                              f"the cap of {MAX_EXPECTED_POINTS} points")


def _owner_dtype(n: int):
    return np.int32 if n <= np.iinfo(np.int32).max else np.intp


def _sample_marks(model: LevyMeasureModel, count: int, rng: np.random.Generator):
    """Draw ``count`` i.i.d. jump sizes from the normalized measure."""
    if model.is_atomic:
        zs, lams = model.atom_arrays()
        cum = np.cumsum(lams)
        cum /= cum[-1]
        u = rng.random(count)
        idx = np.empty(count, dtype=np.int8 if len(zs) <= np.iinfo(np.int8).max else np.intp)
        for lo in range(0, count, _MARK_CHUNK):
            idx[lo:lo + _MARK_CHUNK] = np.searchsorted(cum, u[lo:lo + _MARK_CHUNK], side="right")
        del u
        np.minimum(idx, len(zs) - 1, out=idx)
        return zs[idx], idx
    grid_z, grid_cdf = _density_cdf_table(model)
    u = rng.random(count) * grid_cdf[-1]
    return np.interp(u, grid_cdf, grid_z), None


@lru_cache(maxsize=None)
def _density_cdf_table(model: LevyMeasureModel):
    """Tabulated CDF of the normalized truncated density (inverse sampling).

    Grid inversion is an approximation of the mark law; the acceptance
    suite exercises atomic measures only, where sampling is exact.
    """
    den = model.density
    n_side = 4096
    left = np.linspace(-den.z_max, -den.eps, n_side)
    right = np.linspace(den.eps, den.z_max, n_side)
    pl = np.array([den.density(z) for z in left])
    pr = np.array([den.density(z) for z in right])
    cum_left = np.concatenate([[0.0], np.cumsum((pl[1:] + pl[:-1]) * 0.5 * np.diff(left))])
    cum_right = np.concatenate([[0.0], np.cumsum((pr[1:] + pr[:-1]) * 0.5 * np.diff(right))])
    grid_z = np.concatenate([left, right])
    grid_cdf = np.concatenate([cum_left, cum_left[-1] + cum_right])
    return grid_z, grid_cdf


def sample_prm(model: LevyMeasureModel, window: float, seed: int) -> PointRealization:
    """Sample one point configuration on ``[-K, K] x R0``; deterministic in ``seed``."""
    if window < 0:
        raise ValueError("window must be >= 0")
    mean = 2.0 * window * model.total_mass
    _check_point_count(mean)
    rng = derive_rng(seed)
    count = int(rng.poisson(mean)) if window > 0 else 0
    x = np.sort(rng.uniform(-window, window, count))
    z, atom = _sample_marks(model, count, rng)
    return PointRealization(float(window), x, z, atom, model)


def sample_prm_batch(model: LevyMeasureModel, window: float, n: int,
                     rng: np.random.Generator) -> RealizationBatch:
    """Sample ``n`` independent configurations as one flat batch."""
    if window < 0:
        raise ValueError("window must be >= 0")
    mean = 2.0 * window * model.total_mass  # points per realization
    _check_point_count(mean * n)
    counts = rng.poisson(mean, n) if window > 0 else np.zeros(n, dtype=int)
    total = int(counts.sum())
    owner = np.repeat(np.arange(n, dtype=_owner_dtype(n)), counts)
    x = rng.uniform(-window, window, total)
    z, atom = _sample_marks(model, total, rng)
    return RealizationBatch(float(window), n, x, z, owner, atom, model)


# ---------------------------------------------------------------------------
# interval plumbing
# ---------------------------------------------------------------------------

def normalize_intervals(sets) -> list[Interval]:
    """Normalize one interval or a list of intervals into disjoint sorted form.

    Intervals are half-open ``(a, b]``; overlapping or touching pieces
    are merged, empty pieces dropped.
    """
    if sets is None or len(sets) == 0:
        return []
    if len(sets) == 2 and not hasattr(sets[0], "__len__"):
        sets = [sets]
    pairs = sorted((float(a), float(b)) for a, b in sets if float(b) > float(a))
    merged: list[list[float]] = []
    for a, b in pairs:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _check_window(intervals: list[Interval], window: float) -> None:
    for a, b in intervals:
        if a < -window - 1e-15 or b > window + 1e-15:
            raise WindowExceededError(
                f"set ({a}, {b}] outside sampled window [-{window}, {window}]")


@lru_cache(maxsize=None)
def _mt1(model: LevyMeasureModel) -> Fraction:
    return Fraction(signed_moment(model, 1))


def _dyadic_sum(values: list[float]) -> tuple[int, int]:
    """Exact sum of floats as ``(numerator, 2**k)``, ``2**k`` the largest denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max((d for _, d in ratios), default=1)
    return sum(n * (den // d) for n, d in ratios), den


def _inserted(arr: np.ndarray, pos: int, value) -> np.ndarray:
    """``np.insert(arr, pos, value)`` for a 1-d array, in one preallocated copy."""
    out = np.empty(len(arr) + 1, dtype=arr.dtype)
    out[:pos] = arr[:pos]
    out[pos] = value
    out[pos + 1:] = arr[pos:]
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_L_set(src: PointRealization | RealizationBatch, sets) -> Fraction | np.ndarray:
    """Compensated noise mass ``sum_{x_i in A} z_i - |A| mt_1`` of a finite
    union of intervals.

    On a PointRealization the result is an exact rational, so finite
    additivity over disjoint sets holds with no rounding; on a
    RealizationBatch it is one float per realization.  This is the public
    entry point; ``mass`` is the backend hook that the evaluators call.
    """
    return src.mass(sets)


def eval_path(real: PointRealization, x: float) -> Fraction:
    """Two-sided path value: mass of ``(0, x]`` for x >= 0, minus mass of ``(x, 0]`` for x < 0."""
    if abs(x) > real.window:
        raise WindowExceededError(f"path point {x} outside window {real.window}")
    if x == 0:
        return Fraction(0)
    if x > 0:
        return eval_L_set(real, (0.0, float(x)))
    return -eval_L_set(real, (float(x), 0.0))


# ---------------------------------------------------------------------------
# vectorized batch evaluation
# ---------------------------------------------------------------------------

batch_L_union = eval_L_set  # older batch name, used by perfbench


def batch_L_interval(batch: RealizationBatch, a: float, b: float) -> np.ndarray:
    """Vector of ``L((a, b])`` over the batch."""
    return eval_L_set(batch, [(a, b)])


def batch_L_weighted(batch: RealizationBatch, f, f_integral: float) -> np.ndarray:
    """Vector of ``sum f(x_i) z_i - mt_1 * f_integral`` over the batch."""
    w = f(batch.x) * batch.z
    return (np.bincount(batch.owner, weights=w, minlength=batch.n)
            - float(_mt1(batch.model)) * f_integral)


# ---------------------------------------------------------------------------
# direct sampling of L(A) (marginal law) and the characteristic function
# ---------------------------------------------------------------------------

def sample_L_interval(model: LevyMeasureModel, length: float, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """``n`` i.i.d. draws of ``L(A)`` for a set of Lebesgue measure ``length``.

    Uses the compound-Poisson representation of the restriction of the
    point configuration to ``A``, which has the same law as evaluating a
    windowed realization on ``A``; far cheaper for marginal statistics.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    mean = length * model.total_mass
    _check_point_count(mean * n)
    counts = rng.poisson(mean, n)
    total = int(counts.sum())
    z, _ = _sample_marks(model, total, rng)
    owner = np.repeat(np.arange(n, dtype=_owner_dtype(n)), counts)
    sums = np.bincount(owner, weights=z, minlength=n)
    return sums - length * float(_mt1(model))


def char_exponent(model: LevyMeasureModel, theta: float) -> complex:
    """Integral of ``e^{i theta z} - 1 - i theta z`` against the jump measure."""
    if model.is_atomic:
        return sum(lam * (cmath.exp(1j * theta * z) - 1.0 - 1j * theta * z)
                   for z, lam in model.atoms)
    re = _density_integral(model.density, lambda z: math.cos(theta * z) - 1.0)
    im = _density_integral(model.density, lambda z: math.sin(theta * z) - theta * z)
    return complex(re, im)


def theoretical_char(model: LevyMeasureModel, length: float, theta: float) -> complex:
    """Characteristic function of ``L(A)`` with ``|A| = length``."""
    return cmath.exp(length * char_exponent(model, theta))


@dataclass(frozen=True)
class CharFunctionReport:
    sup_gap: float
    thetas: tuple[float, ...]
    empirical: tuple[complex, ...]
    theoretical: tuple[complex, ...]
    n_samples: int


def char_function_gap(model: LevyMeasureModel, interval: Interval, thetas,
                      n_samples: int, seed: int) -> CharFunctionReport:
    """Sup over a theta grid of |empirical - theoretical| characteristic function.

    The empirical mean runs over the distinct sample values weighted by
    their counts.  Under an atomic measure ``L(A)`` lives on a lattice, so
    a million draws take a few dozen values and each theta costs a few
    dozen exponentials instead of one per draw.
    """
    a, b = interval
    length = float(b) - float(a)
    rng = derive_rng(seed, CHAR_GAP_STREAM)
    samples = sample_L_interval(model, length, n_samples, rng)
    vals, counts = np.unique(samples, return_counts=True)
    emp = []
    theo = []
    for theta in thetas:
        emp.append(complex((np.exp(1j * float(theta) * vals) * counts).sum() / n_samples))
        theo.append(theoretical_char(model, length, float(theta)))
    gaps = [abs(e - t) for e, t in zip(emp, theo)]
    return CharFunctionReport(max(gaps), tuple(float(t) for t in thetas),
                              tuple(emp), tuple(theo), n_samples)
