"""Sampling of the driving Poisson random measure and noise evaluation.

The noise is driven by a Poisson point configuration on
``[-K, K] x R0`` with intensity ``dx nu(dz)``.  With ``nu(R0)`` finite
the configuration is a compound-Poisson object: the number of points is
Poisson with mean ``2K nu(R0)``, locations are i.i.d. uniform on
``[-K, K]`` and jump marks are i.i.d. ``nu / nu(R0)``.

Every set evaluation is fully compensated:

    L(A) = sum of jumps located in A  -  |A| * mt_1

Both realization types expose the same backend methods: ``mass``
(compensated mass of a union of intervals), ``count`` (points in a
product cell), ``clip``, ``num`` (a scalar), ``full`` (a constant
value) and ``exact``.  Every evaluator in the package is written once
against them, the type of its argument picks the backend, and its
outermost public call returns ``exact`` of its value.  A
``PointRealization`` computes on dyadic rationals ``m * 2**e`` (every
float is one) held as Python ints, with no gcd, so pathwise identities
(additivity, restriction, linearity of the integral) hold exactly.  It
answers each ``mass`` and ``count`` once, from a memo of its own over
read-only arrays; each float it reads becomes a dyadic once, through
one bounded cache, and ``exact`` builds one ``Fraction``.  A
``RealizationBatch`` computes one float per realization for Monte Carlo
work; its ``exact`` is the identity.  Every reduction of a batch runs
on its realization-aligned parts (``parts``): a part selects its points
by index and bincounts them into its slice of one output, so
temporaries stay the size of a part.  A batch also gives the masses of
many adjacent cells at once (``cell_masses``).

One sampler, ``sample_chunks``, draws points, in chunks of whole
realizations; ``sample_prm_batch`` and ``sample_L_interval`` are its
one-chunk case, and ``sample_prm`` is the one-realization batch.  The
chunk size changes no value: every chunk reads the numbers a one-chunk
draw would give its realizations.  Marks invert one tabulated CDF per
model, bit for bit ``np.interp``; an atom is a zero-slope piece, and a
density's table keeps only the pieces a search can select.  A point is
its location and jump ``(x, z)``; atom indices in a mark set select
those atoms' (distinct) jump sizes, through ``mark_sizes``.  A
one-atom law (the compensated Poisson process) draws no marks: its ``z``
is a read-only zero-stride view of the one value.
Sorted-table lookups, the marks' pieces and the cell of each point, go
through one ``GuideTable``, which answers ``np.searchsorted`` with a few
compares, and a crowded table by bisection.  The characteristic exponent
of a theta grid is one batched quadrature, and the values at ``-theta``
mirror those at ``theta``.

Every Monte Carlo computation of the package is a :class:`Plan`: its
declared :class:`Draw` records, each run through one loop, :func:`simulate`,
and a function of their reduced :class:`Estimates`.  The loop evaluates
one chunk at a time, so a draw holds one chunk of points however many
realizations it has.
"""

from __future__ import annotations

import cmath
import copy
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, PointCountError, WindowExceededError
from .gate import Gate, mean_se
from .measure import (LevyMeasureModel, TruncatedDensity, _density_integrals,
                      signed_moment)
from .rng import CHAR_GAP_STREAM, derive_rng

Interval = tuple[float, float]


class _Dyadic:
    """An exact dyadic rational ``m * 2**e`` on Python ints, the exact backend's value.
    A sum aligns the exponents by a shift and a product adds them: no gcd.  An
    int, float or dyadic ``Fraction`` operand converts exactly (``_dyadic``)."""

    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int) -> None:
        self.m, self.e = m, e

    def __add__(self, other, sign: int = 1) -> _Dyadic:
        if other.__class__ is not _Dyadic:
            other = _dyadic(other)
        d = self.e - other.e
        if d >= 0:
            return _Dyadic((self.m << d) + sign * other.m, other.e)
        return _Dyadic(self.m + sign * (other.m << -d), self.e)

    def __sub__(self, other) -> _Dyadic:
        return self.__add__(other, -1)

    def __rsub__(self, other) -> _Dyadic:
        return _dyadic(other) - self

    def __mul__(self, other) -> _Dyadic:
        if other.__class__ is not _Dyadic:
            other = _dyadic(other)
        return _Dyadic(self.m * other.m, self.e + other.e)

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, p: int) -> _Dyadic:
        p = operator.index(p)  # a numpy int would wrap
        if p < 0:
            raise ValueError(f"a negative power of {self.fraction()!r} need not be dyadic")
        return _Dyadic(self.m ** p, self.e * p)

    def __neg__(self) -> _Dyadic:
        return _Dyadic(-self.m, self.e)

    def __abs__(self) -> _Dyadic:
        return _Dyadic(abs(self.m), self.e)

    def __bool__(self) -> bool:
        return self.m != 0

    def _comparison(op):
        def compare(self, other) -> bool:
            if other.__class__ is _Dyadic or isinstance(other, int):
                return op((self - other).m, 0)
            return op(self.fraction(), other)  # a float, or a Fraction that need not be dyadic
        return compare

    __eq__, __lt__, __le__, __gt__, __ge__ = map(_comparison, (
        operator.eq, operator.lt, operator.le, operator.gt, operator.ge))
    del _comparison

    def __float__(self) -> float:  # int true division rounds correctly, as Fraction's does
        return float(self.m << self.e) if self.e >= 0 else self.m / (1 << -self.e)

    def fraction(self) -> Fraction:  # Fraction(m, 2**-e): one gcd
        return Fraction(self.m << self.e) if self.e >= 0 else Fraction(self.m, 1 << -self.e)


# A few dozen distinct values (cell ends, kernel coefficients, constants, cell
# intensities), each converted once.  A float is its own key, hashed in C; a Fraction
# is keyed by its integer ratio, since its own hash and equality run in Python.
@lru_cache(maxsize=4096)
def _ratio_dyadic(key) -> _Dyadic | None:
    """A float or an integer ratio ``(n, d)`` as a dyadic; None unless ``d`` is a power of 2."""
    n, d = key if key.__class__ is tuple else key.as_integer_ratio()  # refuses inf and NaN
    return None if d & (d - 1) else _Dyadic(n, 1 - d.bit_length())


def _dyadic(x) -> _Dyadic:
    """``x`` as a dyadic: a float, a ``Fraction`` whose denominator is a power of two, or
    an integer, numpy's too, through ``operator.index``."""
    if isinstance(x, float):
        out = _ratio_dyadic(x)
    elif x.__class__ is _Dyadic:
        return x
    elif isinstance(x, Fraction):
        out = _ratio_dyadic(x.as_integer_ratio())
    else:
        return _Dyadic(operator.index(x), 0)
    if out is None:
        raise ValueError(f"{x!r} is not a dyadic rational m * 2**e")
    return out


@lru_cache(maxsize=1024)
def mark_sizes(model: LevyMeasureModel, marks: frozenset) -> frozenset[float]:
    """The jump sizes of the atoms whose indices ``marks`` holds.  An index the model
    lacks, a negative one, or any index on a density names no jump."""
    return frozenset(z for j, (z, _) in enumerate(model.atoms or ()) if j in marks)


def in_marks(model: LevyMeasureModel, marks, z: float) -> bool:
    """Whether a jump ``z`` lies in ``marks``: a frozenset of atom indices, which
    selects their sizes (:func:`mark_sizes`), or a ``(z_lo, z_hi]`` band."""
    return (z in mark_sizes(model, marks) if isinstance(marks, frozenset)
            else marks[0] < z <= marks[1])


@dataclass(frozen=True, eq=False)
class PointRealization:
    """One sampled point configuration on ``[-K, K] x R0``.

    ``x`` is sorted ascending, so the part of the configuration left of
    any horizon is a prefix; ``z`` holds the jump of each point.  A
    location that is unsorted, NaN or outside the window (up to the
    sets' slack), or an ``x`` of another shape than ``z``, is refused:
    ``mass`` and ``count`` binary-search ``x``.

    A realization answers each exact question once: ``mass`` of a
    normalized interval tuple and ``count`` of an ``(a, b, marks)`` cell
    are stored in a per-instance memo, bounded by the distinct questions
    asked and freed with the realization.  ``x`` and ``z`` are
    read-only copies of the arrays given, so no stored answer goes stale.
    """

    window: float
    x: np.ndarray
    z: np.ndarray
    model: LevyMeasureModel
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("x", "z"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.x.ndim != 1 or self.x.shape != self.z.shape:
            raise ValueError(f"x of shape {self.x.shape} and z of shape {self.z.shape} "
                             "are not one location per jump")
        xs = self.x.tolist()
        if xs:  # every comparison with a NaN is false
            if not (xs[0] == xs[0] and all(map(operator.le, xs, xs[1:]))):
                raise ValueError("x must be sorted ascending, with no NaN")
            _check_window([(xs[0], xs[0]), (xs[-1], xs[-1])], self.window)

    def __len__(self) -> int:
        return len(self.x)

    # -- exact backend: masses are dyadics, counts ints -------------------

    def mass(self, sets) -> _Dyadic:
        try:  # a question asked before in the same form skips the normalization
            out, raw = self._memo.get(sets), sets
        except TypeError:  # a list, or a tuple of lists, is no key
            out = raw = None
        if out is None:
            key = tuple(normalize_intervals(sets))  # pairs; a count key starts with a number
            out = self._memo.get(key)
            if out is None:
                out = self._memo[key] = self._mass(key)
            if raw is not None:
                self._memo[raw] = out
        return out

    def count(self, a: float, b: float, marks) -> int:
        """Number of points in ``(a, b] x B``; ``marks`` as for ``RealizationBatch.count``."""
        if not isinstance(marks, frozenset):  # a band given as a list is keyed as a tuple
            marks = tuple(marks)
        key = (a, b, marks)
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = self._count(a, b, marks)
        return out

    def _mass(self, intervals) -> _Dyadic:
        _check_window(intervals, self.window)
        jumps: list[float] = []
        ends: list[float] = []
        for a, b in intervals:
            lo, hi = np.searchsorted(self.x, (a, b), side="right").tolist()
            jumps += self.z[lo:hi].tolist()
            ends += (b, -a)
        return _dyadic_sum(jumps) - _dyadic_sum(ends) * _mt1(self.model)

    def _count(self, a: float, b: float, marks) -> int:
        _check_window([(a, b)], self.window)
        lo, hi = np.searchsorted(self.x, (a, b), side="right").tolist()
        zs = self.z[lo:hi].tolist()
        if isinstance(marks, frozenset):
            sizes = mark_sizes(self.model, marks)
            return sum(z in sizes for z in zs)
        zlo, zhi = marks
        return sum(zlo < z <= zhi for z in zs)

    @staticmethod
    def clip(v: _Dyadic, c: float) -> _Dyadic:
        c = _dyadic(c)
        return v if abs(v) <= c else c if v.m > 0 else -c

    num = full = staticmethod(_dyadic)
    exact = staticmethod(_Dyadic.fraction)  # a public call's result, as one Fraction


@dataclass(frozen=True, eq=False)
class RealizationBatch:
    """``n`` independent realizations stored as flat arrays.

    ``owner[k]`` is the index of the realization that point ``k``
    belongs to, and it is sorted.  A per-realization reduction runs part by
    part (``parts``): each part takes the indices of its selected points
    from one ``np.flatnonzero`` of its own mask, and bincounts them over
    ``owner`` into its slice of one preallocated output.  A realization's
    points lie in one part in index order, so each sum adds them from 0.0
    in the order a whole-batch bincount would.
    """

    window: float
    n: int
    x: np.ndarray
    z: np.ndarray
    owner: np.ndarray
    model: LevyMeasureModel
    atom = None  # no atom index is stored; read by perfbench's batch gauge

    def realization(self, i: int) -> PointRealization:
        if not 0 <= i < self.n:
            raise IndexError(f"realization {i} of a batch of {self.n}")
        # owner is sorted: realization i is one slice, its points in draw order
        p0, p1 = np.searchsorted(self.owner, np.array((i, i + 1), self.owner.dtype)).tolist()
        order = np.argsort(self.x[p0:p1], kind="stable")
        return PointRealization(self.window, self.x[p0:p1][order], self.z[p0:p1][order],
                                self.model)

    # -- float backend: one value per realization -------------------------

    def mass(self, sets) -> np.ndarray:
        intervals = normalize_intervals(sets)
        _check_window(intervals, self.window)
        out = np.zeros(self.n)
        for r0, part in self.parts(0):
            total = out[r0:r0 + part.n]
            for a, b in intervals:
                k = part._inside(a, b)
                total += np.bincount(part.owner[k], weights=part.z[k], minlength=part.n)
        out -= sum(b - a for a, b in intervals) * float(_mt1(self.model))
        return out

    def cell_masses(self, edges: "GuideTable") -> np.ndarray:
        """Compensated masses of the cells ``(e_k, e_{k+1}]`` between consecutive
        entries of the guide's table: one row per cell, one column per realization.

        Each point gets its cell from the guided search, and one ``bincount``
        over ``cell * n + owner`` sums the jumps of every cell.  It adds each
        realization's points in a cell in index order from 0.0, as ``mass``
        does on each part, so every row equals ``mass`` of its cell bit for bit.
        """
        key = edges.search(self.x, "left")
        key *= self.n
        key += self.owner
        sums = np.bincount(key, weights=self.z, minlength=(len(edges.table) + 1) * self.n)
        sums = sums.reshape(-1, self.n)[1:-1]  # rows 0 and -1: points outside the edges
        return sums - (np.diff(edges.table) * float(_mt1(self.model)))[:, None]

    def parts(self, row_entries: int):
        """Realization-aligned sub-batches as ``(first realization, part)`` pairs.

        A part holds about ``_PART_SIZE`` points plus ``row_entries`` table
        entries per realization.  ``owner`` is sorted, so each part is a
        slice of the arrays holding whole realizations; a batch within one
        part is its own part.
        """
        per = max(1, _PART_SIZE * self.n // max(1, len(self.x) + row_entries * self.n))
        if per >= self.n:
            yield 0, self
            return
        for r0 in range(0, self.n, per):
            r1 = min(r0 + per, self.n)
            # keys of owner's dtype: other ints would convert the whole array
            p0, p1 = np.searchsorted(self.owner, np.array((r0, r1), self.owner.dtype)).tolist()
            yield r0, RealizationBatch(self.window, r1 - r0, self.x[p0:p1], self.z[p0:p1],
                                       self.owner[p0:p1] - r0, self.model)

    def _inside(self, a: float, b: float) -> np.ndarray:
        """Indices of the points located in ``(a, b]``."""
        inside = self.x > a
        inside &= self.x <= b
        return np.flatnonzero(inside)

    def count(self, a: float, b: float, marks) -> np.ndarray:
        """Per-realization point counts in ``(a, b] x B``.

        ``marks`` is a frozenset of atom indices (atomic models), which selects
        those atoms' jump sizes, or a ``(z_lo, z_hi]`` interval of jump sizes
        (density models).  An index the model lacks, or an empty set, selects
        no point.
        """
        _check_window([(a, b)], self.window)
        if isinstance(marks, frozenset):
            wanted = np.fromiter(mark_sizes(self.model, marks), dtype=float)
        else:
            zlo, zhi = marks
        out = np.empty(self.n)
        for r0, part in self.parts(0):
            k = part._inside(a, b)
            if isinstance(marks, frozenset):
                k = k[np.isin(part.z[k], wanted)]
            else:
                zk = part.z[k]
                k = k[(zk > zlo) & (zk <= zhi)]
            out[r0:r0 + part.n] = np.bincount(part.owner[k], minlength=part.n)
        return out

    @staticmethod
    def clip(v: np.ndarray, c: float) -> np.ndarray:
        return np.clip(v, -c, c)

    num = staticmethod(float)

    def full(self, x) -> np.ndarray:
        return np.full(self.n, float(x))

    @staticmethod
    def exact(v: np.ndarray) -> np.ndarray:
        return v


# Values per step of a guided search: its temporaries stay in cache.  Marks
# are drawn in these chunks too, so a batch keeps 20 bytes per point (x, z and
# a 4-byte owner) and no whole-batch 8-byte index array; 12 bytes for one atom,
# whose z is a zero-stride view.
_SEARCH_CHUNK = 1 << 16
# Points plus cell-table entries of one part of RealizationBatch.parts, on which
# every per-realization reduction of a batch runs: its masks, indices, gathers
# and weights stay this size, however many realizations the batch holds.  The
# chunks of sample_chunks hold about this many points too.
_PART_SIZE = 1 << 18
# Expected points, and realizations, of one sampling call.  A one-chunk call
# (sample_prm_batch, sample_L_interval) holds all its points, about 5.4 GB at 20
# bytes per point; a chunked draw holds one chunk, so there the cap bounds the
# sampling work.  Every draw holds 8 bytes per realization for its counts and for
# each named array.  Past either cap a call is refused before any draw, not left
# to fail in numpy's Poisson draw or in an allocation of the whole draw.
MAX_EXPECTED_POINTS = 1 << 28


def expected_points(model: LevyMeasureModel, n: int, window: float | None = None,
                    length: float | None = None) -> float:
    """``total_mass * (2 window | length) * n``: the expected points of ``n`` point
    configurations on ``[-window, window]``, or of ``n`` draws of ``L(A)`` with
    ``|A| = length``."""
    return model.total_mass * (2.0 * window if length is None else length) * n


def _check_point_count(expected: float, n: int, what: str = "a sampling call") -> None:
    if not expected <= MAX_EXPECTED_POINTS:
        raise PointCountError(f"{what} expecting {expected:.3g} points is past "
                              f"the cap of {MAX_EXPECTED_POINTS} points")
    if not n <= MAX_EXPECTED_POINTS:
        raise PointCountError(f"{what} of {n:.3g} realizations is past "
                              f"the cap of {MAX_EXPECTED_POINTS} realizations")


def _owners(counts: np.ndarray) -> np.ndarray:
    """The realization index of each point, for realizations of ``counts`` points."""
    n = len(counts)
    return np.repeat(np.arange(n, dtype=np.int32 if n <= np.iinfo(np.int32).max else np.intp),
                     counts)


class GuideTable:
    """``np.searchsorted(table, v, side)`` through a guide table (Chen & Asau 1974;
    Devroye 1986, ch. III).

    The range of the sorted table is cut into equal slices, 8 per entry.
    Each slice stores how many entries fall in the slices left of it, a
    lower bound of every answer in the slice, and ``steps`` forward compares
    finish each search, ``steps`` the entry count of the fullest slice.
    Table entries and values get their slices from the same float
    operations, which round monotonically, so both bounds are exact and the
    result equals ``np.searchsorted`` on either side.  A crowded table, whose
    ``steps`` exceeds the ``ceil(log2(len + 1))`` passes of a bisection, is
    searched by ``np.searchsorted`` itself.  The table must be finite and
    nonempty, and the values must not be NaN.
    """

    def __init__(self, table) -> None:
        self.table = np.asarray(table, dtype=float)
        self._lo, self._hi = float(self.table[0]), float(self.table[-1])
        slices = 8 * len(self.table)
        scale = slices / (self._hi - self._lo) if self._hi > self._lo else 0.0
        if not 0.0 < scale < math.inf:  # a zero, subnormal or overflowing span
            scale, self._lo = 0.0, self._hi  # every value clips onto slice 0
        self._scale = scale
        # values clip onto the table's range, so no value passes the last entry's slice
        counts = np.bincount(self._slice(self.table))
        self._start = np.cumsum(counts) - counts  # entries in the slices left of each
        self.steps = int(counts.max())
        self.bisects = self.steps > len(self.table).bit_length()  # ceil(log2(len + 1))
        # a NaN compares false on either side, so no search passes the last entry
        self._padded = np.append(self.table, np.nan)

    def _slice(self, v: np.ndarray) -> np.ndarray:
        k = np.clip(v, self._lo, self._hi)  # no overflow below, and no infinity
        k -= self._lo
        k *= self._scale
        return k.astype(np.intp)

    def search(self, v: np.ndarray, side: str) -> np.ndarray:
        """``np.searchsorted(self.table, v, side)``, ``side`` ``"left"`` or ``"right"``."""
        if self.bisects:
            return np.searchsorted(self.table, v, side)
        before = {"left": np.less, "right": np.less_equal}[side]
        out = np.empty(len(v), dtype=np.intp)
        for lo in range(0, len(v), _SEARCH_CHUNK):
            vc = v[lo:lo + _SEARCH_CHUNK]
            idx = self._start[self._slice(vc)]
            for _ in range(self.steps):
                idx += before(self._padded[idx], vc)
            out[lo:lo + _SEARCH_CHUNK] = idx
        return out


def _sample_marks(model: LevyMeasureModel, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` i.i.d. jump sizes from the normalized measure."""
    table = _mark_table(model)
    if table.one_point:  # every mark is z[0]: no word is read, and nothing is stored
        return np.broadcast_to(table.z[0], (count,))
    z = rng.random(count)
    z *= table.cdf[-1]
    for lo in range(0, count, _SEARCH_CHUNK):
        chunk = z[lo:lo + _SEARCH_CHUNK]
        table.invert(chunk, chunk)
    return z


@dataclass(frozen=True, eq=False)
class _InverseCDF:
    """Linear interpolation of a tabulated CDF's inverse, bit for bit ``np.interp`` on
    the grid its pieces come from: piece ``j`` is its start ``(cdf[j], z[j])`` and
    its slope."""

    z: np.ndarray
    cdf: np.ndarray
    slope: np.ndarray   # slope of each table piece; 0.0 past the last entry
    guide: GuideTable   # over ``cdf``

    @property
    def one_point(self) -> bool:
        """One piece: the law of one atom, whose inverse is ``z[0]`` for every ``u``."""
        return len(self.cdf) == 2

    def invert(self, u: np.ndarray, out: np.ndarray) -> None:
        """``out[:]`` = the inverse at ``u`` for ``cdf[0] <= u <= cdf[-1]``; ``out``
        may be ``u``.

        The piece of ``u`` is ``j = searchsorted(cdf, u, "right") - 1`` and
        the value np.interp's own ``slope[j] * (u - cdf[j]) + z[j]``; a
        ``u`` on a table entry gives ``z[j]`` and ``u == cdf[-1]`` gives
        ``z[-1]``, as in np.interp.  A zero-width piece of the grid (a
        repeated CDF value) is never selected, so the table need not hold it.
        """
        j = self.guide.search(u, "right")
        j -= 1
        np.subtract(u, self.cdf[j], out=out)
        out *= self.slope[j]
        out += self.z[j]


def _density_grid(den: TruncatedDensity) -> tuple[np.ndarray, np.ndarray]:
    """The trapezoid CDF of a density on 4096 points of each support piece:
    ``(z, cdf)``, 8192 points whose inverse is ``np.interp(u, cdf, z)``.  The
    step from ``-eps`` to ``eps`` has zero width."""
    n_side = 4096
    left = np.linspace(-den.z_max, -den.eps, n_side)
    right = np.linspace(den.eps, den.z_max, n_side)
    pl = np.array([den.density(z) for z in left])
    pr = np.array([den.density(z) for z in right])
    cum_left = np.concatenate([[0.0], np.cumsum((pl[1:] + pl[:-1]) * 0.5 * np.diff(left))])
    cum_right = np.concatenate([[0.0], np.cumsum((pr[1:] + pr[:-1]) * 0.5 * np.diff(right))])
    return np.concatenate([left, right]), np.concatenate([cum_left, cum_left[-1] + cum_right])


@lru_cache(maxsize=None)
def _mark_table(model: LevyMeasureModel) -> _InverseCDF:
    """Tabulated CDF of the normalized measure (inverse sampling), with its
    guide table and slopes built once per model.

    Atom ``j`` is the piece from the mass left of it, of slope 0, so its
    value ``0.0 * (u - cdf[j]) + z[j]`` is ``z[j]`` bit for bit.  A density's
    table holds the selectable pieces of :func:`_density_grid`: a piece of
    zero width (a repeated CDF value, as at the step from ``-eps`` to ``eps``)
    is never selected by a ``side="right"`` search, so it is dropped, and the
    inverse is still ``np.interp`` on the full grid, while the repeated value no
    longer fills a guide slice twice.  In density mode, grid inversion is
    an approximation of the mark law; the acceptance suite exercises atomic
    measures only, where sampling is exact.
    """
    if model.is_atomic:
        zs, lams = model.atom_arrays()
        cum = np.cumsum(lams)
        cum /= cum[-1]  # cum[-1] == 1.0 > u: the last piece is never selected
        cdf = np.concatenate([[0.0], cum])
        return _InverseCDF(np.append(zs, zs[-1]), cdf, np.zeros(len(cdf)), GuideTable(cdf))
    grid_z, grid_cdf = _density_grid(model.density)
    dz, dcdf = np.diff(grid_z), np.diff(grid_cdf)
    wide = dcdf > 0
    keep = np.append(wide, True)  # the last entry, of slope 0, answers u == cdf[-1]
    cdf = grid_cdf[keep]
    return _InverseCDF(grid_z[keep], cdf, np.append(dz[wide] / dcdf[wide], 0.0), GuideTable(cdf))


def sample_chunks(model: LevyMeasureModel, n: int, rng: np.random.Generator,
                  window: float | None = None, length: float | None = None,
                  whole: bool = False) -> Iterator[tuple[int, RealizationBatch | np.ndarray]]:
    """The one sampler: ``n`` independent realizations as ``(first realization, chunk)``
    pairs in realization order, each chunk about ``_PART_SIZE`` points of whole
    realizations, or, with ``whole``, the one chunk of all ``n``.

    With ``window`` a chunk is a :class:`RealizationBatch` of point configurations
    on ``[-window, window]``; with ``length`` it is the array of ``L(A)`` for a set
    of that length.  The stream holds all ``n`` Poisson counts, then the locations
    of all points in realization order, then their marks (``L(A)``: the marks right
    after the counts).  A chunked draw takes its locations from ``rng`` and its
    marks from a copy of ``rng`` skipped past every location.  Each ``uniform`` or
    ``random`` value takes one 64-bit word, so every chunk reads the very words a
    one-chunk draw gives its realizations, and the chunking changes no value.  A
    one-atom law reads no mark words, so it makes no copy, and ``rng`` stops after
    the locations (``L(A)``: after the counts); every value is the same.  The
    argument checks and the counts run before this returns; each chunk is drawn
    when it is asked for.
    """
    if length is None and window < 0:
        raise ValueError("window must be >= 0")
    if length is not None and length < 0:
        raise ValueError("length must be >= 0")
    _check_point_count(expected_points(model, n, window, length), n)
    counts = rng.poisson(expected_points(model, 1, window, length), n)
    total = int(counts.sum())
    per = max(1, n if whole else _PART_SIZE * n // max(1, total))
    one_point = _mark_table(model).one_point
    marks = rng if length is not None or per >= n or one_point else _skipped(rng, total)

    def chunks():
        for r0 in range(0, max(n, 1), per):
            part = counts[r0:r0 + per]
            # L(A) allocates its marks before its owners: owners first, glibc's heap layout
            # after a 1e6-value draw made a later 1e6-realization batch peak 6 MB higher
            if length is None:
                owner = _owners(part)
                x = rng.uniform(-window, window, len(owner))
                z = _sample_marks(model, len(owner), marks)
                yield r0, RealizationBatch(float(window), len(part), x, z, owner, model)
            else:
                z = _sample_marks(model, int(part.sum()), marks)
                sums = np.bincount(_owners(part), weights=z, minlength=len(part))
                yield r0, sums - length * float(_mt1(model))
    return chunks()


def _skipped(rng: np.random.Generator, words: int) -> np.random.Generator:
    """A copy of a Philox ``rng`` that starts ``words`` 64-bit words further on; ``rng``
    itself does not move.

    Philox makes its words four at a time and buffers the rest of a block.  The
    copy takes the buffered words, skips whole blocks with ``advance`` (which
    empties the buffer), and takes the last ``words % 4`` words one by one.
    """
    ahead = copy.deepcopy(rng)
    bits = ahead.bit_generator
    buffered = min(words, 4 - bits.state["buffer_pos"])
    bits.random_raw(buffered)
    words -= buffered
    if words:  # the buffer is empty, so advance drops no word
        bits.advance(words // 4)
        bits.random_raw(words % 4)
    return ahead


def sample_prm(model: LevyMeasureModel, window: float, seed: int) -> PointRealization:
    """Sample one point configuration on ``[-K, K] x R0``; deterministic in ``seed``.

    The one-realization batch with ``x`` sorted; the marks, drawn apart from
    the locations, stay in draw order."""
    batch = sample_prm_batch(model, window, 1, derive_rng(seed))
    return PointRealization(batch.window, np.sort(batch.x), batch.z, model)


def sample_prm_batch(model: LevyMeasureModel, window: float, n: int,
                     rng: np.random.Generator) -> RealizationBatch:
    """Sample ``n`` independent configurations as one flat batch: the one-chunk draw."""
    ((_, batch),) = sample_chunks(model, n, rng, window=window, whole=True)
    return batch


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
    """Every ``(a, b]`` in ``[-K, K]`` up to a 1e-15 slack; a point ``x`` is ``(x, x)``."""
    lo, hi = -window - 1e-15, window + 1e-15
    for a, b in intervals:
        if not (lo <= a and b <= hi):  # a NaN end fails it
            where = f"point {a}" if a == b else f"set ({a}, {b}]"
            raise WindowExceededError(f"{where} outside sampled window [-{window}, {window}]")


@lru_cache(maxsize=None)
def _mt1(model: LevyMeasureModel) -> _Dyadic:
    return _dyadic(signed_moment(model, 1))


def _dyadic_sum(values: list[float]) -> _Dyadic:
    """Exact sum of floats, as integers over the largest ``2**k`` among their denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max((d for _, d in ratios), default=1)
    return _Dyadic(sum(n * (den // d) for n, d in ratios), 1 - den.bit_length())


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
    return src.exact(src.mass(sets))


def eval_path(real: PointRealization, x: float) -> Fraction:
    """Two-sided path value: mass of ``(0, x]`` for x >= 0, minus mass of ``(x, 0]`` for x < 0."""
    _check_window([(x, x)], real.window)
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
    """Vector of ``sum f(x_i) z_i - mt_1 * f_integral`` over the batch.

    ``f`` acts elementwise; it is applied part by part, so no whole-batch
    weight array is built."""
    out = np.empty(batch.n)
    for r0, part in batch.parts(0):
        out[r0:r0 + part.n] = np.bincount(part.owner, weights=f(part.x) * part.z,
                                          minlength=part.n)
    out -= float(_mt1(batch.model)) * f_integral
    return out


# ---------------------------------------------------------------------------
# direct sampling of L(A) (marginal law) and the characteristic function
# ---------------------------------------------------------------------------

def sample_L_interval(model: LevyMeasureModel, length: float, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """``n`` i.i.d. draws of ``L(A)`` for a set of Lebesgue measure ``length``.

    Uses the compound-Poisson representation of the restriction of the
    point configuration to ``A``, which has the same law as evaluating a
    windowed realization on ``A``; far cheaper for marginal statistics.
    The one-chunk draw.
    """
    ((_, values),) = sample_chunks(model, n, rng, length=length, whole=True)
    return values


def char_exponents(model: LevyMeasureModel, thetas) -> list[complex]:
    """Integral of ``e^{i theta z} - 1 - i theta z`` against the jump measure, for each
    ``theta`` of ``thetas``.  On a density the thetas are the nodes of one batched
    quadrature per support piece and per real or imaginary part."""
    thetas = [float(theta) for theta in thetas]
    if model.is_atomic:
        return [sum(lam * (cmath.exp(1j * theta * z) - 1.0 - 1j * theta * z)
                    for z, lam in model.atoms) for theta in thetas]
    re = _density_integrals(model.density, lambda t, z: math.cos(t * z) - 1.0, thetas)
    im = _density_integrals(model.density, lambda t, z: math.sin(t * z) - t * z, thetas)
    return [complex(r, i) for r, i in zip(re, im)]


def char_exponent(model: LevyMeasureModel, theta: float) -> complex:
    """:func:`char_exponents` at one ``theta``."""
    return char_exponents(model, [theta])[0]


def theoretical_chars(model: LevyMeasureModel, length: float, thetas) -> list[complex]:
    """Characteristic function of ``L(A)`` with ``|A| = length``, at each of ``thetas``."""
    return [cmath.exp(length * c) for c in char_exponents(model, thetas)]


def theoretical_char(model: LevyMeasureModel, length: float, theta: float) -> complex:
    """:func:`theoretical_chars` at one ``theta``."""
    return theoretical_chars(model, length, [theta])[0]


@dataclass(frozen=True)
class CharFunctionReport:
    sup_gap: float
    thetas: tuple[float, ...]
    empirical: tuple[complex, ...]
    theoretical: tuple[complex, ...]
    n_samples: int


def char_gap_plan(model: LevyMeasureModel, interval: Interval, thetas, n_samples: int,
                  seed: int) -> Plan:
    """Sup over a theta grid of |empirical - theoretical| characteristic function of
    ``L(A)``, ``|A|`` the length of ``interval``, from ``n_samples`` kept draws.

    The empirical mean runs over the distinct sample values weighted by
    their counts.  Under an atomic measure ``L(A)`` lives on a lattice, so
    a million draws take a few dozen values and each theta costs a few
    dozen exponentials instead of one per draw.  Both values at a negative
    theta whose negation the grid also holds (by float equality) are the
    conjugates of those at the negation, as the per-theta rule gives them
    to the bit; every other theta is computed, the theoretical values in
    one :func:`theoretical_chars` call.

    A largest ``|theta|`` times largest ``|L(A)|`` drawn past the float range
    raises ConfigError before any exponential would turn it into a NaN; it
    needs the draw, so no config check can see it.
    """
    a, b = interval
    length = float(b) - float(a)
    grid = [float(theta) for theta in thetas]
    positive = {theta: k for k, theta in enumerate(grid) if theta > 0}
    mirror = {k: positive[-theta] for k, theta in enumerate(grid) if -theta in positive}
    own = [k for k in range(len(grid)) if k not in mirror]
    theta_top = max(map(abs, grid), default=0.0)

    def finish(est: Estimates) -> CharFunctionReport:
        vals, counts = np.unique(est.samples, return_counts=True)
        reach = float(np.abs(vals).max(initial=0.0))
        if not theta_top * reach < math.inf:  # float products overflow to inf, with no warning
            raise ConfigError(f"char_gap: theta_max: {theta_top} times the largest |L(A)| "
                              f"drawn, {reach}, is past the float range")
        emp, theo = [0j] * len(grid), [0j] * len(grid)
        for k, t in zip(own, theoretical_chars(model, length, [grid[k] for k in own])):
            emp[k] = complex((np.exp(1j * grid[k] * vals) * counts).sum() / n_samples)
            theo[k] = t
        for k, j in mirror.items():  # 0.0 - y: a zero stays +0.0, as a cancelling sum gives it
            emp[k], theo[k] = (complex(c.real, 0.0 - c.imag) for c in (emp[j], theo[j]))
        gaps = [abs(e - t) for e, t in zip(emp, theo)]
        return CharFunctionReport(max(gaps), tuple(grid), tuple(emp), tuple(theo), n_samples)
    return Plan((Draw(CHAR_GAP_STREAM, seed, n_samples, lambda values: {"L": values},
                      length=length, keep="L"),), finish)


# ---------------------------------------------------------------------------
# the Monte Carlo loop: draw, evaluate, reduce, gate
# ---------------------------------------------------------------------------

HEAVY_TAIL_SE_MULTIPLIER = 4.0

# A gate on the mean of one named array; ``heavy`` marks a heavy-tailed statistic
# (squares and products of noise), whose standard error is itself noisy.
MeanTest = namedtuple("MeanTest", "label array target side heavy", defaults=("two", False))


@dataclass(frozen=True)
class Draw:
    """The Monte Carlo part of a check, declared: what it draws and what it reads.

    ``n`` realizations come from the stream keyed ``(seed, stream)``,
    ``stream`` an id of :mod:`levynoise.rng`: point configurations on
    ``[-window, window]``, or, with ``length`` set, values of ``L(A)`` for
    a set of that length.  ``arrays`` maps the draw to named arrays with
    one value per realization; ``keep`` names the one kept whole.
    """

    stream: int
    seed: int
    n: int
    arrays: Callable[[object], dict[str, np.ndarray]]
    window: float | None = None
    length: float | None = None
    keep: str | None = None

    def check_points(self, model: LevyMeasureModel, what: str = "a draw") -> None:
        """PointCountError if the draw is past the sampler's cap of points or realizations."""
        _check_point_count(expected_points(model, self.n, self.window, self.length), self.n, what)


class Estimates(NamedTuple):
    stats: dict[str, tuple[float, float]]  # the mean and its standard error, per array
    samples: np.ndarray | None             # the kept array

    def gates(self, tests, se_multiplier: float | None = None,
              default_multiplier: float = 3.0) -> tuple[Gate, ...]:
        """Gates on the means the tests name, at ``se_multiplier`` SEs when given, else at
        ``HEAVY_TAIL_SE_MULTIPLIER`` for a heavy-tailed statistic, else ``default_multiplier``."""
        mult = lambda t: (se_multiplier if se_multiplier is not None
                          else HEAVY_TAIL_SE_MULTIPLIER if t.heavy else default_multiplier)
        return tuple(Gate(t.label, self.stats[t.array][0], t.target, t.side,
                          self.stats[t.array][1], mult(t)) for t in tests)


def simulate(model: LevyMeasureModel, draw: Draw) -> Estimates:
    """Sample a declared draw chunk by chunk, evaluate its arrays on each chunk and
    drop it, and reduce each array, whole, to its mean and standard error."""
    out: dict[str, np.ndarray] = {}
    chunks = sample_chunks(model, draw.n, derive_rng(draw.seed, draw.stream), draw.window,
                           draw.length)
    for r0, chunk in chunks:
        for name, values in draw.arrays(chunk).items():
            if name not in out:
                out[name] = np.empty(draw.n, values.dtype)
            out[name][r0:r0 + len(values)] = values
    return Estimates({name: mean_se(values) for name, values in out.items()},
                     out.get(draw.keep))


class Plan(NamedTuple):
    """A sampling computation, declared: its draws, and ``finish``, which maps one
    :class:`Estimates` per draw, in order, to the result."""
    draws: tuple[Draw, ...]
    finish: Callable

    def run(self, model: LevyMeasureModel):
        """Run each draw through :func:`simulate`, and ``finish`` their estimates."""
        return self.finish(*(simulate(model, draw) for draw in self.draws))

    def then(self, f: Callable) -> Plan:
        """The plan whose result is ``f`` of this one's."""
        return Plan(self.draws, lambda *est: f(self.finish(*est)))


def run_of(build: Callable[..., Plan]) -> Callable:
    """``build(model, ...).run(model)``, with ``build``'s parameters and docstring."""
    @wraps(build)
    def run(model: LevyMeasureModel, *args, **kwargs):
        return build(model, *args, **kwargs).run(model)
    return run


char_function_gap = run_of(char_gap_plan)
