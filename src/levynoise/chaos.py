"""Finite chaos calculus on step kernels over the compensated measure.

Everything here is built from *step kernels*: order-k coefficient
tensors over finitely many disjoint product cells
``F_i = (a_i, b_i] x B_i`` (interval times a set of jump marks), with
coefficients vanishing whenever two indices coincide.  On such kernels
the multiple integral is the finite polynomial

    I_k(h) = sum over distinct index tuples of
             beta[i_1..i_k] * prod_j hatN(F_{i_j}),

where ``hatN(F) = #points in F - |A| nu(B)`` is the compensated cell
count.  This class is dense enough to exercise:

* conditional expectations: projecting every interval onto
  ``(-inf, y]`` realizes ``E[I_k(h) | F_y]``;
* the annihilation (Malliavin) derivative, via kernel slicing, equal on
  this class to the add-one-point difference operator, which serves as
  its independent oracle;
* the duality of the derivative with the adjoint (Hitsuda-Skorohod)
  integral, on predictable integrands of the form ``Phi(x) z``, where the
  adjoint is evaluated as the pathwise stochastic integral of ``Phi``
  (:func:`duality_gap`).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import MarkSetError
from .gate import Gate, Gated
from .measure import LevyMeasureModel, _density_integral
from .prm import (Draw, MeanTest, Plan, PointRealization, RealizationBatch, _check_window,
                  in_marks, run_of)
from .processes import SimpleProcess, eval_I_K
from .rng import DUALITY_STREAM

MAX_CHAOS_ORDER = 4


@dataclass(frozen=True)
class Cell:
    """Product cell ``(a, b] x B``; ``marks`` is a frozenset of atom indices
    (atomic models), which selects the jump sizes of those atoms, or a
    ``(z_lo, z_hi]`` interval of jump sizes."""

    a: float
    b: float
    marks: object

    def __post_init__(self) -> None:
        if not (self.b > self.a):
            raise ValueError("need a < b")

    def contains(self, x: float, z: float, model: LevyMeasureModel) -> bool:
        return self.a < x <= self.b and in_marks(model, self.marks, z)

    def marks_intersect(self, other: "Cell") -> bool:
        if isinstance(self.marks, frozenset):
            return bool(self.marks & other.marks)
        a1, b1 = self.marks
        a2, b2 = other.marks
        return a1 < b2 and a2 < b1


def _check_marks(model: LevyMeasureModel, marks) -> None:
    """MarkSetError unless ``marks`` are indices of the model's atoms (a frozenset) on an
    atomic model, or a ``(z_lo, z_hi)`` pair of numbers on a density."""
    if model.is_atomic:
        ok = isinstance(marks, frozenset) and all(
            isinstance(j, numbers.Integral) and 0 <= j < len(model.atoms) for j in marks)
        kind = f"a frozenset of atom indices from 0 to {len(model.atoms) - 1}"
    else:
        ok = isinstance(marks, tuple) and len(marks) == 2 and all(
            isinstance(z, numbers.Real) for z in marks)
        kind = "a (z_lo, z_hi) interval of jump sizes"
    if not ok:
        raise MarkSetError(f"marks {marks!r} name no jumps of the measure, which takes {kind}")


def mark_mass(model: LevyMeasureModel, marks) -> Fraction | float:
    """``nu(B)`` for a mark set."""
    _check_marks(model, marks)
    if isinstance(marks, frozenset):
        return sum(Fraction(model.atoms[j][1]) for j in marks)
    return _density_integral(model.density, lambda z: 1.0, *marks)


def mark_first_moment(model: LevyMeasureModel, marks) -> Fraction | float:
    """``integral_B z nu(dz)`` for a mark set."""
    _check_marks(model, marks)
    if isinstance(marks, frozenset):
        return sum(Fraction(model.atoms[j][1]) * Fraction(model.atoms[j][0]) for j in marks)
    return _density_integral(model.density, lambda z: z, *marks)


@dataclass(frozen=True, eq=False)
class StepKernel:
    """Symmetrized order-k step kernel over disjoint cells."""

    order: int
    cells: tuple[Cell, ...]
    beta: np.ndarray
    # the nonzero coefficients as ``(index tuple, float)``, in ``np.ndindex`` order
    entries: tuple[tuple[tuple[int, ...], float], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        k, m = self.order, len(self.cells)
        if not 1 <= k <= MAX_CHAOS_ORDER:
            raise ValueError(f"order must be in 1..{MAX_CHAOS_ORDER}")
        if self.beta.shape != (m,) * k:
            raise ValueError(f"beta must have shape {(m,) * k}")
        if not np.all(np.isfinite(self.beta)):
            raise ValueError("beta must be finite")
        for i, j in itertools.combinations(range(m), 2):
            ci, cj = self.cells[i], self.cells[j]
            if max(ci.a, cj.a) < min(ci.b, cj.b) and ci.marks_intersect(cj):
                raise ValueError(f"cells {i} and {j} overlap")
        entries = []
        for idx in np.ndindex(self.beta.shape):
            b = float(self.beta[idx])
            if b == 0.0:
                continue
            if len(set(idx)) < k:
                raise ValueError("coefficients on repeated indices must be zero")
            entries.append((idx, b))
        object.__setattr__(self, "entries", tuple(entries))

    def read_window(self) -> float:
        """Smallest window radius that covers every cell."""
        return max(max(abs(c.a), abs(c.b)) for c in self.cells)


def make_kernel(order: int, cells, beta) -> StepKernel:
    """Build a step kernel, symmetrizing the coefficient tensor."""
    beta = np.asarray(beta, dtype=float)
    if order > 1:
        acc = np.zeros_like(beta)
        perms = list(itertools.permutations(range(order)))
        for perm in perms:
            acc += np.transpose(beta, perm)
        beta = acc / len(perms)
    return StepKernel(order, tuple(cells), beta)


# Memoized by value with a bounded key set: derivative kernels share their
# parent's cells, and a new kernel per probe must not grow the cache.
@lru_cache(maxsize=1024)
def cell_intensity(model: LevyMeasureModel, cell: Cell) -> Fraction | float:
    """Mean measure of the cell: ``(b - a) * nu(B)``, exact when ``nu(B)`` is."""
    nu = mark_mass(model, cell.marks)
    length = Fraction(cell.b) - Fraction(cell.a)
    return length * nu


def kernel_sq_norm(model: LevyMeasureModel, kernel: StepKernel) -> Fraction | float:
    """Squared norm of the (symmetrized) kernel in the product mean measure."""
    intens = [cell_intensity(model, c) for c in kernel.cells]
    total = Fraction(0)
    for idx, b in kernel.entries:
        prod = Fraction(b) ** 2
        for i in idx:
            prod *= intens[i]
        total += prod
    return total


def chaos_variance(model: LevyMeasureModel, kernel: StepKernel) -> Fraction | float:
    """Exact ``E[I_k(h)^2] = k! * ||h||^2`` for a symmetrized kernel."""
    return math.factorial(kernel.order) * kernel_sq_norm(model, kernel)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def compensated_cell_count(src: PointRealization | RealizationBatch,
                           cell: Cell):
    """``hatN(F) = #points in F - |A| nu(B)``, one float per realization or the exact
    backend's value (``exact`` makes it a Fraction): the body that kernels call."""
    intensity = cell_intensity(src.model, cell)  # checks the marks before any count
    return src.count(cell.a, cell.b, cell.marks) - src.num(intensity)


def eval_multiple_integral(src: PointRealization | RealizationBatch,
                           kernel: StepKernel) -> Fraction | np.ndarray:
    """Pathwise value of ``I_k(h)``, exact or one float per realization."""
    return src.exact(_multiple_integral(src, kernel))


def _multiple_integral(src: PointRealization | RealizationBatch, kernel: StepKernel,
                       point: tuple[float, float] | None = None):
    """The kernel product on ``src``'s compensated counts; an added ``point`` ``(x, z)``
    counts once more in every cell that holds it, which gives the value at ``src + point``."""
    nhat = [compensated_cell_count(src, c) for c in kernel.cells]
    if point is not None:
        nhat = [n + 1 if c.contains(*point, src.model) else n
                for n, c in zip(nhat, kernel.cells)]
    total = src.full(0.0)
    for idx, b in kernel.entries:
        prod = src.full(b)
        for i in idx:
            prod = prod * nhat[i]
        total += prod
    return total


batch_multiple_integral = eval_multiple_integral  # older batch name, used by perfbench


def project_kernel(kernel: StepKernel, y: float) -> StepKernel:
    """Replace every interval by its part left of ``y``; drop emptied cells.

    Evaluating the projected kernel realizes the conditional expectation
    of ``I_k`` given the noise up to ``y``.
    """
    keep: list[int] = []
    new_cells: list[Cell] = []
    for i, c in enumerate(kernel.cells):
        if min(c.b, y) > c.a:
            keep.append(i)
            new_cells.append(Cell(c.a, min(c.b, float(y)), c.marks))
    if not keep:
        empty = Cell(0.0, 1.0, frozenset())
        return StepKernel(kernel.order, (empty,), np.zeros((1,) * kernel.order))
    beta = kernel.beta[np.ix_(*([keep] * kernel.order))]
    return StepKernel(kernel.order, tuple(new_cells), beta)


# ---------------------------------------------------------------------------
# chaos functionals, derivative, adjoint
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChaosFunctional:
    """``c_0 + sum I_{k_j}(h_j)`` with one kernel per order."""

    constant: float
    kernels: tuple[StepKernel, ...]

    def __post_init__(self) -> None:
        orders = [k.order for k in self.kernels]
        if len(set(orders)) != len(orders):
            raise ValueError("at most one kernel per chaos order")
        # cells from different kernels must be identical or disjoint so the
        # derivative is constant on each cell of the union family
        seen: list[Cell] = []
        for kern in self.kernels:
            for c in kern.cells:
                for s in seen:
                    if (c.a, c.b, c.marks) == (s.a, s.b, s.marks):
                        continue
                    if max(c.a, s.a) < min(c.b, s.b) and c.marks_intersect(s):
                        raise ValueError("kernel cells must be identical or disjoint across orders")
                seen.append(c)

    def read_window(self) -> float:
        return max((k.read_window() for k in self.kernels), default=0.0)


def eval_chaos(src: PointRealization | RealizationBatch,
               F: ChaosFunctional) -> Fraction | np.ndarray:
    return src.exact(_chaos(src, F))


def _chaos(src: PointRealization | RealizationBatch, F: ChaosFunctional,
           point: tuple[float, float] | None = None):
    out = src.full(F.constant)
    for k in F.kernels:
        out += _multiple_integral(src, k, point)
    return out


def malliavin_derivative(F: ChaosFunctional, x: float, z: float,
                         model: LevyMeasureModel) -> ChaosFunctional:
    """Annihilation derivative of ``F`` at the point ``(x, z)``.

    Slices each kernel at the cell containing the probe and lowers its
    order by one (weighted by the order); the result is again a chaos
    functional, identically zero when the probe hits no cell.
    """
    constant = 0.0
    kernels: list[StepKernel] = []
    for kern in F.kernels:
        hit = None
        for j, c in enumerate(kern.cells):
            if c.contains(x, z, model):
                hit = j
                break
        if hit is None:
            continue
        k = kern.order
        if k == 1:
            constant += float(kern.beta[hit])
        else:
            sliced = k * kern.beta[..., hit]
            kernels.append(StepKernel(k - 1, kern.cells, sliced))
    return ChaosFunctional(constant, tuple(kernels))


def add_one_cost(F: ChaosFunctional, real: PointRealization, x: float,
                 z: float) -> Fraction | float:
    """Independent oracle for the derivative: ``F(omega + delta_(x,z)) - F(omega)``, two full
    kernel products on cell counts.  ``omega + delta_(x,z)`` is no realization: its counts
    are ``real``'s memoized ones, each cell that holds ``(x, z)`` bumped by one.
    ``F(omega)`` is kept in ``real``'s memo under ``F``."""
    x, z = float(x), float(z)
    _check_window([(x, x)], real.window)
    before = real._memo.get(F)
    if before is None:
        before = real._memo[F] = _chaos(real, F)
    return real.exact(_chaos(real, F, (x, z)) - before)


@dataclass(frozen=True)
class DualityResult(Gated):
    mean_pairing: float       # E <DF, Phi(x) z>
    mean_adjoint: float       # E [F * delta(Phi z)]
    gate: Gate                # the mean gap E[<DF, V> - F delta(V)] against 0


def duality_plan(model: LevyMeasureModel, F: ChaosFunctional, proc: SimpleProcess,
                 n_samples: int = 20_000, seed: int = 0,
                 se_multiplier: float | None = 3.0) -> Plan:
    """Paired Monte Carlo test of ``E <DF, V> = E[F delta(V)]`` for ``V = Phi(x) z``: the
    pairing ``<DF, V>``, the adjoint side ``F delta(V)`` and their ``gap``, per
    realization.  ``se_multiplier=None`` gates at the heavy-tail multiplier.

    The pairing is computed exactly per realization: the derivative is
    constant on each kernel cell, so the double integral collapses to a
    finite sum over cells weighted by ``integral_B z nu(dz)`` and the
    overlap of the cell with ``Phi``'s cells.
    """
    cells = {(c.a, c.b, c.marks): c for kern in F.kernels for c in kern.cells}

    def arrays(batch: RealizationBatch) -> dict[str, np.ndarray]:
        pairing = np.zeros(batch.n)
        for cell in cells.values():
            if not cell.marks:
                continue
            zmass = float(mark_first_moment(model, cell.marks))
            if zmass == 0.0:
                continue
            dF = malliavin_derivative(F, *_probe_in_cell(model, cell), model)
            pairing += eval_chaos(batch, dF) * _phi_overlap(batch, proc, cell) * zmass
        adjoint = eval_chaos(batch, F) * eval_I_K(batch, proc)
        return {"gap": pairing - adjoint, "pairing": pairing, "adjoint": adjoint}

    test = MeanTest("E[<DF, V> - F delta(V)]", "gap", 0.0, heavy=True)
    return Plan((Draw(DUALITY_STREAM, seed, n_samples, arrays,
                      max(F.read_window(), proc.read_window())),),
                lambda est: DualityResult(est.stats["pairing"][0], est.stats["adjoint"][0],
                                          *est.gates((test,), se_multiplier)))


duality_gap = run_of(duality_plan)


def _probe_in_cell(model: LevyMeasureModel, cell: Cell) -> tuple[float, float]:
    x = cell.b  # cells are right-closed, so b always lies in (a, b]
    if isinstance(cell.marks, frozenset):
        j = min(cell.marks)
        return x, float(model.atoms[j][0])
    zlo, zhi = cell.marks
    return x, 0.5 * (zlo + zhi)


def _phi_overlap(batch: RealizationBatch, proc: SimpleProcess, cell: Cell) -> np.ndarray:
    """Per-realization ``integral_{A} Phi(x) dx`` over the cell's interval."""
    out = np.zeros(batch.n)
    for (a, b), coef in zip(proc.cells, proc.coefficients):
        length = min(b, cell.b) - max(a, cell.a)
        if length > 0:
            out += coef.eval(batch) * length
    return out


# ---------------------------------------------------------------------------
# named kernels and functionals (all marks reference atom 0, so any atomic
# model works; the verification suite runs them against its configured measure)
# ---------------------------------------------------------------------------

def catalog_kernel(name: str) -> StepKernel:
    """Named kernels with symmetric dyadic coefficient tensors.

    Dyadic entries survive symmetrization and order-lowering slices with
    no rounding, so the add-one-cost identity for the derivative holds
    bit-exactly on the whole catalog.
    """
    m0 = frozenset({0})
    if name == "k1":
        return make_kernel(1, (Cell(0.0, 1.0, m0),), [1.0])
    if name == "k1_two":
        return make_kernel(1, (Cell(-1.0, 0.0, m0), Cell(0.0, 1.0, m0)), [1.0, 0.5])
    if name == "k2":
        # symmetrized product of the two cell indicators: I_2 = hatN_1 hatN_2
        beta = np.array([[0.0, 0.5], [0.5, 0.0]])
        return make_kernel(2, (Cell(-1.0, 0.0, m0), Cell(0.0, 1.0, m0)), beta)
    if name == "k2_right":
        beta = np.array([[0.0, 0.5], [0.5, 0.0]])
        return make_kernel(2, (Cell(0.0, 1.0, m0), Cell(1.0, 2.0, m0)), beta)
    if name == "k2_left":
        beta = np.array([[0.0, 0.5], [0.5, 0.0]])
        return make_kernel(2, (Cell(-2.0, -1.0, m0), Cell(-1.0, 0.0, m0)), beta)
    if name == "k3":
        beta = np.zeros((3, 3, 3))
        for perm in itertools.permutations((0, 1, 2)):
            beta[perm] = 0.5
        return make_kernel(3, (Cell(-1.0, 0.0, m0), Cell(0.0, 1.0, m0), Cell(1.0, 2.0, m0)), beta)
    raise KeyError(f"unknown catalog kernel: {name!r}")


def catalog_functional(name: str) -> ChaosFunctional:
    if name == "first_chaos":
        return ChaosFunctional(0.0, (catalog_kernel("k1"),))
    if name == "second_chaos":
        return ChaosFunctional(0.0, (catalog_kernel("k2"),))
    if name == "second_chaos_left":
        return ChaosFunctional(0.0, (catalog_kernel("k2_left"),))
    if name == "mixed":
        return ChaosFunctional(0.5, (catalog_kernel("k1_two"), catalog_kernel("k2")))
    if name == "third_chaos":
        return ChaosFunctional(0.0, (catalog_kernel("k3"),))
    raise KeyError(f"unknown catalog functional: {name!r}")


CATALOG_FUNCTIONAL_NAMES = ("first_chaos", "second_chaos", "second_chaos_left",
                            "mixed", "third_chaos")
