"""Jump-size measures with finite total mass and finite variance.

A measure lives on the punctured line (no mass at zero) and is either

* atomic: finitely many atoms ``(z_j, lam_j)`` with ``z_j != 0`` and
  ``lam_j > 0``, or
* a truncated density: a nonnegative density supported on
  ``[-z_max, -eps] + [eps, z_max]``, integrated by adaptive quadrature.

Finite total mass is required so that the driving point process can be
sampled exactly as a compound Poisson configuration.  Absolute moments
``m_p = integral |z|^p`` and signed moments ``mt_n = integral z^n`` are
cached per model; for atomic models with integer order they are exact
rationals.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    AtomAtZeroError,
    InfinitePMomentError,
    InfiniteSecondMomentError,
    InfiniteTotalMassError,
    MeasureError,
    NonPositiveMassError,
    QuadratureError,
)
from .gate import REL_TOL, Gate, Gated

@dataclass(frozen=True)
class TruncatedDensity:
    """Density mode description.

    ``density`` is a scalar callable (one float in, one float out) and
    must already vanish for ``|z| < eps`` and ``|z| > z_max``;
    ``untruncated``, a scalar callable too, optionally gives the full
    (pre-truncation) density so the small-jump variance that truncation
    discards can be reported.
    """

    density: Callable[[float], float]
    eps: float
    z_max: float
    untruncated: Callable[[float], float] | None = None


@dataclass(frozen=True)
class LevyMeasureModel:
    """Validated jump-size measure with cached total mass and variance.

    Construct through :func:`validate_measure` (or the convenience
    constructors), never directly: the constructors enforce the
    invariants ``z_j != 0``, ``lam_j > 0``, finite total mass and finite
    second moment.
    """

    atoms: tuple[tuple[float, float], ...] | None
    density: TruncatedDensity | None
    total_mass: float
    m2: float

    @property
    def is_atomic(self) -> bool:
        return self.atoms is not None

    def atom_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        zs = np.array([z for z, _ in self.atoms])
        lams = np.array([lam for _, lam in self.atoms])
        return zs, lams


# The 10-point Gauss-Legendre rule on [-1, 1], as numpy.polynomial.legendre.leggauss(10)
# gives it; written out so that importing this module does not load numpy.polynomial.
# Every node is interior, so an integrand is never read at a panel edge: not at a
# window edge K, not at a truncation level +-eps, not at an integrable singularity.
_GL_NODES = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244, -0.4333953941292472,
    -0.14887433898163122, 0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889845, 0.9739065285171717])
_GL_WEIGHTS = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982, 0.2692667193099965,
    0.2955242247147528, 0.2955242247147528, 0.2692667193099965, 0.219086362515982,
    0.1494513491505804, 0.06667134430868814])
_GL_WEIGHTS_2 = np.concatenate([_GL_WEIGHTS, _GL_WEIGHTS])  # both halves of a panel
QUAD_RTOL = 1e-12
QUAD_MAX_PANELS = 200


def _gauss_panels(g, nodes: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[tuple]:
    """``(error, a, b, estimate, estimate for |g|)`` on each panel ``(a[j], b[j])``:
    the rule on both halves, with its distance from the rule on the whole panel as
    the error.  The panels are those of ``nodes`` in turn, the same number each, and
    one call ``g(nodes[:, None], x)`` evaluates them all, row ``i`` of ``x`` holding
    the points of node ``i``'s panels."""
    m, r = 0.5 * (a + b), 0.5 * (b - a)
    half = 0.5 * r
    t = half[:, None] * _GL_NODES
    x = np.concatenate([m[:, None] + r[:, None] * _GL_NODES, (0.5 * (a + m))[:, None] + t,
                        (0.5 * (m + b))[:, None] + t], axis=1)
    y = g(nodes[:, None], x.reshape(len(nodes), -1)).reshape(len(a), -1)
    sums = (y.reshape(len(a), 3, -1) * _GL_WEIGHTS).sum(axis=2)
    whole, left, right = sums[:, 0] * r, sums[:, 1] * half, sums[:, 2] * half
    size = 0.5 * np.abs(r) * (np.abs(y[:, len(_GL_NODES):]) * _GL_WEIGHTS_2).sum(axis=1)
    return list(zip(np.abs(whole - left - right).tolist(), a.tolist(), b.tolist(),
                    (left + right).tolist(), size.tolist()))


def _adaptive_gauss_nodes(g, nodes, a: float, b: float) -> list[float]:
    """Integral over ``(a, b)`` of ``g(tau, .)`` for each ``tau`` in ``nodes``: for
    each node, bisect its panel of largest error until the summed error is within
    QUAD_RTOL of the integral of ``|g|``.  This is the package's one integration rule.

    ``g(tau, x)`` takes a column of nodes and a matrix of points, one row per node,
    and is vectorized in both.  Each bisection round evaluates the two new panels of
    every node that has not stopped in one call of ``g``; a node's own panels, and
    so its bisections and its value, are those of the rule run on that node alone.

    An estimate past the float range stops that node's bisection at once and is
    returned as it is, non-finite, for the caller to report."""
    nodes = np.asarray(nodes, dtype=float)
    panels: list[list[tuple]] = [[] for _ in nodes]
    values: list[float] = [math.nan] * len(nodes)
    todo = list(range(len(nodes)))
    lo, hi = [float(a)] * len(nodes), [float(b)] * len(nodes)  # the panels to evaluate
    while todo:
        new = _gauss_panels(g, nodes[todo], np.array(lo), np.array(hi))
        per = len(new) // len(todo)
        split, lo, hi = [], [], []
        for k, i in enumerate(todo):
            fresh = new[per * k:per * (k + 1)]
            own = panels[i]
            own += fresh
            nonfinite = [p[3] for p in fresh if not math.isfinite(p[3])]
            if nonfinite:
                values[i] = nonfinite[0]
                continue
            err = math.fsum(p[0] for p in own)
            if err <= QUAD_RTOL * math.fsum(p[4] for p in own):
                values[i] = math.fsum(p[3] for p in own)
                continue
            if len(own) >= QUAD_MAX_PANELS:
                raise QuadratureError(f"quadrature on ({a}, {b}) did not converge (err={err})")
            worst = max(own)  # panels compare by error first
            own.remove(worst)
            _, p_lo, p_hi, _, _ = worst
            mid = 0.5 * (p_lo + p_hi)
            split.append(i)
            lo += [p_lo, mid]
            hi += [mid, p_hi]
        todo = split
    return values


def _adaptive_gauss(g, a: float, b: float) -> float:
    """:func:`_adaptive_gauss_nodes` at one node, for a ``g`` of the points alone."""
    return _adaptive_gauss_nodes(lambda _, x: g(x.ravel()), [0.0], a, b)[0]


def _quad(f: Callable[[float], float], a: float, b: float) -> float:
    """:func:`_adaptive_gauss` for a scalar ``f``, called once per node."""
    return _adaptive_gauss(lambda x: np.array([f(v) for v in x]), a, b)


def _density_integral(den: TruncatedDensity, f: Callable[[float], float],
                      lo: float = -math.inf, hi: float = math.inf) -> float:
    """``integral_(lo, hi] f(z) den.density(z) dz`` for a scalar ``f``.

    One quadrature per support piece ``[-z_max, -eps]``, ``[eps, z_max]``
    that the interval overlaps, so that no panel holds the jump of the
    density at ``+-eps``.
    """
    g = lambda z: f(z) * den.density(z)
    total = 0.0
    for a, b in ((-den.z_max, -den.eps), (den.eps, den.z_max)):
        a, b = max(a, lo), min(b, hi)
        if a < b:
            total += _quad(g, a, b)
    return total


def validate_measure(spec) -> LevyMeasureModel:
    """Check a raw measure description and return the validated model.

    ``spec`` may be a list of ``(z, lam)`` pairs, a dict with an
    ``"atoms"`` entry, a dict naming a built-in density family, a
    :class:`TruncatedDensity`, or an already validated model (returned
    unchanged).
    """
    if isinstance(spec, LevyMeasureModel):
        return spec
    if isinstance(spec, TruncatedDensity):
        return _validate_density(spec)
    if isinstance(spec, dict):
        if "atoms" in spec and len(spec) == 1:
            return _validate_atoms(spec["atoms"])
        if spec.get("family") == "symmetric_power_law":
            return power_law_measure(**_power_law_fields(spec))
        raise NonPositiveMassError('a measure is {"atoms": [[z, mass], ...]} or a density '
                                   f"family with its fields, got {spec!r}")
    return _validate_atoms(spec)


def _power_law_fields(spec: dict) -> dict:
    """The fields of a ``symmetric_power_law`` spec, each a finite number;
    ``scale`` defaults to 1."""
    fields = {"scale": 1.0, **spec}
    del fields["family"]
    if set(fields) != {"alpha", "eps", "z_max", "scale"}:
        raise MeasureError("symmetric_power_law takes alpha, eps, z_max and an optional "
                           f"scale, got {sorted(spec)}")
    for key, value in fields.items():
        if not _is_real(value) or not abs(value) <= sys.float_info.max:  # NaN or infinite
            raise MeasureError(f"symmetric_power_law: {key} must be a finite number, "
                               f"got {value!r}")
    return fields


def _is_real(value) -> bool:
    """A real number, not a bool, that converts to a float (no int past the float range)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and (not abs(value) > sys.float_info.max or abs(value) == math.inf)


def atomic_measure(pairs) -> LevyMeasureModel:
    """Validated purely atomic measure from ``(z, lam)`` pairs."""
    return _validate_atoms(pairs)


def power_law_measure(alpha: float, eps: float, z_max: float,
                      scale: float = 1.0) -> LevyMeasureModel:
    """Symmetric density ``scale * |z|^(-alpha)`` truncated to ``eps <= |z| <= z_max``."""
    return _power_law_model(alpha, eps, z_max, scale)


# one model per density however its arguments are spelled, so the caches keyed by it fill once
@lru_cache(maxsize=None)
def _power_law_model(alpha: float, eps: float, z_max: float, scale: float) -> LevyMeasureModel:
    if eps <= 0 or z_max <= eps:
        raise NonPositiveMassError("need 0 < eps < z_max")
    if scale <= 0:
        raise NonPositiveMassError("scale must be positive")

    def tail_density(z: float) -> float:
        az = abs(z)
        return scale * az ** (-alpha) if eps <= az <= z_max else 0.0

    def full_density(z: float) -> float:
        return scale * abs(z) ** (-alpha) if z != 0 else 0.0

    return _validate_density(TruncatedDensity(tail_density, eps, z_max, full_density))


def _validate_atoms(pairs) -> LevyMeasureModel:
    if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_is_real, pair))
            for pair in pairs):
        raise MeasureError(f"atoms must be a list of [z, mass] pairs of real numbers, "
                           f"got {pairs!r}")
    atoms = []
    for z, lam in pairs:
        z, lam = float(z), float(lam)
        if math.isnan(z) or math.isnan(lam):
            raise NonPositiveMassError("atom entries must not be NaN")
        if z == 0.0:
            raise AtomAtZeroError("jump sizes must be nonzero")
        if lam <= 0.0:
            raise NonPositiveMassError(f"atom mass must be positive, got {lam}")
        if math.isinf(lam):
            raise InfiniteTotalMassError("atom with infinite mass")
        if math.isinf(z):
            raise InfiniteSecondMomentError("atom at infinity has infinite variance")
        atoms.append((z, lam))
    if not atoms:
        raise NonPositiveMassError("measure needs at least one atom")
    total = sum(Fraction(lam) for _, lam in atoms)
    if total > sys.float_info.max:
        raise InfiniteTotalMassError("total mass is past the float range")
    m2 = sum(Fraction(lam) * Fraction(z) ** 2 for z, lam in atoms)
    if m2 > sys.float_info.max:
        raise InfiniteSecondMomentError("second moment is past the float range")
    return LevyMeasureModel(tuple(atoms), None, float(total), float(m2))


def _validate_density(den: TruncatedDensity) -> LevyMeasureModel:
    if den.eps <= 0:
        raise AtomAtZeroError("density truncation level must be positive")
    if not math.isfinite(den.z_max):
        raise InfiniteTotalMassError("density support must be bounded (finite z_max)")
    total = _density_integral(den, lambda z: 1.0)
    if not math.isfinite(total) or total <= 0:
        raise InfiniteTotalMassError(f"total mass {total} is not positive and finite")
    m2 = _density_integral(den, lambda z: z * z)
    if not math.isfinite(m2):
        raise InfiniteSecondMomentError("second moment diverges")
    return LevyMeasureModel(None, den, total, m2)


# ---------------------------------------------------------------------------
# moment functionals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def abs_moment(model: LevyMeasureModel, p) -> Fraction | float:
    """Absolute moment ``m_p = integral |z|^p`` for real ``p >= 1``.

    Exact rational for atomic models with integer ``p`` (floats are
    dyadic rationals, so atom data converts losslessly).
    """
    if p < 1:
        raise ValueError("order p must be >= 1")
    if model.is_atomic:
        if float(p).is_integer():
            q = int(p)
            return sum(Fraction(lam) * abs(Fraction(z)) ** q for z, lam in model.atoms)
        return float(sum(lam * abs(z) ** p for z, lam in model.atoms))
    return _density_moment(model.density, lambda z: abs(z) ** p, f"m_{p}")


@lru_cache(maxsize=None)
def signed_moment(model: LevyMeasureModel, n: int) -> Fraction | float:
    """Signed moment ``mt_n = integral z^n`` for integer ``n >= 1``."""
    if n < 1 or not float(n).is_integer():
        raise ValueError("order n must be a positive integer")
    n = int(n)
    if model.is_atomic:
        return sum(Fraction(lam) * Fraction(z) ** n for z, lam in model.atoms)
    return _density_moment(model.density, lambda z: z ** n, f"mt_{n}")


def _density_moment(den: TruncatedDensity, f: Callable[[float], float], name: str) -> float:
    """``integral f(z) den.density(z) dz``; InfinitePMomentError past the float range."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        val = _density_integral(den, f)
    if not math.isfinite(val):
        raise InfinitePMomentError(f"{name} is past the float range")
    return val


def finite_moment(value: Fraction | float, p: int, name: str) -> float:
    """An exact or float moment as a float; InfinitePMomentError past the float range."""
    if not abs(value) <= sys.float_info.max:
        raise InfinitePMomentError(f"{name} at p = {p} is past the float range")
    return float(value)


def small_jump_variance_bias(model: LevyMeasureModel) -> float:
    """Variance ``integral_{0<|z|<eps} z^2`` discarded by truncation.

    Zero for atomic models; for density mode it quantifies the bias of
    simulating the truncated measure instead of the full one.  Requires
    the untruncated density to be attached.
    """
    if model.is_atomic:
        return 0.0
    den = model.density
    if den.untruncated is None:
        raise QuadratureError("no untruncated density attached; bias unknown")
    g = lambda z: z * z * den.untruncated(z)
    return _quad(g, -den.eps, 0.0) + _quad(g, 0.0, den.eps)


# ---------------------------------------------------------------------------
# interpolation inequality m_r <= m_p^theta * m_2^(1-theta)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpolationRow(Gated):
    r: int
    value: float          # m_r
    bound: float          # m_p^theta * m_2^(1-theta)
    equality: bool
    gate: Gate


def interpolation_check(model: LevyMeasureModel, p: int) -> list[InterpolationRow]:
    """Verify ``m_r <= m_p^theta m_2^(1-theta)`` for every integer ``2 <= r <= p``.

    ``theta = (r-2)/(p-2)`` interpolates the exponent.  For atomic models
    the comparison is carried out in exact rational arithmetic by raising
    both sides to the power ``p - 2``, which also certifies exact
    equality (single-atom models achieve it at every ``r``).
    """
    if p < 2 or p % 2 != 0:
        raise ValueError("p must be an even integer >= 2")
    m2 = abs_moment(model, 2)
    mp = abs_moment(model, p)  # raises InfinitePMomentError where m_p diverges
    rows = []
    for r in range(2, p + 1):
        mr = abs_moment(model, r)
        theta = (r - 2) / (p - 2) if p > 2 else 1.0
        bound = finite_moment(mp, p, "m_p") ** theta * float(m2) ** (1.0 - theta)
        if isinstance(mr, Fraction) and isinstance(mp, Fraction) and p > 2:
            # exact: compare m_r^(p-2) against m_p^(r-2) * m_2^(p-r)
            lhs = mr ** (p - 2)
            rhs = mp ** (r - 2) * m2 ** (p - r)
            gate = Gate(f"r={r}", lhs, rhs, "upper")
            equality = lhs == rhs
        else:
            gate = Gate(f"r={r}", float(mr), bound, "upper", tolerance=REL_TOL)
            equality = abs(float(mr) - bound) <= REL_TOL * max(abs(bound), 1.0)
        rows.append(InterpolationRow(r, float(mr), bound, equality, gate))
    return rows
