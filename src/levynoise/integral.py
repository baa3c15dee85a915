"""Seminorm estimation and moment-bound certification for the integral.

Three inequalities are certified numerically:

* the p-th moment of the smoothed noise ``L(phi)`` is at most the
  no-singleton partition count times
  ``(m_2 int phi^2)^{p/2} + m_p int |phi|^p`` -- checked exactly, the
  left side coming from the cumulant/partition oracle;
* the p-norm of the stochastic integral ``I(X)`` is at most ``C_p``
  times the seminorm ``[X]_p`` (sum of an L^p(Omega; L^2) part and an
  L^p(Omega x space) part), where
  ``C_p^p = 2 B_p C* (m_2^{p/2} v m_p)`` combines a configurable
  discrete-martingale Rosenthal constant ``B_p`` with the partition
  count ``C*`` -- checked in Monte Carlo at the configured constant;
* the variance of ``I_{K'}(X) - I_K(X)`` equals
  ``m_2 E int_{K<|x|<=K'} |X|^2`` -- the Cauchy tail computation behind
  the window limit ``K -> infinity``.

``B_p`` has no canonical numerical value (the classical inequality only
asserts existence), so integral-bound checks are consistency gates at
the configured constant, not sharpness claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gate import REL_TOL, Gate, Gated
from .measure import LevyMeasureModel, _adaptive_gauss, abs_moment, finite_moment
from .partitions import count_no_singleton_partitions, moment_of_step_functional
from .prm import Draw, MeanTest, Plan, batch_L_weighted, run_of
from .processes import (
    SimpleProcess,
    StepFunction,
    abs_power_integral,
    eval_I_K,
    square_integral,
)
from .rng import INTEGRAL_BOUND_STREAM, SEMINORM_STREAM, TAIL_STREAM


# ---------------------------------------------------------------------------
# seminorms [X]_{K,p} = ||X||_{L^p(Omega; L^2)} + ||X||_{L^p(Omega x space)}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeminormEstimate:
    l2_part: float            # (E[(int X^2)^{p/2}])^{1/p}
    lp_part: float            # (E[int |X|^p])^{1/p}
    mean_sq_pow: float        # E[(int X^2)^{p/2}]
    mean_abs_pow: float       # E[int |X|^p]
    se_sq_pow: float
    se_abs_pow: float
    exact: bool

    @property
    def value(self) -> float:
        return self.l2_part + self.lp_part

    def __post_init__(self) -> None:
        if self.l2_part < 0 or self.lp_part < 0:
            raise ValueError("seminorm parts must be nonnegative")


def seminorm_plan(model: LevyMeasureModel, proc: SimpleProcess, p: int,
                  n_samples: int = 10_000, seed: int = 0) -> Plan:
    """Estimate ``[X]_{K,p}``, exact for a deterministic process, whose plan draws nothing.

    ``K`` is the process's read window, which covers its support, so this
    is the whole-line seminorm: simple processes vanish outside it.  The
    space integrals are exact per realization from the step structure;
    only the expectation is Monte Carlo.
    """
    if p < 2 or p % 2:
        raise ValueError("p must be an even integer >= 2")
    if proc.is_deterministic():
        q2, qp = (float(proc.as_step().abs_power_integral(k)) for k in (2, p))
        exact = SeminormEstimate(math.sqrt(q2), qp ** (1.0 / p), q2 ** (p / 2), qp, 0.0, 0.0, True)
        return Plan((), lambda: exact)

    def finish(est) -> SeminormEstimate:
        (m2p, s2p), (mpp, spp) = est.stats["sq_pow"], est.stats["abs_pow"]
        return SeminormEstimate(m2p ** (1.0 / p), mpp ** (1.0 / p), m2p, mpp, s2p, spp, False)
    return Plan((Draw(SEMINORM_STREAM, seed, n_samples, lambda batch: {
        "sq_pow": square_integral(proc, batch) ** (p / 2),
        "abs_pow": abs_power_integral(proc, batch, p)}, proc.read_window()),), finish)


estimate_seminorm = run_of(seminorm_plan)


# ---------------------------------------------------------------------------
# p-th moment bound for the smoothed noise (exact on both sides)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearMomentBound(Gated):
    partition_count: int
    exact_moment: Fraction | float
    rhs: Fraction | float
    gate: Gate

    @property
    def ratio(self) -> float:
        return float(self.exact_moment / self.rhs) if self.rhs else 0.0


def check_linear_moment_bound(model: LevyMeasureModel, phi: StepFunction,
                              p: int) -> LinearMomentBound:
    """Certify ``E[L(phi)^p] <= C* ((m_2 int phi^2)^{p/2} + m_p int |phi|^p)``.

    Both sides are exact rationals for atomic models, so the comparison
    carries no rounding.
    """
    if p < 2 or p % 2:
        raise ValueError("p must be an even integer >= 2")
    mp = abs_moment(model, p)  # raises InfinitePMomentError where m_p diverges
    cstar = count_no_singleton_partitions(p)
    exact = moment_of_step_functional(model, phi, p)
    m2 = abs_moment(model, 2)
    i2 = phi.abs_power_integral(2)
    ip = phi.abs_power_integral(p)
    rhs = cstar * ((m2 * i2) ** (p // 2) + mp * ip)  # a float as soon as one moment is
    tolerance = 0 if isinstance(rhs, Fraction) else REL_TOL
    gate = Gate(f"E[L(phi)^{p}]", exact, rhs, "upper", tolerance=tolerance)
    return LinearMomentBound(cstar, exact, rhs, gate)


# ---------------------------------------------------------------------------
# p-norm bound for the stochastic integral
# ---------------------------------------------------------------------------

def integral_bound_constant(model: LevyMeasureModel, p: int, rosenthal_b: float,
                            convention: str = "linear") -> float:
    """The constant ``C_p`` multiplying ``[X]_p``.

    ``convention="linear"`` uses ``C_p^p = 2 B_p C* (m_2^{p/2} v m_p)``;
    ``convention="power"`` uses ``2 B_p^p C* (...)`` instead.  The two
    agree at ``B_p = 1``; which normalization the Rosenthal constant
    should enter with is ambiguous, so both are exposed and the report
    records the one used.
    """
    cstar = count_no_singleton_partitions(p)
    m2 = float(abs_moment(model, 2))
    mp = finite_moment(abs_moment(model, p), p, "m_p")
    if convention == "linear":
        b_factor = rosenthal_b
    elif convention == "power":
        b_factor = rosenthal_b ** p
    else:
        raise ValueError("convention must be 'linear' or 'power'")
    return (2.0 * b_factor * cstar * max(m2 ** (p / 2), mp)) ** (1.0 / p)


@dataclass(frozen=True)
class IntegralMomentBound(Gated):
    constant: float           # C_p at the configured Rosenthal constant
    convention: str
    lhs: float                # (E|I(X)|^p)^{1/p} estimate
    rhs: float                # C_p [X]_p
    se_lhs_pow: float         # SE of the p-th moment estimate
    gate: Gate                # E|I(X)|^p against (C_p [X]_p)^p


def integral_bound_plan(model: LevyMeasureModel, proc: SimpleProcess, p: int,
                        rosenthal_b: float = 1.0, n_samples: int = 50_000, seed: int = 0,
                        convention: str = "linear", se_multiplier: float = 3.0) -> Plan:
    """Monte Carlo gate ``||I(X)||_p <= C_p [X]_p`` at the configured constant.

    The left side, ``|I(X)|^p`` per realization, is estimated on one derived
    stream, the seminorm on an independent one, the draw of its own plan; the
    comparison runs on the p-th power scale with both standard errors combined.
    """
    semi_plan = seminorm_plan(model, proc, p, n_samples, seed)
    const = integral_bound_constant(model, p, rosenthal_b, convention)

    def finish(est, *semi_est) -> IntegralMomentBound:
        lhs_pow, se_lhs_pow = est.stats["abs_pow"]
        semi = semi_plan.finish(*semi_est)
        rhs = const * semi.value
        # d(rhs^p)/d(mean parts) via the chain rule through the 1/p roots
        if semi.exact:
            se_rhs_pow = 0.0
        else:
            outer = const ** p * p * semi.value ** (p - 1)
            d_l2 = semi.l2_part / (p * semi.mean_sq_pow) if semi.mean_sq_pow else 0.0
            d_lp = semi.lp_part / (p * semi.mean_abs_pow) if semi.mean_abs_pow else 0.0
            se_rhs_pow = outer * math.hypot(d_l2 * semi.se_sq_pow, d_lp * semi.se_abs_pow)
        gate = Gate(f"E|I|^{p}", lhs_pow, rhs ** p, "upper",
                    math.hypot(se_lhs_pow, se_rhs_pow), se_multiplier)
        return IntegralMomentBound(const, convention, lhs_pow ** (1.0 / p), rhs, se_lhs_pow, gate)
    draw = Draw(INTEGRAL_BOUND_STREAM, seed, n_samples,
                lambda batch: {"abs_pow": np.abs(eval_I_K(batch, proc)) ** p}, proc.read_window())
    return Plan((draw, *semi_plan.draws), finish)


check_integral_moment_bound = run_of(integral_bound_plan)


# ---------------------------------------------------------------------------
# tail convergence of the window limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailRow(Gated):
    k_inner: float
    gate: Gate                # Var(I_K' - I_K) against m_2 int_tail phi^2


def tail_plan(model: LevyMeasureModel, func, schedule, k_outer: float,
              n_samples: int = 20_000, seed: int = 0,
              se_multiplier: float | None = 3.0) -> Plan:
    """Variance of ``I_{K'}(phi) - I_K(phi)`` against ``m_2 int_tail phi^2``.

    ``func`` is a deterministic square-integrable profile (vectorized
    callable).  For each ``K`` in the schedule the difference integral
    reads only the tail region ``K < |x| <= K'``, so its samples, the
    array ``K=k``, are the squared tail-restricted compensated sums.
    ``se_multiplier=None`` gates at the heavy-tail multiplier.
    """
    ks = [float(k) for k in schedule]
    integrals = {k: _two_sided_quad(func, k, k_outer, power=1) for k in ks}
    # per K, the squared compensated sum over the tail region K < |x| <= K'
    arrays = lambda batch: {f"K={k}": batch_L_weighted(
        batch, lambda x, k=k: np.where(np.abs(x) > k, func(x), 0.0), integrals[k]) ** 2
        for k in ks}

    def finish(est) -> list[TailRow]:
        m2 = float(abs_moment(model, 2))
        tests = [MeanTest(f"K={k}", f"K={k}", m2 * _two_sided_quad(func, k, k_outer, power=2),
                          heavy=True) for k in ks]
        return [TailRow(k, gate) for k, gate in zip(ks, est.gates(tests, se_multiplier))]
    return Plan((Draw(TAIL_STREAM, seed, n_samples, arrays, float(k_outer)),), finish)


tail_convergence = run_of(tail_plan)


def _two_sided_quad(func, k_inner: float, k_outer: float, power: int) -> float:
    """``int_{k_inner < |x| <= k_outer} func(x) ** power dx``."""
    g = lambda x: np.asarray(func(x), dtype=float) ** power
    return _adaptive_gauss(g, -k_outer, -k_inner) + _adaptive_gauss(g, k_inner, k_outer)
