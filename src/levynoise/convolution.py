"""Mixed time-space convolution against the noise, and its moment gate.

The object under test is

    U(t, x) = integral_0^t integral G_{t-s}(x - y) Phi(s, y) ds L(dy)

for a deterministic kernel ``G`` and a predictable random field ``Phi``
with uniformly bounded p-th moments.  Writing
``Psi(y) = integral_0^t G_{t-s}(x-y) Phi(s, y) ds`` turns ``U(t, x)``
into a plain stochastic integral ``I(Psi)``, which the evaluator builds
on a space grid by quadrature in time.

The certified inequality is

    E|U(t,x)|^p <= B^p * integral_0^t integral (G^2 + G^p)(t-s, x-y)
                                               E|Phi(s,y)|^p dy ds,

with ``B^p = 2^{p-1} C_p^p (t^{p/2} nu_t^{p/2-1} + t^{p-1})`` and
``nu_t`` the space-time integral of ``G^p``.

Quadrature: time integrals run a composite midpoint rule in the graded
variable ``tau = t u^2`` (exact for time-constant kernels, and smooth
for kernels with an integrable power singularity at ``tau = 0``), with
the space integral done by the adaptive Gauss-Legendre rule of
:mod:`levynoise.measure` at every time node.  Each refinement evaluates
the space integrand for all of its time nodes in one call per bisection
round; each node keeps its own panels, so its bisections, and its value
to the bit, are those of the rule run on that node alone.  Time grids
refine until the value moves by less than 0.1%; the final bound is
inflated by the last observed delta before the comparison, and sustained
growth at the refinement cap is reported as divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .coefficients import Coefficient, Const, Product
from .errors import InfiniteNuTError
from .gate import Gate, Gated
from .integral import integral_bound_constant
from .measure import LevyMeasureModel, _adaptive_gauss_nodes
from .prm import Draw, Plan, run_of
from .processes import SimpleProcess, eval_I_K, validate_simple
from .rng import CONVOLUTION_STREAM, FIELD_MOMENT_STREAM

REFINE_REL_TOL = 1e-3
MAX_REFINES = 7
REFINE_FIRST_NODES = 32      # time nodes of the first rule that refinement doubles
FREEZE_TIME_NODES = 256      # time nodes of build_convolution_process
HEAT_X_RADIUS = 6.0          # the heat kernel's space support is cut to |x| <= this


@dataclass(frozen=True)
class ConvolutionKernel:
    """Deterministic kernel ``(t, x) -> G_t(x)`` with space support ``[x_lo, x_hi]``."""

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    x_lo: float
    x_hi: float
    name: str = "kernel"


def indicator_kernel() -> ConvolutionKernel:
    """Time-independent kernel ``G_t(x) = 1_{[0, 1]}(x)``."""
    def g(t, x):
        t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
        return ((x >= 0.0) & (x <= 1.0)).astype(float)
    return ConvolutionKernel(g, 0.0, 1.0, "indicator")


def heat_kernel() -> ConvolutionKernel:
    """Gaussian smoothing kernel ``exp(-x^2/(4t)) / sqrt(4 pi t)``.

    The space-time integral of its p-th power is finite only for p = 2;
    higher even p diverges at t -> 0 and trips the divergence guard.
    """
    def g(t, x):
        t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
        t = np.maximum(t, 1e-300)
        return np.exp(-x ** 2 / (4.0 * t)) / np.sqrt(4.0 * math.pi * t)
    return ConvolutionKernel(g, -HEAT_X_RADIUS, HEAT_X_RADIUS, "heat")


# ---------------------------------------------------------------------------
# random fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeterministicField:
    """``Phi(s, y) = func(s, y)``, deterministic and bounded on the domain."""

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = "field"

    def pth_moment_profile(self, p, moments):
        fn = self.func

        def profile(s: float, y: np.ndarray) -> np.ndarray:
            return np.abs(np.broadcast_arrays(np.asarray(fn(s, y), dtype=float), y)[0]) ** p

        return profile, 0.0

    def moment_draws(self, p, n_samples, seed) -> dict[int, Draw]:
        return {}

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    def coefficient_on_cell(self, y_lo: float, y_hi: float) -> Coefficient | None:
        return None

    def time_values_on_cell(self, s: np.ndarray, y_mid: float) -> np.ndarray:
        return np.asarray(self.func(s, np.full_like(s, y_mid)), dtype=float)


@dataclass(frozen=True)
class SeparableField:
    """``Phi(s, y) = time_func(s) * C_j`` on the y-cell ``(c_{j-1}, c_j]``.

    The random factors ``C_j`` are catalog coefficients whose horizons
    must not exceed their cell's left endpoint, so the convolution
    integrand stays predictable after freezing on any refining grid.
    """

    time_func: Callable[[np.ndarray], np.ndarray]
    space: SimpleProcess
    name: str = "separable"

    def moment_draws(self, p, n_samples, seed) -> dict[int, Draw]:
        """The draw of ``E|C_j|^p`` for each random cell factor ``C_j``; a constant's is exact."""
        return {j: Draw(FIELD_MOMENT_STREAM, seed + j, n_samples,
                        lambda batch, coef=coef: {"abs_pow": np.abs(coef.eval(batch)) ** p},
                        self.space.read_window())
                for j, coef in enumerate(self.space.coefficients) if not isinstance(coef, Const)}

    def pth_moment_profile(self, p, moments):
        """The profile of ``E|Phi|^p`` and its largest SE, from the draws' reduced moments."""
        stats = [moments[j] if j in moments else (abs(coef.value) ** p, 0.0)
                 for j, coef in enumerate(self.space.coefficients)]
        cells = self.space.cells
        tf = self.time_func

        def profile(s: np.ndarray, y: np.ndarray) -> np.ndarray:
            out = np.zeros_like(np.asarray(y, dtype=float))
            for (a, b), (m, _) in zip(cells, stats):
                out = np.where((y > a) & (y <= b), m, out)
            # the time factor one float at a time, as a scalar s would give it
            scale = [abs(float(tf(np.asarray([v]))[0])) ** p for v in np.ravel(s)]
            return np.reshape(scale, np.shape(s)) * out

        return profile, max([0.0, *(se for _, se in stats)])

    def breakpoints(self) -> tuple[float, ...]:
        return self.space.breakpoints

    def coefficient_on_cell(self, y_lo: float, y_hi: float) -> Coefficient | None:
        for (a, b), coef in zip(self.space.cells, self.space.coefficients):
            if a < y_hi <= b:  # cells are right-closed, so y_hi lies in (y_lo, y_hi]
                return coef
        return Const(0.0)  # field vanishes outside its own support

    def time_values_on_cell(self, s: np.ndarray, y_mid: float) -> np.ndarray:
        return np.asarray(self.time_func(np.asarray(s, dtype=float)), dtype=float)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _graded_time_nodes(t: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes and weights for ``integral_0^t h(tau) dtau`` under
    the substitution ``tau = t u^2`` (uniform midpoints in ``u``)."""
    u = (np.arange(n) + 0.5) / n
    return t * u ** 2, 2.0 * t * u / n


def _space_quad(f, taus: np.ndarray, lo: float, hi: float, origin: float,
                breakpoints=()) -> list[float]:
    """Integral of ``f(tau, .)`` over ``(lo, hi)`` for each of ``taus``, one adaptive
    Gauss quadrature per piece between the breakpoints and ``origin``; ``f(tau, x)``
    takes a column of nodes and a matrix of points, as the rule does.

    ``origin`` is where the kernel concentrates as ``t -> 0``.  A piece that
    ends there is integrated in ``s`` with ``x = origin + (far end - origin) s^4``,
    so that the rule's interior nodes reach within 2e-9 piece lengths of the
    origin and a peak of width ``~sqrt(t)`` cannot fall between them unseen.
    """
    edges = [lo] + sorted(b for b in {*breakpoints, origin} if lo < b < hi) + [hi]
    totals = [0.0] * len(taus)
    for a, b in zip(edges, edges[1:]):
        if origin in (a, b):
            span = b - a if origin == a else a - b
            g = lambda tau, s: f(tau, origin + span * s ** 4) * (4.0 * abs(span) * s ** 3)
            piece = _adaptive_gauss_nodes(g, taus, 0.0, 1.0)
        else:
            piece = _adaptive_gauss_nodes(f, taus, a, b)
        totals = [total + v for total, v in zip(totals, piece)]
    return totals


def _refine_time_quadrature(term, t: float, what: str) -> tuple[float, float]:
    """Refine ``sum_j term(taus)_j w_j`` until it moves < 0.1%; return (value, delta).

    ``term`` maps the time nodes of one refinement to the value at each node.
    Sustained geometric growth across refinements marks a divergent
    integral early (a time singularity too strong for the grading).
    """
    prev = None
    n = REFINE_FIRST_NODES
    growth_streak = 0
    for _ in range(MAX_REFINES + 1):
        taus, weights = _graded_time_nodes(t, n)
        cur = float(sum(v * w for v, w in zip(term(taus), weights)))
        if not math.isfinite(cur):
            raise InfiniteNuTError(f"{what} is not finite")
        if prev is not None:
            delta = abs(cur - prev)
            if delta <= REFINE_REL_TOL * max(abs(cur), 1e-300):
                return cur, delta
            growth_streak = growth_streak + 1 if cur > prev * 1.25 else 0
            if growth_streak >= 3:
                raise InfiniteNuTError(
                    f"{what} grows without bound under refinement (last value {cur})")
        prev = cur
        n *= 2
    raise InfiniteNuTError(f"{what} did not stabilize under refinement (last value {prev})")


def kernel_power_integral(kernel: ConvolutionKernel, p: int, t: float) -> float:
    """``nu_t``: space-time integral of ``|G|^p`` over ``[0, t] x support``."""
    f = lambda tau, x: np.abs(kernel.func(tau, x)) ** p
    term = lambda taus: _space_quad(f, taus, kernel.x_lo, kernel.x_hi, 0.0)
    value, _ = _refine_time_quadrature(term, t, "kernel power integral")
    return value


def _rhs_integral(kernel: ConvolutionKernel, field, p: int, t: float, x: float,
                  moments: dict) -> tuple[float, float, float]:
    """``integral (G^2 + G^p) E|Phi|^p``, the field's cell moments reduced from its
    draws; returns (value, quad delta, field SE)."""
    profile, se_phi = field.pth_moment_profile(p, moments)
    y_lo, y_hi = x - kernel.x_hi, x - kernel.x_lo
    bps = field.breakpoints()

    def f(tau: np.ndarray, y: np.ndarray) -> np.ndarray:
        g = np.asarray(kernel.func(tau, x - y), dtype=float)
        return (g ** 2 + np.abs(g) ** p) * profile(t - tau, y)

    term = lambda taus: _space_quad(f, taus, y_lo, y_hi, x, bps)
    value, delta = _refine_time_quadrature(term, t, "bound integral")
    return value, delta, se_phi


@lru_cache(maxsize=32)
def build_convolution_process(kernel: ConvolutionKernel, field, t: float, x: float,
                              n_space: int = 64) -> SimpleProcess:
    """Freeze ``Psi(y) = integral_0^t G_{t-s}(x-y) Phi(s, y) ds`` on a y-grid.

    The grid refines the field's own breakpoints, so each frozen
    coefficient is (deterministic quadrature weight) x (cell factor) and
    predictability survives the freeze.  Built once per argument tuple and
    kept: a config check plans its checks, and the run plans them again.
    """
    y_lo, y_hi = x - kernel.x_hi, x - kernel.x_lo
    pts = set(np.linspace(y_lo, y_hi, n_space + 1))
    pts.update(b for b in field.breakpoints() if y_lo < b < y_hi)
    bps = tuple(sorted(pts))
    taus, weights = _graded_time_nodes(t, FREEZE_TIME_NODES)
    coefs: list[Coefficient] = []
    for lo, hi in zip(bps, bps[1:]):
        ym = 0.5 * (lo + hi)
        gvals = np.asarray(kernel.func(taus, np.full_like(taus, x - ym)), dtype=float)
        weight = float(np.sum(gvals * field.time_values_on_cell(t - taus, ym) * weights))
        cell_coef = field.coefficient_on_cell(lo, hi)
        if cell_coef is None:
            coefs.append(Const(weight))
        elif weight == 0.0:
            coefs.append(Const(0.0))
        else:
            coefs.append(Product((Const(weight), cell_coef)))
    return validate_simple(bps, tuple(coefs))


@dataclass(frozen=True)
class ConvolutionBoundResult(Gated):
    nu_t: float
    b_const_pow: float        # B^p
    lhs_pow: float            # E|I(Psi)|^p estimate
    rhs_pow: float            # B^p * (inflated bound integral)
    se_lhs: float
    quad_delta: float
    gate: Gate                # lhs_pow against rhs_pow


def convolution_bound_plan(model: LevyMeasureModel, kernel: ConvolutionKernel, field, p: int,
                           t: float, x: float, rosenthal_b: float = 1.0,
                           n_samples: int = 20_000, seed: int = 0, convention: str = "linear",
                           se_multiplier: float = 3.0, n_space: int = 64) -> Plan:
    """Monte Carlo gate for the convolution moment bound at the configured constant: the
    draws of the field's cell factors, then ``|U(t, x)|^p`` per realization on the frozen
    convolution process."""
    if p < 2 or p % 2:
        raise ValueError("p must be an even integer >= 2")
    field_draws = field.moment_draws(p, n_samples, seed)
    proc = build_convolution_process(kernel, field, t, x, n_space)
    const_pow = integral_bound_constant(model, p, rosenthal_b, convention) ** p

    def finish(*est) -> ConvolutionBoundResult:
        nu_t = kernel_power_integral(kernel, p, t)
        b_pow = 2.0 ** (p - 1) * const_pow * (t ** (p / 2) * nu_t ** (p / 2 - 1) + t ** (p - 1))
        moments = {j: e.stats["abs_pow"] for j, e in zip(field_draws, est)}
        integral_val, delta, se_phi = _rhs_integral(kernel, field, p, t, x, moments)
        rhs_pow = b_pow * (integral_val + delta)
        lhs_pow, se_lhs = est[-1].stats["abs_pow"]
        gate = Gate(f"E|U|^{p}", lhs_pow, rhs_pow, "upper",
                    math.hypot(se_lhs, b_pow * se_phi), se_multiplier)
        return ConvolutionBoundResult(nu_t, b_pow, lhs_pow, rhs_pow, se_lhs, delta, gate)
    draw = Draw(CONVOLUTION_STREAM, seed, n_samples,
                lambda batch: {"abs_pow": np.abs(eval_I_K(batch, proc)) ** p}, proc.read_window())
    return Plan((*field_draws.values(), draw), finish)


check_convolution_moment_bound = run_of(convolution_bound_plan)
