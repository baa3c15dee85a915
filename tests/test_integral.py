import math
from fractions import Fraction

import numpy as np
import pytest

from levynoise import (
    atomic_measure,
    catalog_process,
    check_integral_moment_bound,
    check_linear_moment_bound,
    estimate_seminorm,
    tail_convergence,
    StepFunction,
)
from levynoise.integral import integral_bound_constant


def test_seminorm_deterministic_indicator(unit_atom):
    # both parts are 1 for the unit indicator, any even p
    for p in (2, 4, 6):
        est = estimate_seminorm(unit_atom, catalog_process("det_step"), p)
        assert est.exact
        assert est.value == pytest.approx(2.0, abs=1e-15)


def test_seminorm_deterministic_closed_form(unit_atom):
    # c * 1_{(a, b]}: parts c sqrt(b-a) and c (b-a)^{1/p}
    c, a, b, p = 2.0, 0.5, 3.0, 4
    proc = StepFunction.constant_on(a, b, c)
    est = estimate_seminorm(unit_atom, proc, p)
    assert est.l2_part == pytest.approx(c * math.sqrt(b - a), rel=1e-12)
    assert est.lp_part == pytest.approx(c * (b - a) ** 0.25, rel=1e-12)


def test_seminorm_zero(unit_atom):
    proc = StepFunction((0.0, 1.0), (0.0,))
    assert estimate_seminorm(unit_atom, proc, 4).value == 0.0


def test_seminorm_random_process(unit_atom):
    # Y = clamp(L((-1,0]), M) on (0,1]: E[int X^2] = Var(L) = 1
    est = estimate_seminorm(unit_atom, catalog_process("clamped_left"), 2,
                            n_samples=100_000, seed=4)
    assert not est.exact
    assert est.mean_sq_pow == pytest.approx(1.0, abs=4 * est.se_sq_pow)


def test_linear_moment_bound_tight_ratio(unit_atom):
    phi = StepFunction.indicator(0.0, 1.0)
    res4 = check_linear_moment_bound(unit_atom, phi, 4)
    assert res4.exact_moment == 4 and res4.rhs == 8 and res4.passed
    assert Fraction(res4.exact_moment) / Fraction(res4.rhs) == Fraction(1, 2)
    res6 = check_linear_moment_bound(unit_atom, phi, 6)
    assert res6.exact_moment == 41 and res6.rhs == 82 and res6.passed
    assert Fraction(res6.exact_moment) / Fraction(res6.rhs) == Fraction(1, 2)


def test_linear_moment_bound_zero_function(unit_atom):
    res = check_linear_moment_bound(unit_atom, StepFunction((0.0, 1.0), (0.0,)), 4)
    assert res.exact_moment == 0 and res.rhs == 0 and res.passed


@pytest.mark.parametrize("atoms", [
    [(1.0, 1.0)],
    [(1.0, 0.5), (-1.0, 0.5)],
    [(2.0, 1.0)],
    [(2.0, 1.0), (-1.0, 3.0)],
    [(0.5, 2.0), (1.5, 0.25)],
    [(1.0, 0.5), (3.0, 0.5)],
])
@pytest.mark.parametrize("p", [4, 6])
def test_linear_moment_bound_grid(atoms, p):
    model = atomic_measure(atoms)
    for phi in (StepFunction.indicator(0.0, 1.0),
                StepFunction((0.0, 1.0, 2.0), (2.0, -1.0))):
        res = check_linear_moment_bound(model, phi, p)
        assert res.passed, f"exact {res.exact_moment} > rhs {res.rhs}"


def test_integral_bound_constant_worked_value(unit_atom):
    # 2 * 1 * C*_4 * max(1, 1) = 8, fourth root
    c4 = integral_bound_constant(unit_atom, 4, 1.0)
    assert c4 == pytest.approx(8.0 ** 0.25, rel=1e-14)
    # the two Rosenthal-constant conventions agree at B_p = 1
    assert integral_bound_constant(unit_atom, 4, 1.0, "power") == c4
    # and differ otherwise
    assert (integral_bound_constant(unit_atom, 4, 2.0, "power")
            > integral_bound_constant(unit_atom, 4, 2.0, "linear"))


def test_integral_bound_deterministic_worked_example(unit_atom):
    res = check_integral_moment_bound(unit_atom, catalog_process("det_step"), 4,
                                      rosenthal_b=1.0, n_samples=50_000, seed=2)
    assert res.rhs == pytest.approx(8.0 ** 0.25 * 2.0, rel=1e-10)
    # E|I|^4 = 4 exactly; the estimate must sit within 4 SE on the power scale
    assert res.lhs ** 4 == pytest.approx(4.0, abs=4 * res.se_lhs_pow)
    assert res.passed


def test_integral_bound_isometry_case(unit_atom):
    res = check_integral_moment_bound(unit_atom, catalog_process("det_step"), 2,
                                      rosenthal_b=1.0, n_samples=50_000, seed=3)
    assert res.lhs ** 2 == pytest.approx(1.0, abs=4 * res.se_lhs_pow)
    assert res.passed


@pytest.mark.parametrize("name", ["det_step", "det_two_cell", "clamped_left",
                                  "two_block", "poly_block", "product_block"])
def test_integral_bound_catalog(unit_atom, name):
    res = check_integral_moment_bound(unit_atom, catalog_process(name), 4,
                                      n_samples=20_000, seed=5)
    assert res.passed


@pytest.mark.parametrize("name", ["det_step", "det_two_cell", "clamped_left",
                                  "two_block", "poly_block", "product_block"])
def test_integral_is_centered(unit_atom, name):
    from levynoise import eval_I_K, sample_prm_batch
    from levynoise.rng import derive_rng
    proc = catalog_process(name)
    n = 50_000
    batch = sample_prm_batch(unit_atom, proc.read_window(), n, derive_rng(44))
    vals = eval_I_K(batch, proc)
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean()) <= 3 * se


def test_tail_convergence_gaussian(unit_atom):
    func = lambda x: np.exp(-np.asarray(x) ** 2)
    rows = tail_convergence(unit_atom, func, [1.0, 2.0, 3.0, 4.0], 8.0,
                            n_samples=50_000, seed=6)
    for row in rows:
        # closed-form tail of the squared profile: sqrt(pi/2) (1 - erf(sqrt2 K))
        closed = math.sqrt(math.pi / 2.0) * (math.erf(math.sqrt(2.0) * 8.0)
                                             - math.erf(math.sqrt(2.0) * row.k_inner))
        assert row.gate.target == pytest.approx(closed, rel=1e-9)
        assert row.passed


def test_tail_theory_quadrature(unit_atom):
    # the tail integrals to near machine precision: erfc form of the squared
    # Gaussian profile, with no cancellation at large K
    gauss = lambda x: np.exp(-np.asarray(x) ** 2)
    rows = tail_convergence(unit_atom, gauss, [0.5, 2.0, 4.0, 6.0], 8.0, n_samples=2_000, seed=8)
    for row in rows:
        closed = math.sqrt(math.pi / 2.0) * (math.erfc(math.sqrt(2.0) * row.k_inner)
                                             - math.erfc(math.sqrt(2.0) * 8.0))
        assert row.gate.target == pytest.approx(closed, rel=1e-12, abs=0.0)
    # indicator of [-2, 2]: the tail 1 < |x| <= 4 holds two unit pieces, and the
    # quadrature must resolve the jump at |x| = 2
    step = lambda x: np.where(np.abs(np.asarray(x)) <= 2.0, 1.0, 0.0)
    rows = tail_convergence(unit_atom, step, [1.0, 3.0], 4.0, n_samples=5_000, seed=8)
    assert [row.gate.target for row in rows] == pytest.approx([2.0, 0.0], rel=1e-10, abs=1e-12)
    assert all(row.passed for row in rows)


def test_tail_zero_for_supported_process(unit_atom):
    # profile supported inside [-1, 1]: no tail mass beyond K = 1
    func = lambda x: np.where(np.abs(np.asarray(x)) <= 1.0, 1.0, 0.0)
    rows = tail_convergence(unit_atom, func, [1.0, 2.0], 4.0,
                            n_samples=2_000, seed=7)
    for row in rows:
        assert row.gate.statistic == 0.0 and row.gate.target == pytest.approx(0.0, abs=1e-12)


def test_density_float_paths_match_recorded_values():
    # the float results of a density measure, recorded before these functions
    # lost their separate float branches: a Fraction times a float is that float
    from levynoise.measure import power_law_measure
    from levynoise.chaos import Cell, cell_intensity, kernel_sq_norm, make_kernel
    from levynoise.partitions import step_functional_cumulants
    m = power_law_measure(1.5, 0.25, 4.0)
    c1, c2 = Cell(0.1, 1.3, (0.25, 2.0)), Cell(-0.7, 0.1, (-4.0, -0.5))
    assert cell_intensity(m, c1) == 3.1029437251522856
    assert cell_intensity(m, c2) == 1.4627416997969518
    assert kernel_sq_norm(m, make_kernel(2, (c2, c1), [[0.0, 0.5], [0.5, 0.0]])) \
        == 2.26940258945177
    assert kernel_sq_norm(m, make_kernel(1, (c2, c1), [1.0, -0.75])) == 3.2081475451951125
    phi = StepFunction((-0.7, 0.3, 1.9), (1.5, -0.3))
    kappas = step_functional_cumulants(m, phi, 6)
    assert kappas == {2: 25.136999999999997, 3: 0.0, 4: 371.2109874107145,
                      5: 2.15716852380865e-13, 6: 8483.775718109762}
    assert all(type(k) is float for k in kappas.values())
    res = check_linear_moment_bound(m, phi, 6)
    assert (res.exact_moment, res.rhs) == (386700.01327155164, 999049.499542973)
    assert type(res.rhs) is float and res.gate.tolerance == 1e-12 and res.passed
