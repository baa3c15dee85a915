import math
from fractions import Fraction

import numpy as np
import pytest

from levynoise import (
    Cell,
    ChaosFunctional,
    Const,
    add_one_cost,
    catalog_functional,
    catalog_kernel,
    chaos_variance,
    duality_gap,
    eval_chaos,
    eval_multiple_integral,
    make_kernel,
    malliavin_derivative,
    project_kernel,
    sample_prm,
    sample_prm_batch,
    skorohod_integral,
    validate_simple,
    ClampedNoise,
    catalog_process,
    eval_I_K,
)
from levynoise.chaos import (
    CATALOG_FUNCTIONAL_NAMES,
    compensated_cell_count,
    kernel_sq_norm,
)
from levynoise.rng import derive_rng

from conftest import make_realization

M0 = frozenset({0})


def test_kernel_rejects_overlapping_cells():
    with pytest.raises(ValueError):
        make_kernel(1, (Cell(0.0, 1.0, M0), Cell(0.5, 1.5, M0)), [1.0, 1.0])


def test_kernel_rejects_nonzero_diagonal():
    beta = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        make_kernel(2, (Cell(0.0, 1.0, M0), Cell(1.0, 2.0, M0)), beta)


def test_symmetrization():
    beta = np.array([[0.0, 2.0], [0.0, 0.0]])
    k = make_kernel(2, (Cell(0.0, 1.0, M0), Cell(1.0, 2.0, M0)), beta)
    assert k.beta[0, 1] == k.beta[1, 0] == 1.0


def test_compensated_count_example(unit_atom):
    real = make_realization(unit_atom, 2.0, [(0.5, 1.0)])
    assert compensated_cell_count(real, Cell(0.0, 1.0, M0)) == 0     # 1 - 1
    assert compensated_cell_count(real, Cell(1.0, 2.0, M0)) == -1    # 0 - 1


def test_multiple_integral_example(unit_atom):
    # hatN(F1) = 0 and hatN(F2) = -1 makes the off-diagonal product vanish
    real = make_realization(unit_atom, 2.0, [(0.5, 1.0)])
    beta = np.array([[0.0, 1.0], [0.0, 0.0]])
    k = make_kernel(2, (Cell(0.0, 1.0, M0), Cell(1.0, 2.0, M0)), beta)
    assert eval_multiple_integral(real, k) == 0


def test_zero_kernel(unit_atom):
    real = sample_prm(unit_atom, 2.0, 5)
    k = make_kernel(2, (Cell(0.0, 1.0, M0), Cell(1.0, 2.0, M0)), np.zeros((2, 2)))
    assert eval_multiple_integral(real, k) == 0


def test_first_order_isometry(unit_atom):
    # Var I_1(1_F) = |A| nu(B)
    k = catalog_kernel("k1")
    assert chaos_variance(unit_atom, k) == 1
    n = 100_000
    batch = sample_prm_batch(unit_atom, 1.0, n, derive_rng(41))
    vals = eval_multiple_integral(batch, k)
    sq = vals ** 2
    se = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - 1.0) <= 3 * se


@pytest.mark.parametrize("name,order", [("k1", 1), ("k2", 2), ("k3", 3)])
def test_isometry_orders(unit_atom, name, order):
    k = catalog_kernel(name)
    assert k.order == order
    target = float(chaos_variance(unit_atom, k))
    n = 100_000
    batch = sample_prm_batch(unit_atom, 2.0, n, derive_rng(42 + order))
    sq = eval_multiple_integral(batch, k) ** 2
    se = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - target) <= 3 * se


def test_chaos_orthogonality(unit_atom):
    n = 100_000
    batch = sample_prm_batch(unit_atom, 2.0, n, derive_rng(55))
    pairs = [("k1", "k2"), ("k1", "k3"), ("k2", "k3")]
    for a, b in pairs:
        prod = (eval_multiple_integral(batch, catalog_kernel(a))
                * eval_multiple_integral(batch, catalog_kernel(b)))
        se = prod.std(ddof=1) / math.sqrt(n)
        assert abs(prod.mean()) <= 3 * se, (a, b)


def test_project_kernel_geometry():
    k = make_kernel(1, (Cell(0.0, 2.0, M0),), [1.0])
    below = project_kernel(k, -1.0)
    assert float(np.abs(below.beta).sum()) == 0.0
    above = project_kernel(k, 5.0)
    assert above.cells == k.cells and np.array_equal(above.beta, k.beta)
    half = project_kernel(k, 1.0)
    assert half.cells[0].a == 0.0 and half.cells[0].b == 1.0


def test_projection_is_conditional_expectation(unit_atom):
    # E[(I_k(h) - I_k(h^y)) * G] = 0 for G reading noise left of y
    n = 100_000
    k = catalog_kernel("k2")
    y = 0.0
    proj = project_kernel(k, y)
    batch = sample_prm_batch(unit_atom, 2.0, n, derive_rng(66))
    g = ClampedNoise(-1.0, 0.0, 10.0).eval(batch)
    d = (eval_multiple_integral(batch, k) - eval_multiple_integral(batch, proj)) * g
    se = d.std(ddof=1) / math.sqrt(n)
    assert abs(d.mean()) <= 3 * se
    # projection contracts the second moment; here exactly by half the cells
    assert float(chaos_variance(unit_atom, proj)) <= float(chaos_variance(unit_atom, k))


def test_derivative_first_chaos_is_indicator(unit_atom):
    F = catalog_functional("first_chaos")
    d_in = malliavin_derivative(F, 0.5, 1.0, unit_atom)
    assert d_in.constant == 1.0 and not d_in.kernels
    d_out = malliavin_derivative(F, 1.5, 1.0, unit_atom)
    assert d_out.constant == 0.0 and not d_out.kernels


def test_derivative_second_chaos_slice(unit_atom):
    # F = I_2 of the symmetrized product kernel: D at xi in F1 is hatN(F2)
    F = catalog_functional("second_chaos")
    real = sample_prm(unit_atom, 2.0, 9)
    d = malliavin_derivative(F, -0.5, 1.0, unit_atom)   # xi in F1 = (-1, 0]
    assert eval_chaos(real, d) == compensated_cell_count(real, Cell(0.0, 1.0, M0))


def test_add_one_cost_examples(unit_atom):
    F1 = ChaosFunctional(0.0, (catalog_kernel("k1"),))   # hatN((0,1] x {0})
    real = sample_prm(unit_atom, 2.0, 33)
    assert add_one_cost(F1, real, 0.5, 1.0) == 1
    assert add_one_cost(F1, real, 1.5, 1.0) == 0
    # product-like second chaos: add-one at F1 exposes hatN(F2)
    F2 = catalog_functional("second_chaos")
    n2 = compensated_cell_count(real, Cell(0.0, 1.0, M0))
    assert add_one_cost(F2, real, -0.5, 1.0) == n2


@pytest.mark.parametrize("name", CATALOG_FUNCTIONAL_NAMES)
def test_derivative_matches_add_one_cost(unit_atom, name):
    F = catalog_functional(name)
    window = F.read_window() + 1.0
    probes = np.linspace(-window + 0.1, window - 0.1, 7)
    for seed in range(5):
        real = sample_prm(unit_atom, window, seed)
        for x in probes:
            d = eval_chaos(real, malliavin_derivative(F, float(x), 1.0, unit_atom))
            assert d == add_one_cost(F, real, float(x), 1.0)


def test_left_supported_derivative_vanishes_right(unit_atom):
    F = catalog_functional("second_chaos_left")   # cells left of 0
    for x in (0.1, 0.5, 1.0, 2.0):
        d = malliavin_derivative(F, x, 1.0, unit_atom)
        assert d.constant == 0.0 and not d.kernels


def test_skorohod_equals_integral_pathwise(unit_atom):
    # deterministic integrand and the random-coefficient catalog entry
    for name in ("det_step", "clamped_left"):
        proc = catalog_process(name)
        for seed in range(8):
            real = sample_prm(unit_atom, 2.0, seed)
            assert skorohod_integral(real, proc) == eval_I_K(real, proc)


def test_skorohod_single_block_form(unit_atom):
    # delta(Y 1_{(0,1]} z) = Y * L((0,1]) when Y reads noise left of 0
    proc = validate_simple((0.0, 1.0), (ClampedNoise(-1.0, 0.0, 10.0),))
    from levynoise import eval_L_set
    for seed in range(8):
        real = sample_prm(unit_atom, 2.0, seed)
        y = proc.coefficients[0].eval(real)
        assert skorohod_integral(real, proc) == y * eval_L_set(real, (0.0, 1.0))


def test_duality_closed_form_pair(unit_atom):
    # F = hatN((0,1] x {0}), Phi = 1_{(0,2]}: both sides equal 1
    F = catalog_functional("first_chaos")
    proc = validate_simple((0.0, 2.0), (Const(1.0),))
    res = duality_gap(unit_atom, F, proc, 50_000, 3)
    assert res.mean_pairing == pytest.approx(1.0, abs=1e-12)
    assert res.mean_adjoint == pytest.approx(1.0, abs=4 * res.se)
    assert res.passed


def test_duality_disjoint_supports(unit_atom):
    # Phi lives right of every cell of F: both sides vanish
    F = catalog_functional("second_chaos_left")
    proc = validate_simple((1.0, 2.0), (Const(1.0),))
    res = duality_gap(unit_atom, F, proc, 5_000, 4)
    assert res.mean_pairing == 0.0
    assert abs(res.mean_adjoint) <= 4 * res.se
    assert res.passed


@pytest.mark.parametrize("fname,pname", [
    ("first_chaos", "det_step"),
    ("first_chaos", "clamped_left"),
    ("second_chaos", "two_block"),
    ("second_chaos_left", "clamped_left"),
    ("mixed", "det_step"),
    ("third_chaos", "det_two_cell"),
])
def test_duality_catalog(unit_atom, fname, pname):
    res = duality_gap(unit_atom, catalog_functional(fname), catalog_process(pname),
                      30_000, 7)
    assert res.passed, (fname, pname, res)


@pytest.mark.parametrize("measure", ["unit_atom", "skew_two_atom"])
@pytest.mark.parametrize("fname", CATALOG_FUNCTIONAL_NAMES)
def test_batch_chaos_matches_single(request, measure, fname):
    F = catalog_functional(fname)
    batch = sample_prm_batch(request.getfixturevalue(measure), 2.0, 30, derive_rng(91))
    vec = eval_chaos(batch, F)
    for i in range(0, 30, 4):
        assert vec[i] == pytest.approx(float(eval_chaos(batch.realization(i), F)),
                                       rel=1e-12, abs=1e-12)


def test_kernel_norm_explicit(unit_atom):
    # symmetric off-diagonal 1/2 entries over unit-intensity cells:
    # ||h||^2 = 2 * (1/2)^2 = 1/2, variance = 2! * 1/2 = 1
    k = catalog_kernel("k2")
    assert kernel_sq_norm(unit_atom, k) == Fraction(1, 2)
    assert chaos_variance(unit_atom, k) == 1
