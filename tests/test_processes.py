import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from levynoise import (
    ClampedNoise,
    Const,
    Poly,
    Product,
    Sum,
    catalog_process,
    eval_I_K,
    eval_L_set,
    from_step,
    linear_combination,
    restrict_process,
    sample_prm,
    sample_prm_batch,
    validate_simple,
    StepFunction,
)
from levynoise.errors import (
    BreakpointOrderError,
    HorizonViolationError,
    UnboundedCoefficientError,
    WindowExceededError,
)
from levynoise.processes import (
    CATALOG_PROCESS_NAMES,
    DeterministicProfile,
    SlidingWindowProfile,
    abs_power_integral,
    freeze_error_sq_deterministic,
    freeze_error_sq_sliding,
    process_from_config,
    process_to_config,
    square_integral,
)
from levynoise.rng import derive_rng

from conftest import make_realization


def test_constants_are_valid():
    proc = validate_simple((0.0, 1.0), (Const(3.0),))
    assert proc.coefficients[0].horizon == -math.inf


# the horizon is the right end of the noise a coefficient reads, -inf for none
HORIZON_CASES = [
    (Const(3.0), -math.inf),
    (ClampedNoise(-1.0, 0.0, 10.0), 0.0),
    (Poly(ClampedNoise(-2.0, -0.5, 5.0), (1.0, 0.5)), -0.5),
    (Poly(Poly(ClampedNoise(-3.0, -1.25, 5.0), (0.0, 1.0)), (1.0, 2.0, 3.0)), -1.25),
    (Product((Const(2.0), ClampedNoise(-1.0, 0.75, 10.0))), 0.75),
    (Product((Const(2.0), Const(3.0))), -math.inf),
    (Sum((ClampedNoise(-1.5, -0.25, 3.0), ClampedNoise(-2.0, -1.0, 3.0))), -0.25),
    (Sum((Const(1.0), Poly(Product((ClampedNoise(-2.0, -1.5, 2.0),
                                    ClampedNoise(-1.0, -0.5, 2.0))), (0.0, 1.0)))), -0.5),
    (Sum((Const(1.0), Const(-2.0))), -math.inf),
]


@pytest.mark.parametrize("coef, horizon", HORIZON_CASES,
                         ids=["const", "clamped", "poly", "nested_poly", "product",
                              "product_of_constants", "sum_unequal_ends", "nested_sum",
                              "sum_of_constants"])
def test_horizon_and_batch_name(unit_atom, coef, horizon):
    assert coef.horizon == horizon
    batch = sample_prm_batch(unit_atom, 3.0, 200, derive_rng(8))
    assert coef.eval_batch(batch).tobytes() == coef.eval(batch).tobytes()


def test_horizon_violation_inside_own_cell():
    with pytest.raises(HorizonViolationError):
        validate_simple((0.0, 1.0), (ClampedNoise(0.0, 0.5, 10.0),))


def test_horizon_violation_second_cell():
    with pytest.raises(HorizonViolationError):
        validate_simple((0.0, 1.0, 2.0),
                        (Const(1.0), ClampedNoise(1.0, 1.5, 10.0)))


def test_horizon_violation_through_product():
    bad = Product((Const(2.0), ClampedNoise(-1.0, 0.75, 10.0)))
    with pytest.raises(HorizonViolationError):
        validate_simple((0.0, 1.0), (bad,))


def test_left_reading_coefficient_is_valid():
    proc = validate_simple((0.0, 1.0), (ClampedNoise(-1.0, 0.0, 10.0),))
    assert proc.coefficients[0].horizon == 0.0


def test_breakpoint_order():
    with pytest.raises(BreakpointOrderError):
        validate_simple((1.0, 0.0), (Const(1.0),))


def test_unbounded_coefficient():
    with pytest.raises(UnboundedCoefficientError):
        ClampedNoise(0.0, 1.0, math.inf)


def test_clamping_binds(unit_atom):
    real = make_realization(unit_atom, 2.0, [(0.5, 1.0)] )
    # L((0,1]) = 1 - 1 = 0; with 4 points it is 3
    real4 = make_realization(unit_atom, 2.0, [(0.2, 1.0), (0.4, 1.0), (0.6, 1.0), (0.8, 1.0)])
    coef = ClampedNoise(0.0, 1.0, 2.0)
    assert coef.eval(real) == 0
    assert coef.eval(real4) == 2  # clipped from 3


def test_eval_I_K_example(unit_atom):
    real = make_realization(unit_atom, 2.0, [(0.2, 1.0), (0.7, 1.0)])
    proc = from_step(StepFunction.constant_on(0.0, 1.0, 3.0))
    assert eval_I_K(real, proc) == 3  # 3 * (2 - 1)


def test_zero_process(unit_atom):
    real = sample_prm(unit_atom, 2.0, 3)
    proc = from_step(StepFunction((0.0, 1.0), (0.0,)))
    assert eval_I_K(real, proc) == 0


def test_cell_split_invariance(unit_atom):
    # 1 on (0,1] plus 1 on (1,2] equals 1 on (0,2] pathwise
    split = from_step(StepFunction((0.0, 1.0, 2.0), (1.0, 1.0)))
    merged = from_step(StepFunction((0.0, 2.0), (1.0,)))
    for seed in range(10):
        real = sample_prm(unit_atom, 2.0, seed)
        assert eval_I_K(real, split) == eval_I_K(real, merged)


def test_exact_linearity(unit_atom):
    X = catalog_process("clamped_left")
    Y = catalog_process("two_block")
    combo = linear_combination(2.5, X, -1.5, Y)
    for seed in range(10):
        real = sample_prm(unit_atom, 2.0, seed)
        lhs = eval_I_K(real, combo)
        rhs = Fraction(5, 2) * eval_I_K(real, X) - Fraction(3, 2) * eval_I_K(real, Y)
        assert lhs == rhs


def test_exact_restriction(unit_atom):
    # I_K(X) = I(X 1_[-K, K]): X on the points in (-1, 1] with window 1,
    # against the restricted process on the whole window-3 sample
    X = catalog_process("two_block")   # supported on (0, 2]
    cut = restrict_process(X, 1.0)
    for seed in range(10):
        real = sample_prm(unit_atom, 3.0, seed)
        inner = make_realization(unit_atom, 1.0, [(x, z) for x, z in zip(real.x, real.z)
                                                  if -1.0 < x <= 1.0])
        assert eval_I_K(inner, X) == eval_I_K(real, cut)


def test_square_integral_pathwise(unit_atom):
    real = make_realization(unit_atom, 2.0, [(-0.5, 1.0)])
    proc = catalog_process("clamped_left")
    y = proc.coefficients[0].eval(real)
    assert y == 1 - 1 == 0 or isinstance(y, Fraction)
    assert square_integral(proc, real) == y ** 2
    assert abs_power_integral(proc, real, 4) == abs(y) ** 4


def test_power_sum_inequality_pathwise(unit_atom):
    # sum |Y_i|^p |A_i|^{p/2} <= (sum Y_i^2 |A_i|)^{p/2} per realization
    proc = catalog_process("two_block")
    p = 4
    for seed in range(20):
        real = sample_prm(unit_atom, 2.0, seed)
        values = [c.eval(real) for c in proc.coefficients]
        lhs = sum(abs(y) ** p * (Fraction(b) - Fraction(a)) ** (p // 2)
                  for y, (a, b) in zip(values, proc.cells))
        rhs = sum(y ** 2 * (Fraction(b) - Fraction(a))
                  for y, (a, b) in zip(values, proc.cells)) ** (p // 2)
        assert lhs <= rhs


def test_partial_sums_match_total(unit_atom):
    proc = catalog_process("two_block")
    real = sample_prm(unit_atom, 2.0, 77)
    sums = list(itertools.accumulate(
        (c.eval(real) * eval_L_set(real, cell) for c, cell in zip(proc.coefficients, proc.cells)),
        initial=Fraction(0)))
    assert sums[-1] == eval_I_K(real, proc)


@pytest.mark.parametrize("measure", ["unit_atom", "skew_two_atom"])
@pytest.mark.parametrize("name", CATALOG_PROCESS_NAMES)
def test_batch_matches_single_process_eval(request, measure, name):
    proc = catalog_process(name)
    batch = sample_prm_batch(request.getfixturevalue(measure), 2.0, 40, derive_rng(9))
    for evaluate in (lambda src: eval_I_K(src, proc),
                     lambda src: square_integral(proc, src),
                     lambda src: abs_power_integral(proc, src, 4)):
        vec = evaluate(batch)
        for i in range(0, 40, 5):
            assert vec[i] == pytest.approx(float(evaluate(batch.realization(i))),
                                           rel=1e-12, abs=1e-12)


def test_config_round_trip():
    for name in CATALOG_PROCESS_NAMES:
        proc = catalog_process(name)
        again = process_from_config(process_to_config(proc))
        assert again == proc


def test_deterministic_freeze_error_decreases():
    prof = DeterministicProfile(lambda x: np.exp(-np.asarray(x) ** 2))
    errors = []
    for ncells in (4, 8, 16, 32):
        grid = np.linspace(-2.0, 2.0, ncells + 1)
        proc = prof.freeze(grid)
        errors.append(freeze_error_sq_deterministic(prof, proc, 2.0))
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert errors[-1] < errors[0] / 10


def test_aligned_simple_process_freezes_exactly():
    phi = StepFunction((0.0, 1.0, 2.0), (2.0, -1.0))
    prof = DeterministicProfile(lambda x: phi(np.asarray(x) + 1e-9))  # right limit at grid pts
    proc = prof.freeze((0.0, 1.0, 2.0))
    assert proc.as_step().values == (2.0, -1.0)


def test_as_step_rounds_the_exact_value_once():
    # float addition gives 0.6000000000000001; the exact sum of the three
    # doubles rounds to 0.6, as eval_I_K sees it
    proc = validate_simple((0.0, 1.0), (Sum((Const(0.1), Const(0.2), Const(0.3))),))
    assert proc.as_step().values == (0.6,)


def test_sliding_freeze_error_decreases(unit_atom):
    prof = SlidingWindowProfile(width=1.0, clip=100.0)
    reals = [sample_prm(unit_atom, 3.5, s) for s in range(80)]
    means = []
    for ncells in (4, 16):
        grid = np.linspace(-2.0, 2.0, ncells + 1)
        proc = prof.freeze(grid)
        mean, se = freeze_error_sq_sliding(prof, proc, 2.0, reals)
        means.append((mean, se))
    assert means[1][0] < means[0][0]


@pytest.mark.parametrize("width", [1.0, 0.7])
def test_sliding_freeze_error_hand_computed(unit_atom, width):
    # one jump at 0.2: the profile is 1 - width on [0.2, 0.2 + width) and
    # -width elsewhere, the frozen mesh is -width on (-2, 2], so the error
    # is the length of [0.2, 0.2 + width); for both widths
    # fl(0.2 + width) - width < 0.2, so reading the window back from the
    # left end of the next piece would count the jump there too
    real = make_realization(unit_atom, 3.0, [(0.2, 1.0)])
    prof = SlidingWindowProfile(width=width)
    proc = prof.freeze((-2.0, 0.0, 2.0))
    mean, se = freeze_error_sq_sliding(prof, proc, 2.0, [real, real])
    assert mean == pytest.approx(width, abs=1e-12)
    assert se == 0.0
    with pytest.raises(WindowExceededError):  # reads (-2.5 - width, ...] off the sample
        freeze_error_sq_sliding(prof, proc, 2.5, [real, real])
