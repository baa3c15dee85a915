import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levynoise import (
    StepFunction,
    atomic_measure,
    catalog_process,
    eval_I_K,
    eval_L_set,
    moment_of_step_functional,
    sample_prm_batch,
    validate_simple,
)
from levynoise.coefficients import Const
from levynoise.errors import BreakpointOrderError, UnboundedCoefficientError
from levynoise.prm import batch_L_weighted
from levynoise.processes import SimpleProcess
from levynoise.rng import derive_rng

from conftest import hand_realizations, refined
from test_exact_snapshot import ATOM_GRID


def test_indicator_membership():
    phi = StepFunction.indicator(0.0, 1.0)
    assert phi(0.0) == 0.0      # left-open
    assert phi(0.5) == 1.0
    assert phi(1.0) == 1.0      # right-closed
    assert phi(1.5) == 0.0


def test_vectorized_call():
    phi = StepFunction((0.0, 1.0, 2.0), (2.0, -1.0))
    np.testing.assert_array_equal(phi(np.array([-1.0, 0.5, 1.0, 1.5, 2.0, 3.0])),
                                  [0.0, 2.0, 2.0, -1.0, -1.0, 0.0])


def test_power_integrals_exact():
    phi = StepFunction((0.0, 3.0), (2.0,))
    assert phi.power_integral(2) == Fraction(12)
    assert phi.power_integral(3) == Fraction(24)
    assert phi.abs_power_integral(1) == Fraction(6)
    neg = StepFunction((0.0, 1.0), (-2.0,))
    assert neg.power_integral(3) == Fraction(-8)
    assert neg.abs_power_integral(3) == Fraction(8)


def test_validation():
    with pytest.raises(ValueError):
        StepFunction((1.0, 0.0), (1.0,))
    with pytest.raises(BreakpointOrderError):
        StepFunction((0.0, float("inf")), (1.0,))


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=6, unique=True),
       st.lists(st.floats(-3, 3), min_size=1, max_size=5),
       st.lists(st.floats(-6, 6), min_size=1, max_size=4))
@example(bps=[0.0, 5e-324], vals=[1.0], extra=[0.0])  # subnormal cell: midpoint rounds to 0
def test_refinement_preserves_integrals(bps, vals, extra):
    bps = sorted(bps)
    if len(vals) != len(bps) - 1:
        vals = (vals * len(bps))[: len(bps) - 1]
    phi = StepFunction(tuple(bps), tuple(vals))
    ref = refined(phi, extra)
    for q in (1, 2, 3):
        assert ref.power_integral(q) == phi.power_integral(q)


# -- a step function is the deterministic simple process ------------------

def test_a_step_function_is_a_simple_process():
    phi = StepFunction((0.0, 1.0, 2.0), (1.5, -0.5))
    assert issubclass(StepFunction, SimpleProcess) and phi.is_deterministic()
    assert phi.coefficients == (Const(1.5), Const(-0.5)) and phi.values == (1.5, -0.5)
    assert catalog_process("det_step") == StepFunction.indicator(0.0, 1.0)
    assert catalog_process("det_two_cell") == phi


STEPS_ON_THE_WINDOW = st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=6, unique=True).flatmap(
    lambda bps: st.builds(StepFunction, st.just(tuple(sorted(bps))), st.lists(
        st.floats(-4.0, 4.0), min_size=len(bps) - 1, max_size=len(bps) - 1)))


@settings(max_examples=60, deadline=None)
@given(real=hand_realizations(3.0), phi=STEPS_ON_THE_WINDOW)
def test_the_integral_of_a_step_function_is_its_smoothed_noise(real, phi):
    # I(phi) = L(phi) = sum_i v_i L(A_i), exactly
    assert eval_I_K(real, phi) == sum(Fraction(v) * eval_L_set(real, cell)
                                      for v, cell in zip(phi.values, phi.cells))


@pytest.mark.parametrize("phi", [
    StepFunction((-2.5, -0.75, 0.0, 1.125), (0.1, -3.0, 2.5)),
    StepFunction(tuple(np.linspace(-3.0, 3.0, 10)), tuple(np.linspace(-2.0, 2.5, 9))),
], ids=["three_cells", "nine_cells"])
def test_batch_integral_of_a_step_function_is_its_weighted_noise(phi):
    # nine cells over about 15 points a realization: eval_I_K runs on parts
    model = atomic_measure([(1.0, 0.5), (-0.5, 2.0)])
    batch = sample_prm_batch(model, 3.0, 2000, derive_rng(31))
    weighted = batch_L_weighted(batch, phi, float(phi.power_integral(1)))
    np.testing.assert_allclose(eval_I_K(batch, phi), weighted, rtol=1e-12,
                               atol=1e-12 * np.abs(weighted).max())


def test_the_catalog_step_has_the_moments_of_the_literal_one():
    literal = StepFunction((0.0, 1.0, 2.0), (1.5, -0.5))
    for atoms in ATOM_GRID:
        model = atomic_measure(atoms)
        for p in range(2, 11):
            assert (moment_of_step_functional(model, catalog_process("det_two_cell"), p)
                    == moment_of_step_functional(model, literal, p))


@pytest.mark.parametrize("bps, vals, error", [
    ((1.0, 0.0), (1.0,), BreakpointOrderError),
    ((0.0, 0.0, 1.0), (1.0, 2.0), BreakpointOrderError),
    ((0.0, math.inf), (1.0,), BreakpointOrderError),
    ((-math.inf, 0.0), (1.0,), BreakpointOrderError),
    ((0.0, 1.0, 2.0), (1.0,), BreakpointOrderError),
    ((0.0, 1.0), (math.inf,), UnboundedCoefficientError),
    ((0.0, 1.0), (math.nan,), UnboundedCoefficientError),
], ids=["reversed", "repeated", "infinite_right", "infinite_left", "count", "infinite_value",
        "nan_value"])
def test_step_functions_refuse_what_validate_simple_refuses(bps, vals, error):
    with pytest.raises(error):
        StepFunction(bps, vals)
    with pytest.raises(error):
        validate_simple(bps, tuple(Const(v) for v in vals))
