from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from levynoise import StepFunction
from levynoise.errors import UnboundedSupportError

from conftest import refined


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
    with pytest.raises(UnboundedSupportError):
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
