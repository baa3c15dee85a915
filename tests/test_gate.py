from fractions import Fraction

import numpy as np
import pytest

from levynoise.gate import Gate, mean_se
from levynoise.harness import mc_mean_test


@pytest.mark.parametrize("side, statistic, passed", [
    ("two", 10.0 + 0.7, True), ("two", 10.0 - 0.7, True),
    ("two", 10.0 + 0.71, False), ("two", 10.0 - 0.71, False),
    ("upper", 10.0 + 0.7, True), ("upper", 0.0, True), ("upper", 10.0 + 0.71, False),
    ("lower", 10.0 - 0.7, True), ("lower", 99.0, True), ("lower", 10.0 - 0.71, False),
])
def test_sides_at_the_margin(side, statistic, passed):
    # margin = multiplier * se + tolerance * |target| = 2 * 0.25 + 0.02 * 10 = 0.7
    gate = Gate("g", statistic, 10.0, side, se=0.25, multiplier=2.0, tolerance=0.02)
    assert gate.margin == pytest.approx(0.7, abs=1e-15)
    assert gate.passed is passed


def test_negative_target_scales_the_tolerance_by_its_size():
    gate = Gate("g", -10.5, -10.0, "upper", tolerance=0.1)
    assert gate.margin == 1.0 and gate.passed
    assert not Gate("g", -8.9, -10.0, "upper", tolerance=0.1).passed


def test_fractions_compare_exactly():
    third = Fraction(1, 3)
    above = third + Fraction(1, 10 ** 30)  # the same float as 1/3
    assert float(above) == float(third)
    assert Gate("g", third, third, "upper").passed
    assert not Gate("g", above, third, "upper").passed
    assert not Gate("g", above, third).passed
    assert Gate("g", third, above, "upper").passed
    margin = Gate("g", above, third).margin
    assert margin == 0 and isinstance(margin, Fraction)


def test_integer_counts_compare_exactly():
    assert Gate("probes", 100, 100).passed
    assert not Gate("probes", 99, 100).passed


def test_zero_se_passes_only_on_target():
    assert Gate("g", 3.0, 3.0, se=0.0, multiplier=3.0).passed
    for side in ("two", "upper"):
        assert not Gate("g", 3.0 + 1e-15, 3.0, side, se=0.0, multiplier=3.0).passed


def test_unknown_side_raises():
    with pytest.raises(ValueError, match="side"):
        Gate("g", 1.0, 1.0, "both").passed


def test_mean_gate_is_the_sample_mean_and_its_se():
    samples = np.random.default_rng(3).normal(0.2, 1.0, 4000)
    est, se = mean_se(samples)
    assert est == float(samples.mean())
    assert se == float(samples.std(ddof=1) / np.sqrt(4000))
    assert mc_mean_test(samples, 0.2, 3.0) == (est, se, (est - 0.2) / se,
                                               abs(est - 0.2) <= 3.0 * se)
