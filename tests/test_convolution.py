import math

import numpy as np
import pytest

from levynoise import (
    DeterministicField,
    SeparableField,
    catalog_process,
    check_convolution_moment_bound,
    heat_kernel,
    indicator_kernel,
    kernel_power_integral,
)
from levynoise.convolution import _space_quad, build_convolution_process
from levynoise.errors import InfiniteNuTError, QuadratureError
from levynoise.harness import parse_config, run


def unit_field():
    return DeterministicField(lambda s, y: np.ones(np.broadcast(s, y).shape), "unit")


def test_indicator_kernel_power_integral():
    assert kernel_power_integral(indicator_kernel(), 2, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert kernel_power_integral(indicator_kernel(), 4, 2.0) == pytest.approx(2.0, rel=1e-12)


def test_heat_kernel_power_integral_p2():
    # integral of G_t(x)^2 over x is (8 pi t)^{-1/2}; over t in (0, 1] it is
    # 2 / sqrt(8 pi) = sqrt(1 / (2 pi))
    val = kernel_power_integral(heat_kernel(), 2, 1.0)
    assert val == pytest.approx(math.sqrt(1.0 / (2.0 * math.pi)), rel=2e-3)


@pytest.mark.parametrize("t", [0.1, 0.01, 0.001])
def test_heat_kernel_power_integral_small_t(t):
    # at small t the time nodes reach tau ~ 1e-8 t, where G is a peak of width
    # ~2e-4 sqrt(t) about x = 0 that an ungraded space rule steps over
    val = kernel_power_integral(heat_kernel(), 2, t)
    assert val == pytest.approx(math.sqrt(t / (2.0 * math.pi)), rel=1e-9)


def test_heat_kernel_diverges_for_p4():
    # the space rule must see the peak at every time node, or the sums stall
    # instead of growing
    with pytest.raises(InfiniteNuTError, match="grows without bound"):
        kernel_power_integral(heat_kernel(), 4, 1.0)


@pytest.mark.parametrize("origin", [0.0, 2.0], ids=["graded", "plain"])
def test_space_quad_raises_on_nonintegrable(origin):
    with pytest.raises(QuadratureError):
        _space_quad(lambda tau, x: 1.0 / x, np.array([0.5]), 0.0, 1.0, origin)


@pytest.mark.parametrize("origin", [0.0, 2.0], ids=["graded", "plain"])
def test_space_quad_raises_on_one_nonintegrable_node(origin):
    # x^tau on (0, 1) is integrable for tau > -1, in x and in the graded variable;
    # the one node at -1 among integrable ones stops the whole refinement
    taus = np.array([0.0, -0.5, -1.0, 1.0])
    with pytest.raises(QuadratureError):
        _space_quad(lambda tau, x: x ** tau, taus, 0.0, 1.0, origin)
    values = _space_quad(lambda tau, x: x ** tau, taus[[0, 1, 3]], 0.0, 1.0, origin)
    assert values == pytest.approx([1.0, 2.0, 0.5], rel=1e-11, abs=0)


def test_convolution_process_is_indicator(unit_atom):
    # Psi(y) = 1_{[x-1, x]}(y) for the indicator kernel and unit field
    proc = build_convolution_process(indicator_kernel(), unit_field(), 1.0, 0.0)
    step = proc.as_step()
    assert step.support == (-1.0, 0.0)
    assert step.abs_power_integral(2) == pytest.approx(1.0, abs=1e-12)


def test_convolution_process_built_once_per_key():
    # the config check plans each check and the run plans it again: the frozen
    # process is built once per (kernel, field, t, x, n_space), here twice
    build_convolution_process.cache_clear()
    config = parse_config({"measure": {"atoms": [[1.0, 1.0]]}, "samples": 1000, "checks": [
        {"kind": "convolution_bound", "kernel": "indicator", "field": "unit", "p": 2},
        {"kind": "convolution_bound", "kernel": "indicator", "field": "unit", "p": 4},
        {"kind": "convolution_bound", "kernel": "indicator", "field": "unit", "x": 0.5}]})
    assert build_convolution_process.cache_info().misses == 2
    assert run(config).passed
    info = build_convolution_process.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_worked_example_closed_form(unit_atom):
    res = check_convolution_moment_bound(unit_atom, indicator_kernel(), unit_field(),
                                         p=2, t=1.0, x=0.0, rosenthal_b=1.0,
                                         n_samples=30_000, seed=1)
    # nu_1 = 1, B^2 = 2 * C_2^2 * (1 + 1) = 4 C_2^2 with C_2^2 = 2, rhs = 8 * 2
    assert res.nu_t == pytest.approx(1.0, rel=1e-12)
    assert res.b_const_pow == pytest.approx(8.0, rel=1e-10)
    assert res.rhs_pow == pytest.approx(16.0, rel=1e-10)
    # lhs is the second moment of L of a unit interval: m2 = 1
    assert res.lhs_pow == pytest.approx(1.0, abs=4 * res.se_lhs)
    assert res.passed


def test_zero_field_both_sides_zero(unit_atom):
    zero = DeterministicField(lambda s, y: np.zeros(np.broadcast(s, y).shape), "zero")
    res = check_convolution_moment_bound(unit_atom, indicator_kernel(), zero,
                                         p=2, t=1.0, x=0.0, n_samples=2_000, seed=2)
    assert res.lhs_pow == 0.0 and res.rhs_pow == 0.0 and res.passed


def test_zero_kernel_both_sides_zero(unit_atom):
    from levynoise.convolution import ConvolutionKernel
    zed = ConvolutionKernel(lambda t, x: np.zeros(np.broadcast(t, x).shape),
                            0.0, 1.0, "zero")
    assert kernel_power_integral(zed, 2, 1.0) == 0.0
    res = check_convolution_moment_bound(unit_atom, zed, unit_field(),
                                         p=2, t=1.0, x=0.0, n_samples=2_000, seed=9)
    assert res.nu_t == 0.0 and res.lhs_pow == 0.0 and res.rhs_pow == 0.0 and res.passed


def test_separable_random_field(unit_atom):
    field = SeparableField(lambda s: np.ones_like(np.asarray(s, dtype=float)),
                           catalog_process("clamped_left", clip=4.0), "sep")
    res = check_convolution_moment_bound(unit_atom, indicator_kernel(), field,
                                         p=2, t=1.0, x=1.5, n_samples=20_000, seed=3)
    assert res.passed
    assert res.rhs_pow > 0


def test_deterministic_time_profile(unit_atom):
    field = DeterministicField(lambda s, y: np.cos(s) * np.ones(np.broadcast(s, y).shape),
                               "cosine")
    res = check_convolution_moment_bound(unit_atom, indicator_kernel(), field,
                                         p=4, t=1.0, x=0.0, n_samples=20_000, seed=4)
    assert res.passed


def test_heat_kernel_p2_bound(unit_atom):
    res = check_convolution_moment_bound(unit_atom, heat_kernel(), unit_field(),
                                         p=2, t=1.0, x=0.0, n_samples=20_000, seed=5,
                                         n_space=128)
    assert res.passed
