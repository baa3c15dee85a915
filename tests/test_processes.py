import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import levynoise.prm
import levynoise.processes
from levynoise import (
    catalog_process,
    eval_I_K,
    eval_L_set,
    sample_prm,
    sample_prm_batch,
    validate_simple,
    StepFunction,
)
from levynoise.coefficients import ClampedNoise, Const, Poly, Product, Sum
from levynoise.errors import (
    BreakpointOrderError,
    HorizonViolationError,
    UnboundedCoefficientError,
)
from levynoise.convolution import (
    DeterministicField,
    SeparableField,
    build_convolution_process,
    heat_kernel,
    indicator_kernel,
)
from levynoise.measure import power_law_measure
from levynoise.processes import (
    CATALOG_PROCESS_NAMES,
    PARTITION_MIN_CELLS,
    abs_power_integral,
    process_from_config,
    square_integral,
)
from levynoise.rng import derive_rng

from conftest import make_realization, masked_I_K, with_empty_realizations_and_edge_points


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
    proc = StepFunction.constant_on(0.0, 1.0, 3.0)
    assert eval_I_K(real, proc) == 3  # 3 * (2 - 1)


def test_zero_process(unit_atom):
    real = sample_prm(unit_atom, 2.0, 3)
    proc = StepFunction((0.0, 1.0), (0.0,))
    assert eval_I_K(real, proc) == 0


def test_cell_split_invariance(unit_atom):
    # 1 on (0,1] plus 1 on (1,2] equals 1 on (0,2] pathwise
    split = StepFunction((0.0, 1.0, 2.0), (1.0, 1.0))
    merged = StepFunction((0.0, 2.0), (1.0,))
    for seed in range(10):
        real = sample_prm(unit_atom, 2.0, seed)
        assert eval_I_K(real, split) == eval_I_K(real, merged)


def test_exact_linearity(unit_atom):
    X = catalog_process("clamped_left")
    Y = catalog_process("two_block")
    # 2.5 X - 1.5 Y cell by cell: X is on (0, 1] alone, Y on (0, 2]
    combo = validate_simple((0.0, 1.0, 2.0),
                            (Sum((Product((Const(2.5), ClampedNoise(-1.0, 0.0))), Const(-2.25))),
                             Product((Const(-1.5), ClampedNoise(0.0, 1.0)))))
    for seed in range(10):
        real = sample_prm(unit_atom, 2.0, seed)
        lhs = eval_I_K(real, combo)
        rhs = Fraction(5, 2) * eval_I_K(real, X) - Fraction(3, 2) * eval_I_K(real, Y)
        assert lhs == rhs


def test_exact_restriction(unit_atom):
    # I_K(X) = I(X 1_[-K, K]): X on the points in (-1, 1] with window 1,
    # against the restricted process on the whole window-3 sample
    X = catalog_process("two_block")   # supported on (0, 2]
    cut = validate_simple((0.0, 1.0), (Const(1.5),))  # X 1_[-1, 1]
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


def test_process_from_config_every_coefficient_type():
    noise = {"type": "clamped_noise", "interval": [-1, 0]}  # the default clip
    cfg = {"breakpoints": [0, 1, 2, 3, 4, 5], "coefficients": [
        {"type": "const", "value": 1.5},
        {"type": "clamped_noise", "interval": [-2, -1], "clip": 5},
        {"type": "poly", "arg": noise, "coeffs": [-1, 0, 1]},
        {"type": "product", "factors": [{"type": "const", "value": 2}, noise]},
        {"type": "sum", "terms": [noise, {"type": "clamped_noise", "interval": [1, 2],
                                          "clip": 3}]}]}
    clamped = ClampedNoise(-1.0, 0.0)
    assert process_from_config(cfg) == validate_simple((0.0, 1.0, 2.0, 3.0, 4.0, 5.0), (
        Const(1.5), ClampedNoise(-2.0, -1.0, 5.0), Poly(clamped, (-1.0, 0.0, 1.0)),
        Product((Const(2.0), clamped)), Sum((clamped, ClampedNoise(1.0, 2.0, 3.0)))))


def test_as_step_rounds_the_exact_value_once():
    # float addition gives 0.6000000000000001; the exact sum of the three
    # doubles rounds to 0.6, as eval_I_K sees it
    proc = validate_simple((0.0, 1.0), (Sum((Const(0.1), Const(0.2), Const(0.3))),))
    assert proc.as_step().values == (0.6,)


UNIT_FIELD = DeterministicField(lambda s, y: np.ones(np.broadcast(s, y).shape), "unit")
SEPARABLE_FIELD = SeparableField(lambda s: np.ones_like(np.asarray(s, dtype=float)),
                                 catalog_process("clamped_left", clip=4.0), "separable")
# (process, window of the batch): 64 cells of constants, 66 cells reading
# noise, and 64 constant cells of which a window of 3.0 clips half away
DENSE_PROCESSES = {
    "heat_unit": (build_convolution_process(heat_kernel(), UNIT_FIELD, 1.0, 0.0), 6.0),
    "heat_separable": (build_convolution_process(heat_kernel(), SEPARABLE_FIELD, 1.0, 0.5), 6.5),
    "heat_unit_clipped": (build_convolution_process(heat_kernel(), UNIT_FIELD, 1.0, 0.0), 3.0),
}


def _spy_partitioned(monkeypatch):
    calls = []
    inner = levynoise.processes._eval_I_K_by_parts

    def spy(batch, cells):
        calls.append(batch.n)
        return inner(batch, cells)
    monkeypatch.setattr(levynoise.processes, "_eval_I_K_by_parts", spy)
    return calls


@pytest.mark.parametrize("part_size, parts", [(4000, "many"), (1 << 30, "one")])
@pytest.mark.parametrize("measure", ["skew_two_atom", "density"])
@pytest.mark.parametrize("name", DENSE_PROCESSES)
def test_partitioned_batch_integral_is_the_masked_formula(request, monkeypatch, name, measure,
                                                          part_size, parts):
    model = (power_law_measure(1.5, 0.25, 4.0) if measure == "density"
             else request.getfixturevalue(measure))
    proc, window = DENSE_PROCESSES[name]
    monkeypatch.setattr(levynoise.prm, "_PART_SIZE", part_size)
    edges = [b for b in proc.breakpoints if -window <= b <= window]
    batch = with_empty_realizations_and_edge_points(
        sample_prm_batch(model, window, 501, derive_rng(31)), edges)
    assert len(batch.x) >= PARTITION_MIN_CELLS * batch.n
    sizes = [part.n for _, part in batch.parts(len(proc.cells) + 2)]
    assert sum(sizes) == batch.n and (len(sizes) == 1) == (parts == "one")
    if parts == "many":
        assert batch.n % sizes[0] != 0  # the last part is shorter than the others
    calls = _spy_partitioned(monkeypatch)
    got = eval_I_K(batch, proc)
    assert calls == [batch.n]
    assert got.dtype == np.float64 and got.tobytes() == masked_I_K(batch, proc).tobytes()


@pytest.mark.parametrize("case", ["few_points", "few_cells", "no_realizations"])
def test_sparse_batches_keep_the_per_cell_loop(unit_atom, monkeypatch, case):
    proc, window = {"few_points": (DENSE_PROCESSES["heat_unit"][0], 3.0),  # 6 points each
                    "few_cells": (catalog_process("two_block"), 6.0),
                    "no_realizations": (DENSE_PROCESSES["heat_unit"][0], 6.0)}[case]
    n = 0 if case == "no_realizations" else 300
    batch = sample_prm_batch(unit_atom, window, n, derive_rng(32))
    calls = _spy_partitioned(monkeypatch)
    assert eval_I_K(batch, proc).tobytes() == masked_I_K(batch, proc).tobytes()
    assert calls == []
