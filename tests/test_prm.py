import math

import numpy as np
import pytest

from levynoise import (
    atomic_measure,
    char_function_gap,
    eval_L_set,
    eval_L_step,
    eval_path,
    sample_L_interval,
    sample_prm,
    sample_prm_batch,
    theoretical_char,
    StepFunction,
)
from levynoise.errors import WindowExceededError
from levynoise.prm import normalize_intervals
from levynoise.rng import derive_rng

from conftest import make_realization


def test_zero_window_is_empty(unit_atom):
    assert len(sample_prm(unit_atom, 0.0, 5)) == 0


def test_single_atom_marks(unit_atom):
    real = sample_prm(unit_atom, 50.0, 3)
    assert len(real) > 0
    assert np.all(real.z == 1.0)
    assert np.all(np.abs(real.x) <= 50.0)
    assert np.all(np.diff(real.x) >= 0)


def test_determinism(unit_atom):
    a = sample_prm(unit_atom, 5.0, 99)
    b = sample_prm(unit_atom, 5.0, 99)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z)
    c = sample_prm(unit_atom, 5.0, 100)
    assert not (len(c) == len(a) and np.array_equal(c.x, a.x))


def test_poisson_count_oracle():
    # mass 2, window radius 1: counts are Poisson with mean 4
    model = atomic_measure([(1.0, 2.0)])
    n = 100_000
    batch = sample_prm_batch(model, 1.0, n, derive_rng(123))
    counts = np.bincount(batch.owner, minlength=n)
    se = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() - 4.0) <= 3 * se


def test_eval_L_set_examples(unit_atom):
    real = make_realization(unit_atom, 2.0, [])
    assert eval_L_set(real, []) == 0                      # empty set
    assert eval_L_set(real, (0.0, 1.0)) == -1             # pure compensator
    model2 = atomic_measure([(2.0, 1.0)])
    real2 = make_realization(model2, 2.0, [(0.5, 2.0)])
    assert eval_L_set(real2, (0.0, 1.0)) == 0             # 2 - |A| * 2


def test_eval_L_set_additivity_exact(unit_atom):
    real = sample_prm(unit_atom, 4.0, 21)
    a = eval_L_set(real, (-3.0, -0.7))
    b = eval_L_set(real, (-0.7, 2.3))
    assert eval_L_set(real, [(-3.0, -0.7), (-0.7, 2.3)]) == a + b
    assert eval_L_set(real, (-3.0, 2.3)) == a + b


def test_singletons_are_null(unit_atom):
    real = sample_prm(unit_atom, 2.0, 8)
    assert eval_L_set(real, (1.0, 1.0 + 0.0)) == 0
    assert eval_L_set(real, []) == 0


def test_window_guard(unit_atom):
    real = sample_prm(unit_atom, 1.0, 4)
    with pytest.raises(WindowExceededError):
        eval_L_set(real, (0.0, 2.0))


def test_eval_L_step_examples(unit_atom):
    real = make_realization(unit_atom, 1.0, [(0.25, 1.0), (0.75, 1.0)])
    phi = StepFunction.constant_on(0.0, 0.5, 2.0)
    assert eval_L_step(real, phi) == 1                    # 2 - 1
    assert eval_L_step(real, StepFunction.indicator(0.0, 1.0)) == eval_L_set(real, (0.0, 1.0))
    zero = StepFunction((0.0, 1.0), (0.0,))
    assert eval_L_step(real, zero) == 0


def test_eval_path(unit_atom):
    empty = make_realization(unit_atom, 3.0, [])
    assert eval_path(empty, 0.0) == 0
    assert eval_path(empty, 2.0) == -2                    # compensator only
    assert eval_path(empty, -1.0) == 1                    # sign convention
    real = sample_prm(unit_atom, 3.0, 17)
    x, y = -1.25, 2.5
    assert eval_L_set(real, (x, y)) == eval_path(real, y) - eval_path(real, x)


def test_normalize_intervals():
    assert normalize_intervals((0.0, 1.0)) == [(0.0, 1.0)]
    assert normalize_intervals([(0.0, 1.0), (0.5, 2.0)]) == [(0.0, 2.0)]
    assert normalize_intervals([(1.0, 1.0)]) == []


def test_batch_matches_single(unit_atom):
    n = 50
    batch = sample_prm_batch(unit_atom, 2.0, n, derive_rng(5))
    vec = eval_L_set(batch, (-1.0, 1.5))
    for i in range(0, n, 7):
        real = batch.realization(i)
        assert vec[i] == pytest.approx(float(eval_L_set(real, (-1.0, 1.5))), abs=1e-12)


def test_mean_and_isometry_of_L(unit_atom):
    n = 200_000
    rng = derive_rng(2024)
    draws = sample_L_interval(unit_atom, 1.0, n, rng)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean()) <= 3 * se
    sq = draws ** 2
    se2 = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - 1.0) <= 3 * se2                # m2 |A| = 1


def test_disjoint_sets_uncorrelated(unit_atom):
    n = 100_000
    batch = sample_prm_batch(unit_atom, 2.0, n, derive_rng(31))
    a = eval_L_set(batch, (-2.0, 0.0))
    b = eval_L_set(batch, (0.0, 2.0))
    prod = a * b
    se = prod.std(ddof=1) / math.sqrt(n)
    assert abs(prod.mean()) <= 3 * se


def test_bounded_transforms_factorize(unit_atom):
    # independence of disjoint sets through bounded transforms:
    # E[e^{i a L(A1)} e^{i b L(A2)}] = E[e^{i a L(A1)}] E[e^{i b L(A2)}]
    n = 100_000
    batch = sample_prm_batch(unit_atom, 2.0, n, derive_rng(32))
    t1 = np.exp(1j * 1.3 * eval_L_set(batch, (-2.0, 0.0)))
    t2 = np.exp(1j * 0.7 * eval_L_set(batch, (0.0, 2.0)))
    joint = (t1 * t2).mean()
    split = t1.mean() * t2.mean()
    assert abs(joint - split) <= 5.0 / math.sqrt(n)


def test_char_exponent_value(unit_atom):
    val = theoretical_char(unit_atom, 1.0, math.pi)
    assert abs(val) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert theoretical_char(unit_atom, 1.0, 0.0) == 1.0


def test_char_gap_small(unit_atom, sym_two_atom):
    thetas = np.linspace(-math.pi, math.pi, 21)
    rep = char_function_gap(unit_atom, (0.0, 1.0), thetas, 100_000, 12)
    assert rep.sup_gap < 5.0 / math.sqrt(100_000)
    rep = char_function_gap(sym_two_atom, (0.0, 1.0), thetas, 100_000, 13)
    assert rep.sup_gap < 5.0 / math.sqrt(100_000)
    # symmetric law: characteristic function is real
    assert all(abs(t.imag) < 1e-12 for t in rep.theoretical)


def test_direct_sampler_matches_window_route(unit_atom):
    # marginal law of L((0,1]) from the direct compound-Poisson sampler
    # agrees with evaluating windowed realizations
    n = 100_000
    direct = sample_L_interval(unit_atom, 1.0, n, derive_rng(71))
    batch = sample_prm_batch(unit_atom, 1.0, n, derive_rng(72))
    windowed = eval_L_set(batch, (0.0, 1.0))
    for p in (1, 2, 3, 4):
        d, w = direct ** p, windowed ** p
        se = math.hypot(d.std(ddof=1), w.std(ddof=1)) / math.sqrt(n)
        assert abs(d.mean() - w.mean()) <= 4 * se
