import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from levynoise import (
    atomic_measure,
    char_function_gap,
    eval_L_set,
    eval_L_step,
    eval_path,
    power_law_measure,
    sample_L_interval,
    sample_prm,
    sample_prm_batch,
    signed_moment,
    theoretical_char,
    StepFunction,
)
from levynoise.errors import PointCountError, WindowExceededError
from levynoise.prm import PointRealization, normalize_intervals
from levynoise.rng import CHAR_GAP_STREAM, derive_rng

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


def test_point_count_cap_refuses_before_drawing():
    # numpy's Poisson draw fails on a mean of 1e300; a mass of 1e15 asks for
    # arrays that could never be allocated
    rng = derive_rng(5)
    for mass in (1e300, 1e15):
        huge = atomic_measure([(1.0, mass)])
        with pytest.raises(PointCountError):
            sample_prm(huge, 1.0, 0)
        with pytest.raises(PointCountError):
            sample_L_interval(huge, 1.0, 10, rng)
    # the batch count is 2 K nu(R0) n: every realization counts
    with pytest.raises(PointCountError, match=r"2e\+16 points"):
        sample_prm_batch(atomic_measure([(1.0, 1e15)]), 1.0, 10, rng)
    assert rng.random() == derive_rng(5).random()  # refused before any draw


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


# mt_1 = 1, a dyadic mt_1 of three atoms, and a density's quadrature float
MASS_MODELS = (atomic_measure([(1.0, 1.0)]),
               atomic_measure([(0.1, 3.0), (-0.3, 0.7), (2.5, 0.2)]),
               power_law_measure(1.5, 0.25, 4.0))
# any finite float, with the subnormal, huge and signed-zero extremes drawn often
JUMPS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                     1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0]))
UNIONS = st.lists(st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2).map(sorted),
                  min_size=1, max_size=4)


@given(st.sampled_from(MASS_MODELS),
       st.lists(st.tuples(st.floats(-4.0, 4.0), JUMPS), max_size=12), UNIONS)
@example(MASS_MODELS[1], [(0.5, 5e-324), (0.75, 1e300), (1.0, -0.0), (3.0, -1e300)],
         [[0.0, 1.0], [0.5, 2.0], [2.5, 4.0]])
def test_mass_is_its_definition(model, points, sets):
    points.sort()
    real = PointRealization(4.0, np.array([x for x, _ in points], dtype=float),
                            np.array([z for _, z in points], dtype=float), None, model)
    inside = [Fraction(z) for x, z in points if any(a < x <= b for a, b in sets)]
    length = sum((Fraction(b) - Fraction(a) for a, b in normalize_intervals(sets)), Fraction(0))
    want = sum(inside, Fraction(0)) - length * Fraction(signed_moment(model, 1))
    got = eval_L_set(real, sets)
    assert type(got) is Fraction and got == want


@given(st.fractions(), st.floats(min_value=5e-324, max_value=1e300))
@example(v=Fraction(10), c=10.0)     # on the bound
@example(v=Fraction(-10), c=10.0)
@example(v=Fraction(7, 2), c=3)      # an int bound
def test_exact_clip_is_the_clamp(v, c):
    got = PointRealization.clip(v, c)
    assert type(got) is Fraction and got == max(-Fraction(c), min(Fraction(c), v))
    assert (got is v) == (abs(v) <= c)  # a value inside the bound passes through


def test_exact_num_passes_fractions_through():
    v = Fraction(1, 3)
    assert PointRealization.num(v) is v and PointRealization.full(v) is v
    assert type(PointRealization.num(0.5)) is Fraction and PointRealization.num(0.5) == 0.5


@given(st.lists(st.floats(-4.0, 4.0), max_size=8), st.floats(-4.0, 4.0),
       st.integers(0, 8), st.booleans(), st.one_of(st.none(), st.integers(0, 3)))
@example(xs=[-1.0, 0.5, 0.5, 2.0], x=0.0, copy_index=1, atomic=True, atom=2)  # tie at 0.5
@example(xs=[0.0], x=-0.0, copy_index=5, atomic=False, atom=None)           # -0.0 ties 0.0
def test_with_point_is_np_insert(xs, x, copy_index, atomic, atom):
    xs = np.sort(np.array(xs, dtype=float))
    if copy_index < len(xs):
        x = float(xs[copy_index])  # a tie: the new point goes right of the equal ones
    zs = np.arange(len(xs), dtype=float) + 0.5
    atoms = (np.arange(len(xs)) % 3).astype(np.int8) if atomic else None
    real = PointRealization(4.0, xs, zs, atoms, MASS_MODELS[0])
    bumped = real.with_point(x, -1.0, atom)
    pos = np.searchsorted(xs, x, side="right")
    pairs = [(bumped.x, np.insert(xs, pos, x)), (bumped.z, np.insert(zs, pos, -1.0))]
    if atomic:
        pairs.append((bumped.atom, np.insert(atoms, pos, -1 if atom is None else atom)))
    else:
        assert bumped.atom is None
    for got, want in pairs:  # bytes, so -0.0 and 0.0 differ
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_batch_matches_single(unit_atom):
    n = 50
    batch = sample_prm_batch(unit_atom, 2.0, n, derive_rng(5))
    vec = eval_L_set(batch, (-1.0, 1.5))
    for i in range(0, n, 7):
        real = batch.realization(i)
        assert vec[i] == pytest.approx(float(eval_L_set(real, (-1.0, 1.5))), abs=1e-12)


@pytest.mark.parametrize("atoms, atom_dtype", [
    ([(0.3, 0.7), (-1.1, 1.3), (2.5, 0.2)], np.int8),
    ([(float(k + 1), 0.01) for k in range(200)], np.intp),
], ids=["three_atom", "200_atoms"])
def test_batch_storage_matches_whole_array_draws(atoms, atom_dtype):
    # the chunked mark lookup and the compact owner/atom arrays hold the same
    # values as one whole-array lookup on the same stream, across chunk ends
    model, window, n = atomic_measure(atoms), 4.0, 200_000
    batch = sample_prm_batch(model, window, n, derive_rng(13))
    rng = derive_rng(13)
    counts = rng.poisson(2.0 * window * model.total_mass, n)
    x = rng.uniform(-window, window, int(counts.sum()))
    zs, lams = model.atom_arrays()
    cum = np.cumsum(lams)
    cum /= cum[-1]
    idx = np.minimum(np.searchsorted(cum, rng.random(len(x)), side="right"), len(zs) - 1)
    assert len(x) > 1 << 20
    assert batch.owner.dtype == np.int32 and batch.atom.dtype == atom_dtype
    assert np.array_equal(batch.owner, np.repeat(np.arange(n), counts))
    assert np.array_equal(batch.x, x)
    assert np.array_equal(batch.atom, idx)
    assert np.array_equal(batch.z, zs[idx])


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



@pytest.mark.parametrize("model", [
    atomic_measure([(1.0, 1.0)]),
    atomic_measure([(2.0, 1.0), (-1.0, 3.0)]),
    atomic_measure([(0.3, 0.7), (-1.1, 1.3), (2.5, 0.2)]),
    power_law_measure(alpha=1.5, eps=0.25, z_max=4.0),
], ids=["unit_atom", "skew_two_atom", "three_atom", "power_law_density"])
def test_char_gap_empirical_is_sample_mean(model):
    # the empirical value, summed over distinct values, is the plain mean over the draws
    thetas = np.linspace(-math.pi, math.pi, 7)
    n, seed = 20_000, 31
    rep = char_function_gap(model, (0.0, 1.5), thetas, n, seed)
    samples = sample_L_interval(model, 1.5, n, derive_rng(seed, CHAR_GAP_STREAM))
    for theta, emp in zip(thetas, rep.empirical):
        assert abs(emp - np.exp(1j * theta * samples).mean()) <= 1e-15

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
