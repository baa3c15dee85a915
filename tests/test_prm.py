import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levynoise import (
    atomic_measure,
    catalog_process,
    char_function_gap,
    eval_I_K,
    eval_L_set,
    eval_path,
    sample_L_interval,
    sample_prm,
    sample_prm_batch,
    signed_moment,
)
from levynoise.errors import PointCountError, WindowExceededError
import levynoise.prm
from levynoise.measure import _adaptive_gauss, power_law_measure
from levynoise.prm import (
    GuideTable,
    PointRealization,
    _density_grid,
    _mark_table,
    _sample_marks,
    batch_L_weighted,
    char_exponent,
    char_exponents,
    normalize_intervals,
    theoretical_char,
)
from levynoise.processes import CATALOG_PROCESS_NAMES, square_integral
from levynoise.rng import CHAR_GAP_STREAM, derive_rng

from conftest import (
    EXACT_MODELS,
    fresh_copy,
    hand_realizations,
    make_realization,
    masked_count,
    masked_mass,
    with_empty_realizations_and_edge_points,
)


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


def test_realization_cap_refuses_before_drawing(monkeypatch):
    # a draw holds 8 bytes per realization for its Poisson counts however few points
    # it expects; the cap on points caps the realizations too
    monkeypatch.setattr(levynoise.prm, "MAX_EXPECTED_POINTS", 100)
    tiny = atomic_measure([(1.0, 1e-12)])
    rng = derive_rng(5)
    for where in ({"window": 1.0}, {"length": 1.0}):
        with pytest.raises(PointCountError, match="101 realizations is past the cap of 100"):
            levynoise.prm.sample_chunks(tiny, 101, rng, **where)
        with pytest.raises(PointCountError, match="101 realizations"):
            levynoise.prm.Draw(0, 0, 101, dict, **where).check_points(tiny)
        levynoise.prm.Draw(0, 0, 100, dict, **where).check_points(tiny)
    assert rng.random() == derive_rng(5).random()  # refused before any draw


def test_window_guard(unit_atom):
    real = sample_prm(unit_atom, 1.0, 4)
    with pytest.raises(WindowExceededError):
        eval_L_set(real, (0.0, 2.0))


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
                            np.array([z for _, z in points], dtype=float), model)
    inside = [Fraction(z) for x, z in points if any(a < x <= b for a, b in sets)]
    length = sum((Fraction(b) - Fraction(a) for a, b in normalize_intervals(sets)), Fraction(0))
    want = sum(inside, Fraction(0)) - length * Fraction(signed_moment(model, 1))
    got = eval_L_set(real, sets)
    assert type(got) is Fraction and got == want


# the exact backend's values are dyadic rationals n / 2**k
DYADIC_FRACTIONS = st.builds(lambda n, k: Fraction(n, 2 ** k), st.integers(), st.integers(0, 1100))


@given(DYADIC_FRACTIONS, st.floats(min_value=5e-324, max_value=1e300))
@example(v=Fraction(10), c=10.0)     # on the bound
@example(v=Fraction(-10), c=10.0)
@example(v=Fraction(7, 2), c=3)      # an int bound
def test_exact_clip_is_the_clamp(v, c):
    value = PointRealization.num(v)
    got = PointRealization.clip(value, c)
    assert PointRealization.exact(got) == max(-Fraction(c), min(Fraction(c), v))
    assert (got is value) == (abs(v) <= c)  # a value inside the bound passes through


def test_exact_num_passes_fractions_through():
    v = PointRealization.num(Fraction(3, 8))  # a dyadic Fraction converts exactly
    assert PointRealization.num(v) is v and PointRealization.full(v) is v
    assert PointRealization.exact(v) == Fraction(3, 8)
    half = PointRealization.exact(PointRealization.num(0.5))
    assert type(half) is Fraction and half == 0.5


@pytest.mark.parametrize("v", [-0.0, 0.0, 3, -7, np.int64(5), np.float64(0.1), np.float64(-2.5),
                               0.1, 1e300, 5e-324, -5e-324, 2.2250738585072014e-308])
def test_exact_num_is_the_fraction_of_the_value(v):
    for _ in range(2):  # converted, then read back from the conversion cache
        got = PointRealization.exact(PointRealization.num(v))
        assert type(got) is Fraction and got == Fraction(v)
        assert PointRealization.exact(PointRealization.full(v)) == got


@pytest.mark.parametrize("v, error", [(math.inf, OverflowError), (-math.inf, OverflowError),
                                      (math.nan, ValueError), (np.float64("nan"), ValueError)])
def test_exact_num_refuses_what_fraction_refuses(v, error):
    for _ in range(2):  # a refusal is not cached as an answer
        with pytest.raises(error):
            PointRealization.num(v)


def _outcome(f, *args):
    """``f(*args)``, or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


FINITE = st.floats(-1e300, 1e300)  # +-0.0 and subnormals down to 5e-324 included
SCALARS = st.one_of(FINITE, st.integers(), FINITE.map(np.float64),
                    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))


@given(SCALARS, SCALARS, st.integers(0, 8), st.floats(5e-324, 1e300))
@example(a=np.int64(5), b=0.5, p=2, c=1.0)          # an int64 has no as_integer_ratio
@example(a=5e-324, b=-5e-324, p=8, c=5e-324)         # subnormal products underflow
@example(a=1e300, b=-1e300, p=8, c=1e300)            # past the float range
@example(a=-0.0, b=0.0, p=0, c=5e-324)
def test_dyadic_arithmetic_is_fraction_arithmetic(a, b, p, c):
    num, exact = PointRealization.num, PointRealization.exact
    # Fraction keeps a numpy int as its numerator, where a power of it would wrap
    fx, fy = (Fraction(int(v) if isinstance(v, np.integer) else v) for v in (a, b))
    x, y = num(a), num(b)
    pairs = [(x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy), (x ** p, fx ** p),
             (abs(x), abs(fx)), (-x, -fx), (PointRealization.clip(x, c),
                                             max(-Fraction(c), min(Fraction(c), fx))),
             (x + b, fx + fy), (x - b, fx - fy), (x * b, fx * fy)]  # a scalar operand
    if isinstance(b, int):  # a count on the left, as in a compensated count
        pairs += [(b - x, fy - fx), (b + x, fy + fx), (b * x, fy * fx)]
    for got, want in pairs:
        assert type(exact(got)) is Fraction and exact(got) == want
        assert _outcome(float, got) == _outcome(float, want)  # a value or OverflowError
    for op in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
        want = getattr(fx, op)(fy)
        assert getattr(x, op)(y) is want and getattr(x, op)(fy) is want
    assert exact(x + y - y) == fx and exact(x * 0) == 0 and bool(x) == bool(fx)


@pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan, np.float64("inf")])
def test_dyadic_operands_refuse_what_fraction_refuses(v):
    x = PointRealization.num(0.5)
    for op in (PointRealization.num, x.__add__, x.__sub__, x.__mul__, x.__rsub__):
        assert _outcome(op, v) is _outcome(Fraction, v)


def test_a_non_dyadic_value_is_refused_by_name():
    x = PointRealization.num(0.5)
    for op in (PointRealization.num, x.__add__, x.__mul__):
        with pytest.raises(ValueError, match=r"Fraction\(1, 3\) is not a dyadic rational"):
            op(Fraction(1, 3))
    assert x != Fraction(1, 3) and x > Fraction(1, 3)  # comparisons are exact, not refused


CUTS = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]),
                 st.floats(-2.0, 2.0))
PAIRS = st.lists(CUTS, min_size=2, max_size=2).map(sorted).map(tuple)


@settings(max_examples=60, deadline=None)
@given(real=hand_realizations(2.0), data=st.data())
def test_repeated_questions_get_a_fresh_realizations_answers(real, data):
    # every answer of a realization that has answered before, repeated and overlapping
    # questions included, is the answer of one built from copies that has answered nothing
    if real.model.is_atomic:  # an index past the model's atoms selects no point
        marks = st.frozensets(st.integers(0, len(real.model.atoms)), max_size=3)
    else:
        marks = st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2).map(sorted).map(tuple)
    questions = data.draw(st.lists(st.one_of(
        st.lists(PAIRS, min_size=1, max_size=3).map(lambda sets: ("mass", sets)),
        st.tuples(PAIRS, marks).map(lambda q: ("count", *q[0], q[1]))), min_size=1, max_size=8))
    for name, *args in questions + questions[::-1]:
        got, want = getattr(real, name)(*args), getattr(fresh_copy(real), name)(*args)
        assert type(got) is type(want) and got == want
    for proc in map(catalog_process, CATALOG_PROCESS_NAMES):
        for _ in range(2):
            assert eval_I_K(real, proc) == eval_I_K(fresh_copy(real), proc)
            assert square_integral(proc, real) == square_integral(proc, fresh_copy(real))


def test_realization_arrays_are_read_only_copies():
    model = atomic_measure([(1.0, 0.5), (-0.5, 2.0)])
    xs, zs = np.array([-1.0, 0.5]), np.array([1.0, -0.5])
    real = PointRealization(2.0, xs, zs, model)
    bumped = real.with_point(0.75, 1.0)
    for src in (real, bumped):
        for arr in (src.x, src.z):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
    answers = (real.mass((0.0, 1.0)), real.count(0.0, 1.0, frozenset({1})))
    xs[1], zs[1] = -0.5, 1.0  # the arrays given stay the caller's
    assert real.x.tolist() == [-1.0, 0.5] and real.z.tolist() == [1.0, -0.5]
    assert (real.mass((0.0, 1.0)), real.count(0.0, 1.0, frozenset({1}))) == answers
    # the realization with one more point starts with no answers
    assert bumped.mass((0.0, 1.0)) == answers[0] + 1
    assert bumped.count(0.0, 1.0, frozenset({0})) == 1


@given(st.lists(st.floats(-4.0, 4.0), max_size=8), st.floats(-4.0, 4.0), st.integers(0, 8))
@example(xs=[-1.0, 0.5, 0.5, 2.0], x=0.0, copy_index=1)  # tie at 0.5
@example(xs=[0.0], x=-0.0, copy_index=5)                 # -0.0 ties 0.0
def test_with_point_is_np_insert(xs, x, copy_index):
    xs = np.sort(np.array(xs, dtype=float))
    if copy_index < len(xs):
        x = float(xs[copy_index])  # a tie: the new point goes right of the equal ones
    zs = np.arange(len(xs), dtype=float) + 0.5
    real = PointRealization(4.0, xs, zs, MASS_MODELS[0])
    bumped = real.with_point(x, -1.0)
    pos = np.searchsorted(xs, x, side="right")
    pairs = [(bumped.x, np.insert(xs, pos, x)), (bumped.z, np.insert(zs, pos, -1.0))]
    for got, want in pairs:  # bytes, so -0.0 and 0.0 differ
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# added points on cell ends and on the window's edges, jumps on band ends
EXTENSIONS = st.tuples(CUTS,
                       st.one_of(st.sampled_from([1.0, -0.5, 0.25, 4.0]), st.floats(-4.0, 4.0)))
MARKS = st.one_of(
    st.frozensets(st.integers(-1, 3), max_size=3),  # empty, negative, or past the atoms
    st.lists(st.one_of(st.sampled_from([-4.0, -0.5, 0.25, 1.0, 4.0]), st.floats(-4.0, 4.0)),
             min_size=2, max_size=2).map(sorted).map(tuple))
QUESTIONS = st.lists(st.one_of(
    st.lists(PAIRS, min_size=1, max_size=3).map(lambda sets: ("mass", sets)),
    st.tuples(PAIRS, MARKS).map(lambda q: ("count", *q[0], q[1]))), min_size=1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(real=hand_realizations(2.0), points=st.lists(EXTENSIONS, min_size=1, max_size=2),
       questions=QUESTIONS, base_first=st.booleans())
@example(real=make_realization(EXACT_MODELS[1], 2.0, [(0.5, -0.5)]),  # on a and b
         points=[(0.0, 1.0), (1.0, -0.5)], base_first=False,
         questions=[("count", 0.0, 1.0, frozenset({-1})), ("count", -1.0, 0.0, frozenset()),
                    ("mass", [(0.0, 1.0)]), ("count", 0.0, 1.0, (-1.0, -0.5))])
@example(real=make_realization(EXACT_MODELS[2], 2.0, [(-1.0, 0.25)]),  # the window's edges
         points=[(2.0, 4.0), (-2.0, 0.25)], base_first=True,
         questions=[("count", 1.0, 2.0, (0.25, 4.0)), ("mass", [(-2.0, -1.0), (1.0, 2.0)]),
                    ("count", -2.0, 2.0, frozenset({-1}))])
def test_one_point_extensions_answer_as_rebuilt(real, points, questions, base_first):
    # a with_point realization, and one built from it in turn, answers every mass and
    # count as a realization rebuilt from its own arrays, whether or not its base has
    # answered; its arrays are those of one point added to a rebuilt parent
    if base_first:
        for name, *args in questions:
            getattr(real, name)(*args)
    child = real
    for x, z in points:
        one_link = fresh_copy(child).with_point(x, z)
        child = child.with_point(x, z)
        for name in ("x", "z"):
            assert getattr(child, name).tobytes() == getattr(one_link, name).tobytes()
        rebuilt = fresh_copy(child)
        assert len(child) == len(rebuilt) == len(real) + len(child._added[1])
        for name, *args in questions + questions[::-1]:
            got, want = getattr(child, name)(*args), getattr(rebuilt, name)(*args)
            assert type(got) is type(want) and got == want


@pytest.mark.parametrize("model", MASS_MODELS, ids=["unit_atom", "three_atoms", "density"])
def test_both_backends_take_a_band_as_a_list(model):
    batch = sample_prm_batch(model, 2.0, 40, derive_rng(29))
    want = batch.count(-2.0, 2.0, (0.0, 4.0))
    assert want.sum() > 0
    np.testing.assert_array_equal(batch.count(-2.0, 2.0, [0.0, 4.0]), want)
    for i in (0, 7, 39):
        real = batch.realization(i)
        assert real.count(-2.0, 2.0, [0.0, 4.0]) == real.count(-2.0, 2.0, (0.0, 4.0)) == want[i]


def test_batch_matches_single(unit_atom):
    n = 50
    batch = sample_prm_batch(unit_atom, 2.0, n, derive_rng(5))
    vec = eval_L_set(batch, (-1.0, 1.5))
    for i in range(0, n, 7):
        real = batch.realization(i)
        assert vec[i] == pytest.approx(float(eval_L_set(real, (-1.0, 1.5))), abs=1e-12)


@pytest.mark.parametrize("model", MASS_MODELS, ids=["unit_atom", "three_atoms", "density"])
def test_realization_is_the_masked_sorted_selection(model):
    batch = with_empty_realizations_and_edge_points(
        sample_prm_batch(model, 2.0, 60, derive_rng(17)), [-1.0, 0.5])  # ties in x
    assert np.any(np.bincount(batch.owner, minlength=batch.n) == 0)
    for i in range(batch.n):
        mask = batch.owner == i
        order = np.argsort(batch.x[mask], kind="stable")
        real = batch.realization(i)
        pairs = [(real.x, batch.x[mask][order]), (real.z, batch.z[mask][order])]
        for got, want in pairs:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for i in (-1, batch.n):
        with pytest.raises(IndexError):
            batch.realization(i)


REDUCTION_SETS = ([(0.0, 1.25)], [(-3.0, -0.5), (0.0, 3.0)], [(-2.0, -0.5), (-0.5, 0.0)],
                  [(-3.0, -2.0), (-1.0, 0.0), (1.0, 1.25), (2.5, 3.0)], [(-3.0, 3.0)], [])


def _tail_weight(x):
    return np.where(np.abs(x) > 1.0, np.exp(-x * x), 0.0)


COUNT_CELLS = ((-2.0, 1.25), (-3.0, 3.0), (0.0, 0.0))


def _count_marks(batch):
    """Mark sets for the counts of ``batch``: atom indices, past the atoms, negative and
    empty ones among them, or bands of jump sizes, one with ends on drawn jumps."""
    if batch.model.is_atomic:
        atoms = len(batch.model.atoms)
        return [frozenset({0}), frozenset(range(atoms)), frozenset({atoms - 1, atoms + 4}),
                frozenset({atoms}), frozenset({-1}), frozenset()]
    on_jumps = tuple(sorted(batch.z[:2].tolist()))
    return [(-4.0, -0.25), (0.25, 1.0), (-1.0, 4.0), (1.0, 1.0), on_jumps, frozenset({0})]


@pytest.mark.parametrize("part_size", [1000, 1 << 30], ids=["many_parts", "one_part"])
@pytest.mark.parametrize("model", MASS_MODELS, ids=["unit_atom", "three_atoms", "density"])
def test_batch_reductions_are_the_masked_formulas(monkeypatch, model, part_size):
    # bytes, so that the order in which each realization's points are added shows
    monkeypatch.setattr(levynoise.prm, "_PART_SIZE", part_size)
    edges = [-2.0, -0.5, 0.0, 1.25, 3.0]
    batch = with_empty_realizations_and_edge_points(
        sample_prm_batch(model, 3.0, 701, derive_rng(41)), edges)
    sizes = [part.n for _, part in batch.parts(0)]
    assert sum(sizes) == batch.n and (len(sizes) > 2) == (part_size == 1000)
    for sets in REDUCTION_SETS:
        assert eval_L_set(batch, sets).tobytes() == \
            masked_mass(batch, normalize_intervals(sets)).tobytes()
    for mark in _count_marks(batch):
        for a, b in COUNT_CELLS:
            got = batch.count(a, b, mark)
            assert got.dtype == np.float64
            assert got.tobytes() == masked_count(batch, a, b, mark).tobytes()
    want = (np.bincount(batch.owner, weights=_tail_weight(batch.x) * batch.z, minlength=batch.n)
            - float(signed_moment(model, 1)) * 0.375)
    assert batch_L_weighted(batch, _tail_weight, 0.375).tobytes() == want.tobytes()


@pytest.mark.parametrize("model", MASS_MODELS, ids=["unit_atom", "three_atoms", "density"])
def test_both_backends_select_marks_by_jump_size(model):
    # atom indices select the points whose jump is one of those atoms' sizes: each
    # realization's exact count is its entry of the masked count
    batch = with_empty_realizations_and_edge_points(
        sample_prm_batch(model, 3.0, 60, derive_rng(43)), [-2.0, 0.0, 1.25, 3.0])
    assert batch.count(-3.0, 3.0, _count_marks(batch)[1]).sum() > 0
    for mark in _count_marks(batch):
        for a, b in COUNT_CELLS:
            want = masked_count(batch, a, b, mark)
            assert batch.count(a, b, mark).tobytes() == want.tobytes()
            assert [batch.realization(i).count(a, b, mark) for i in range(batch.n)] == \
                want.tolist()


@pytest.mark.parametrize("n, window", [(0, 2.0), (0, 0.0), (5, 0.0)],
                         ids=["no_realizations", "no_realizations_window_0", "window_0"])
def test_reductions_on_a_batch_without_points(unit_atom, n, window):
    batch = sample_prm_batch(unit_atom, window, n, derive_rng(3))
    assert len(batch.x) == 0
    for row_entries in (0, 3):
        parts = list(batch.parts(row_entries))
        assert sum(part.n for _, part in parts) == n
    sets = [(-window, 0.5 * window), (0.75 * window, window)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_L_set(batch, sets).tobytes() == \
            masked_mass(batch, normalize_intervals(sets)).tobytes()
        counts = batch.count(-window, window, frozenset({0}))
        weighted = batch_L_weighted(batch, _tail_weight, 0.5)
    assert counts.tobytes() == np.zeros(n).tobytes()
    assert weighted.tobytes() == np.full(n, -0.5).tobytes()


@pytest.mark.parametrize("atoms", [
    [(0.3, 0.7), (-1.1, 1.3), (2.5, 0.2)],
    [(float(k + 1), 0.01) for k in range(200)],
], ids=["three_atom", "200_atoms"])
def test_batch_storage_matches_whole_array_draws(atoms):
    # the chunked mark lookup and the compact owner array hold the same values
    # as one whole-array lookup on the same stream, across chunk ends
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
    assert batch.owner.dtype == np.int32 and batch.z.dtype == np.float64
    assert np.array_equal(batch.owner, np.repeat(np.arange(n), counts))
    assert np.array_equal(batch.x, x)
    assert batch.z.tobytes() == zs[idx].tobytes()


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


# finite tables with repeated entries, signed zeros, subnormal and overflowing spans
TABLE_ENTRIES = st.one_of(
    st.floats(-8.0, 8.0), st.integers(-3, 3).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]))
SEARCH_VALUES = st.floats(allow_nan=False)  # infinities included


@given(st.lists(TABLE_ENTRIES, min_size=1, max_size=40), st.lists(SEARCH_VALUES, max_size=20),
       st.lists(st.integers(0, 39), max_size=8))
@example(table=[1.0], values=[0.0, 1.0, 2.0], picks=[0])                      # one entry
@example(table=[2.0, 2.0, 2.0], values=[-math.inf, math.inf], picks=[1])     # zero span
@example(table=[0.0, 5e-324], values=[-0.0, 5e-324, 1e-300], picks=[1])     # subnormal span
@example(table=[-1.7976931348623157e308, 1.7976931348623157e308],
         values=[0.0, -math.inf], picks=[0, 1])                              # span overflows
@example(table=[-0.0, 0.0, 0.0, 1.0], values=[0.0, -0.0], picks=[2])        # signed zeros
@example(table=[0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0],
         values=[1.0, 0.5, 1.5], picks=[5])                                  # long run of ties
@example(table=[0.0, 1.0, 1.0, 1.0, 2.0], values=[1.0, 0.5], picks=[2])   # ties, guided
@example(table=[0.0] + [1.0 + k * 2.0 ** -52 for k in range(30)] + [100.0],
         values=[1.0, 1.5, 99.0], picks=[3, 30])                             # crowded: bisected
def test_guided_search_is_searchsorted(table, values, picks):
    table = np.sort(np.array(table, dtype=float))
    on = [float(table[i % len(table)]) for i in picks]
    probes = np.array(values + on + [math.nextafter(v, s) for v in on
                                     for s in (-math.inf, math.inf)], dtype=float)
    guide = GuideTable(table)
    for side in ("left", "right"):
        got = guide.search(probes, side)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.searchsorted(table, probes, side=side)), side


def test_guided_search_across_chunks():
    table = np.repeat(np.linspace(-1.0, 1.0, 33), 3)  # every entry three times
    values = np.concatenate([derive_rng(3).uniform(-1.5, 1.5, 3 * (1 << 16) + 5), table])
    guide = GuideTable(table)
    for side in ("left", "right"):
        assert np.array_equal(guide.search(values, side), np.searchsorted(table, values, side))


DENSITY_MODELS = (power_law_measure(1.5, 0.25, 4.0), power_law_measure(0.5, 0.1, 2.0),
                  power_law_measure(1.9, 1.0, 1.5))
# the full 8192-point trapezoid grid of each, whose np.interp the marks are
GRIDS = {model: _density_grid(model.density) for model in DENSITY_MODELS}
STEP = 4095  # cdf[STEP] == cdf[STEP + 1] on the grid: the zero-width step between the pieces
STEEP = power_law_measure(2.9, 0.01, 3.0)  # 1602 table entries in one guide slice


def test_density_table_builds_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in (*DENSITY_MODELS, STEEP):
            z, cdf = _density_grid(model.density)
            assert len(cdf) == 8192 and cdf[STEP] == cdf[STEP + 1]
            table = _mark_table.__wrapped__(model)  # a fresh build, not the cached one
            # no zero-width piece is kept, so every slope is finite
            assert np.all(np.diff(table.cdf) > 0) and np.all(np.isfinite(table.slope))
            assert len(table.cdf) == 8191 and table.cdf[-1] == cdf[-1]
    guide = _mark_table(DENSITY_MODELS[0]).guide
    assert guide.steps == 1 and not guide.bisects


def _grid_probes(cdf) -> np.ndarray:
    """Every grid point, the zero-width step's included, and both float neighbours of each,
    inside the range of the CDF."""
    u = np.concatenate([cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf)])
    return u[(u >= cdf[0]) & (u <= cdf[-1])]


@given(st.sampled_from(DENSITY_MODELS), st.lists(st.floats(0.0, 1.0), max_size=20))
@example(model=DENSITY_MODELS[0], fractions=[0.0, 1.0, 0.5])
def test_mark_inverse_is_np_interp(model, fractions):
    table = _mark_table(model)
    z, cdf = GRIDS[model]
    u = np.concatenate([np.array(fractions) * cdf[-1], _grid_probes(cdf)])
    out = np.empty(len(u))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table.invert(u, out)
        want = np.interp(u, cdf, z)
    assert out.tobytes() == want.tobytes()


def test_density_marks_are_np_interp_of_the_stream():
    # the chunked inverse holds the same floats as one whole-array np.interp
    # on the same uniforms over the full grid, across chunk ends
    model, count = DENSITY_MODELS[0], 3 * (1 << 16) + 7
    z_grid, cdf = GRIDS[model]
    z = _sample_marks(model, count, derive_rng(21))
    u = derive_rng(21).random(count) * cdf[-1]
    assert z.tobytes() == np.interp(u, cdf, z_grid).tobytes()


def test_steep_density_marks_search_by_bisection():
    # a guided search would take 1602 passes over every mark; ceil(log2(8192)) = 13
    table = _mark_table(STEEP)
    assert table.guide.steps == 1602 and table.guide.bisects
    z, cdf = _density_grid(STEEP.density)
    u = np.concatenate([derive_rng(5).random(1000) * cdf[-1], _grid_probes(cdf)])
    out = np.empty(len(u))
    table.invert(u, out)
    assert out.tobytes() == np.interp(u, cdf, z).tobytes()


def _per_theta_exponent(model, theta):
    """The characteristic exponent by the per-theta rule: one scalar quadrature per
    support piece and per part, each Gauss point one call."""
    if model.is_atomic:
        return sum(lam * (cmath.exp(1j * theta * z) - 1.0 - 1j * theta * z)
                   for z, lam in model.atoms)
    den = model.density

    def integral(f):
        total = 0.0
        for a, b in ((-den.z_max, -den.eps), (den.eps, den.z_max)):
            total += _adaptive_gauss(lambda x: np.array([f(v) * den.density(v) for v in x]), a, b)
        return total
    return complex(integral(lambda z: math.cos(theta * z) - 1.0),
                   integral(lambda z: math.sin(theta * z) - theta * z))


def _hex(c: complex) -> tuple[str, str]:
    return float(c.real).hex(), float(c.imag).hex()


CHAR_MODELS = (atomic_measure([(1.0, 1.0)]), atomic_measure([(2.0, 1.0), (-1.0, 3.0)]),
               *DENSITY_MODELS)
CHAR_MODEL_IDS = ["unit_atom", "skew_two_atom", "density_0", "density_1", "density_2"]
THETA_GRIDS = {  # as _run_char_gap builds them, and one that mirrors nothing
    "symmetric_21": np.linspace(-math.pi, math.pi, 21),
    "symmetric_41": np.linspace(-math.pi, math.pi, 41),
    "asymmetric": np.linspace(-1.0, 2.5, 9),
    "theta_max_0": np.linspace(-0.0, 0.0, 5),  # repeated thetas, of both signs of zero
}


@pytest.mark.parametrize("grid", THETA_GRIDS.values(), ids=THETA_GRIDS.keys())
@pytest.mark.parametrize("model", CHAR_MODELS, ids=CHAR_MODEL_IDS)
def test_batched_char_exponents_are_the_per_theta_rule(model, grid):
    got = char_exponents(model, grid)
    assert [_hex(c) for c in got] == [_hex(_per_theta_exponent(model, float(t))) for t in grid]
    assert [_hex(char_exponent(model, t)) for t in grid] == [_hex(c) for c in got]


@pytest.mark.parametrize("grid", THETA_GRIDS.values(), ids=THETA_GRIDS.keys())
@pytest.mark.parametrize("model", (*CHAR_MODELS, atomic_measure([(1.0, 0.5), (-1.0, 0.5)])),
                         ids=[*CHAR_MODEL_IDS, "sym_two_atom"])
def test_char_gap_values_are_the_per_theta_values(model, grid):
    # a value at -theta mirrored from theta is the one computed at -theta, to the bit
    n, seed = 2_000, 17
    rep = char_function_gap(model, (0.0, 1.5), grid, n, seed)
    vals, counts = np.unique(sample_L_interval(model, 1.5, n, derive_rng(seed, CHAR_GAP_STREAM)),
                             return_counts=True)
    emp = [complex((np.exp(1j * float(t) * vals) * counts).sum() / n) for t in grid]
    theo = [theoretical_char(model, 1.5, float(t)) for t in grid]
    assert list(map(_hex, rep.empirical)) == list(map(_hex, emp))
    assert list(map(_hex, rep.theoretical)) == list(map(_hex, theo))
    assert rep.sup_gap == max(abs(e - t) for e, t in zip(emp, theo))


@pytest.mark.parametrize("model, window", [
    (atomic_measure([(1.0, 1.0)]), 3.0),
    (atomic_measure([(2.0, 1.0), (-1.0, 3.0)]), 2.5),
    (power_law_measure(1.5, 0.25, 4.0), 2.0),
    (atomic_measure([(2.0, 1.0), (-1.0, 3.0)]), 0.0),
], ids=["unit_atom", "skew_two_atom", "power_law_density", "zero_window"])
def test_sample_prm_is_the_sorted_one_realization_batch(model, window):
    for seed in (0, 7, 123):
        real = sample_prm(model, window, seed)
        batch = sample_prm_batch(model, window, 1, derive_rng(seed))
        assert real.x.tobytes() == np.sort(batch.x).tobytes()
        assert real.z.dtype == batch.z.dtype == np.float64
        assert real.z.tobytes() == batch.z.tobytes()
        # the stream of a scalar Poisson count, then locations, then marks
        rng = derive_rng(seed)
        count = int(rng.poisson(2.0 * window * model.total_mass)) if window > 0 else 0
        assert real.x.tobytes() == np.sort(rng.uniform(-window, window, count)).tobytes()
        assert real.z.tobytes() == _sample_marks(model, count, rng).tobytes()


@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=200), st.lists(st.floats(0.0, 1.0),
       max_size=20), st.lists(st.integers(0, 199), max_size=8))
@example(masses=[1.0], fractions=[0.0, 0.5], picks=[0])                   # one atom
@example(masses=[1.0, 1.0, 1e-3, 1e3], fractions=[0.0], picks=[0, 1, 2, 3])
@example(masses=[1.0] * 127, fractions=[0.5], picks=[0, 126])
@example(masses=[0.5] * 128, fractions=[0.5], picks=[0, 127])
@example(masses=[float(k % 7 + 1) for k in range(200)], fractions=[0.999], picks=[199])
def test_atomic_mark_pieces_are_searchsorted(masses, fractions, picks):
    zs = [float(k + 1) if k % 2 else -float(k + 1) for k in range(len(masses))]
    model = atomic_measure(list(zip(zs, masses)))
    table = _mark_table.__wrapped__(model)  # a fresh build, not the cached one
    cum = np.cumsum(masses)
    cum /= cum[-1]
    on = [0.0] + [float(cum[k % len(cum)]) for k in picks]
    near = [math.nextafter(v, s) for v in on for s in (-math.inf, math.inf)]
    u = np.array(fractions + on + near)
    u = u[(u >= 0.0) & (u < 1.0)]  # the range of the uniforms
    out = np.empty(len(u))
    table.invert(u, out)
    want = np.searchsorted(cum, u, side="right")
    assert want.max(initial=0) < len(masses)
    assert out.tobytes() == np.array(zs)[want].tobytes()
    assert table.z.dtype == np.float64 and table.z.tobytes() == np.array(zs + zs[-1:]).tobytes()


def test_marks_of_many_atoms_are_their_atoms_sizes():
    # every mark is the size of the atom whose piece its uniform falls in
    model = atomic_measure([(float(k + 1), 1.0 + k % 3) for k in range(200)])
    z = _sample_marks(model, 3 * (1 << 16) + 5, derive_rng(8))
    zs, lams = model.atom_arrays()
    cum = np.cumsum(lams)
    cum /= cum[-1]
    idx = np.searchsorted(cum, derive_rng(8).random(len(z)), side="right")
    assert z.dtype == np.float64 and 0 <= idx.min() and idx.max() < 200
    assert z.tobytes() == zs[idx].tobytes()


def test_points_share_the_window_slack_of_sets(unit_atom):
    real = sample_prm(unit_atom, 1.0, 4)
    for x in (math.nextafter(1.0, 2.0), 1.0 + 9e-16):
        for v in (x, -x):
            assert len(real.with_point(v, 1.0)) == len(real) + 1
            eval_path(real, v)
    for v in (1.0 + 4e-15, -1.0 - 4e-15):
        with pytest.raises(WindowExceededError):
            real.with_point(v, 1.0)
        with pytest.raises(WindowExceededError):
            eval_path(real, v)
        with pytest.raises(WindowExceededError):
            eval_L_set(real, (min(v, 0.0), max(v, 0.0)))
