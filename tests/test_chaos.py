import gc
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levynoise import (
    add_one_cost,
    catalog_functional,
    catalog_kernel,
    chaos_variance,
    duality_gap,
    eval_chaos,
    eval_multiple_integral,
    malliavin_derivative,
    project_kernel,
    sample_prm,
    sample_prm_batch,
    validate_simple,
    catalog_process,
    eval_I_K,
    atomic_measure,
)
from levynoise import chaos
from levynoise.chaos import (
    CATALOG_FUNCTIONAL_NAMES,
    Cell,
    ChaosFunctional,
    compensated_cell_count,
    kernel_sq_norm,
    make_kernel,
    mark_first_moment,
    mark_mass,
)
from levynoise.coefficients import ClampedNoise, Const
from levynoise.errors import MarkSetError, MeasureError, WindowExceededError
from levynoise.measure import power_law_measure
from levynoise.prm import PointRealization
from levynoise.rng import derive_rng

from conftest import EXACT_MODELS, fresh_copy, hand_realizations, make_realization, with_point

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


TWO_ATOMS = [(2.0, 1.0), (-1.0, 3.0)]


@pytest.mark.parametrize("marks", [frozenset({-1}), frozenset({2}), frozenset({0, 5}),
                                   frozenset({0.5}), (-1.5, 2.5)],
                         ids=["negative", "past", "one_past", "not_index", "interval"])
def test_marks_checked_against_atomic_model(marks):
    # frozenset({-1}) once took the last atom's mass through Python indexing, so the
    # compensated count over (0, 1] had mean -3 instead of 0; an index past the atoms
    # raised a bare IndexError, and interval marks an AttributeError
    model = atomic_measure(TWO_ATOMS)
    batch = sample_prm_batch(model, 1.0, 100, derive_rng(5))
    for read in (lambda: mark_mass(model, marks), lambda: mark_first_moment(model, marks),
                 lambda: compensated_cell_count(batch, Cell(0.0, 1.0, marks))):
        with pytest.raises(MarkSetError):
            read()
    assert issubclass(MarkSetError, MeasureError)  # the CLI's exit 2


@pytest.mark.parametrize("marks", [frozenset({0}), (0.5,), [0.5, 1.0]],
                         ids=["atom_index", "one_end", "list"])
def test_marks_checked_against_density(marks):
    model = power_law_measure(1.5, 0.25, 4.0)
    with pytest.raises(MarkSetError):
        mark_mass(model, marks)
    with pytest.raises(MarkSetError):
        mark_first_moment(model, marks)


def test_valid_marks_keep_their_values():
    model = atomic_measure(TWO_ATOMS)
    assert mark_mass(model, frozenset({1})) == 3
    assert mark_mass(model, frozenset({0, 1})) == 4
    assert mark_first_moment(model, frozenset({0, 1})) == -1
    real = make_realization(model, 2.0, [(0.5, -1.0), (0.7, 2.0)])
    assert compensated_cell_count(real, Cell(0.0, 1.0, frozenset({1}))) == -2  # 1 - 3


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


def _two_atom_functionals():
    """Functionals whose cells mark atom 0, atom 1 and both, under ``TWO_ATOMS``."""
    m1, both = frozenset({1}), frozenset({0, 1})
    first = make_kernel(1, (Cell(-1.0, 0.0, M0), Cell(-1.0, 0.0, m1), Cell(0.0, 1.0, both)),
                        [1.0, -0.5, 0.25])
    second = make_kernel(2, (Cell(-1.0, 0.0, M0), Cell(-1.0, 0.0, m1), Cell(0.0, 1.0, both)),
                         [[0.0, 0.5, 1.0], [0.5, 0.0, -0.25], [1.0, -0.25, 0.0]])
    return [ChaosFunctional(0.5, (first, second)), ChaosFunctional(0.0, (second,))]


def test_derivative_matches_add_one_cost_on_two_atoms():
    # a probe at either atom's jump size enters the cells that mark that atom's index
    model = atomic_measure(TWO_ATOMS)
    probes = [(float(x), z) for x in np.linspace(-1.4, 1.4, 9) for z, _ in TWO_ATOMS]
    for F in _two_atom_functionals():
        for seed in range(3):
            real = sample_prm(model, 1.5, seed)
            for x, z in probes:
                d = eval_chaos(real, malliavin_derivative(F, x, z, model))
                assert d == add_one_cost(F, real, x, z)


@pytest.mark.parametrize("z", [0.5, -2.0, 1.0, 3.0])
def test_a_probe_at_no_atoms_size_changes_no_count(z):
    # a jump that is no atom's size lies in no cell of atom indices
    model = atomic_measure(TWO_ATOMS)
    real = sample_prm(model, 1.5, 4)
    for F in _two_atom_functionals():
        for x in (-0.5, 0.5, 1.0):
            assert add_one_cost(F, real, x, z) == 0
            d = malliavin_derivative(F, x, z, model)
            assert d.constant == 0.0 and not d.kernels
    cells = {c for F in _two_atom_functionals() for kern in F.kernels for c in kern.cells}
    bumped = with_point(real, 0.5, z)
    assert all(bumped.count(c.a, c.b, c.marks) == real.count(c.a, c.b, c.marks) for c in cells)


@pytest.mark.parametrize("model, marks", [
    (atomic_measure([(1.0, 1.0)]), M0),
    (power_law_measure(1.5, 0.25, 4.0), (0.5, 2.0)),
], ids=["atom", "density"])
def test_cell_counts_past_the_window_are_refused(model, marks):
    # both backends refuse a cell past the sampled window, and so does the compensated count
    batch = sample_prm_batch(model, 1.0, 5, derive_rng(3))
    real = batch.realization(0)
    for src in (batch, real):
        for cell in (Cell(0.0, 3.0, marks), Cell(-1.5, 0.0, marks)):
            with pytest.raises(WindowExceededError):
                src.count(cell.a, cell.b, cell.marks)
            with pytest.raises(WindowExceededError):
                compensated_cell_count(src, cell)


def _functionals(model):
    """The catalog on an atomic model; on a density, a first and second chaos on two
    bands of jump sizes, with the same cells in both orders."""
    if model.is_atomic:
        return [catalog_functional(name) for name in CATALOG_FUNCTIONAL_NAMES]
    cells = (Cell(-1.0, 0.0, (0.25, 4.0)), Cell(0.0, 1.0, (-4.0, -0.25)))
    return [ChaosFunctional(0.5, (make_kernel(1, cells, [1.0, 0.5]),
                                  make_kernel(2, cells, [[0.0, 0.5], [0.5, 0.0]])))]


@settings(max_examples=30, deadline=None)
@given(real=hand_realizations(3.0), data=st.data())
def test_probes_get_a_fresh_realizations_answers(real, data):
    # add-one costs and chaos values of a realization probed again and again are
    # those of one built from copies that has answered nothing
    model = real.model
    zs = (st.sampled_from([z for z, _ in model.atoms]) if model.is_atomic
          else st.floats(-4.0, 4.0))
    xs = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.floats(-3.0, 3.0))
    probes = data.draw(st.lists(st.tuples(xs, zs), min_size=1, max_size=9))
    for F in _functionals(model):
        for x, z in probes + probes:
            got = add_one_cost(F, real, x, z)
            assert type(got) is Fraction and got == add_one_cost(F, fresh_copy(real), x, z)
            assert eval_chaos(real, F) == eval_chaos(fresh_copy(real), F)


# on a cell's ends, on the window's edges, and anywhere; a density's jumps on its band ends
PROBES_X = st.one_of(st.sampled_from([-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0]),
                     st.floats(-3.0, 3.0))
DENSITY_JUMPS = (-4.0, -0.25, 0.25, 4.0)


@settings(max_examples=40, deadline=None)
@given(real=hand_realizations(3.0), x=PROBES_X, k=st.integers(0, 7), u=st.floats(-4.0, 4.0))
@example(real=make_realization(EXACT_MODELS[0], 3.0, [(0.5, 1.0)]), x=1.0, k=0, u=0.0)
@example(real=make_realization(EXACT_MODELS[1], 3.0, [(-1.0, -0.5)]), x=3.0, k=1, u=0.0)
@example(real=make_realization(EXACT_MODELS[2], 3.0, [(-0.5, 0.25)]), x=0.0, k=2, u=0.0)
@example(real=make_realization(EXACT_MODELS[2], 3.0, [(0.5, -4.0)]), x=-1.0, k=3, u=0.0)
def test_add_one_cost_is_the_rebuilt_difference(real, x, k, u):
    # F(omega + delta) - F(omega), each evaluated on a realization rebuilt from arrays,
    # for every functional; then again on the realization with the point added
    model = real.model
    if model.is_atomic:
        z = model.atoms[k % len(model.atoms)][0]
    else:
        z = DENSITY_JUMPS[k] if k < len(DENSITY_JUMPS) else u
    for F in _functionals(model):
        for omega in (real, with_point(real, x, z)):
            want = eval_chaos(with_point(omega, x, z), F) - eval_chaos(fresh_copy(omega), F)
            got = add_one_cost(F, omega, x, z)
            assert type(got) is Fraction and got == want


def test_probes_keep_one_answer_per_question_and_no_realization(monkeypatch, unit_atom):
    # 1000 probes of one realization: its memo holds each cell's count, each cell's
    # compensated count (keyed by the Cell) and each functional's value once, and no
    # realization is built for the added point
    functionals = [catalog_functional("mixed"), catalog_functional("third_chaos")]
    real = sample_prm(unit_atom, 3.0, 5)
    built = []
    monkeypatch.setattr(PointRealization, "__post_init__", lambda self: built.append(self))
    for F in functionals:
        for x in np.linspace(-2.9, 2.9, 500):
            add_one_cost(F, real, float(x), 1.0)
    cells = {c for F in functionals for kern in F.kernels for c in kern.cells}
    counts = {(c.a, c.b, c.marks) for c in cells}
    assert not built and set(real._memo) == counts | cells | set(functionals)


def test_probes_compute_each_compensated_count_once(monkeypatch, unit_atom):
    # 1000 probes of one realization and the derivative at each, as derivative_probes
    # pairs them: the compensator of each cell value is asked for once
    functionals = [catalog_functional("mixed"), catalog_functional("third_chaos")]
    real = sample_prm(unit_atom, 3.0, 5)
    asked = Counter()
    intensity = chaos.cell_intensity

    def counting(model, cell):
        asked[cell] += 1
        return intensity(model, cell)
    monkeypatch.setattr(chaos, "cell_intensity", counting)
    for F in functionals:
        for x in np.linspace(-2.9, 2.9, 500):
            d = malliavin_derivative(F, float(x), 1.0, unit_atom)
            assert eval_chaos(real, d) == add_one_cost(F, real, float(x), 1.0)
    cells = {c for F in functionals for kern in F.kernels for c in kern.cells}
    assert asked == Counter(dict.fromkeys(cells, 1))


def test_a_batch_keeps_no_compensated_count(monkeypatch, unit_atom):
    # the batch backend recomputes: the same cell asked twice is two compensator calls
    batch = sample_prm_batch(unit_atom, 2.0, 50, np.random.default_rng(3))
    cell = catalog_kernel("k1").cells[0]
    asked = []
    intensity = chaos.cell_intensity
    monkeypatch.setattr(chaos, "cell_intensity",
                        lambda model, c: asked.append(c) or intensity(model, c))
    first, second = (compensated_cell_count(batch, cell) for _ in range(2))
    assert asked == [cell, cell] and np.array_equal(first, second) and first is not second


@pytest.mark.parametrize("name", CATALOG_FUNCTIONAL_NAMES)
def test_probes_of_one_realization_count_each_cell_once(monkeypatch, unit_atom, name):
    F = catalog_functional(name)
    window = F.read_window() + 1.0
    real = sample_prm(unit_atom, window, 7)
    counted = Counter()
    count = PointRealization._count

    def counting(self, a, b, marks):
        if self is real:
            counted[a, b, marks] += 1
        return count(self, a, b, marks)
    monkeypatch.setattr(PointRealization, "_count", counting)
    for x in np.linspace(-window + 0.1, window - 0.1, 9):  # nine probes, as the benchmark's
        add_one_cost(F, real, float(x), 1.0)
    cells = {(c.a, c.b, c.marks) for kern in F.kernels for c in kern.cells}
    assert counted == Counter(dict.fromkeys(cells, 1))


def test_left_supported_derivative_vanishes_right(unit_atom):
    F = catalog_functional("second_chaos_left")   # cells left of 0
    for x in (0.1, 0.5, 1.0, 2.0):
        d = malliavin_derivative(F, x, 1.0, unit_atom)
        assert d.constant == 0.0 and not d.kernels


def test_skorohod_single_block_form(unit_atom):
    # the integral of Y 1_{(0,1]} is Y * L((0,1]) when Y reads noise left of 0
    proc = validate_simple((0.0, 1.0), (ClampedNoise(-1.0, 0.0, 10.0),))
    from levynoise import eval_L_set
    for seed in range(8):
        real = sample_prm(unit_atom, 2.0, seed)
        y = proc.coefficients[0].eval(real)
        assert eval_I_K(real, proc) == y * eval_L_set(real, (0.0, 1.0))


def test_duality_closed_form_pair(unit_atom):
    # F = hatN((0,1] x {0}), Phi = 1_{(0,2]}: both sides equal 1
    F = catalog_functional("first_chaos")
    proc = validate_simple((0.0, 2.0), (Const(1.0),))
    res = duality_gap(unit_atom, F, proc, 50_000, 3)
    assert res.mean_pairing == pytest.approx(1.0, abs=1e-12)
    assert res.mean_adjoint == pytest.approx(1.0, abs=4 * res.gate.se)
    assert res.passed


def test_duality_disjoint_supports(unit_atom):
    # Phi lives right of every cell of F: both sides vanish
    F = catalog_functional("second_chaos_left")
    proc = validate_simple((1.0, 2.0), (Const(1.0),))
    res = duality_gap(unit_atom, F, proc, 5_000, 4)
    assert res.mean_pairing == 0.0
    assert abs(res.mean_adjoint) <= 4 * res.gate.se
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


def _probe_loop(model, functionals, reals, xs):
    for F in functionals:
        for real in reals:
            for x in xs:
                eval_chaos(real, malliavin_derivative(F, x, 1.0, model))
                add_one_cost(F, real, x, 1.0)


def test_probe_loop_retains_no_memory(unit_atom):
    # every probe builds new derivative kernels and a new bumped realization;
    # a cache keyed on those objects would grow by each of them
    functionals = [catalog_functional(name) for name in CATALOG_FUNCTIONAL_NAMES]
    reals = [sample_prm(unit_atom, 3.0, seed) for seed in range(25)]
    xs = [float(x) for x in np.linspace(-2.9, 2.9, 8)]  # 5 * 25 * 8 = 1000 probes
    _probe_loop(unit_atom, functionals, reals, xs)      # warm the caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _probe_loop(unit_atom, functionals, reals, xs)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 16 * 1024
