import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levynoise import abs_moment, atomic_measure, interpolation_check, signed_moment
from levynoise.chaos import mark_first_moment, mark_mass
from levynoise.errors import (
    AtomAtZeroError,
    InfiniteSecondMomentError,
    InfiniteTotalMassError,
    MeasureError,
    NonPositiveMassError,
    QuadratureError,
)
from levynoise.measure import (
    _adaptive_gauss,
    _adaptive_gauss_nodes,
    _power_law_model,
    power_law_measure,
    validate_measure,
)


@dataclass(frozen=True)
class MomentTable:
    """Absolute and signed moments of one model up to a max order, with
    the invariants between them checked on construction."""

    abs_moments: dict[int, Fraction | float]
    signed_moments: dict[int, Fraction | float]

    def __post_init__(self) -> None:
        for n, mt in self.signed_moments.items():
            mp = self.abs_moments[n]
            exact = isinstance(mt, Fraction) and isinstance(mp, Fraction)
            if n % 2 == 0:
                same = mt == mp if exact else math.isclose(float(mt), float(mp), rel_tol=1e-12)
                if not same:
                    raise ValueError(f"even signed moment must equal m_{n}")
            if abs(mt) > mp * (1 + 1e-12):
                raise ValueError(f"|mt_{n}| exceeds m_{n}")


def moment_table(model, p_max: int) -> MomentTable:
    return MomentTable(
        abs_moments={n: abs_moment(model, n) for n in range(1, p_max + 1)},
        signed_moments={n: signed_moment(model, n) for n in range(1, p_max + 1)},
    )


def test_validate_single_unit_atom():
    m = validate_measure([(1.0, 1.0)])
    assert m.total_mass == 1.0
    assert m.m2 == 1.0


def test_validate_rejects_atom_at_zero():
    with pytest.raises(AtomAtZeroError):
        validate_measure([(0.0, 1.0)])


@pytest.mark.parametrize("atoms", [
    [(1.0, 1.0), (1.0, 2.0)],
    [(2.0, 0.5), (-1.0, 1.0), (2, 0.25)],   # an int size equal to a float one
    {"atoms": [[-0.5, 1.0], [3.0, 1.0], [-0.5, 1.0]]},
], ids=["pair", "int_and_float", "config_spelling"])
def test_validate_rejects_repeated_jump_sizes(atoms):
    # a mark set selects by jump size: two atoms of one size would both be selected by
    # the index of either, and compensated for one
    pairs = atoms["atoms"] if isinstance(atoms, dict) else atoms
    for build in (lambda: validate_measure(atoms), lambda: atomic_measure(pairs)):
        with pytest.raises(MeasureError, match="merge them into one atom of the summed mass"):
            build()


def test_validate_rejects_bad_mass():
    with pytest.raises(NonPositiveMassError):
        validate_measure([(1.0, 0.0)])
    with pytest.raises(NonPositiveMassError):
        validate_measure([(1.0, -2.0)])
    with pytest.raises(InfiniteTotalMassError):
        validate_measure([(1.0, math.inf)])
    with pytest.raises(InfiniteSecondMomentError):
        validate_measure([(math.inf, 1.0)])


def test_symmetric_two_atom_m2(sym_two_atom):
    assert abs_moment(sym_two_atom, 2) == 1


@pytest.mark.parametrize("atoms,p,expected", [
    ([(1.0, 1.0)], 4, 1),
    ([(2.0, 1.0)], 3, 8),
    ([(1.0, 0.5), (-1.0, 0.5)], 2, 1),
])
def test_abs_moment_examples(atoms, p, expected):
    assert abs_moment(atomic_measure(atoms), p) == expected


@pytest.mark.parametrize("atoms,n,expected", [
    ([(1.0, 0.5), (-1.0, 0.5)], 3, 0),
    ([(1.0, 1.0)], 5, 1),
    ([(2.0, 1.0), (-1.0, 3.0)], 3, 5),   # 8 - 3, direct summation
])
def test_signed_moment_examples(atoms, n, expected):
    assert signed_moment(atomic_measure(atoms), n) == expected


def test_abs_moment_is_exact_rational(unit_atom):
    assert isinstance(abs_moment(unit_atom, 2), Fraction)
    assert abs_moment(unit_atom, 2) == Fraction(1)


def test_cached_m2_matches_moment(skew_two_atom):
    assert float(abs_moment(skew_two_atom, 2)) == skew_two_atom.m2


def test_moment_table_invariants(skew_two_atom):
    table = moment_table(skew_two_atom, 6)
    for n in range(1, 7):
        assert abs(table.signed_moments[n]) <= table.abs_moments[n]
        if n % 2 == 0:
            assert table.signed_moments[n] == table.abs_moments[n]


def test_interpolation_unit_atom_all_ones(unit_atom):
    rows = interpolation_check(unit_atom, 6)
    for row in rows:
        assert row.value == 1.0
        assert row.bound == pytest.approx(1.0, rel=1e-15)
        assert row.passed and row.equality


def test_interpolation_single_atom_equality():
    # single atom z=2: m_3 = 8 equals sqrt(m_4) * sqrt(m_2) = sqrt(16*4)
    rows = interpolation_check(atomic_measure([(2.0, 1.0)]), 4)
    r3 = [r for r in rows if r.r == 3][0]
    assert r3.value == 8.0
    assert r3.bound == pytest.approx(8.0, rel=1e-12)
    assert r3.passed and r3.equality


def test_interpolation_two_atom_strict():
    # m_3 = 14 against sqrt(41 * 5) ~ 14.3178
    rows = interpolation_check(atomic_measure([(1.0, 0.5), (3.0, 0.5)]), 4)
    r3 = [r for r in rows if r.r == 3][0]
    assert r3.value == pytest.approx(14.0)
    assert r3.bound == pytest.approx(math.sqrt(41.0 * 5.0), rel=1e-12)
    assert r3.passed and not r3.equality


@given(st.lists(st.tuples(st.floats(-4, 4).filter(lambda z: abs(z) > 1e-3),
                          st.floats(1e-3, 5.0)),
                min_size=1, max_size=5, unique_by=lambda atom: atom[0]),
       st.sampled_from([4, 6, 8]))
def test_interpolation_property(atoms, p):
    rows = interpolation_check(atomic_measure(atoms), p)
    assert all(r.passed for r in rows)


@given(st.lists(st.tuples(st.floats(0.01, 4), st.floats(0.01, 5)),
                min_size=1, max_size=4, unique_by=lambda atom: atom[0]),
       st.sampled_from([1, 3, 5, 7]))
def test_symmetrized_odd_moments_vanish(pos_atoms, n):
    atoms = [(z, lam) for z, lam in pos_atoms] + [(-z, lam) for z, lam in pos_atoms]
    assert signed_moment(atomic_measure(atoms), n) == 0


def test_quadrature_raises_on_nonintegrable():
    # 1/x on (0, 1): bisecting toward 0 never shrinks the error, so the rule
    # runs out of panels and says so, at one node and at several
    with pytest.raises(QuadratureError):
        _adaptive_gauss(lambda x: 1.0 / x, 0.0, 1.0)
    with pytest.raises(QuadratureError):
        _adaptive_gauss_nodes(lambda tau, x: tau / x, [1.0, 2.0], 0.0, 1.0)
    root = _adaptive_gauss(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert root == pytest.approx(2.0, rel=1e-11, abs=0)  # integrable: converges
    roots = _adaptive_gauss_nodes(lambda tau, x: tau / np.sqrt(x), [1.0, 2.0], 0.0, 1.0)
    assert roots == pytest.approx([2.0, 4.0], rel=1e-11, abs=0)


def test_quadrature_nonfinite_node_stops_alone():
    # exp(1000 x) overflows on (0, 1); the other nodes converge, each to the bits
    # of the rule run on that node alone
    taus = [1.0, 1000.0, -2.0]
    with np.errstate(over="ignore", invalid="ignore"):
        values = _adaptive_gauss_nodes(lambda tau, x: np.exp(tau * x), taus, 0.0, 1.0)
    assert values[1] == math.inf
    assert values[0] == pytest.approx(math.e - 1.0, rel=1e-13, abs=0)
    assert values[2] == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-13, abs=0)
    for tau, value in zip(taus, values):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _adaptive_gauss(lambda x: np.exp(tau * x), 0.0, 1.0) == value


def _power_law_integral(alpha, q, lo, hi):
    """``integral_lo^hi z^q z^-alpha dz`` for ``0 <= lo < hi``."""
    e = q + 1 - alpha
    return (hi ** e - lo ** e) / e


@pytest.mark.parametrize("alpha, eps, z_max", [(0.5, 0.01, 10.0), (1.5, 0.1, 5.0),
                                               (2.5, 0.5, 3.0)],
                         ids=["alpha0.5", "alpha1.5", "alpha2.5"])
def test_power_law_density_mode(alpha, eps, z_max):
    """Quadrature of the power law ``|z|^-alpha`` against its closed forms."""
    m = power_law_measure(alpha=alpha, eps=eps, z_max=z_max)
    assert not m.is_atomic
    closed = lambda q, lo, hi: _power_law_integral(alpha, q, lo, hi)
    assert m.total_mass == pytest.approx(2 * closed(0, eps, z_max), rel=1e-11, abs=0)
    assert m.m2 == pytest.approx(2 * closed(2, eps, z_max), rel=1e-11, abs=0)
    assert abs_moment(m, 2) == pytest.approx(m.m2)
    # a mark set that straddles the gap (-eps, eps) and ends inside each piece
    marks = (-2 * eps, 3 * eps)
    assert mark_mass(m, marks) == pytest.approx(
        closed(0, eps, 2 * eps) + closed(0, eps, 3 * eps), rel=1e-11, abs=0)
    assert mark_first_moment(m, marks) == pytest.approx(
        closed(1, eps, 3 * eps) - closed(1, eps, 2 * eps), rel=1e-11, abs=0)
    rows = interpolation_check(m, 4)
    assert all(r.passed for r in rows)


def test_power_law_measure_one_model_per_density():
    # a config passes every field by keyword, scale included; the API may not
    _power_law_model.cache_clear()
    a = power_law_measure(1.5, 0.25, 4.0)
    b = validate_measure({"family": "symmetric_power_law", "alpha": 1.5, "eps": 0.25,
                          "z_max": 4.0})
    c = power_law_measure(1.5, 0.25, 4.0, scale=1.0)
    assert a is b is c
    assert _power_law_model.cache_info().currsize == 1


def test_mark_mass_across_the_gap_is_symmetric():
    # (-0.3, 0.2] and (0.1, 0.3] both hold one support piece of width 0.05;
    # a panel holding the jump at -eps would make them differ by ~5e-13
    m = power_law_measure(alpha=1.5, eps=0.25, z_max=4.0)
    closed = _power_law_integral(1.5, 0, 0.25, 0.3)
    assert mark_mass(m, (-0.3, 0.2)) == pytest.approx(closed, rel=1e-14, abs=0)
    assert mark_mass(m, (0.1, 0.3)) == pytest.approx(closed, rel=1e-14, abs=0)
