"""Partition enumeration against an independent restricted-growth oracle,
and the moment recurrence against enumeration and closed forms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from levynoise import (
    all_partitions,
    count_no_singleton_partitions,
    moment_from_cumulants,
    moment_of_step_functional,
    partitions_no_singletons,
    step_functional_cumulants,
)
from levynoise.errors import MissingCumulantError, SizeLimitError
from levynoise import StepFunction

from conftest import refined


def rgs_partitions(m):
    """Independent oracle: iterative restricted-growth-string enumeration."""
    if m == 0:
        return
    a = [0] * m
    while True:
        blocks = {}
        for i, g in enumerate(a):
            blocks.setdefault(g, []).append(i + 1)
        yield tuple(tuple(blocks[g]) for g in sorted(blocks))
        # next restricted growth string
        i = m - 1
        while i > 0:
            if a[i] <= max(a[:i]):
                a[i] += 1
                for j in range(i + 1, m):
                    a[j] = 0
                break
            i -= 1
        else:
            return


def no_singleton_count_oracle(m):
    return sum(1 for part in rgs_partitions(m) if all(len(b) >= 2 for b in part))


def moment_over_all_partitions(kappas, m):
    """Oracle: the moment summed over *all* set partitions with ``kappa_1 = 0``.

    Partitions with a singleton contribute zero, so this must equal the
    no-singleton sum that ``moment_from_cumulants`` computes by
    recurrence.  Rational cumulants give an exact sum, floats a compensated one.
    """
    full = {**kappas, 1: 0}
    exact = all(isinstance(v, (int, Fraction)) for v in full.values())
    terms = [math.prod((full[len(b)] for b in part), start=Fraction(1) if exact else 1.0)
             for part in all_partitions(m)]
    return sum(terms, Fraction(0)) if exact else math.fsum(terms)


def test_no_singletons_m1_empty():
    assert partitions_no_singletons(1) == []


def test_no_singletons_m2():
    assert partitions_no_singletons(2) == [((1, 2),)]


def test_no_singletons_m4_explicit():
    got = set(partitions_no_singletons(4))
    assert got == {((1, 2, 3, 4),), ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))}


@pytest.mark.parametrize("p,expected", [(2, 1), (6, 41), (8, 715)])
def test_count_matches_filter_oracle(p, expected):
    assert count_no_singleton_partitions(p) == expected == no_singleton_count_oracle(p)


def test_count_oracle_through_ten():
    for p in range(2, 11):
        assert count_no_singleton_partitions(p) == no_singleton_count_oracle(p)


def test_size_limit():
    # enumeration lists every partition; the recurrence is capped only as an order
    with pytest.raises(SizeLimitError):
        partitions_no_singletons(15)
    with pytest.raises(SizeLimitError):
        count_no_singleton_partitions(65)
    with pytest.raises(SizeLimitError):
        moment_from_cumulants({n: 1 for n in range(2, 66)}, 65)


@given(st.integers(1, 7))
@settings(max_examples=20, deadline=None)
def test_enumeration_is_canonical_and_valid(m):
    parts = list(all_partitions(m))
    seen = set()
    for part in parts:
        flat = [e for block in part for e in block]
        assert sorted(flat) == list(range(1, m + 1))
        assert [min(b) for b in part] == sorted(min(b) for b in part)
        assert all(tuple(sorted(b)) == b for b in part)
        seen.add(part)
    assert len(seen) == len(parts)
    assert len(parts) == sum(1 for _ in rgs_partitions(m))


def test_moment_from_cumulants_examples():
    kappas = {n: 1 for n in range(2, 7)}
    assert moment_from_cumulants(kappas, 4) == 4      # kappa_4 + 3 kappa_2^2
    assert moment_from_cumulants(kappas, 3) == 1      # single admissible partition
    assert moment_from_cumulants({2: 2, 3: 0, 4: 5}, 4) == 17  # 5 + 3 * 2^2


def test_moment_missing_cumulant():
    with pytest.raises(MissingCumulantError):
        moment_from_cumulants({2: 1.0, 4: 1.0}, 4)


def test_centered_poisson_moment_identities():
    # closed-form central moments at rate lam: kappa_n = lam for all n
    for lam in (Fraction(1), Fraction(1, 2), Fraction(3)):
        kappas = {n: lam for n in range(2, 7)}
        assert moment_from_cumulants(kappas, 2) == lam
        assert moment_from_cumulants(kappas, 3) == lam
        assert moment_from_cumulants(kappas, 4) == lam + 3 * lam ** 2
        assert moment_from_cumulants(kappas, 6) == lam + 25 * lam ** 2 + 15 * lam ** 3


@given(st.integers(2, 8),
       st.lists(st.fractions(min_value=Fraction(-3), max_value=Fraction(3)),
                min_size=7, max_size=7))
@settings(max_examples=40, deadline=None)
def test_both_partition_readings_agree(m, kappa_values):
    kappas = {n: v for n, v in zip(range(2, 9), kappa_values)}
    kappas[2] = abs(kappas[2])
    got = moment_from_cumulants(kappas, m)
    assert type(got) is Fraction
    assert got == moment_over_all_partitions(kappas, m)


@given(st.integers(2, 8),
       st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=7, max_size=7))
@settings(max_examples=40, deadline=None)
def test_float_cumulants_match_enumeration(m, kappa_values):
    kappas = {n: v for n, v in zip(range(2, 9), kappa_values)}
    kappas[2] = abs(kappas[2])
    got = moment_from_cumulants(kappas, m)
    assert type(got) is float
    assert got == pytest.approx(moment_over_all_partitions(kappas, m), rel=1e-13)


@pytest.mark.parametrize("m", [9, 10, 11])
def test_recurrence_matches_enumeration_beyond_eight(m):
    # Bell(10) = 115 975 partitions: one fixed example per order, not a Hypothesis run;
    # at m = 11 the sum runs over the 98 253 no-singleton partitions only
    exact = {n: Fraction((-1) ** n * (n + 1), 7 - n % 3) for n in range(2, m + 1)}
    floats = {n: float(v) / 3.0 for n, v in exact.items()}
    if m == 11:
        parts = partitions_no_singletons(m)
        expect_exact = sum(math.prod((exact[len(b)] for b in part), start=Fraction(1))
                           for part in parts)
        expect_float = math.fsum(math.prod(floats[len(b)] for b in part) for part in parts)
    else:
        expect_exact = moment_over_all_partitions(exact, m)
        expect_float = moment_over_all_partitions(floats, m)
    assert moment_from_cumulants(exact, m) == expect_exact
    assert moment_from_cumulants(floats, m) == pytest.approx(expect_float, rel=1e-13)


def stirling2_rows(n):
    """Rows ``S(j, 0..j)``, j = 0..n, of the Stirling numbers of the second kind,
    by S(j, k) = k S(j-1, k) + S(j-1, k-1)."""
    rows = [[1]]
    for j in range(1, n + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, j + 1)])
    return rows


def test_recurrence_matches_closed_forms():
    stirling = stirling2_rows(64)
    # centered Poisson, kappa_n = lam: E[(N - lam)^m] from the raw moments
    # E[N^j] = sum_k S(j, k) lam^k (Touchard polynomials), which use no cumulant sum
    for m in (15, 30, 64):
        for lam in (Fraction(1), Fraction(1, 2), Fraction(3)):
            raw = [sum(s * lam ** k for k, s in enumerate(row)) for row in stirling[:m + 1]]
            central = sum(math.comb(m, j) * (-lam) ** (m - j) * raw[j] for j in range(m + 1))
            assert moment_from_cumulants({n: lam for n in range(2, m + 1)}, m) == central
    # C*: the inverse binomial transform of the Bell numbers (OEIS A000296)
    bell = [sum(row) for row in stirling]
    for p in range(2, 65):
        expected = sum((-1) ** (p - k) * math.comb(p, k) * bell[k] for k in range(p + 1))
        assert count_no_singleton_partitions(p) == expected


@pytest.mark.parametrize("p,expected", [(11, 98253), (12, 580317), (13, 3633280),
                                        (14, 24011157)])
def test_count_known_values_to_cap(p, expected):
    # OEIS A000296; the restricted-growth oracle covers p <= 10
    assert count_no_singleton_partitions(p) == expected


def test_odd_moments_vanish_with_odd_cumulants():
    kappas = {2: 2, 3: 0, 4: 5, 5: 0, 6: 1, 7: 0}
    for m in (3, 5, 7):
        assert moment_from_cumulants(kappas, m) == 0


def test_step_functional_cumulants_examples(unit_atom, sym_two_atom):
    phi = StepFunction.indicator(0.0, 1.0)
    kap = step_functional_cumulants(unit_atom, phi, 6)
    assert all(kap[n] == 1 for n in range(2, 7))
    kap = step_functional_cumulants(sym_two_atom, phi, 4)
    assert kap[3] == 0
    kap = step_functional_cumulants(unit_atom, StepFunction.constant_on(0.0, 3.0, 2.0), 4)
    assert (kap[2], kap[3], kap[4]) == (12, 24, 48)


def test_moment_invariant_under_step_refinement(unit_atom):
    phi = StepFunction((0.0, 1.0, 2.0), (2.0, -1.0))
    finer = refined(phi, (0.25, 0.5, 1.5, 1.75))
    for p in (2, 3, 4, 6):
        assert (moment_of_step_functional(unit_atom, phi, p)
                == moment_of_step_functional(unit_atom, finer, p))
