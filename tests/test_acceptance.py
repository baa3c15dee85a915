"""Acceptance suite: one test per criterion, one printed line per criterion.

Every statistical gate runs on a fixed master seed, so the whole module
is deterministic; exact gates use rational arithmetic end to end.
"""

import json
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import levynoise as ln
from levynoise.chaos import CATALOG_FUNCTIONAL_NAMES
from levynoise.coefficients import ClampedNoise, Const, Product
from levynoise.errors import HorizonViolationError
from levynoise.harness import report_to_dict
from levynoise.processes import CATALOG_PROCESS_NAMES, square_integral
from levynoise.rng import derive_rng

MASTER_SEED = 20_260_809

MEASURE_GRID = [
    [(1.0, 1.0)],
    [(1.0, 0.5), (-1.0, 0.5)],
    [(2.0, 1.0)],
    [(2.0, 1.0), (-1.0, 3.0)],
    [(0.5, 2.0), (1.5, 0.25)],
    [(1.0, 0.5), (3.0, 0.5)],
]


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_announcements(capfd):
    # lets announce() bypass pytest's fd capture so every criterion
    # prints its line even on success
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def announce(number: int, label: str, passed: bool, extra: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] acceptance {number:02d} {label}"
    if extra:
        line += f" ({extra})"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def rgs_no_singleton_count(m):
    # independent filter oracle over all restricted growth strings
    if m == 0:
        return 0
    a = [0] * m
    count = 0
    while True:
        sizes = {}
        for g in a:
            sizes[g] = sizes.get(g, 0) + 1
        if all(s >= 2 for s in sizes.values()):
            count += 1
        i = m - 1
        while i > 0:
            if a[i] <= max(a[:i]):
                a[i] += 1
                for j in range(i + 1, m):
                    a[j] = 0
                break
            i -= 1
        else:
            return count


def test_01_partition_count_oracle():
    t0 = time.perf_counter()
    expected = {2: 1, 3: 1, 4: 4, 5: 11, 6: 41, 7: 162, 8: 715}
    ok = True
    for p in range(2, 11):
        got = ln.count_no_singleton_partitions(p)
        oracle = rgs_no_singleton_count(p)
        ok &= got == oracle
        if p in expected:
            ok &= got == expected[p]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    announce(1, "partition count vs filter oracle through p=10", ok, f"{elapsed:.2f}s")
    assert ok


def test_02_cumulant_moment_coherence():
    model = ln.atomic_measure([(1.0, 1.0)])
    phi = ln.StepFunction.indicator(0.0, 1.0)
    targets = {2: 1, 3: 1, 4: 4, 6: 41}
    ok = True
    for p, target in targets.items():
        got = ln.moment_of_step_functional(model, phi, p)
        ok &= got == target
        ok &= abs(float(got) - target) <= 1e-12 * target
    announce(2, "exact moments of L((0,1]) equal 1, 1, 4, 41", ok)
    assert ok


def test_03_mc_moments_against_exact():
    t0 = time.perf_counter()
    model = ln.atomic_measure([(1.0, 1.0)])
    n = 1_000_000
    draws = ln.sample_L_interval(model, 1.0, n, derive_rng(MASTER_SEED, 3))
    ok = True
    zs = []
    for p, target in ((2, 1.0), (3, 1.0), (4, 4.0), (6, 41.0)):
        est, se, z, passed = ln.mc_mean_test(draws ** p, target, 4.0)
        zs.append(f"p{p}:z={z:+.2f}")
        ok &= passed
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    announce(3, "MC moments within 4 SE at 1e6 samples", ok,
             " ".join(zs) + f", {elapsed:.1f}s")
    assert ok


def test_04_characteristic_function():
    n = 1_000_000
    thetas = np.linspace(-math.pi, math.pi, 41)
    threshold = 5.0 / math.sqrt(n)
    ok = True
    gaps = []
    for i, atoms in enumerate(([(1.0, 1.0)], [(1.0, 0.5), (-1.0, 0.5)])):
        rep = ln.char_function_gap(ln.atomic_measure(atoms), (0.0, 1.0), thetas, n,
                                   ln.derive_seed(MASTER_SEED, 4, i))
        gaps.append(rep.sup_gap)
        ok &= rep.sup_gap < threshold
    announce(4, "characteristic function sup gap < 5/sqrt(n)", ok,
             f"gaps {gaps[0]:.2e}, {gaps[1]:.2e} vs {threshold:.2e}")
    assert ok


def test_05_isometry_three_processes():
    model = ln.atomic_measure([(1.0, 1.0)])
    m2 = float(ln.abs_moment(model, 2))
    ok = True
    zs = []
    for i, name in enumerate(("det_step", "clamped_left", "two_block")):
        proc = ln.catalog_process(name)
        batch = ln.sample_prm_batch(model, proc.read_window(), 100_000,
                                    derive_rng(MASTER_SEED, 5, i))
        ivals = ln.eval_I_K(batch, proc)
        paired = ivals ** 2 - m2 * square_integral(proc, batch)
        est, se, z, passed = ln.mc_mean_test(paired, 0.0, 3.0)
        zs.append(f"{name}:z={z:+.2f}")
        ok &= passed
    announce(5, "integral isometry within 3 SE at 1e5 samples", ok, " ".join(zs))
    assert ok


def test_06_linear_moment_bound_grid():
    phis = [ln.StepFunction.indicator(0.0, 1.0),
            ln.StepFunction((0.0, 1.0, 2.0), (2.0, -1.0))]
    ok = True
    combos = 0
    for i, atoms in enumerate(MEASURE_GRID):
        model = ln.atomic_measure(atoms)
        phi = phis[i % 2]
        for p in (4, 6):
            res = ln.check_linear_moment_bound(model, phi, p)
            ok &= res.passed
            combos += 1
    # tight case: the unit indicator against the unit atom sits at ratio 1/2
    unit = ln.atomic_measure([(1.0, 1.0)])
    for p in (4, 6):
        res = ln.check_linear_moment_bound(unit, phis[0], p)
        ok &= Fraction(res.exact_moment) / Fraction(res.rhs) == Fraction(1, 2)
    announce(6, "p-th moment bound exact on 12-combo grid incl. ratio 1/2", ok,
             f"{combos} combos")
    assert ok


def test_07_holder_interpolation():
    ok = True
    single_atom_equalities = 0
    for atoms in MEASURE_GRID:
        model = ln.atomic_measure(atoms)
        for p in (4, 6):
            rows = ln.interpolation_check(model, p)
            ok &= all(r.passed for r in rows)
            for r in rows:
                ok &= r.value <= r.bound * (1 + 1e-12)
                if len(atoms) == 1:
                    ok &= r.equality
                    single_atom_equalities += 1
    announce(7, "interpolation inequality at 1e-12 with single-atom equality", ok,
             f"{single_atom_equalities} exact equalities")
    assert ok


def test_08_martingale_and_horizon_violations():
    model = ln.atomic_measure([(1.0, 1.0)])
    ok = True
    worst = 0.0
    for i, name in enumerate(CATALOG_PROCESS_NAMES):
        proc = ln.catalog_process(name)
        window = max(proc.read_window(),
                     max(abs(b - 1.0) for b in proc.breakpoints))
        batch = ln.sample_prm_batch(model, window, 50_000,
                                    derive_rng(MASTER_SEED, 8, i))
        for (a, b), coef in zip(proc.cells, proc.coefficients):
            probe = ClampedNoise(a - 1.0, a, 10.0)
            d = (coef.eval(batch)
                 * ln.eval_L_set(batch, (a, b))
                 * probe.eval(batch))
            est, se, z, passed = ln.mc_mean_test(d, 0.0, 3.0)
            worst = max(worst, abs(z))
            ok &= passed
    # the three canonical predictability violations
    violations = 0
    for bps, coefs in (
        ((0.0, 1.0), (ClampedNoise(0.0, 0.5, 10.0),)),
        ((0.0, 1.0, 2.0), (Const(1.0), ClampedNoise(1.0, 1.5, 10.0))),
        ((0.0, 1.0), (Product((Const(2.0), ClampedNoise(-1.0, 0.75, 10.0))),)),
    ):
        try:
            ln.validate_simple(bps, coefs)
        except HorizonViolationError:
            violations += 1
    ok &= violations == 3
    announce(8, "martingale increments orthogonal to prefix; 3 horizon rejections",
             ok, f"worst |z|={worst:.2f}")
    assert ok


def test_09_tail_convergence():
    model = ln.atomic_measure([(1.0, 1.0)])
    func = lambda x: np.exp(-np.asarray(x) ** 2)
    rows = ln.tail_convergence(model, func, [1.0, 2.0, 3.0, 4.0], 8.0,
                               n_samples=100_000, seed=ln.derive_seed(MASTER_SEED, 9))
    ok = all(r.passed for r in rows)
    # cross-check the implementation's tail targets against the closed form
    for r in rows:
        closed = math.sqrt(math.pi / 2) * (math.erf(math.sqrt(2) * 8.0)
                                           - math.erf(math.sqrt(2) * r.k_inner))
        ok &= abs(r.gate.target - closed) <= 1e-9 * closed + 1e-13
    announce(9, "window-tail variance matches m2*tail integral at K=1..4", ok,
             "z: " + " ".join(f"{(r.gate.statistic - r.gate.target) / r.gate.se:+.2f}"
                              for r in rows))
    assert ok


def test_10_integral_and_convolution_bounds():
    model = ln.atomic_measure([(1.0, 1.0)])
    ok = True
    # deterministic worked example: C_4 = (2 * 1 * 4 * 1)^{1/4}, seminorm 2
    res = ln.check_integral_moment_bound(model, ln.catalog_process("det_step"), 4,
                                         rosenthal_b=1.0, n_samples=100_000,
                                         seed=ln.derive_seed(MASTER_SEED, 10, 0))
    ok &= abs(res.rhs - 8.0 ** 0.25 * 2.0) <= 1e-10
    ok &= res.passed
    # full process catalog at p = 4 in monotone-check mode
    for i, name in enumerate(CATALOG_PROCESS_NAMES):
        r = ln.check_integral_moment_bound(model, ln.catalog_process(name), 4,
                                           n_samples=50_000,
                                           seed=ln.derive_seed(MASTER_SEED, 10, 1 + i))
        ok &= r.passed
    # convolution worked example: nu_1 = 1, B^2 = 8, rhs = 16
    unit_field = ln.DeterministicField(lambda s, y: np.ones(np.broadcast(s, y).shape))
    conv = ln.check_convolution_moment_bound(model, ln.indicator_kernel(), unit_field,
                                             2, t=1.0, x=0.0, rosenthal_b=1.0,
                                             n_samples=50_000,
                                             seed=ln.derive_seed(MASTER_SEED, 10, 50))
    ok &= abs(conv.rhs_pow - 16.0) <= 1e-10
    ok &= abs(conv.nu_t - 1.0) <= 1e-10
    ok &= conv.passed
    # convolution catalog
    cos_field = ln.DeterministicField(
        lambda s, y: np.cos(s) * np.ones(np.broadcast(s, y).shape))
    sep_field = ln.SeparableField(lambda s: np.ones_like(np.asarray(s, dtype=float)),
                                  ln.catalog_process("clamped_left", clip=4.0))
    cases = [
        (ln.indicator_kernel(), cos_field, 4, 0.0),
        (ln.indicator_kernel(), sep_field, 2, 1.5),
        (ln.heat_kernel(), unit_field, 2, 0.0),
    ]
    for i, (kern, fld, p, x) in enumerate(cases):
        r = ln.check_convolution_moment_bound(model, kern, fld, p, t=1.0, x=x,
                                              n_samples=20_000,
                                              seed=ln.derive_seed(MASTER_SEED, 10, 60 + i))
        ok &= r.passed
    announce(10, "integral/convolution bounds: closed forms to 1e-10, MC gates", ok,
             f"rhs {res.rhs:.12f} and {conv.rhs_pow:.12f}")
    assert ok


def test_11_malliavin_suite():
    model = ln.atomic_measure([(1.0, 1.0)])
    ok = True
    # derivative vs add-one-cost, exact, > 200 probes over the catalog
    probes_checked = 0
    for fi, name in enumerate(CATALOG_FUNCTIONAL_NAMES):
        F = ln.catalog_functional(name)
        window = F.read_window() + 1.0
        xs = np.linspace(-window + 0.1, window - 0.1, 9)
        for si in range(5):
            real = ln.sample_prm(model, window, ln.derive_seed(MASTER_SEED, 11, fi, si))
            for x in xs:
                d = ln.eval_chaos(real, ln.malliavin_derivative(F, float(x), 1.0, model))
                c = ln.add_one_cost(F, real, float(x), 1.0)
                ok &= d == c
                probes_checked += 1
    ok &= probes_checked >= 200
    # conditional-expectation projection, statistical at 1e5 samples
    kern = ln.catalog_kernel("k2")
    proj = ln.project_kernel(kern, 0.0)
    batch = ln.sample_prm_batch(model, 2.0, 100_000, derive_rng(MASTER_SEED, 11, 99))
    g = ClampedNoise(-1.0, 0.0, 10.0).eval(batch)
    d = (ln.eval_multiple_integral(batch, kern)
         - ln.eval_multiple_integral(batch, proj)) * g
    _, _, z_proj, proj_ok = ln.mc_mean_test(d, 0.0, 3.0)
    ok &= proj_ok
    # left-supported functionals have identically zero derivative to the right
    F_left = ln.catalog_functional("second_chaos_left")
    for x in np.linspace(0.05, 2.0, 10):
        dF = ln.malliavin_derivative(F_left, float(x), 1.0, model)
        ok &= dF.constant == 0.0 and not dF.kernels
    # duality across 6 pairs, including the closed-form pair at value 1
    closed = ln.duality_gap(model, ln.catalog_functional("first_chaos"),
                            ln.validate_simple((0.0, 2.0), (Const(1.0),)),
                            100_000, ln.derive_seed(MASTER_SEED, 11, 101))
    ok &= closed.passed
    ok &= abs(closed.mean_pairing - 1.0) <= 1e-12
    ok &= abs(closed.mean_adjoint - 1.0) <= 4 * closed.gate.se
    pairs = [("first_chaos", "det_step"), ("first_chaos", "clamped_left"),
             ("second_chaos", "two_block"), ("second_chaos_left", "clamped_left"),
             ("mixed", "det_step")]
    for i, (fname, pname) in enumerate(pairs):
        r = ln.duality_gap(model, ln.catalog_functional(fname),
                           ln.catalog_process(pname), 50_000,
                           ln.derive_seed(MASTER_SEED, 11, 102 + i))
        ok &= r.passed
    # multiple-integral isometry and cross-order orthogonality, orders <= 3
    batch = ln.sample_prm_batch(model, 2.0, 100_000, derive_rng(MASTER_SEED, 11, 200))
    for kname in ("k1", "k2", "k3"):
        k = ln.catalog_kernel(kname)
        target = float(ln.chaos_variance(model, k))
        sq = ln.eval_multiple_integral(batch, k) ** 2
        _, _, _, iso_ok = ln.mc_mean_test(sq, target, 3.0)
        ok &= iso_ok
    for ka, kb in (("k1", "k2"), ("k1", "k3"), ("k2", "k3")):
        prod = (ln.eval_multiple_integral(batch, ln.catalog_kernel(ka))
                * ln.eval_multiple_integral(batch, ln.catalog_kernel(kb)))
        _, _, _, orth_ok = ln.mc_mean_test(prod, 0.0, 3.0)
        ok &= orth_ok
    announce(11, "derivative oracle exact, projection/duality/isometry gates", ok,
             f"{probes_checked} probes, proj z={z_proj:+.2f}")
    assert ok


def test_12_reproducibility_and_runtime():
    t0 = time.perf_counter()
    config = ln.default_verification_config(seed=MASTER_SEED, samples=20_000)
    r1 = ln.run(config)
    r2 = ln.run(config)
    d1, d2 = report_to_dict(r1), report_to_dict(r2)
    d1["environment"]["wall_time_s"] = 0.0
    d2["environment"]["wall_time_s"] = 0.0
    b1 = json.dumps(d1, indent=2, sort_keys=True).encode()
    b2 = json.dumps(d2, indent=2, sort_keys=True).encode()
    elapsed = time.perf_counter() - t0
    ok = b1 == b2 and r1.passed and elapsed < 300.0
    announce(12, "byte-identical reports on one seed; suite runtime bounded", ok,
             f"double run {elapsed:.1f}s, all checks passed={r1.passed}")
    assert ok
