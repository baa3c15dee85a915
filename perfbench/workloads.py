"""The four benchmark workloads: inputs, one measured pass, and its checks.

Every input comes from the workload seed.  A pass repeats the same
inputs, so its work is fixed and its results must repeat exactly.  The
benchmark drives levynoise only through its public functions, and each
call it makes sits in a span named ``<module>.<function group>``; with
tracing off a span is a no-op.

Each check is one attempted operation.  A statistical gate runs at the
repo's own multiplier or threshold and can fail by chance on correct
code, so it only counts as failed.  A broken exact identity also marks
the run incorrect.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import levynoise as ln
from levynoise import cli, harness
from levynoise.chaos import CATALOG_FUNCTIONAL_NAMES
from levynoise.coefficients import ClampedNoise
from levynoise.convolution import build_convolution_process
from levynoise.processes import CATALOG_PROCESS_NAMES, batch_square_integral, square_integral
from levynoise.prm import batch_L_interval, batch_L_union
from levynoise.rng import derive_rng, derive_seed

# no-singleton set partitions of a p-element set, p = 2..10
NO_SINGLETON_COUNTS = {2: 1, 3: 1, 4: 4, 5: 11, 6: 41, 7: 162, 8: 715, 9: 3425, 10: 17722}
# E[L((0,1])^p] under the unit atom
UNIT_ATOM_MOMENTS = {2: 1, 3: 1, 4: 4, 6: 41}
# the six measures of the acceptance grid
MEASURE_GRID = (
    ((1.0, 1.0),),
    ((1.0, 0.5), (-1.0, 0.5)),
    ((2.0, 1.0),),
    ((2.0, 1.0), (-1.0, 3.0)),
    ((0.5, 2.0), (1.5, 0.25)),
    ((1.0, 0.5), (3.0, 0.5)),
)
MIB = float(1 << 20)


@dataclass
class Tally:
    """Attempted and failed operations, plus per-pass work counters."""

    attempted: int = 0
    failed: int = 0
    broken: list[str] = field(default_factory=list)
    work: Counter = field(default_factory=Counter)
    gauges: dict[str, float] = field(default_factory=dict)

    def gate(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.work["harness.gates_failed"] += 1
            print(f"gate failed: {name}", flush=True)

    def identity(self, name: str, holds: bool) -> None:
        self.attempted += 1
        if not holds:
            self.failed += 1
            self.broken.append(name)
            print(f"identity broken: {name}", flush=True)

    def batch(self, batch) -> None:
        """Count a sampled batch: realizations, points and computed array bytes."""
        self.work["realizations"] += batch.n
        self.work["prm.realizations"] += batch.n
        self.work["prm.points"] += len(batch.x)
        nbytes = batch.x.nbytes + batch.z.nbytes + batch.owner.nbytes
        if batch.atom is not None:
            nbytes += batch.atom.nbytes
        self.gauges["prm.batch_mb"] = max(self.gauges.get("prm.batch_mb", 0.0), nbytes / MIB)

    def draws(self, n: int) -> None:
        """Count realizations drawn inside a prm call that returns no points."""
        self.work["realizations"] += n
        self.work["prm.realizations"] += n


def _unit_field():
    return ln.DeterministicField(lambda s, y: np.ones(np.broadcast(s, y).shape), "unit")


def _gaussian(x):
    return np.exp(-np.asarray(x) ** 2)


def _warm_moments(models, tr) -> None:
    """Fill the per-model moment caches (quadrature for densities)."""
    with tr.span("measure.moments"):
        for model in models:
            for n in range(1, 11):
                ln.abs_moment(model, n)
                ln.signed_moment(model, n)


# ---------------------------------------------------------------------------
# report_suite and density_quad: a config through harness.run
# ---------------------------------------------------------------------------

# kinds whose runner draws Monte Carlo samples (``samples`` realizations each)
MC_KINDS = frozenset({"moment_mc", "char_gap", "mean_zero", "isometry", "martingale",
                      "integral_moment_bound", "convolution_bound", "tail", "projection",
                      "duality", "chaos_isometry", "chaos_orthogonality"})
# kinds that are deterministic, so a failure is a broken identity
EXACT_KINDS = frozenset({"partition_count", "linear_moment_bound", "interpolation",
                         "derivative_probes", "left_zero"})

DENSITY_MEASURE = {"family": "symmetric_power_law", "alpha": 1.5, "eps": 0.25, "z_max": 4.0}
# Malliavin kinds are left out: on density measures they raise TypeError today.
DENSITY_CHECKS = (
    {"kind": "moment_mc", "p": 2},
    {"kind": "moment_mc", "p": 4},
    {"kind": "char_gap"},
    {"kind": "mean_zero", "process": "clamped_left"},
    {"kind": "isometry", "process": "two_block"},
    {"kind": "martingale", "process": "two_block"},
    {"kind": "linear_moment_bound", "p": 4},
    {"kind": "interpolation", "p": 6},
    {"kind": "integral_moment_bound", "process": "det_step", "p": 4},
    {"kind": "convolution_bound", "kernel": "heat", "field": "unit", "p": 2},
    {"kind": "tail", "schedule": [1.0, 2.0], "k_outer": 6.0},
)


@dataclass
class HarnessState:
    config: object
    model: object
    realizations: int
    cli_out: Path | None
    first_report: dict | None = None
    digest: str = ""


def _config_realizations(config) -> int:
    total = 0
    for check in config.checks:
        if check["kind"] in MC_KINDS:
            total += int(check.get("samples", config.samples))
        elif check["kind"] == "derivative_probes":
            total += int(check.get("n_realizations", 20))
    return total


def build_report_suite(seed: int, smoke: bool, tr, tally: Tally, out_dir: Path) -> HarnessState:
    config = harness.default_verification_config(seed=seed, samples=1_000 if smoke else 20_000)
    with tr.span("measure.validate"):
        model = config.model()
    return HarnessState(config, model, _config_realizations(config),
                        out_dir / f"report-{seed}.json")


def warm_report_suite(st: HarnessState, tr, tally: Tally) -> None:
    _warm_moments([st.model], tr)


def build_density_quad(seed: int, smoke: bool, tr, tally: Tally, out_dir: Path) -> HarnessState:
    with tr.span("measure.validate"):
        config = harness.parse_config({"measure": DENSITY_MEASURE, "window": 4.0,
                                       "samples": 1_000 if smoke else 50_000, "seed": seed,
                                       "checks": list(DENSITY_CHECKS)})
        model = config.model()
    tally.identity("density total mass 6", math.isclose(model.total_mass, 6.0, rel_tol=1e-9))
    return HarnessState(config, model, _config_realizations(config), None)


def warm_density_quad(st: HarnessState, tr, tally: Tally) -> None:
    # harness.run validates the measure again on every call, so these caches
    # serve set-up only; the per-pass cost shows as measure.validate_s
    _warm_moments([st.model], tr)
    with tr.span("prm.sample_single"):  # fills the density's inverse-CDF table
        ln.sample_prm(st.model, 1.0, st.config.seed)


def _traced_run(config, tr):
    """``harness.run`` with one span per check: each runner is called with
    run()'s own seed derivation, so the report is the same."""
    with tr.span("harness.run"):
        with tr.span("measure.validate"):
            model = config.model()
        results = []
        for index, check in enumerate(config.checks):
            kind = check["kind"]
            with tr.span(f"harness.{kind}"):
                res = harness.CHECK_RUNNERS[kind](model, config, check,
                                                  derive_seed(config.seed, index))
            results.append(dataclasses.replace(res, samples=None))
    return harness.ExperimentReport(tuple(results), config.seed, ln.__version__, 0.0)


def _zero_wall_time(text: str) -> dict:
    report = json.loads(text)
    report["environment"]["wall_time_s"] = 0.0
    return report


def _tally_report(report, tally: Tally) -> None:
    for c in report.checks:
        if c.kind in EXACT_KINDS:
            tally.identity(f"{c.kind}:{c.name}", c.passed)
        else:
            tally.gate(f"{c.kind}:{c.name}", c.passed)
        if c.kind == "partition_count":
            counts = {int(p): n for p, n in c.details["counts"].items()}
            tally.identity("report partition counts",
                           all(NO_SINGLETON_COUNTS[p] == n for p, n in counts.items()))
            tally.work["exact_ops"] += len(counts)
        elif c.kind == "linear_moment_bound":
            tally.work["exact_ops"] += 1
        elif c.kind in ("derivative_probes", "left_zero"):
            tally.work["exact_ops"] += int(c.estimate)  # the number of probes checked
        elif c.kind == "interpolation":
            tally.work["exact_ops"] += len(c.details["rows"])
        elif c.kind == "convolution_bound":
            tally.gauges["convolution.quad_delta"] = float(c.details["quad_delta"])


def harness_pass(st: HarnessState, tr, tally: Tally) -> None:
    with tr.step("harness.run"):
        if tr.enabled:
            report = _traced_run(st.config, tr)
        else:
            report = harness.run(st.config)
    with tr.step("harness.report_json"), tr.span("harness.report_json"):
        text = harness.report_to_json(report)
    zeroed = _zero_wall_time(text)
    if st.first_report is None:
        st.first_report = zeroed
        st.digest = hashlib.sha256(
            json.dumps(zeroed, indent=2, sort_keys=True).encode()).hexdigest()
    tally.identity("report equals first pass", zeroed == st.first_report)
    _tally_report(report, tally)
    tally.work["realizations"] += st.realizations
    if st.cli_out is None:
        return
    with tr.step("cli.report"), tr.span("cli.report"):
        code = cli.main(["report", "--seed", str(st.config.seed),
                         "--samples", str(st.config.samples), "--out", str(st.cli_out)])
    tally.identity("cli report exit code 0", code == 0)
    tally.identity("cli report equals harness report",
                   _zero_wall_time(st.cli_out.read_text()) == zeroed)
    tally.work["realizations"] += st.realizations


# ---------------------------------------------------------------------------
# mc_acceptance: acceptance-scale atomic Monte Carlo
# ---------------------------------------------------------------------------

MC_SIZES = {"batch_k4": 1_000_000, "marginal": 1_000_000, "char": 1_000_000,
            "conv_batch": 200_000, "batch_k2": 1_000_000, "duality": 200_000,
            "tail": 100_000, "integral": 100_000, "conv_bound": 50_000}


@dataclass
class McState:
    seed: int
    sizes: dict
    unit: object
    sym: object
    proc64: object
    procs: dict
    kernels: dict
    first_chaos: object
    kernel: object
    unit_field: object
    targets: dict = field(default_factory=dict)
    chaos_targets: dict = field(default_factory=dict)


def build_mc_acceptance(seed: int, smoke: bool, tr, tally: Tally, out_dir: Path) -> McState:
    with tr.span("measure.validate"):
        unit = ln.atomic_measure([(1.0, 1.0)])
        sym = ln.atomic_measure([(1.0, 0.5), (-1.0, 0.5)])
    kernel, fld = ln.indicator_kernel(), _unit_field()
    with tr.span("convolution.build"):
        proc64 = build_convolution_process(kernel, fld, 1.0, 0.0)
    tally.identity("64-cell convolution process", len(proc64.cells) == 64)
    procs = {name: ln.catalog_process(name) for name in ("det_step", "clamped_left", "two_block")}
    kernels = {name: ln.catalog_kernel(name) for name in ("k1", "k2", "k3")}
    sizes = {k: 2_000 for k in MC_SIZES} if smoke else dict(MC_SIZES)
    return McState(seed, sizes, unit, sym, proc64, procs, kernels,
                   ln.catalog_functional("first_chaos"), kernel, fld)


def warm_mc_acceptance(st: McState, tr, tally: Tally) -> None:
    """Moment caches, plus the exact targets the gates compare against."""
    _warm_moments([st.unit, st.sym], tr)
    with tr.span("partitions.moment"):
        exact = {p: ln.moment_of_step_functional(st.unit, ln.StepFunction.indicator(0.0, 1.0), p)
                 for p in UNIT_ATOM_MOMENTS}
    tally.identity("exact moments 1, 1, 4, 41", exact == UNIT_ATOM_MOMENTS)
    st.targets = {p: float(v) for p, v in exact.items()}
    st.chaos_targets = {k: float(ln.chaos_variance(st.unit, kern))
                        for k, kern in st.kernels.items()}


def mc_pass(st: McState, tr, tally: Tally) -> None:
    n, seed, unit = st.sizes, st.seed, st.unit
    m2 = float(ln.abs_moment(unit, 2))
    test = ln.mc_mean_test

    # 1e6 realizations at K=4, and L((0,1]) read off the batch
    with tr.step("batch_k4"):
        with tr.span("prm.sample_batch"):
            batch = ln.sample_prm_batch(unit, 4.0, n["batch_k4"], derive_rng(seed, 1, 1))
        tally.batch(batch)
        with tr.span("prm.batch_L"):
            mass = batch_L_interval(batch, 0.0, 1.0)
        del batch
    for p in (2, 3, 4):
        tally.gate(f"batch moment p{p}", test(mass ** p, st.targets[p], 4.0)[3])
    # acceptance 03: marginal draws of L((0,1]) against the exact moments
    with tr.step("marginal"), tr.span("prm.sample_L"):
        draws = ln.sample_L_interval(unit, 1.0, n["marginal"], derive_rng(seed, 1, 2))
    tally.draws(len(draws))
    for p in (2, 3, 4, 6):
        tally.gate(f"marginal moment p{p}", test(draws ** p, st.targets[p], 4.0)[3])

    # acceptance 04: characteristic function, 41 thetas, two measures
    thetas = np.linspace(-math.pi, math.pi, 41)
    for i, model in enumerate((unit, st.sym)):
        with tr.step(f"char.{i}"), tr.span("prm.char"):
            rep = ln.char_function_gap(model, (0.0, 1.0), thetas, n["char"],
                                       derive_seed(seed, 1, 3, i))
        tally.draws(n["char"])
        tally.gate(f"char gap measure {i}", rep.sup_gap < 5.0 / math.sqrt(n["char"]))

    # the 64-cell frozen convolution process
    with tr.step("conv64"):
        with tr.span("prm.sample_batch"):
            batch = ln.sample_prm_batch(unit, st.proc64.read_window(), n["conv_batch"],
                                        derive_rng(seed, 1, 4))
        tally.batch(batch)
        with tr.span("processes.batch_I_K"):
            ivals = ln.batch_I_K(batch, st.proc64)
        tally.work["processes.cell_points"] += len(st.proc64.cells) * len(batch.x)
        with tr.span("processes.square_integral"):
            q2 = batch_square_integral(st.proc64, batch)
        del batch
    tally.gate("convolution process mean zero", test(ivals, 0.0, 3.0)[3])
    tally.gate("convolution process isometry", test(ivals ** 2 - m2 * q2, 0.0, 4.0)[3])

    # one K=2 batch: multiple integrals (acceptance 11), two_block (acceptance 05, 08)
    with tr.step("batch_k2"), tr.span("prm.sample_batch"):
        batch = ln.sample_prm_batch(unit, 2.0, n["batch_k2"], derive_rng(seed, 1, 5))
    tally.batch(batch)
    vals = {}
    for name, kern in st.kernels.items():
        with tr.step(f"chaos.{name}"), tr.span("chaos.batch_integral"):
            vals[name] = ln.batch_multiple_integral(batch, kern)
        tally.gate(f"isometry {name}", test(vals[name] ** 2, st.chaos_targets[name], 3.0)[3])
    for a, b in (("k1", "k2"), ("k1", "k3"), ("k2", "k3")):
        tally.gate(f"orthogonality {a} {b}", test(vals[a] * vals[b], 0.0, 3.0)[3])
    two_block = st.procs["two_block"]
    with tr.step("two_block"):
        with tr.span("processes.batch_I_K"):
            ivals = ln.batch_I_K(batch, two_block)
        tally.work["processes.cell_points"] += len(two_block.cells) * len(batch.x)
        with tr.span("processes.square_integral"):
            q2 = batch_square_integral(two_block, batch)
    tally.gate("two_block isometry", test(ivals ** 2 - m2 * q2, 0.0, 3.0)[3])
    for (a, b), coef in zip(two_block.cells, two_block.coefficients):
        with tr.step("martingale"):
            with tr.span("coefficients.eval_batch"):
                prefix = ClampedNoise(a - 1.0, a, 10.0).eval_batch(batch)
                value = coef.eval_batch(batch)
            with tr.span("prm.batch_L"):
                increment = batch_L_union(batch, [(a, b)])
        tally.gate(f"martingale cell {a}", test(value * increment * prefix, 0.0, 3.0)[3])
    del batch, vals

    # acceptance 11: duality on the closed-form pair
    with tr.step("duality"), tr.span("chaos.duality"):
        res = ln.duality_gap(unit, st.first_chaos, st.procs["det_step"], n["duality"],
                             derive_seed(seed, 1, 6))
    tally.work["realizations"] += n["duality"]
    tally.gate("duality first_chaos det_step", res.passed)

    # acceptance 09 and 10: tail, integral bound, seminorm, convolution bound
    with tr.step("tail"), tr.span("integral.tail"):
        rows = ln.tail_convergence(unit, _gaussian, [1.0, 2.0, 3.0, 4.0], 8.0, n["tail"],
                                   derive_seed(seed, 1, 7))
    tally.work["realizations"] += n["tail"]
    for r in rows:
        tally.gate(f"tail K={r.k_inner}", r.passed)
    with tr.step("integral"):
        with tr.span("integral.moment_bound"):
            bound = ln.check_integral_moment_bound(unit, st.procs["det_step"], 4,
                                                   rosenthal_b=1.0, n_samples=n["integral"],
                                                   seed=derive_seed(seed, 1, 8))
        with tr.span("integral.seminorm"):
            semi = ln.estimate_seminorm(unit, st.procs["clamped_left"], 4,
                                        n_samples=n["integral"], seed=derive_seed(seed, 1, 9))
    tally.work["realizations"] += 2 * n["integral"]
    tally.identity("integral bound rhs 8^(1/4)*2", abs(bound.rhs - 8.0 ** 0.25 * 2.0) <= 1e-10)
    tally.gate("integral moment bound", bound.passed)
    # E[L((-1,0])^4] = 4 under the unit atom, and both seminorm parts estimate it
    tally.gate("seminorm E[(int X^2)^2] = 4",
               abs(semi.mean_sq_pow - 4.0) <= 4.0 * semi.se_sq_pow)
    with tr.step("convolution"):
        with tr.span("convolution.nu_t"):
            nu_t = ln.kernel_power_integral(st.kernel, 2, 1.0)
        with tr.span("convolution.bound"):
            conv = ln.check_convolution_moment_bound(unit, st.kernel, st.unit_field, 2, t=1.0,
                                                     x=0.0, rosenthal_b=1.0,
                                                     n_samples=n["conv_bound"],
                                                     seed=derive_seed(seed, 1, 10))
    tally.work["realizations"] += n["conv_bound"]
    tally.identity("nu_t = 1", abs(nu_t - 1.0) <= 1e-10)
    tally.identity("convolution rhs_pow = 16", abs(conv.rhs_pow - 16.0) <= 1e-10)
    tally.identity("convolution nu_t = 1", abs(conv.nu_t - 1.0) <= 1e-10)
    tally.gate("convolution moment bound", conv.passed)
    tally.gauges["convolution.quad_delta"] = float(conv.quad_delta)


# ---------------------------------------------------------------------------
# exact_rational: partition sums and pathwise rational evaluation
# ---------------------------------------------------------------------------

EXACT_SIZES = {"p_max": 10, "oracle_realizations": 60, "eval_realizations": 600}
EXACT_SMOKE_SIZES = {"p_max": 6, "oracle_realizations": 1, "eval_realizations": 3}
EVAL_STEP = 100  # realizations per timed step of the pathwise evaluation


@dataclass
class ExactState:
    seed: int
    sizes: dict
    models: tuple
    phis: tuple
    functionals: tuple
    procs: tuple
    first_results: list | None = None


def build_exact_rational(seed: int, smoke: bool, tr, tally: Tally, out_dir: Path) -> ExactState:
    with tr.span("measure.validate"):
        models = tuple(ln.atomic_measure(atoms) for atoms in MEASURE_GRID)
    phis = (ln.StepFunction.indicator(0.0, 1.0), ln.StepFunction((0.0, 1.0, 2.0), (2.0, -1.0)))
    return ExactState(seed, dict(EXACT_SMOKE_SIZES if smoke else EXACT_SIZES), models, phis,
                      tuple(ln.catalog_functional(name) for name in CATALOG_FUNCTIONAL_NAMES),
                      tuple(ln.catalog_process(name) for name in CATALOG_PROCESS_NAMES))


def warm_exact_rational(st: ExactState, tr, tally: Tally) -> None:
    _warm_moments(st.models, tr)


def _exact_eval(st: ExactState, tr, tally: Tally, r: int, results: list) -> None:
    """Realization ``r`` on [-2, 2]: noise masses, integrals and coefficients, exact."""
    with tr.span("prm.sample_single"):
        real = ln.sample_prm(st.models[0], 2.0, derive_seed(st.seed, 3, r))
    tally.work["realizations"] += 1
    tally.work["prm.realizations"] += 1
    tally.work["prm.points"] += len(real)
    with tr.span("prm.eval_exact"):
        left = ln.eval_L_set(real, (-2.0, 0.0))
        right = ln.eval_L_set(real, (0.0, 2.0))
        whole = ln.eval_L_set(real, (-2.0, 2.0))
    tally.identity("eval_L_set additive", left + right == whole)
    for proc in st.procs:
        with tr.span("processes.eval_I_K"):
            integral = ln.eval_I_K(real, proc)
        with tr.span("coefficients.eval_exact"):
            coefs = [c.eval(real) for c in proc.coefficients]
        with tr.span("prm.eval_exact"):
            masses = [ln.eval_L_set(real, cell) for cell in proc.cells]
        tally.identity("eval_I_K is the sum of Y_i L(A_i)",
                       integral == sum(c * m for c, m in zip(coefs, masses)))
        with tr.span("processes.square_integral"):
            sq = square_integral(proc, real)
        tally.identity("square integral is the sum of Y_i^2 |A_i|",
                       sq == sum(c * c * (Fraction(b) - Fraction(a))
                                 for c, (a, b) in zip(coefs, proc.cells)))
        results.append(integral)


def exact_pass(st: ExactState, tr, tally: Tally) -> None:
    n, seed = st.sizes, st.seed
    unit = st.models[0]
    p_values = range(2, n["p_max"] + 1)
    results = []

    # acceptance 06 grid: each measure paired with one of the two step functions
    for i, model in enumerate(st.models):
        phi = st.phis[i % 2]
        with tr.step(f"grid.{i}"):
            for p in p_values:
                with tr.span("partitions.moment"):
                    results.append(ln.moment_of_step_functional(model, phi, p))
                tally.work["partitions.terms"] += NO_SINGLETON_COUNTS[p]
                if i == 0 and p in UNIT_ATOM_MOMENTS:
                    tally.identity(f"unit atom moment p{p}", results[-1] == UNIT_ATOM_MOMENTS[p])
            for p in (4, 6, 8):
                if p > n["p_max"]:
                    continue
                with tr.span("integral.moment_bound"):
                    res = ln.check_linear_moment_bound(model, phi, p)
                results.append(res.exact_moment)
                tally.identity(f"linear moment bound measure {i} p{p}", res.passed)
                if i == 0:
                    tally.identity(f"unit atom bound ratio 1/2 p{p}",
                                   Fraction(res.exact_moment) / Fraction(res.rhs)
                                   == Fraction(1, 2))
    with tr.step("partitions.count"):
        for p in p_values:
            with tr.span("partitions.count"):
                count = ln.count_no_singleton_partitions(p)
            tally.work["partitions.terms"] += count
            tally.identity(f"partition count p{p}", count == NO_SINGLETON_COUNTS[p])
    tally.work["exact_ops"] += len(results) + len(p_values)

    # acceptance 11: derivative against the add-one-cost oracle, 9 probes each
    for fi, F in enumerate(st.functionals):
        window = F.read_window() + 1.0
        xs = np.linspace(-window + 0.1, window - 0.1, 9)
        with tr.step(f"oracle.{fi}"):
            for r in range(n["oracle_realizations"]):
                with tr.span("prm.sample_single"):
                    real = ln.sample_prm(unit, window, derive_seed(seed, 2, fi, r))
                tally.work["realizations"] += 1
                tally.work["prm.realizations"] += 1
                tally.work["prm.points"] += len(real)
                for x in xs:
                    with tr.span("chaos.derivative"):
                        derivative = ln.malliavin_derivative(F, float(x), 1.0, unit)
                    with tr.span("chaos.eval_exact"):
                        lhs = ln.eval_chaos(real, derivative)
                    with tr.span("chaos.add_one"):
                        rhs = ln.add_one_cost(F, real, float(x), 1.0)
                    tally.work["chaos.probes"] += 1
                    if lhs != rhs:
                        tally.work["chaos.oracle_mismatches"] += 1
                    tally.identity("derivative equals add-one cost", lhs == rhs)
                    results.append(lhs)
    tally.work["exact_ops"] += len(st.functionals) * n["oracle_realizations"] * 9

    # pathwise integrals, coefficients and noise masses, all exact
    for lo in range(0, n["eval_realizations"], EVAL_STEP):
        with tr.step(f"eval.{lo // EVAL_STEP}"):
            for r in range(lo, min(lo + EVAL_STEP, n["eval_realizations"])):
                _exact_eval(st, tr, tally, r, results)
    tally.work["exact_ops"] += n["eval_realizations"] * (1 + 2 * len(st.procs))

    if st.first_results is None:
        st.first_results = results
    tally.identity("exact results equal first pass", results == st.first_results)


# name -> (build inputs, fill lazy caches, one measured pass)
WORKLOADS = {
    "report_suite": (build_report_suite, warm_report_suite, harness_pass),
    "mc_acceptance": (build_mc_acceptance, warm_mc_acceptance, mc_pass),
    "exact_rational": (build_exact_rational, warm_exact_rational, exact_pass),
    "density_quad": (build_density_quad, warm_density_quad, harness_pass),
}


def set_up(name: str, seed: int, smoke: bool, tr, tally: Tally, out_dir: Path):
    """Build a workload's inputs and fill the lazy caches; return its pass state."""
    build, warm, _ = WORKLOADS[name]
    with tr.span("setup.model"):
        state = build(seed, smoke, tr, tally, out_dir)
    with tr.span("setup.warm"):
        warm(state, tr, tally)
    return state
