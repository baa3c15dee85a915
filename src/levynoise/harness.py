"""Declarative experiment runner with machine-readable reports.

A configuration names a jump-size measure, a master seed, default
sample counts and a list of checks; :func:`run` executes every check on
its own derived random stream and assembles an :class:`ExperimentReport`
whose JSON serialization is byte-stable given ``(config, seed,
version)`` apart from the wall-time field.

Statistical checks gate on standard-error multiples (default 3, with a
wider default of 4 for heavy-tailed p-th moment targets) because every
target here has a computable Monte Carlo variance; exact checks gate on
equality or the stated relative tolerance.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .chaos import (
    add_one_cost,
    catalog_functional,
    catalog_kernel,
    chaos_variance,
    duality_gap,
    eval_chaos,
    eval_multiple_integral,
    malliavin_derivative,
    project_kernel,
)
from .coefficients import ClampedNoise
from .convolution import (
    DeterministicField,
    SeparableField,
    check_convolution_moment_bound,
    heat_kernel,
    indicator_kernel,
)
from .errors import ConfigError, DegenerateVarianceError, UnknownCheckError
from .integral import (
    check_integral_moment_bound,
    check_linear_moment_bound,
    tail_convergence,
)
from .measure import LevyMeasureModel, abs_moment, interpolation_check, validate_measure
from .partitions import (
    all_partitions,
    count_no_singleton_partitions,
    moment_of_step_functional,
)
from .prm import (
    char_function_gap,
    eval_L_set,
    sample_L_interval,
    sample_prm,
    sample_prm_batch,
)
from .processes import catalog_process, eval_I_K, process_from_config, square_integral
from .rng import (
    CHAOS_ISOMETRY_STREAM,
    CHAOS_ORTHOGONALITY_STREAM,
    DERIVATIVE_PROBES_STREAM,
    ISOMETRY_STREAM,
    MARTINGALE_STREAM,
    MEAN_ZERO_STREAM,
    MOMENT_MC_STREAM,
    PROJECTION_STREAM,
    derive_rng,
    derive_seed,
)
from .stepfun import StepFunction

MIN_SAMPLES = 1_000
HEAVY_TAIL_SE_MULTIPLIER = 4.0


# ---------------------------------------------------------------------------
# config and report containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    measure: dict
    window: float
    samples: int
    seed: int
    se_multiplier: float
    checks: tuple[dict, ...]

    def __post_init__(self) -> None:
        # config files; the CLI checks --seed when it parses it
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def model(self) -> LevyMeasureModel:
        return validate_measure(self.measure)


@dataclass(frozen=True)
class CheckResult:
    name: str
    kind: str
    lhs: float | None
    rhs: float | None
    estimate: float | None
    se: float | None
    z: float | None
    passed: bool
    details: dict = field(default_factory=dict)
    samples: np.ndarray | None = None


@dataclass(frozen=True)
class ExperimentReport:
    checks: tuple[CheckResult, ...]
    seed: int
    version: str
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def parse_config(source) -> ExperimentConfig:
    """Parse and validate a config from a dict, JSON string or file path."""
    if isinstance(source, (str, Path)):
        try:
            if isinstance(source, str) and source.lstrip().startswith("{"):
                raw = json.loads(source)
            else:
                raw = json.loads(Path(source).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
    elif isinstance(source, dict):
        raw = source
    else:
        raise ConfigError(f"unsupported config source: {type(source)!r}")
    try:
        cfg = ExperimentConfig(
            measure=raw["measure"],
            window=float(raw.get("window", 4.0)),
            samples=int(raw.get("samples", 10_000)),
            seed=int(raw.get("seed", 0)),
            se_multiplier=float(raw.get("se_multiplier", 3.0)),
            checks=tuple(raw.get("checks", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if cfg.samples < MIN_SAMPLES:
        raise ConfigError(f"sample count must be >= {MIN_SAMPLES}")
    if cfg.se_multiplier < 1.0:
        raise ConfigError("se_multiplier must be >= 1")
    for check in cfg.checks:
        kind = check.get("kind")
        if kind not in CHECK_RUNNERS:
            raise UnknownCheckError(f"unknown check kind: {kind!r}")
    validate_measure(cfg.measure)
    return cfg


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def mc_mean_test(samples: np.ndarray, target: float,
                 se_multiplier: float = 3.0) -> tuple[float, float, float, bool]:
    """Two-sided z test of a Monte Carlo mean against a target.

    Returns ``(estimate, se, z, passed)``.  A degenerate sample (zero
    variance) passes only when it sits exactly on the target.
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    est = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(len(samples)))
    if se == 0.0:
        if est == target:
            return est, 0.0, 0.0, True
        raise DegenerateVarianceError(
            f"all samples equal {est} but target is {target}")
    z = (est - target) / se
    return est, se, z, abs(z) <= se_multiplier


# ---------------------------------------------------------------------------
# shared resolvers
# ---------------------------------------------------------------------------

def _resolve_process(spec, clip: float = 1e6):
    if isinstance(spec, str):
        return catalog_process(spec, clip)
    return process_from_config(spec)


def _resolve_phi(spec) -> StepFunction:
    if isinstance(spec, dict):
        return StepFunction(tuple(float(b) for b in spec["breakpoints"]),
                            tuple(float(v) for v in spec["values"]))
    raise ConfigError(f"step function spec must be a dict, got {spec!r}")


def _resolve_kernel(name: str):
    if name == "indicator":
        return indicator_kernel()
    if name == "heat":
        return heat_kernel()
    raise ConfigError(f"unknown kernel: {name!r}")


def _resolve_field(spec):
    if spec == "unit":
        return DeterministicField(lambda s, y: np.ones(np.broadcast(s, y).shape), "unit")
    if spec == "cosine":
        return DeterministicField(lambda s, y: np.cos(s) * np.ones_like(y), "cosine")
    if spec == "separable_clamped":
        space = catalog_process("clamped_left", clip=4.0)
        return SeparableField(lambda s: np.ones_like(np.asarray(s, dtype=float)), space,
                              "separable_clamped")
    raise ConfigError(f"unknown field: {spec!r}")


# ---------------------------------------------------------------------------
# check runners: each consumes (model, config, check, seed) -> CheckResult
# ---------------------------------------------------------------------------

def _samples_count(config: ExperimentConfig, check: dict) -> int:
    n = int(check.get("samples", config.samples))
    if n < MIN_SAMPLES:
        raise ConfigError(f"sample count must be >= {MIN_SAMPLES}")
    return n


def _gate(config: ExperimentConfig, check: dict, heavy: bool = False) -> float:
    """SE multiplier for a check: explicit override, else 4 when the
    samples are squares/products of chaos variables (kurtosis makes the
    standard-error estimate itself noisy), else the config default."""
    default = HEAVY_TAIL_SE_MULTIPLIER if heavy else config.se_multiplier
    return float(check.get("se_multiplier", default))


def _run_partition_count(model, config, check, seed):
    ps = check.get("p_values", [2, 3, 4, 5, 6, 7, 8])
    counts = {}
    oracle = {}
    for p in ps:
        counts[p] = count_no_singleton_partitions(p)
        oracle[p] = sum(1 for part in all_partitions(p)
                        if all(len(b) >= 2 for b in part))
    passed = counts == oracle
    return CheckResult(check.get("name", "partition_count"), "partition_count",
                       None, None, None, None, None, passed,
                       {"counts": {str(p): counts[p] for p in ps},
                        "oracle": {str(p): oracle[p] for p in ps}})


def _run_moment_mc(model, config, check, seed):
    p = int(check["p"])
    a, b = check.get("set", (0.0, 1.0))
    n = _samples_count(config, check)
    mult = _gate(config, check, heavy=p >= 4)
    target = float(moment_of_step_functional(model, StepFunction.indicator(a, b), p))
    rng = derive_rng(seed, MOMENT_MC_STREAM)
    draws = sample_L_interval(model, float(b) - float(a), n, rng)
    samples = draws ** p
    est, se, z, passed = mc_mean_test(samples, target, mult)
    return CheckResult(check.get("name", f"moment_mc_p{p}"), "moment_mc",
                       est, target, est, se, z, passed,
                       {"p": p, "set": [float(a), float(b)], "samples_used": n},
                       samples)


def _run_char_gap(model, config, check, seed):
    a, b = check.get("set", (0.0, 1.0))
    n = _samples_count(config, check)
    n_theta = int(check.get("n_theta", 41))
    theta_max = float(check.get("theta_max", math.pi))
    thetas = np.linspace(-theta_max, theta_max, n_theta)
    rep = char_function_gap(model, (float(a), float(b)), thetas, n, seed)
    threshold = float(check.get("threshold_scale", 5.0)) / math.sqrt(n)
    passed = rep.sup_gap < threshold
    return CheckResult(check.get("name", "char_gap"), "char_gap",
                       rep.sup_gap, threshold, rep.sup_gap, None, None, passed,
                       {"n_theta": n_theta, "theta_max": theta_max, "samples_used": n})


def _run_mean_zero(model, config, check, seed):
    proc = _resolve_process(check.get("process", "det_step"))
    n = _samples_count(config, check)
    rng = derive_rng(seed, MEAN_ZERO_STREAM)
    batch = sample_prm_batch(model, proc.read_window(), n, rng)
    samples = eval_I_K(batch, proc)
    est, se, z, passed = mc_mean_test(samples, 0.0, config.se_multiplier)
    return CheckResult(check.get("name", "mean_zero"), "mean_zero",
                       est, 0.0, est, se, z, passed,
                       {"process": str(check.get("process", "det_step"))}, samples)


def _run_isometry(model, config, check, seed):
    proc = _resolve_process(check.get("process", "det_step"))
    n = _samples_count(config, check)
    rng = derive_rng(seed, ISOMETRY_STREAM)
    batch = sample_prm_batch(model, proc.read_window(), n, rng)
    ivals = eval_I_K(batch, proc)
    q2 = square_integral(proc, batch)
    m2 = float(abs_moment(model, 2))
    paired = ivals ** 2 - m2 * q2
    est, se, z, passed = mc_mean_test(paired, 0.0, _gate(config, check, heavy=True))
    return CheckResult(check.get("name", "isometry"), "isometry",
                       float((ivals ** 2).mean()), float(m2 * q2.mean()),
                       est, se, z, passed,
                       {"process": str(check.get("process", "det_step"))}, paired)


def _run_martingale(model, config, check, seed):
    proc = _resolve_process(check.get("process", "two_block"))
    n = _samples_count(config, check)
    probe_width = float(check.get("probe_width", 1.0))
    mult = _gate(config, check, heavy=True)
    window = max(proc.read_window(),
                 max(abs(bp - probe_width) for bp in proc.breakpoints))
    rng = derive_rng(seed, MARTINGALE_STREAM)
    batch = sample_prm_batch(model, window, n, rng)
    zs = []
    for k, ((a, b), coef) in enumerate(zip(proc.cells, proc.coefficients)):
        probe = ClampedNoise(a - probe_width, a, 10.0)
        increment = coef.eval(batch) * eval_L_set(batch, [(a, b)])
        d = increment * probe.eval(batch)
        _, _, z, _ = mc_mean_test(d, 0.0, mult)
        zs.append(z)
    worst = max(abs(z) for z in zs)
    passed = worst <= mult
    return CheckResult(check.get("name", "martingale"), "martingale",
                       worst, mult, worst, None, worst, passed,
                       {"per_cell_z": [float(z) for z in zs]})


def _run_linear_moment_bound(model, config, check, seed):
    phi = _resolve_phi(check.get("phi", {"breakpoints": [0.0, 1.0], "values": [1.0]}))
    p = int(check["p"])
    res = check_linear_moment_bound(model, phi, p)
    return CheckResult(check.get("name", f"linear_moment_bound_p{p}"),
                       "linear_moment_bound",
                       float(res.exact_moment), float(res.rhs), None, None, None,
                       res.passed, {"p": p, "partition_count": res.partition_count,
                                    "ratio": res.ratio})


def _run_interpolation(model, config, check, seed):
    p = int(check.get("p", 6))
    rows = interpolation_check(model, p)
    passed = all(r.passed for r in rows)
    return CheckResult(check.get("name", f"interpolation_p{p}"), "interpolation",
                       None, None, None, None, None, passed,
                       {"rows": [{"r": r.r, "value": r.value, "bound": r.bound,
                                  "equality": r.equality} for r in rows]})


def _run_integral_moment_bound(model, config, check, seed):
    proc = _resolve_process(check.get("process", "det_step"))
    p = int(check.get("p", 4))
    res = check_integral_moment_bound(
        model, proc, p,
        rosenthal_b=float(check.get("rosenthal_b", 1.0)),
        n_samples=_samples_count(config, check), seed=seed,
        convention=check.get("convention", "linear"),
        se_multiplier=config.se_multiplier)
    return CheckResult(check.get("name", f"integral_bound_p{p}"),
                       "integral_moment_bound", res.lhs, res.rhs, res.lhs,
                       res.se_lhs_pow, None, res.passed,
                       {"p": p, "constant": res.constant,
                        "convention": res.convention,
                        "process": str(check.get("process", "det_step"))})


def _run_convolution_bound(model, config, check, seed):
    kernel = _resolve_kernel(check.get("kernel", "indicator"))
    fld = _resolve_field(check.get("field", "unit"))
    p = int(check.get("p", 2))
    res = check_convolution_moment_bound(
        model, kernel, fld, p,
        t=float(check.get("t", 1.0)), x=float(check.get("x", 0.0)),
        rosenthal_b=float(check.get("rosenthal_b", 1.0)),
        n_samples=_samples_count(config, check), seed=seed,
        convention=check.get("convention", "linear"),
        se_multiplier=config.se_multiplier)
    return CheckResult(check.get("name", f"convolution_bound_p{p}"),
                       "convolution_bound", res.lhs_pow, res.rhs_pow, res.lhs_pow,
                       res.se_lhs, None, res.passed,
                       {"p": p, "nu_t": res.nu_t, "b_const_pow": res.b_const_pow,
                        "quad_delta": res.quad_delta,
                        "kernel": check.get("kernel", "indicator"),
                        "field": check.get("field", "unit")})


def _run_tail(model, config, check, seed):
    profile = check.get("profile", "gaussian")
    if profile == "gaussian":
        func = lambda x: np.exp(-np.asarray(x) ** 2)
    else:
        raise ConfigError(f"unknown tail profile: {profile!r}")
    mult = _gate(config, check, heavy=True)
    rows = tail_convergence(model, func, check.get("schedule", [1.0, 2.0, 3.0]),
                            float(check.get("k_outer", 8.0)),
                            _samples_count(config, check), seed, mult)
    passed = all(r.passed for r in rows)
    worst = max(abs(r.z) for r in rows)
    return CheckResult(check.get("name", "tail"), "tail", worst,
                       mult, worst, None, worst, passed,
                       {"rows": [{"k": r.k_inner, "var": r.var_estimate,
                                  "theory": r.theory, "z": r.z} for r in rows]})


def _run_derivative_probes(model, config, check, seed):
    F = catalog_functional(check.get("functional", "mixed"))
    n_real = int(check.get("n_realizations", 20))
    window = F.read_window() + 1.0
    probes_x = np.linspace(-window + 0.25, window - 0.25, int(check.get("n_probes_x", 5)))
    zs = [model.atoms[0][0]] if model.is_atomic else [1.0]
    checked = 0
    mismatches = 0
    for i in range(n_real):
        real = sample_prm(model, window, derive_seed(seed, DERIVATIVE_PROBES_STREAM, i))
        for x in probes_x:
            for z in zs:
                d = malliavin_derivative(F, float(x), float(z), model)
                lhs = eval_chaos(real, d)
                rhs = add_one_cost(F, real, float(x), float(z))
                checked += 1
                if lhs != rhs:
                    mismatches += 1
    passed = mismatches == 0
    return CheckResult(check.get("name", "derivative_probes"), "derivative_probes",
                       float(mismatches), 0.0, float(checked), None, None, passed,
                       {"functional": check.get("functional", "mixed"),
                        "probes": checked})


def _run_projection(model, config, check, seed):
    kern = catalog_kernel(check.get("kernel", "k2"))
    y = float(check.get("y", 0.0))
    n = _samples_count(config, check)
    proj = project_kernel(kern, y)
    probe = ClampedNoise(y - 1.0, y, 10.0)
    window = max(max(abs(c.a) for c in kern.cells), max(abs(c.b) for c in kern.cells),
                 abs(y - 1.0), abs(y))
    rng = derive_rng(seed, PROJECTION_STREAM)
    batch = sample_prm_batch(model, window, n, rng)
    ik = eval_multiple_integral(batch, kern)
    iky = eval_multiple_integral(batch, proj)
    mult = _gate(config, check, heavy=True)
    g = probe.eval(batch)
    est, se, z, orth = mc_mean_test((ik - iky) * g, 0.0, mult)
    # projecting cannot increase the second moment
    contraction = (ik ** 2 - iky ** 2)
    c_est, c_se, _, _ = mc_mean_test(contraction, 0.0, mult)
    contracts = c_est >= -mult * c_se
    passed = orth and contracts
    return CheckResult(check.get("name", "projection"), "projection",
                       est, 0.0, est, se, z, passed,
                       {"kernel": check.get("kernel", "k2"), "y": y,
                        "second_moment_drop": c_est, "drop_se": c_se})


def _run_left_zero(model, config, check, seed):
    F = catalog_functional(check.get("functional", "second_chaos_left"))
    y = float(check.get("y", 0.0))
    probes_x = np.linspace(y + 0.1, y + 2.0, int(check.get("n_probes", 8)))
    zs = [model.atoms[0][0]] if model.is_atomic else [1.0]
    bad = 0
    for x in probes_x:
        for z in zs:
            d = malliavin_derivative(F, float(x), float(z), model)
            if d.constant != 0.0 or d.kernels:
                bad += 1
    passed = bad == 0
    return CheckResult(check.get("name", "left_zero"), "left_zero",
                       float(bad), 0.0, float(len(probes_x) * len(zs)),
                       None, None, passed,
                       {"functional": check.get("functional", "second_chaos_left"),
                        "y": y})


def _run_duality(model, config, check, seed):
    F = catalog_functional(check.get("functional", "first_chaos"))
    proc = _resolve_process(check.get("process", "det_step"))
    res = duality_gap(model, F, proc, _samples_count(config, check), seed,
                      _gate(config, check, heavy=True))
    z = res.gap / res.se if res.se > 0 else 0.0
    return CheckResult(check.get("name", "duality"), "duality",
                       res.mean_pairing, res.mean_adjoint, res.gap, res.se, z,
                       res.passed,
                       {"functional": check.get("functional", "first_chaos"),
                        "process": str(check.get("process", "det_step"))})


def _run_chaos_isometry(model, config, check, seed):
    kern = catalog_kernel(check.get("kernel", "k2"))
    n = _samples_count(config, check)
    target = float(chaos_variance(model, kern))
    window = max(max(abs(c.a), abs(c.b)) for c in kern.cells)
    rng = derive_rng(seed, CHAOS_ISOMETRY_STREAM)
    batch = sample_prm_batch(model, window, n, rng)
    vals = eval_multiple_integral(batch, kern)
    est, se, z, passed = mc_mean_test(vals ** 2, target,
                                      _gate(config, check, heavy=kern.order >= 2))
    return CheckResult(check.get("name", f"chaos_isometry_{check.get('kernel', 'k2')}"),
                       "chaos_isometry", est, target, est, se, z, passed,
                       {"kernel": check.get("kernel", "k2"), "order": kern.order})


def _run_chaos_orthogonality(model, config, check, seed):
    k1 = catalog_kernel(check.get("kernel_a", "k1"))
    k2 = catalog_kernel(check.get("kernel_b", "k2"))
    if k1.order == k2.order:
        raise ConfigError("orthogonality check needs kernels of different order")
    n = _samples_count(config, check)
    cells = list(k1.cells) + list(k2.cells)
    window = max(max(abs(c.a), abs(c.b)) for c in cells)
    rng = derive_rng(seed, CHAOS_ORTHOGONALITY_STREAM)
    batch = sample_prm_batch(model, window, n, rng)
    prod = eval_multiple_integral(batch, k1) * eval_multiple_integral(batch, k2)
    est, se, z, passed = mc_mean_test(prod, 0.0,
                                      _gate(config, check, heavy=k1.order + k2.order >= 3))
    return CheckResult(check.get("name", "chaos_orthogonality"), "chaos_orthogonality",
                       est, 0.0, est, se, z, passed,
                       {"kernel_a": check.get("kernel_a", "k1"),
                        "kernel_b": check.get("kernel_b", "k2")})


CHECK_RUNNERS = {
    "partition_count": _run_partition_count,
    "moment_mc": _run_moment_mc,
    "char_gap": _run_char_gap,
    "mean_zero": _run_mean_zero,
    "isometry": _run_isometry,
    "martingale": _run_martingale,
    "linear_moment_bound": _run_linear_moment_bound,
    "interpolation": _run_interpolation,
    "integral_moment_bound": _run_integral_moment_bound,
    "convolution_bound": _run_convolution_bound,
    "tail": _run_tail,
    "derivative_probes": _run_derivative_probes,
    "projection": _run_projection,
    "left_zero": _run_left_zero,
    "duality": _run_duality,
    "chaos_isometry": _run_chaos_isometry,
    "chaos_orthogonality": _run_chaos_orthogonality,
}

BOUND_CHECK_KINDS = ("linear_moment_bound", "integral_moment_bound",
                     "interpolation", "tail")
CONVOLUTION_CHECK_KINDS = ("convolution_bound",)
MALLIAVIN_CHECK_KINDS = ("derivative_probes", "projection", "left_zero",
                         "duality", "chaos_isometry", "chaos_orthogonality")


def run(config: ExperimentConfig, keep_samples: bool = False) -> ExperimentReport:
    """Execute every check of a config on its own derived random stream."""
    model = config.model()
    t0 = time.perf_counter()
    results = []
    for index, check in enumerate(config.checks):
        seed = derive_seed(config.seed, index)
        runner = CHECK_RUNNERS[check["kind"]]
        res = runner(model, config, check, seed)
        if not keep_samples and res.samples is not None:
            res = CheckResult(res.name, res.kind, res.lhs, res.rhs, res.estimate,
                              res.se, res.z, res.passed, res.details, None)
        results.append(res)
    return ExperimentReport(tuple(results), config.seed, __version__,
                            time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "checks": [
            {"name": c.name, "kind": c.kind, "lhs": c.lhs, "rhs": c.rhs,
             "estimate": c.estimate, "se": c.se, "z": c.z, "passed": c.passed,
             "details": _jsonify(c.details)}
            for c in report.checks
        ],
        "environment": {"seed": report.seed, "version": report.version,
                        "wall_time_s": report.wall_time_s},
        "passed": report.passed,
    }


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


def write_report(report: ExperimentReport, fmt: str, path) -> None:
    """Write the report as JSON or CSV with stable field ordering."""
    path = Path(path)
    if fmt == "json":
        path.write_text(report_to_json(report) + "\n")
    elif fmt == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "kind", "lhs", "rhs", "estimate", "se", "z", "passed"])
            for c in report.checks:
                writer.writerow([c.name, c.kind,
                                 *(None if v is None else repr(float(v))
                                   for v in (c.lhs, c.rhs, c.estimate, c.se, c.z)),
                                 c.passed])
    else:
        raise ConfigError(f"unknown report format: {fmt!r}")


def write_samples_csv(report: ExperimentReport, path) -> None:
    """Dump raw Monte Carlo samples of every check that kept them."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "index", "value"])
        for c in report.checks:
            if c.samples is None:
                continue
            for i, v in enumerate(c.samples):
                writer.writerow([c.name, i, repr(float(v))])


# ---------------------------------------------------------------------------
# bundled full verification suite
# ---------------------------------------------------------------------------

def default_verification_config(seed: int = 20_260_809, samples: int = 20_000) -> ExperimentConfig:
    """One check of every kind against the unit-atom measure."""
    checks = [
        {"kind": "partition_count", "p_values": [2, 3, 4, 5, 6, 7, 8]},
        {"kind": "moment_mc", "p": 2, "set": [0.0, 1.0]},
        {"kind": "moment_mc", "p": 4, "set": [0.0, 1.0]},
        {"kind": "char_gap", "set": [0.0, 1.0], "n_theta": 21},
        {"kind": "mean_zero", "process": "clamped_left"},
        {"kind": "isometry", "process": "det_step"},
        {"kind": "isometry", "process": "clamped_left"},
        {"kind": "martingale", "process": "two_block"},
        {"kind": "linear_moment_bound", "p": 4,
         "phi": {"breakpoints": [0.0, 1.0], "values": [1.0]}},
        {"kind": "interpolation", "p": 6},
        {"kind": "integral_moment_bound", "process": "det_step", "p": 4},
        {"kind": "convolution_bound", "kernel": "indicator", "field": "unit", "p": 2},
        {"kind": "tail", "schedule": [1.0, 2.0], "k_outer": 6.0},
        {"kind": "derivative_probes", "functional": "mixed"},
        {"kind": "projection", "kernel": "k2", "y": 0.0},
        {"kind": "left_zero", "functional": "second_chaos_left", "y": 0.0},
        {"kind": "duality", "functional": "first_chaos", "process": "det_step"},
        {"kind": "chaos_isometry", "kernel": "k2"},
        {"kind": "chaos_orthogonality", "kernel_a": "k1", "kernel_b": "k2"},
    ]
    return ExperimentConfig(measure={"atoms": [[1.0, 1.0]]}, window=4.0,
                            samples=samples, seed=seed, se_multiplier=3.0,
                            checks=tuple(checks))
