"""Declarative experiment runner with machine-readable reports.

A configuration names a jump-size measure, a master seed, default
sample counts and a list of checks; :func:`run` executes every check on
its own derived random stream and assembles an :class:`ExperimentReport`
whose JSON serialization is byte-stable given ``(config, seed,
version)`` apart from the wall-time field.

Each check kind is declared once, as a :class:`CheckSpec`; :func:`parse_config`
resolves every check against its declaration before any check runs.

Statistical checks gate on standard-error multiples (default 3, with a
wider default of 4 for heavy-tailed p-th moment targets) because every
target here has a computable Monte Carlo variance; exact checks gate on
equality or the stated relative tolerance.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace
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
    MAX_PARTITION_SIZE,
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
    samples: int
    seed: int
    se_multiplier: float
    checks: tuple[dict, ...]

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.samples < MIN_SAMPLES:
            raise ConfigError(f"sample count must be >= {MIN_SAMPLES}")
        if not 1.0 <= self.se_multiplier < math.inf:
            raise ConfigError("se_multiplier must be finite and >= 1")

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
    """Parse and validate a config, every check included, from a dict,
    JSON string or file path.  A top-level ``window`` key is ignored."""
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
            samples=int(raw.get("samples", 10_000)),
            seed=int(raw.get("seed", 0)),
            se_multiplier=float(raw.get("se_multiplier", 3.0)),
            checks=tuple(raw.get("checks", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    model = cfg.model()
    for check in cfg.checks:
        check_spec(check).resolve(check, cfg, model)
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


def _gate(config: ExperimentConfig, se_multiplier: float | None, heavy: bool = False) -> float:
    """SE multiplier of a check: its own, else 4 for squares/products of chaos
    variables (kurtosis makes the SE estimate itself noisy), else the config's."""
    if se_multiplier is not None:
        return se_multiplier
    return HEAVY_TAIL_SE_MULTIPLIER if heavy else config.se_multiplier


# ---------------------------------------------------------------------------
# check parameters: one parser per name, shared by every kind that takes it
# ---------------------------------------------------------------------------

Labeled = namedtuple("Labeled", "label value")  # a parsed spec and its config spelling


def _integer(raw, lo: int, hi: float = math.inf, even: bool = False) -> int:
    if isinstance(raw, bool) or not (isinstance(raw, int)
                                     or isinstance(raw, float) and raw.is_integer()):
        raise TypeError(f"must be an integer, got {raw!r}")
    if not lo <= raw <= hi or even and raw % 2:
        domain = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise ValueError(f"must be an {'even ' * even}integer {domain}, got {raw!r}")
    return int(raw)


def _real(raw, lo: float = -math.inf, strict: bool = False) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TypeError(f"must be a number, got {raw!r}")
    if not math.isfinite(raw) or raw < lo or strict and raw == lo:
        bound = "" if lo == -math.inf else f" and {'>' if strict else '>='} {lo}"
        raise ValueError(f"must be finite{bound}, got {raw!r}")
    return float(raw)


def _nonempty(items: tuple) -> tuple:
    if not items:
        raise ValueError("must be a non-empty list")
    return items


def _interval(raw, config) -> tuple[float, float]:
    a, b = (_real(v) for v in raw)
    if not a < b:
        raise ValueError(f"must be [a, b] with a < b, got {raw!r}")
    return a, b


def _choice(options: dict):
    """Parser of a name from a fixed catalog, to its entry."""
    def parse(raw, config):
        if not isinstance(raw, str) or raw not in options:
            raise ValueError(f"must be one of {', '.join(options)}, got {raw!r}")
        return options[raw]
    return parse


def _process(raw, config) -> Labeled:
    try:
        return Labeled(str(raw), catalog_process(raw) if isinstance(raw, str)
                       else process_from_config(raw))
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError("must be a catalog process or an inline one with breakpoints "
                         f"and coefficients, got {raw!r}") from exc


def step_function_from_config(spec) -> StepFunction:
    """Build ``{"breakpoints": [...], "values": [...]}``; ConfigError if malformed."""
    try:
        return StepFunction(tuple(float(b) for b in spec["breakpoints"]),
                            tuple(float(v) for v in spec["values"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad step function {spec!r}: {exc}") from exc


_PARSERS = {
    "p": lambda v, _: _integer(v, 2, MAX_PARTITION_SIZE),
    "p_values": lambda v, _: _nonempty(tuple(_integer(p, 2, MAX_PARTITION_SIZE) for p in v)),
    "set": _interval,
    "samples": lambda v, config: config.samples if v is None else _integer(v, MIN_SAMPLES),
    "se_multiplier": lambda v, _: None if v is None else _real(v, 1.0),
    "process": _process,
    **dict.fromkeys(("kernel", "kernel_a", "kernel_b"),
                    lambda v, _: Labeled(str(v), catalog_kernel(v))),
    "functional": lambda v, _: Labeled(str(v), catalog_functional(v)),
    "field": _choice({
        "unit": DeterministicField(lambda s, y: np.ones(np.broadcast(s, y).shape), "unit"),
        "cosine": DeterministicField(lambda s, y: np.cos(s) * np.ones_like(y), "cosine"),
        "separable_clamped": SeparableField(lambda s: np.ones_like(np.asarray(s, dtype=float)),
                                            catalog_process("clamped_left", clip=4.0),
                                            "separable_clamped")}),
    "phi": lambda v, _: step_function_from_config(v),
    "convention": _choice({"linear": "linear", "power": "power"}),
    "profile": _choice({"gaussian": lambda x: np.exp(-np.asarray(x) ** 2)}),
    "schedule": lambda v, _: _nonempty(tuple(_real(k, 0.0) for k in v)),
    **dict.fromkeys(("x", "y"), lambda v, _: _real(v)),
    **dict.fromkeys(("t", "probe_width", "k_outer", "rosenthal_b"),
                    lambda v, _: _real(v, 0.0, strict=True)),
    **dict.fromkeys(("theta_max", "threshold_scale"), lambda v, _: _real(v, 0.0)),
    **dict.fromkeys(("n_theta", "n_probes", "n_probes_x", "n_realizations"),
                    lambda v, _: _integer(v, 1)),
}
# p of the moment bounds, whose constant sums over partitions of p
_EVEN_P = lambda v, _: _integer(v, 2, MAX_PARTITION_SIZE, even=True)


def _schedule_inside_window(schedule, k_outer, **_) -> None:
    if max(schedule) >= k_outer:
        raise ConfigError(f"tail: schedule entries must be < k_outer = {k_outer}, "
                          f"got {max(schedule)}")


def _orders_differ(kernel_a, kernel_b, **_) -> None:
    if kernel_a.value.order == kernel_b.value.order:
        raise ConfigError(f"chaos_orthogonality: kernel_a {kernel_a.label!r} and kernel_b "
                          f"{kernel_b.label!r} have the same order {kernel_a.value.order}")


def _field_meets_kernel(kernel, field, p, x, **_) -> None:
    if kernel.name == "heat" and p != 2:
        raise ConfigError(f"convolution_bound: p = {p}, but the heat kernel's p-th power "
                          "integral is finite only for p = 2")
    lo, hi = field.space.support if isinstance(field, SeparableField) else (-math.inf, math.inf)
    y_lo, y_hi = x - kernel.x_hi, x - kernel.x_lo
    if max(lo, y_lo) >= min(hi, y_hi):
        raise ConfigError(f"convolution_bound: field {field.name!r} on ({lo}, {hi}] misses "
                          f"the y-range [{y_lo}, {y_hi}] the kernel reads at x = {x}")


class CheckSpec:
    """One check kind: its runner, CLI family, measure needs and parameters.

    The runner's keyword-only arguments are the parameters, with defaults
    spelled as in a config (``samples=None``: the config's count);
    ``parsers`` overrides a name's shared parser for this kind.
    """

    def __init__(self, runner, family: str | None = None, atomic_only: bool = False,
                 validate=None, **parsers):
        self.kind = runner.__name__.removeprefix("_run_")
        self.runner, self.family = runner, family
        self.atomic_only, self.validate = atomic_only, validate
        self.params = {name: (arg.default, parsers.get(name, _PARSERS[name]))
                       for name, arg in inspect.signature(runner).parameters.items()
                       if arg.kind is arg.KEYWORD_ONLY}

    def resolve(self, check: dict, config: ExperimentConfig,
                model: LevyMeasureModel) -> tuple[str | None, dict]:
        """``(name, parameters)`` of a raw check; ConfigError if malformed."""
        if self.atomic_only and not model.is_atomic:
            raise ConfigError(f"{self.kind} needs an atomic measure: its kernels mark atoms")
        for key in check:
            if key not in self.params and key not in ("kind", "name"):
                raise ConfigError(f"{self.kind}: unknown parameter {key!r}; "
                                  f"it takes {', '.join(self.params)}")
        values = {}
        for key, (default, parse) in self.params.items():
            raw = check.get(key, default)
            if raw is inspect.Parameter.empty:
                raise ConfigError(f"{self.kind}: {key} is required")
            try:
                values[key] = parse(raw, config)
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                reason = exc.args[0] if isinstance(exc, KeyError) else exc
                raise ConfigError(f"{self.kind}: {key}: {reason}") from exc
        if self.validate:
            self.validate(**values)
        return check.get("name"), values

    def __call__(self, model: LevyMeasureModel, config: ExperimentConfig, check: dict,
                 seed: int) -> CheckResult:
        name, params = self.resolve(check, config, model)
        res = self.runner(model, config, seed, **params)
        return res if name is None else replace(res, name=name)


def check_spec(check) -> CheckSpec:
    """The declaration of a raw check's kind."""
    if not isinstance(check, dict):
        raise ConfigError(f"a check must be an object, got {check!r}")
    kind = check.get("kind")
    if not isinstance(kind, str) or kind not in CHECK_RUNNERS:
        raise UnknownCheckError(f"unknown check kind: {kind!r}")
    return CHECK_RUNNERS[kind]


# ---------------------------------------------------------------------------
# check runners: each consumes (model, config, seed, *, parameters) -> CheckResult
# ---------------------------------------------------------------------------

def _run_partition_count(model, config, seed, *, p_values=(2, 3, 4, 5, 6, 7, 8)):
    counts = {str(p): count_no_singleton_partitions(p) for p in p_values}
    oracle = {str(p): sum(1 for part in all_partitions(p) if all(len(b) >= 2 for b in part))
              for p in p_values}
    return CheckResult("partition_count", "partition_count", None, None, None, None, None,
                       counts == oracle, {"counts": counts, "oracle": oracle})


def _run_moment_mc(model, config, seed, *, p, set=(0.0, 1.0), samples=None,
                   se_multiplier=None):
    a, b = set
    target = float(moment_of_step_functional(model, StepFunction.indicator(a, b), p))
    values = sample_L_interval(model, b - a, samples, derive_rng(seed, MOMENT_MC_STREAM)) ** p
    est, se, z, passed = mc_mean_test(values, target, _gate(config, se_multiplier, p >= 4))
    return CheckResult(f"moment_mc_p{p}", "moment_mc", est, target, est, se, z, passed,
                       {"p": p, "set": [a, b], "samples_used": samples}, values)


def _run_char_gap(model, config, seed, *, set=(0.0, 1.0), samples=None, n_theta=41,
                  theta_max=math.pi, threshold_scale=5.0):
    thetas = np.linspace(-theta_max, theta_max, n_theta)
    gap = char_function_gap(model, set, thetas, samples, seed).sup_gap
    threshold = threshold_scale / math.sqrt(samples)
    return CheckResult("char_gap", "char_gap", gap, threshold, gap, None, None,
                       gap < threshold,
                       {"n_theta": n_theta, "theta_max": theta_max, "samples_used": samples})


def _run_mean_zero(model, config, seed, *, process="det_step", samples=None):
    proc = process.value
    batch = sample_prm_batch(model, proc.read_window(), samples,
                             derive_rng(seed, MEAN_ZERO_STREAM))
    values = eval_I_K(batch, proc)
    est, se, z, passed = mc_mean_test(values, 0.0, config.se_multiplier)
    return CheckResult("mean_zero", "mean_zero", est, 0.0, est, se, z, passed,
                       {"process": process.label}, values)


def _run_isometry(model, config, seed, *, process="det_step", samples=None,
                  se_multiplier=None):
    proc = process.value
    batch = sample_prm_batch(model, proc.read_window(), samples,
                             derive_rng(seed, ISOMETRY_STREAM))
    ivals = eval_I_K(batch, proc)
    q2 = square_integral(proc, batch)
    m2 = float(abs_moment(model, 2))
    paired = ivals ** 2 - m2 * q2
    est, se, z, passed = mc_mean_test(paired, 0.0, _gate(config, se_multiplier, heavy=True))
    return CheckResult("isometry", "isometry",
                       float((ivals ** 2).mean()), float(m2 * q2.mean()),
                       est, se, z, passed, {"process": process.label}, paired)


def _run_martingale(model, config, seed, *, process="two_block", samples=None,
                    probe_width=1.0, se_multiplier=None):
    proc = process.value
    mult = _gate(config, se_multiplier, heavy=True)
    window = max(proc.read_window(), *(abs(bp - probe_width) for bp in proc.breakpoints))
    batch = sample_prm_batch(model, window, samples, derive_rng(seed, MARTINGALE_STREAM))
    zs = []
    for (a, b), coef in zip(proc.cells, proc.coefficients):
        probe = ClampedNoise(a - probe_width, a, 10.0)
        increment = coef.eval(batch) * eval_L_set(batch, [(a, b)])
        _, _, z, _ = mc_mean_test(increment * probe.eval(batch), 0.0, mult)
        zs.append(z)
    worst = max(abs(z) for z in zs)
    return CheckResult("martingale", "martingale", worst, mult, worst, None, worst,
                       worst <= mult, {"per_cell_z": [float(z) for z in zs]})


def _run_linear_moment_bound(model, config, seed, *, p,
                             phi={"breakpoints": [0.0, 1.0], "values": [1.0]}):
    res = check_linear_moment_bound(model, phi, p)
    return CheckResult(f"linear_moment_bound_p{p}", "linear_moment_bound",
                       float(res.exact_moment), float(res.rhs), None, None, None,
                       res.passed, {"p": p, "partition_count": res.partition_count,
                                    "ratio": res.ratio})


def _run_interpolation(model, config, seed, *, p=6):
    rows = interpolation_check(model, p)
    return CheckResult(f"interpolation_p{p}", "interpolation",
                       None, None, None, None, None, all(r.passed for r in rows),
                       {"rows": [{"r": r.r, "value": r.value, "bound": r.bound,
                                  "equality": r.equality} for r in rows]})


def _run_integral_moment_bound(model, config, seed, *, process="det_step", p=4,
                               rosenthal_b=1.0, samples=None, convention="linear"):
    res = check_integral_moment_bound(
        model, process.value, p, rosenthal_b=rosenthal_b, n_samples=samples, seed=seed,
        convention=convention, se_multiplier=config.se_multiplier)
    return CheckResult(f"integral_bound_p{p}", "integral_moment_bound",
                       res.lhs, res.rhs, res.lhs, res.se_lhs_pow, None, res.passed,
                       {"p": p, "constant": res.constant, "convention": res.convention,
                        "process": process.label})


def _run_convolution_bound(model, config, seed, *, kernel="indicator", field="unit", p=2,
                           t=1.0, x=0.0, rosenthal_b=1.0, samples=None,
                           convention="linear"):
    res = check_convolution_moment_bound(
        model, kernel, field, p, t=t, x=x, rosenthal_b=rosenthal_b, n_samples=samples,
        seed=seed, convention=convention, se_multiplier=config.se_multiplier)
    return CheckResult(f"convolution_bound_p{p}", "convolution_bound",
                       res.lhs_pow, res.rhs_pow, res.lhs_pow, res.se_lhs, None, res.passed,
                       {"p": p, "nu_t": res.nu_t, "b_const_pow": res.b_const_pow,
                        "quad_delta": res.quad_delta,
                        "kernel": kernel.name, "field": field.name})


def _run_tail(model, config, seed, *, profile="gaussian", schedule=(1.0, 2.0, 3.0),
              k_outer=8.0, samples=None, se_multiplier=None):
    mult = _gate(config, se_multiplier, heavy=True)
    rows = tail_convergence(model, profile, schedule, k_outer, samples, seed, mult)
    worst = max(abs(r.z) for r in rows)
    return CheckResult("tail", "tail", worst, mult, worst, None, worst,
                       all(r.passed for r in rows),
                       {"rows": [{"k": r.k_inner, "var": r.var_estimate,
                                  "theory": r.theory, "z": r.z} for r in rows]})


def _run_derivative_probes(model, config, seed, *, functional="mixed", n_realizations=20,
                           n_probes_x=5):
    F = functional.value
    window = F.read_window() + 1.0
    probes_x = np.linspace(-window + 0.25, window - 0.25, n_probes_x)
    z = float(model.atoms[0][0])
    mismatches = 0
    for i in range(n_realizations):
        real = sample_prm(model, window, derive_seed(seed, DERIVATIVE_PROBES_STREAM, i))
        for x in probes_x:
            d = malliavin_derivative(F, float(x), z, model)
            mismatches += eval_chaos(real, d) != add_one_cost(F, real, float(x), z)
    checked = n_realizations * n_probes_x
    return CheckResult("derivative_probes", "derivative_probes",
                       float(mismatches), 0.0, float(checked), None, None, mismatches == 0,
                       {"functional": functional.label, "probes": checked})


def _run_projection(model, config, seed, *, kernel="k2", y=0.0, samples=None,
                    se_multiplier=None):
    kern = kernel.value
    proj = project_kernel(kern, y)
    probe = ClampedNoise(y - 1.0, y, 10.0)
    window = max(abs(y - 1.0), abs(y), *(max(abs(c.a), abs(c.b)) for c in kern.cells))
    batch = sample_prm_batch(model, window, samples, derive_rng(seed, PROJECTION_STREAM))
    ik = eval_multiple_integral(batch, kern)
    iky = eval_multiple_integral(batch, proj)
    mult = _gate(config, se_multiplier, heavy=True)
    est, se, z, orth = mc_mean_test((ik - iky) * probe.eval(batch), 0.0, mult)
    # projecting cannot increase the second moment
    c_est, c_se, _, _ = mc_mean_test(ik ** 2 - iky ** 2, 0.0, mult)
    contracts = c_est >= -mult * c_se
    return CheckResult("projection", "projection", est, 0.0, est, se, z, orth and contracts,
                       {"kernel": kernel.label, "y": y,
                        "second_moment_drop": c_est, "drop_se": c_se})


def _run_left_zero(model, config, seed, *, functional="second_chaos_left", y=0.0,
                   n_probes=8):
    probes_x = np.linspace(y + 0.1, y + 2.0, n_probes)
    z = float(model.atoms[0][0]) if model.is_atomic else 1.0
    derivatives = [malliavin_derivative(functional.value, float(x), z, model) for x in probes_x]
    bad = sum(1 for d in derivatives if d.constant != 0.0 or d.kernels)
    return CheckResult("left_zero", "left_zero", float(bad), 0.0, float(len(probes_x)),
                       None, None, bad == 0, {"functional": functional.label, "y": y})


def _run_duality(model, config, seed, *, functional="first_chaos", process="det_step",
                 samples=None, se_multiplier=None):
    res = duality_gap(model, functional.value, process.value, samples, seed,
                      _gate(config, se_multiplier, heavy=True))
    z = res.gap / res.se if res.se > 0 else 0.0
    return CheckResult("duality", "duality",
                       res.mean_pairing, res.mean_adjoint, res.gap, res.se, z, res.passed,
                       {"functional": functional.label, "process": process.label})


def _run_chaos_isometry(model, config, seed, *, kernel="k2", samples=None,
                        se_multiplier=None):
    kern = kernel.value
    target = float(chaos_variance(model, kern))
    window = max(max(abs(c.a), abs(c.b)) for c in kern.cells)
    batch = sample_prm_batch(model, window, samples, derive_rng(seed, CHAOS_ISOMETRY_STREAM))
    vals = eval_multiple_integral(batch, kern)
    est, se, z, passed = mc_mean_test(vals ** 2, target,
                                      _gate(config, se_multiplier, heavy=kern.order >= 2))
    return CheckResult(f"chaos_isometry_{kernel.label}", "chaos_isometry",
                       est, target, est, se, z, passed,
                       {"kernel": kernel.label, "order": kern.order})


def _run_chaos_orthogonality(model, config, seed, *, kernel_a="k1", kernel_b="k2",
                             samples=None, se_multiplier=None):
    k1, k2 = kernel_a.value, kernel_b.value
    window = max(max(abs(c.a), abs(c.b)) for c in k1.cells + k2.cells)
    batch = sample_prm_batch(model, window, samples,
                             derive_rng(seed, CHAOS_ORTHOGONALITY_STREAM))
    prod = eval_multiple_integral(batch, k1) * eval_multiple_integral(batch, k2)
    est, se, z, passed = mc_mean_test(prod, 0.0, _gate(config, se_multiplier,
                                                        heavy=k1.order + k2.order >= 3))
    return CheckResult("chaos_orthogonality", "chaos_orthogonality",
                       est, 0.0, est, se, z, passed,
                       {"kernel_a": kernel_a.label, "kernel_b": kernel_b.label})


# family: the CLI subcommand that runs the kind besides ``report``
CHECK_RUNNERS = {spec.kind: spec for spec in (
    CheckSpec(_run_partition_count),
    CheckSpec(_run_moment_mc),
    CheckSpec(_run_char_gap),
    CheckSpec(_run_mean_zero),
    CheckSpec(_run_isometry),
    CheckSpec(_run_martingale),
    CheckSpec(_run_linear_moment_bound, "verify-bounds", p=_EVEN_P),
    CheckSpec(_run_interpolation, "verify-bounds", p=lambda v, _: _integer(v, 2, even=True)),
    CheckSpec(_run_integral_moment_bound, "verify-bounds", p=_EVEN_P),
    CheckSpec(_run_tail, "verify-bounds", validate=_schedule_inside_window),
    CheckSpec(_run_convolution_bound, "convolution", validate=_field_meets_kernel, p=_EVEN_P,
              kernel=_choice({"indicator": indicator_kernel(), "heat": heat_kernel()})),
    CheckSpec(_run_derivative_probes, "malliavin-check", atomic_only=True),
    CheckSpec(_run_projection, "malliavin-check", atomic_only=True),
    CheckSpec(_run_left_zero, "malliavin-check"),
    CheckSpec(_run_duality, "malliavin-check", atomic_only=True),
    CheckSpec(_run_chaos_isometry, "malliavin-check", atomic_only=True),
    CheckSpec(_run_chaos_orthogonality, "malliavin-check", atomic_only=True,
              validate=_orders_differ),
)}


def run(config: ExperimentConfig, keep_samples: bool = False) -> ExperimentReport:
    """Execute every check of a config on its own derived random stream."""
    model = config.model()
    t0 = time.perf_counter()
    results = []
    for index, check in enumerate(config.checks):
        seed = derive_seed(config.seed, index)
        res = check_spec(check)(model, config, check, seed)
        if not keep_samples and res.samples is not None:
            res = replace(res, samples=None)
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
    return ExperimentConfig(measure={"atoms": [[1.0, 1.0]]}, samples=samples, seed=seed,
                            se_multiplier=3.0, checks=tuple(checks))
