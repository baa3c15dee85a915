"""Declarative experiment runner with machine-readable reports.

A configuration names a jump-size measure, a master seed, a default
sample count and SE multiplier, and a list of checks; :func:`run`
executes every check on its own stream derived from ``(seed, check
index)`` and assembles an :class:`ExperimentReport` whose JSON
serialization is byte-stable given the config and the package version,
apart from the wall-time field.

Each check kind is declared once, as a :class:`CheckSpec`; :func:`parse_config`
resolves every check against its declaration before any check runs.

A check's verdict is the conjunction of its :class:`~levynoise.gate.Gate`
records; exact gates compare ``Fraction`` values with no margin, or
floats at a relative tolerance of 1e-12.  A Monte Carlo check is its
:class:`~levynoise.prm.Plan`: declared draws (:class:`~levynoise.prm.Draw`:
stream, seed, window, named per-realization arrays), which
:func:`parse_config` checks against the sampler's point cap before any
check runs, and a function of their reduced means and standard errors.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .chaos import (
    add_one_cost,
    catalog_functional,
    catalog_kernel,
    chaos_variance,
    duality_plan,
    eval_chaos,
    eval_multiple_integral,
    malliavin_derivative,
    project_kernel,
)
from .coefficients import ClampedNoise
from .convolution import (
    DeterministicField,
    SeparableField,
    convolution_bound_plan,
    heat_kernel,
    indicator_kernel,
)
from .errors import ConfigError, DegenerateVarianceError, UnknownCheckError
from .gate import Gate, mean_se
from .integral import check_linear_moment_bound, integral_bound_plan, tail_plan
from .measure import (
    LevyMeasureModel,
    abs_moment,
    finite_moment,
    interpolation_check,
    validate_measure,
)
from .partitions import (
    MAX_MOMENT_ORDER,
    MAX_PARTITION_SIZE,
    _count_partitions,
    count_no_singleton_partitions,
    moment_of_step_functional,
)
from .prm import Draw, Estimates, MeanTest, Plan, char_gap_plan, eval_L_set
from .processes import (
    StepFunction,
    catalog_process,
    eval_I_K,
    process_from_config,
    square_integral,
)
from .rng import (
    CHAOS_ISOMETRY_STREAM,
    CHAOS_ORTHOGONALITY_STREAM,
    DERIVATIVE_PROBES_STREAM,
    ISOMETRY_STREAM,
    MARTINGALE_STREAM,
    MEAN_ZERO_STREAM,
    MOMENT_MC_STREAM,
    PROJECTION_STREAM,
    derive_seed,
)
from .schema import integer, number

MIN_SAMPLES = 1_000
# Probes of one check (n_theta, n_probes, n_probes_x): each is an array entry and
# at least one evaluation, and the theta grid is built when the config is checked.
MAX_PROBES = 1 << 16


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
    gates: tuple[Gate, ...]
    details: dict = field(default_factory=dict)
    samples: np.ndarray | None = None

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates)

    @property
    def estimate(self):
        """The first gate's statistic (the probes checked, when they all agree)."""
        return self.gates[0].statistic


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
    raw = source
    if isinstance(source, (str, Path)):
        try:
            if isinstance(source, str) and source.lstrip().startswith("{"):
                raw = json.loads(source)
            else:
                raw = json.loads(Path(source).read_text())
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an int of 4300+ digits
            raise ConfigError(f"cannot parse config: {exc}") from exc
    if not isinstance(raw, dict) or "measure" not in raw:
        raise ConfigError("a config must be an object with a measure")
    keys = ("measure", "samples", "seed", "se_multiplier", "checks", "window")
    unknown = [key for key in raw if key not in keys]
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown}; a config takes {', '.join(keys)}")
    if not isinstance(raw.get("checks", []), list):
        raise ConfigError(f"checks must be a list of check objects, got {raw['checks']!r}")
    values = {}
    # types only: the domains are ExperimentConfig's, which CLI overrides pass too
    for key, default, parse in (("samples", 10_000, integer), ("seed", 0, integer),
                                ("se_multiplier", 3.0, number)):
        try:
            values[key] = parse(raw.get(key, default), -math.inf)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return check_config(ExperimentConfig(raw["measure"], checks=tuple(raw.get("checks", [])),
                                         **values))


def check_config(config: ExperimentConfig) -> ExperimentConfig:
    """Resolve every check of a config, and hold each draw of a sampling check's
    plan against the sampler's point cap, before any check runs."""
    model = config.model()
    for check in config.checks:
        spec = check_spec(check)
        _, params = spec.resolve(check, config, model)
        for draw in spec.runner(model, config, 0, **params).draws if spec.plans else ():
            draw.check_points(model, f"{spec.kind}: a draw")
    return config


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
    (gate,) = Estimates({"mean": mean_se(samples)}, None).gates(
        (MeanTest("mean", "mean", target),), se_multiplier)
    if not gate.se and not gate.passed:
        raise DegenerateVarianceError(f"all samples equal {gate.statistic} but target is {target}")
    z = (gate.statistic - target) / gate.se if gate.se else 0.0
    return gate.statistic, gate.se, z, gate.passed


# ---------------------------------------------------------------------------
# check parameters: one parser per name, shared by every kind that takes it
# ---------------------------------------------------------------------------

Labeled = namedtuple("Labeled", "label value")  # a parsed spec and its config spelling


def _nonempty(items: tuple) -> tuple:
    if not items:
        raise ValueError("must be a non-empty list")
    return items


def _interval(raw, config) -> tuple[float, float]:
    a, b = (number(v) for v in raw)
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


def _gaussian(x):
    """``exp(-x**2)``; past ``|x| = 1.3e154`` the square overflows to inf, whose exp is 0.0."""
    with np.errstate(over="ignore"):
        return np.exp(-np.asarray(x) ** 2)


def _process(raw, config) -> Labeled:
    try:
        return Labeled(str(raw), catalog_process(raw) if isinstance(raw, str)
                       else process_from_config(raw))
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError("must be a catalog process or an inline one with breakpoints "
                         f"and coefficients, got {raw!r} ({exc})") from exc


def step_function_from_config(spec) -> StepFunction:
    """Build ``{"breakpoints": [...], "values": [...]}``; ConfigError if malformed."""
    try:
        return StepFunction(tuple(number(b) for b in spec["breakpoints"]),
                            tuple(number(v) for v in spec["values"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad step function {spec!r}: {exc}") from exc


_PARSERS = {
    "p": lambda v, _: integer(v, 2, MAX_MOMENT_ORDER),
    "p_values": lambda v, _: _nonempty(tuple(integer(p, 2, MAX_PARTITION_SIZE) for p in v)),
    "set": _interval,
    "samples": lambda v, config: config.samples if v is None else integer(v, MIN_SAMPLES),
    "se_multiplier": lambda v, _: None if v is None else number(v, 1.0),
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
    "profile": _choice({"gaussian": _gaussian}),
    "schedule": lambda v, _: _nonempty(tuple(number(k, 0.0) for k in v)),
    **dict.fromkeys(("x", "y"), lambda v, _: number(v)),
    **dict.fromkeys(("t", "probe_width", "k_outer", "rosenthal_b"),
                    lambda v, _: number(v, 0.0, strict=True)),
    **dict.fromkeys(("theta_max", "threshold_scale"), lambda v, _: number(v, 0.0)),
    **dict.fromkeys(("n_theta", "n_probes", "n_probes_x"), lambda v, _: integer(v, 1, MAX_PROBES)),
    "n_realizations": lambda v, _: integer(v, 1),
}
# p of the moment bounds: even, and at most the moment engine's order cap
_EVEN_P = lambda v, _: integer(v, 2, MAX_MOMENT_ORDER, even=True)


def _schedule_inside_window(schedule, k_outer, **_) -> None:
    if max(schedule) >= k_outer:
        raise ConfigError(f"tail: schedule entries must be < k_outer = {k_outer}, "
                          f"got {max(schedule)}")


def _theta_grid_finite(theta_max, model, set, **_) -> None:
    # the grid's span 2 theta_max, and theta z at the largest |z|, in the float range
    reach = max(abs(z) for z, _ in model.atoms) if model.is_atomic else model.density.z_max
    if not (2.0 * theta_max < math.inf and theta_max * reach < math.inf):
        raise ConfigError(f"char_gap: theta_max: {theta_max} puts the theta grid or theta * z "
                          f"past the float range (largest |z| {reach})")
    # so is |A| psi(theta), whose imaginary part is at most theta |A| m_1; at theta_max = 0
    # the bound is 0 * inf = NaN for an unbounded A, whose draw the point cap refuses
    length, m1 = set[1] - set[0], float(abs_moment(model, 1))
    if theta_max * length * m1 == math.inf:
        raise ConfigError(f"char_gap: theta_max: {theta_max} times |A| = {length} times "
                          f"m_1 = {m1} puts |A| psi(theta) past the float range")


def _probe_left_of_y(y, **_) -> None:
    if not y - 1.0 < y:  # past 2**53 the probe's interval (y - 1, y] is empty in floats
        raise ConfigError(f"projection: y = {y} leaves its probe (y - 1, y] empty")


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
    ``parsers`` overrides a name's shared parser for this kind.  A runner
    that takes a ``seed`` samples, and returns its check as a
    :class:`~levynoise.prm.Plan`; any other returns its :class:`CheckResult`.
    """

    def __init__(self, runner, family: str | None = None, atomic_only: bool = False,
                 validate=None, **parsers):
        self.kind = runner.__name__.removeprefix("_run_")
        self.runner, self.family = runner, family
        self.atomic_only, self.validate = atomic_only, validate
        args = inspect.signature(runner).parameters
        self.plans = "seed" in args
        self.params = {name: (arg.default, parsers.get(name, _PARSERS[name]))
                       for name, arg in args.items() if arg.kind is arg.KEYWORD_ONLY}

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
            self.validate(model=model, **values)
        return check.get("name"), values

    def __call__(self, model: LevyMeasureModel, config: ExperimentConfig, check: dict,
                 seed: int) -> CheckResult:
        name, params = self.resolve(check, config, model)
        res = (self.runner(model, config, seed, **params).run(model) if self.plans
               else self.runner(model, config, **params))
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
# check runners: each consumes (model, config, seed, *, parameters) and returns its
# Plan, or, drawing nothing, (model, config, *, parameters) and its CheckResult
# ---------------------------------------------------------------------------

def _run_partition_count(model, config, *, p_values=(2, 3, 4, 5, 6, 7, 8)):
    counts = {str(p): count_no_singleton_partitions(p) for p in p_values}
    gates = tuple(Gate(f"p={p}", counts[str(p)], _count_partitions(p, 2))
                  for p in p_values)
    return CheckResult("partition_count", "partition_count", gates, {"counts": counts})


def _run_moment_mc(model, config, seed, *, p, set=(0.0, 1.0), samples=None,
                   se_multiplier=None):
    a, b = set
    target = finite_moment(moment_of_step_functional(model, StepFunction.indicator(a, b), p),
                           p, "E[L^p]")
    draw = Draw(MOMENT_MC_STREAM, seed, samples, lambda values: {"L^p": values ** p},
                length=b - a, keep="L^p")
    test = MeanTest(f"E[L^{p}]", "L^p", target, heavy=p >= 4)
    return Plan((draw,), lambda est: CheckResult(
        f"moment_mc_p{p}", "moment_mc", est.gates((test,), se_multiplier, config.se_multiplier),
        {"p": p, "set": [a, b], "samples_used": samples}, est.samples))


def _run_char_gap(model, config, seed, *, set=(0.0, 1.0), samples=None, n_theta=41,
                  theta_max=math.pi, threshold_scale=5.0):
    thetas = np.linspace(-theta_max, theta_max, n_theta)
    return char_gap_plan(model, set, thetas, samples, seed).then(lambda res: CheckResult(
        "char_gap", "char_gap",
        (Gate("sup gap", res.sup_gap, threshold_scale / math.sqrt(samples), "upper"),),
        {"n_theta": n_theta, "theta_max": theta_max, "samples_used": samples}))


def _run_mean_zero(model, config, seed, *, process="det_step", samples=None):
    proc = process.value
    draw = Draw(MEAN_ZERO_STREAM, seed, samples, lambda batch: {"I": eval_I_K(batch, proc)},
                proc.read_window(), keep="I")
    test = MeanTest("E[I]", "I", 0.0)
    return Plan((draw,), lambda est: CheckResult(
        "mean_zero", "mean_zero", est.gates((test,), None, config.se_multiplier),
        {"process": process.label}, est.samples))


def _run_isometry(model, config, seed, *, process="det_step", samples=None,
                  se_multiplier=None):
    proc, m2 = process.value, float(abs_moment(model, 2))

    def arrays(batch):
        square, q2 = eval_I_K(batch, proc) ** 2, square_integral(proc, batch)
        return {"paired": square - m2 * q2, "square": square, "q2": q2}
    draw = Draw(ISOMETRY_STREAM, seed, samples, arrays, proc.read_window(), keep="paired")
    test = MeanTest("E[I^2 - m2 int X^2]", "paired", 0.0, heavy=True)
    return Plan((draw,), lambda est: CheckResult(
        "isometry", "isometry", est.gates((test,), se_multiplier, config.se_multiplier),
        {"process": process.label, "mean_square": est.stats["square"][0],
         "mean_compensator": m2 * est.stats["q2"][0]}, est.samples))


def _run_martingale(model, config, seed, *, process="two_block", samples=None,
                    probe_width=1.0, se_multiplier=None):
    proc = process.value
    window = max(proc.read_window(), *(abs(bp - probe_width) for bp in proc.breakpoints))
    cells = {f"cell ({a}, {b}]": (a, b, coef)
             for (a, b), coef in zip(proc.cells, proc.coefficients)}
    arrays = lambda batch: {  # the increment on each cell times a probe of its past
        label: coef.eval(batch) * eval_L_set(batch, [(a, b)])
        * ClampedNoise(a - probe_width, a, 10.0).eval(batch)
        for label, (a, b, coef) in cells.items()}
    tests = tuple(MeanTest(label, label, 0.0, heavy=True) for label in cells)
    return Plan((Draw(MARTINGALE_STREAM, seed, samples, arrays, window),), lambda est: CheckResult(
        "martingale", "martingale", est.gates(tests, se_multiplier, config.se_multiplier)))


def _run_linear_moment_bound(model, config, *, p,
                             phi={"breakpoints": [0.0, 1.0], "values": [1.0]}):
    res = check_linear_moment_bound(model, phi, p)
    return CheckResult(f"linear_moment_bound_p{p}", "linear_moment_bound", (res.gate,),
                       {"p": p, "partition_count": res.partition_count, "ratio": res.ratio})


def _run_interpolation(model, config, *, p=6):
    rows = interpolation_check(model, p)
    return CheckResult(f"interpolation_p{p}", "interpolation", tuple(r.gate for r in rows),
                       {"rows": [{"r": r.r, "value": r.value, "bound": r.bound,
                                  "equality": r.equality} for r in rows]})


def _run_integral_moment_bound(model, config, seed, *, process="det_step", p=4,
                               rosenthal_b=1.0, samples=None, convention="linear"):
    return integral_bound_plan(model, process.value, p, rosenthal_b, samples, seed, convention,
                               config.se_multiplier).then(lambda res: CheckResult(
        f"integral_bound_p{p}", "integral_moment_bound", (res.gate,),
        {"p": p, "constant": res.constant, "convention": res.convention,
         "process": process.label, "p_norm": res.lhs, "p_norm_bound": res.rhs}))


def _run_convolution_bound(model, config, seed, *, kernel="indicator", field="unit", p=2,
                           t=1.0, x=0.0, rosenthal_b=1.0, samples=None,
                           convention="linear"):
    return convolution_bound_plan(model, kernel, field, p, t, x, rosenthal_b, samples, seed,
                                  convention, config.se_multiplier).then(lambda res: CheckResult(
        f"convolution_bound_p{p}", "convolution_bound", (res.gate,),
        {"p": p, "nu_t": res.nu_t, "b_const_pow": res.b_const_pow,
         "quad_delta": res.quad_delta, "kernel": kernel.name, "field": field.name}))


def _run_tail(model, config, seed, *, profile="gaussian", schedule=(1.0, 2.0, 3.0),
              k_outer=8.0, samples=None, se_multiplier=None):
    return tail_plan(model, profile, schedule, k_outer, samples, seed,
                     se_multiplier).then(lambda rows: CheckResult(
        "tail", "tail", tuple(r.gate for r in rows), {"rows": [{"k": r.k_inner} for r in rows]}))


def _run_derivative_probes(model, config, seed, *, functional="mixed", n_realizations=20,
                           n_probes_x=5):
    F = functional.value
    window = F.read_window() + 1.0
    z = float(model.atoms[0][0])

    def arrays(batch):  # per exact realization, the probes agreeing with the add-one cost
        probes = [(float(x), malliavin_derivative(F, float(x), z, model))
                  for x in np.linspace(-window + 0.25, window - 0.25, n_probes_x)]
        agree = [sum(eval_chaos(r, d) == add_one_cost(F, r, x, z) for x, d in probes)
                 for r in map(batch.realization, range(batch.n))]
        return {"agree": np.array(agree)}
    draw = Draw(DERIVATIVE_PROBES_STREAM, seed, n_realizations, arrays, window, keep="agree")
    return Plan((draw,), lambda est: CheckResult("derivative_probes", "derivative_probes", (
        Gate("probes agreeing with the add-one cost", int(est.samples.sum()),
             n_realizations * n_probes_x),), {"functional": functional.label}))


def _run_projection(model, config, seed, *, kernel="k2", y=0.0, samples=None,
                    se_multiplier=None):
    kern = kernel.value
    proj = project_kernel(kern, y)
    probe = ClampedNoise(y - 1.0, y, 10.0)

    def arrays(batch):
        ik, iky = eval_multiple_integral(batch, kern), eval_multiple_integral(batch, proj)
        return {"orthogonality": (ik - iky) * probe.eval(batch),
                "contraction": ik ** 2 - iky ** 2}
    window = max(abs(y - 1.0), abs(y), kern.read_window())
    # projecting cannot increase the second moment
    tests = (MeanTest("orthogonality", "orthogonality", 0.0, heavy=True),
             MeanTest("contraction", "contraction", 0.0, "lower", True))
    return Plan((Draw(PROJECTION_STREAM, seed, samples, arrays, window),), lambda est: CheckResult(
        "projection", "projection", est.gates(tests, se_multiplier, config.se_multiplier),
        {"kernel": kernel.label, "y": y}))


def _run_left_zero(model, config, *, functional="second_chaos_left", y=0.0, n_probes=8):
    probes_x = np.linspace(y + 0.1, y + 2.0, n_probes)
    z = float(model.atoms[0][0])
    derivatives = [malliavin_derivative(functional.value, float(x), z, model) for x in probes_x]
    zero = sum(1 for d in derivatives if d.constant == 0.0 and not d.kernels)
    return CheckResult("left_zero", "left_zero",
                       (Gate("probes with a zero derivative", zero, n_probes),),
                       {"functional": functional.label, "y": y})


def _run_duality(model, config, seed, *, functional="first_chaos", process="det_step",
                 samples=None, se_multiplier=None):
    return duality_plan(model, functional.value, process.value, samples, seed,
                        se_multiplier).then(lambda res: CheckResult(
        "duality", "duality", (res.gate,),
        {"functional": functional.label, "process": process.label,
         "mean_pairing": res.mean_pairing, "mean_adjoint": res.mean_adjoint}))


def _run_chaos_isometry(model, config, seed, *, kernel="k2", samples=None,
                        se_multiplier=None):
    kern = kernel.value
    draw = Draw(CHAOS_ISOMETRY_STREAM, seed, samples,
                lambda batch: {"I^2": eval_multiple_integral(batch, kern) ** 2},
                kern.read_window())
    test = MeanTest(f"E[I_{kern.order}^2]", "I^2", float(chaos_variance(model, kern)),
                    heavy=kern.order >= 2)
    return Plan((draw,), lambda est: CheckResult(
        f"chaos_isometry_{kernel.label}", "chaos_isometry",
        est.gates((test,), se_multiplier, config.se_multiplier),
        {"kernel": kernel.label, "order": kern.order}))


def _run_chaos_orthogonality(model, config, seed, *, kernel_a="k1", kernel_b="k2",
                             samples=None, se_multiplier=None):
    k1, k2 = kernel_a.value, kernel_b.value
    draw = Draw(CHAOS_ORTHOGONALITY_STREAM, seed, samples, lambda batch: {
        "product": eval_multiple_integral(batch, k1) * eval_multiple_integral(batch, k2)},
        max(k1.read_window(), k2.read_window()))
    test = MeanTest(f"E[I_{k1.order} I_{k2.order}]", "product", 0.0,
                    heavy=k1.order + k2.order >= 3)
    return Plan((draw,), lambda est: CheckResult(
        "chaos_orthogonality", "chaos_orthogonality",
        est.gates((test,), se_multiplier, config.se_multiplier),
        {"kernel_a": kernel_a.label, "kernel_b": kernel_b.label}))


# family: the CLI subcommand that runs the kind besides ``report``
CHECK_RUNNERS = {spec.kind: spec for spec in (
    CheckSpec(_run_partition_count),
    CheckSpec(_run_moment_mc),
    CheckSpec(_run_char_gap, validate=_theta_grid_finite),
    CheckSpec(_run_mean_zero),
    CheckSpec(_run_isometry),
    CheckSpec(_run_martingale),
    CheckSpec(_run_linear_moment_bound, "verify-bounds", p=_EVEN_P),
    CheckSpec(_run_interpolation, "verify-bounds", p=_EVEN_P),
    CheckSpec(_run_integral_moment_bound, "verify-bounds", p=_EVEN_P),
    CheckSpec(_run_tail, "verify-bounds", validate=_schedule_inside_window),
    CheckSpec(_run_convolution_bound, "convolution", validate=_field_meets_kernel, p=_EVEN_P,
              kernel=_choice({"indicator": indicator_kernel(), "heat": heat_kernel()})),
    CheckSpec(_run_derivative_probes, "malliavin-check", atomic_only=True),
    CheckSpec(_run_projection, "malliavin-check", atomic_only=True, validate=_probe_left_of_y),
    CheckSpec(_run_left_zero, "malliavin-check", atomic_only=True),
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

GATE_FIELDS = (*(f.name for f in fields(Gate)), "margin", "passed")  # as _gate_dict lists them


def _gate_dict(gate: Gate) -> dict:
    return _jsonify({**asdict(gate), "margin": gate.margin, "passed": gate.passed})


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "checks": [
            {"name": c.name, "kind": c.kind, "passed": c.passed,
             "gates": [_gate_dict(g) for g in c.gates], "details": _jsonify(c.details)}
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
    if isinstance(obj, Fraction):  # an exact gate may compare powers past the float range
        return float(obj) if abs(obj) <= sys.float_info.max else math.inf * (1 if obj > 0 else -1)
    return obj


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


def write_report(report: ExperimentReport, fmt: str, out) -> None:
    """Write the report to the text stream ``out`` as JSON, or as CSV with
    one row per gate (open a file with ``newline=""``)."""
    if fmt == "json":
        out.write(report_to_json(report) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out)  # str() of a float is its shortest round-trip repr
        writer.writerow(["name", "kind", *GATE_FIELDS])
        for c in report.checks:
            for g in c.gates:
                writer.writerow([c.name, c.kind, *_gate_dict(g).values()])
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
