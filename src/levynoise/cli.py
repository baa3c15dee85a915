"""Command line front end.

Subcommands::

    simulate        sample noise values of configured sets, emit CSV
    moments         exact moments of the smoothed noise via the
                    cumulant/partition engine
    verify-bounds   run the bound checks of a config
    convolution     run the convolution bound checks of a config
    malliavin-check run the derivative/adjoint checks of a config
    report          run every check of a config

Exit codes: 0 all checks passed (or nothing to check), 1 at least one
check failed under ``--strict``, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .errors import ConfigError, LevyNoiseError
from .harness import (
    BOUND_CHECK_KINDS,
    CONVOLUTION_CHECK_KINDS,
    MALLIAVIN_CHECK_KINDS,
    ExperimentConfig,
    default_verification_config,
    parse_config,
    report_to_json,
    run,
    write_report,
    write_samples_csv,
)
from .measure import validate_measure
from .partitions import moment_of_step_functional, step_functional_cumulants
from .prm import eval_L_set, sample_prm_batch
from .rng import SIMULATE_STREAM, derive_rng
from .stepfun import StepFunction


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--seed", type=_seed, help="master seed override (>= 0)")
    parser.add_argument("--samples", type=int, help="sample count override")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any check fails")
    parser.add_argument("--dump-samples", metavar="PATH",
                        help="write raw MC samples of sample-bearing checks to CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="levynoise",
                                     description="Levy white-noise simulation and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample noise values on configured sets")
    sim.add_argument("--measure", help='measure JSON, e.g. \'{"atoms": [[1, 1.0]]}\'')
    sim.add_argument("--window", type=float, default=4.0)
    sim.add_argument("--sets", default="0,1",
                     help="semicolon-separated intervals, e.g. '0,1;1,2'")
    _add_common(sim)

    mom = sub.add_parser("moments", help="exact moments of the smoothed noise")
    mom.add_argument("--measure", required=True)
    mom.add_argument("--phi", required=True,
                     help='step function JSON {"breakpoints": [...], "values": [...]}')
    mom.add_argument("--p", type=int, required=True)
    _add_common(mom)

    for name in ("verify-bounds", "convolution", "malliavin-check", "report"):
        p = sub.add_parser(name)
        _add_common(p)
    return parser


def _load_config(args, kinds=None) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else default_verification_config()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.samples is not None:
        updates["samples"] = args.samples
    checks = cfg.checks if kinds is None else tuple(
        c for c in cfg.checks if c["kind"] in kinds)
    return ExperimentConfig(cfg.measure, cfg.window,
                            updates.get("samples", cfg.samples),
                            updates.get("seed", cfg.seed),
                            cfg.se_multiplier, checks)


def _emit_report(report, args) -> int:
    if args.out:
        write_report(report, args.format, args.out)
    else:
        sys.stdout.write(report_to_json(report) + "\n")
    if args.dump_samples:
        write_samples_csv(report, args.dump_samples)
    if args.strict and not report.passed:
        return 1
    return 0


def _cmd_simulate(args) -> int:
    if args.measure:
        model = validate_measure(json.loads(args.measure))
    else:
        model = _load_config(args).model()
    sets = []
    for part in args.sets.split(";"):
        a, b = part.split(",")
        sets.append((float(a), float(b)))
    n = args.samples or 1000
    rng = derive_rng(args.seed if args.seed is not None else 0, SIMULATE_STREAM)
    batch = sample_prm_batch(model, args.window, n, rng)
    columns = [eval_L_set(batch, [s]) for s in sets]
    rows = zip(*columns) if columns else []
    out = Path(args.out).open("w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["sample"] + [f"L({a},{b}]" for a, b in sets])
        for i, row in enumerate(rows):
            writer.writerow([i] + [repr(float(v)) for v in row])
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_moments(args) -> int:
    model = validate_measure(json.loads(args.measure))
    spec = json.loads(args.phi)
    phi = StepFunction(tuple(float(b) for b in spec["breakpoints"]),
                       tuple(float(v) for v in spec["values"]))
    kappas = step_functional_cumulants(model, phi, args.p)
    payload = {
        "p": args.p,
        "moment": float(moment_of_step_functional(model, phi, args.p)),
        "cumulants": {str(n): float(v) for n, v in kappas.items()},
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    kinds = {"verify-bounds": BOUND_CHECK_KINDS,
             "convolution": CONVOLUTION_CHECK_KINDS,
             "malliavin-check": MALLIAVIN_CHECK_KINDS,
             "report": None}
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "moments":
            return _cmd_moments(args)
        config = _load_config(args, kinds[args.command])
        report = run(config, keep_samples=bool(args.dump_samples))
        return _emit_report(report, args)
    except (ConfigError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LevyNoiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
