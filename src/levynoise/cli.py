"""Command line front end.

Subcommands::

    simulate        sample noise values of configured sets, emit CSV,
                    one chunk of realizations at a time
    moments         exact moments of the smoothed noise via the
                    cumulant/partition engine
    verify-bounds   run the bound checks of a config
    convolution     run the convolution bound checks of a config
    malliavin-check run the derivative/adjoint checks of a config
    report          run every check of a config

Every command writes its output to the ``--out`` file, or to stdout
without one, in the same bytes either way.

Exit codes: 0 all checks passed (or nothing to check), 1 at least one
check failed under ``--strict``, 2 usage or configuration error,
including an ``--out`` or ``--dump-samples`` path that cannot be
written; a missing directory is refused before any work runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, LevyNoiseError
from .harness import (
    ExperimentConfig,
    check_config,
    check_spec,
    default_verification_config,
    parse_config,
    run,
    step_function_from_config,
    write_report,
    write_samples_csv,
)
from .measure import finite_moment, validate_measure
from .partitions import moment_of_step_functional, step_functional_cumulants
from .prm import eval_L_set, sample_chunks
from .rng import SIMULATE_STREAM, derive_rng


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="levynoise",
                                     description="Levy white-noise simulation and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample noise values on configured sets")
    sim.add_argument("--measure", help='measure JSON, e.g. \'{"atoms": [[1, 1.0]]}\'')
    sim.add_argument("--window", type=float, default=4.0)
    sim.add_argument("--sets", default="0,1",
                     help="semicolon-separated intervals, e.g. '0,1;1,2'")

    mom = sub.add_parser("moments", help="exact moments of the smoothed noise")
    mom.add_argument("--measure", required=True)
    mom.add_argument("--phi", required=True,
                     help='step function JSON {"breakpoints": [...], "values": [...]}')
    mom.add_argument("--p", type=int, required=True)

    checks = [sub.add_parser(name) for name in
              ("verify-bounds", "convolution", "malliavin-check", "report")]
    for p in (sim, *checks):
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--seed", type=_seed, help="master seed override (>= 0)")
        p.add_argument("--samples", type=int, help="sample count override")
    for p in (sim, mom, *checks):
        p.add_argument("--out", help="output path (default: stdout)")
    for p in checks:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--strict", action="store_true", help="exit 1 when any check fails")
        p.add_argument("--dump-samples", metavar="PATH",
                       help="write raw MC samples of sample-bearing checks to CSV")
    return parser


def _base_config(args) -> ExperimentConfig:
    return parse_config(args.config) if args.config else default_verification_config()


def _load_config(args, family: str | None) -> ExperimentConfig:
    """The config with the CLI overrides, checked again with them; ``family`` keeps
    that family's checks."""
    cfg = _base_config(args)
    checks = cfg.checks if family is None else tuple(
        c for c in cfg.checks if check_spec(c).family == family)
    return check_config(replace(cfg, checks=checks,
                                samples=cfg.samples if args.samples is None else args.samples,
                                seed=cfg.seed if args.seed is None else args.seed))


def _unwritable(flag: str, path: str, reason: str) -> ConfigError:
    return ConfigError(f"{flag}: cannot write {path}: {reason}")


def _check_output_paths(args) -> None:
    """Refuse an output path in a missing directory, or naming a directory,
    before any check or sampling runs.  Nothing is opened, so an existing
    file stays as it is until the output is written."""
    dump = getattr(args, "dump_samples", None)  # the check subcommands' flag
    for flag, path in (("--out", args.out), ("--dump-samples", dump)):
        if not path:
            continue
        target = Path(path)
        try:
            reason = ("no such directory" if not target.parent.is_dir()
                      else "it is a directory" if target.is_dir() else None)
        except OSError as exc:  # e.g. a name too long for the file system
            reason = exc.strerror
        if reason:
            raise _unwritable(flag, path, reason)


@contextmanager
def _output(args):
    """The stream a command writes its output to: the ``--out`` file, else stdout."""
    if not args.out:
        yield sys.stdout
        return
    try:
        fh = Path(args.out).open("w", newline="")
    except OSError as exc:
        raise _unwritable("--out", args.out, exc.strerror) from exc
    with fh:
        yield fh


def _emit_report(report, args) -> int:
    with _output(args) as out:
        write_report(report, args.format, out)
    if args.dump_samples:
        try:
            write_samples_csv(report, args.dump_samples)
        except OSError as exc:
            raise _unwritable("--dump-samples", args.dump_samples, exc.strerror) from exc
    if args.strict and not report.passed:
        return 1
    return 0


def _parse_sets(text: str, window: float) -> list[tuple[float, float]]:
    """``"a,b;c,d"`` as ``(a, b)`` pairs with ``-window <= a < b <= window``."""
    sets = []
    for part in text.split(";"):
        try:
            a, b = (float(v) for v in part.split(","))
        except ValueError as exc:
            raise ConfigError(f"--sets: {part!r} is not an interval 'a,b'") from exc
        if not -window <= a < b <= window:
            raise ConfigError(f"--sets: need -{window} <= a < b <= {window}, got ({a}, {b}]")
        sets.append((a, b))
    return sets


def _json_arg(flag: str, text: str):
    """The JSON value of a flag; ConfigError if it does not parse."""
    try:
        return json.loads(text)
    except ValueError as exc:  # bad JSON, or an int of 4300+ digits
        raise ConfigError(f"{flag}: cannot parse JSON: {exc}") from exc


def _cmd_simulate(args) -> int:
    if args.samples is not None and args.samples < 0:
        raise ConfigError(f"--samples must be >= 0, got {args.samples}")
    if not 0.0 < args.window < math.inf:  # a zero window holds no interval of --sets
        raise ConfigError(f"--window must be finite and > 0, got {args.window}")
    sets = _parse_sets(args.sets, args.window)
    if args.measure:
        model = validate_measure(_json_arg("--measure", args.measure))
    else:
        model = _base_config(args).model()
    n = 1000 if args.samples is None else args.samples
    rng = derive_rng(args.seed if args.seed is not None else 0, SIMULATE_STREAM)
    chunks = sample_chunks(model, n, rng, window=args.window)  # checked before --out opens
    with _output(args) as out:
        writer = csv.writer(out)
        writer.writerow(["sample"] + [f"L({a},{b}]" for a, b in sets])
        for r0, batch in chunks:
            columns = [eval_L_set(batch, [s]) for s in sets]
            for i, row in enumerate(zip(*columns), r0):
                writer.writerow([i] + [repr(float(v)) for v in row])
    return 0


def _cmd_moments(args) -> int:
    if args.p < 2:
        raise ConfigError(f"--p must be >= 2, got {args.p}")
    model = validate_measure(_json_arg("--measure", args.measure))
    phi = step_function_from_config(_json_arg("--phi", args.phi))
    kappas = step_functional_cumulants(model, phi, args.p)
    payload = {
        "p": args.p,
        "moment": finite_moment(moment_of_step_functional(model, phi, args.p), args.p,
                                "E[L(phi)^p]"),
        "cumulants": {str(n): finite_moment(v, args.p, f"cumulant {n} of L(phi)")
                      for n, v in kappas.items()},
    }
    with _output(args) as out:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_paths(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "moments":
            return _cmd_moments(args)
        config = _load_config(args, None if args.command == "report" else args.command)
        report = run(config, keep_samples=bool(args.dump_samples))
        return _emit_report(report, args)
    except (LevyNoiseError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
