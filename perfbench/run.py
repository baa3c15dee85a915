#!/usr/bin/env python3
"""levynoise benchmark: one command, four workloads.

    python3 perfbench/run.py --workload report_suite --seed 20260809 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  ``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.
Passes repeat until ``--seconds`` of pass time have gone by and at
least MIN_PASSES passes are timed.  With ``--trace 0`` the run prints
every end-to-end metric; with ``--trace 1`` it alternates untraced and
traced passes and prints the per-layer metrics.  ``run_s`` and
``setup_s`` are in seconds at reference speed: CPU times over the CPU
time of a fixed reference loop sampled while they run, scaled by
REF_SECONDS (see reference.py and perfbench/README.md, "Timing").
Every line before the last is for people; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` shrinks every input so that a run takes a few seconds.

The workload runs in this process.  Set-up time is measured in fresh
child processes started one at a time between passes, and
``measure.import_s`` in one more; native thread pools are capped at the
number of usable CPUs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from reference import REF_SECONDS, Sampler, reference_loop
from spans import CLOCK, NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MASTER_SEED = 20_260_809
WORKLOAD_NAMES = ("report_suite", "mc_acceptance", "exact_rational", "density_quad")
SETUP_PROBES = 5
PROBE_REFS = 25  # reference loops before and after each set-up probe
MIN_SAMPLES = 3  # reference samples a step needs to be measured by its own
MIN_PASSES = 3  # timed passes a run makes however long they take
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# metrics in the JSON result of --trace 0, with their units
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("realizations_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
# further end-to-end figures, printed only: not every workload has them
END_TO_END_PRINTED = (("points_per_s", "1/s"), ("exact_ops_per_s", "1/s"), ("fail_frac", "frac"),
                      ("wall_setup_s", "s"), ("wall_run_s", "s"))
CHECK_KINDS = ("partition_count", "moment_mc", "char_gap", "mean_zero", "isometry",
               "martingale", "linear_moment_bound", "interpolation", "integral_moment_bound",
               "convolution_bound", "tail", "derivative_probes", "projection", "left_zero",
               "duality", "chaos_isometry", "chaos_orthogonality")
# spans whose metric is their whole duration; every other span reports self time
INCLUSIVE_SPANS = ("setup.import", "setup.model", "setup.warm", "harness.run")
SPAN_METRICS = (
    "setup.import", "setup.model", "setup.warm", "measure.validate", "measure.moments",
    "partitions.count", "partitions.moment",
    "prm.sample_batch", "prm.sample_single", "prm.sample_L", "prm.char", "prm.batch_L",
    "prm.eval_exact",
    "coefficients.eval_batch", "coefficients.eval_exact",
    "processes.batch_I_K", "processes.square_integral", "processes.eval_I_K",
    "integral.seminorm", "integral.moment_bound", "integral.tail",
    "convolution.nu_t", "convolution.build", "convolution.bound",
    "chaos.batch_integral", "chaos.duality", "chaos.derivative", "chaos.eval_exact",
    "chaos.add_one",
    "harness.run", "harness.report_json", *(f"harness.{kind}" for kind in CHECK_KINDS),
    "cli.report",
)
# metrics in the JSON result of --trace 1, with their units
PER_LAYER = (
    *((f"{name}_s", "s") for name in SPAN_METRICS),
    ("measure.import_s", "s"),
    ("partitions.terms", "count"), ("partitions.terms_per_s", "1/s"),
    ("prm.realizations", "count"), ("prm.points", "count"), ("prm.points_per_s", "1/s"),
    ("prm.batch_mb", "MB"),
    ("processes.cell_points", "count"),
    ("convolution.quad_delta", "1"),
    ("chaos.probes", "count"), ("chaos.oracle_mismatches", "count"),
    ("harness.gates_failed", "count"),
    ("trace.run_s", "s"), ("trace.gap_s", "s"), ("trace.overhead_frac", "frac"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> None:
    """Cap native thread pools and put the checkout's sources first on the path.

    Exits with code 2 when the checkout holds no levynoise sources.
    """
    if not (SRC / "levynoise" / "__init__.py").is_file():
        print(f"error: no levynoise sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    cap = nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cap):
            os.environ[var] = str(cap)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def default_seconds() -> float:
    """``run_seconds`` of BENCHMARK.json, so the default is set in one place."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="levynoise benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=MASTER_SEED)
    parser.add_argument("--seconds", type=float, default=default_seconds(),
                        help="pass time to measure; passes repeat until it is over "
                             f"and at least {MIN_PASSES} are timed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up probe")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or commit
    return {"nproc": nproc(), "cpu": cpu,
            "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS}, "commit": commit}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def one_pass(run_pass, state, tr, tally, sampler=None):
    """One pass, or None when it raised (one failed operation).

    Returns the pass's wall time without the reference samples, and its
    steps as (name, CPU time, time in reference units); CPU times leave
    out the reference samples taken in them.  The last step, ``rest``,
    is pass CPU time outside any step.  A step's reference time is the
    mean of the samples taken while it ran, or of all samples of the
    pass when it has fewer than MIN_SAMPLES.  Without a sampler (traced
    passes) the last field is None.
    """
    tr.take_steps()
    first = len(sampler.samples) if sampler else 0
    w0, c0 = time.perf_counter(), CLOCK()
    try:
        with sampler or nullcontext(), tr.span("pass"):
            run_pass(state, tr, tally)
    except Exception as exc:
        traceback.print_exc()
        tally.identity(f"pass raised {type(exc).__name__}", False)
        return None
    cpu, wall = CLOCK() - c0, time.perf_counter() - w0
    taken = sampler.samples[first:] if sampler else []
    steps = [(name, t - sum(s), s) for name, t, s in tr.take_steps()]
    steps.append(("rest", cpu - sum(taken) - sum(t for _, t, _ in steps), []))
    d = wall - sum(taken)
    if sampler is None:
        return d, [(name, t, None) for name, t, _ in steps]
    whole = statistics.fmean(taken) if taken else reference_loop()
    return d, [(name, t, t / (statistics.fmean(s) if len(s) >= MIN_SAMPLES else whole))
               for name, t, s in steps]


def measure(run_pass, state, tally, seconds, tr=None, probe=None, probes=SETUP_PROBES):
    """Time passes until ``seconds`` of pass time have gone by and at least
    MIN_PASSES are timed; a raising pass ends the phase.

    Untraced passes sample the reference loop while they run.  With a
    tracer, untraced and traced passes alternate, so drift over the run
    affects both alike.  With ``probe``, ``probes`` set-up probes run
    between passes, at most one after each, spread over the first
    ``seconds`` of pass time; the rest run at the end.  The reference
    loop runs PROBE_REFS times before and after each probe; the mean of
    the two medians is the probe's reference time.  Returns the untraced
    and traced passes from ``one_pass`` and the set-up probes as (wall
    time, CPU time in reference units).
    """
    sampler = Sampler()
    off = NullTracer(sampler)
    untraced, traced, setup_times = [], [], []

    def run_probe():
        before = statistics.median(reference_loop() for _ in range(PROBE_REFS))
        wall, cpu = probe()
        after = statistics.median(reference_loop() for _ in range(PROBE_REFS))
        setup_times.append((wall, cpu / ((before + after) / 2)))

    while True:
        done = one_pass(run_pass, state, off, tally, sampler)
        if done is None:
            break
        untraced.append(done)
        if tr is not None:
            done = one_pass(run_pass, state, tr, tally)
            if done is None:
                break
            traced.append(done)
        elapsed = sum(d for d, _ in untraced + traced)
        if probe and len(setup_times) < probes and \
                elapsed >= len(setup_times) * seconds / probes:
            run_probe()
        if elapsed >= seconds and len(untraced) >= MIN_PASSES:
            break
    while probe and len(setup_times) < probes:
        run_probe()
    return untraced, traced, setup_times


def pass_time(passes, tally) -> float:
    """Pass time in seconds at reference speed, from the passes' steps.

    Every pass makes the same steps in the same order, since the inputs
    repeat.  Each step's median time in reference units over the passes
    is summed over the steps and turned into seconds at the speed where
    the reference loop takes REF_SECONDS.
    """
    names = [[name for name, _, _ in steps] for _, steps in passes]
    tally.identity("every pass makes the same steps", all(n == names[0] for n in names))
    columns = zip(*([units for _, _, units in steps] for _, steps in passes))
    return REF_SECONDS * sum(statistics.median(column) for column in columns)


def probe_setup(args) -> tuple[float, float]:
    """Wall time and CPU time of one fresh process from start until its
    workload is ready.  The CPU time is the one the process reports with
    its "ready" line: that of its main thread since it started."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    word, _, cpu = line.strip().partition(" ")
    if child.returncode != 0 or word != "ready":
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return elapsed, float(cpu)


def measure_import_s() -> float:
    """Cumulative ``-X importtime`` of levynoise.measure in a fresh process."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import levynoise"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    for line in done.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "levynoise.measure":
            return int(re.sub(r"\D", "", parts[1])) / 1e6
    raise RuntimeError("levynoise.measure missing from -X importtime output")


def describe(values) -> str:
    """Median, spread and count of a list of timings."""
    if len(values) <= 4:
        return f"{len(values)} passes: " + ", ".join(f"{v:.4f}" for v in values)
    return f"median of {len(values)} passes, min {min(values):.4f}, max {max(values):.4f}"


def per_layer(tr, tally, passes, untraced, traced) -> dict:
    """Per-layer metrics: span times of set-up counted once, of passes per pass."""
    own = tr.self_times()
    setup_root = next(i for i, s in enumerate(tr.spans) if s[0] == "setup" and s[3] is None)
    pass_roots = {i for i, s in enumerate(tr.spans) if s[0] == "pass" and s[3] is None}
    n = len(pass_roots)
    setup_part, pass_part, pass_self = Counter(), Counter(), Counter()
    for i, (name, start, end, parent) in enumerate(tr.spans):
        if parent is None:
            continue
        root = tr.root_of(i)
        value = end - start if name in INCLUSIVE_SPANS else own[i]
        if root == setup_root:
            setup_part[name] += value
        elif root in pass_roots:
            pass_part[name] += value / n
            pass_self[name] += own[i] / n
    # gaps: time inside a pass that no span of a layer covers
    gap = sum(own[r] for r in pass_roots) / n
    trace_run_s = sum(d for d, _ in traced) / n  # timed around each pass, outside its span
    # The per-pass part of the printed figures, with harness.run_s as self
    # time, plus the gap must give the traced pass time.  Self times add up
    # by construction; this guards the bookkeeping: every span of a pass
    # maps to a printed layer metric, and each is divided by the pass count.
    tally.identity("trace spans nest", tr.nesting_errors() == 0)
    tally.identity("per-pass layer self times plus gap equal traced run time",
                   abs(sum(pass_self[name] for name in SPAN_METRICS) + gap - trace_run_s)
                   <= 1e-3 * trace_run_s + 1e-4)
    work = {k: v / passes for k, v in tally.work.items()}
    metrics = {f"{name}_s": setup_part[name] + pass_part[name] for name in SPAN_METRICS}
    sampling = pass_part["prm.sample_batch"] + pass_part["prm.sample_single"]
    partition_s = pass_part["partitions.count"] + pass_part["partitions.moment"]
    metrics.update({
        "measure.import_s": measure_import_s(),
        "partitions.terms": work.get("partitions.terms", 0.0),
        "partitions.terms_per_s": work.get("partitions.terms", 0.0) / partition_s
        if partition_s else 0.0,
        "prm.realizations": work.get("prm.realizations", 0.0),
        "prm.points": work.get("prm.points", 0.0),
        "prm.points_per_s": work.get("prm.points", 0.0) / sampling if sampling else 0.0,
        "prm.batch_mb": tally.gauges.get("prm.batch_mb", 0.0),
        "processes.cell_points": work.get("processes.cell_points", 0.0),
        "convolution.quad_delta": tally.gauges.get("convolution.quad_delta", 0.0),
        "chaos.probes": work.get("chaos.probes", 0.0),
        "chaos.oracle_mismatches": work.get("chaos.oracle_mismatches", 0.0),
        "harness.gates_failed": work.get("harness.gates_failed", 0.0),
        "trace.run_s": trace_run_s,
        "trace.gap_s": gap,
        "trace.overhead_frac": statistics.median(d for d, _ in traced)
        / statistics.median(d for d, _ in untraced) - 1.0,
    })
    return metrics


def end_to_end(tally, passes, untraced, setup_times) -> dict:
    print("set-up probes, wall s: " + ", ".join(f"{t:.4f}" for t, _ in setup_times))
    run_s = pass_time(untraced, tally)
    work = {k: v / passes for k, v in tally.work.items()}
    return {
        "setup_s": REF_SECONDS * statistics.median(units for _, units in setup_times),
        "run_s": run_s,
        "realizations_per_s": work.get("realizations", 0.0) / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "points_per_s": work.get("prm.points", 0.0) / run_s,
        "exact_ops_per_s": work.get("exact_ops", 0.0) / run_s,
        "fail_frac": tally.failed / max(tally.attempted, 1),
        "wall_setup_s": statistics.median(t for t, _ in setup_times),
        "wall_run_s": statistics.median(d for d, _ in untraced),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare()

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    tr = Tracer(run_id) if args.trace else NullTracer()
    with tr.span("setup"):
        with tr.span("setup.import"):
            workloads = importlib.import_module("workloads")
        tally = workloads.Tally()
        OUT.mkdir(exist_ok=True)
        state = workloads.set_up(args.workload, args.seed, args.smoke, tr, tally, OUT)
    env = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}")
    print("environment " + json.dumps(env, sort_keys=True))

    run_pass = workloads.WORKLOADS[args.workload][2]
    untraced, traced, setup_times = measure(
        run_pass, state, tally, args.seconds, tr if args.trace else None,
        None if args.trace else lambda: probe_setup(args), 1 if args.smoke else SETUP_PROBES)
    passes = len(untraced) + len(traced)  # work counters cover them all
    if not untraced or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1
    print(f"pass wall time: {describe([d for d, _ in untraced])}")
    if args.trace:
        print(f"traced pass wall time: {describe([d for d, _ in traced])}")
        metrics = per_layer(tr, tally, passes, untraced, traced)
        tr.write(OUT / f"spans-{run_id}.jsonl")
        names = PER_LAYER
    else:
        metrics = end_to_end(tally, passes, untraced, setup_times)
        names = END_TO_END + END_TO_END_PRINTED
    digest = getattr(state, "digest", "")
    if digest:
        print(f"report sha256 (wall time zeroed): {digest}")
    for name, unit in names:
        print(f"metric {name} = {metrics[name]!r} {unit}")
    if tally.broken:
        print(f"broken identities: {sorted(set(tally.broken))}")
    result = {
        "correct": not tally.broken,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in (PER_LAYER if args.trace else END_TO_END)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
