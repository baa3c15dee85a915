import argparse
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import levynoise.cli
import levynoise.harness
import levynoise.prm
from levynoise.cli import main
from levynoise.harness import (
    CHECK_RUNNERS,
    ExperimentReport,
    default_verification_config,
    parse_config,
)

MEASURE = '{"atoms": [[1.0, 1.0]]}'
DENSITY = {"family": "symmetric_power_law", "alpha": 1.5, "eps": 0.25, "z_max": 4.0}


def run_cli(*argv):
    return main(list(argv))


def test_moments_subcommand(capsys):
    code = run_cli("moments", "--measure", MEASURE,
                   "--phi", '{"breakpoints": [0, 1], "values": [1]}', "--p", "6")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["moment"] == 41.0
    assert payload["cumulants"]["3"] == 1.0


def test_simulate_csv(tmp_path):
    out = tmp_path / "sim.csv"
    code = run_cli("simulate", "--measure", MEASURE, "--window", "2",
                   "--samples", "1200", "--seed", "3", "--sets", "0,1;-1,0",
                   "--out", str(out))
    assert code == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample", "L(0.0,1.0]", "L(-1.0,0.0]"]
    assert len(rows) == 1 + 1200


# SHA-256 of the command below, taken while simulate still drew all rows as one batch
SIMULATE_SHA256 = "269e42d871ca77b4e7073f8da01a9568e8190dd47212f820682f4019385cc7d1"


@pytest.mark.parametrize("part_size", [4096, None], ids=["small_chunks", "default_chunks"])
def test_simulate_csv_digest(tmp_path, monkeypatch, part_size):
    # 40 000 realizations of about 24 points: several chunks even at the default size
    if part_size is not None:
        monkeypatch.setattr(levynoise.prm, "_PART_SIZE", part_size)
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--measure", '{"atoms": [[1.0, 1.0], [-0.5, 2.0]]}',
                   "--window", "4", "--samples", "40000", "--seed", "7",
                   "--sets", "0,1;-4,-1;-4,4", "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_SHA256


def test_simulate_zero_samples(tmp_path):
    out = tmp_path / "sim.csv"
    code = run_cli("simulate", "--measure", MEASURE, "--samples", "0", "--out", str(out))
    assert code == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 and rows[0][0] == "sample"


def test_report_runs_default_suite(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli("report", "--samples", "2000", "--seed", "9",
                   "--out", str(out), "--strict")
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert len(payload["checks"]) > 10


def test_subcommand_filters(tmp_path):
    cfg = {
        "measure": {"atoms": [[1.0, 1.0]]},
        "samples": 2000,
        "seed": 4,
        "checks": [
            {"kind": "linear_moment_bound", "p": 4,
             "phi": {"breakpoints": [0, 1], "values": [1]}},
            {"kind": "duality", "functional": "first_chaos", "process": "det_step"},
        ],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "bounds.json"
    assert run_cli("verify-bounds", "--config", str(path), "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert [c["kind"] for c in payload["checks"]] == ["linear_moment_bound"]
    out2 = tmp_path / "mall.json"
    assert run_cli("malliavin-check", "--config", str(path), "--out", str(out2)) == 0
    payload2 = json.loads(out2.read_text())
    assert [c["kind"] for c in payload2["checks"]] == ["duality"]


def test_samples_past_the_float_range_exit_code(capsys):
    # every count meets floats at the point cap, so --samples takes the config's rule
    for argv in (("report",), ("simulate", "--measure", MEASURE)):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--samples", str(10 ** 400))
        assert exc.value.code == 2
        assert "--samples: sample count past the float range" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "1" * 5000], ids=["text", "5000_digits"])
def test_bad_int_flag_names_no_function(capsys, value):
    # argparse names the type function of a flag whose type raises ValueError
    for flag in ("--seed", "--samples"):
        with pytest.raises(SystemExit) as exc:
            run_cli("report", flag, value)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid int value" in err
        assert "_seed" not in err and "_samples" not in err


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("report", "--config", str(bad)) == 2


def test_negative_seed_exit_code(tmp_path, capsys):
    cfg = {"measure": {"atoms": [[1.0, 1.0]]}, "samples": 2000, "seed": -3, "checks": []}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("report", "--config", str(path)) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    for argv in (("report",), ("simulate", "--measure", MEASURE)):
        with pytest.raises(SystemExit) as exc:  # argparse rejects --seed
            run_cli(*argv, "--seed", "-1")
        assert exc.value.code == 2
        assert "seed must be >= 0" in capsys.readouterr().err



def _report_rejects(tmp_path, monkeypatch, measure, check):
    """Exit code of ``report`` on a one-check config; fails if any check runs."""
    def no_run(*args, **kwargs):
        raise AssertionError("the config was accepted and run")
    monkeypatch.setattr(levynoise.cli, "run", no_run)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"measure": measure, "samples": 2000, "seed": 4,
                                "checks": [check]}))
    return run_cli("report", "--config", str(path))


@pytest.mark.parametrize("check, param", [
    ({"kind": "integral_moment_bound", "p": 3}, "p"),
    ({"kind": "convolution_bound", "p": 3}, "p"),
    ({"kind": "linear_moment_bound", "p": 5}, "p"),
    ({"kind": "interpolation", "p": 3}, "p"),
    ({"kind": "moment_mc", "p": 1}, "p"),
    ({"kind": "moment_mc", "p": 2, "set": [1, 0]}, "set"),
    ({"kind": "char_gap", "set": [1.0, 1.0]}, "set"),
    ({"kind": "char_gap", "set": [2.0, 0.5]}, "set"),
    ({"kind": "convolution_bound", "convention": "bogus"}, "convention"),
    ({"kind": "integral_moment_bound", "convention": "bogus"}, "convention"),
    ({"kind": "char_gap", "n_theta": "x"}, "n_theta"),
    ({"kind": "char_gap", "n_theta": 0}, "n_theta"),
    ({"kind": "tail", "schedule": []}, "schedule"),
    ({"kind": "martingale", "probe_width": -1}, "probe_width"),
    ({"kind": "projection", "y": "x"}, "y"),
    ({"kind": "moment_mc", "p": 4, "se_multiplier": "x"}, "se_multiplier"),
    ({"kind": "tail", "schedule": [9.0], "k_outer": 6.0}, "k_outer"),
    ({"kind": "left_zero", "n_probes": 0}, "n_probes"),
    ({"kind": "derivative_probes", "n_realizations": 0}, "n_realizations"),
    ({"kind": "convolution_bound", "t": -1}, "t"),
    ({"kind": "moment_mc", "p": 4.5}, "p"),
    ({"kind": "isometry", "procss": "clamped_left"}, "procss"),
    ({"kind": "mean_zero", "se_multiplier": 1e-4}, "se_multiplier"),
    ({"kind": "mean_zero", "process": "nope"}, "process"),
    ({"kind": "mean_zero", "process": {"breakpoints": [0, 1], "coefficients": [5]}}, "process"),
    ({"kind": "tail", "profile": "cauchy"}, "profile"),
    ({"kind": "chaos_orthogonality", "kernel_a": "k1", "kernel_b": "k1_two"}, "kernel_b"),
    ({"kind": "isometry", "samples": 10}, "samples"),
    ({"kind": "partition_count", "p_values": [20]}, "p_values"),
    ({"kind": "partition_count", "p_values": [15]}, "p_values"),
    ({"kind": "moment_mc", "p": 65}, "p"),
    ({"kind": "convolution_bound", "field": "separable_clamped"}, "field"),
    ({"kind": "convolution_bound", "kernel": "heat", "p": 4}, "heat"),
    ({"kind": "mean_zero", "process": {"breakpoints": ["-1", 0],
                                       "coefficients": [{"type": "const", "value": 1}]}},
     "process"),
    ({"kind": "mean_zero", "process": {"breakpoints": [0, 1], "coefficients": [
        {"type": "clamped_noise", "interval": [-1, 0], "clip": "5"}]}}, "process"),
    ({"kind": "mean_zero", "process": {"breakpoints": [0, 1],
                                       "coefficients": [{"type": "const", "value": True}]}},
     "process"),
], ids=["integral_odd_p", "convolution_odd_p", "linear_odd_p", "interpolation_odd_p",
        "moment_mc_p1", "moment_mc_reversed", "char_gap_empty", "char_gap_reversed",
        "convolution_convention", "integral_convention", "char_gap_n_theta_text",
        "char_gap_n_theta_zero", "tail_empty_schedule", "martingale_probe_width",
        "projection_y_text", "moment_mc_multiplier_text", "tail_schedule_past_k_outer",
        "left_zero_no_probes", "derivative_probes_no_realizations", "convolution_negative_t",
        "moment_mc_fractional_p", "isometry_misspelled_key", "mean_zero_multiplier",
        "mean_zero_unknown_process", "mean_zero_bad_inline_process", "tail_unknown_profile",
        "orthogonality_same_order", "isometry_few_samples", "partition_count_past_cap",
        "partition_count_past_oracle_cap", "moment_mc_past_order_cap",
        "convolution_field_off_kernel", "convolution_heat_p4",
        "inline_process_text_breakpoint", "inline_process_text_clip",
        "inline_process_bool_const"])
def test_bad_check_parameters_exit_code(tmp_path, monkeypatch, capsys, check, param):
    assert _report_rejects(tmp_path, monkeypatch, {"atoms": [[1.0, 1.0]]}, check) == 2
    err = capsys.readouterr().err
    assert check["kind"] in err and param in err, err


def test_rejects_before_the_first_check_runs(tmp_path, monkeypatch, capsys):
    # a bad check late in the config stops the run before the first check samples
    def no_sampling(*args, **kwargs):
        raise AssertionError("a check ran")
    for sampler in ("sample_chunks", "sample_L_interval", "sample_prm_batch"):
        monkeypatch.setattr(levynoise.prm, sampler, no_sampling)
    cfg = {"measure": {"atoms": [[1.0, 1.0]]}, "samples": 2000,
           "checks": [{"kind": "moment_mc", "p": 2}, {"kind": "tail", "profile": "cauchy"}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("report", "--config", str(path)) == 2
    assert "tail: profile" in capsys.readouterr().err
    assert run_cli("report", "--samples", "500") == 2
    assert "sample count must be >= 1000" in capsys.readouterr().err
    # a sample count from the command line is held against the point cap too
    assert run_cli("report", "--samples", "1000000000") == 2
    assert "moment_mc: a draw expecting 1e+09 points is past the cap" in capsys.readouterr().err


def test_interpolation_past_order_cap_rejected_before_sampling(tmp_path, monkeypatch, capsys):
    # p is capped as the other moment orders are: its cost grows about as p^4
    def no_work(*args, **kwargs):
        raise AssertionError("a check ran")
    for sampler in ("sample_chunks", "sample_L_interval", "sample_prm_batch"):
        monkeypatch.setattr(levynoise.prm, sampler, no_work)
    monkeypatch.setattr(levynoise.harness, "interpolation_check", no_work)
    cfg = {"measure": {"atoms": [[1.0, 1.0]]}, "samples": 2000,
           "checks": [{"kind": "moment_mc", "p": 2}, {"kind": "interpolation", "p": 66}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("report", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert "interpolation: p" in err and "64" in err, err


@pytest.mark.parametrize("late", [
    {"kind": "mean_zero"}, {"kind": "moment_mc", "p": 2}, {"kind": "char_gap"},
    {"kind": "isometry"}, {"kind": "martingale"}, {"kind": "integral_moment_bound"},
    {"kind": "tail"}, {"kind": "convolution_bound"}, {"kind": "projection"},
    {"kind": "duality"}, {"kind": "chaos_isometry"}, {"kind": "chaos_orthogonality"},
    {"kind": "derivative_probes"}],
    ids=lambda check: check["kind"])
def test_oversized_draw_rejected_before_any_check_runs(tmp_path, monkeypatch, capsys, late):
    # each draw of every check is held against the point cap while the config is read
    def no_run(*args, **kwargs):
        raise AssertionError("a check ran")
    for sampler in ("sample_chunks", "sample_L_interval", "sample_prm_batch",
                    "sample_prm"):
        monkeypatch.setattr(levynoise.prm, sampler, no_run)
    monkeypatch.setattr(levynoise.cli, "run", no_run)
    # derivative_probes sizes its one draw by its realizations, every other kind by samples
    size = "n_realizations" if late["kind"] == "derivative_probes" else "samples"
    cfg = {"measure": {"atoms": [[1.0, 1.0]]}, "samples": 200_000,
           "checks": [{"kind": "tail"}, {"kind": "duality"}, {**late, size: 1_000_000_000}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("report", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert f"{late['kind']}: a draw expecting" in err and "past the cap" in err, err


def test_derivative_probes_draw_rejected_before_an_exact_check_runs(tmp_path, monkeypatch,
                                                                    capsys):
    # at the default 20 realizations on a window of 2, one atom of mass 1e8 expects 8e9
    # points; the exact check before it must not run
    def no_run(*args, **kwargs):
        raise AssertionError("a check ran")
    monkeypatch.setattr(levynoise.harness, "count_no_singleton_partitions", no_run)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"measure": {"atoms": [[1.0, 1e8]]}, "checks": [
        {"kind": "partition_count"}, {"kind": "derivative_probes"}]}))
    assert run_cli("report", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert "derivative_probes: a draw expecting 8e+09 points" in err, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_derivative_probes_on_one_realization(tmp_path, capsys):
    # a one-realization draw reduces to a NaN standard error, with no warning
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"measure": {"atoms": [[1.0, 1.0]]}, "checks": [
        {"kind": "derivative_probes", "n_realizations": 1}]}))
    assert run_cli("report", "--strict", "--config", str(path)) == 0
    (gate,) = json.loads(capsys.readouterr().out)["checks"][0]["gates"]
    assert (gate["statistic"], gate["target"]) == (5, 5)


@pytest.mark.parametrize("kind", ["derivative_probes", "projection", "left_zero", "duality",
                                  "chaos_isometry", "chaos_orthogonality"])
def test_malliavin_kinds_on_density_exit_code(tmp_path, monkeypatch, capsys, kind):
    assert _report_rejects(tmp_path, monkeypatch, DENSITY, {"kind": kind}) == 2
    assert kind in capsys.readouterr().err


def test_kernel_marks_past_the_atoms_exit_code(tmp_path, monkeypatch, capsys):
    # a kernel whose cell names atom 1 of a one-atom measure stops the run with exit 2
    from levynoise.chaos import Cell, make_kernel
    bad = make_kernel(1, (Cell(0.0, 1.0, frozenset({1})),), [1.0])
    monkeypatch.setattr(levynoise.harness, "catalog_kernel", lambda name: bad)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"measure": {"atoms": [[1.0, 1.0]]}, "samples": 2000,
                                "seed": 4, "checks": [{"kind": "chaos_isometry"}]}))
    assert run_cli("report", "--config", str(path)) == 2
    assert "name no jumps" in capsys.readouterr().err


@pytest.mark.parametrize("phi", [{"breakpoints": [1, 0], "values": [1]},
                                 {"breakpoints": [0, 1], "values": [1, 2]},
                                 {"breakpoints": [0, 1]},
                                 [0, 1],
                                 {"breakpoints": ["0", "1"], "values": [True]},
                                 {"breakpoints": [0, 1], "values": ["1"]},
                                 {"breakpoints": [0, 10 ** 400], "values": [1]}],
                         ids=["reversed", "value_count", "no_values", "not_object",
                              "text_breakpoints_bool_value", "text_value", "huge_breakpoint"])
def test_bad_phi_exit_code(tmp_path, monkeypatch, capsys, phi):
    check = {"kind": "linear_moment_bound", "p": 4, "phi": phi}
    assert _report_rejects(tmp_path, monkeypatch, {"atoms": [[1.0, 1.0]]}, check) == 2
    assert "step function" in capsys.readouterr().err


def _no_sampling(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the input was accepted and sampled")
    monkeypatch.setattr(levynoise.cli, "sample_chunks", fail)


@pytest.mark.parametrize("argv", [
    ("--sets", "1,0"),
    ("--sets", "1,1"),
    ("--sets", "1"),
    ("--sets", "a,b"),
    ("--sets", "0,1;"),
    ("--sets", "0,5"),
    ("--samples", "-1"),
    ("--window", "-1"),
    ("--window", "0"),
    ("--window", "inf"),
], ids=["reversed", "empty", "one_end", "not_numbers", "trailing_separator",
        "outside_window", "negative_samples", "negative_window", "zero_window",
        "infinite_window"])
def test_simulate_bad_input_exit_code(monkeypatch, capsys, argv):
    _no_sampling(monkeypatch)
    assert run_cli("simulate", "--measure", MEASURE, *argv) == 2
    assert argv[0] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--p", "1"),
    ("--p", "0"),
    ("--phi", '{"breakpoints": [1, 0], "values": [1]}'),
    ("--phi", '{"breakpoints": [0, 1, 1], "values": [1, 2]}'),
    ("--phi", '{"breakpoints": [0, 1], "values": []}'),
    ("--p", "65"),
    ("--p", "1000000000"),
    ("--phi", '{"breakpoints": ["0", "1e0"], "values": [false]}'),
], ids=["p1", "p0", "reversed_phi", "repeated_breakpoint", "no_values", "p_past_order_cap",
        "p_huge", "text_and_bool_phi"])
def test_moments_bad_input_exit_code(capsys, argv):
    args = {"--measure": MEASURE, "--phi": '{"breakpoints": [0, 1], "values": [1]}',
            "--p": "4"}
    args[argv[0]] = argv[1]
    assert run_cli("moments", *(x for kv in args.items() for x in kv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _bundled_raw() -> dict:
    cfg = default_verification_config()
    return {"measure": cfg.measure, "samples": cfg.samples, "seed": cfg.seed,
            "se_multiplier": cfg.se_multiplier, "checks": [dict(c) for c in cfg.checks]}


# (None, a top-level key) or (a check kind, one of its declared parameters); the
# bundled config has a check of every kind
CONFIG_SLOTS = [(None, key) for key in ("measure", "samples", "seed", "se_multiplier", "checks",
                                        "window")]
CONFIG_SLOTS += [(kind, name) for kind, spec in CHECK_RUNNERS.items() for name in spec.params]
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6), st.integers(-10 ** 6, 10 ** 6),
    st.sampled_from([10 ** 400, 10 ** 30, 2 ** 63, -2 ** 63, -1, 0]), st.floats())
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3),
                        st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(slot=st.sampled_from(CONFIG_SLOTS), value=JSON_VALUES)
@example(slot=(None, "samples"), value=10 ** 400)      # OverflowError at the point cap
@example(slot=("char_gap", "n_theta"), value=10 ** 30)  # ValueError from np.linspace
@example(slot=("char_gap", "n_theta"), value=2 ** 63)   # IndexError: an empty theta grid
@example(slot=("projection", "y"), value=1e16)          # ValueError: (y - 1, y] empty
@example(slot=("tail", "k_outer"), value=1e308)         # overflow in the gaussian profile
@example(slot=("char_gap", "theta_max"), value=1e308)   # overflow in np.linspace
@example(slot=("tail", "k_outer"), value=1.1984620899082105e308)  # overflow in a panel's midpoint
def test_report_config_fuzz_exit_code(slot, value):
    # one value of the bundled config replaced: the config is run, or refused with
    # exit 2 and an error line, never a traceback or a RuntimeWarning (CI runs the
    # report under -W error::RuntimeWarning); nothing samples
    kind, key = slot
    raw = _bundled_raw()
    target = raw if kind is None else next(c for c in raw["checks"] if c["kind"] == kind)
    target[key] = value
    accepted = []

    def no_sampling(config, keep_samples=False):
        accepted.append(config)
        return ExperimentReport((), config.seed, "0", 0.0)
    err = io.StringIO()
    with mock.patch.object(levynoise.cli, "run", no_sampling), redirect_stderr(err), \
            redirect_stdout(io.StringIO()):
        code = main(["report", "--config", json.dumps(raw)])
    assert code == (0 if accepted else 2), err.getvalue()
    if not accepted:
        assert "error:" in err.getvalue() and "Traceback" not in err.getvalue()


# the README's command lines, flag by flag (--out left out: a drawn path would be written)
README_FLAGS = {
    "simulate": {"--measure": '{"atoms": [[1, 1.0]]}', "--window": "2", "--samples": "10000",
                 "--seed": "7", "--sets": "0,1;-1,0"},
    "moments": {"--measure": '{"atoms": [[1, 1.0]]}',
                "--phi": '{"breakpoints": [0, 1], "values": [1]}', "--p": "6"},
}
FLAG_SLOTS = [(command, flag) for command, flags in README_FLAGS.items() for flag in flags]
FLAG_VALUES = st.one_of(
    st.text(max_size=8),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from([10 ** 400, 10 ** 30, 2 ** 63, -2 ** 63, -1, 0, 1, 65]).map(str),
    st.floats().map(repr),
    JSON_VALUES.map(json.dumps))


def _flags_exit_code(command, flags):
    """Run ``command`` with ``flags``: exit 0, or exit 2 with an error line, never a
    traceback.  simulate draws at most 4 realizations behind the real point cap, and
    a check command runs no check, so check_config alone decides its exit code."""
    argv = [command] + [f"{flag}={value}" for flag, value in flags.items()]
    real = levynoise.prm.sample_chunks

    def tiny(model, n, rng, window):
        levynoise.prm._check_point_count(levynoise.prm.expected_points(model, n, window), n)
        return real(model, min(n, 4), rng, window=window)

    def no_checks(config, keep_samples=False):
        return ExperimentReport((), config.seed, "0", 0.0)
    err = io.StringIO()
    with mock.patch.object(levynoise.cli, "sample_chunks", tiny), \
            mock.patch.object(levynoise.cli, "run", no_checks), redirect_stderr(err), \
            redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a value its type does not take
            code = exc.code
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue() and "Traceback" not in err.getvalue()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(slot=st.sampled_from(FLAG_SLOTS), value=FLAG_VALUES)
@example(slot=("simulate", "--samples"), value=str(10 ** 400))  # OverflowError at the point cap
def test_simulate_and_moments_flag_fuzz_exit_code(slot, value):
    # one flag value of a README command line replaced
    command, flag = slot
    _flags_exit_code(command, {**README_FLAGS[command], flag: value})


# the check commands' flags (--out and --dump-samples left out: a drawn path would be written)
CHECK_FLAGS = {"--config": json.dumps(_bundled_raw()), "--seed": "7", "--samples": "2000",
               "--format": "json"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(["verify-bounds", "convolution", "malliavin-check"]),
       flag=st.sampled_from(sorted(CHECK_FLAGS)), value=FLAG_VALUES)
def test_check_command_flag_fuzz_exit_code(command, flag, value):
    # one flag value of a check command replaced
    _flags_exit_code(command, {**CHECK_FLAGS, flag: value})


HUGE_INT = "1" * 5000  # past Python's 4300-digit limit on int parsing


@pytest.mark.parametrize("argv", [
    ("report", "--config", '{"measure": {"atoms": [[1, 1.0]]}, "seed": %s}' % HUGE_INT),
    ("simulate", "--measure", '{"atoms": [[1, %s]]}' % HUGE_INT),
    ("moments", "--measure", MEASURE, "--p", "4",
     "--phi", '{"breakpoints": [0, 1], "values": [%s]}' % HUGE_INT),
], ids=["config", "measure", "phi"])
def test_unparseable_json_int_exit_code(capsys, argv):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "4300" in err and "Traceback" not in err


@pytest.mark.parametrize("overrides", [
    {"sample": 2000},
    {"samples": 2000.9},
    {"samples": "2000"},
    {"seed": 3.7},
    {"seed": True},
    {"se_multiplier": "3"},
    {"checks": {"kind": "moment_mc", "p": 2}},
], ids=["misspelled_key", "fractional_samples", "text_samples", "fractional_seed",
        "bool_seed", "text_multiplier", "checks_not_list"])
def test_bad_top_level_keys_exit_code(tmp_path, monkeypatch, capsys, overrides):
    def no_run(*args, **kwargs):
        raise AssertionError("the config was accepted and run")
    monkeypatch.setattr(levynoise.cli, "run", no_run)
    cfg = {"measure": {"atoms": [[1.0, 1.0]]}, "samples": 2000, "seed": 4, "checks": []}
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("report", "--config", str(path)) == 2
    assert next(iter(overrides)) in capsys.readouterr().err


def test_window_key_accepted_and_integer_valued_numbers_parsed():
    cfg = parse_config({"measure": {"atoms": [[1.0, 1.0]]}, "window": 4.0,
                        "samples": 2000.0, "seed": 3, "se_multiplier": 4})
    assert (cfg.samples, cfg.seed, cfg.se_multiplier) == (2000, 3, 4.0)
    assert type(cfg.samples) is int


@pytest.mark.parametrize("density", [
    {**DENSITY, "alpha": "1.5"}, {**DENSITY, "alpha": [1.5]}, {**DENSITY, "eps": None},
    {**DENSITY, "z_max": float("inf")}, {**DENSITY, "z_max": 10 ** 400}, {**DENSITY, "scale": True},
    {**DENSITY, "scale": -1.0}, {**DENSITY, "shape": 2.0},
    {key: v for key, v in DENSITY.items() if key != "alpha"},
], ids=["text_alpha", "list_alpha", "null_eps", "infinite_z_max", "huge_z_max", "bool_scale",
        "negative_scale", "unknown_field", "missing_alpha"])
def test_bad_density_fields_exit_code(tmp_path, monkeypatch, capsys, density):
    _no_sampling(monkeypatch)
    assert _report_rejects(tmp_path, monkeypatch, density, {"kind": "moment_mc", "p": 2}) == 2
    assert run_cli("simulate", "--measure", json.dumps(density)) == 2
    assert run_cli("moments", "--measure", json.dumps(density),
                   "--phi", '{"breakpoints": [0, 1], "values": [1]}', "--p", "4") == 2
    err = capsys.readouterr().err
    assert err.count("symmetric_power_law") + err.count("scale") >= 3, err
    assert "Traceback" not in err


@pytest.mark.parametrize("measure", [
    {"atoms": 5}, {"atoms": [[1]]}, {"atoms": [[1, 1, 2]]}, {"atoms": [["a", 1]]}, [1, 2], None,
    {"atoms": [[True, 1]]}, {"atoms": [[1, 1]], "scale": 2}, {"atoms": [[10 ** 400, 1]]},
    {"atoms": [[1e200, 1]]}, {"atoms": [[1, 1e308], [2, 1e308]]},
    {"atoms": [[1, 1.0], [-1, 0.5], [1.0, 2.0]]},
], ids=["atoms_not_list", "one_entry", "three_entries", "text_jump", "pairs_not_lists", "null",
        "bool_jump", "extra_key", "huge_jump", "second_moment_past_float_range",
        "total_mass_past_float_range", "repeated_jump_size"])
def test_bad_atoms_exit_code(tmp_path, monkeypatch, capsys, measure):
    _no_sampling(monkeypatch)
    assert _report_rejects(tmp_path, monkeypatch, measure, {"kind": "moment_mc", "p": 2}) == 2
    assert run_cli("simulate", "--measure", json.dumps(measure)) == 2
    assert run_cli("moments", "--measure", json.dumps(measure),
                   "--phi", '{"breakpoints": [0, 1], "values": [1]}', "--p", "4") == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 3 and "Traceback" not in err


def test_repeated_jump_sizes_exit_code(capsys):
    # marks select by jump size, so two atoms of one size are refused, named, with a fix
    assert run_cli("moments", "--measure", '{"atoms": [[1.0, 1.0], [-1.0, 0.5], [1.0, 2.0]]}',
                   "--phi", '{"breakpoints": [0, 1], "values": [1]}', "--p", "4") == 2
    err = capsys.readouterr().err
    assert "atoms repeat the jump size 1.0: merge them into one atom of the summed mass" in err
    assert "Traceback" not in err, err


@pytest.mark.parametrize("kind", ["moment_mc", "integral_moment_bound", "convolution_bound",
                                  "interpolation"])
def test_moment_past_the_float_range_exit_code(tmp_path, capsys, kind):
    # m_4 of an atom at 1e100 is exact, but 1e400 has no float
    measure = '{"atoms": [[1e100, 1]]}'
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"measure": json.loads(measure), "samples": 2000,
                                "checks": [{"kind": kind, "p": 4}]}))
    assert run_cli("report", "--config", str(path)) == 2
    assert run_cli("moments", "--measure", measure,
                   "--phi", '{"breakpoints": [0, 1], "values": [1]}', "--p", "4") == 2
    err = capsys.readouterr().err
    assert err.count("p = 4 is past the float range") == 2 and "Traceback" not in err, err


def test_density_moment_past_the_float_range_exit_code(capsys):
    # every cumulant is a float in range, but kappa_4 + 3 kappa_2^2 (kappa_2 near 1e301) is not
    measure = json.dumps({**DENSITY, "scale": 1e300})
    assert run_cli("moments", "--measure", measure,
                   "--phi", '{"breakpoints": [0, 1], "values": [1]}', "--p", "4") == 2
    err = capsys.readouterr().err
    assert "p = 4 is past the float range" in err and "Traceback" not in err, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("measure, theta_max", [
    ({"atoms": [[1.0, 1.0]]}, 1e308),           # the grid's span 2 theta_max overflows
    ({"atoms": [[1.0, 1.0], [-1e10, 2.0]]}, 1e300),  # theta z overflows at z = -1e10
    (DENSITY, 1e308),
    (DENSITY, 5e307),                           # theta z overflows at z_max = 4
    ({"atoms": [[1.0, 1000.0]]}, 1e306),        # theta |A| m_1 overflows at m_1 = 1000
], ids=["atom_grid", "atom_theta_z", "density_grid", "density_theta_z", "atom_theta_A_m1"])
def test_char_gap_theta_max_past_the_float_range_exit_code(capsys, measure, theta_max):
    # refused while the config is checked: no draw, no math domain error, no NaN gate
    config = {"measure": measure, "checks": [{"kind": "char_gap", "theta_max": theta_max}]}
    with mock.patch.object(levynoise.prm, "simulate") as simulate:
        assert run_cli("report", "--config", json.dumps(config)) == 2
    err = capsys.readouterr().err
    assert "char_gap: theta_max:" in err and "Traceback" not in err, err
    assert not simulate.called


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_char_gap_theta_times_drawn_L_past_the_float_range_exit_code(capsys):
    # theta_max z is in range at z = 1, so the config passes; theta_max L(A) is not once a
    # draw reaches L(A) = 4: refused after the draw, before any exponential or NaN statistic
    config = {"measure": {"atoms": [[1.0, 1.0]]},
              "checks": [{"kind": "char_gap", "theta_max": 5e307}]}
    assert run_cli("report", "--config", json.dumps(config)) == 2
    err = capsys.readouterr().err
    assert "char_gap: theta_max: 5e+307 times the largest |L(A)| drawn" in err, err
    assert "Traceback" not in err and "NaN" not in err, err


def test_density_signed_moment_past_the_float_range_exit_code(capsys):
    # z^52 at z_max = 1e6 is past the float range: a moment error, not a failed quadrature
    measure = json.dumps({**DENSITY, "z_max": 1e6})
    assert run_cli("moments", "--measure", measure,
                   "--phi", '{"breakpoints": [0, 1], "values": [1]}', "--p", "64") == 2
    err = capsys.readouterr().err
    assert "mt_52 is past the float range" in err, err
    assert "Traceback" not in err and "did not converge" not in err and "Warning" not in err


@pytest.mark.parametrize("mass", [1e300, 1e15])
def test_simulate_point_count_past_the_cap_exit_code(capsys, mass):
    # refused before the Poisson draw, which fails on 1e300 and cannot be held at 1e15
    assert run_cli("simulate", "--measure", json.dumps({"atoms": [[1, mass]]}),
                   "--samples", "10") == 2
    err = capsys.readouterr().err
    assert "past the cap" in err and "Traceback" not in err, err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_stdout_equals_out_file(tmp_path, capsys, fmt):
    out = tmp_path / f"report.{fmt}"
    argv = ("report", "--samples", "2000", "--seed", "9", "--format", fmt)
    assert run_cli(*argv, "--out", str(out)) == 0
    assert run_cli(*argv) == 0
    printed, written = capsys.readouterr().out, out.read_bytes().decode()
    if fmt == "json":  # the two runs differ in their wall time only
        printed, written = (re.sub(r'"wall_time_s": [^,\n]*', "", text)
                            for text in (printed, written))
    else:
        assert printed.startswith("name,kind,label,")
    assert printed == written


def test_linear_bound_past_the_float_range_passes(tmp_path, capsys):
    # both sides are exact: E[L^4] = 1e400 + 3e400 against C* (1e400 + 1e400)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"measure": {"atoms": [[1e100, 1]]}, "samples": 2000,
                                "checks": [{"kind": "linear_moment_bound", "p": 4}]}))
    assert run_cli("report", "--strict", "--config", str(path)) == 0
    gate = json.loads(capsys.readouterr().out)["checks"][0]["gates"][0]
    assert gate["statistic"] == gate["target"] == float("inf") and gate["passed"]


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--format"), ("simulate", "--strict"), ("simulate", "--dump-samples"),
    ("moments", "--format"), ("moments", "--strict"), ("moments", "--dump-samples"),
    ("moments", "--config"), ("moments", "--seed"), ("moments", "--samples"),
])
def test_unread_flags_exit_code(tmp_path, capsys, command, flag):
    # flags that a subcommand would ignore are usage errors
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"measure": {"atoms": [[1.0, 1.0]]}}))
    value = {"--format": ["csv"], "--strict": [], "--dump-samples": [str(tmp_path / "d.csv")],
             "--config": [str(config)], "--seed": ["3"], "--samples": ["2000"]}[flag]
    args = {"simulate": ["--measure", MEASURE, "--samples", "10"],
            "moments": ["--measure", MEASURE, "--phi", '{"breakpoints": [0, 1], "values": [1]}',
                        "--p", "4"]}[command]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *args, "--out", str(tmp_path / "out"), flag, *value)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_readme_flags_match_parser():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text[text.index("Flags by subcommand"):]
    documented = {}
    for item in section[:section.index("\n\n", section.index("\n- "))].split("\n- ")[1:]:
        commands, flags = item.split(":", 1)
        for command in re.findall(r"`([\w-]+)`", commands):
            documented[command] = re.findall(r"`(--[\w-]+)", flags)
    sub = next(a for a in levynoise.cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    declared = {command: [flag for action in parser._actions
                          for flag in action.option_strings if flag != "--help"
                          and flag.startswith("--")]
                for command, parser in sub.choices.items()}
    assert documented == declared


@pytest.mark.parametrize("check", [
    {"kind": "moment_mc", "p": 4.0},
    {"kind": "convolution_bound", "field": "separable_clamped", "x": 0.5},
    {"kind": "convolution_bound", "kernel": "heat", "t": 0.5},
    {"kind": "mean_zero", "process": {"breakpoints": [0, 1],
                                      "coefficients": [{"type": "const", "value": 2}]}},
    {"kind": "tail", "schedule": [0.0, 5.5], "k_outer": 6, "se_multiplier": 5},
    {"kind": "interpolation", "p": 16, "name": "high_p"},
    {"kind": "linear_moment_bound", "p": 16},
    {"kind": "moment_mc", "p": 64},
    {"kind": "interpolation", "p": 64},
], ids=["integer_valued_float_p", "field_meets_kernel", "heat_p2", "inline_process",
        "tail_edges", "interpolation_past_partition_cap", "linear_past_partition_cap",
        "moment_mc_at_order_cap", "interpolation_at_order_cap"])
def test_edge_parameters_accepted(check):
    parse_config({"measure": {"atoms": [[1.0, 1.0]]}, "checks": [check]})

def test_strict_failure_exit_code(tmp_path):
    # an impossible statistical target must fail under --strict
    cfg = {
        "measure": {"atoms": [[1.0, 1.0]]},
        "samples": 2000,
        "seed": 4,
        "checks": [{"kind": "char_gap", "set": [0.0, 1.0],
                    "threshold_scale": 0.0}],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("report", "--config", str(path), "--strict") == 1
    assert run_cli("report", "--config", str(path)) == 0  # non-strict still 0


def test_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "levynoise.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_dump_samples_flag(tmp_path):
    cfg = {
        "measure": {"atoms": [[1.0, 1.0]]},
        "samples": 2000,
        "seed": 4,
        "checks": [{"kind": "moment_mc", "p": 2, "set": [0.0, 1.0]}],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    dump = tmp_path / "samples.csv"
    out = tmp_path / "r.json"
    assert run_cli("report", "--config", str(path), "--out", str(out),
                   "--dump-samples", str(dump)) == 0
    assert dump.exists()
    assert len(dump.read_text().strip().splitlines()) == 1 + 2000


def _no_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("work ran before the output path was checked")
    for name in ("run", "sample_chunks", "step_functional_cumulants"):
        monkeypatch.setattr(levynoise.cli, name, fail)


def _unwritable_path(tmp_path, where):
    return {"missing_directory": tmp_path / "missing" / "x.out",
            "a_directory": tmp_path,
            "name_too_long": tmp_path / ("x" * 300)}[where]


@pytest.mark.parametrize("where", ["missing_directory", "a_directory", "name_too_long"])
@pytest.mark.parametrize("argv", [
    ("moments", "--measure", MEASURE, "--phi", '{"breakpoints": [0, 1], "values": [1]}',
     "--p", "4"),
    ("simulate", "--measure", MEASURE, "--samples", "10"),
    ("report",),
    ("verify-bounds", "--format", "csv"),
], ids=["moments", "simulate", "report", "verify_bounds"])
def test_unwritable_out_exit_code(tmp_path, monkeypatch, capsys, argv, where):
    # refused with exit 2 before any check, sampling or moment runs
    _no_work(monkeypatch)
    assert run_cli(*argv, "--out", str(_unwritable_path(tmp_path, where))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: cannot write") and "Traceback" not in err, err


@pytest.mark.parametrize("where", ["missing_directory", "a_directory", "name_too_long"])
def test_unwritable_dump_samples_exit_code(tmp_path, monkeypatch, capsys, where):
    _no_work(monkeypatch)
    out = tmp_path / "report.json"
    assert run_cli("report", "--out", str(out),
                   "--dump-samples", str(_unwritable_path(tmp_path, where))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --dump-samples: cannot write") and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("report", "--config", "CFG", "--dump-samples", "DUMP"),
    ("moments", "--measure", MEASURE, "--phi", '{"breakpoints": [1, 0], "values": [1]}',
     "--p", "4"),
], ids=["report_bad_check", "moments_bad_phi"])
def test_rejected_input_leaves_existing_outputs(tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": {"atoms": [[1.0, 1.0]]},
                               "checks": [{"kind": "moment_mc", "p": 1}]}))
    out, dump = tmp_path / "out.json", tmp_path / "dump.csv"
    for path in (out, dump):
        path.write_text("kept\n")
    argv = [{"CFG": str(cfg), "DUMP": str(dump)}.get(a, a) for a in argv]
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert out.read_text() == dump.read_text() == "kept\n"
