import csv
import json
import subprocess
import sys

import pytest

from levynoise.cli import main

MEASURE = '{"atoms": [[1.0, 1.0]]}'


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
