"""Snapshot of the reports: the bundled config and the density config.

Every Monte Carlo check draws, evaluates, reduces and gates; the last
bits of each reported float depend on which stream a check keys, which
numbers it draws and in what order it sums them.  This file pins the
SHA-256 of four outputs: the bundled report as JSON (wall time zeroed)
and as CSV, the raw samples that ``--dump-samples`` writes for it, and
the JSON report of the density config below.  The digests were taken
before the checks' sample-evaluate-gate sequences became one loop and
must not change with it.
"""

import hashlib
import io
import json

import pytest

from levynoise.harness import (
    default_verification_config,
    parse_config,
    report_to_dict,
    run,
    write_report,
    write_samples_csv,
)

BUNDLED_JSON_SHA256 = "90f12f50769032c60e9bf60ca1c8bbf5a583a831208b792f1896f8615cdbc6b2"
BUNDLED_CSV_SHA256 = "8e58f1b18a194136a01c673943f33ebc441048573c09563ed2d3544603737504"
BUNDLED_SAMPLES_SHA256 = "5ea2d91aaff7c6602a08d11145f390e45f6687cbd669ff8ba2baf3469488c232"
DENSITY_JSON_SHA256 = "00d630ee51c86d6163c8b52fbff797025c6eb2b428a8bf56a4860505e1eafdc6"

DENSITY_MEASURE = {"family": "symmetric_power_law", "alpha": 1.5, "eps": 0.25, "z_max": 4.0}
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_digest(report) -> str:
    data = report_to_dict(report)
    data["environment"]["wall_time_s"] = 0.0
    return _sha256(json.dumps(data, indent=2, sort_keys=True).encode())


@pytest.fixture(scope="module")
def bundled():
    return run(default_verification_config(), keep_samples=True)


def test_bundled_report_json(bundled):
    assert _json_digest(bundled) == BUNDLED_JSON_SHA256


def test_bundled_report_csv(bundled):
    out = io.StringIO(newline="")
    write_report(bundled, "csv", out)
    assert _sha256(out.getvalue().encode()) == BUNDLED_CSV_SHA256


def test_bundled_samples_csv(bundled, tmp_path):
    path = tmp_path / "samples.csv"
    write_samples_csv(bundled, path)
    assert _sha256(path.read_bytes()) == BUNDLED_SAMPLES_SHA256


def test_density_report_json():
    config = parse_config({"measure": DENSITY_MEASURE, "samples": 50_000, "seed": 20_260_809,
                           "checks": list(DENSITY_CHECKS)})
    assert _json_digest(run(config)) == DENSITY_JSON_SHA256
