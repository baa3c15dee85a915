import io
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from levynoise import (
    default_verification_config,
    mc_mean_test,
    parse_config,
    report_to_json,
    run,
    write_report,
)
from levynoise.errors import (ConfigError, DegenerateVarianceError, PointCountError,
                              UnknownCheckError)
from levynoise.harness import CHECK_RUNNERS, write_samples_csv
from levynoise.prm import _mark_table
from levynoise.rng import derive_seed


BASE = {
    "measure": {"atoms": [[1.0, 1.0]]},
    "window": 2.0,
    "samples": 2000,
    "seed": 11,
    "checks": [],
}


def cfg(**overrides):
    raw = dict(BASE)
    raw.update(overrides)
    return parse_config(raw)


def test_parse_minimal():
    c = cfg()
    assert c.samples == 2000 and c.se_multiplier == 3.0


def test_parse_rejects_small_sample_count():
    with pytest.raises(ConfigError):
        cfg(samples=10)


def test_parse_rejects_small_multiplier():
    with pytest.raises(ConfigError):
        cfg(se_multiplier=0.5)


def test_parse_rejects_realizations_past_the_cap():
    # one expected point, but 8 TB of Poisson counts: refused with nothing drawn
    with pytest.raises(PointCountError, match="1e\\+12 realizations is past the cap"):
        parse_config({"measure": {"atoms": [[1.0, 1e-12]]}, "samples": 1e12,
                      "checks": [{"kind": "moment_mc", "p": 2}]})


def test_parse_rejects_unknown_check():
    with pytest.raises(UnknownCheckError):
        cfg(checks=[{"kind": "nope"}])


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config(12)
    with pytest.raises(ConfigError):
        cfg(checks=["moment_mc"])


def test_mc_mean_test_constant_on_target():
    est, se, z, passed = mc_mean_test(np.full(2000, 3.0), 3.0)
    assert (est, se, z, passed) == (3.0, 0.0, 0.0, True)


def test_mc_mean_test_degenerate():
    with pytest.raises(DegenerateVarianceError):
        mc_mean_test(np.full(2000, 3.0), 2.0)


def test_mc_mean_test_mean_zero_property():
    rng = np.random.default_rng(0)
    est, se, z, passed = mc_mean_test(rng.normal(0, 1, 10_000), 0.0)
    assert passed and abs(z) <= 3


def test_empty_check_list_passes():
    report = run(cfg())
    assert report.passed and len(report.checks) == 0


def test_char_gap_at_zero_theta():
    report = run(cfg(checks=[{"kind": "char_gap", "set": [0.0, 1.0],
                              "n_theta": 1, "theta_max": 0.0}]))
    assert report.checks[0].estimate == pytest.approx(0.0, abs=1e-12)
    assert report.passed


def test_moment_check_hits_exact_target():
    report = run(cfg(samples=100_000,
                     checks=[{"kind": "moment_mc", "p": 6, "set": [0.0, 1.0]}]))
    c = report.checks[0]
    assert c.gates[0].target == 41.0  # exact sixth moment for the unit-atom measure
    assert c.passed


def test_reports_are_reproducible(tmp_path):
    config = default_verification_config(seed=5, samples=2000)
    r1, r2 = run(config), run(config)
    d1, d2 = json.loads(report_to_json(r1)), json.loads(report_to_json(r2))
    d1["environment"]["wall_time_s"] = d2["environment"]["wall_time_s"] = 0.0
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


NUMERIC_GATE_FIELDS = ("statistic", "target", "se", "multiplier", "tolerance", "margin")


def test_json_round_trip_full_precision():
    config = default_verification_config(seed=6, samples=2000)
    report = run(config)
    out = io.StringIO()
    write_report(report, "json", out)
    loaded = json.loads(out.getvalue())
    for c_obj, c in zip(loaded["checks"], report.checks, strict=True):
        for g_obj, g in zip(c_obj["gates"], c.gates, strict=True):
            for key in NUMERIC_GATE_FIELDS:
                assert g_obj[key] == float(getattr(g, key))  # repr round-trip is exact


def test_csv_round_trip_z_scores():
    config = default_verification_config(seed=7, samples=2000)
    report = run(config)
    out = io.StringIO()
    write_report(report, "csv", out)
    import csv as csvmod
    out.seek(0)
    rows = list(csvmod.DictReader(out))
    gates = [(c, g) for c in report.checks for g in c.gates]
    for row, (c, g) in zip(rows, gates, strict=True):
        assert (row["name"], row["label"], row["side"]) == (c.name, g.label, g.side)
        for key in NUMERIC_GATE_FIELDS:
            assert float(row[key]) == float(getattr(g, key))
        assert row["passed"] == str(g.passed)


DENSITY_CONFIG = {  # the density_quad benchmark workload's measure and checks
    "measure": {"family": "symmetric_power_law", "alpha": 1.5, "eps": 0.25, "z_max": 4.0},
    "samples": 50_000, "seed": 20_260_809,
    "checks": [{"kind": "moment_mc", "p": 2}, {"kind": "moment_mc", "p": 4},
               {"kind": "char_gap"}, {"kind": "mean_zero", "process": "clamped_left"},
               {"kind": "isometry", "process": "two_block"},
               {"kind": "martingale", "process": "two_block"},
               {"kind": "linear_moment_bound", "p": 4}, {"kind": "interpolation", "p": 6},
               {"kind": "integral_moment_bound", "process": "det_step", "p": 4},
               {"kind": "convolution_bound", "kernel": "heat", "field": "unit", "p": 2},
               {"kind": "tail", "schedule": [1.0, 2.0], "k_outer": 6.0}],
}


@pytest.mark.parametrize("make_config", [default_verification_config,
                                         lambda: parse_config(DENSITY_CONFIG)],
                         ids=["bundled", "density_quad"])
def test_verdicts_follow_from_gate_fields(make_config):
    report = json.loads(report_to_json(run(make_config())))
    for check in report["checks"]:
        assert check["gates"], check["name"]
        for g in check["gates"]:
            s, t = g["statistic"], g["target"]
            margin = g["multiplier"] * g["se"] + g["tolerance"] * abs(t)
            assert g["margin"] == margin
            assert g["passed"] == {"two": abs(s - t) <= margin, "upper": s <= t + margin,
                                   "lower": s >= t - margin}[g["side"]], (check["name"], g)
        assert check["passed"] == all(g["passed"] for g in check["gates"])
    assert report["passed"] == all(c["passed"] for c in report["checks"])


def test_exact_gate_past_the_float_range_reports_infinity():
    # m_14^12 of an atom at 1e10 is an exact Fraction near 1e1680
    report = run(cfg(measure={"atoms": [[1e10, 1.0]]},
                     checks=[{"kind": "interpolation", "p": 14}]))
    last = json.loads(report_to_json(report))["checks"][0]["gates"][-1]
    assert last["statistic"] == last["target"] == float("inf")
    assert report.passed


def test_unknown_format_rejected(tmp_path):
    report = run(cfg())
    with pytest.raises(ConfigError):
        write_report(report, "yaml", tmp_path / "r.out")


def test_samples_dump(tmp_path):
    config = cfg(checks=[{"kind": "moment_mc", "p": 2, "set": [0.0, 1.0]}])
    report = run(config, keep_samples=True)
    path = tmp_path / "samples.csv"
    write_samples_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 2000


def test_default_suite_passes():
    report = run(default_verification_config(samples=5000))
    failed = [c.name for c in report.checks if not c.passed]
    assert report.passed, failed
    kinds = {c.kind for c in report.checks}
    assert len(kinds) >= 15  # every family is represented


def test_runners_take_raw_checks():
    # the benchmark's traced path calls each runner with a raw check dict
    config = default_verification_config(samples=1000)
    model = config.model()
    report = run(config, keep_samples=True)
    for index, check in enumerate(config.checks):
        res = CHECK_RUNNERS[check["kind"]](model, config, check,
                                           derive_seed(config.seed, index))
        expected = report.checks[index]
        assert replace(res, samples=None) == replace(expected, samples=None), check
        assert (res.samples is None) == (expected.samples is None)
        if res.samples is not None:
            assert np.array_equal(res.samples, expected.samples)


def test_check_name_overrides_default():
    report = run(cfg(checks=[{"kind": "interpolation", "p": 4, "name": "interp"},
                             {"kind": "interpolation", "p": 4}]))
    assert [c.name for c in report.checks] == ["interp", "interpolation_p4"]


def test_density_runs_share_one_model():
    density = {"family": "symmetric_power_law", "alpha": 1.5, "eps": 0.25, "z_max": 4.0}
    raw = {"measure": density, "samples": 1000, "seed": 3,
           "checks": [{"kind": "moment_mc", "p": 2}]}
    before = _mark_table.cache_info().currsize
    for _ in range(4):
        run(parse_config(raw))
    assert _mark_table.cache_info().currsize <= before + 1


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_section(title: str) -> str:
    text = README.read_text()
    start = text.index(title)
    return text[start:text.index("\n## ", start)]


def test_readme_config_schema_parses():
    section = _readme_section("### Config schema")
    block = section[section.index("```json") + len("```json"):]
    config = parse_config(json.loads(block[:block.index("```")]))
    assert config.checks


def test_readme_check_table_matches_declarations():
    rows = [line.split(" | ") for line in _readme_section("### Check kinds").splitlines()
            if line.startswith("| `")]
    documented = {}
    for kind, family, params, atomic in rows:
        names = [re.match(r"`(\w+)`", item).group(1) for item in params.split("; ")]
        documented[kind.strip("| `")] = (family.strip("`"), names, atomic.strip(" |"))
    declared = {kind: (spec.family or "—", list(spec.params),
                       "yes" if spec.atomic_only else "no")
                for kind, spec in CHECK_RUNNERS.items()}
    assert documented == declared
