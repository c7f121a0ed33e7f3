"""Unit tests: the ``repro-bench`` regression harness.

Covers the report schema validator, the baseline comparator's three gating
kinds (exact / relative / info), and the runner's exit codes — including
the acceptance scenario: a degraded report exits non-zero against the
committed baseline while the true run exits 0.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro import obs
from repro.bench import (
    SCHEMA_VERSION,
    Metric,
    build_report,
    compare_reports,
    get_suite,
    suite_names,
    validate_report,
)
from repro.bench import runner
from repro.bench.runner import main

BASELINE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "baseline.json"


@pytest.fixture(autouse=True)
def _obs_reset():
    """Suite benchmarks toggle observability; leave nothing behind."""
    obs.disable()
    yield
    obs.disable()


@pytest.fixture(scope="module")
def report():
    """One full smoke-suite run, shared across this module's tests."""
    built = build_report("smoke")
    obs.disable()
    return built


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def pinned(report, baseline):
    """The live report with every ``relative`` metric at its baseline value.

    The relative gates include timing ratios (``obs_overhead`` and the
    other overhead benchmarks) that a neighbour taking the CPU during one
    side's repetitions can push outside tolerance.  The tests that degrade
    or re-gate a report work on this copy, so they test the comparator and
    the runner; of this module's tests, only the true-run comparator test
    gates the live ratios.
    """
    pinned = copy.deepcopy(report)
    expected = {
        bench["name"]: bench["metrics"] for bench in baseline["benchmarks"]
    }
    for bench in pinned["benchmarks"]:
        for name, metric in bench["metrics"].items():
            base = expected.get(bench["name"], {}).get(name)
            if base is not None and base["kind"] == "relative":
                metric["value"] = base["value"]
    return pinned


class TestSuiteDeclaration:
    def test_smoke_suite_is_declared(self):
        assert "smoke" in suite_names()
        specs = get_suite("smoke")
        assert {spec.name for spec in specs} >= {
            "recommend_strategies", "association_spaces",
            "evaluation_protocol", "obs_overhead",
        }

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            get_suite("nope")

    def test_metric_dataclass_serializes(self):
        metric = Metric(value=3.0, kind="relative", tolerance=0.1)
        assert metric.to_dict() == {
            "value": 3.0, "kind": "relative", "tolerance": 0.1,
        }


class TestReportSchema:
    def test_fresh_report_is_schema_valid(self, report):
        assert validate_report(report) == []
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["suite"] == "smoke"
        assert set(report["environment"]) == {
            "python", "platform", "implementation",
        }

    def test_committed_baseline_is_schema_valid(self, baseline):
        assert validate_report(baseline) == []

    def test_non_object_rejected(self):
        assert validate_report([]) != []
        assert validate_report(None) != []

    def test_missing_fields_reported(self):
        problems = validate_report({"schema_version": SCHEMA_VERSION})
        assert any("suite" in p for p in problems)
        assert any("benchmarks" in p for p in problems)

    def test_bool_is_not_a_metric_value(self, report):
        degraded = copy.deepcopy(report)
        degraded["benchmarks"][0]["metrics"]["wall_seconds"]["value"] = True
        assert any("value" in p for p in validate_report(degraded))

    def test_bad_kind_and_negative_tolerance_reported(self, report):
        degraded = copy.deepcopy(report)
        metrics = degraded["benchmarks"][0]["metrics"]
        name = next(iter(metrics))
        metrics[name]["kind"] = "fuzzy"
        problems = validate_report(degraded)
        assert any("kind" in p for p in problems)
        degraded = copy.deepcopy(report)
        metrics = degraded["benchmarks"][0]["metrics"]
        metrics[next(iter(metrics))]["tolerance"] = -0.5
        assert any("tolerance" in p for p in validate_report(degraded))

    def test_duplicate_benchmark_names_reported(self, report):
        degraded = copy.deepcopy(report)
        degraded["benchmarks"].append(degraded["benchmarks"][0])
        assert any("duplicate" in p for p in validate_report(degraded))


class TestComparator:
    def test_true_run_gates_clean_against_committed_baseline(
        self, report, baseline
    ):
        assert compare_reports(report, baseline) == []

    def test_exact_drift_is_a_regression(self, pinned, baseline):
        degraded = copy.deepcopy(pinned)
        metrics = {
            bench["name"]: bench["metrics"]
            for bench in degraded["benchmarks"]
        }
        metrics["recommend_strategies"]["breadth_checksum"]["value"] += 1
        regressions = compare_reports(degraded, baseline)
        assert len(regressions) == 1
        assert "breadth_checksum" in regressions[0]
        assert "expected exactly" in regressions[0]

    def test_relative_drift_outside_tolerance_is_a_regression(
        self, pinned, baseline
    ):
        degraded = copy.deepcopy(pinned)
        metrics = {
            bench["name"]: bench["metrics"]
            for bench in degraded["benchmarks"]
        }
        entry = metrics["evaluation_protocol"]["breadth_avg_tpr"]
        entry["value"] = entry["value"] * 2  # far beyond the 1e-6 band
        regressions = compare_reports(degraded, baseline)
        assert len(regressions) == 1
        assert "drifted" in regressions[0]

    def test_info_metrics_are_never_gated(self, pinned, baseline):
        degraded = copy.deepcopy(pinned)
        for bench in degraded["benchmarks"]:
            for metric in bench["metrics"].values():
                if metric["kind"] == "info":
                    metric["value"] = 1e9
        assert compare_reports(degraded, baseline) == []

    def test_missing_benchmark_and_metric_are_regressions(
        self, pinned, baseline
    ):
        degraded = copy.deepcopy(pinned)
        degraded["benchmarks"] = [
            bench for bench in degraded["benchmarks"]
            if bench["name"] != "association_spaces"
        ]
        del degraded["benchmarks"][0]["metrics"][
            next(iter(degraded["benchmarks"][0]["metrics"]))
        ]
        regressions = compare_reports(degraded, baseline)
        assert any("benchmark missing" in r for r in regressions)
        assert any("metric missing" in r for r in regressions)

    def test_extra_benchmarks_in_report_are_not_gated(self, pinned, baseline):
        extended = copy.deepcopy(pinned)
        extended["benchmarks"].append(
            {"name": "new_bench", "description": "added after baseline",
             "metrics": {"x": {"value": 1.0, "kind": "exact",
                               "tolerance": 0.0}}}
        )
        assert compare_reports(extended, baseline) == []

    def test_suite_mismatch_short_circuits(self, pinned, baseline):
        other = copy.deepcopy(pinned)
        other["suite"] = "nightly"
        regressions = compare_reports(other, baseline)
        assert regressions == [
            "suite mismatch: report ran 'nightly', baseline is 'smoke'"
        ]


class TestRunnerExitCodes:
    def test_check_true_report_exits_zero(self, pinned, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(pinned), encoding="utf-8")
        code = main(
            ["--check", str(path), "--baseline", str(BASELINE_PATH)]
        )
        assert code == 0
        assert "baseline gate passed" in capsys.readouterr().out

    def test_check_degraded_report_exits_one(self, pinned, tmp_path, capsys):
        degraded = copy.deepcopy(pinned)
        for bench in degraded["benchmarks"]:
            if bench["name"] == "association_spaces":
                bench["metrics"]["is_size_total"]["value"] += 7
        path = tmp_path / "degraded.json"
        path.write_text(json.dumps(degraded), encoding="utf-8")
        code = main(
            ["--check", str(path), "--baseline", str(BASELINE_PATH)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "is_size_total" in out

    def test_check_invalid_report_exits_one(self, tmp_path):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps({"schema_version": 99}), encoding="utf-8")
        assert main(["--check", str(path)]) == 1

    def test_check_unreadable_report_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["--check", str(path)]) == 2

    def test_missing_baseline_skips_the_gate(self, report, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        code = main(
            ["--check", str(path), "--baseline", str(tmp_path / "none.json")]
        )
        assert code == 0
        assert "no baseline" in capsys.readouterr().err

    def test_list_prints_the_catalogue(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "smoke:" in out
        assert "obs_overhead" in out

    def test_full_run_writes_report_and_passes_gate(
        self, pinned, tmp_path, capsys, monkeypatch
    ):
        # The runner's build-write-gate path over the module's suite run,
        # its timing ratios pinned (see ``pinned``).
        monkeypatch.setattr(runner, "build_report", lambda suite: pinned)
        output = tmp_path / "BENCH_PERF.json"
        code = main(
            [
                "--suite", "smoke",
                "--output", str(output),
                "--baseline", str(BASELINE_PATH),
            ]
        )
        assert code == 0
        written = json.loads(output.read_text(encoding="utf-8"))
        assert validate_report(written) == []
        assert "baseline gate passed" in capsys.readouterr().out

    def test_update_baseline_writes_the_fresh_report(self, tmp_path):
        target = tmp_path / "baseline.json"
        code = main(
            ["--suite", "smoke", "--update-baseline",
             "--baseline", str(target)]
        )
        assert code == 0
        assert validate_report(
            json.loads(target.read_text(encoding="utf-8"))
        ) == []


class TestDeterminism:
    def test_exact_metrics_are_identical_across_runs(self, report):
        again = build_report("smoke")
        obs.disable()

        def exact_metrics(built):
            return {
                (bench["name"], name): metric["value"]
                for bench in built["benchmarks"]
                for name, metric in bench["metrics"].items()
                if metric["kind"] == "exact"
            }

        first = exact_metrics(report)
        assert first  # the suite must actually gate something exactly
        assert exact_metrics(again) == first
