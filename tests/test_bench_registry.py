"""Tests for the unified benchmark registry and regression gate."""

import json

import pytest

from repro.obs import bench
from repro.obs.bench import (
    BENCH_RESULT_SCHEMA,
    BenchResult,
    Regression,
    append_history,
    detect_regressions,
    load_history,
    metric,
    parallel_efficiency_warnings,
    validate_bench_result,
)


def _entry(name, wall, jobs=None, family=None, hib_value=None, states=None):
    metrics = {"wall_seconds": metric(wall)}
    if hib_value is not None:
        metrics["states_per_second"] = metric(
            hib_value, "states/s", higher_is_better=True
        )
    context = {}
    if family is not None:
        context["family"] = family
    if jobs is not None:
        context["jobs"] = jobs
    if states is not None:
        context["states"] = states
    return {
        "schema": BENCH_RESULT_SCHEMA,
        "name": name,
        "git_sha": "deadbeef",
        "timestamp": "2026-08-08T00:00:00+00:00",
        "context": context,
        "metrics": metrics,
    }


class TestSchema:
    def test_valid_result_round_trips(self):
        entry = _entry("enum.sequential", 0.5)
        assert validate_bench_result(entry) == []
        result = BenchResult.from_dict(entry)
        assert result.to_dict() == entry

    def test_missing_metrics_flagged(self):
        entry = _entry("x", 0.5)
        entry["metrics"] = {}
        assert any("metrics" in p for p in validate_bench_result(entry))

    def test_metric_without_direction_flagged(self):
        entry = _entry("x", 0.5)
        del entry["metrics"]["wall_seconds"]["higher_is_better"]
        assert any("direction" in p for p in validate_bench_result(entry))

    def test_wrong_schema_flagged(self):
        entry = _entry("x", 0.5)
        entry["schema"] = "repro.bench-kernel/1"
        assert validate_bench_result(entry)


class TestHistory:
    def test_append_and_load(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        append_history(path, BenchResult(
            name="a", metrics={"wall_seconds": metric(1.0)},
        ))
        append_history(path, BenchResult(
            name="b", metrics={"wall_seconds": metric(2.0)},
        ))
        entries = load_history(path)
        assert [e["name"] for e in entries] == ["a", "b"]
        for entry in entries:
            assert validate_bench_result(entry) == []
            assert entry["git_sha"]
            assert entry["timestamp"]

    def test_load_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        good = _entry("a", 1.0)
        path.write_text(
            json.dumps(good) + "\n"
            + "{not json\n"
            + json.dumps({"schema": "bogus"}) + "\n"
            + json.dumps(good) + "\n"
        )
        assert len(load_history(str(path))) == 2

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "nope.jsonl")) == []

    def test_append_refuses_invalid(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        with pytest.raises(ValueError):
            append_history(path, BenchResult(name="a", metrics={}))

    def test_git_sha_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafe1234")
        assert bench.git_sha() == "cafe1234"


class TestDirtyProvenance:
    """A dirty working tree must be visible in every stamped SHA."""

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
        monkeypatch.setattr(bench, "_DIRTY_CACHE", {})

    def test_stamp_marks_dirty_tree(self, monkeypatch):
        monkeypatch.setattr(bench, "git_sha", lambda cwd=None: "abc123")
        monkeypatch.setattr(bench, "git_dirty", lambda cwd=None: True)
        result = bench.stamp(BenchResult(
            name="a", metrics={"wall_seconds": metric(1.0)},
        ))
        assert result.git_sha == "abc123-dirty"

    def test_clean_tree_stamps_bare_sha(self, monkeypatch):
        monkeypatch.setattr(bench, "git_sha", lambda cwd=None: "abc123")
        monkeypatch.setattr(bench, "git_dirty", lambda cwd=None: False)
        assert bench.provenance_sha() == "abc123"

    def test_env_override_is_taken_verbatim(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafe1234")
        monkeypatch.setattr(bench, "git_dirty", lambda cwd=None: True)
        assert bench.provenance_sha() == "cafe1234"

    def test_unknown_sha_gets_no_suffix(self, monkeypatch):
        monkeypatch.setattr(bench, "git_sha", lambda cwd=None: "unknown")
        monkeypatch.setattr(bench, "git_dirty", lambda cwd=None: True)
        assert bench.provenance_sha() == "unknown"

    def test_modified_bench_artifacts_do_not_count_as_dirty(
        self, monkeypatch
    ):
        def fake_run(*args, **kwargs):
            class Out:
                returncode = 0
                stdout = " M BENCH_history.jsonl\n M BENCH_table_3_2.json\n"

            return Out()

        monkeypatch.setattr(bench.subprocess, "run", fake_run)
        assert bench.git_dirty() is False

    def test_modified_source_beside_artifacts_is_dirty(self, monkeypatch):
        def fake_run(*args, **kwargs):
            class Out:
                returncode = 0
                stdout = " M BENCH_history.jsonl\n M src/repro/cli.py\n"

            return Out()

        monkeypatch.setattr(bench.subprocess, "run", fake_run)
        assert bench.git_dirty() is True

    def test_dirty_probe_is_cached_per_process(self, monkeypatch):
        calls = []

        def fake_run(*args, **kwargs):
            calls.append(args)

            class Out:
                returncode = 0
                stdout = " M src/repro/cli.py\n"

            return Out()

        monkeypatch.setattr(bench.subprocess, "run", fake_run)
        assert bench.git_dirty() is True
        assert bench.git_dirty() is True
        assert len(calls) == 1

    def test_short_sha_keeps_dirty_marker(self):
        sha = "0123456789abcdef0123456789abcdef01234567"
        assert bench.short_sha(sha) == "0123456789ab"
        assert bench.short_sha(sha + "-dirty") == "0123456789ab-dirty"


class TestRegressionDetector:
    def test_no_regression_within_threshold(self):
        entries = [_entry("a", 1.0) for _ in range(4)] + [_entry("a", 1.2)]
        assert detect_regressions(entries, threshold=0.25) == []

    def test_regression_past_threshold_fires(self):
        entries = [_entry("a", 1.0) for _ in range(4)] + [_entry("a", 1.3)]
        found = detect_regressions(entries, threshold=0.25)
        assert len(found) == 1
        regression = found[0]
        assert regression.name == "a"
        assert regression.metric == "wall_seconds"
        assert regression.change == pytest.approx(0.3)
        assert "worse" in regression.describe()

    def test_exactly_at_threshold_does_not_fire(self):
        entries = [_entry("a", 1.0) for _ in range(4)] + [_entry("a", 1.25)]
        assert detect_regressions(entries, threshold=0.25) == []

    def test_single_entry_has_no_baseline(self):
        assert detect_regressions([_entry("a", 99.0)]) == []

    def test_two_entries_gate_on_the_first(self):
        entries = [_entry("a", 1.0), _entry("a", 2.0)]
        assert len(detect_regressions(entries, threshold=0.25)) == 1

    def test_baseline_is_median_of_window(self):
        # One outlier in the window must not drag the baseline: median of
        # [1.0, 1.0, 8.0, 1.0, 1.0] is 1.0, so latest 2.0 regresses.
        walls = [1.0, 1.0, 8.0, 1.0, 1.0, 2.0]
        entries = [_entry("a", w) for w in walls]
        found = detect_regressions(entries, threshold=0.25, window=5)
        assert len(found) == 1
        assert found[0].baseline == pytest.approx(1.0)

    def test_window_limits_lookback(self):
        # Ancient slow entries outside the window are ignored.
        walls = [9.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.3]
        entries = [_entry("a", w) for w in walls]
        found = detect_regressions(entries, threshold=0.25, window=5)
        assert len(found) == 1
        assert found[0].baseline == pytest.approx(1.0)

    def test_higher_is_better_direction(self):
        entries = [
            _entry("a", 1.0, hib_value=1000.0) for _ in range(4)
        ] + [_entry("a", 1.0, hib_value=600.0)]
        found = detect_regressions(entries, threshold=0.25)
        assert [r.metric for r in found] == ["states_per_second"]
        assert found[0].change == pytest.approx(0.4)

    def test_improvement_never_fires(self):
        entries = [_entry("a", 1.0) for _ in range(4)] + [_entry("a", 0.2)]
        assert detect_regressions(entries, threshold=0.25) == []

    def test_zero_baseline_skipped(self):
        entries = [_entry("a", 0.0), _entry("a", 5.0)]
        assert detect_regressions(entries, threshold=0.25) == []

    def test_series_are_independent(self):
        entries = (
            [_entry("a", 1.0), _entry("b", 1.0)] * 3
            + [_entry("a", 5.0), _entry("b", 1.0)]
        )
        found = detect_regressions(entries, threshold=0.25)
        assert [r.name for r in found] == ["a"]

    def test_sorted_most_severe_first(self):
        entries = (
            [_entry("a", 1.0), _entry("b", 1.0)] * 3
            + [_entry("a", 1.5), _entry("b", 3.0)]
        )
        found = detect_regressions(entries, threshold=0.25)
        assert [r.name for r in found] == ["b", "a"]


class TestParallelEfficiency:
    def test_slower_parallel_sibling_warns(self):
        entries = [
            _entry("enum.sequential", 0.4, jobs=1, family="enum"),
            _entry("enum.parallel", 0.49, jobs=4, family="enum"),
        ]
        warnings = parallel_efficiency_warnings(entries)
        assert len(warnings) == 1
        assert "jobs=4" in warnings[0]
        assert "not paying off" in warnings[0]

    def test_faster_parallel_sibling_is_silent(self):
        entries = [
            _entry("enum.sequential", 0.4, jobs=1, family="enum"),
            _entry("enum.parallel", 0.15, jobs=4, family="enum"),
        ]
        assert parallel_efficiency_warnings(entries) == []

    def test_latest_entry_wins_per_name(self):
        entries = [
            _entry("enum.sequential", 0.1, jobs=1, family="enum"),
            _entry("enum.parallel", 0.05, jobs=4, family="enum"),
            # Newer runs: parallel got slower than sequential.
            _entry("enum.sequential", 0.1, jobs=1, family="enum"),
            _entry("enum.parallel", 0.2, jobs=4, family="enum"),
        ]
        assert len(parallel_efficiency_warnings(entries)) == 1

    def test_no_jobs1_baseline_is_silent(self):
        entries = [_entry("enum.parallel", 0.5, jobs=4, family="enum")]
        assert parallel_efficiency_warnings(entries) == []

    def test_entries_without_family_ignored(self):
        entries = [_entry("a", 1.0), _entry("b", 5.0)]
        assert parallel_efficiency_warnings(entries) == []

    def test_warning_reports_measured_efficiency_ratio(self):
        entries = [
            _entry("enum.sequential", 0.4, jobs=1, family="enum"),
            _entry("enum.parallel", 0.8, jobs=4, family="enum"),
        ]
        warnings = parallel_efficiency_warnings(entries)
        assert len(warnings) == 1
        # 0.4/0.8 = 0.50x speedup across 4 workers = 12% efficiency.
        assert "0.50x speedup" in warnings[0]
        assert "12% efficiency" in warnings[0]

    def test_warning_reports_states_scale(self):
        entries = [
            _entry("enum.sequential", 0.4, jobs=1, family="enum",
                   states=2135),
            _entry("enum.parallel", 0.5, jobs=4, family="enum",
                   states=2135),
        ]
        warnings = parallel_efficiency_warnings(entries)
        assert len(warnings) == 1
        assert "at 2,135 states" in warnings[0]

    def test_states_scale_falls_back_to_baseline_context(self):
        entries = [
            _entry("enum.sequential", 0.4, jobs=1, family="enum",
                   states=2135),
            _entry("enum.parallel", 0.5, jobs=4, family="enum"),
        ]
        warnings = parallel_efficiency_warnings(entries)
        assert "at 2,135 states" in warnings[0]

    def test_scale_omitted_when_unknown(self):
        entries = [
            _entry("enum.sequential", 0.4, jobs=1, family="enum"),
            _entry("enum.parallel", 0.5, jobs=4, family="enum"),
        ]
        warnings = parallel_efficiency_warnings(entries)
        assert "states" not in warnings[0]


class TestRegistry:
    def test_builtins_registered(self):
        names = bench.registered_benchmarks()
        assert len(names) >= 3
        assert "enum.sequential" in names
        assert "enum.parallel" in names

    def test_compare_suite_records_throughput_and_split(self, monkeypatch):
        monkeypatch.setattr(bench, "_REPEATS", 1)
        result = bench.run_benchmark("compare.suite")
        assert validate_bench_result(result.to_dict()) == []
        metrics = {k: v["value"] for k, v in result.metrics.items()}
        assert set(metrics) == {"seconds", "cycles_per_s", "rtl_s", "spec_s"}
        assert result.metrics["cycles_per_s"]["higher_is_better"]
        assert result.context["jobs"] == 1
        assert metrics["cycles_per_s"] == pytest.approx(
            result.context["cycles"] / metrics["seconds"]
        )
        assert metrics["rtl_s"] > 0 and metrics["spec_s"] > 0

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            bench.run_benchmark("no.such.benchmark")

    def test_register_and_run_stamps_provenance(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "feedface")
        name = "test.registry-probe"

        @bench.register_benchmark(name)
        def _probe():
            return BenchResult(
                name=name, metrics={"wall_seconds": metric(0.01)},
            )

        try:
            result = bench.run_benchmark(name)
        finally:
            bench._REGISTRY.pop(name, None)
        assert result.git_sha == "feedface"
        assert result.timestamp
        assert validate_bench_result(result.to_dict()) == []

    def test_misnamed_result_rejected(self):
        name = "test.misnamed-probe"

        @bench.register_benchmark(name)
        def _probe():
            return BenchResult(
                name="something.else",
                metrics={"wall_seconds": metric(0.01)},
            )

        try:
            with pytest.raises(ValueError):
                bench.run_benchmark(name)
        finally:
            bench._REGISTRY.pop(name, None)


class TestBenchCli:
    def _fake_registry(self, monkeypatch, wall):
        """Replace the registry with one instant fake benchmark."""

        def _fake():
            return BenchResult(
                name="fake.instant",
                context={"family": "fake", "jobs": 1},
                metrics={"wall_seconds": metric(wall)},
            )

        monkeypatch.setattr(bench, "_REGISTRY", {"fake.instant": _fake})

    def test_bench_runs_and_appends_history(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        self._fake_registry(monkeypatch, 1.0)
        history = str(tmp_path / "hist.jsonl")
        assert main(["bench", "--history", history]) == 0
        entries = load_history(history)
        assert len(entries) == 1
        assert entries[0]["name"] == "fake.instant"
        out = capsys.readouterr().out
        assert "regression gate: ok" in out

    def test_gate_fires_on_injected_slowdown(self, tmp_path, monkeypatch, capsys):
        from repro.cli import EXIT_PERF_REGRESSION, main

        history = str(tmp_path / "hist.jsonl")
        # Build a stable baseline, then inject a 3x slowdown.
        for _ in range(3):
            self._fake_registry(monkeypatch, 1.0)
            assert main(["bench", "--history", history]) == 0
        self._fake_registry(monkeypatch, 3.0)
        code = main(["bench", "--history", history])
        assert code == EXIT_PERF_REGRESSION
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "fake.instant" in out

    def test_report_only_demotes_to_warning(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        history = str(tmp_path / "hist.jsonl")
        for _ in range(3):
            self._fake_registry(monkeypatch, 1.0)
            assert main(["bench", "--history", history]) == 0
        self._fake_registry(monkeypatch, 3.0)
        assert main(["bench", "--history", history, "--report-only"]) == 0
        out = capsys.readouterr().out
        assert "WARNING" in out
        assert "demoted to warnings" in out

    def test_list_flag(self, monkeypatch, capsys):
        from repro.cli import main

        self._fake_registry(monkeypatch, 1.0)
        assert main(["bench", "--list"]) == 0
        assert capsys.readouterr().out.strip() == "fake.instant"

    def test_only_filter_unknown_name(self, monkeypatch, capsys, tmp_path):
        from repro.cli import EXIT_USAGE, main

        self._fake_registry(monkeypatch, 1.0)
        code = main(["bench", "--history", str(tmp_path / "h.jsonl"),
                     "--only", "no.such"])
        assert code == EXIT_USAGE

    def test_real_builtin_benchmark_runs(self, tmp_path, monkeypatch):
        """One real registered benchmark end to end (smallest scale)."""
        from repro.cli import main

        history = str(tmp_path / "hist.jsonl")
        assert main(["bench", "--history", history,
                     "--only", "tours.indexed"]) == 0
        entries = load_history(history)
        assert len(entries) == 1
        assert entries[0]["name"] == "tours.indexed"
        assert entries[0]["metrics"]["wall_seconds"]["value"] > 0

    def test_parallel_efficiency_warning_via_report(
        self, tmp_path, monkeypatch, capsys
    ):
        """`repro report --history` surfaces the jobs>1-slower fact."""
        from repro.cli import main
        from repro.obs import RunReport

        history = str(tmp_path / "hist.jsonl")
        append_history(history, BenchResult(
            name="enum.sequential", context={"family": "enum", "jobs": 1},
            metrics={"wall_seconds": metric(0.40)},
        ))
        append_history(history, BenchResult(
            name="enum.parallel", context={"family": "enum", "jobs": 4},
            metrics={"wall_seconds": metric(0.49)},
        ))
        report_path = str(tmp_path / "run.json")
        RunReport(command="enumerate").write(report_path)
        assert main(["report", report_path, "--history", history]) == 0
        out = capsys.readouterr().out
        assert "WARNING" in out
        assert "jobs=4" in out
        assert "not paying off" in out
