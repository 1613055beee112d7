"""Tests for the continuous perf observatory (bench history + regression
report): record round-trips, corrupt-line tolerance, rolling-baseline
regression detection and the absolute speedup floor."""

import json

import pytest

from repro.obs.perfdb import (
    PERFDB_SCHEMA,
    PerfRecord,
    append_records,
    git_revision,
    load_history,
    records_from_bench_report,
    regression_report,
)


def record(workload="fft", config_hash="abc123", sim_cycles_per_s=50_000.0,
           speedup=2.0, timestamp=1.0):
    return PerfRecord(schema=PERFDB_SCHEMA, timestamp=timestamp,
                      git_rev="deadbee", config_hash=config_hash,
                      workload=workload, cycles=1000, instructions=5000,
                      wall_s=0.02, sim_cycles_per_s=sim_cycles_per_s,
                      speedup=speedup)


class TestRecords:
    def test_round_trip(self):
        original = record()
        assert PerfRecord.from_dict(original.to_dict()) == original

    def test_schema_mismatch_raises(self):
        data = record().to_dict()
        data["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            PerfRecord.from_dict(data)

    def test_git_revision_returns_something(self):
        rev = git_revision()
        assert isinstance(rev, str) and rev


class TestHistoryFile:
    def test_append_and_load(self, tmp_path):
        path = tmp_path / "nested" / "history.jsonl"
        assert append_records(path, [record(), record(workload="lu")]) == 2
        assert append_records(path, [record(timestamp=2.0)]) == 1
        records, skipped = load_history(path)
        assert len(records) == 3
        assert skipped == 0
        assert [r.workload for r in records] == ["fft", "lu", "fft"]

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == ([], 0)

    def test_corrupt_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_records(path, [record()])
        with path.open("a") as handle:
            handle.write("{ torn write\n")
            handle.write(json.dumps({"schema": 99}) + "\n")
            handle.write("\n")  # blank lines are not corruption
        append_records(path, [record(timestamp=2.0)])
        records, skipped = load_history(path)
        assert len(records) == 2
        assert skipped == 2


class TestBenchReportConversion:
    def test_records_from_bench_report(self):
        report = {
            "config": {"cores": 16, "scale": 0.3, "seed": 7},
            "workloads": {
                "fft": {"cycles": 5000, "instructions": 40000,
                        "speedup": 2.5,
                        "kernels": {"event": {"wall_s": 0.1,
                                              "sim_cycles_per_s": 50000.0},
                                    "lockstep": {"wall_s": 0.25,
                                                 "sim_cycles_per_s":
                                                     20000.0}}},
            },
        }
        records = records_from_bench_report(report, timestamp=5.0,
                                            git_rev="abc")
        assert len(records) == 1
        rec = records[0]
        assert rec.workload == "fft"
        assert rec.sim_cycles_per_s == 50000.0
        assert rec.speedup == 2.5
        assert rec.wall_s == 0.1
        assert len(rec.config_hash) == 16
        # Same config => same series; different config => different hash.
        other = dict(report, config={"cores": 8})
        assert (records_from_bench_report(other, timestamp=5.0,
                                          git_rev="abc")[0].config_hash
                != rec.config_hash)


class TestRegressionReport:
    def test_insufficient_history_passes_with_note(self):
        report = regression_report([record()])
        assert report.passed
        assert all(check.note == "insufficient history"
                   for check in report.checks)

    def test_drop_beyond_tolerance_regresses(self):
        history = [record(sim_cycles_per_s=50_000.0, timestamp=t)
                   for t in range(5)]
        history.append(record(sim_cycles_per_s=30_000.0, timestamp=5.0))
        report = regression_report(history, tolerance=0.25)
        assert not report.passed
        failing = report.regressions
        assert [check.metric for check in failing] == ["sim_cycles_per_s"]
        assert failing[0].baseline == 50_000.0

    def test_drop_within_tolerance_passes(self):
        history = [record(sim_cycles_per_s=50_000.0, timestamp=t)
                   for t in range(5)]
        history.append(record(sim_cycles_per_s=40_000.0, timestamp=5.0))
        assert regression_report(history, tolerance=0.25).passed

    def test_baseline_is_median_of_window(self):
        # One outlier inside the window must not poison the baseline.
        rates = [50_000.0, 50_500.0, 5_000.0, 49_500.0, 50_000.0]
        history = [record(sim_cycles_per_s=rate, timestamp=float(t))
                   for t, rate in enumerate(rates)]
        history.append(record(sim_cycles_per_s=48_000.0, timestamp=9.0))
        report = regression_report(history, tolerance=0.25, window=5)
        check = next(c for c in report.checks
                     if c.metric == "sim_cycles_per_s")
        assert check.baseline == 50_000.0
        assert report.passed

    def test_only_window_records_form_the_baseline(self):
        # Ancient slow records beyond the window are ignored.
        history = [record(sim_cycles_per_s=1_000.0, timestamp=float(t))
                   for t in range(10)]
        history += [record(sim_cycles_per_s=50_000.0, timestamp=float(t))
                    for t in range(10, 13)]
        report = regression_report(history, tolerance=0.25, window=3)
        check = next(c for c in report.checks
                     if c.metric == "sim_cycles_per_s")
        assert check.baseline == 50_000.0

    def test_series_are_independent(self):
        history = ([record(workload="fft", sim_cycles_per_s=50_000.0,
                           timestamp=float(t)) for t in range(6)]
                   + [record(workload="lu", sim_cycles_per_s=10.0,
                             timestamp=6.0)])
        # lu has no history yet; fft is steady: everything passes.
        assert regression_report(history).passed

    def test_speedup_floor_fails_without_history(self):
        report = regression_report([record(speedup=1.2)], floor_speedup=1.5)
        assert not report.passed
        assert report.regressions[0].metric == "speedup_floor"

    def test_floor_applies_only_to_event_series(self, tmp_path, capsys):
        """History written while a third kernel existed still loads: its
        ``"kernel": "compiled"`` lines form their own series and get no
        floor, even when their speedup is below it."""
        from repro.tools import main

        legacy = dict(record(speedup=1.2).to_dict(), kernel="compiled")
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps(legacy) + "\n")
        append_records(path, [record(speedup=2.0)])
        records, skipped = load_history(path)
        assert skipped == 0
        assert sorted(r.kernel for r in records) == ["compiled", "event"]
        report = regression_report(records, floor_speedup=1.5)
        floors = [c for c in report.checks if c.metric == "speedup_floor"]
        assert [c.kernel for c in floors] == ["event"]
        assert report.passed
        assert main(["perf-report", "--history", str(path),
                     "--floor-speedup", "1.5"]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_render_mentions_verdict(self):
        passing = regression_report([record()])
        assert "PASS" in passing.render()
        failing = regression_report([record(speedup=1.0)],
                                    floor_speedup=1.5)
        text = failing.render()
        assert "FAIL" in text and "REGRESSED" in text

    def test_skipped_lines_reported(self):
        report = regression_report([record()], skipped_lines=3)
        assert "skipped 3 corrupt" in report.render()
