"""CLI contract tests for ``python -m repro.tools fuzz``: exit codes,
determinism of the JSON report, and the --inject-bug self-test mode."""

import json

import pytest

from repro.tools import main


def _strip_wall(payload: dict) -> dict:
    for section in payload.values():
        section.pop("wall_seconds", None)
    return payload


class TestCleanRuns:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["fuzz", "--budget", "10", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "evaluated 10 candidates" in out
        assert "coverage" in out

    def test_report_json_is_deterministic(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["fuzz", "--budget", "10", "--seed", "2",
                     "--jobs", "1", "--out", str(first)]) == 0
        assert main(["fuzz", "--budget", "10", "--seed", "2",
                     "--jobs", "2", "--out", str(second)]) == 0
        capsys.readouterr()
        a = _strip_wall(json.loads(first.read_text()))
        b = _strip_wall(json.loads(second.read_text()))
        assert a == b

    def test_min_new_buckets_gate(self, capsys):
        assert main(["fuzz", "--budget", "12", "--seed", "0",
                     "--min-new-buckets", "1"]) == 0
        assert main(["fuzz", "--budget", "12", "--seed", "0",
                     "--min-new-buckets", "10000"]) == 1
        assert "new coverage" in capsys.readouterr().err


class TestInjectBug:
    def test_injected_bug_caught_minimized_and_emitted(self, tmp_path,
                                                       capsys):
        emit = tmp_path / "regressions"
        code = main(["fuzz", "--budget", "8", "--seed", "0",
                     "--inject-bug", "timestamp-floor-off",
                     "--max-failures", "1",
                     "--emit-regressions", str(emit)])
        captured = capsys.readouterr()
        assert code == 0
        assert "caught and minimized" in captured.out
        assert list(emit.glob("fuzz_replay-*.json"))
        assert list(emit.glob("*.forensics.json"))

    def test_unknown_bug_name_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--inject-bug", "nonsense"])
        assert excinfo.value.code == 2


class TestFailurePaths:
    def test_corrupt_corpus_dir_exits_two(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("{broken")
        code = main(["fuzz", "--budget", "4",
                     "--corpus-dir", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_wall_budget_with_baseline_is_usage_error(self, capsys):
        code = main(["fuzz", "--budget", "1s", "--baseline-random"])
        assert code == 2
        assert "count budget" in capsys.readouterr().err

    def test_malformed_budget_exits_two(self, capsys):
        assert main(["fuzz", "--budget", "soon"]) == 2
        assert "error:" in capsys.readouterr().err
