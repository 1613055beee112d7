"""Sweep results decode only what is read.

A result that comes from the sweep wire format — a cache hit or a worker
reply — keeps each core's log encoded until its ``entries`` are read and
rebuilds its program from the run key on first read of ``program``.
These tests pin that laziness down, check that the lazy result serializes
to exactly the bytes of an eager one, and cover the ways a cache entry can
be corrupt under lazy decoding: quarantined at ``get`` time when the
envelope shows it, a loud error on first read when only the bits do.
"""

import base64
import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.common.config import ConsistencyModel, RecorderConfig, RecorderMode
from repro.common.errors import LogFormatError
from repro.harness import ExperimentRunner, figures
from repro.harness import parallel_runner, runner as runner_module
from repro.harness.parallel_runner import (ParallelRunner, ResultCache,
                                           cache_key, code_salt)
from repro.harness.report import render_all
from repro.harness.runner import RunKey, execute_run
from repro.sim.machine import EncodedLog

RC = ConsistencyModel.RC

TINY_VARIANTS = {
    "opt_4k": RecorderConfig(mode=RecorderMode.OPT,
                             max_interval_instructions=4096),
    "base_inf": RecorderConfig(mode=RecorderMode.BASE),
}


def tiny_key(workload="fft", consistency=RC, with_baselines=False):
    return RunKey(workload, 2, 0.05, 1, consistency, with_baselines)


def wire_text(result, **kwargs):
    return json.dumps(result.to_dict(**kwargs), sort_keys=True)


@pytest.fixture
def filled(tmp_path):
    """A cache holding one entry, plus the eager result it was made from."""
    cache = ResultCache(tmp_path / "cache")
    key = tiny_key()
    result = execute_run(key, TINY_VARIANTS)
    cache.put(key, result, TINY_VARIANTS)
    return cache, key, result


def counting_builds(monkeypatch):
    """Count workload builds behind the per-process program memo."""
    builds = []
    original = runner_module.build_workload

    def build(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    runner_module._build.cache_clear()
    monkeypatch.setattr(runner_module, "build_workload", build)
    return builds


def rewrite_entry(cache, key, edit):
    path = cache.path_for(key, TINY_VARIANTS)
    envelope = json.loads(path.read_text())
    edit(envelope["result"])
    path.write_text(json.dumps(envelope))
    return path


# ------------------------------------------------------------- laziness

class TestLaziness:
    def test_hit_decodes_nothing_until_read(self, filled, monkeypatch):
        cache, key, _ = filled
        builds = counting_builds(monkeypatch)
        reader = ResultCache(cache.root)
        result = reader.get(key, TINY_VARIANTS)
        decoded = result.recordings["opt_4k"][0]
        counters = reader.decoded
        # The figure-facing counters are all there without any decode.
        assert result.recording_stats("opt_4k").log_bits > 0
        assert result.total_instructions > 0
        assert counters.counters() == {"logs_decoded": 0,
                                       "programs_attached": 0}
        assert builds == []
        assert all(isinstance(output.__dict__["_entries"], EncodedLog)
                   for outputs in result.recordings.values()
                   for output in outputs)

        entries = decoded.entries
        assert entries and decoded.entries is entries   # decoded once
        assert counters.logs_decoded == 1
        assert builds == []

        program = result.program
        assert result.program is program
        assert counters.programs_attached == 1
        assert len(builds) == 1

    def test_decodes_are_counted_by_the_cache(self, filled):
        cache, key, _ = filled
        reader = ResultCache(cache.root)
        result = reader.get(key, TINY_VARIANTS)
        for output in result.recordings["opt_4k"]:
            output.entries
        result.program
        assert reader.decoded.counters() == {
            "logs_decoded": len(result.recordings["opt_4k"]),
            "programs_attached": 1}

    def test_cells_of_one_program_share_one_build(self, monkeypatch):
        builds = counting_builds(monkeypatch)
        keys = [tiny_key(), tiny_key(consistency=ConsistencyModel.TSO)]
        programs = [runner_module.workload_program(key) for key in keys]
        assert programs[0] is programs[1]
        assert len(builds) == 1


# ----------------------------------------------------------- equivalence

class TestEquivalence:
    def test_lazy_to_dict_is_byte_identical_to_eager(self, filled):
        cache, key, eager = filled
        lazy = ResultCache(cache.root).get(key, TINY_VARIANTS)
        # Program-free first: reuses the stored log bytes, builds nothing.
        assert wire_text(lazy, include_program=False) == \
            wire_text(eager, include_program=False)
        assert wire_text(lazy) == wire_text(eager)

    def test_decoded_logs_reencode_to_the_same_bytes(self, filled):
        cache, key, eager = filled
        lazy = ResultCache(cache.root).get(key, TINY_VARIANTS)
        for outputs in lazy.recordings.values():
            for output in outputs:
                output.entries
        assert wire_text(lazy) == wire_text(eager)

    def test_worker_reply_is_published_as_is(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = tiny_key()
        sweep = ParallelRunner(jobs=1, cache=cache, variants=TINY_VARIANTS)
        result = sweep.run([key])[key]
        assert sweep.decoded is cache.decoded
        assert cache.decoded.counters() == {"logs_decoded": 0,
                                            "programs_attached": 0}
        stored = json.loads(
            cache.path_for(key, TINY_VARIANTS).read_text())["result"]
        eager = execute_run(key, TINY_VARIANTS)
        assert "program" not in stored
        assert json.dumps(stored, sort_keys=True) == \
            wire_text(eager, include_program=False)
        assert wire_text(result) == wire_text(eager)

    def test_serial_and_pool_sweeps_agree(self, tmp_path):
        workloads = ("fft", "radix")
        experiments = ("fig9", "fig13", "baselines")
        outputs = []
        for jobs in (1, 2):
            sweep = ExperimentRunner(scale=0.05, workloads=workloads,
                                     jobs=jobs,
                                     cache_dir=str(tmp_path / f"c{jobs}"))
            keys = figures.required_runs(experiments, sweep, cores=2)
            sweep.prefetch(keys)
            tables = render_all({
                "fig9": figures.fig9_reordered_fractions(sweep, cores=2),
                "fig13": figures.fig13_replay_times(sweep, cores=2),
                "baselines": figures.baseline_log_comparison(sweep, cores=2),
            })
            wires = [wire_text(sweep.record(
                         key.workload, cores=key.cores,
                         consistency=key.consistency,
                         with_baselines=key.with_baselines))
                     for key in keys]
            outputs.append((tables, wires))
        assert outputs[0] == outputs[1]


# ------------------------------------------------------ corrupt entries

def _first_core(wire):
    return wire["recordings"]["opt_4k"]["cores"][0]


def _bad_base64(wire):
    # A lenient decoder would skip the stray character and accept it.
    _first_core(wire)["log"] = "*" + _first_core(wire)["log"]


def _bit_length_past_end(wire):
    core = _first_core(wire)
    core["bit_length"] = 8 * len(base64.b64decode(core["log"])) + 1


def _variant_dropped(wire):
    del wire["recordings"]["base_inf"]


def _digest_missing(wire):
    del wire["program_digest"]


class TestCorruptEntries:
    @pytest.mark.parametrize("edit, reason", [
        (_bad_base64, "base64"),
        (_bit_length_past_end, "bit_length"),
        (_variant_dropped, "variants"),
        (_digest_missing, "program_digest"),
    ])
    def test_quarantined_at_get_time(self, filled, edit, reason):
        cache, key, _ = filled
        path = rewrite_entry(cache, key, edit)
        with pytest.warns(UserWarning, match="corrupt result-cache entry"):
            assert cache.get(key, TINY_VARIANTS) is None
        assert cache.counters()[f"corrupt.{reason}"] == 1
        assert cache.corrupt == 1
        assert not path.exists()

    def test_corrupt_log_bits_fail_on_first_decode(self, filled):
        cache, key, _ = filled

        def garble(wire):
            core = _first_core(wire)
            log = bytearray(base64.b64decode(core["log"]))
            log[0] = 0xFF      # entry type tag 7: no such entry
            core["log"] = base64.b64encode(bytes(log)).decode("ascii")

        rewrite_entry(cache, key, garble)
        result = cache.get(key, TINY_VARIANTS)
        assert result is not None            # the envelope is well formed
        address = cache_key(key, TINY_VARIANTS)
        with pytest.raises(LogFormatError, match=address):
            result.recordings["opt_4k"][0].entries

    def test_program_digest_mismatch_raises_on_first_read(self, filled):
        cache, key, _ = filled

        def misdigest(wire):
            wire["program_digest"] = "0" * 32

        rewrite_entry(cache, key, misdigest)
        result = cache.get(key, TINY_VARIANTS)
        assert result is not None
        with pytest.raises(LogFormatError, match="program digest mismatch"):
            result.program


# --------------------------------------------------------- code salt

class TestCodeSalt:
    @pytest.fixture
    def source_copy(self, tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return copy

    @pytest.mark.parametrize("edited", ["recorder/mrr.py",
                                        "workloads/scientific.py"])
    def test_editing_result_code_turns_a_hit_into_a_miss(
            self, filled, source_copy, monkeypatch, edited):
        cache, key, _ = filled
        assert code_salt(source_copy) == parallel_runner.CODE_SALT
        assert cache.get(key, TINY_VARIANTS) is not None

        with open(source_copy / edited, "a") as handle:
            handle.write("\n# any edit, even to a comment\n")
        monkeypatch.setattr(parallel_runner, "CODE_SALT",
                            code_salt(source_copy))
        assert cache.get(key, TINY_VARIANTS) is None
        assert cache.counters()["misses"] == 1

    def test_editing_reporting_code_keeps_the_salt(self, source_copy):
        with open(source_copy / "harness" / "report.py", "a") as handle:
            handle.write("\n# rendering only\n")
        assert code_salt(source_copy) == parallel_runner.CODE_SALT
