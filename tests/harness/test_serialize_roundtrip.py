"""Property-based round-trip tests for the sweep wire format.

Everything a worker sends back (and everything the result cache stores)
goes through :mod:`repro.sim.serialize`; these tests pin down that a trip
through actual JSON text — not just dicts — is lossless for every
component type, and bit-for-bit stable for a full recorded execution.
"""

import json
import math

from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import ConsistencyModel
from repro.common.hashing import canonical_json, stable_digest
from repro.common.stats import Histogram, OnlineStats
from repro.harness.runner import RunKey, execute_run, workload_program
from repro.obs.metrics import MetricsSnapshot
from repro.recorder.mrr import RecorderStats
from repro.replay import replay_recording
from repro.sim import RunResult
from repro.sim.serialize import (
    histogram_from_dict,
    histogram_to_dict,
    metrics_snapshot_from_dict,
    metrics_snapshot_to_dict,
    online_stats_from_dict,
    online_stats_to_dict,
    recorder_stats_from_dict,
    recorder_stats_to_dict,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
counts = st.integers(min_value=0, max_value=2**40)
names = st.text(st.characters(codec="ascii", exclude_characters="\0"),
                min_size=1, max_size=20)


def through_json(data):
    """The exact transformation a cache file / worker reply applies."""
    return json.loads(json.dumps(data))


@given(st.lists(finite, max_size=60))
def test_online_stats_roundtrip(values):
    stats = OnlineStats()
    for value in values:
        stats.add(value)
    clone = online_stats_from_dict(through_json(online_stats_to_dict(stats)))

    def same(a, b):
        # Welford overflows to nan for inputs near the float64 limit;
        # nan -> nan is still a lossless round-trip.
        return a == b or (math.isnan(a) and math.isnan(b))

    assert clone.count == stats.count
    assert same(clone.total, stats.total)
    assert same(clone.mean, stats.mean)
    assert same(clone.variance, stats.variance)
    if values:
        assert clone.minimum == stats.minimum
        assert clone.maximum == stats.maximum
    else:
        # Empty accumulators keep their inf sentinels out of the JSON.
        assert math.isinf(clone.minimum) and math.isinf(clone.maximum)


@given(st.integers(min_value=1, max_value=100),
       st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                max_size=60))
def test_histogram_roundtrip(bin_width, values):
    histogram = Histogram(bin_width=bin_width)
    for value in values:
        histogram.add(value)
    clone = histogram_from_dict(through_json(histogram_to_dict(histogram)))
    assert clone.bin_width == histogram.bin_width
    assert clone.counts == histogram.counts
    assert clone.samples == histogram.samples


@given(st.fixed_dictionaries(
           {name: counts for name in RecorderStats.COUNTER_FIELDS}),
       st.dictionaries(names, counts, max_size=6),
       st.dictionaries(st.integers(min_value=0, max_value=2**48),
                       st.integers(min_value=1, max_value=2**20), max_size=6))
def test_recorder_stats_roundtrip(counters, bits_by_type, conflict_lines):
    stats = RecorderStats(**counters)
    stats.entry_bits_by_type = bits_by_type
    stats.conflict_lines = conflict_lines
    clone = recorder_stats_from_dict(
        through_json(recorder_stats_to_dict(stats)))
    assert clone == stats
    assert clone.conflict_lines == conflict_lines  # int keys restored


@given(st.dictionaries(names, st.one_of(counts, finite), max_size=20))
def test_metrics_snapshot_roundtrip(values):
    snapshot = MetricsSnapshot(values)
    clone = metrics_snapshot_from_dict(
        through_json(metrics_snapshot_to_dict(snapshot)))
    assert clone.to_dict() == snapshot.to_dict()


def test_none_metrics_pass_through():
    assert metrics_snapshot_to_dict(None) is None
    assert metrics_snapshot_from_dict(None) is None


# ------------------------------------------------- canonical hashing layer

json_scalars = st.one_of(st.none(), st.booleans(),
                         st.integers(min_value=-2**63, max_value=2**63),
                         finite, names)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(names, children, max_size=4)),
    max_leaves=20)


@given(json_values)
def test_canonical_json_is_deterministic_and_digestible(value):
    text = canonical_json(value)
    assert text == canonical_json(json.loads(text))
    assert stable_digest(value) == stable_digest(json.loads(text))


@given(st.dictionaries(names, json_scalars, min_size=1, max_size=5))
def test_digest_ignores_dict_insertion_order(mapping):
    shuffled = dict(reversed(list(mapping.items())))
    assert stable_digest(mapping) == stable_digest(shuffled)


# ------------------------------------------------------ full result object

def test_full_run_result_roundtrip_is_byte_stable():
    """to_dict -> JSON -> from_dict -> to_dict is a fixed point, for the
    standalone form (program embedded) and the sweep wire form (program
    left out, rebuilt by the reader and pinned by ``program_digest``).

    The run carries everything the wire format must preserve: all six
    recorder variants, per-core stats accumulators, and — because it runs
    under SC with baselines — both chunk-style (``.stats``-bearing) and
    flat baseline recorders.
    """
    key = RunKey("fft", 2, 0.05, 1, ConsistencyModel.SC, True)
    result = execute_run(key)
    data = result.to_dict()
    # Each variant's recorder config is stored once, beside its per-core
    # logs, which carry none.
    for name, recording in data["recordings"].items():
        assert set(recording) == {"config", "cores"}
        assert len(recording["cores"]) == key.cores
        for core in recording["cores"]:
            assert set(core) == {"core_id", "log", "bit_length", "stats"}
    free = result.to_dict(include_program=False)
    assert set(data) - set(free) == {"program"}
    assert free["program_digest"] == data["program_digest"]

    wire = json.dumps(data, sort_keys=True)
    clone = RunResult.from_dict(json.loads(wire))
    assert json.dumps(clone.to_dict(), sort_keys=True) == wire
    free_wire = json.dumps(free, sort_keys=True)
    rebuilt = RunResult.from_dict(
        json.loads(free_wire),
        program_source=lambda: workload_program(key))
    assert json.dumps(rebuilt.to_dict(include_program=False),
                      sort_keys=True) == free_wire
    assert json.dumps(rebuilt.to_dict(), sort_keys=True) == wire
    assert clone.final_memory == result.final_memory
    assert clone.total_instructions == result.total_instructions
    # Figure-facing accessors agree on both sides of the boundary.
    for variant in result.recordings:
        assert clone.recording_stats(variant) == \
            result.recording_stats(variant)
    for name, per_core in result.baselines.items():
        clone_bits = [getattr(r, "stats", r).log_bits
                      for r in clone.baselines[name]]
        assert clone_bits == [getattr(r, "stats", r).log_bits
                              for r in per_core]
    # ...and the round-tripped result still replays bit-exactly.
    assert replay_recording(clone, "opt_4k").verified


def test_version_mismatch_is_rejected():
    import pytest

    from repro.common.errors import LogFormatError
    key = RunKey("fft", 2, 0.05, 1, ConsistencyModel.RC, False)
    data = execute_run(key).to_dict()
    data["serialization_version"] = 999
    with pytest.raises(LogFormatError, match="serialization version"):
        RunResult.from_dict(data)


def test_program_free_result_needs_a_program_source():
    import pytest

    from repro.common.errors import LogFormatError
    key = RunKey("fft", 2, 0.05, 1, ConsistencyModel.RC, False)
    data = execute_run(key).to_dict(include_program=False)
    with pytest.raises(LogFormatError, match="no program source"):
        RunResult.from_dict(data)
