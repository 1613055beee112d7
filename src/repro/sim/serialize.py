"""JSON round-tripping for run results (the sweep worker protocol).

The parallel experiment runner executes :meth:`Machine.run` in worker
processes and persists every shard in an on-disk cache, so everything a
:class:`~repro.sim.machine.RunResult` carries must survive a trip through
plain JSON: machine config, per-core facts (including the
streaming :class:`~repro.common.stats.OnlineStats` /
:class:`~repro.common.stats.Histogram` accumulators), the bit-exact
interval logs of every recorder variant (stored base64 via
:mod:`repro.recorder.logfmt`'s encoder, so the encoded size *is* the
hardware log size), recorder stats, dependence edges, baseline log
summaries and the flat metrics snapshot.

``from_dict(to_dict(result))`` reconstructs an equal result: the figure
code renders byte-identical tables from either object.  Decoding is lazy
where it pays: each core's log stays in its encoded bytes until its
``entries`` are read (most figures read only the recorder stats), and the
program is built on first read.  The sweep wire format leaves the program
out altogether — the run key determines it, so the sweep rebuilds it and
checks it against the stored ``program_digest``.  Live baseline
recorder *objects* do not cross the boundary — only the
``log_bits``/``instructions_counted`` counters the figures consume; they
come back as lightweight :class:`BaselineSummary` stand-ins.
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import dataclass
from types import SimpleNamespace

from ..common.config import MachineConfig, RecorderConfig
from ..common.errors import LogFormatError
from ..common.stats import Histogram, OnlineStats
from ..obs.metrics import MetricsSnapshot
from ..recorder.mrr import RecorderStats
from ..recorder.ordering import IntervalEdge
from .machine import (CoreResult, DecodeCounters, DigestedProgram,
                      EncodedLog, RecorderOutput, RunResult)

__all__ = [
    "SERIALIZATION_VERSION",
    "BaselineSummary", "WireFormatError",
    "online_stats_to_dict", "online_stats_from_dict",
    "histogram_to_dict", "histogram_from_dict",
    "recorder_stats_to_dict", "recorder_stats_from_dict",
    "metrics_snapshot_to_dict", "metrics_snapshot_from_dict",
    "thread_context_to_dict", "thread_context_from_dict",
    "run_result_to_dict", "run_result_from_dict",
]

#: Bumped whenever the wire format changes; part of the cache key salt.
#: v2: RecorderStats gained the fuzzer coverage counters
#: (signature_set_bits, signature_alias_terminations, snoop_observed).
#: v3: ``program`` became optional behind a mandatory ``program_digest``,
#: and each variant's recorder config is stored once, not once per core.
SERIALIZATION_VERSION = 3


class WireFormatError(LogFormatError):
    """A serialized run result is malformed; ``reason`` names the check
    it failed (the result cache counts quarantines by it)."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class BaselineSummary:
    """What survives of a baseline recorder across the worker boundary."""

    log_bits: int
    instructions_counted: int


# ----------------------------------------------------------------- stats

def online_stats_to_dict(stats: OnlineStats) -> dict:
    """JSON-able form of a streaming accumulator."""
    out = {"count": stats.count, "total": stats.total}
    if stats.count:
        out.update(mean=stats._mean, m2=stats._m2,
                   min=stats.minimum, max=stats.maximum)
    return out


def online_stats_from_dict(data: dict) -> OnlineStats:
    """Rebuild an accumulator from :func:`online_stats_to_dict`."""
    stats = OnlineStats()
    stats.count = data["count"]
    stats.total = data["total"]
    if stats.count:
        stats._mean = data["mean"]
        stats._m2 = data["m2"]
        stats.minimum = data["min"]
        stats.maximum = data["max"]
    return stats


def histogram_to_dict(histogram: Histogram) -> dict:
    """JSON-able form of a binned histogram."""
    return {"bin_width": histogram.bin_width,
            "samples": histogram.samples,
            "counts": {str(index): count
                       for index, count in sorted(histogram.counts.items())}}


def histogram_from_dict(data: dict) -> Histogram:
    """Rebuild a histogram from :func:`histogram_to_dict`."""
    return Histogram(bin_width=data["bin_width"],
                     counts={int(index): count
                             for index, count in data["counts"].items()},
                     samples=data["samples"])


def recorder_stats_to_dict(stats: RecorderStats) -> dict:
    """JSON-able form of per-variant recorder stats."""
    out = dict(stats.counters())
    out["entry_bits_by_type"] = dict(stats.entry_bits_by_type)
    out["conflict_lines"] = {str(line): count
                             for line, count in stats.conflict_lines.items()}
    return out


def recorder_stats_from_dict(data: dict) -> RecorderStats:
    """Rebuild recorder stats from :func:`recorder_stats_to_dict`."""
    stats = RecorderStats(**{name: data[name]
                             for name in RecorderStats.COUNTER_FIELDS})
    stats.entry_bits_by_type = dict(data["entry_bits_by_type"])
    stats.conflict_lines = {int(line): count
                            for line, count in data["conflict_lines"].items()}
    return stats


def metrics_snapshot_to_dict(snapshot: MetricsSnapshot | None) -> dict | None:
    """JSON-able form of a metrics snapshot (None passes through)."""
    return None if snapshot is None else snapshot.to_dict()


def metrics_snapshot_from_dict(data: dict | None) -> MetricsSnapshot | None:
    """Rebuild a snapshot from :func:`metrics_snapshot_to_dict`."""
    return None if data is None else MetricsSnapshot.from_dict(data)


# -------------------------------------------------------- thread contexts

def thread_context_to_dict(context) -> dict:
    """JSON-able snapshot of a replay :class:`ThreadContext`.

    The full architectural state of one replayed thread — everything the
    replay-checkpoint machinery (:mod:`repro.obs.inspect`) must capture so
    a restored context is indistinguishable from one that ran straight
    through, including the load-value trace the verifier compares.
    """
    return {
        "core_id": context.core_id,
        "pc": context.pc,
        "regs": list(context.regs),
        "halted": context.halted,
        "instructions_executed": context.instructions_executed,
        "load_values": list(context.load_values),
    }


def thread_context_from_dict(data: dict, program):
    """Rebuild a :class:`ThreadContext` written by
    :func:`thread_context_to_dict` against ``program``'s thread code."""
    from ..replay.interpreter import ThreadContext

    context = ThreadContext(data["core_id"],
                            program.threads[data["core_id"]])
    context.pc = data["pc"]
    context.regs = list(data["regs"])
    context.halted = data["halted"]
    context.instructions_executed = data["instructions_executed"]
    context.load_values = list(data["load_values"])
    return context


# ------------------------------------------------------------ run results

def _core_result_to_dict(core: CoreResult) -> dict:
    return {
        "core_id": core.core_id,
        "instructions": core.instructions,
        "mem_instructions": core.mem_instructions,
        "loads": core.loads,
        "stores": core.stores,
        "rmws": core.rmws,
        "ooo_loads": core.ooo_loads,
        "ooo_stores": core.ooo_stores,
        "forwarded_loads": core.forwarded_loads,
        "traq_stall_cycles": core.traq_stall_cycles,
        "final_regs": list(core.final_regs),
        "traq_occupancy": online_stats_to_dict(core.traq_occupancy),
        "traq_histogram": histogram_to_dict(core.traq_histogram),
    }


def _core_result_from_dict(data: dict) -> CoreResult:
    return CoreResult(
        core_id=data["core_id"],
        instructions=data["instructions"],
        mem_instructions=data["mem_instructions"],
        loads=data["loads"],
        stores=data["stores"],
        rmws=data["rmws"],
        ooo_loads=data["ooo_loads"],
        ooo_stores=data["ooo_stores"],
        forwarded_loads=data["forwarded_loads"],
        traq_stall_cycles=data["traq_stall_cycles"],
        final_regs=list(data["final_regs"]),
        traq_occupancy=online_stats_from_dict(data["traq_occupancy"]),
        traq_histogram=histogram_from_dict(data["traq_histogram"]),
    )


def _recordings_to_dict(name: str, outputs: list[RecorderOutput]) -> dict:
    from ..storage import config_to_dict

    config = outputs[0].config
    if any(output.config != config for output in outputs):
        raise ValueError(f"recorder variant {name!r}: per-core outputs "
                         f"disagree on their recorder config")
    cores = []
    for output in outputs:
        data, bits = output.encoded()
        cores.append({
            "core_id": output.core_id,
            "log": base64.b64encode(data).decode("ascii"),
            "bit_length": bits,
            "stats": recorder_stats_to_dict(output.stats),
        })
    return {"config": config_to_dict(config), "cores": cores}


def _recordings_from_dict(name: str, data: dict, origin: str,
                          counters: DecodeCounters) -> list[RecorderOutput]:
    from ..storage import config_from_dict

    config = config_from_dict(RecorderConfig, data["config"])
    outputs = []
    for core in data["cores"]:
        where = f"{origin}, variant {name}, core {core['core_id']}"
        try:
            log = base64.b64decode(core["log"], validate=True)
        except binascii.Error as exc:
            raise WireFormatError(
                "base64", f"{where}: log is not valid base64 ({exc})") from exc
        bits = core["bit_length"]
        if not 0 <= bits <= 8 * len(log):
            raise WireFormatError(
                "bit_length", f"{where}: bit_length {bits} does not fit "
                f"the {len(log)}-byte log")
        outputs.append(RecorderOutput(
            core_id=core["core_id"], config=config,
            entries=EncodedLog(log, bits, config, where, counters),
            stats=recorder_stats_from_dict(core["stats"])))
    return outputs


def _baseline_to_dict(recorder) -> dict:
    stats = getattr(recorder, "stats", recorder)
    return {"log_bits": stats.log_bits,
            "instructions_counted": stats.instructions_counted,
            "chunked": hasattr(recorder, "stats")}


def _baseline_from_dict(data: dict):
    summary = BaselineSummary(log_bits=data["log_bits"],
                              instructions_counted=data["instructions_counted"])
    if data["chunked"]:
        # Chunk-style recorders expose their counters behind ``.stats``;
        # the figure code dispatches on that attribute, so preserve it.
        return SimpleNamespace(stats=summary)
    return summary


def run_result_to_dict(result: RunResult, *,
                       include_program: bool = True) -> dict:
    """Render a run result as one JSON-able dict.

    Without the program (``include_program=False``) this is the sweep
    wire format: the run key already determines the program, and
    ``program_digest`` pins it.  Standalone result files keep it.
    """
    from ..storage import config_to_dict, program_to_dict

    out = {
        "serialization_version": SERIALIZATION_VERSION,
        "program_digest": result.program_digest(),
        "config": config_to_dict(result.config),
        "cycles": result.cycles,
        "cores": [_core_result_to_dict(core) for core in result.cores],
        "recordings": {
            name: _recordings_to_dict(name, outputs)
            for name, outputs in result.recordings.items()},
        "final_memory": {str(addr): value
                         for addr, value in result.final_memory.items()},
        "bus_transactions": result.bus_transactions,
        "load_trace": (None if result.load_trace is None else
                       [[list(event) for event in core]
                        for core in result.load_trace]),
        "baselines": {name: [_baseline_to_dict(recorder)
                             for recorder in per_core]
                      for name, per_core in result.baselines.items()},
        "dependence_edges": {
            name: [[e.src_core, e.src_cisn, e.dst_core, e.dst_cisn]
                   for e in edges]
            for name, edges in result.dependence_edges.items()},
        "metrics": metrics_snapshot_to_dict(result.metrics),
    }
    if include_program:
        out["program"] = program_to_dict(result.program)
    return out


def run_result_from_dict(data: dict, *, program_source=None,
                         origin: str = "run result",
                         counters: DecodeCounters | None = None
                         ) -> RunResult:
    """Rebuild a :class:`RunResult` written by :func:`run_result_to_dict`.

    Only the cheap parts are decoded here.  Each core's log stays encoded
    until its ``entries`` are read, and the program is built on first read
    of ``program``: decoded from the dict when it carries one, else made
    by ``program_source()`` (the sweep rebuilds it from the run key).
    Either way it is checked against ``program_digest``.  ``origin``
    names the data in errors; ``counters`` tallies the deferred decodes.
    """
    from ..storage import config_from_dict, program_from_dict

    version = data.get("serialization_version")
    if version != SERIALIZATION_VERSION:
        raise LogFormatError(
            f"unsupported run-result serialization version {version!r} "
            f"(this build reads {SERIALIZATION_VERSION})")
    digest = data.get("program_digest")
    if not isinstance(digest, str):
        raise WireFormatError("program_digest",
                              f"{origin}: no program_digest")
    if "program" in data:
        embedded = data["program"]
        program_source = lambda: program_from_dict(embedded)  # noqa: E731
    elif program_source is None:
        raise LogFormatError(
            f"{origin}: carries no program and no program source was given "
            f"(sweep results rebuild theirs from the run key)")
    counters = DecodeCounters() if counters is None else counters
    load_trace = data["load_trace"]
    return RunResult(
        program=DigestedProgram(digest, program_source, origin, counters),
        config=config_from_dict(MachineConfig, data["config"]),
        cycles=data["cycles"],
        cores=[_core_result_from_dict(core) for core in data["cores"]],
        recordings={
            name: _recordings_from_dict(name, outputs, origin, counters)
            for name, outputs in data["recordings"].items()},
        final_memory={int(addr): value
                      for addr, value in data["final_memory"].items()},
        bus_transactions=data["bus_transactions"],
        load_trace=(None if load_trace is None else
                    [[tuple(event) for event in core]
                     for core in load_trace]),
        baselines={name: [_baseline_from_dict(entry) for entry in per_core]
                   for name, per_core in data["baselines"].items()},
        dependence_edges={name: [IntervalEdge(*row) for row in rows]
                          for name, rows in data["dependence_edges"].items()},
        metrics=metrics_snapshot_from_dict(data["metrics"]),
    )
