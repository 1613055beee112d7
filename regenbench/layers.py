"""Per-layer tracing for the regeneration benchmark.

:class:`LayerTracer` wraps the public entry points of each ``repro``
module from outside the program (no repro source is touched) and turns
the calls into spans.  Every wrapper measures its own duration and
charges it to its parent, so each layer's *self time* is its spans'
duration minus the spans nested inside them.

Two kinds of span:

* coarse spans (workload build, validation, ``Machine.run``, encode and
  decode, cache get/put, prefetch, replay, litmus, figures, rendering)
  are kept in memory with name, start, end and parent, and written out
  at the end as Chrome trace-event JSON that Perfetto opens;
* hot spans (``Core.step``, ``MemorySystem.tick`` and the RelaxReplay
  recorder sinks run millions of times per sweep) are only summed: their
  self time and call count, plus per coarse span the share that ran
  inside it (in the span's ``args``).

The tracer patches class attributes and every ``repro.*`` module
attribute bound to a wrapped function (so ``from x import f`` copies are
covered too), and :meth:`LayerTracer.uninstall` restores them.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter

#: (module, attribute path, layer) for the coarse spans.
COARSE = (
    ("repro.workloads", "build_workload", "workloads.build"),
    ("repro.isa.program", "Program.validate", "isa.validate"),
    ("repro.sim.machine", "Machine.run", "sim.run"),
    ("repro.sim.serialize", "run_result_to_dict", "serialize.encode"),
    ("repro.sim.serialize", "run_result_from_dict", "serialize.decode"),
    ("repro.storage", "program_from_dict", "storage.program_decode"),
    ("repro.harness.parallel_runner", "ResultCache.get", "cache.get"),
    ("repro.harness.parallel_runner", "ResultCache.get_many", "cache.get"),
    ("repro.harness.parallel_runner", "ResultCache.put", "cache.put"),
    ("repro.harness.runner", "ExperimentRunner.prefetch", "sweep.prefetch"),
    ("repro.replay.replayer", "replay_recording", "replay"),
    ("repro.workloads.litmus", "run_litmus", "litmus"),
    ("repro.harness.report", "render_all", "report.render"),
)

#: (module, attribute path, layer) for the summed hot spans.
HOT = (
    ("repro.cpu.core", "Core.step", "cpu.step"),
    ("repro.mem.memsys", "MemorySystem.tick", "mem.tick"),
    ("repro.recorder.mrr", "RelaxReplayRecorder.on_perform", "recorder.sink"),
    ("repro.recorder.mrr", "RelaxReplayRecorder.on_count", "recorder.sink"),
    ("repro.recorder.mrr", "RelaxReplayRecorder.on_transaction",
     "recorder.sink"),
    ("repro.recorder.mrr", "RelaxReplayRecorder.finish", "recorder.sink"),
)

HOT_LAYERS = ("cpu.step", "mem.tick", "recorder.sink")

#: Figure computations: every public function of ``repro.harness.figures``
#: except the grid enumerator.
FIGURES_MODULE = "repro.harness.figures"


class LayerTracer:
    """Span recorder for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans: list[list] = []      # [layer, start, end, parent, args]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.hot_s = [0.0] * len(HOT_LAYERS)
        self.hot_calls = [0] * len(HOT_LAYERS)
        self.counts = {
            "isa.instructions_validated": 0, "sim.instructions": 0,
            "sim.cycles": 0, "mem.bus_commits": 0, "mem.l1_hits": 0,
            "mem.l1_misses": 0, "recorder.log_bits": 0,
            "replay.intervals": 0, "litmus.runs": 0,
            "cache.requested": 0, "cache.found": 0,
        }
        self._stack = [0.0]      # child-time accumulators; [0] is the root
        self._open: list[int] = []   # indices of open coarse spans
        self._litmus_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self.origin = perf_counter()

    # ------------------------------------------------------------ wrappers

    def _coarse(self, layer: str, fn, observer=None):
        stack, opened, spans = self._stack, self._open, self.spans
        hot_s, hot_calls = self.hot_s, self.hot_calls
        self.self_s.setdefault(layer, 0.0)
        self.calls.setdefault(layer, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [layer, 0.0, 0.0, opened[-1] if opened else None, None]
            spans.append(span)
            opened.append(index)
            before = (list(hot_s), list(hot_calls))
            token = observer[0](args) if observer else None
            stack.append(0.0)
            span[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = perf_counter()
                child = stack.pop()
                opened.pop()
                elapsed = end - start
                stack[-1] += elapsed
                self.self_s[layer] += elapsed - child
                self.calls[layer] += 1
                inside = {}
                for slot, name in enumerate(HOT_LAYERS):
                    calls = hot_calls[slot] - before[1][slot]
                    if calls:
                        inside[f"{name}_s"] = hot_s[slot] - before[0][slot]
                        inside[f"{name}_calls"] = calls
                span[4] = inside or None
            if observer:
                observer[1](args, result, token)
            return result
        return wrapper

    def _hot(self, slot: int, fn):
        stack, hot_s, hot_calls = self._stack, self.hot_s, self.hot_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                hot_s[slot] += elapsed - stack.pop()
                hot_calls[slot] += 1
                stack[-1] += elapsed
        return wrapper

    # ------------------------------------------------------- observations
    # Each observer is a (before(args) -> token, after(args, result, token))
    # pair run around one coarse call.

    @staticmethod
    def _nothing(args):
        return None

    def _validate_before(self, args):
        # Programs memoize a successful validation; those validate nothing.
        return not getattr(args[0], "_validated", False)

    def _validate_after(self, args, result, fresh):
        if fresh:
            self.counts["isa.instructions_validated"] += (
                args[0].total_instructions())

    def _run_after(self, args, result, token):
        counts = self.counts
        counts["sim.instructions"] += result.total_instructions
        counts["sim.cycles"] += result.cycles
        counts["mem.bus_commits"] += result.bus_transactions
        values = result.metrics.values if result.metrics is not None else {}
        for name, value in values.items():
            if name.startswith("cache") and name.endswith(".hits"):
                counts["mem.l1_hits"] += value
            elif name.startswith("cache") and name.endswith(".misses"):
                counts["mem.l1_misses"] += value
        for variant in result.recordings:
            counts["recorder.log_bits"] += (
                result.recording_stats(variant).log_bits)
        if self._litmus_depth:
            counts["litmus.runs"] += 1

    def _replay_after(self, args, result, token):
        self.counts["replay.intervals"] += result.counts.intervals

    def _litmus_before(self, args):
        self._litmus_depth += 1

    def _litmus_after(self, args, result, token):
        self._litmus_depth -= 1

    def _get_after(self, args, result, token):
        self.counts["cache.requested"] += 1
        self.counts["cache.found"] += result is not None

    def _get_many_after(self, args, result, token):
        self.counts["cache.requested"] += len(args[1])
        self.counts["cache.found"] += len(result)

    # -------------------------------------------------------- install

    def install(self) -> None:
        observers = {
            "Program.validate": (self._validate_before, self._validate_after),
            "Machine.run": (self._nothing, self._run_after),
            "replay_recording": (self._nothing, self._replay_after),
            "run_litmus": (self._litmus_before, self._litmus_after),
            "ResultCache.get": (self._nothing, self._get_after),
            "ResultCache.get_many": (self._nothing, self._get_many_after),
        }
        targets = []
        for module, path, layer in COARSE:
            targets.append((module, path,
                            lambda fn, layer=layer, path=path: self._coarse(
                                layer, fn, observers.get(path))))
        for module, path, layer in HOT:
            slot = HOT_LAYERS.index(layer)
            targets.append((module, path,
                            lambda fn, slot=slot: self._hot(slot, fn)))
        figures = importlib.import_module(FIGURES_MODULE)
        for name in figures.__all__:
            if name != "required_runs":
                targets.append((FIGURES_MODULE, name,
                                lambda fn: self._coarse("figures", fn)))
        # Load every module the harness uses first, so the from-import
        # copies below are all in sys.modules.
        importlib.import_module("repro.harness.__main__")
        for module, path, make in targets:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attr)
            wrapped = make(original)
            self._patch(owner, attr, wrapped)
            if not parents:
                # Rebind every ``from module import name`` copy as well.
                for loaded in list(sys.modules.values()):
                    if (loaded is not owner
                            and getattr(loaded, "__name__", "").startswith(
                                "repro")
                            and vars(loaded).get(attr) is original):
                        self._patch(loaded, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers of the traced pass (self times in seconds)."""
        counts = self.counts
        hot = dict(zip(HOT_LAYERS, self.hot_s))
        hot_calls = dict(zip(HOT_LAYERS, self.hot_calls))
        runs = sorted(end - start for layer, start, end, _, _ in self.spans
                      if layer == "sim.run")
        run_total = sum(runs)
        accesses = counts["mem.l1_hits"] + counts["mem.l1_misses"]
        requested = counts["cache.requested"]

        def self_s(layer):
            return self.self_s.get(layer, 0.0)

        def percentile(q):
            if not runs:
                return 0.0
            return 1000 * runs[min(len(runs) - 1, int(q * len(runs)))]

        return {
            "workloads.build_s": self_s("workloads.build"),
            "workloads.builds": self.calls.get("workloads.build", 0),
            "isa.validate_s": self_s("isa.validate"),
            "isa.instructions_validated":
                counts["isa.instructions_validated"],
            "sim.run_s": self_s("sim.run"),
            "sim.runs": len(runs),
            "sim.run_p50_ms": (1000 * statistics.median(runs)
                               if runs else 0.0),
            "sim.run_p99_ms": percentile(0.99),
            "sim.kips": (counts["sim.instructions"] / run_total / 1000
                         if run_total else 0.0),
            "sim.instructions": counts["sim.instructions"],
            "sim.cycles": counts["sim.cycles"],
            "cpu.step_s": hot["cpu.step"],
            "mem.tick_s": hot["mem.tick"],
            "mem.bus_commits": counts["mem.bus_commits"],
            "mem.l1_miss_ratio": (counts["mem.l1_misses"] / accesses
                                  if accesses else 0.0),
            "recorder.sink_s": hot["recorder.sink"],
            "recorder.sink_calls": hot_calls["recorder.sink"],
            "recorder.log_bits": counts["recorder.log_bits"],
            "serialize.encode_s": self_s("serialize.encode"),
            "serialize.decode_s": self_s("serialize.decode"),
            "storage.program_decode_s": self_s("storage.program_decode"),
            "cache.get_s": self_s("cache.get"),
            "cache.put_s": self_s("cache.put"),
            "cache.hit_ratio": (counts["cache.found"] / requested
                                if requested else 0.0),
            "sweep.prefetch_s": self_s("sweep.prefetch"),
            "replay.s": self_s("replay"),
            "replay.calls": self.calls.get("replay", 0),
            "replay.intervals": counts["replay.intervals"],
            "litmus.s": self_s("litmus"),
            "litmus.runs": counts["litmus.runs"],
            "figures.self_s": self_s("figures"),
            "report.render_s": self_s("report.render"),
        }

    def write_chrome_trace(self, path) -> None:
        """Coarse spans as Chrome trace-event JSON (Perfetto, chrome://tracing)."""
        events = []
        for index, (layer, start, end, parent, inside) in enumerate(
                self.spans):
            args = {"id": index, "parent": parent}
            if inside:
                args.update(inside)
            events.append({
                "name": layer, "cat": layer.split(".")[0], "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1, "tid": 1, "args": args})
        hot = {f"{name}_s": seconds
               for name, seconds in zip(HOT_LAYERS, self.hot_s)}
        hot.update({f"{name}_calls": calls
                    for name, calls in zip(HOT_LAYERS, self.hot_calls)})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": hot}, handle)
