"""Command-line tools: record, replay, inspect and sweep recordings.

Usage::

    python -m repro.tools record --workload fft --cores 8 --out rec/
    python -m repro.tools replay rec/ --variant opt_4k
    python -m repro.tools inspect rec/
    python -m repro.tools sweep --workloads fft,radix --cores 4,8 \\
        --consistency RC,TSO --jobs 4 --scheduler stealing \\
        --cache-dir .repro_cache
    python -m repro.tools sweep-bench --cells 64 --jobs 8 --min-speedup 3
    python -m repro.tools bench --workloads fft --cores 16 \\
        --out BENCH_kernel.json --min-speedup 1.5
    python -m repro.tools profile --workload fft --cores 16
    python -m repro.tools perf-report --history BENCH_history.jsonl
    python -m repro.tools fuzz --budget 200 --seed 0 --jobs 2 \\
        --emit-regressions fuzz-out/

``record`` runs a named workload (or a saved ``program.json``) under the
configured machine and saves the recording directory; ``replay``
deterministically replays a stored variant, verifying against the stored
execution; ``inspect`` summarizes the logs without replaying.  ``sweep``
records a (workload x cores x consistency) grid through the parallel
sharded runner with the persistent result cache (``--cache-dir``,
default ``.repro_cache``) — interrupt it and rerun (``--resume``) and it
picks up where it left off.  It takes the same sweep flags as
``python -m repro.harness``.  ``--scheduler stealing`` swaps the static
shard split for the work-stealing engine whose in-flight leases dedupe
cells across sweep processes sharing one ``--cache-dir``, and
``sweep-bench`` measures that engine (straggler-skew speedup,
exactly-once lease dedupe) into the perf-observatory history.  ``bench``
times the event-driven and lockstep simulation kernels on the same
workloads, checks their results are bit-identical, writes the comparison
to a JSON report and appends one record per workload to the append-only
``BENCH_history.jsonl`` perf observatory.  ``profile`` attributes every
simulated core-cycle of one run to busy/stall-reason buckets and the
host wall time to kernel components (:mod:`repro.obs.profiler`).
``perf-report`` compares the newest bench-history records against a
rolling baseline and fails on regression — the CI perf gate.  ``fuzz``
runs the coverage-guided adversarial fuzzer (:mod:`repro.fuzz`): mutated
program genomes are driven toward rare recorder states and checked by
the differential oracle stack, with failures auto-minimized into
ready-to-commit regression entries.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .common.config import (
    CoherenceProtocol,
    ConsistencyModel,
    MachineConfig,
    RecorderConfig,
    RecorderMode,
)
from .common.errors import (
    ConfigError,
    FuzzError,
    LogFormatError,
    ReplayDivergenceError,
    WorkloadError,
)
from .harness.parallel_runner import (ParallelRunner, add_sweep_flags,
                                      cache_from_args)
from .obs.logging import add_log_level_argument, setup_logging
from .recorder.logfmt import IntervalFrame
from .sim import Machine
from .sim.kernel import KERNELS
from .storage import load_program, load_recording, save_recording
from .workloads import WORKLOAD_NAMES, build_workload


def _build_variants(names: list[str]) -> dict[str, RecorderConfig]:
    variants = {}
    for name in names:
        mode_part, _, cap_part = name.partition("_")
        mode = RecorderMode(mode_part)
        cap = None if cap_part in ("", "inf") else int(cap_part)
        variants[name] = RecorderConfig(mode=mode,
                                        max_interval_instructions=cap)
    return variants


def cmd_record(args) -> int:
    if args.program:
        program = load_program(args.program)
    else:
        program = build_workload(args.workload, num_threads=args.cores,
                                 scale=args.scale, seed=args.seed)
    config = replace(
        MachineConfig(num_cores=program.num_threads, seed=args.seed),
        consistency=ConsistencyModel(args.consistency),
        protocol=CoherenceProtocol(args.protocol))
    machine = Machine(config, _build_variants(args.variants))
    tracer = None
    if args.trace or args.trace_out:
        from .obs import Tracer
        tracer = Tracer()
    if not args.out and not args.result_out:
        print("error: record needs --out and/or --result-out",
              file=sys.stderr)
        return 2
    result = machine.run(
        program, collect_dependence_edges=args.edges, tracer=tracer,
        kernel=args.kernel)
    where = []
    if args.out:
        where.append(str(save_recording(result, args.out)))
    if args.result_out:
        from .sim.serialize import run_result_to_dict
        with open(args.result_out, "w") as handle:
            json.dump(run_result_to_dict(result), handle, sort_keys=True)
        where.append(args.result_out)
    print(f"recorded {result.total_instructions} instructions "
          f"({result.cycles} cycles, {len(result.cores)} cores) -> "
          + ", ".join(where))
    if args.trace_out:
        from .obs import export_chrome_trace
        export_chrome_trace(tracer.events(), args.trace_out)
        print(f"  trace ({len(tracer)} events) -> {args.trace_out}")
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(result.metrics.to_dict(), handle, indent=1,
                      sort_keys=True)
        print(f"  metrics -> {args.metrics_out}")
    for variant in args.variants:
        stats = result.recording_stats(variant)
        print(f"  {variant}: {stats.log_bits} bits "
              f"({stats.bits_per_kilo_instruction():.0f} b/KI, "
              f"{stats.reordered_total} reordered)")
    return 0


def cmd_replay(args) -> int:
    stored = load_recording(args.recording)
    variants = args.variant or list(stored.variants)
    for variant in variants:
        if args.parallel:
            from .replay.parallel import ParallelReplayer
            total = sum(f["instructions"] for f in stored.core_facts)
            cpi = (stored.cycles * len(stored.core_facts) / total
                   if total else 1.0)
            replayer = ParallelReplayer(
                stored.program, stored.log_entries(variant),
                stored.edges(variant), stored.config.replay_cost,
                recorded_cpi=cpi, variant=variant)
            _memory, _contexts, counts, sequential, makespan = \
                replayer.replay()
            print(f"{variant}: parallel replay OK "
                  f"({counts.intervals} intervals, "
                  f"speedup {sequential / makespan:.2f}x)")
            continue
        result = stored.replay(variant, verify=not args.no_verify)
        status = "VERIFIED" if result.verified else "replayed (unverified)"
        normalized = result.normalized_to_recording(stored.cycles)
        print(f"{variant}: {status} — {result.counts.instructions} native "
              f"instructions, {result.counts.injected_loads} injected "
              f"loads, {result.counts.patched_writes} patched writes; "
              f"est. {normalized['total']:.1f}x recording time")
    return 0


def _parse_chunk(text: str) -> tuple[int, int]:
    """Parse a ``CORE:CISN`` chunk reference."""
    core, sep, cisn = text.partition(":")
    try:
        if not sep:
            raise ValueError
        return int(core, 0), int(cisn, 0)
    except ValueError:
        raise ValueError(f"expected CORE:CISN, got {text!r}") from None


def _parse_addr_value(text: str) -> tuple[int, int | None]:
    """Parse an ``ADDR`` or ``ADDR=VALUE`` reference (0x… accepted)."""
    addr_part, sep, value_part = text.partition("=")
    try:
        return int(addr_part, 0), (int(value_part, 0) if sep else None)
    except ValueError:
        raise ValueError(f"expected ADDR[=VALUE], got {text!r}") from None


def _summarize_directory(stored, args) -> int:
    """The classic recording-directory summary (no replay needed)."""
    config = stored.config
    print(f"recording: {stored.root}")
    print(f"  program : {stored.program.name} "
          f"({stored.program.num_threads} threads, "
          f"{stored.program.total_instructions()} static instructions)")
    print(f"  machine : {config.num_cores} cores, "
          f"{config.consistency.value}, {config.protocol.value}, "
          f"{stored.cycles} cycles")
    for variant in stored.variants:
        per_core = stored.log_entries(variant)
        entries = sum(len(core) for core in per_core)
        intervals = sum(1 for core in per_core for entry in core
                        if isinstance(entry, IntervalFrame))
        bits = stored.log_bits(variant)
        print(f"  {variant}: {entries} entries, {intervals} intervals, "
              f"{bits} bits ({bits / 8 / 1024:.2f} KiB on disk)")
        if args.verbose:
            kinds: dict[str, int] = {}
            for core in per_core:
                for entry in core:
                    kinds[type(entry).__name__] = \
                        kinds.get(type(entry).__name__, 0) + 1
            for kind, count in sorted(kinds.items()):
                print(f"      {kind}: {count}")
        if args.analyze:
            from .analysis import merge_profiles, profile_log, \
                render_profile, render_timeline
            profile = merge_profiles(profile_log(core) for core in per_core)
            print(render_profile(profile, name=variant), end="")
            print(render_timeline(per_core), end="")
    return 0


def cmd_inspect(args) -> int:
    queries = any(value is not None for value in (
        args.state_at, args.first_write, args.last_write, args.who_read,
        args.timeline, args.hb_slice))
    path = Path(args.recording)
    if path.is_dir():
        stored = load_recording(path)
        if not queries and not args.json:
            return _summarize_directory(stored, args)
        inspector = stored.inspector(args.variant,
                                     checkpoint_every=args.checkpoint_every)
    else:
        from .obs.inspect import ReplayInspector
        from .sim.serialize import run_result_from_dict

        result = run_result_from_dict(json.loads(path.read_text()))
        variant = args.variant or sorted(result.recordings)[0]
        inspector = ReplayInspector.from_run_result(
            result, variant, checkpoint_every=args.checkpoint_every)

    payload: dict = {"summary": inspector.summary()}
    blocks: list[str] = []
    if args.state_at is not None:
        core, cisn = _parse_chunk(args.state_at)
        view = inspector.state_at(core, cisn)
        payload["state"] = view.to_dict()
        blocks.append(view.render())
    if args.first_write is not None:
        addr, _ = _parse_addr_value(args.first_write)
        access = inspector.first_write(addr)
        payload["first_write"] = None if access is None else access.to_dict()
        blocks.append(f"first write to {addr:#x}: "
                      + (access.render() if access else "never written"))
    if args.last_write is not None:
        addr, _ = _parse_addr_value(args.last_write)
        access = inspector.last_write(addr)
        payload["last_write"] = None if access is None else access.to_dict()
        blocks.append(f"last write to {addr:#x}: "
                      + (access.render() if access else "never written"))
    if args.who_read is not None:
        addr, value = _parse_addr_value(args.who_read)
        reads = inspector.who_read(addr, value)
        payload["who_read"] = [access.to_dict() for access in reads]
        header = (f"reads of {addr:#x}"
                  + (f" = {value:#x}" if value is not None else ""))
        blocks.append(f"{header}: {len(reads)}\n"
                      + "\n".join(f"  {access.render()}"
                                  for access in reads))
    if args.timeline is not None:
        spans = inspector.timeline(args.timeline)
        payload["timeline"] = spans
        lines = [f"core {args.timeline} timeline ({len(spans)} chunks):"]
        for span in spans:
            lines.append(
                f"  chunk {span['cisn']:>4} pos {span['position']:>4} "
                f"cycles {span['start']}..{span['end']}: "
                f"{span['instructions']} instr, "
                f"{span['injected_loads']} injected, "
                f"{span['dummies']} dummies, "
                f"{span['patched_writes']} patched")
        blocks.append("\n".join(lines))
    if args.hb_slice is not None:
        core, cisn = _parse_chunk(args.hb_slice)
        hb = inspector.hb_slice(core, cisn, depth=args.hb_depth)
        payload["hb_slice"] = hb.to_dict()
        blocks.append(hb.render())

    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    summary = payload["summary"]
    print(f"inspect [{summary['variant']}]: {summary['intervals']} chunks, "
          f"{summary['checkpoints']} checkpoints "
          f"(every {summary['checkpoint_every']}), "
          f"{summary['accesses']} accesses, "
          f"HB {summary['hb_source']} ({summary['hb_edges']} edges)")
    for block in blocks:
        print(block)
    return 0


def cmd_sweep(args) -> int:
    from .harness.report import format_table, render_sweep_summary
    from .harness.runner import RunKey

    workloads = ([name.strip() for name in args.workloads.split(",")]
                 if args.workloads != "all" else list(WORKLOAD_NAMES))
    unknown = [name for name in workloads if name not in WORKLOAD_NAMES]
    if unknown:
        print(f"error: unknown workloads: {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    core_counts = [int(item) for item in args.cores.split(",")]
    models = [ConsistencyModel(item.strip())
              for item in args.consistency.split(",")]

    keys = [RunKey(workload, cores, args.scale, args.seed, model,
                   args.with_baselines)
            for workload in workloads
            for cores in core_counts
            for model in models]
    from .obs.telemetry import TelemetryConfig
    telemetry = TelemetryConfig(
        capture_trace=args.capture_trace or bool(args.trace_out),
        trace_capacity=args.trace_capacity)
    # Progress lines go through the structured repro.harness.sweep logger
    # (configured by --log-level in main), not ad-hoc stderr prints.
    runner = ParallelRunner(
        jobs=args.jobs, cache=cache_from_args(args), timeout_s=args.timeout,
        telemetry=telemetry, scheduler=args.scheduler)
    results = runner.run(keys)

    rows = []
    for key in keys:
        result = results[key]
        stats = result.recording_stats("opt_4k")
        rows.append([key.workload, key.cores, key.consistency.value,
                     result.cycles, result.total_instructions,
                     stats.bits_per_kilo_instruction()])
    print(format_table(
        "Sweep results",
        ["workload", "cores", "model", "cycles", "instructions",
         "opt_4k b/KI"], rows, floatfmt="{:.1f}"))
    print(render_sweep_summary(runner.registry.snapshot()))
    if runner.aggregator.quarantined:
        for label, reason in runner.aggregator.quarantined:
            print(f"warning: telemetry quarantined for {label}: {reason}",
                  file=sys.stderr)
    if args.results_out:
        import json

        from .sim.serialize import run_result_to_dict
        # Fully deterministic artifact: serialized results (the sweep wire
        # format, programs pinned by digest) keyed by shard label, no wall
        # times or counters — byte-identical no matter the scheduler, job
        # width or cache temperature.
        payload = {key.label(): run_result_to_dict(results[key],
                                                   include_program=False)
                   for key in sorted(keys, key=RunKey.label)}
        with open(args.results_out, "w") as handle:
            json.dump(payload, handle, sort_keys=True,
                      separators=(",", ":"))
        print(f"  sweep results -> {args.results_out}")
    if args.metrics_out:
        import json
        with open(args.metrics_out, "w") as handle:
            json.dump(runner.registry.snapshot().to_dict(), handle,
                      indent=1, sort_keys=True)
        print(f"  sweep metrics -> {args.metrics_out}")
    if args.trace_out:
        import json
        events = runner.aggregator.trace_events()
        with open(args.trace_out, "w") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        print(f"  merged trace ({len(events)} events) -> {args.trace_out}")
    return 0


def _bench_cell_worker(payload: dict) -> dict:
    """``sweep-bench`` worker: one synthetic sweep cell (pure sleep).

    The fabric bench measures *scheduling*, not simulation — a sleep of
    the cell's nominal cost makes the straggler skew exact and the run
    fast enough for CI.
    """
    import time
    time.sleep(payload["sleep_s"])
    return {"index": payload["index"], "attempt": payload["attempt"]}


def _bench_partition_worker(payload: dict) -> dict:
    """``sweep-bench`` worker: one static partition, run serially.

    This is the honest pre-split baseline: each worker receives its
    contiguous slice of the grid up front and must finish all of it,
    exactly like the pre-PR static shard split — a straggler-heavy slice
    idles every other worker.
    """
    import time
    for sleep_s in payload["sleeps"]:
        time.sleep(sleep_s)
    return {"cells": len(payload["sleeps"])}


def cmd_sweep_bench(args) -> int:
    import threading
    import time
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import wait as futures_wait

    from .common.hashing import stable_digest
    from .harness.cachestore import MemoryStore
    from .harness.stealing import (FabricHooks, WorkStealingPool,
                                   static_partitions)

    jobs = max(2, args.jobs)
    cells = max(jobs, args.cells)
    heavy = min(max(1, args.heavy), cells)
    # Heavy cells clustered at the front — the worst case for a
    # contiguous pre-partition and the common shape of a grid sorted by
    # workload size.
    sleeps = ([args.heavy_ms / 1000.0] * heavy
              + [args.light_ms / 1000.0] * (cells - heavy))

    pool = ProcessPoolExecutor(max_workers=jobs)
    # Warm every worker process up front so spawn cost hits neither arm.
    futures_wait([pool.submit(_bench_cell_worker,
                              {"index": -1, "attempt": 0, "sleep_s": 0.0})
                  for _ in range(jobs)])

    # ---- arm 1: static contiguous pre-partition (one task per worker).
    parts = static_partitions(cells, jobs)
    started = time.perf_counter()
    futures_wait([pool.submit(_bench_partition_worker,
                              {"sleeps": [sleeps[i] for i in part]})
                  for part in parts])
    static_s = time.perf_counter() - started

    # ---- arm 2: work stealing over the same cells and the same pool.
    engine = WorkStealingPool(jobs=jobs, worker=_bench_cell_worker)
    started = time.perf_counter()
    engine.map(list(range(cells)),
               payload=lambda i, attempt: {"index": i, "attempt": attempt,
                                           "sleep_s": sleeps[i]},
               executor=pool)
    stealing_s = time.perf_counter() - started
    speedup = static_s / stealing_s if stealing_s > 0 else float("inf")

    # ---- arm 3: two cooperating schedulers, one lease domain.  Both
    # sweep the same cells concurrently; leases must make each cell
    # execute exactly once in total, the other rank deduping from the
    # shared store.
    store = MemoryStore()
    lock = threading.Lock()
    executed = [0, 0]
    deduped = [0, 0]

    def run_rank(rank: int) -> None:
        owner = f"rank{rank}"

        def probe(i):
            if store.get(f"cell-{i}") is None:
                return None
            return {"dedup": True, "index": i}

        def on_complete(index, item, reply):
            with lock:
                if reply.get("dedup"):
                    deduped[rank] += 1
                else:
                    # Publish BEFORE the engine releases our lease (it
                    # calls release after on_complete returns) — the
                    # ordering the dedupe guarantee rests on.
                    store.put(f"cell-{item}", b"done")
                    executed[rank] += 1

        hooks = FabricHooks(
            probe=probe,
            acquire=lambda i: store.acquire_lease(f"cell-{i}", owner, 30.0),
            release=lambda i: store.release_lease(f"cell-{i}", owner))
        rank_engine = WorkStealingPool(jobs=max(1, jobs // 2),
                                       worker=_bench_cell_worker,
                                       hooks=hooks, poll_s=0.005)
        rank_engine.map(
            list(range(cells)),
            payload=lambda i, attempt: {"index": i, "attempt": attempt,
                                        "sleep_s": args.light_ms / 1000.0},
            on_complete=on_complete,
            executor=pool)

    threads = [threading.Thread(target=run_rank, args=(rank,))
               for rank in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    pool.shutdown()
    total_executed = sum(executed)
    exactly_once = total_executed == cells

    config = {"cells": cells, "heavy": heavy, "heavy_ms": args.heavy_ms,
              "light_ms": args.light_ms, "jobs": jobs}
    report = {
        "config": config,
        "skew": {"static_s": round(static_s, 4),
                 "stealing_s": round(stealing_s, 4),
                 "speedup": round(speedup, 3)},
        "fabric": {"executed": executed, "deduped": deduped,
                   "total_executed": total_executed, "cells": cells,
                   "exactly_once": exactly_once},
    }

    print(f"sweep-bench: skewed {cells}-cell grid, {heavy} heavy cells, "
          f"{jobs} workers")
    print(f"  static split   {static_s:8.3f}s")
    print(f"  work stealing  {stealing_s:8.3f}s   ({speedup:.2f}x)")
    print(f"  lease dedupe   {total_executed}/{cells} cells executed "
          f"across 2 cooperating schedulers "
          f"(rank0 {executed[0]}+{deduped[0]} dedup, "
          f"rank1 {executed[1]}+{deduped[1]} dedup)")

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
        print(f"  report -> {args.out}")
    if not args.no_history:
        from .obs.perfdb import (PERFDB_SCHEMA, PerfRecord, append_records,
                                 git_revision)
        record = PerfRecord(
            schema=PERFDB_SCHEMA, timestamp=time.time(),
            git_rev=git_revision(), config_hash=stable_digest(config)[:16],
            workload="sweep_fabric_skew", cycles=cells, instructions=cells,
            wall_s=round(stealing_s, 4),
            sim_cycles_per_s=round(cells / stealing_s, 2)
            if stealing_s > 0 else 0.0,
            speedup=round(speedup, 3), kernel="stealing")
        append_records(args.history, [record])
        print(f"  history +1 record -> {args.history}")

    code = 0
    if not exactly_once:
        print(f"FAIL: {total_executed} executions for {cells} cells — "
              f"lease dedupe must make each cell execute exactly once",
              file=sys.stderr)
        code = 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: stealing speedup {speedup:.2f}x below the "
              f"--min-speedup {args.min_speedup:.2f}x gate",
              file=sys.stderr)
        code = 1
    return code


def cmd_bench(args) -> int:
    import json
    import time

    from .sim.serialize import run_result_to_dict

    workloads = [name.strip() for name in args.workloads.split(",")]
    unknown = [name for name in workloads if name not in WORKLOAD_NAMES]
    if unknown:
        print(f"error: unknown workloads: {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    base = MachineConfig(num_cores=args.cores, seed=args.seed)
    config = replace(
        base,
        consistency=ConsistencyModel(args.consistency),
        l1=replace(base.l1, size_kb=args.l1_kb, assoc=args.l1_assoc,
                   mshr_entries=args.mshr),
        memory=replace(base.memory, roundtrip_cycles=args.mem_cycles))

    report = {
        "config": {
            "cores": args.cores, "scale": args.scale, "seed": args.seed,
            "consistency": args.consistency, "l1_kb": args.l1_kb,
            "l1_assoc": args.l1_assoc, "mshr": args.mshr,
            "mem_cycles": args.mem_cycles, "repeats": args.repeats,
        },
        "workloads": {},
    }
    worst_speedup = None
    for name in workloads:
        program = build_workload(name, num_threads=args.cores,
                                 scale=args.scale, seed=args.seed)
        entry = {"kernels": {}}
        fingerprints = {}
        for kernel in sorted(KERNELS):
            best_wall = None
            result = None
            for _ in range(args.repeats):
                machine = Machine(config)
                start = time.perf_counter()
                result = machine.run(program, kernel=kernel)
                wall = time.perf_counter() - start
                if best_wall is None or wall < best_wall:
                    best_wall = wall
            fingerprints[kernel] = json.dumps(
                run_result_to_dict(result), sort_keys=True)
            entry["kernels"][kernel] = {
                "wall_s": round(best_wall, 4),
                "sim_cycles_per_s": round(result.cycles / best_wall, 1),
            }
            entry["cycles"] = result.cycles
            entry["instructions"] = result.total_instructions
        lockstep_wall = entry["kernels"]["lockstep"]["wall_s"]
        entry["speedups"] = {
            kernel: round(lockstep_wall / data["wall_s"], 3)
            for kernel, data in entry["kernels"].items()
            if kernel != "lockstep"}
        speedup = entry["speedups"]["event"]
        identical = len(set(fingerprints.values())) == 1
        entry["speedup"] = speedup
        entry["identical"] = identical
        report["workloads"][name] = entry
        worst_speedup = (speedup if worst_speedup is None
                         else min(worst_speedup, speedup))
        ratios = " ".join(f"{kernel} {ratio:.2f}x" for kernel, ratio
                          in sorted(entry["speedups"].items()))
        print(f"{name}: lockstep {lockstep_wall:.2f}s"
              f" speedups: {ratios} identical={identical}")
        if not identical:
            print(f"error: kernels diverged on {name}", file=sys.stderr)
            return 1

    if args.min_speedup is not None:
        report["min_speedup"] = args.min_speedup
        report["pass"] = worst_speedup >= args.min_speedup
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"  report -> {args.out}")
    if not args.no_history:
        from .obs.perfdb import (append_records, git_revision,
                                 records_from_bench_report)
        records = records_from_bench_report(report, timestamp=time.time(),
                                            git_rev=git_revision())
        append_records(args.history, records)
        print(f"  history +{len(records)} records -> {args.history}")
    if args.min_speedup is not None and worst_speedup < args.min_speedup:
        print(f"error: event kernel speedup {worst_speedup:.2f}x below "
              f"required {args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


def cmd_profile(args) -> int:
    import json

    from .obs.profiler import KernelProfiler, profile_to_chrome
    from .obs.profiler import render_profile as render_kernel_profile

    program = build_workload(args.workload, num_threads=args.cores,
                             scale=args.scale, seed=args.seed)
    config = replace(MachineConfig(num_cores=args.cores, seed=args.seed),
                     consistency=ConsistencyModel(args.consistency))
    profiler = KernelProfiler()
    result = Machine(config).run(program, kernel=args.kernel,
                                 profiler=profiler)
    profile = profiler.profile()
    print(f"{args.workload}: {result.cycles} cycles, "
          f"{result.total_instructions} instructions, "
          f"{args.cores} cores ({args.kernel} kernel)")
    print(render_kernel_profile(profile), end="")
    unattributed = sum(profile["sim"]["unattributed_cycles"])
    if unattributed:
        print(f"error: {unattributed} unattributed core-cycles "
              f"(attribution must be exact)", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(profile, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"  profile -> {args.out}")
    if args.chrome_out:
        with open(args.chrome_out, "w") as handle:
            json.dump(profile_to_chrome(profile), handle)
        print(f"  chrome trace -> {args.chrome_out}")
    return 0


def cmd_perf_report(args) -> int:
    from .obs.perfdb import (DEFAULT_TOLERANCE, DEFAULT_WINDOW, load_history,
                             regression_report)

    if not Path(args.history).exists():
        print(f"error: no bench history at {args.history}", file=sys.stderr)
        return 2
    records, skipped = load_history(args.history)
    if not records:
        print(f"perf report: no usable history in {args.history} "
              f"({skipped} corrupt lines skipped)")
        return 0
    tolerance = (DEFAULT_TOLERANCE if args.tolerance is None
                 else args.tolerance)
    window = DEFAULT_WINDOW if args.window is None else args.window
    report = regression_report(records, tolerance=tolerance, window=window,
                               floor_speedup=args.floor_speedup,
                               skipped_lines=skipped)
    print(report.render(), end="")
    return 0 if report.passed else 1


#: Known-bad configurations the fuzz harness can deliberately
#: re-introduce (``--inject-bug``) to prove it still catches them, as
#: recorder-field overrides.
INJECTED_BUGS = {
    "timestamp-floor-off": {"interval_timestamp_floor": False},
}

#: Which oracle must catch each injected bug for the self-test to pass.
INJECTED_BUG_ORACLES = {
    "timestamp-floor-off": "replay:",
}


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_fuzz_budget(text: str) -> dict:
    """``NNN`` = candidate count (deterministic); ``NNNs`` = wall seconds."""
    if text.endswith("s"):
        return {"budget": None, "wall_budget_s": float(text[:-1])}
    return {"budget": int(text)}


def cmd_fuzz(args) -> int:
    from .fuzz import (FuzzConfig, FuzzSession, load_corpus_dir,
                       random_baseline)

    overrides = dict(INJECTED_BUGS[args.inject_bug]) if args.inject_bug else {}
    config = FuzzConfig(seed=args.seed, jobs=args.jobs, batch=args.batch,
                        overrides=overrides,
                        emit_dir=args.emit_regressions,
                        max_failures=args.max_failures,
                        **_parse_fuzz_budget(args.budget))
    if args.baseline_random and config.budget is None:
        print("error: --baseline-random needs a count budget "
              "(wall-clock budgets are not comparable)", file=sys.stderr)
        return 2
    extra = (load_corpus_dir(args.corpus_dir) if args.corpus_dir else None)

    def note(line: str) -> None:
        print(line, file=sys.stderr)

    session = FuzzSession(config, extra_corpus=extra, note=note)
    report = session.run()
    print(f"fuzz: evaluated {report.evaluated} candidates "
          f"({report.seed_candidates} seeds) in {report.wall_seconds:.1f}s")
    print(f"fuzz: coverage {report.coverage_buckets} buckets "
          f"({report.mutation_new_buckets} found post-seed), "
          f"pool {report.pool_size}, "
          f"minimize evals {report.minimize_evals}")
    for failure in report.failures:
        line = (f"fuzz: FAILURE {failure.oracle} [{failure.origin}] "
                f"minimized {failure.spec.describe()} -> "
                f"{failure.minimized_spec.describe()} "
                f"({failure.minimize_steps} steps)")
        if failure.regression_path:
            line += f" -> {failure.regression_path}"
        print(line)

    baseline = None
    if args.baseline_random:
        baseline = random_baseline(replace(
            config, overrides={}, emit_dir=None, minimize_failures=False))
        print(f"fuzz: random baseline reached {baseline.coverage_buckets} "
              f"buckets at equal budget "
              f"(guided {report.coverage_buckets})")

    if args.out:
        payload = {"report": report.to_dict()}
        if baseline is not None:
            payload["baseline"] = baseline.to_dict()
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")

    ok = True
    if args.inject_bug:
        # Harness self-test mode: the injected bug MUST be caught, by
        # the oracle that owns that failure mode.
        expected = INJECTED_BUG_ORACLES[args.inject_bug]
        caught = [f for f in report.failures
                  if f.oracle.startswith(expected)]
        if not caught:
            print(f"fuzz: injected bug {args.inject_bug!r} was NOT caught",
                  file=sys.stderr)
            ok = False
        else:
            print(f"fuzz: injected bug {args.inject_bug!r} caught and "
                  f"minimized ({len(caught)} failure(s))")
    elif report.failures:
        ok = False
    if (args.min_new_buckets is not None
            and report.mutation_new_buckets < args.min_new_buckets):
        print(f"fuzz: only {report.mutation_new_buckets} new coverage "
              f"buckets post-seed (required {args.min_new_buckets})",
              file=sys.stderr)
        ok = False
    if baseline is not None and not (report.coverage_buckets
                                     > baseline.coverage_buckets):
        print("fuzz: guided coverage did not beat the random baseline",
              file=sys.stderr)
        ok = False
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.tools",
                                     description=__doc__)
    add_log_level_argument(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="record a workload execution")
    record.add_argument("--workload", choices=WORKLOAD_NAMES, default="fft")
    record.add_argument("--program", help="record a saved program.json "
                                          "instead of a named workload")
    record.add_argument("--cores", type=int, default=8)
    record.add_argument("--scale", type=float, default=0.5)
    record.add_argument("--seed", type=int, default=1)
    record.add_argument("--consistency", default="RC",
                        choices=[m.value for m in ConsistencyModel])
    record.add_argument("--protocol", default="snoopy",
                        choices=[p.value for p in CoherenceProtocol])
    record.add_argument("--variants", nargs="+", default=["opt_4096"],
                        help="e.g. opt_inf base_4096 opt_512")
    record.add_argument("--edges", action="store_true",
                        help="collect pairwise edges (enables parallel "
                             "replay; snoopy only)")
    record.add_argument("--out",
                        help="recording directory to write")
    record.add_argument("--result-out",
                        help="write the full serialized RunResult as JSON "
                             "(the repro.tools inspect input)")
    record.add_argument("--trace", action="store_true",
                        help="attach the structured trace bus")
    record.add_argument("--trace-out",
                        help="write Chrome trace-event JSON of the "
                             "recording (implies --trace)")
    record.add_argument("--metrics-out",
                        help="write the flat metrics snapshot as JSON")
    record.add_argument("--kernel", default="event", choices=sorted(KERNELS),
                        help="simulation kernel (both give identical "
                             "results; lockstep is the slow reference)")
    record.set_defaults(func=cmd_record)

    replay = sub.add_parser("replay", help="replay a stored recording")
    replay.add_argument("recording")
    replay.add_argument("--variant", action="append",
                        help="variant(s) to replay (default: all)")
    replay.add_argument("--parallel", action="store_true",
                        help="use the DAG-ordered parallel replayer "
                             "(requires --edges at record time)")
    replay.add_argument("--no-verify", action="store_true")
    replay.set_defaults(func=cmd_replay)

    sweep = sub.add_parser(
        "sweep", help="record a workload grid in parallel with caching")
    sweep.add_argument("--workloads", default="all",
                       help="comma-separated workloads (default: all)")
    sweep.add_argument("--cores", default="8",
                       help="comma-separated core counts (default: 8)")
    sweep.add_argument("--consistency", default="RC",
                       help="comma-separated models out of "
                            + ",".join(m.value for m in ConsistencyModel))
    sweep.add_argument("--with-baselines", action="store_true",
                       help="attach the SC/TSO baseline recorders")
    sweep.add_argument("--scale", type=float, default=0.5)
    sweep.add_argument("--seed", type=int, default=1)
    add_sweep_flags(sweep)
    sweep.add_argument("--results-out", default=None,
                       help="write the serialized results keyed by shard "
                            "label (deterministic: byte-identical across "
                            "schedulers, job widths and cache temperature)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-shard timeout in seconds")
    sweep.add_argument("--capture-trace", action="store_true",
                       help="workers keep a bounded trace ring buffer and "
                            "ship it back with their results")
    sweep.add_argument("--trace-capacity", type=int, default=4096,
                       help="per-worker trace ring capacity "
                            "(with --capture-trace)")
    sweep.add_argument("--trace-out", default=None,
                       help="write the merged worker traces as JSONL "
                            "(implies --capture-trace)")
    sweep.set_defaults(func=cmd_sweep)

    sweep_bench = sub.add_parser(
        "sweep-bench",
        help="benchmark the sweep scheduler: static vs work-stealing on a "
             "straggler-skewed grid, and two-scheduler lease dedupe")
    sweep_bench.add_argument("--cells", type=int, default=64,
                             help="synthetic grid size (default 64)")
    sweep_bench.add_argument("--heavy", type=int, default=8,
                             help="straggler cells clustered at the grid "
                                  "front (default 8)")
    sweep_bench.add_argument("--heavy-ms", type=float, default=200.0,
                             help="straggler cell cost in ms (default 200)")
    sweep_bench.add_argument("--light-ms", type=float, default=10.0,
                             help="light cell cost in ms (default 10)")
    sweep_bench.add_argument("--jobs", type=int, default=8,
                             help="worker processes (default 8)")
    sweep_bench.add_argument("--out", default=None,
                             help="write the JSON report")
    sweep_bench.add_argument("--history", default="BENCH_history.jsonl",
                             help="append-only JSONL perf history "
                                  "(default: BENCH_history.jsonl)")
    sweep_bench.add_argument("--no-history", action="store_true",
                             help="do not append this run to the history")
    sweep_bench.add_argument("--min-speedup", type=float, default=None,
                             help="exit non-zero if stealing beats the "
                                  "static split by less than this factor")
    sweep_bench.set_defaults(func=cmd_sweep_bench)

    bench = sub.add_parser(
        "bench", help="time the event kernel against the lockstep "
                      "reference and check they agree byte-for-byte")
    bench.add_argument("--workloads", default="fft",
                       help="comma-separated workloads (default: fft)")
    bench.add_argument("--cores", type=int, default=16)
    bench.add_argument("--scale", type=float, default=0.5)
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--consistency", default="RC",
                       choices=[m.value for m in ConsistencyModel])
    bench.add_argument("--l1-kb", type=int, default=4,
                       help="L1 size in KiB (small => miss-heavy)")
    bench.add_argument("--l1-assoc", type=int, default=2)
    bench.add_argument("--mshr", type=int, default=2,
                       help="L1 MSHR entries (few => long stalls)")
    bench.add_argument("--mem-cycles", type=int, default=400,
                       help="memory roundtrip latency in cycles")
    bench.add_argument("--repeats", type=_positive_int, default=3,
                       help="timing repeats; best wall time is reported")
    bench.add_argument("--out", default=None,
                       help="write the JSON report (e.g. BENCH_kernel.json)")
    bench.add_argument("--min-speedup", type=float, default=None,
                       help="exit non-zero if the event kernel speedup "
                            "falls below this factor")
    bench.add_argument("--history", default="BENCH_history.jsonl",
                       help="append-only JSONL perf history "
                            "(default: BENCH_history.jsonl)")
    bench.add_argument("--no-history", action="store_true",
                       help="do not append this run to the perf history")
    bench.set_defaults(func=cmd_bench)

    profile = sub.add_parser(
        "profile", help="attribute simulated cycles and host time of a run")
    profile.add_argument("--workload", choices=WORKLOAD_NAMES, default="fft")
    profile.add_argument("--cores", type=int, default=16)
    profile.add_argument("--scale", type=float, default=0.5)
    profile.add_argument("--seed", type=int, default=1)
    profile.add_argument("--consistency", default="RC",
                         choices=[m.value for m in ConsistencyModel])
    profile.add_argument("--kernel", default="event",
                         choices=sorted(KERNELS))
    profile.add_argument("--out", default=None,
                         help="write the hierarchical profile as JSON")
    profile.add_argument("--chrome-out", default=None,
                         help="write a Chrome trace-event rendering")
    profile.set_defaults(func=cmd_profile)

    perf_report = sub.add_parser(
        "perf-report",
        help="regression-check the bench history against a rolling baseline")
    perf_report.add_argument("--history", default="BENCH_history.jsonl")
    perf_report.add_argument("--tolerance", type=float, default=None,
                             help="relative drop tolerated vs the rolling "
                                  "baseline (default 0.25)")
    perf_report.add_argument("--window", type=int, default=None,
                             help="rolling-baseline depth in records "
                                  "(default 5)")
    perf_report.add_argument("--floor-speedup", type=float, default=None,
                             help="absolute event-kernel speedup floor "
                                  "enforced even without history")
    perf_report.set_defaults(func=cmd_perf_report)

    inspect = sub.add_parser(
        "inspect",
        help="summarize a recording or run time-travel replay queries")
    inspect.add_argument("recording",
                         help="recording directory or serialized RunResult "
                              "JSON (record --result-out)")
    inspect.add_argument("--verbose", "-v", action="store_true")
    inspect.add_argument("--analyze", "-a", action="store_true",
                         help="print log profiles and interval timelines "
                              "(directory summaries only)")
    inspect.add_argument("--variant", default=None,
                         help="recorder variant to inspect (default: first)")
    inspect.add_argument("--checkpoint-every", type=int, default=8,
                         metavar="N",
                         help="replay-checkpoint cadence in chunks "
                              "(default 8)")
    inspect.add_argument("--json", action="store_true",
                         help="emit one sorted JSON object instead of "
                              "tables")
    inspect.add_argument("--state-at", metavar="CORE:CISN",
                         help="machine state right after a chunk committed")
    inspect.add_argument("--first-write", metavar="ADDR",
                         help="first chunk that wrote an address")
    inspect.add_argument("--last-write", metavar="ADDR",
                         help="last chunk that wrote an address")
    inspect.add_argument("--who-read", metavar="ADDR[=VALUE]",
                         help="every read of an address (optionally only "
                              "reads that observed VALUE)")
    inspect.add_argument("--timeline", type=int, metavar="CORE",
                         help="one core's per-chunk interval timeline")
    inspect.add_argument("--hb-slice", metavar="CORE:CISN",
                         help="a chunk's happens-before causal cone")
    inspect.add_argument("--hb-depth", type=int, default=None,
                         help="bound the --hb-slice BFS to N hops")
    inspect.set_defaults(func=cmd_inspect)

    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided fuzzing of the recorder via differential "
             "oracles")
    fuzz.add_argument("--budget", default="100", metavar="N|Ns",
                      help="candidate evaluations (deterministic), or wall "
                           "seconds with an 's' suffix, e.g. 60s "
                           "(default 100)")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--jobs", type=int, default=1,
                      help="worker processes (any width gives identical "
                           "results under a count budget)")
    fuzz.add_argument("--batch", type=int, default=None,
                      help="candidates per generation (default max(4, jobs))")
    fuzz.add_argument("--corpus-dir",
                      help="extra corpus directory to seed from")
    fuzz.add_argument("--emit-regressions", metavar="DIR",
                      help="write minimized failures as ready-to-commit "
                           "regression entries + forensics bundles")
    fuzz.add_argument("--inject-bug", choices=sorted(INJECTED_BUGS),
                      help="re-introduce a known-bad recorder config; exit 0 "
                           "iff the fuzzer catches it (harness self-test)")
    fuzz.add_argument("--max-failures", type=int, default=5,
                      help="stop minimizing/emitting past this many failures")
    fuzz.add_argument("--min-new-buckets", type=int, default=None,
                      help="fail unless at least N coverage buckets were "
                           "first reached after the seed batch")
    fuzz.add_argument("--baseline-random", action="store_true",
                      help="also run the pure-random control at equal "
                           "budget; fail unless guided coverage beats it")
    fuzz.add_argument("--out",
                      help="write the session report (and baseline, if any) "
                           "as JSON")
    fuzz.set_defaults(func=cmd_fuzz)

    args = parser.parse_args(argv)
    setup_logging(args.log_level)
    logger = logging.getLogger("repro.tools")
    try:
        return args.func(args)
    except ReplayDivergenceError as error:
        report = getattr(error, "report", None)
        print(report.render() if report is not None else str(error),
              file=sys.stderr)
        logger.debug("replay divergence", exc_info=True)
        return 1
    except (OSError, json.JSONDecodeError, LogFormatError, ConfigError,
            WorkloadError, FuzzError, KeyError, ValueError) as error:
        message = (error.args[0] if error.args and
                   isinstance(error.args[0], str) else str(error))
        print(f"error: {message}", file=sys.stderr)
        logger.debug("command failed", exc_info=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
