"""Regenerate every experiment from the command line.

Usage::

    python -m repro.harness [--scale S] [--seed N] [--cores N]
                            [--experiments fig1,fig9,...] [--out FILE]
                            [--jobs N] [--cache-dir DIR] [--no-cache]
                            [--cache-backend SPEC | --cache-url URL]
                            [--scheduler static|stealing] [--resume]
                            [--metrics-out FILE]
    python -m repro.harness run --workload fft --cores 4 \\
        --trace --trace-out trace.json --metrics-out metrics.json
    python -m repro.harness run --workload fft,radix,lu --jobs 4 \\
        --cache-dir .repro_cache

The first form runs the selected experiments (default: all) and prints the
paper-style tables; ``--out`` additionally writes them to a file.  The
recordings the experiments need are prefetched as a sharded sweep:
``--jobs N`` spreads the shards over N worker processes, and every shard
lands in a persistent result cache (``--cache-dir``, default
``.repro_cache/``) as it completes, so a warm rerun — or a rerun after an
interruption (``--resume``) — skips everything already recorded.
``--cache-backend`` swaps the cache storage (``dir:PATH``,
``sqlite:PATH``, or ``http://HOST:PORT`` for a shared cache daemon;
``--cache-url`` is shorthand for the latter), and ``--scheduler
stealing`` replaces the static shard split with the work-stealing
engine whose in-flight leases dedupe cells across cooperating sweep
processes.  ``--no-cache`` disables the cache entirely.  Operational
output (sweep
progress, shard completions, experiment timings) goes through the
structured ``repro`` logger — tune it with ``--log-level``.

The ``run`` subcommand records one workload (or a comma-separated list,
sharded over ``--jobs`` workers) with the observability layer attached:
``--trace-out`` writes a Chrome trace-event JSON (open it in Perfetto /
chrome://tracing, one track per core plus bus and TRAQ tracks) and
``--metrics-out`` a flat ``{name: value}`` metrics snapshot (single
workload only).  For the experiments, ``--metrics-out`` writes the sweep's
metrics instead, taken after the experiments ran: cache hits, shards run,
and ``sweep.cache.logs_decoded``/``programs_attached`` — how many logs and
programs the figures actually needed decoded.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time

from repro.obs.logging import (add_log_level_argument, get_logger, log_kv,
                               setup_logging)

from . import figures
from .report import render_all, render_sweep_summary
from .runner import ExperimentRunner

_LOG = get_logger("harness.cli")

_EXPERIMENTS = {
    "table1": lambda runner, cores: figures.table1_parameters(),
    "fig1": lambda runner, cores: figures.fig1_ooo_fractions(runner,
                                                             cores=cores),
    "fig9": lambda runner, cores: figures.fig9_reordered_fractions(
        runner, cores=cores),
    "fig10": lambda runner, cores: figures.fig10_inorder_blocks(runner,
                                                                cores=cores),
    "fig11": lambda runner, cores: figures.fig11_log_sizes(runner,
                                                           cores=cores),
    "fig12": lambda runner, cores: figures.fig12_traq_utilization(
        runner, cores=cores),
    "fig13": lambda runner, cores: figures.fig13_replay_times(runner,
                                                              cores=cores),
    "fig14": lambda runner, cores: figures.fig14_scalability(runner),
    "baselines": lambda runner, cores: figures.baseline_log_comparison(
        runner, cores=cores),
    "overhead": lambda runner, cores: figures.recording_overhead(
        runner, cores=cores),
    "litmus": lambda runner, cores: _litmus_matrix(),
    "metrics": lambda runner, cores: figures.metrics_snapshot_table(
        runner, cores=cores),
}


def _litmus_matrix() -> dict:
    from repro.common.config import ConsistencyModel
    from repro.workloads.litmus import LITMUS_TESTS, run_litmus

    out = {}
    for name, test in LITMUS_TESTS.items():
        out[name] = {}
        for model in ConsistencyModel:
            result = run_litmus(test, model)
            out[name][model.value] = {
                "observed": sorted(result.observed),
                "violations": sorted(result.violations),
            }
    return out


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    """The parallel-runner / result-cache / metrics flags shared by both
    CLI forms."""
    parser.add_argument("--metrics-out", default=None,
                        help="write the flat metrics snapshot as JSON: the "
                             "recording's for 'run', the sweep's "
                             "(sweep.* counters) for the experiments")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the recording sweep "
                             "(default 1: serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent result cache directory "
                             "(default .repro_cache)")
    parser.add_argument("--cache-backend", default=None, metavar="SPEC",
                        help="pluggable cache backend: dir:PATH, "
                             "sqlite:PATH, or http://HOST:PORT (a running "
                             "'repro.tools cache-serve' daemon); overrides "
                             "--cache-dir")
    parser.add_argument("--cache-url", default=None, metavar="URL",
                        help="shorthand for --cache-backend http://... "
                             "(remote cache daemon URL)")
    parser.add_argument("--scheduler", default="static",
                        choices=("static", "stealing"),
                        help="shard scheduler: 'static' (classic pool) or "
                             "'stealing' (work-stealing deque + in-flight "
                             "leases deduping cells across cooperating "
                             "sweep processes)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the result cache")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted sweep from the cached "
                             "shards (cache reads are on by default; this "
                             "makes the intent explicit and rejects "
                             "--no-cache)")


def _check_sweep_flags(parser: argparse.ArgumentParser, args) -> None:
    if args.resume and args.no_cache:
        parser.error("--resume needs the result cache; "
                     "drop --no-cache")
    if args.cache_backend and args.cache_url:
        parser.error("--cache-backend and --cache-url are two spellings of "
                     "the same thing; give one")
    if args.no_cache and (args.cache_backend or args.cache_url):
        parser.error("--no-cache contradicts --cache-backend/--cache-url")


def _sweep_cache_spec(args) -> str | None:
    """The effective backend spec from --cache-backend/--cache-url."""
    return args.cache_backend or args.cache_url


def _run_command(argv: list[str]) -> int:
    """``run`` subcommand: traced/metered recordings of named workloads."""
    from repro.common.config import (ConsistencyModel, MachineConfig)
    from repro.obs import Tracer, export_chrome_trace
    from repro.sim import Machine
    from repro.workloads import WORKLOAD_NAMES, build_workload

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness run",
        description="Record workloads with tracing/metrics attached.")
    parser.add_argument("--workload", default="fft",
                        help="workload name, or a comma-separated list "
                             "sharded across --jobs workers "
                             f"(choices: {', '.join(WORKLOAD_NAMES)})")
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--consistency", default="RC",
                        choices=[m.value for m in ConsistencyModel])
    parser.add_argument("--trace", action="store_true",
                        help="attach the structured trace bus")
    parser.add_argument("--trace-out", default=None,
                        help="write retained events as Chrome trace-event "
                             "JSON (implies --trace)")
    parser.add_argument("--verify-replay", action="store_true",
                        help="deterministically replay the recording with "
                             "checkpoints and verify it (single workload)")
    parser.add_argument("--forensics-out", default=None,
                        help="write the replay-verification verdict as JSON "
                             "— on divergence the full DivergenceReport "
                             "with nearest checkpoint and causal slice "
                             "(implies --verify-replay)")
    parser.add_argument("--checkpoint-every", type=int, default=8,
                        metavar="N",
                        help="replay-checkpoint cadence in chunks for "
                             "--verify-replay (default 8)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt the recorded final memory before "
                             "verification (forces a divergence; for "
                             "exercising the forensics pipeline)")
    parser.add_argument("--result-out", default=None,
                        help="write the full serialized RunResult as JSON "
                             "(the repro.tools inspect input; single "
                             "workload)")
    _add_sweep_flags(parser)
    add_log_level_argument(parser)
    args = parser.parse_args(argv)
    _check_sweep_flags(parser, args)
    setup_logging(args.log_level)
    if args.forensics_out or args.inject_fault:
        args.verify_replay = True

    workloads = [name.strip() for name in args.workload.split(",")]
    unknown = [name for name in workloads if name not in WORKLOAD_NAMES]
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")

    consistency = ConsistencyModel(args.consistency)
    from dataclasses import replace as _replace
    config = _replace(MachineConfig(num_cores=args.cores, seed=args.seed),
                      consistency=consistency)

    if len(workloads) > 1:
        if (args.trace or args.trace_out or args.metrics_out
                or args.verify_replay or args.result_out):
            parser.error("--trace/--trace-out/--metrics-out/--verify-replay/"
                         "--forensics-out/--result-out need a single "
                         "--workload")
        from .cachestore import CacheBackendError
        from .parallel_runner import DEFAULT_CACHE_DIR, ParallelRunner, \
            ResultCache
        from .runner import RunKey
        cache = None
        spec = _sweep_cache_spec(args)
        if not args.no_cache and (spec or args.cache_dir or args.resume):
            try:
                cache = (ResultCache.from_spec(spec) if spec
                         else ResultCache(args.cache_dir
                                          or DEFAULT_CACHE_DIR))
            except CacheBackendError as exc:
                parser.error(str(exc))    # usage error: exit code 2
        runner = ParallelRunner(
            jobs=args.jobs, cache=cache,
            variants={"default": config.recorder},
            scheduler=args.scheduler)
        keys = [RunKey(name, args.cores, args.scale, args.seed, consistency,
                       False) for name in workloads]
        results = runner.run(keys)
        for key in keys:
            result = results[key]
            log_kv(_LOG, logging.INFO, "run.recorded",
                   workload=key.workload,
                   instructions=result.total_instructions,
                   cycles=result.cycles, cores=len(result.cores),
                   bus_transactions=result.bus_transactions)
        print(render_sweep_summary(runner.registry.snapshot()),
              file=sys.stderr)
        return 0

    program = build_workload(workloads[0], num_threads=args.cores,
                             scale=args.scale, seed=args.seed)
    tracer = Tracer() if (args.trace or args.trace_out) else None
    # The load trace makes --verify-replay check every loaded value, not
    # just the final state.
    result = Machine(config).run(program, tracer=tracer,
                                 capture_load_trace=args.verify_replay)

    log_kv(_LOG, logging.INFO, "run.recorded", workload=workloads[0],
           instructions=result.total_instructions, cycles=result.cycles,
           cores=len(result.cores),
           bus_transactions=result.bus_transactions)
    if tracer is not None:
        log_kv(_LOG, logging.INFO, "run.trace", retained=len(tracer),
               emitted=tracer.emitted)
    if args.trace_out:
        export_chrome_trace(tracer.events(), args.trace_out)
        print(f"  trace -> {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(result.metrics.to_dict(), handle, indent=1,
                      sort_keys=True)
        print(f"  metrics -> {args.metrics_out}", file=sys.stderr)
    if args.result_out:
        from repro.sim.serialize import run_result_to_dict
        with open(args.result_out, "w") as handle:
            json.dump(run_result_to_dict(result), handle, sort_keys=True)
        print(f"  run result -> {args.result_out}", file=sys.stderr)
    if args.verify_replay:
        return _verify_and_report(result, args, workloads[0], tracer)
    return 0


def _verify_and_report(result, args, workload: str, tracer) -> int:
    """Checkpointed replay verification behind ``run --verify-replay``.

    Writes the verdict to ``--forensics-out`` when asked: ``verified`` plus
    (on divergence) the full :class:`DivergenceReport` dict with its
    nearest-checkpoint, causal-slice and inspect-hint fields.  Exits 1 on
    divergence.
    """
    from repro.common.errors import ReplayDivergenceError
    from repro.replay.replayer import replay_recording

    if args.inject_fault:
        # Flip the low bit of the recorded final memory at the lowest
        # written address: replay itself stays sound, verification must
        # then blame the chunk that last wrote that word.
        addr = min(result.final_memory, default=0x8000)
        result.final_memory[addr] = result.final_memory.get(addr, 0) ^ 0x1
        log_kv(_LOG, logging.WARNING, "run.fault_injected", addr=hex(addr))

    payload: dict = {"workload": workload, "variant": "default",
                     "checkpoint_every": args.checkpoint_every}
    code = 0
    try:
        replay = replay_recording(result, tracer=tracer,
                                  checkpoint_every=args.checkpoint_every)
        payload.update(verified=True, report=None,
                       intervals=replay.counts.intervals)
        log_kv(_LOG, logging.INFO, "run.replay_verified", workload=workload,
               intervals=replay.counts.intervals,
               injected_loads=replay.counts.injected_loads)
    except ReplayDivergenceError as error:
        report = getattr(error, "report", None)
        payload.update(verified=False,
                       report=None if report is None else report.to_dict())
        print(report.render() if report is not None else str(error),
              file=sys.stderr)
        code = 1
    if args.forensics_out:
        with open(args.forensics_out, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print(f"  forensics -> {args.forensics_out}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "run":
        return _run_command(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m repro.harness",
                                     description=__doc__)
    parser.add_argument("--scale", type=float, default=None,
                        help="work scale (default: REPRO_SCALE env or 1.0)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cores", type=int, default=8)
    parser.add_argument("--experiments", default="all",
                        help="comma-separated subset of: "
                             + ",".join(_EXPERIMENTS))
    parser.add_argument("--out", default=None, help="also write to this file")
    _add_sweep_flags(parser)
    add_log_level_argument(parser)
    args = parser.parse_args(argv)
    _check_sweep_flags(parser, args)
    setup_logging(args.log_level)

    names = (list(_EXPERIMENTS) if args.experiments == "all"
             else [name.strip() for name in args.experiments.split(",")])
    unknown = [name for name in names if name not in _EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    from .cachestore import CacheBackendError
    try:
        runner = ExperimentRunner(
            seed=args.seed, scale=args.scale, jobs=args.jobs,
            cache_dir=args.cache_dir,
            cache_backend=_sweep_cache_spec(args),
            use_cache=not args.no_cache, scheduler=args.scheduler)
    except CacheBackendError as exc:
        parser.error(str(exc))    # usage error: exit code 2
    keys = figures.required_runs(names, runner, cores=args.cores)
    if keys:
        started = time.time()
        executed = runner.prefetch(keys)
        log_kv(_LOG, logging.INFO, "sweep.ready", shards=len(keys),
               wall_s=time.time() - started, recorded=executed,
               cached=len(keys) - executed)
        snapshot = runner.sweep_metrics()
        if snapshot is not None:
            print(render_sweep_summary(snapshot), file=sys.stderr)

    results = {}
    for name in names:
        started = time.time()
        results[name] = _EXPERIMENTS[name](runner, args.cores)
        log_kv(_LOG, logging.INFO, "experiment.computed", experiment=name,
               wall_s=time.time() - started)

    text = render_all(results)
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    if args.metrics_out:
        snapshot = runner.sweep_metrics()
        with open(args.metrics_out, "w") as handle:
            json.dump({} if snapshot is None else snapshot.to_dict(), handle,
                      indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
