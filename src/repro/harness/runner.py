"""Shared experiment runner with run caching.

Every figure of Section 5 is computed from the same small set of recorded
executions (12 workloads x {4, 8, 16} cores); recording is by far the
expensive step, so the runner memoizes :class:`~repro.sim.machine.RunResult`
objects by (workload, cores, scale, seed, consistency).  All four recorder
variants (Base/Opt x 4K/INF) — plus a smaller 512-instruction cap used to
expose interval-size sensitivity at reproduction scale — observe each
execution simultaneously, which is sound because recording is passive.

Beyond the per-process memo, the runner can be given a persistent
:class:`~repro.harness.parallel_runner.ResultCache` (``cache_dir=...``)
and a worker-pool width (``jobs=...``): :meth:`ExperimentRunner.prefetch`
then shards outstanding recordings across processes through
:class:`~repro.harness.parallel_runner.ParallelRunner`, and every
:meth:`record` call first consults the on-disk cache, which makes sweeps
restartable — an interrupted invocation resumes from the shards already
recorded.

The work scale can be set globally with the ``REPRO_SCALE`` environment
variable (default 1.0); smaller values make the benchmark suite faster at
the cost of noisier statistics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from ..baselines import (
    CoreRacerRecorder,
    FDRPointwiseRecorder,
    RTRValueRecorder,
    SCChunkRecorder,
)
from ..common.config import (
    ConsistencyModel,
    MachineConfig,
    RecorderConfig,
    RecorderMode,
)
from ..isa.program import Program
from ..sim import Machine, RunResult
from ..workloads import WORKLOAD_NAMES, build_workload

__all__ = ["VARIANTS", "VARIANT_ORDER", "RunKey", "ExperimentRunner",
           "default_scale", "execute_run", "workload_program"]

#: The recorder variants every recorded execution carries.
VARIANTS: dict[str, RecorderConfig] = {
    "base_4k": RecorderConfig(mode=RecorderMode.BASE,
                              max_interval_instructions=4096),
    "base_inf": RecorderConfig(mode=RecorderMode.BASE),
    "base_512": RecorderConfig(mode=RecorderMode.BASE,
                               max_interval_instructions=512),
    "opt_4k": RecorderConfig(mode=RecorderMode.OPT,
                             max_interval_instructions=4096),
    "opt_inf": RecorderConfig(mode=RecorderMode.OPT),
    "opt_512": RecorderConfig(mode=RecorderMode.OPT,
                              max_interval_instructions=512),
}

#: Paper ordering: Base then Opt, 4K then INF (512 is reproduction-extra).
VARIANT_ORDER = ("base_4k", "base_inf", "opt_4k", "opt_inf")


def default_scale() -> float:
    """Work scale for harness runs (``REPRO_SCALE`` env override)."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def _baseline_factory(cls):
    return lambda core_id, config: cls(core_id, config.recorder,
                                       config.l1.line_bytes, seed=config.seed)


def baseline_factories_for(consistency: ConsistencyModel) -> dict | None:
    """The Section 5.2 baseline recorders applicable under ``consistency``."""
    if consistency is ConsistencyModel.SC:
        return {
            "sc_chunk": _baseline_factory(SCChunkRecorder),
            "fdr": _baseline_factory(FDRPointwiseRecorder),
        }
    if consistency is ConsistencyModel.TSO:
        return {
            "coreracer": _baseline_factory(CoreRacerRecorder),
            "rtr": _baseline_factory(RTRValueRecorder),
        }
    return None


@dataclass(frozen=True)
class RunKey:
    """Identity of one recorded execution (one sweep shard).

    The key doubles as the persistent cache identity, so it must reduce
    to the same canonical form in every interpreter run: ``to_dict``
    renders enums by *value* (never by salted ``hash()`` or
    ``id()``-bearing ``repr()``), and digesting goes through
    :func:`repro.common.hashing.stable_digest`, which sorts dict keys.
    """

    workload: str
    cores: int
    scale: float
    seed: int
    consistency: ConsistencyModel
    with_baselines: bool

    def to_dict(self) -> dict:
        """Canonical JSON-able form (wire + cache-key payload)."""
        return {
            "workload": self.workload,
            "cores": self.cores,
            "scale": self.scale,
            "seed": self.seed,
            "consistency": self.consistency.value,
            "with_baselines": self.with_baselines,
        }

    @staticmethod
    def from_dict(data: dict) -> "RunKey":
        return RunKey(
            workload=data["workload"],
            cores=data["cores"],
            scale=data["scale"],
            seed=data["seed"],
            consistency=ConsistencyModel(data["consistency"]),
            with_baselines=data["with_baselines"],
        )

    def describe(self) -> str:
        """Short human-readable shard label for progress lines."""
        suffix = "+baselines" if self.with_baselines else ""
        return (f"{self.workload} x{self.cores} "
                f"{self.consistency.value}{suffix}")

    def label(self) -> str:
        """Deterministic metrics-key-safe shard label (unique per key):
        used to namespace per-shard telemetry in sweep rollups."""
        suffix = "+b" if self.with_baselines else ""
        return (f"{self.workload}_x{self.cores}_{self.consistency.value}"
                f"_s{self.scale:g}_r{self.seed}{suffix}")


# Bounded: a scale-1.0 program is megabytes of objects, and the cells that
# share one sit next to each other in the figure grids.
@lru_cache(maxsize=4)
def _build(workload: str, cores: int, scale: float, seed: int) -> Program:
    return build_workload(workload, num_threads=cores, scale=scale, seed=seed)


def workload_program(key: RunKey) -> Program:
    """The program ``key`` runs, memoized per process.

    The consistency model and baselines do not change the program, so the
    cells of one (workload, cores, scale, seed) share one build; results
    decoded from the sweep wire format rebuild their program through this.
    """
    return _build(key.workload, key.cores, key.scale, key.seed)


def execute_run(key: RunKey,
                variants: dict[str, RecorderConfig] | None = None,
                *, tracer=None) -> RunResult:
    """Record the execution ``key`` describes (the single shard body).

    This is the one place a sweep shard is turned into a
    :class:`~repro.sim.machine.RunResult`; both the serial
    :meth:`ExperimentRunner.record` path and the worker processes of
    :class:`~repro.harness.parallel_runner.ParallelRunner` call it, which
    is what makes the two paths produce identical results.  ``tracer``
    optionally attaches a bounded :class:`~repro.obs.tracer.Tracer`
    (sweep workers use it for telemetry trace capture).
    """
    variants = VARIANTS if variants is None else variants
    program = workload_program(key)
    config = MachineConfig(num_cores=key.cores, consistency=key.consistency,
                           seed=key.seed)
    machine = Machine(config, variants)
    baseline_factories = (baseline_factories_for(key.consistency)
                          if key.with_baselines else None)
    return machine.run(program, baseline_factories=baseline_factories,
                       tracer=tracer)


class ExperimentRunner:
    """Memoizing front-end over :class:`~repro.sim.machine.Machine`.

    ``jobs``/``cache_dir`` opt into the parallel sharded executor and the
    persistent result cache (see :mod:`repro.harness.parallel_runner`);
    with the defaults the runner behaves exactly like the historical
    serial, in-memory-only version.
    """

    def __init__(self, *, seed: int = 1, scale: float | None = None,
                 workloads: tuple[str, ...] | None = None,
                 jobs: int = 1, cache_dir: str | None = None,
                 cache_backend: str | None = None,
                 use_cache: bool | None = None,
                 variants: dict[str, RecorderConfig] | None = None,
                 progress=None, scheduler: str = "static"):
        self.seed = seed
        self.scale = default_scale() if scale is None else scale
        self._workloads = tuple(workloads) if workloads else WORKLOAD_NAMES
        self.jobs = max(1, jobs)
        self.variants = VARIANTS if variants is None else dict(variants)
        self.progress = progress
        self.scheduler = scheduler
        if use_cache is None:
            use_cache = cache_dir is not None or cache_backend is not None
        self.cache = None
        if use_cache:
            from .parallel_runner import DEFAULT_CACHE_DIR, ResultCache
            if cache_backend:
                # Pluggable backend spec (dir:/sqlite:/http://); malformed
                # specs raise CacheBackendError -> CLI usage exit code 2.
                self.cache = ResultCache.from_spec(cache_backend)
            else:
                self.cache = ResultCache(cache_dir or DEFAULT_CACHE_DIR)
        self._memo: dict[RunKey, RunResult] = {}
        self._sweep_registry = None

    @property
    def workloads(self) -> tuple[str, ...]:
        return self._workloads

    def run_key(self, workload: str, *, cores: int = 8,
                consistency: ConsistencyModel = ConsistencyModel.RC,
                with_baselines: bool = False) -> RunKey:
        """The :class:`RunKey` a :meth:`record` call with these arguments
        resolves to (used to enumerate sweep grids for prefetching)."""
        return RunKey(workload, cores, self.scale, self.seed, consistency,
                      with_baselines)

    def record(self, workload: str, *, cores: int = 8,
               consistency: ConsistencyModel = ConsistencyModel.RC,
               with_baselines: bool = False) -> RunResult:
        """Record ``workload`` once (cached) with all recorder variants."""
        key = self.run_key(workload, cores=cores, consistency=consistency,
                           with_baselines=with_baselines)
        cached = self._memo.get(key)
        if cached is not None:
            return cached

        result = None
        if self.cache is not None:
            result = self.cache.get(key, self.variants)
        if result is None:
            result = execute_run(key, self.variants)
            if self.cache is not None:
                self.cache.put(key, result, self.variants)
        self._memo[key] = result
        return result

    def record_all(self, *, cores: int = 8) -> dict[str, RunResult]:
        """Record every workload at ``cores`` cores (the Section 5 default)."""
        self.prefetch([self.run_key(name, cores=cores)
                       for name in self.workloads])
        return {name: self.record(name, cores=cores) for name in self.workloads}

    def prefetch(self, keys) -> int:
        """Ensure every :class:`RunKey` in ``keys`` is memoized, sharding
        outstanding runs across ``jobs`` worker processes.

        Returns the number of shards actually executed (as opposed to
        satisfied by the memo or the persistent cache).  With ``jobs=1``
        the outstanding shards run serially in-process.
        """
        missing = []
        for key in keys:
            if key not in self._memo and key not in missing:
                missing.append(key)
        if not missing:
            return 0
        from .parallel_runner import ParallelRunner
        runner = ParallelRunner(jobs=self.jobs, cache=self.cache,
                                variants=self.variants,
                                progress=self.progress,
                                scheduler=self.scheduler)
        self._memo.update(runner.run(missing))
        self._sweep_registry = runner.registry
        return runner.executed

    def sweep_metrics(self):
        """Metrics snapshot of the last :meth:`prefetch` sweep (or None).

        Results decode their logs and programs when read, so the cache's
        ``sweep.cache.logs_decoded``/``programs_attached`` are taken now,
        not when the sweep ended.
        """
        if self._sweep_registry is None:
            return None
        if self.cache is not None:
            self._sweep_registry.set_counters(self.cache.decoded.counters(),
                                              prefix="sweep.cache")
        return self._sweep_registry.snapshot()
