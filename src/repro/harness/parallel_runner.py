"""Parallel sharded experiment executor with a persistent result cache.

The paper's evaluation sweeps (workload x cores x consistency-model x
recorder-variant) grids; each cell — a *shard* — is one full recorded
execution and is by far the expensive step.  This module provides the
production path for those sweeps:

* :class:`ResultCache` — a content-addressed result cache over a
  pluggable :class:`~repro.harness.cachestore.CacheStore` (the classic
  JSON-file directory under ``.repro_cache/`` by default; SQLite and
  remote-daemon backends via :meth:`ResultCache.from_spec`).  Entries
  are keyed by a SHA-256 digest of the canonicalized
  :class:`~repro.harness.runner.RunKey`, the recorder variant configs
  and a code-version salt, computed with
  :func:`repro.common.hashing.stable_digest` so keys are identical across
  interpreter runs, ``PYTHONHASHSEED`` values and dict orderings.  The
  salt includes a digest of the simulator, recorder and workload sources,
  so edited code never reads results recorded by the old code.
  Entries hold the program-free wire format; a hit is a lazy view that
  decodes a log only when its entries are read and rebuilds the program
  (checked against its digest) only when it is read.  Publishes are
  atomic and first-writer-wins; corrupt entries are quarantined with a
  warning (and a per-reason counter) and recomputed.

* :class:`ParallelRunner` — shards outstanding runs across a
  ``concurrent.futures.ProcessPoolExecutor``.  Each worker executes
  :func:`repro.harness.runner.execute_run` (the exact code path the
  serial runner uses) and returns the result in the JSON wire format of
  :mod:`repro.sim.serialize`, plus a small counter export that the parent
  folds into its :class:`~repro.obs.metrics.MetricsRegistry`.  The parent
  publishes the reply's wire dict to the cache as it is and keeps a lazy
  view of it, so it never decodes and re-encodes a result.  Shards get
  a per-shard timeout and are retried once on failure; anything still
  failing raises :class:`SweepError` naming the shard.  With
  ``scheduler="stealing"`` the shards flow through the work-stealing
  engine of :mod:`repro.harness.stealing` instead of the static split,
  and in-flight leases in the shared cache dedupe cells across
  cooperating sweep processes.

* Cross-process telemetry (:mod:`repro.obs.telemetry`): every shard's
  full metrics snapshot — and, when
  :class:`~repro.obs.telemetry.TelemetryConfig` opts in, a bounded trace
  ring buffer — is ingested by a :class:`TelemetryAggregator` and folded
  into the sweep registry as a deterministic rollup, so a parallel
  sweep's merged metrics are identical to a serial sweep's.  Malformed
  worker telemetry is quarantined, never fatal.  A
  :class:`~repro.obs.telemetry.SweepProgress` tracker emits per-shard
  completion lines with ETA plus periodic heartbeats.

Because every completed shard lands in the cache immediately, an
interrupted sweep is resumable: a rerun skips the cached shards and only
executes what is missing.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import uuid
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from ..common.config import RecorderConfig
from ..common.errors import ConfigError
from ..common.hashing import generation_tag, stable_digest
from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry, MetricsSnapshot
from ..obs.telemetry import (TELEMETRY_FORMAT, FabricTelemetry,
                             SweepProgress, TelemetryAggregator,
                             TelemetryConfig)
from ..sim.machine import DecodeCounters, RunResult
from ..sim.serialize import SERIALIZATION_VERSION
from .cachestore import CacheStore, DirStore, LeaseInfo, parse_backend
from .runner import VARIANTS, RunKey, execute_run, workload_program
from .stealing import FabricHooks, SweepError, WorkStealingPool

_LOG = get_logger("harness.sweep")

__all__ = ["CACHE_FORMAT", "DEFAULT_CACHE_DIR", "GENERATION", "SweepError",
           "cache_key", "code_salt", "sweep_result",
           "ResultCache", "ShardOutcome", "ShardPool", "ParallelRunner"]

#: Bumped when the cache envelope layout changes.
#: v2: entries hold the program-free wire format (serialization v3).
CACHE_FORMAT = 2

#: Where sweep results live unless a cache dir is given explicitly.
DEFAULT_CACHE_DIR = ".repro_cache"

#: The ``repro`` packages and modules whose code determines a recorded
#: result: the simulator, workload generators, recorders and the wire
#: format.
RESULT_SOURCES = ("baselines", "common", "cpu", "isa", "mem", "recorder",
                  "sim", "storage.py", "workloads")


def code_salt(root: str | Path | None = None) -> str:
    """The cache-key salt for the ``repro`` package at ``root`` (default:
    this one): the format versions plus a digest of every ``.py`` file
    under :data:`RESULT_SOURCES`."""
    root = Path(__file__).resolve().parents[1] if root is None else Path(root)
    digest = hashlib.sha256()
    for name in RESULT_SOURCES:
        path = root / name
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            digest.update(file.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(file.read_bytes())
            digest.update(b"\0")
    return (f"cache-v{CACHE_FORMAT}:wire-v{SERIALIZATION_VERSION}:"
            f"src-{digest.hexdigest()[:16]}")


#: Code-version salt folded into every cache key, computed once per
#: process: results recorded under a different cache or wire format, or
#: by different simulator, recorder or workload code, can never be
#: mistaken for current ones.
CODE_SALT = code_salt()

#: Generation tag recorded next to every published entry so
#: ``CacheStore.gc`` can drop whole stale code generations without
#: parsing entry bodies.
GENERATION = generation_tag(CODE_SALT)


def cache_key(key: RunKey,
              variants: dict[str, RecorderConfig] | None = None,
              *, salt: str | None = None) -> str:
    """Content address of one shard: digest of run key + variants + salt
    (default :data:`CODE_SALT`)."""
    variants = VARIANTS if variants is None else variants
    return stable_digest({"key": key.to_dict(), "variants": variants,
                          "salt": CODE_SALT if salt is None else salt})


def sweep_result(key: RunKey, wire: dict, origin: str,
                 counters: DecodeCounters) -> RunResult:
    """A lazy :class:`RunResult` over ``wire``, the program-free wire
    format of ``key``: its logs are decoded and its program rebuilt from
    ``key`` on first read, and counted in ``counters``."""
    return RunResult.from_dict(
        wire, program_source=partial(workload_program, key), origin=origin,
        counters=counters)


class ResultCache:
    """Content-addressed persistent store of serialized run results.

    Storage is delegated to a pluggable
    :class:`~repro.harness.cachestore.CacheStore`; the default is the
    classic :class:`~repro.harness.cachestore.DirStore` directory layout,
    so ``ResultCache(path)`` keeps reading pre-existing caches unchanged.
    Use :meth:`from_spec` to attach the SQLite or remote-daemon backends
    (``sqlite:PATH`` / ``http://HOST:PORT``).  This class owns the
    envelope format and its validation; the store only sees opaque keyed
    blobs plus the :data:`GENERATION` tag that lets :meth:`gc` drop stale
    code generations wholesale.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR, *,
                 store: CacheStore | None = None):
        self.store = store if store is not None else DirStore(root)
        self.root = Path(getattr(self.store, "root", root))
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.write_races = 0
        #: Quarantine counts by reason ("decode" | "format" |
        #: "key_mismatch" | "variants" | "program_digest" | "base64" |
        #: "bit_length" | "schema") — telemetry can tell a truncated file
        #: from a foreign-version envelope from a digest collision.
        self.corrupt_reasons: dict[str, int] = {}
        #: Logs decoded and programs attached, over every result this
        #: cache served or stored (results decode those lazily, on read).
        self.decoded = DecodeCounters()

    @classmethod
    def from_spec(cls, spec: str) -> "ResultCache":
        """Build a cache from a backend spec string (``dir:PATH``,
        ``sqlite:PATH``, ``http://HOST:PORT``, or a bare path).

        Malformed specs raise
        :class:`~repro.harness.cachestore.CacheBackendError`, which the
        CLIs map to the usage exit code (2).
        """
        return cls(store=parse_backend(spec))

    @property
    def corrupt(self) -> int:
        """Total quarantined entries (sum over :attr:`corrupt_reasons`)."""
        return sum(self.corrupt_reasons.values())

    def path_for(self, key: RunKey,
                 variants: dict[str, RecorderConfig] | None = None) -> Path:
        return self.root / f"{cache_key(key, variants)}.json"

    # ------------------------------------------------------------- lookups

    def get(self, key: RunKey,
            variants: dict[str, RecorderConfig] | None = None
            ) -> RunResult | None:
        """The cached result for ``key``, or None on miss / corruption.

        An entry that cannot be parsed or fails envelope validation is
        quarantined in the store (the directory backend renames it to
        ``*.corrupt``) with a warning and a per-reason counter, and the
        shard is recomputed — a half-written or damaged cache never
        poisons a sweep.  The result decodes its logs and rebuilds its
        program only when they are read (see :func:`sweep_result`).
        """
        variants = VARIANTS if variants is None else variants
        address = cache_key(key, variants)
        data = self.store.get(address)
        if data is None:
            self.misses += 1
            return None
        result = self._decode(address, key, variants, data)
        if result is not None:
            self.hits += 1
        return result

    def get_many(self, keys, variants: dict[str, RecorderConfig] | None = None
                 ) -> dict[RunKey, RunResult]:
        """Batched lookup of many keys (one round trip on the remote
        backend); corrupt entries quarantine exactly as in :meth:`get`."""
        variants = VARIANTS if variants is None else variants
        addressed = {cache_key(key, variants): key for key in keys}
        found = self.store.get_many(list(addressed))
        out: dict[RunKey, RunResult] = {}
        for address, key in addressed.items():
            data = found.get(address)
            if data is None:
                self.misses += 1
                continue
            result = self._decode(address, key, variants, data)
            if result is not None:
                self.hits += 1
                out[key] = result
        return out

    def _decode(self, address: str, key: RunKey,
                variants: dict[str, RecorderConfig],
                data: bytes) -> RunResult | None:
        """Validate one envelope; quarantines (and counts why) on failure."""
        reason = "decode"
        try:
            envelope = json.loads(data)
            if envelope.get("cache_format") != CACHE_FORMAT:
                reason = "format"
                raise ValueError(
                    f"cache format {envelope.get('cache_format')!r}, "
                    f"expected {CACHE_FORMAT}")
            if envelope.get("key") != key.to_dict():
                reason = "key_mismatch"
                raise ValueError("cache entry key does not match request")
            reason = "schema"
            wire = envelope["result"]
            if set(wire["recordings"]) != set(variants):
                reason = "variants"
                raise ValueError(
                    f"cache entry records variants "
                    f"{sorted(wire['recordings'])}, expected "
                    f"{sorted(variants)}")
            return sweep_result(key, wire, f"result-cache entry {address}",
                                self.decoded)
        except Exception as exc:
            reason = getattr(exc, "reason", reason)
            self.corrupt_reasons[reason] = (
                self.corrupt_reasons.get(reason, 0) + 1)
            warnings.warn(
                f"corrupt result-cache entry {address}.json "
                f"({reason}; {type(exc).__name__}: {exc}); "
                f"recomputing the shard", stacklevel=3)
            self.store.quarantine(address, reason)
            return None

    # ------------------------------------------------------------ publishes

    def put(self, key: RunKey, result: RunResult | dict,
            variants: dict[str, RecorderConfig] | None = None,
            *, meta: dict | None = None) -> Path:
        """Atomically persist ``result`` under ``key``'s content address.

        ``result`` is a :class:`RunResult` or its program-free wire dict
        (``result.to_dict(include_program=False)``), which is stored as
        it is.  First writer wins: if a cooperating sweep process
        published this key concurrently, the loser's bytes are discarded
        (the entries are content-addressed, so they describe the same run
        anyway) and the race is counted in ``write_races``.
        """
        if isinstance(result, RunResult):
            result = result.to_dict(include_program=False)
        envelope = {
            "cache_format": CACHE_FORMAT,
            "salt": CODE_SALT,
            "key": key.to_dict(),
            "meta": meta or {},
            "result": result,
        }
        created = self.store.put(cache_key(key, variants),
                                 json.dumps(envelope).encode(),
                                 generation=GENERATION)
        if created:
            self.writes += 1
        else:
            self.write_races += 1
        return self.path_for(key, variants)

    # -------------------------------------------------------------- leases

    def lease(self, key: RunKey,
              variants: dict[str, RecorderConfig] | None = None,
              *, owner: str, ttl_s: float) -> LeaseInfo:
        """Try to claim the in-flight lease for ``key`` (fabric dedupe)."""
        return self.store.acquire_lease(cache_key(key, variants),
                                        owner, ttl_s)

    def release(self, key: RunKey,
                variants: dict[str, RecorderConfig] | None = None,
                *, owner: str) -> None:
        self.store.release_lease(cache_key(key, variants), owner)

    # ----------------------------------------------------------- accounting

    def gc(self) -> int:
        """Drop every entry from a different code generation; returns the
        number removed."""
        return self.store.gc(GENERATION)

    def counters(self) -> dict[str, int]:
        """Flat counter export for the metrics registry.

        Always carries the four classic keys; quarantine reasons and
        publish races appear as extra keys only when nonzero, so existing
        dashboards keep their shape on a healthy cache.
        """
        out = {"hits": self.hits, "misses": self.misses,
               "corrupt": self.corrupt, "writes": self.writes}
        for reason in sorted(self.corrupt_reasons):
            out[f"corrupt.{reason}"] = self.corrupt_reasons[reason]
        if self.write_races:
            out["write_races"] = self.write_races
        return out

    def close(self) -> None:
        self.store.close()

    def __len__(self) -> int:
        return len(self.store)


# -------------------------------------------------------- worker protocol

def _execute_shard(payload: dict) -> dict:
    """Worker entry point: record one shard, return the wire-format dict.

    ``payload`` and the return value are plain JSON-able dicts — the
    whole worker protocol round-trips through
    :mod:`repro.sim.serialize`, which is also what lets results come back
    across the process boundary and land directly in the cache.
    """
    started = time.perf_counter()
    key = RunKey.from_dict(payload["key"])
    from ..storage import config_from_dict
    variants = {name: config_from_dict(RecorderConfig, data)
                for name, data in payload["variants"].items()}
    telemetry = payload.get("telemetry") or {}
    tracer = None
    if telemetry.get("capture_trace"):
        from ..obs.tracer import Tracer
        tracer = Tracer(capacity=int(telemetry.get("trace_capacity", 4096)))
    result = execute_run(key, variants, tracer=tracer)
    wall = time.perf_counter() - started
    telemetry_reply = None
    if tracer is not None:
        from ..obs.exporters import event_to_dict
        # Trace accounting travels in this side channel, never in the
        # result: the RunResult a traced shard returns (and caches) must
        # stay byte-identical to an untraced run of the same key.
        if result.metrics is not None:
            result.metrics = MetricsSnapshot(
                {name: value for name, value in result.metrics.values.items()
                 if not name.startswith("obs.trace.")})
        telemetry_reply = {
            "format": TELEMETRY_FORMAT,
            "trace": [event_to_dict(event) for event in tracer.events()],
            "trace_stats": tracer.stats(),
        }
    reply = {
        "key": payload["key"],
        "attempt": payload["attempt"],
        "result": result.to_dict(include_program=False),
        "wall_seconds": wall,
        "counters": {
            "instructions": result.total_instructions,
            "mem_instructions": result.total_mem_instructions,
            "cycles": result.cycles,
            "bus_transactions": result.bus_transactions,
        },
        "worker": {"pid": os.getpid()},
    }
    if telemetry_reply is not None:
        reply["telemetry"] = telemetry_reply
    return reply


@dataclass(frozen=True)
class ShardOutcome:
    """How one shard of a sweep was satisfied."""

    key: RunKey
    source: str          # "cache" | "run" | "fabric" (peer-published)
    attempts: int
    wall_seconds: float


class ShardPool:
    """Generic sharded map executor (the engine under the sweep runner).

    Maps a picklable ``worker`` over a list of items — with a per-shard
    timeout, a retry budget, and a serial in-process fallback at
    ``jobs=1`` — and returns the replies **in submission order**, so a
    caller folding them is deterministic no matter how completions
    interleave.  The multi-process path is the hook-less configuration
    of :class:`~repro.harness.stealing.WorkStealingPool` (greedy head
    dispatch from a shared deque; no straggler ever strands the rest of
    a static partition).  :class:`ParallelRunner` drives its sweeps
    through this; the fuzzer (:mod:`repro.fuzz.scheduler`) drives
    candidate evaluation through the very same pool with its own worker
    body.

    ``map`` callbacks (all optional) fire as shards progress:
    ``on_complete(index, item, reply)`` per success (completion order),
    ``on_retry(item, attempt, reason)`` before each re-submission,
    ``on_timeout(item, attempt)`` per timed-out attempt,
    ``observe_seconds(seconds)`` per finished/expired attempt, and
    ``heartbeat(in_flight)`` every ``heartbeat_s`` of pool silence.
    Shards that exhaust their retries raise :class:`SweepError`.
    """

    def __init__(self, *, jobs: int = 1, worker, timeout_s: float | None = None,
                 retries: int = 1):
        self.jobs = max(1, jobs)
        self.worker = worker
        self.timeout_s = timeout_s
        self.retries = max(0, retries)

    def map(self, items, *, payload, describe=str, on_complete=None,
            on_retry=None, on_timeout=None, observe_seconds=None,
            heartbeat=None, heartbeat_s: float | None = None) -> list:
        """Run ``worker(payload(item, attempt))`` for every item.

        ``payload`` builds the (picklable) attempt payload; ``describe``
        renders an item for error and retry lines.
        """
        items = list(items)
        if self.jobs == 1:
            replies: list = [None] * len(items)

            def complete(index: int, reply) -> None:
                replies[index] = reply
                if on_complete is not None:
                    on_complete(index, items[index], reply)

            self._map_serial(items, payload, describe, complete, on_retry,
                             observe_seconds)
            return replies
        engine = WorkStealingPool(jobs=self.jobs, worker=self.worker,
                                  timeout_s=self.timeout_s,
                                  retries=self.retries)
        return engine.map(items, payload=payload, describe=describe,
                          on_complete=on_complete, on_retry=on_retry,
                          on_timeout=on_timeout,
                          observe_seconds=observe_seconds,
                          heartbeat=heartbeat, heartbeat_s=heartbeat_s)

    def _map_serial(self, items, payload, describe, complete, on_retry,
                    observe_seconds) -> None:
        for index, item in enumerate(items):
            attempt = 0
            while True:
                started = time.perf_counter()
                try:
                    reply = self.worker(payload(item, attempt))
                except Exception as exc:
                    attempt += 1
                    if attempt > self.retries:
                        raise SweepError(
                            f"shard {describe(item)} failed after "
                            f"{attempt} attempts: {exc}") from exc
                    if on_retry is not None:
                        on_retry(item, attempt,
                                 f"attempt {attempt} failed ({exc})")
                    continue
                finally:
                    if observe_seconds is not None:
                        observe_seconds(time.perf_counter() - started)
                complete(index, reply)
                break

class ParallelRunner:
    """Process-pool executor for (workload x cores x model) sweep grids.

    Parameters
    ----------
    jobs:
        Worker-pool width; ``1`` runs shards serially in-process (no
        pool), which is also the fallback the tests exercise.
    cache:
        Optional :class:`ResultCache` consulted before executing a shard
        and populated as shards complete (this is what makes interrupted
        sweeps resumable).
    variants:
        Recorder variant configs attached to every shard (defaults to the
        harness ``VARIANTS``); part of the cache key.
    timeout_s:
        Per-shard wall-clock budget.  A shard that exceeds it counts as a
        failure (the stuck worker cannot be killed portably, but its
        result is discarded) and is retried on a fresh worker.
    retries:
        How many additional attempts a failed/timed-out shard gets
        (default 1: "retry once").
    registry:
        :class:`~repro.obs.metrics.MetricsRegistry` receiving sweep
        progress counters (``sweep.*``) and worker counter exports
        (``sweep.worker.*``); a private one is created if absent.
    progress:
        Optional callable (or ``True`` for stderr) fed one human-readable
        line per completed shard; when absent, the lines go to the
        ``repro.harness.sweep`` structured logger at INFO instead.
    worker:
        The picklable shard function (test seam; defaults to the real
        :func:`_execute_shard`).
    telemetry:
        :class:`~repro.obs.telemetry.TelemetryConfig` controlling what
        workers capture beyond the result (trace ring buffers are
        opt-in).  Worker metrics snapshots are always folded into
        ``registry`` through the :attr:`aggregator`, so a parallel
        sweep's merged metrics match the serial path.
    scheduler:
        ``"static"`` (default) drives shards through the classic
        :class:`ShardPool`; ``"stealing"`` drives them through the
        work-stealing engine with in-flight leases in the shared cache —
        cells a cooperating sweep process is already computing are
        deferred, re-probed, and either deduped from its published
        result or stolen when its lease expires.  Both produce
        byte-identical results; stealing only changes who computes what,
        when.
    lease_ttl_s:
        How long one in-flight lease is honored before peers may steal
        the cell (stealing scheduler only).
    """

    def __init__(self, *, jobs: int | None = None,
                 cache: ResultCache | None = None,
                 variants: dict[str, RecorderConfig] | None = None,
                 timeout_s: float | None = None, retries: int = 1,
                 registry: MetricsRegistry | None = None,
                 progress=None, worker=None,
                 telemetry: TelemetryConfig | None = None,
                 scheduler: str = "static", lease_ttl_s: float = 30.0,
                 poll_s: float = 0.2):
        if scheduler not in ("static", "stealing"):
            raise ConfigError(
                f"unknown sweep scheduler {scheduler!r} "
                f"(expected 'static' or 'stealing')")
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.cache = cache
        #: Lazy decodes of this sweep's results (the cache's, if any).
        self.decoded = cache.decoded if cache is not None else DecodeCounters()
        self.variants = VARIANTS if variants is None else dict(variants)
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.worker = worker if worker is not None else _execute_shard
        if progress is True:
            progress = lambda line: print(line, file=sys.stderr)  # noqa: E731
        self.progress = progress
        self.telemetry = telemetry if telemetry is not None else TelemetryConfig()
        self.scheduler = scheduler
        self.lease_ttl_s = lease_ttl_s
        self.poll_s = poll_s
        self.fabric = FabricTelemetry()
        #: Lease identity of this runner — unique per instance so two
        #: runners in one process (or one pid recycled across machines)
        #: never mistake each other's leases for their own.
        self.owner = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.aggregator = TelemetryAggregator()
        self._progress_tracker: SweepProgress | None = None
        self.executed = 0
        self.outcomes: list[ShardOutcome] = []

    # ------------------------------------------------------------- driving

    def run(self, keys) -> dict[RunKey, RunResult]:
        """Satisfy every shard in ``keys`` (cache first, then the pool)."""
        ordered: list[RunKey] = []
        for key in keys:
            if key not in ordered:
                ordered.append(key)
        sweep = self.registry.scoped("sweep")
        sweep.counter("shards_total").inc(len(ordered))
        sweep.gauge("jobs").set(self.jobs)
        started = time.perf_counter()
        self._progress_tracker = SweepProgress(
            len(ordered), jobs=self.jobs, emit=self._note,
            heartbeat_s=self.telemetry.heartbeat_s)

        results: dict[RunKey, RunResult] = {}
        pending: list[RunKey] = []
        # One batched lookup for the whole grid: a single round trip on
        # the remote backend instead of one HTTP exchange per cell.
        found = (self.cache.get_many(ordered, self.variants)
                 if self.cache is not None else {})
        for key in ordered:
            cached = found.get(key)
            if cached is not None:
                results[key] = cached
                self.outcomes.append(ShardOutcome(key, "cache", 0, 0.0))
                self.aggregator.ingest(key.label(), metrics=cached.metrics,
                                       source="cache")
                self._progress_tracker.shard_done(key.describe(), "cache")
            else:
                pending.append(key)
        sweep.counter("cache_hits").inc(len(ordered) - len(pending))

        if pending:
            self._execute(pending, results)
        if self.cache is not None:
            self.registry.set_counters(self.cache.counters(),
                                       prefix="sweep.cache")
            self.registry.set_counters(self.decoded.counters(),
                                       prefix="sweep.cache")
        sweep.counter("executed").value = self.executed
        sweep.gauge("wall_seconds").set(time.perf_counter() - started)
        # Fold every shard's telemetry (worker metrics snapshots + any
        # trace accounting) into the sweep registry; deterministic merge,
        # so parallel and serial sweeps export identical metrics.
        self.aggregator.merge_into(self.registry)
        self.fabric.merge_into(self.registry)
        return results

    def _execute(self, pending, results) -> None:
        """Drive the outstanding shards through the scheduling engine."""
        sweep = self.registry.scoped("sweep")

        def on_retry(key: RunKey, attempt: int, reason: str) -> None:
            sweep.counter("retried").inc()
            self._note(f"[sweep] {key.describe()}: {reason}; retrying")

        kwargs = dict(
            payload=self._payload,
            describe=RunKey.describe,
            on_complete=lambda index, key, reply:
                self._accept(key, reply, results),
            on_retry=on_retry,
            on_timeout=lambda key, attempt:
                sweep.counter("timeouts").inc(),
            observe_seconds=sweep.distribution("shard_seconds").observe,
            heartbeat=lambda in_flight:
                self._progress_tracker.heartbeat(in_flight),
            heartbeat_s=self.telemetry.heartbeat_s)
        if self.scheduler == "stealing":
            engine = WorkStealingPool(
                jobs=self.jobs, worker=self.worker,
                timeout_s=self.timeout_s, retries=self.retries,
                hooks=self._fabric_hooks(), stats=self.fabric,
                poll_s=self.poll_s)
            engine.map(pending, **kwargs)
        else:
            pool = ShardPool(jobs=self.jobs, worker=self.worker,
                             timeout_s=self.timeout_s, retries=self.retries)
            pool.map(pending, **kwargs)

    def _fabric_hooks(self) -> FabricHooks:
        """Lease/probe callbacks binding the stealing engine to the
        shared cache; hook-less (pure work stealing) without a cache."""
        if self.cache is None:
            return FabricHooks()
        return FabricHooks(probe=self._probe, acquire=self._acquire,
                           release=self._release)

    def _probe(self, key: RunKey):
        """Re-check the shared cache for a deferred cell — a cooperating
        process holding its lease may have published already."""
        started = time.perf_counter()
        result = self.cache.get(key, self.variants)
        self.fabric.observe_lookup_ms(
            (time.perf_counter() - started) * 1000.0)
        if result is None:
            return None
        # In-process reply envelope: _accept() recognizes it and folds
        # the peer-computed result without a worker round trip.
        return {"fabric_cache": True, "result_obj": result}

    def _acquire(self, key: RunKey) -> LeaseInfo:
        return self.cache.lease(key, self.variants, owner=self.owner,
                                ttl_s=self.lease_ttl_s)

    def _release(self, key: RunKey) -> None:
        self.cache.release(key, self.variants, owner=self.owner)

    # ------------------------------------------------------------ plumbing

    def _payload(self, key: RunKey, attempt: int) -> dict:
        from ..storage import config_to_dict
        return {
            "protocol_version": SERIALIZATION_VERSION,
            "key": key.to_dict(),
            "attempt": attempt,
            "variants": {name: config_to_dict(config)
                         for name, config in self.variants.items()},
            "telemetry": self.telemetry.to_dict(),
        }

    def _accept(self, key: RunKey, reply: dict, results: dict) -> None:
        if reply.get("fabric_cache"):
            # A cooperating sweep process computed and published this
            # cell while we were deferred on its lease; fold its result
            # exactly as a cache hit (no executed++, no re-publish).
            result = reply["result_obj"]
            results[key] = result
            self.outcomes.append(ShardOutcome(key, "fabric", 0, 0.0))
            self.registry.scoped("sweep").counter("fabric_dedup").inc()
            self.aggregator.ingest(key.label(), metrics=result.metrics,
                                   source="cache")
            self._progress_tracker.shard_done(key.describe(), "fabric")
            return
        # The wire dict is published as it is; the sweep folds a lazy view
        # of it, so nothing is decoded here that no figure reads.
        wire = reply["result"]
        result = sweep_result(key, wire, f"sweep shard {key.describe()}",
                              self.decoded)
        results[key] = result
        self.executed += 1
        attempts = reply.get("attempt", 0) + 1
        wall = reply.get("wall_seconds", 0.0)
        self.outcomes.append(ShardOutcome(key, "run", attempts, wall))
        self.registry.inc_counters(reply.get("counters", {}),
                                   prefix="sweep.worker")
        self.registry.scoped("sweep").counter("shards_run").inc()
        # A malformed telemetry payload is quarantined inside the
        # aggregator, never raised: one corrupt reply must not kill the
        # sweep (the result itself already validated in sweep_result).
        self.aggregator.ingest(key.label(), metrics=result.metrics,
                               payload=reply.get("telemetry"), source="run")
        if self.cache is not None:
            self.cache.put(key, wire, self.variants,
                           meta={"wall_seconds": wall,
                                 "worker": reply.get("worker", {})})
        self._progress_tracker.shard_done(key.describe(), "run", wall)

    def _note(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)
        else:
            _LOG.info(line)
