"""End-to-end invariants of the sweep scheduler and its shared cache.

The guarantee: scheduling is *observationally invisible*.  A sweep's
serialized results must be byte-identical no matter which scheduler runs
the shards (serial / static pool / work stealing) and whether the cache
directory was cold or warmed by an earlier sweep.  Also covers the
two-runner exactly-once lease dedupe.
"""

import json
import threading

from repro.common.config import ConsistencyModel, RecorderConfig, RecorderMode
from repro.harness.cachestore import DirStore, MemoryStore
from repro.harness.parallel_runner import ParallelRunner, ResultCache
from repro.harness.runner import RunKey

RC = ConsistencyModel.RC
TINY_VARIANTS = {"opt_4k": RecorderConfig(mode=RecorderMode.OPT,
                                          max_interval_instructions=4096)}
GRID = [RunKey("fft", 2, 0.05, 1, RC, False),
        RunKey("radix", 2, 0.05, 1, RC, False)]


def _sweep_argv(tmp_path, tag, cache, *, jobs="1", scheduler="static"):
    return ["sweep", "--workloads", "fft,radix", "--cores", "2",
            "--consistency", "RC", "--scale", "0.05",
            "--jobs", jobs, "--scheduler", scheduler,
            "--cache-dir", str(tmp_path / cache),
            "--results-out", str(tmp_path / f"{tag}.json"),
            "--metrics-out", str(tmp_path / f"{tag}.metrics")]


class TestByteIdentity:
    def test_results_identical_across_schedulers_and_warm_rerun(self,
                                                                tmp_path,
                                                                capsys):
        """One grid, four ways — every serialized result file must be
        byte-for-byte identical."""
        from repro.tools import main
        matrix = [
            ("serial", "cache_serial", dict()),
            ("static", "cache_static", dict(jobs="2")),
            ("steal", "cache_steal", dict(jobs="2", scheduler="stealing")),
            # Rerun on the stealing sweep's now-warm cache: every cell
            # folds from the cache, none executes.
            ("steal_warm", "cache_steal",
             dict(jobs="2", scheduler="stealing")),
        ]
        for tag, cache, kwargs in matrix:
            assert main(_sweep_argv(tmp_path, tag, cache, **kwargs)) == 0
            capsys.readouterr()
        warm = json.loads((tmp_path / "steal_warm.metrics").read_text())
        assert warm["sweep.executed"] == 0
        assert warm["sweep.cache_hits"] == 2
        reference = (tmp_path / "serial.json").read_bytes()
        assert reference   # non-empty
        for tag, _, _ in matrix[1:]:
            produced = (tmp_path / f"{tag}.json").read_bytes()
            assert produced == reference, f"{tag} diverged from serial run"

    def test_warm_rerun_executes_nothing(self, tmp_path):
        store = DirStore(tmp_path / "cache")
        cold = ParallelRunner(jobs=2, scheduler="stealing",
                              cache=ResultCache(store=store),
                              variants=TINY_VARIANTS)
        cold_results = cold.run(GRID)
        assert cold.executed == len(GRID)
        warm = ParallelRunner(jobs=2, scheduler="stealing",
                              cache=ResultCache(store=store),
                              variants=TINY_VARIANTS)
        warm_results = warm.run(GRID)
        assert warm.executed == 0
        for key in GRID:
            assert warm_results[key].to_dict() == cold_results[key].to_dict()


class TestTwoRunnerDedupe:
    def test_cooperating_runners_execute_each_cell_exactly_once(self):
        """Two concurrent stealing runners over one shared store: the
        lease fabric must make the union of their executions cover the
        grid exactly once (leases defer, publish-before-release plus the
        post-acquire probe close every handoff race)."""
        store = MemoryStore()
        grid = GRID + [RunKey("lu", 2, 0.05, 1, RC, False),
                       RunKey("fft", 2, 0.05, 2, RC, False)]
        runners = [ParallelRunner(jobs=2, scheduler="stealing",
                                  cache=ResultCache(store=store),
                                  variants=TINY_VARIANTS,
                                  lease_ttl_s=60.0, poll_s=0.01)
                   for _ in range(2)]
        results = [None, None]

        def drive(rank):
            results[rank] = runners[rank].run(grid)

        threads = [threading.Thread(target=drive, args=(rank,))
                   for rank in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert results[0] is not None and results[1] is not None
        executed = runners[0].executed + runners[1].executed
        assert executed == len(grid), \
            f"{executed} executions for {len(grid)} cells"
        for key in grid:
            assert (results[0][key].to_dict()
                    == results[1][key].to_dict())
        # Every runner's outcomes cover the grid through some mix of
        # local runs, precheck cache hits and fabric dedups.
        for runner in runners:
            assert len(runner.outcomes) == len(grid)
            assert {o.source for o in runner.outcomes} <= \
                {"run", "cache", "fabric"}

