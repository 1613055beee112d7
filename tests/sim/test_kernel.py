"""Unit tests for the simulation kernels and their scheduling structures."""

import pytest

from repro.common.config import MachineConfig
from repro.common.errors import ConfigError, SimulationError
from repro.isa.builder import ThreadBuilder
from repro.isa.program import Program
from repro.sim.kernel import KERNELS, CoreWakeQueue, OccupancySampler, \
    WakeQueue
from repro.sim.machine import Machine


class TestWakeQueue:
    def test_dedupes_pushed_cycles(self):
        queue = WakeQueue()
        for cycle in (10, 10, 5, 10, 5):
            queue.push(cycle)
        assert queue.next_after(0) == 5
        assert queue.next_after(5) == 10
        assert queue.next_after(10) is None
        # Dedupe set is pruned along with the heap: re-push works.
        queue.push(5)
        assert queue.next_after(0) == 5

    def test_next_after_discards_stale(self):
        queue = WakeQueue()
        queue.push(3)
        queue.push(7)
        assert queue.next_after(4) == 7
        assert queue.next_after(7) is None


class TestCoreWakeQueue:
    def test_due_is_sorted_and_unique(self):
        queue = CoreWakeQueue()
        queue.wake(2, 4)
        queue.wake(0, 4)
        queue.wake(2, 3)
        queue.wake(2, 4)  # duplicate entry is dropped
        assert queue.due(4) == [0, 2]
        assert queue.due(4) == []

    def test_due_ignores_future_wakes(self):
        queue = CoreWakeQueue()
        queue.wake(1, 10)
        assert queue.due(9) == []
        assert queue.next_after(9) == 10
        assert queue.due(10) == [1]

    def test_next_after_prunes_and_allows_requeue(self):
        queue = CoreWakeQueue()
        queue.wake(0, 5)
        queue.wake(1, 8)
        assert queue.next_after(5) == 8
        queue.wake(0, 5)
        assert queue.due(6) == [0]


class FakeStats:
    def __init__(self):
        self.observations = []

    def add_repeat(self, value, count):
        self.observations.append((value, count))


class FakeMemsys:
    def __init__(self):
        self.checks = 0

    def check_coherence_invariants(self):
        self.checks += 1


class TestOccupancySampler:
    def make(self, interval=10, check_every=None):
        stats, hist = FakeStats(), FakeStats()
        memsys = FakeMemsys()
        sampler = OccupancySampler([[1, 2, 3]], [stats], [hist], interval,
                                   check_every, memsys)
        return sampler, stats, hist, memsys

    def test_jump_folds_samples_arithmetically(self):
        sampler, stats, hist, _ = self.make(interval=10)
        sampler.catch_up(0)      # sample point 0
        sampler.catch_up(95)     # covers points 10..90: nine at once
        assert stats.observations == [(3, 1), (3, 9)]
        assert hist.observations == stats.observations
        assert sampler.next_sample == 100

    def test_no_sample_before_next_point(self):
        sampler, stats, _, _ = self.make(interval=10)
        sampler.catch_up(0)
        sampler.catch_up(9)
        assert stats.observations == [(3, 1)]

    def test_invariant_check_runs_once_per_batch(self):
        sampler, _, _, memsys = self.make(interval=10, check_every=50)
        sampler.catch_up(0)      # advances to point 10: no multiple crossed
        assert memsys.checks == 0
        sampler.catch_up(199)    # advances through 50, 100, 150, 200
        assert memsys.checks == 1  # several multiples, one batched check
        sampler.catch_up(205)    # advances to 210: no multiple crossed
        assert memsys.checks == 1


def spin_program():
    builder = ThreadBuilder()
    spin = builder.label()
    builder.load(1, offset=0x100)   # flag never set: spins forever
    builder.beqz(1, spin)
    return Program([builder.build()])


class TestKernelSelection:
    def test_unknown_kernel_rejected(self):
        machine = Machine(MachineConfig(num_cores=1))
        with pytest.raises(ConfigError, match="unknown simulation kernel"):
            machine.run(spin_program(), kernel="quantum")

    def test_registry_exposes_every_kernel(self):
        assert set(KERNELS) == {"event", "lockstep"}

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_max_cycles_guard(self, kernel):
        machine = Machine(MachineConfig(num_cores=1))
        with pytest.raises(SimulationError, match="max_cycles"):
            machine.run(spin_program(), max_cycles=5_000, kernel=kernel)
