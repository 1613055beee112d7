"""Differential test: the event kernel vs the lockstep reference.

The event kernel is a scheduling optimisation — it must be
*observationally invisible*.  For every cell of a (litmus test x
consistency model x coherence protocol) matrix, recorded under Base and
Opt recorders at once, plus mid-size workloads, both kernels must
produce byte-identical serialized :class:`RunResult`s: same cycle counts,
same recording logs, same memory images, same TRAQ occupancy statistics.
Replays of the recordings must be divergence-free.

The comparison helpers live in :mod:`tests.sim.equivalence` so the fuzz
oracles share the same definition of "the kernels agree".
"""

from dataclasses import replace

import pytest

from repro.common.config import (
    CoherenceProtocol,
    ConsistencyModel,
    MachineConfig,
)
from repro.replay import replay_recording
from repro.workloads import build_workload
from repro.workloads.litmus import LITMUS_TESTS, litmus_program

from .equivalence import BASE_AND_OPT, KERNEL_NAMES, assert_equivalent


class TestLitmusMatrix:
    @pytest.mark.parametrize("protocol", list(CoherenceProtocol))
    @pytest.mark.parametrize("model", list(ConsistencyModel))
    @pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
    def test_cell_bit_identical(self, name, model, protocol):
        test = LITMUS_TESTS[name]
        program = litmus_program(test, (0,) * len(test.threads))
        config = replace(
            MachineConfig(num_cores=len(test.threads), seed=3),
            consistency=model, protocol=protocol)
        assert_equivalent(config, program, recorder_configs=BASE_AND_OPT)


class TestWorkloads:
    def test_fft_snoopy_bit_identical_and_replayable(self):
        program = build_workload("fft", num_threads=4, scale=0.25, seed=5)
        config = MachineConfig(num_cores=4, seed=5)
        results = assert_equivalent(config, program,
                                    recorder_configs=BASE_AND_OPT,
                                    capture_load_trace=True)
        for result in results.values():
            for variant in ("base", "opt"):
                replay = replay_recording(result, variant)
                assert replay.verified

    def test_radix_directory_bit_identical(self):
        program = build_workload("radix", num_threads=4, scale=0.25, seed=5)
        config = replace(MachineConfig(num_cores=4, seed=5),
                         protocol=CoherenceProtocol.DIRECTORY)
        results = assert_equivalent(config, program)
        replay = replay_recording(results["event"], "default")
        assert replay.verified

    def test_spin_locks_bit_identical(self):
        """Lock hand-offs exercise the deadlock probe and retry paths."""
        program = build_workload("ocean", num_threads=3, scale=0.2, seed=2)
        config = MachineConfig(num_cores=3, seed=2)
        assert_equivalent(config, program)

    def test_miss_heavy_parking_paths(self):
        """Tiny cache + two MSHRs: MSHR-full issue rejections and the
        long stalls behind them are on the hot path here, so the event
        kernel's per-core wake skipping must still match lockstep."""
        base = MachineConfig(num_cores=4, seed=7)
        config = replace(
            base,
            consistency=ConsistencyModel.RC,
            l1=replace(base.l1, size_kb=4, assoc=2, mshr_entries=2),
            memory=replace(base.memory, roundtrip_cycles=400))
        program = build_workload("fft", num_threads=4, scale=0.2, seed=7)
        assert_equivalent(config, program, recorder_configs=BASE_AND_OPT)


def test_matrix_covers_every_registered_kernel():
    """A kernel added to the registry must be added to the matrix (or
    excluded here on purpose)."""
    from repro.sim.kernel import KERNELS

    assert set(KERNEL_NAMES) == set(KERNELS)
