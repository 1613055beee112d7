"""Reusable differential-equivalence harness for the simulation kernels.

The event kernel in :data:`repro.sim.kernel.KERNELS` is a scheduling
optimisation of the lockstep reference — it must be *observationally
invisible*.  The equivalence oracle is byte equality of
the serialized :class:`~repro.sim.machine.RunResult`: same cycle counts,
same recording logs under every attached recorder variant, same memory
images, same TRAQ statistics.

The helpers here are shared by the kernel differential matrix
(``tests/sim/test_kernel_differential.py``) and the fuzz-oracle regression
tests — one definition of "the kernels agree" for the whole suite.
"""

import json

from repro.common.config import RecorderConfig, RecorderMode
from repro.sim import Machine
from repro.sim.serialize import run_result_to_dict

#: Every kernel under test, reference first.  Kept as an explicit tuple
#: (not ``sorted(KERNELS)``) so a kernel added to the registry without a
#: matrix entry is a conscious decision, not a silent pickup.
KERNEL_NAMES = ("lockstep", "event")

#: Both paper recorder modes, attached together so one run fingerprints
#: the Base and Opt logs at once.
BASE_AND_OPT = {
    "base": RecorderConfig(mode=RecorderMode.BASE),
    "opt": RecorderConfig(mode=RecorderMode.OPT),
}


def fingerprint(result) -> str:
    """Canonical byte-comparable serialization of a RunResult."""
    return json.dumps(run_result_to_dict(result), sort_keys=True)


def run_kernels(config, program, *, kernels=KERNEL_NAMES,
                recorder_configs=None, **run_kwargs):
    """Run ``program`` once per kernel on a fresh machine; returns
    ``{kernel: RunResult}``."""
    results = {}
    for kernel in kernels:
        machine = Machine(config, recorder_configs)
        results[kernel] = machine.run(program, kernel=kernel, **run_kwargs)
    return results


def first_difference(reference: str, other: str, *, context: int = 60) -> str:
    """Human-oriented locator for the first byte where two serialized
    results disagree (the full fingerprints are megabytes)."""
    limit = min(len(reference), len(other))
    for index in range(limit):
        if reference[index] != other[index]:
            start = max(0, index - context)
            return (f"first difference at byte {index}: "
                    f"...{reference[start:index + context]}... vs "
                    f"...{other[start:index + context]}...")
    return (f"one fingerprint is a prefix of the other "
            f"(lengths {len(reference)} vs {len(other)})")


def assert_identical(results) -> None:
    """Assert every kernel's result serializes byte-identically to the
    first (reference) kernel's."""
    items = list(results.items())
    ref_kernel, ref_result = items[0]
    reference = fingerprint(ref_result)
    for kernel, result in items[1:]:
        got = fingerprint(result)
        assert got == reference, (
            f"kernel {kernel!r} diverged from {ref_kernel!r}: "
            + first_difference(reference, got))


def assert_equivalent(config, program, *, kernels=KERNEL_NAMES,
                      recorder_configs=None, **run_kwargs):
    """Run every kernel and assert byte-identical results; returns the
    results dict for follow-on checks (replay, trace inspection)."""
    results = run_kernels(config, program, kernels=kernels,
                          recorder_configs=recorder_configs, **run_kwargs)
    assert_identical(results)
    return results
