"""Oracle-stack contracts.

The load-bearing test is determinism: the full differential stack, run
twice over 20 fuzzer-generated programs, must produce byte-identical
verdicts and byte-identical serialized run digests — without that, a
fuzz failure would not be a reproducible bug report."""

import json
import random

import pytest

from repro.common.config import ConsistencyModel
from repro.fuzz import (
    FuzzSpec,
    evaluate_shard,
    evaluate_spec,
    forensic_replay,
    random_spec,
    recorder_variants,
    seed_entries,
    spec_to_dict,
)

BUGGY = {"interval_timestamp_floor": False}


def _wire(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def fuzzer_specs():
    rng = random.Random(123)
    return [random_spec(rng) for _ in range(20)]


def test_full_stack_is_deterministic_over_20_programs(fuzzer_specs):
    first = [_wire(evaluate_spec(spec)) for spec in fuzzer_specs]
    second = [_wire(evaluate_spec(spec)) for spec in fuzzer_specs]
    assert first == second
    # And every candidate passes every oracle under the default
    # (fixed) recorder configuration.
    for spec, wire in zip(fuzzer_specs, first):
        report = json.loads(wire)
        assert all(v["ok"] for v in report["verdicts"]), \
            f"{spec.describe()}: {report['verdicts']}"
        assert report["result_digest"]


def test_shard_worker_matches_in_process_evaluation(fuzzer_specs):
    spec = fuzzer_specs[0]
    reply = evaluate_shard({"spec": spec_to_dict(spec), "attempt": 3})
    assert reply["attempt"] == 3
    assert (json.dumps(reply["report"], sort_keys=True)
            == _wire(evaluate_spec(spec)))


def test_oracle_names_cover_the_stack(fuzzer_specs):
    report = evaluate_spec(fuzzer_specs[0])
    names = [v.oracle for v in report.verdicts]
    assert names == ["kernel-equivalence",
                     "replay:base_cap", "replay:base_inf",
                     "replay:opt_cap", "replay:opt_inf"]
    assert report.signals       # coverage signals rode along


def test_litmus_spec_gets_a_litmus_verdict():
    spec = FuzzSpec(kind="litmus", litmus="SB", staggers=(0, 0),
                    consistency=ConsistencyModel.SC, interval_cap=32)
    report = evaluate_spec(spec)
    litmus = [v for v in report.verdicts if v.oracle == "litmus"]
    assert len(litmus) == 1 and litmus[0].ok
    assert "outcome" in litmus[0].detail


def test_recorder_variants_carry_the_genome_cap_and_overrides():
    spec = FuzzSpec(kind="litmus", litmus="SB", staggers=(0, 0),
                    interval_cap=128)
    variants = recorder_variants(spec, BUGGY)
    assert set(variants) == {"base_cap", "base_inf", "opt_cap", "opt_inf"}
    assert variants["opt_cap"].max_interval_instructions == 128
    assert variants["base_inf"].max_interval_instructions is None
    assert all(not cfg.interval_timestamp_floor
               for cfg in variants.values())


def test_injected_floor_bug_fails_the_replay_oracle():
    """The seed corpus's promoted PR-5 genome reproduces its historical
    divergence when the timestamp floor is switched back off — and the
    forensic deep-dive produces a checkpointed DivergenceReport with a
    ready-to-run inspect command."""
    spec = seed_entries()[0].spec
    clean = evaluate_spec(spec)
    assert clean.ok
    buggy = evaluate_spec(spec, overrides=BUGGY)
    failed = {v.oracle for v in buggy.failures()}
    assert "replay:opt_cap" in failed
    assert all(oracle.startswith("replay:") for oracle in failed)

    forensics = forensic_replay(spec, "replay:opt_cap", overrides=BUGGY)
    assert forensics is not None
    assert "inspect" in forensics["inspect_hint"]
    # Non-replay oracles have no forensic replay path.
    assert forensic_replay(spec, "kernel-equivalence",
                           overrides=BUGGY) is None
    # The failure does not reproduce without the override.
    assert forensic_replay(spec, "replay:opt_cap") is None


def test_kernel_bug_fails_the_kernel_equivalence_oracle(monkeypatch):
    """A lockstep kernel that reports one cycle too many must be caught by
    the kernel-equivalence oracle alone: the replay oracles consume the
    event run, which stays clean."""
    from repro.sim import kernel

    reference = kernel.KERNELS["lockstep"]

    def off_by_one(*args, **kwargs):
        return reference(*args, **kwargs) + 1

    spec = seed_entries()[0].spec
    assert evaluate_spec(spec).ok
    monkeypatch.setitem(kernel.KERNELS, "lockstep", off_by_one)
    failed = {v.oracle for v in evaluate_spec(spec).failures()}
    assert failed == {"kernel-equivalence"}


def test_buggy_evaluation_is_also_deterministic():
    spec = seed_entries()[0].spec
    assert (_wire(evaluate_spec(spec, overrides=BUGGY))
            == _wire(evaluate_spec(spec, overrides=BUGGY)))
