"""The differential oracle stack every fuzz candidate runs through.

A candidate *fails* when any of these disagree:

* **Replay identity** — each recorder variant's log, replayed by
  :func:`repro.replay.replay_recording`, must reproduce final memory,
  final registers and every loaded value bit-exactly (the paper's core
  determinism claim).  Divergences carry the full
  :class:`~repro.obs.forensics.DivergenceReport`.
* **Kernel equivalence** — the event-driven kernel and the lockstep
  reference kernel must produce byte-identical serialized
  :class:`~repro.sim.machine.RunResult` objects for the same program
  (the event kernel is a scheduling optimisation, nothing more).
* **Litmus sanity** — for litmus-kind genomes, the observed outcome must
  be in the consistency model's allowed set; and because the simulated
  models are strictly ordered (SC ⊆ TSO ⊆ RC), an SC execution's outcome
  must also be legal under the weaker models' expectations.

Candidates are recorded under four variants (Base/Opt × capped/INF, the
cap coming from the genome), with the Section 5.2 baseline recorders
(chunk- and value-logging) attached passively where the model admits
them; baseline and recorder byte-determinism across repeated evaluations
is what the oracle-determinism test locks down.

:func:`evaluate_spec` is pure: same genome + same overrides → the same
:class:`OracleReport`, bit for bit (``result_digest`` included).  The
module-level :func:`evaluate_shard` is the picklable worker body the
parallel scheduler ships to :class:`~repro.harness.parallel_runner`'s
:class:`~repro.harness.parallel_runner.ShardPool`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..common.config import (ConsistencyModel, MachineConfig, RecorderConfig,
                             RecorderMode)
from ..common.errors import ReplayDivergenceError
from ..common.hashing import stable_digest
from ..harness.runner import baseline_factories_for
from ..obs.coverage import coverage_signals
from ..replay import replay_recording
from ..sim import Machine
from ..sim.serialize import run_result_to_dict
from ..workloads.litmus import LITMUS_TESTS, outcome_of
from .corpus import FuzzSpec, build_program, spec_from_dict, spec_to_dict

__all__ = ["OracleVerdict", "OracleReport", "recorder_variants",
           "evaluate_spec", "evaluate_shard", "forensic_replay"]


@dataclass(frozen=True)
class OracleVerdict:
    """One oracle's opinion of one candidate."""

    oracle: str                 # "replay:<variant>" | "kernel-equivalence" | "litmus"
    ok: bool
    detail: str = ""
    report: dict | None = None  # DivergenceReport.to_dict() when available

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "ok": self.ok, "detail": self.detail,
                "report": self.report}

    @staticmethod
    def from_dict(data: dict) -> "OracleVerdict":
        return OracleVerdict(oracle=data["oracle"], ok=data["ok"],
                             detail=data.get("detail", ""),
                             report=data.get("report"))


@dataclass(frozen=True)
class OracleReport:
    """Everything one candidate evaluation produced."""

    spec: FuzzSpec
    verdicts: tuple[OracleVerdict, ...]
    signals: dict = field(default_factory=dict)
    result_digest: str = ""     # digest of the serialized event-kernel run

    @property
    def ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    def failures(self) -> tuple[OracleVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.ok)

    def to_dict(self) -> dict:
        return {"spec": spec_to_dict(self.spec),
                "verdicts": [v.to_dict() for v in self.verdicts],
                "signals": dict(self.signals),
                "result_digest": self.result_digest}

    @staticmethod
    def from_dict(data: dict) -> "OracleReport":
        return OracleReport(
            spec=spec_from_dict(data["spec"]),
            verdicts=tuple(OracleVerdict.from_dict(v)
                           for v in data["verdicts"]),
            signals=dict(data["signals"]),
            result_digest=data["result_digest"])


def recorder_variants(spec: FuzzSpec,
                      overrides: dict | None = None
                      ) -> dict[str, RecorderConfig]:
    """The four recorder variants a candidate is recorded under.

    Variant *names* are cap-independent (``base_cap``/``opt_cap``) so
    coverage bucket names stay comparable while the genome retunes the
    cap itself.  ``overrides`` sets RecorderConfig fields on every
    variant — the CLI's ``--inject-bug`` hook rides through here.
    """
    overrides = overrides or {}
    return {
        "base_cap": RecorderConfig(
            mode=RecorderMode.BASE,
            max_interval_instructions=spec.interval_cap, **overrides),
        "base_inf": RecorderConfig(mode=RecorderMode.BASE, **overrides),
        "opt_cap": RecorderConfig(
            mode=RecorderMode.OPT,
            max_interval_instructions=spec.interval_cap, **overrides),
        "opt_inf": RecorderConfig(mode=RecorderMode.OPT, **overrides),
    }


def _fingerprint(result) -> str:
    return json.dumps(run_result_to_dict(result), sort_keys=True)


_WEAKER_THAN = {
    ConsistencyModel.SC: (ConsistencyModel.TSO, ConsistencyModel.RC),
    ConsistencyModel.TSO: (ConsistencyModel.RC,),
    ConsistencyModel.RC: (),
}


def evaluate_spec(spec: FuzzSpec, *,
                  overrides: dict | None = None) -> OracleReport:
    """Run one candidate through the full oracle stack (deterministic)."""
    program = build_program(spec)
    variants = recorder_variants(spec, overrides)
    config = MachineConfig(num_cores=program.num_threads,
                           consistency=spec.consistency, seed=1)
    baselines = baseline_factories_for(spec.consistency)
    event = Machine(config, variants).run(
        program, capture_load_trace=True, baseline_factories=baselines)
    lockstep = Machine(config, variants).run(
        program, kernel="lockstep", capture_load_trace=True,
        baseline_factories=baselines)

    verdicts: list[OracleVerdict] = []
    event_wire = _fingerprint(event)
    if event_wire == _fingerprint(lockstep):
        verdicts.append(OracleVerdict("kernel-equivalence", True))
    else:
        verdicts.append(OracleVerdict(
            "kernel-equivalence", False,
            detail="event and lockstep kernels produced different "
                   "serialized RunResults"))

    for name in sorted(variants):
        try:
            replay_recording(event, name)
        except ReplayDivergenceError as exc:
            verdicts.append(OracleVerdict(
                f"replay:{name}", False, detail=str(exc),
                report=None if exc.report is None else exc.report.to_dict()))
        else:
            verdicts.append(OracleVerdict(f"replay:{name}", True))

    if spec.kind == "litmus":
        test = LITMUS_TESTS[spec.litmus]
        outcome = outcome_of(test, event.final_memory)
        models = (spec.consistency,) + _WEAKER_THAN[spec.consistency]
        bad = [model for model in models
               if outcome not in test.allowed[model]]
        if bad:
            verdicts.append(OracleVerdict(
                "litmus", False,
                detail=f"{spec.litmus} outcome {outcome} forbidden under "
                       f"{', '.join(m.value for m in bad)}"))
        else:
            verdicts.append(OracleVerdict(
                "litmus", True, detail=f"outcome {outcome}"))

    return OracleReport(spec=spec, verdicts=tuple(verdicts),
                        signals=coverage_signals(event),
                        result_digest=stable_digest(event_wire))


def forensic_replay(spec: FuzzSpec, oracle: str, *,
                    overrides: dict | None = None,
                    checkpoint_every: int = 4) -> dict | None:
    """Deep-dive a replay-oracle failure: re-record the candidate and
    replay the failing variant with checkpoints + the happens-before
    graph enabled, returning the full
    :class:`~repro.obs.forensics.DivergenceReport` dict (nearest
    checkpoint, causal cone, ready-to-run ``repro.tools inspect``
    command line).  Returns None for non-replay oracles or when the
    failure does not reproduce.
    """
    if not oracle.startswith("replay:"):
        return None
    variant = oracle.split(":", 1)[1]
    program = build_program(spec)
    config = MachineConfig(num_cores=program.num_threads,
                           consistency=spec.consistency, seed=1)
    result = Machine(config, recorder_variants(spec, overrides)).run(
        program, capture_load_trace=True, collect_dependence_edges=True)
    try:
        replay_recording(result, variant, checkpoint_every=checkpoint_every)
    except ReplayDivergenceError as exc:
        return None if exc.report is None else exc.report.to_dict()
    return None


def evaluate_shard(payload: dict) -> dict:
    """Picklable worker body for parallel candidate evaluation.

    ``payload``/reply are plain JSON-able dicts — the same worker
    protocol style as the sweep executor, so candidates ride the shared
    :class:`~repro.harness.parallel_runner.ShardPool` unchanged.
    """
    spec = spec_from_dict(payload["spec"])
    report = evaluate_spec(spec, overrides=payload.get("overrides") or None)
    return {"attempt": payload.get("attempt", 0),
            "report": report.to_dict()}
