"""On-disk persistence for programs and recordings.

A recording saved with :func:`save_recording` is a directory:

.. code-block:: text

    <dir>/
      manifest.json          # format version, config, per-variant metadata,
                             # verification state (final registers, memory,
                             # per-core instruction counts), run statistics
      program.json           # the recorded program, instruction by instruction
      logs/<variant>/core<i>.bin   # the bit-exact interval logs
      edges/<variant>.json   # pairwise interval edges (when collected)

The interval logs are stored in the recorder's binary format
(:mod:`repro.recorder.logfmt`), so the on-disk size *is* the hardware log
size.  :func:`load_recording` reconstructs everything needed to replay —
including the verification state, so a replay of a loaded recording is
checked bit-exactly against the original execution even in a fresh process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from .common.config import (
    CoherenceProtocol,
    ConsistencyModel,
    CoreConfig,
    L1Config,
    L2Config,
    MachineConfig,
    MemoryConfig,
    RecorderConfig,
    RecorderMode,
    ReplayCostConfig,
    RingConfig,
)
from .common.errors import LogFormatError
from .isa.instructions import AluOp, Instruction, Opcode, RmwOp
from .isa.program import Program, ThreadProgram
from .recorder.logfmt import decode_log
from .recorder.ordering import IntervalEdge
from .replay.costmodel import estimate_replay_time
from .replay.replayer import ReplayResult, Replayer, _verify_memory
from .sim.machine import RunResult

__all__ = ["save_program", "load_program", "save_recording",
           "load_recording", "StoredRecording", "FORMAT_VERSION",
           "config_to_dict", "config_from_dict",
           "program_to_dict", "program_from_dict", "program_digest"]

FORMAT_VERSION = 1

_ENUMS = {"opcode": Opcode, "alu_op": AluOp, "rmw_op": RmwOp}


# ------------------------------------------------------------- programs

def _instruction_to_dict(instr: Instruction) -> dict:
    out: dict = {"op": instr.opcode.value}
    for name in ("dst", "src1", "src2", "imm", "addr_base", "target"):
        value = getattr(instr, name)
        if value is not None:
            out[name] = value
    if instr.addr_offset:
        out["off"] = instr.addr_offset
    if instr.alu_op is not None:
        out["alu"] = instr.alu_op.value
    if instr.rmw_op is not None:
        out["rmw"] = instr.rmw_op.value
    if instr.acquire:
        out["acq"] = True
    if instr.release:
        out["rel"] = True
    if instr.note:
        out["note"] = instr.note
    return out


def _instruction_from_dict(data: dict) -> Instruction:
    return Instruction(
        opcode=Opcode(data["op"]),
        dst=data.get("dst"),
        src1=data.get("src1"),
        src2=data.get("src2"),
        imm=data.get("imm"),
        addr_base=data.get("addr_base"),
        addr_offset=data.get("off", 0),
        target=data.get("target"),
        alu_op=AluOp(data["alu"]) if "alu" in data else None,
        rmw_op=RmwOp(data["rmw"]) if "rmw" in data else None,
        acquire=data.get("acq", False),
        release=data.get("rel", False),
        note=data.get("note", ""),
    )


def program_to_dict(program: Program) -> dict:
    """JSON-able dict of a program (instruction-by-instruction)."""
    return {
        "name": program.name,
        "metadata": program.metadata,
        "initial_memory": {str(addr): value for addr, value
                           in program.initial_memory.items()},
        "threads": [
            {"name": thread.name,
             "instructions": [_instruction_to_dict(instr)
                              for instr in thread.instructions]}
            for thread in program.threads
        ],
    }


def program_from_dict(data: dict) -> Program:
    """Rebuild (and validate) a program written by :func:`program_to_dict`."""
    threads = [
        ThreadProgram([_instruction_from_dict(entry)
                       for entry in thread["instructions"]],
                      name=thread.get("name", ""))
        for thread in data["threads"]
    ]
    return Program(
        threads,
        initial_memory={int(addr): value for addr, value
                        in data.get("initial_memory", {}).items()},
        name=data.get("name", "program"),
        metadata=data.get("metadata", {}),
    ).validate()


def program_digest(program: Program) -> str:
    """Content digest of a program: SHA-256 of its sorted-key JSON form."""
    text = json.dumps(program_to_dict(program), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def save_program(program: Program, path: str | Path) -> Path:
    """Write a program to ``path`` as JSON (see ``program_to_dict``)."""
    path = Path(path)
    path.write_text(json.dumps(program_to_dict(program)))
    return path


def load_program(path: str | Path) -> Program:
    """Load a program saved by :func:`save_program`."""
    return program_from_dict(json.loads(Path(path).read_text()))


# --------------------------------------------------------------- config

def _config_to_dict(config) -> dict:
    out = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            out[field.name] = _config_to_dict(value)
        elif isinstance(value, (ConsistencyModel, RecorderMode,
                                CoherenceProtocol)):
            out[field.name] = value.value
        else:
            out[field.name] = value
    return out


_NESTED = {"core": CoreConfig, "l1": L1Config, "l2": L2Config,
           "ring": RingConfig, "memory": MemoryConfig,
           "recorder": RecorderConfig, "replay_cost": ReplayCostConfig}
_ENUM_FIELDS = {"consistency": ConsistencyModel, "protocol": CoherenceProtocol,
                "mode": RecorderMode}


def _config_from_dict(cls, data: dict):
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name not in data:
            continue
        value = data[field.name]
        if field.name in _NESTED and isinstance(value, dict):
            value = _config_from_dict(_NESTED[field.name], value)
        elif field.name in _ENUM_FIELDS and isinstance(value, str):
            value = _ENUM_FIELDS[field.name](value)
        kwargs[field.name] = value
    return cls(**kwargs)


def config_to_dict(config) -> dict:
    """JSON-able dict of any config dataclass (enums by value)."""
    return _config_to_dict(config)


def config_from_dict(cls, data: dict):
    """Rebuild a config dataclass written by :func:`config_to_dict`."""
    return _config_from_dict(cls, data)


# ------------------------------------------------------------ recordings

def save_recording(result: RunResult, path: str | Path) -> Path:
    """Persist a :class:`~repro.sim.machine.RunResult` to ``path``."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    save_program(result.program, root / "program.json")

    variants = {}
    for name, outputs in result.recordings.items():
        variant_dir = root / "logs" / name
        variant_dir.mkdir(parents=True, exist_ok=True)
        cores = []
        for output in outputs:
            data, bits = output.encoded()
            log_path = variant_dir / f"core{output.core_id}.bin"
            log_path.write_bytes(data)
            cores.append({"core_id": output.core_id, "bit_length": bits})
        variants[name] = {
            "recorder_config": _config_to_dict(outputs[0].config),
            "cores": cores,
        }

    edges_meta = {}
    for name, edges in result.dependence_edges.items():
        edges_dir = root / "edges"
        edges_dir.mkdir(exist_ok=True)
        (edges_dir / f"{name}.json").write_text(json.dumps(
            [[e.src_core, e.src_cisn, e.dst_core, e.dst_cisn]
             for e in edges]))
        edges_meta[name] = len(edges)

    manifest = {
        "format_version": FORMAT_VERSION,
        "config": _config_to_dict(result.config),
        "cycles": result.cycles,
        "bus_transactions": result.bus_transactions,
        "variants": variants,
        "edges": edges_meta,
        "verification": {
            "final_memory": {str(addr): value for addr, value
                             in result.final_memory.items()},
            "cores": [
                {"core_id": core.core_id,
                 "instructions": core.instructions,
                 "final_regs": core.final_regs}
                for core in result.cores
            ],
        },
    }
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


class StoredRecording:
    """A recording loaded from disk; replayable and self-verifying."""

    def __init__(self, root: Path, manifest: dict, program: Program):
        self.root = root
        self.manifest = manifest
        self.program = program
        self.config = _config_from_dict(MachineConfig, manifest["config"])
        self.cycles = manifest["cycles"]
        self.final_memory = {int(addr): value for addr, value in
                             manifest["verification"]["final_memory"].items()}
        self.core_facts = manifest["verification"]["cores"]

    @property
    def variants(self) -> tuple[str, ...]:
        return tuple(self.manifest["variants"])

    def log_entries(self, variant: str) -> list[list]:
        try:
            meta = self.manifest["variants"][variant]
        except KeyError:
            raise LogFormatError(
                f"recording has no variant {variant!r}; available: "
                f"{', '.join(self.variants)}")
        recorder_config = _config_from_dict(RecorderConfig,
                                            meta["recorder_config"])
        per_core = []
        for core in sorted(meta["cores"], key=lambda c: c["core_id"]):
            data = (self.root / "logs" / variant /
                    f"core{core['core_id']}.bin").read_bytes()
            per_core.append(decode_log(data, core["bit_length"],
                                       recorder_config))
        return per_core

    def edges(self, variant: str) -> list[IntervalEdge]:
        path = self.root / "edges" / f"{variant}.json"
        if not path.exists():
            return []
        return [IntervalEdge(*row) for row in json.loads(path.read_text())]

    def log_bits(self, variant: str) -> int:
        meta = self.manifest["variants"][variant]
        return sum(core["bit_length"] for core in meta["cores"])

    def inspector(self, variant: str | None = None, *,
                  checkpoint_every: int = 8):
        """Time-travel :class:`~repro.obs.inspect.ReplayInspector` over one
        stored variant (default: the first)."""
        from .obs.inspect import ReplayInspector

        return ReplayInspector.from_stored(
            self, variant, checkpoint_every=checkpoint_every)

    def replay(self, variant: str, *, verify: bool = True) -> ReplayResult:
        """Replay a stored variant, verifying against the stored execution."""
        meta = self.manifest["variants"][variant]
        recorder_config = _config_from_dict(RecorderConfig,
                                            meta["recorder_config"])
        replayer = Replayer(self.program, self.log_entries(variant),
                            cisn_bits=recorder_config.cisn_bits,
                            variant=variant)
        memory, contexts, counts = replayer.replay()
        if verify:
            _verify_memory(memory, self.final_memory, variant)
            for context, facts in zip(contexts, self.core_facts):
                if context.instructions_executed != facts["instructions"]:
                    raise LogFormatError(
                        f"[{variant}] core {facts['core_id']}: replayed "
                        f"{context.instructions_executed} instructions, "
                        f"manifest says {facts['instructions']}")
                if context.regs != facts["final_regs"]:
                    raise LogFormatError(
                        f"[{variant}] core {facts['core_id']}: final "
                        f"registers diverge from the stored execution")
        total = sum(facts["instructions"] for facts in self.core_facts)
        recorded_cpi = (self.cycles * len(self.core_facts) / total
                        if total else 1.0)
        time = estimate_replay_time(counts, self.config.replay_cost,
                                    recorded_cpi=recorded_cpi)
        return ReplayResult(
            variant=variant, counts=counts, time=time,
            final_memory={a: v for a, v in memory.items() if v},
            final_regs=[list(c.regs) for c in contexts],
            verified=verify)


def load_recording(path: str | Path) -> StoredRecording:
    """Open a recording directory written by :func:`save_recording`."""
    root = Path(path)
    manifest = json.loads((root / "manifest.json").read_text())
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise LogFormatError(
            f"unsupported recording format version {version!r} "
            f"(this build reads {FORMAT_VERSION})")
    program = load_program(root / "program.json")
    return StoredRecording(root, manifest, program)
