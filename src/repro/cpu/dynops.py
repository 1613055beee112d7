"""Dynamic (in-flight) instruction state for the out-of-order core.

The core is an eager-dataflow model: when the last source operand of an
instruction becomes available, its result is computed immediately and
stamped with the *cycle at which it becomes architecturally usable*
(operand availability plus functional-unit latency).  Consumers observe
that timestamp, so timing is respected without per-cycle polling of every
in-flight instruction.

For memory instructions, the interesting timestamps are exactly the
paper's events: *perform* (the access's coherence-order point) and
*counting* (in-order post-completion, handled by the TRAQ).
"""

from __future__ import annotations

from ..common.errors import SimulationError
from ..isa.instructions import Instruction, Opcode

__all__ = ["DynInstr"]


class DynInstr:
    """One dynamic instruction instance."""

    __slots__ = (
        "core_id", "seq", "instr", "pc", "dispatch_cycle",
        # static predicates, cached off `instr` at construction (hot paths
        # read them once per event; a property indirection per read shows
        # up in profiles)
        "opcode", "is_memory", "is_load_like", "is_store_like", "dest",
        # result dataflow
        "pending_sources", "src_values", "operands_ready_cycle",
        "completed", "result", "ready_cycle", "waiters",
        # control flow
        "branch_resolved", "branch_taken",
        # memory
        "addr", "addr_ready", "addr_ready_cycle",
        "performed", "perform_cycle", "value_ready_cycle", "mem_value",
        "issued", "forwarded_from", "depends_on", "in_write_buffer",
        # lifecycle
        "retired", "retire_cycle",
    )

    def __init__(self, core_id: int, seq: int, instr: Instruction, pc: int,
                 dispatch_cycle: int):
        self.core_id = core_id
        self.seq = seq
        self.instr = instr
        self.pc = pc
        self.dispatch_cycle = dispatch_cycle
        # Inline identity tests instead of the Instruction properties:
        # this constructor runs once per dynamic instruction and the
        # property descriptors dominate its profile otherwise.
        op = instr.opcode
        self.opcode = op
        load = op is Opcode.LOAD
        store = op is Opcode.STORE
        rmw = op is Opcode.RMW
        self.is_memory = load or store or rmw
        self.is_load_like = load or rmw
        self.is_store_like = store or rmw
        self.dest = (instr.dst if (load or rmw or op is Opcode.ALU
                                   or op is Opcode.MOVI) else None)

        self.pending_sources = 0
        # role -> value; roles: "a", "b", "base", "data", "cond"
        self.src_values: dict[str, int] = {}
        self.operands_ready_cycle = dispatch_cycle

        self.completed = False          # register result available
        self.result: int | None = None
        self.ready_cycle = -1           # when `result` can be consumed
        self.waiters: list[tuple["DynInstr", str]] = []

        self.branch_resolved = False
        self.branch_taken = False

        self.addr: int | None = None    # resolved byte address
        self.addr_ready = False
        self.addr_ready_cycle = -1
        self.performed = False
        self.perform_cycle = -1
        self.value_ready_cycle = -1
        self.mem_value: int | None = None   # loaded value / RMW old value
        self.issued = False
        self.forwarded_from: "DynInstr | None" = None
        self.depends_on: "DynInstr | None" = None
        self.in_write_buffer = False

        self.retired = False
        self.retire_cycle = -1

    # ------------------------------------------------------------ queries

    def source_value(self, role: str) -> int:
        try:
            return self.src_values[role]
        except KeyError:
            raise SimulationError(
                f"source {role!r} of {self!r} consumed before it was produced")

    def countable(self, retired_seq: int) -> bool:
        """Ready for the TRAQ's in-order counting step (Section 3.1)?

        A load counts once performed *and* retired; a store once retired
        *and* performed.  Non-memory instructions never own a TRAQ entry.
        """
        del retired_seq  # used by filler entries; kept for interface parity
        return self.retired and self.performed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DynInstr(core={self.core_id}, seq={self.seq}, "
                f"{self.instr.opcode.value}@{self.pc})")
