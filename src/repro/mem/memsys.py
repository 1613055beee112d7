"""Memory system facade: functional image + caches + bus + MSHRs.

The core's load/store units talk to this module.  An access either *hits*
(sufficient MESI permission in the local L1) and performs immediately at the
issue cycle, or enqueues/merges into a bus transaction and performs at that
transaction's commit cycle.  "Performs" is the access's coherence-order
point: the functional memory image is read/updated exactly then, so load
values reflect precisely the interleavings the coherence protocol allowed —
which is the ground truth the recorder must capture and the replayer must
reproduce.

The value's availability to dependent instructions is delayed by the data
return latency (L1 hit, cache-to-cache over the ring, L2, or main memory);
that delay, combined with multiple outstanding misses, is what makes the
core perform accesses out of program order.
"""

from __future__ import annotations

import enum
from typing import Callable

from ..common.config import CoherenceProtocol, MachineConfig
from ..common.errors import SimulationError
from ..isa.instructions import MASK64, RmwOp, WORD_BYTES
from ..isa.semantics import eval_rmw
from .bus import CoherenceListener, SnoopyRingBus
from .cache import L1Cache
from .coherence import BusTransaction, MesiState, TransactionKind

__all__ = ["MemOpKind", "MemOp", "MemorySystem"]


class MemOpKind(enum.Enum):
    """The three access kinds the load/store units issue."""

    LOAD = "load"
    STORE = "store"
    RMW = "rmw"


class MemOp:
    """An in-flight memory access issued to the memory system."""

    __slots__ = (
        "core_id", "kind", "byte_addr", "line_addr",
        "store_value", "rmw_op", "rmw_operand", "rmw_imm",
        "performed", "perform_cycle", "value", "value_ready_cycle",
        "on_perform",
    )

    def __init__(self, core_id: int, kind: MemOpKind, byte_addr: int, *,
                 store_value: int | None = None,
                 rmw_op: RmwOp | None = None,
                 rmw_operand: int | None = None,
                 rmw_imm: int | None = None,
                 on_perform: Callable[["MemOp"], None] | None = None):
        if byte_addr % WORD_BYTES:
            raise SimulationError(f"unaligned access to {byte_addr:#x}")
        self.core_id = core_id
        self.kind = kind
        self.byte_addr = byte_addr
        self.line_addr = -1  # assigned by the memory system at issue
        self.store_value = store_value
        self.rmw_op = rmw_op
        self.rmw_operand = rmw_operand
        self.rmw_imm = rmw_imm
        self.performed = False
        self.perform_cycle = -1
        self.value: int | None = None          # loaded / RMW old value
        self.value_ready_cycle = -1            # when dst register is ready
        self.on_perform = on_perform

    @property
    def is_write(self) -> bool:
        return self.kind in (MemOpKind.STORE, MemOpKind.RMW)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MemOp(core={self.core_id}, {self.kind.value}, "
                f"addr={self.byte_addr:#x}, performed={self.performed})")


class MemorySystem:
    """Per-machine memory hierarchy."""

    def __init__(self, config: MachineConfig, initial_memory: dict[int, int] | None = None):
        self.config = config
        self.line_bytes = config.l1.line_bytes
        self.caches = [L1Cache(config.l1, core_id)
                       for core_id in range(config.num_cores)]
        if config.protocol is CoherenceProtocol.DIRECTORY:
            from .directory import DirectoryRingBus
            self.bus = DirectoryRingBus(config, self.caches)
        else:
            self.bus = SnoopyRingBus(config, self.caches)
        self._image: dict[int, int] = dict(initial_memory or {})
        # Statistics.
        self.loads_performed = 0
        self.stores_performed = 0
        self.rmws_performed = 0

    # --------------------------------------------------------- functional

    def read_word(self, byte_addr: int) -> int:
        return self._image.get(byte_addr, 0)

    def write_word(self, byte_addr: int, value: int) -> None:
        self._image[byte_addr] = value & MASK64

    def memory_image(self) -> dict[int, int]:
        """Snapshot of all non-zero words (determinism verification)."""
        return {addr: value for addr, value in self._image.items() if value}

    # ------------------------------------------------------------- timing

    def add_listener(self, listener: CoherenceListener) -> None:
        self.bus.add_listener(listener)

    def attach_tracer(self, tracer) -> None:
        """Thread the trace bus through the caches and the coherence bus."""
        self.bus.tracer = tracer
        for cache in self.caches:
            cache.tracer = tracer

    def line_of(self, byte_addr: int) -> int:
        return byte_addr // self.line_bytes

    def tick(self, cycle: int) -> bool:
        """Advance the bus by one cycle (commits at most one transaction).

        Returns True when a coherence transaction committed.
        """
        return self.bus.tick(cycle)

    def issue(self, op: MemOp, cycle: int) -> bool:
        """Issue an access.  Returns False if MSHRs are exhausted (retry later)."""
        op.line_addr = self.line_of(op.byte_addr)
        cache = self.caches[op.core_id]
        state = cache.lookup(op.line_addr)

        needs_write = op.is_write
        if (state.can_write if needs_write else state.can_read):
            cache.touch(op.line_addr)
            if needs_write and state is MesiState.EXCLUSIVE:
                cache.set_state(op.line_addr, MesiState.MODIFIED)
            cache.hits += 1
            self._perform(op, cycle, cycle + self.config.l1.hit_cycles)
            return True

        # Miss (or permission miss): merge into a pending transaction or
        # enqueue a new one, subject to MSHR capacity.
        pending = self.bus.pending_for(op.core_id, op.line_addr)
        if pending is not None:
            if needs_write:
                pending.escalate_to_getm()
                if pending.kind is TransactionKind.UPGRADE:
                    pass  # upgrades already request ownership
            pending.waiters.append(self._waiter(op))
            return True

        if self.bus.pending_count(op.core_id) >= self.config.l1.mshr_entries:
            return False

        cache.note_miss(cycle, op.line_addr, needs_write, state)
        if needs_write:
            kind = (TransactionKind.UPGRADE if state is MesiState.SHARED
                    else TransactionKind.GETM)
        else:
            kind = TransactionKind.GETS
        transaction = BusTransaction(requester=op.core_id, kind=kind,
                                     line_addr=op.line_addr, enqueue_cycle=cycle)
        transaction.waiters.append(self._waiter(op))
        self.bus.enqueue(transaction)
        return True

    def _waiter(self, op: MemOp) -> Callable[[int, int], None]:
        def on_commit(commit_cycle: int, data_ready_cycle: int) -> None:
            self._perform(op, commit_cycle, data_ready_cycle)
        return on_commit

    def _perform(self, op: MemOp, perform_cycle: int, value_ready_cycle: int) -> None:
        if op.performed:
            raise SimulationError(f"double perform of {op!r}")
        op.performed = True
        op.perform_cycle = perform_cycle
        op.value_ready_cycle = value_ready_cycle
        if op.kind is MemOpKind.LOAD:
            op.value = self.read_word(op.byte_addr)
            self.loads_performed += 1
        elif op.kind is MemOpKind.STORE:
            if op.store_value is None:
                raise SimulationError(f"store without a value: {op!r}")
            self.write_word(op.byte_addr, op.store_value)
            self.stores_performed += 1
        else:  # RMW: atomic at the perform point
            old = self.read_word(op.byte_addr)
            new = eval_rmw(op.rmw_op, old, op.rmw_operand, op.rmw_imm)
            self.write_word(op.byte_addr, new)
            op.value = old
            self.rmws_performed += 1
        if op.on_perform is not None:
            op.on_perform(op)

    # -------------------------------------------------------- diagnostics

    def check_coherence_invariants(self) -> None:
        """Assert the single-writer/multiple-reader MESI invariant."""
        owners: dict[int, list[int]] = {}
        sharers: dict[int, list[int]] = {}
        for cache in self.caches:
            for line in cache.resident_lines():
                if line.state in (MesiState.MODIFIED, MesiState.EXCLUSIVE):
                    owners.setdefault(line.line_addr, []).append(cache.core_id)
                elif line.state is MesiState.SHARED:
                    sharers.setdefault(line.line_addr, []).append(cache.core_id)
        for line_addr, cores in owners.items():
            if len(cores) > 1:
                raise SimulationError(
                    f"line {line_addr:#x} owned (M/E) by multiple cores: {cores}")
            if line_addr in sharers:
                raise SimulationError(
                    f"line {line_addr:#x} both owned by {cores} and shared by "
                    f"{sharers[line_addr]}")
