"""The out-of-order core model.

One :class:`Core` executes one :class:`~repro.isa.program.ThreadProgram`.
The model is cycle-stepped and eager-dataflow (see ``dynops``): fetch and
dispatch are in program order (dispatch stalls at an unresolved branch, so
there is no wrong-path execution); memory accesses issue out of order under
the configured consistency policy; retirement is in order; and the TRAQ
performs the paper's in-order *counting* step after retirement.

The core emits the exact event stream the paper's MRR module consumes
(Figure 6(a)): memory-instruction dispatch (TRAQ allocation), perform
events, counting events, and — via the bus — observed coherence
transactions.  Recorder variants and metric collectors subscribe as sinks.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol

from ..common.config import ConsistencyModel, MachineConfig
from ..common.errors import SimulationError
from ..isa.instructions import NUM_REGS, Opcode
from ..isa.program import ThreadProgram
from ..isa.semantics import eval_alu
from ..mem.memsys import MemOp, MemOpKind, MemorySystem
from ..obs.events import (InstrCountEvent, InstrPerformEvent,
                          WriteBufferDrainEvent)
from ..recorder.traq import TraqEntry, TrackingQueue
from .consistency import IssuePolicy
from .dynops import DynInstr

__all__ = ["CoreEventSink", "Core"]

_INF_SEQ = 1 << 62


class CoreEventSink(Protocol):
    """Receiver of a core's instruction events (recorders, metrics)."""

    def on_perform(self, dyn: DynInstr, cycle: int, out_of_order: bool) -> None:
        """A memory access reached its coherence-order point."""

    def on_count(self, entry: TraqEntry, cycle: int) -> None:
        """A TRAQ entry was counted (in program order)."""


class Core:
    """A single out-of-order core wired to the shared memory system."""

    def __init__(self, core_id: int, program: ThreadProgram,
                 config: MachineConfig, memsys: MemorySystem,
                 traq: TrackingQueue):
        self.core_id = core_id
        self.program = program
        self.config = config
        self.memsys = memsys
        self.traq = traq
        self.policy = IssuePolicy(config.consistency, self)
        self.sinks: list[CoreEventSink] = []
        # Optional structured trace bus (repro.obs); None keeps every hook
        # down to a single attribute load + identity check.
        self.tracer = None
        # Set by the kernel: schedules a cycle at which this core must be
        # stepped again (the event-driven kernel skips it in between; the
        # lockstep kernel only uses the wakes to fast-forward globally idle
        # stretches).
        self.schedule_wake = lambda cycle: None
        # Config constants hoisted out of the per-cycle paths.
        self._issue_width = config.core.issue_width
        self._rob_entries = config.core.rob_entries
        self._lsq_entries = config.core.lsq_entries
        self._wb_entries = config.core.write_buffer_entries
        self._ldst_units = config.core.ldst_units
        self._alu_latency = config.core.alu_latency
        self._fifo_write_buffer = config.consistency is not ConsistencyModel.RC

        # Fetch / dispatch state.
        self.pc = 0
        self.next_seq = 0
        self.halted = False            # HALT dispatched; fetch stopped
        self.halt_retired = False
        self.stalled_branch: DynInstr | None = None
        self.pending_nmi = 0           # non-memory instrs since last memory op

        # Rename/dataflow state.
        self.rename: list[DynInstr | None] = [None] * NUM_REGS
        self.spec_regs = [0] * NUM_REGS
        self.arch_regs = [0] * NUM_REGS

        # Structures.
        self.rob: deque[DynInstr] = deque()
        self.write_buffer: deque[DynInstr] = deque()
        self.lsq_occupancy = 0

        # Ordering oracles (program-ordered; fronts popped lazily).
        self._unperformed_mem: deque[DynInstr] = deque()
        self._unperformed_loads: deque[DynInstr] = deque()
        self._unperformed_stores: deque[DynInstr] = deque()
        self._unresolved_stores: deque[DynInstr] = deque()
        self._barriers: deque[DynInstr] = deque()
        # Same-word dependency index: byte address -> unperformed accesses
        # with that resolved address.  Entries are added when an address
        # resolves and removed when the access performs, so buckets stay
        # bounded by the in-flight window (dependency and disambiguation
        # queries used to scan the whole unperformed deques per issue
        # attempt, which dominated profiles).
        self._same_word: dict[int, list[DynInstr]] = {}

        # Issue scheduling.
        self._pending_issue: deque[DynInstr] = deque()
        self._waiting_disambiguation: list[DynInstr] = []

        self.retired_seq = -1
        self.now = 0

        # Statistics.
        self.instructions_retired = 0
        self.mem_retired = 0
        self.loads_performed = 0
        self.stores_performed = 0
        self.rmws_performed = 0
        self.ooo_loads = 0
        self.ooo_stores = 0
        self.forwarded_loads = 0
        self.dispatch_stall_traq = 0
        self.finish_cycle: int | None = None

    # ------------------------------------------------------------ oracles

    def oldest_unperformed_mem_seq(self) -> int:
        queue = self._unperformed_mem
        while queue and queue[0].performed:
            queue.popleft()
        return queue[0].seq if queue else _INF_SEQ

    def oldest_unperformed_load_seq(self) -> int:
        queue = self._unperformed_loads
        while queue and queue[0].performed:
            queue.popleft()
        return queue[0].seq if queue else _INF_SEQ

    def oldest_unperformed_store_seq(self) -> int:
        queue = self._unperformed_stores
        while queue and queue[0].performed:
            queue.popleft()
        return queue[0].seq if queue else _INF_SEQ

    def _oldest_unresolved_store_seq(self) -> int:
        queue = self._unresolved_stores
        while queue and queue[0].addr_ready:
            queue.popleft()
        return queue[0].seq if queue else _INF_SEQ

    def has_barrier_older_than(self, seq: int) -> bool:
        queue = self._barriers
        while queue and self._barrier_cleared(queue[0]):
            queue.popleft()
        return bool(queue) and queue[0].seq < seq

    def _barrier_cleared(self, dyn: DynInstr) -> bool:
        if dyn.opcode is Opcode.FENCE:
            # A fence clears when every older access performed.  The oracle
            # may momentarily point at an access younger than the fence, in
            # which case everything older has performed.
            return self.oldest_unperformed_mem_seq() > dyn.seq
        return dyn.performed  # acquire load or RMW

    def has_older_unperformed_store_to(self, dyn: DynInstr) -> bool:
        seq = dyn.seq
        for other in self._same_word.get(dyn.addr, ()):
            if other.seq < seq and other.is_store_like:
                return True
        return False

    # ------------------------------------------------------------- status

    @property
    def done(self) -> bool:
        return (self.halt_retired and not self.rob and self.traq.is_empty
                and self.oldest_unperformed_store_seq() == _INF_SEQ)

    def stall_reason(self, cycle: int) -> str:
        """Classify why this core made no pipeline progress at ``cycle``.

        Consulted only by the cycle-attribution profiler
        (:mod:`repro.obs.profiler`) after a no-progress ``step``; it must
        stay strictly read-only so attaching a profiler cannot perturb
        the simulated architecture.  TRAQ-full stalls never reach here —
        the kernel attributes those from the dispatch-stall-counter delta
        (which also covers the event kernel's skipped-cycle back-fill).
        """
        if self.done:
            return "done"
        pending_bus = self.memsys.bus.pending_count(self.core_id)
        if pending_bus:
            if (pending_bus >= self.config.l1.mshr_entries
                    and (self._pending_issue
                         or any(not dyn.issued and not dyn.performed
                                for dyn in self.write_buffer))):
                return "mshr_full"
            return "bus_wait"
        branch = self.stalled_branch
        if branch is not None and (not branch.branch_resolved
                                   or branch.ready_cycle > cycle):
            return "branch"
        rob = self.rob
        if rob:
            head = rob[0]
            opcode = head.opcode
            if head.is_memory:
                if head.performed:
                    return ("mem_latency" if head.value_ready_cycle > cycle
                            else "pipeline")
                if not head.addr_ready:
                    return "exec_latency"
                if (opcode is Opcode.STORE
                        and len(self.write_buffer) >= self._wb_entries):
                    return "wb_full"
                # Address known, no bus traffic outstanding: the access is
                # held back by the consistency policy, disambiguation or
                # an unmerged older same-word access.
                return "ordering"
            if opcode is Opcode.FENCE:
                return "fence"
            if opcode in (Opcode.ALU, Opcode.MOVI, Opcode.BEQZ, Opcode.BNEZ):
                return "exec_latency"
            return "pipeline"
        if self.halted:
            # HALT retired (or dispatched) with empty ROB: draining the
            # write buffer / TRAQ tail.
            return "drain"
        return "frontend"

    # -------------------------------------------------------------- step

    def step(self, cycle: int) -> bool:
        """Advance one cycle; returns True if any pipeline activity occurred."""
        self.now = cycle
        progress = False
        progress |= self._retire(cycle) > 0
        progress |= self._count(cycle) > 0
        progress |= self._issue_memory(cycle) > 0
        progress |= self._dispatch(cycle) > 0
        return progress

    # ------------------------------------------------------------- retire

    def _retire(self, cycle: int) -> int:
        retired = 0
        width = self._issue_width
        while retired < width and self.rob:
            dyn = self.rob[0]
            if not self._can_retire(dyn, cycle):
                break
            self.rob.popleft()
            if dyn.opcode is Opcode.STORE:
                dyn.in_write_buffer = True
                self.write_buffer.append(dyn)
            dyn.retired = True
            dyn.retire_cycle = cycle
            self.retired_seq = dyn.seq
            destination = dyn.dest
            if destination is not None:
                self.arch_regs[destination] = self._retired_value(dyn)
            if dyn.is_memory:
                self.lsq_occupancy -= 1
                self.mem_retired += 1
            if dyn.opcode is Opcode.HALT:
                self.halt_retired = True
            self.instructions_retired += 1
            retired += 1
        return retired

    def _can_retire(self, dyn: DynInstr, cycle: int) -> bool:
        opcode = dyn.opcode
        if opcode in (Opcode.NOP, Opcode.JUMP, Opcode.HALT):
            return True
        if opcode in (Opcode.ALU, Opcode.MOVI):
            return dyn.completed and dyn.ready_cycle <= cycle
        if opcode in (Opcode.BEQZ, Opcode.BNEZ):
            return dyn.branch_resolved and dyn.ready_cycle <= cycle
        if opcode is Opcode.FENCE:
            return self.oldest_unperformed_mem_seq() > dyn.seq
        if opcode is Opcode.STORE:
            self._drain_write_buffer_front()
            return dyn.addr_ready and len(self.write_buffer) < self._wb_entries
        # LOAD / RMW
        return dyn.performed and dyn.value_ready_cycle <= cycle

    def _retired_value(self, dyn: DynInstr) -> int:
        if dyn.opcode in (Opcode.LOAD, Opcode.RMW):
            return dyn.mem_value
        return dyn.result

    def _drain_write_buffer_front(self) -> None:
        while self.write_buffer and self.write_buffer[0].performed:
            self.write_buffer.popleft()

    # -------------------------------------------------------------- count

    def _count(self, cycle: int) -> int:
        traq = self.traq
        if not traq._entries:
            return 0
        return traq.count_ready(self.retired_seq, self._notify_count,
                                cycle=cycle)

    def _notify_count(self, entry: TraqEntry) -> None:
        """Counting-event fan-out (bound once; ``self.now`` is the counting
        cycle — :meth:`_count` only runs from inside :meth:`step`)."""
        cycle = self.now
        for sink in self.sinks:
            sink.on_count(entry, cycle)
        if self.tracer is not None:
            dyn = entry.dyn
            self.tracer.emit(InstrCountEvent(
                cycle=cycle, core_id=self.core_id,
                seq=-1 if dyn is None else dyn.seq, nmi=entry.nmi,
                opcode="filler" if dyn is None else dyn.opcode.value))

    # -------------------------------------------------------------- issue

    def _issue_memory(self, cycle: int) -> int:
        units = self._ldst_units
        issued = 0
        issued += self._drain_write_buffer(cycle, units)
        units -= issued
        if units > 0:
            issued += self._issue_pending(cycle, units)
        return issued

    def _drain_write_buffer(self, cycle: int, units: int) -> int:
        issued = 0
        for dyn in self.write_buffer:
            if issued >= units:
                break
            if dyn.performed or dyn.issued:
                continue
            if not self.policy.may_issue_store(dyn):
                if self._fifo_write_buffer:
                    break  # FIFO drain: nothing younger may pass
                continue
            op = MemOp(self.core_id, MemOpKind.STORE, dyn.addr,
                       store_value=dyn.source_value("data"),
                       on_perform=self._mem_callback(dyn))
            if not self.memsys.issue(op, cycle):
                break  # MSHRs exhausted
            dyn.issued = True
            issued += 1
            if self.tracer is not None:
                self.tracer.emit(WriteBufferDrainEvent(
                    cycle=cycle, core_id=self.core_id, seq=dyn.seq,
                    addr=dyn.addr, occupancy=len(self.write_buffer)))
        return issued

    def _issue_pending(self, cycle: int, units: int) -> int:
        issued = 0
        remaining: deque[DynInstr] = deque()
        pending = self._pending_issue
        while pending:
            dyn = pending.popleft()
            if issued >= units:
                remaining.append(dyn)
                continue
            if self._try_issue_one(dyn, cycle):
                issued += 1
            else:
                remaining.append(dyn)
        self._pending_issue = remaining
        return issued

    def _try_issue_one(self, dyn: DynInstr, cycle: int) -> bool:
        if dyn.addr_ready_cycle > cycle:
            return False
        if dyn.opcode is Opcode.RMW:
            if not self.policy.may_issue_rmw(dyn):
                return False
            op = MemOp(self.core_id, MemOpKind.RMW, dyn.addr,
                       rmw_op=dyn.instr.rmw_op,
                       rmw_operand=dyn.src_values.get("data"),
                       rmw_imm=dyn.instr.imm,
                       on_perform=self._mem_callback(dyn))
            return self.memsys.issue(op, cycle)
        # LOAD
        dependency = dyn.depends_on
        while dependency is not None and dependency.performed:
            # The nearest same-word access completed, but an older one may
            # still be pending (e.g. this load's dependency was itself a
            # load *forwarded* from a store that has not merged yet) — the
            # load must honour that one too, or it could read memory from
            # before the program-order-earlier store (a uniprocessor
            # same-address violation no recorder could repair).
            dependency = dyn.depends_on = self._find_same_word_dependency(dyn)
        if dependency is not None:
            if (dependency.opcode is Opcode.STORE and dependency.addr_ready
                    and self.policy.allows_forwarding()):
                if not self.policy.may_issue_load(dyn):
                    return False
                self._forward_load(dyn, dependency, cycle)
                return True
            else:
                return False
        if not self.policy.may_issue_load(dyn):
            return False
        op = MemOp(self.core_id, MemOpKind.LOAD, dyn.addr,
                   on_perform=self._mem_callback(dyn))
        return self.memsys.issue(op, cycle)

    def _forward_load(self, dyn: DynInstr, store: DynInstr, cycle: int) -> None:
        """Store-to-load forwarding: the load performs locally, taking the
        pending store's data (Section 3.4)."""
        dyn.forwarded_from = store
        self.forwarded_loads += 1
        self._complete_memory(dyn, cycle, cycle + 1, store.source_value("data"))

    def _mem_callback(self, dyn: DynInstr):
        def on_perform(op: MemOp) -> None:
            dyn.issued = True
            self._complete_memory(dyn, op.perform_cycle, op.value_ready_cycle,
                                  op.value)
        return on_perform

    def _complete_memory(self, dyn: DynInstr, perform_cycle: int,
                         value_ready_cycle: int, value: int | None) -> None:
        if dyn.performed:
            raise SimulationError(f"{dyn!r} performed twice")
        dyn.performed = True
        bucket = self._same_word[dyn.addr]
        bucket.remove(dyn)
        if not bucket:
            del self._same_word[dyn.addr]
        dyn.perform_cycle = perform_cycle
        dyn.value_ready_cycle = value_ready_cycle
        dyn.mem_value = value
        self.schedule_wake(value_ready_cycle)
        if perform_cycle > self.now:
            # Performed from a bus commit while this core was not stepping
            # (tick runs before the step phase): the event-driven kernel
            # must step this core at the perform cycle — fences, write
            # buffer slots and MSHRs free up *at* the commit cycle, before
            # the value is ready.  Performs from our own step (hits,
            # forwarding) have perform_cycle == self.now and need no wake.
            self.schedule_wake(perform_cycle)
        out_of_order = self.oldest_unperformed_mem_seq() < dyn.seq
        if dyn.is_load_like:
            if dyn.opcode is Opcode.RMW:
                self.rmws_performed += 1
            else:
                self.loads_performed += 1
            if out_of_order:
                self.ooo_loads += 1
        else:
            self.stores_performed += 1
            if out_of_order:
                self.ooo_stores += 1
        for sink in self.sinks:
            sink.on_perform(dyn, perform_cycle, out_of_order)
        if self.tracer is not None:
            self.tracer.emit(InstrPerformEvent(
                cycle=perform_cycle, core_id=self.core_id, seq=dyn.seq,
                opcode=dyn.opcode.value, addr=dyn.addr,
                out_of_order=out_of_order))
        if dyn.is_load_like:
            self._complete_result(dyn, value, value_ready_cycle)

    # ----------------------------------------------------------- dispatch

    def _dispatch(self, cycle: int) -> int:
        dispatched = 0
        width = self._issue_width
        while dispatched < width:
            if self.stalled_branch is not None:
                branch = self.stalled_branch
                if not branch.branch_resolved or branch.ready_cycle > cycle:
                    break
                self.pc = (branch.instr.target if branch.branch_taken
                           else branch.pc + 1)
                self.stalled_branch = None
            if self.halted:
                break
            if len(self.rob) >= self._rob_entries:
                break
            # Emit an NMI filler as soon as a full group of non-memory
            # instructions accumulates (Section 4.1), so a memory access or
            # HALT never needs more than one TRAQ slot.
            if self.pending_nmi >= self.traq.max_nmi:
                if not self.traq.has_space(1):
                    self.dispatch_stall_traq += 1
                    self.traq.stall_cycles += 1
                    break
                self.traq.push_filler(self.traq.max_nmi, self.next_seq - 1,
                                      cycle=cycle)
                self.pending_nmi -= self.traq.max_nmi
            instr = self.program[self.pc]
            if instr.is_memory:
                if self.lsq_occupancy >= self._lsq_entries:
                    break
                if not self.traq.has_space(1):
                    self.dispatch_stall_traq += 1
                    self.traq.stall_cycles += 1
                    break
            elif instr.opcode is Opcode.HALT:
                # The trailing non-memory run (including HALT) needs a filler.
                if not self.traq.has_space(1):
                    self.dispatch_stall_traq += 1
                    self.traq.stall_cycles += 1
                    break
            self._dispatch_one(instr, cycle)
            dispatched += 1
            if self.halted or self.stalled_branch is not None:
                break
        return dispatched

    def _dispatch_one(self, instr, cycle: int) -> None:
        dyn = DynInstr(self.core_id, self.next_seq, instr, self.pc, cycle)
        self.next_seq += 1
        self.rob.append(dyn)
        self._capture_sources(dyn, cycle)

        opcode = instr.opcode
        if opcode in (Opcode.BEQZ, Opcode.BNEZ):
            self.pending_nmi += 1
            if dyn.pending_sources == 0:
                self._resolve_branch(dyn)
                self.pc = instr.target if dyn.branch_taken else self.pc + 1
            else:
                self.stalled_branch = dyn
            return
        if opcode is Opcode.JUMP:
            self.pending_nmi += 1
            dyn.completed = True
            dyn.ready_cycle = cycle
            self.pc = instr.target
            return
        if opcode is Opcode.HALT:
            self.halted = True
            self.pending_nmi += 1
            self.traq.push_filler(self.pending_nmi, dyn.seq, cycle=cycle)
            self.pending_nmi = 0
            self.pc += 1
            return

        self.pc += 1
        if instr.is_memory:
            self.lsq_occupancy += 1
            self.traq.push_mem(dyn, self.pending_nmi, cycle=cycle)
            self.pending_nmi = 0
            self._register_memory(dyn)
            if dyn.pending_sources == 0:
                self._resolve_address(dyn)
            return

        self.pending_nmi += 1
        if opcode is Opcode.FENCE:
            self._barriers.append(dyn)
            dyn.completed = True
            dyn.ready_cycle = cycle
        elif opcode is Opcode.NOP:
            dyn.completed = True
            dyn.ready_cycle = cycle
        elif opcode is Opcode.MOVI:
            self._complete_result(dyn, instr.imm, cycle)
        elif opcode is Opcode.ALU:
            if dyn.pending_sources == 0:
                self._execute_alu(dyn)
        else:  # pragma: no cover - exhaustive
            raise SimulationError(f"unknown opcode {opcode}")

    def _register_memory(self, dyn: DynInstr) -> None:
        self._unperformed_mem.append(dyn)
        if dyn.is_load_like:
            self._unperformed_loads.append(dyn)
        if dyn.is_store_like:
            self._unperformed_stores.append(dyn)
            self._unresolved_stores.append(dyn)
        if dyn.opcode is Opcode.RMW or dyn.instr.acquire:
            self._barriers.append(dyn)

    def _capture_sources(self, dyn: DynInstr, cycle: int) -> None:
        instr = dyn.instr
        roles: list[tuple[str, int]] = []
        if instr.opcode is Opcode.ALU:
            roles.append(("a", instr.src1))
            if instr.src2 is not None:
                roles.append(("b", instr.src2))
        elif instr.opcode in (Opcode.BEQZ, Opcode.BNEZ):
            roles.append(("cond", instr.src1))
        elif instr.opcode is Opcode.STORE:
            roles.append(("data", instr.src1))
            if instr.addr_base is not None:
                roles.append(("base", instr.addr_base))
        elif instr.opcode is Opcode.LOAD:
            if instr.addr_base is not None:
                roles.append(("base", instr.addr_base))
        elif instr.opcode is Opcode.RMW:
            if instr.src1 is not None:
                roles.append(("data", instr.src1))
            if instr.addr_base is not None:
                roles.append(("base", instr.addr_base))
        for role, register in roles:
            producer = self.rename[register]
            if producer is None:
                dyn.src_values[role] = self.spec_regs[register]
            elif producer.completed:
                dyn.src_values[role] = producer.result
                if producer.ready_cycle > dyn.operands_ready_cycle:
                    dyn.operands_ready_cycle = producer.ready_cycle
            else:
                producer.waiters.append((dyn, role))
                dyn.pending_sources += 1
        destination = dyn.dest
        if destination is not None:
            self.rename[destination] = dyn

    # ------------------------------------------------------ dataflow core

    def _complete_result(self, dyn: DynInstr, value: int, ready_cycle: int) -> None:
        """Mark a register-producing instruction complete and wake waiters."""
        worklist: list[tuple[DynInstr, int, int]] = [(dyn, value, ready_cycle)]
        while worklist:
            producer, result, ready = worklist.pop()
            producer.completed = True
            producer.result = result
            producer.ready_cycle = ready
            self.schedule_wake(ready)
            destination = producer.dest
            if destination is not None and self.rename[destination] is producer:
                self.spec_regs[destination] = result
            waiters, producer.waiters = producer.waiters, []
            for consumer, role in waiters:
                consumer.src_values[role] = result
                if ready > consumer.operands_ready_cycle:
                    consumer.operands_ready_cycle = ready
                consumer.pending_sources -= 1
                if consumer.pending_sources == 0:
                    completion = self._on_operands_ready(consumer)
                    if completion is not None:
                        worklist.append(completion)

    def _on_operands_ready(self, dyn: DynInstr):
        """Handle an instruction whose last operand just arrived.

        Returns a ``(dyn, value, ready_cycle)`` completion for ALU chains so
        the caller's worklist can continue propagation; memory and branch
        handling happens in place.
        """
        opcode = dyn.opcode
        if opcode is Opcode.ALU:
            instr = dyn.instr
            b = dyn.source_value("b") if instr.src2 is not None else instr.imm
            value = eval_alu(instr.alu_op, dyn.source_value("a"), b)
            return (dyn, value, dyn.operands_ready_cycle + self._alu_latency)
        if opcode in (Opcode.BEQZ, Opcode.BNEZ):
            self._resolve_branch(dyn)
            return None
        if dyn.is_memory:
            self._resolve_address(dyn)
            return None
        raise SimulationError(f"unexpected operand wait for {dyn!r}")

    def _execute_alu(self, dyn: DynInstr) -> None:
        instr = dyn.instr
        b = dyn.source_value("b") if instr.src2 is not None else instr.imm
        value = eval_alu(instr.alu_op, dyn.source_value("a"), b)
        self._complete_result(dyn, value,
                              dyn.operands_ready_cycle + self._alu_latency)

    def _resolve_branch(self, dyn: DynInstr) -> None:
        condition = dyn.source_value("cond")
        dyn.branch_taken = ((condition == 0) if dyn.opcode is Opcode.BEQZ
                            else (condition != 0))
        dyn.branch_resolved = True
        dyn.ready_cycle = dyn.operands_ready_cycle + 1
        self.schedule_wake(dyn.ready_cycle)

    def _resolve_address(self, dyn: DynInstr) -> None:
        instr = dyn.instr
        base = dyn.source_value("base") if instr.addr_base is not None else 0
        address = base + instr.addr_offset
        if address < 0 or address % 8:
            raise SimulationError(
                f"core {self.core_id}: bad address {address:#x} for {dyn!r} "
                f"(pc={dyn.pc}, note={instr.note!r})")
        dyn.addr = address
        dyn.addr_ready = True
        dyn.addr_ready_cycle = dyn.operands_ready_cycle + 1
        self._same_word.setdefault(address, []).append(dyn)
        self.schedule_wake(dyn.addr_ready_cycle)
        if dyn.opcode is Opcode.STORE:
            # Stores wait for retirement (write buffer); resolving the
            # address may unblock loads waiting on disambiguation.
            self._promote_disambiguated()
            return
        if dyn.opcode is Opcode.RMW:
            self._promote_disambiguated()
            self._pending_issue.append(dyn)
            return
        # LOAD: conservative disambiguation against older store addresses.
        if self._oldest_unresolved_store_seq() > dyn.seq:
            self._admit_load(dyn)
        else:
            self._waiting_disambiguation.append(dyn)

    def _admit_load(self, dyn: DynInstr) -> None:
        dyn.depends_on = self._find_same_word_dependency(dyn)
        self._pending_issue.append(dyn)

    def _promote_disambiguated(self) -> None:
        if not self._waiting_disambiguation:
            return
        threshold = self._oldest_unresolved_store_seq()
        still_waiting = []
        promoted = []
        for load in self._waiting_disambiguation:
            if load.seq < threshold:
                promoted.append(load)
            else:
                still_waiting.append(load)
        self._waiting_disambiguation = still_waiting
        for load in sorted(promoted, key=lambda d: d.seq):
            self._admit_load(load)

    def _find_same_word_dependency(self, dyn: DynInstr) -> DynInstr | None:
        """Nearest older unperformed same-word access (for ordering or
        forwarding).  Older stores all have resolved addresses here."""
        best: DynInstr | None = None
        seq = dyn.seq
        for other in self._same_word.get(dyn.addr, ()):
            if other.seq < seq and (best is None or other.seq > best.seq):
                best = other
        return best
