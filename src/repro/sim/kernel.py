"""Simulation kernels: how the global clock advances.

Two interchangeable kernels drive a configured machine:

``lockstep``
    The reference kernel.  Every cycle, the memory system ticks and every
    core steps; globally idle stretches (no component made progress) are
    fast-forwarded to the earliest scheduled wake-up.

``event``
    The event-driven kernel.  Cores report precise wake conditions as they
    stall (operand/branch/address/value ready cycles, memory performs), the
    bus reports its next commit cycle, and a wake queue advances the clock
    to the earliest runnable component — *skipping stalled cores
    individually*, not just globally idle cycles.

The event kernel is required to be **observationally invisible**: for any
program and configuration it produces the same cycle count, the same
recorder logs, the same memory image and the same metrics as ``lockstep``
(``tests/sim/test_kernel_differential.py`` asserts byte-identical
serialized results).  The correctness argument rests on a *quiescence*
invariant of :class:`~repro.cpu.core.Core`:

* A core whose ``step()`` reports no progress cannot make progress on any
  later cycle until either (a) one of the wake-up cycles it registered via
  ``schedule_wake`` arrives — every time-gated comparison inside the core
  (``ready_cycle``, ``addr_ready_cycle``, ``value_ready_cycle``) schedules
  its flip cycle — or (b) one of its own memory operations performs at a
  bus commit, which also schedules a wake (the perform-cycle wake in
  ``Core._complete_memory``: fences, write-buffer slots and MSHRs free up
  *at* the commit cycle).
* Remote activity cannot un-stall a skipped core: snoops only *remove*
  permissions, and MSHR merging is per-requester.

While a stalled core is skipped, the lockstep kernel would still have
stepped it every visited cycle, bumping the TRAQ dispatch-stall counters
if (and only if) the stall is a TRAQ-full stall — a frozen core takes the
identical dispatch path each cycle.  The event kernel measures that
increment (0 or 1) on each no-progress step and back-fills
``skipped_cycles * increment`` when the core next wakes, so the reported
stall statistics match lockstep exactly.
"""

from __future__ import annotations

import heapq
from functools import partial
from time import perf_counter

from ..common.errors import SimulationError

__all__ = ["DEADLOCK_WINDOW", "KERNELS", "WakeQueue", "CoreWakeQueue",
           "OccupancySampler", "run_lockstep", "run_event", "deadlock_report"]

# Abort if no component makes progress for this many consecutive cycles
# while wake-ups are still pending (a liveness bug in the model).
DEADLOCK_WINDOW = 1_000_000


def deadlock_report(program, cores, cycle: int) -> str:
    """Human-readable per-core pipeline snapshot for deadlock aborts."""
    lines = [f"no progress for {DEADLOCK_WINDOW} cycles at cycle {cycle} "
             f"in {program.name!r}:"]
    for core in cores:
        head = core.rob[0] if core.rob else None
        lines.append(
            f"  core {core.core_id}: pc={core.pc} halted={core.halted} "
            f"rob={len(core.rob)} head={head!r} wb={len(core.write_buffer)} "
            f"traq={len(core.traq)} retired={core.instructions_retired}")
    return "\n".join(lines)


class WakeQueue:
    """Deduplicated min-heap of global wake-up cycles (lockstep kernel).

    One shared ``push`` serves every core — the lockstep kernel only needs
    to know the earliest cycle *anything* might happen, not whose wake it
    is.  Duplicate cycles are dropped at push time.
    """

    __slots__ = ("_heap", "_queued")

    def __init__(self) -> None:
        self._heap: list[int] = []
        self._queued: set[int] = set()

    def push(self, cycle: int) -> None:
        if cycle not in self._queued:
            self._queued.add(cycle)
            heapq.heappush(self._heap, cycle)

    def next_after(self, cycle: int) -> int | None:
        """Earliest queued wake strictly after ``cycle`` (pruning the rest)."""
        heap = self._heap
        while heap and heap[0] <= cycle:
            self._queued.discard(heapq.heappop(heap))
        return heap[0] if heap else None


class CoreWakeQueue:
    """Per-core wake-up schedule (event kernel).

    Entries are ``(cycle, core_id)`` pairs, deduplicated so a core stalled
    on many operations completing at the same cycle is stepped once.
    """

    __slots__ = ("_heap", "_queued")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int]] = []
        self._queued: set[tuple[int, int]] = set()

    def wake(self, core_id: int, cycle: int) -> None:
        entry = (cycle, core_id)
        if entry not in self._queued:
            self._queued.add(entry)
            heapq.heappush(self._heap, entry)

    def wake_fn(self, core_id: int):
        """A core's ``schedule_wake`` callable (cycle -> wake)."""
        return partial(self.wake, core_id)

    def due(self, cycle: int) -> list[int]:
        """Pop and return (sorted, unique) ids of cores due at or before
        ``cycle``.  Entries before ``cycle`` are stale wakes registered for
        conditions that were already observed by an intervening step."""
        heap = self._heap
        if not heap or heap[0][0] > cycle:
            return []
        woken = set()
        while heap and heap[0][0] <= cycle:
            entry = heapq.heappop(heap)
            self._queued.discard(entry)
            woken.add(entry[1])
        return sorted(woken)

    def next_after(self, cycle: int) -> int | None:
        """Earliest queued wake cycle strictly after ``cycle``."""
        heap = self._heap
        while heap and heap[0][0] <= cycle:
            self._queued.discard(heapq.heappop(heap))
        return heap[0][0] if heap else None


class OccupancySampler:
    """Jump-aware TRAQ occupancy sampling, shared by both kernels.

    The reported statistics are defined by the lockstep reference: one
    occupancy observation per core per ``interval`` cycles, taken at the
    first *visited* cycle at or past each sample point.  When the clock
    jumps over ``k`` sample points, every skipped point would have observed
    the same (frozen) queue depth, so the batch folds in with
    ``add_repeat`` in O(1) instead of O(k) — both kernels route through
    this one entry point so their statistics stay bit-identical to each
    other.
    """

    __slots__ = ("traqs", "stats", "hists", "interval", "check_every",
                 "memsys", "next_sample")

    def __init__(self, traqs, stats, hists, interval: int,
                 check_every: int | None, memsys) -> None:
        self.traqs = traqs
        self.stats = stats
        self.hists = hists
        self.interval = interval
        self.check_every = check_every
        self.memsys = memsys
        self.next_sample = 0

    def catch_up(self, cycle: int) -> None:
        next_sample = self.next_sample
        if next_sample > cycle:
            return
        interval = self.interval
        k = (cycle - next_sample) // interval + 1
        stats = self.stats
        hists = self.hists
        for index, traq in enumerate(self.traqs):
            occupancy = len(traq)
            stats[index].add_repeat(occupancy, k)
            hists[index].add_repeat(occupancy, k)
        check_every = self.check_every
        if check_every is not None:
            # The lockstep reference checks after every sample-point bump;
            # the check is a read-only assertion, so one run covers a batch.
            for j in range(1, k + 1):
                if (next_sample + j * interval) % check_every < interval:
                    self.memsys.check_coherence_invariants()
                    break
        self.next_sample = next_sample + k * interval


def _profiled_step(prof, core, cycle: int) -> tuple[bool, int]:
    """Step one core under a profiler: back-fill the skipped-cycle gap,
    time the step, and attribute the cycle (busy, TRAQ-full via the
    dispatch-stall delta, or :meth:`~repro.cpu.core.Core.stall_reason`).
    Returns ``(stepped, traq_stall_delta)``."""
    core_id = core.core_id
    prof.note_gap(core_id, cycle)
    stalls_before = core.dispatch_stall_traq
    started = perf_counter()
    stepped = core.step(cycle)
    prof.host_core_s[core_id] += perf_counter() - started
    delta = core.dispatch_stall_traq - stalls_before
    if stepped:
        prof.note_busy(core_id, cycle)
    elif delta:
        prof.note_stall(core_id, cycle, "traq_full")
    else:
        prof.note_stall(core_id, cycle, core.stall_reason(cycle))
    return stepped, delta


def _profiled_lockstep_cycle(prof, cores, tick, catch_up, cycle: int) -> bool:
    """One lockstep cycle with host-time and cycle attribution attached."""
    prof.visited_cycles += 1
    started = perf_counter()
    progress = tick(cycle)
    prof.host_tick_s += perf_counter() - started
    for core in cores:
        stepped, _delta = _profiled_step(prof, core, cycle)
        progress |= stepped
    started = perf_counter()
    catch_up(cycle)
    prof.host_sampler_s += perf_counter() - started
    return progress


def run_lockstep(program, cores, memsys, sampler: OccupancySampler,
                 max_cycles: int, profiler=None) -> int:
    """Reference kernel: tick + step every core, every visited cycle."""
    wakes = WakeQueue()
    for core in cores:
        core.schedule_wake = wakes.push
    tick = memsys.tick
    next_commit = memsys.bus.next_commit_cycle
    steps = [core.step for core in cores]
    catch_up = sampler.catch_up
    prof = profiler

    cycle = 0
    last_progress_cycle = 0
    while True:
        if all(core.done for core in cores):
            break
        if cycle > max_cycles:
            raise SimulationError(
                f"exceeded max_cycles={max_cycles} running {program.name!r}")

        if prof is None:
            progress = tick(cycle)
            for step in steps:
                progress |= step(cycle)
            catch_up(cycle)
        else:
            progress = _profiled_lockstep_cycle(prof, cores, tick, catch_up,
                                                cycle)

        if progress:
            last_progress_cycle = cycle
            cycle += 1
            continue

        # Nothing happened: fast-forward to the next scheduled event.
        target = next_commit()
        wake = wakes.next_after(cycle)
        if wake is not None and (target is None or wake < target):
            target = wake
        if target is None or target <= cycle:
            if cycle - last_progress_cycle > DEADLOCK_WINDOW:
                raise SimulationError(deadlock_report(program, cores, cycle))
            cycle += 1
            continue
        cycle = target
    return cycle


def run_event(program, cores, memsys, sampler: OccupancySampler,
              max_cycles: int, profiler=None) -> int:
    """Event-driven kernel: step only cores that are due.

    Processes exactly the cycles lockstep visits (every progress cycle,
    the probe cycle after it, and every fast-forward target — the wake
    queue holds the same schedule_wake stream, so jump targets agree), but
    within each cycle steps only the cores that are due: cores that made
    progress last cycle plus cores with a wake at or before this cycle.

    An attached :class:`~repro.obs.profiler.KernelProfiler` observes every
    step (``profiler=None`` costs one identity check per phase); the
    skipped-cycle gaps it attributes reuse the same quiescence argument as
    the TRAQ stall back-fill above.
    """
    num_cores = len(cores)
    wakes = CoreWakeQueue()
    for core in cores:
        core.schedule_wake = wakes.wake_fn(core.core_id)
    tick = memsys.tick
    next_commit = memsys.bus.next_commit_cycle
    catch_up = sampler.catch_up
    prof = profiler

    # Stall-statistics parity bookkeeping: ``visited`` counts processed
    # cycles; ``stall_delta[c]`` is the TRAQ-stall increment core ``c``'s
    # last (no-progress) step produced, which lockstep would have repeated
    # on every visited cycle the event kernel skipped the core for.
    visited = 0
    last_step_visited = [0] * num_cores
    stall_delta = [0] * num_cores
    done = [False] * num_cores
    done_count = 0

    # Cores to step at the next processed cycle regardless of wakes: every
    # core starts runnable, and a core that made progress is probed on the
    # following cycle (exactly as lockstep would observe it).
    run_next = list(range(num_cores))

    cycle = 0
    last_progress_cycle = 0
    while True:
        if cycle > max_cycles:
            raise SimulationError(
                f"exceeded max_cycles={max_cycles} running {program.name!r}")
        visited += 1

        progress = False
        commit_at = next_commit()
        if commit_at is not None and commit_at <= cycle:
            # Tick before stepping (lockstep order): commits fire waiter
            # callbacks, which register perform wakes for this very cycle.
            if prof is None:
                progress = tick(cycle)
            else:
                started = perf_counter()
                progress = tick(cycle)
                prof.host_tick_s += perf_counter() - started

        due = wakes.due(cycle)
        if run_next:
            woken = sorted({*run_next, *due}) if due else run_next
            run_next = []
        else:
            woken = due

        for core_id in woken:
            core = cores[core_id]
            skipped = visited - last_step_visited[core_id] - 1
            if skipped:
                delta = stall_delta[core_id]
                if delta:
                    core.dispatch_stall_traq += skipped * delta
                    core.traq.stall_cycles += skipped * delta
            if prof is None:
                stalls_before = core.dispatch_stall_traq
                stepped = core.step(cycle)
                delta = core.dispatch_stall_traq - stalls_before
            else:
                stepped, delta = _profiled_step(prof, core, cycle)
            last_step_visited[core_id] = visited
            if stepped:
                progress = True
                stall_delta[core_id] = 0
                run_next.append(core_id)
            else:
                stall_delta[core_id] = delta
            if not done[core_id] and core.done:
                done[core_id] = True
                done_count += 1

        if prof is None:
            catch_up(cycle)
        else:
            prof.visited_cycles += 1
            started = perf_counter()
            catch_up(cycle)
            prof.host_sampler_s += perf_counter() - started

        if progress:
            last_progress_cycle = cycle
            if done_count == num_cores:
                # Lockstep breaks at the top of the next visited cycle.
                return cycle + 1
            cycle += 1
            continue

        if done_count == num_cores:  # pragma: no cover - defensive
            # The final done transition always happens on a progress cycle;
            # mirror lockstep's break cycle anyway should that ever change.
            target = next_commit()
            wake = wakes.next_after(cycle)
            if wake is not None and (target is None or wake < target):
                target = wake
            return target if target is not None and target > cycle else cycle + 1

        target = next_commit()
        wake = wakes.next_after(cycle)
        if wake is not None and (target is None or wake < target):
            target = wake
        if target is None or target <= cycle:
            # No future event at all.  Lockstep would probe cycle-by-cycle
            # until a guard fires; replay its guard order arithmetically:
            # the deadlock check runs in-branch at the current cycle, the
            # max_cycles check at the top of each later probe.
            if cycle - last_progress_cycle > DEADLOCK_WINDOW:
                raise SimulationError(deadlock_report(program, cores, cycle))
            deadlock_cycle = last_progress_cycle + DEADLOCK_WINDOW + 1
            if max_cycles + 1 <= deadlock_cycle:
                raise SimulationError(
                    f"exceeded max_cycles={max_cycles} running "
                    f"{program.name!r}")
            raise SimulationError(
                deadlock_report(program, cores, deadlock_cycle))
        cycle = target


KERNELS = {
    "event": run_event,
    "lockstep": run_lockstep,
}
