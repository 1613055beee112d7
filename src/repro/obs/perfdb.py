"""Continuous performance observatory: bench history + regression report.

``repro.tools bench`` measures the simulation kernels and — beyond the
latest-snapshot ``BENCH_kernel.json`` — appends one :class:`PerfRecord`
per (workload, config, optimized kernel) to an append-only JSONL history
file (``BENCH_history.jsonl``).  Each record carries the config content
hash, the git revision, wall time, simulated cycles per second and that
kernel's speedup over the lockstep reference, so the history is
comparable across machines, checkouts and time.

``repro.tools perf-report`` reads that history and compares the newest
record of every (workload, config-hash) series against a *rolling
baseline* — the median of the preceding ``window`` records — with a
relative ``tolerance``.  CI gates on the report: a throughput or speedup
drop beyond tolerance fails loudly instead of silently eroding the
snapshot file.  An optional absolute ``floor_speedup`` keeps the old
hard-threshold guarantee meaningful even while the history is too short
to form a baseline.

Corrupt history lines (torn writes, merge damage) are skipped and
counted, never fatal — the observatory must keep working on a damaged
file.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..common.hashing import stable_digest

__all__ = ["PERFDB_SCHEMA", "PerfRecord", "RegressionCheck", "PerfReport",
           "append_records", "load_history", "git_revision",
           "records_from_bench_report", "regression_report"]

#: Bumped when the history-record layout changes; older records are
#: skipped (not errors) so histories survive schema evolution.
PERFDB_SCHEMA = 1

#: Rolling-baseline defaults shared by the CLI and CI.
DEFAULT_TOLERANCE = 0.25
DEFAULT_WINDOW = 5


@dataclass(frozen=True)
class PerfRecord:
    """One benchmarked (workload, config) point in the history."""

    schema: int
    timestamp: float
    git_rev: str
    config_hash: str
    workload: str
    cycles: int
    instructions: int
    wall_s: float
    sim_cycles_per_s: float
    speedup: float
    kernel: str = "event"

    def to_dict(self) -> dict:
        """JSONL line payload."""
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "PerfRecord":
        """Rebuild one history line; raises on missing/mistyped fields."""
        record = PerfRecord(
            schema=int(data["schema"]),
            timestamp=float(data["timestamp"]),
            git_rev=str(data["git_rev"]),
            config_hash=str(data["config_hash"]),
            workload=str(data["workload"]),
            cycles=int(data["cycles"]),
            instructions=int(data["instructions"]),
            wall_s=float(data["wall_s"]),
            sim_cycles_per_s=float(data["sim_cycles_per_s"]),
            speedup=float(data["speedup"]),
            kernel=str(data.get("kernel", "event")),
        )
        if record.schema != PERFDB_SCHEMA:
            raise ValueError(f"history schema {record.schema}, "
                             f"expected {PERFDB_SCHEMA}")
        return record


def git_revision(cwd: str | None = None) -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, cwd=cwd,
                             timeout=10)
    except OSError:
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def append_records(path: str | Path, records) -> int:
    """Append ``records`` to the JSONL history; returns how many."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("a") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def load_history(path: str | Path) -> tuple[list[PerfRecord], int]:
    """Parse a history file; returns ``(records, skipped_lines)``.

    Undecodable or schema-mismatched lines are skipped and counted — a
    torn append or a bad merge must not take the observatory down.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    records: list[PerfRecord] = []
    skipped = 0
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(PerfRecord.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError):
            skipped += 1
    return records, skipped


def records_from_bench_report(report: dict, *, timestamp: float,
                              git_rev: str) -> list[PerfRecord]:
    """History records for one ``repro.tools bench`` report dict.

    One record per (workload, non-lockstep kernel): every optimized
    kernel gets its own history series, each carrying its speedup over
    the shared lockstep reference.
    """
    config_hash = stable_digest(report["config"])[:16]
    records = []
    for workload in sorted(report["workloads"]):
        entry = report["workloads"][workload]
        lockstep_wall = entry["kernels"]["lockstep"]["wall_s"]
        for kernel in sorted(entry["kernels"]):
            if kernel == "lockstep":
                continue
            data = entry["kernels"][kernel]
            speedup = entry.get("speedups", {}).get(
                kernel, round(lockstep_wall / data["wall_s"], 3))
            records.append(PerfRecord(
                schema=PERFDB_SCHEMA,
                timestamp=timestamp,
                git_rev=git_rev,
                config_hash=config_hash,
                workload=workload,
                cycles=entry["cycles"],
                instructions=entry["instructions"],
                wall_s=data["wall_s"],
                sim_cycles_per_s=data["sim_cycles_per_s"],
                speedup=speedup,
                kernel=kernel,
            ))
    return records


@dataclass(frozen=True)
class RegressionCheck:
    """One metric of one series compared against its rolling baseline."""

    workload: str
    config_hash: str
    metric: str
    latest: float
    baseline: float | None      # None: not enough history yet
    ratio: float | None         # latest / baseline
    regressed: bool
    note: str = ""
    kernel: str = "event"


@dataclass
class PerfReport:
    """The outcome of a regression scan over the whole history."""

    checks: list[RegressionCheck] = field(default_factory=list)
    skipped_lines: int = 0
    tolerance: float = DEFAULT_TOLERANCE
    window: int = DEFAULT_WINDOW
    floor_speedup: float | None = None

    @property
    def passed(self) -> bool:
        """True when no check regressed."""
        return not any(check.regressed for check in self.checks)

    @property
    def regressions(self) -> list[RegressionCheck]:
        """Only the failing checks."""
        return [check for check in self.checks if check.regressed]

    def render(self) -> str:
        """Human-readable report table."""
        lines = [f"perf report: {len(self.checks)} checks, "
                 f"tolerance {self.tolerance:.0%}, "
                 f"window {self.window}"
                 + (f", floor speedup {self.floor_speedup:.2f}x"
                    if self.floor_speedup is not None else "")]
        if self.skipped_lines:
            lines.append(f"  (skipped {self.skipped_lines} corrupt "
                         f"history lines)")
        for check in self.checks:
            status = "REGRESSED" if check.regressed else "ok"
            if check.baseline is None:
                detail = f"latest {check.latest:.4g} (no baseline yet)"
            else:
                detail = (f"latest {check.latest:.4g} vs baseline "
                          f"{check.baseline:.4g} "
                          f"({100.0 * (check.ratio - 1.0):+.1f}%)")
            note = f" [{check.note}]" if check.note else ""
            lines.append(f"  {status:>9}  {check.workload}"
                         f"@{check.config_hash[:8]}/{check.kernel} "
                         f"{check.metric}: {detail}{note}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def regression_report(records: list[PerfRecord], *,
                      tolerance: float = DEFAULT_TOLERANCE,
                      window: int = DEFAULT_WINDOW,
                      floor_speedup: float | None = None,
                      skipped_lines: int = 0) -> PerfReport:
    """Compare every series' newest record against its rolling baseline.

    A series is one (workload, config-hash, kernel) triple; records keep
    file (append) order.  The baseline of a metric is the median over up
    to ``window`` records preceding the newest one; a drop below
    ``baseline * (1 - tolerance)`` regresses.  The absolute
    ``floor_speedup`` (the old CI hard threshold) additionally applies to
    the newest record of each ``event`` series even with no baseline;
    series of other kernels, such as legacy history lines, get none.
    """
    report = PerfReport(tolerance=tolerance, window=window,
                        floor_speedup=floor_speedup,
                        skipped_lines=skipped_lines)
    series: dict[tuple[str, str, str], list[PerfRecord]] = {}
    for record in records:
        series.setdefault((record.workload, record.config_hash,
                           record.kernel), []).append(record)
    for (workload, config_hash, kernel) in sorted(series):
        history = series[(workload, config_hash, kernel)]
        latest = history[-1]
        baseline_window = history[-1 - window:-1]
        for metric in ("sim_cycles_per_s", "speedup"):
            latest_value = getattr(latest, metric)
            if baseline_window:
                baseline = _median([getattr(record, metric)
                                    for record in baseline_window])
                ratio = (latest_value / baseline) if baseline else None
                regressed = (baseline > 0
                             and latest_value < baseline * (1.0 - tolerance))
                note = ""
            else:
                baseline = ratio = None
                regressed = False
                note = "insufficient history"
            report.checks.append(RegressionCheck(
                workload=workload, config_hash=config_hash, metric=metric,
                latest=latest_value, baseline=baseline, ratio=ratio,
                regressed=regressed, note=note, kernel=kernel))
        if floor_speedup is not None and kernel == "event":
            report.checks.append(RegressionCheck(
                workload=workload, config_hash=config_hash,
                metric="speedup_floor", latest=latest.speedup,
                baseline=floor_speedup,
                ratio=(latest.speedup / floor_speedup
                       if floor_speedup else None),
                regressed=latest.speedup < floor_speedup,
                note=f"absolute floor {floor_speedup:.2f}x", kernel=kernel))
    return report
