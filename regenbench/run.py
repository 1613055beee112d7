"""Regeneration benchmark: the paper's figure sweep, cold and warm, and
the litmus matrix, driven as a closed loop from one process.

Usage (from the root of a checkout)::

    python3 regenbench/run.py --scale 0.05 --workload sweep_cold \\
        --seed 1 --seconds 32 --trace 0

Workloads (see ``regenbench/README.md`` for why each one exists):

``sweep_cold``
    ``python -m repro.harness`` with every experiment except ``litmus``,
    ``--jobs 2``, against an empty result cache: 60 recorded cells.
``sweep_warm``
    The same command against a cache that set-up filled with the code
    under test: 60 cache hits.
``litmus``
    The litmus matrix (8 tests x SC/TSO/RC) over a thinned stagger axis,
    ``regenbench/litmus_matrix.py``.

Each pass runs the command as a child process with a fresh cache
directory and a fresh ``REPRO_KERNEL_CACHE_DIR`` under ``.regenbench/``
(never ``.repro_cache/``), ``PYTHONHASHSEED=0``, ``REPRO_SCALE`` and
``REPRO_KERNEL_SALT`` unset and ``--log-level warning``.  Passes repeat
until about ``--seconds`` of pass time has been measured.

``--trace 0`` reports the end-to-end metrics as medians over the
passes (``sweep_warm``'s ``setup_s`` adds the cache fill).  ``--trace 1``
makes one untraced pass at ``--jobs 2``, one at ``--jobs 1`` and one
traced pass in this process with ``jobs=1`` (:mod:`layers`), and
reports the per-layer metrics; the spans go to ``.regenbench/traces/``
as Chrome trace JSON.

Every pass's output is checked: the exit code, the rendered tables
against the reference digests in ``regenbench/reference.json`` (where the
seed and scale have one), cold against warm output byte for byte, the
sweep summary's cell and hit counts and the litmus table's forbidden
column.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
error rate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".regenbench"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("sweep_cold", "sweep_warm", "litmus")

#: Every harness experiment except ``litmus``.
SWEEP_EXPERIMENTS = ("table1,fig1,fig9,fig10,fig11,fig12,fig13,fig14,"
                     "baselines,overhead,metrics")
#: Recorded cells of one sweep: 12 apps at 8 cores, fig14's 4- and
#: 16-core cells and the SC/TSO baseline cells.
SWEEP_CELLS = 60
#: Verified replays fig13 makes: 12 apps x 4 recorder variants.
SWEEP_REPLAYS = 48
JOBS = 2

#: Counts that must repeat exactly for a (workload, seed, scale): the
#: simulated statistics (drift is an output failure) and host-side
#: counts that a deliberate validation or cache-format change may move
#: (drift is reported on stderr).
SIMULATED_COUNTS = ("sim.instructions", "sim.cycles", "mem.bus_commits",
                    "recorder.log_bits", "replay.intervals")
HOST_COUNTS = ("isa.instructions_validated", "cache.mb")

#: A run must end within this many seconds; a hung pass is killed.
RUN_DEADLINE_S = 170.0

#: Settings that would change what the command computes.
UNSET_ENV = ("REPRO_SCALE", "REPRO_KERNEL_SALT")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


@dataclass
class Pass:
    """One child-process run of the command."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, operations: int, code: int, problems: list[str]) -> None:
        """Count one pass: ``operations`` plus its output check.  A non-zero
        exit fails every operation; a check failure fails the check."""
        self.attempted += operations + 1
        if code != 0:
            self.failed += operations + 1
        elif problems:
            self.failed += 1
        self.problems.extend(problems)


# ------------------------------------------------------------- set-up

def load_reference(path: Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def child_env(kernel_dir: Path) -> dict:
    env = {name: value for name, value in os.environ.items()
           if name not in UNSET_ENV}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               REPRO_KERNEL_CACHE_DIR=str(kernel_dir))
    return env


def fresh_dir(parent: Path) -> Path:
    """A fresh pass directory; the command creates ``cache`` in it."""
    path = Path(tempfile.mkdtemp(prefix="pass-", dir=parent))
    (path / "kernels").mkdir()
    return path


def preflight(pass_dir: Path, deadline: float) -> None:
    """Import the harness in the pass's environment, so bytecode is
    compiled before the pass is timed.  A tree that fails to import fails
    the pass itself."""
    run_child([sys.executable, "-c", "import repro.harness.__main__"],
              pass_dir, deadline)


def run_child(cmd: list[str], pass_dir: Path, deadline: float) -> Pass:
    """Run ``cmd`` to completion; wall, CPU and peak RSS from ``wait4``
    (children the command reaped, such as pool workers, included).  Past
    ``deadline`` the command's whole process group is killed."""
    out_path, err_path = pass_dir / "stdout", pass_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=pass_dir,
                                env=child_env(pass_dir / "kernels"),
                                start_new_session=True)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                                   os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:   # interrupted: take the command down too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Pass(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024, code=proc.returncode,
                stdout=out_path.read_text(), stderr=err_path.read_text())


# ------------------------------------------------------------ workloads

@dataclass
class Workload:
    """How to run and check one workload's command."""

    name: str
    seed: int
    scale: float
    staggers: str
    reference: dict

    @property
    def is_sweep(self) -> bool:
        return self.name != "litmus"

    @property
    def operations(self) -> int:
        if self.is_sweep:
            return SWEEP_CELLS + SWEEP_REPLAYS
        return 24 * len(self.staggers.split(",")) ** 2

    def args(self, cache_dir: Path, jobs: int) -> list[str]:
        """Arguments of the program's ``main``."""
        if not self.is_sweep:
            return ["--staggers", self.staggers]
        return ["--experiments", SWEEP_EXPERIMENTS,
                "--scale", f"{self.scale:g}", "--seed", str(self.seed),
                "--jobs", str(jobs), "--cache-dir", str(cache_dir),
                "--log-level", "warning"]

    def command(self, pass_dir: Path, jobs: int = JOBS) -> list[str]:
        program = (["-m", "repro.harness"] if self.is_sweep
                   else [str(BENCH_DIR / "litmus_matrix.py")])
        return [sys.executable, *program,
                *self.args(pass_dir / "cache", jobs)]

    def expected_digest(self) -> str | None:
        if self.is_sweep:
            return (self.reference["sweep_sha256"]
                    .get(f"{self.scale:g}", {}).get(str(self.seed)))
        return self.reference["litmus_sha256"].get(self.staggers)

    def fingerprint_key(self) -> tuple[str, str]:
        """(workload, parameters) under which the reference keeps its
        exact counts; the seed is the third key for the sweeps."""
        return (self.name,
                f"{self.scale:g}" if self.is_sweep else self.staggers)

    @property
    def expected_hits(self) -> int | None:
        """Cache hits the harness must report for a measured pass."""
        if not self.is_sweep:
            return None
        return SWEEP_CELLS if self.name == "sweep_warm" else 0

    def judge(self, tally: Tally, code: int, stdout: str, stderr: str,
              cache_hits: int | None) -> None:
        """Check one pass and count its operations in ``tally``."""
        tally.add(self.operations, code,
                  self.check(code, stdout, stderr, cache_hits))

    def check(self, code: int, stdout: str, stderr: str,
              cache_hits: int | None) -> list[str]:
        """Problems with one pass's output (empty when correct)."""
        if code != 0:
            tail = stderr.strip().splitlines()[-3:]
            return [f"exit {code}: {' | '.join(tail)}"]
        problems = []
        expected = self.expected_digest()
        if expected is not None and digest(stdout) != expected:
            problems.append(f"{self.name}: rendered tables differ from "
                            f"the reference digest")
        if self.is_sweep:
            summary = sweep_summary(stderr)
            if summary.get("shards total") != SWEEP_CELLS:
                problems.append(f"sweep covered {summary.get('shards total')}"
                                f" cells, expected {SWEEP_CELLS}")
            if cache_hits is not None and summary.get(
                    "cache hits") != cache_hits:
                problems.append(f"{summary.get('cache hits')} cache hits, "
                                f"expected {cache_hits}")
        else:
            rows = [line for line in stdout.splitlines()
                    if re.search(r"\s(SC|TSO|RC)\s", line)]
            if len(rows) != 24 or not all(row.rstrip().endswith("NONE")
                                          for row in rows):
                problems.append("litmus table: missing rows or a forbidden "
                                "outcome was observed")
        return problems


def sweep_summary(stderr: str) -> dict[str, int]:
    """Integer rows of the harness's ``Sweep summary`` table."""
    rows = {}
    for label in ("shards total", "cache hits"):
        match = re.search(rf"^\s*{label}\s+(\d+)\s*$", stderr, re.M)
        if match:
            rows[label] = int(match.group(1))
    return rows


def fill_cache(work: Workload, run_dir: Path, tally: Tally,
               outputs: list[str], deadline: float) -> Path:
    """Set-up for ``sweep_warm``: one cold pass with the code under test."""
    fill_dir = fresh_dir(run_dir)
    ran = run_child(work.command(fill_dir), fill_dir, deadline)
    work.judge(tally, ran.code, ran.stdout, ran.stderr, cache_hits=0)
    outputs.append(ran.stdout)
    return fill_dir / "cache"


def prepare_pass(work: Workload, run_dir: Path, filled: Path | None,
                 deadline: float) -> Path:
    pass_dir = fresh_dir(run_dir)
    if filled is not None:
        shutil.copytree(filled, pass_dir / "cache")
    preflight(pass_dir, deadline)
    return pass_dir


def same_outputs(outputs: list[str]) -> list[str]:
    """Cold and warm passes of one seed must render identical bytes."""
    if len(set(outputs)) > 1:
        return [f"{len(set(outputs))} different renderings across the "
                f"run's passes (cold vs warm or pass vs pass)"]
    return []


def measure(work: Workload, seconds: float, run_dir: Path,
            deadline: float) -> tuple[dict, Tally]:
    """``--trace 0``: repeat untraced passes for ``seconds``."""
    tally = Tally()
    outputs: list[str] = []
    one_time = 0.0
    filled = None
    if work.name == "sweep_warm":
        started = time.perf_counter()
        filled = fill_cache(work, run_dir, tally, outputs, deadline)
        one_time = time.perf_counter() - started
    setups, walls, rss = [], [], []
    # Start a pass while it is expected to end less than half a pass past
    # ``seconds``: runs last ``seconds`` on average, with no whole-pass
    # overshoot.
    while not walls or sum(walls) + statistics.median(walls) / 2 < seconds:
        started = time.perf_counter()
        pass_dir = prepare_pass(work, run_dir, filled, deadline)
        setups.append(time.perf_counter() - started)
        ran = run_child(work.command(pass_dir), pass_dir, deadline)
        walls.append(ran.wall_s)
        rss.append(ran.rss_mb)
        outputs.append(ran.stdout)
        work.judge(tally, ran.code, ran.stdout, ran.stderr,
                   work.expected_hits)
        shutil.rmtree(pass_dir)
    problems = same_outputs(outputs)
    if problems:
        tally.failed += 1
        tally.problems.extend(problems)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (one_time + statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    print(f"[regenbench] pass walls (s): "
          f"{' '.join(f'{wall:.3f}' for wall in walls)}", file=sys.stderr)
    return metrics, tally


# --------------------------------------------------------------- tracing

def in_process(work: Workload, pass_dir: Path) -> tuple[int, str, str,
                                                         float, object]:
    """The command, traced, in this process with ``jobs=1``.  The wall
    time includes importing the program, as a child pass's does."""
    from layers import LayerTracer

    tracer = LayerTracer()
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    tracer.install()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if work.is_sweep:
                from repro.harness.__main__ import main
            else:
                from litmus_matrix import main
            code = main(work.args(pass_dir / "cache", jobs=1))
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else 1
    except Exception:   # the pass fails; the benchmark reports it
        err.write(traceback.format_exc())
        code = 1
    finally:
        wall = time.perf_counter() - started
        tracer.uninstall()
    return code, out.getvalue(), err.getvalue(), wall, tracer


def cache_size(cache_dir: Path) -> tuple[float, float]:
    """(total MB, mean KB per entry) of the cache's entries, not counting
    each entry's ``meta`` (wall time and worker pid differ per write)."""
    sizes = []
    paths = sorted(cache_dir.rglob("*.json")) if cache_dir.is_dir() else []
    for path in paths:
        raw = path.read_bytes()
        try:
            meta = json.loads(raw).get("meta", {})
        except (ValueError, AttributeError):
            continue
        sizes.append(len(raw) - len(json.dumps(meta)))
    if not sizes:
        return 0.0, 0.0
    return sum(sizes) / 1e6, sum(sizes) / len(sizes) / 1e3


def trace(work: Workload, run_dir: Path, deadline: float,
          trace_path: Path) -> tuple[dict, Tally]:
    """``--trace 1``: untraced passes at ``--jobs 2`` and 1, then one traced
    pass in-process; per-layer metrics from the traced pass."""
    tally = Tally()
    outputs: list[str] = []
    filled = None
    if work.name == "sweep_warm":
        filled = fill_cache(work, run_dir, tally, outputs, deadline)

    walls = {}
    for jobs in ((JOBS, 1) if work.is_sweep else (JOBS,)):
        pass_dir = prepare_pass(work, run_dir, filled, deadline)
        ran = run_child(work.command(pass_dir, jobs), pass_dir, deadline)
        work.judge(tally, ran.code, ran.stdout, ran.stderr,
                   work.expected_hits)
        outputs.append(ran.stdout)
        walls[jobs] = ran.wall_s
        if jobs == JOBS:
            efficiency = ran.cpu_s / (JOBS * ran.wall_s)
        shutil.rmtree(pass_dir)

    pass_dir = prepare_pass(work, run_dir, filled, deadline)
    code, stdout, stderr, wall, tracer = in_process(work, pass_dir)
    work.judge(tally, code, stdout, stderr, work.expected_hits)
    outputs.append(stdout)
    problems = same_outputs(outputs)
    if problems:
        tally.failed += 1
        tally.problems.extend(problems)

    metrics = tracer.metrics()
    metrics["cache.mb"], metrics["cache.entry_kb"] = cache_size(
        pass_dir / "cache")
    metrics["sweep.parallel_efficiency"] = efficiency
    metrics["trace.overhead_frac"] = wall / walls.get(1, walls[JOBS]) - 1
    shutil.rmtree(pass_dir)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome_trace(trace_path)
    check_fingerprint(work, metrics, tally)
    return metrics, tally


def check_fingerprint(work: Workload, metrics: dict, tally: Tally) -> None:
    """Compare the exact counts with the reference for this seed, if any."""
    name, params = work.fingerprint_key()
    table = work.reference["fingerprint"].get(name, {}).get(params, {})
    expected = table.get(str(work.seed)) if work.is_sweep else table
    if not expected:
        return
    drift = {key: (expected[key], metrics[key]) for key in expected
             if expected[key] != metrics[key]}
    for key, (want, got) in sorted(drift.items()):
        print(f"[regenbench] fingerprint drift {key}: reference {want}, "
              f"measured {got}", file=sys.stderr)
    simulated = sorted(set(drift) & set(SIMULATED_COUNTS))
    if simulated:
        tally.failed += 1
        tally.attempted += 1
        tally.problems.append(f"simulated statistics changed: {simulated}")


# ------------------------------------------------------------------ main

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, required=True,
                        help="harness --scale of the figure sweeps")
    parser.add_argument("--litmus-staggers", default=None,
                        help="stagger axis of the litmus workload "
                             "(default: litmus_matrix.STAGGERS)")
    parser.add_argument("--reference", default=str(REFERENCE),
                        help="reference digests and counts (JSON)")
    return parser.parse_args(argv)


def pin_hash_seed(argv: list[str] | None) -> None:
    """The traced pass runs in this process: re-exec it with the same
    ``PYTHONHASHSEED`` the child passes get."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__]
                  + (sys.argv[1:] if argv is None else argv), env)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "harness" / "__main__.py").is_file():
        raise BenchError(f"no repro source tree at {SRC}")
    if args.trace:
        pin_hash_seed(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    from litmus_matrix import STAGGERS

    work = Workload(args.workload, args.seed, args.scale,
                    args.litmus_staggers or ",".join(map(str, STAGGERS)),
                    load_reference(Path(args.reference)))
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{work.name}-", dir=WORK))
    os.environ["REPRO_KERNEL_CACHE_DIR"] = str(run_dir / "kernels")
    try:
        if args.trace:
            raw, tally = trace(work, run_dir, deadline,
                               WORK / "traces" / f"{work.name}-seed"
                               f"{work.seed}.json")
            units = per_layer_units()
            metrics = {name: {"value": raw[name], "unit": unit}
                       for name, unit in units.items()}
        else:
            raw, tally = measure(work, args.seconds, run_dir, deadline)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in raw.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in tally.problems:
        print(f"[regenbench] FAILED {problem}", file=sys.stderr)
    print(f"[regenbench] {work.name} seed={work.seed} "
          f"error_rate={tally.failed / max(1, tally.attempted):g} "
          + " ".join(f"{name}={entry['value']:.6g}{entry['unit']}"
                     for name, entry in metrics.items()
                     if not args.trace),
          file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def per_layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as ``BENCHMARK.json`` lists them."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec["per_layer"]}


if __name__ == "__main__":
    # On SIGTERM unwind like on Ctrl-C: the running pass is killed and
    # the run's directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"regenbench: {error}", file=sys.stderr)
        sys.exit(2)
