"""Smoke test of the regeneration benchmark at a tiny scale.

Usage (from the root of a checkout; about three minutes on two cores)::

    python3 regenbench/smoke.py

Runs ``BENCHMARK.json``'s command at ``--scale 0.01`` (litmus over a
two-value stagger axis) and checks that:

* every workload, untraced and traced, prints every metric
  ``BENCHMARK.json`` names, with its unit, and passes its output check;
* the output check fires on a corrupted reference digest and on a
  corrupted exact-count fingerprint;
* in a directory holding only ``BENCHMARK.json`` and ``regenbench/`` the
  benchmark exits non-zero without printing a result.

Exits 1 listing what failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCALE = "0.01"
STAGGERS = "0,480"


def bench(spec: dict, workload: str, trace: int, *, cwd: Path = ROOT,
          reference: Path | None = None) -> subprocess.CompletedProcess:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--scale", SCALE,
        "--litmus-staggers", STAGGERS]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    for workload in [entry["name"] for entry in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = bench(spec, workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}\n"
                                f"{done.stderr}")
                continue
            result = result_of(done)
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: output check failed\n"
                                f"{done.stderr}")
            want = {entry["name"]: entry["unit"] for entry in spec[group]}
            got = {name: entry["unit"]
                   for name, entry in result["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics {sorted(got.items())} "
                                f"!= {sorted(want.items())}")
            bad = [name for name, entry in result["metrics"].items()
                   if not isinstance(entry["value"], (int, float))]
            if bad:
                failures.append(f"{label}: non-numeric values {bad}")

    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=_work_dir()))
    try:
        corrupt = json.loads(json.dumps(reference))
        corrupt["sweep_sha256"][SCALE]["1"] = "0" * 64
        path = scratch / "digest.json"
        path.write_text(json.dumps(corrupt))
        result = result_of(bench(spec, "sweep_cold", 0, reference=path))
        if result["correct"] or not result["failed"]:
            failures.append("corrupted digest: output check did not fire")

        corrupt = json.loads(json.dumps(reference))
        corrupt["fingerprint"]["litmus"][STAGGERS]["sim.cycles"] += 1
        path = scratch / "fingerprint.json"
        path.write_text(json.dumps(corrupt))
        result = result_of(bench(spec, "litmus", 1, reference=path))
        if result["correct"] or not result["failed"]:
            failures.append("corrupted fingerprint: output check did not "
                            "fire")

        bare = scratch / "bare"
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = bench(spec, "sweep_cold", 0, cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            failures.append("without src/: expected a non-zero exit and no "
                            "result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failed")
    return 1 if failures else 0


def _work_dir() -> Path:
    path = ROOT / ".regenbench"
    path.mkdir(exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
