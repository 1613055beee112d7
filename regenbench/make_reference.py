"""Record the reference digests and exact counts ``run.py`` checks against.

Usage (from the root of a checkout, on the commit whose outputs are the
reference)::

    python3 regenbench/make_reference.py --scale 0.05 --seeds 0-20 \\
        --fingerprint-seeds 1,2 [--staggers 0,120,480,1400]

For every seed it renders one cold sweep and stores the SHA-256 of the
tables (``sweep_sha256[scale][seed]``; ``sweep_cold`` and ``sweep_warm``
share it, since cold and warm output must be byte-identical).  It stores
the litmus table's digest for the stagger axis, and for each fingerprint
seed the exact counts of a traced ``sweep_cold``, ``sweep_warm`` and
``litmus`` run.  Entries are merged into ``regenbench/reference.json``.
Seed 1 is the development seed; seed 2 is held out from tuning.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seeds", default="1-2")
    parser.add_argument("--fingerprint-seeds", default="1,2")
    parser.add_argument("--staggers", default=None)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(run.SRC), str(run.BENCH_DIR)]
    from litmus_matrix import STAGGERS
    staggers = args.staggers or ",".join(map(str, STAGGERS))
    reference = (run.load_reference(run.REFERENCE)
                 if run.REFERENCE.exists() else {})
    for section in ("sweep_sha256", "litmus_sha256", "fingerprint"):
        reference.setdefault(section, {})
    reference.update(dev_seed=1, heldout_seed=2)
    scale = f"{args.scale:g}"
    # Digests are recorded from scratch: nothing to check against yet.
    blank = {"sweep_sha256": {}, "litmus_sha256": {}, "fingerprint": {}}

    run.WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK))
    try:
        for seed in seed_list(args.seeds):
            work = run.Workload("sweep_cold", seed, args.scale, staggers,
                                blank)
            pass_dir = run.fresh_dir(work_dir)
            ran = run.run_child(work.command(pass_dir), pass_dir,
                                time.monotonic() + run.RUN_DEADLINE_S)
            problems = work.check(ran.code, ran.stdout, ran.stderr, 0)
            if problems:
                raise SystemExit(f"seed {seed}: {problems}")
            reference["sweep_sha256"].setdefault(scale, {})[str(seed)] = (
                run.digest(ran.stdout))
            print(f"seed {seed}: {run.digest(ran.stdout)[:12]}",
                  file=sys.stderr)

        blank_path = work_dir / "blank.json"
        blank_path.write_text(json.dumps(blank))
        for name in run.WORKLOADS:
            seeds = (seed_list(args.fingerprint_seeds) if name != "litmus"
                     else [1])
            for seed in seeds:
                work = run.Workload(name, seed, args.scale, staggers, blank)
                counts = traced_counts(work, blank_path)
                workload, params = work.fingerprint_key()
                table = reference["fingerprint"].setdefault(
                    workload, {}).setdefault(params, {})
                if work.is_sweep:
                    table[str(seed)] = counts
                else:
                    table.update(counts)
                    reference["litmus_sha256"][staggers] = work_digest(
                        work, work_dir)
                print(f"{name} seed {seed}: {counts}", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(run.REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def traced_counts(work: "run.Workload", blank: Path) -> dict:
    """Exact counts of one ``--trace 1`` run, in a fresh process."""
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"),
           "--workload", work.name, "--seed", str(work.seed),
           "--seconds", "1", "--trace", "1", "--scale", f"{work.scale:g}",
           "--litmus-staggers", work.staggers, "--reference", str(blank)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{work.name} seed {work.seed}: {done.stderr}")
    return {name: result["metrics"][name]["value"]
            for name in run.SIMULATED_COUNTS + run.HOST_COUNTS}


def work_digest(work: "run.Workload", work_dir: Path) -> str:
    """Digest of one untraced run of ``work``'s command."""
    pass_dir = run.fresh_dir(work_dir)
    ran = run.run_child(work.command(pass_dir), pass_dir,
                        time.monotonic() + run.RUN_DEADLINE_S)
    if work.check(ran.code, ran.stdout, ran.stderr, None):
        raise SystemExit(f"{work.name}: {ran.stderr}")
    return run.digest(ran.stdout)


if __name__ == "__main__":
    sys.exit(main())
