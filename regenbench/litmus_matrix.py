"""The harness's litmus matrix over a thinned stagger axis.

``python -m repro.harness --experiments litmus`` runs every litmus test
under SC, TSO and RC over the full 10 x 10 start-up stagger grid: 2400
``Machine.run`` calls, about 90 s on one core.  That is too long for one
benchmark pass, so this entry point runs the same matrix through the
same public calls (``run_litmus`` per test and model, ``render_all``
for the table) over every fourth stagger value, 0/200/1000 cycles: 9
combinations per test and model, 216 runs.  The observed outcome sets,
and so the rendered table, are byte-identical to the full matrix's.

Usage::

    PYTHONPATH=src python3 regenbench/litmus_matrix.py [--staggers 0,200,1000]

It prints the rendered litmus table on stdout; ``main`` is also called
in-process by the traced run.
"""

from __future__ import annotations

import argparse
import sys

#: Every fourth value of the harness's stagger axis.
STAGGERS = (0, 200, 1000)


def litmus_matrix(staggers) -> dict:
    """Same shape as the harness's ``litmus`` experiment result."""
    from repro.common.config import ConsistencyModel
    from repro.workloads.litmus import LITMUS_TESTS, run_litmus

    out = {}
    for name, test in LITMUS_TESTS.items():
        out[name] = {}
        for model in ConsistencyModel:
            result = run_litmus(test, model, stagger_axis=staggers)
            out[name][model.value] = {
                "observed": sorted(result.observed),
                "violations": sorted(result.violations),
            }
    return out


def main(argv: list[str] | None = None) -> int:
    from repro.harness.report import render_all

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--staggers", default=",".join(map(str, STAGGERS)),
                        help="comma-separated start-up stagger cycles")
    args = parser.parse_args(argv)
    staggers = tuple(int(value) for value in args.staggers.split(","))
    print(render_all({"litmus": litmus_matrix(staggers)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
