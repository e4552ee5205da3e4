"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sig-serve --seed 1 --seconds 30

Workloads (see README.md in this directory for why each exists):

* ``sig-serve`` — the signature index served over HTTP, closed loop of
  range, kNN and distance reads on two connections;
* ``hub-live`` — the hub-label index served over HTTP, open loop of
  reads at a fixed rate beside traffic-shaped edge writes.

The inputs come from ``--seed``.  Every answer is checked; a wrong one
makes the run exit 1.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` where ``metrics``
holds every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``), each as ``{"value", "unit"}``.  A table above it gives
each metric with its sample count.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import common


class Report:
    """Operations attempted and failed, and every wrong answer seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong_answers: list[str] = []
        self.invalid_reasons: list[str] = []
        self.notes: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self) -> None:
        self.attempted += 1
        self.failed += 1

    def wrong(self, note: str) -> None:
        self.wrong_answers.append(note)

    def invalid(self, reason: str) -> None:
        self.invalid_reasons.append(reason)

    def note(self, text: str) -> None:
        self.notes.append(text)


def run_workload(name: str, seed: int, seconds: float, trace: bool, report):
    import served

    workload = served.sig_serve if name == "sig-serve" else served.hub_live
    return asyncio.run(workload(seed, seconds, trace, report))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sig-serve", "hub-live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.import_repro()
    from metrics import END_TO_END, PER_LAYER

    report = Report()
    try:
        e2e, layers, lines = run_workload(args.workload, args.seed,
                                          args.seconds, bool(args.trace),
                                          report)
    except common.TooFewSamples as exc:
        print(f"error: --seconds {args.seconds:g} is too short: {exc}",
              file=sys.stderr)
        return 2
    e2e.put("ok_share", 1.0 - report.failed / report.attempted,
            report.attempted)

    for line in report.notes + lines:
        print(line)
    shown = [("end-to-end", END_TO_END, e2e)]
    if args.trace:
        shown.append(("per-layer", PER_LAYER, layers))
    for title, units, values in shown:
        print(f"{title} metrics ({args.workload}, seed {args.seed}):")
        for name, unit in units.items():
            value, samples = values[name]
            print(f"  {name:34} {value:14.6g} {unit:9} n={samples}")
    for note in report.wrong_answers[:20]:
        print(f"WRONG ANSWER: {note}")
    for reason in report.invalid_reasons:
        print(f"INVALID RUN: {reason}")
    if report.invalid_reasons:
        return 2
    units, values = (PER_LAYER, layers) if args.trace else (END_TO_END, e2e)
    correct = not report.wrong_answers
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": values[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
