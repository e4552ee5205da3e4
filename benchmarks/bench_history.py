"""Benchmark trajectory: record every BENCH_*.json run, gate regressions.

Every benchmark in this directory writes a machine-readable
``BENCH_<name>.json`` at the repo root.  This tool turns those one-shot
artifacts into a *trajectory* and a *gate*:

* ``record`` — extract a curated metric set from each BENCH file and
  append one schema'd JSON line per benchmark to
  ``benchmarks/results/bench_history.jsonl`` (host-stamped, so one
  history file can hold runs from many machines without mixing them);
* ``check`` — compare the current BENCH files against the committed
  baseline (``benchmarks/bench_baseline.json``) and the same-host
  history, exiting non-zero on regression;
* ``gate`` — ``check`` then ``record``: the CI entry point;
* ``update-baseline`` — rewrite the committed baseline from the current
  BENCH files (run after an intentional perf change, commit the result).

Three metric kinds, because they regress differently:

``pages``
    Page-access counts.  Deterministic for a given seed and config, so
    they are compared across machines against the committed baseline
    with a tight tolerance (default 15%) — the §6 evaluation currency,
    and the first thing an accidental algorithmic regression moves.
``ratio``
    Same-run speedups (coalesced vs single-request, vectorized vs
    scalar…).  Machine-normalized but timing-noisy, so they gate
    against the baseline with a loose tolerance (default 50%).
``qps``
    Absolute throughput.  Meaningless across machines, so it gates only
    against the median of previous *same-host* runs in the history file
    (default 15%); with no same-host history — e.g. a fresh CI runner —
    the check is skipped, not failed.
``cost_ratio``
    Same-run *cost* ratios (CH/hub build time over the signature build).
    Machine-normalized like ``ratio`` and gated with the same loose
    tolerance, but the regression direction is inverted: a build that
    quietly got more expensive moves the ratio *up*.

Baselines are keyed ``quick`` / ``full`` because ``--quick`` shrinks
every benchmark's problem size (different page counts by design).  Each
BENCH file says which it is in its own ``config.quick``; every command
reads that key per file (a file without it is refused), so one run can
mix quick and full-size files without stamping or gating them wrongly.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "bench_baseline.json"
HISTORY_PATH = Path(__file__).resolve().parent / "results" / "bench_history.jsonl"

SCHEMA_VERSION = 1

#: How many of the most recent same-host history entries the qps check
#: medians over.
QPS_WINDOW = 5

#: Metric extraction spec: bench name -> kind -> metric -> key path into
#: that bench's BENCH_<name>.json.  Paths that are missing in a given
#: file (older artifact, skipped section) are silently absent — the
#: check only gates metrics present on both sides.
METRIC_SPECS: dict[str, dict[str, dict[str, tuple[str, ...]]]] = {
    "throughput": {
        "pages": {
            "range_vectorized_pages": ("queries", "range", "vectorized_pages"),
            "knn_vectorized_pages": ("queries", "knn", "vectorized_pages"),
            "knn_paper_pages": ("queries", "knn", "scalar_pages"),
        },
        "ratio": {
            "range_speedup": ("queries", "range", "speedup"),
            "epsilon_join_speedup": ("queries", "epsilon_join", "speedup"),
        },
        "qps": {
            "range_vectorized_qps": ("queries", "range", "vectorized_qps"),
            "knn_vectorized_qps": ("queries", "knn", "vectorized_qps"),
        },
    },
    "serve": {
        "ratio": {
            "coalesced_vs_single_request": (
                "speedups", "coalesced_vs_single_request",
            ),
            "coalesced_vs_uncoalesced": (
                "speedups", "coalesced_vs_uncoalesced",
            ),
        },
        "qps": {
            "single_request_rps": ("runs", "single_request", "throughput_rps"),
            "coalesced_rps": ("runs", "coalesced", "throughput_rps"),
        },
    },
    "columnar": {
        "ratio": {
            "cold_start_speedup": ("cold_start", "speedup"),
        },
        "qps": {
            "columnar_qps": ("batch_throughput", "columnar_qps"),
        },
    },
    "scale": {
        "ratio": {
            "kernel_speedup": ("batch_kernel", "speedup"),
        },
        "qps": {
            "batch_join_qps": ("batch_kernel", "batch_qps"),
        },
    },
    "updates": {
        "ratio": {
            "ch_incremental_vs_rebuild": (
                "speedups", "ch_incremental_vs_rebuild",
            ),
            "hub_incremental_vs_rebuild": (
                "speedups", "hub_incremental_vs_rebuild",
            ),
        },
        "qps": {
            "signature_updates_per_s": (
                "signature_family", "signature", "updates_per_s",
            ),
            "ch_incremental_updates_per_s": (
                "hierarchy", "ch", "incremental_updates_per_s",
            ),
            "hub_incremental_updates_per_s": (
                "hierarchy", "hub", "incremental_updates_per_s",
            ),
        },
    },
    "backends": {
        "ratio": {
            "hub_vs_signature_distance": (
                "speedups", "hub_vs_signature_distance",
            ),
            "hub_vs_ch_distance": ("speedups", "hub_vs_ch_distance"),
        },
        "cost_ratio": {
            "ch_vs_signature_build": (
                "build_ratios", "ch_vs_signature_build",
            ),
            "hub_vs_signature_build": (
                "build_ratios", "hub_vs_signature_build",
            ),
        },
        "qps": {
            "signature_distance_qps": (
                "backends", "signature", "distance_qps",
            ),
            "ch_distance_qps": ("backends", "ch", "distance_qps"),
            "hub_distance_qps": ("backends", "hub", "distance_qps"),
        },
    },
}

#: Regression direction per kind: pages regress *up*, rates regress
#: *down*.
HIGHER_IS_WORSE = {
    "pages": True,
    "ratio": False,
    "qps": False,
    "cost_ratio": True,
}


def _dig(payload: dict, path: tuple[str, ...]):
    node = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def extract_metrics(bench: str, payload: dict) -> dict[str, dict[str, float]]:
    """The curated ``{kind: {metric: value}}`` slice of one BENCH file."""
    out: dict[str, dict[str, float]] = {}
    for kind, metrics in METRIC_SPECS.get(bench, {}).items():
        found = {}
        for name, path in metrics.items():
            value = _dig(payload, path)
            if value is not None:
                found[name] = float(value)
        if found:
            out[kind] = found
    return out


def load_bench_files(root: Path = REPO_ROOT) -> dict[str, dict]:
    """Every ``BENCH_<name>.json`` under ``root`` that we have a spec for."""
    found = {}
    for path in sorted(root.glob("BENCH_*.json")):
        bench = path.stem[len("BENCH_"):]
        if bench not in METRIC_SPECS:
            continue
        try:
            found[bench] = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"bench_history: skipping {path.name}: {exc}")
    return found


def is_quick(bench: str, payload: dict) -> bool:
    """The file's own ``config.quick``: whether a ``--quick`` run wrote it."""
    quick = payload.get("config", {}).get("quick")
    if not isinstance(quick, bool):
        raise ValueError(
            f"BENCH_{bench}.json has no boolean config.quick; rerun the "
            f"benchmark to regenerate it"
        )
    return quick


def history_entry(
    bench: str, payload: dict, *, host: str | None = None
) -> dict:
    """One history line: schema'd, host-stamped, metric-extracted."""
    return {
        "schema": SCHEMA_VERSION,
        "unix_ts": round(time.time(), 3),
        "host": host or socket.gethostname(),
        "bench": bench,
        "quick": is_quick(bench, payload),
        "config": payload.get("config", {}),
        "metrics": extract_metrics(bench, payload),
    }


def append_history(entries: list[dict], path: Path = HISTORY_PATH) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, separators=(",", ":")) + "\n")


def read_history(path: Path = HISTORY_PATH) -> list[dict]:
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict) and entry.get("schema") == SCHEMA_VERSION:
            entries.append(entry)
    return entries


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _is_regression(current: float, reference: float, kind: str, tol: float):
    """(regressed?, relative-change) against ``reference``."""
    if reference == 0:
        return False, 0.0
    change = (current - reference) / abs(reference)
    if HIGHER_IS_WORSE[kind]:
        return change > tol, change
    return change < -tol, change


def check(
    *,
    tolerance: float = 0.15,
    ratio_tolerance: float = 0.50,
    root: Path = REPO_ROOT,
    baseline_path: Path = BASELINE_PATH,
    history_path: Path = HISTORY_PATH,
    host: str | None = None,
) -> list[str]:
    """Compare current BENCH files to baseline + history; returns failures.

    Each file is compared with the baseline section and the history
    entries of its own size (``config.quick``).
    """
    host = host or socket.gethostname()
    baseline = {}
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
    history = [
        entry
        for entry in read_history(history_path)
        if entry.get("host") == host
    ]
    failures: list[str] = []
    checked = skipped = 0
    for bench, payload in load_bench_files(root).items():
        quick = is_quick(bench, payload)
        current = extract_metrics(bench, payload)
        bench_base = baseline.get("quick" if quick else "full", {}).get(
            bench, {}
        )
        same_host = [
            e
            for e in history
            if e.get("bench") == bench and bool(e.get("quick")) == quick
        ]
        for kind, metrics in current.items():
            for name, value in metrics.items():
                if kind == "qps":
                    window = [
                        e["metrics"][kind][name]
                        for e in same_host[-QPS_WINDOW:]
                        if name in e.get("metrics", {}).get(kind, {})
                    ]
                    if not window:
                        skipped += 1
                        continue
                    reference, source = _median(window), f"host median ({len(window)} runs)"
                    tol = tolerance
                else:
                    if name not in bench_base.get(kind, {}):
                        skipped += 1
                        continue
                    reference = float(bench_base[kind][name])
                    source = "baseline"
                    tol = tolerance if kind == "pages" else ratio_tolerance
                checked += 1
                regressed, change = _is_regression(value, reference, kind, tol)
                marker = "FAIL" if regressed else "ok"
                print(
                    f"bench_history: [{marker}] {bench}.{name} ({kind}) "
                    f"{value:g} vs {source} {reference:g} "
                    f"({change:+.1%}, tol {tol:.0%})"
                )
                if regressed:
                    failures.append(
                        f"{bench}.{name}: {value:g} regressed vs {source} "
                        f"{reference:g} ({change:+.1%} exceeds {tol:.0%})"
                    )
    print(
        f"bench_history: {checked} metrics checked, {skipped} skipped "
        f"(no reference), {len(failures)} regressions"
    )
    return failures


def update_baseline(
    *, root: Path = REPO_ROOT, baseline_path: Path = BASELINE_PATH
) -> dict:
    """Rewrite each current bench's entry in the committed baseline, in
    the ``quick``/``full`` section its own ``config.quick`` names."""
    existing = {}
    if baseline_path.exists():
        existing = json.loads(baseline_path.read_text())
    written = []
    for bench, payload in load_bench_files(root).items():
        mode = "quick" if is_quick(bench, payload) else "full"
        metrics = extract_metrics(bench, payload)
        # qps never goes in the baseline: absolute throughput is a
        # property of the machine, not the code.
        metrics.pop("qps", None)
        if metrics:
            existing.setdefault(mode, {})[bench] = metrics
            written.append(f"{mode}/{bench}")
    existing["schema"] = SCHEMA_VERSION
    baseline_path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    print(f"bench_history: wrote baseline for {sorted(written)}")
    return existing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "command",
        choices=("record", "check", "gate", "update-baseline"),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="relative regression tolerance for pages and qps (default 0.15)",
    )
    parser.add_argument(
        "--ratio-tolerance",
        type=float,
        default=0.50,
        help="relative tolerance for timing-ratio metrics (default 0.50)",
    )
    parser.add_argument(
        "--host", default=None, help="override the recorded hostname"
    )
    args = parser.parse_args(argv)

    try:
        if args.command == "update-baseline":
            update_baseline()
            return 0
        failures: list[str] = []
        if args.command in ("check", "gate"):
            failures = check(
                tolerance=args.tolerance,
                ratio_tolerance=args.ratio_tolerance,
                host=args.host,
            )
        if args.command in ("record", "gate"):
            entries = [
                history_entry(bench, payload, host=args.host)
                for bench, payload in load_bench_files().items()
            ]
            append_history(entries)
            print(
                f"bench_history: recorded {len(entries)} entries "
                f"to {HISTORY_PATH.relative_to(REPO_ROOT)}"
            )
    except ValueError as exc:
        print(f"bench_history: {exc}", file=sys.stderr)
        return 2
    if failures:
        for failure in failures:
            print(f"bench_history: REGRESSION {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
