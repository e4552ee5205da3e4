"""``benchmarks/bench_history.py``: each BENCH file is stamped and gated
by its own ``config.quick``, so quick and full-size runs never mix."""

from __future__ import annotations

import json

import pytest

from benchmarks import bench_history


def throughput_payload(*, quick: bool, paper_pages: float, qps: float):
    return {
        "config": {"num_nodes": 1200 if quick else 6000, "quick": quick},
        "queries": {
            "knn": {"scalar_pages": paper_pages, "vectorized_qps": qps},
        },
    }


def serve_payload(*, quick: bool, ratio: float):
    return {
        "config": {"quick": quick},
        "speedups": {"coalesced_vs_single_request": ratio},
    }


@pytest.fixture
def mixed_run(tmp_path):
    """A full-size throughput file next to a quick serve file, with a
    baseline and a same-host history that hold both sizes."""
    (tmp_path / "BENCH_throughput.json").write_text(json.dumps(
        throughput_payload(quick=False, paper_pages=4587.09, qps=40.0)
    ))
    (tmp_path / "BENCH_serve.json").write_text(json.dumps(
        serve_payload(quick=True, ratio=2.3)
    ))
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "schema": 1,
        "quick": {
            "throughput": {"pages": {"knn_paper_pages": 1649.04}},
            "serve": {"ratio": {"coalesced_vs_single_request": 2.289}},
        },
        "full": {
            "throughput": {"pages": {"knn_paper_pages": 4587.09}},
            "serve": {"ratio": {"coalesced_vs_single_request": 3.982}},
        },
    }))
    history = tmp_path / "history.jsonl"
    bench_history.append_history(
        [
            bench_history.history_entry(
                "throughput",
                throughput_payload(quick=True, paper_pages=1649.04, qps=400.0),
                host="box",
            ),
            bench_history.history_entry(
                "throughput",
                throughput_payload(quick=False, paper_pages=4587.09, qps=41.0),
                host="box",
            ),
        ],
        history,
    )
    return tmp_path, baseline, history


def test_entries_are_stamped_from_each_file(mixed_run):
    root, _, history = mixed_run
    stamps = {
        bench: bench_history.history_entry(bench, payload)["quick"]
        for bench, payload in bench_history.load_bench_files(root).items()
    }
    assert stamps == {"serve": True, "throughput": False}
    recorded = [e["quick"] for e in bench_history.read_history(history)]
    assert recorded == [True, False]


def test_each_file_is_checked_against_its_own_size(mixed_run):
    root, baseline, history = mixed_run
    failures = bench_history.check(
        root=root, baseline_path=baseline, history_path=history, host="box"
    )
    # Mixed up, the full-size pages would be +178% over the quick
    # baseline, the full-size qps -90% under the quick history, and the
    # quick ratio -42% under the full baseline.
    assert failures == []


def test_a_regression_in_the_full_size_file_still_fails(mixed_run):
    root, baseline, history = mixed_run
    (root / "BENCH_throughput.json").write_text(json.dumps(
        throughput_payload(quick=False, paper_pages=6000.0, qps=40.0)
    ))
    failures = bench_history.check(
        root=root, baseline_path=baseline, history_path=history, host="box"
    )
    assert len(failures) == 1
    assert failures[0].startswith("throughput.knn_paper_pages")


def test_update_baseline_writes_each_file_to_its_section(mixed_run):
    root, baseline, _ = mixed_run
    written = bench_history.update_baseline(root=root, baseline_path=baseline)
    assert written["full"]["throughput"]["pages"] == {
        "knn_paper_pages": 4587.09
    }
    assert written["quick"]["serve"]["ratio"] == {
        "coalesced_vs_single_request": 2.3
    }


def test_a_file_without_config_quick_is_refused(mixed_run):
    root, baseline, history = mixed_run
    payload = throughput_payload(quick=False, paper_pages=4587.09, qps=40.0)
    del payload["config"]["quick"]
    (root / "BENCH_throughput.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="config.quick"):
        bench_history.check(
            root=root, baseline_path=baseline, history_path=history
        )
    with pytest.raises(ValueError, match="config.quick"):
        bench_history.history_entry("throughput", payload)
