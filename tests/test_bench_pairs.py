"""The summary of `scripts/bench_pairs.py`, on hand-made result lines; no
benchmark process is started."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(correct=True, **values):
    return {"correct": correct, "attempted": 9, "failed": 0,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}


def test_inclusive_quartiles():
    assert bench_pairs.quartiles([1, 2, 3, 4, 5]) == {"q1": 2, "median": 3, "q3": 4}
    # the inclusive method interpolates between the order statistics
    assert bench_pairs.quartiles([1, 2, 3, 4]) == {"q1": 1.75, "median": 2.5,
                                                   "q3": 3.25}
    assert bench_pairs.quartiles([0.123456]) == {"q1": 0.1235, "median": 0.1235,
                                                 "q3": 0.1235}


def test_summary_counts_lower_change_pairs_and_ties_for_neither():
    pairs = [(result(wall_s=p), result(wall_s=c))
             for p, c in [(1.0, 0.5), (1.0, 1.0), (1.0, 2.0), (3.0, 0.1)]]
    entry = bench_pairs.summarize("big-sums", 1, pairs)
    assert entry["workload"] == "big-sums" and entry["seed"] == 1
    assert entry["pairs"] == 4 and entry["all_correct"] is True
    wall = entry["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["change_lower_pairs"] == 2
    assert wall["parent"] == bench_pairs.quartiles([1.0, 1.0, 1.0, 3.0])
    assert wall["change"] == bench_pairs.quartiles([0.5, 1.0, 2.0, 0.1])


def test_wall_per_setup_ratio_is_summarized_per_run():
    # the change is slower in wall_s on a host that ran it slower overall:
    # its ratio is the same as the parent's in the first pair and lower in
    # the second
    pairs = [(result(wall_s=0.5, setup_s=2.0), result(wall_s=0.75, setup_s=3.0)),
             (result(wall_s=0.5, setup_s=2.0), result(wall_s=0.75, setup_s=3.75)),
             (result(wall_s=1.0, setup_s=2.0), result(wall_s=0.25, setup_s=2.5))]
    entry = bench_pairs.summarize("small-batch", 1, pairs)
    ratio = entry["metrics"]["wall_s/setup_s"]
    assert ratio["unit"] == "ratio"
    assert ratio["parent"] == bench_pairs.quartiles([0.25, 0.25, 0.5])
    assert ratio["change"] == bench_pairs.quartiles([0.25, 0.2, 0.1])
    assert ratio["change_lower_pairs"] == 2
    assert entry["metrics"]["wall_s"]["change_lower_pairs"] == 1
    # without setup_s on both sides there is no ratio
    entry = bench_pairs.summarize("small-batch", 1, [(result(wall_s=1.0),
                                                      result(wall_s=0.5))])
    assert "wall_s/setup_s" not in entry["metrics"]


def test_summary_schema_matches_recorded_bench_files():
    recorded = json.loads((ROOT / "BENCH_16.json").read_text())["results"][0]
    pairs = [(result(wall_s=0.2, setup_s=0.1), result(wall_s=0.1, setup_s=0.1))] * 3
    entry = bench_pairs.summarize("small-batch", 1, pairs)
    assert entry.keys() == recorded.keys()
    assert (entry["metrics"]["wall_s"].keys()
            == recorded["metrics"]["wall_s"].keys())
    assert (entry["metrics"]["wall_s"]["parent"].keys()
            == recorded["metrics"]["wall_s"]["parent"].keys())


def test_summary_flags_an_incorrect_run_and_skips_metrics_one_side_lacks():
    pairs = [(result(wall_s=1.0, job_tail_ms=3.0), result(wall_s=0.9)),
             (result(wall_s=1.0, job_tail_ms=3.0),
              result(correct=False, wall_s=0.8, job_tail_ms=2.0))]
    entry = bench_pairs.summarize("small-batch", 1, pairs)
    assert entry["all_correct"] is False
    assert list(entry["metrics"]) == ["wall_s"]
    assert entry["metrics"]["wall_s"]["change_lower_pairs"] == 2


def test_workload_names_come_from_the_checkouts_perfbench():
    names = bench_pairs.workload_names(ROOT)
    assert names[:3] == ["small-batch", "big-sums", "verify-invariants"]
    assert "bench_pairs_workloads" not in sys.modules
