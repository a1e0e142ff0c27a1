"""`scripts/check_bench_result.py`, the CI check of a benchmark result line."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "check_bench_result", ROOT / "scripts" / "check_bench_result.py")
check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check)

PER_LAYER = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def line(correct=True, metrics=None):
    if metrics is None:
        metrics = {name: {"value": 0, "unit": "count"} for name in PER_LAYER}
    return json.dumps({"correct": correct, "attempted": 3, "failed": 0,
                       "metrics": metrics})


def test_complete_traced_result_passes():
    assert check.problems(line(), PER_LAYER) == []
    assert check.problems(line(metrics={}), None) == []


@pytest.mark.parametrize("bad, why", [
    (line(correct=False), "correct is False"),
    (line().replace('"value": 0', '"value": NaN', 1), "not strict JSON"),
    (line().replace('"value": 0', '"value": -Infinity', 1), "not strict JSON"),
    ("# a note, not a result", "not strict JSON"),
    ("", "not strict JSON"),
    ("[true]", "not a JSON object"),
])
def test_malformed_or_wrong_result_fails(bad, why):
    assert why in " ".join(check.problems(bad, PER_LAYER))


def test_absent_per_layer_metric_fails():
    metrics = json.loads(line())["metrics"]
    del metrics["surface.ch_tensor_calls"]
    assert check.problems(line(metrics=metrics), PER_LAYER) == [
        "per-layer metrics absent: surface.ch_tensor_calls"]
    assert check.problems(line(metrics=metrics), None) == []


def test_exit_status(tmp_path):
    out = tmp_path / "run.txt"
    out.write_text("# notes\n" + line() + "\n")
    assert check.main([str(out), "--per-layer"]) == 0
    out.write_text("# notes\n" + line(metrics={}) + "\n")
    assert check.main([str(out)]) == 0
    assert check.main([str(out), "--per-layer"]) == 1
