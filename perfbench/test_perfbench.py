"""Self-tests of the benchmark's own logic: self time from nested spans, the
tail-percentile rule, failed-job counting, and tolerance of missing names.

Run with: python3 -m pytest perfbench -q
"""

import random
from pathlib import Path

import pytest

import checks
import metrics
import tracer
import workloads


def test_self_time_of_nested_spans():
    spans = [("cli.run", 0, 100, -1),
             ("euler.chi_taut", 10, 40, 0),
             ("surface.hrr_chi", 15, 25, 1),
             ("surface.hrr_chi", 50, 70, 0)]
    assert metrics.self_times(spans) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once():
    spans = [("a", 0, 100, -1), ("b", 10, 40, 0), ("c", 30, 60, 0),
             ("d", 90, 120, 0)]
    assert metrics.self_times(spans)[0] == 100 - 50 - 10


def test_layer_self_time_sums_over_spans():
    doc = {"names": ["cli.run", "euler.chi_taut", "surface.hrr_chi"],
           "spans": [[0, 0, 1_000_000, -1, None], [1, 100_000, 600_000, 0, 0],
                     [2, 200_000, 300_000, 1, 0], [2, 400_000, 500_000, 1, 0]],
           "counters": {}, "missing": [], "notes": []}
    found, _notes = metrics.layer_metrics(doc)
    assert found["cli.self_ms"] == pytest.approx(0.5)
    assert found["euler.self_ms"] == pytest.approx(0.3)
    assert found["surface.self_ms"] == pytest.approx(0.2)
    assert found["surface.hrr_chi_calls"] == 2
    assert found["trace.spans"] == 4


def test_missing_wrapped_name_makes_metric_absent():
    doc = {"names": [], "spans": [], "counters": {}, "notes": [],
           "missing": ["complexes.SparseRationalMatrix.rank"]}
    found, notes = metrics.layer_metrics(doc)
    assert "complexes.rank_ms" not in found and "complexes.rank_calls" not in found
    assert "complexes.build_ms" in found
    assert any("complexes.rank_ms absent" in n for n in notes)


def test_tracer_notes_a_missing_target(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "src"))
    monkeypatch.setitem(tracer.TARGETS, "surface", ["hrr_chi", "no_such_function"])
    monkeypatch.setitem(tracer.TARGETS, "cli", [])
    monkeypatch.setitem(tracer.TARGETS, "no_such_module", ["f"])
    rec = tracer.install()
    from tautchi import p2, surface
    surface.hrr_chi(surface.ChernCharacter.unit(p2()), p2())
    assert {"surface.no_such_function", "no_such_module.f"} <= set(rec.missing)
    assert [s[0] for s in rec.spans].count("surface.hrr_chi") == 1


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert metrics.tail(samples) == (90, 90.0, 100)
    value, pct, n = metrics.tail(list(range(11)))
    assert (value, n) == (0, 11) and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        metrics.tail(list(range(10)))


def _tiny_workload():
    wl = workloads.Workload({"jobs": []})
    wl.add("a", "scala", True, bundle="O", n=2)
    wl.add("b", "euler_two", True, bundles=["O"])
    wl.add("v", "verify_complexes", False, k_max=1)
    wl.pairs.append(("a", "b"))
    return wl


def _rows():
    return [{"id": "a", "kind": "scala", "value": "6", "terms": []},
            {"id": "b", "kind": "euler_two", "value": "6",
             "terms": [{"label": "P={1}", "coefficient": "1", "factors": ["2", "3"]}]},
            {"id": "v[exact k=1,l=1]", "kind": "verify_complexes", "value": "PASS",
             "terms": []}]


def test_clean_rows_pass_every_check():
    rows = _rows()
    expected = {r["id"]: r["value"] for r in rows}
    assert checks.failed_jobs(_tiny_workload(), 0, rows, expected) == {}


def test_corrupted_expected_value_fails_its_job():
    rows = _rows()
    expected = {r["id"]: r["value"] for r in rows}
    expected["b"] = "7"
    assert set(checks.failed_jobs(_tiny_workload(), 0, rows, expected)) == {"b"}


def test_fail_row_fails_its_job():
    rows = _rows()
    rows[2]["value"] = "FAIL (H={0: 1})"
    assert set(checks.failed_jobs(_tiny_workload(), 2, rows, None)) == set("abv")
    assert set(checks.failed_jobs(_tiny_workload(), 0, rows, None)) == {"v"}


def test_nonzero_exit_fails_every_job():
    failed = checks.failed_jobs(_tiny_workload(), 1, _rows(), None)
    assert set(failed) == {"a", "b", "v"}
    assert checks.failed_jobs(_tiny_workload(), 0, None, None).keys() == {"a", "b", "v"}


def test_value_checks_fail_their_jobs():
    rows = _rows()
    rows[1]["terms"][0]["factors"] = ["2", "4"]          # recombines to 8, not 6
    assert set(checks.failed_jobs(_tiny_workload(), 0, rows, None)) == {"b"}
    rows = _rows()
    rows[0]["value"] = rows[1]["value"] = "13/2"         # integral data, not an integer
    rows[1]["terms"][0]["factors"] = ["13/6", "3"]
    assert set(checks.failed_jobs(_tiny_workload(), 0, rows, None)) == {"a", "b"}
    rows = _rows()
    del rows[2]                                          # a job without a row
    assert set(checks.failed_jobs(_tiny_workload(), 0, rows, None)) == {"v"}


def test_identity_pair_disagreement_fails_both_jobs():
    wl = _tiny_workload()
    wl.integral.clear()
    rows = _rows()
    rows[0]["value"] = "5"
    assert set(checks.failed_jobs(wl, 0, rows, None)) == {"a", "b"}


def test_nonzero_term_share():
    rows = [{"terms": [{"coefficient": "1", "factors": ["2", "0"]},
                       {"coefficient": "-1", "factors": ["1/2"]}]}]
    assert checks.nonzero_term_share(rows) == 0.5
    assert checks.nonzero_term_share([{"terms": []}]) == 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_valid(name, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "src"))
    from tautchi import cli
    first, again, other = (workloads.WORKLOADS[name](s) for s in (3, 3, 4))
    assert first.doc == again.doc and first.doc != other.doc
    assert [job["id"] for job in first.doc["jobs"]] == first.jobs
    jf = cli.parse_job_file(first.doc)
    assert [job.id for job in jf.jobs] == first.jobs


def test_failed_share_over_processes():
    wl = _tiny_workload()
    expected = {r["id"]: r["value"] for r in _rows()}
    fail_row = _rows()
    fail_row[2]["value"] = "FAIL"
    outcomes = [checks.failed_jobs(wl, 0, _rows(), dict(expected, b="7")),
                checks.failed_jobs(wl, 0, fail_row, expected),
                checks.failed_jobs(wl, 1, _rows(), expected),
                checks.failed_jobs(wl, 0, _rows(), expected)]
    failed = sum(1 for bad in outcomes for job in wl.jobs if job in bad)
    assert failed / (len(outcomes) * len(wl.jobs)) == 5 / 12
