"""Job file parsing, execution, output determinism, and exit codes."""

import ast
import dataclasses
import gc
import io
import itertools
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautchi import cli, complexes, euler, surface

REPO = Path(__file__).resolve().parents[1]


def write_jobs(tmp_path, doc, name="jobs.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {
    "surface": {"preset": "P2"},
    "bundles": [
        {"name": "O", "rank": 1, "c1": [0], "c2": 0},
        {"name": "O1", "rank": 1, "c1": [1], "c2": 0},
    ],
}


def test_scala_job_row(tmp_path, capsys):
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "j1", "kind": "scala", "bundle": "O1", "n": 2}]})
    assert cli.run(path) == 0
    out = capsys.readouterr().out
    line = [ln for ln in out.splitlines() if ln.startswith("j1")][0]
    assert line.split()[2] == "3"


def test_unknown_bundle_is_validation_error(tmp_path, capsys):
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "j9", "kind": "euler_two", "bundles": ["O", "E9"]}]})
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "E9" in err and "j9" in err


def test_parse_error_is_position_annotated(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"surface": {"preset": "P2"},\n  "jobs": [}')
    assert cli.run(str(path)) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


@pytest.mark.parametrize("text, key", [
    # a bundle's c1 given twice: json.load alone would run O(2) as A
    ('{"surface": {"preset": "P2"}, "bundles": [{"name": "A", "rank": 1, '
     '"c1": [1], "c1": [2]}], "jobs": [{"id": "a", "kind": "scala", '
     '"bundle": "A", "n": 2}]}', "c1"),
    ('{"surface": {"preset": "P2"}, "jobs": [], "jobs": []}', "jobs"),
    ('{"surface": {"preset": "P2"}, "jobs": [{"id": "s", "kind": "h0", '
     '"h0": [1], "n": 1, "n": 2}]}', "n"),
    ('{"surface": {"preset": "K3", "h_square": 2, "h_square": 4}, "jobs": []}',
     "h_square"),
])
def test_repeated_key_is_rejected(tmp_path, capsys, text, key):
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert cli.run(str(path)) == cli.EXIT_BAD_INPUT
    assert f"repeated key {key!r}" in capsys.readouterr().err
    with pytest.raises(cli.JobFileError, match=f"repeated key {key!r}"):
        json.loads(text, object_pairs_hook=cli.unique_keys)


def test_precondition_violation_names_job(tmp_path, capsys):
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "bad3", "kind": "euler_three", "bundles": ["O", "O", "O"], "n": 2}]})
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    assert "bad3" in capsys.readouterr().err


def test_noether_invalid_surface_rejected(tmp_path, capsys):
    doc = {"surface": {"name": "bad", "gram": [[1]], "canonical": [-1], "c2": 3},
           "bundles": [], "jobs": []}
    assert cli.run(write_jobs(tmp_path, doc)) == cli.EXIT_BAD_INPUT
    assert "divisible by 12" in capsys.readouterr().err


def test_runtime_error_gives_job_error_exit(tmp_path, capsys):
    # h2 table missing the diagonal subset {1, 2}: passes validation, fails at run
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "jt", "kind": "h_top", "k": 2, "n": 2,
         "h2": {"1": 1, "2": 1}, "q": 0}]})
    assert cli.run(path) == cli.EXIT_JOB_ERROR
    captured = capsys.readouterr()
    assert "jt" in captured.err
    assert "ERROR" in captured.out


MISSING_H2_ROWS = """[
  {
    "id": "t3",
    "kind": "h_top",
    "params": {},
    "terms": [],
    "value": "ERROR (missing top-cohomology value for subset {3})"
  },
  {
    "id": "t4",
    "kind": "h_top",
    "params": {},
    "terms": [],
    "value": "ERROR (missing top-cohomology value for subset {2,4})"
  }
]
"""


def test_h_top_missing_keys_error_rows(tmp_path, capsys):
    # the subset named is the first one absent in the order {k}, {k-1},
    # {k-1,k}, {k-2}, ... in which the weights are read
    out = tmp_path / "out.json"
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "t3", "kind": "h_top", "k": 3, "n": 2, "h2": {"1,2,3": 1}},
        {"id": "t4", "kind": "h_top", "k": 4, "n": 3, "q": 1,
         "h2": {"4": 1, "3": 2, "3,4": 0, "2": 5, "2,3": 1, "1,2,3,4": 2}}]})
    assert cli.run(path, out=str(out)) == cli.EXIT_JOB_ERROR
    assert out.read_text() == MISSING_H2_ROWS
    err = capsys.readouterr().err
    assert ("error: job 't4' failed: ValueError: missing top-cohomology value "
            "for subset {2,4}") in err


def test_h_top_keys_parsed_once(tmp_path, monkeypatch):
    keys = [",".join(map(str, s)) for r in range(1, 4)
            for s in itertools.combinations(range(1, 4), r)]
    jf = cli.parse_job_file({**BASE, "jobs": [
        {"id": "t", "kind": "h_top", "k": 3, "n": 2, "q": 1,
         "h2": dict.fromkeys(keys, 1)},
        {"id": "sw", "kind": "h_top", "k": 3, "q": 1, "sweep_n": [1, 3],
         "h2": dict.fromkeys(keys, 1)}]})
    assert jf.jobs[0].data == jf.jobs[1].data == {
        frozenset(map(int, key.split(","))): 1 for key in keys}

    def refuse(*args):
        raise AssertionError("an h2 key was parsed again at run time")

    monkeypatch.setattr(cli, "_parse_subset_key", refuse)
    values = [row.value for job in jf.jobs for row in cli.run_one_job(jf, job)]
    # every block value 1 and q = 1: the partitions of [3] into at most n
    # blocks, 1 + 3 at n = 2 and 1 + 3 + 1 at n = 3
    assert values == ["4", "1", "4", "5"]


def test_hand_built_job_objects_fail_loudly():
    jf = cli.parse_job_file({**BASE, "jobs": [
        {"id": "t", "kind": "h_top", "k": 1, "n": 1, "h2": {"1": 2}}]})
    # what validation parses has no default: a job built without it fails
    # at construction, and one with its h2 values left out fails at run time
    with pytest.raises(TypeError):
        cli.Job("t", "h_top", jf.jobs[0].payload)
    with pytest.raises(TypeError):
        cli.run_one_job(jf, dataclasses.replace(jf.jobs[0], data=None))
    # the integrality flags have no default that would turn the guard off
    with pytest.raises(TypeError):
        cli.JobFile(jf.surface, jf.bundles, jf.twist, jf.jobs)


INTEGRALITY_BUNDLES = [
    {"name": "O1", "rank": 1, "c1": [1], "c2": 0},
    {"name": "R", "ch": [2, [1], "1/2"]},            # c2 = (1 - 1)/2 = 0
    {"name": "Neg", "ch": [-1, [2], 5]},             # virtual, c2 = -3
    {"name": "HalfRank", "ch": ["1/2", [0], 0]},
    {"name": "HalfC1", "ch": [1, ["1/2"], 0]},
    {"name": "HalfC2", "rank": 1, "c1": [0], "c2": "1/2"},
    {"name": "OddCh2", "ch": [1, [0], "1/2"]},       # c2 = -1/2
]


def test_integral_bundles_flagged_once_at_parse(monkeypatch):
    calls = []
    flag = cli.ChernCharacter.is_integral_class
    monkeypatch.setattr(cli.ChernCharacter, "is_integral_class",
                        lambda ch, surface: calls.append(ch) or flag(ch, surface))
    jf = cli.parse_job_file({"surface": {"preset": "P2"}, "line_bundle": [1],
                             "bundles": INTEGRALITY_BUNDLES, "jobs": [
        {"id": f"s{i}", "kind": "scala", "bundle": b["name"], "n": 2}
        for i, b in enumerate(INTEGRALITY_BUNDLES)]})
    assert jf.integral == {"O1", "R", "Neg"}
    assert len(calls) == len(INTEGRALITY_BUNDLES)
    for job in jf.jobs:
        cli.run_one_job(jf, job)
    assert len(calls) == len(INTEGRALITY_BUNDLES)


def half(surface, ns, *args, **kwargs):
    return [Fraction(1, 2)] * len(ns)


def test_non_integral_value_of_integral_bundles_fails_the_row(tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.setattr(euler, "chi_taut", half)
    out = tmp_path / "out.json"
    path = write_jobs(tmp_path, {"surface": {"preset": "P2"}, "line_bundle": [1],
                                 "bundles": INTEGRALITY_BUNDLES, "jobs": [
        {"id": "whole", "kind": "scala", "bundle": "R", "n": 2},
        {"id": "virtual", "kind": "scala", "bundle": "Neg", "sweep_n": [1, 2]},
        {"id": "fractional", "kind": "scala", "bundle": "HalfC2", "n": 2}]})
    assert cli.run(path, out=str(out)) == cli.EXIT_JOB_ERROR
    rows = {row["id"]: row["value"] for row in json.loads(out.read_text())}
    cause = "value 1/2 is not an integer, but every input bundle is integral"
    assert rows == {"whole": f"ERROR ({cause})", "virtual": f"ERROR ({cause})",
                    "fractional": "1/2"}
    err = capsys.readouterr().err
    assert f"error: job 'whole' failed: ArithmeticError: {cause}" in err
    assert "'fractional'" not in err


@pytest.mark.parametrize("names", [["O1", "HalfRank"], ["HalfC1", "R"],
                                   ["OddCh2", "OddCh2"]])
def test_fractional_virtual_inputs_exempt_from_integrality(tmp_path, capsys,
                                                           monkeypatch, names):
    monkeypatch.setattr(euler, "chi_taut_product_two",
                        lambda *args: euler.ChiResult(
                            Fraction(1, 2), (euler.Term("t", Fraction(1, 2), ()),)))
    path = write_jobs(tmp_path, {"surface": {"preset": "P2"},
                                 "bundles": INTEGRALITY_BUNDLES, "jobs": [
        {"id": "two", "kind": "euler_two", "bundles": names}]})
    assert cli.run(path) == cli.EXIT_OK
    assert "1/2" in capsys.readouterr().out


def test_sweep_rows(tmp_path, capsys):
    doc = {"surface": {"preset": "K3"},
           "bundles": [{"name": "O", "rank": 1, "c1": [0], "c2": 0}],
           "jobs": [{"id": "sw", "kind": "scala", "bundle": "O",
                     "sweep_n": [1, 5]}]}
    assert cli.run(write_jobs(tmp_path, doc)) == 0
    out = capsys.readouterr().out
    values = [ln.split()[2] for ln in out.splitlines() if ln.startswith("sw[")]
    assert values == ["2", "4", "6", "8", "10"]


def test_reversed_sweep_rejected(tmp_path, capsys):
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "sw", "kind": "scala", "bundle": "O", "sweep_n": [5, 3]}]})
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "sw" in err and "reversed" in err


def test_single_point_sweep_gives_one_row(tmp_path, capsys):
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "sw", "kind": "scala", "bundle": "O", "sweep_n": [4, 4]}]})
    assert cli.run(path) == 0
    out = capsys.readouterr().out
    assert [ln.split()[0] for ln in out.splitlines() if ln.startswith("sw[")] == ["sw[n=4]"]


def test_euler_three_sweep_constant_on_plane(tmp_path, capsys):
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "t", "kind": "euler_three", "bundles": ["O", "O", "O"],
         "sweep_n": [3, 6]}]})
    assert cli.run(path) == 0
    out = capsys.readouterr().out
    values = [ln.split()[2] for ln in out.splitlines() if ln.startswith("t[")]
    assert values == ["1", "1", "1", "1"]


def test_machine_output_deterministic(tmp_path, capsys):
    doc = {**BASE, "jobs": [
        {"id": "a", "kind": "euler_two", "bundles": ["O1", "O1"]},
        {"id": "b", "kind": "scala", "bundle": "O", "n": 3},
    ]}
    path = write_jobs(tmp_path, doc)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert cli.run(path, out=str(out1)) == 0
    assert cli.run(path, out=str(out2)) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    rows = json.loads(out1.read_text())
    assert [r["id"] for r in rows] == ["a", "b"]
    assert rows[0]["terms"]
    # values round-trip through the exact string encoding
    from fractions import Fraction
    assert Fraction(rows[0]["value"]) == Fraction(9)


def test_sample_jobs_out_matches_golden(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert cli.run(str(REPO / "scripts" / "sample_jobs.json"), out=str(out)) == 0
    capsys.readouterr()
    assert out.read_bytes() == (REPO / "tests" / "data" / "sample_jobs.out.json").read_bytes()


def test_hom_pairs_out_matches_golden(tmp_path, capsys):
    # euler_bichar_two with k, khat in 1..5 on the rank-4 blow-up, with
    # fractional virtual, rank-0 and negative-rank classes
    out = tmp_path / "out.json"
    assert cli.run(str(REPO / "tests" / "data" / "hom_pairs.json"),
                   out=str(out)) == cli.EXIT_OK
    capsys.readouterr()
    assert out.read_bytes() == (REPO / "tests" / "data" / "hom_pairs.out.json").read_bytes()


def test_k0_out_matches_golden(tmp_path, capsys):
    # k0_invariants on P2 + P2 (block-diagonal Gram, chi(O) = 2): virtual,
    # rank-0 and negative-rank classes, 8 distinct classes, heavy repeats up
    # to 120 copies, and sweeps past k; recorded with the typed DP that the
    # decorated-block sum replaced
    out = tmp_path / "out.json"
    assert cli.run(str(REPO / "tests" / "data" / "k0.json"),
                   out=str(out)) == cli.EXIT_OK
    capsys.readouterr()
    assert out.read_bytes() == (REPO / "tests" / "data" / "k0.out.json").read_bytes()


def test_sweeps_out_matches_golden(tmp_path, capsys):
    # every sweepable kind, virtual inputs, a twist with chi(L) = -4, and a
    # sweep that fails at n = 2: one ERROR row, exit 1
    out = tmp_path / "out.json"
    assert cli.run(str(REPO / "tests" / "data" / "sweeps.json"),
                   out=str(out)) == cli.EXIT_JOB_ERROR
    assert ("error: job 'top-fails-at-2' failed: ValueError: missing "
            "top-cohomology value for subset {2}") in capsys.readouterr().err
    assert out.read_bytes() == (REPO / "tests" / "data" / "sweeps.out.json").read_bytes()


SWEEP_DOC = {
    "surface": {"preset": "P1xP1"},
    "bundles": [{"name": "A", "rank": 1, "c1": [2, -1], "c2": 0},
                {"name": "E", "rank": 2, "c1": [0, 1], "c2": 1},
                {"name": "V", "ch": ["1/3", ["-1/2", "1"], "2/5"]}],
    "line_bundle": [1, 2],
}
SWEPT = {
    "scala": ({"bundle": "V"}, 1),
    "euler_three": ({"bundles": ["A", "V", "A"]}, 3),
    "k0_invariants": ({"bundles": ["E", "V", "E", "A"]}, 1),
    "h_top": ({"k": 3, "q": 2, "h2": {"1": 1, "2": 0, "3": 2, "1,2": 3, "1,3": 1,
                                      "2,3": 4, "1,2,3": 2}}, 1),
    "h0": ({"h0": [2, 3]}, 2),
}


@pytest.mark.parametrize("kind", [name for name, kind in cli.KINDS.items()
                                  if kind.min_n is not None])
def test_sweep_rows_equal_the_single_n_rows(kind):
    fields, first = SWEPT[kind]
    ns = range(first, first + 7)
    jf = cli.parse_job_file({**SWEEP_DOC, "jobs": [
        {"id": "sw", "kind": kind, "sweep_n": [ns[0], ns[-1]], **fields},
        *({"id": f"sw[n={n}]", "kind": kind, "n": n, **fields} for n in ns)]})
    swept = cli.run_one_job(jf, jf.jobs[0])
    single = [row for job in jf.jobs[1:] for row in cli.run_one_job(jf, job)]
    assert [row.to_json() for row in swept] == [row.to_json() for row in single]
    assert [row.params["n"] for row in swept] == list(ns)


# One job of each kind that validation accepts on BASE.
VALID_JOBS = {
    "scala": {"bundle": "O1", "n": 2},
    "euler_two": {"bundles": ["O", "O1"]},
    "euler_bichar_two": {"source": ["O1"], "target": ["O", "O1"]},
    "euler_three": {"bundles": ["O", "O1", "O1"], "n": 3},
    "sym_power_two": {"bundle": "O1", "k": 2},
    "h_top": {"k": 1, "n": 1, "h2": {"1": 2}, "q": 1},
    "h0": {"h0": [2], "n": 1},
    "k0_invariants": {"bundles": ["O1", "O"], "n": 2},
    "verify_complexes": {"k_max": 1},
}


def test_every_kind_has_a_valid_job_that_runs():
    assert VALID_JOBS.keys() == cli.KINDS.keys()
    jf = cli.parse_job_file({**BASE, "jobs": [
        {"id": name, "kind": name, **fields} for name, fields in VALID_JOBS.items()]})
    for job in jf.jobs:
        assert cli.run_one_job(jf, job)


KEY_ERRORS = {
    "unknown-key": ({"colour": 1}, "'colour'"),
    "n-and-sweep_n": ({"n": 3, "sweep_n": [3, 4]}, "'n'"),
}


@pytest.mark.parametrize("extra,key", KEY_ERRORS.values(), ids=KEY_ERRORS.keys())
@pytest.mark.parametrize("kind", cli.KINDS)
def test_key_that_the_kind_does_not_read_is_rejected(tmp_path, capsys, kind,
                                                     extra, key):
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "j", "kind": kind, **VALID_JOBS[kind], **extra}]})
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "job 'j'" in err and key in err


SCALA_A = {"id": "s", "kind": "scala", "bundle": "A", "n": 2}
P2_A = {"surface": {"preset": "P2"},
        "bundles": [{"name": "A", "rank": 1, "c1": [1]}]}
# Keys that nothing read, each of which used to run without a word.
UNREAD_KEYS = {
    "bundle-c_1": ({**P2_A, "bundles": [{"name": "A", "rank": 1, "c_1": [1]}],
                    "jobs": [SCALA_A]}, "bundles[0]", "c_1"),
    "top-line_bundles": ({**P2_A, "line_bundles": [2], "jobs": [SCALA_A]},
                         "top level", "line_bundles"),
    "bundle-ch-and-c1": ({**P2_A, "bundles": [{"name": "A", "ch": [1, [1], "1/2"],
                                               "c1": [1]}],
                          "jobs": [SCALA_A]}, "bundles[0]", "c1"),
    "P2-h_square": ({**P2_A, "surface": {"preset": "P2", "h_square": 4},
                     "jobs": [SCALA_A]}, "surface", "h_square"),
    "euler_two-n": ({**P2_A, "jobs": [{"id": "e", "kind": "euler_two",
                                       "bundles": ["A", "A"], "n": 3}]},
                    "job 'e'", "n"),
    "sym_power_two-n": ({**P2_A, "jobs": [{"id": "y", "kind": "sym_power_two",
                                           "bundle": "A", "k": 2, "n": 5}]},
                        "job 'y'", "n"),
    "job-line_bundle": ({**P2_A, "jobs": [{**SCALA_A, "line_bundle": [1]}]},
                        "job 's'", "line_bundle"),
    "k0-sweep": ({**P2_A, "jobs": [{"id": "k", "kind": "k0_invariants",
                                    "bundles": ["A"], "n": 1, "sweep": [1, 4]}]},
                 "job 'k'", "sweep"),
}


@pytest.mark.parametrize("doc,where,key", UNREAD_KEYS.values(),
                         ids=UNREAD_KEYS.keys())
def test_unread_key_is_rejected(tmp_path, capsys, doc, where, key):
    # the repeated key of the same list is test_repeated_key_is_rejected
    assert cli.run(write_jobs(tmp_path, doc)) == cli.EXIT_BAD_INPUT
    assert f"{where}: key {key!r} is not allowed" in capsys.readouterr().err


def test_unknown_key_file_exits_bad_input(capsys):
    # the file the console-script check of the CI runs: c_1 for c1
    assert cli.run(str(REPO / "tests" / "data" / "unknown_key.json")) == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bundles[0]: key 'c_1' is not allowed" in captured.err


@pytest.mark.parametrize("name", ["scripts/sample_jobs.json",
                                  "tests/data/sweeps.json",
                                  "tests/data/hom_pairs.json",
                                  "tests/data/k0.json"])
def test_golden_job_files_are_accepted(name):
    with open(REPO / name, encoding="utf-8") as fh:
        doc = json.load(fh, object_pairs_hook=cli.unique_keys)
    jf = cli.parse_job_file(doc)
    assert [job.id for job in jf.jobs] == [job["id"] for job in doc["jobs"]]


def traced_euler_names():
    """The `euler` functions that `perfbench/tracer.py` wraps: its
    TARGETS["euler"], read from the file's literal without importing it."""
    tree = ast.parse((REPO / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    [targets] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    return ast.literal_eval(targets)["euler"]


@pytest.mark.parametrize("name", ["scripts/sample_jobs.json",
                                  "tests/data/sweeps.json"])
def test_every_formula_job_makes_one_traced_euler_call(monkeypatch, name):
    # The tracer charges a job's formula work to the euler layer only through
    # the functions it wraps; a job that reaches its formula by another name
    # has that work counted as cli self time.
    calls = []
    for target in traced_euler_names():
        def counted(*args, _fn=getattr(euler, target), **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(euler, target, counted)
    with open(REPO / name, encoding="utf-8") as fh:
        jf = cli.parse_job_file(json.load(fh, object_pairs_hook=cli.unique_keys))
    kinds = set()
    for job in jf.jobs:
        if job.kind == "verify_complexes":
            continue
        calls.clear()
        try:
            cli.run_one_job(jf, job)
        except ValueError:  # the sweep of sweeps.json that fails by design
            assert job.id == "top-fails-at-2"
        assert len(calls) == 1, (job.id, calls)
        kinds.add(job.kind)
    assert kinds >= {"scala", "euler_three", "h_top", "h0", "k0_invariants"}


@pytest.mark.parametrize("name", [["O1"], 3, None])
def test_bundle_name_that_is_not_a_string_is_rejected(tmp_path, capsys, name):
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "s", "kind": "scala", "bundle": name, "n": 2}]})
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    assert f"job 's': unknown bundle {name!r}" in capsys.readouterr().err


NOT_STRINGS = [7, {"a": 1}, ["s"], None, True, 1.5]


@pytest.mark.parametrize("value", NOT_STRINGS)
def test_job_id_that_is_not_a_string_is_rejected(tmp_path, capsys, value):
    # with str() coercion, ids "7" and 7 were duplicates
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "7", "kind": "scala", "bundle": "O", "n": 1},
        {"id": value, "kind": "scala", "bundle": "O", "n": 2}]})
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"jobs[1]: key 'id' must be a string, got {value!r}" in err
    assert "duplicate" not in err


@pytest.mark.parametrize("value", NOT_STRINGS)
def test_bundle_and_surface_names_that_are_not_strings_are_rejected(
        tmp_path, capsys, value):
    bundles = [{"name": value, "rank": 1, "c1": [1], "c2": 0}]
    path = write_jobs(tmp_path, {**BASE, "bundles": bundles, "jobs": []})
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    assert (f"bundles[0]: key 'name' must be a string, got {value!r}"
            in capsys.readouterr().err)
    surface = {"name": value, "gram": [[1]], "canonical": [-3], "c2": 3}
    path = write_jobs(tmp_path, {**BASE, "surface": surface, "jobs": []})
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    assert (f"surface: key 'name' must be a string, got {value!r}"
            in capsys.readouterr().err)


def test_readme_kind_table_matches_the_kinds():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    rows = {m.group(1): m.group(2).split(" | ")
            for m in re.finditer(r"^\| `(\w+)` \| (.*) \|$", text, re.M)
            if m.group(1) in cli.KINDS}
    assert rows.keys() == cli.KINDS.keys()
    for name, kind in cli.KINDS.items():
        keys, n_range = rows[name][:2]
        assert set(re.findall(r"`(\w+)`", keys)) == {*kind.one, *kind.many,
                                                     *kind.other}
        assert n_range.startswith("n ≥ ") == (kind.min_n is not None)


def test_ring_data_formed_once_per_job_file(monkeypatch):
    # the integer coordinates, the multiplier and the line-bundle test of
    # each input class and the forms chi(. L^j) of the twist are formed once
    # for the whole job file, however many jobs and rows read them
    coords, built, tests, forms = [], [], [], []
    scaled = surface.scaled_coords
    monkeypatch.setattr(surface, "scaled_coords",
                        lambda ch: coords.append(ch) or scaled(ch))
    init = surface.InputClass.__init__
    monkeypatch.setattr(surface.InputClass, "__init__",
                        lambda self, y, s: built.append(y) or init(self, y, s))
    line_bundle_test = surface.ChernCharacter._line_bundle_test
    monkeypatch.setattr(surface.ChernCharacter, "_line_bundle_test",
                        lambda ch, s: tests.append(ch) or line_bundle_test(ch, s))
    form = surface.chi_functional
    monkeypatch.setattr(surface, "chi_functional",
                        lambda y, s: forms.append(y) or form(y, s))
    jf = cli.parse_job_file({**SWEEP_DOC, "jobs": [
        {"id": "s", "kind": "scala", "bundle": "E", "sweep_n": [1, 4]},
        {"id": "t", "kind": "euler_three", "bundles": ["A", "E", "V"],
         "sweep_n": [3, 5]},
        {"id": "t2", "kind": "euler_three", "bundles": ["V", "V", "E"], "n": 4},
        {"id": "k", "kind": "k0_invariants", "bundles": ["A", "E", "A"],
         "sweep_n": [1, 3]},
        {"id": "p", "kind": "euler_two", "bundles": ["A", "V", "E"]},
        {"id": "y", "kind": "sym_power_two", "bundle": "A", "k": 3},
        {"id": "y2", "kind": "sym_power_two", "bundle": "A", "k": 2},
        {"id": "x", "kind": "scala", "bundle": "A", "n": 3}]})
    for job in jf.jobs:
        cli.run_one_job(jf, job)
    inputs = [*jf.bundles.values(), jf.twist]
    assert sorted(map(inputs.index, coords)) == [0, 1, 2, 3]
    assert sorted(map(inputs.index, built)) == [0, 1, 2, 3]
    # the twist at parse, the sym_power_two bundle at validation
    assert tests == [jf.twist, jf.bundles["A"]]
    twist = surface.input_class(jf.twist, jf.surface)
    powers = [twist.power(j) for j in (1, 2, 3)]
    assert [y for y in forms if y in powers] == powers


def test_run_freezes_the_job_file_and_restores_the_freeze_count(tmp_path, capsys,
                                                               monkeypatch):
    seen = []
    run_one_job = cli.run_one_job
    monkeypatch.setattr(cli, "run_one_job",
                        lambda jf, job: seen.append(gc.get_freeze_count())
                        or run_one_job(jf, job))
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "s", "kind": "scala", "bundle": "O1", "n": 2},
        {"id": "t", "kind": "h_top", "k": 2, "n": 2, "h2": {"1": 1}}]})
    before = gc.get_freeze_count()
    assert before == 0
    assert cli.run(path) == cli.EXIT_JOB_ERROR
    assert gc.get_freeze_count() == before
    assert len(seen) == 2 and all(count > 0 for count in seen)
    # objects a caller froze stay frozen
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert cli.run(path) == cli.EXIT_JOB_ERROR
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
    capsys.readouterr()


def written_json(value):
    buf = io.StringIO()
    cli.write_json(value, buf.write)
    return buf.getvalue()


@pytest.mark.parametrize("name", ["sample_jobs.out.json", "sweeps.out.json",
                                  "hom_pairs.out.json", "k0.out.json",
                                  "verify_k5.out.json", "verify_k8.out.json",
                                  "verify_k10.out.json"])
def test_writer_matches_json_dumps_on_golden_outputs(name):
    text = (REPO / "tests" / "data" / name).read_text(encoding="utf-8")
    rows = json.loads(text)
    assert written_json(rows) + "\n" == text
    assert written_json(rows) == json.dumps(rows, sort_keys=True, indent=2)


JSON_TEXT = st.text(st.characters(codec=None, exclude_categories=()))
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | JSON_TEXT | st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u2603",
                                               "\U0001f600", "\ud800", '"\\/']))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=25)
RESULT_ROWS = st.builds(
    cli.ResultRow, id=JSON_TEXT, kind=JSON_TEXT,
    params=st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=4), value=JSON_TEXT,
    terms=st.lists(st.fixed_dictionaries(
        {"label": JSON_TEXT, "coefficient": JSON_TEXT,
         "factors": st.lists(JSON_TEXT, max_size=3)}), max_size=3))


@settings(max_examples=100, deadline=None)
@given(st.lists(RESULT_ROWS, max_size=4), JSON_VALUES)
def test_writer_matches_json_dumps(rows, value):
    doc = [r.to_json() for r in rows]
    assert written_json(doc) == json.dumps(doc, sort_keys=True, indent=2)
    assert written_json(value) == json.dumps(value, sort_keys=True, indent=2)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=10 ** 4300, max_value=10 ** 5000), st.booleans())
def test_writer_matches_json_dumps_beyond_the_int_digit_limit(big, negative):
    value = {"value": -big if negative else big, "factors": [big, "x"]}
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert written_json(value) == json.dumps(value, sort_keys=True, indent=2)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


USAGE_ERRORS = {"unknown-flag": ["--bogus"], "missing-value": ["--jobs"],
                "threads": ["--jobs", "x.json", "--threads", "2"],
                "force-brute": ["--jobs", "x.json", "--force-brute-N"],
                "jobs-and-verify": ["--jobs", "x.json", "--verify", "k=2"]}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exits_bad_input(capsys, argv):
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    assert "usage" in capsys.readouterr().err


def test_rational_parsing():
    assert cli.parse_rational("3/4", "x") == 0.75
    assert cli.parse_rational(-2, "x") == -2
    with pytest.raises(cli.JobFileError):
        cli.parse_rational("3/0", "x")
    with pytest.raises(cli.JobFileError):
        cli.parse_rational(True, "x")
    with pytest.raises(cli.JobFileError):
        cli.parse_rational(0.5, "x")


def test_virtual_chern_bundle_input(tmp_path, capsys):
    doc = {"surface": {"preset": "P2"},
           "bundles": [{"name": "V", "ch": [-1, ["1/2"], "1/3"]},
                       {"name": "O", "rank": 1, "c1": [0], "c2": 0}],
           "jobs": [{"id": "v", "kind": "euler_two", "bundles": ["V", "O"]}]}
    assert cli.run(write_jobs(tmp_path, doc)) == 0
    out = capsys.readouterr().out
    assert [ln for ln in out.splitlines() if ln.startswith("v ")]


def test_verify_flag_small(capsys):
    assert cli.main(["--verify", "k=2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_job_exit_code(tmp_path, capsys):
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "vc", "kind": "verify_complexes", "k_max": 3}]})
    assert cli.run(path) == 0
    out = capsys.readouterr().out
    assert "vc[exact k=3,l=2]" in out


def test_main_requires_jobs_or_verify(capsys):
    assert cli.main([]) == cli.EXIT_BAD_INPUT
    assert cli.main(["--verify", "k=x"]) == cli.EXIT_BAD_INPUT


def stub_verification(monkeypatch):
    """Replace the suite by a recorder of its k_max; returns the record."""
    calls = []
    monkeypatch.setattr(cli, "run_verification",
                        lambda k_max, id_prefix: calls.append(k_max) or [])
    return calls


@pytest.mark.parametrize("spec", ["k=1_0", "k= 3 ", "k=03", "k=+3", "k=0", "3 "])
def test_noncanonical_verify_spec_rejected(monkeypatch, capsys, spec):
    calls = stub_verification(monkeypatch)
    assert cli.main(["--verify", spec]) == cli.EXIT_BAD_INPUT
    assert calls == []
    assert repr(spec) in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["k=10", "10"])
def test_canonical_verify_spec_accepted(monkeypatch, capsys, spec):
    calls = stub_verification(monkeypatch)
    assert cli.main(["--verify", spec]) == cli.EXIT_OK
    assert calls == [10]


@pytest.mark.parametrize("k", [5, 8])
def test_verify_out_matches_golden(tmp_path, capsys, k):
    out = tmp_path / "verify.json"
    assert cli.main(["--verify", f"k={k}", "--out", str(out)]) == cli.EXIT_OK
    table = capsys.readouterr().out
    golden = REPO / "tests" / "data" / f"verify_k{k}.out.json"
    assert out.read_bytes() == golden.read_bytes()
    # --verify k=K is the job file of one verify_complexes job
    path = write_jobs(tmp_path, {"surface": {"preset": "P2"}, "jobs": [
        {"id": "verify", "kind": "verify_complexes", "k_max": k}]})
    job_out = tmp_path / "job.json"
    assert cli.main(["--jobs", path, "--out", str(job_out)]) == cli.EXIT_OK
    assert capsys.readouterr().out == table
    assert job_out.read_bytes() == out.read_bytes()


def test_crash_inside_the_suite_is_an_error_row(monkeypatch, capsys):
    def crash(k, ell, values=2):
        raise RuntimeError("injected crash")

    monkeypatch.setattr(complexes, "build_complex", crash)
    assert cli.main(["--verify", "k=2"]) == cli.EXIT_JOB_ERROR
    captured = capsys.readouterr()
    assert "ERROR (injected crash)" in captured.out
    assert ("error: job 'verify' failed: RuntimeError: injected crash"
            in captured.err)


def test_verification_builds_each_complex_once(monkeypatch):
    # every value-free block R(k', ell), k' <= k_max, once; no full complex
    built = []
    build = complexes.build_complex
    monkeypatch.setattr(complexes, "build_complex", lambda k, ell, values=2:
                        built.append((k, ell, values)) or build(k, ell, values))
    rows = cli.run_verification(5, "verify")
    assert not failing_rows(rows) and len(rows) == 47
    assert sorted(built) == [(kk, ell, 1) for kk in range(0, 6) for ell in range(1, 6)]


def failing_rows(rows):
    return [(pos, row.id, row.value) for pos, row in enumerate(rows)
            if row.value != "PASS"]


def test_kernel_count_failure_keeps_its_row(monkeypatch):
    # a wrong rank of d^0 on the block R(3, 2) fails the kernel-count rows
    # of every k >= 3 with ell = 2, which read it (the twisted swap is +1 on
    # that block), and no exactness row, which reads the blocks' cohomology
    verify = complexes.verify_exactness

    def wrong_rank_at_3_2(cx):
        report = verify(cx)
        if (cx.k, cx.ell, cx.values) == (3, 2, 1):
            report.ranks[0] += 1
        return report

    monkeypatch.setattr(complexes, "verify_exactness", wrong_rank_at_3_2)
    rows = cli.run_verification(5, "verify")
    assert len(rows) == 47
    mismatch = "FAIL (swap-invariant kernel count mismatch at (k, ell) = "
    assert failing_rows(rows) == [
        (19, "verify[kernel-count k=3,l=2]",
         mismatch + "(3, 2): kernel 0, alternating sum 1, closed form 1)"),
        (22, "verify[kernel-count k=4,l=2]",
         mismatch + "(4, 2): kernel 0, alternating sum 4, closed form 4)"),
        (26, "verify[kernel-count k=5,l=2]",
         mismatch + "(5, 2): kernel 1, alternating sum 11, closed form 11)")]


def test_slot_invariant_failure_keeps_its_row(monkeypatch):
    # a wrong count on the block R(4, 2) in degree 1 fails the slot rows of
    # k = 4 and k = 5, whose degree-1 invariants at ell = 2 add it
    invariants = complexes.group_invariant_dim

    def one_at_4_2_1(cx, degree, group, slot_character="trivial"):
        if group == "slot" and (cx.k, cx.ell, cx.values, degree) == (4, 2, 1, 1):
            return 1
        return invariants(cx, degree, group, slot_character)

    monkeypatch.setattr(complexes, "group_invariant_dim", one_at_4_2_1)
    rows = cli.run_verification(5, "verify")
    assert len(rows) == 47
    assert failing_rows(rows) == [
        (45, "verify[slot-invariants k=4]", "FAIL (dim=1 at ell=2, i=1)"),
        (46, "verify[slot-invariants k=5]", "FAIL (dim=1 at ell=2, i=1)")]


def test_slot_invariant_error_is_a_fail_row(monkeypatch, capsys):
    # a trace that disagrees with the fixed-space rank fails its rows; the
    # suite goes on and --verify exits 2
    invariants = complexes.group_invariant_dim

    def mismatch_at_4_2_1(cx, degree, group, slot_character="trivial"):
        if group == "slot" and (cx.k, cx.ell, cx.values, degree) == (4, 2, 1, 1):
            raise ArithmeticError("injected trace mismatch")
        return invariants(cx, degree, group, slot_character)

    monkeypatch.setattr(complexes, "group_invariant_dim", mismatch_at_4_2_1)
    rows = cli.run_verification(5, "verify")
    assert len(rows) == 47
    assert failing_rows(rows) == [
        (45, "verify[slot-invariants k=4]",
         "FAIL (injected trace mismatch at ell=2, i=1)"),
        (46, "verify[slot-invariants k=5]",
         "FAIL (injected trace mismatch at ell=2, i=1)")]
    assert cli.main(["--verify", "k=5"]) == cli.EXIT_VERIFY_FAILED
    assert "FAIL (injected trace mismatch" in capsys.readouterr().out


def test_corrupted_differential_fails_its_exactness_row(monkeypatch, capsys):
    # one corrupt block R(3, 1) fails the exactness rows of every k >= 3
    # with ell = 1, which are built from it
    build = complexes.build_complex

    def corrupt_3_1(k, ell, values=2):
        cx = build(k, ell, values)
        if (k, ell, values) == (3, 1, 1):
            row = next(iter(cx.differentials[-1].rows.values()))
            row[next(iter(row))] *= 2
        return cx

    monkeypatch.setattr(complexes, "build_complex", corrupt_3_1)
    rows = cli.run_verification(5, "verify")
    assert len(rows) == 47
    square = "FAIL (d^(i+1) d^i != 0 at i=-1)"
    assert failing_rows(rows) == [(3, "verify[exact k=3,l=1]", square),
                                  (6, "verify[exact k=4,l=1]", square),
                                  (10, "verify[exact k=5,l=1]", square)]
    assert cli.main(["--verify", "k=3"]) == cli.EXIT_VERIFY_FAILED
    assert square in capsys.readouterr().out


def test_help_exits_ok(capsys):
    assert cli.main(["--help"]) == cli.EXIT_OK
    assert "--verify" in capsys.readouterr().out


def test_duplicate_ids_rejected(tmp_path, capsys):
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "d", "kind": "scala", "bundle": "O", "n": 1},
        {"id": "d", "kind": "scala", "bundle": "O", "n": 2}]})
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    assert "duplicate job id" in capsys.readouterr().err


def test_bad_preset_parameter_is_validation_error(tmp_path, capsys):
    doc = {"surface": {"preset": "K3", "h_square": "big"}, "bundles": [],
           "jobs": []}
    assert cli.run(write_jobs(tmp_path, doc)) == cli.EXIT_BAD_INPUT
    assert "surface" in capsys.readouterr().err


AMBIGUOUS_H2 = {
    "repeated": ({"1": 1, "2": 1, "1,2": 1, "1,1": 7}, "'1,1'"),
    "empty": ({"1": 1, "2": 1, "1,2": 1, "": 3}, "''"),
    "same-subset": ({"1": 1, "2": 1, "1,2": 1, "2,1": 5}, "'2,1'"),
    "space": ({" 1": 1, "2": 1, "1,2": 1}, "' 1'"),
    "sign": ({"1": 1, "+2": 1, "1,2": 1}, "'+2'"),
    "leading-zero": ({"1": 1, "2": 1, "01,2": 1}, "'01,2'"),
}


@pytest.mark.parametrize("h2,key", AMBIGUOUS_H2.values(), ids=AMBIGUOUS_H2.keys())
def test_ambiguous_h2_key_rejected(tmp_path, capsys, h2, key):
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "t", "kind": "h_top", "k": 2, "n": 2, "q": 0, "h2": h2}]})
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "'t'" in err and key in err


# The grammar h2 keys had when a regex checked them; the parser must keep
# exactly its accept/reject set and its error texts.
OLD_SUBSET_KEY = re.compile(r"[1-9][0-9]*(?:,[1-9][0-9]*)*")
SUBSET_KEY_TABLE = ["1", "3", "12", "1,3", "3,1", "1,2,3", "01", "+1", "-1",
                    " 1", "1 ", "1,", ",1", "1,,2", "1_0", "\u0663", "\u00b2",
                    "\uff11", "1.0", "0", "", ",", "1\n", "4", "1,4", "10",
                    "1,1", "2,3,2"]


@pytest.mark.parametrize("key", SUBSET_KEY_TABLE)
def test_subset_key_parser_matches_the_old_grammar(key):
    k = 3
    if not OLD_SUBSET_KEY.fullmatch(key):
        expect = (f"job 't': bad subset key {key!r} (expected comma-joined "
                  f"positive integers without signs, blanks or leading zeros)")
    else:
        parts = [int(x) for x in key.split(",")]
        if any(x < 1 or x > k for x in parts):
            expect = f"job 't': subset key {key!r} out of range 1..{k}"
        elif len(set(parts)) != len(parts):
            expect = f"job 't': subset key {key!r} repeats an element"
        else:
            assert cli._parse_subset_key("t", key, k) == frozenset(parts)
            return
    with pytest.raises(cli.JobFileError) as info:
        cli._parse_subset_key("t", key, k)
    assert str(info.value) == expect


def test_sym_power_k_bound(tmp_path, capsys):
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "s", "kind": "sym_power_two", "bundle": "O1", "k": 1001}]})
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    assert ("job 's': k = 1001 exceeds the sym_power_two budget k <= 1000"
            in capsys.readouterr().err)


@pytest.mark.parametrize("k", [13, 30])
def test_h_top_k_budget(tmp_path, capsys, k):
    # one key is a few bytes, and at n = 1 only the whole set is read, but
    # the budget is on k alone: from n = 2 the subset DP needs all 2^k - 1
    # keys and O(3^k) steps
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "t", "kind": "h_top", "k": k, "n": 1,
         "h2": {",".join(map(str, range(1, k + 1))): 1}}]})
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    assert (f"job 't': k = {k} exceeds the h_top budget k <= 12"
            in capsys.readouterr().err)


def test_h_top_at_the_budget_runs(tmp_path, capsys):
    # every block value 1 and q = 0: the count of set partitions of [12]
    # into exactly n = 2 blocks, S(12, 2) = 2^11 - 1
    k = cli.H_TOP_MAX_K
    keys = [",".join(map(str, s)) for r in range(1, k + 1)
            for s in itertools.combinations(range(1, k + 1), r)]
    out = tmp_path / "out.json"
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "t", "kind": "h_top", "k": k, "n": 2, "q": 0,
         "h2": dict.fromkeys(keys, 1)}]})
    assert cli.main(["--jobs", path, "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert json.loads(out.read_text())[0]["value"] == str(2 ** 11 - 1)


def k0_job_file(tmp_path, names, n):
    """A k0_invariants job over the line bundles O(j) named Lj, plus Dup,
    a second name for the class of O(0)."""
    classes = {f"L{j}": j for j in range(20)}
    classes["Dup"] = 0
    return write_jobs(tmp_path, {
        "surface": {"preset": "P2"},
        "bundles": [{"name": name, "rank": 1, "c1": [j], "c2": 0}
                    for name, j in classes.items()],
        "jobs": [{"id": "k", "kind": "k0_invariants", "bundles": names, "n": n}]})


@pytest.mark.parametrize("types", [13, 20])
def test_k0_invariants_distinct_class_budget(tmp_path, capsys, types):
    path = k0_job_file(tmp_path, [f"L{j}" for j in range(types)], 2)
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    assert (f"job 'k': {2 ** types} per-type monomials (the product of "
            f"multiplicity + 1 over {types} distinct bundle classes) exceed the "
            f"k0_invariants budget of 4096" in capsys.readouterr().err)


@pytest.mark.parametrize("names,states", [
    # 12 classes plus 8 more copies of O(1): 2^11 * 10 states
    ([f"L{j}" for j in range(12)] + ["L1"] * 8, 20480),
    # Dup is a second name for the class of L0: 12 classes, one of them twice
    ([f"L{j}" for j in range(12)] + ["Dup"], 6144),
    (["L0"] * 4096, 4097)])
def test_k0_invariants_repeated_classes_count_against_the_budget(
        tmp_path, capsys, names, states):
    classes = len(set(name.replace("Dup", "L0") for name in names))
    path = k0_job_file(tmp_path, names, 20)
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    assert (f"job 'k': {states} per-type monomials (the product of "
            f"multiplicity + 1 over {classes} distinct bundle classes)"
            in capsys.readouterr().err)


def test_k0_invariants_at_the_budget_runs(tmp_path, capsys):
    # 2^12 states: 12 distinct classes, or 10 classes and one class three
    # times (Dup is a second name for the class of L0)
    for names in ([f"L{j}" for j in range(12)],
                  [f"L{j}" for j in range(1, 11)] + ["L0", "Dup", "L0"]):
        out = tmp_path / "out.json"
        path = k0_job_file(tmp_path, names, 2)
        assert cli.main(["--jobs", path, "--out", str(out)]) == cli.EXIT_OK
        capsys.readouterr()
        jf = cli.parse_job_file(json.loads(Path(path).read_text()))
        [expect] = [r.value for r in euler.chi_product_invariants(
            jf.surface, range(2, 3), [jf.bundles[name] for name in names])]
        assert json.loads(out.read_text())[0]["value"] == cli.rational_to_str(expect)


K0_WORK_ROWS = [
    # (copies of each class, n, seconds in process on P2): the timings the
    # work budget k^2 min(n, k)^2 <= 10^10 was fitted to
    ([4095], 10, 0.21), ([4095], 25, 1.26), ([4095], 50, 5.1),
    ([1000], 50, 0.39), ([1000], 100, 1.87), ([1000], 200, 7.0),
    ([200], 200, 0.23), ([63, 63], 126, 1.15)]


@pytest.mark.parametrize("copies,n,seconds", K0_WORK_ROWS)
def test_k0_invariants_work_budget_bounds_n(tmp_path, copies, n, seconds):
    names = [name for j, m in enumerate(copies, 1) for name in [f"L{j}"] * m]
    doc = json.loads(Path(k0_job_file(tmp_path, names, n)).read_text())
    k = sum(copies)
    work = cli.k0_work(k, n)
    # the estimate is within a factor 1.5 of the measured time, except where
    # the polynomial product dominates (two classes at n = 126)
    if len(copies) == 1:
        assert 2 / 3 < 1.5e-10 * work / seconds < 1.5
    if work <= cli.K0_MAX_WORK:
        [job] = cli.parse_job_file(doc).jobs
        assert job.ns == range(n, n + 1)
        return
    with pytest.raises(cli.JobFileError) as exc:
        cli.parse_job_file(doc)
    assert str(exc.value) == (
        f"job 'k': an estimated {work} work units (k^2 min(n, k)^2 for "
        f"k = {k} bundles up to n = {n}) exceed the k0_invariants budget of "
        f"10000000000")


def test_k0_invariants_work_budget_reads_the_last_n_of_a_sweep(tmp_path):
    doc = json.loads(Path(k0_job_file(tmp_path, ["L1"] * 1000, 2)).read_text())
    doc["jobs"][0].pop("n")
    doc["jobs"][0]["sweep_n"] = [1, 100]
    cli.parse_job_file(doc)
    doc["jobs"][0]["sweep_n"] = [1, 101]
    with pytest.raises(cli.JobFileError, match="up to n = 101"):
        cli.parse_job_file(doc)


def test_k0_invariants_work_is_monotone_and_saturates_at_k():
    for k in range(1, 12):
        works = [cli.k0_work(k, n) for n in range(1, 15)]
        assert works == sorted(works)
        assert works[k - 1:] == [k ** 4] * (14 - k + 1)
        assert cli.k0_work(k + 1, 5) > cli.k0_work(k, 5)


def test_golden_k0_jobs_are_inside_the_work_budget():
    works = []
    for name in ("scripts/sample_jobs.json", "tests/data/sweeps.json",
                 "tests/data/k0.json"):
        jf = cli.parse_job_file(json.loads((REPO / name).read_text()))
        works += [cli.k0_work(len(job.payload["bundles"]), job.ns[-1])
                  for job in jf.jobs if job.kind == "k0_invariants"]
    assert max(works) == 57600 <= cli.K0_MAX_WORK


def test_k0_over_budget_file_exits_bad_input(capsys):
    # the file the console-script check of the CI runs: 4095 copies of O(1)
    # at n = 4095, inside the monomial budget and far beyond the work budget
    path = REPO / "tests" / "data" / "k0_over_budget.json"
    assert cli.run(str(path)) == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("job 'k0-4095': an estimated 281200199450625 work units "
            "(k^2 min(n, k)^2 for k = 4095 bundles up to n = 4095) exceed the "
            "k0_invariants budget of 10000000000") in captured.err


def test_verify_flag_budget(monkeypatch, capsys):
    calls = stub_verification(monkeypatch)
    assert cli.main(["--verify", "k=11"]) == cli.EXIT_BAD_INPUT
    assert calls == []
    assert ("k_max = 11 exceeds the verification budget k <= 10"
            in capsys.readouterr().err)
    assert cli.main(["--verify", f"k={cli.VERIFY_MAX_K}"]) == cli.EXIT_OK
    assert calls == [cli.VERIFY_MAX_K]


def test_verify_job_budget(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(cli, "run_verification",
                        lambda k_max, id_prefix: calls.append(k_max) or [])
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "vc", "kind": "verify_complexes", "k_max": 11}]})
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    assert calls == []
    assert ("job 'vc': k_max = 11 exceeds the verification budget k <= 10"
            in capsys.readouterr().err)
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "vc", "kind": "verify_complexes", "k_max": cli.VERIFY_MAX_K}]})
    assert cli.run(path) == cli.EXIT_OK
    assert calls == [cli.VERIFY_MAX_K]


def test_sym_power_beyond_the_brute_force_bound_runs(tmp_path):
    out = tmp_path / "out.json"
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "s", "kind": "sym_power_two", "bundle": "O1", "k": 8}]})
    assert cli.main(["--jobs", path, "--out", str(out)]) == cli.EXIT_OK
    value = Fraction(json.loads(out.read_text())[0]["value"])
    assert value.denominator == 1


def test_h0_job(tmp_path, capsys):
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "h", "kind": "h0", "h0": [2, 3], "n": 2}]})
    assert cli.run(path) == 0
    out = capsys.readouterr().out
    assert [ln for ln in out.splitlines() if ln.startswith("h ")][0].split()[2] == "6"


EXPLICIT_P2 = {"name": "plane", "gram": [[1]], "canonical": [-3], "c2": 3}


NON_INTEGER_FIELDS = [
    ("gram", {**BASE, "surface": {**EXPLICIT_P2, "gram": [[1.5]]}, "jobs": []}),
    ("canonical", {**BASE, "surface": {**EXPLICIT_P2, "canonical": [-3.0]},
                   "jobs": []}),
    ("c2", {**BASE, "surface": {**EXPLICIT_P2, "c2": 3.7}, "jobs": []}),
    ("h_square", {**BASE, "surface": {"preset": "K3", "h_square": 2.5},
                  "bundles": [], "jobs": []}),
    ("rank", {**BASE, "bundles": [{"name": "E", "rank": 1.9, "c1": [0]}],
              "jobs": []}),
    ("sweep_n", {**BASE, "jobs": [{"id": "s", "kind": "scala", "bundle": "O",
                                   "sweep_n": [True, 2]}]}),
    ("h2", {**BASE, "jobs": [{"id": "t", "kind": "h_top", "k": 1, "n": 1,
                              "h2": {"1": True}}]}),
    ("q", {**BASE, "jobs": [{"id": "t", "kind": "h_top", "k": 1, "n": 1,
                             "h2": {"1": 1}, "q": True}]}),
    ("h0", {**BASE, "jobs": [{"id": "g", "kind": "h0", "h0": [True, 2], "n": 2}]}),
]


@pytest.mark.parametrize("field,doc", NON_INTEGER_FIELDS,
                         ids=[f for f, _ in NON_INTEGER_FIELDS])
def test_non_integer_in_integer_field_rejected(tmp_path, capsys, field, doc):
    assert cli.run(write_jobs(tmp_path, doc)) == cli.EXIT_BAD_INPUT
    assert field in capsys.readouterr().err


def test_fractional_twist_rejected(tmp_path, capsys):
    path = write_jobs(tmp_path, {**BASE, "line_bundle": ["1/2"], "jobs": [
        {"id": "a", "kind": "euler_two", "bundles": ["O1", "O1"]}]})
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    assert "line_bundle" in capsys.readouterr().err


def test_fractional_line_bundle_class_rejected_for_sym_power(tmp_path, capsys):
    # rank 1 and ch2 = c1^2/2 hold, but c1 = H/2 is not in the lattice
    doc = {**BASE, "bundles": [{"name": "H", "ch": [1, ["1/2"], "1/8"]}],
           "jobs": [{"id": "s", "kind": "sym_power_two", "bundle": "H", "k": 2}]}
    assert cli.run(write_jobs(tmp_path, doc)) == cli.EXIT_BAD_INPUT
    assert "line-bundle class" in capsys.readouterr().err


# Runs a job file in a fresh isolated interpreter and reports which tautchi
# modules are loaded when the first job starts and when the run ends.
MODULES_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tautchi import cli
inner, seen = cli.run_one_job, {}
def first_job(*args):
    seen.setdefault("first_job", sorted(m for m in sys.modules if m.startswith("tautchi")))
    return inner(*args)
cli.run_one_job = first_job
code = cli.main(["--jobs", sys.argv[2]])
seen["end"] = sorted(m for m in sys.modules if m.startswith("tautchi"))
print(json.dumps({"code": code, **seen}))
"""


def loaded_modules(tmp_path, jobs):
    path = write_jobs(tmp_path, {**BASE, "jobs": jobs})
    proc = subprocess.run([sys.executable, "-I", "-c", MODULES_PROBE,
                           str(REPO / "src"), path],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_formula_jobs_do_not_load_the_verification_layer(tmp_path):
    seen = loaded_modules(tmp_path, [
        {"id": "s", "kind": "scala", "bundle": "O1", "n": 3},
        {"id": "p", "kind": "euler_two", "bundles": ["O", "O1", "O1"]},
        {"id": "q", "kind": "sym_power_two", "bundle": "O1", "k": 4}])
    assert seen["code"] == cli.EXIT_OK
    for stage in ("first_job", "end"):
        assert "tautchi.complexes" not in seen[stage]
        assert "tautchi.symgroup" not in seen[stage]


def test_verification_job_loads_complexes_before_the_first_job(tmp_path):
    seen = loaded_modules(tmp_path, [
        {"id": "s", "kind": "scala", "bundle": "O1", "n": 3},
        {"id": "v", "kind": "verify_complexes", "k_max": 2}])
    assert seen["code"] == cli.EXIT_OK
    assert {"tautchi.complexes", "tautchi.symgroup"} <= set(seen["first_job"])


def test_value_beyond_the_int_digit_limit_is_written(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    path = write_jobs(tmp_path, {**BASE, "line_bundle": [200], "jobs": [
        {"id": "big", "kind": "scala", "bundle": "O", "n": 10000}]})
    out = tmp_path / "big.out.json"
    assert cli.main(["--jobs", path, "--out", str(out)]) == cli.EXIT_OK
    value = json.loads(out.read_text())[0]["value"]
    assert len(value) > 4300 and value.isdigit()
    assert f" {value} " in capsys.readouterr().out
    # the limit is restored for whatever the process does next
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_integer_literal_beyond_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"surface": {"preset": "P2"}, "jobs": [], "n": '
                    + "1" * 5000 + "}")
    assert cli.run(str(path)) == cli.EXIT_BAD_INPUT
    # without the digit limit the literal parses, and the top-level key "n"
    # that nothing reads is rejected
    if hasattr(sys, "set_int_max_str_digits"):
        assert "parse error" in capsys.readouterr().err
    else:
        assert "key 'n' is not allowed" in capsys.readouterr().err


def test_surface_that_fails_wu_is_rejected(tmp_path, capsys):
    doc = {"surface": {"gram": [[1]], "canonical": [0], "c2": 12},
           "bundles": [{"name": "O", "rank": 1}], "line_bundle": [1],
           "jobs": [{"id": "s", "kind": "scala", "bundle": "O", "n": 3}]}
    assert cli.run(write_jobs(tmp_path, doc)) == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "surface" in captured.err and "characteristic" in captured.err
