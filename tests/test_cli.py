"""Job file parsing, execution, output determinism, and exit codes."""

import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tautchi import cli, complexes, euler

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


USAGE_ERRORS = {"unknown-flag": ["--bogus"], "missing-value": ["--jobs"],
                "threads": ["--jobs", "x.json", "--threads", "2"],
                "force-brute": ["--jobs", "x.json", "--force-brute-N"]}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exits_bad_input(capsys, argv):
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    assert "usage" in capsys.readouterr().err


def test_round_trip_parse_serialize_parse():
    doc = {**BASE,
           "line_bundle": [1],
           "jobs": [{"id": "x", "kind": "euler_two", "bundles": ["O", "O1"]},
                    {"id": "y", "kind": "scala", "bundle": "O", "sweep_n": [1, 3]}]}
    jf1 = cli.parse_job_file(doc)
    jf2 = cli.parse_job_file(cli.job_file_to_doc(jf1))
    assert jf1 == jf2


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
                        lambda k_max: (calls.append(k_max) or [], True))
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


def test_verify_k5_out_matches_golden(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert cli.main(["--verify", "k=5", "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert out.read_bytes() == (REPO / "tests" / "data" / "verify_k5.out.json").read_bytes()


def test_verification_builds_each_complex_once(monkeypatch):
    built = []
    build = complexes.build_complex
    monkeypatch.setattr(complexes, "build_complex",
                        lambda k, ell: built.append((k, ell)) or build(k, ell))
    rows, ok = cli.run_verification(5)
    assert ok and len(rows) == 47
    assert sorted(built) == [(k, ell) for k in range(1, 6) for ell in range(1, k + 1)]


def failing_rows(rows):
    return [(pos, row.id, row.value) for pos, row in enumerate(rows)
            if row.value != "PASS"]


def test_kernel_count_failure_keeps_its_row(monkeypatch):
    count = complexes.swap_invariant_kernel_dim

    def fail_at_3_2(cx):
        if (cx.k, cx.ell) == (3, 2):
            raise ArithmeticError("injected mismatch")
        return count(cx)

    monkeypatch.setattr(complexes, "swap_invariant_kernel_dim", fail_at_3_2)
    rows, ok = cli.run_verification(5)
    assert not ok and len(rows) == 47
    # position and detail as in the suite that built each complex per check
    assert failing_rows(rows) == [
        (19, "verify[kernel-count k=3,l=2]", "FAIL (injected mismatch)")]


def test_slot_invariant_failure_keeps_its_row(monkeypatch):
    invariants = complexes.group_invariant_dim

    def one_at_4_2_1(cx, degree, group, slot_character="trivial"):
        if group == "slot" and (cx.k, cx.ell, degree) == (4, 2, 1):
            return 1
        return invariants(cx, degree, group, slot_character)

    monkeypatch.setattr(complexes, "group_invariant_dim", one_at_4_2_1)
    rows, ok = cli.run_verification(5)
    assert not ok and len(rows) == 47
    assert failing_rows(rows) == [
        (45, "verify[slot-invariants k=4]", "FAIL (dim=1 at ell=2, i=1)")]


def test_corrupted_differential_fails_its_exactness_row(monkeypatch, capsys):
    build = complexes.build_complex

    def corrupt_3_1(k, ell):
        cx = build(k, ell)
        if (k, ell) == (3, 1):
            row = next(iter(cx.differentials[-1].rows.values()))
            row[next(iter(row))] *= 2
        return cx

    monkeypatch.setattr(complexes, "build_complex", corrupt_3_1)
    rows, ok = cli.run_verification(5)
    assert not ok and len(rows) == 47
    assert failing_rows(rows) == [
        (3, "verify[exact k=3,l=1]", "FAIL (d^(i+1) d^i != 0 at i=-1; H={0: -1})")]
    assert cli.main(["--verify", "k=3"]) == cli.EXIT_VERIFY_FAILED
    assert "FAIL (d^(i+1) d^i != 0 at i=-1; H={0: -1})" in capsys.readouterr().out


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


def test_sym_power_k_bound(tmp_path, capsys):
    path = write_jobs(tmp_path, {**BASE, "jobs": [
        {"id": "s", "kind": "sym_power_two", "bundle": "O1", "k": 1001}]})
    assert cli.run(path) == cli.EXIT_BAD_INPUT
    assert ("job 's': k = 1001 exceeds the sym_power_two budget k <= 1000"
            in capsys.readouterr().err)


@pytest.mark.parametrize("k", [13, 30])
def test_h_top_k_budget(tmp_path, capsys, k):
    # one key is a few bytes, but the subset DP would enumerate 2^(k-1)
    # compositions before using it
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
    assert (f"job 'k': {types} distinct bundle classes exceed the "
            f"k0_invariants budget of 12" in capsys.readouterr().err)


def test_k0_invariants_at_the_budget_runs(tmp_path, capsys):
    # 15 names, but Dup and the repeated names add no class: 12 classes
    names = [f"L{j}" for j in range(cli.K0_DISTINCT_MAX_TYPES)] + ["Dup", "L1", "L1"]
    out = tmp_path / "out.json"
    path = k0_job_file(tmp_path, names, 2)
    assert cli.main(["--jobs", path, "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    jf = cli.parse_job_file(json.loads(Path(path).read_text()))
    expect = euler.chi_product_invariants(
        jf.surface, 2, [jf.bundles[name] for name in names]).value
    assert json.loads(out.read_text())[0]["value"] == cli.rational_to_str(expect)


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
                        lambda k_max, id_prefix: (calls.append(k_max) or [], True))
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
    code = cli.run(str(path))
    if hasattr(sys, "set_int_max_str_digits"):
        assert code == cli.EXIT_BAD_INPUT
        assert "parse error" in capsys.readouterr().err
    else:
        assert code == cli.EXIT_OK


def test_surface_that_fails_wu_is_rejected(tmp_path, capsys):
    doc = {"surface": {"gram": [[1]], "canonical": [0], "c2": 12},
           "bundles": [{"name": "O", "rank": 1}], "line_bundle": [1],
           "jobs": [{"id": "s", "kind": "scala", "bundle": "O", "n": 3}]}
    assert cli.run(write_jobs(tmp_path, doc)) == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "surface" in captured.err and "characteristic" in captured.err
