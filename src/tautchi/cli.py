"""Batch front end: job files in, exact result tables out.

A job file is a JSON document naming a surface (preset or explicit
intersection data), a list of bundles (either rank/c1/c2 data or a raw
truncated Chern character, possibly virtual), an optional determinant-twist
divisor, and a list of jobs.  Rationals are encoded as integers or as strings
"p/q"; all output values are exact.

Exit codes: 0 on success, 1 if a job raised at run time, 2 if a verification
job reported a failure, 3 on command-line, parse or validation errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import comb, prod
from typing import Any, Callable, Sequence

from . import euler
from .surface import (BundleSpec, ChernCharacter, DivisorClass, SurfaceModel,
                      PRESETS, gen_binomial, sym_pow_chi)

EXIT_OK = 0
EXIT_JOB_ERROR = 1
EXIT_VERIFY_FAILED = 2
EXIT_BAD_INPUT = 3

# Budget of a `sym_power_two` job.  Its closed form makes O(k) integer ring
# products: k = 1000 takes 35-48 ms on P2 and 41-52 ms on the plane blown up
# in three points (best of 5, two line bundles on each; CPython 3.11,
# 2-core Xeon).
SYM_POWER_MAX_K = 1000

# Budget of an `h_top` job.  Its subset DP is O(3^k) with all 2^k - 1 keys:
# k = 12 at n = 12 takes 35-60 ms and k = 13 takes 0.11-0.19 s (same host).
H_TOP_MAX_K = 12

# Budget of a `k0_invariants` job: prod (m_i + 1) over the multiplicities
# m_i of its distinct bundle classes, at most 2^12.  It was the state count
# of the typed DP that the decorated-block sum replaced, and it is kept so
# that the same jobs are accepted.  The sum is polynomial in the copies: at
# the budget O(1)...O(12) on P2 at n = 12 takes about 1 ms, one class of 4095
# copies at n = 2 14 ms, 3 classes of 15 at n = 45 20 ms and 2 of 63 at
# n = 126 1.1 s (same host).  The budget does not bound n: 4095 copies at
# n = 4095 are accepted, and their k n^2 = 7e10 Horner steps are
# intractable.
K0_MAX_STATES = 4096

# Budget of the verification suite (`--verify k=MAX` and `verify_complexes`
# k_max): k = 7 takes 0.5-0.8 s, k = 8 2.4-3.5 s, k = 9 15-17 s and k = 10
# 1.9 min with a 256 MB peak, most of it exact rank (same host).
VERIFY_MAX_K = 10


def is_positive_decimal(text: str) -> bool:
    """A canonical positive decimal: ASCII digits only, without sign, blank,
    underscore or leading zero."""
    return text.isascii() and text.isdigit() and text[0] != "0"


class JobFileError(ValueError):
    """Raised for any parse or validation problem in a job file."""


def check_keys(obj: dict[str, Any], allowed: Sequence[str], where: str) -> None:
    """Reject a key of a job-file object that nothing reads."""
    for key in obj:
        if key not in allowed:
            raise JobFileError(f"{where}: key {key!r} is not allowed here "
                               f"(allowed: {', '.join(allowed)})")


def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """The `object_pairs_hook` of a job file: the object of its key-value
    pairs, where a repeated key is a `JobFileError` naming the key (plain
    `json.load` would keep its last value)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise JobFileError(f"repeated key {key!r} in one object")
            seen.add(key)
    return obj


def parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise JobFileError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise JobFileError(f"{where}: bad rational {value!r}: {exc}") from None
    raise JobFileError(f"{where}: expected an integer or 'p/q' string, got "
                       f"{type(value).__name__}")


def is_int(value: Any) -> bool:
    """True for a JSON integer; a boolean is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_str(obj: dict[str, Any], key: str, where: str) -> str:
    """The string under key; any other JSON value is rejected, not coerced
    with `str`."""
    value = obj[key]
    if not isinstance(value, str):
        raise JobFileError(f"{where}: key {key!r} must be a string, got {value!r}")
    return value


def parse_int(value: Any, where: str) -> int:
    if not is_int(value):
        raise JobFileError(f"{where}: expected an integer, got {value!r}")
    return value


def rational_to_str(value: Fraction | int) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_divisor(value: Any, rank: int, where: str) -> DivisorClass:
    if not isinstance(value, list) or len(value) != rank:
        raise JobFileError(f"{where}: expected a list of {rank} coordinates")
    return DivisorClass.of([parse_rational(v, where) for v in value])


def parse_surface(doc: Any) -> SurfaceModel:
    if not isinstance(doc, dict):
        raise JobFileError("surface: expected an object")
    if "preset" in doc:
        name = doc["preset"]
        if not isinstance(name, str) or name not in PRESETS:
            raise JobFileError(f"surface: unknown preset {name!r} "
                               f"(available: {', '.join(sorted(PRESETS))})")
        check_keys(doc, ("preset", "h_square") if name == "K3" else ("preset",),
                   "surface")
        try:
            if name == "K3" and "h_square" in doc:
                return PRESETS[name](parse_int(doc["h_square"], "h_square"))
            return PRESETS[name]()
        except (TypeError, ValueError) as exc:
            raise JobFileError(f"surface: {exc}") from None
    check_keys(doc, ("name", "gram", "canonical", "c2"), "surface")
    try:
        gram = tuple(tuple(parse_int(x, "surface: gram") for x in row)
                     for row in doc["gram"])
        canonical = tuple(parse_int(x, "surface: canonical") for x in doc["canonical"])
        c2 = parse_int(doc["c2"], "surface: c2")
        name = parse_str(doc, "name", "surface") if "name" in doc else "surface"
    except (KeyError, TypeError) as exc:
        raise JobFileError(f"surface: {exc}") from None
    try:
        return SurfaceModel(name, gram, canonical, c2)
    except ValueError as exc:
        raise JobFileError(f"surface: {exc}") from None


def parse_bundles(doc: Any, surface: SurfaceModel) -> dict[str, ChernCharacter]:
    if not isinstance(doc, list):
        raise JobFileError("bundles: expected a list")
    out: dict[str, ChernCharacter] = {}
    for i, b in enumerate(doc):
        where = f"bundles[{i}]"
        if not isinstance(b, dict) or "name" not in b:
            raise JobFileError(f"{where}: expected an object with a name")
        name = parse_str(b, "name", where)
        if name in out:
            raise JobFileError(f"{where}: duplicate bundle name {name!r}")
        if "ch" in b:
            check_keys(b, ("name", "ch"), where)
            ch = b["ch"]
            if not isinstance(ch, list) or len(ch) != 3:
                raise JobFileError(f"{where}: ch must be [ch0, [c1...], ch2]")
            out[name] = ChernCharacter.make(
                parse_rational(ch[0], where),
                parse_divisor(ch[1], surface.picard_rank, where),
                parse_rational(ch[2], where))
        else:
            check_keys(b, ("name", "rank", "c1", "c2"), where)
            rank = parse_int(b.get("rank"), f"{where}: rank")
            c1 = parse_divisor(b.get("c1", [0] * surface.picard_rank),
                               surface.picard_rank, where)
            c2num = parse_rational(b.get("c2", 0), where)
            out[name] = BundleSpec(name, rank, c1, c2num).chern(surface)
    return out


@dataclass(frozen=True)
class Job:
    """A validated job: its object in the job file, and what validation
    parsed from it."""
    id: str
    kind: str
    payload: dict[str, Any]
    # The range of n (one n for a job with `n`), or None for a kind without n.
    ns: range | None
    # The params its rows echo, each row of a kind with n adding its n; None
    # for a kind whose evaluation makes its own rows.
    params: dict[str, Any] | None
    # What the kind's own check parsed: h_top's h2 values keyed by subset.
    data: Any


@dataclass(frozen=True)
class JobFile:
    surface: SurfaceModel
    bundles: dict[str, ChernCharacter]
    twist: ChernCharacter
    jobs: tuple[Job, ...]
    # The names of the bundles whose classes are integral (the twist always
    # is): a job on these alone must have an integral value.
    integral: frozenset[str]


@dataclass
class ResultRow:
    id: str
    kind: str
    params: dict[str, Any]
    value: str
    terms: list[dict[str, Any]] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {"id": self.id, "kind": self.kind, "params": self.params,
                "value": self.value, "terms": self.terms}


@dataclass(frozen=True)
class Kind:
    """A job kind: the payload keys it reads, its n range, its own checks,
    the params its rows echo, and its evaluation."""
    # The results of a validated job, one per n of its range; or its rows.
    evaluate: Callable[[JobFile, Job], list]
    # The payload keys it reads besides id, kind, n and sweep_n: those that
    # name one bundle, those that name a nonempty list of bundles, and the
    # others.
    one: tuple[str, ...] = ()
    many: tuple[str, ...] = ()
    other: tuple[str, ...] = ()
    # The smallest n, or None for a kind without n.
    min_n: int | None = None
    # The payload keys its rows echo as params over `defaults`, which hold
    # the default of an optional key or a constant that keeps the bytes of
    # --out; None for a kind whose evaluation makes its own rows.
    echo: tuple[str, ...] | None = ()
    defaults: dict[str, Any] = field(default_factory=dict)
    # Its own checks, check(jf, jid, payload, ns); the job's data is what
    # it returns.
    check: Callable[[JobFile, str, dict[str, Any], range | None], Any] | None = None


def parse_job_file(doc: Any) -> JobFile:
    if not isinstance(doc, dict):
        raise JobFileError("top level: expected an object")
    check_keys(doc, ("surface", "bundles", "line_bundle", "jobs"), "top level")
    surface = parse_surface(doc.get("surface"))
    bundles = parse_bundles(doc.get("bundles", []), surface)
    if "line_bundle" in doc:
        twist = ChernCharacter.line_bundle(
            parse_divisor(doc["line_bundle"], surface.picard_rank, "line_bundle"),
            surface)
        if not twist.is_line_bundle_class(surface):
            raise JobFileError(f"line_bundle: coordinates must be integers, got "
                               f"{doc['line_bundle']!r}")
    else:
        twist = ChernCharacter.unit(surface)
    raw_jobs = doc.get("jobs")
    if not isinstance(raw_jobs, list):
        raise JobFileError("jobs: expected a list")
    integral = frozenset(name for name, ch in bundles.items()
                         if ch.is_integral_class(surface))
    jf = JobFile(surface, bundles, twist, (), integral)
    jobs: list[Job] = []
    seen_ids: set[str] = set()
    for i, j in enumerate(raw_jobs):
        if not isinstance(j, dict):
            raise JobFileError(f"jobs[{i}]: expected an object")
        jid = parse_str(j, "id", f"jobs[{i}]") if "id" in j else f"job{i}"
        if jid in seen_ids:
            raise JobFileError(f"jobs[{i}]: duplicate job id {jid!r}")
        seen_ids.add(jid)
        jobs.append(validate_job(jf, jid, j))
    return replace(jf, jobs=tuple(jobs))


def validate_job(jf: JobFile, jid: str, j: dict[str, Any]) -> Job:
    """Check one job object against its kind's entry in KINDS and against
    the job file; returns the job with what validation parsed."""
    name = j.get("kind")
    if not isinstance(name, str) or name not in KINDS:
        raise JobFileError(f"job {jid!r}: unknown kind {name!r} "
                           f"(available: {', '.join(KINDS)})")
    kind = KINDS[name]
    n_keys = () if kind.min_n is None else ("n", "sweep_n")
    check_keys(j, ("id", "kind", *kind.one, *kind.many, *kind.other, *n_keys),
               f"job {jid!r}")
    ns = None if kind.min_n is None else _n_range(jid, j, kind.min_n)
    for key in kind.many:
        if not isinstance(j.get(key), list) or not j[key]:
            raise JobFileError(f"job {jid!r}: {key} must be a nonempty list "
                               f"of bundle names")
    for bundle in _bundle_names(kind, j):
        if not isinstance(bundle, str) or bundle not in jf.bundles:
            raise JobFileError(f"job {jid!r}: unknown bundle {bundle!r}")
    data = None if kind.check is None else kind.check(jf, jid, j, ns)
    params = None if kind.echo is None else {
        **kind.defaults, **{key: j[key] for key in kind.echo if key in j}}
    return Job(jid, name, j, ns, params, data)


def _n_range(jid: str, j: dict[str, Any], min_n: int) -> range:
    """The n range of a job of a kind with n: its `n`, or its
    `sweep_n` [first, last]."""
    if "sweep_n" not in j:
        n = _need_int(jid, j, "n", min_n)
        return range(n, n + 1)
    if "n" in j:
        raise JobFileError(f"job {jid!r}: keys 'n' and 'sweep_n' exclude each "
                           f"other")
    raw = j["sweep_n"]
    if not isinstance(raw, list) or len(raw) != 2 or not all(map(is_int, raw)):
        raise JobFileError(f"job {jid!r}: sweep_n must be [first, last]")
    if raw[0] > raw[1]:
        raise JobFileError(f"job {jid!r}: sweep_n {raw} is reversed "
                           f"(first must not exceed last)")
    if raw[0] < min_n:
        raise JobFileError(f"job {jid!r}: sweep over n must start at {min_n}")
    return range(raw[0], raw[1] + 1)


def _bundle_names(kind: Kind, p: dict[str, Any]) -> list[Any]:
    """The bundle names a job of the kind reads."""
    names = [p.get(key) for key in kind.one]
    for key in kind.many:
        names.extend(p[key])
    return names


def _classes(jf: JobFile, job: Job, key: str) -> list[ChernCharacter]:
    return [jf.bundles[name] for name in job.payload[key]]


def _need_int(jid: str, payload: dict, key: str, minimum: int) -> int:
    if key not in payload:
        raise JobFileError(f"job {jid!r}: missing {key}")
    v = payload[key]
    if not is_int(v) or v < minimum:
        raise JobFileError(f"job {jid!r}: {key} must be an integer >= {minimum}")
    return v


def _check_three(jf: JobFile, jid: str, p: dict[str, Any], ns: range | None) -> None:
    if len(p["bundles"]) != 3:
        raise JobFileError(f"job {jid!r}: bundles must list exactly three names")


def _check_sym_power(jf: JobFile, jid: str, p: dict[str, Any],
                     ns: range | None) -> None:
    k = _need_int(jid, p, "k", 1)
    if k > SYM_POWER_MAX_K:
        raise JobFileError(f"job {jid!r}: k = {k} exceeds the sym_power_two "
                           f"budget k <= {SYM_POWER_MAX_K}")
    if not jf.bundles[p["bundle"]].is_line_bundle_class(jf.surface):
        raise JobFileError(f"job {jid!r}: bundle must be a line-bundle class")


def _check_h_top(jf: JobFile, jid: str, p: dict[str, Any],
                 ns: range | None) -> dict[frozenset, int]:
    """The h2 values keyed by their subsets."""
    k = _need_int(jid, p, "k", 1)
    if k > H_TOP_MAX_K:
        raise JobFileError(f"job {jid!r}: k = {k} exceeds the h_top budget "
                           f"k <= {H_TOP_MAX_K}")
    h2 = p.get("h2")
    if not isinstance(h2, dict):
        raise JobFileError(f"job {jid!r}: h2 must be an object keyed by "
                           f"comma-joined subsets")
    keys_by_subset: dict[frozenset, str] = {}
    for key, v in h2.items():
        subset = _parse_subset_key(jid, key, k)
        if subset in keys_by_subset:
            raise JobFileError(f"job {jid!r}: h2 keys {keys_by_subset[subset]!r} "
                               f"and {key!r} name the same subset")
        keys_by_subset[subset] = key
        if not is_int(v) or v < 0:
            raise JobFileError(f"job {jid!r}: h2[{key!r}] must be a "
                               f"nonnegative integer")
    q = p.get("q", 0)
    if not is_int(q) or q < 0:
        raise JobFileError(f"job {jid!r}: q must be a nonnegative integer")
    return {subset: h2[key] for subset, key in keys_by_subset.items()}


def _check_h0(jf: JobFile, jid: str, p: dict[str, Any], ns: range | None) -> None:
    h0 = p.get("h0")
    if (not isinstance(h0, list) or not h0
            or not all(is_int(v) and v >= 0 for v in h0)):
        raise JobFileError(f"job {jid!r}: h0 must be a nonempty list of "
                           f"nonnegative integers")
    if ns[0] < len(h0):
        raise JobFileError(f"job {jid!r}: the product formula requires n >= k "
                           f"(got n = {ns[0]}, k = {len(h0)})")


def _check_k0_states(jf: JobFile, jid: str, p: dict[str, Any],
                     ns: range | None) -> None:
    mults = Counter(jf.bundles[name] for name in p["bundles"]).values()
    states = prod(m + 1 for m in mults)
    if states > K0_MAX_STATES:
        raise JobFileError(f"job {jid!r}: {states} DP states (the product of "
                           f"multiplicity + 1 over {len(mults)} distinct "
                           f"bundle classes) exceed the k0_invariants "
                           f"budget of {K0_MAX_STATES}")


def _check_verify(jf: JobFile, jid: str, p: dict[str, Any], ns: range | None) -> None:
    if "k_max" in p:
        k_max = _need_int(jid, p, "k_max", 1)
        if k_max > VERIFY_MAX_K:
            raise JobFileError(f"job {jid!r}: {_verify_budget_message(k_max)}")
    # Loaded here, not in run_one_job, so the job's run time excludes it.
    from . import complexes  # noqa: F401


def _verify_budget_message(k_max: int) -> str:
    return (f"k_max = {k_max} exceeds the verification budget "
            f"k <= {VERIFY_MAX_K}")


def _parse_subset_key(jid: str, key: str, k: int) -> frozenset:
    texts = key.split(",")
    if not all(map(is_positive_decimal, texts)):
        raise JobFileError(f"job {jid!r}: bad subset key {key!r} (expected "
                           f"comma-joined positive integers without signs, "
                           f"blanks or leading zeros)")
    parts = [int(x) for x in texts]
    if any(x < 1 or x > k for x in parts):
        raise JobFileError(f"job {jid!r}: subset key {key!r} out of range 1..{k}")
    if len(set(parts)) != len(parts):
        raise JobFileError(f"job {jid!r}: subset key {key!r} repeats an element")
    return frozenset(parts)


# The job kinds.  A kind with n evaluates its whole range of n at once, and
# a job with an n is the range [n, n].  Each evaluation looks its function
# up when it runs.
KINDS: dict[str, Kind] = {
    "scala": Kind(
        one=("bundle",), min_n=1, echo=("bundle",),
        evaluate=lambda jf, job: [
            euler.chi_taut(jf.surface, n, jf.bundles[job.payload["bundle"]], jf.twist)
            for n in job.ns]),
    "euler_two": Kind(
        many=("bundles",), echo=("bundles",), defaults={"brute": False},
        evaluate=lambda jf, job: [euler.chi_taut_product_two(
            jf.surface, _classes(jf, job, "bundles"), jf.twist)]),
    "euler_bichar_two": Kind(
        many=("source", "target"), echo=("source", "target"),
        evaluate=lambda jf, job: [euler.chi_hom_pair_two(
            jf.surface, _classes(jf, job, "source"), _classes(jf, job, "target"))]),
    "euler_three": Kind(
        many=("bundles",), min_n=3, echo=("bundles",), check=_check_three,
        evaluate=lambda jf, job: euler.chi_taut_triple_sweep(
            jf.surface, job.ns, *_classes(jf, job, "bundles"), jf.twist)),
    "sym_power_two": Kind(
        one=("bundle",), other=("k",), echo=("bundle", "k"),
        defaults={"swap_variant": "twisted"}, check=_check_sym_power,
        evaluate=lambda jf, job: [euler.chi_sym_power_two(
            jf.surface, jf.bundles[job.payload["bundle"]], job.payload["k"],
            jf.twist)]),
    "h_top": Kind(
        other=("k", "h2", "q"), min_n=1, echo=("k", "q"), defaults={"q": 0},
        check=_check_h_top,
        evaluate=lambda jf, job: euler.top_cohomology_dim_sweep(
            job.params["k"], job.ns, job.data, job.params["q"])),
    "h0": Kind(
        other=("h0",), min_n=1, echo=("h0",), check=_check_h0,
        evaluate=lambda jf, job: [euler.global_sections_dim(job.payload["h0"], n)
                                  for n in job.ns]),
    "k0_invariants": Kind(
        many=("bundles",), min_n=1, echo=("bundles",), check=_check_k0_states,
        evaluate=lambda jf, job: euler.chi_product_invariants_sweep(
            jf.surface, job.ns, _classes(jf, job, "bundles"), jf.twist)),
    "verify_complexes": Kind(
        other=("k_max",), echo=None, check=_check_verify,
        evaluate=lambda jf, job: run_verification(
            job.payload.get("k_max", 7), id_prefix=job.id)[0]),
}


def _terms_json(result: euler.ChiResult) -> list[dict[str, Any]]:
    return [{"label": t.label,
             "coefficient": rational_to_str(t.coefficient),
             "factors": [rational_to_str(f) for f in t.factors]}
            for t in result.terms]


Result = Fraction | int | euler.ChiResult


def run_one_job(jf: JobFile, job: Job) -> list[ResultRow]:
    """The rows of one job: one row, or one per n of a sweep.  A job with an
    n is the sweep [n, n], so both run one evaluation over their range."""
    results = KINDS[job.kind].evaluate(jf, job)
    if job.params is None:  # the evaluation made the rows
        return results
    if job.ns is None:
        return [_row(jf, job, job.id, job.params, results[0])]
    sweep = "sweep_n" in job.payload
    return [_row(jf, job, f"{job.id}[n={n}]" if sweep else job.id,
                 {**job.params, "n": n}, result)
            for n, result in zip(job.ns, results)]


def _row(jf: JobFile, job: Job, row_id: str, params: dict[str, Any],
         result: Result) -> ResultRow:
    """The row of one result; a value that is not an integer although every
    input bundle is integral fails the job."""
    if isinstance(result, euler.ChiResult):
        value, terms = result.value, _terms_json(result)
    else:
        value, terms = result, []
    if value.denominator != 1 and jf.integral.issuperset(
            _bundle_names(KINDS[job.kind], job.payload)):
        raise ArithmeticError(f"value {rational_to_str(value)} is not an integer, "
                              f"but every input bundle is integral")
    return ResultRow(row_id, job.kind, params, rational_to_str(value), terms)


def run_verification(k_max: int = 7, id_prefix: str = "verify"
                     ) -> tuple[list[ResultRow], bool]:
    """Structural verification suite over the complexes machinery.

    Covers: d^(i+1) d^i = 0 and exactness in degrees >= 0 for all parameter
    pairs up to k_max; brute-force swap-invariant kernel counts against the
    closed form; dimensions counted factor by factor against the closed form
    (k <= max(k_max, 10)); the alternating-sum binomial identity
    (k <= max(k_max, 20)); the falling-factorial reflection identity; and
    vanishing of slot-invariants in positive degrees (k <= min(k_max, 6)).
    """
    from . import complexes
    all_ok = True

    def add(rows: list[ResultRow], name: str, params: dict, ok: bool,
            detail: str = "") -> None:
        nonlocal all_ok
        all_ok = all_ok and ok
        value = "PASS" if ok else ("FAIL" + (f" ({detail})" if detail else ""))
        rows.append(ResultRow(f"{id_prefix}[{name}]", "verify_complexes",
                              params, value))

    # Each complex is built once and serves the exactness, kernel-count and
    # slot-invariant checks; their rows are buffered to keep the row order.
    exact_rows: list[ResultRow] = []
    kernel_rows: list[ResultRow] = []
    slot_rows: list[ResultRow] = []
    for k in range(1, k_max + 1):
        slot_ok = True
        slot_detail = ""
        for ell in range(1, k + 1):
            cx = complexes.build_complex(k, ell)
            report = complexes.verify_exactness(cx)
            bad = {i: d for i, d in report.cohomology.items() if i >= 0 and d}
            detail = [f"d^(i+1) d^i != 0 at i={i}" for i in report.nonzero_squares]
            if bad:
                detail.append(f"H={bad}")
            add(exact_rows, f"exact k={k},l={ell}", {"k": k, "ell": ell},
                report.passed, "; ".join(detail))
            try:
                complexes.swap_invariant_kernel_dim(cx)
                add(kernel_rows, f"kernel-count k={k},l={ell}",
                    {"k": k, "ell": ell}, True)
            except ArithmeticError as exc:
                add(kernel_rows, f"kernel-count k={k},l={ell}",
                    {"k": k, "ell": ell}, False, str(exc))
            if k <= 6:
                for i in range(1, k - ell + 1):
                    try:
                        d = complexes.group_invariant_dim(cx, i, "slot")
                    except ArithmeticError as exc:
                        slot_ok = False
                        slot_detail = f"{exc} at ell={ell}, i={i}"
                        continue
                    if d != 0:
                        slot_ok = False
                        slot_detail = f"dim={d} at ell={ell}, i={i}"
        if k <= 6:
            add(slot_rows, f"slot-invariants k={k}", {"k": k}, slot_ok, slot_detail)
    rows = exact_rows + kernel_rows
    for k in range(1, max(k_max, 10) + 1):
        ok = True
        for ell in range(1, k + 1):
            for i in range(0, k - ell + 1):
                if complexes.enumerated_dim(k, ell, i) != complexes.expected_dim(k, ell, i):
                    ok = False
            alt = sum((-1) ** i * complexes.expected_dim(k, ell, i)
                      for i in range(0, k - ell + 1))
            if alt != complexes.surviving_count(k, ell):
                ok = False
        add(rows, f"dims k={k}", {"k": k}, ok)
    ok = True
    for k in range(1, max(k_max, 20) + 1):
        for ell in range(1, k + 1):
            lhs = sum((-1) ** i * 2 ** (k - ell - i) * comb(k, ell + i)
                      * comb(ell + i - 1, ell - 1) for i in range(0, k - ell + 1))
            if lhs != complexes.surviving_count(k, ell):
                ok = False
    add(rows, "alternating-binomial", {"k_max": max(k_max, 20)}, ok)
    ok = True
    for chi in range(-10, 11):
        for m in range(0, 11):
            if (-1) ** m * gen_binomial(-chi, m) != gen_binomial(chi + m - 1, m):
                ok = False
            if sym_pow_chi(m, chi) != gen_binomial(chi + m - 1, m):
                ok = False
    add(rows, "reflection-binomial", {"chi_max": 10, "m_max": 10}, ok)
    return rows + slot_rows, all_ok


def render_table(rows: Sequence[ResultRow]) -> str:
    headers = ("id", "kind", "value", "params")
    data = [(r.id, r.kind, r.value,
             " ".join(f"{k}={v}" for k, v in sorted(r.params.items())))
            for r in rows]
    widths = [max(len(h), *(len(d[i]) for d in data)) if data else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
             "  ".join("-" * widths[i] for i in range(len(headers)))]
    for d in data:
        lines.append("  ".join(d[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def write_json(value: Any, write: Callable[[str], Any]) -> None:
    """Pass the text of json.dumps(value, sort_keys=True, indent=2) to write,
    piece by piece, byte for byte the same, for values whose object keys are
    strings (as in every row).

    Any indent sends json.dumps to its pure-Python encoder, so this walks the
    containers itself and encodes each string with json's own C-accelerated
    ASCII escaper; other scalars go through json.dumps, which encodes them
    alone with the C encoder.  Neither the pieces nor the whole text is held.
    """
    encode = encode_basestring_ascii

    def walk(item: Any, pad: str) -> None:
        if isinstance(item, str):
            write(encode(item))
        elif isinstance(item, dict):
            if not item:
                write("{}")
                return
            inner = pad + "  "
            sep = "{\n" + inner
            for key, element in sorted(item.items()):
                write(sep + encode(key) + ": ")
                walk(element, inner)
                sep = ",\n" + inner
            write("\n" + pad + "}")
        elif isinstance(item, (list, tuple)):
            if not item:
                write("[]")
                return
            inner = pad + "  "
            sep = "[\n" + inner
            for element in item:
                write(sep)
                walk(element, inner)
                sep = ",\n" + inner
            write("\n" + pad + "]")
        elif type(item) is int:
            write(int.__repr__(item))
        else:  # bool, None, float
            write(json.dumps(item))

    walk(value, "")


def write_rows(path: str, rows: Sequence[ResultRow]) -> None:
    """Write the rows as the JSON array of `--out`."""
    with open(path, "w", encoding="utf-8") as fh:
        write_json([r.to_json() for r in rows], fh.write)
        fh.write("\n")


def run(path: str, out: str | None = None) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except JobFileError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: parse error in {path} at line {exc.lineno} column "
              f"{exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as exc:  # an integer literal beyond the digit limit
        print(f"error: parse error in {path}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        jf = parse_job_file(doc)
    except JobFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    # Exact values may exceed CPython's 4300-digit int-to-str limit (3.11,
    # 3.10.7); lift it to run and write, while parsing keeps the guard.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    # The objects alive now (the imported modules and the job file) live
    # until the end: freezing them spares the collector from tracing them
    # again while the jobs run.  A caller's own frozen objects stay frozen.
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        rows: list[ResultRow] = []
        errors: list[tuple[str, str]] = []
        for job in jf.jobs:
            try:
                rows.extend(run_one_job(jf, job))
            except Exception as exc:
                errors.append((job.id, f"{type(exc).__name__}: {exc}"))
                rows.append(ResultRow(job.id, job.kind, {}, f"ERROR ({exc})"))
        print(render_table(rows))
        if out is not None:
            write_rows(out, rows)
    finally:
        if freeze:
            gc.unfreeze()
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
    for jid, msg in sorted(errors):
        print(f"error: job {jid!r} failed: {msg}", file=sys.stderr)
    if errors:
        return EXIT_JOB_ERROR
    if any(row.value.startswith("FAIL") for row in rows):
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tautchi",
        description="Exact Euler characteristics of induced bundles on "
                    "Hilbert schemes of points, plus structural verification.")
    parser.add_argument("--jobs", metavar="FILE", help="JSON job file to run")
    parser.add_argument("--out", metavar="FILE",
                        help="write machine-readable results (JSON) here")
    parser.add_argument("--verify", metavar="k=MAX",
                        help="run the structural verification suite up to the "
                             "given k and exit")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_BAD_INPUT if exc.code else EXIT_OK

    if args.verify is not None:
        spec = args.verify.removeprefix("k=")
        if not is_positive_decimal(spec):
            print(f"error: --verify expects k=<positive integer>, got "
                  f"{args.verify!r}", file=sys.stderr)
            return EXIT_BAD_INPUT
        if int(spec) > VERIFY_MAX_K:
            print(f"error: --verify: {_verify_budget_message(int(spec))}",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
        rows, ok = run_verification(int(spec))
        print(render_table(rows))
        if args.out:
            write_rows(args.out, rows)
        return EXIT_OK if ok else EXIT_VERIFY_FAILED

    if not args.jobs:
        parser.print_usage(sys.stderr)
        print("error: --jobs FILE or --verify k=MAX is required", file=sys.stderr)
        return EXIT_BAD_INPUT
    return run(args.jobs, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
