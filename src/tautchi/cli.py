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
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Any, Sequence

from . import euler
from .surface import (BundleSpec, ChernCharacter, DivisorClass, SurfaceModel,
                      PRESETS, gen_binomial, sym_pow_chi)

KINDS = ("scala", "euler_two", "euler_bichar_two", "euler_three",
         "sym_power_two", "h_top", "h0", "k0_invariants", "verify_complexes")
SWEEPABLE = ("scala", "euler_three", "h_top", "h0", "k0_invariants")

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
# k = 12 at n = 12 takes 0.30 s and k = 13 takes 1.0 s (same host).
H_TOP_MAX_K = 12

# Budget of a `k0_invariants` job, in distinct bundle classes.  Its set
# partition DP over the types of equal bundles grows x3.2-3.4 per distinct
# class: O(1)...O(k) on P2 at n = k takes 0.45 s at k = 12 and 1.4 s at
# k = 13 (same host).
K0_DISTINCT_MAX_TYPES = 12

# Budget of the verification suite (`--verify k=MAX` and `verify_complexes`
# k_max): k = 7 takes 1.2 s, k = 8 5.2 s, k = 9 28 s and k = 10 3.3 min with
# a 263 MB peak (same host).
VERIFY_MAX_K = 10

# Canonical positive decimals: no sign, blank, underscore or leading zero.
_DECIMAL = r"[1-9][0-9]*"
POSITIVE_DECIMAL = re.compile(_DECIMAL)
SUBSET_KEY = re.compile(rf"{_DECIMAL}(?:,{_DECIMAL})*")


class JobFileError(ValueError):
    """Raised for any parse or validation problem in a job file."""


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


def parse_int(value: Any, where: str) -> int:
    if not is_int(value):
        raise JobFileError(f"{where}: expected an integer, got {value!r}")
    return value


def rational_to_str(value: Fraction) -> str:
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
        if name not in PRESETS:
            raise JobFileError(f"surface: unknown preset {name!r} "
                               f"(available: {', '.join(sorted(PRESETS))})")
        try:
            if name == "K3" and "h_square" in doc:
                return PRESETS[name](parse_int(doc["h_square"], "h_square"))
            return PRESETS[name]()
        except (TypeError, ValueError) as exc:
            raise JobFileError(f"surface: {exc}") from None
    try:
        gram = tuple(tuple(parse_int(x, "surface: gram") for x in row)
                     for row in doc["gram"])
        canonical = tuple(parse_int(x, "surface: canonical") for x in doc["canonical"])
        c2 = parse_int(doc["c2"], "surface: c2")
        name = str(doc.get("name", "surface"))
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
        name = str(b["name"])
        if name in out:
            raise JobFileError(f"{where}: duplicate bundle name {name!r}")
        if "ch" in b:
            ch = b["ch"]
            if not isinstance(ch, list) or len(ch) != 3:
                raise JobFileError(f"{where}: ch must be [ch0, [c1...], ch2]")
            out[name] = ChernCharacter.make(
                parse_rational(ch[0], where),
                parse_divisor(ch[1], surface.picard_rank, where),
                parse_rational(ch[2], where))
        else:
            rank = parse_int(b.get("rank"), f"{where}: rank")
            c1 = parse_divisor(b.get("c1", [0] * surface.picard_rank),
                               surface.picard_rank, where)
            c2num = parse_rational(b.get("c2", 0), where)
            out[name] = BundleSpec(name, rank, c1, c2num).chern(surface)
    return out


@dataclass(frozen=True)
class Job:
    id: str
    kind: str
    payload: dict[str, Any]
    sweep: tuple[int, int] | None = None


@dataclass(frozen=True)
class JobFile:
    surface: SurfaceModel
    bundles: dict[str, ChernCharacter]
    twist: ChernCharacter
    jobs: tuple[Job, ...]


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


def parse_job_file(doc: Any) -> JobFile:
    if not isinstance(doc, dict):
        raise JobFileError("top level: expected an object")
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
    jobs: list[Job] = []
    seen_ids: set[str] = set()
    for i, j in enumerate(raw_jobs):
        where = f"jobs[{i}]"
        if not isinstance(j, dict):
            raise JobFileError(f"{where}: expected an object")
        jid = str(j.get("id", f"job{i}"))
        if jid in seen_ids:
            raise JobFileError(f"{where}: duplicate job id {jid!r}")
        seen_ids.add(jid)
        kind = j.get("kind")
        if kind not in KINDS:
            raise JobFileError(f"job {jid!r}: unknown kind {kind!r} "
                               f"(available: {', '.join(KINDS)})")
        sweep = None
        if "sweep_n" in j:
            if kind not in SWEEPABLE:
                raise JobFileError(f"job {jid!r}: kind {kind!r} does not support "
                                   f"an n-sweep")
            raw = j["sweep_n"]
            if (not isinstance(raw, list) or len(raw) != 2
                    or not all(is_int(x) for x in raw)):
                raise JobFileError(f"job {jid!r}: sweep_n must be [first, last]")
            if raw[0] > raw[1]:
                raise JobFileError(f"job {jid!r}: sweep_n {raw} is reversed "
                                   f"(first must not exceed last)")
            sweep = (raw[0], raw[1])
        payload = {k: v for k, v in j.items() if k not in ("id", "kind", "sweep_n")}
        jobs.append(Job(jid, kind, payload, sweep))
    jf = JobFile(surface, bundles, twist, tuple(jobs))
    for job in jf.jobs:
        validate_job(jf, job)
    return jf


def job_file_to_doc(jf: JobFile) -> dict[str, Any]:
    """Serialize a parsed job file back to its canonical JSON document; the
    composite parse(serialize(parse(doc))) equals parse(doc)."""
    doc: dict[str, Any] = {
        "surface": {"name": jf.surface.name,
                    "gram": [list(row) for row in jf.surface.gram],
                    "canonical": list(jf.surface.canonical),
                    "c2": jf.surface.c2},
        "bundles": [{"name": name,
                     "ch": [rational_to_str(ch.ch0),
                            [rational_to_str(c) for c in ch.ch1.coeffs],
                            rational_to_str(ch.ch2)]}
                    for name, ch in jf.bundles.items()],
        "line_bundle": [rational_to_str(c) for c in jf.twist.ch1.coeffs],
        "jobs": [],
    }
    for job in jf.jobs:
        rec: dict[str, Any] = {"id": job.id, "kind": job.kind, **job.payload}
        if job.sweep is not None:
            rec["sweep_n"] = list(job.sweep)
        doc["jobs"].append(rec)
    return doc


def _resolve(jf: JobFile, jid: str, names: Any, field_name: str
             ) -> list[ChernCharacter]:
    if not isinstance(names, list) or not names:
        raise JobFileError(f"job {jid!r}: {field_name} must be a nonempty list "
                           f"of bundle names")
    out = []
    for name in names:
        if name not in jf.bundles:
            raise JobFileError(f"job {jid!r}: unknown bundle {name!r}")
        out.append(jf.bundles[name])
    return out


def _resolve_one(jf: JobFile, jid: str, name: Any) -> ChernCharacter:
    if name not in jf.bundles:
        raise JobFileError(f"job {jid!r}: unknown bundle {name!r}")
    return jf.bundles[name]


def _need_int(jid: str, payload: dict, key: str, minimum: int) -> int:
    if key not in payload:
        raise JobFileError(f"job {jid!r}: missing {key}")
    v = payload[key]
    if not is_int(v) or v < minimum:
        raise JobFileError(f"job {jid!r}: {key} must be an integer >= {minimum}")
    return v


def _check_sweep_min(jid: str, sweep: tuple[int, int], minimum: int) -> None:
    if sweep[0] < minimum:
        raise JobFileError(f"job {jid!r}: sweep over n must start at {minimum}")


def validate_job(jf: JobFile, job: Job) -> None:
    p = job.payload
    jid = job.id
    if job.kind == "scala":
        _resolve_one(jf, jid, p.get("bundle"))
        if job.sweep is None:
            _need_int(jid, p, "n", 1)
        else:
            _check_sweep_min(jid, job.sweep, 1)
    elif job.kind == "euler_two":
        _resolve(jf, jid, p.get("bundles"), "bundles")
    elif job.kind == "euler_bichar_two":
        _resolve(jf, jid, p.get("source"), "source")
        _resolve(jf, jid, p.get("target"), "target")
    elif job.kind == "euler_three":
        names = p.get("bundles")
        if not isinstance(names, list) or len(names) != 3:
            raise JobFileError(f"job {jid!r}: bundles must list exactly three names")
        _resolve(jf, jid, names, "bundles")
        if job.sweep is None:
            _need_int(jid, p, "n", 3)
        else:
            _check_sweep_min(jid, job.sweep, 3)
    elif job.kind == "sym_power_two":
        bundle = _resolve_one(jf, jid, p.get("bundle"))
        k = _need_int(jid, p, "k", 1)
        if k > SYM_POWER_MAX_K:
            raise JobFileError(f"job {jid!r}: k = {k} exceeds the sym_power_two "
                               f"budget k <= {SYM_POWER_MAX_K}")
        if not bundle.is_line_bundle_class(jf.surface):
            raise JobFileError(f"job {jid!r}: bundle must be a line-bundle class")
    elif job.kind == "h_top":
        k = _need_int(jid, p, "k", 1)
        if k > H_TOP_MAX_K:
            raise JobFileError(f"job {jid!r}: k = {k} exceeds the h_top budget "
                               f"k <= {H_TOP_MAX_K}")
        if job.sweep is None:
            _need_int(jid, p, "n", 1)
        else:
            _check_sweep_min(jid, job.sweep, 1)
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
    elif job.kind == "h0":
        h0 = p.get("h0")
        if (not isinstance(h0, list) or not h0
                or not all(is_int(v) and v >= 0 for v in h0)):
            raise JobFileError(f"job {jid!r}: h0 must be a nonempty list of "
                               f"nonnegative integers")
        if job.sweep is None:
            n = _need_int(jid, p, "n", 1)
            if n < len(h0):
                raise JobFileError(f"job {jid!r}: the product formula requires "
                                   f"n >= k (got n = {n}, k = {len(h0)})")
        else:
            _check_sweep_min(jid, job.sweep, len(h0))
    elif job.kind == "k0_invariants":
        types = len(set(_resolve(jf, jid, p.get("bundles"), "bundles")))
        if types > K0_DISTINCT_MAX_TYPES:
            raise JobFileError(f"job {jid!r}: {types} distinct bundle classes "
                               f"exceed the k0_invariants budget of "
                               f"{K0_DISTINCT_MAX_TYPES}")
        if job.sweep is None:
            _need_int(jid, p, "n", 1)
        else:
            _check_sweep_min(jid, job.sweep, 1)
    elif job.kind == "verify_complexes":
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
    if not SUBSET_KEY.fullmatch(key):
        raise JobFileError(f"job {jid!r}: bad subset key {key!r} (expected "
                           f"comma-joined positive integers without signs, "
                           f"blanks or leading zeros)")
    parts = [int(x) for x in key.split(",")]
    if any(x < 1 or x > k for x in parts):
        raise JobFileError(f"job {jid!r}: subset key {key!r} out of range 1..{k}")
    if len(set(parts)) != len(parts):
        raise JobFileError(f"job {jid!r}: subset key {key!r} repeats an element")
    return frozenset(parts)


def _terms_json(result: euler.ChiResult) -> list[dict[str, Any]]:
    return [{"label": t.label,
             "coefficient": rational_to_str(t.coefficient),
             "factors": [rational_to_str(f) for f in t.factors]}
            for t in result.terms]


def run_one_job(jf: JobFile, job: Job) -> list[ResultRow]:
    if job.kind == "verify_complexes":
        k_max = job.payload.get("k_max", 7)
        rows, _ok = run_verification(k_max, id_prefix=job.id)
        return rows
    if job.sweep is not None:
        lo, hi = job.sweep
        rows = []
        for n in range(lo, hi + 1):
            sub = Job(f"{job.id}[n={n}]", job.kind,
                      {**job.payload, "n": n}, None)
            rows.extend(run_one_job(jf, sub))
        return rows

    p = job.payload
    params: dict[str, Any] = {}
    terms: list[dict[str, Any]] = []
    if job.kind == "scala":
        n = p["n"]
        value = euler.chi_taut(jf.surface, n, jf.bundles[p["bundle"]], jf.twist)
        params = {"bundle": p["bundle"], "n": n}
    elif job.kind == "euler_two":
        chars = [jf.bundles[name] for name in p["bundles"]]
        res = euler.chi_taut_product_two(jf.surface, chars, jf.twist)
        value, terms = res.value, _terms_json(res)
        # "brute" stays in the params so that --out keeps its bytes
        params = {"bundles": list(p["bundles"]), "brute": False}
    elif job.kind == "euler_bichar_two":
        res = euler.chi_hom_pair_two(jf.surface,
                                     [jf.bundles[x] for x in p["source"]],
                                     [jf.bundles[x] for x in p["target"]])
        value, terms = res.value, _terms_json(res)
        params = {"source": list(p["source"]), "target": list(p["target"])}
    elif job.kind == "euler_three":
        e1, e2, e3 = (jf.bundles[x] for x in p["bundles"])
        res = euler.chi_taut_triple(jf.surface, p["n"], e1, e2, e3, jf.twist)
        value, terms = res.value, _terms_json(res)
        params = {"bundles": list(p["bundles"]), "n": p["n"]}
    elif job.kind == "sym_power_two":
        value = euler.chi_sym_power_two(jf.surface, jf.bundles[p["bundle"]],
                                        p["k"], jf.twist)
        # "swap_variant" stays in the params so that --out keeps its bytes
        params = {"bundle": p["bundle"], "k": p["k"], "swap_variant": "twisted"}
    elif job.kind == "h_top":
        k = p["k"]
        h2 = {_parse_subset_key(job.id, key, k): v for key, v in p["h2"].items()}
        value = Fraction(euler.top_cohomology_dim(k, p["n"], h2, p.get("q", 0)))
        params = {"k": k, "n": p["n"], "q": p.get("q", 0)}
    elif job.kind == "h0":
        value = Fraction(euler.global_sections_dim(p["h0"], p["n"]))
        params = {"h0": list(p["h0"]), "n": p["n"]}
    elif job.kind == "k0_invariants":
        chars = [jf.bundles[name] for name in p["bundles"]]
        res = euler.chi_product_invariants(jf.surface, p["n"], chars, jf.twist)
        value, terms = res.value, _terms_json(res)
        params = {"bundles": list(p["bundles"]), "n": p["n"]}
    else:  # pragma: no cover - kinds are validated at parse time
        raise JobFileError(f"job {job.id!r}: unhandled kind {job.kind!r}")
    return [ResultRow(job.id, job.kind, params, rational_to_str(value), terms)]


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
                    d = complexes.group_invariant_dim(cx, i, "slot")
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


def write_rows(path: str, rows: Sequence[ResultRow]) -> None:
    """Write the rows as the JSON array of `--out`."""
    payload = json.dumps([r.to_json() for r in rows], sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")


def run(path: str, out: str | None = None) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
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
        if not POSITIVE_DECIMAL.fullmatch(spec):
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
