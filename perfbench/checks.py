"""Correctness checks on the rows one CLI invocation wrote with `--out`.

The checks read only the contract fields of a row (`id`, `kind`, `value`,
`terms` with `coefficient` and `factors`), so a change of term labels is not
a failure while any change of value is.  A row belongs to the job whose id
precedes the first "[" of the row id (sweeps and verification checks add a
bracketed suffix).
"""

from __future__ import annotations

from fractions import Fraction

from workloads import Workload


def rational(text: str) -> Fraction | None:
    """The exact value of a row or term entry, or None if it is not a number."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def job_of(row_id: str) -> str:
    return row_id.split("[", 1)[0]


def row_problems(row: dict, kind: str, integral: bool) -> list[str]:
    """What is wrong with one row of a job of the given kind."""
    value = row.get("value", "")
    if value.startswith(("ERROR", "FAIL")):
        return [f"{row['id']}: {value}"]
    if row.get("kind") != kind:
        return [f"{row['id']}: kind {row.get('kind')!r}, expected {kind!r}"]
    if kind == "verify_complexes":
        return [] if value == "PASS" else [f"{row['id']}: {value!r} is not PASS"]
    number = rational(value)
    if number is None:
        return [f"{row['id']}: value {value!r} is not a rational"]
    problems = []
    if integral and number.denominator != 1:
        problems.append(f"{row['id']}: value {value} of integral data is not an integer")
    terms = row.get("terms") or []
    if terms:
        total = Fraction(0)
        for term in terms:
            entries = [rational(x) for x in [term["coefficient"], *term["factors"]]]
            if None in entries:
                return problems + [f"{row['id']}: term {term} is not rational"]
            product = Fraction(1)
            for x in entries:
                product *= x
            total += product
        if total != number:
            problems.append(f"{row['id']}: terms recombine to {total}, not {value}")
    return problems


def failed_jobs(wl: Workload, exit_code: int, rows: list[dict] | None,
                expected: dict[str, str] | None) -> dict[str, list[str]]:
    """Map each failed job id of one invocation to its reasons.

    A nonzero exit code or a missing `--out` file fails every job.  Otherwise
    a job fails if a row is an ERROR or FAIL row, it has no row, a row fails
    `row_problems`, a value differs from `expected` (row id -> value, for the
    seeds whose values were recorded), or it belongs to a pair of jobs whose
    values disagree.
    """
    if exit_code != 0 or rows is None:
        reason = f"exit code {exit_code}" if exit_code else "no --out file"
        return {job: [reason] for job in wl.jobs}
    kinds = {job["id"]: job["kind"] for job in wl.doc["jobs"]}
    by_job: dict[str, list[dict]] = {job: [] for job in wl.jobs}
    failed: dict[str, list[str]] = {}
    for row in rows:
        job = job_of(str(row.get("id")))
        if job not in by_job:
            failed.setdefault(job, []).append(f"unexpected row {row.get('id')!r}")
            continue
        by_job[job].append(row)
        problems = row_problems(row, kinds[job], job in wl.integral)
        if problems:
            failed.setdefault(job, []).extend(problems)
    for job, job_rows in by_job.items():
        if not job_rows:
            failed.setdefault(job, []).append("no row")
    if expected is not None:
        got = {row["id"]: row["value"] for row in rows}
        for row_id in sorted(set(got) | set(expected)):
            if got.get(row_id) != expected.get(row_id):
                failed.setdefault(job_of(row_id), []).append(
                    f"{row_id}: value {got.get(row_id)!r}, recorded "
                    f"{expected.get(row_id)!r}")
    for a, b in wl.pairs:
        va = [row["value"] for row in by_job[a]]
        vb = [row["value"] for row in by_job[b]]
        if va != vb:
            failed.setdefault(a, []).append(f"{a} = {va} but {b} = {vb}")
            failed.setdefault(b, []).append(f"{b} = {vb} but {a} = {va}")
    return failed


def nonzero_term_share(rows: list[dict]) -> float:
    """Share of emitted terms whose contribution is not zero; 1.0 when no
    terms were emitted, since then no term was wasted."""
    emitted = useful = 0
    for row in rows:
        for term in row.get("terms") or []:
            emitted += 1
            if rational(term["coefficient"]) and all(
                    rational(f) for f in term["factors"]):
                useful += 1
    return useful / emitted if emitted else 1.0
