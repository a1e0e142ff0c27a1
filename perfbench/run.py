"""Benchmark of the tautchi command line on seeded, generated job files.

Usage (from the root of a source checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload NAME --seed N --record

The workload's job file is generated from the seed.  The benchmark then runs
it as a closed loop with one client: one fresh `tautchi --jobs FILE --out
FILE` process at a time, each started when the previous one has exited and
its output has been checked, until S seconds have passed.  The program comes
from `src/` of the checkout.  The last line of standard output is a JSON
object {"correct", "attempted", "failed", "metrics"}; `failed / attempted`
is the failed-job share.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1, traced and untraced processes alternate and the metrics are
the per-layer ones.  --record writes the values of one run to
perfbench/expected/ as the recorded values for that seed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import metrics
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected"
BUDGET_S = 150          # no process runs past this; a whole run must end by 180 s
MIN_INVOCATIONS = 3


@dataclass
class Invocation:
    """One CLI process: its exit code, phase timings and checked output."""

    exit_code: int
    traced: bool
    setup_s: float | None = None
    wall_s: float | None = None
    job_ms: list[float] = field(default_factory=list)
    rss_mb: float | None = None
    rows: list[dict] | None = None
    out_bytes: int = 0
    layers: dict[str, float] | None = None
    notes: list[str] = field(default_factory=list)
    stderr: str = ""


def _read_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def invoke(jobs_path: Path, work: Path, traced: bool, timeout: float) -> Invocation:
    """Run the CLI once on the job file, through the launcher."""
    out, timing, spans = work / "out.json", work / "timing.json", work / "spans.json"
    for stale in (out, timing, spans):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, "-I", str(HERE / "launch.py"), str(SRC), str(timing),
           str(spans) if traced else "-", "--", "--jobs", str(jobs_path),
           "--out", str(out)]
    with open(work / "stderr.txt", "w", encoding="utf-8") as err:
        spawned = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, cwd=work)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = -9
    inv = Invocation(code, traced)
    if code != 0:
        inv.stderr = (work / "stderr.txt").read_text(encoding="utf-8")[-500:]
    record = _read_json(timing)
    if record is not None and record["first_job_ns"] is not None:
        inv.setup_s = (record["first_job_ns"] - spawned) * 1e-9
        inv.wall_s = (record["end_ns"] - record["first_job_ns"]) * 1e-9
        inv.job_ms = [ns * 1e-6 for ns in record["job_ns"]]
        inv.rss_mb = record["peak_rss_kb"] / 1024
    inv.rows = _read_json(out)
    if inv.rows is not None:
        inv.out_bytes = out.stat().st_size
    if traced:
        doc = _read_json(spans)
        if doc is not None:
            inv.layers, notes = metrics.layer_metrics(doc)
            inv.notes.extend(notes)
            rows = inv.rows or []
            inv.layers.update({"cli.rows": len(rows), "cli.out_bytes": inv.out_bytes,
                               "euler.nonzero_term_share": checks.nonzero_term_share(rows)})
    return inv


def _warm_up() -> None:
    """Import the package once so that every timed process finds compiled
    bytecode, as an installed package would."""
    subprocess.run([sys.executable, "-I", "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); import tautchi.cli",
                    str(SRC)], check=True, timeout=60,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)


def _expected_values(workload: str, seed: int) -> dict[str, str] | None:
    doc = _read_json(EXPECTED / f"{workload}.json") or {}
    return doc.get(str(seed))


def measure(wl: Workload, jobs_path: Path, work: Path, seconds: float,
            trace: bool, expected: dict[str, str] | None
            ) -> tuple[list[Invocation], int, int, list[str], list[str]]:
    """Run processes until `seconds` have passed and enough samples exist;
    returns the invocations, jobs attempted, jobs failed, the reasons of the
    failures and other notes."""
    start = time.monotonic()
    invocations: list[Invocation] = []
    attempted = failed = 0
    problems: list[str] = []
    notes: list[str] = []

    def enough() -> bool:
        plain = [i for i in invocations if not i.traced]
        if trace:
            return len(plain) >= 2 and len(invocations) - len(plain) >= 2
        samples = sum(len(i.job_ms) for i in plain)
        return len(plain) >= MIN_INVOCATIONS and samples > metrics.TAIL_BEYOND

    while time.monotonic() - start < seconds or not enough():
        left = BUDGET_S - (time.monotonic() - start)
        if left <= 0:
            notes.append(f"stopped at the {BUDGET_S} s budget")
            break
        traced = trace and len(invocations) % 2 == 1
        inv = invoke(jobs_path, work, traced, timeout=left)
        invocations.append(inv)
        bad = checks.failed_jobs(wl, inv.exit_code, inv.rows, expected)
        attempted += len(wl.jobs)
        failed += sum(1 for job in wl.jobs if job in bad)
        inv.rows = None     # checked; dropping them keeps the parent small
        for job, reasons in sorted(bad.items()):
            problems.append(f"job {job}: " + "; ".join(reasons[:3]))
        if inv.stderr:
            problems.append(f"exit code {inv.exit_code}: {inv.stderr}")
        notes.extend(n for n in inv.notes if n not in notes)
        if inv.exit_code < 0:
            break
    return invocations, attempted, failed, problems, notes


def end_to_end(invocations: list[Invocation]) -> tuple[dict[str, tuple], list[str]]:
    timed = [i for i in invocations if i.wall_s is not None]
    jobs = [ms for i in timed for ms in i.job_ms]
    value, pct, n = metrics.tail(jobs)
    out = {"setup_s": (statistics.median(i.setup_s for i in timed), "s"),
           "wall_s": (statistics.median(i.wall_s for i in timed), "s"),
           "job_p50_ms": (statistics.median(jobs), "ms"),
           "job_tail_ms": (value, "ms"),
           "peak_rss_mb": (statistics.median(i.rss_mb for i in timed), "MB")}
    notes = [f"{len(timed)} processes, {n} job latencies; job_tail_ms is "
             f"p{pct:.1f} (ten samples above it)"]
    return out, notes


def per_layer(invocations: list[Invocation]) -> tuple[dict[str, tuple], list[str]]:
    traced = [i for i in invocations if i.traced and i.layers is not None]
    plain = [i for i in invocations if not i.traced and i.wall_s is not None]
    notes = [f"{len(traced)} traced and {len(plain)} untraced processes"]
    out: dict[str, tuple] = {}
    names = sorted(set().union(*(i.layers for i in traced)))
    for name in names:
        values = [i.layers[name] for i in traced if name in i.layers]
        unit = metrics.unit_of(name)
        counted = unit in ("count", "bytes")
        if counted and len(set(values)) > 1:
            notes.append(f"count {name} varied between processes: {sorted(set(values))}")
        out[name] = ((statistics.median_low if counted else statistics.median)(values),
                     unit)
    traced_wall = [i.wall_s for i in traced if i.wall_s is not None]
    out["trace.overhead"] = (statistics.median(traced_wall)
                             / statistics.median(i.wall_s for i in plain),
                             metrics.unit_of("trace.overhead"))
    self_total = sum(out[f"{layer}.self_ms"][0] for layer in metrics.LAYERS
                     if f"{layer}.self_ms" in out)
    if self_total:
        notes.append("self-time shares: " + ", ".join(
            f"{layer} {100 * out[f'{layer}.self_ms'][0] / self_total:.1f}%"
            for layer in metrics.LAYERS if f"{layer}.self_ms" in out))
    return out, notes


def record(wl: Workload, jobs_path: Path, work: Path, workload: str, seed: int) -> int:
    """Run once, check everything but recorded values, and record the values."""
    inv = invoke(jobs_path, work, traced=False, timeout=BUDGET_S)
    bad = checks.failed_jobs(wl, inv.exit_code, inv.rows, None)
    if bad:
        for job, reasons in sorted(bad.items()):
            print(f"job {job}: " + "; ".join(reasons), file=sys.stderr)
        return 1
    path = EXPECTED / f"{workload}.json"
    doc = _read_json(path) or {}
    doc[str(seed)] = {row["id"]: row["value"] for row in inv.rows}
    EXPECTED.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(doc.items(), key=lambda kv: int(kv[0]))), fh,
                  indent=1, sort_keys=False)
        fh.write("\n")
    print(f"recorded {len(inv.rows)} values of {workload} seed {seed} in {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record this seed's values instead of measuring")
    args = parser.parse_args(argv)

    if not (SRC / "tautchi" / "cli.py").is_file():
        print(f"error: no tautchi source at {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    try:
        jobs_path = work / "jobs.json"
        jobs_path.write_text(json.dumps(wl.doc, indent=1), encoding="utf-8")
        if args.record:
            return record(wl, jobs_path, work, args.workload, args.seed)
        expected = _expected_values(args.workload, args.seed)
        _warm_up()
        invocations, attempted, failed, problems, run_notes = measure(
            wl, jobs_path, work, args.seconds, bool(args.trace), expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    notes = [f"workload {args.workload}, seed {args.seed}, {len(wl.jobs)} jobs; "
             + ("values compared with recorded ones" if expected is not None
                else "no recorded values for this seed")] + run_notes
    try:
        found, more = (per_layer if args.trace else end_to_end)(invocations)
    except (ValueError, IndexError) as exc:
        for line in notes + problems[:20]:
            print(f"# {line}", file=sys.stderr)
        print(f"error: too few timed processes for the metrics: {exc}", file=sys.stderr)
        return 1
    for line in notes + more + problems[:20]:
        print(f"# {line}")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in found.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
