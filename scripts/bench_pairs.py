"""Compare two source checkouts on the benchmark, in alternating pairs.

Usage (from anywhere):

  python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_<pr>.json \
      [--pairs 10] [--seed 1] [--workload NAME ...] \
      [--parent REV] [--change TEXT]

For each workload, each checkout's own `perfbench/run.py` runs --pairs times
at --trace 0 for the benchmark's own run length, the two sides alternating:
the parent runs first in even pairs, the change in odd ones.  The workloads
are those that CHANGE_DIR's `perfbench/workloads.py` defines.  The output file has one entry per workload
with each end-to-end metric's inclusive quartiles on both sides, the number
of pairs whose change run reads lower (ties count for neither side), and
whether every run reported "correct": true.  Nothing under either
checkout's `perfbench/` is changed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

def quartiles(values: list[float]) -> dict[str, float]:
    """Inclusive quartiles, rounded to 4 decimals."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(workload: str, seed: int, pairs: list[tuple[dict, dict]]) -> dict:
    """One workload's entry from its (parent, change) pairs of result lines,
    each the JSON object that ends a `perfbench/run.py` run.  A metric is
    summarized over the pairs in which both sides report it."""
    names = [name for name in pairs[0][0]["metrics"]
             if all(name in side["metrics"] for pair in pairs for side in pair)]
    metrics = {}
    for name in names:
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        metrics[name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_lower_pairs": sum(c < p for p, c in zip(parent, change)),
        }
    return {"workload": workload, "seed": seed, "pairs": len(pairs),
            "all_correct": all(side.get("correct") is True
                               for pair in pairs for side in pair),
            "metrics": metrics}


def workload_names(checkout: Path) -> list[str]:
    """The workloads that a checkout's `perfbench/workloads.py` defines."""
    name = "bench_pairs_workloads"
    spec = importlib.util.spec_from_file_location(
        name, checkout / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return list(module.WORKLOADS)


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in a checkout; returns its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} exited "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def host_description() -> str:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    cores = os.cpu_count()
    return (f"{cores}-core {model or platform.machine()}, "
            f"{platform.python_implementation()} {platform.python_version()}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--out", type=Path, required=True,
                        help="the BENCH_<pr>.json file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--parent", default="", help="the parent's revision")
    parser.add_argument("--change", default="", help="what the change does")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent_dir, args.change_dir):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py in {checkout}")
    known = workload_names(args.change_dir)
    unknown = sorted(set(args.workload or ()) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                     f"{args.change_dir} defines {', '.join(known)}")

    results = []
    for workload in args.workload or known:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                checkout = args.parent_dir if side == "parent" else args.change_dir
                got[side] = run_once(checkout, workload, args.seed)
            pairs.append((got["parent"], got["change"]))
            print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
        results.append(summarize(workload, args.seed, pairs))

    doc = {
        "change": args.change,
        "parent": args.parent,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--trace 0",
        "method": f"{args.pairs} alternating parent/change pairs per workload at "
                  f"seed {args.seed} (the parent runs first in even pairs), each "
                  f"side in its own copy; quartiles are the inclusive method; "
                  f"change_lower_pairs counts the pairs whose change run reads "
                  f"lower",
        "host": host_description(),
        "results": results,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
