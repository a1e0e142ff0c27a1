"""Check the result line of a benchmark run.

Usage (from the root of a source checkout):

  python3 perfbench/run.py --workload NAME ... > run.txt
  python3 scripts/check_bench_result.py run.txt [--per-layer]

The last line of run.txt must be a JSON object in strict JSON: NaN and
Infinity are rejected.  Its "correct" field must be true.  With --per-layer
(for a `--trace 1` run) every per-layer metric named in BENCHMARK.json must
be present.  Exits 0 if all hold, else prints the reason and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def problems(last_line: str, per_layer: list[str] | None) -> list[str]:
    """Why the result line fails the checks; empty if it passes."""
    try:
        result = json.loads(last_line, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"last line is not strict JSON: {exc}"]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}, not true")
    metrics = result.get("metrics")
    if per_layer is not None:
        if not isinstance(metrics, dict):
            return found + ["no metrics object"]
        absent = [name for name in per_layer if name not in metrics]
        if absent:
            found.append("per-layer metrics absent: " + ", ".join(absent))
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", type=Path, help="standard output of the run")
    parser.add_argument("--per-layer", action="store_true",
                        help="require every per-layer metric of BENCHMARK.json")
    args = parser.parse_args(argv)
    lines = args.output.read_text(encoding="utf-8").splitlines()
    names = None
    if args.per_layer:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [m["name"] for m in bench["per_layer"]]
    found = problems(lines[-1] if lines else "", names)
    for line in found:
        print(f"{args.output}: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
