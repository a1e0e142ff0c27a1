"""Pure summary functions: the tail-percentile rule, span self times and the
per-layer metrics of one traced invocation."""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("cli", "euler", "symgroup", "complexes", "surface")
TAIL_BEYOND = 10
UNITS = {"cli.out_bytes": "bytes", "euler.nonzero_term_share": "ratio",
         "surface.us_per_call": "us", "trace.overhead": "ratio"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric: listed above, else ms or count by name."""
    return UNITS.get(name, "ms" if name.endswith("_ms") else "count")


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count): with n sorted samples the
    value is the (n - 10)-th smallest, so exactly ten samples rank above it,
    and its percentile is 100 * (n - 10) / n.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"the tail needs more than {TAIL_BEYOND} samples, got {n}")
    ordered = sorted(samples)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _covered(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of the intervals, clipped to [start, end]."""
    total, reach = 0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[tuple]) -> list[int]:
    """Self time of each span (name, start, end, parent, ...): its duration
    minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [span[2] - span[1] - _covered(children[i], span[1], span[2])
            for i, span in enumerate(spans)]


def layer_metrics(doc: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced invocation, from the document written
    by `tracer.Recorder.write`.  Returns the metrics and notes on metrics that
    could not be derived because a wrapped name is missing."""
    names = doc["names"]
    spans = [(names[s[0]], s[1], s[2], s[3]) for s in doc["spans"]]
    own = self_times(spans)
    missing = set(doc["missing"])
    notes = [f"not wrapped (missing): {m}" for m in sorted(missing)] + doc["notes"]
    counters = doc["counters"]
    ms = 1e-6

    calls: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    layer_calls: dict[str, int] = defaultdict(int)
    first: dict[str, tuple] = {}
    for span, self_t in zip(spans, own):
        name = span[0]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        total_ns[name] += span[2] - span[1]
        self_ns[layer] += self_t
        layer_calls[layer] += 1
        first.setdefault(name, span)

    out: dict[str, float] = {}

    def put(metric, needs, value):
        gone = [n for n in needs if n in missing]
        if gone:
            notes.append(f"{metric} absent: {', '.join(gone)} not wrapped")
        else:
            out[metric] = value()

    run, parse, render = (first.get(n) for n in
                          ("cli.run", "cli.parse_job_file", "cli.render_table"))
    put("cli.parse_ms", ["cli.run", "cli.parse_job_file"],
        lambda: (parse[2] - run[1]) * ms if run and parse else 0.0)
    put("cli.run_self_ms", ["cli.run_one_job"],
        lambda: sum(t for s, t in zip(spans, own)
                    if s[0] in ("cli.run_one_job", "cli.run_verification")) * ms)
    put("cli.emit_ms", ["cli.run", "cli.render_table"],
        lambda: (run[2] - render[1]) * ms if run and render else 0.0)
    euler_names = [n for n in calls if n.startswith("euler.")]
    put("euler.calls", [], lambda: sum(calls[n] for n in euler_names))
    put("euler.terms", [], lambda: counters.get("euler.terms", 0))
    put("symgroup.orbit_reps", ["symgroup.product_orbit_reps"],
        lambda: counters.get("symgroup.orbit_reps", 0))
    put("complexes.build_ms", ["complexes.build_complex"],
        lambda: total_ns["complexes.build_complex"] * ms)
    put("complexes.basis_dim", ["complexes.build_complex"],
        lambda: counters.get("complexes.basis_dim", 0))
    put("complexes.nnz", ["complexes.build_complex"],
        lambda: counters.get("complexes.nnz", 0))
    rank = "complexes.SparseRationalMatrix.rank"
    put("complexes.rank_calls", [rank], lambda: calls[rank])
    put("complexes.rank_nnz", [rank], lambda: counters.get("complexes.rank_nnz", 0))
    put("complexes.rank_ms", [rank], lambda: total_ns[rank] * ms)
    put("complexes.invariant_ms", ["complexes.group_invariant_dim"],
        lambda: total_ns["complexes.group_invariant_dim"] * ms)
    put("complexes.group_elements", ["complexes.group_invariant_dim"],
        lambda: counters.get("complexes.group_elements", 0))
    put("surface.ch_tensor_calls", ["surface.ch_tensor"],
        lambda: calls["surface.ch_tensor"])
    put("surface.hrr_chi_calls", ["surface.hrr_chi"], lambda: calls["surface.hrr_chi"])
    put("surface.us_per_call", [],
        lambda: self_ns["surface"] * 1e-3 / max(layer_calls["surface"], 1))
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ns[layer] * ms
    out["trace.spans"] = len(spans)
    return out, notes
