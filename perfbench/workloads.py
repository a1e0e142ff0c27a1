"""Seeded job-file generators for the benchmark workloads.

Each generator draws bundle data and bundle choices from `random.Random(seed)`
and returns the job-file document handed to the CLI, together with what the
checks need to know about it.  The structure of a workload (job kinds, sizes,
sweep ranges) is fixed; only the data varies with the seed, so the work per
run stays comparable across seeds.  Every job is valid input for the CLI.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

# The plane blown up in three points: Pic = Z^4, H^2 = 1, E_i^2 = -1.
BLOWUP_P2_3 = {"name": "P2-blown-up-3",
               "gram": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
               "canonical": [-3, 1, 1, 1], "c2": 6}


@dataclass
class Workload:
    """A generated job file plus the facts its outputs are checked against.

    `integral` names the jobs whose bundles and twist have integral data, so
    their values must be integers; each pair in `pairs` names two jobs whose
    values must agree.
    """

    doc: dict
    jobs: list[str] = field(default_factory=list)
    integral: set[str] = field(default_factory=set)
    pairs: list[tuple[str, str]] = field(default_factory=list)

    def add(self, job_id: str, kind: str, integral: bool, **fields) -> str:
        self.doc["jobs"].append({"id": job_id, "kind": kind, **fields})
        self.jobs.append(job_id)
        if integral:
            self.integral.add(job_id)
        return job_id


def _coords(rng: random.Random, rank: int, lo: int, hi: int) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(rank)]


def _line(rng, name, rank, lo=-2, hi=2):
    return {"name": name, "rank": 1, "c1": _coords(rng, rank, lo, hi), "c2": 0}


def _bundle(rng, name, rank, pic, c2_lo=-1, c2_hi=3):
    return {"name": name, "rank": rank, "c1": _coords(rng, pic, -1, 1),
            "c2": rng.randint(c2_lo, c2_hi)}


def _nonzero(rng, bound):
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def _virtual(rng, name, pic, denom):
    """A virtual class with fractional data over one fixed denominator."""
    return {"name": name,
            "ch": [f"{_nonzero(rng, 3)}/{denom}",
                   [f"{rng.randint(-2, 2)}/{denom}" for _ in range(pic)],
                   f"{_nonzero(rng, 3)}/{denom}"]}


def _all_subset_keys(k: int) -> list[str]:
    return [",".join(map(str, s)) for r in range(1, k + 1)
            for s in itertools.combinations(range(1, k + 1), r)]


def _h_top_fields(rng, k, n):
    return {"k": k, "n": n, "q": rng.randint(0, 2),
            "h2": {key: rng.randint(0, 4) for key in _all_subset_keys(k)}}


def _start(surface, bundles, twist) -> Workload:
    return Workload({"surface": surface, "bundles": bundles, "line_bundle": twist,
                     "jobs": []})


def small_batch(seed: int) -> Workload:
    """About 60 cheap jobs of every kind on the rank-4 blow-up of P2."""
    rng = random.Random(seed)
    pic = 4
    lines = [_line(rng, f"L{i}", pic) for i in range(4)]
    bundles = lines + [_bundle(rng, "E0", 2, pic), _bundle(rng, "E1", 3, pic),
                       _bundle(rng, "N0", -1, pic, -2, 2),
                       _virtual(rng, "V0", pic, 2), _virtual(rng, "V1", pic, 3)]
    wl = _start(BLOWUP_P2_3, bundles, _coords(rng, pic, -1, 1))
    names = [b["name"] for b in bundles]
    integral = {b["name"] for b in bundles if "rank" in b}
    line_names = [b["name"] for b in lines]

    def pick(k):
        chosen = [rng.choice(names) for _ in range(k)]
        return chosen, integral.issuperset(chosen)

    for i in range(6):
        (b,), ok = pick(1)
        wl.add(f"scala-{i}", "scala", ok, bundle=b, sweep_n=[1, 6])
    for i in range(5):
        bs, ok = pick(3)
        wl.add(f"three-{i}", "euler_three", ok, bundles=bs, sweep_n=[3, 6])
    for i, k in enumerate([1, 2, 3, 4] * 3):
        bs, ok = pick(k)
        wl.add(f"two-{i}", "euler_two", ok, bundles=bs)
    for i in range(3):
        (b,), ok = pick(1)
        wl.pairs.append((wl.add(f"ident-{i}-two", "euler_two", ok, bundles=[b]),
                         wl.add(f"ident-{i}-scala", "scala", ok, bundle=b, n=2)))
    for i, (k, khat) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2),
                                   (2, 3), (3, 2), (3, 3), (4, 3)]):
        src, ok_s = pick(k)
        tgt, ok_t = pick(khat)
        wl.add(f"bichar-{i}", "euler_bichar_two", ok_s and ok_t,
               source=src, target=tgt)
    for i, k in enumerate([1, 2, 3] * 2):
        wl.add(f"sym-{i}", "sym_power_two", True, bundle=rng.choice(line_names), k=k)
    for i, (k, n) in enumerate([(1, 3), (2, 2), (2, 4), (3, 2), (3, 3), (4, 2)]):
        bs, ok = pick(k)
        wl.add(f"k0-{i}", "k0_invariants", ok, bundles=bs, n=n)
    bs, ok = pick(2)
    wl.add("k0-sweep", "k0_invariants", ok, bundles=bs, sweep_n=[1, 4])
    for i, (k, n) in enumerate([(1, 2), (2, 2), (2, 3), (3, 3)]):
        wl.add(f"htop-{i}", "h_top", True, **_h_top_fields(rng, k, n))
    for i, k in enumerate([1, 2, 3, 2]):
        wl.add(f"h0-{i}", "h0", True, h0=_coords(rng, k, 0, 5), n=k + i % 2)
    wl.add("h0-sweep", "h0", True, h0=_coords(rng, 2, 0, 5), sweep_n=[2, 5])
    return wl


def big_sums(seed: int) -> Workload:
    """Nine large subset, set-partition and orbit enumerations on P1xP1."""
    rng = random.Random(seed)
    pic = 2
    bundles = [_line(rng, f"A{i}", pic, -1, 2) for i in range(3)]
    bundles += [_bundle(rng, "R0", 2, pic, 0, 2), _bundle(rng, "N0", -1, pic, -1, 1),
                _virtual(rng, "V0", pic, 2), _virtual(rng, "V1", pic, 3)]
    wl = _start({"preset": "P1xP1"}, bundles, _coords(rng, pic, 0, 1))

    def pick(k, virtual):
        # A fixed mix per job keeps the fraction sizes, and so the cost,
        # comparable across seeds; only the line bundles are drawn.
        chosen = ["V0", "V1"] * (virtual // 2) + ["V0"] * (virtual % 2)
        chosen += ["R0", "N0"] + [rng.choice(["A0", "A1", "A2"])
                                  for _ in range(k - virtual - 2)]
        rng.shuffle(chosen)
        return chosen, virtual == 0

    for k, virtual in ((9, 0), (10, 2)):
        bs, ok = pick(k, virtual)
        wl.add(f"two-{k}", "euler_two", ok, bundles=bs)
    for virtual in (0, 1):
        src, ok_s = pick(5, virtual)
        tgt, ok_t = pick(5, virtual)
        wl.add(f"bichar-5x5-{virtual}", "euler_bichar_two", ok_s and ok_t,
               source=src, target=tgt)
    for k, n, virtual in ((6, 6, 2), (7, 4, 0)):
        bs, ok = pick(k, virtual)
        wl.add(f"k0-{k}x{n}", "k0_invariants", ok, bundles=bs, n=n)
    for n in (8, 5):
        wl.add(f"htop-8x{n}", "h_top", True, **_h_top_fields(rng, 8, n))
    # One small invariant computation so that every layer does some work.
    wl.add("sym-3", "sym_power_two", True, bundle=rng.choice(["A0", "A1", "A2"]), k=3)
    return wl


def verify_invariants(seed: int) -> Workload:
    """The complexes verification suite plus symmetric powers k = 3..5 on P2."""
    rng = random.Random(seed)
    bundles = [_line(rng, f"L{i}", 1, -2, 3) for i in range(3)]
    wl = _start({"preset": "P2"}, bundles, _coords(rng, 1, -1, 2))
    names = [b["name"] for b in bundles]
    for i, k in enumerate([3, 3, 4, 4, 5]):
        wl.add(f"sym-{i}", "sym_power_two", True, bundle=rng.choice(names), k=k)
    wl.add("verify", "verify_complexes", False, k_max=5)
    return wl


WORKLOADS = {"small-batch": small_batch, "big-sums": big_sums,
             "verify-invariants": verify_invariants}
