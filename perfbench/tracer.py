"""Per-layer tracing of the tautchi package from outside its source.

`install()` replaces the public functions of each module (the layers `cli`,
`euler`, `symgroup`, `complexes` and `surface`) with wrappers that record a
span {name, start, end, parent, job} per call.  A function is replaced at
every name a tautchi module binds it under, so `tautchi.euler.hrr_chi` is
wrapped as well as `tautchi.surface.hrr_chi`; methods are replaced on their
class.  A few wrappers also count work from the call's result.  Spans stay in
memory until `Recorder.write`.

A target that no longer exists is listed under "missing" instead of failing,
so a later change that deletes a function only makes its metrics absent.
Very hot leaf helpers (`Permutation.__call__`, `ch_dual`, `as_fraction`) are
not wrapped: their cost is charged to the layer that calls them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from math import factorial

# Layer -> attribute paths in tautchi.<layer>.
TARGETS = {
    "cli": ["main", "run", "parse_job_file", "run_one_job", "run_verification",
            "render_table"],
    "euler": ["chi_taut", "chi_taut_product_two", "chi_hom_pair_two",
              "chi_taut_triple", "chi_product_invariants", "chi_sym_power_two",
              "chi_ext_power_two", "top_cohomology_dim", "global_sections_dim"],
    "symgroup": ["product_orbit_reps", "sign_on_subset", "position_sign",
                 "Permutation.sign", "Permutation.inverse"],
    "complexes": ["build_complex", "verify_exactness", "group_invariant_dim",
                  "swap_invariant_kernel_dim", "sym_power_multiplicity",
                  "ext_power_multiplicity", "diagonal_multiplicity",
                  "surviving_count", "expected_dim", "enumerated_dim",
                  "slot_action_matrix", "swap_action_matrix",
                  "SparseRationalMatrix.rank"],
    "surface": ["ch_tensor", "ch_tensor_all", "ch_hom", "hrr_chi",
                "ch_sym_cotangent", "ch_tangent", "ch_anticanonical",
                "sym_pow_chi", "gen_binomial", "BundleSpec.chern",
                "ChernCharacter.line_bundle", "ChernCharacter.is_line_bundle_class"],
}

JOB_SPAN = "cli.run_one_job"
GROUP_ORDER = {"swap": lambda k: 2, "slot": factorial,
               "slot_swap": lambda k: 2 * factorial(k)}


def _euler_terms(fn, args, kwargs, result):
    terms = getattr(result, "terms", None)
    return {"euler.terms": len(terms)} if terms is not None else {}


def _orbit_reps(fn, args, kwargs, result):
    return {"symgroup.orbit_reps": len(result)}


def _complex_size(fn, args, kwargs, result):
    return {"complexes.basis_dim": sum(len(b) for b in result.basis.values()),
            "complexes.nnz": sum(m.nnz() for m in result.differentials.values())}


def _rank_size(fn, args, kwargs, result):
    return {"complexes.rank_nnz": args[0].nnz()}


def _group_elements(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    return {"complexes.group_elements": GROUP_ORDER[bound["group"]](bound["cx"].k)}


# Span name -> counter hook, called after the span ends with the original
# function, its arguments and its result.
COUNTERS = {
    **{f"euler.{name}": _euler_terms for name in TARGETS["euler"]},
    "symgroup.product_orbit_reps": _orbit_reps,
    "complexes.build_complex": _complex_size,
    "complexes.SparseRationalMatrix.rank": _rank_size,
    "complexes.group_invariant_dim": _group_elements,
}


class Recorder:
    """Spans and counters of one process, recorded by the installed wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: int | None = None
        self.jobs_started = 0
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self.notes: list[str] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                self._count(name, hook, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def job_scope(self, fn):
        """Give every span under a top-level call of fn that call's job index."""
        def scoped(*args, **kwargs):
            if self.job is not None:
                return fn(*args, **kwargs)
            self.job = self.jobs_started
            self.jobs_started += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.job = None
        return scoped

    def _count(self, name, hook, fn, args, kwargs, result) -> None:
        try:
            found = hook(fn, args, kwargs, result)
        except (AttributeError, KeyError, TypeError, IndexError) as exc:
            self.notes.append(f"counter of {name} failed: {type(exc).__name__}: {exc}")
            return
        for key, value in found.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def write(self, path: str) -> None:
        names: dict[str, int] = {}
        rows = [[names.setdefault(s[0], len(names)), s[1], s[2], s[3], s[4]]
                for s in self.spans]
        doc = {"names": list(names), "spans": rows, "counters": self.counters,
               "missing": self.missing, "notes": sorted(set(self.notes))}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _bindings(fn):
    """Every (module, attribute) in the loaded tautchi package bound to fn."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tautchi" or mod_name.startswith("tautchi.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                yield mod, attr


def install() -> Recorder:
    """Wrap every target that exists and return the recorder they write to."""
    rec = Recorder()
    for layer, paths in TARGETS.items():
        try:
            module = importlib.import_module(f"tautchi.{layer}")
        except ModuleNotFoundError:
            rec.missing.extend(f"{layer}.{path}" for path in paths)
            continue
        for path in paths:
            name = f"{layer}.{path}"
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = (inspect.getattr_static(owner, attr, None)
                   if owner is not None else None)
            if raw is None:
                rec.missing.append(name)
                continue
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapper = rec.wrap(name, fn, COUNTERS.get(name))
            if name == JOB_SPAN:
                wrapper = rec.job_scope(wrapper)
            if owner_name:
                setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
            else:
                for mod, bound_as in _bindings(fn):
                    setattr(mod, bound_as, wrapper)
    return rec
