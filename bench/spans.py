"""Per-layer spans recorded from outside symgen.

``Tracer.patched`` swaps each traced function for a timing wrapper in every
``symgen`` module namespace that binds it (and on the class, for methods),
and puts the originals back on exit.  Spans nest: a span's self time is its
duration minus the durations of the traced spans it encloses, so the self
times of one job add up to the job's traced time.  Spans are aggregated per
metric as they close, rather than stored, because the hot ones (``Poly``
multiplication, partition unions) close millions of times per run.

Memo caches are read from ``cache_info()`` at the end of each traced job;
the job runner empties them before the next one.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (metric, owner, attributes): the owner is a symgen module or "module.Class";
# all attributes of one entry feed the same metric.
FUNCTIONS = (
    ("exactalg.poly_mul", "exactalg.Poly", ("__mul__", "__rmul__")),
    ("exactalg.poly_gcd", "exactalg", ("poly_gcd",)),
    ("exactalg.try_exact_div", "exactalg", ("try_exact_div",)),
    ("exactalg.ratfunc_make", "exactalg.RatFunc", ("make",)),
    ("exactalg.cyclo_mul", "exactalg.CycloElem", ("__mul__", "__rmul__")),
    ("exactalg.cyclo_inverse", "exactalg.CycloElem", ("inverse",)),
    ("exactalg.specialize_root_of_unity", "exactalg", ("specialize_root_of_unity",)),
    ("partitions.partitions_of", "partitions", ("partitions_of",)),
    ("partitions.union", "partitions", ("union",)),
    ("tabloids.w", "tabloids", ("w",)),
    ("symfunc.to_basis", "symfunc", ("to_basis",)),
    ("symfunc.basis_matrix_inverse", "symfunc", ("_basis_matrix_inverse",)),
    ("symfunc.basis_to_p", "symfunc", ("_basis_to_p",)),
    ("symfunc.p_expansion", "symfunc", ("p_expansion",)),
    ("symfunc.hall_inner", "symfunc", ("hall_inner",)),
    ("symfunc.multiply", "symfunc", ("multiply",)),
    ("deformed.gs_family", "deformed", ("_gs_family",)),  # split by kind below
    ("deformed.pexp_inner", "deformed", ("_pexp_inner",)),
    ("deformed.gram_inverse_t", "deformed", ("_gram_inverse_t",)),
    ("deformed.skew_hl_P", "deformed", ("skew_hl_P",)),
    (
        "deformed.closed_forms",
        "deformed",
        (
            "hl_Q_pn_closed",
            "hl_P_pn_closed",
            "big_schur_pn_closed",
            "mac_P_pn_closed",
            "mac_J_pn_closed",
            "whittaker_pn_closed",
        ),
    ),
    ("deformed.specialize", "deformed", ("specialize_coeffs", "specialize_coeffs_root")),
    ("criteria.criterion", "criteria", ("criterion",)),
    ("criteria.inner_value", "criteria", ("inner_value",)),
    ("criteria.check_sequence", "criteria", ("check_sequence",)),
    ("criteria.parse_sequence_file", "criteria", ("parse_sequence_file",)),
    ("oracle.verdict", "oracle", ("verdict",)),
    ("oracle.family_element", "oracle", ("family_element",)),
    ("oracle.degree_matrix", "oracle", ("degree_matrix",)),
    ("oracle.det_bareiss", "oracle", ("det_bareiss",)),
    ("oracle.det_gauss", "oracle", ("det_gauss",)),
    ("oracle.recomputed_inner", "oracle", ("recomputed_inner",)),
    ("oracle.conjecture_probe", "oracle", ("conjecture_probe",)),
    ("cli.run", "cli", ("run",)),
)

# _gs_family(n, kind) reports one metric per Gram-Schmidt form it builds.
GS_FAMILY_KINDS = ("t", "qt")

# (metric, module, lru_cache attribute)
CACHES = (
    ("exactalg.poly_gcd_prim", "exactalg", "_poly_gcd_prim"),
    ("partitions.partitions_bounded", "partitions", "_partitions_bounded"),
    ("tabloids.w_rows", "tabloids", "_w_rows"),
    ("symfunc.basis_matrix_inverse", "symfunc", "_basis_matrix_inverse"),
    ("symfunc.basis_to_p", "symfunc", "_basis_to_p"),
)


def _span_names() -> list[str]:
    names = []
    for metric, _, _ in FUNCTIONS:
        if metric == "deformed.gs_family":
            names += [f"deformed.gs_family_{kind}" for kind in GS_FAMILY_KINDS]
        else:
            names.append(metric)
    return names


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    units = {}
    for name in _span_names():
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    units["exactalg.ratfunc_make.max_terms"] = ("count", "lower")
    for name, _, _ in CACHES:
        units[f"{name}.hit_ratio"] = ("ratio", "higher")
        units[f"{name}.cache_size"] = ("count", "lower")
    units["trace.overhead_s"] = ("s", "lower")
    return units


def _resolve(owner: str):
    module, _, cls = owner.partition(".")
    obj = sys.modules[f"symgen.{module}"]
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Aggregated spans and cache statistics of the traced jobs."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.max_terms = 0
        self.cache_hits: dict[str, int] = defaultdict(int)
        self.cache_misses: dict[str, int] = defaultdict(int)
        self.cache_size: dict[str, int] = defaultdict(int)
        # (n, perf_counter at entry) of each oracle.degree_matrix span of the
        # current job; reset by job_started
        self.degree_starts: list[tuple[int, float]] = []
        self._stack = [0.0]  # child time accumulated by each open span
        self._caches = [(name, getattr(_resolve(mod), attr)) for name, mod, attr in CACHES]

    def _wrap(self, metric: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        observe = {
            "exactalg.ratfunc_make": self._observe_ratfunc,
            "oracle.degree_matrix": self._observe_degree,
        }.get(metric)
        by_kind = metric == "deformed.gs_family"

        def span(*args, **kwargs):
            name = f"deformed.gs_family_{args[1]}" if by_kind else metric
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children
            if observe is not None:
                observe(args, result, start)
            return result

        return span

    def _observe_ratfunc(self, args, result, start):
        self.max_terms = max(self.max_terms, len(result.num.terms), len(result.den.terms))

    def _observe_degree(self, args, result, start):
        self.degree_starts.append((result.degree, start))

    @contextmanager
    def patched(self):
        """Route every traced function through a span while the block runs."""
        undo = []
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "symgen"]
        try:
            for metric, owner, attrs in FUNCTIONS:
                target = _resolve(owner)
                for attr in attrs:
                    if isinstance(target, type):
                        raw = target.__dict__[attr]
                        if isinstance(raw, staticmethod):
                            wrapped = staticmethod(self._wrap(metric, raw.__func__))
                        else:
                            wrapped = self._wrap(metric, raw)
                        undo.append((target, attr, raw))
                        setattr(target, attr, wrapped)
                        continue
                    original = getattr(target, attr)
                    wrapped = self._wrap(metric, original)
                    for module in modules:
                        for name, value in list(vars(module).items()):
                            if value is original:
                                undo.append((module, name, original))
                                setattr(module, name, wrapped)
            yield self
        finally:
            for obj, attr, original in reversed(undo):
                setattr(obj, attr, original)

    def job_started(self):
        self.degree_starts = []

    def job_finished(self):
        """Fold the memo caches' statistics into the totals (before they are
        emptied for the next job)."""
        for name, cached in self._caches:
            info = cached.cache_info()
            self.cache_hits[name] += info.hits
            self.cache_misses[name] += info.misses
            self.cache_size[name] = max(self.cache_size[name], info.currsize)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics (all but trace.overhead_s, which the caller adds)."""
        out: dict[str, float] = {}
        for name in _span_names():
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        out["exactalg.ratfunc_make.max_terms"] = self.max_terms
        for name, _, _ in CACHES:
            lookups = self.cache_hits[name] + self.cache_misses[name]
            out[f"{name}.hit_ratio"] = self.cache_hits[name] / lookups if lookups else 0.0
            out[f"{name}.cache_size"] = self.cache_size[name]
        return out
