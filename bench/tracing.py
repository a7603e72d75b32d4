"""Spans and counters around rookalg's public calls, installed from outside.

Nothing in the package changes: `Tracer.install` replaces functions and
methods with wrappers, in every rookalg module that holds a reference to
them.  Two kinds of wrapper exist:

- span wrappers, around the coarse public calls (suites, table builds,
  export, oracle products, CLI); each call is kept in memory as a span
  with its parent span, and written out at the end;
- counter wrappers, around the hot calls (NuPoly and Permutation
  arithmetic, Normalizer.reduce, the oracle's corner evaluations); these
  only count calls and add up time, because keeping millions of spans
  would cost more than the work they describe.

Every wrapped call keeps a self-time stack, so a layer's self time is its
wrapped calls' time minus the time of the wrapped calls they made, of any
layer.  Busy time of a layer or call name counts only the outermost call,
so recursion and nesting are not counted twice.  Wrapper overhead of a
child call lands in its parent's self time.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, metric name, layer, kind); kind is "span" or "count"
TARGETS = (
    ("rookalg.cli", "main", "cli.main", "cli", "span"),
    ("rookalg.verify", "crosscheck_structure", "verify.crosscheck", "verify", "span"),
    ("rookalg.verify", "monomial_images", "verify.monomial_images", "verify", "span"),
    ("rookalg.verify", "relation_suite", "verify.relations", "verify", "span"),
    ("rookalg.verify", "limit_suite", "verify.limit", "verify", "span"),
    ("rookalg.verify", "semisimplicity_probe", "verify.semisimplicity", "verify", "span"),
    ("rookalg.verify", "gram_suite", "verify.gram_suite", "verify", "span"),
    ("rookalg.tables", "structure_table", "tables.structure_table", "tables", "span"),
    ("rookalg.tables", "StructureTable.canonical_json", "tables.export", "tables", "span"),
    ("rookalg.tables", "gram_matrix", "tables.gram_matrix", "tables", "span"),
    ("rookalg.tables", "det_polynomial", "tables.det_polynomial", "tables", "span"),
    ("rookalg.tables", "positive_definite", "tables.positive_definite", "tables", "span"),
    ("rookalg.algebra", "Normalizer.reduce", "algebra.reduce", "algebra", "count"),
    ("rookalg.oracle", "dc_multiply", "oracle.dc_multiply", "oracle", "span"),
    ("rookalg.nupoly", "NuPoly.__mul__", "nupoly.mul", "nupoly", "count"),
    ("rookalg.nupoly", "NuPoly.__add__", "nupoly.add", "nupoly", "count"),
    ("rookalg.combinatorics", "Permutation.__mul__", "combinatorics.perm_mul", "combinatorics", "count"),
    ("rookalg.combinatorics", "Permutation.__post_init__", "combinatorics.perm_new", "combinatorics", "count"),
)

# corner evaluations are counted where the oracle makes them, so only the
# oracle module's reference to corner_map is replaced
CORNER_TARGET = ("rookalg.oracle", "corner_map", "oracle.corner_eval", "combinatorics")

LAYERS = ("cli", "verify", "tables", "algebra", "oracle", "nupoly", "combinatorics")
CACHED = ("coset_enumerate", "canonical_completion", "subgroup_elements")
REDUCE_KEYS = ("square", "swap", "erase", "states", "cache_hits")


class Tracer:
    """Holds every count, time and span of one traced job."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.name_s: dict[str, float] = defaultdict(float)
        self.layer_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.report_sums: dict[str, int] = defaultdict(int)
        self.export_bytes = 0
        self.spans: list[tuple] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._child_s = [0.0]
        self._open_spans: list[int | None] = [None]
        self._tables: list = []
        self._reduce_stats: list[dict] = []
        self._default_stats: dict = {}

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, layer: str, fn, span: bool, on_result=None):
        counts, depth, child_s = self.counts, self._depth, self._child_s
        name_s, layer_s, self_s = self.name_s, self.layer_s, self.self_s
        spans, open_spans = self.spans, self._open_spans
        perf = time.perf_counter
        by_route = name == "oracle.dc_multiply"  # counted apart: fast and convolve

        def wrapper(*args, **kwargs):
            key = f"{name}_{kwargs.get('via', 'fast')}" if by_route else name
            counts[key] += 1
            dn, dl = depth[key], depth[layer]
            depth[key], depth[layer] = dn + 1, dl + 1
            child_s.append(0.0)
            if span:
                sid = len(spans)
                spans.append(None)
                open_spans.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                depth[key], depth[layer] = dn, dl
                inner = child_s.pop()
                child_s[-1] += dt
                self_s[layer] += dt - inner
                if not dn:
                    name_s[key] += dt
                if not dl:
                    layer_s[layer] += dt
                if span:
                    open_spans.pop()
                    spans[sid] = (sid, open_spans[-1], key, t0, t1)
            if on_result is not None:
                on_result(result)
            return result

        return functools.wraps(fn)(wrapper)

    def _on_report(self, rep) -> None:
        for k in ("dual_route_pairs", "failure_count"):
            value = rep.metrics.get(k)
            if isinstance(value, int):
                self.report_sums[k] += value

    def _on_crosscheck(self, rep) -> None:
        self._on_report(rep)
        self.report_sums["crosscheck_pairs"] += rep.metrics.get("pairs", 0)

    def _on_table(self, table) -> None:
        # counted in metrics(), outside the timed job; cached tables are returned again
        if not any(t is table for t in self._tables):
            self._tables.append(table)

    def _on_export(self, text: str) -> None:
        # json.dumps escapes to ASCII, so characters are bytes
        self.export_bytes += len(text)

    def install(self) -> None:
        """Wrap every target in every loaded rookalg module; call once per process."""
        import rookalg.algebra as algebra
        import rookalg.oracle as oracle

        hooks = {
            "verify.crosscheck": self._on_crosscheck,
            "verify.relations": self._on_report,
            "verify.limit": self._on_report,
            "verify.semisimplicity": self._on_report,
            "verify.gram_suite": self._on_report,
            "tables.structure_table": self._on_table,
            "tables.export": self._on_export,
        }
        for modname, path, name, layer, kind in TARGETS:
            owner, attr, original = _resolve(modname, path)
            wrapped = self._timed(name, layer, original, kind == "span", hooks.get(name))
            if owner is sys.modules[modname]:
                _replace_everywhere(original, wrapped)
            else:
                setattr(owner, attr, wrapped)
        modname, attr, name, layer = CORNER_TARGET
        setattr(oracle, attr, self._timed(name, layer, getattr(oracle, attr), False))

        # reduce counters live on each Normalizer; keep a handle on every stats dict
        stats_list = self._reduce_stats
        original_init = algebra.Normalizer.__init__

        @functools.wraps(original_init)
        def init(nz, *args, **kwargs):
            original_init(nz, *args, **kwargs)
            stats_list.append(nz.stats)

        algebra.Normalizer.__init__ = init
        self._default_stats = algebra.default_normalizer().stats

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; call right after the timed job, before any check."""
        import rookalg.oracle as oracle

        c, ns = self.counts, self.name_s
        reduce = {k: 0 for k in REDUCE_KEYS}
        # the default normalizer is made at import, before install(), so it is never
        # in the list; it is summed too, so a build that uses it is still counted
        for s in self._reduce_stats + [self._default_stats]:
            for k in REDUCE_KEYS:
                reduce[k] += s.get(k, 0)
        lookups = reduce["states"] + reduce["cache_hits"]
        corner_evals = c["oracle.corner_eval"]
        oracle_s = ns["oracle.dc_multiply_fast"] + ns["oracle.dc_multiply_convolve"]
        out = {
            "nupoly.mul_calls": c["nupoly.mul"],
            "nupoly.add_calls": c["nupoly.add"],
            "nupoly.busy_s": self.layer_s["nupoly"],
            "nupoly.mul_per_s": _ratio(c["nupoly.mul"], ns["nupoly.mul"]),
            "algebra.reduce_states": reduce["states"],
            "algebra.reduce_cache_hits": reduce["cache_hits"],
            "algebra.reduce_hit_ratio": _ratio(reduce["cache_hits"], lookups),
            "algebra.rule_square": reduce["square"],
            "algebra.rule_swap": reduce["swap"],
            "algebra.rule_erase": reduce["erase"],
            "algebra.reduce_s": ns["algebra.reduce"],
            "algebra.states_per_s": _ratio(reduce["states"], ns["algebra.reduce"]),
            "tables.structure_table_s": ns["tables.structure_table"],
            "tables.export_s": ns["tables.export"],
            "tables.export_bytes": self.export_bytes,
            "tables.nonzero_constants": sum(
                1 for t in self._tables for terms in t.constants.values() for _, p in terms if p
            ),
            "tables.gram_matrix_s": ns["tables.gram_matrix"],
            "tables.det_polynomial_s": ns["tables.det_polynomial"],
            "tables.positive_definite_calls": c["tables.positive_definite"],
            "oracle.dc_multiply_fast_calls": c["oracle.dc_multiply_fast"],
            "oracle.dc_multiply_fast_s": ns["oracle.dc_multiply_fast"],
            "oracle.dc_multiply_convolve_calls": c["oracle.dc_multiply_convolve"],
            "oracle.dc_multiply_convolve_s": ns["oracle.dc_multiply_convolve"],
            "oracle.corner_evals": corner_evals,
            "oracle.corner_evals_per_s": _ratio(corner_evals, oracle_s),
        }
        for fn_name in CACHED:
            info = getattr(oracle, fn_name).cache_info()
            out[f"oracle.{fn_name}_hit_ratio"] = _ratio(info.hits, info.hits + info.misses)
            out[f"oracle.{fn_name}_lookups"] = info.hits + info.misses
        out.update(
            {
                "combinatorics.perm_mul_calls": c["combinatorics.perm_mul"],
                "combinatorics.perm_new": c["combinatorics.perm_new"],
                "combinatorics.busy_s": self.layer_s["combinatorics"],
                "verify.crosscheck_s": ns["verify.crosscheck"],
                "verify.monomial_images_s": ns["verify.monomial_images"],
                "verify.relations_s": ns["verify.relations"],
                "verify.limit_s": ns["verify.limit"],
                "verify.semisimplicity_s": ns["verify.semisimplicity"],
                "verify.gram_suite_s": ns["verify.gram_suite"],
                "verify.crosscheck_pairs": self.report_sums["crosscheck_pairs"],
                "verify.dual_route_pairs": self.report_sums["dual_route_pairs"],
                "verify.failure_count": self.report_sums["failure_count"],
                "cli.main_s": ns["cli.main"],
            }
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        fields = ("id", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans if s is not None], fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _resolve(modname: str, path: str):
    owner = sys.modules[modname]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _replace_everywhere(original, wrapped) -> None:
    """Rebind a module-level function in every rookalg module that imported it."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "rookalg" or modname.startswith("rookalg.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
