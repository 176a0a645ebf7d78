"""Span tracer that wraps toricnet's public functions from outside the program.

Modules bind functions at import time (``torictop.quasitoric`` holds its own
``ff_determinant``, ``toricnet.exactcore`` re-exports ``rational_rref``), so
patching one attribute would miss most calls. ``Tracer.install`` therefore
replaces a target in every ``toricnet.*`` module namespace and every class
namespace that holds that same object, and ``uninstall`` restores each one.

Each call of a wrapped function records a span: name, start, end, parent
span and the request id shared by all spans of one request. Spans live in
flat arrays in memory and are written out at the end of the run. A span's
self time is its duration minus the durations of its direct children
(children nest, since the worker runs one request at a time on one thread).
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

MARK = "_perfbench_original"


def _rref_cells(args, result):
    a = args[0]
    return len(a) * len(a[0]) if a else 0


def _sum_terms(args, result):
    other = args[1]
    return len(args[0].terms) + (len(other.terms) if hasattr(other, "terms") else 1)


def _prod_terms(args, result):
    other = args[1]
    return len(args[0].terms) * (len(other.terms) if hasattr(other, "terms") else 1)


def _prod_coeffs(args, result):
    return len(args[0].coeffs) * len(args[1].coeffs) if hasattr(args[1], "coeffs") else 0


def _basis_terms(args, result):
    return len(args[0].basis)


def _out_terms(args, result):
    return sum(len(v.terms) if hasattr(v, "terms") else 1 for v in result)


def _context_misses(quasitoric):
    def before(args):
        return len(quasitoric._CONTEXTS)

    def measure(args, result, size_before):
        return len(quasitoric._CONTEXTS) - size_before

    return before, measure


# (span name, module, attribute path, extra stat, stat function of (args, result))
TARGETS = (
    ("cli.build_parser", "toricnet.cli", "build_parser", None, None),
    ("cli.main", "toricnet.cli", "main", None, None),
    ("exactcore.rational_rref", "toricnet.exactcore.matrices", "rational_rref", "cells", _rref_cells),
    ("exactcore.ff_determinant", "toricnet.exactcore.matrices", "ff_determinant", None, None),
    ("exactcore.hermite_normal_form", "toricnet.exactcore.matrices", "hermite_normal_form", None, None),
    ("exactcore.lattice_kernel", "toricnet.exactcore.matrices", "lattice_kernel", None, None),
    ("exactcore.smith_normal_form", "toricnet.exactcore.matrices", "smith_normal_form", None, None),
    ("exactcore.inverse_rational", "toricnet.exactcore.matrices", "inverse_rational", None, None),
    ("exactcore.poly_add", "toricnet.exactcore.polynomials", "SparsePoly.__add__", "terms_touched", _sum_terms),
    ("exactcore.poly_mul", "toricnet.exactcore.polynomials", "SparsePoly.__mul__", "term_products", _prod_terms),
    ("exactcore.series_mul", "toricnet.exactcore.series", "TruncSeries.__mul__", "term_products", _prod_coeffs),
    ("exactcore.compose_many", "toricnet.exactcore.series", "TruncSeries.compose_many", None, None),
    ("exactcore.comp_inverse", "toricnet.exactcore.series", "TruncSeries.comp_inverse", None, None),
    ("exactcore.mult_inverse", "toricnet.exactcore.series", "TruncSeries.mult_inverse", None, None),
    ("crn.parse_network", "toricnet.crn.parser", "parse_network", None, None),
    ("crn.analyze", "toricnet.crn.network", "analyze", None, None),
    ("crn.tree_constants", "toricnet.crn.trees", "tree_constants", "out_terms", _out_terms),
    ("crn.toric_binomials", "toricnet.crn.toric", "toric_binomials", None, None),
    ("crn.birch_point", "toricnet.crn.toric", "birch_point", None, None),
    ("crn.simulate", "toricnet.crn.simulate", "simulate", None, None),
    ("torictop.EvalContext", "toricnet.torictop.quasitoric", "EvalContext.__init__", "basis_terms", _basis_terms),
    ("torictop.eval_context", "toricnet.torictop.quasitoric", "eval_context", "misses", "context-misses"),
    ("torictop.validate_quasitoric", "toricnet.torictop.quasitoric", "validate_quasitoric", None, None),
    ("torictop.mxi_numbers", "toricnet.torictop.charnum", "mxi_numbers", None, None),
    ("torictop.chern_numbers", "toricnet.torictop.charnum", "chern_numbers", None, None),
    ("torictop.hamiltonian_numbers", "toricnet.torictop.charnum", "hamiltonian_numbers", None, None),
    ("torictop.class_product", "toricnet.torictop.charnum", "class_product", None, None),
    ("torictop.delzant_to_quasitoric", "toricnet.torictop.delzant", "delzant_to_quasitoric", None, None),
    ("torictop.crn_to_toric", "toricnet.torictop.bridge", "crn_to_toric", None, None),
    ("ncsf.ncf_add", "toricnet.ncsf.nsym", "NCF.__add__", "terms_touched", _sum_terms),
    ("ncsf.ncf_mul", "toricnet.ncsf.nsym", "NCF.__mul__", "term_products", _prod_terms),
    ("ncsf.tensor_mul", "toricnet.ncsf.nsym", "TensorNCF.__mul__", "term_products", _prod_terms),
    ("ncsf.sym_convert", "toricnet.ncsf.sym", "sym_convert", None, None),
    ("ncsf.qsym_product", "toricnet.ncsf.qsym", "qsym_product", None, None),
    ("ncsf.pairing", "toricnet.ncsf.qsym", "pairing", None, None),
    ("hopfdiff.fgl_over_N", "toricnet.hopfdiff.fgl", "fgl_over_N", None, None),
    ("hopfdiff.fgl_associativity_defect", "toricnet.hopfdiff.fgl", "fgl_associativity_defect", None, None),
    ("hopfdiff.bfk_coproduct", "toricnet.hopfdiff.bfk", "bfk_coproduct", None, None),
    ("hopfdiff.bfk_antipode", "toricnet.hopfdiff.bfk", "bfk_antipode", None, None),
    ("hopfdiff.ln_coproduct", "toricnet.hopfdiff.ln", "ln_coproduct", None, None),
    ("hopfdiff.ln_antipode", "toricnet.hopfdiff.ln", "ln_antipode", None, None),
    ("freeprob.moments_to_free_cumulants", "toricnet.freeprob.transforms", "moments_to_free_cumulants", None, None),
    ("freeprob.free_cumulants_to_moments", "toricnet.freeprob.transforms", "free_cumulants_to_moments", None, None),
    ("freeprob.classical_cumulants", "toricnet.freeprob.transforms", "classical_cumulants", None, None),
    ("freeprob.hirzebruch_K", "toricnet.freeprob.transforms", "hirzebruch_K", None, None),
    ("freeprob.nc_cumulant_series", "toricnet.freeprob.ncseries", "nc_cumulant_series", None, None),
)

# Every function defined in toricnet.render is one span name: the layer.
RENDER_MODULE = "toricnet.render"


def toricnet_namespaces():
    """(owner, dict) for every loaded toricnet module and class defined in one."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "toricnet" or name.startswith("toricnet.")):
            continue
        out.append((mod, vars(mod)))
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == name:
                out.append((value, vars(value)))
    return out


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def lru_caches():
    """Every lru_cache-wrapped function reachable from toricnet, by qualified name."""
    found = {}
    for owner, ns in toricnet_namespaces():
        for value in ns.values():
            value = getattr(value, MARK, value)
            if hasattr(value, "cache_info") and id(value) not in found:
                found[id(value)] = (f"{value.__module__}.{value.__qualname__}", value)
    return sorted(found.values(), key=lambda item: item[0])


class Tracer:
    def __init__(self):
        self.names: list = []
        self.ids: dict = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.requests = array("l")
        self.stack: list = []
        self.request = -1
        self.stats: dict = {}  # (span name, stat) -> int
        self.patches: list = []  # (owner, attribute, original)

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name, fn, stat=None, measure=None, before=None):
        nid = self._id(name)
        stats = self.stats
        stack = self.stack
        clock = time.perf_counter
        calls_key, errors_key = (name, "calls"), (name, "errors")
        stat_key = (name, stat)
        stats.setdefault(calls_key, 0)
        stats.setdefault(errors_key, 0)
        if stat:
            stats.setdefault(stat_key, 0)

        def traced(*args, **kwargs):
            state = before(args) if before else None
            index = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(stack[-1] if stack else -1)
            self.requests.append(self.request)
            self.starts.append(clock())
            self.ends.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[errors_key] += 1
                raise
            finally:
                self.ends[index] = clock()
                stack.pop()
                stats[calls_key] += 1
            if measure:
                stats[stat_key] += measure(args, result, state) if before else measure(args, result)
            return result

        setattr(traced, MARK, fn)
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch_everywhere(self, original, wrapper, namespaces) -> int:
        hits = 0
        for owner, ns in namespaces:
            for attr, value in list(ns.items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self.patches.append((owner, attr, original))
                    hits += 1
        return hits

    def install(self) -> None:
        for module in {t[1] for t in TARGETS} | {RENDER_MODULE}:
            importlib.import_module(module)
        namespaces = toricnet_namespaces()
        quasitoric = importlib.import_module("toricnet.torictop.quasitoric")
        for name, module, path, stat, measure in TARGETS:
            original = _resolve(module, path)
            before = None
            if measure == "context-misses":
                before, measure = _context_misses(quasitoric)
            wrapper = self.wrap(name, original, stat, measure, before)
            if not self._patch_everywhere(original, wrapper, namespaces):
                raise RuntimeError(f"trace target {module}.{path} not found")
        render = importlib.import_module(RENDER_MODULE)
        for attr, value in list(vars(render).items()):
            if callable(value) and getattr(value, "__module__", None) == RENDER_MODULE:
                self._patch_everywhere(value, self.wrap("render", value), namespaces)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self) -> dict:
        """Totals per span name, and self time per (request, span name)."""
        own = self.self_times()
        by_name: dict = {}
        by_request: dict = {}
        for i, t in enumerate(own):
            name = self.names[self.name_ids[i]]
            by_name[name] = by_name.get(name, 0.0) + t
            per = by_request.setdefault(self.requests[i], {})
            per[name] = per.get(name, 0.0) + t
        stats = {f"{name}.{stat}": v for (name, stat), v in self.stats.items()}
        return {"self_s": by_name, "stats": stats, "by_request": by_request, "spans": len(own)}

    def write_spans(self, path: str) -> None:
        """Spans as tab-separated lines: request, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request\tname\tstart\tend\tparent\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{self.requests[i]}\t{self.names[self.name_ids[i]]}\t"
                    f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t{self.parents[i]}\n"
                )


def wrapped_count() -> int:
    """How many namespace entries currently hold a tracer wrapper."""
    return sum(
        1 for _, ns in toricnet_namespaces() for value in ns.values() if hasattr(value, MARK)
    )
