"""Span tracer that wraps clustermut's public functions at layer boundaries.

The tracer lives entirely in the benchmark: it replaces module functions
(in every clustermut namespace that imported them) and class attributes
(which also catches operator calls such as ``LaurentPolynomial.__mul__``)
with wrappers that record one span per call, as (name, parent, start, end),
plus exact counters.  Spans are kept in compact arrays and reduced to
per-name self times when the tracer is read; a span's self time is its
duration minus the durations of its direct children.  ``uninstall``
restores every original, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

# One span name per wrapped boundary; the metric names derive from them.
SPAN_NAMES = (
    "pass",
    "laurent.mul",
    "laurent.exact_div",
    "laurent.substitute",
    "laurent.fraction",
    "laurent.normalized",
    "laurent.render",
    "seeds.mutate",
    "seeds.matrix_mutate",
    "seeds.canonicalize",
    "seeds.key",
    "seeds.yhat",
    "semifield",
    "graph.enumerate",
    "graph.edges",
    "graph.compare_by_paths",
    "graph.export",
    "verify.cluster-seed",
    "verify.adjacency",
    "verify.coincide",
    "verify.g-spec",
    "verify.toric",
    "verify.laurent",
    "verify.yhat",
    "forms.space",
    "forms.mutate_form",
    "forms.verify_compatibility",
    "cli.main",
)

class Tracer:
    """Records spans and counters while installed; see module docstring."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(self.ids[name])
        self.parents.append(self.stack[-1])
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self.stack.pop()

    def note_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def wrap(self, fn, name: str, before=None, after=None):
        """Wrapper recording a span named ``name`` around each call.

        ``before(args)`` and ``after(args, result)`` update counters; they
        run inside the span, so their cost lands in the traced layer.
        """
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                tracer.close(sid)

        return traced

    # -- installation -----------------------------------------------------------

    def patch_method(self, cls, attr: str, name: str, before=None, after=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, before, after))

    def patch_function(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Wrap a module function in every clustermut namespace holding it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, before, after)
        for modname, mod in list(sys.modules.items()):
            if modname != "clustermut" and not modname.startswith("clustermut."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self, cm) -> None:
        """Wrap the layer boundaries of the imported clustermut package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        lp, lf = cm.LaurentPolynomial, cm.LaurentFraction
        c = self.counts

        def mul_before(args):
            c["laurent.mul.calls"] += 1
            c["laurent.mul.term_products"] += len(args[0].terms) * len(args[1].terms)

        def div_after(args, quo):
            c["laurent.exact_div.calls"] += 1
            c["laurent.exact_div.quotient_terms"] += len(quo.terms)
            self.note_max("laurent.max_terms", len(quo.terms))
            self.note_max("laurent.max_coeff_bits", quo.max_coeff_bits())

        def norm_after(args, frac):
            c["laurent.normalized.calls"] += 1
            c["laurent.normalized.cleared"] += frac.den.is_one()

        def count(key):
            def before(args):
                c[key] += 1
            return before

        def key_after(args, key):
            c["seeds.key.calls"] += 1
            c["seeds.key.bytes"] += len(key)

        def enumerate_after(args, graph):
            # every resolved (vertex, direction) job is one mutation computed;
            # all vertices but the root were new when first reached
            jobs = sum(len(nbrs) for nbrs in graph.neighbors)
            c["graph.vertices"] += graph.vertex_count
            c["graph.layers"] += graph.stats.get("depth_reached", 0)
            c["graph.jobs"] += jobs
            c["graph.new_vertices"] += graph.vertex_count - 1
            c["graph.dedupe_hits"] += jobs - (graph.vertex_count - 1)

        def paths_after(args, result):
            c["graph.paths.nodes"] += result.nodes

        def export_after(args, data):
            c["graph.export.bytes"] += len(data)

        def report_after(args, report):
            c["verify.cases"] += 1
            c["verify.adjacency.pairs"] += report.stats.get("pairs", 0)

        self.patch_method(lp, "__mul__", "laurent.mul", before=mul_before)
        self.patch_method(lp, "exact_div", "laurent.exact_div", after=div_after)
        self.patch_method(lp, "substitute", "laurent.substitute", before=count("laurent.substitute.calls"))
        for attr in ("__mul__", "__add__", "inv", "pow", "equals"):
            self.patch_method(lf, attr, "laurent.fraction", before=count("laurent.fraction.ops"))
        self.patch_method(lf, "normalized", "laurent.normalized", after=norm_after)
        self.patch_function(cm.laurent, "render_poly", "laurent.render", before=count("laurent.render.calls"))

        for cls in (cm.TropicalElement, cm.TrivialElement, cm.SubtractionFreeRational):
            for attr in ("__mul__", "inv", "pow", "oplus"):
                self.patch_method(cls, attr, "semifield", before=count("semifield.ops"))

        self.patch_method(cm.Seed, "mutate", "seeds.mutate", before=count("seeds.mutate.calls"))
        self.patch_method(cm.ExchangeMatrix, "mutate", "seeds.matrix_mutate")
        self.patch_method(cm.Seed, "canonicalized", "seeds.canonicalize", before=count("seeds.canonicalize.calls"))
        self.patch_method(cm.Seed, "key", "seeds.key", after=key_after)
        self.patch_method(cm.Seed, "yhat", "seeds.yhat")

        self.patch_function(cm.graph, "enumerate_graph", "graph.enumerate", after=enumerate_after)
        self.patch_method(cm.ExchangeGraph, "edges", "graph.edges", before=count("graph.edges.calls"))
        self.patch_function(cm.graph, "compare_by_paths", "graph.compare_by_paths", after=paths_after)
        self.patch_method(cm.ExchangeGraph, "export", "graph.export", after=export_after)

        for attr, check in (
            ("check_cluster_determines_seed", "cluster-seed"),
            ("check_adjacency", "adjacency"),
            ("check_graph_coincidence", "coincide"),
            ("check_g_specialization", "g-spec"),
            ("check_toric_invariance", "toric"),
            ("check_laurent", "laurent"),
            ("check_yhat_propagation", "yhat"),
        ):
            self.patch_function(cm.verify, attr, f"verify.{check}", after=report_after)

        self.patch_function(cm.forms, "compatible_form_space", "forms.space")
        self.patch_function(cm.forms, "mutate_form", "forms.mutate_form", before=count("forms.mutate_form.calls"))
        self.patch_function(cm.forms, "verify_compatibility", "forms.verify_compatibility")

        self.patch_function(cm.cli, "main", "cli.main")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, excluding time covered by child spans."""
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for sid, nid in enumerate(self.names):
            totals[SPAN_NAMES[nid]] += self.ends[sid] - self.starts[sid] - child[sid]
        return totals

    def coverage(self) -> float:
        """Smallest share of a pass span's duration covered by its children."""
        pass_id = self.ids["pass"]
        child = {}
        for sid, parent in enumerate(self.parents):
            if parent >= 0 and self.names[parent] == pass_id:
                child[parent] = child.get(parent, 0.0) + self.ends[sid] - self.starts[sid]
        shares = [
            child.get(sid, 0.0) / (self.ends[sid] - self.starts[sid])
            for sid, nid in enumerate(self.names)
            if nid == pass_id
        ]
        return min(shares) if shares else 0.0

    def exact_counts(self) -> dict[str, int]:
        """Counters that must repeat exactly for the same inputs."""
        out = dict(self.counts)
        out.update(self.maxima)
        return dict(sorted(out.items()))
