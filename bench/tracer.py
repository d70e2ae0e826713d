"""Per-layer tracing of ``semitoric`` from outside the package.

``Tracer.install()`` replaces every public function and public method of
each module (a layer) with a timing wrapper and rebinds every alias of it,
so a call made through ``from .polytope import vertices_from_inequalities``
in another module is seen as well.  Nothing under ``src/`` changes.

Each call pushes a frame.  A frame's self time is its duration minus the
time of the wrapped calls inside it; a layer's self time is the sum of the
self times of its calls.  Calls into the hot leaf layers (``linalg`` and
``lattice``) are folded into counters ``{name: [calls, self_s]}`` on the
span that made them.  Every other call is recorded as a span with its task
id and parent span; repeated calls of one function under one parent share a
span, which keeps the trace bounded by the number of distinct call paths.
The spans stay in memory and ``dump()`` writes them once, at the end.

The useful-to-attempt ratios are derived from call arguments and return
values only, never from the library's private caches.
"""

from __future__ import annotations

import fractions
import functools
import inspect
import json
import sys
import time
import weakref
from math import comb

LAYERS = ("lattice", "linalg", "polytope", "fan", "divisor", "coxring",
          "residue", "threefold", "hodge", "cli")
LEAF_LAYERS = ("lattice", "linalg")
# Special methods wrapped because a per-layer metric counts them.
COUNTED_SPECIALS = ("polytope.LatticePolytope.__init__", "fan.Fan.__init__",
                    "coxring.GradedPolynomial.__mul__")

# Per-layer metrics besides <layer>.self_s and <layer>.errors:
# metric -> (wrapped function, statistic).
FUNCTION_METRICS = {
    "linalg.solve_linear.calls": ("linalg.solve_linear", "calls"),
    "linalg.solve_linear.self_s": ("linalg.solve_linear", "self_s"),
    "linalg.lp_feasible.calls": ("linalg.lp_feasible", "calls"),
    "linalg.lp_feasible.self_s": ("linalg.lp_feasible", "self_s"),
    "linalg.echelon.insert.calls": ("linalg.SparseEchelon.insert", "calls"),
    "linalg.echelon.reduce.calls": ("linalg.SparseEchelon.reduce", "calls"),
    "polytope.hv.calls": ("polytope.vertices_from_inequalities", "calls"),
    "polytope.hv.self_s": ("polytope.vertices_from_inequalities", "self_s"),
    "polytope.facets.calls": ("polytope.LatticePolytope.facets", "calls"),
    "lattice.smith_normal_form.calls": ("lattice.smith_normal_form", "calls"),
    "lattice.matrix_rank.calls": ("lattice.matrix_rank", "calls"),
    "divisor.intersection_number.calls":
        ("divisor.TorusInvariantDivisor.intersection_number", "calls"),
    "divisor.intersection_number.s":
        ("divisor.TorusInvariantDivisor.intersection_number", "incl_s"),
    "divisor.sigma_d.calls": ("divisor.TorusInvariantDivisor.sigma_d", "calls"),
    "coxring.monomial_basis.calls": ("coxring.CoxRing.monomial_basis", "calls"),
    "coxring.ideal_graded_piece.s": ("coxring.ideal_graded_piece", "incl_s"),
    "coxring.polymul.calls": ("coxring.GradedPolynomial.__mul__", "calls"),
    "residue.pair.calls": ("residue.CupProduct.pair", "calls"),
    "residue.eta.calls": ("residue.CupProduct.eta", "calls"),
    "threefold.gram.s": ("threefold.ThreefoldAnalysis.gram", "incl_s"),
    "hodge.h21_batyrev.calls": ("hodge.h21_batyrev", "calls"),
    "hodge.mirror_check.s": ("hodge.mirror_check", "incl_s"),
    "fan.cones.calls": ("fan.Fan.cones", "calls"),
    "fan.init.calls": ("fan.Fan.__init__", "calls"),
}
# ratio -> (numerator counter, denominator counter)
RATIOS = {
    "linalg.echelon.pivot_yield": ("echelon.pivots", "echelon.inserts"),
    "polytope.hv.vertex_yield": ("hv.vertices", "hv.subsets"),
    "polytope.hull.extreme_yield": ("hull.vertices", "hull.points"),
    "polytope.facets.yield": ("facets.found", "facets.subsets"),
    "coxring.monomial_basis.hit_ratio": ("basis.repeats", "basis.calls"),
}
COUNTERS = ("polytope.hull.calls", "polytope.points.calls", "polytope.points.count")


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0


class _Span:
    """All calls of one function under one parent span, in one task."""

    __slots__ = ("id", "task", "parent", "name", "start", "end", "calls",
                 "total_s", "self_s", "leaves", "children")

    def __init__(self, id_, task, parent, name, start):
        self.id = id_
        self.task = task
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.leaves = {}    # leaf function -> [calls, self_s]
        self.children = {}  # function name -> _Span

    def as_row(self):
        return [self.id, self.task, self.parent, self.name, self.start, self.end,
                self.calls, self.total_s, self.self_s, self.leaves]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats = {}       # wrapped name -> _Stat
        self.layer_of = {}    # wrapped name -> layer
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(
            [c for pair in RATIOS.values() for c in pair] + list(COUNTERS), 0)
        self.spans = []
        # frames: [layer, child seconds, span]
        self.stack = []
        self.aliases = 0
        self._observers = self._make_observers()

    # -- installation --------------------------------------------------------

    def install(self):
        prefix = self.package.__name__
        replaced = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(f"{layer}.{name}", layer, obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        full = f"{layer}.{name}.{attr}"
                        if inspect.isfunction(member) and (
                                not attr.startswith("_") or full in COUNTED_SPECIALS):
                            setattr(obj, attr, self.wrap(full, layer, member))
        # Rebind every alias of a wrapped function: module attributes and
        # module-level tables of functions (the CLI handler table).
        for mod in [m for n, m in list(sys.modules.items())
                    if n == prefix or n.startswith(prefix + ".")]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
                    self.aliases += 1
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]
                            self.aliases += 1

    def wrap(self, name, layer, fn):
        """A timing wrapper for ``fn``, reported as ``name`` in ``layer``."""
        stat = self.stats[name] = _Stat()
        self.layer_of[name] = layer
        observe = self._observers.get(name)
        leaf = layer in LEAF_LAYERS
        stack = self.stack
        spans = self.spans
        errors = self.errors
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:  # outside any task
                return fn(*args, **kwargs)
            parent = stack[-1]
            pspan = parent[2]
            if leaf:
                span = pspan
            else:
                span = pspan.children.get(name)
                if span is None:
                    span = _Span(len(spans), pspan.task, pspan.id, name, clock())
                    pspan.children[name] = span
                    spans.append(span)
            frame = [layer, 0.0, span]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent[0] != layer:
                    errors[layer] += 1
                raise
            finally:
                end = clock()
                dur = end - start
                own = dur - frame[1]
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += own
                if not stat.depth:
                    stat.incl_s += dur
                parent[1] += dur
                if leaf:
                    cell = span.leaves.get(name)
                    if cell is None:
                        cell = span.leaves[name] = [0, 0.0]
                    cell[0] += 1
                    cell[1] += own
                else:
                    span.calls += 1
                    span.total_s += dur
                    span.self_s += own
                    span.end = end
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def run_task(self, task_id, kind, fn, *args):
        """Run one task under a root span named after its kind."""
        start = time.perf_counter()
        span = _Span(len(self.spans), task_id, None, f"task:{kind}", start)
        self.spans.append(span)
        frame = [None, 0.0, span]
        self.stack.append(frame)
        try:
            return fn(*args)
        finally:
            self.stack.pop()
            span.end = time.perf_counter()
            span.calls = 1
            span.total_s = span.end - start
            span.self_s = span.total_s - frame[1]

    # -- useful-to-attempt ratios, from arguments and results ----------------

    def _make_observers(self):
        counts = self.counts
        seen_facets = {}      # id(polytope) -> weakref: first facets() call
        from_ineqs = {}       # id(polytope) -> weakref: built from an H-system
        basis_keys = weakref.WeakKeyDictionary()  # ring -> degree reps asked for
        polytope = sys.modules[f"{self.package.__name__}.polytope"]
        dim_of = vars(polytope.LatticePolytope)["dim"].fget

        def first_time(table, obj):
            ref = table.get(id(obj))
            if ref is not None and ref() is obj:
                return False
            table[id(obj)] = weakref.ref(obj)
            return True

        def insert(args, kwargs, result):
            counts["echelon.inserts"] += 1
            counts["echelon.pivots"] += result[0] is not None

        def hv(args, kwargs, result):
            h = args[0]
            counts["hv.subsets"] += comb(len(h.inequalities), h.dim)
            counts["hv.vertices"] += len(result.vertices)
            first_time(from_ineqs, result)

        def init(args, kwargs, result):
            trusted = kwargs.get("_trusted", args[3] if len(args) > 3 else False)
            if not trusted:
                counts["polytope.hull.calls"] += 1
                counts["hull.points"] += len({tuple(v) for v in args[1]})
                counts["hull.vertices"] += len(args[0].vertices)

        def facets(args, kwargs, result):
            poly = args[0]
            # A polytope built from an H-system reads its facets off the
            # inequalities; any other searches the C(v, k) vertex subsets.
            ref = from_ineqs.get(id(poly))
            if first_time(seen_facets, poly) and (ref is None or ref() is not poly):
                counts["facets.subsets"] += comb(len(poly.vertices), dim_of(poly))
                counts["facets.found"] += len(result)

        def points(args, kwargs, result):
            counts["polytope.points.calls"] += 1
            counts["polytope.points.count"] += len(result)

        def basis(args, kwargs, result):
            reps = basis_keys.setdefault(args[0], set())
            counts["basis.calls"] += 1
            counts["basis.repeats"] += args[1].rep in reps
            reps.add(args[1].rep)

        return {
            "linalg.SparseEchelon.insert": insert,
            "polytope.vertices_from_inequalities": hv,
            "polytope.LatticePolytope.__init__": init,
            "polytope.LatticePolytope.facets": facets,
            "polytope.LatticePolytope.lattice_points": points,
            "polytope.LatticePolytope.relative_interior_points": points,
            "coxring.CoxRing.monomial_basis": basis,
        }

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: each layer's self time and errors, then the
        function statistics, the ratios and the counters named above."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s.self_s for n, s in self.stats.items()
                                         if self.layer_of[n] == layer)
            out[f"{layer}.errors"] = self.errors[layer]
        for metric, (name, field) in FUNCTION_METRICS.items():
            out[metric] = getattr(self.stats[name], field)
        for metric, (num, den) in RATIOS.items():
            out[metric] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        for metric in COUNTERS:
            out[metric] = self.counts[metric]
        return out

    def dump(self, path, header):
        doc = dict(header)
        doc["aliases_rebound"] = self.aliases
        doc["functions"] = {n: {"layer": self.layer_of[n], "calls": s.calls,
                                "self_s": s.self_s, "incl_s": s.incl_s}
                            for n, s in sorted(self.stats.items()) if s.calls}
        doc["span_fields"] = ["id", "task", "parent", "name", "first_start_s",
                              "last_end_s", "calls", "total_s", "self_s",
                              "leaf_counters {function: [calls, self_s]}"]
        doc["spans"] = [s.as_row() for s in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def count_fractions():
    """Count ``Fraction`` constructions from now on; returns a counter cell.

    Kept out of the span trace: the hook costs as much as the arithmetic
    it counts and would inflate the self times of Fraction-heavy layers.
    """
    cell = [0]
    new = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        cell[0] += 1
        return new(cls, *args, **kwargs)

    fractions.Fraction.__new__ = counting_new
    coprime = vars(fractions.Fraction).get("_from_coprime_ints")
    if coprime is not None:  # Python >= 3.12 builds results without __new__
        make = coprime.__func__

        def counting_coprime(cls, *args):
            cell[0] += 1
            return make(cls, *args)

        fractions.Fraction._from_coprime_ints = classmethod(counting_coprime)
    return cell
