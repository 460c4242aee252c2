"""Per-layer spans measured from outside the program.

The tracer wraps public functions of chowtool's modules.  Each wrapper is
installed in the defining module and in every chowtool module namespace that
bound the same object with ``from .x import y``, so calls made inside the
package go through it too.  Two methods are wrapped on their class.

A span's self time is its duration minus the time of the wrapped spans
nested inside it; a layer's ``self_s`` sums the self time of its spans.  An
inclusive ``<key>_s`` counts only the outermost span of that key, because
``classify`` recurses on product factors and ``lattice_points`` on the
factors of a product.
"""

import sys
from collections import defaultdict
from time import perf_counter

# starts the line on which a traced CLI child reports its span totals
TRACE_MARK = "perfbench-trace "


def _len_result(args, kwargs, out):
    return len(out)


def _cells_checked(args, kwargs, out):
    # verify_regular_boundary(P, T, k)
    return len(args[1] if len(args) > 1 else kwargs["T"])


def _lp_size(args, kwargs, out):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return len(rows)


def _lp_cols(args, kwargs, out):
    objective = args[0] if args else kwargs["objective"]
    return len(objective)


def _cells(args, kwargs, out):
    return len(out.simplices)


# (module, function, key, {counter: size function})
# The key is "<layer>.<stem>"; the layer is the module the function lives in.
FUNCTIONS = [
    ("geometry", "convex_hull", "geometry.hull", {}),
    ("geometry", "lattice_points", "geometry.lattice_points",
     {"geometry.lattice_points_out": _len_result}),
    ("geometry", "interior_lattice_points", "geometry.other", {}),
    ("geometry", "boundary_lattice_points", "geometry.other", {}),
    ("geometry", "volume", "geometry.other", {}),
    ("geometry", "centroid", "geometry.other", {}),
    ("geometry", "facet_relative_volume", "geometry.other", {}),
    ("geometry", "boundary_volume", "geometry.other", {}),
    ("geometry", "is_reflexive", "geometry.other", {}),
    ("geometry", "product", "geometry.other", {}),
    ("geometry", "dual", "geometry.other", {}),
    ("geometry", "double_cone", "geometry.other", {}),
    ("geometry", "lattice_shells", "geometry.other", {}),
    ("ehrhart", "count", "ehrhart.count", {}),
    ("ehrhart", "moment_sum", "ehrhart.moment_sum", {}),
    ("ehrhart", "ehrhart_polynomial", "ehrhart.other", {}),
    ("ehrhart", "moment_polynomials", "ehrhart.other", {}),
    ("ehrhart", "lagrange_interpolate", "ehrhart.other", {}),
    ("symmetry", "automorphisms", "symmetry.automorphisms",
     {"symmetry.group_order_sum": _len_result}),
    ("symmetry", "automorphism_generators", "symmetry.other", {}),
    ("symmetry", "orbits", "symmetry.orbits", {}),
    ("symmetry", "is_symmetric", "symmetry.other", {}),
    ("symmetry", "fo_invariant", "symmetry.other", {}),
    ("symmetry", "is_weakly_symmetric", "symmetry.weak_symmetry", {}),
    ("triangulation", "boundary_triangulation", "triangulation.build",
     {"triangulation.cells_built": _cells}),
    ("triangulation", "full_triangulation", "triangulation.build",
     {"triangulation.cells_built": _cells}),
    ("triangulation", "delaunay_triangulation", "triangulation.build",
     {"triangulation.cells_built": _cells}),
    ("triangulation", "cone_over_boundary", "triangulation.other", {}),
    ("triangulation", "level1_boundary", "triangulation.other", {}),
    ("triangulation", "polygon_unimodular_triangulation", "triangulation.other", {}),
    ("triangulation", "standard_simplex_triangulation", "triangulation.other", {}),
    ("triangulation", "verify_regular_boundary", "triangulation.verify",
     {"triangulation.cells_verified": _cells_checked}),
    ("triangulation", "incidence", "triangulation.incidence", {}),
    ("lp", "solve_lp", "lp.solve", {"lp.rows": _lp_size, "lp.cols": _lp_cols}),
    ("linalg", "rank_rational", "linalg.rank_rational", {}),
    ("linalg", "solve_rational", "linalg.solve_rational", {}),
    ("linalg", "invert_rational", "linalg.other", {}),
    ("linalg", "integer_kernel_basis", "linalg.other", {}),
    ("linalg", "hermite_normal_form", "linalg.other", {}),
    ("stability", "classify", "stability.classify", {}),
    ("stability", "check_special", "stability.check_special", {}),
    ("stability", "check_sufficient", "stability.check_sufficient", {}),
    ("stability", "vertex_cap_instability", "stability.caps", {}),
    ("stability", "double_cone_instability", "stability.caps", {}),
    ("stability", "falsify", "stability.falsify", {}),
    ("stability", "chow_gap", "stability.chow_gap", {}),
    ("toricgen", "relation_basis", "toricgen.other", {}),
    ("toricgen", "binomial_equations", "toricgen.other", {}),
    ("toricgen", "render_equations", "toricgen.other", {}),
    ("jsonio", "polytope_from_json", "jsonio.parse", {}),
    ("jsonio", "load_polytope", "jsonio.parse", {}),
    ("jsonio", "triangulation_from_json", "jsonio.parse", {}),
    ("jsonio", "verdict_to_json", "jsonio.emit", {}),
    ("jsonio", "polytope_to_json", "jsonio.emit", {}),
    ("jsonio", "dump_json", "jsonio.emit", {}),
]

# (module, class, method, key)
METHODS = [
    ("triangulation", "Triangulation", "incidence", "triangulation.incidence"),
    ("triangulation", "Triangulation", "ridge_census", "triangulation.ridge_census"),
]

# the per-layer metrics read from spans: (name, unit, source, key), where the
# source is a layer's self time, a key's outermost-span time, a key's call
# count or a counter
SPAN_METRICS = [
    ("geometry.self_s", "s", "self", "geometry"),
    ("geometry.hull_s", "s", "inclusive", "geometry.hull"),
    ("geometry.hull_calls", "count", "calls", "geometry.hull"),
    ("geometry.lattice_points_s", "s", "inclusive", "geometry.lattice_points"),
    ("geometry.lattice_points_calls", "count", "calls", "geometry.lattice_points"),
    ("geometry.lattice_points_out", "count", "counters", "geometry.lattice_points_out"),
    ("ehrhart.self_s", "s", "self", "ehrhart"),
    ("ehrhart.count_calls", "count", "calls", "ehrhart.count"),
    ("ehrhart.moment_sum_calls", "count", "calls", "ehrhart.moment_sum"),
    ("symmetry.self_s", "s", "self", "symmetry"),
    ("symmetry.automorphisms_s", "s", "inclusive", "symmetry.automorphisms"),
    ("symmetry.automorphisms_calls", "count", "calls", "symmetry.automorphisms"),
    ("symmetry.group_order_sum", "count", "counters", "symmetry.group_order_sum"),
    ("symmetry.weak_symmetry_s", "s", "inclusive", "symmetry.weak_symmetry"),
    ("symmetry.is_weakly_symmetric_calls", "count", "calls", "symmetry.weak_symmetry"),
    ("symmetry.orbits_s", "s", "inclusive", "symmetry.orbits"),
    ("triangulation.self_s", "s", "self", "triangulation"),
    ("triangulation.build_s", "s", "inclusive", "triangulation.build"),
    ("triangulation.cells_built", "count", "counters", "triangulation.cells_built"),
    ("triangulation.verify_s", "s", "inclusive", "triangulation.verify"),
    ("triangulation.verify_calls", "count", "calls", "triangulation.verify"),
    ("triangulation.cells_verified", "count", "counters", "triangulation.cells_verified"),
    ("triangulation.incidence_s", "s", "inclusive", "triangulation.incidence"),
    ("triangulation.ridge_census_s", "s", "inclusive", "triangulation.ridge_census"),
    ("lp.solve_s", "s", "inclusive", "lp.solve"),
    ("lp.calls", "count", "calls", "lp.solve"),
    ("lp.rows", "count", "counters", "lp.rows"),
    ("lp.cols", "count", "counters", "lp.cols"),
    ("linalg.self_s", "s", "self", "linalg"),
    ("linalg.solve_rational_s", "s", "inclusive", "linalg.solve_rational"),
    ("linalg.solve_rational_calls", "count", "calls", "linalg.solve_rational"),
    ("linalg.rank_rational_s", "s", "inclusive", "linalg.rank_rational"),
    ("linalg.rank_rational_calls", "count", "calls", "linalg.rank_rational"),
    ("stability.self_s", "s", "self", "stability"),
    ("stability.check_special_s", "s", "inclusive", "stability.check_special"),
    ("stability.check_sufficient_s", "s", "inclusive", "stability.check_sufficient"),
    ("stability.caps_s", "s", "inclusive", "stability.caps"),
    ("stability.falsify_s", "s", "inclusive", "stability.falsify"),
    ("stability.falsify_calls", "count", "calls", "stability.falsify"),
    ("stability.chow_gap_s", "s", "inclusive", "stability.chow_gap"),
    ("toricgen.self_s", "s", "self", "toricgen"),
    ("jsonio.parse_s", "s", "inclusive", "jsonio.parse"),
    ("jsonio.emit_s", "s", "inclusive", "jsonio.emit"),
]


class Tracer:
    """Span totals and counters for one traced stretch of work."""

    def __init__(self):
        self.inclusive = defaultdict(float)  # key -> outermost-span seconds
        self.calls = defaultdict(int)        # key -> calls, nested ones too
        self.self_time = defaultdict(float)  # layer -> self seconds
        self.counters = defaultdict(int)
        self._depth = defaultdict(int)
        self._stack = []  # one [child seconds] cell per open span
        self._installed = []
        # off while the benchmark checks outputs, so checks are not counted
        self.active = True

    def wrap(self, fn, key, sizes):
        layer = key.split(".", 1)[0]
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            tracer._depth[key] += 1
            cell = [0.0]
            tracer._stack.append(cell)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                tracer._stack.pop()
                tracer._depth[key] -= 1
                tracer.self_time[layer] += took - cell[0]
                if tracer._stack:
                    tracer._stack[-1][0] += took
                if not tracer._depth[key]:
                    tracer.inclusive[key] += took
            for counter, size in sizes.items():
                tracer.counters[counter] += size(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap every listed function and method; undo with uninstall()."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "chowtool" or name.startswith("chowtool."))]
        for mod_name, fn_name, key, sizes in FUNCTIONS:
            original = getattr(sys.modules["chowtool." + mod_name], fn_name)
            traced = self.wrap(original, key, sizes)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._installed.append((mod, attr, original))
        for mod_name, cls_name, meth, key in METHODS:
            cls = getattr(sys.modules["chowtool." + mod_name], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(original, key, {}))
            self._installed.append((cls, meth, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def add(self, other):
        """Fold in totals reported by another process (a traced CLI child)."""
        for field in ("inclusive", "calls", "self_time", "counters"):
            mine = getattr(self, field)
            for k, v in other[field].items():
                mine[k] += v

    def totals(self):
        return {
            "inclusive": dict(self.inclusive),
            "calls": dict(self.calls),
            "self_time": dict(self.self_time),
            "counters": dict(self.counters),
        }

    def metrics(self):
        """{name: (value, unit)} for every span metric, zero when unused."""
        sources = {"self": self.self_time, "inclusive": self.inclusive,
                   "calls": self.calls, "counters": self.counters}
        return {name: (sources[source].get(key, 0), unit)
                for name, unit, source, key in SPAN_METRICS}
