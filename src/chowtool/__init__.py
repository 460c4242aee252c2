"""chowtool: exact analysis of integral polytopes and asymptotic Chow
stability of the corresponding polarized toric varieties.

Submodules execute on first use.  Each layer module is registered with
``importlib.util.LazyLoader``: it is in ``sys.modules`` and an attribute of
the package at once, and runs the first time one of its attributes is read,
so a CLI command compiles and runs only the modules it calls.  The public
names resolve through ``__getattr__`` from the table below, from which
``__all__`` is derived.  ``catalog`` is a plain import because
``python -X importtime`` logs only modules loaded by an import statement,
and import timings of ``chowtool.catalog`` are read from that log.
"""

import importlib.util
import sys

# public name -> the module that defines it
_SOURCE = {
    name: module
    for module, names in (
        ("geometry", "Polytope Facet facets lattice_points interior_lattice_points "
         "boundary_lattice_points volume boundary_volume centroid is_reflexive "
         "product dual double_cone lattice_shells"),
        ("ehrhart", "count ehrhart_polynomial moment_sum EhrhartPolynomial"),
        ("symmetry", "AffineFunctional automorphisms is_symmetric fo_invariant "
         "is_weakly_symmetric"),
        ("triangulation", "LatticeSimplex Triangulation standard_simplex_triangulation "
         "boundary_triangulation cone_over_boundary full_triangulation "
         "verify_regular_boundary incidence"),
        ("stability", "PLFunction StabilityVerdict chow_gap double_cone_instability "
         "vertex_cap_instability check_special check_sufficient falsify classify "
         "POLYSTABLE NOT_SEMISTABLE INCONCLUSIVE"),
        ("toricgen", "relation_basis binomial_equations BinomialEquation"),
    )
    for name in names.split()
}

for _name in ("errors", "linalg", "geometry", "ehrhart", "symmetry", "triangulation",
              "lp", "stability", "toricgen", "jsonio"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])

from . import catalog

__all__ = [*_SOURCE, "catalog"]


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_SOURCE[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
