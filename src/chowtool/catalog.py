"""Named polytopes: the ground-truth fixture set for tests and the CLI.

Vertex data is copied literally from the source material.  Expected
properties are the documented claims each entry should reproduce; every
claim is exercised by the test suite against the corresponding module.

Naming note: X8 is the square (P^1 x P^1) and X9 the big triangle (P^2),
following the text; one figure swaps the two labels, which is documented
here on both entries.  The P3_blowup4 vertex list is kept literally even
though its corner-cut facets sit at lattice distance 2 (so it is not
reflexive and cannot be the polar dual of P3_blowup4_dual); the discrepancy
is recorded on the entry.

Entries are registered as builders, with their dimension, at import and
constructed on their first ``get``, then memoised, so importing the package
or the CLI builds no polytope and neither does ``listing()``; ``entries()``
builds them all.  Shared pieces (the cubes, the polygons, the A_n) are built
once and reused by every entry made from them.
"""

from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

from .errors import UnknownName
from .geometry import Polytope, product, dual, double_cone


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    polytope: Polytope
    expected: MappingProxyType  # property name -> expected value
    notes: str = ""


_SEG = Polytope([(-1,), (1,)], name="cube1")


def _unit(i, n, sign=1):
    return tuple(sign if j == i else 0 for j in range(n))


@cache
def _cube_chain(n):
    # the product chain cube1 x ... x cube1; intermediate products stay unnamed
    return _SEG if n == 1 else product(_cube_chain(n - 1), _SEG)


@cache
def _cube(n):
    return _cube_chain(n).with_name(f"cube{n}")


def _cross(n):
    # the polar dual of the cube: same vertex set as conv{+-e_i}, built this
    # way so automorphism generators propagate from the product structure
    return dual(_cube(n)).with_name(f"D{n}")


@cache
def _a_poly(n):
    return Polytope(
        [_unit(i, n) for i in range(n)] + [(-1,) * n], name=f"A{n}"
    )


def _simplex_pn(n):
    # polar dual of A_n: vertex set {-1, (n+1)e_i - 1}, with generator
    # propagation from the dual construction
    return dual(_a_poly(n)).with_name(f"simplexPn{n}")


_TWO_DIM_VERTICES = {
    "X3": [(-1, -1), (1, 0), (0, 1)],
    "X4": [(1, 0), (-1, 0), (0, 1), (0, -1)],
    "X6": [(0, 1), (0, -1), (1, 0), (-1, 0), (1, -1), (-1, 1)],
    "X8": [(1, 1), (1, -1), (-1, 1), (-1, -1)],
    "X9": [(-1, -1), (2, -1), (-1, 2)],
}


@cache
def _two_dim(name):
    return Polytope(_TWO_DIM_VERTICES[name], name=name)


# name -> (zero-argument polytope builder, dim, notes, expected); filled at import
_BUILDERS = {}
# name -> CatalogEntry, filled by get()
_ENTRIES = {}


def _register():
    def add(name, dim, build, notes="", **expected):
        _BUILDERS[name] = (build, dim, notes, MappingProxyType(dict(expected)))

    label_note = (
        "text naming: X8 = square (P1 x P1), X9 = triangle (P2); one figure "
        "swaps the two labels"
    )
    for name in _TWO_DIM_VERTICES:
        add(
            name,
            2,
            lambda name=name: _two_dim(name),
            notes=label_note if name in ("X8", "X9") else "",
            reflexive=True,
            symmetric=True,
            weakly_symmetric=True,
            special=True,
            verdict="polystable",
        )

    for name in _TWO_DIM_VERTICES:
        special = name not in ("X8", "X9")
        add(
            f"D_{name}",
            3,
            lambda name=name: double_cone(_two_dim(name)),
            reflexive=True,
            symmetric=True,
            weakly_symmetric=True,
            special=special,
            verdict="polystable",
        )

    for name in _TWO_DIM_VERTICES:
        add(
            f"{name}_x_segment",
            3,
            lambda name=name: product(_two_dim(name), _SEG),
            reflexive=True,
            symmetric=True,
            special=True,
            verdict="polystable",
        )

    for n in range(2, 6):
        add(
            f"A{n}",
            n,
            lambda n=n: _a_poly(n),
            notes="A2 coincides with X3" if n == 2 else "",
            reflexive=True,
            symmetric=True,
            weakly_symmetric=True,
            special=True,
            verdict="polystable",
        )

    for n in range(2, 8):
        expected = dict(reflexive=True, symmetric=True)
        if n <= 6:
            expected.update(special=True, verdict="polystable")
        if n <= 5:
            expected["weakly_symmetric"] = True
        add(f"D{n}", n, lambda n=n: _cross(n), **expected)

    for n in range(1, 8):
        expected = dict(reflexive=True, symmetric=True, verdict="polystable")
        if n <= 4:
            expected["special"] = True
            expected["weakly_symmetric"] = True
        add(f"cube{n}", n, lambda n=n: _cube(n), **expected)

    for n in range(2, 6):
        expected = dict(reflexive=True, symmetric=True)
        if n <= 4:
            expected.update(weakly_symmetric=True, special=True, verdict="polystable")
        add(f"simplexPn{n}", n, lambda n=n: _simplex_pn(n), **expected)

    for n in (5, 6, 7):
        expected = {"doublecone_test": "inconclusive" if n <= 5 else "not_semistable"}
        if n >= 6:
            expected["verdict"] = "not_semistable"
        add(f"cube{n}_doublecone", n + 1, lambda n=n: double_cone(_cube(n)), **expected)

    add(
        "P3_blowup4",
        3,
        lambda: Polytope(
            [
                (0, -1, -1),
                (-1, 0, -1),
                (-1, -1, 0),
                (2, -1, -1),
                (2, -1, 0),
                (2, 0, -1),
                (-1, 2, -1),
                (-1, 2, 0),
                (0, 2, -1),
                (-1, -1, 2),
                (-1, 0, 2),
                (0, -1, 2),
            ]
        ),
        notes=(
            "vertices as listed in the source; the four corner-cut triangles lie "
            "at lattice distance 2, so this polytope is canonical but not "
            "reflexive, and it is not the polar dual of P3_blowup4_dual"
        ),
        reflexive=False,
        unique_interior_point=True,
    )
    add(
        "P3_blowup4_dual",
        3,
        lambda: Polytope(
            [
                (1, 0, 0),
                (-1, 0, 0),
                (0, 1, 0),
                (0, -1, 0),
                (0, 0, 1),
                (0, 0, -1),
                (-1, -1, -1),
                (1, 1, 1),
            ]
        ),
        notes=(
            "the octahedron glued with two corner simplices; the glued triangle "
            "faces merge into six parallelogram facets"
        ),
        reflexive=True,
        symmetric=True,
        weakly_symmetric=True,
        special=True,
        verdict="polystable",
    )
    add(
        "cuboctahedron",
        3,
        lambda: Polytope(
            [
                (1, 0, 0),
                (-1, 0, 0),
                (0, 1, 0),
                (0, -1, 0),
                (1, -1, 0),
                (-1, 1, 0),
                (0, 0, 1),
                (0, 0, -1),
                (1, 0, -1),
                (-1, 0, 1),
                (0, 1, -1),
                (0, -1, 1),
            ]
        ),
        reflexive=True,
        symmetric=True,
        weakly_symmetric=True,
        special=True,
        verdict="polystable",
    )
    add(
        "rhombic_dodecahedron",
        3,
        lambda: Polytope(
            [
                (1, 0, 0),
                (1, 1, 0),
                (0, 1, 0),
                (-1, 0, 0),
                (-1, -1, 0),
                (0, -1, 0),
                (0, 0, 1),
                (1, 0, 1),
                (1, 1, 1),
                (0, 1, 1),
                (0, 0, -1),
                (-1, 0, -1),
                (-1, -1, -1),
                (0, -1, -1),
            ]
        ),
        notes=(
            "four vertices meet four rhombi each; the facet triangulation picks "
            "the diagonals avoiding them"
        ),
        reflexive=True,
        symmetric=True,
        weakly_symmetric=True,
        special=True,
        verdict="polystable",
    )
    add(
        "P3modZ4",
        3,
        lambda: Polytope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]),
        notes="same vertex set as A3",
        reflexive=True,
        symmetric=True,
        special=True,
        verdict="polystable",
    )


_register()

# duality pairs satisfying dual(first) ~ second up to lattice isomorphism;
# (P3_blowup4, P3_blowup4_dual) is excluded: the listed vertices fail
# reflexivity, so the claimed pairing cannot hold (see the entry notes)
DUAL_PAIRS = (
    ("cube2", "D2"),
    ("cube3", "D3"),
    ("cube4", "D4"),
    ("cube6", "D6"),
    ("A2", "simplexPn2"),
    ("A3", "simplexPn3"),
    ("A4", "simplexPn4"),
    ("cuboctahedron", "rhombic_dodecahedron"),
)


def get(name):
    """Catalog entry by name, built on first request; raises UnknownName otherwise."""
    entry = _ENTRIES.get(name)
    if entry is None:
        try:
            build, _, notes, expected = _BUILDERS[name]
        except KeyError:
            raise UnknownName(name) from None
        entry = CatalogEntry(
            name=name, polytope=build().with_name(name), expected=expected, notes=notes
        )
        _ENTRIES[name] = entry
    return entry


def list_names():
    """All registered names in deterministic order (builds nothing)."""
    return sorted(_BUILDERS)


def listing():
    """(name, dim, expected) of every registered entry in name order (builds nothing)."""
    return [(name, _BUILDERS[name][1], _BUILDERS[name][3]) for name in list_names()]


def entries():
    """Every entry in name order, building the ones not built yet."""
    return [get(name) for name in list_names()]
