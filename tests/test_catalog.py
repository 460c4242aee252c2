"""The catalog expectation map is the backbone of the ground-truth tests:
every claim stored on an entry is recomputed by the corresponding module.
"""

import os
import subprocess
import sys

import pytest

import chowtool
from chowtool import catalog
from chowtool.errors import UnknownName
from chowtool.geometry import (
    Polytope,
    dual,
    is_reflexive,
    interior_lattice_points,
    double_cone,
)
from chowtool.symmetry import is_symmetric, is_weakly_symmetric
from chowtool.stability import (
    classify,
    check_special,
    double_cone_instability,
    POLYSTABLE,
    NOT_SEMISTABLE,
    INCONCLUSIVE,
)

# dimensions where the full classification pipeline runs in test time
_CLASSIFY_CAP = {"polystable": 3, "not_semistable": 8}
_SPECIAL_KMAX = {4: 3, 5: 2, 6: 1}


def test_get_and_list():
    names = catalog.list_names()
    assert names == sorted(names)
    assert "X6" in names and "D_X8" in names and "cube6_doublecone" in names
    entry = catalog.get("X6")
    assert set(entry.polytope.vertices) == {
        (0, 1),
        (0, -1),
        (1, 0),
        (-1, 0),
        (1, -1),
        (-1, 1),
    }
    with pytest.raises(UnknownName):
        catalog.get("nope")


def test_import_builds_no_entry():
    # a fresh interpreter: this process may have built entries already
    src = os.path.dirname(os.path.dirname(chowtool.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import contextlib, io\n"
        "import chowtool.cli\n"
        "from chowtool import catalog\n"
        "caches = (catalog._cube_chain, catalog._cube, catalog._a_poly, catalog._two_dim)\n"
        "print(len(catalog._ENTRIES), sum(c.cache_info().currsize for c in caches),"
        " len(catalog.list_names()), len(catalog._ENTRIES))\n"
        "with contextlib.redirect_stdout(io.StringIO()) as listing:\n"
        "    chowtool.cli.main(['catalog', 'list'])\n"
        "print(len(listing.getvalue().splitlines()), len(catalog._ENTRIES),"
        " sum(c.cache_info().currsize for c in caches))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    n = str(len(catalog.list_names()))
    assert out.stdout.split() == ["0", "0", n, "0", n, "0", "0"]


def test_listing_matches_the_built_entries():
    assert catalog.listing() == [(e.name, e.polytope.dim, e.expected) for e in catalog.entries()]


def test_get_memoises_entries():
    first = catalog.get("cube3")
    assert catalog.get("cube3") is first
    assert catalog.get("cube3").polytope is first.polytope
    with pytest.raises(UnknownName):
        catalog.get("nope")
    with pytest.raises(UnknownName):
        catalog.get("nope")
    assert "nope" not in catalog._ENTRIES


def test_entries_builds_every_name():
    assert [e.name for e in catalog.entries()] == catalog.list_names()
    assert all(catalog.get(e.name) is e for e in catalog.entries())


def test_A2_equals_X3():
    assert catalog.get("A2").polytope.vertices == catalog.get("X3").polytope.vertices


def test_P3modZ4_is_A3():
    assert catalog.get("P3modZ4").polytope.vertices == catalog.get("A3").polytope.vertices


def test_label_swap_documented():
    assert "swap" in catalog.get("X8").notes
    assert "swap" in catalog.get("X9").notes


def test_rhombic_dodecahedron_has_14_vertices():
    assert len(catalog.get("rhombic_dodecahedron").polytope.vertices) == 14


def test_entries_load_as_valid_polytopes():
    for entry in catalog.entries():
        P = entry.polytope
        assert P.dim >= 1
        for v in P.vertices:
            assert all(f.value(v) >= 0 for f in P.facets)
        for f in P.facets:
            assert len(f.vertices) >= P.dim


def test_dual_pairs_up_to_lattice_isomorphism():
    for a, b in catalog.DUAL_PAIRS:
        A = catalog.get(a).polytope
        B = catalog.get(b).polytope
        D = dual(A)
        assert lattice_isomorphic(D, B), (a, b)
        # and back
        assert lattice_isomorphic(dual(B), A)


def lattice_isomorphic(P, Q):
    """Search for U in GL(n, Z) with U . vertices(P) = vertices(Q)."""
    from chowtool.linalg import adjugate, matvec, det_int, rank_rational

    if P.dim != Q.dim or len(P.vertices) != len(Q.vertices):
        return False
    if set(P.vertices) == set(Q.vertices):
        return True
    n = P.dim
    base, rows = [], []
    for v in P.vertices:
        if rank_rational(rows + [v]) == len(rows) + 1:
            base.append(v)
            rows.append(v)
            if len(base) == n:
                break
    # inverse of the base matrix B is adj(B) / det(B)
    base_cols = [list(col) for col in zip(*base)]
    base_adj = adjugate(base_cols)
    base_det = det_int(base_cols)
    from itertools import permutations

    qverts = set(Q.vertices)

    def try_images(images):
        cols = list(zip(*images))
        g = []
        for i in range(n):
            row = []
            for j in range(n):
                x, r = divmod(sum(cols[i][l] * base_adj[l][j] for l in range(n)), base_det)
                if r:
                    return False
                row.append(x)
            g.append(tuple(row))
        if abs(det_int(g)) != 1:
            return False
        return {matvec(tuple(g), v) for v in P.vertices} == qverts

    # try small tuples of candidate images (desk scale)
    from itertools import permutations as perms

    candidates = list(qverts)
    count = 0
    for images in perms(candidates, n):
        count += 1
        if count > 200000:
            break
        if try_images(list(images)):
            return True
    return False


def test_blowup_pair_documented_mismatch():
    # the listed P3_blowup4 is not reflexive, hence excluded from DUAL_PAIRS
    entry = catalog.get("P3_blowup4")
    assert entry.expected["reflexive"] is False
    assert "not the polar dual" in entry.notes
    assert ("P3_blowup4", "P3_blowup4_dual") not in catalog.DUAL_PAIRS


def test_expected_properties_reproduced():
    for entry in catalog.entries():
        P = entry.polytope
        exp = entry.expected
        if "reflexive" in exp:
            assert is_reflexive(P) == exp["reflexive"], entry.name
        if "unique_interior_point" in exp:
            assert (len(interior_lattice_points(P)) == 1) == exp[
                "unique_interior_point"
            ], entry.name
        if "symmetric" in exp:
            assert is_symmetric(P) == exp["symmetric"], entry.name
        if "weakly_symmetric" in exp:
            ok, _ = is_weakly_symmetric(P)
            assert ok == exp["weakly_symmetric"], entry.name
        if "special" in exp:
            k_max = _SPECIAL_KMAX.get(P.dim)
            v = check_special(P, k_max=k_max) if k_max else check_special(P)
            assert (v.status == POLYSTABLE) == exp["special"], entry.name
        if "doublecone_test" in exp:
            base = P._provenance[1][0]
            v = double_cone_instability(base)
            assert v.status == exp["doublecone_test"], entry.name
        if "verdict" in exp:
            got = _verdict_for(entry)
            assert got == exp["verdict"], entry.name


def _verdict_for(entry):
    P = entry.polytope
    exp = entry.expected
    if exp["verdict"] == POLYSTABLE and P.dim > _CLASSIFY_CAP["polystable"]:
        # big polystable entries: specialness or the product rule certifies,
        # without rerunning the full pipeline at test time
        if exp.get("special"):
            return POLYSTABLE
        v = classify(P, k_max=1)
        return v.status
    v = classify(P)
    return v.status
