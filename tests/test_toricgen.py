from itertools import product as iproduct

import pytest

from chowtool.errors import OriginMissing
from chowtool.geometry import Polytope, double_cone
from chowtool.linalg import same_row_span
from chowtool.toricgen import (
    ordered_points,
    relation_basis,
    binomial_equations,
    render_equations,
    KERNEL_BASIS_NOTE,
)
from chowtool import catalog, toricgen


def vec_for(points, combos, z0):
    """Relation vector from {point: coefficient} plus the z0 coefficient."""
    v = [0] * len(points)
    v[0] = -z0
    for p, c in combos.items():
        v[points.index(p)] += c
    return tuple(v)


def test_points_order_origin_first():
    X3 = catalog.get("X3").polytope
    pts = ordered_points(X3)
    assert pts[0] == (0, 0)
    assert pts[1:] == sorted(pts[1:])


def test_origin_required():
    with pytest.raises(OriginMissing):
        binomial_equations(Polytope([(1, 0), (2, 0), (1, 1)]))


def test_relation_basis_origin_raises_without_asserts():
    # an explicit raise, so python -O keeps it
    for points in ([], [(1, 0), (0, 0), (0, 1)]):
        with pytest.raises(OriginMissing, match="point 0 must be the origin"):
            relation_basis(points)


def test_inhomogeneous_relation_raises_without_asserts(monkeypatch):
    # an explicit raise, so python -O keeps it; (0, 1, 0, 0) is no relation:
    # its one-sided z1 = 1 has degrees 1 and 0
    monkeypatch.setattr(toricgen, "relation_basis", lambda points: [(0, 1, 0, 0)])
    with pytest.raises(AssertionError, match="inhomogeneous relation"):
        binomial_equations(catalog.get("X3").polytope)


def test_relation_basis_X3():
    X3 = catalog.get("X3").polytope
    pts = ordered_points(X3)
    basis = relation_basis(pts)
    assert len(basis) == 1
    # the documented relation p1 + p2 + p3 = 3 p0 up to sign
    expected = vec_for(pts, {(-1, -1): 1, (0, 1): 1, (1, 0): 1}, 3)
    assert basis[0] in (expected, tuple(-x for x in expected))


def test_relation_basis_X4_pairs():
    X4 = catalog.get("X4").polytope
    pts = ordered_points(X4)
    basis = relation_basis(pts)
    assert len(basis) == 2
    paper = [
        vec_for(pts, {(1, 0): 1, (-1, 0): 1}, 2),
        vec_for(pts, {(0, 1): 1, (0, -1): 1}, 2),
    ]
    assert same_row_span(basis, paper)


def test_single_point_no_relations():
    P = Polytope([(0,), (1,)])
    pts, eqs = binomial_equations(P)
    assert eqs == []


def test_equations_DX3():
    entry = catalog.get("D_X3")
    pts, eqs = binomial_equations(entry.polytope)
    mine = [e.as_vector(len(pts)) for e in eqs]
    paper = [
        vec_for(pts, {(-1, -1, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1}, 3),
        vec_for(pts, {(0, 0, 1): 1, (0, 0, -1): 1}, 2),
    ]
    assert same_row_span(mine, paper)


def test_equations_A_family():
    for n in range(2, 6):
        P = catalog.get(f"A{n}").polytope
        pts, eqs = binomial_equations(P)
        assert len(eqs) == 1
        mine = [e.as_vector(len(pts)) for e in eqs]
        combos = {tuple(1 if j == i else 0 for j in range(n)): 1 for i in range(n)}
        combos[(-1,) * n] = 1
        paper = [vec_for(pts, combos, n + 1)]
        assert same_row_span(mine, paper)
        assert eqs[0].z0_power == n + 1


def test_equations_D_family():
    for n in range(2, 6):
        P = catalog.get(f"D{n}").polytope
        pts, eqs = binomial_equations(P)
        assert len(eqs) == n
        mine = [e.as_vector(len(pts)) for e in eqs]
        paper = []
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            me = tuple(-x for x in e)
            paper.append(vec_for(pts, {e: 1, me: 1}, 2))
        assert same_row_span(mine, paper)


def test_equations_DX4():
    P = catalog.get("D_X4").polytope
    pts, eqs = binomial_equations(P)
    assert len(eqs) == 3
    mine = [e.as_vector(len(pts)) for e in eqs]
    paper = []
    for i in range(3):
        e = tuple(1 if j == i else 0 for j in range(3))
        me = tuple(-x for x in e)
        paper.append(vec_for(pts, {e: 1, me: 1}, 2))
    assert same_row_span(mine, paper)


def test_kernel_membership_and_homogeneity():
    for name in ("X3", "X4", "X6", "X8", "X9", "D_X3", "A3", "D3"):
        P = catalog.get(name).polytope
        pts, eqs = binomial_equations(P)
        n = P.dim
        for eq in eqs:
            vec = eq.as_vector(len(pts))
            # exact kernel membership of the homogenized point matrix
            for i in range(n):
                assert sum(vec[j] * pts[j][i] for j in range(len(pts))) == 0
            assert sum(vec) == 0
            # homogeneity: lhs degree = rhs degree + z0 power
            lhs = sum(e for _, e in eq.lhs_exponents)
            rhs = sum(e for _, e in eq.rhs_exponents)
            assert lhs == rhs + eq.z0_power
            # disjoint supports
            assert not (
                {i for i, _ in eq.lhs_exponents} & {i for i, _ in eq.rhs_exponents}
            )


def test_render_mentions_limitation():
    X3 = catalog.get("X3").polytope
    out = render_equations(X3)
    assert KERNEL_BASIS_NOTE in out
    assert "z1*z2*z3 = z0^3" in out
