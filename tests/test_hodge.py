import random

import pytest

from semitoric import catalog
from semitoric.errors import PreconditionError
from semitoric.fan import Fan
from semitoric.hodge import (
    HodgeValue,
    e_face_values,
    h21_batyrev,
    h_p2,
    mirror_check,
    subdivision_counts,
    triangulation_helper,
)
from semitoric.lattice import pairing_q
from semitoric.polytope import HPolytope, LatticePolytope, vertices_from_inequalities


def test_subdivision_counts_trivial():
    fan = catalog.projective_plane()
    counts = subdivision_counts(fan, fan)
    for k in (1, 2):
        for gamma in fan.cones(k):
            assert counts.a(gamma, k) == 1
        for gamma in fan.cones(k % 2 + 1):
            if gamma.dim != k:
                assert counts.a(gamma, k) == 0


def test_subdivision_counts_blowup():
    fine, coarse = catalog.blowup_p2(), catalog.projective_plane()
    counts = subdivision_counts(fine, coarse)
    target = coarse.cone_ref([0, 1])  # cone(e1, e2) swallowed the new ray
    assert counts.a(target, 1) == 1
    assert counts.a(target, 2) == 2
    for ray in coarse.cones(1):
        assert counts.a(ray, 1) == 1


def test_mpcp_identity_on_sec6():
    delta = catalog.sec6_polytope()
    dual = delta.dual_polytope()
    fine = triangulation_helper(dual)
    coarse = delta.normal_fan()
    counts = subdivision_counts(fine, coarse)
    for k in range(1, 4):
        for gamma in coarse.cones(k):
            face = delta.face_at_direction(gamma.relint_point())
            dual_face = delta.dual_face(face)
            expected = len(dual_face.as_polytope().relative_interior_points())
            assert counts.a(gamma, 1) == expected


def test_mpcp_identity_on_square():
    square = catalog.cube(2)
    fine = triangulation_helper(square.dual_polytope())
    coarse = square.normal_fan()
    counts = subdivision_counts(fine, coarse)
    for gamma in coarse.cones(1):
        face = square.face_at_direction(gamma.relint_point())
        dual_face = square.dual_face(face)
        assert counts.a(gamma, 1) == len(
            dual_face.as_polytope().relative_interior_points())


def test_a1_additivity():
    delta = catalog.sec6_polytope()
    fine = triangulation_helper(delta.dual_polytope())
    coarse = delta.normal_fan()
    counts = subdivision_counts(fine, coarse)
    assert sum(counts.a1.values()) == len(fine.rays)


def test_e_face_values_zero_face():
    tri = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert e_face_values(tri, 5, 2) == (0, 0)


def test_e_face_values_sec6_4face():
    n0 = (-2, -2, -2, -2, -3, -3, -3)
    basis = [tuple(int(i == j) for j in range(7)) for i in range(4)]
    face = LatticePolytope([n0] + basis)
    e1, e0 = e_face_values(face, 7, 3)
    assert (abs(e1), e0) == (1, 0)
    assert e1 == (-1) ** (7 - 3 - 1) * 1


def test_e_face_values_sec6_2face():
    tri = LatticePolytope([(-1, -1, -1, -1, 5, -1, -1),
                           (-1, -1, -1, -1, -1, 5, -1),
                           (-1, -1, -1, -1, -1, -1, 5)])
    e1, e0 = e_face_values(tri, 7, 3)
    assert e1 == 0
    assert abs(e0) == 10  # ten interior points
    assert e0 == (-1) ** (7 - 3 - 3) * 10


def test_e_face_values_dimension_mismatch():
    seg = LatticePolytope([(0, 0), (1, 0)])
    with pytest.raises(PreconditionError):
        e_face_values(seg, 7, 3)


def test_h_p2_sec6_trivial_subdivision_vanishes():
    delta = catalog.sec6_polytope()
    coarse = delta.normal_fan()
    fine = triangulation_helper(delta.dual_polytope())
    assert fine == coarse  # no extra points, no subdivision
    assert h_p2(delta, fine, coarse, 3) == 0


def test_h_p2_range_validation():
    delta = catalog.sec6_polytope()
    coarse = delta.normal_fan()
    with pytest.raises(PreconditionError):
        h_p2(delta, coarse, coarse, 2)
    with pytest.raises(PreconditionError):
        h_p2(delta, coarse, coarse, 4)  # p = d - 3
    with pytest.raises(PreconditionError):
        h_p2(delta, coarse, coarse, 6)  # p = d - 1: the strata degenerate


def test_h21_batyrev_quintic():
    assert h21_batyrev(catalog.quintic_polytope()) == 101


def test_h21_batyrev_requires_reflexive():
    simplex = LatticePolytope([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                               (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(PreconditionError):
        h21_batyrev(simplex)


def test_h21_batyrev_p11222():
    from semitoric.divisor import TorusInvariantDivisor
    delta = TorusInvariantDivisor(catalog.p11222_fan(), (1,) * 5).section_polytope()
    assert h21_batyrev(delta) == 86


def test_triangulation_helper_sec6_identity():
    delta = catalog.sec6_polytope()
    fan = triangulation_helper(delta.dual_polytope())
    assert fan == delta.normal_fan()


def test_triangulation_helper_square_midpoints():
    diamond = catalog.cross_polytope(2)  # dual of the square
    fan = triangulation_helper(catalog.cube(2))
    assert len(fan.rays) == 8
    assert len(fan.max_cones) == 8
    assert fan.is_simplicial
    assert fan.is_complete
    assert fan.is_refinement(catalog.cube(2).normal_fan())


def test_triangulation_helper_simplex_identity():
    tri = LatticePolytope([(1, 0), (0, 1), (-1, -1)])
    fan = triangulation_helper(tri)
    assert sorted(fan.rays) == [(-1, -1), (0, 1), (1, 0)]


def test_triangulation_helper_3d_cube():
    fan = triangulation_helper(catalog.cube(3))
    assert set(fan.rays) == {p for p in catalog.cube(3).lattice_points() if any(p)}
    assert fan.is_simplicial
    assert fan.is_complete


def test_mirror_check_sec6():
    rep = mirror_check(catalog.sec6_polytope())
    assert rep.side.value(3, 2) == 0
    assert rep.mirror_side.value(3, 2) >= 1
    assert not rep.symmetric
    witness = rep.mirror_side.values[0].witnesses[0]
    n0 = [-2, -2, -2, -2, -3, -3, -3]
    assert n0 in witness["face"]
    assert [-1, -1, -1, -1, -2, -2, -2] in witness["double_face_interior_points"]
    assert [-1, -1, -1, -1, 1, 1, 1] in witness["subdividing_points"]


def test_mirror_check_rejects_nonreflexive():
    simplex = LatticePolytope([tuple(int(i == j) for j in range(7))
                               for i in range(7)] + [(0,) * 7])
    with pytest.raises(PreconditionError):
        mirror_check(simplex)


def test_mirror_check_rejects_wrong_dimension():
    with pytest.raises(PreconditionError):
        mirror_check(catalog.cube(3))


def test_triangulation_helper_two_orders_same_rays():
    q = catalog.cube(3)
    coarse = q.normal_fan()  # fan over the faces of the dual octahedron
    fine_a = triangulation_helper(q)
    fine_b = triangulation_helper(q, reverse=True)
    assert set(fine_a.rays) == set(fine_b.rays)
    dual_fan = catalog.cross_polytope(3).normal_fan()
    assert fine_a.is_refinement(dual_fan)
    assert fine_b.is_refinement(dual_fan)
    counts_a = subdivision_counts(fine_a, dual_fan)
    counts_b = subdivision_counts(fine_b, dual_fan)
    assert counts_a.a1 == counts_b.a1  # ray classification is order-independent


# -- the labelled table against per-face enumeration ------------------------------


K3_WEIGHTS = ["111", "112", "113", "122", "123", "124", "134", "223", "233", "234", "344"]
P4_WEIGHTS = [(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 4), (1, 1, 2, 5), (1, 2, 2, 2), (1, 2, 2, 6)]


def anticanonical(weights):
    """{m : m_i >= -1, sum w_i m_i <= 1}: the section polytope of -K on P(1, w)."""
    d = len(weights)
    return vertices_from_inequalities(HPolytope(
        [(tuple(int(i == j) for j in range(d)), -1) for i in range(d)]
        + [(tuple(-w for w in weights), -1)]))


def per_face_interior_points(face, k):
    """The oracle: the face rebuilt as a polytope, dilated and enumerated."""
    return face.as_polytope().dilate(k).relative_interior_points()


def assert_table_matches_per_face(poly, ks=(1, 2)):
    for k in ks:
        for face in poly.all_faces():
            assert face.interior_points(k) == per_face_interior_points(face, k), (face, k)


def dual_face_by_pairing(poly, face):
    """The oracle for dual_face: the dual vertices pairing to -1 with every
    vertex of the face, and the dimension of their hull."""
    dual = poly.dual_polytope()
    fverts = [poly.vertices[i] for i in face.vertex_indices]
    idx = frozenset(i for i, w in enumerate(dual.vertices)
                    if all(pairing_q(v, w) == -1 for v in fverts))
    pts = [dual.vertices[i] for i in sorted(idx)]
    return idx, LatticePolytope(pts, _trusted=True).dim


def k3_hull(weights):
    return LatticePolytope(anticanonical([int(c) for c in weights]).lattice_points())


def reflexive_pairs():
    polys = [k3_hull(w) for w in K3_WEIGHTS]
    polys += [anticanonical(w) for w in P4_WEIGHTS]
    polys += [catalog.sec6_polytope(), catalog.cube(3)]
    return [(p, p.dual_polytope()) for p in polys]


def random_polytopes(seed, count):
    """Hulls of a few random points of base + span(b_1..b_m) in Z^n, m <= n;
    the b_j are small and need not be saturated, so the face lattices sit in
    proper sublattices as well."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        m = rng.randint(1, n)
        base = [rng.randint(-2, 2) for _ in range(n)]
        basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        pts = [tuple(b + sum(rng.randint(-2, 2) * v[i] for v in basis)
                     for i, b in enumerate(base)) for _ in range(m + rng.randint(1, 4))]
        poly = LatticePolytope(pts)
        if poly.dim >= 0:
            out.append(poly)
    return out


def test_table_matches_per_face_on_reflexive_polytopes_and_duals():
    for poly, dual in reflexive_pairs():
        assert poly.is_reflexive()
        ks = (1,) if poly == catalog.sec6_polytope() else (1, 2)  # 2 Delta: its own test
        assert_table_matches_per_face(poly, ks)
        assert_table_matches_per_face(dual)


def test_table_matches_per_face_on_doubled_sec6():
    """2 Delta has 165,218 points: the table the mirror flow never builds."""
    assert_table_matches_per_face(catalog.sec6_polytope(), ks=(2,))


def test_table_matches_per_face_on_rational_polytopes():
    for w in K3_WEIGHTS:
        poly = anticanonical([int(c) for c in w])
        assert_table_matches_per_face(poly)


def test_table_matches_per_face_on_random_polytopes():
    polys = random_polytopes(20261018, 40)
    assert any(p.dim < p.ambient_dim for p in polys)
    assert any(p.dim == 0 for p in polys)
    for poly in polys:
        assert_table_matches_per_face(poly)


def test_dual_face_from_facet_sets_matches_pairing_route():
    for poly, dual in reflexive_pairs():
        for side, other in ((poly, dual), (dual, poly)):
            for face in side.all_faces():
                got = side.dual_face(face)
                assert got.polytope is other
                assert (got.vertex_indices, got.dim) == dual_face_by_pairing(side, face)


def test_bare_polytope_is_its_own_improper_face():
    tri = LatticePolytope([(-1, -1, -1, -1, 5, -1, -1), (-1, -1, -1, -1, -1, 5, -1),
                           (-1, -1, -1, -1, -1, -1, 5)])
    face = tri.faces(2)[0]
    assert face.facets == frozenset()
    assert e_face_values(face, 7, 3) == e_face_values(tri, 7, 3)


SEC6_WITNESSES = [{
    "double_face_interior_points": [[-1, -1, -1, -1, -2, -2, -2]],
    "dual_face": [[-1, -1, -1, -1, -1, -1, 5], [-1, -1, -1, -1, -1, 5, -1],
                  [-1, -1, -1, -1, 5, -1, -1]],
    "face": [[-2, -2, -2, -2, -3, -3, -3], [0, 0, 0, 1, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0],
             [0, 1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0]],
    "subdividing_points": [
        [-1, -1, -1, -1, 0, 0, 3], [-1, -1, -1, -1, 0, 1, 2], [-1, -1, -1, -1, 0, 2, 1],
        [-1, -1, -1, -1, 0, 3, 0], [-1, -1, -1, -1, 1, 0, 2], [-1, -1, -1, -1, 1, 1, 1],
        [-1, -1, -1, -1, 1, 2, 0], [-1, -1, -1, -1, 2, 0, 1], [-1, -1, -1, -1, 2, 1, 0],
        [-1, -1, -1, -1, 3, 0, 0]],
}]


def test_mirror_check_sec6_enumerates_delta_once(monkeypatch):
    """Delta's 4,323 points are enumerated once and Delta is never dilated;
    the witnesses are those the per-face route reported."""
    delta = catalog.sec6_polytope()
    enumerated, dilated = [], []
    points, dilate = LatticePolytope._points, LatticePolytope.dilate

    def counting_points(self, strict):
        out = points(self, strict)
        enumerated.append((self, len(out)))
        return out

    def counting_dilate(self, factor):
        dilated.append(self)
        return dilate(self, factor)

    monkeypatch.setattr(LatticePolytope, "_points", counting_points)
    monkeypatch.setattr(LatticePolytope, "dilate", counting_dilate)
    rep = mirror_check(delta)
    assert [n for p, n in enumerated if p == delta] == [4323]
    assert delta not in dilated
    assert (rep.side.value(3, 2), rep.mirror_side.value(3, 2)) == (0, 10)
    witnesses = rep.mirror_side.values[0].witnesses
    for w in witnesses:
        for key in ("double_face_interior_points", "subdividing_points"):
            assert w[key] == sorted(w[key])
    assert witnesses == SEC6_WITNESSES


def test_hodge_values_do_not_share_default_witnesses():
    a, b = HodgeValue(3, 2, 0, "formula"), HodgeValue(3, 2, 0, "formula")
    a.witnesses.append({"face": []})
    assert b.witnesses == [] and HodgeValue(3, 2, 0, "formula").witnesses == []
