import random

import pytest

from semitoric import catalog, polytope
from semitoric.errors import PreconditionError
from semitoric.fan import Fan
from semitoric.hodge import (
    HodgeValue,
    _bracket,
    _l_star,
    e_face_values,
    h21_batyrev,
    h_p2,
    mirror_check,
    subdivision_counts,
    triangulation_helper,
)
from semitoric.lattice import pairing
from semitoric.polytope import HPolytope, LatticePolytope, RunTable, vertices_from_inequalities


TRIANGLE = LatticePolytope([(0, 0), (1, 0), (0, 1)])   # its normal fan is P^2


def a_k(counts, gamma, k):
    """a_k(gamma) read from the counts by the ray set of gamma."""
    return counts.get((k, gamma.ray_indices), 0)


def ref_subdivision_counts(fine, coarse):
    """The oracle for `subdivision_counts`: a_k keyed by the cone of the
    coarse fan that `Fan.locate` finds for the sum of the rays of each fine
    k-cone."""
    counts = {}
    for k in (1, 2):
        for sigma in fine.cones(k):
            key = (k, coarse.locate(sigma.relint_point()).ray_indices)
            counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("make", [
    lambda: (triangulation_helper(catalog.sec6_polytope().dual_polytope()),
             catalog.sec6_polytope()),
    lambda: (triangulation_helper(catalog.cube(2).dual_polytope()), catalog.cube(2)),
    lambda: (catalog.blowup_p2(), TRIANGLE),
], ids=["sec6-mpcp", "square", "blowup"])
def test_subdivision_counts_match_the_point_location_route(make):
    """The counts keyed by the faces of delta are those that `Fan.locate`
    finds in its normal fan, and at the relative-interior point of every
    cone of the fine fan the face of delta is dual to the cone of the normal
    fan that holds the point."""
    fine, delta = make()
    coarse = delta.normal_fan()
    assert subdivision_counts(fine, delta) == ref_subdivision_counts(fine, coarse)
    for sigma in fine.all_cones():
        x = sigma.relint_point()
        assert delta.face_at_direction(x).facets == coarse.locate(x).ray_indices


def test_subdivision_counts_trivial():
    fan = TRIANGLE.normal_fan()
    assert fan == catalog.projective_plane()
    counts = subdivision_counts(fan, TRIANGLE)
    for k in (1, 2):
        for gamma in fan.cones(k):
            assert a_k(counts, gamma, k) == 1
        for gamma in fan.cones(k % 2 + 1):
            if gamma.dim != k:
                assert a_k(counts, gamma, k) == 0


def test_subdivision_counts_blowup():
    fine, coarse = catalog.blowup_p2(), TRIANGLE.normal_fan()
    counts = subdivision_counts(fine, TRIANGLE)
    # cone(e1, e2) swallowed the new ray
    target = next(c for c in coarse.cones(2) if set(c.generators()) == {(1, 0), (0, 1)})
    assert a_k(counts, target, 1) == 1
    assert a_k(counts, target, 2) == 2
    for ray in coarse.cones(1):
        assert a_k(counts, ray, 1) == 1
    assert sum(counts.values()) == len(fine.rays) + len(fine.cones(2))


def test_mpcp_identity_on_sec6():
    delta = catalog.sec6_polytope()
    dual = delta.dual_polytope()
    fine = triangulation_helper(dual)
    coarse = delta.normal_fan()
    counts = subdivision_counts(fine, delta)
    for k in range(1, 4):
        for gamma in coarse.cones(k):
            face = delta.face_at_direction(gamma.relint_point())
            dual_face = delta.dual_face(face)
            expected = len(dual_face.as_polytope().relative_interior_points())
            assert a_k(counts, gamma, 1) == expected


def test_mpcp_identity_on_square():
    square = catalog.cube(2)
    fine = triangulation_helper(square.dual_polytope())
    coarse = square.normal_fan()
    counts = subdivision_counts(fine, square)
    for gamma in coarse.cones(1):
        face = square.face_at_direction(gamma.relint_point())
        dual_face = square.dual_face(face)
        assert a_k(counts, gamma, 1) == len(
            dual_face.as_polytope().relative_interior_points())


def test_a1_additivity():
    delta = catalog.sec6_polytope()
    fine = triangulation_helper(delta.dual_polytope())
    counts = subdivision_counts(fine, delta)
    assert sum(n for (k, _), n in counts.items() if k == 1) == len(fine.rays)


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
    assert h_p2(delta, fine, 3) == 0


def test_h_p2_range_validation():
    delta = catalog.sec6_polytope()
    coarse = delta.normal_fan()
    with pytest.raises(PreconditionError):
        h_p2(delta, coarse, 2)
    with pytest.raises(PreconditionError):
        h_p2(delta, coarse, 4)  # p = d - 3
    with pytest.raises(PreconditionError):
        h_p2(delta, coarse, 6)  # p = d - 1: the strata degenerate


def h_p2_over_cones(delta, fine, p):
    """The oracle for h_p2: both sums over the cones of the normal fan, each
    face found by its direction, a_k by the cone of the normal fan that
    `Fan.locate` finds for the sum of the rays of each fine cone."""
    coarse, d = delta.normal_fan(), fine.dim
    counts = ref_subdivision_counts(fine, coarse)
    total = 0
    for gamma in coarse.cones(p):
        if a_k(counts, gamma, 1):
            total += a_k(counts, gamma, 1) * _bracket(
                delta.face_at_direction(gamma.relint_point()), d, p)
    for gamma in coarse.cones(p + 2):
        coeff = a_k(counts, gamma, 2) - (p + 1) * a_k(counts, gamma, 1) - sum(
            a_k(counts, tau, 1) for tau in coarse.cones(p + 1)
            if tau.ray_indices <= gamma.ray_indices)
        total += _l_star(delta.face_at_direction(gamma.relint_point())) * coeff
    return total


def test_h_p2_over_faces_matches_the_sums_over_cones():
    """Octahedron x diamond (d = 5, p = 3): its dual has 22 lattice points
    off the vertices and the origin, so the refinement subdivides and the
    value is not 0."""
    octahedron, diamond = catalog.cross_polytope(3), catalog.cross_polytope(2)
    delta = LatticePolytope([a + b for a in octahedron.vertices for b in diamond.vertices])
    fine = triangulation_helper(delta.dual_polytope())
    assert h_p2(delta, fine, 3) == h_p2_over_cones(delta, fine, 3) == 36
    for delta in (catalog.sec6_polytope(), anticanonical((1, 1, 1, 1, 1, 3))):
        fine = triangulation_helper(delta.dual_polytope())
        for p in (3, delta.dim - 2):
            if p != delta.dim - 3:
                assert h_p2(delta, fine, p) == h_p2_over_cones(delta, fine, p)


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
    assert rep.side.value == 0
    assert rep.mirror_side.value >= 1
    assert not rep.symmetric
    witness = rep.mirror_side.witnesses[0]
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
    counts_a = subdivision_counts(fine_a, catalog.cross_polytope(3))
    counts_b = subdivision_counts(fine_b, catalog.cross_polytope(3))
    rays_a = {key: n for key, n in counts_a.items() if key[0] == 1}
    rays_b = {key: n for key, n in counts_b.items() if key[0] == 1}
    assert rays_a == rays_b  # ray classification is order-independent


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
                    if all(pairing(v, w) == -1 for v in fverts))
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
    """Delta is scanned once and never dilated, and of its 4,323 points only
    the 10 subdividing points of the witness are listed: every other count
    adds up segment lengths of its table.  The witnesses are those the
    per-face route reported."""
    delta = catalog.sec6_polytope()
    scanned, dilated, listed = [], [], []
    scan, dilate, points = LatticePolytope._scan, LatticePolytope.dilate, RunTable.points

    def counting_scan(self, strict, listed=True):
        scanned.append(self)
        return scan(self, strict, listed)

    def counting_dilate(self, factor):
        dilated.append(self)
        return dilate(self, factor)

    def counting_points(self, labels):
        out = points(self, labels)
        listed.append((self, len(out)))
        return out

    monkeypatch.setattr(LatticePolytope, "_scan", counting_scan)
    monkeypatch.setattr(LatticePolytope, "dilate", counting_dilate)
    monkeypatch.setattr(RunTable, "points", counting_points)
    rep = mirror_check(delta)
    assert [p for p in scanned if p is delta] == [delta]
    assert delta not in dilated
    table = delta.labelled_points(1)
    assert [n for t, n in listed if t is table] == [10]
    assert delta._lattice_points is None and table.count(table.segments) == 4323
    assert (rep.side.value, rep.mirror_side.value) == (0, 10)
    witnesses = rep.mirror_side.witnesses
    for w in witnesses:
        for key in ("double_face_interior_points", "subdividing_points"):
            assert w[key] == sorted(w[key])
    assert witnesses == SEC6_WITNESSES


def test_a_pass_of_the_hodge_benchmark_takes_at_most_60_scans(monkeypatch):
    """Work guard: the library calls of one pass of the benchmark's hodge
    tasks (the 11 K3 hulls with their edge identity, the 6 weighted-P4
    h21 pairs and the sec6 mirror check) make 60 calls to `_integer_runs`.
    Every point count reads a table that the pass builds anyway: `h21_batyrev`
    counts the points of its polytope after its face counts built the table,
    and the mirror check counts the points of the dual after its 2-faces."""
    calls = []
    scan = polytope._integer_runs
    monkeypatch.setattr(polytope, "_integer_runs", lambda *args: calls.append(1) or scan(*args))

    def length(face):
        return len(face.as_polytope().lattice_points()) - 1

    for w in K3_WEIGHTS:
        hull = k3_hull(w)
        assert hull.is_reflexive()
        assert sum(length(e) * length(hull.dual_face(e)) for e in hull.faces(1)) == 24
    for w in P4_WEIGHTS:
        rays = [tuple(int(i == j) for j in range(4)) for i in range(4)] + [tuple(-x for x in w)]
        assert h21_batyrev(anticanonical(w)) > h21_batyrev(LatticePolytope(rays)) > 0
    assert mirror_check(catalog.sec6_polytope()).mirror_side.value == 10
    assert len(calls) <= 60


def test_hodge_values_do_not_share_default_witnesses():
    a, b = HodgeValue(0), HodgeValue(0)
    a.witnesses.append({"face": []})
    assert b.witnesses == [] and HodgeValue(0).witnesses == []
