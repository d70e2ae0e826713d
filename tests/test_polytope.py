from fractions import Fraction
from itertools import product
from math import comb

import pytest

from semitoric import lattice
from semitoric.errors import PreconditionError, ValidationError
from semitoric.polytope import Face, HPolytope, LatticePolytope, vertices_from_inequalities


def unit_simplex(d):
    h = HPolytope([(tuple(int(i == j) for j in range(d)), 0) for i in range(d)]
                  + [((-1,) * d, -1)])
    return vertices_from_inequalities(h)


def standard_simplex_dilated(d, k):
    verts = [(0,) * d] + [tuple(k * int(i == j) for j in range(d)) for i in range(d)]
    return LatticePolytope(verts)


SEC6_INEQS = [(tuple(int(i == j) for j in range(7)), -1) for i in range(7)] + \
    [((-2, -2, -2, -2, -3, -3, -3), -1)]


def sec6_polytope():
    return vertices_from_inequalities(HPolytope(SEC6_INEQS))


def test_vertices_unit_simplex():
    p = unit_simplex(2)
    assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}


def test_vertices_segment():
    p = vertices_from_inequalities(HPolytope([((1,), 0), ((-1,), -2)]))
    assert set(p.vertices) == {(0,), (2,)}


def test_vertices_unbounded():
    with pytest.raises(PreconditionError):
        vertices_from_inequalities(HPolytope([((1, 0), 0), ((0, 1), 0)]))


def test_vertices_infeasible_is_empty():
    p = vertices_from_inequalities(HPolytope([((1,), 1), ((-1,), 0)]))
    assert p.is_empty
    assert p.lattice_points() == []


def test_sec6_polytope_is_7dim_with_8_vertices():
    p = sec6_polytope()
    assert p.dim == 7
    assert len(p.vertices) == 8
    assert p.is_lattice


def test_lattice_points_unit_simplex():
    assert len(unit_simplex(2).lattice_points()) == 3


def test_lattice_points_dilated_4_simplex():
    p = standard_simplex_dilated(4, 5)
    assert len(p.lattice_points()) == comb(9, 4)  # 126, stars and bars


def test_lattice_points_sec6_dual():
    dual = sec6_polytope().dual_polytope()
    pts = dual.lattice_points()
    assert len(pts) == 9  # vertices and the origin only


def test_lattice_points_of_rational_polytopes():
    """A rational lex-first vertex: the full-dimensional triangle needs an
    integer anchor, and the segment's box is read relative to its anchor."""
    tri = LatticePolytope([(0, Fraction(3, 2)), (0, 2), (1, 2)])
    assert tri.lattice_points() == [(0, 2), (1, 2)]
    assert tri.relative_interior_points() == []
    seg = LatticePolytope([(Fraction(5, 2), Fraction(5, 2)), (Fraction(9, 2), Fraction(9, 2))])
    assert seg.lattice_points() == seg.relative_interior_points() == [(3, 3), (4, 4)]


def test_interior_points_unit_simplex():
    assert unit_simplex(2).relative_interior_points() == []


def test_interior_point_of_doubled_4face():
    dual = sec6_polytope().dual_polytope()
    n0 = (-2, -2, -2, -2, -3, -3, -3)
    basis = [tuple(int(i == j) for j in range(7)) for i in range(4)]
    face = LatticePolytope([n0] + basis)
    doubled = face.dilate(2)
    assert (-1, -1, -1, -1, -2, -2, -2) in doubled.relative_interior_points()


def test_interior_point_of_2face():
    tri = LatticePolytope([(-1, -1, -1, -1, 5, -1, -1),
                           (-1, -1, -1, -1, -1, 5, -1),
                           (-1, -1, -1, -1, -1, -1, 5)])
    assert (-1, -1, -1, -1, 1, 1, 1) in tri.relative_interior_points()


def test_faces_unit_simplex_edges():
    assert len(unit_simplex(2).faces(1)) == 3


def test_faces_sec6_dual_vertices():
    dual = sec6_polytope().dual_polytope()
    assert len(dual.faces(0)) == 8


def test_faces_cube_facets():
    cube = LatticePolytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert len(cube.faces(2)) == 6


def test_normalized_volume():
    assert unit_simplex(2).normalized_volume() == 1
    seg = LatticePolytope([(-2,), (0,)])
    assert seg.normalized_volume() == 2
    assert standard_simplex_dilated(4, 5).normalized_volume() == 5 ** 4


def test_dilate():
    seg = LatticePolytope([(0,), (1,)])
    assert set(seg.dilate(2).vertices) == {(0,), (2,)}
    assert len(unit_simplex(2).dilate(2).lattice_points()) == 6


def test_dilate_carries_facets_and_span_over():
    p = sec6_polytope().dual_polytope()
    p.facets()
    for k in (1, 2, 3):
        view, fresh = p.dilate(k), LatticePolytope(p.dilate(k).vertices, _trusted=True)
        assert view.facets() == fresh.facets()
        assert view.lattice_points() == fresh.lattice_points()
    rational = vertices_from_inequalities(HPolytope([((1, 0), 0), ((0, 1), 0), ((-2, -3), -3)]))
    rational.facets()
    assert rational.dilate(2).facets() == LatticePolytope(rational.dilate(2).vertices).facets()


def test_lattice_points_memoized_as_fresh_lists():
    p = unit_simplex(2)
    first = p.lattice_points()
    first.append((9, 9))
    assert p.lattice_points() == [(0, 0), (0, 1), (1, 0)]
    assert p.lattice_points() is not p.lattice_points()


def test_faces_know_their_facets():
    for p in (sec6_polytope(), sec6_polytope().dual_polytope(), unit_simplex(3),
              LatticePolytope([(0, 0, 0), (2, 1, 0), (0, 1, 2), (2, 2, 2)])):
        tights = [t for _, _, t in p.facets()]
        for face in p.all_faces():
            assert face.facets == {i for i, t in enumerate(tights) if face.vertex_indices <= t}
            if face.facets:
                assert frozenset.intersection(*(tights[i] for i in face.facets)) == \
                    face.vertex_indices
            rebuilt = Face(p, face.vertex_indices, face.dim)
            assert rebuilt == face and hash(rebuilt) == hash(face)
            assert rebuilt.facets == face.facets
            # equality and hashing ignore the facets, which follow from the rest
            mislabelled = Face(p, face.vertex_indices, face.dim, frozenset({-1}))
            assert mislabelled == face and hash(mislabelled) == hash(face)
            assert Face(p, face.vertex_indices, face.dim + 1) != face
        assert len(set(p.all_faces())) == len(p.all_faces())
    p = unit_simplex(2)
    assert Face(p, frozenset({0}), 0) != Face(unit_simplex(3), frozenset({0}), 0)
    assert Face(p, frozenset({0}), 0) != Face(p, frozenset({1}), 0)
    assert Face(p, frozenset({0}), 0) != frozenset({0})


def test_interior_points_partition_the_dilates():
    p = LatticePolytope([(0, 0, 0), (2, 1, 0), (0, 1, 2), (2, 2, 2), (1, 3, 1)])
    for k in (1, 2, 3):
        by_face = sorted(x for f in p.all_faces() for x in f.interior_points(k))
        assert by_face == p.dilate(k).lattice_points()
        assert sum(map(len, p.labelled_points(k).values())) == len(by_face)


def test_span_basis_of_a_skew_triangle_is_size_reduced():
    """A saturation basis of this triangle's span had 9-digit entries; the
    enumeration box in those coordinates took over a minute to scan."""
    verts = [(-3, 5, 7, -4), (8, 2, 3, -2), (9, -3, 4, -10)]
    tri = LatticePolytope(verts)
    basis = tri._span_data().basis
    assert max(abs(x) for b in basis for x in b) < 20
    box = [range(min(v[i] for v in verts), max(v[i] for v in verts) + 1) for i in range(4)]
    brute = sorted(x for x in product(*box) if tri.contains(x))
    assert tri.lattice_points() == brute
    assert tri.relative_interior_points() == [
        x for x in brute if all(lattice.pairing(x, n) > r for n, r, _ in tri.facets())]


def test_reflexive_square():
    sq = LatticePolytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert sq.is_reflexive()
    dual = sq.dual_polytope()
    assert set(dual.vertices) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert dual.is_reflexive()


def test_sec6_reflexive_with_quoted_dual_vertices():
    p = sec6_polytope()
    assert p.is_reflexive()
    dual = p.dual_polytope()
    n0 = (-2, -2, -2, -2, -3, -3, -3)
    expected = {n0} | {tuple(int(i == j) for j in range(7)) for i in range(7)}
    assert {tuple(int(x) for x in v) for v in dual.vertices} == expected


def test_dual_polytope_roundtrip():
    p = sec6_polytope()
    assert p.dual_polytope().dual_polytope() == p


def test_dual_face_pairing():
    p = sec6_polytope()
    tri_idx = frozenset(i for i, v in enumerate(p.vertices)
                        if tuple(v[:4]) == (-1, -1, -1, -1) and max(v) == 5)
    assert len(tri_idx) == 3
    face = Face(p, tri_idx, 2)
    dual_face = p.dual_face(face)
    assert dual_face.dim == 4  # dim f + dim f* = d - 1
    verts = {tuple(int(x) for x in v) for v in dual_face.vertices()}
    n0 = (-2, -2, -2, -2, -3, -3, -3)
    expected = {n0} | {tuple(int(i == j) for j in range(7)) for i in range(4)}
    assert verts == expected


def test_dual_face_dimension_sum():
    p = LatticePolytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
    for k in (0, 1):
        for f in p.faces(k):
            assert f.dim + p.dual_face(f).dim == p.dim - 1


def test_normal_fan_unit_simplex_is_projective_plane():
    fan = unit_simplex(2).normal_fan()
    assert set(fan.rays) == {(1, 0), (0, 1), (-1, -1)}
    assert len(fan.max_cones) == 3


def test_normal_fan_unit_square():
    sq = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    fan = sq.normal_fan()
    assert set(fan.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(fan.max_cones) == 4


def test_normal_fan_sec6_is_weighted_projective_space():
    fan = sec6_polytope().normal_fan()
    n0 = (-2, -2, -2, -2, -3, -3, -3)
    expected = {n0} | {tuple(int(i == j) for j in range(7)) for i in range(7)}
    assert set(fan.rays) == expected
    assert len(fan.max_cones) == 8
    # weights (1,2,2,2,2,3,3,3): the rays satisfy the single relation
    weights = {r: w for r, w in zip(sorted(expected), [0] * 8)}
    total = [0] * 7
    for r in fan.rays:
        w = 1 if r == n0 else (2 if max(r) == 1 and list(r).index(1) < 4 else 3)
        total = [t + w * x for t, x in zip(total, r)]
    assert all(t == 0 for t in total)


def test_boundary_plus_interior_equals_total():
    p = standard_simplex_dilated(3, 3)
    total = len(p.lattice_points())
    interior = len(p.relative_interior_points())
    boundary = sum(len(f.as_polytope().relative_interior_points())
                   for f in p.all_faces() if f.dim < p.dim)
    assert interior + boundary == total


def test_face_at_direction():
    p = unit_simplex(2)
    f = p.face_at_direction((1, 1))
    assert f.vertices() == ((0, 0),)


def test_lattice_point_count_monotone_under_inclusion():
    big = standard_simplex_dilated(3, 4)
    pts = big.lattice_points()
    small = LatticePolytope(pts[::3])
    assert len(small.lattice_points()) <= len(pts)
    for p in small.lattice_points():
        assert big.contains(p)


def test_normal_fan_face_cone_bijection():
    cube = LatticePolytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    fan = cube.normal_fan()
    for k in range(0, 4):
        assert len(fan.cones(k)) == len(cube.faces(3 - k))
    # incidence preserved: containment of cones reverses face containment
    for gamma in fan.cones(1):
        face = cube.face_at_direction(gamma.relint_point())
        for bigger in fan.cones(2):
            if gamma.ray_indices <= bigger.ray_indices:
                sub = cube.face_at_direction(bigger.relint_point())
                assert sub.vertex_indices <= face.vertex_indices


def test_segment_off_the_lattice():
    """The span of (1/2, 0)-(1/2, 1) holds no lattice point; twice it does."""
    half = Fraction(1, 2)
    seg = LatticePolytope([(half, 0), (half, 1)])
    assert seg._span_data().anchor is None
    assert seg.lattice_points() == [] and seg.relative_interior_points() == []
    assert seg.normalized_volume() == 1
    assert seg.contains((half, half))
    assert not seg.contains((0, 0))
    assert not seg.contains((half, 2))
    double = seg.dilate(2)
    assert double._span_data().anchor is not None
    assert double.lattice_points() == [(1, 0), (1, 1), (1, 2)]


def test_contains_of_a_point_polytope():
    pt = LatticePolytope([(1, Fraction(2, 3), -4)])
    assert pt.dim == 0
    assert pt.contains((1, Fraction(2, 3), -4))
    assert not pt.contains((1, 0, -4))
    assert pt.lattice_points() == []
    assert LatticePolytope([(1, 2)]).lattice_points() == [(1, 2)]


def test_h_polytope_casts_to_ints_and_rejects_bad_normals():
    h = HPolytope([([Fraction(4, 2), 0], Fraction(-6, 3)), ((0, 1), 0)])
    assert h.inequalities == (((2, 0), -2), ((0, 1), 0))
    assert all(type(x) is int for n, r in h.inequalities for x in n + (r,))
    assert h.dim == 2 and HPolytope([]).dim == 0
    with pytest.raises(ValidationError, match="zero normal"):
        HPolytope([((1, 0), 0), ((0, 0), 1)])
    with pytest.raises(ValidationError, match="length 3"):
        HPolytope([((1, 0), 0), ((0, 1, 0), 1)])


def test_contains_rejects_a_point_of_the_wrong_length():
    with pytest.raises(ValidationError):
        unit_simplex(3).contains((0, 0))
    with pytest.raises(ValidationError):
        LatticePolytope([(1, 2)]).contains((1, 2, 3))


def test_span_takes_one_smith_form_and_scans_without_solves(monkeypatch):
    from semitoric import linalg

    forms, solves = [], []
    snf, solve = lattice.smith_normal_form, linalg.solve_linear
    monkeypatch.setattr(lattice, "smith_normal_form", lambda a: forms.append(a) or snf(a))
    monkeypatch.setattr(linalg, "solve_linear", lambda *a: solves.append(a) or solve(*a))
    # a full span takes no Smith form at all
    for verts, n in (([(0, 0, 0), (2, 1, 0), (0, 1, 2), (2, 2, 2), (1, 3, 1)], 0),  # full
                     ([(-3, 5, 7, -4), (8, 2, 3, -2), (9, -3, 4, -10)], 1),  # a skew triangle
                     ([(Fraction(1, 2), 0, 1), (Fraction(5, 2), 1, 0)], 1)):  # a rational segment
        forms.clear()
        poly = LatticePolytope(verts)  # the hull's span and facets carry over
        poly._span_data()
        poly.facets()
        assert len(forms) == n
        poly.lattice_points()
        poly.relative_interior_points()
        poly.normalized_volume()
        poly.dilate(3).lattice_points()
        assert len(forms) == n
    assert solves == []


# -- the representation: an int when integral, a Fraction only when not ---------

QUINTIC_INEQS = [(tuple(int(i == j) for j in range(4)), -1) for i in range(4)] + \
    [((-1, -1, -1, -1), -1)]


def coordinates(poly):
    """Every vertex coordinate, facet right-hand side and span level."""
    return ([x for v in poly.vertices for x in v] + [r for _, r, _ in poly.facets()]
            + list(poly._span_data().levels))


def test_integral_polytopes_store_ints():
    quintic = vertices_from_inequalities(HPolytope(QUINTIC_INEQS))
    skew = LatticePolytope([(Fraction(4, 2), 0, 1), (0, 3, 1), (1, 1, 1)])  # a triangle in a plane
    for poly in (quintic, quintic.dual_polytope(), quintic.dilate(3),
                 LatticePolytope(quintic.lattice_points()), skew, skew.dilate(2)):
        assert all(type(x) is int for x in coordinates(poly))
        assert all(type(x) is int for pt in poly.lattice_points() for x in pt)
        assert type(poly.normalized_volume()) is int
    assert skew.vertices[0] == (0, 3, 1)


def test_a_rational_vertex_stays_a_fraction():
    half = Fraction(1, 2)
    tri = vertices_from_inequalities(HPolytope([((1, 0), 0), ((0, 1), 0), ((-2, -2), -3)]))
    assert tri.vertices == ((0, 0), (0, 3 * half), (3 * half, 0))
    assert [type(x) for v in tri.vertices for x in v] == [int, int, int, Fraction, Fraction, int]
    assert [r for _, r, _ in tri.facets()] == [-3 * half, 0, 0]
    assert not tri.is_lattice and tri.normalized_volume() == Fraction(9, 4)
    assert all(type(x) is int for x in coordinates(tri.dilate(2)))
    # integral values of a rational polytope are ints too
    assert type(LatticePolytope([(0, 0), (3 * half, 0), (0, 2)]).normalized_volume()) is int
    seg = LatticePolytope([(half, 0), (half, 1)])
    assert [(r, type(r)) for _, r, _ in seg.facets()] == [(-1, int), (0, int)]
    assert seg._span_data().levels == (half,) and type(seg.normalized_volume()) is int
    assert all(type(x) is int for x in coordinates(seg.dilate(2)))


def test_int_and_fraction_input_build_equal_polytopes():
    verts = [(0, 0, 0), (2, 0, 1), (0, 3, 0), (1, 1, 2), (1, 1, 1)]
    for extra in ([], [(Fraction(1, 3), Fraction(2, 3), 0)]):
        ints = LatticePolytope(verts + extra)
        fracs = LatticePolytope([tuple(Fraction(x) for x in v) for v in verts + extra])
        assert ints == fracs and hash(ints) == hash(fracs)
        assert [list(map(type, v)) for v in ints.vertices] == \
            [list(map(type, v)) for v in fracs.vertices]
        assert ints.facets() == fracs.facets()
        assert ints.lattice_points() == fracs.lattice_points()
        # equal, with equal hashes, to the all-Fraction vertex tuples
        as_fractions = tuple(tuple(Fraction(x) for x in v) for v in ints.vertices)
        assert ints.vertices == as_fractions and hash(ints.vertices) == hash(as_fractions)


def test_pairing_q_is_exact_on_ints_and_fractions():
    import random

    rng = random.Random(20)
    assert lattice.pairing_q((1, -2, 3), (4, 5, -6)) == -24
    assert type(lattice.pairing_q((1, -2, 3), (4, 5, -6))) is int
    for _ in range(200):
        n = rng.randint(1, 6)
        m = [rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
             for _ in range(n)]
        w = [rng.randint(-9, 9) for _ in range(n)]
        assert lattice.pairing_q(m, w) == sum(Fraction(a) * b for a, b in zip(m, w))


def test_a_reflexive_lattice_polytope_builds_no_fraction(fraction_count):
    """From its H-description to its points, facets, faces, volume and
    dual, and as the hull of its own points, the quintic's polytope is
    plain integer arithmetic."""
    quintic = vertices_from_inequalities(HPolytope(QUINTIC_INEQS))
    hull = LatticePolytope(quintic.lattice_points())
    for poly in (quintic, hull, quintic.dual_polytope()):
        poly.lattice_points()
        poly.facets()
        poly.labelled_points(2)
        poly.normalized_volume()
        poly.face_at_direction((1, 2, 3, 4))
    quintic.dual_face(quintic.faces(2)[0])
    assert hull == quintic and fraction_count[0] == 0
