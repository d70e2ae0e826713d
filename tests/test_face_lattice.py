"""Differential tests of the face lattice built by ``polytope.face_closure``.

The references below are the routes the package used before every face
lattice came from one closure of facet sets: the volume recursion that
rebuilt each facet as a fresh polytope, the pulling step of
``triangulation_helper`` with its own face table, and the faces of a
maximal fan cone from all subsets of a simplicial cone or a second closure
loop over the cone's rows.  They are compared with ``normalized_volume``,
``pulling_triangulation``, ``triangulation_helper`` and
``Fan._faces_of_max_cone`` on seeded random polytopes and on catalog
inputs.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from semitoric import catalog, lattice
from semitoric.errors import InconsistencyError, PreconditionError
from semitoric.fan import Fan
from semitoric.hodge import triangulation_helper
from semitoric.linalg import solve_linear
from semitoric.polytope import HPolytope, LatticePolytope, face_closure, vertices_from_inequalities

SEED = 20261020


# -- references ------------------------------------------------------------------


def ref_triangulate(poly):
    """Simplices (tuples of vertex coordinate tuples) covering the polytope:
    pull at the first vertex over the facets that miss it, each rebuilt as
    a polytope."""
    k = poly.dim
    vs = poly.vertices
    if len(vs) == k + 1:
        return [tuple(vs)]
    v0 = vs[0]
    out = []
    for _, _, tight in poly.facets():
        if 0 in tight:
            continue
        face = LatticePolytope([vs[i] for i in sorted(tight)], _trusted=True)
        for s in ref_triangulate(face):
            out.append((v0,) + s)
    return out


def ref_normalized_volume(poly):
    if poly.is_empty:
        return Fraction(0)
    if poly.dim == 0:
        return Fraction(1)
    total = Fraction(0)
    for simplex in ref_triangulate(poly):
        t0 = poly._to_span_coords(simplex[0])
        rows = []
        for v in simplex[1:]:
            tv = poly._to_span_coords(v)
            rows.append([a - b for a, b in zip(tv, t0)])
        total += abs(lattice.det(rows))
    return total


def ref_triangulation_helper(q, reverse=False):
    """The helper with its own children/dim_of/memo/pull face table."""
    d = q.ambient_dim
    all_faces = q.all_faces()
    children = {}
    for f in all_faces:
        children[f.vertex_indices] = [
            g for g in all_faces
            if g.dim == f.dim - 1 and g.vertex_indices < f.vertex_indices]
    dim_of = {f.vertex_indices: f.dim for f in all_faces}
    memo = {}

    def pull(fset):
        if fset in memo:
            return memo[fset]
        dim = dim_of[fset]
        if len(fset) == dim + 1:
            memo[fset] = [fset]
            return memo[fset]
        v = (max if reverse else min)(fset, key=lambda i: q.vertices[i])
        out = []
        for g in children[fset]:
            if v in g.vertex_indices:
                continue
            for s in pull(g.vertex_indices):
                out.append(s | {v})
        memo[fset] = out
        return out

    rays = [tuple(int(x) for x in v) for v in q.vertices]
    ray_index = {r: i for i, r in enumerate(rays)}
    cones = []
    for f in all_faces:
        if f.dim != d - 1:
            continue
        for s in pull(f.vertex_indices):
            cones.append(frozenset(ray_index[tuple(int(x) for x in q.vertices[i])]
                                   for i in s))
    extra = [p for p in q.lattice_points()
             if any(p) and p not in ray_index]
    for point in sorted(extra, reverse=reverse):
        ray_index[point] = len(rays)
        rays.append(point)
        qi = ray_index[point]
        new_cones = []
        for c in cones:
            gens = [rays[i] for i in sorted(c)]
            cols = [[g[k] for g in gens] for k in range(d)]
            sol = solve_linear(cols, list(point))
            coeffs = None
            if sol is not None and not sol[1]:
                coeffs = sol[0]
            if coeffs is None or any(x < 0 for x in coeffs):
                new_cones.append(c)
                continue
            idx = sorted(c)
            for g_pos, lam in enumerate(coeffs):
                if lam > 0:
                    new_cones.append(frozenset(
                        [i for ii, i in enumerate(idx) if ii != g_pos] + [qi]))
        cones = new_cones
    fan = Fan(rays, cones, dim=d)
    boundary = {p for p in q.lattice_points() if any(p)}
    if set(fan.rays) != boundary:
        raise InconsistencyError("triangulation rays differ from the boundary points")
    return fan


def ref_faces_of_max_cone(fan, ci):
    """All subsets of a simplicial cone; otherwise the closure of the cone
    under the zero sets of its rows."""
    idx = sorted(fan.max_cones[ci])
    if fan.cone_dim(idx) == len(idx):
        return {frozenset(sub): k for k in range(len(idx) + 1)
                for sub in combinations(idx, k)}
    seen = {frozenset(idx)}
    queue = [frozenset(idx)]
    while queue:
        cur = queue.pop()
        for h in fan._max_cone_rows(ci):
            nxt = frozenset(i for i in cur if lattice.pairing(fan.rays[i], h) == 0)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return {s: fan.cone_dim(s) for s in seen} | {frozenset(): 0}


# -- inputs ----------------------------------------------------------------------


def random_polytopes(rng, dim, simplex, count=10):
    """Hulls of random points of [-3, 3]^dim / den, den in {1, 2, 3}:
    simplices, or polytopes with more than dim + 1 vertices."""
    out = []
    while len(out) < count:
        den = rng.choice((1, 1, 2, 3))
        n = dim + 1 if simplex else rng.randint(dim + 2, dim + 6)
        poly = LatticePolytope([tuple(Fraction(rng.randint(-3, 3), den) for _ in range(dim))
                                for _ in range(n)])
        if poly.dim == dim and (len(poly.vertices) == dim + 1) == simplex:
            out.append(poly)
    return out


def anticanonical(weights):
    """{m : m_i >= -1, sum w_i m_i <= 1}: the section polytope of -K on P(1, w)."""
    d = len(weights)
    return vertices_from_inequalities(HPolytope(
        [(tuple(int(i == j) for j in range(d)), -1) for i in range(d)]
        + [(tuple(-w for w in weights), -1)]))


P4_WEIGHTS = [(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 4), (1, 1, 2, 5), (1, 2, 2, 2), (1, 2, 2, 6)]

SQUARE_CONE = Fan([(1, 1, 1, 0), (1, -1, 1, 0), (-1, -1, 1, 0), (-1, 1, 1, 0), (0, 0, 0, 1)],
                  [{0, 1, 2, 3}, {0, 4}])


def catalog_fans():
    return [
        catalog.projective_line(), catalog.projective_plane(), catalog.blowup_p2(),
        catalog.hirzebruch(2), catalog.projective_space(3), catalog.projective_space(4),
        catalog.product_fan(catalog.projective_line(), catalog.projective_plane()),
        catalog.weighted_projective((1, 1, 2, 2, 2)), catalog.p11222_crepant_fan(),
        catalog.blowup_p3(), catalog.p11222_triple_fan(),
        catalog.cube(3).normal_fan(), catalog.cross_polytope(3).normal_fan(),
        catalog.quintic_polytope().normal_fan(), SQUARE_CONE,
    ]


def simplex_sets(poly, simplices):
    return sorted(sorted(poly.vertices[i] for i in s) for s in simplices)


# -- normalized volumes and the pulling triangulation ------------------------------


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("simplex", [True, False])
def test_volume_matches_recursive_route(dim, simplex):
    """The same simplices and the same volume as the recursion, for the
    polytope and for every face of positive dimension rebuilt as one."""
    rng = random.Random(SEED + 10 * dim + simplex)
    for poly in random_polytopes(rng, dim, simplex):
        assert poly.normalized_volume() == ref_normalized_volume(poly)
        assert simplex_sets(poly, poly.pulling_triangulation()) == \
            sorted(sorted(s) for s in ref_triangulate(poly))
        for face in poly.all_faces():
            if face.dim < 1:
                continue
            rebuilt = face.as_polytope()
            assert rebuilt.normalized_volume() == ref_normalized_volume(rebuilt)
            assert simplex_sets(poly, poly.pulling_triangulation(face)) == \
                sorted(sorted(s) for s in ref_triangulate(rebuilt)), face


def test_simplex_volume_builds_no_face_lattice():
    poly = LatticePolytope([(0, 0, 0), (2, 0, 0), (0, 3, 0), (1, 1, 5)])
    assert poly.normalized_volume() == 30
    assert poly._faces is None
    assert poly.pulling_triangulation() == [frozenset(range(4))]


def test_pulling_triangulation_is_memoized_per_order():
    hexagon = LatticePolytope([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
    first, last = hexagon.pulling_triangulation(), hexagon.pulling_triangulation(reverse=True)
    assert hexagon.pulling_triangulation() is first
    assert sorted(map(sorted, first)) == [[0, 1, 3], [0, 2, 4], [0, 3, 5], [0, 4, 5]]
    assert sorted(map(sorted, last)) == [[0, 1, 5], [0, 2, 5], [1, 3, 5], [2, 4, 5]]
    assert hexagon.normalized_volume() == 6


@pytest.mark.parametrize("reverse", [False, True])
def test_triangulation_helper_matches_old_pull(reverse):
    """On the duals of P(1, w) the two pulling orders agree; on the K3 hulls
    of P(1,1,2,3) and P(1,2,3,4) some facets pull differently."""
    duals = [anticanonical(w).dual_polytope() for w in P4_WEIGHTS]
    hulls = [LatticePolytope(anticanonical(w).lattice_points()) for w in ((1, 2, 3), (2, 3, 4))]
    for q in duals + hulls + [catalog.cube(2), catalog.cube(3), catalog.cross_polytope(3)]:
        new, old = triangulation_helper(q, reverse), ref_triangulation_helper(q, reverse)
        assert new.rays == old.rays
        assert new.max_cones == old.max_cones


# -- the closure and the faces it gives ----------------------------------------------


def test_face_closure_of_a_square():
    square = frozenset(range(4))
    edges = [frozenset(e) for e in ({0, 1}, {1, 3}, {3, 2}, {2, 0})]
    closure = face_closure(square, edges)
    assert len(closure) == 10  # the square, 4 edges, 4 vertices, the empty face
    assert frozenset() in closure and square in closure
    assert face_closure(square, []) == {square, frozenset()}


def test_subfaces_are_the_codimension_one_faces_inside():
    for poly in [catalog.cube(3), catalog.quintic_polytope(), catalog.cross_polytope(3)]:
        faces = poly.all_faces()
        for face in faces:
            subs = poly.subfaces(face)
            assert subs == [g for g in faces if g.dim == face.dim - 1
                            and g.vertex_indices < face.vertex_indices]
            assert all(g.facets > face.facets for g in subs)
        assert len(poly.subfaces(faces[-1])) == len(poly.facets())


def test_all_faces_of_the_empty_polytope_raise():
    empty = vertices_from_inequalities(HPolytope([((1,), 1), ((-1,), 0)]))
    with pytest.raises(PreconditionError, match="faces of the empty polytope"):
        empty.all_faces()
    with pytest.raises(PreconditionError, match="faces of the empty polytope"):
        empty.faces(0)


def test_point_has_one_face():
    point = LatticePolytope([(1, 2)])
    assert [(f.dim, f.vertex_indices, f.facets) for f in point.all_faces()] == \
        [(0, frozenset({0}), frozenset())]
    assert point.normalized_volume() == 1


# -- faces of maximal fan cones ---------------------------------------------------------


def test_faces_of_max_cones_match_old_code():
    """The same sets and dims; simplicial cones in the same order, and
    every cone in (size, sorted indices) order."""
    for fan in catalog_fans():
        for ci, c in enumerate(fan.max_cones):
            new, old = fan._faces_of_max_cone(ci), ref_faces_of_max_cone(fan, ci)
            assert new == old, (fan, sorted(c))
            assert list(new) == sorted(new, key=lambda s: (len(s), sorted(s)))
            if fan.cone_dim(c) == len(c):
                assert list(new.items()) == list(old.items())


def test_square_cone_faces():
    faces = SQUARE_CONE._faces_of_max_cone(0)
    assert [(sorted(s), k) for s, k in faces.items()] == [
        ([], 0), ([0], 1), ([1], 1), ([2], 1), ([3], 1),
        ([0, 1], 2), ([0, 3], 2), ([1, 2], 2), ([2, 3], 2), ([0, 1, 2, 3], 3)]
