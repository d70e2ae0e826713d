"""Differential tests of the double-description kernel ``cone_rays``.

The references below are the brute-force routines the package used before
every half-space/vertex conversion went through one kernel: vertex
enumeration over every d-subset of inequalities with a recession-ray search
over every (d-1)-subset, facet candidates from every k-subset of vertices,
one LP per point for extreme points, and dual-cone rays from every
(d-1)-subset of normals.  They are slow but obviously right; the views on
the kernel are compared with them on seeded random inputs.  The scale gates
at the end are cases the references cannot finish in minutes.
"""

import random
import signal
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest

from semitoric import catalog, lattice
from semitoric.errors import PreconditionError
from semitoric.fan import Fan, extreme_rays_of_dual
from semitoric.linalg import lp_feasible, solve_unique
from semitoric.polytope import HPolytope, LatticePolytope, vertices_from_inequalities

from .test_lattice import ref_saturation_basis

SEED = 20261018


# -- references ------------------------------------------------------------------


def ref_affine_dim(points):
    dirs = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    dirs = [d for d in dirs if any(d)]
    return lattice.matrix_rank(dirs) if dirs else 0


def ref_recession_ray_exists(normals, d):
    if lattice.matrix_rank(normals) < d:
        return True
    for idx in combinations(range(len(normals)), d - 1):
        rows = [normals[i] for i in idx]
        kern = lattice.integer_kernel([r for r in rows if any(r)] or [[0] * d], ncols=d)
        for y in kern:
            for cand in (y, tuple(-a for a in y)):
                if any(cand) and all(lattice.pairing(cand, n) >= 0 for n in normals):
                    return True
    return False


def ref_vertices(h):
    """Sorted vertices of a bounded H-polytope; raises as the views do."""
    ineqs, d = h.inequalities, h.dim
    normals = [list(n) for n, _ in ineqs]
    verts = set()
    for idx in combinations(range(len(ineqs)), d):
        x = solve_unique([normals[i] for i in idx], [ineqs[i][1] for i in idx])
        if x is not None and all(lattice.pairing(x, n) >= r for n, r in ineqs):
            verts.add(tuple(x))
    if not verts:
        if lattice.matrix_rank(normals) < d and lp_feasible(
                d, ineqs=list(ineqs)) is not None:
            raise PreconditionError("inequality system is feasible but unbounded")
        return []
    if ref_recession_ray_exists(normals, d):
        raise PreconditionError("inequality system is unbounded, not a polytope")
    return sorted(verts)


def ref_facet_candidates(vertices):
    """(normal, rhs) from every k-subset of vertices, normals in the span."""
    n_amb, k = len(vertices[0]), ref_affine_dim(vertices)
    dirs = []
    for v in vertices[1:]:
        d = [Fraction(a) - b for a, b in zip(v, vertices[0])]
        den = lcm(*[x.denominator for x in d])
        if any(d):
            dirs.append([int(x * den) for x in d])
    basis = ref_saturation_basis(dirs, n_amb)
    ortho = [list(c) for c in lattice.integer_kernel([list(b) for b in basis], ncols=n_amb)]
    cands = []
    for idx in combinations(range(len(vertices)), k):
        pts = [vertices[i] for i in idx]
        rows = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]] + ortho
        kern = lattice.integer_kernel([r for r in rows if any(r)], ncols=n_amb)
        if len(kern) != 1:
            continue
        n = kern[0]
        c = lattice.pairing(pts[0], n)
        vals = [lattice.pairing(v, n) for v in vertices]
        if all(v >= c for v in vals) and any(v > c for v in vals):
            cands.append((n, c))
        elif all(v <= c for v in vals) and any(v < c for v in vals):
            cands.append((tuple(-x for x in n), -c))
    return cands


def ref_facets(vertices, cands):
    """{tight vertex index set: (primitive normal, rhs)} from the candidates."""
    k = ref_affine_dim(vertices)
    out = {}
    for n, r in cands:
        tight = frozenset(i for i, v in enumerate(vertices) if lattice.pairing(v, n) == r)
        if tight and tight not in out and \
                ref_affine_dim([vertices[i] for i in sorted(tight)]) == k - 1:
            g = lattice.gcd_list(n)
            out[tight] = (lattice.primitivize(n), Fraction(r) / g)
    return out


def ref_extreme_points(points):
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts
    out = []
    for i, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != i]
        eqs = [([Fraction(q[c]) for q in others], Fraction(p[c])) for c in range(len(p))]
        eqs.append(([Fraction(1)] * len(others), Fraction(1)))
        if lp_feasible(len(others), eqs=eqs, nonneg=True) is None:
            out.append(p)
    return out


def ref_extreme_rays_of_dual(normals, dim):
    rays = set()
    rows = [list(n) for n in normals]
    for idx in combinations(range(len(rows)), dim - 1):
        sub = [rows[i] for i in idx]
        kern = lattice.integer_kernel([r for r in sub if any(r)] or [[0] * dim], ncols=dim)
        if len(kern) != 1:
            continue
        y = kern[0]
        for cand in (y, tuple(-a for a in y)):
            if all(lattice.pairing(cand, n) >= 0 for n in normals):
                active = [n for n in normals if lattice.pairing(cand, n) == 0]
                if lattice.matrix_rank(active) == dim - 1:
                    rays.add(lattice.primitivize(cand))
    return sorted(rays)


# -- comparisons -----------------------------------------------------------------


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except PreconditionError as exc:
        return "error", str(exc)


def assert_facets_match(poly, ref):
    """Tight sets exactly, normals up to primitivization.

    Normals are compared only where the reference normals lie in the affine
    span; elsewhere each normal must lie in the span and cut out its facet.
    """
    new = {t: (n, r) for n, r, t in poly.facets()}
    assert set(new) == set(ref)
    dirs = [[a - b for a, b in zip(v, poly.vertices[0])] for v in poly.vertices[1:]]
    in_span = all(lattice.matrix_rank(dirs + [list(n)]) == poly.dim for n, _ in ref.values())
    if in_span:
        assert new == ref
    for t, (n, r) in new.items():
        assert lattice.matrix_rank(dirs + [list(n)]) == poly.dim
        vals = [lattice.pairing(v, n) for v in poly.vertices]
        assert {i for i, x in enumerate(vals) if x == r} == t
        assert min(vals) == r


def random_normal(rng, d, lo=-2, hi=2):
    while True:
        n = tuple(rng.randint(lo, hi) for _ in range(d))
        if any(n):
            return n


def random_h_system(rng):
    d = rng.randint(1, 3)
    rows = [(random_normal(rng, d), rng.randint(-3, 3)) for _ in range(rng.randint(1, d + 4))]
    kind = rng.randrange(3)
    if kind == 1:  # an equality pair
        n, r = rng.choice(rows)
        rows.append((tuple(-x for x in n), -r))
    elif kind == 2:  # a duplicate row and an implied, scaled row
        n, r = rng.choice(rows)
        rows += [(n, r), (tuple(2 * x for x in n), 2 * r - rng.randint(0, 2))]
    rng.shuffle(rows)
    return HPolytope(rows)


def check_h_system(h, seen):
    ref = outcome(ref_vertices, h)
    new = outcome(vertices_from_inequalities, h)
    got = ("ok", list(new[1].vertices)) if new[0] == "ok" else new
    assert got == ref, h
    if new[0] == "error":
        seen.add(new[1])
        return
    poly = new[1]
    seen.add(("empty" if poly.is_empty else
              "full" if poly.dim == h.dim else "lower-dimensional"))
    if poly.dim > 0:
        assert_facets_match(poly, ref_facets(poly.vertices, h.inequalities))


def test_h_systems_match_reference():
    rng = random.Random(SEED)
    seen = set()
    for _ in range(600):
        check_h_system(random_h_system(rng), seen)
    assert seen == {"full", "lower-dimensional", "empty",
                    "inequality system is unbounded, not a polytope",
                    "inequality system is feasible but unbounded"}


def test_bounded_systems_with_many_rows_match_reference():
    """Simplices cut by random planes through them: many degenerate vertices."""
    rng = random.Random(SEED + 1)
    seen = set()
    for _ in range(100):
        d = rng.choice((3, 4))
        size = rng.randint(2, 6)
        rows = [(tuple(int(i == j) for j in range(d)), 0) for i in range(d)]
        rows.append(((-1,) * d, -size))
        target = rng.randint(7, 11)
        while len(rows) < target:
            p = [rng.randint(0, size) for _ in range(d)]
            if sum(p) > size:
                continue
            span = rng.choice((1, 1, 3))
            a = random_normal(rng, d, -span, span)
            rows.append((a, lattice.pairing(a, p) - rng.randint(0, 1)))
        check_h_system(HPolytope(rows), seen)
    assert "full" in seen


def random_points(rng, kind):
    if kind == "integer":
        d = rng.randint(2, 3)
        return [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(3, 9))]
    if kind == "rational":
        d = rng.randint(2, 3)
        return [tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(d))
                for _ in range(rng.randint(3, 8))]
    d = rng.randint(3, 4)
    base = [Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(d)]
    dirs = [random_normal(rng, d) for _ in range(rng.randint(1, 2))]
    return [tuple(b + sum(rng.randint(-2, 2) * u[i] for u in dirs) for i, b in enumerate(base))
            for _ in range(rng.randint(3, 8))]


def test_point_sets_match_reference():
    rng = random.Random(SEED + 2)
    dims = set()
    for trial in range(300):
        points = random_points(rng, ("integer", "rational", "lower-dimensional")[trial % 3])
        poly = LatticePolytope(points)
        assert list(poly.vertices) == ref_extreme_points(
            [tuple(Fraction(x) for x in p) for p in points])
        if poly.dim > 0:
            dims.add(poly.ambient_dim - poly.dim)
            ref = ref_facets(poly.vertices, ref_facet_candidates(poly.vertices))
            assert_facets_match(poly, ref)
    assert dims >= {0, 1, 2}


def test_dual_cones_match_reference():
    rng = random.Random(SEED + 3)
    spanning = flat = 0
    for _ in range(300):
        dim = rng.randint(2, 4)
        normals = [tuple(rng.randint(-2, 2) for _ in range(dim))
                   for _ in range(rng.randint(dim - 1, dim + 4))]
        if lattice.matrix_rank(normals) == dim:
            spanning += 1
            assert extreme_rays_of_dual(normals, dim) == ref_extreme_rays_of_dual(normals, dim)
        else:
            flat += 1
            with pytest.raises(PreconditionError):
                extreme_rays_of_dual(normals, dim)
    assert spanning > 100 and flat > 10


def test_cone_facets_inside_the_span_match_reference():
    """Facet normals of pointed cones that are not full-dimensional, against
    the facets through 0 of the hull of 0 and the generators."""
    rng = random.Random(SEED + 4)
    for _ in range(60):
        d = rng.randint(3, 4)
        k = rng.randint(2, d - 1)
        lift = [random_normal(rng, d) for _ in range(k)]
        while lattice.matrix_rank(lift) < k:
            lift = [random_normal(rng, d) for _ in range(k)]
        gens = set()
        for _ in range(rng.randint(k + 1, k + 4)):
            coords = [rng.randint(-2, 2) for _ in range(k - 1)] + [rng.randint(1, 2)]
            g = [sum(c * u[i] for c, u in zip(coords, lift)) for i in range(d)]
            gens.add(lattice.primitivize(g))
        gens = sorted(gens)
        if lattice.matrix_rank(gens) < k:
            continue
        fan = Fan(gens, [range(len(gens))])
        hull = ref_extreme_points([(Fraction(0),) * d] +
                                  [tuple(Fraction(x) for x in g) for g in gens])
        origin = hull.index((0,) * d)
        ref = sorted(n for t, (n, _) in ref_facets(hull, ref_facet_candidates(hull)).items()
                     if origin in t)
        normals = [h for h in fan._max_cone_rows(0)  # the rows not zero on every ray
                   if any(lattice.pairing(h, g) for g in gens)]
        assert sorted(normals) == ref


# -- scale gates -----------------------------------------------------------------


class within:
    """Interrupt the block and fail the test once it runs past the ceiling,
    so that a kernel whose ray count explodes fails instead of hanging."""

    def __init__(self, seconds):
        self.seconds = seconds

    def _expire(self, signum, frame):
        raise TimeoutError(f"ceiling of {self.seconds}s exceeded")

    def __enter__(self):
        self.handler = signal.signal(signal.SIGALRM, self._expire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, exc_type, exc, tb):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.handler)
        return False


def test_scale_seven_cube_and_cross_polytope():
    with within(5.0):
        cube, cross = catalog.cube(7), catalog.cross_polytope(7)
        assert len(cube.dual_polytope().vertices) == 14
        assert len(cross.dual_polytope().vertices) == 128
        assert len(catalog.cube(7).facets()) == 14
        assert len(catalog.cross_polytope(7).facets()) == 128


def test_scale_hull_of_the_grid():
    with within(5.0):
        assert len(LatticePolytope(product((-1, 0, 1), repeat=4)).vertices) == 16


def test_scale_hull_of_weighted_newton_points():
    """The lattice points of {m_i >= -1, m.(1,1,1,3) <= 1}, whose fourth
    weight does not divide the degree 7."""
    with within(5.0):
        rows = [(tuple(int(i == j) for j in range(4)), -1) for i in range(4)]
        points = vertices_from_inequalities(HPolytope(rows + [((-1, -1, -1, -3), -1)]))
        points = points.lattice_points()
        assert len(points) == 159
        hull = LatticePolytope(points)
        assert len(hull.vertices) == 8
        assert len(hull.facets()) == 6
