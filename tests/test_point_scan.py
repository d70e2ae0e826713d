"""Differential tests of the lattice-point scan and of what it no longer
recomputes.

The references below are the routes the package used before the scan
carried its slacks: a recursive scan that returns the points alone, the
values of affine forms (ambient coordinates, and slacks, which are the
monomial exponents of ``CoxRing.monomial_basis``) as dot products per point,
and facet labels as one pairing per point and facet: each label of a run
table is read both ways, its points listed and its segments counted.  Face
dimensions are checked against a rank per face, start rays and wall normals
against one Smith normal form per kernel.  The points a face polytope reads
off its parent's labelled table are checked against a scan of the face's
vertices alone.
"""

import gc
import random
from fractions import Fraction
from math import ceil, floor

import pytest

from semitoric import catalog, cli, lattice, polytope
from semitoric.errors import PreconditionError
from semitoric.fan import Fan
from semitoric.polytope import LatticePolytope, _expand, _integer_runs, cone_rays

from .test_double_description import ref_affine_dim
from .test_hodge import anticanonical

SEED = 20261018


# -- references ------------------------------------------------------------------


def ref_scan(ineqs, lo, hi):
    """All integer points t of the box with a·t >= c for each (a, c)."""
    k = len(lo)
    if any(l > h for l, h in zip(lo, hi)):
        return []
    if k == 0:
        return [()] if all(c <= 0 for _, c in ineqs) else []
    suffix_max = []
    for a, _ in ineqs:
        sm = [0] * (k + 1)
        for j in range(k - 1, -1, -1):
            sm[j] = sm[j + 1] + max(a[j] * lo[j], a[j] * hi[j])
        suffix_max.append(sm)
    out = []

    def descend(j, prefix, partials):
        lo_j, hi_j = lo[j], hi[j]
        for idx, (a, c) in enumerate(ineqs):
            need = c - partials[idx] - suffix_max[idx][j + 1]
            if a[j] == 0:
                if need > 0:
                    return
            elif a[j] > 0:
                lo_j = max(lo_j, -((-need) // a[j]))
            else:
                hi_j = min(hi_j, need // a[j])
        if j == k - 1:
            out.extend(prefix + (t,) for t in range(lo_j, hi_j + 1))
            return
        for t in range(lo_j, hi_j + 1):
            descend(j + 1, prefix + (t,),
                    [p + a[j] * t for p, (a, _) in zip(partials, ineqs)])

    descend(0, (), [0] * len(ineqs))
    return out


def ref_points(poly, strict):
    """Lex-sorted integer points of P (of its relative interior when strict),
    as ambient coordinates computed per point."""
    if poly.is_empty:
        return []
    span = poly._span_data()
    basis, anchor = span.basis, span.anchor
    if anchor is None:
        return []
    k = len(basis)
    if k == 0:
        return [tuple(int(v) for v in poly.vertices[0])] if poly.is_lattice else []
    tcoords = [poly._to_span_coords(v) for v in poly.vertices]  # 0 at the anchor
    lo = [ceil(min(t[j] for t in tcoords)) for j in range(k)]
    hi = [floor(max(t[j] for t in tcoords)) for j in range(k)]
    ineqs = [(a, floor(c) + 1 if strict else ceil(c)) for a, c in poly._span_inequalities()]
    return sorted(tuple(anchor[i] + sum(t[j] * basis[j][i] for j in range(k))
                        for i in range(poly.ambient_dim))
                  for t in ref_scan(ineqs, lo, hi))


def ref_labelled(poly, k):
    """{facet index set: lex-sorted points of kP tight at exactly those
    facets}, one pairing per point and facet."""
    kp = poly.dilate(k)
    rows = [(i, n, int(k * r)) for i, (n, r, _) in
            enumerate(poly.facets() if poly.dim > 0 else [])
            if Fraction(k * r).denominator == 1]
    table = {}
    for x in ref_points(kp, strict=False):
        label = frozenset(i for i, n, c in rows if lattice.pairing(x, n) == c)
        table.setdefault(label, []).append(x)
    return {label: tuple(pts) for label, pts in table.items()}


def listed(table):
    """A run table as {label: (count, points)}, read by both of its readers."""
    return {label: (table.count([label]), table.points([label])) for label in table.segments}


def ref_listed(poly, k):
    return {label: (len(pts), list(pts)) for label, pts in ref_labelled(poly, k).items()}


def random_polytope(rng):
    """A polytope of dimension 0-4 in Z^1-Z^4, with rational vertices in a
    third of the draws."""
    n = rng.randint(1, 4)
    k = rng.randint(0, n)
    den = rng.choice((1, 1, 2, 3))
    base = [Fraction(rng.randint(-3, 3), den) for _ in range(n)]
    dirs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
    return LatticePolytope([
        tuple(b + sum(Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) * u[i] for u in dirs)
              for i, b in enumerate(base))
        for _ in range(rng.randint(1, k + 4))])


# -- the scan ----------------------------------------------------------------------


def enumerate_points(ineqs, lo, hi, forms):
    """The values of the forms at every point of the scan, in its order."""
    return list(_expand(*_integer_runs(ineqs, lo, hi, forms)))


def test_scan_values_match_the_forms_at_the_reference_points():
    rng = random.Random(SEED)
    for _ in range(300):
        k = rng.randint(0, 4)
        lo = [rng.randint(-3, 1) for _ in range(k)]
        hi = [rng.randint(-1, 3) for _ in range(k)]
        ineqs = [(tuple(rng.randint(-2, 2) for _ in range(k)), rng.randint(-4, 2))
                 for _ in range(rng.randint(0, 5))]
        forms = [(tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(-5, 5))
                 for _ in range(rng.randint(1, 4))]
        want = [tuple(lattice.pairing(f, t) + f0 for f, f0 in forms)
                for t in ref_scan(ineqs, lo, hi)]
        assert enumerate_points(ineqs, lo, hi, forms) == want
        coords = [(tuple(int(i == j) for j in range(k)), 0) for i in range(k)]
        if k:
            assert enumerate_points(ineqs, lo, hi, coords) == ref_scan(ineqs, lo, hi)


def test_runs_expand_by_ranges_to_the_listed_scan():
    """Each run read as one range per form, stepping by the form's last
    coefficient (as `CoxRing.monomial_basis` reads its codes), lists the
    values of the scan, in its order."""
    rng = random.Random(SEED)
    for _ in range(300):
        k = rng.randint(1, 4)
        lo = [rng.randint(-3, 1) for _ in range(k)]
        hi = [rng.randint(-1, 3) for _ in range(k)]
        ineqs = [(tuple(rng.randint(-2, 2) for _ in range(k)), rng.randint(-4, 2))
                 for _ in range(rng.randint(0, 5))]
        forms = [(tuple(rng.randint(-3, 3) for _ in range(k - 1)) + (rng.choice((-3, -1, 1, 2)),),
                  rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))]
        runs, last = _integer_runs(ineqs, lo, hi, forms)
        assert last == [f[-1] for f, _ in forms]
        columns = [[x for values, lo_t, hi_t in runs
                    for x in range(values[i] + s * lo_t, values[i] + s * (hi_t + 1), s)]
                   for i, s in enumerate(last)]
        assert list(zip(*columns)) == enumerate_points(ineqs, lo, hi, forms)


def test_scan_counts_its_steps_against_the_limit(monkeypatch):
    """The 10 x 10 box takes 10 steps for its first coordinate and 100 for
    its points; one step fewer is refused before any point is listed."""
    box = ([], [0, 0], [9, 9], [((1, 0), 0), ((0, 1), 0)])
    monkeypatch.setattr(polytope, "SCAN_LIMIT", 110)
    assert len(enumerate_points(*box)) == 100
    monkeypatch.setattr(polytope, "SCAN_LIMIT", 109)
    with pytest.raises(PreconditionError, match="too large to enumerate"):
        _integer_runs(*box)


def ref_steps(ineqs, lo, hi):
    """The steps of a scan of the box: every prefix (t_0, ..., t_j), j < k,
    of a point of the box after which each inequality can still be met by
    the largest contribution of the remaining coordinates.  What is left to
    meet only grows with the prefix, so the prefixes of a step are steps,
    and the count stops at the first prefix that is not one."""
    k = len(lo)
    if k == 0 or any(l > h for l, h in zip(lo, hi)):
        return 0
    best = [[sum(max(a[j] * lo[j], a[j] * hi[j]) for j in range(i, k)) for i in range(k + 1)]
            for a, _ in ineqs]

    def count(j, partials):
        n = 0
        for t in range(lo[j], hi[j] + 1):
            sums = [p + a[j] * t for p, (a, _) in zip(partials, ineqs)]
            if all(c - s - b[j + 1] <= 0 for s, (_, c), b in zip(sums, ineqs, best)):
                n += 1 + (count(j + 1, sums) if j + 1 < k else 0)
        return n

    return count(0, [0] * len(ineqs))


def sparse_rows(rng, k, count):
    """Rows (a, c) in Z^k whose coefficients are zero three times in four."""
    return [(tuple(rng.randint(-3, 3) if rng.random() < 0.25 else 0 for _ in range(k)),
             rng.randint(-4, 3)) for _ in range(count)]


def test_sparse_levels_match_the_reference(monkeypatch):
    """A level of the scan reads only the inequalities and forms with a
    nonzero coefficient there, and one check at the root stands in for the
    levels where a coefficient is zero.  Points, form values and step
    counts equal the references on an all-zero inequality with c > 0 (no
    point, no step) and with c <= 0 (no effect), on an inequality that the
    box cannot meet, whose only nonzero coefficient is at the last level
    (no point, no step), and on seeded rows that are mostly zero, k up to 6."""
    box = ([-1, 0, -2], [2, 3, 1])
    cut = [((1, -1, 0), -1), ((0, 0, 1), -1)]
    cases = [([((0, 0, 0), 1)] + cut, *box), ([((0, 0, 0), 0), ((0, 0, 0), -3)] + cut, *box),
             ([((1, 0, 0), 0), ((0, 0, 2), 3)], *box)]   # 2 t_2 <= 2 < 3
    rng = random.Random(SEED + 7)
    for _ in range(300):
        k = rng.randint(1, 6)
        lo, hi = [rng.randint(-2, 0) for _ in range(k)], [rng.randint(0, 2) for _ in range(k)]
        cases.append((sparse_rows(rng, k, rng.randint(0, 6)), lo, hi))
    empty, steps_seen = 0, set()
    for ineqs, lo, hi in cases:
        k = len(lo)
        forms = [(tuple(int(i == j) for j in range(k)), 0) for i in range(k)]
        forms += sparse_rows(rng, k, 3)
        points, steps = ref_scan(ineqs, lo, hi), ref_steps(ineqs, lo, hi)
        want = [t + tuple(lattice.pairing(f, t) + f0 for f, f0 in forms[k:]) for t in points]
        monkeypatch.setattr(polytope, "SCAN_LIMIT", steps)
        assert enumerate_points(ineqs, lo, hi, forms) == want
        runs, _ = _integer_runs(ineqs, lo, hi, [])
        assert sum(hi_t - lo_t + 1 for _, lo_t, hi_t in runs) == len(points)
        if steps:
            monkeypatch.setattr(polytope, "SCAN_LIMIT", steps - 1)
            with pytest.raises(PreconditionError, match="too large to enumerate"):
                _integer_runs(ineqs, lo, hi, [])
        empty += not points
        steps_seen.add(steps)
    assert [ref_steps(*case) for case in cases[:3]] == [0, 44, 0]
    assert ref_scan(*cases[1]) == ref_scan(cut, *box)
    assert 50 < empty < len(cases) - 50 and len(steps_seen) > 50


@pytest.mark.parametrize("rect", [[(0, 0), (39, 0), (0, 2), (39, 2)],
                                  [(0, 0), (2, 0), (0, 39), (2, 39)]], ids=["40x3", "3x40"])
def test_runs_go_along_the_widest_coordinate(monkeypatch, rect):
    """A 40 x 3 lattice rectangle, either way round, takes 3 steps for its
    short side and 120 for its points (runs along the short side would take
    40 + 120), so a limit of 123 lists and counts it and 122 refuses it."""
    monkeypatch.setattr(polytope, "SCAN_LIMIT", 123)
    assert len(LatticePolytope(rect).lattice_points()) == 120
    assert LatticePolytope(rect).count_lattice_points() == 120
    monkeypatch.setattr(polytope, "SCAN_LIMIT", 122)
    for read in (LatticePolytope.lattice_points, LatticePolytope.count_lattice_points):
        with pytest.raises(PreconditionError, match="too large to enumerate"):
            read(LatticePolytope(rect))


def test_points_and_labels_match_reference_on_random_polytopes():
    """Each label of the run table lists and counts the reference's points
    of kP tight at exactly those facets, k = 1..3, on seeded polytopes of
    every dimension up to 4, with integral and with rational vertices."""
    rng = random.Random(SEED + 1)
    seen = set()
    for _ in range(150):
        poly = random_polytope(rng)
        seen.add((poly.ambient_dim, poly.dim, poly.is_lattice))
        assert poly.lattice_points() == ref_points(poly, strict=False)
        assert poly.relative_interior_points() == ref_points(poly, strict=True)
        assert poly.labelled_dilations() == {1}   # the list is read off the table of P
        for k in (1, 2, 3):
            assert listed(poly.labelled_points(k)) == ref_listed(poly, k)
        assert poly.labelled_dilations() == {1, 2, 3}
    assert {d for _, d, _ in seen} == {0, 1, 2, 3, 4}
    assert {n for n, _, _ in seen} == {1, 2, 3, 4}
    assert {lat for _, _, lat in seen} == {False, True}


def segment_points(table):
    """{label: the points of each of its segments, segment by segment}."""
    return {label: [list(_expand([segment], table.last)) for segment in segments]
            for label, segments in table.segments.items()}


def test_runs_are_cut_where_their_label_changes():
    """Along a run each slack is linear and >= 0, so it is zero along the
    run, at one end or nowhere, and a run is at most three segments.  On the
    2 x 3 rectangle the runs go along y: the facet x >= 0 is tight along the
    run at x = 0, whose two ends are tight at different facets, y >= 0 and
    y <= 3.  On a triangle the run at x = 2 is one point, tight at y >= 0
    and at x + y <= 2, which bound it from its two sides.  A facet with a
    rational right-hand side, x + y <= 5/2, is in no label, so the ends it
    misses stay with the rest of their run.  A 0-dimensional polytope is one
    run with no run coordinate, or none at a rational point."""
    def facet(poly, normal):
        return next(i for i, (n, _, _) in enumerate(poly.facets()) if n == normal)

    rect = LatticePolytope([(0, 0), (2, 0), (0, 3), (2, 3)])
    x0, x2, y0, y3 = (facet(rect, n) for n in ((1, 0), (-1, 0), (0, 1), (0, -1)))
    assert segment_points(rect.labelled_points(1)) == {
        frozenset(label): [points] for label, points in [
            ({x0, y0}, [(0, 0)]), ({x0}, [(0, 1), (0, 2)]), ({x0, y3}, [(0, 3)]),
            ({y0}, [(1, 0)]), ((), [(1, 1), (1, 2)]), ({y3}, [(1, 3)]),
            ({x2, y0}, [(2, 0)]), ({x2}, [(2, 1), (2, 2)]), ({x2, y3}, [(2, 3)])]}
    tri = LatticePolytope([(0, 0), (2, 0), (0, 2)])
    x0, y0, top = (facet(tri, n) for n in ((1, 0), (0, 1), (-1, -1)))
    assert segment_points(tri.labelled_points(1))[frozenset({y0, top})] == [[(2, 0)]]
    frac = LatticePolytope([(0, 0), (Fraction(5, 2), 0), (0, Fraction(5, 2))])
    x0, y0 = facet(frac, (1, 0)), facet(frac, (0, 1))
    assert segment_points(frac.labelled_points(1)) == {
        frozenset(label): points for label, points in [
            ({x0, y0}, [[(0, 0)]]), ({x0}, [[(0, 1), (0, 2)]]), ({y0}, [[(1, 0)], [(2, 0)]]),
            ((), [[(1, 1)]])]}
    assert segment_points(LatticePolytope([(1, 2)]).labelled_points(1)) == {
        frozenset(): [[(1, 2)]]}
    assert segment_points(LatticePolytope([(Fraction(1, 3), 2)]).labelled_points(1)) == {}
    points = [LatticePolytope([(1, 2)]), LatticePolytope([(Fraction(1, 3), 2)])]
    for poly in [rect, tri, frac] + points:
        for k in (1, 2, 3):
            assert listed(poly.labelled_points(k)) == ref_listed(poly, k)


def elongated_polytope(rng):
    """A polytope in Z^2-Z^4 stretched 3-6 times along one coordinate
    other than the last, with rational vertices in a third of the draws."""
    n = rng.randint(2, 4)
    axis, stretch, den = rng.randrange(n - 1), rng.randint(3, 6), rng.choice((1, 1, 2))
    return LatticePolytope([tuple(Fraction(rng.randint(-2, 2) * (stretch if i == axis else 1),
                                           rng.choice((1, den))) for i in range(n))
                            for _ in range(rng.randint(2, n + 4))])


def test_points_and_labels_match_reference_along_the_widest_coordinate():
    """The scans of a polytope run along the widest coordinate of their box,
    and the lists and tables come out as the reference's in lexicographic
    order: sec6's Delta (its box spans 10, 10, 10, 10, 7, 7, 7 values of
    the span coordinates; 2 Delta, with 165,218 points, is checked face by
    face in test_hodge.py), its dual, and seeded polytopes whose box is
    widest at a coordinate other than the last."""
    delta = catalog.sec6_polytope()
    rng = random.Random(SEED + 8)
    polys = [(delta, (1,)), (delta.dual_polytope(), (1, 2))]
    polys += [(elongated_polytope(rng), (1, 2)) for _ in range(80)]
    reordered = 0
    for poly, ks in polys:
        assert poly.lattice_points() == ref_points(poly, strict=False)
        assert poly.relative_interior_points() == ref_points(poly, strict=True)
        for k in ks:
            assert listed(poly.labelled_points(k)) == ref_listed(poly, k)
        if poly.dim > 0 and poly._span_data().anchor is not None:
            tcoords = [poly._to_span_coords(v) for v in poly.vertices]
            extents = [floor(max(t)) - ceil(min(t)) for t in zip(*tcoords)]
            reordered += max(extents) > extents[-1]
    assert reordered > 40


def test_sec6_delta_is_listed_in_1846_runs(monkeypatch):
    """Work guard: runs along the last span coordinate of sec6's Delta, one
    of the narrow ones, list its 4,323 points in 2,497 runs; along a widest
    one, in 1,846.  The list and the count make the same scan."""
    runs = []
    scan = polytope._integer_runs

    def counted(*args):
        out = scan(*args)
        runs.append(len(out[0]))
        return out

    monkeypatch.setattr(polytope, "_integer_runs", counted)
    assert catalog.sec6_polytope().count_lattice_points() == 4323
    assert len(catalog.sec6_polytope().lattice_points()) == 4323
    assert runs == [1846, 1846]


def test_count_matches_the_listed_points():
    """The count sums the run lengths of the scan and lists no point; it
    equals the length of the list, before the list is made and after, on
    seeded polytopes with integral and with rational vertices, of every
    dimension, on a line with no lattice point, on single points and on
    the empty polytope."""
    rng = random.Random(SEED + 6)
    polys = [random_polytope(rng) for _ in range(150)]
    polys += [LatticePolytope([(Fraction(1, 2), 0), (Fraction(1, 2), 3)]),  # on x = 1/2
              LatticePolytope([(1, 2)]), LatticePolytope([(Fraction(1, 3), 2)]),
              LatticePolytope([])]
    seen = set()
    for poly in polys:
        count = poly.count_lattice_points()
        assert poly._lattice_points is None
        assert count == len(poly.lattice_points()) == poly.count_lattice_points()
        seen.add((poly.dim, poly.is_lattice, count > 0))
    assert {d for d, _, _ in seen} == {-1, 0, 1, 2, 3, 4}
    assert {(lat, some) for _, lat, some in seen} == {
        (True, True), (False, True), (False, False), (True, False)}


def test_one_scan_serves_points_and_labels(monkeypatch):
    p = LatticePolytope([(0, 0, 0), (2, 1, 0), (0, 1, 2), (2, 2, 2), (1, 3, 1)])
    scans = []
    scan = polytope._integer_runs
    monkeypatch.setattr(polytope, "_integer_runs", lambda *args: scans.append(args) or scan(*args))
    points = p.lattice_points()
    table = p.labelled_points(1)
    assert p.lattice_points() == points and p.count_lattice_points() == len(points)
    assert len(scans) == 1
    q = LatticePolytope(p.vertices)
    assert q.labelled_points(1).count(table.segments) == len(points)
    assert listed(q.labelled_points(1)) == listed(table) and q.lattice_points() == points
    assert len(scans) == 2


def test_lattice_points_leave_no_reference_cycle():
    for poly in (catalog.sec6_polytope(), catalog.cube(3).dilate(2),
                 LatticePolytope([(Fraction(1, 2), 0, 1), (3, 2, 1), (0, 3, 1)])):
        poly.facets()
        gc.collect()
        gc.disable()
        try:
            poly.lattice_points()
            poly.relative_interior_points()
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0


# -- face polytopes ----------------------------------------------------------------


def read_off_the_parent(face):
    """The face as a polytope, with its points listed (and counted, in
    either order) off its parent's table: the face makes no scan."""
    listed, counted = face.as_polytope(), face.as_polytope()
    count = counted.count_lattice_points()
    assert counted.lattice_points() == listed.lattice_points()
    assert listed.count_lattice_points() == count
    assert listed.labelled_dilations() == counted.labelled_dilations() == set()
    return listed


def test_face_polytopes_list_the_points_of_a_fresh_scan():
    """Every face polytope, the improper face included, lists and counts
    the points of a scan of its vertices alone: faces of seeded polytopes
    with integral and rational vertices, full-dimensional or not, of their
    2-dilations, and of reflexive polytopes and their duals."""
    rng = random.Random(SEED + 9)
    parents = []
    for _ in range(60):
        poly = random_polytope(rng)
        if not poly.is_empty:
            parents += [poly, poly.dilate(2)]
    k3 = anticanonical((1, 2, 3))   # rational vertices; the hull of its points is reflexive
    parents.append(k3)
    for reflexive in (catalog.cube(3), catalog.cross_polytope(4),
                      LatticePolytope(k3.lattice_points())):
        parents += [reflexive, reflexive.dual_polytope()]
    seen = set()
    for parent in parents:
        for face in parent.all_faces():
            fresh = LatticePolytope(face.vertices(), _trusted=True)
            points = read_off_the_parent(face).lattice_points()
            assert points == fresh.lattice_points()
            assert face.as_polytope().count_lattice_points() == fresh.count_lattice_points()
            seen.add((parent.dim == parent.ambient_dim, parent.is_lattice, bool(points),
                      face.dim == parent.dim))
    assert seen >= {(full, lat, True, improper) for full in (False, True)
                    for lat in (False, True) for improper in (False, True)}
    assert (False, False, False, False) in seen   # a face with no lattice point


def test_face_polytopes_read_off_the_parent_keep_their_own_tables():
    """A face polytope whose points came from its parent builds its own
    labelled table, and the faces of that polytope read their interior
    points from it, as those of a fresh polytope on the same vertices."""
    rng = random.Random(SEED + 10)
    parents = [random_polytope(rng) for _ in range(40)] + [catalog.cube(3).dilate(2)]
    for parent in parents:
        if parent.is_empty:
            continue
        for face in parent.all_faces():
            poly = read_off_the_parent(face)
            fresh = LatticePolytope(face.vertices())
            for k in (1, 2):
                assert listed(poly.labelled_points(k)) == listed(fresh.labelled_points(k))
            for g, h in zip(poly.all_faces(), fresh.all_faces()):
                assert g.vertices() == h.vertices()
                assert g.interior_points() == h.interior_points()
                assert g.interior_points(2) == h.interior_points(2)


def test_face_polytope_scans_itself_when_its_parent_is_refused(monkeypatch):
    """The cube [-5, 5]^3 takes 11 + 121 + 1,331 steps to list, a square
    face 11 + 121 and an edge 11: under a limit of 200 the cube is refused
    and its edges and square faces are still listed and counted.  The
    refused scans leave no points and no table, empty or partial, behind:
    once the limit is restored the cube labels all 1,331 points, and each
    face polytope lists the points of a fresh scan of its vertices."""
    cube = catalog.cube(3).dilate(5)
    monkeypatch.setattr(polytope, "SCAN_LIMIT", 200)
    with pytest.raises(PreconditionError, match="too large to enumerate"):
        cube.count_lattice_points()
    for face in cube.faces(1) + cube.faces(2):
        assert face.as_polytope().count_lattice_points() == 11 ** face.dim
        points = face.as_polytope().lattice_points()
        assert points == LatticePolytope(face.vertices()).lattice_points()
        assert len(points) == 11 ** face.dim
    assert cube.labelled_dilations() == set()
    monkeypatch.undo()
    table = cube.labelled_points(1)
    assert listed(table) == listed(catalog.cube(3).dilate(5).labelled_points(1))
    assert table.count(table.segments) == len(table.points(table.segments)) == 11 ** 3
    for face in cube.all_faces():
        fresh = LatticePolytope(face.vertices(), _trusted=True)
        assert face.as_polytope().lattice_points() == fresh.lattice_points()


def test_the_face_count_oracle_scans_each_face_afresh(monkeypatch):
    """`--verify` recounts each face count, and relists its points, as its
    own dilated polytope: its dilations and interior points do not read the
    parent's tables, so one corrupted segment of either table is caught, and
    so is a count that its list does not match."""
    poly = catalog.cube(3)
    for k in (1, 2):
        poly.labelled_points(k)
    check = "face_counts_match_per_face_enumeration"
    assert cli._face_counts_verification(poly) == {check: True}
    face = poly.faces(1)[0]
    for k in (1, 2):
        segments = poly.labelled_points(k).segments
        kept = segments[face.facets]
        segments[face.facets] = kept + [((9, 9, 9), 0, 0)]
        assert cli._face_counts_verification(poly) == {check: False}
        segments[face.facets] = kept
    assert cli._face_counts_verification(poly) == {check: True}
    count = polytope.RunTable.count
    monkeypatch.setattr(polytope.RunTable, "count", lambda self, labels: count(self, labels) + 1)
    assert poly.labelled_points(1).points([face.facets]) == face.as_polytope(
        ).relative_interior_points()
    assert cli._face_counts_verification(poly) == {check: False}


def test_k3_edge_lengths_take_three_scans(monkeypatch):
    """Work guard: on the anticanonical polytope of P(1,1,1,1), the points,
    then the lengths l(e) and l(e*) of every edge of their hull and of its
    dual edge (sum l(e) l(e*) = 24) take one scan each of the polytope, the
    hull and the dual: 3 calls to `_integer_runs`, where a scan per edge
    polytope took 13."""
    calls = []
    scan = polytope._integer_runs
    monkeypatch.setattr(polytope, "_integer_runs", lambda *args: calls.append(1) or scan(*args))
    hull = LatticePolytope(anticanonical((1, 1, 1)).lattice_points())
    assert hull.is_reflexive()

    def length(face):
        return len(face.as_polytope().lattice_points()) - 1

    assert sum(length(e) * length(hull.dual_face(e)) for e in hull.faces(1)) == 24
    assert len(calls) == 3


# -- face dimensions ---------------------------------------------------------------


def test_face_dimensions_match_ranks(monkeypatch):
    rng = random.Random(SEED + 3)
    polys = [random_polytope(rng) for _ in range(80)]
    polys += [catalog.sec6_polytope(), catalog.cube(4), catalog.cross_polytope(4)]
    ranks = []
    rank = lattice.matrix_rank
    monkeypatch.setattr(lattice, "matrix_rank", lambda rows: ranks.append(rows) or rank(rows))
    for poly in polys:
        if poly.is_empty:
            continue
        if poly.dim > 0:
            poly.facets()
        ranks.clear()
        faces = poly.all_faces()
        assert ranks == []
        for face in faces:
            assert face.dim == ref_affine_dim(face.vertices())
        assert faces[-1].dim == poly.dim


def test_face_at_direction_matches_pairings_and_ranks(monkeypatch):
    """The face looked up by its vertex set is the set of vertices at which
    an exact pairing is least, of the rank of their differences, and
    carries the facets through it; no rank is taken."""
    rng = random.Random(SEED + 5)
    polys = [random_polytope(rng) for _ in range(80)] + [catalog.sec6_polytope()]
    ranks = []
    rank = lattice.matrix_rank
    monkeypatch.setattr(lattice, "matrix_rank", lambda rows: ranks.append(rows) or rank(rows))
    for poly in polys:
        if poly.is_empty:
            continue
        tights = [t for _, _, t in poly.facets()] if poly.dim > 0 else []
        for _ in range(8):
            n = tuple(rng.randint(-2, 2) for _ in range(poly.ambient_dim))
            vals = [lattice.pairing(v, n) for v in poly.vertices]
            want = frozenset(i for i, x in enumerate(vals) if x == min(vals))
            ranks.clear()
            face = poly.face_at_direction(n)
            assert ranks == []
            assert face.vertex_indices == want
            assert face.dim == ref_affine_dim(face.vertices())
            assert face.facets == frozenset(i for i, t in enumerate(tights) if want <= t)


# -- start rays and wall normals ---------------------------------------------------


def test_start_rays_match_integer_kernels():
    rng = random.Random(SEED + 4)
    for _ in range(200):
        dim = rng.randint(1, 5)
        basis = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim)]
        if lattice.matrix_rank(basis) < dim:
            continue
        pivots, duals = lattice.dual_rows(basis, dim)
        assert pivots == list(range(dim))
        for i, y in enumerate(duals):
            want = lattice.integer_kernel([basis[j] for j in range(dim) if j != i], ncols=dim)[0]
            if lattice.pairing(basis[i], want) < 0:
                want = tuple(-x for x in want)
            assert y == want


def test_cone_rays_take_no_smith_normal_form(monkeypatch):
    rows = [n + (-int(r),) for n, r, _ in catalog.cube(4).facets()] + [(0,) * 4 + (1,)]
    forms = []
    snf = lattice.smith_normal_form
    monkeypatch.setattr(lattice, "smith_normal_form", lambda a: forms.append(a) or snf(a))
    rays = cone_rays(rows, 5)
    assert len([y for y, _ in rays if y[-1] > 0]) == 16   # the vertices
    assert forms == []


WALL_FANS = {
    "P1": catalog.projective_line, "P2": catalog.projective_plane,
    "P3": lambda: catalog.projective_space(3), "P4": lambda: catalog.projective_space(4),
    "BlP2": catalog.blowup_p2, "F2": lambda: catalog.hirzebruch(2), "BlP3": catalog.blowup_p3,
    "P123": lambda: catalog.weighted_projective((1, 2, 3)), "P11222": catalog.p11222_fan,
    "P11222-crepant": catalog.p11222_crepant_fan, "P11222-triple": catalog.p11222_triple_fan,
    "P2xP1": lambda: catalog.product_fan(catalog.projective_plane(), catalog.projective_line()),
    "octahedron-normal-fan": lambda: catalog.cross_polytope(3).normal_fan(),
}


@pytest.mark.parametrize("name", WALL_FANS)
def test_wall_normals_match_integer_kernels(name):
    fan = WALL_FANS[name]()
    walls = fan._facet_incidence()
    assert walls
    for tau in walls:
        rays = [fan.rays[i] for i in tau]
        pivots, duals = lattice.dual_rows(rays, fan.dim)
        assert len(pivots) == fan.dim - 1 == len(duals) - 1
        want = lattice.integer_kernel(rays, ncols=fan.dim)
        assert len(want) == 1 and duals[-1] in (want[0], tuple(-x for x in want[0]))
    assert Fan(fan.rays, fan.max_cones).is_complete
