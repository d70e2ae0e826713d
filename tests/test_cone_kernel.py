"""Differential tests of the cone routes that run on ``cone_rays`` alone.

The references below are the routes the package used while it carried a
second polyhedral kernel, the exact phase-1 simplex ``lp_feasible``: one LP
for membership in a cone with dependent generators, one for strong
convexity, the separation certificate of two cones that meet in a face, and
the strict-convexity LP that searched for an ample class.  They are compared
with the sign tests on facet normals, the ray test on the intersection of
two cones and the nef cone, on seeded random inputs.  The completeness
certificate is checked on inputs that close up along their facets without
being fans, and against the certificate it replaced, which took one
``dual_rows`` per wall where it reads walls and sides off facet rows.

``Fan.locate`` answers every "which cone holds x" question of the package.
Its references are the routes it replaced, kept here: ``cone_contains``, one
solve of x in the generators (and the rows of their cone when they are
dependent), and the scan of every cone, dimension by dimension, for the
first one that contains x.  ``smallest_containing_cone`` is the locate
route to the smallest cone of a coarser fan that holds a cone of a
refinement; the stratification reads that cone off the section polytope's
faces instead, and is checked against it.
"""

import ast
import random
from fractions import Fraction
from itertools import count, product
from math import lcm
from pathlib import Path

import pytest

import semitoric
from semitoric import catalog, lattice
from semitoric.divisor import TorusInvariantDivisor, find_ample
from semitoric.errors import PreconditionError, ValidationError
from semitoric.fan import Fan, cone_rows
from semitoric.linalg import lp_feasible, solve_linear
from semitoric.polytope import HPolytope, LatticePolytope, vertices_from_inequalities

SEED = 20261019


# -- references ------------------------------------------------------------------


def cone_contains(generators, x) -> bool:
    """Exact membership of x in the cone spanned by the generators: the
    coefficients of one solve when they are independent, else the rows of
    their cone."""
    gens = [tuple(g) for g in generators]
    if not gens:
        return not any(x)
    d = len(gens[0])
    sol = solve_linear([[g[i] for g in gens] for i in range(d)], list(x))
    if sol is None:
        return False
    particular, kernel = sol
    if not kernel:
        return all(c >= 0 for c in particular)
    return all(lattice.pairing(h, x) >= 0 for h in cone_rows(gens, d)[1])


def cone_is_pointed(generators) -> bool:
    """Strong convexity: the dual cone, spanned by the rows, is full."""
    gens = [tuple(g) for g in generators]
    return not gens or lattice.matrix_rank(cone_rows(gens, len(gens[0]))[1]) == len(gens[0])


def ref_locate(fan, x):
    """The first cone, by dimension, that contains x: the smallest one."""
    for k in range(fan.dim + 1):
        for cone in fan.cones(k):
            if cone_contains(cone.generators(), x):
                return cone
    return None


def smallest_containing_cone(coarse, cone):
    """The cone of `coarse` whose relative interior holds the sum of the rays
    of `cone`, a cone of a refinement; it must hold every one of them."""
    held = coarse.locate(cone.relint_point())
    assert held is not None and all(held.contains(g) for g in cone.generators()), cone
    return held


def ref_cone_contains(generators, x):
    gens = [tuple(g) for g in generators]
    if not gens:
        return not any(x)
    eqs = [([g[i] for g in gens], xi) for i, xi in enumerate(x)]
    return lp_feasible(len(gens), eqs=eqs, nonneg=True) is not None


def ref_cone_is_pointed(generators):
    gens = [tuple(g) for g in generators]
    if not gens:
        return True
    eqs = [([g[i] for g in gens], 0) for i in range(len(gens[0]))]
    eqs.append(([1] * len(gens), 1))
    return lp_feasible(len(gens), eqs=eqs, nonneg=True) is None


def ref_face_compatibility_issue(fan, a, b):
    """Shared rays by LP membership, then a functional vanishing on the
    shared face, positive on the rest of one cone and negative on the rest
    of the other: it exists exactly when the cones meet in that face."""
    ca, cb = fan.max_cones[a], fan.max_cones[b]
    gens_a = [fan.rays[i] for i in sorted(ca)]
    gens_b = [fan.rays[i] for i in sorted(cb)]
    shared = {i for i in ca if ref_cone_contains(gens_b, fan.rays[i])} | \
             {i for i in cb if ref_cone_contains(gens_a, fan.rays[i])}
    for ci, cone_set in ((a, ca), (b, cb)):
        if not shared <= cone_set or \
                frozenset(shared) not in fan._faces_of_max_cone(ci):
            return (f"intersection of cones {sorted(ca)} and {sorted(cb)} "
                    f"is not a common face")
    eqs = [(list(fan.rays[i]), 0) for i in sorted(shared)]
    ineqs = [(list(fan.rays[i]), 1) for i in sorted(ca - shared)]
    ineqs += [([-x for x in fan.rays[i]], 1) for i in sorted(cb - shared)]
    if lp_feasible(fan.dim, eqs=eqs, ineqs=ineqs) is None:
        return f"cones {sorted(ca)} and {sorted(cb)} overlap beyond a common face"
    return None


def ref_ample_by_lp(fan):
    """Solve for (m_sigma)_sigma and a with <m_sigma, e_i> = -a_i on the rays
    of sigma and <m_sigma, e_j> >= -a_j + 1 off sigma; scale to integers."""
    d, n, ncones = fan.dim, len(fan.rays), len(fan.max_cones)
    nvars = ncones * d + n
    eqs, ineqs = [], []
    for ci, c in enumerate(fan.max_cones):
        for i, e in enumerate(fan.rays):
            row = [0] * nvars
            row[ci * d:ci * d + d] = e
            row[ncones * d + i] = 1
            (eqs if i in c else ineqs).append((row, 0 if i in c else 1))
    sol = lp_feasible(nvars, eqs=eqs, ineqs=ineqs)
    if sol is None:
        return None
    scale = lcm(*[Fraction(x).denominator for x in sol])
    return TorusInvariantDivisor(
        fan, [int(Fraction(sol[ncones * d + i]) * scale) for i in range(n)])


def ref_check_complete(fan):
    """The completeness certificate on wall normals: the walls from the face
    lattice of each maximal cone, one dual_rows per wall for its normal y,
    and halves[ci] listing (y, <y, e> for a ray e of ci off the wall)."""
    if not fan.max_cones:
        return fan.dim == 0
    if any(c and lattice.matrix_rank([fan.rays[i] for i in c]) != fan.dim or
           not c and fan.dim for c in fan.max_cones):
        return False
    inc = {}
    for ci in range(len(fan.max_cones)):
        for s, k in fan._faces_of_max_cone(ci).items():
            if k == fan.dim - 1:
                inc.setdefault(s, []).append(ci)
    if any(len(cis) != 2 for cis in inc.values()):
        return False
    seen, stack = {0}, [0]
    while stack:
        ci = stack.pop()
        new = {b if a == ci else a for a, b in inc.values() if ci in (a, b)} - seen
        seen |= new
        stack.extend(new)
    if len(seen) != len(fan.max_cones):
        return False
    halves = [[] for _ in fan.max_cones]
    for tau, (a, b) in inc.items():
        pivots, duals = lattice.dual_rows([fan.rays[i] for i in tau], fan.dim)
        y = duals[len(pivots)]
        va, vb = (lattice.pairing(y, fan.rays[min(fan.max_cones[ci] - tau)]) for ci in (a, b))
        if va * vb >= 0:
            raise ValidationError(
                f"cones {sorted(fan.max_cones[a])} and {sorted(fan.max_cones[b])} "
                f"lie on the same side of their common facet {sorted(tau)}")
        halves[a].append((y, va))
        halves[b].append((y, vb))
    p = next(p for p in ([t ** k for k in range(fan.dim)] for t in count(2))
             if all(lattice.pairing(y, p) for hs in halves for y, _ in hs))
    holders = [sorted(c) for c, hs in zip(fan.max_cones, halves)
               if all(lattice.pairing(y, p) * v > 0 for y, v in hs)]
    if len(holders) != 1:
        raise ValidationError(f"the point {p} lies in {len(holders)} maximal "
                              f"cones, not one: {holders}")
    return True


# -- inputs ----------------------------------------------------------------------


def random_vector(rng, d, lo=-3, hi=3):
    v = [0] * d
    while not any(v):
        v = [rng.randint(lo, hi) for _ in range(d)]
    return lattice.primitivize(v)


def random_generator_set(rng):
    """Generators in dims 2-4 that are dependent: more than the rank, drawn
    from a random sublattice, and sometimes holding a line."""
    d = rng.randint(2, 4)
    k = rng.randint(1, d)
    lift = [random_vector(rng, d) for _ in range(k)]
    gens = []
    for _ in range(rng.randint(k + 1, k + 3)):
        coords = [rng.randint(-2, 2) for _ in range(k)]
        g = [sum(c * u[i] for c, u in zip(coords, lift)) for i in range(d)]
        if any(g):
            gens.append(tuple(g))
    if gens and rng.random() < 0.3:
        gens.append(tuple(-x for x in rng.choice(gens)))
    return d, gens


def test_cone_membership_and_pointedness_match_lp():
    rng = random.Random(SEED)
    seen = set()
    for _ in range(150):
        d, gens = random_generator_set(rng)
        if not gens:
            continue
        pointed = cone_is_pointed(gens)
        assert pointed == ref_cone_is_pointed(gens), gens
        seen.add("pointed" if pointed else "holds a line")
        points = [random_vector(rng, d) for _ in range(3)]
        # sums over subsets of generators lie on faces, mostly on the boundary
        for size in (1, 2):
            chosen = rng.sample(gens, min(size, len(gens)))
            p = tuple(sum(g[i] for g in chosen) for i in range(d))
            points += [p, tuple(-x for x in p)]
        for x in points:
            inside = cone_contains(gens, x)
            assert inside == ref_cone_contains(gens, x), (gens, x)
            seen.add("inside" if inside else "outside")
    assert seen == {"pointed", "holds a line", "inside", "outside"}


def random_cone_pair(rng):
    """Two cones in dims 2-4, both in the half-space x_d > 0 or on opposite
    sides of x_d = 0, sharing some rays; some pairs share a line."""
    d = rng.randint(2, 4)

    def above(sign):
        v = random_vector(rng, d - 1, -2, 2) if d > 1 else ()
        return lattice.primitivize(tuple(v) + (sign * rng.randint(1, 2),))

    a = {above(1) for _ in range(rng.randint(d, d + 2))}
    if rng.random() < 0.5:
        # rays on x_d = 0 with x_1 > 0, some shared with rays below it: the
        # cones meet in the face those shared rays span, or fail to
        flat = [lattice.primitivize((rng.randint(1, 2),)
                                    + tuple(rng.randint(-2, 2) for _ in range(d - 2)) + (0,))
                for _ in range(d - 1)]
        a |= set(flat)
        b = set(rng.sample(flat, rng.randint(1, len(flat))))
        b |= {above(-1) for _ in range(rng.randint(1, d))}
        if rng.random() < 0.3:
            line = tuple(-x for x in flat[0])
            a.add(line)
            b |= {flat[0], line}
    else:
        b = set(rng.sample(sorted(a), rng.randint(0, d - 1)))
        b |= {above(1) for _ in range(rng.randint(1, d + 1))}
    rays = sorted(a | b)
    if lattice.matrix_rank(rays) < d:
        return None
    return Fan(rays, [{rays.index(r) for r in a}, {rays.index(r) for r in b}])


def test_face_compatibility_matches_separation_lp():
    rng = random.Random(SEED + 1)
    seen = set()
    for _ in range(120):
        fan = random_cone_pair(rng)
        if fan is None:
            continue
        issue = fan._face_compatibility_issue(0, 1)
        assert issue == ref_face_compatibility_issue(fan, 0, 1), fan.max_cones
        seen.add(issue.split()[0] if issue else None)
        if not cone_is_pointed([fan.rays[i] for i in fan.max_cones[1]]):
            seen.add("line" if issue is None else "line, " + issue.split()[0])
    assert seen >= {None, "cones", "intersection", "line"}, seen


# -- fans and their ample classes --------------------------------------------------


TWISTED_PRISM = Fan(
    [(4, -2, 1), (-2, 4, 1), (-2, -2, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1), (0, 0, -1)],
    [{3, 4, 5}, {0, 1, 3}, {1, 3, 4}, {1, 2, 4}, {2, 4, 5}, {0, 2, 5}, {0, 3, 5},
     {0, 1, 6}, {1, 2, 6}, {0, 2, 6}])


def stellar_subdivision(fan, cone):
    """Star subdivision at the ray through the sum of the cone's rays: each
    maximal cone over the cone becomes the joins of the new ray with those
    of its facets that miss the cone."""
    v = lattice.primitivize([sum(fan.rays[i][k] for i in cone) for k in range(fan.dim)])
    new = len(fan.rays)
    cones = []
    for ci, c in enumerate(fan.max_cones):
        if not cone <= c:
            cones.append(c)
            continue
        cones += [f | {new} for f, k in fan._faces_of_max_cone(ci).items()
                  if k == fan.dim - 1 and not cone <= f]
    return Fan(list(fan.rays) + [v], cones)


def random_normal_fans(rng):
    yield catalog.cross_polytope(3).normal_fan()  # non-simplicial: four rays a cone
    yield catalog.cube(3).normal_fan()
    made = 0
    while made < 6:
        d = 2 if made < 3 else 3
        pts = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 3)]
        poly = LatticePolytope(pts)
        if poly.dim == d:
            made += 1
            yield poly.normal_fan()


def test_ample_class_from_the_nef_cone_matches_lp():
    """Normal fans and their stellar subdivisions are projective.  The LP,
    which takes seconds beyond six maximal cones in rank 3, checks the
    smaller ones."""
    rng = random.Random(SEED + 2)
    kinds = set()
    for base in random_normal_fans(rng):
        cone = rng.choice([c.ray_indices for c in base.cones(2)])
        for fan in (base, stellar_subdivision(base, cone)):
            assert fan.is_complete
            assert set(fan.validate()) <= {"fan is not simplicial"}
            assert find_ample(fan).is_strictly_convex()
            if len(fan.max_cones) <= 6:
                ref = ref_ample_by_lp(fan)
                assert ref is not None and ref.is_strictly_convex()
                kinds.add(fan.is_simplicial)
    assert kinds == {True, False}


def test_twisted_prism_is_complete_but_not_projective():
    assert TWISTED_PRISM.validate() == []
    assert TWISTED_PRISM.is_complete
    with pytest.raises(PreconditionError, match="projective"):
        find_ample(TWISTED_PRISM)


# -- the completeness certificate --------------------------------------------------


PENTAGRAM = Fan([(1, 0), (1, 2), (-1, 1), (-1, -1), (1, -2)],
                [{k, (k + 2) % 5} for k in range(5)])
DOUBLE_TRIANGLE = Fan([(1, 0), (0, 1), (-1, -1), (2, 1), (-1, 0), (0, -1)],
                      [{k, (k + 1) % 6} for k in range(6)])
FOLDED_TRIANGLE = Fan([(1, 0), (0, 1), (1, 1)], [{0, 1}, {1, 2}, {2, 0}])


@pytest.mark.parametrize("fan, named", [
    (PENTAGRAM, "the point [1, 3] lies in 2 maximal cones, not one: [[0, 2], [1, 3]]"),
    (DOUBLE_TRIANGLE, "the point [1, 2] lies in 2 maximal cones, not one: [[0, 1], [3, 4]]"),
    (FOLDED_TRIANGLE, "cones [0, 1] and [0, 2] lie on the same side of their common facet [0]"),
])
def test_covers_that_are_not_fans_are_rejected(fan, named):
    with pytest.raises(ValidationError) as exc:
        fan.is_complete
    assert str(exc.value) == named


def certificate_verdict(rays, cones, check):
    """What a certificate says of a fresh fan: its verdict or its error text."""
    try:
        return check(Fan(rays, cones))
    except ValidationError as exc:
        return str(exc)


def test_completeness_certificate_matches_wall_normals():
    """The certificate on facet rows gives the verdict and the error text of
    the one on wall normals: on seeded normal fans and stellar subdivisions
    of them, each without one of its maximal cones, and with a maximal cone
    of lower dimension or an empty one added; on the covers that are not
    fans; and on two half-planes, cones that hold a line."""
    rng = random.Random(SEED + 7)
    cases = [(fan.rays, fan.max_cones) for fan in (PENTAGRAM, DOUBLE_TRIANGLE, FOLDED_TRIANGLE)]
    cases.append(([(1, 0), (-1, 0), (0, 1), (0, -1)], [{0, 1, 2}, {0, 1, 3}]))  # half-planes
    for base in random_normal_fans(rng):
        for fan in (base, stellar_subdivision(base, rng.choice(
                [c.ray_indices for c in base.cones(2)]))):
            cones = list(fan.max_cones)
            cases.append((fan.rays, cones))
            cases.append((fan.rays, cones[1:]))
            cases.append((fan.rays, cones[:-1] + [sorted(cones[-1])[:-1]]))
            cases.append((fan.rays, cones + [[]]))
    verdicts = set()
    for rays, cones in cases:
        want = certificate_verdict(rays, cones, ref_check_complete)
        assert certificate_verdict(rays, cones, lambda fan: fan.is_complete) == want, cones
        verdicts.add(want if type(want) is bool else want.split()[0])
    assert verdicts == {True, False, "the", "cones"}


def test_generic_point_avoids_every_wall():
    # (1, 2) lies on the ray (1, 2) of this fan; the certificate moves on to (1, 3)
    fan = Fan([(1, 2), (-1, 0), (0, -1)], [{0, 1}, {1, 2}, {2, 0}])
    assert fan.is_complete
    assert catalog.blowup_p2().is_complete  # (1, 1) is a ray of it


def test_rank_deficient_systems_match_lp():
    """Normals of rank k < d: feasible systems are unbounded, infeasible ones
    give the empty polytope."""
    rng = random.Random(SEED + 3)
    seen = set()
    for _ in range(80):
        d = rng.randint(2, 4)
        lift = [random_vector(rng, d) for _ in range(rng.randint(1, d - 1))]
        rows = []
        while len(rows) < rng.randint(2, 5):
            n = [sum(rng.randint(-2, 2) * u[i] for u in lift) for i in range(d)]
            if any(n):
                rows.append((tuple(n), rng.randint(-3, 3)))
        if lattice.matrix_rank([n for n, _ in rows]) == d:
            continue
        feasible = lp_feasible(d, ineqs=rows) is not None
        if feasible:
            with pytest.raises(PreconditionError, match="feasible but unbounded"):
                vertices_from_inequalities(HPolytope(rows))
        else:
            assert vertices_from_inequalities(HPolytope(rows)).is_empty
        seen.add(feasible)
    assert seen == {True, False}


def places_naming(target):
    """(module, node type) of every place in the package that names target."""
    found = []
    for path in sorted(Path(semitoric.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, (ast.alias, ast.FunctionDef)) else None)
            if name is not None and name.split(".")[-1] == target:
                found.append((path.name, type(node).__name__))
    return found


def test_no_simplex_caller_in_package():
    """One polyhedral kernel: the definition of lp_feasible is the only
    place the package names it."""
    assert places_naming("lp_feasible") == [("linalg.py", "FunctionDef")]


def test_one_membership_kernel_in_package():
    """solve_linear is called by solve_unique alone, and the cone tests that
    locate replaced live only here."""
    assert places_naming("solve_linear") == [("linalg.py", "FunctionDef"), ("linalg.py", "Name")]
    assert places_naming("cone_contains") == places_naming("cone_is_pointed") == []


def test_one_integer_solve_in_package():
    """Every unique solve of the package is lattice.rational_solution:
    solve_unique is named in linalg.py alone, where it is defined."""
    assert {module for module, _ in places_naming("solve_unique")} == {"linalg.py"}


# -- point location ----------------------------------------------------------------


def locate_fans():
    """Seeded normal fans (the octahedron's and the cube's among them), a
    stellar subdivision of each, and crepant P(1,1,2,2,2)."""
    rng = random.Random(SEED + 4)
    for base in random_normal_fans(rng):
        yield base
        yield stellar_subdivision(base, rng.choice([c.ray_indices for c in base.cones(2)]))
    yield catalog.p11222_crepant_fan()


def test_locate_matches_the_scan_and_contains_matches_lp():
    """At every integer point of a box, ``locate`` gives the cone the scan
    by dimension finds, and ``ConeRef.contains`` agrees with the LP on that
    cone and on three cones drawn at random."""
    rng = random.Random(SEED + 5)
    dims = set()
    for fan in locate_fans():
        cones = fan.all_cones()
        r = 1 if fan.dim == 4 else 2
        for x in product(range(-r, r + 1), repeat=fan.dim):
            held, ref = fan.locate(x), ref_locate(fan, x)
            assert (held.ray_indices, held.dim) == (ref.ray_indices, ref.dim), (fan, x)
            assert fan.max_cone_index(x) is not None
            dims.add(held.dim)
            for cone in [held] + rng.sample(cones, 3):
                assert cone.contains(x) == ref_cone_contains(cone.generators(), x), (cone, x)
    assert dims == {0, 1, 2, 3, 4}


def test_refinement_queries_match_the_scan():
    """Each cone of a stellar subdivision has as smallest container the cone
    of the base fan that the scan finds for the sum of its rays."""
    rng = random.Random(SEED + 6)
    for base in random_normal_fans(rng):
        fine = stellar_subdivision(base, rng.choice([c.ray_indices for c in base.cones(2)]))
        assert fine.is_refinement(base) and not base.is_refinement(fine)
        for cone in fine.all_cones():
            ref = ref_locate(base, cone.relint_point())
            assert smallest_containing_cone(base, cone).ray_indices == ref.ray_indices
