import sys
from collections import Counter

import pytest

from semitoric import catalog, lattice, linalg
from semitoric import fan as fan_module
from semitoric.divisor import TorusInvariantDivisor
from semitoric.errors import ValidationError
from semitoric.fan import ConeRef, Fan
from semitoric.hodge import triangulation_helper
from semitoric.polytope import HPolytope, vertices_from_inequalities

from .test_cone_kernel import cone_contains, smallest_containing_cone
from .test_lattice import ref_quotient_projection


def p2_fan():
    return Fan([(1, 0), (0, 1), (-1, -1)], [{0, 1}, {0, 2}, {1, 2}])


def blowup_fan():
    # projective plane blown up at the torus-fixed point of cone {e1, e2}
    return Fan([(1, 0), (0, 1), (-1, -1), (1, 1)],
               [{0, 3}, {3, 1}, {1, 2}, {2, 0}])


def sec6_fan():
    ineqs = [(tuple(int(i == j) for j in range(7)), -1) for i in range(7)] + \
        [((-2, -2, -2, -2, -3, -3, -3), -1)]
    return vertices_from_inequalities(HPolytope(ineqs)).normal_fan()


def test_validate_p2():
    fan = p2_fan()
    assert fan.validate() == []
    assert fan.is_complete
    assert fan.is_simplicial


def test_validate_incomplete():
    fan = Fan([(1, 0), (0, 1), (-1, -1)], [{0, 1}, {0, 2}])
    assert not fan.is_complete
    assert "fan is not complete" in fan.validate()


def test_locate_on_and_off_the_support_of_an_incomplete_fan():
    fan = Fan([(1, 0), (0, 1), (-1, -1)], [{0, 1}, {0, 2}])
    located = {x: fan.locate(x) for x in
               [(0, 0), (2, 1), (0, 3), (1, -1), (-1, -1), (-1, 0), (-2, 1), (0, -1)]}
    assert {x: c and sorted(c.ray_indices) for x, c in located.items()} == {
        (0, 0): [], (2, 1): [0, 1], (0, 3): [1], (1, -1): [0, 2], (-1, -1): [2],
        (-1, 0): None, (-2, 1): None, (0, -1): [0, 2]}
    assert [c.dim for c in located.values() if c] == [0, 2, 1, 2, 1, 2]
    assert fan.max_cone_index((-1, 0)) is None
    assert not fan.cone_ref([0, 1]).contains((-1, 0))


def test_validate_sec6_wps_fan():
    fan = sec6_fan()
    assert fan.is_complete
    assert fan.is_simplicial
    assert fan.validate() == []


def test_validate_overlapping_cones():
    fan = Fan([(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)],
              [{0, 1}, {2, 3}, {3, 4}, {4, 0}])  # cone {2,3} overlaps {0,1}
    assert any("overlap" in issue or "intersect" in issue for issue in fan.validate())


def test_cones_counts():
    fan = p2_fan()
    assert len(fan.cones(1)) == 3
    assert len(fan.cones(2)) == 3
    assert len(fan.cones(0)) == 1
    assert len(blowup_fan().cones(2)) == 4


def test_cone_refs_are_equal_by_fan_rays_and_dimension():
    fan, same = p2_fan(), p2_fan()
    for k in range(3):
        for a, b in zip(fan.cones(k), same.cones(k)):
            assert a == b and hash(a) == hash(b) and a is not b
        assert len(set(fan.cones(k)) | set(same.cones(k))) == len(fan.cones(k))
    ray = ConeRef(fan, frozenset({0}), 1)
    assert ray != ConeRef(fan, frozenset({1}), 1)
    assert ray != ConeRef(blowup_fan(), frozenset({0}), 1)
    assert ray != frozenset({0})


def test_cones_of_equal_fans_compare_by_their_rays():
    """Equal fans may number their rays differently: a cone is equal to the
    cone of an equal fan with the same rays, whatever their indices, and to
    no other, in comparisons and in sets."""
    p2 = catalog.projective_plane()
    p2b = Fan([(0, 1), (1, 0), (-1, -1)], [[0, 1], [1, 2], [0, 2]])
    assert p2b == p2 and p2b.rays[0] != p2.rays[0]
    assert p2b.cone_ref([0]) != p2.cone_ref([0])
    assert len({p2b.cone_ref([0]), p2.cone_ref([0])}) == 2
    assert p2b.cone_ref([0]) == p2.cone_ref([1])
    assert hash(p2b.cone_ref([0])) == hash(p2.cone_ref([1]))
    walls = {p2b.cone_ref(c) for c in ([0, 2], [1, 2])}
    assert walls == {p2.cone_ref(c) for c in ([1, 2], [0, 2])}
    assert set(p2b.cones(1)) == set(p2.cones(1)) and set(p2b.cones(2)) == set(p2.cones(2))


def test_cones_of_nonsimplicial_fan():
    # fan over the faces of the square: one non-simplicial check via normal fan
    diamond = vertices_from_inequalities(HPolytope(
        [((1, 1), -1), ((1, -1), -1), ((-1, 1), -1), ((-1, -1), -1)]))
    fan = diamond.normal_fan()
    assert len(fan.cones(2)) == 4
    assert len(fan.cones(1)) == 4
    assert fan.is_complete


def test_faces_of_lower_dimensional_nonsimplicial_cone():
    # the cone over a square, in a hyperplane of rank 4, and a 2-cone through ray 0
    fan = Fan([(1, 1, 1, 0), (1, -1, 1, 0), (-1, -1, 1, 0), (-1, 1, 1, 0), (0, 0, 0, 1)],
              [{0, 1, 2, 3}, {0, 4}])
    assert len(fan.cones(1)) == 5
    assert [sorted(c.ray_indices) for c in fan.cones(2)] == \
        [[0, 1], [0, 3], [0, 4], [1, 2], [2, 3]]
    assert fan.validate() == ["fan is not complete", "fan is not simplicial"]


def test_is_refinement():
    assert blowup_fan().is_refinement(p2_fan())
    assert not p2_fan().is_refinement(blowup_fan())
    assert p2_fan().is_refinement(p2_fan())


def test_refinement_antisymmetry_forces_equality():
    f, g = blowup_fan(), blowup_fan()
    assert f.is_refinement(g) and g.is_refinement(f)
    assert f == g


def test_smallest_containing_cone():
    fine, coarse = blowup_fan(), p2_fan()
    exceptional = fine.cone_ref([3])  # the ray (1,1)
    target = smallest_containing_cone(coarse, exceptional)
    assert target.generators() == ((1, 0), (0, 1))
    shared = fine.cone_ref([0])
    assert smallest_containing_cone(coarse, shared).generators() == ((1, 0),)
    zero = fine.cone_ref([])
    assert smallest_containing_cone(coarse, zero).ray_indices == frozenset()


def ref_star_fan(fan, cone):
    """The fan of the orbit closure V(cone) in N/N_cone: the primitive images
    of the rays of the maximal cones through the cone, one image cone each.

    Every ray of such a maximal cone is mapped, not only the extreme rays of
    its image, so the result is the star fan only when the maximal cones
    through the cone are simplicial.  On a non-simplicial fan it can return
    extra rays and overlapping cones: on the face fan of the 4-cube, with
    8 rays in each maximal cone, a 2-cone gets 6 rays and three cones of
    3 rays each in rank 2."""
    cone = fan.cone_ref(fan.rays.index(g) for g in cone.generators())  # read by its rays
    P, _ = ref_quotient_projection([list(g) for g in cone.generators()], fan.dim)
    rays, cones = [], []
    for c in fan.max_cones:
        if not cone.ray_indices <= c:   # a face of c is spanned by rays of c
            continue
        images = (tuple(lattice.pairing(p, fan.rays[i]) for p in P) for i in c)
        images = {lattice.primitivize(img) for img in images if any(img)}
        rays += sorted(images - set(rays))
        cones.append(frozenset(rays.index(img) for img in images))
    maximal = [c for c in cones if not any(c < other for other in cones)]
    return Fan(rays, sorted(set(maximal), key=sorted), dim=len(P))


def test_star_fan_of_ray():
    fan = p2_fan()
    star = ref_star_fan(fan, fan.cone_ref([0]))
    assert star.dim == 1
    assert set(star.rays) == {(1,), (-1,)}
    assert star.is_complete


def test_star_of_a_cone_of_an_equal_fan_is_read_by_its_rays():
    """Another fan's cone is mapped by its generators, not its indices: the
    ray (0, 1) of a reordered copy of P^2 has the quotient by (0, 1)."""
    p2 = catalog.projective_plane()
    p2b = Fan([(0, 1), (1, 0), (-1, -1)], [[0, 1], [1, 2], [0, 2]])
    assert p2b == p2
    ray = p2b.cone_ref([0])
    assert ray == p2.cone_ref([1])
    assert ref_star_fan(p2, ray) == ref_star_fan(p2, p2.cone_ref([1]))
    assert set(ref_star_fan(p2, ray).rays) == {(1,), (-1,)}
    with pytest.raises(ValueError):
        ref_star_fan(p2, blowup_fan().cone_ref([3]))  # the ray (1, 1) is not one of P^2


def test_star_fan_of_zero_cone_is_self():
    fan = p2_fan()
    assert ref_star_fan(fan, fan.cone_ref([])) == fan


def test_star_fan_of_max_cone_is_point():
    fan = p2_fan()
    star = ref_star_fan(fan, fan.cone_ref([0, 1]))
    assert star.dim == 0
    assert star.is_complete


def test_star_fan_ray_count_matches_adjacent_cones():
    fan = blowup_fan()
    rho = fan.cone_ref([3])
    star = ref_star_fan(fan, rho)
    adjacent = [c for c in fan.cones(2) if rho.ray_indices <= c.ray_indices]
    assert len(star.rays) == len(adjacent)


def test_star_fan_p11222_two_cone_is_projective_plane():
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -2, -2, -2)]
    from itertools import combinations
    fan = Fan(rays, [set(c) for c in combinations(range(5), 4)])
    assert fan.is_complete
    sigma = fan.cone_ref([0, 4])
    star = ref_star_fan(fan, sigma)
    assert star.dim == 2
    assert set(star.rays) == {(1, 0), (0, 1), (-1, -1)}


def test_star_fan_of_the_cube_face_fan_is_not_a_fan():
    """The defect of the reference on a non-simplicial fan: Sigma_D of
    D = sum D_i on the fine fan over the 4-cube is the face fan of the cube,
    and a 2-cone of it gets six image rays and three cones of three rays in
    rank 2, which no complete fan of rank 2 has."""
    fine = triangulation_helper(catalog.cube(4))
    coarse = TorusInvariantDivisor(fine, [1] * len(fine.rays)).sigma_d()
    assert {len(c) for c in coarse.max_cones} == {8}
    star = ref_star_fan(coarse, coarse.cones(2)[0])
    assert len(star.rays) == 6
    assert sorted(len(c) for c in star.max_cones) == [3, 3, 3]
    assert not star.is_simplicial


def test_cone_contains():
    assert cone_contains([(1, 0), (0, 1)], (2, 3))
    assert not cone_contains([(1, 0), (0, 1)], (-1, 0))
    assert cone_contains([(1, 0), (0, 1), (1, 1)], (1, 2))
    assert cone_contains([], (0, 0))
    assert not cone_contains([], (1, 0))


def test_cone_ref_rejects_non_cone():
    fan = p2_fan()
    with pytest.raises(ValidationError):
        fan.cone_ref([0, 1, 2])


def test_one_elimination_per_maximal_cone(monkeypatch):
    """On crepant P(1,1,2,2,2), the completeness certificate and one
    divisor's support function take one cone_rays and one integer solve per
    maximal cone, 8 of each, and no rank or Fraction solve; the only
    dual_rows are the eliminations that start each cone_rays."""
    fan = catalog.p11222_crepant_fan()
    calls = Counter()

    def spy(module, name):
        true = getattr(module, name)

        def counted(*args):
            calls[name, sys._getframe(1).f_code.co_name] += 1
            return true(*args)
        monkeypatch.setattr(module, name, counted)

    spy(fan_module, "cone_rays")
    for name in ("rational_solution", "dual_rows", "matrix_rank"):
        spy(lattice, name)
    spy(linalg, "solve_linear")
    assert fan.is_complete
    TorusInvariantDivisor(fan, [1] * len(fan.rays)).support_function()
    assert len(fan.max_cones) == 8
    assert calls == {("cone_rays", "cone_rows"): 8, ("dual_rows", "cone_rays"): 8,
                     ("rational_solution", "support_function"): 8}
