import pytest

from semitoric import catalog, lattice
from semitoric.errors import ValidationError
from semitoric.fan import ConeRef, Fan
from semitoric.polytope import HPolytope, vertices_from_inequalities

from .test_cone_kernel import cone_contains


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
    target = coarse.smallest_containing_cone(exceptional)
    assert target.generators() == ((1, 0), (0, 1))
    shared = fine.cone_ref([0])
    assert coarse.smallest_containing_cone(shared).generators() == ((1, 0),)
    zero = fine.cone_ref([])
    assert coarse.smallest_containing_cone(zero).ray_indices == frozenset()


def test_star_fan_of_ray():
    fan = p2_fan()
    star = fan.star_fan(fan.cone_ref([0]))
    assert star.dim == 1
    assert set(star.rays) == {(1,), (-1,)}
    assert star.is_complete


def test_star_fan_of_zero_cone_is_self():
    fan = p2_fan()
    assert fan.star_fan(fan.cone_ref([])) is fan


def test_star_fan_of_max_cone_is_point():
    fan = p2_fan()
    star = fan.star_fan(fan.cone_ref([0, 1]))
    assert star.dim == 0
    assert star.is_complete


def test_star_fan_ray_count_matches_adjacent_cones():
    fan = blowup_fan()
    rho = fan.cone_ref([3])
    star = fan.star_fan(rho)
    adjacent = [c for c in fan.cones(2) if rho.ray_indices <= c.ray_indices]
    assert len(star.rays) == len(adjacent)


def test_star_fan_p11222_two_cone_is_projective_plane():
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -2, -2, -2)]
    from itertools import combinations
    fan = Fan(rays, [set(c) for c in combinations(range(5), 4)])
    assert fan.is_complete
    sigma = fan.cone_ref([0, 4])
    star = fan.star_fan(sigma)
    assert star.dim == 2
    assert set(star.rays) == {(1, 0), (0, 1), (-1, -1)}


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


def test_max_cone_ranks_computed_once(monkeypatch):
    """is_simplicial, the face lattice and the completeness check read one
    rank per maximal cone: 8 matrix ranks for the 8 cones of crepant
    P(1,1,2,2,2), not 8 per query."""
    fan = catalog.p11222_crepant_fan()
    calls = []
    true_rank = lattice.matrix_rank
    monkeypatch.setattr(lattice, "matrix_rank", lambda rows: calls.append(1) or true_rank(rows))
    assert fan.is_simplicial
    assert len(fan.cones(2)) > 0
    assert fan.is_complete
    assert len(fan.max_cones) == len(calls) == 8
