from fractions import Fraction

import pytest

from semitoric import catalog
from semitoric.divisor import TorusInvariantDivisor, find_ample, pullback
from semitoric.errors import InconsistencyError, NotCartierError, PreconditionError
from semitoric.fan import ConeRef, Fan
from semitoric.polytope import vertices_from_inequalities

P2 = catalog.projective_plane()
BLOWUP = catalog.blowup_p2()
D3 = TorusInvariantDivisor(P2, (0, 0, 1))
PULLBACK_D3 = TorusInvariantDivisor(BLOWUP, (0, 0, 1, 0))


def ray(fan, v):
    return fan.cone_ref([fan.rays.index(v)])


def test_support_function_d3():
    sf = D3.support_function()
    by_cone = {frozenset(c): m for c, m in zip(P2.max_cones, sf.per_max_cone)}
    assert by_cone[frozenset({0, 1})] == (0, 0)
    assert by_cone[frozenset({0, 2})] == (0, 1)
    assert by_cone[frozenset({1, 2})] == (1, 0)


def test_support_function_pullback():
    sf = PULLBACK_D3.support_function()
    by_cone = {frozenset(c): m for c, m in zip(BLOWUP.max_cones, sf.per_max_cone)}
    assert by_cone[frozenset({0, 3})] == (0, 0)
    assert by_cone[frozenset({3, 1})] == (0, 0)


def test_not_cartier():
    fan = Fan([(1, 1), (1, -1), (-1, 0)], [{0, 1}, {0, 2}, {1, 2}])
    div = TorusInvariantDivisor(fan, (1, 0, 0))
    with pytest.raises(NotCartierError):
        div.support_function()
    assert not div.is_cartier()


def test_convexity_flags():
    assert D3.is_globally_generated()
    assert D3.is_strictly_convex()
    assert PULLBACK_D3.is_globally_generated()
    assert not PULLBACK_D3.is_strictly_convex()
    minus = -1 * D3
    assert not minus.is_globally_generated()


def test_polytope_of_divisor():
    p = D3.section_polytope()
    assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}
    two_points = 2 * TorusInvariantDivisor(catalog.projective_line(), (1, 0))
    seg = two_points.section_polytope()
    assert seg.normalized_volume() == 2


def test_sec6_anticanonical_polytope():
    fan = catalog.sec6_polytope().normal_fan()
    anti = TorusInvariantDivisor(fan, (1,) * 8)
    assert anti.section_polytope() == catalog.sec6_polytope()


def test_is_semiample():
    assert PULLBACK_D3.is_semiample()
    assert D3.is_semiample()
    zero = TorusInvariantDivisor(P2, (0, 0, 0))
    assert not zero.is_semiample()


def test_semiample_degenerate_product():
    p1xp1 = catalog.product_fan(catalog.projective_line(), catalog.projective_line())
    point_pullback = TorusInvariantDivisor(p1xp1, (1, 0, 0, 0))
    assert point_pullback.is_globally_generated()
    assert not point_pullback.is_semiample()
    with pytest.raises(PreconditionError):
        point_pullback.sigma_d()


def test_intersection_numbers():
    zero_cone = ConeRef(P2, frozenset(), 0)
    assert D3.intersection_number(2, zero_cone) == 1
    assert PULLBACK_D3.intersection_number(1, ray(BLOWUP, (1, 1))) == 0
    assert PULLBACK_D3.intersection_number(1, ray(BLOWUP, (-1, -1))) == 1


def test_degree_vs_volume():
    assert D3.degree() == 2 * D3.section_polytope().normalized_volume() / 2
    assert D3.degree() == 1
    assert (3 * D3).degree() == 9


def test_sigma_d_blowdown():
    coarse = PULLBACK_D3.sigma_d()
    assert coarse == P2


def test_sigma_d_of_ample_is_identity():
    assert D3.sigma_d() == P2


def test_pushforward_pullback_roundtrip():
    coarse = PULLBACK_D3.sigma_d()
    pushed = PULLBACK_D3.pushforward(coarse)
    idx = coarse.rays.index((-1, -1))
    assert pushed.coeffs[idx] == 1
    assert sum(pushed.coeffs) == 1
    back = pullback(pushed, BLOWUP)
    assert back.coeffs == PULLBACK_D3.coeffs


def test_pullback_of_d3():
    lifted = pullback(D3, BLOWUP)
    assert lifted.coeffs == (0, 0, 1, 0)


def test_nakai_d3_ample():
    assert D3.nakai_globally_generated()
    assert D3.nakai_ample()


def test_nakai_pullback_not_ample():
    assert PULLBACK_D3.nakai_globally_generated()
    assert not PULLBACK_D3.nakai_ample()


def test_nakai_exceptional_divisor():
    e = TorusInvariantDivisor(BLOWUP, (0, 0, 0, 1))
    assert e.curve_intersection(ray(BLOWUP, (1, 1))) == -1
    assert not e.nakai_globally_generated()


def test_nakai_agrees_with_convexity_on_blowup():
    for coeffs in [(1, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1), (2, 1, 3, -1),
                   (1, 0, 0, 0), (-1, 2, 0, 1)]:
        div = TorusInvariantDivisor(BLOWUP, coeffs)
        assert div.nakai_globally_generated() == div.is_globally_generated()
        assert div.nakai_ample() == div.is_strictly_convex()


def test_find_ample_hirzebruch():
    fan = catalog.hirzebruch(2)
    div = find_ample(fan)
    assert div.is_strictly_convex()


def test_stratify():
    records = {tuple(sorted(r.cone.ray_indices)): r for r in PULLBACK_D3.stratify()}
    exceptional = (BLOWUP.rays.index((1, 1)),)
    rec = records[exceptional]
    assert set(rec.container.generators()) == {(1, 0), (0, 1)}
    assert rec.torus_factor_dim == 1
    shared = (BLOWUP.rays.index((1, 0)),)
    assert records[shared].torus_factor_dim == 0
    assert records[()].torus_factor_dim == 0
    assert records[()].container.ray_indices == frozenset()


def test_lemma_int_dichotomy_on_blowup():
    coarse = PULLBACK_D3.sigma_d()
    d = BLOWUP.dim
    for cone in BLOWUP.all_cones():
        k = d - cone.dim
        val = PULLBACK_D3.intersection_number(k, cone)
        container = coarse.smallest_containing_cone(cone)
        if container.dim == cone.dim:
            assert val > 0
        else:
            assert val == 0


def test_semiample_corollary_on_random_cartier():
    import random
    rng = random.Random(7)
    for coeffs in [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(12)]:
        div = TorusInvariantDivisor(BLOWUP, coeffs)
        gg = div.nakai_globally_generated()
        top_positive = gg and div.degree() > 0
        assert div.is_semiample() == (gg and top_positive)


def test_sigma_d_on_projective_line():
    p1 = catalog.projective_line()
    two_points = TorusInvariantDivisor(p1, (2, 0))
    assert two_points.is_semiample()
    assert two_points.sigma_d() == p1


def test_pushforward_of_semiample_is_nakai_ample():
    coarse = PULLBACK_D3.sigma_d()
    assert PULLBACK_D3.pushforward(coarse).nakai_ample()


def test_curve_intersection_decomposition_independent_of_scale():
    e = TorusInvariantDivisor(BLOWUP, (0, 0, 0, 1))
    tau = ray(BLOWUP, (1, 1))
    ample = find_ample(BLOWUP)
    manual = (e + 8 * ample).intersection_number(1, tau) \
        - (8 * ample).intersection_number(1, tau)
    assert e.curve_intersection(tau) == manual == -1
