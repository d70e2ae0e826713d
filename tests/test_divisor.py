import random
from fractions import Fraction

import pytest

from semitoric import catalog, lattice
from semitoric.divisor import TorusInvariantDivisor, find_ample, pullback
from semitoric.errors import (InconsistencyError, NotCartierError, PreconditionError,
                              ValidationError)
from semitoric.fan import ConeRef, Fan
from semitoric.polytope import vertices_from_inequalities

from .test_acceptance import criterion_2_divisors, semiample_corpus
from .test_cone_kernel import smallest_containing_cone

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
    """A non-integral linear function, and none at all on a cone of four
    rays, each with its message."""
    fan = Fan([(1, 1), (1, -1), (-1, 0)], [{0, 1}, {0, 2}, {1, 2}])
    div = TorusInvariantDivisor(fan, (1, 0, 0))
    with pytest.raises(NotCartierError) as exc:
        div.support_function()
    assert str(exc.value) == ("support function on cone [0, 1] is not integral: "
                              "(Fraction(-1, 2), Fraction(-1, 2))")
    assert not div.is_cartier()
    fan = catalog.cross_polytope(3).normal_fan()
    div = TorusInvariantDivisor(fan, [1] + [0] * (len(fan.rays) - 1))
    with pytest.raises(NotCartierError) as exc:
        div.support_function()
    assert str(exc.value) == "no linear function matches the coefficients on cone [0, 2, 4, 6]"
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


def test_degree_reads_the_section_polytope(monkeypatch):
    """Once the section polytope is built, (D^d) takes no further H-to-V
    conversion, and agrees with the slice at the zero cone; 0 on a segment
    of P^1 x P^1, which is not full-dimensional."""
    from semitoric import divisor as divisor_module

    fibre = TorusInvariantDivisor(catalog.product_fan(catalog.projective_line(),
                                                      catalog.projective_line()), (1, 0, 0, 0))
    for div, expected in ((D3, 1), (3 * D3, 9), (PULLBACK_D3, 1), (fibre, 0)):
        zero = ConeRef(div.fan, frozenset(), 0)
        assert div.intersection_number(div.fan.dim, zero) == expected
        div.section_polytope()
        with monkeypatch.context() as m:
            m.setattr(divisor_module, "vertices_from_inequalities", None)
            assert div.degree() == expected


def test_support_function_refuses_a_cone_outside_its_fan():
    """On P^2 the cone spanned by (1, 0) and (-1, 1) lies in no maximal
    cone: its slice has no linear function to read."""
    tau = Fan([(1, 0), (-1, 1), (0, -1)], [[0, 1], [1, 2], [0, 2]]).cone_ref([0, 1])
    with pytest.raises(ValidationError, match="cone does not belong to the fan of this divisor"):
        D3.intersection_number(0, tau)


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


def test_strata_read_off_faces_match_the_locate_route():
    """Every stratum's face Gamma of Delta_D names its container: the cone of
    Sigma_D that Fan.locate finds for the sum of the cone's rays has the
    facets holding Gamma as its rays, and dimension d - dim Gamma."""
    divisors = [div for div in criterion_2_divisors() if div.is_semiample()]
    divisors += semiample_corpus()
    strata = 0
    for div in divisors:
        coarse, delta, d = div.sigma_d(), div.section_polytope(), div.fan.dim
        records = div.stratify()
        assert [r.cone for r in records] == div.fan.all_cones()
        for record in records:
            assert record.face.polytope is delta
            assert record.container == smallest_containing_cone(coarse, record.cone)
            assert record.face.facets == record.container.ray_indices
            assert record.face.dim == d - record.container.dim
            assert record.torus_factor_dim == record.container.dim - record.cone.dim
            strata += 1
    assert strata > 300


def test_intersection_number_reads_a_cone_of_another_fan_by_its_rays():
    """Bl P^2 with its rays 0 and 1 swapped refines P^2; the support function
    of a line is looked up by where the cone lies, not by its indices."""
    fine = Fan([(0, 1), (1, 0), (-1, -1), (1, 1)], [[1, 3], [3, 0], [0, 2], [2, 1]])
    assert fine.is_refinement(P2)
    line = TorusInvariantDivisor(P2, (0, 0, 1))
    for r in ((0, 1), (1, 0)):
        assert line.intersection_number(1, ray(fine, r)) == 1 == line.intersection_number(
            1, ray(P2, r))
    assert line.intersection_number(1, ray(fine, (1, 1))) == 0


def test_lemma_int_dichotomy_on_blowup():
    coarse = PULLBACK_D3.sigma_d()
    d = BLOWUP.dim
    for cone in BLOWUP.all_cones():
        k = d - cone.dim
        val = PULLBACK_D3.intersection_number(k, cone)
        container = smallest_containing_cone(coarse, cone)
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


def test_sigma_d_is_the_normal_fan_and_both_gluing_routes_rebuild_it():
    """Sigma_D, the normal fan of the section polytope, equals the fans that
    both gluing routes build over the fine fan, with the rays and maximal
    cones in the order of the gluing by linear parts (reports print it)."""
    divisors = [div for div in criterion_2_divisors() if div.is_semiample()]
    divisors += semiample_corpus()
    divisors += [find_ample(fan) for fan in (catalog.p11222_triple_fan(), catalog.blowup_p3(),
                                             catalog.hirzebruch(3))]
    assert len(divisors) >= 20
    for div in divisors:
        coarse = div.sigma_d()
        assert coarse == div._sigma_d_by_zero_facets()
        glued = div._sigma_d_by_gluing()
        assert (coarse.rays, coarse.max_cones) == (glued.rays, glued.max_cones)


def test_default_paths_build_no_gluing_route(monkeypatch):
    """sigma_d, stratify and a threefold analysis need neither gluing route."""
    from semitoric.threefold import ThreefoldAnalysis

    def forbidden(self):
        raise AssertionError("a gluing route of Sigma_D ran on a default path")

    monkeypatch.setattr(TorusInvariantDivisor, "_sigma_d_by_gluing", forbidden)
    monkeypatch.setattr(TorusInvariantDivisor, "_sigma_d_by_zero_facets", forbidden)
    assert PULLBACK_D3.sigma_d() == P2
    assert {r.torus_factor_dim for r in PULLBACK_D3.stratify()} == {0, 1}
    ring, f = catalog.p11222_pullback_fermat(catalog.p11222_crepant_fan())
    analysis = ThreefoldAnalysis(f)
    assert analysis.divisor.sigma_d() == catalog.p11222_fan()
    assert sum(c.n_interior for c in analysis.charts) == 1


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


# -- the wall route against the difference decomposition ----------------------


def curve_by_difference(self, tau):
    """(D · V(tau)) for any Cartier D, by writing D as a difference of
    globally generated divisors: D = (D + kA) - kA over slice volumes."""
    self.support_function()
    if self.is_globally_generated():
        return self.intersection_number(1, tau)
    ample = find_ample(self.fan)
    k = 1
    while not (self + k * ample).is_globally_generated():
        k *= 2
        if k > 2 ** 24:
            raise InconsistencyError("difference decomposition did not terminate")
    plus = self + k * ample
    minus = k * ample
    return plus.intersection_number(1, tau) - minus.intersection_number(1, tau)


def cartier_basis(fan):
    """A basis of the support functions of Cartier divisors on a complete fan:
    the integer kernel of <m_a - m_b, e_i> = 0 over maximal cones a, b
    sharing the ray e_i, in the stacked coordinates (m_0, m_1, ...)."""
    d, rows = fan.dim, []
    for i, e in enumerate(fan.rays):
        holders = [ci for ci, c in enumerate(fan.max_cones) if i in c]
        for a, b in zip(holders, holders[1:]):
            row = [0] * (d * len(fan.max_cones))
            row[a * d:a * d + d] = e
            row[b * d:b * d + d] = [-x for x in e]
            rows.append(row)
    return lattice.integer_kernel(rows, ncols=d * len(fan.max_cones))


def cartier_divisor(fan, basis, weights):
    """The divisor whose support function is the given combination of the basis."""
    d = fan.dim
    ms = [sum(w * b[j] for w, b in zip(weights, basis)) for j in range(len(basis[0]))]
    holder = [next(ci for ci, c in enumerate(fan.max_cones) if i in c)
              for i in range(len(fan.rays))]
    return TorusInvariantDivisor(fan, [-lattice.pairing(ms[ci * d:ci * d + d], e)
                                       for ci, e in zip(holder, fan.rays)])


def assert_routes_agree(div):
    walls = div.fan.cones(div.fan.dim - 1)
    assert len(walls) == len(div.curve_numbers())
    for tau in walls:
        assert div.curve_intersection(tau) == curve_by_difference(div, tau)


def test_wall_route_matches_difference_decomposition_on_criterion_2():
    divisors = criterion_2_divisors()
    kinds = {div.is_globally_generated() for div in divisors}
    assert kinds == {True, False}
    for div in divisors:
        assert_routes_agree(div)


@pytest.mark.parametrize("fan", [catalog.cross_polytope(3).normal_fan(),
                                 catalog.cube(3).normal_fan(),
                                 catalog.p11222_crepant_fan()],
                         ids=["octahedron", "cube", "p11222_crepant"])
def test_wall_route_matches_difference_decomposition_on_random_cartier(fan):
    """Random Cartier divisors on the normal fan of the octahedron (not
    simplicial: 8 rays, 6 cones), of the cube and on crepant P(1,1,2,2,2)."""
    rng, basis = random.Random(11), cartier_basis(fan)
    divisors = [cartier_divisor(fan, basis, [rng.randint(-3, 3) for _ in basis])
                for _ in range(6)]
    assert all(div.is_cartier() for div in divisors)
    assert {div.is_globally_generated() for div in divisors} == {True, False}
    for div in divisors:
        assert_routes_agree(div)


def test_curve_numbers_computed_once(monkeypatch):
    """The wall table is built once per divisor; the Nakai flags and every
    curve number read it."""
    fan = catalog.blowup_p2()
    div = TorusInvariantDivisor(fan, (0, 0, 0, 1))
    table = div.curve_numbers()
    monkeypatch.setattr(fan, "_facet_incidence", None)
    monkeypatch.setattr(div, "support_function", None)
    assert div.curve_numbers() is table
    assert not div.nakai_globally_generated() and not div.nakai_ample()
    assert div.curve_intersection(ray(fan, (1, 1))) == -1


def test_curve_intersection_rejects_cone_of_wrong_dimension():
    with pytest.raises(ValidationError, match=r"rays \[\[1, 0\], \[1, 1\]\] and dimension 2"):
        PULLBACK_D3.curve_intersection(BLOWUP.cone_ref([0, 3]))
    p3 = catalog.projective_space(3)
    with pytest.raises(ValidationError, match=r"rays \[\[1, 0, 0\]\] and dimension 1"):
        TorusInvariantDivisor(p3, (1, 0, 0, 0)).curve_intersection(p3.cone_ref([0]))


def test_curve_intersection_rejects_cone_of_another_fan():
    f2 = catalog.hirzebruch(2)
    tau = ray(f2, (-1, 2))
    with pytest.raises(ValidationError, match=r"rays \[\[-1, 2\]\] and dimension 1"):
        PULLBACK_D3.curve_intersection(tau)
    p3 = catalog.projective_space(3)
    with pytest.raises(ValidationError, match="not a wall"):
        PULLBACK_D3.curve_intersection(p3.cone_ref([0, 1]))
