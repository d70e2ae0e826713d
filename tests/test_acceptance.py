"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line with its runtime (run with -s to see
them); runtime ceilings are asserted alongside the mathematical content.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from semitoric import catalog
from semitoric.coxring import CoxRing, R1Piece
from semitoric.divisor import TorusInvariantDivisor, pullback
from semitoric.errors import CertificateError
from semitoric.fan import ConeRef
from semitoric.hodge import h21_batyrev, mirror_check
from semitoric.polytope import LatticePolytope
from semitoric.residue import (
    CupProduct,
    NondegeneracyCertificate,
    ResidueMap,
    nondegeneracy_certificate,
    toric_jacobian,
)
from semitoric.threefold import ThreefoldAnalysis

from .test_cone_kernel import smallest_containing_cone

SEED = 20260810


class clocked:
    def __init__(self, label, limit_s):
        self.label = label
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        if exc_type is None:
            status = "PASS" if elapsed < self.limit else "FAIL (overtime)"
            print(f"[acceptance] {self.label}: {status} "
                  f"({elapsed:.2f}s < {self.limit}s)")
            assert elapsed < self.limit, f"{self.label} exceeded {self.limit}s"
        else:
            print(f"[acceptance] {self.label}: FAIL ({elapsed:.2f}s)")
        return False


def fermat(ring, degree):
    return ring.polynomial({tuple(degree * int(i == j) for j in range(ring.n)): 1
                            for i in range(ring.n)})


def bounded_exponent_count(total, nvars, cap):
    """Monomials of the given total degree with every exponent <= cap."""
    counts = {0: 1}
    for _ in range(nvars):
        nxt = {}
        for deg, ways in counts.items():
            for e in range(min(cap, total - deg) + 1):
                nxt[deg + e] = nxt.get(deg + e, 0) + ways
        counts = nxt
    return counts.get(total, 0)


def test_criterion_1_sigma_d_three_algorithms():
    with clocked("1 coarsened-fan reproduction", 1.0):
        fine = catalog.blowup_p2()
        div = TorusInvariantDivisor(fine, (0, 0, 1, 0))
        by_gluing = div._sigma_d_by_gluing()
        by_facets = div._sigma_d_by_zero_facets()
        by_normal_fan = div.section_polytope().normal_fan()
        expected = catalog.projective_plane()
        assert by_gluing == expected
        assert by_facets == expected
        assert by_normal_fan == expected
        assert div.sigma_d() == expected


def criterion_2_divisors():
    """The Cartier divisors of criterion 2: seven draws from [-4, 4] on each
    of eight smooth fans of ranks 2, 3 and 4."""
    rng = random.Random(SEED)
    p1 = catalog.projective_line()
    fans = [
        catalog.projective_plane(),
        catalog.blowup_p2(),
        catalog.product_fan(p1, p1),
        catalog.hirzebruch(2),
        catalog.projective_space(3),
        catalog.blowup_p3(),
        catalog.product_fan(catalog.product_fan(p1, p1), p1),
        catalog.projective_space(4),
    ]
    assert len({f.dim for f in fans}) == 3  # ranks 2, 3, 4
    divisors = [TorusInvariantDivisor(fan, [rng.randint(-4, 4) for _ in fan.rays])
                for fan in fans for _ in range(7)]
    return [div for div in divisors if div.is_cartier()]


def test_criterion_2_nakai_cross_validation():
    with clocked("2 intersection-number criterion vs convexity", 30.0):
        checked = 0
        for div in criterion_2_divisors():
            assert div.nakai_globally_generated() == div.is_globally_generated()
            assert div.nakai_ample() == div.is_strictly_convex()
            checked += 1
        assert checked >= 50


def semiample_corpus():
    p1 = catalog.projective_line()
    out = [TorusInvariantDivisor(catalog.projective_plane(), (0, 0, 1))]
    out.append(TorusInvariantDivisor(catalog.blowup_p2(), (0, 0, 1, 0)))
    out.append(TorusInvariantDivisor(catalog.blowup_p2(), (0, 0, 2, 0)))
    out.append(TorusInvariantDivisor(catalog.blowup_p3(), (0, 0, 0, 1, 0)))
    out.append(TorusInvariantDivisor(catalog.product_fan(p1, p1), (1, 0, 1, 0)))
    crepant = catalog.p11222_crepant_fan()
    out.append(pullback(TorusInvariantDivisor(catalog.p11222_fan(), (1,) * 5),
                        crepant))
    return out


def test_criterion_3_intersection_dichotomy():
    with clocked("3 intersection-number dichotomy", 60.0):
        for div in semiample_corpus():
            assert div.is_semiample()
            coarse = div.sigma_d()
            d = div.fan.dim
            for cone in div.fan.all_cones():
                value = div.intersection_number(d - cone.dim, cone)
                container = smallest_containing_cone(coarse, cone)
                if container.dim == cone.dim:
                    assert value > 0
                else:
                    assert value == 0


def test_criterion_4_residue_normalization():
    with clocked("4 toric residue normalization", 60.0):
        rng = random.Random(SEED)
        cases = 0

        def check(ring, sections):
            nonlocal cases
            try:
                res = ResidueMap(NondegeneracyCertificate(ring, sections))
            except CertificateError:
                return False
            jf = toric_jacobian(ring, sections)
            div = TorusInvariantDivisor(ring.fan, sections[0].degree.rep)
            volume = div.section_polytope().normalized_volume()
            assert res.residue(jf) == volume
            cases += 1
            return True

        p1 = CoxRing(catalog.projective_line())
        x2, y2 = p1.monomial((2, 0)), p1.monomial((0, 2))
        res = ResidueMap(NondegeneracyCertificate(p1, [x2, y2]))
        assert res.residue(toric_jacobian(p1, [x2, y2])) == 2
        cases += 1
        for k in (1, 2, 3, 4):
            check(p1, [p1.monomial((k, 0)), p1.monomial((0, k))])
        p2 = CoxRing(catalog.projective_plane())
        cubic = fermat(p2, 3)
        check(p2, [cubic.weighted_partial(i) for i in range(3)])
        quartic2 = fermat(p2, 4)
        check(p2, [quartic2.weighted_partial(i) for i in range(3)])
        p3 = CoxRing(catalog.projective_space(3))
        quartic = fermat(p3, 4)
        check(p3, [quartic.weighted_partial(i) for i in range(4)])
        cubic3 = fermat(p3, 3)
        check(p3, [cubic3.weighted_partial(i) for i in range(4)])
        while cases < 20:
            deg = rng.randint(2, 4)
            basis = p2.monomial_basis(deg * p2.variable_degree(0))
            sections = []
            for _ in range(3):
                chosen = rng.sample(basis.exponents, min(4, len(basis)))
                sections.append(p2.polynomial(
                    {e: Fraction(rng.randint(-4, 4)) for e in chosen},
                    basis.degree))
            try:
                if all(not s.is_zero() for s in sections):
                    check(p2, sections)
            except (CertificateError, ZeroDivisionError):
                continue
        assert cases >= 20


def test_criterion_5_jacobian_ring_dimensions():
    with clocked("5 graded Jacobian-ring dimensions", 120.0):
        p2 = CoxRing(catalog.projective_plane())
        cubic = fermat(p2, 3)
        assert R1Piece(cubic, p2.zero_degree()).dim == 1
        assert R1Piece(cubic, p2.beta0).dim == 1
        assert R1Piece(cubic, p2.beta0).dim == bounded_exponent_count(3, 3, 1)

        p3 = CoxRing(catalog.projective_space(3))
        quartic = fermat(p3, 4)
        gamma = 2 * quartic.degree - p3.beta0
        assert R1Piece(quartic, gamma).dim == 19
        assert bounded_exponent_count(4, 4, 2) == 19

        p4 = CoxRing(catalog.projective_space(4))
        quintic = fermat(p4, 5)
        dims = []
        for a in range(4):
            dims.append(R1Piece(quintic, (a + 1) * quintic.degree - p4.beta0).dim)
        assert dims == [1, 101, 101, 1]
        # independent combinatorial oracle: exponent vectors bounded by 3
        assert bounded_exponent_count(5, 5, 3) == comb(9, 4) - 25 == 101
        assert bounded_exponent_count(10, 5, 3) == 101
        assert bounded_exponent_count(15, 5, 3) == 1
        # lattice-point oracle at level 0: interior points of the section polytope
        for ring, f in ((p2, cubic), (p3, quartic), (p4, quintic)):
            delta = TorusInvariantDivisor(ring.fan, f.degree.rep).section_polytope()
            assert R1Piece(f, f.degree - ring.beta0).dim == \
                len(delta.relative_interior_points())


def test_criterion_6_h21_two_pipelines():
    with clocked("6 reflexive h21 formula vs ring dimension", 60.0):
        assert h21_batyrev(catalog.quintic_polytope()) == 101
        p4 = CoxRing(catalog.projective_space(4))
        quintic = fermat(p4, 5)
        assert R1Piece(quintic, 2 * quintic.degree - p4.beta0).dim == 101


def test_criterion_7_seven_dimensional_counterexample():
    with clocked("7 seven-dimensional mirror counterexample", 600.0):
        delta = catalog.sec6_polytope()
        assert delta.is_reflexive()
        dual = delta.dual_polytope()
        assert len(dual.lattice_points()) == 9
        n0 = (-2, -2, -2, -2, -3, -3, -3)
        expected_vertices = {n0} | {tuple(int(i == j) for j in range(7))
                                    for i in range(7)}
        assert {tuple(int(x) for x in v) for v in dual.vertices} == expected_vertices

        report = mirror_check(delta)
        assert report.side.value == 0
        assert report.mirror_side.value >= 1
        assert not report.symmetric

        witnesses = report.mirror_side.witnesses
        assert len(witnesses) == 1
        w = witnesses[0]
        face = {tuple(v) for v in w["face"]}
        assert face == {n0} | {tuple(int(i == j) for j in range(7))
                               for i in range(4)}
        assert [-1, -1, -1, -1, -2, -2, -2] in w["double_face_interior_points"]
        dual_face = {tuple(v) for v in w["dual_face"]}
        assert dual_face == {(-1, -1, -1, -1, 5, -1, -1),
                             (-1, -1, -1, -1, -1, 5, -1),
                             (-1, -1, -1, -1, -1, -1, 5)}
        assert [-1, -1, -1, -1, 1, 1, 1] in w["subdividing_points"]


def test_criterion_8_gram_nondegeneracy():
    with clocked("8 pairing-matrix nondegeneracy", 900.0):
        ring = CoxRing(catalog.projective_space(4))
        quintic = fermat(ring, 5)
        analysis = ThreefoldAnalysis(quintic)
        g = analysis.gram(1, 2)
        assert sum(b.dim for b in g.row_blocks) == 101
        assert g.rank() == 101

        p2 = CoxRing(catalog.projective_plane())
        cubic = fermat(p2, 3)
        cp = CupProduct(p2, cubic)
        val = cp.pair(p2.one(), p2.monomial((1, 1, 1)), 0, 1)
        assert not val.is_zero()


def test_criterion_9_property_suites():
    from . import test_properties as props

    with clocked("9 exact property suites", 300.0):
        print(f"[acceptance] property-suite seed = {SEED}")
        rng = random.Random(SEED)
        props.test_euler_formula_identity(rng)
        props.test_c_I_beta_representative_independence(random.Random(SEED))
        props.test_second_euler_row_identity(random.Random(SEED))
        props.test_multiplicity_ray_identity(random.Random(SEED))
        props.test_eta_j1_coset_invariance(random.Random(SEED))
        props.test_cup_pair_j1_coset_invariance(random.Random(SEED))
        props.test_volume_triangulation_additivity(random.Random(SEED))


def test_criterion_10_semiample_threefold_cross_check():
    with clocked("10 crepant threefold cross-check", 600.0):
        ring, f = catalog.p11222_pullback_fermat(catalog.p11222_crepant_fan())
        analysis = ThreefoldAnalysis(f)
        delta4 = TorusInvariantDivisor(catalog.p11222_fan(),
                                       (1,) * 5).section_polytope()
        assert analysis.hodge_number(1) == h21_batyrev(delta4) == 86
        assert analysis.hodge_number(0) == \
            len(analysis.delta.relative_interior_points()) == 1
        g = analysis.gram(1, 2)
        assert g.rank() == sum(b.dim for b in g.row_blocks)
        offset_r = 0
        for rb in g.row_blocks:
            offset_c = 0
            for cb in g.col_blocks:
                if rb.kind != cb.kind:
                    for i in range(rb.dim):
                        for j in range(cb.dim):
                            assert g.entry(offset_r + i, offset_c + j).is_zero()
                offset_c += cb.dim
            offset_r += rb.dim
        # non-adjacent interior rays pair to zero: triple-subdivision variant
        ring3, f3 = catalog.p11222_pullback_fermat(catalog.p11222_triple_fan())
        analysis3 = ThreefoldAnalysis(f3)
        chart = next(c for c in analysis3.charts if c.n_interior == 3)
        g3 = analysis3.gram(1, 2)
        pos_r, off = {}, 0
        for b in g3.row_blocks:
            if b.kind == "link":
                pos_r[b.interior_ray] = (off, b.dim)
            off += b.dim
        pos_c, off = {}, 0
        for b in g3.col_blocks:
            if b.kind == "link":
                pos_c[b.interior_ray] = (off, b.dim)
            off += b.dim
        first, _, last = chart.interior_rays
        r0, rd = pos_r[first]
        c0, cd = pos_c[last]
        assert all(g3.entry(r0 + i, c0 + j).is_zero()
                   for i in range(rd) for j in range(cd))
        assert g3.rank() == sum(b.dim for b in g3.row_blocks)
