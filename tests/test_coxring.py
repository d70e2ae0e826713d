import random
import re
from fractions import Fraction
from math import comb
from operator import add, ge

import pytest

from semitoric import catalog, lattice, linalg
from semitoric.coxring import (
    CERTIFIED_NONDEGENERATE,
    INCONCLUSIVE,
    SLOT,
    CoxRing,
    GradedSubspace,
    R1Piece,
    ideal_graded_piece,
    j0_piece,
    j1_graded_piece,
    nondegeneracy_certificate,
    r1_dim,
    reduce_modulo,
)
from semitoric.errors import PreconditionError, ValidationError
from semitoric.fan import Fan
from semitoric.linalg import SparseEchelon
from semitoric.polytope import HPolytope, vertices_from_inequalities
from semitoric.residue import CupProduct

from .test_linalg import ReferenceEchelon


def fermat(ring, degree):
    n = ring.n
    return ring.polynomial({tuple(degree * int(i == j) for j in range(n)): 1
                            for i in range(n)})


P2 = CoxRing(catalog.projective_plane())
P1 = CoxRing(catalog.projective_line())
CUBIC = fermat(P2, 3)


def test_variable_degrees_equal_on_p2():
    assert P2.variable_degree(0) == P2.variable_degree(1) == P2.variable_degree(2)


def test_blowup_degrees_distinct():
    ring = CoxRing(catalog.blowup_p2())
    d_x1x2 = ring.degree_of_monomial((1, 1, 0, 0))
    d_x3sq = ring.degree_of_monomial((0, 0, 2, 0))
    assert d_x1x2 != d_x3sq


def test_beta0_on_p2_is_three_h():
    assert P2.beta0 == 3 * P2.variable_degree(0)


def test_degrees_equal_api():
    assert P2.degrees_equal((1, 0, 0), (0, 0, 1))
    assert not P2.degrees_equal((1, 0, 0), (0, 0, 2))


def test_degree_classes_of_different_rings_differ():
    other = CoxRing(catalog.projective_plane())
    h, h_other = P2.degree_class((1, 0, 0)), other.degree_class((1, 0, 0))
    assert h.rep == h_other.rep and h != h_other
    assert h == P2.degree_class((0, 0, 1)) and hash(h) == hash(P2.degree_class((0, 1, 0)))
    with pytest.raises(ValidationError, match="different rings"):
        h + h_other


def test_monomial_basis_cubics():
    basis = P2.monomial_basis(P2.beta0)
    assert len(basis) == 10  # cubics in three variables
    assert basis.exponents == sorted(basis.exponents)


def test_monomial_basis_p1_degree2():
    beta = 2 * P1.variable_degree(0)
    basis = P1.monomial_basis(beta)
    assert set(basis.exponents) == {(2, 0), (1, 1), (0, 2)}


def test_monomial_basis_empty():
    beta = -1 * P2.variable_degree(0)
    assert len(P2.monomial_basis(beta)) == 0


def test_monomial_basis_counts_match_quintic():
    ring = CoxRing(catalog.projective_space(4))
    h = ring.variable_degree(0)
    assert ring.piece_dim(5 * h) == comb(9, 4)
    assert ring.piece_dim(20 * h) == comb(24, 4)


def test_ideal_piece_j0_of_cubic_degree3():
    piece = j0_piece(CUBIC, P2.beta0)
    assert piece.dim == 3


def test_ideal_piece_j0_of_cubic_degree6():
    piece = j0_piece(CUBIC, 2 * P2.beta0)
    # oracle: monomials of degree 6 divisible by some cube = 28 - |exps <= 2|
    all6 = P2.piece_dim(2 * P2.beta0)
    bounded = sum(1 for e in P2.monomial_basis(2 * P2.beta0).exponents
                  if max(e) <= 2)
    assert all6 == 28 and bounded == 1
    assert piece.dim == all6 - bounded


def test_ideal_piece_empty_generators():
    piece = ideal_graded_piece([], P2.beta0)
    assert piece.dim == 0


def test_r1_dims_fermat_cubic():
    assert r1_dim(CUBIC, P2.zero_degree()) == 1
    assert r1_dim(CUBIC, P2.beta0) == 1  # only xyz survives
    piece = R1Piece(CUBIC, P2.beta0)
    assert piece.coset_exponents == [(1, 1, 1)]


def test_r1_dim_fermat_quintic_level1():
    ring = CoxRing(catalog.projective_space(4))
    quintic = fermat(ring, 5)
    gamma = 2 * quintic.degree - ring.beta0
    # oracle: degree-5 exponent vectors with all entries <= 3
    bounded = sum(1 for e in ring.monomial_basis(gamma).exponents if max(e) <= 3)
    assert bounded == comb(9, 4) - 25
    assert r1_dim(quintic, gamma) == 101


def test_j0_contained_in_j1():
    gens = [CUBIC.weighted_partial(i) for i in range(3)]
    j1 = j1_graded_piece(CUBIC, P2.beta0)
    for g in gens:
        assert j1.contains(g)


def test_j1_rows_match_a_pinned_copy():
    """J_1 in degree beta_0, echelonized on first access, for the Fermat
    cubic and a cubic with two-term rows; pinned from the eager build."""
    other = P2.polynomial({(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 1, (1, 2, 0): -1,
                           (0, 1, 2): Fraction(1, 3)})
    x3 = (3, 0, 0)
    pinned = {
        CUBIC: [{e: 1} for e in [(0, 0, 3), (0, 1, 2), (0, 2, 1), (0, 3, 0), (1, 0, 2),
                                 (1, 2, 0), (2, 0, 1), (2, 1, 0), (3, 0, 0)]],
        other: [{e: 1, x3: Fraction(c)} for e, c in [
            ((0, 0, 3), "-1404/379"), ((0, 1, 2), "6318/379"), ((0, 2, 1), "-28431/379"),
            ((0, 3, 0), "-730/379"), ((1, 0, 2), "19006/379"), ((1, 1, 1), "-85527/379"),
            ((1, 2, 0), "-3"), ((2, 0, 1), "-9477/379"), ((2, 1, 0), "-730/1137")]],
    }
    for f, rows in pinned.items():
        basis = j1_graded_piece(f, P2.beta0).reduced_row_basis()
        assert [r.terms for r in basis] == rows


def test_reduce_modulo():
    x3 = P2.monomial((3, 0, 0))
    span = GradedSubspace(P2, x3.degree)
    span.insert(x3)
    assert reduce_modulo(span, x3).is_zero()

    j0_3 = j0_piece(CUBIC, P2.beta0)
    xyz = P2.monomial((1, 1, 1))
    assert reduce_modulo(j0_3, xyz) == xyz

    j0_5 = j0_piece(CUBIC, P2.degree_class((4, 1, 0)))
    x4y = P2.monomial((4, 1, 0))
    assert reduce_modulo(j0_5, x4y).is_zero()


def test_reduce_modulo_degree_mismatch():
    span = GradedSubspace(P2, P2.beta0)
    with pytest.raises(ValidationError):
        reduce_modulo(span, P2.monomial((1, 0, 0)))


def test_r1_dim_equals_interior_points_at_level0():
    ring = CoxRing(catalog.projective_space(3))
    quartic = fermat(ring, 4)
    gamma = quartic.degree - ring.beta0
    from semitoric.divisor import TorusInvariantDivisor
    delta = TorusInvariantDivisor(ring.fan, quartic.degree.rep).section_polytope()
    assert r1_dim(quartic, gamma) == len(delta.relative_interior_points())


def test_certificate_fermat_cubic():
    cert = nondegeneracy_certificate(CUBIC)
    assert cert.verdict == CERTIFIED_NONDEGENERATE
    assert cert.codim == 1


def test_certificate_degenerate_triple_line():
    f = P2.monomial((3, 0, 0))
    cert = nondegeneracy_certificate(f)
    assert cert.verdict == INCONCLUSIVE


def test_certificate_fermat_quartic_p3():
    ring = CoxRing(catalog.projective_space(3))
    cert = nondegeneracy_certificate(fermat(ring, 4))
    assert cert.verdict == CERTIFIED_NONDEGENERATE


def test_point_of_monomial_roundtrip():
    _, exponents, points = basis_by_section_polytope(P2, P2.beta0)
    for exps, point in zip(exponents, points):
        assert P2.point_of_monomial(exps, P2.beta0) == point


# -- the Koszul skip against the unskipped builder ------------------------------


def unskipped_piece(generators, gamma):
    """The reference for `ideal_graded_piece`: every row m * g, none skipped
    and none scaled, echelonized by `ReferenceEchelon`."""
    index = gamma.ring.monomial_basis(gamma).index
    echelon = ReferenceEchelon(len(index))
    for g in generators:
        for mono in gamma.ring.monomial_basis(gamma - g.degree).exponents:
            echelon.insert({index[tuple(a + b for a, b in zip(e, mono))]: c
                            for e, c in g.terms.items()})
    return echelon


def assert_same_piece(generators, gamma):
    fast = ideal_graded_piece(generators, gamma)
    slow = unskipped_piece(generators, gamma)
    assert fast.dim == slow.rank
    assert fast.echelon.pivots.keys() == slow.pivots.keys()
    for j in range(len(fast.basis)):
        assert fast.echelon.reduce({j: 1}) == slow.reduce({j: 1})


def random_section(ring, beta, rng, nterms):
    exps = ring.monomial_basis(beta).exponents
    return ring.polynomial({e: rng.randint(-4, 4) or 1
                            for e in rng.sample(exps, min(nterms, len(exps)))}, beta)


def dwork(ring, psi):
    terms = {tuple(5 * int(i == j) for j in range(5)): 1 for i in range(5)}
    terms[(1,) * 5] = -5 * Fraction(psi)
    return ring.polynomial(terms)


@pytest.mark.parametrize("fan, beta_vec, shifts", [
    (catalog.projective_plane(), (0, 0, 3), [(0, 0, 0), (0, 0, 1), (0, 0, 3)]),
    (catalog.projective_space(4), (0, 0, 0, 0, 3), [(0, 0, 0, 0, 0), (0, 0, 0, 0, 2)]),
    (catalog.p11222_crepant_fan(), (0, 0, 0, 0, 1, 0), [(0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0),
                                                         (0, 0, 0, 0, 1, 0)]),
])
def test_koszul_skip_keeps_the_span_of_random_sections(fan, beta_vec, shifts):
    """Seeded non-diagonal sections: weighted partials, ordinary partials and
    plain lists of sections span the same piece with and without skipping."""
    ring = CoxRing(fan)
    rng = random.Random(7)
    beta = ring.degree_class(beta_vec)
    for trial in range(3):
        f = random_section(ring, beta, rng, 4 + trial)
        sections = [random_section(ring, beta, rng, 3) for _ in range(3)]
        lists = ([g for g in ring.weighted_partials(f) if not g.is_zero()],
                 [g for g in (f.partial(i) for i in range(ring.n)) if not g.is_zero()],
                 sections)
        for gens in lists:
            for shift in shifts:
                gamma = gens[0].degree + ring.degree_class(shift)
                assert_same_piece(gens, gamma)


def test_koszul_skip_keeps_the_span_of_dense_conic_pairs():
    """Pairs of dense plane conics in degrees 3-5: a leading term that is
    not extreme in a multiplicative order (the middle term, say) drops a row
    the span needs in a few of these 180 pieces."""
    rng = random.Random(1)
    beta = P2.degree_class((0, 0, 2))
    for _ in range(60):
        gens = [random_section(P2, beta, rng, 6) for _ in range(2)]
        for s in (1, 2, 3):
            assert_same_piece(gens, beta + s * P2.variable_degree(0))


def test_koszul_skip_keeps_the_span_on_the_dwork_pencil():
    """f = sum x_i^5 - 5 psi x_1...x_5 at psi = 1/2: two-term weighted
    partials whose leading terms are x_1...x_5 from the second on."""
    ring = CoxRing(catalog.projective_space(4))
    f = dwork(ring, Fraction(1, 2))
    gens = ring.weighted_partials(f)
    h = ring.variable_degree(0)
    for k in (5, 10, 15):
        assert_same_piece(gens, k * h)


def test_dwork_pencil_at_the_conifold_point_is_inconclusive():
    ring = CoxRing(catalog.projective_space(4))
    cert = nondegeneracy_certificate(dwork(ring, 1))
    assert cert.verdict == INCONCLUSIVE
    assert cert.codim == 125


def test_fermat_quintic_j0_inserts_its_rank(monkeypatch):
    """On the Fermat quintic every kept J_0 row is independent: the pieces
    in degrees 10, 15 and 20 take in exactly their rank, by `adopt` or
    `insert` (the unskipped builder takes in 630, 5,005 and 19,380 rows).
    A row that `adopt` hands on to `insert` is the same object, and counts
    once."""
    ring = CoxRing(catalog.projective_space(4))
    quintic = fermat(ring, 5)
    rows_in = []   # kept alive, so their ids stay distinct
    true_insert, true_adopt = linalg.SparseEchelon.insert, linalg.SparseEchelon.adopt

    def counting_insert(self, row):
        rows_in.append(row)
        return true_insert(self, row)

    def counting_adopt(self, lead, row):
        rows_in.append(row)
        return true_adopt(self, lead, row)

    monkeypatch.setattr(linalg.SparseEchelon, "insert", counting_insert)
    monkeypatch.setattr(linalg.SparseEchelon, "adopt", counting_adopt)
    h = ring.variable_degree(0)
    for k, rows in ((10, 620), (15, 3755), (20, 10625)):
        rows_in.clear()
        piece = j0_piece(quintic, k * h)
        assert len({id(row) for row in rows_in}) == rows == piece.dim


# -- monomial bases against the section polytope's lattice points ------------------


def basis_by_section_polytope(ring, beta):
    """The reference for `monomial_basis`: lattice points of the section
    polytope through `LatticePolytope.lattice_points`, paired with the rays."""
    a = beta.rep
    poly = vertices_from_inequalities(
        HPolytope([(e, -ai) for e, ai in zip(ring.fan.rays, a)]))
    pairs = sorted((tuple(ai + lattice.pairing(m, e) for ai, e in zip(a, ring.fan.rays)), m)
                   for m in poly.lattice_points())
    return poly, [e for e, _ in pairs], [m for _, m in pairs]


CATALOG_FANS = [
    catalog.projective_line(), catalog.projective_plane(), catalog.projective_space(3),
    catalog.projective_space(4), catalog.blowup_p2(), catalog.hirzebruch(0),
    catalog.hirzebruch(2), catalog.hirzebruch(3), catalog.blowup_p3(),
    catalog.product_fan(catalog.projective_line(), catalog.projective_line()),
    catalog.product_fan(catalog.projective_plane(), catalog.projective_line()),
    catalog.weighted_projective((1, 1, 2)), catalog.weighted_projective((1, 2, 3)),
    catalog.p11222_fan(), catalog.p11222_crepant_fan(), catalog.p11222_triple_fan(),
]


@pytest.mark.parametrize("fan", CATALOG_FANS, ids=lambda f: f"n{len(f.rays)}d{f.dim}")
def test_monomial_basis_matches_section_polytope_points(fan):
    """Degree 0, the variables, beta_0 and seeded small degrees, among them
    empty ones and degrees whose section polytope is not full-dimensional."""
    ring = CoxRing(fan)
    rng = random.Random(11)
    degrees = [ring.zero_degree(), ring.beta0]
    degrees += [ring.variable_degree(i) for i in range(ring.n)]
    degrees += [ring.degree_class([rng.randint(-1, 2) for _ in range(ring.n)])
                for _ in range(12)]
    seen = set()
    for beta in degrees:
        poly, exponents, points = basis_by_section_polytope(ring, beta)
        basis = ring.monomial_basis(beta)
        assert basis.exponents == exponents
        assert [ring.point_of_monomial(e, beta) for e in basis.exponents] == points
        assert basis.index == {e: i for i, e in enumerate(exponents)}
        seen.add("empty" if poly.is_empty else "full" if poly.dim == ring.d else "flat")
    assert {"empty", "flat", "full"} <= seen


def test_monomial_basis_when_the_code_stands_still_along_a_run():
    """With the ray (-1, -2^32) the code form has last coefficient
    2^32 - 2^32 = 0, so every run of the scan is one point, and the pieces
    whose exponents stay in the code slots still match the section polytope."""
    ring = CoxRing(Fan([(1, 0), (0, 1), (-1, -2**32)], [(0, 1), (1, 2), (0, 2)]))
    for vec in ((0, 0, 0), (1, 0, 0), (0, 0, 1), (5, 0, 0), (2, 0, 3)):
        beta = ring.degree_class(vec)
        _, exponents, _ = basis_by_section_polytope(ring, beta)
        assert exponents and ring.monomial_basis(beta).exponents == exponents


# -- monomial codes against the tuple-keyed kernel ---------------------------------


def tuple_ideal_graded_piece(generators, gamma):
    """The tuple-keyed `ideal_graded_piece` that monomial codes replaced, kept
    unchanged as the reference: rows found through the exponent-tuple index,
    the Koszul skip as a componentwise test per multiplier and lead."""
    ring = gamma.ring
    space = GradedSubspace(ring, gamma)
    index = space.basis.index
    leads = []   # LT(g_i) for the generators already done
    for g in generators:
        if g.is_zero():
            continue
        c0 = g.terms[min(g.terms)]
        terms = [(e, c if c0 == 1 else c / c0) for e, c in g.terms.items()]
        for mono in ring.monomial_basis(gamma - g.degree).exponents:
            if any(all(map(ge, mono, lt)) for lt in leads):
                continue
            space.insert_row({index[tuple(map(add, e, mono))]: c for e, c in terms})
        leads.append(max(g.terms))
    return space


def tuple_r1_loop(ring, gamma, j0):
    """The tuple-keyed loop of `R1Piece`, unchanged: (coset exponents,
    kernel rows) of the shifted reduction map."""
    ambient = ring.monomial_basis(gamma)
    shifted_basis = j0.basis
    ncols = len(shifted_basis)
    tracker = SparseEchelon(ncols)
    coset_exponents = []
    kernel_rows = []
    for i, exps in enumerate(ambient.exponents):
        shifted = tuple(e + 1 for e in exps)
        residual = j0.echelon.reduce({shifted_basis.index[shifted]: Fraction(1)})
        residual[ncols + i] = Fraction(1)
        piv, resid = tracker.insert(residual)
        if piv is None:
            kernel_rows.append({k - ncols: v for k, v in resid.items()})
        else:
            coset_exponents.append(exps)
    return coset_exponents, kernel_rows


def tuple_eta_monomial(cup, exps):
    """eta(x^exps) as the tuple-keyed memo computed it."""
    if cup.ring.degree_of_monomial(exps) != cup.eta_degree:
        return Fraction(0)
    j = cup.res.span.basis.index[tuple(e + 1 for e in exps)]
    return cup.c_I * cup.res._residue_of_row({j: 1})


def dense_section(ring, beta, seed):
    rng = random.Random(seed)
    return ring.polynomial({e: rng.randint(-9, 9) or 1
                            for e in ring.monomial_basis(beta).exponents}, beta)


def assert_pieces_match_tuples(f, levels):
    """J and J_0 pieces, R_1 cosets and kernel rows at the given levels
    gamma = (a + 1) beta - beta_0 agree with the tuple-keyed references."""
    ring = f.ring
    partials = [f.partial(i) for i in range(ring.n)]
    for a in levels:
        gamma = (a + 1) * f.degree - ring.beta0
        for gens, degree in ((partials, gamma), (ring.weighted_partials(f), gamma + ring.beta0)):
            fast, ref = ideal_graded_piece(gens, degree), tuple_ideal_graded_piece(gens, degree)
            assert fast.echelon.pivots.keys() == ref.echelon.pivots.keys()
            assert fast.echelon.pivots == ref.echelon.pivots
        piece = R1Piece(f, gamma, _j0=fast)
        assert (piece.coset_exponents, piece._kernel_rows) == tuple_r1_loop(ring, gamma, ref)


def assert_eta_matches_tuples(f):
    """eta of f, which must be certified, on products of the first basis
    monomials of every pair of complementary levels, through the exponent
    vector and through the sum of codes."""
    ring, beta, d = f.ring, f.degree, f.ring.d
    cert = nondegeneracy_certificate(f)
    assert cert.certified
    cup = CupProduct(ring, f, cert)
    nonzero = 0
    for a in range(d):
        left = ring.monomial_basis((a + 1) * beta - ring.beta0)
        right = ring.monomial_basis((d - a) * beta - ring.beta0)
        for ea in left.exponents[:12]:
            for eb in right.exponents[:12]:
                want = tuple_eta_monomial(cup, tuple(map(add, ea, eb)))
                assert cup.eta_monomial(tuple(map(add, ea, eb))) == want
                assert cup.eta_of_code(ring.code(ea) + ring.code(eb)) == want
                nonzero += bool(want)
    assert nonzero


def test_packed_kernel_matches_tuples_on_the_dwork_pencil():
    ring = CoxRing(catalog.projective_space(4))
    f = dwork(ring, Fraction(1, 2))
    assert_pieces_match_tuples(f, (0, 1, 2))
    assert_eta_matches_tuples(f)


@pytest.mark.parametrize("dim, k, seed", [(2, 3, 1), (2, 3, 2), (3, 2, 3)])
def test_packed_kernel_matches_tuples_on_dense_sections(dim, k, seed):
    """Every monomial of degree k with a seeded coefficient: the rows fill
    in as they are reduced.  (A dense quartic on P^3 takes half a minute
    per J_0 piece in exact arithmetic; the quadric keeps the test short.)"""
    ring = CoxRing(catalog.projective_space(dim))
    f = dense_section(ring, k * ring.variable_degree(0), seed)
    assert_pieces_match_tuples(f, range(dim))
    assert_eta_matches_tuples(f)


def test_packed_kernel_matches_tuples_on_crepant_p11222():
    """The Fermat pullback with three seeded random terms added, whose
    partials have several terms each.  eta is left out: certifying such a
    section takes 10-25 s."""
    ring = CoxRing(catalog.p11222_crepant_fan())
    _, fermat = catalog.p11222_pullback_fermat(catalog.p11222_crepant_fan())
    beta = ring.degree_class(fermat.degree.rep)
    extra = random_section(ring, beta, random.Random(0), 3)
    f = ring.polynomial({**fermat.terms, **extra.terms}, beta)
    assert max(len(g.terms) for g in ring.weighted_partials(f)) > 1
    assert_pieces_match_tuples(f, (0, 1))


def test_codes_add_without_carry_below_the_bound():
    ring = CoxRing(catalog.p11222_crepant_fan())
    rng = random.Random(3)
    top = (1 << (SLOT - 1)) - 1
    for _ in range(200):
        a, b = ([rng.choice([0, 1, rng.randint(0, top), top]) for _ in range(ring.n)]
                for _ in range(2))
        assert ring.decode(ring.code(a)) == tuple(a)
        assert ring.decode(ring.code(a) + ring.code(b)) == tuple(map(add, a, b))
        assert (ring.code(a) < ring.code(b)) == (a < b)
    with pytest.raises(PreconditionError, match="monomial codes"):
        ring.code((0, 0, 1 << (SLOT - 1), 0, 0, 0))


def test_carry_guard_names_the_degree():
    """S_{k E} on Bl P^2 is the one monomial x_E^k: at k = 2^(SLOT-1) an
    exponent would fill the top bit of its slot, and the basis refuses."""
    ring = CoxRing(catalog.blowup_p2())
    assert ring.fan.rays[3] == (1, 1)
    k = 1 << (SLOT - 1)
    basis = ring.monomial_basis(ring.degree_class((0, 0, 0, k - 1)))
    assert basis.exponents == [(0, 0, 0, k - 1)]
    beta = ring.degree_class((0, 0, 0, k))
    with pytest.raises(PreconditionError, match=re.escape(str(list(beta.rep)))):
        ring.monomial_basis(beta)
