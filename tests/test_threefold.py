import random
from fractions import Fraction
from operator import add

import pytest

from semitoric import catalog, coxring, lattice, residue
from semitoric.coxring import CoxRing, R1Piece, r1_dim
from semitoric.divisor import TorusInvariantDivisor
from semitoric.errors import PreconditionError
from semitoric.hodge import h21_batyrev
from semitoric.residue import PairingValue
from semitoric.threefold import (
    GramBlock,
    H3Block,
    ThreefoldAnalysis,
    face_polynomial,
    gram_skew_between_levels,
    two_cone_charts,
)


def fermat(ring, degree):
    return ring.polynomial({tuple(degree * int(i == j) for j in range(ring.n)): 1
                            for i in range(ring.n)})


@pytest.fixture(scope="module")
def quintic_analysis():
    ring = CoxRing(catalog.projective_space(4))
    return ThreefoldAnalysis(fermat(ring, 5))


@pytest.fixture(scope="module")
def crepant_analysis():
    ring, f = catalog.p11222_pullback_fermat(catalog.p11222_crepant_fan())
    return ThreefoldAnalysis(f)


@pytest.fixture(scope="module")
def triple_analysis():
    ring, f = catalog.p11222_pullback_fermat(catalog.p11222_triple_fan())
    return ThreefoldAnalysis(f)


def test_charts_ample_case_all_trivial(quintic_analysis):
    assert all(c.n_interior == 0 for c in quintic_analysis.charts)


def test_charts_crepant_example(crepant_analysis):
    nontrivial = [c for c in crepant_analysis.charts if c.n_interior > 0]
    assert len(nontrivial) == 1
    chart = nontrivial[0]
    assert chart.n_interior == 1
    fine = crepant_analysis.ring.fan
    assert fine.rays[chart.interior_rays[0]] == (0, -1, -1, -1)
    # multiplicity identity instance on the chart
    i = chart.interior_rays[0]
    m1, m2 = chart.flanking_segments(i)
    assert (m1, m2) == (1, 1)
    assert chart.sum_mults[i] == 2


def test_charts_require_refinement():
    fine = catalog.p11222_crepant_fan()
    other = catalog.projective_space(4)
    with pytest.raises(PreconditionError):
        two_cone_charts(fine, other)


def test_face_polynomial_is_fermat_quartic(crepant_analysis):
    chart = next(c for c in crepant_analysis.charts if c.n_interior == 1)
    slice_ = crepant_analysis.surface(chart.sigma)
    star = slice_.ring
    assert set(star.fan.rays) == {(1, 0), (0, 1), (-1, -1)}
    exps = sorted(slice_.polynomial.terms)
    assert exps == [(0, 0, 4), (0, 4, 0), (4, 0, 0)]
    assert slice_.certificate.certified


def test_face_polynomial_defined_on_unsubdivided_cone(crepant_analysis):
    chart = next(c for c in crepant_analysis.charts if c.n_interior == 0)
    poly = face_polynomial(crepant_analysis.f, chart.sigma, crepant_analysis.coarse)
    assert not poly.is_zero()


def test_h3_quintic_dims(quintic_analysis):
    assert [quintic_analysis.hodge_number(a) for a in range(4)] == [1, 101, 101, 1]
    for a in range(4):
        blocks = quintic_analysis.blocks(a)
        assert [b.kind for b in blocks] == ["ring"]


def test_h3_level0_is_interior_point_count(crepant_analysis):
    delta = crepant_analysis.delta
    assert crepant_analysis.hodge_number(0) == len(delta.relative_interior_points())


def test_h3_crepant_dims_and_symmetry(crepant_analysis):
    dims = [crepant_analysis.hodge_number(a) for a in range(4)]
    assert dims == [1, 86, 86, 1]
    blocks1 = crepant_analysis.blocks(1)
    assert sorted((b.kind, b.dim) for b in blocks1) == [("link", 3), ("ring", 83)]


def test_h3_crepant_matches_batyrev(crepant_analysis):
    coarse_delta = TorusInvariantDivisor(catalog.p11222_fan(), (1,) * 5)
    delta4 = coarse_delta.section_polytope()
    assert h21_batyrev(delta4) == crepant_analysis.hodge_number(1)


def test_gram_quintic_rank(quintic_analysis):
    g = quintic_analysis.gram(1, 2)
    assert g.rank() == 101


def test_gram_crepant_full_rank_and_vanishing(crepant_analysis):
    g = crepant_analysis.gram(1, 2)
    assert g.rank() == 86
    offset_r = 0
    for rb in g.row_blocks:
        offset_c = 0
        for cb in g.col_blocks:
            if rb.kind != cb.kind:
                for i in range(rb.dim):
                    for j in range(cb.dim):
                        assert g.entries[offset_r + i][offset_c + j].is_zero()
            offset_c += cb.dim
        offset_r += rb.dim


def test_gram_skew_symmetry_between_levels(quintic_analysis, crepant_analysis,
                                          triple_analysis):
    """gram(2,1) = -gram(1,2)^T on every entry: c_12 / c_21 = -1 on the ring
    block, and the link sign flips between levels 1 and 2."""
    for analysis in (quintic_analysis, crepant_analysis, triple_analysis):
        g12 = analysis.gram(1, 2)
        g21 = analysis.gram(2, 1)
        assert len(g12.entries) == len(g21.entries[0])
        assert len(g21.entries) == len(g12.entries[0])
        for i, row in enumerate(g12.entries):
            for j, v in enumerate(row):
                assert v.rational == -g21.entries[j][i].rational
                assert v.two_pi_i_exponent == g21.entries[j][i].two_pi_i_exponent
        assert gram_skew_between_levels([analysis.gram(a, 3 - a) for a in range(4)])


def test_gram_skew_check_sees_one_flipped_entry(crepant_analysis):
    grams = [crepant_analysis.gram(a, 3 - a) for a in range(4)]
    row = next(r for r in grams[2].entries if any(not v.is_zero() for v in r))
    j = next(j for j, v in enumerate(row) if not v.is_zero())
    row[j] = (-1) * row[j]
    assert not gram_skew_between_levels(grams)


def assert_matches_polynomial_route(analysis, g, positions):
    for i, j in positions:
        v = g.entries[i][j]
        assert isinstance(v.rational, Fraction)
        assert v == analysis.entry_by_polynomials(g.level_a, i, j), (g.level_a, i, j)


@pytest.mark.parametrize("name", ["quintic_analysis", "crepant_analysis"])
def test_gram_monomial_route_matches_polynomial_route(name, request):
    """Each Gram entry, read from eta of the monomial product, equals the
    pairing recomputed from the product of basis polynomials through
    `CupProduct.pair` (ring) and the slice's `eta` (link): all of the
    levels (0, 3) and (3, 0), and 200 seeded entries of (1, 2) and (2, 1)."""
    analysis = request.getfixturevalue(name)
    rng = random.Random(20)
    for a in range(4):
        g = analysis.gram(a, 3 - a)
        cells = [(i, j) for i in range(len(g.entries))
                 for j in range(len(g.entries[i]))]
        assert all(isinstance(v.rational, Fraction) for row in g.entries for v in row)
        assert_matches_polynomial_route(
            analysis, g, cells if a in (0, 3) else rng.sample(cells, 200))


@pytest.mark.parametrize("name", ["crepant_analysis", "triple_analysis"])
def test_gram_link_blocks_match_polynomial_route(name, request):
    """Every link-by-link entry, at every level, against the slice's eta on
    the polynomial product.  The multiplicity and sign factors are shared
    by both routes; the closed forms and the skew identity check them."""
    analysis = request.getfixturevalue(name)
    for a in range(4):
        g = analysis.gram(a, 3 - a)
        rows = list(_positions(g.row_blocks, "link"))
        cols = list(_positions(g.col_blocks, "link"))
        if a in (1, 2):
            assert rows and cols
        assert_matches_polynomial_route(analysis, g,
                                        [(i, j) for i in rows for j in cols])


def _positions(blocks, kind):
    off = 0
    for b in blocks:
        if b.kind == kind:
            yield from range(off, off + b.dim)
        off += b.dim


@pytest.mark.parametrize("name", ["quintic_analysis", "crepant_analysis",
                                  "triple_analysis"])
def test_sparse_gram_rank_matches_dense_elimination(name, request):
    analysis = request.getfixturevalue(name)
    for a in range(4):
        g = analysis.gram(a, 3 - a)
        assert g.rank() == lattice.matrix_rank([[v.rational for v in row]
                                                for row in g.entries])


def test_sparse_gram_rank_of_random_dependent_rows():
    """Seeded rational matrices of known low rank, split into ring and link
    blocks that never mix: the sparse part-ranks add up to the dense rank."""
    rng = random.Random(9)

    def low_rank(nrows, ncols, k):
        left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k)]
                for _ in range(nrows)]
        right = [[Fraction(rng.randint(-3, 3)) * rng.randint(0, 1) for _ in range(ncols)]
                 for _ in range(k)]
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]

    for _ in range(30):
        dims = {kind: (rng.randint(0, 6), rng.randint(0, 6)) for kind in ("ring", "link")}
        parts = {kind: low_rank(r, c, rng.randint(1, 4)) for kind, (r, c) in dims.items()}
        (r1, c1), (r2, c2) = dims["ring"], dims["link"]
        rows = [row + [Fraction(0)] * c2 for row in parts["ring"]]
        rows += [[Fraction(0)] * c1 + row for row in parts["link"]]
        entries = [[PairingValue(x, 4) for x in row] for row in rows]
        g = GramBlock(1, 2, [H3Block(1, "ring", r1, []), H3Block(1, "link", r2, [])],
                      [H3Block(2, "ring", c1, []), H3Block(2, "link", c2, [])], entries)
        assert g.rank() == lattice.matrix_rank(rows)


@pytest.mark.parametrize("name, count", [("quintic_analysis", 1281), ("crepant_analysis", 1000)])
def test_eta_monomial_matches_eta_on_every_gram_product(name, count, request):
    """The one-hot residue of x^(e + 1) against eta on the polynomial x^e,
    for every distinct exponent sum the four Gram blocks read."""
    analysis = request.getfixturevalue(name)
    products = set()
    for a in range(4):
        for rb in analysis.blocks(a):
            for cb in analysis.blocks(3 - a):
                _, cup, _ = analysis._block_factor(rb, cb, a)
                if cup is not None:
                    products.update((cup, tuple(map(add, ea, eb)))
                                    for ea in rb.basis_exponents for eb in cb.basis_exponents)
    assert len(products) == count
    for cup, e in products:
        assert cup.eta_monomial(e) == cup.eta(cup.ring.monomial(e)), e


def test_gram_evaluates_eta_once_per_monomial_product(monkeypatch):
    """The four Gram blocks of the quintic have 1,281 distinct monomial
    products, so at most that many residues are taken; the certificate
    builds the one ideal piece in rho = (d+1)beta - beta_0, and both the
    residue map and J_0 of the level-3 ring piece reuse it."""
    f = fermat(CoxRing(catalog.projective_space(4)), 5)
    rho = 5 * f.degree - f.ring.beta0
    residues, rho_pieces = [], []
    true_residue = residue.ResidueMap.residue
    true_monomial_residue = residue.ResidueMap.residue_of_monomial
    true_piece = coxring.ideal_graded_piece

    def counting_residue(self, H):
        residues.append(H)
        return true_residue(self, H)

    def counting_monomial_residue(self, exps):
        residues.append(exps)
        return true_monomial_residue(self, exps)

    def counting_piece(generators, gamma):
        if gamma == rho:
            rho_pieces.append(gamma)
        return true_piece(generators, gamma)

    monkeypatch.setattr(residue.ResidueMap, "residue", counting_residue)
    monkeypatch.setattr(residue.ResidueMap, "residue_of_monomial", counting_monomial_residue)
    monkeypatch.setattr(residue, "ideal_graded_piece", counting_piece)
    monkeypatch.setattr(coxring, "ideal_graded_piece", counting_piece)
    analysis = ThreefoldAnalysis(f)
    grams = [analysis.gram(a, 3 - a) for a in range(4)]
    assert [len(g.entries) for g in grams] == [1, 101, 101, 1]
    assert 0 < len(residues) <= 1281
    assert len(rho_pieces) == 1
    assert analysis.cup.res.span is analysis.certificate.span
    assert analysis.cup.res.jacobian is analysis.certificate.jacobian


def test_crepant_level3_ring_piece_reuses_the_certificate_span(monkeypatch):
    """The certificate's index set leaves out one of the six variables, yet
    its sections span every weighted partial in degree beta: the analysis
    builds one piece in rho, and the level-3 ring piece matches the one
    built from J_0 itself."""
    ring, f = catalog.p11222_pullback_fermat(catalog.p11222_crepant_fan())
    rho = 5 * f.degree - ring.beta0
    rho_pieces = []
    true_piece = coxring.ideal_graded_piece

    def counting_piece(generators, gamma):
        if gamma == rho:
            rho_pieces.append(gamma)
        return true_piece(generators, gamma)

    monkeypatch.setattr(residue, "ideal_graded_piece", counting_piece)
    monkeypatch.setattr(coxring, "ideal_graded_piece", counting_piece)
    analysis = ThreefoldAnalysis(f)
    analysis.decomposition()
    assert len(analysis.certificate.index_set) < ring.n
    assert len(rho_pieces) == 1
    monkeypatch.undo()
    gamma = 4 * f.degree - ring.beta0
    assert analysis.bulk_piece(3).coset_exponents == R1Piece(f, gamma).coset_exponents


def test_triple_subdivision_nonadjacent_links_vanish(triple_analysis):
    analysis = triple_analysis
    chart = next(c for c in analysis.charts if c.n_interior == 3)
    fine = analysis.ring.fan
    order = [fine.rays[i] for i in chart.chain]
    expected = [(1, 0, 0, 0), (1, -1, -1, -1), (1, -2, -2, -2),
                (0, -1, -1, -1), (-1, -2, -2, -2)]
    assert order in (expected, expected[::-1])
    g = analysis.gram(1, 2)
    # locate link blocks per interior ray
    row_pos = {}
    off = 0
    for b in g.row_blocks:
        if b.kind == "link":
            row_pos[b.interior_ray] = (off, b.dim)
        off += b.dim
    col_pos = {}
    off = 0
    for b in g.col_blocks:
        if b.kind == "link":
            col_pos[b.interior_ray] = (off, b.dim)
        off += b.dim
    i_first, i_mid, i_last = chart.interior_rays
    # non-adjacent interior rays: zero block
    r0, rd = row_pos[i_first]
    c0, cd = col_pos[i_last]
    assert all(g.entries[r0 + i][c0 + j].is_zero()
               for i in range(rd) for j in range(cd))
    # adjacent interior rays: some nonzero entry
    c0, cd = col_pos[i_mid]
    assert any(not g.entries[r0 + i][c0 + j].is_zero()
               for i in range(rd) for j in range(cd))
    # Poincare duality still holds for the full pairing
    assert g.rank() == sum(b.dim for b in g.row_blocks)


def test_hodge_symmetry_levels(crepant_analysis):
    for a in range(4):
        assert crepant_analysis.hodge_number(a) == crepant_analysis.hodge_number(3 - a)


def test_r1_dim_matches_lattice_count_at_level1(crepant_analysis):
    """The level-1 ring dimension equals l(Delta) - 5 - sum of facet interior
    counts, the lattice-point form of the same number."""
    delta = crepant_analysis.delta
    facet_sum = sum(len(f.as_polytope().relative_interior_points())
                    for f in delta.faces(3))
    expected = len(delta.lattice_points()) - 5 - facet_sum
    assert crepant_analysis.bulk_piece(1).dim == expected == 83


def test_face_polynomial_on_ample_hypersurface(quintic_analysis):
    sigma = quintic_analysis.coarse.cones(2)[0]
    poly = face_polynomial(quintic_analysis.f, sigma, quintic_analysis.coarse)
    assert not poly.is_zero()
    assert poly.ring.fan.dim == 2
    # the quintic restricted to a 2-cone orbit closure is again Fermat-like
    assert all(max(e) == 5 for e in poly.terms)


def test_face_terms_match_the_face_polytope_route(crepant_analysis):
    """A term lands on the face of a 2-cone exactly when its point lies in
    the face rebuilt as a polytope; distinct coefficients pin the terms."""
    ring = CoxRing(catalog.projective_space(4))
    rng = random.Random(11)
    exps = rng.sample(ring.monomial_basis(fermat(ring, 5).degree).exponents, 40)
    f = ring.polynomial({e: c for c, e in enumerate(exps, start=1)})
    random_analysis = ThreefoldAnalysis(f, _check_certificate=False)
    for analysis in (random_analysis, crepant_analysis):
        f = analysis.f
        for sigma in analysis.coarse.cones(2):
            face = analysis.delta.face_at_direction(sigma.relint_point()).as_polytope()
            expected = sorted(c for e, c in f.terms.items()
                              if face.contains(f.ring.point_of_monomial(e, f.degree)))
            assert sorted(analysis.surface(sigma).polynomial.terms.values()) == expected


def test_surface_slice_pairing_consistency(crepant_analysis):
    """The quotient projection used for the star fan and for monomial
    transport must agree: pairings of transported points against star rays
    must match the ambient pairings."""
    from semitoric import lattice

    chart = next(c for c in crepant_analysis.charts if c.n_interior == 1)
    coarse = crepant_analysis.coarse
    sigma = coarse.cone_ref(chart.sigma.ray_indices)
    P, Q = coarse.star_projection(sigma)
    star = coarse.star_fan(sigma)
    for i, ray in enumerate(coarse.rays):
        img = tuple(lattice.pairing(p, ray) for p in P)
        if not any(img):
            continue
        assert lattice.primitivize(img) in star.rays


def test_gram_quintic_closed_form(quintic_analysis):
    """For the Fermat quintic the level-(1,2) pairing in the monomial coset
    bases is (1/1250) times a permutation matrix: eta of the complementary
    product is c_I * Res((x0..x4)^4) = 5 * (5^4 / 5^9), and c_12 = 1/2."""
    g = quintic_analysis.gram(1, 2)
    rows = g.row_blocks[0].basis_exponents
    cols = g.col_blocks[0].basis_exponents
    for i, ea in enumerate(rows):
        for j, eb in enumerate(cols):
            expected = Fraction(1, 1250) if all(
                a + b == 3 for a, b in zip(ea, eb)) else Fraction(0)
            assert g.entries[i][j].rational == expected


def test_gram_crepant_link_closed_form(crepant_analysis):
    """Link self-pairing entries are -mult(sum)/(m1 m2) * eta_sigma of the
    product; for the Fermat quartic surface slice eta evaluates to
    c_I * Res((yzw)^3) = 4 * (4^2 / 4^5) = 1/16, and the multiplicity factor
    is -2, giving -1/8 at complementary monomial pairs."""
    g = crepant_analysis.gram(1, 2)
    off_r = 0
    for rb in g.row_blocks:
        if rb.kind == "link":
            break
        off_r += rb.dim
    off_c = 0
    for cb in g.col_blocks:
        if cb.kind == "link":
            break
        off_c += cb.dim
    for i, ea in enumerate(rb.basis_exponents):
        for j, eb in enumerate(cb.basis_exponents):
            expected = Fraction(-1, 8) if all(
                a + b == 2 for a, b in zip(ea, eb)) else Fraction(0)
            assert g.entries[off_r + i][off_c + j].rational == expected


def test_face_polynomial_accepts_foreign_cone_ref():
    """A 2-cone taken from an independently computed (equal) coarse fan is
    matched by its rays, not by raw indices."""
    ring, f = catalog.p11222_pullback_fermat(catalog.p11222_crepant_fan())
    from semitoric.divisor import TorusInvariantDivisor
    independent = TorusInvariantDivisor(ring.fan, f.degree.rep).sigma_d()
    sigma = next(c for c in independent.cones(2)
                 if set(c.generators()) == {(1, 0, 0, 0), (-1, -2, -2, -2)})
    poly = face_polynomial(f, sigma)
    assert sorted(poly.terms) == [(0, 0, 4), (0, 4, 0), (4, 0, 0)]
