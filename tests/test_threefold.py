import json
import random
from fractions import Fraction
from importlib import resources
from itertools import permutations
from operator import add
from types import SimpleNamespace

import pytest

from semitoric import catalog, cli, coxring, lattice, residue, threefold
from semitoric.coxring import CoxRing, R1Piece
from semitoric.divisor import TorusInvariantDivisor
from semitoric.errors import CertificateError, PreconditionError, ValidationError
from semitoric.fan import Fan
from semitoric.hodge import h21_batyrev, triangulation_helper
from semitoric.residue import PairingValue
from semitoric.threefold import (
    GramBlock,
    H3Block,
    ThreefoldAnalysis,
    gram_skew_between_levels,
    two_cone_charts,
)

from .test_coxring import dwork
from .test_fan import ref_star_fan
from .test_lattice import ref_quotient_projection


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


def test_certificate_is_computed_on_first_use(monkeypatch):
    """The analysis of a degenerate cubic (no x_4 term, so every weighted
    partial vanishes at (0, 0, 0, 0, 1)) builds without its certificate;
    the first ring piece asks for it and fails."""
    calls = []
    monkeypatch.setattr(threefold, "nondegeneracy_certificate",
                        lambda f: calls.append(f) or residue.nondegeneracy_certificate(f))
    ring = CoxRing(catalog.projective_space(4))
    f = ring.polynomial({tuple(3 * int(i == j) for j in range(5)): 1 for i in range(4)})
    analysis = ThreefoldAnalysis(f)
    assert calls == []
    with pytest.raises(CertificateError, match="not certified nondegenerate"):
        analysis.blocks(1)
    assert len(calls) == 1


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


def test_charts_require_a_semiample_divisor_on_a_rank_4_fan():
    with pytest.raises(PreconditionError, match="semiample"):
        two_cone_charts(TorusInvariantDivisor(catalog.p11222_crepant_fan(), (-1,) + (0,) * 5))
    with pytest.raises(PreconditionError, match="rank-4"):
        two_cone_charts(TorusInvariantDivisor(catalog.projective_space(3), (1, 0, 0, 0)))


def ref_two_cone_charts(fine, coarse):
    """The oracle for `two_cone_charts`: every 2-cone of the coarse fan in
    `cones(2)` order as (ray indices, chain, seg_mults, sum_mults), its
    interior rays the fine rays that `Fan.locate` puts in its relative
    interior, ordered along the arc, once the refinement is certified."""
    assert fine.is_refinement(coarse)
    inside = {}
    for i, r in enumerate(fine.rays):
        inside.setdefault(coarse.locate(r).ray_indices, []).append(i)
    out = []
    for sigma in coarse.cones(2):
        gens = sigma.generators()

        def arc_position(i):
            (s, t), _ = lattice.rational_solution([list(col) for col in zip(*gens)],
                                                  fine.rays[i])
            return Fraction(t, s + t)

        chain = [fine.rays.index(gens[0]),
                 *sorted(inside.get(sigma.ray_indices, []), key=arc_position),
                 fine.rays.index(gens[1])]
        mults = [lattice.cone_multiplicity([fine.rays[a], fine.rays[b]])
                 for a, b in zip(chain, chain[1:])]
        sums = {chain[p]: lattice.cone_multiplicity([fine.rays[chain[p - 1]],
                                                     fine.rays[chain[p + 1]]])
                for p in range(1, len(chain) - 1)}
        out.append((tuple(sorted(sigma.ray_indices)), chain, mults, sums))
    return out


def cube_analysis():
    return ThreefoldAnalysis(cube_fan_section(1, catalog.cross_polytope(4).lattice_points()))


@pytest.mark.parametrize("name", ["quintic_analysis", "crepant_analysis", "triple_analysis",
                                  "cube"])
def test_charts_match_the_point_location_route(name, request):
    """The charts read off the 2-faces of Delta_D are the charts that
    `Fan.locate` finds in Sigma_D, and at the relative-interior point of
    every cone of the fine fan the face of Delta_D is dual to the cone of
    Sigma_D that holds the point.  "cube" is the non-simplicial Sigma_D of
    `test_h3_on_a_non_simplicial_sigma_d`, with one interior ray a chart."""
    analysis = cube_analysis() if name == "cube" else request.getfixturevalue(name)
    fine, coarse, delta = analysis.ring.fan, analysis.divisor.sigma_d(), analysis.delta
    charts = [(tuple(sorted(c.face.facets)), c.chain, c.seg_mults, c.sum_mults)
              for c in analysis.charts]
    assert charts == ref_two_cone_charts(fine, coarse)
    assert [c.face for c in analysis.charts] == [
        delta.face_at_direction(sigma.relint_point()) for sigma in coarse.cones(2)]
    for sigma in fine.all_cones():
        x = sigma.relint_point()
        assert delta.face_at_direction(x).facets == coarse.locate(x).ray_indices


@pytest.mark.parametrize("fixture, args", [
    ("fermat_quintic.json", ["threefold", "h3"]),
    ("p11222_crepant.json", ["threefold", "h3"]),
    ("sec6_polytope.json", ["mirror", "check"])])
def test_reports_on_sigma_d_locate_no_point(fixture, args, monkeypatch, capsys):
    """Sigma_D is read off the faces of Delta_D: `threefold h3` on the
    quintic and crepant fixtures and `mirror check` on sec6 make no
    `Fan.locate` call (5, 46 and 36 through the point-location route)."""
    calls = []
    true_locate = Fan.locate
    monkeypatch.setattr(Fan, "locate", lambda self, x: calls.append(x) or true_locate(self, x))
    path = resources.files("semitoric") / "fixtures" / fixture
    with resources.as_file(path) as path:
        assert cli.main([*args, "--input", str(path)]) == 0
    capsys.readouterr()
    assert calls == []


def test_face_polynomial_is_fermat_quartic(crepant_analysis):
    chart = next(c for c in crepant_analysis.charts if c.n_interior == 1)
    slice_ = crepant_analysis.surface(chart.face)
    star = slice_.ring
    assert set(star.fan.rays) == {(1, 0), (0, 1), (-1, -1)}
    exps = sorted(slice_.polynomial.terms)
    assert exps == [(0, 0, 4), (0, 4, 0), (4, 0, 0)]
    assert slice_.certificate.certified


def test_face_polynomial_defined_on_unsubdivided_cone(crepant_analysis):
    chart = next(c for c in crepant_analysis.charts if c.n_interior == 0)
    poly = crepant_analysis.surface(chart.face).polynomial
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


@pytest.mark.parametrize("name", ["quintic_analysis", "crepant_analysis",
                                  "triple_analysis"])
def test_every_coset_monomial_has_its_level_degree(name, request):
    """The basis of a level-a block lies in the degree of its piece: ring
    blocks in (a+1)beta - beta_0 of the ambient ring, link blocks in
    a beta_sigma - beta_0 of the slice ring."""
    analysis = request.getfixturevalue(name)
    seen = 0
    for a in range(4):
        for block in analysis.blocks(a):
            if block.kind == "ring":
                ring = analysis.ring
                degree = (a + 1) * analysis.f.degree - ring.beta0
            else:
                slice_ = analysis.surface(block.chart.face)
                ring = slice_.ring
                degree = a * slice_.degree - ring.beta0
            assert block.piece.ring is ring
            exps = block.piece.coset_exponents
            assert all(ring.degree_class(e) == degree for e in exps)
            seen += len(exps)
    assert seen == sum(analysis.hodge_number(a) for a in range(4))


@pytest.mark.parametrize("flag", [[], ["--verify"]])
def test_h3_report_builds_each_block_once(flag, monkeypatch, capsys):
    """One `threefold h3` report on the crepant fixture builds 2 blocks per
    level, the ring block and the one link block, each once."""
    built = []
    true_block = threefold.H3Block

    def counting_block(*args, **kwargs):
        built.append(true_block(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(threefold, "H3Block", counting_block)
    fixture = resources.files("semitoric") / "fixtures" / "p11222_crepant.json"
    with resources.as_file(fixture) as path:
        assert cli.main(["threefold", "h3", "--input", str(path), *flag]) == 0
    capsys.readouterr()
    assert sorted((b.level, b.kind) for b in built) == [
        (a, kind) for a in range(4) for kind in ("link", "ring")]


def ref_block_rows(analysis, a):
    """The rows of gram(a, 3 - a) from eta on every pair of codes of every
    pair of blocks with a nonzero factor: the full pair loop, with no
    grading."""
    rows = []
    for rb in analysis.blocks(a):
        block_rows = [{} for _ in range(rb.dim)]
        c0 = 0
        for cb in analysis.blocks(3 - a):
            scale, cup, k = analysis._block_factor(rb, cb, a)
            if scale:
                for row, ca in zip(block_rows, rb.piece.coset_codes):
                    for j, cc in enumerate(cb.piece.coset_codes, c0):
                        if v := cup.eta_of_code(ca + cc):
                            row[j] = PairingValue(scale * v, k)
            c0 += cb.dim
        rows += block_rows
    return rows


def _seeded_fermat_quintic():
    rng = random.Random(31)
    ring = CoxRing(catalog.projective_space(4))
    return ring.polynomial({tuple(5 * int(i == j) for j in range(5)): rng.randint(1, 9)
                            for i in range(5)})


@pytest.mark.parametrize("make", [
    lambda: fermat(CoxRing(catalog.projective_space(4)), 5),
    lambda: catalog.p11222_pullback_fermat(catalog.p11222_crepant_fan())[1],
    lambda: dwork(CoxRing(catalog.projective_space(4)), Fraction(1, 2)),
    lambda: cube_fan_section(1, catalog.cross_polytope(4).lattice_points()),
    _seeded_fermat_quintic,
], ids=["quintic", "crepant", "dwork", "cube", "seeded_fermat"])
def test_socle_coset_gram_matches_the_full_pair_loop(make):
    """Pairing only the codes in the socle coset of Z^n / L_f gives the same
    rows as eta on every pair: on the fixtures, on the Dwork section at
    psi = 1/2, on the cross-polytope section over the cube fan (L_f is all
    of the degree-zero lattice there, so nothing is pruned) and on a seeded
    Fermat draw."""
    analysis = ThreefoldAnalysis(make())
    grams = [analysis.gram(a, 3 - a) for a in range(4)]
    assert any(row for g in grams for row in g.rows)
    for a, g in enumerate(grams):
        assert g.rows == ref_block_rows(analysis, a), a


@pytest.mark.parametrize("fixture, cells", [("fermat_quintic.json", 204),
                                            ("p11222_crepant.json", 174)])
def test_h3_looks_up_eta_once_per_listed_cell(fixture, cells, monkeypatch, capsys):
    """`threefold h3` evaluates eta on no pair outside the socle coset: as
    many `eta_of_code` calls as listed cells (the full pair loop made 20,404
    and 13,798)."""
    calls = []
    true_eta = residue.CupProduct.eta_of_code
    monkeypatch.setattr(residue.CupProduct, "eta_of_code",
                        lambda self, code: calls.append(code) or true_eta(self, code))
    path = resources.files("semitoric") / "fixtures" / fixture
    with resources.as_file(path) as path:
        assert cli.main(["threefold", "h3", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    listed = sum(len(row) for g in report["gram"] for row in g["entries"])
    assert len(calls) == listed == cells


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
                        assert g.entry(offset_r + i, offset_c + j).is_zero()
            offset_c += cb.dim
        offset_r += rb.dim


def test_gram_indices_are_bounds_checked(crepant_analysis):
    """A negative index or one past the end is refused by both routes; -1
    is not read as the last monomial of the first block."""
    g = crepant_analysis.gram(1, 2)
    assert len(g.rows) == g.columns == 86
    for call in (lambda: crepant_analysis.entry_by_polynomials(1, -1, 0),
                 lambda: crepant_analysis.entry_by_polynomials(1, 0, 86),
                 lambda: g.entry(86, 0), lambda: g.entry(-1, 0), lambda: g.entry(0, -1)):
        with pytest.raises(ValidationError, match="Gram index out of range"):
            call()


def test_gram_skew_symmetry_between_levels(quintic_analysis, crepant_analysis,
                                          triple_analysis):
    """gram(2,1) = -gram(1,2)^T on every entry: c_12 / c_21 = -1 on the ring
    block, and the link sign flips between levels 1 and 2."""
    for analysis in (quintic_analysis, crepant_analysis, triple_analysis):
        g12 = analysis.gram(1, 2)
        g21 = analysis.gram(2, 1)
        assert len(g12.rows) == g21.columns
        assert len(g21.rows) == g12.columns
        for i in range(len(g12.rows)):
            for j in range(g12.columns):
                v, w = g12.entry(i, j), g21.entry(j, i)
                assert v.rational == -w.rational
                assert v.two_pi_i_exponent == w.two_pi_i_exponent
        assert gram_skew_between_levels([analysis.gram(a, 3 - a) for a in range(4)])


def test_gram_skew_check_sees_one_flipped_entry(crepant_analysis):
    """One listed cell of gram(2, 1) with its sign flipped, or left out, is
    seen from the cell at the transposed place of gram(1, 2)."""
    grams = [crepant_analysis.gram(a, 3 - a) for a in range(4)]
    row = next(r for r in grams[2].rows if r)
    j, v = next(iter(row.items()))
    row[j] = (-1) * v
    assert not gram_skew_between_levels(grams)
    del row[j]
    assert not gram_skew_between_levels(grams)
    row[j] = v
    assert gram_skew_between_levels(grams)


def assert_matches_polynomial_route(analysis, g, positions):
    for i, j in positions:
        v = g.entry(i, j)
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
        cells = [(i, j) for i in range(len(g.rows)) for j in range(g.columns)]
        assert all(isinstance(v.rational, Fraction) for row in g.rows for v in row.values())
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
        assert g.rank() == lattice.matrix_rank([[g.entry(i, j).rational
                                                 for j in range(g.columns)]
                                                for i in range(len(g.rows))])


def _block_kinds(blocks):
    """The kind of the block holding each row (or column)."""
    return [b.kind for b in blocks for _ in range(b.dim)]


@pytest.mark.parametrize("name", ["quintic_analysis", "crepant_analysis",
                                  "triple_analysis"])
def test_gram_block_lists_its_nonzero_cells(name, request):
    """A block lists only nonzero cells, each row in column order; every
    cell it does not list reads as the zero of its pair of blocks, times
    (2 pi i)^2 between two link blocks and (2 pi i)^4 otherwise; and at the
    fixed sample positions the cells match the polynomial route."""
    analysis = request.getfixturevalue(name)
    for a in range(4):
        g = analysis.gram(a, 3 - a)
        row_kinds, col_kinds = _block_kinds(g.row_blocks), _block_kinds(g.col_blocks)
        assert len(g.rows) == len(row_kinds)
        for i, row in enumerate(g.rows):
            assert list(row) == sorted(row)
            assert all(not v.is_zero() for v in row.values())
            for j, kind in enumerate(col_kinds):
                if j not in row:
                    k = 2 if row_kinds[i] == kind == "link" else 4
                    assert g.entry(i, j) == PairingValue(Fraction(0), k)
        assert_matches_polynomial_route(analysis, g, g.sample_positions())


def test_sparse_gram_rank_of_random_dependent_rows():
    """Seeded rational matrices of known low rank, split into ring and link
    blocks that never mix: the sparse rank is the dense rank."""
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
        cells = [{j: PairingValue(x, 4) for j, x in enumerate(row) if x} for row in rows]
        g = GramBlock(1, 2, [sized_block(1, "ring", r1), sized_block(1, "link", r2)],
                      [sized_block(2, "ring", c1), sized_block(2, "link", c2)], cells)
        assert g.rank() == lattice.matrix_rank(rows)


def sized_block(level, kind, dim):
    """A block that knows only its size: a stand-in piece with `dim`."""
    return H3Block(level, kind, SimpleNamespace(dim=dim))


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
                                    for ea in rb.piece.coset_exponents
                                    for eb in cb.piece.coset_exponents)
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
    assert [len(g.rows) for g in grams] == [1, 101, 101, 1]
    assert 0 < len(residues) <= 1281
    assert len(rho_pieces) == 1
    assert analysis.cup.res.span is analysis.certificate.span
    assert analysis.cup.res.certificate is analysis.certificate


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
    for a in range(4):
        analysis.blocks(a)
    assert len(analysis.certificate.index_set) < ring.n
    assert len(rho_pieces) == 1
    monkeypatch.undo()
    gamma = 4 * f.degree - ring.beta0
    assert analysis.bulk_piece(3).coset_exponents == R1Piece(f, gamma).coset_exponents


def test_crepant_h3_builds_bulk_j0_on_five_generators(monkeypatch, capsys):
    """One `threefold h3` report on the crepant fixture (n = 6, d + 1 = 5)
    builds every ideal piece of the ambient ring on the 5 weighted partials
    over the Euler basis, and one of them in rho: the certificate's span,
    which the residue map and the cup product read."""
    pieces, cups = [], []
    true_piece = coxring.ideal_graded_piece
    true_cup_init = residue.CupProduct.__init__

    def recorded_piece(generators, gamma):
        pieces.append((len(generators), true_piece(generators, gamma)))
        return pieces[-1][1]

    def recorded_cup_init(self, *args):
        true_cup_init(self, *args)
        cups.append(self)

    monkeypatch.setattr(coxring, "ideal_graded_piece", recorded_piece)
    monkeypatch.setattr(residue, "ideal_graded_piece", recorded_piece)
    monkeypatch.setattr(residue.CupProduct, "__init__", recorded_cup_init)
    fixture = resources.files("semitoric") / "fixtures" / "p11222_crepant.json"
    with resources.as_file(fixture) as path:
        assert cli.main(["threefold", "h3", "--input", str(path)]) == 0
    capsys.readouterr()
    bulk = [(k, space) for k, space in pieces if space.ring.d == 4]
    ring = bulk[0][1].ring
    assert ring.n == 6 and all(k == 5 for k, _ in bulk)
    beta = ring.beta0  # the crepant pullback is anticanonical
    assert sorted(space.degree.rep for _, space in bulk) == sorted(
        (k * beta).rep for k in (1, 2, 3, 4))
    rho = [space for _, space in bulk if space.degree == 5 * beta - ring.beta0]
    assert len(rho) == 1
    (cup,) = [c for c in cups if c.ring is ring]
    assert cup.res.span is cup.res.certificate.span is rho[0]


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
    assert all(g.entry(r0 + i, c0 + j).is_zero()
               for i in range(rd) for j in range(cd))
    # adjacent interior rays: some nonzero entry
    c0, cd = col_pos[i_mid]
    assert any(not g.entry(r0 + i, c0 + j).is_zero()
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
    poly = quintic_analysis.surface(quintic_analysis.delta.faces(2)[0]).polynomial
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
    random_analysis = ThreefoldAnalysis(f)
    for analysis in (random_analysis, crepant_analysis):
        f = analysis.f
        for face in analysis.delta.faces(2):
            poly = face.as_polytope()
            expected = sorted(c for e, c in f.terms.items()
                              if poly.contains(f.ring.point_of_monomial(e, f.degree)))
            assert sorted(analysis.surface(face).polynomial.terms.values()) == expected


def ref_star_slice(analysis, sigma):
    """The polynomial of the slice of a 2-cone through the quotient lattice
    N/N_sigma: the ring of `ref_star_fan`, and each term of f whose point is
    tight at every facet through the face, moved to the quotient by a right
    inverse Q of the projection.  It holds only on a simplicial Sigma_D,
    where `ref_star_fan` is the star fan."""
    coarse, delta, f = sigma.fan, analysis.delta, analysis.f
    ring = CoxRing(ref_star_fan(coarse, sigma))
    _, Q = ref_quotient_projection([list(g) for g in sigma.generators()], 4)
    face = delta.face_at_direction(sigma.relint_point())
    base = min(face.vertices())

    def mbar(point):
        rel = [a - b for a, b in zip(point, base)]
        return [sum(Q[j][k] * rel[j] for j in range(4)) for k in range(2)]

    coeffs = [-min(lattice.pairing(mbar(v), ray) for v in face.vertices())
              for ray in ring.fan.rays]
    tight = [delta.facets()[i][:2] for i in face.facets]
    terms = {}
    for exps, coeff in f.terms.items():
        m = f.ring.point_of_monomial(exps, f.degree)
        if all(lattice.pairing(m, n) == r for n, r in tight):
            terms[tuple(a + lattice.pairing(mbar(m), ray)
                        for a, ray in zip(coeffs, ring.fan.rays))] = coeff
    return ring.polynomial(terms, ring.degree_class(coeffs))


def test_slice_solves_no_linear_system(monkeypatch):
    """A slice reads its terms off the exponents of f: no point of a
    monomial and no rational solve."""
    analysis = ThreefoldAnalysis(catalog.p11222_pullback_fermat(
        catalog.p11222_triple_fan())[1])
    monkeypatch.setattr(CoxRing, "point_of_monomial", None)
    monkeypatch.setattr(lattice, "rational_solution", None)
    assert all(analysis.surface(face).polynomial.terms for face in analysis.delta.faces(2))


def wp_fermat(weights):
    """The anticanonical Fermat section sum x_i^(L / w_i), L = sum w_i, on
    P(weights)."""
    ring = CoxRing(catalog.weighted_projective(weights))
    total = sum(weights)
    return ring.polynomial({tuple(total // w * int(i == j) for j in range(ring.n)): 1
                            for i, w in enumerate(weights)})


@pytest.mark.parametrize("name", ["crepant_analysis", "triple_analysis", "quintic_analysis",
                                  "P11114", "P11226"])
def test_face_slice_matches_the_star_route(name, request):
    """On every 2-cone of a simplicial Sigma_D, the slice read off its face
    of Delta_D and the quotient-lattice route agree: the same number of
    variables, f_Gamma up to a permutation of them, the certificate verdict
    and the R_1 dimensions at levels 1 and 2."""
    analysis = (ThreefoldAnalysis(wp_fermat(tuple(map(int, name[1:]))))
                if name.startswith("P") else request.getfixturevalue(name))
    coarse = analysis.divisor.sigma_d()
    for face in analysis.delta.faces(2):
        surface, ref = analysis.surface(face), ref_star_slice(analysis, coarse.cone_ref(face.facets))
        poly, n = surface.polynomial, ref.ring.n
        assert poly.ring.n == n
        assert any({tuple(e[i] for i in perm): c for e, c in ref.terms.items()} == poly.terms
                   for perm in permutations(range(n)))
        assert surface.certificate.certified == residue.nondegeneracy_certificate(ref).certified
        assert [surface.level_piece(a).dim for a in (1, 2)] == \
            [R1Piece(ref, a * ref.degree - ref.ring.beta0).dim for a in (1, 2)]


def cube_fan_section(k, points):
    """The section of k * sum D_i on the fine fan over the 4-cube (80 rays)
    with the terms at the given points of k Delta_D, Delta_D the
    cross-polytope, and distinct coefficients.  Sigma_D is the face fan of
    the cube, with 8 rays in each maximal cone."""
    fine = triangulation_helper(catalog.cube(4))
    ring = CoxRing(fine)
    return ring.polynomial({tuple(k + lattice.pairing(m, r) for r in fine.rays): c
                            for c, m in enumerate(points, start=1)})


def test_h3_on_a_non_simplicial_sigma_d():
    """f on the 9 lattice points of the cross-polytope: H^3 has dimensions
    [1, h21, h21, 1] with h21 = 4 from the reflexive formula, and the
    level-(1, 2) pairing has full rank."""
    delta = catalog.cross_polytope(4)
    analysis = cube_analysis()
    assert h21_batyrev(delta) == 4
    assert [analysis.hodge_number(a) for a in range(4)] == [1, 4, 4, 1]
    assert analysis.gram(1, 2).rank() == 4


def test_exponent_cosets_of_the_cross_polytope_section_are_its_degrees():
    """f on the 9 lattice points of the cross-polytope: L_f is the whole
    lattice of degree-zero exponent vectors, so each degree is one class of
    Z^n / L_f and the socle coset prunes nothing."""
    f = cube_fan_section(1, catalog.cross_polytope(4).lattice_points())
    ring, cosets = f.ring, residue.exponent_cosets(f)
    assert cosets.rank == 4
    keys = [{cosets(e) for e in ring.monomial_basis(k * f.degree).exponents} for k in (1, 2)]
    assert [len(k) for k in keys] == [1, 1] and keys[0] != keys[1]


def test_slice_of_a_subdivided_cone_of_a_non_simplicial_sigma_d():
    """D = 3 sum D_i, f on the 8 vertices of 3 Delta_D and the origin: the
    slice of a subdivided 2-cone is the Fermat cubic on a fan of three
    rays, certified, with R_1 dimensions [0, 1, 1, 0]."""
    points = [(0,) * 4] + [tuple(3 * s * int(i == j) for j in range(4))
                           for i in range(4) for s in (1, -1)]
    analysis = ThreefoldAnalysis(cube_fan_section(3, points))
    chart = next(c for c in analysis.charts if c.n_interior)
    surface = analysis.surface(chart.face)
    assert len(surface.ring.fan.rays) == 3
    assert sorted(surface.polynomial.terms) == [(0, 0, 3), (0, 3, 0), (3, 0, 0)]
    assert surface.certificate.certified
    assert [surface.level_piece(a).dim for a in range(4)] == [0, 1, 1, 0]


def test_gram_quintic_closed_form(quintic_analysis):
    """For the Fermat quintic the level-(1,2) pairing in the monomial coset
    bases is (1/1250) times a permutation matrix: eta of the complementary
    product is c_I * Res((x0..x4)^4) = 5 * (5^4 / 5^9), and c_12 = 1/2."""
    g = quintic_analysis.gram(1, 2)
    rows = g.row_blocks[0].piece.coset_exponents
    cols = g.col_blocks[0].piece.coset_exponents
    for i, ea in enumerate(rows):
        for j, eb in enumerate(cols):
            expected = Fraction(1, 1250) if all(
                a + b == 3 for a, b in zip(ea, eb)) else Fraction(0)
            assert g.entry(i, j).rational == expected


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
    for i, ea in enumerate(rb.piece.coset_exponents):
        for j, eb in enumerate(cb.piece.coset_exponents):
            expected = Fraction(-1, 8) if all(
                a + b == 2 for a, b in zip(ea, eb)) else Fraction(0)
            assert g.entry(off_r + i, off_c + j).rational == expected


def test_surface_accepts_the_face_of_an_equal_section_polytope():
    """A 2-face of an independently computed (equal) section polytope is
    matched by its vertices: it gives the slice of the chart's face, built
    once."""
    ring, f = catalog.p11222_pullback_fermat(catalog.p11222_crepant_fan())
    analysis = ThreefoldAnalysis(f)
    independent = TorusInvariantDivisor(ring.fan, f.degree.rep).section_polytope()
    assert independent is not analysis.delta
    chart = next(c for c in analysis.charts if c.n_interior)
    face = next(g for g in independent.faces(2) if g.facets == chart.face.facets)
    assert analysis.surface(face) is analysis.surface(chart.face)
    assert sorted(analysis.surface(face).polynomial.terms) == [(0, 0, 4), (0, 4, 0), (4, 0, 0)]
