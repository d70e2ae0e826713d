"""Middle cohomology of regular semiample hypersurfaces in rank-4 fans.

The middle cohomology splits into a part coming from the graded ring of the
ambient variety and, for every 2-cone of Sigma_D subdivided by interior
rays, copies of the analogous ring of a regular ample curve in the
orbit-closure surface, the toric surface of the 2-face of the section
polytope dual to the 2-cone, which the 2-cone's chart holds.  The cup
product is block anti-diagonal across complementary levels; ring-by-surface
blocks vanish, surface blocks are scaled by lattice multiplicities of the
flanking 2-cones.

Every basis element is a monomial, held as its code in the block's R_1
piece, so a Gram entry is a block factor times the trace eta of a sum of two
codes, evaluated once per distinct sum; a Gram block keeps only its nonzero
cells.  Eta is looked up only on the pairs whose product lies in the socle
coset of Z^n / L_f, L_f spanned by the differences of the exponent vectors
of f (of the slice's polynomial on link blocks), so a block costs its
nonzero cells, not the product of its sizes; `_block_rows` says why the
trace vanishes on every other class.  The route through products of basis
polynomials and `CupProduct.pair` is kept as the oracle
(`entry_by_polynomials`), and `eta_of_code` itself is not pruned.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import lattice
from .coxring import CoxRing, GradedPolynomial, R1Piece
from .divisor import TorusInvariantDivisor
from .errors import (
    CertificateError,
    InconsistencyError,
    PreconditionError,
    ValidationError,
)
from .fan import Fan
from .linalg import SparseEchelon
from .polytope import Face, LatticePolytope
from .residue import CupProduct, PairingValue, cup_constant, nondegeneracy_certificate


class TwoConeChart:
    """A 2-cone of Sigma_D, held as its face Gamma of Delta_D, with the
    fine-fan rays subdividing it.

    chain lists fine-fan ray indices from one boundary ray to the other, in
    angular order; the interior entries are exactly the subdividing rays.
    Each consecutive pair spans a 2-cone of the fine fan.
    """

    def __init__(self, face: Face, chain: list, seg_mults: list, sum_mults: dict):
        self.face = face
        self.chain = chain
        self.seg_mults = seg_mults    # multiplicity of each consecutive-pair 2-cone
        self.sum_mults = sum_mults    # interior ray index -> mult of the flanking sum cone

    @property
    def interior_rays(self):
        return self.chain[1:-1]

    @property
    def n_interior(self) -> int:
        return len(self.chain) - 2

    def flanking_segments(self, ray_index: int):
        pos = self.chain.index(ray_index)
        return (self.seg_mults[pos - 1], self.seg_mults[pos])

    def segment_between(self, i: int, j: int):
        """Multiplicity of the 2-cone spanned by adjacent interior rays, or
        None when the rays are not adjacent in the chain."""
        pi, pj = self.chain.index(i), self.chain.index(j)
        if abs(pi - pj) != 1:
            return None
        return self.seg_mults[min(pi, pj)]


def two_cone_charts(divisor: TorusInvariantDivisor):
    """The 2-cones of Sigma_D with their interior-ray data, for a semiample D
    on a rank-4 fan, in the order of their ray sets.  The fan of D refines
    Sigma_D, the normal fan of Delta_D (Cox-Little-Schenck, Toric Varieties,
    6.2), so a 2-cone is a 2-face Gamma: its boundary rays are the normals of
    the facets through Gamma, its interior rays the fine rays least on it."""
    fine = divisor.fan
    if fine.dim != 4:
        raise PreconditionError("charts are defined for rank-4 fans")
    if not divisor.is_semiample():
        raise PreconditionError("charts are defined for semiample divisors")
    delta = divisor.section_polytope()
    fine_two_cones = {c.ray_indices for c in fine.cones(2)}
    inside = {}  # the interior rays of a 2-cone are the fine rays it holds in its interior
    for i, r in enumerate(fine.rays):
        inside.setdefault(delta.face_at_direction(r).vertex_indices, []).append(i)
    charts = []
    for face in sorted(delta.faces(2), key=lambda g: sorted(g.facets)):
        gens = [delta.facets()[j][0] for j in sorted(face.facets)]
        boundary = [fine.rays.index(g) for g in gens]
        interior = inside.get(face.vertex_indices, [])

        def arc_position(i):
            sol = lattice.rational_solution([list(col) for col in zip(*gens)], fine.rays[i])
            if sol is None or min(sol[0]) < 0:
                raise InconsistencyError("interior ray outside its 2-cone")
            return Fraction(sol[0][1], sum(sol[0]))

        interior.sort(key=arc_position)
        chain = [boundary[0]] + interior + [boundary[1]]
        seg_mults = []
        for a, b in zip(chain, chain[1:]):
            if frozenset({a, b}) not in fine_two_cones:
                raise InconsistencyError(
                    f"consecutive rays {a},{b} do not span a 2-cone of the fine fan")
            seg_mults.append(lattice.cone_multiplicity([fine.rays[a], fine.rays[b]]))
        sum_mults = {}
        for pos in range(1, len(chain) - 1):
            prev_r, mid_r, next_r = (fine.rays[i] for i in chain[pos - 1:pos + 2])
            msum = lattice.cone_multiplicity([prev_r, next_r])
            m1, m2 = seg_mults[pos - 1:pos + 1]
            if any(msum * x != m1 * a + m2 * b for x, a, b in zip(mid_r, next_r, prev_r)):
                raise InconsistencyError("multiplicity identity fails on a subdivided 2-cone")
            sum_mults[chain[pos]] = msum
        charts.append(TwoConeChart(face, chain, seg_mults, sum_mults))
    return charts


class SurfaceSlice:
    """The orbit-closure surface V(sigma) of a 2-cone sigma of Sigma_D, read
    off its face Gamma of the section polytope, with the terms of f on Gamma
    (f modulo the variables of the rays of sigma).

    The surface is the toric surface of Gamma in the span lattice of Gamma,
    basis (b1, b2): one variable per edge E of Gamma, with ray the inward
    edge normal n_E.  A facet j of Delta_D through E but not through Gamma
    has a ray e_j of the fine fan as its normal, and (<b1, e_j>, <b2, e_j>)
    = g_E n_E with n_E primitive; a term of f on Gamma has the lattice
    distance of its point to E, its exponent of x_j over g_E, as its
    exponent of the variable of E, and the degree is the class of the
    exponents of a vertex of Gamma.  A maximal cone is the pair of edges
    through a vertex of Gamma (Cox-Little-Schenck, Toric Varieties, 3.2)."""

    def __init__(self, analysis: "ThreefoldAnalysis", face: Face):
        self.face = face
        delta = analysis.delta
        verts = face.vertices()
        if any(type(x) is not int for v in verts for x in v):
            raise PreconditionError("face of the section polytope is not a lattice polytope")
        basis = LatticePolytope(verts, _trusted=True)._span_data().basis
        facets, fine_rays = delta.facets(), analysis.ring.fan.rays
        edges = delta.subfaces(face)
        rays, slots, at_vertex = [], [], []
        for edge in edges:
            normal, rhs, _ = facets[min(edge.facets - face.facets)]
            form = [lattice.pairing(b, normal) for b in basis]
            g = lattice.gcd_list(form)
            rays.append(tuple(x // g for x in form))
            slots.append((fine_rays.index(normal), g))
            at_vertex.append((lattice.pairing(verts[0], normal) - rhs) // g)
        cones = [[k for k, edge in enumerate(edges) if v in edge.vertex_indices]
                 for v in sorted(face.vertex_indices)]
        self.ring = CoxRing(Fan(rays, cones, dim=2))
        self.degree = self.ring.degree_class(at_vertex)
        on_face = [fine_rays.index(facets[j][0]) for j in face.facets]
        self.polynomial = GradedPolynomial(self.ring, {
            tuple(exps[i] // g for i, g in slots): coeff
            for exps, coeff in analysis.f.terms.items()
            if not any(exps[i] for i in on_face)}, self.degree)

    @cached_property
    def certificate(self):
        return nondegeneracy_certificate(self.polynomial)

    @cached_property
    def cup(self) -> CupProduct:
        if not self.certificate.certified:
            raise CertificateError(
                f"restricted polynomial on the 2-cone "
                f"{sorted(self.face.facets)} is not certified nondegenerate")
        return CupProduct(self.ring, self.polynomial, self.certificate)

    def level_piece(self, a: int) -> R1Piece:
        return R1Piece(self.polynomial, a * self.degree - self.ring.beta0)


class H3Block:
    """One summand of a Hodge piece of H^3, on the coset basis of its R_1 piece."""

    def __init__(self, level: int, kind: str, piece: R1Piece,
                 chart: TwoConeChart | None = None, interior_ray: int | None = None):
        self.level = level
        self.kind = kind                    # "ring" or "link"
        self.piece = piece
        self.chart = chart                  # the subdivided 2-cone of a link block
        self.interior_ray = interior_ray

    @property
    def sigma(self) -> tuple | None:
        """The rays of a link block's 2-cone in Sigma_D: the facets through
        its face, since ray j of the normal fan is facet j."""
        return tuple(sorted(self.chart.face.facets)) if self.chart else None

    @property
    def dim(self) -> int:
        return self.piece.dim


class GramBlock:
    """The pairing matrix between the concatenated bases of two levels, by
    its nonzero cells: rows[i] maps column j to a nonzero entry, in column
    order; every other cell is the zero of its pair of blocks (`entry`)."""

    def __init__(self, level_a: int, level_b: int, row_blocks: list, col_blocks: list,
                 rows: list):
        self.level_a = level_a
        self.level_b = level_b
        self.row_blocks = row_blocks
        self.col_blocks = col_blocks
        self.rows = rows

    @property
    def columns(self) -> int:
        return sum(b.dim for b in self.col_blocks)

    def entry(self, i: int, j: int) -> PairingValue:
        """Cell (i, j): a listed cell, else zero times (2 pi i)^2 between two
        link blocks and (2 pi i)^4 otherwise, as `_block_factor` assigns."""
        rb, _ = _locate(self.row_blocks, i)
        cb, _ = _locate(self.col_blocks, j)
        v = self.rows[i].get(j)
        if v is not None:
            return v
        return PairingValue(Fraction(0), 2 if rb.kind == cb.kind == "link" else 4)

    def rank(self) -> int:
        """Rank over Q, from the listed cells in a `SparseEchelon`.  The dense
        route (`lattice.matrix_rank` on every cell) is the `--verify` check."""
        echelon = SparseEchelon()
        for row in self.rows:
            echelon.insert({j: v.rational for j, v in row.items()})
        return echelon.rank

    def to_json(self, rank: int):
        """The report form: each row lists its nonzero cells in column order
        as {"col": j, "rational", "two_pi_i_exponent"}; a cell it does not
        list is zero."""
        return {"level_a": self.level_a, "level_b": self.level_b, "rank": rank,
                "columns": self.columns,
                "entries": [[{"col": j, **v.to_json()} for j, v in row.items()]
                            for row in self.rows]}

    def sample_positions(self):
        """The diagonal and the first row of every pair of blocks: a fixed
        sample of (row, column) positions for spot checks."""
        r0 = 0
        for rb in self.row_blocks:
            c0 = 0
            for cb in self.col_blocks:
                if rb.dim and cb.dim:
                    yield from ((r0 + t, c0 + t) for t in range(min(rb.dim, cb.dim)))
                    yield from ((r0, c0 + t) for t in range(1, cb.dim))
                c0 += cb.dim
            r0 += rb.dim


def gram_skew_between_levels(grams) -> bool:
    """gram(b, a) = -gram(a, b)^T on every entry, for the four Gram blocks
    listed by level a = 0..3: c_ab / c_ba = (-1)^(a - b) on ring blocks, and
    the link sign flips between complementary levels.  Each listed cell has
    its negative at the transposed place; run over all four blocks, that
    makes the two sets of cells equal."""
    return all(grams[g.level_b].rows[j].get(i) == (-1) * v
               for g in grams
               for i, row in enumerate(g.rows)
               for j, v in row.items())


class ThreefoldAnalysis:
    """Middle-cohomology data of a regular semiample hypersurface, d = 4."""

    def __init__(self, f: GradedPolynomial):
        ring = f.ring
        if ring.d != 4:
            raise PreconditionError("threefold analysis requires a rank-4 fan")
        if not ring.fan.is_simplicial:
            raise PreconditionError("the ambient fan must be simplicial")
        self.ring = ring
        self.f = f
        self.divisor = TorusInvariantDivisor(ring.fan, f.degree.rep)
        if not self.divisor.is_semiample():
            raise PreconditionError("the hypersurface class must be semiample")
        self.delta = self.divisor.section_polytope()
        self._certificate = None
        self.charts = two_cone_charts(self.divisor)
        self._slices = {}
        self._blocks = {}

    @property
    def certificate(self):
        """The nondegeneracy certificate of f, computed on first use."""
        if self._certificate is None:
            self._certificate = nondegeneracy_certificate(self.f)
        if not self._certificate.certified:
            raise CertificateError("hypersurface section is not certified nondegenerate")
        return self._certificate

    # -- pieces -----------------------------------------------------------------

    def surface(self, face: Face) -> SurfaceSlice:
        """The slice of the 2-cone of Sigma_D dual to a 2-face of the section
        polytope, built once."""
        if face not in self._slices:
            self._slices[face] = SurfaceSlice(self, face)
        return self._slices[face]

    def bulk_piece(self, a: int) -> R1Piece:
        gamma = (a + 1) * self.f.degree - self.ring.beta0
        # the certificate's span is j0_piece(f, rho): the same generators
        span = self.certificate.span
        j0 = span if span.degree == gamma + self.ring.beta0 else None
        return R1Piece(self.f, gamma, _j0=j0)

    @cached_property
    def cup(self) -> CupProduct:
        return CupProduct(self.ring, self.f, self.certificate)

    def blocks(self, a: int):
        """The summands of H^{3-a,a}: the ring piece, then one link piece per
        interior ray of every subdivided 2-cone.  A level's blocks, and so
        its pieces, are built once."""
        if not 0 <= a <= 3:
            raise ValidationError("level out of range 0..3")
        if a not in self._blocks:
            out = [H3Block(a, "ring", self.bulk_piece(a))]
            for chart in (c for c in self.charts if c.n_interior):
                piece = self.surface(chart.face).level_piece(a)
                out += [H3Block(a, "link", piece, chart, i) for i in chart.interior_rays]
            self._blocks[a] = out
        return self._blocks[a]

    def hodge_number(self, a: int) -> int:
        return sum(b.dim for b in self.blocks(a))

    # -- the cup product -----------------------------------------------------------

    def gram(self, a: int, b: int) -> GramBlock:
        """Pairing matrix between levels a and b = 3 - a on the block bases.

        Every basis element is a monomial, so each entry is a factor fixed by
        its pair of blocks times eta of one monomial product x^(e_A + e_B);
        eta is evaluated once per distinct product, a sum of two monomial
        codes (`CupProduct.eta_of_code`), and only on the products in the
        socle coset (`_block_rows`).
        `entry_by_polynomials` is the route through products of polynomials.
        """
        if a + b != 3:
            raise ValidationError("the pairing couples complementary levels only")
        row_blocks, col_blocks = self.blocks(a), self.blocks(b)
        rows = [row for rb in row_blocks for row in self._block_rows(rb, col_blocks, a)]
        return GramBlock(a, b, row_blocks, col_blocks, rows)

    def _block_factor(self, rb: H3Block, cb: H3Block, a: int):
        """(scale, cup, k): an entry between the two blocks is scale times the
        trace of `cup` on the product of basis elements, times (2 pi i)^k."""
        if rb.kind == "ring" and cb.kind == "ring":
            return cup_constant(a, 3 - a, 4), self.cup, 4      # (-1)^d = 1
        if rb.kind != cb.kind:
            return 0, None, 4
        chart = rb.chart
        if chart is not cb.chart:
            return 0, None, 2
        cup = self.surface(chart.face).cup
        sign = -1 if a % 2 == 0 else 1                       # (-1)^(a - 1)
        if rb.interior_ray == cb.interior_ray:
            m1, m2 = chart.flanking_segments(rb.interior_ray)
            return -sign * Fraction(chart.sum_mults[rb.interior_ray], m1 * m2), cup, 2
        seg = chart.segment_between(rb.interior_ray, cb.interior_ray)
        return (0 if seg is None else Fraction(sign, seg)), cup, 2

    def _block_rows(self, rb: H3Block, col_blocks, a: int):
        """The rows of gram(a, 3 - a) through block rb, by their nonzero cells.

        The pairing is graded by Z^n / L_f (`CupProduct.coset_key`): every
        weighted partial x_i df/dx_i has its exponents in the support of f,
        so every row m * g of the J_0 piece in rho is homogeneous for it; a
        reduction subtracts only pivot rows that hold the column being
        cleared, so by induction every pivot row and every residual stays in
        the class of the row it came from; the span in rho has one non-pivot
        column c*, so the reduction of x^(e+1) is zero or supported on c*.
        Hence eta(x^e) != 0 implies e = exps(c*) - (1, ..., 1) mod L_f, the
        socle coset s, and the same holds for each slice's own cup product
        on its link blocks.  The column codes are bucketed by class, and a
        row code x^e meets only the bucket of s - [e]: exact, and at the
        cost of the cells in that coset."""
        rows = [{} for _ in range(rb.dim)]
        c0 = 0
        for cb in col_blocks:
            scale, cup, k = self._block_factor(rb, cb, a)
            if scale:
                eta, key = cup.eta_of_code, cup.coset_key
                buckets = {}
                for j, cc in enumerate(cb.piece.coset_codes, c0):
                    buckets.setdefault(key(cc), []).append((j, cc))
                for row, ca in zip(rows, rb.piece.coset_codes):
                    for j, cc in buckets.get(cup.socle_partner(ca), ()):
                        if v := eta(ca + cc):
                            row[j] = PairingValue(scale * v, k)
            c0 += cb.dim
        return rows

    def entry_by_polynomials(self, a: int, i: int, j: int) -> PairingValue:
        """Entry (i, j) of gram(a, 3 - a) from the product of the two basis
        polynomials, through `CupProduct.pair` for ring blocks and the
        slice's `eta` for link blocks: the oracle for the monomial route."""
        rb, ri = _locate(self.blocks(a), i)
        cb, ci = _locate(self.blocks(3 - a), j)
        scale, cup, k = self._block_factor(rb, cb, a)
        if not scale:
            return PairingValue(Fraction(0), k)
        A = cup.ring.monomial(rb.piece.coset_exponents[ri])
        B = cup.ring.monomial(cb.piece.coset_exponents[ci])
        if rb.kind == "ring":
            return cup.pair(A, B, a, 3 - a)
        return PairingValue(scale * cup.eta(A * B), k)


def _locate(blocks, index: int):
    """The block holding a row (or column) of the concatenated bases, and the
    position inside it."""
    if index >= 0:
        for block in blocks:
            if index < block.dim:
                return block, index
            index -= block.dim
    raise ValidationError("Gram index out of range")
