"""Middle cohomology of regular semiample hypersurfaces in rank-4 fans.

The middle cohomology splits into a part coming from the graded ring of the
ambient variety and, for every 2-cone of the coarse fan subdivided by
interior rays, copies of the analogous ring of a regular ample curve in the
orbit-closure surface.  The cup product is block anti-diagonal across
complementary levels; ring-by-surface blocks vanish, surface blocks are
scaled by lattice multiplicities of the flanking 2-cones.

Every basis element is a monomial, held as its code in the block's R_1
piece, so a Gram entry is a block factor times the trace eta of a sum of two
codes, evaluated once per distinct sum; a Gram block keeps only its nonzero
cells.  The route through products of basis polynomials and
`CupProduct.pair` is kept as the oracle (`entry_by_polynomials`).
"""

from __future__ import annotations

from fractions import Fraction

from . import lattice
from .coxring import CoxRing, GradedPolynomial, R1Piece, nondegeneracy_certificate
from .divisor import TorusInvariantDivisor
from .errors import (
    CertificateError,
    InconsistencyError,
    PreconditionError,
    ValidationError,
)
from .fan import ConeRef, Fan
from .linalg import SparseEchelon, solve_unique
from .residue import CupProduct, PairingValue, cup_constant


class TwoConeChart:
    """A 2-cone of the coarse fan with the fine-fan rays subdividing it.

    chain lists fine-fan ray indices from one boundary ray to the other, in
    angular order; the interior entries are exactly the subdividing rays.
    Each consecutive pair spans a 2-cone of the fine fan.
    """

    def __init__(self, sigma: ConeRef, chain: list, seg_mults: list, sum_mults: dict):
        self.sigma = sigma
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


def two_cone_charts(fine: Fan, coarse: Fan):
    """All 2-cones of the coarse fan with their interior-ray data."""
    if fine.dim != 4:
        raise PreconditionError("charts are defined for rank-4 fans")
    if not fine.is_refinement(coarse):
        raise PreconditionError("the fine fan must refine the coarse fan")
    fine_two_cones = {c.ray_indices for c in fine.cones(2)}
    inside = {}  # the interior rays of a 2-cone are the fine rays it holds in its interior
    for i, r in enumerate(fine.rays):
        inside.setdefault(coarse.locate(r).ray_indices, []).append(i)
    charts = []
    for sigma in coarse.cones(2):
        gens = sigma.generators()
        boundary = [fine.rays.index(g) for g in gens]
        interior = inside.get(sigma.ray_indices, [])

        def arc_position(i):
            coords = solve_unique([[gens[0][k], gens[1][k]] for k in range(4)],
                                  list(fine.rays[i]))
            if coords is None or any(c < 0 for c in coords):
                raise InconsistencyError("interior ray outside its 2-cone")
            return Fraction(coords[1]) / (coords[0] + coords[1])

        interior.sort(key=arc_position)
        chain = [boundary[0]] + interior + [boundary[1]]
        seg_mults = []
        for a, b in zip(chain, chain[1:]):
            if frozenset({a, b}) not in fine_two_cones:
                raise InconsistencyError(
                    f"consecutive rays {a},{b} do not span a 2-cone of the fine fan")
            seg_mults.append(lattice.cone_multiplicity(
                [fine.rays[a], fine.rays[b]]))
        sum_mults = {}
        for pos in range(1, len(chain) - 1):
            prev_r = fine.rays[chain[pos - 1]]
            mid_r = fine.rays[chain[pos]]
            next_r = fine.rays[chain[pos + 1]]
            msum = lattice.cone_multiplicity([prev_r, next_r])
            m1 = seg_mults[pos - 1]
            m2 = seg_mults[pos]
            lhs = tuple(msum * x for x in mid_r)
            rhs = tuple(m1 * a + m2 * b for a, b in zip(next_r, prev_r))
            if lhs != rhs:
                raise InconsistencyError(
                    "multiplicity identity fails on a subdivided 2-cone")
            sum_mults[chain[pos]] = msum
        charts.append(TwoConeChart(sigma, chain, seg_mults, sum_mults))
    return charts


class SurfaceSlice:
    """The orbit-closure surface of a 2-cone with the restricted hypersurface."""

    def __init__(self, analysis: "ThreefoldAnalysis", sigma: ConeRef):
        fine_ring = analysis.ring
        coarse = analysis.coarse
        self.sigma = sigma
        star = coarse.star_fan(sigma)
        if not star.is_simplicial:
            raise PreconditionError("orbit-closure surface fan is not simplicial")
        self.ring = CoxRing(star)
        P, Q = coarse.star_projection(sigma)
        delta = analysis.delta
        face = delta.face_at_direction(sigma.relint_point())
        verts = face.vertices()
        if any(type(x) is not int for v in verts for x in v):
            raise PreconditionError("face of the section polytope is not a lattice polytope")
        base = min(verts)

        def mbar(point):
            rel = [a - b for a, b in zip(point, base)]
            return tuple(sum(Q[j][k] * rel[j] for j in range(len(rel)))
                         for k in range(len(Q[0])))

        vert_coords = [mbar(v) for v in verts]
        coeffs = []
        for ray in star.rays:
            coeffs.append(-min(lattice.pairing(s, ray) for s in vert_coords))
        self.degree = self.ring.degree_class(coeffs)
        # a term's point lies in delta; it lies on the face when it is tight
        # at every facet containing the face
        facets = delta.facets()
        tight = [facets[i][:2] for i in face.facets]
        terms = {}
        for exps, coeff in analysis.f.terms.items():
            m = fine_ring.point_of_monomial(exps, analysis.f.degree)
            if any(lattice.pairing(m, n) != r for n, r in tight):
                continue
            s = mbar(m)
            exps_sigma = tuple(a + lattice.pairing(s, ray)
                               for a, ray in zip(coeffs, star.rays))
            terms[exps_sigma] = terms.get(exps_sigma, Fraction(0)) + coeff
        self.polynomial = GradedPolynomial(self.ring, terms, self.degree)
        self._certificate = None
        self._cup = None

    @property
    def certificate(self):
        if self._certificate is None:
            self._certificate = nondegeneracy_certificate(self.polynomial)
        return self._certificate

    @property
    def cup(self) -> CupProduct:
        if self._cup is None:
            if not self.certificate.certified:
                raise CertificateError(
                    f"restricted polynomial on the 2-cone "
                    f"{sorted(self.sigma.ray_indices)} is not certified nondegenerate")
            self._cup = CupProduct(self.ring, self.polynomial, self.certificate)
        return self._cup

    def level_piece(self, a: int) -> R1Piece:
        return R1Piece(self.polynomial, a * self.degree - self.ring.beta0)


def _same_cone_in(fan: Fan, cone: ConeRef) -> ConeRef:
    """The cone of `fan` spanned by the same rays as `cone` (which may come
    from a different but equal fan with another ray order)."""
    if cone.fan is fan:
        return cone
    try:
        idx = frozenset(fan.rays.index(g) for g in cone.generators())
    except ValueError as exc:
        raise ValidationError("cone rays are not rays of this fan") from exc
    return fan.cone_ref(idx)


def face_polynomial(f: GradedPolynomial, sigma: ConeRef,
                    coarse: Fan | None = None) -> GradedPolynomial:
    """The polynomial cutting the hypersurface out of the orbit-closure
    surface of a 2-cone: the terms of f on the matching face of the section
    polytope, rewritten in quotient-lattice coordinates."""
    analysis = ThreefoldAnalysis(f, coarse)
    slice_ = SurfaceSlice(analysis, _same_cone_in(analysis.coarse, sigma))
    return slice_.polynomial


class H3Block:
    """One summand of a Hodge piece of H^3, on the coset basis of its R_1 piece."""

    def __init__(self, level: int, kind: str, piece: R1Piece, sigma: tuple | None = None,
                 interior_ray: int | None = None):
        self.level = level
        self.kind = kind                    # "ring" or "link"
        self.piece = piece
        self.sigma = sigma                  # coarse-fan ray indices of the 2-cone
        self.interior_ray = interior_ray

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
        v = self.rows[i].get(j)
        if v is not None:
            return v
        rb, _ = _locate(self.row_blocks, i)
        cb, _ = _locate(self.col_blocks, j)
        return PairingValue(Fraction(0), 2 if rb.kind == cb.kind == "link" else 4)

    def rank(self) -> int:
        """Rank over Q, from the listed cells in a `SparseEchelon`.  The dense
        route (`lattice.matrix_rank` on every cell) is the `--verify` check."""
        echelon = SparseEchelon(self.columns)
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

    def __init__(self, f: GradedPolynomial, coarse: Fan | None = None):
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
        self.coarse = coarse if coarse is not None else self.divisor.sigma_d()
        if not ring.fan.is_refinement(self.coarse):
            raise PreconditionError("the given coarse fan is not refined by the fan of f")
        self.delta = self.divisor.section_polytope()
        self._certificate = None
        self.charts = two_cone_charts(ring.fan, self.coarse)
        self._slices = {}
        self._blocks = {}
        self._cup = None

    @property
    def certificate(self):
        """The nondegeneracy certificate of f, computed on first use."""
        if self._certificate is None:
            self._certificate = nondegeneracy_certificate(self.f)
        if not self._certificate.certified:
            raise CertificateError("hypersurface section is not certified nondegenerate")
        return self._certificate

    # -- pieces -----------------------------------------------------------------

    def surface(self, sigma: ConeRef) -> SurfaceSlice:
        sigma = _same_cone_in(self.coarse, sigma)
        key = sigma.ray_indices
        if key not in self._slices:
            self._slices[key] = SurfaceSlice(self, sigma)
        return self._slices[key]

    def bulk_piece(self, a: int) -> R1Piece:
        gamma = (a + 1) * self.f.degree - self.ring.beta0
        # The certificate's span is J_0(f) in its degree: with u(x^E) the
        # lattice point of a term, x_i df/dx_i = a_i f + sum_k e_ik D_k f
        # where D_k multiplies each term by u_k, and the rows (a_i, e_i),
        # i in I, have determinant +-c_I != 0, so the weighted partials
        # of I span those of every variable and generate J_0.
        span = self.certificate.span
        j0 = span if span.degree == gamma + self.ring.beta0 else None
        return R1Piece(self.f, gamma, _j0=j0)

    @property
    def cup(self) -> CupProduct:
        if self._cup is None:
            self._cup = CupProduct(self.ring, self.f, self.certificate)
        return self._cup

    def blocks(self, a: int):
        """The summands of H^{3-a,a}: the ring piece, then one link piece per
        interior ray of every subdivided 2-cone.  A level's blocks, and so
        its pieces, are built once."""
        if not 0 <= a <= 3:
            raise ValidationError("level out of range 0..3")
        if a not in self._blocks:
            out = [H3Block(a, "ring", self.bulk_piece(a))]
            for chart in self.charts:
                if chart.n_interior == 0:
                    continue
                piece = self.surface(chart.sigma).level_piece(a)
                sigma = tuple(sorted(chart.sigma.ray_indices))
                out += [H3Block(a, "link", piece, sigma, i) for i in chart.interior_rays]
            self._blocks[a] = out
        return self._blocks[a]

    def hodge_number(self, a: int) -> int:
        return sum(b.dim for b in self.blocks(a))

    def decomposition(self):
        return {a: self.blocks(a) for a in range(4)}

    # -- the cup product -----------------------------------------------------------

    def gram(self, a: int, b: int) -> GramBlock:
        """Pairing matrix between levels a and b = 3 - a on the block bases.

        Every basis element is a monomial, so each entry is a factor fixed by
        its pair of blocks times eta of one monomial product x^(e_A + e_B);
        eta is evaluated once per distinct product, a sum of two monomial
        codes (`CupProduct.eta_of_code`).
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
        if rb.sigma != cb.sigma:
            return 0, None, 2
        chart = next(c for c in self.charts
                     if tuple(sorted(c.sigma.ray_indices)) == rb.sigma)
        cup = self.surface(chart.sigma).cup
        sign = -1 if a % 2 == 0 else 1                       # (-1)^(a - 1)
        if rb.interior_ray == cb.interior_ray:
            m1, m2 = chart.flanking_segments(rb.interior_ray)
            return -sign * Fraction(chart.sum_mults[rb.interior_ray], m1 * m2), cup, 2
        seg = chart.segment_between(rb.interior_ray, cb.interior_ray)
        return (0 if seg is None else Fraction(sign, seg)), cup, 2

    def _block_rows(self, rb: H3Block, col_blocks, a: int):
        """The rows of gram(a, 3 - a) through block rb, by their nonzero cells."""
        rows = [{} for _ in range(rb.dim)]
        c0 = 0
        for cb in col_blocks:
            scale, cup, k = self._block_factor(rb, cb, a)
            if scale:
                eta = cup.eta_of_code
                cols = list(enumerate(cb.piece.coset_codes, c0))
                for row, ca in zip(rows, rb.piece.coset_codes):
                    for j, cc in cols:
                        if v := eta(ca + cc):   # most traces vanish
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
    for block in blocks:
        if index < block.dim:
            return block, index
        index -= block.dim
    raise ValidationError("Gram index out of range")
