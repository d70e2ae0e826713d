"""Middle cohomology of regular semiample hypersurfaces in rank-4 fans.

The middle cohomology splits into a part coming from the graded ring of the
ambient variety and, for every 2-cone of the coarse fan subdivided by
interior rays, copies of the analogous ring of a regular ample curve in the
orbit-closure surface.  The cup product is block anti-diagonal across
complementary levels; ring-by-surface blocks vanish, surface blocks are
scaled by lattice multiplicities of the flanking 2-cones.

Every basis element is a monomial, so a Gram entry is a block factor times
the trace eta of one monomial product; eta is evaluated once per distinct
product.  The route through products of basis polynomials and
`CupProduct.pair` is kept as the oracle (`entry_by_polynomials`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from . import lattice
from .coxring import CoxRing, GradedPolynomial, R1Piece, nondegeneracy_certificate
from .divisor import TorusInvariantDivisor
from .errors import (
    CertificateError,
    InconsistencyError,
    PreconditionError,
    ValidationError,
)
from .fan import ConeRef, Fan, cone_contains
from .linalg import SparseEchelon, solve_unique
from .residue import CupProduct, PairingValue, cup_constant


@dataclass
class TwoConeChart:
    """A 2-cone of the coarse fan with the fine-fan rays subdividing it.

    chain lists fine-fan ray indices from one boundary ray to the other, in
    angular order; the interior entries are exactly the subdividing rays.
    Each consecutive pair spans a 2-cone of the fine fan.
    """

    sigma: ConeRef
    chain: list
    seg_mults: list        # multiplicity of each consecutive-pair 2-cone
    sum_mults: dict        # interior ray index -> mult of the flanking sum cone

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
    coarse_ray_set = set(coarse.rays)
    fine_two_cones = {c.ray_indices for c in fine.cones(2)}
    charts = []
    for sigma in coarse.cones(2):
        gens = sigma.generators()
        boundary = [fine.rays.index(g) for g in gens]
        interior = []
        for i, r in enumerate(fine.rays):
            if r in gens or r in coarse_ray_set:
                continue
            if cone_contains(gens, r):
                interior.append(i)

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
        base = min(face.vertices())
        if any(Fraction(x).denominator != 1 for x in base):
            raise PreconditionError("face of the section polytope is not a lattice polytope")
        base = tuple(int(x) for x in base)

        def mbar(point):
            rel = [a - b for a, b in zip(point, base)]
            return tuple(sum(Q[j][k] * rel[j] for j in range(len(rel)))
                         for k in range(len(Q[0])))

        vert_coords = [mbar(tuple(int(x) for x in v)) for v in face.vertices()]
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
        self._pieces = {}

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
        if a not in self._pieces:
            gamma = a * self.degree - self.ring.beta0
            self._pieces[a] = R1Piece(self.polynomial, gamma)
        return self._pieces[a]


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
    analysis = ThreefoldAnalysis(f, coarse, _check_certificate=False)
    slice_ = SurfaceSlice(analysis, _same_cone_in(analysis.coarse, sigma))
    return slice_.polynomial


def h3_decomposition(f: GradedPolynomial, coarse: Fan | None = None):
    """Block decomposition of the middle cohomology, keyed by level."""
    return ThreefoldAnalysis(f, coarse).decomposition()


def gram_h3(f: GradedPolynomial, coarse: Fan | None = None):
    """Pairing matrices between all complementary levels."""
    analysis = ThreefoldAnalysis(f, coarse)
    return [analysis.gram(a, 3 - a) for a in range(4)]


@dataclass
class H3Block:
    """One summand of a Hodge piece of the middle cohomology."""

    level: int
    kind: str                      # "ring" or "link"
    dim: int
    basis_exponents: list
    sigma: tuple | None = None     # coarse-fan ray indices of the 2-cone
    interior_ray: int | None = None


@dataclass
class GramBlock:
    """The pairing matrix between the concatenated bases of two levels."""

    level_a: int
    level_b: int
    row_blocks: list
    col_blocks: list
    entries: list

    def rank(self) -> int:
        """Rank over Q; ring and link parts never mix, so the rank splits.

        Each part is ranked sparsely: the nonzero entries of its rows go into
        a `SparseEchelon`, whose rank is the part's rank.  The dense route
        (`lattice.matrix_rank` on the whole matrix) is the `--verify` check.
        """
        def part_rank(kind):
            cols = _expand_indices(self.col_blocks, kind)
            echelon = SparseEchelon(len(cols))
            for i in _expand_indices(self.row_blocks, kind):
                row = self.entries[i]
                echelon.insert({k: row[j].rational for k, j in enumerate(cols)
                                if row[j].rational})
            return echelon.rank

        return part_rank("ring") + part_rank("link")

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
    the link sign flips between complementary levels."""
    return all(grams[g.level_b].entries[j][i] == (-1) * v
               for g in grams
               for i, row in enumerate(g.entries)
               for j, v in enumerate(row))


def _expand_indices(blocks, kind):
    out = []
    offset = 0
    for b in blocks:
        if b.kind == kind:
            out.extend(range(offset, offset + b.dim))
        offset += b.dim
    return out


class ThreefoldAnalysis:
    """Middle-cohomology data of a regular semiample hypersurface, d = 4."""

    def __init__(self, f: GradedPolynomial, coarse: Fan | None = None,
                 _check_certificate: bool = True):
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
        self.certificate = None
        if _check_certificate:
            self.certificate = nondegeneracy_certificate(f)
            if not self.certificate.certified:
                raise CertificateError(
                    "hypersurface section is not certified nondegenerate")
        self.charts = two_cone_charts(ring.fan, self.coarse)
        self._slices = {}
        self._bulk_pieces = {}
        self._cup = None

    # -- pieces -----------------------------------------------------------------

    def surface(self, sigma: ConeRef) -> SurfaceSlice:
        sigma = _same_cone_in(self.coarse, sigma)
        key = sigma.ray_indices
        if key not in self._slices:
            self._slices[key] = SurfaceSlice(self, sigma)
        return self._slices[key]

    def bulk_piece(self, a: int) -> R1Piece:
        if a not in self._bulk_pieces:
            gamma = (a + 1) * self.f.degree - self.ring.beta0
            # The certificate's span is J_0(f) in its degree: with u(x^E) the
            # lattice point of a term, x_i df/dx_i = a_i f + sum_k e_ik D_k f
            # where D_k multiplies each term by u_k, and the rows (a_i, e_i),
            # i in I, have determinant +-c_I != 0, so the weighted partials
            # of I span those of every variable and generate J_0.
            cert = self.certificate
            j0 = (cert.span if cert is not None
                  and cert.span.degree == gamma + self.ring.beta0 else None)
            self._bulk_pieces[a] = R1Piece(self.f, gamma, _j0=j0)
        return self._bulk_pieces[a]

    @property
    def cup(self) -> CupProduct:
        if self._cup is None:
            self._cup = CupProduct(self.ring, self.f, self.certificate)
        return self._cup

    def blocks(self, a: int):
        """The summands of H^{3-a,a}: the ring piece, then one link piece per
        interior ray of every subdivided 2-cone."""
        if not 0 <= a <= 3:
            raise ValidationError("level out of range 0..3")
        bulk = self.bulk_piece(a)
        out = [H3Block(a, "ring", bulk.dim, list(bulk.coset_exponents))]
        for chart in self.charts:
            if chart.n_interior == 0:
                continue
            piece = self.surface(chart.sigma).level_piece(a)
            for i in chart.interior_rays:
                out.append(H3Block(a, "link", piece.dim,
                                   list(piece.coset_exponents),
                                   sigma=tuple(sorted(chart.sigma.ray_indices)),
                                   interior_ray=i))
        return out

    def hodge_number(self, a: int) -> int:
        return sum(b.dim for b in self.blocks(a))

    def decomposition(self):
        return {a: self.blocks(a) for a in range(4)}

    # -- the cup product -----------------------------------------------------------

    def gram(self, a: int, b: int) -> GramBlock:
        """Pairing matrix between levels a and b = 3 - a on the block bases.

        Every basis element is a monomial, so each entry is a factor fixed by
        its pair of blocks times eta of one monomial product x^(e_A + e_B);
        eta is evaluated once per distinct product (`CupProduct.eta_monomial`).
        `entry_by_polynomials` is the route through products of polynomials.
        """
        if a + b != 3:
            raise ValidationError("the pairing couples complementary levels only")
        rows = self.blocks(a)
        cols = self.blocks(b)
        for level, blocks in ((a, rows), (b, cols)):
            for block in blocks:
                self._check_basis_degree(block, level)
        entries = []
        for rb in rows:
            parts = [self._block_entries(rb, cb, a) for cb in cols]
            entries.extend([v for part in parts for v in part[i]]
                           for i in range(rb.dim))
        return GramBlock(a, b, rows, cols, entries)

    def _check_basis_degree(self, block: H3Block, level: int):
        if block.kind == "ring":
            ring = self.ring
            degree = (level + 1) * self.f.degree - ring.beta0
        else:
            slice_ = self.surface(self.coarse.cone_ref(block.sigma))
            ring = slice_.ring
            degree = level * slice_.degree - ring.beta0
        if any(ring.degree_of_monomial(e) != degree for e in block.basis_exponents):
            raise InconsistencyError(
                f"a level-{level} {block.kind} basis monomial has the wrong degree")

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

    def _block_entries(self, rb: H3Block, cb: H3Block, a: int):
        """The rb.dim x cb.dim sub-block of gram(a, 3 - a) between two blocks."""
        scale, cup, k = self._block_factor(rb, cb, a)
        if not scale:
            zero = PairingValue(Fraction(0), k)
            return [[zero] * cb.dim for _ in range(rb.dim)]
        eta = cup.eta_monomial
        return [[PairingValue(scale * eta(tuple(map(add, ea, eb))), k)
                 for eb in cb.basis_exponents]
                for ea in rb.basis_exponents]

    def entry_by_polynomials(self, a: int, i: int, j: int) -> PairingValue:
        """Entry (i, j) of gram(a, 3 - a) from the product of the two basis
        polynomials, through `CupProduct.pair` for ring blocks and the
        slice's `eta` for link blocks: the oracle for the monomial route."""
        rb, ri = _locate(self.blocks(a), i)
        cb, ci = _locate(self.blocks(3 - a), j)
        scale, cup, k = self._block_factor(rb, cb, a)
        if not scale:
            return PairingValue(Fraction(0), k)
        A = cup.ring.monomial(rb.basis_exponents[ri])
        B = cup.ring.monomial(cb.basis_exponents[ci])
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
