"""The homogeneous coordinate ring of a complete toric variety.

One variable per ray, graded by the divisor class group Z^n / im(M).
Degree classes carry a canonical normal form (via the Smith normal form of
the ray matrix), graded pieces get explicit monomial bases through lattice
points of section polytopes, and ideal pieces are handled degree by degree
with sparse exact row reduction.  No Groebner bases anywhere.

An ideal piece skips rows by the Koszul criterion (the first criterion of
Faugere's F5): with LT(g) the lex-largest exponent vector of a generator,
the row m * g_j is left out when LT(g_i) divides m for some i < j.  The
skip is exact.  Write m = m' LT(g_i); then, with c the coefficient of
LT(g_i), c m g_j = m' g_j * g_i - m' (g_i - c LT(g_i)) * g_j.  The first
term is a combination of rows t * g_i with i < j, the second of rows
t * g_j with t below m in the lex order, which is multiplicative; by
induction on j and on the multiplier both lie in the span of the kept rows.
The span is unchanged, so are its pivot columns and every reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import ceil, floor
from operator import add, ge, mul

from . import lattice
from .errors import CertificateError, InconsistencyError, PreconditionError, ValidationError
from .fan import Fan
from .linalg import SparseEchelon, solve_unique
from .polytope import HPolytope, _enumerate_integer_points, vertices_from_inequalities

CERTIFIED_NONDEGENERATE = "CERTIFIED_NONDEGENERATE"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class DegreeClass:
    """An element of the class group, stored by its canonical representative."""

    ring: "CoxRing"
    rep: tuple

    def __add__(self, other):
        self._same_ring(other)
        return self.ring.degree_class([a + b for a, b in zip(self.rep, other.rep)])

    def __sub__(self, other):
        self._same_ring(other)
        return self.ring.degree_class([a - b for a, b in zip(self.rep, other.rep)])

    def __rmul__(self, k: int):
        return self.ring.degree_class([int(k) * a for a in self.rep])

    def __eq__(self, other):
        return (isinstance(other, DegreeClass) and self.ring is other.ring
                and self.rep == other.rep)

    def __hash__(self):
        return hash(self.rep)

    def _same_ring(self, other):
        if self.ring is not other.ring:
            raise ValidationError("degree classes from different rings")

    def __repr__(self):
        return f"DegreeClass{self.rep}"


@dataclass
class GradedPieceBasis:
    """Lexicographic monomial basis of one graded piece S_beta.

    Monomial exponent vectors are in bijection with the lattice points of the
    section polytope of the canonical representative divisor.
    """

    degree: DegreeClass
    exponents: list
    points: list
    index: dict

    def __len__(self):
        return len(self.exponents)


class GradedPolynomial:
    """Exact-rational polynomial, homogeneous for the class-group grading."""

    def __init__(self, ring: "CoxRing", terms, degree: DegreeClass | None = None,
                 _trusted=False):
        self.ring = ring
        clean = {}
        for exps, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != ring.n or any(e < 0 for e in exps):
                raise ValidationError(f"bad exponent vector {exps}")
            clean[exps] = coeff
        if degree is None:
            if not clean:
                raise ValidationError("cannot infer the degree of the zero polynomial")
            degree = ring.degree_of_monomial(next(iter(clean)))
        if not _trusted:
            for exps in clean:
                if ring.degree_of_monomial(exps) != degree:
                    raise ValidationError(
                        f"monomial {exps} is not of the declared degree")
        self.degree = degree
        self.terms = clean

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValidationError("sum of polynomials of different degrees")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return GradedPolynomial(self.ring, terms, self.degree, _trusted=True)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, k):
        return GradedPolynomial(self.ring,
                                {e: Fraction(k) * c for e, c in self.terms.items()},
                                self.degree, _trusted=True)

    def __mul__(self, other):
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = terms.get(e, Fraction(0)) + c1 * c2
                if v:
                    terms[e] = v
                else:
                    terms.pop(e, None)
        return GradedPolynomial(self.ring, terms, self.degree + other.degree,
                                _trusted=True)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, GradedPolynomial) and self.ring is other.ring
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.terms.items()))))

    # -- calculus -------------------------------------------------------------

    def partial(self, i: int) -> "GradedPolynomial":
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            de = list(e)
            de[i] -= 1
            terms[tuple(de)] = c * e[i]
        return GradedPolynomial(self.ring, terms,
                                self.degree - self.ring.variable_degree(i),
                                _trusted=True)

    def weighted_partial(self, i: int) -> "GradedPolynomial":
        """x_i * d/dx_i; same degree, coefficients scaled by the exponent."""
        terms = {e: c * e[i] for e, c in self.terms.items() if e[i] != 0}
        return GradedPolynomial(self.ring, terms, self.degree, _trusted=True)

    def divide_by_monomial(self, exps) -> "GradedPolynomial":
        terms = {}
        for e, c in self.terms.items():
            q = tuple(a - b for a, b in zip(e, exps))
            if any(x < 0 for x in q):
                raise ValidationError(
                    f"term {e} is not divisible by the monomial {tuple(exps)}")
            terms[q] = c
        return GradedPolynomial(
            self.ring, terms,
            self.degree - self.ring.degree_of_monomial(exps), _trusted=True)

    def __repr__(self):
        parts = [f"{c}*x^{e}" for e, c in sorted(self.terms.items())]
        return " + ".join(parts) if parts else "0"


class GradedSubspace:
    """A subspace of one graded piece, kept in sparse echelon form."""

    def __init__(self, ring: "CoxRing", degree: DegreeClass):
        self.ring = ring
        self.degree = degree
        self.basis = ring.monomial_basis(degree)
        self.echelon = SparseEchelon(len(self.basis))

    @property
    def dim(self) -> int:
        return self.echelon.rank

    def codim(self) -> int:
        return len(self.basis) - self.dim

    def _vectorize(self, poly: GradedPolynomial):
        if poly.degree != self.degree:
            raise ValidationError("polynomial degree does not match the subspace")
        row = {}
        for e, c in poly.terms.items():
            j = self.basis.index.get(e)
            if j is None:
                raise InconsistencyError(f"monomial {e} missing from the graded basis")
            row[j] = c
        return row

    def _devectorize(self, row) -> GradedPolynomial:
        terms = {self.basis.exponents[j]: c for j, c in row.items() if j < len(self.basis)}
        return GradedPolynomial(self.ring, terms, self.degree, _trusted=True)

    def insert(self, poly: GradedPolynomial):
        self.echelon.insert(self._vectorize(poly))

    def insert_row(self, row):
        self.echelon.insert(row)

    def reduce(self, poly: GradedPolynomial) -> GradedPolynomial:
        """Canonical representative of the coset of poly."""
        return self._devectorize(self.echelon.reduce(self._vectorize(poly)))

    def contains(self, poly: GradedPolynomial) -> bool:
        return self.reduce(poly).is_zero()

    def reduced_row_basis(self):
        return [self._devectorize(r) for r in self.echelon.rref_rows()]


class CoxRing:
    """Homogeneous coordinate ring of a complete fan, with graded-piece caches."""

    def __init__(self, fan: Fan):
        if not fan.is_complete:
            raise PreconditionError("the coordinate ring grading needs a complete fan")
        self.fan = fan
        self.n = len(fan.rays)
        self.d = fan.dim
        E = [list(r) for r in fan.rays]
        U, D, _ = lattice.smith_normal_form(E)
        if any(D[i][i] == 0 for i in range(self.d)):
            raise PreconditionError("rays do not span the ambient lattice")
        self._U = U
        self._Uinv = lattice.inverse_unimodular(U)
        self._diag = [D[i][i] for i in range(self.d)]
        self._nf_cache: dict = {}
        self._basis_cache: dict = {}
        self.beta0 = self.degree_class((1,) * self.n)

    # -- grading ------------------------------------------------------------

    def _normal_form(self, vec):
        key = tuple(int(x) for x in vec)
        hit = self._nf_cache.get(key)
        if hit is not None:
            return hit
        if len(key) != self.n:
            raise ValidationError(f"degree vector of length {len(key)}, expected {self.n}")
        u = [sum(self._U[i][k] * key[k] for k in range(self.n)) for i in range(self.n)]
        for i in range(self.d):
            u[i] %= self._diag[i]
        nf = tuple(sum(self._Uinv[i][k] * u[k] for k in range(self.n))
                   for i in range(self.n))
        self._nf_cache[key] = nf
        return nf

    def degree_class(self, vec) -> DegreeClass:
        return DegreeClass(self, self._normal_form(vec))

    def degree_of_monomial(self, exps) -> DegreeClass:
        return self.degree_class(exps)

    def variable_degree(self, i: int) -> DegreeClass:
        return self.degree_class(tuple(int(j == i) for j in range(self.n)))

    def zero_degree(self) -> DegreeClass:
        return self.degree_class((0,) * self.n)

    def degrees_equal(self, a, b) -> bool:
        return self.degree_class(a) == self.degree_class(b)

    # -- polynomials -----------------------------------------------------------

    def polynomial(self, terms, degree: DegreeClass | None = None) -> GradedPolynomial:
        return GradedPolynomial(self, terms, degree)

    def monomial(self, exps, coeff=1) -> GradedPolynomial:
        return GradedPolynomial(self, {tuple(exps): Fraction(coeff)})

    def one(self) -> GradedPolynomial:
        return GradedPolynomial(self, {(0,) * self.n: Fraction(1)}, self.zero_degree(),
                                _trusted=True)

    def variables_product(self) -> GradedPolynomial:
        return GradedPolynomial(self, {(1,) * self.n: Fraction(1)}, self.beta0,
                                _trusted=True)

    def weighted_partials(self, f: GradedPolynomial):
        return [f.weighted_partial(i) for i in range(self.n)]

    # -- graded pieces -----------------------------------------------------------

    def monomial_basis(self, beta: DegreeClass) -> GradedPieceBasis:
        hit = self._basis_cache.get(beta.rep)
        if hit is not None:
            return hit
        a = beta.rep
        rays = self.fan.rays
        # the section polytope {m : a_i + <m, e_i> >= 0}, scanned inside the
        # integer box around its vertices
        ineqs = [(e, -ai) for e, ai in zip(rays, a)]
        verts = vertices_from_inequalities(HPolytope(ineqs)).vertices
        points = _enumerate_integer_points(
            ineqs, [ceil(min(x)) for x in zip(*verts)],
            [floor(max(x)) for x in zip(*verts)]) if verts else []
        pairs = sorted((tuple(ai + sum(map(mul, m, e)) for ai, e in zip(a, rays)), m)
                       for m in points)
        basis = GradedPieceBasis(
            degree=beta,
            exponents=[e for e, _ in pairs],
            points=[m for _, m in pairs],
            index={e: i for i, (e, _) in enumerate(pairs)})
        self._basis_cache[beta.rep] = basis
        return basis

    def piece_dim(self, beta: DegreeClass) -> int:
        return len(self.monomial_basis(beta))

    def point_of_monomial(self, exps, beta: DegreeClass):
        """Lattice point of the section polytope matching a monomial."""
        rhs = [e - a for e, a in zip(exps, beta.rep)]
        m = solve_unique([list(r) for r in self.fan.rays], rhs)
        if m is None or any(x.denominator != 1 for x in m):
            raise InconsistencyError("monomial does not match the divisor data")
        return tuple(int(x) for x in m)


# -- ideal pieces ------------------------------------------------------------------


def ideal_graded_piece(generators, gamma: DegreeClass) -> GradedSubspace:
    """Span of {g * m : g generator, m monomial, deg(g m) = gamma}, echelonized.

    The row m * g_j is skipped when LT(g_i) divides m for some i < j, LT
    being the lex-largest exponent vector of a generator (Koszul criterion,
    exact: see the module docstring).  Generators are scaled to 1 at their
    lex-first term, the lead of each row m * g (basis indices follow the
    translation-invariant lex order): an unreduced row enters with lead 1.
    """
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


def jacobian_piece(f: GradedPolynomial, gamma: DegreeClass) -> GradedSubspace:
    """J(f)_gamma: the degree-gamma piece of the ideal of ordinary partials."""
    return ideal_graded_piece([f.partial(i) for i in range(f.ring.n)], gamma)


def j0_piece(f: GradedPolynomial, gamma: DegreeClass) -> GradedSubspace:
    """J_0(f)_gamma: the piece of the ideal of weighted partials x_i df/dx_i."""
    return ideal_graded_piece(f.ring.weighted_partials(f), gamma)


class R1Piece:
    """R_1(f)_gamma = (S / J_1(f))_gamma together with a monomial coset basis.

    J_1(f)_gamma = {h : h * x_1...x_n in J_0(f)_{gamma + beta_0}} is computed
    as the kernel of the shifted reduction map, tracked with tag columns;
    `j1` echelonizes the kernel rows on first access only.
    J_0(f)_{gamma + beta_0} is built here unless already at hand (`_j0`, as a
    nondegeneracy certificate of f holds it in its critical degree).
    """

    def __init__(self, f: GradedPolynomial, gamma: DegreeClass, _j0=None):
        ring = f.ring
        self.ring = ring
        self.gamma = gamma
        self.ambient = ring.monomial_basis(gamma)
        shifted_degree = gamma + ring.beta0
        j0 = _j0 if _j0 is not None else j0_piece(f, shifted_degree)
        if j0.degree != shifted_degree:
            raise InconsistencyError("the J_0 piece is not in the shifted degree")
        shifted_basis = j0.basis
        ncols = len(shifted_basis)
        tracker = SparseEchelon(ncols)
        coset_exponents = []
        kernel_rows = []
        for i, exps in enumerate(self.ambient.exponents):
            shifted = tuple(e + 1 for e in exps)
            residual = j0.echelon.reduce({shifted_basis.index[shifted]: Fraction(1)})
            residual[ncols + i] = Fraction(1)
            piv, resid = tracker.insert(residual)
            if piv is None:
                kernel_rows.append({k - ncols: v for k, v in resid.items()})
            else:
                coset_exponents.append(exps)
        self._kernel_rows = kernel_rows
        self.coset_exponents = coset_exponents

    @cached_property
    def j1(self) -> GradedSubspace:
        """J_1(f)_gamma, echelonized from the kernel rows on first access."""
        j1 = GradedSubspace(self.ring, self.gamma)
        for row in self._kernel_rows:
            j1.insert_row(row)
        return j1

    @property
    def dim(self) -> int:
        return len(self.coset_exponents)


def j1_graded_piece(f: GradedPolynomial, gamma: DegreeClass) -> GradedSubspace:
    return R1Piece(f, gamma).j1


def r1_dim(f: GradedPolynomial, gamma: DegreeClass) -> int:
    return R1Piece(f, gamma).dim


def reduce_modulo(subspace: GradedSubspace, h: GradedPolynomial) -> GradedPolynomial:
    """Canonical coset representative of h modulo the echelonized subspace."""
    return subspace.reduce(h)


@dataclass
class NondegeneracyCertificate:
    """The verdict, with the echelonized span of the weighted partials F_I in
    the critical degree and their toric Jacobian (None when the codimension
    test already failed), kept so the residue map need not rebuild them."""

    verdict: str
    index_set: tuple
    codim: int
    jacobian_in_span: bool
    span: GradedSubspace | None = field(default=None, repr=False, compare=False)
    jacobian: GradedPolynomial | None = field(default=None, repr=False, compare=False)

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED_NONDEGENERATE


def nondegeneracy_certificate(f: GradedPolynomial) -> NondegeneracyCertificate:
    """Certify that the weighted partials have no common zero.

    Certified when, for an admissible index set I, the span of the weighted
    partials in degree (d+1)beta - beta_0 has codimension exactly one and
    the toric Jacobian lies outside it.  Sufficient, not necessary.
    """
    from .residue import admissible_index_sets, toric_jacobian

    ring = f.ring
    beta = f.degree
    if beta == ring.zero_degree():
        raise PreconditionError("nondegeneracy is about hypersurfaces of nonzero degree")
    picks = admissible_index_sets(ring, beta)
    if not picks:
        raise InconsistencyError(
            "no index set with nonzero degree determinant for a nonzero degree")
    I = picks[0]
    F = [f.weighted_partial(i) for i in I]
    rho = (ring.d + 1) * beta - ring.beta0
    span = ideal_graded_piece(F, rho)
    codim = span.codim()
    if codim != 1:
        return NondegeneracyCertificate(INCONCLUSIVE, I, codim, False, span)
    jf = toric_jacobian(ring, F, I)
    inside = span.contains(jf)
    verdict = INCONCLUSIVE if inside else CERTIFIED_NONDEGENERATE
    return NondegeneracyCertificate(verdict, I, codim, inside, span, jf)
