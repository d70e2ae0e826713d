"""The homogeneous coordinate ring of a complete toric variety.

One variable per ray, graded by the divisor class group Z^n / im(M).
Degree classes carry a canonical normal form (via the Smith normal form of
the ray matrix), graded pieces get explicit monomial bases through lattice
points of section polytopes, and ideal pieces are handled degree by degree
with sparse exact row reduction.  No Groebner bases anywhere.

Inside the graded-piece kernel a monomial x^e is one integer, its code
sum_i e_i 2^(SLOT (n-1-i)): exponent e_i fills slot i, the first variable
in the top slot.  While every exponent stays below 2^SLOT the code is
injective, integer order is the lex order of exponent vectors, and a
product of monomials is the sum of their codes.  `monomial_basis` refuses
a piece whose exponents could reach 2^(SLOT-1), so a sum of two codes of
pieces never carries from one slot into the next.  The code is an affine
form on the section polytope, so along each run of the lattice-point scan
(`polytope._integer_runs`) it is one range.  Tuples of exponents stay the
interface of `GradedPolynomial`; bases, coset bases of `R1Piece` among them,
keep codes and decode them only when their tuples are read.

An ideal piece skips rows by the Koszul criterion (the first criterion of
Faugere's F5): with LT(g) the lex-largest exponent vector of a generator,
the row m * g_j is left out when LT(g_i) divides m for some i < j.  The
skip is exact.  Write m = m' LT(g_i); then, with c the coefficient of
LT(g_i), c m g_j = m' g_j * g_i - m' (g_i - c LT(g_i)) * g_j.  The first
term is a combination of rows t * g_i with i < j, the second of rows
t * g_j with t below m in the lex order, which is multiplicative; by
induction on j and on the multiplier both lie in the span of the kept rows.
The span is unchanged, so are its pivot columns and every reduction.
Each kept row has lead 1 at a column known in advance, and is adopted by
the echelon as it stands when it meets no pivot column.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from math import ceil, floor

from . import lattice
from .errors import CertificateError, InconsistencyError, PreconditionError, ValidationError
from .fan import Fan
from .linalg import _ONE, SparseEchelon, solve_unique
from .polytope import HPolytope, _integer_runs, vertices_from_inequalities

SLOT = 32  # bits per exponent in a monomial code
CERTIFIED_NONDEGENERATE = "CERTIFIED_NONDEGENERATE"
INCONCLUSIVE = "INCONCLUSIVE"


class DegreeClass:
    """An element of the class group, stored by its canonical representative."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: CoxRing, rep: tuple):
        self.ring = ring
        self.rep = rep

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


class GradedPieceBasis:
    """Lexicographic monomial basis of one graded piece S_beta.

    Monomial exponent vectors are in bijection with the lattice points of the
    section polytope of the canonical representative divisor.  The basis is
    the sorted list of monomial codes, `column` their positions; exponent
    vectors and their index are decoded when first read.
    """

    def __init__(self, degree: DegreeClass, codes: list, column: dict):
        self.degree = degree
        self.codes = codes
        self.column = column

    def __len__(self):
        return len(self.codes)

    @cached_property
    def exponents(self):
        return [self.degree.ring.decode(c) for c in self.codes]

    @cached_property
    def index(self):
        return {e: i for i, e in enumerate(self.exponents)}


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
        code, column = self.ring.code, self.basis.column
        row = {}
        for e, c in poly.terms.items():
            j = column.get(code(e))
            if j is None:
                raise InconsistencyError(f"monomial {e} missing from the graded basis")
            row[j] = c
        return row

    def _devectorize(self, row) -> GradedPolynomial:
        decode, codes = self.ring.decode, self.basis.codes
        terms = {decode(codes[j]): c for j, c in row.items() if j < len(codes)}
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
        self._shifts = tuple(SLOT * (self.n - 1 - i) for i in range(self.n))
        self.beta0 = self.degree_class((1,) * self.n)
        self.ones = self.code((1,) * self.n)  # the code of x_1...x_n
        self.high = sum(1 << (SLOT - 1 + s) for s in self._shifts)  # 2^(SLOT-1) per slot

    # -- monomial codes ---------------------------------------------------------

    def code(self, exps) -> int:
        """The code sum_i e_i 2^(SLOT (n-1-i)) of x^exps (module docstring);
        exponents must stay below 2^(SLOT-1)."""
        if max(exps) >> (SLOT - 1):
            raise PreconditionError(
                f"exponent vector {tuple(exps)} past the 2^{SLOT - 1} that monomial codes hold")
        return sum(e << s for e, s in zip(exps, self._shifts))

    def decode(self, code: int) -> tuple:
        mask = (1 << SLOT) - 1
        return tuple(code >> s & mask for s in self._shifts)

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
        # integer box around its vertices; the exponent of x_i at m is the
        # slack a_i + <m, e_i>, so the code of the monomial is one affine
        # form in m, read off the scan
        ineqs = [(e, -ai) for e, ai in zip(rays, a)]
        verts = vertices_from_inequalities(HPolytope(ineqs)).vertices
        codes = []
        if verts:
            lo = [ceil(min(x)) for x in zip(*verts)]
            hi = [floor(max(x)) for x in zip(*verts)]
            # the carry guard: the largest slack over the box bounds every exponent
            top = max(ai + sum(max(c * l, c * h) for c, l, h in zip(e, lo, hi))
                      for e, ai in zip(rays, a))
            if top >> (SLOT - 1):
                raise PreconditionError(f"the piece of degree {list(a)} allows exponents up to "
                                        f"{top}, past the 2^{SLOT - 1} that monomial codes hold")
            form = ([sum(e[j] << s for e, s in zip(rays, self._shifts)) for j in range(self.d)],
                    sum(ai << s for ai, s in zip(a, self._shifts)))
            # along a run of the scan the code steps by the form's last
            # coefficient, so each run is one range of codes
            runs, (step,) = _integer_runs(ineqs, lo, hi, [form])
            if step:
                for (v,), lo_t, hi_t in runs:
                    codes.extend(range(v + step * lo_t, v + step * (hi_t + 1), step))
            else:   # rays past 2^SLOT in the last coordinate: runs of one point
                codes.extend(v for (v,), lo_t, hi_t in runs for _ in range(lo_t, hi_t + 1))
            codes.sort()
        basis = GradedPieceBasis(beta, codes, {c: i for i, c in enumerate(codes)})
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
    exact: see the module docstring), tested by one subtraction per lead:
    with every exponent below 2^(SLOT-1), slot k of (m | high) - LT(g_i) is
    m_k + 2^(SLOT-1) - LT_k, which borrows from no other slot and keeps its
    top bit exactly when m_k >= LT_k.  Generators are scaled to 1 at their
    lex-first term, the lead of each row m * g (basis indices follow the
    translation-invariant lex order), so every row is adopted at the column
    of that term shifted by m (`SparseEchelon.adopt`).
    """
    ring = gamma.ring
    space = GradedSubspace(ring, gamma)
    column, adopt, code, high = space.basis.column, space.echelon.adopt, ring.code, ring.high
    leads = []   # codes of LT(g_i) for the generators already done
    for g in generators:
        if g.is_zero():
            continue
        first = min(g.terms)
        c0 = g.terms[first]
        terms = [(code(e), c if c0 == 1 else c / c0) for e, c in g.terms.items()]
        lead = code(first)
        for m in ring.monomial_basis(gamma - g.degree).codes:
            mh = m | high
            for lt in leads:
                if (mh - lt) & high == high:   # LT(g_i) divides m
                    break
            else:
                adopt(column[lead + m], {column[e + m]: c for e, c in terms})
        leads.append(code(max(g.terms)))
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
    as the kernel of the shifted reduction map (the shift by x_1...x_n adds
    `CoxRing.ones` to each monomial code), tracked with tag columns; a
    monomial whose shift reduces to zero is a kernel row by itself, with no
    tracker step.  `j1` echelonizes the kernel rows on first access only.
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
        column, ones = j0.basis.column, ring.ones
        ncols = len(column)
        tracker = SparseEchelon(ncols)
        coset_codes = []
        kernel_rows = []
        for i, m in enumerate(self.ambient.codes):
            residual = j0.echelon.reduce({column[m + ones]: _ONE})
            if not residual:   # m x_1...x_n is in J_0; tag columns are never pivots
                kernel_rows.append({i: _ONE})
                continue
            residual[ncols + i] = _ONE
            piv, resid = tracker.insert(residual)
            if piv is None:
                kernel_rows.append({k - ncols: v for k, v in resid.items()})
            else:
                coset_codes.append(m)
        self._kernel_rows = kernel_rows
        self.coset_codes = coset_codes

    @cached_property
    def coset_exponents(self) -> list:
        """The coset basis as exponent tuples, decoded on first access."""
        return [self.ring.decode(m) for m in self.coset_codes]

    @cached_property
    def j1(self) -> GradedSubspace:
        """J_1(f)_gamma, echelonized from the kernel rows on first access."""
        j1 = GradedSubspace(self.ring, self.gamma)
        for row in self._kernel_rows:
            j1.insert_row(row)
        return j1

    @property
    def dim(self) -> int:
        return len(self.coset_codes)


def j1_graded_piece(f: GradedPolynomial, gamma: DegreeClass) -> GradedSubspace:
    return R1Piece(f, gamma).j1


def r1_dim(f: GradedPolynomial, gamma: DegreeClass) -> int:
    return R1Piece(f, gamma).dim


def reduce_modulo(subspace: GradedSubspace, h: GradedPolynomial) -> GradedPolynomial:
    """Canonical coset representative of h modulo the echelonized subspace."""
    return subspace.reduce(h)


class NondegeneracyCertificate:
    """The verdict, with the echelonized span of the weighted partials F_I in
    the critical degree and their toric Jacobian (None when the codimension
    test already failed), kept so the residue map need not rebuild them."""

    def __init__(self, verdict: str, index_set: tuple, codim: int, jacobian_in_span: bool,
                 span: GradedSubspace | None = None, jacobian: GradedPolynomial | None = None):
        self.verdict = verdict
        self.index_set = index_set
        self.codim = codim
        self.jacobian_in_span = jacobian_in_span
        self.span = span
        self.jacobian = jacobian

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED_NONDEGENERATE


def nondegeneracy_certificate(f: GradedPolynomial) -> NondegeneracyCertificate:
    """Certify that the weighted partials have no common zero.

    Certified when, for an admissible index set I, the span of the weighted
    partials in degree (d+1)beta - beta_0 has codimension exactly one and
    the toric Jacobian lies outside it.  Sufficient, not necessary.
    """
    from .residue import _first_admissible, toric_jacobian

    ring = f.ring
    beta = f.degree
    if beta == ring.zero_degree():
        raise PreconditionError("nondegeneracy is about hypersurfaces of nonzero degree")
    I = _first_admissible(ring, beta)
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
