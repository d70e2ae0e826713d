"""The homogeneous coordinate ring of a complete toric variety.

One variable per ray, graded by the divisor class group Z^n / im(M).
Degree classes carry a canonical normal form (`lattice.QuotientForm` of
the ray matrix, lifted back to Z^n), graded pieces get explicit monomial
bases through lattice points of section polytopes, and ideal pieces are
handled degree by degree with sparse exact row reduction.  No Groebner
bases anywhere.

Inside the graded-piece kernel a monomial x^e is one integer, its code
sum_i e_i 2^(SLOT (n-1-i)): exponent e_i fills slot i, the first variable
in the top slot.  While every exponent stays below 2^SLOT the code is
injective, integer order is the lex order of exponent vectors, and a
product of monomials is the sum of their codes.  `monomial_basis` refuses
a piece whose exponents could reach 2^(SLOT-1), so a sum of two codes of
pieces never carries from one slot into the next.  The code is an affine
form on the section polytope, so along each run of the lattice-point scan
(`polytope._integer_runs`, run along the widest coordinate of the box) it
is one range.  Tuples of exponents stay the interface of
`GradedPolynomial`; bases, coset bases of `R1Piece` among them, keep codes
and decode them only when their tuples are read.

An ideal piece skips rows by the Koszul criterion (the first criterion of
Faugere's F5): with LT(g) the lex-largest exponent vector of a generator,
the row m * g_j is left out when LT(g_i) divides m for some i < j.  The
skip is exact.  Write m = m' LT(g_i); then, with c the coefficient of
LT(g_i), c m g_j = m' g_j * g_i - m' (g_i - c LT(g_i)) * g_j.  The first
term is a combination of rows t * g_i with i < j, the second of rows
t * g_j with t below m in the lex order, which is multiplicative; by
induction on j and on the multiplier both lie in the span of the kept rows.
The span is unchanged, so are its pivot columns and every reduction.
Each kept row has lead 1 at a column known in advance and is adopted by
reference, a `_ShiftedRow` whose dict is built when a reduction reads it.

J_0(f) and R_1(f) are built on one generator list, `j0_generators(f)`;
`residue` certifies f on the same list.  R_1(f) is computed as a monomial
coset basis of S / (J_0 : x_1...x_n), its only reading; J_1 is never built.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from math import ceil, floor

from . import lattice
from .errors import InconsistencyError, PreconditionError, ValidationError
from .fan import Fan
from .linalg import _ONE, SparseEchelon
from .polytope import HPolytope, _integer_runs, _widest_last, vertices_from_inequalities

SLOT = 32  # bits per exponent in a monomial code


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
            degree = ring.degree_class(next(iter(clean)))
        if not _trusted:
            for exps in clean:
                if ring.degree_class(exps) != degree:
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
            self.degree - self.ring.degree_class(exps), _trusted=True)

    def __repr__(self):
        parts = [f"{c}*x^{e}" for e, c in sorted(self.terms.items())]
        return " + ".join(parts) if parts else "0"


class GradedSubspace:
    """A subspace of one graded piece, kept in sparse echelon form."""

    def __init__(self, ring: "CoxRing", degree: DegreeClass):
        self.ring = ring
        self.degree = degree
        self.basis = ring.monomial_basis(degree)
        self.echelon = SparseEchelon()

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
        terms = {decode(codes[j]): c for j, c in row.items()}
        return GradedPolynomial(self.ring, terms, self.degree, _trusted=True)

    def insert(self, poly: GradedPolynomial):
        self.echelon.insert(self._vectorize(poly))

    def reduce(self, poly: GradedPolynomial) -> GradedPolynomial:
        """Canonical representative of the coset of poly."""
        return self._devectorize(self.echelon.reduce(self._vectorize(poly)))


class CoxRing:
    """Homogeneous coordinate ring of a complete fan, with graded-piece caches."""

    def __init__(self, fan: Fan):
        if not fan.is_complete:
            raise PreconditionError("the coordinate ring grading needs a complete fan")
        self.fan = fan
        self.n = len(fan.rays)
        self.d = fan.dim
        # the columns of the ray matrix span im(M), the principal divisors
        self._classes = lattice.QuotientForm(fan.rays, self.n)
        if self._classes.rank < self.d:
            raise PreconditionError("rays do not span the ambient lattice")
        Uinv = lattice.inverse_unimodular(self._classes.U)
        self._lift = [[Uinv[i][k] for k in self._classes.kept] for i in range(self.n)]
        self._nf_cache: dict = {}
        self._basis_cache: dict = {}
        self._shifts = tuple(SLOT * (self.n - 1 - i) for i in range(self.n))
        self.beta0 = self.degree_class((1,) * self.n)
        self.ones = self.code((1,) * self.n)  # the code of x_1...x_n
        self.high = sum(1 << (SLOT - 1 + s) for s in self._shifts)  # 2^(SLOT-1) per slot

    # -- monomial codes ---------------------------------------------------------

    def code(self, exps) -> int:
        """The code sum_i e_i 2^(SLOT (n-1-i)) of x^exps (module docstring);
        the n exponents must lie in 0..2^(SLOT-1) - 1."""
        if len(exps) != self.n or min(exps) < 0:
            raise ValidationError(f"bad exponent vector {tuple(exps)}")
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
        u = self._classes(key)
        nf = tuple(sum(a * b for a, b in zip(row, u)) for row in self._lift)
        self._nf_cache[key] = nf
        return nf

    def degree_class(self, vec) -> DegreeClass:
        return DegreeClass(self, self._normal_form(vec))

    def variable_degree(self, i: int) -> DegreeClass:
        return self.degree_class(tuple(int(j == i) for j in range(self.n)))

    def zero_degree(self) -> DegreeClass:
        return self.degree_class((0,) * self.n)

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
            # the code is the first of a run's sums and steps by the form's last
            # coefficient, so each run is one range of codes; codes are
            # injective, so a run with step 0 (rays past 2^SLOT) is one point
            runs, (step,) = _integer_runs(*_widest_last(ineqs, lo, hi, [form]))
            for sums, lo_t, hi_t in runs:
                v = sums[0]
                codes.extend(range(v + step * lo_t, v + step * (hi_t + 1), step) if step else (v,))
            codes.sort()
        basis = GradedPieceBasis(beta, codes, {c: i for i, c in enumerate(codes)})
        self._basis_cache[beta.rep] = basis
        return basis

    def piece_dim(self, beta: DegreeClass) -> int:
        return len(self.monomial_basis(beta))

    def point_of_monomial(self, exps, beta: DegreeClass):
        """Lattice point of the section polytope matching a monomial."""
        rhs = [e - a for e, a in zip(exps, beta.rep)]
        sol = lattice.rational_solution(self.fan.rays, rhs)
        if sol is None or sol[1] != 1:
            raise InconsistencyError("monomial does not match the divisor data")
        return tuple(sol[0])


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
        c0, lead = g.terms[first], code(first)
        terms = [(code(e), c if c0 == 1 else c / c0) for e, c in g.terms.items()]
        multipliers = ring.monomial_basis(gamma - g.degree).codes
        for done in leads:   # drop the m that LT(g_i) divides
            multipliers = [m for m in multipliers if (m | high) - done & high != high]
        for m in multipliers:
            adopt(column[lead + m], _ShiftedRow(column, terms, m))
        leads.append(code(max(g.terms)))
    return space


class _ShiftedRow:
    """The row of m * g over `column`, g by its coded terms, built when read."""

    __slots__ = ("column", "terms", "m", "row")

    def __init__(self, column, terms, m):
        self.column = column
        self.terms = terms
        self.m = m
        self.row = None

    def items(self):
        if self.row is None:
            self.row = {self.column[e + self.m]: c for e, c in self.terms}
        return self.row.items()


def jacobian_piece(f: GradedPolynomial, gamma: DegreeClass) -> GradedSubspace:
    """J(f)_gamma: the degree-gamma piece of the ideal of ordinary partials."""
    return ideal_graded_piece([f.partial(i) for i in range(f.ring.n)], gamma)


def euler_basis(beta: DegreeClass) -> tuple:
    """The lex-first row basis of the n x (d+1) matrix with rows (a_i, e_i),
    a = beta.rep: the pivot columns of one elimination of its transpose.
    With d+1 rows it is the first admissible index set (c_I^beta != 0), as
    the greedy basis of a matroid is its lex-first one."""
    ring = beta.ring
    return tuple(lattice._eliminate([list(beta.rep), *map(list, zip(*ring.fan.rays))], ring.n)[1])


def j0_generators(f: GradedPolynomial) -> list:
    """The weighted partials over `euler_basis(f.degree)`: they span all
    x_i df/dx_i = a_i f + sum_k e_ik D_k f (D_k multiplies a term by the
    k-th coordinate of its lattice point) with the rows (a_i, e_i)."""
    return [f.weighted_partial(i) for i in euler_basis(f.degree)]


def j0_piece(f: GradedPolynomial, gamma: DegreeClass) -> GradedSubspace:
    """J_0(f)_gamma, on `j0_generators(f)`."""
    return ideal_graded_piece(j0_generators(f), gamma)


class R1Piece:
    """R_1(f)_gamma = (S / J_1(f))_gamma, held by a monomial coset basis.

    J_1(f)_gamma = {h : h * x_1...x_n in J_0(f)_{gamma + beta_0}} is the
    kernel of the shifted reduction map (the shift adds `CoxRing.ones` to a
    code).  In lex order, m is a coset monomial when the residual of its
    shift modulo J_0 is nonzero and independent, in one `SparseEchelon`, of
    the residuals of the monomials below it.  When LT(g) divides m, g in
    `j0_generators(f)`, m is the lex-largest term of m' g in J_0, inside J_1
    (m' = m / LT(g)), so its shift lies in the span of those below it, of
    the kept ones by induction: m takes no reduction.  No regularity of f is
    assumed.  J_0(f)_{gamma + beta_0} is built here unless at hand (`_j0`:
    the certificate's span is J_0 in its degree).
    """

    def __init__(self, f: GradedPolynomial, gamma: DegreeClass, _j0=None):
        ring = f.ring
        self.ring = ring
        self.ambient = ring.monomial_basis(gamma)
        shifted_degree = gamma + ring.beta0
        generators = [g for g in j0_generators(f) if not g.is_zero()]
        j0 = _j0 if _j0 is not None else ideal_graded_piece(generators, shifted_degree)
        if j0.degree != shifted_degree:
            raise InconsistencyError("the J_0 piece is not in the shifted degree")
        column, ones, high, reduce = j0.basis.column, ring.ones, ring.high, j0.echelon.reduce
        leads = [ring.code(max(g.terms)) for g in generators]
        residuals = SparseEchelon()
        coset_codes = []
        for m in self.ambient.codes:
            mh = m | high
            for lt in leads:
                if (mh - lt) & high == high:   # LT(g) divides m
                    break
            else:
                residual = reduce({column[m + ones]: _ONE})
                if residual and residuals.insert(residual)[0] is not None:
                    coset_codes.append(m)
        self.coset_codes = coset_codes

    @cached_property
    def coset_exponents(self) -> list:
        """The coset basis as exponent tuples, decoded on first access."""
        return [self.ring.decode(m) for m in self.coset_codes]

    @property
    def dim(self) -> int:
        return len(self.coset_codes)
