"""Toric residues and the algebraic cup-product pairing.

Everything is exact linear algebra in the critical degree rho = (d+1)beta -
beta_0.  A `NondegeneracyCertificate` of d+1 sections holds their span there,
its codimension, the toric Jacobian (on the first admissible index set;
`residue eval --verify` compares a second) and its one reduction modulo the
span; the residue map is read off a certified one, normalized on the
Jacobian to d! vol(Delta).  On top of this sit the trace functional eta and
the pairing procedure for regular semiample hypersurfaces.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import factorial

from . import lattice
from .coxring import CoxRing, GradedPolynomial, euler_basis, ideal_graded_piece
from .divisor import TorusInvariantDivisor
from .errors import CertificateError, InconsistencyError, PreconditionError, ValidationError
from .linalg import _ONE, _ZERO


class PairingValue:
    """An exact intersection pairing value r * (2 pi i)^k.

    The transcendental factor stays symbolic; only the rational part is ever
    computed with.
    """

    def __init__(self, rational: Fraction, two_pi_i_exponent: int):
        self.rational = rational
        self.two_pi_i_exponent = two_pi_i_exponent

    def __eq__(self, other):
        if other.__class__ is not PairingValue:
            return NotImplemented
        return (self.rational, self.two_pi_i_exponent) == (
            other.rational, other.two_pi_i_exponent)

    def __hash__(self):
        return hash((self.rational, self.two_pi_i_exponent))

    def is_zero(self) -> bool:
        return self.rational == 0

    def __add__(self, other):
        if self.two_pi_i_exponent != other.two_pi_i_exponent and \
                not (self.is_zero() or other.is_zero()):
            raise ValidationError("cannot add values with different symbolic factors")
        k = other.two_pi_i_exponent if self.is_zero() else self.two_pi_i_exponent
        return PairingValue(self.rational + other.rational, k)

    def __rmul__(self, c):
        return PairingValue(Fraction(c) * self.rational, self.two_pi_i_exponent)

    def to_json(self):
        return {"rational": str(self.rational),
                "two_pi_i_exponent": self.two_pi_i_exponent}


def _index_set(ring: CoxRing, I, size: int) -> tuple:
    """I as a tuple of `size` distinct variable indices."""
    I = tuple(int(i) for i in I)
    if len(I) != size or len(set(I)) != size or not all(0 <= i < ring.n for i in I):
        raise ValidationError(f"index set {I}: not {size} distinct indices in 0..{ring.n - 1}")
    return I


def c_I_beta(ring: CoxRing, beta, I) -> int:
    """Determinant attaching the degree data b to an ordered index set I:
    first row (b_i)_{i in I}, then the coordinate rows of the rays e_i."""
    I = _index_set(ring, I, ring.d + 1)
    b = beta.rep
    rows = [[b[i] for i in I]]
    for j in range(ring.d):
        rows.append([ring.fan.rays[i][j] for i in I])
    return lattice.det(rows)


def det_e(ring: CoxRing, I) -> int:
    """det(<m_j, e_{i_k}>) for a d-element index set I."""
    I = _index_set(ring, I, ring.d)
    return lattice.det([[ring.fan.rays[i][j] for i in I] for j in range(ring.d)])


def admissible_index_sets(ring: CoxRing, beta):
    """The (d+1)-subsets I with c_I^beta != 0, lazily, in lexicographic order."""
    return (I for I in combinations(range(ring.n), ring.d + 1) if c_I_beta(ring, beta, I) != 0)


def _poly_det(ring: CoxRing, M):
    """Determinant of a square matrix of graded polynomials (Laplace expansion
    with memoization on column subsets)."""
    n = len(M)
    memo = {}

    def minor(start, cols):
        if not cols:
            return ring.one()
        key = (start, cols)
        if key in memo:
            return memo[key]
        acc = None
        for k, c in enumerate(cols):
            entry = M[start][c]
            if entry is None or entry.is_zero():
                continue
            sub = minor(start + 1, cols[:k] + cols[k + 1:])
            if sub is None:
                continue
            term = entry * sub
            if k % 2:
                term = (-1) * term
            acc = term if acc is None else acc + term
        memo[key] = acc
        return acc

    return minor(0, tuple(range(n)))


def _sections(ring: CoxRing, F):
    """F as a list of d+1 sections of one degree, and that degree."""
    F = list(F)
    if len(F) != ring.d + 1:
        raise ValidationError(f"{len(F)} sections, expected {ring.d + 1}")
    if any(g.degree != F[0].degree for g in F):
        raise ValidationError("sections of mixed degrees")
    return F, F[0].degree


def _first_admissible(beta):
    """The lex-first (d+1)-subset I with c_I^beta != 0: `euler_basis(beta)`."""
    I = euler_basis(beta)
    if len(I) <= beta.ring.d:
        raise PreconditionError("no admissible index set: degree determinant vanishes")
    return I


def toric_jacobian(ring: CoxRing, F, I=None) -> GradedPolynomial:
    """The toric Jacobian det(dF_j / dx_{i_k}) / (c_I^beta * xhat_I) of d+1
    sections of one degree, in S_{(d+1)beta - beta_0}; independent of the
    admissible I, by default the first (`residue eval --verify` takes a second)."""
    F, beta = _sections(ring, F)
    I = tuple(I) if I is not None else _first_admissible(beta)
    return _c_and_jacobian(ring, F, beta, I)[1]


def _c_and_jacobian(ring: CoxRing, F, beta, I):
    """(c_I^beta, toric Jacobian) of the sections F of degree beta on I: the
    one place either is computed for a set of sections."""
    c = c_I_beta(ring, beta, I)
    if c == 0:
        raise ValidationError(f"index set {I} is not admissible")
    det = _poly_det(ring, [[g.partial(i) for i in I] for g in F])
    if det is None or det.is_zero():
        return c, GradedPolynomial(ring, {}, (ring.d + 1) * beta - ring.beta0, _trusted=True)
    try:
        quot = det.divide_by_monomial(tuple(0 if i in I else 1 for i in range(ring.n)))
    except ValidationError as exc:
        raise InconsistencyError(
            f"Jacobian determinant not divisible by the complementary "
            f"monomial for I={I}") from exc
    return c, Fraction(1, c) * quot


def cup_jacobian(ring: CoxRing, f: GradedPolynomial) -> GradedPolynomial:
    """det(dF_j/dx_i)_{i,j in I} / ((c_I^beta)^2 xhat_I) for the weighted
    partials F_j = x_j df/dx_j; independent of the admissible I, taken on
    the first one."""
    I = _first_admissible(f.degree)
    c, jacobian = _c_and_jacobian(ring, [f.weighted_partial(i) for i in I], f.degree, I)
    return Fraction(1, c) * jacobian


class NondegeneracyCertificate:
    """d+1 sections F of one degree have no common zero when their span in
    rho has codimension one and the toric Jacobian (on `index_set`, the
    first admissible one) does not reduce to zero modulo it (sufficient,
    not necessary).  The index set, its c_I^beta, the Jacobian and its
    reduction are None at any other codimension."""

    def __init__(self, ring: CoxRing, F):
        self.ring = ring
        self.F, self.beta = _sections(ring, F)
        self.span = ideal_graded_piece(self.F, (ring.d + 1) * self.beta - ring.beta0)
        self.codim = self.span.codim()
        self.index_set = self.c_I = self.jacobian = self.reduced_jacobian = None
        if self.codim == 1:
            self.index_set = _first_admissible(self.beta)
            self.c_I, self.jacobian = _c_and_jacobian(ring, self.F, self.beta, self.index_set)
            self.reduced_jacobian = self.span.echelon.reduce(self.span._vectorize(self.jacobian))

    @property
    def certified(self) -> bool:
        return bool(self.reduced_jacobian)


def nondegeneracy_certificate(f: GradedPolynomial) -> NondegeneracyCertificate:
    """The certificate of the weighted partials F_I of f, I the first
    admissible index set; their span is `j0_piece(f, rho)`."""
    ring = f.ring
    if f.degree == ring.zero_degree():
        raise PreconditionError("nondegeneracy is about hypersurfaces of nonzero degree")
    I = _first_admissible(f.degree)
    return NondegeneracyCertificate(ring, [f.weighted_partial(i) for i in I])


def _semiample_divisor(ring: CoxRing, F) -> TorusInvariantDivisor:
    """The divisor of the degree of the sections F; refused unless semiample."""
    div = TorusInvariantDivisor(ring.fan, _sections(ring, F)[1].rep)
    if not div.is_semiample():
        raise PreconditionError("the residue map is defined for semiample degrees")
    return div


class ResidueMap:
    """Res_F for the sections F of a certified certificate, of a semiample
    degree, normalized by Res_F(toric Jacobian) = d! vol(Delta): read off the
    one column that the Jacobian reduces to."""

    def __init__(self, certificate: NondegeneracyCertificate):
        div = _semiample_divisor(certificate.ring, certificate.F)
        if certificate.codim != 1:
            raise CertificateError(
                f"sections span codimension {certificate.codim} in the critical "
                f"degree: common zeros or certificate failure")
        if not certificate.certified:
            raise CertificateError("toric Jacobian lies in the span of the sections")
        self.certificate = certificate
        self.span = certificate.span
        (self._col, self._jcoeff), = certificate.reduced_jacobian.items()
        self.volume = div.degree()

    def residue(self, H: GradedPolynomial) -> Fraction:
        """The unique c with H - c * Jacobian in the span, times d! vol(Delta)."""
        if H.degree != self.span.degree:
            raise ValidationError("residue argument of the wrong degree")
        return self._residue_of_row(self.span._vectorize(H))

    def residue_of_monomial(self, code: int) -> Fraction:
        """The residue of the monomial with this code (`CoxRing.code`), of
        degree rho: one reduction of a one-hot row."""
        j = self.span.basis.column.get(code)
        if j is None:
            raise ValidationError("residue argument of the wrong degree")
        return self._residue_of_row({j: _ONE})

    def _residue_of_row(self, row) -> Fraction:
        r = self.span.echelon.reduce(row)
        if not r:
            return _ZERO
        c = r[self._col] / self._jcoeff
        return c * self.volume


def cup_constant(a: int, b: int, d: int) -> Fraction:
    """c_ab = (-1)^(a(a+1)/2 + b(b+1)/2 + a^2 + d - 1) / (a! b!)."""
    sign = (-1) ** (a * (a + 1) // 2 + b * (b + 1) // 2 + a * a + d - 1)
    return Fraction(sign, factorial(a) * factorial(b))


def exponent_cosets(f: GradedPolynomial) -> lattice.QuotientForm:
    """Normal forms of Z^n / L_f, L_f spanned by the differences of the
    exponent vectors of f: one Smith normal form."""
    n = f.ring.n
    first, *rest = f.terms
    return lattice.QuotientForm([[e[i] - first[i] for e in rest] for i in range(n)], n)


class CupProduct:
    """Cup-product machinery for a fixed nondegenerate hypersurface section f.

    eta(H) is the composed trace c_I^beta Res_{F_I}(H x_1...x_n) on the
    graded piece of degree (d+1)beta - 2beta_0 and zero elsewhere; pairings
    of classes A, B of complementary levels come out as exact rationals times
    a symbolic power of 2 pi i.

    The pairing is graded by Z^n / L_f, L_f spanned by the differences of
    the exponent vectors of f (`coset_key`): the span in rho is homogeneous
    for it, and so is every reduction modulo the span, which has one
    non-pivot column c*; so eta vanishes off one class, the socle coset
    (`socle`).
    """

    def __init__(self, ring: CoxRing, f: GradedPolynomial, certificate=None):
        self.ring = ring
        self.f = f
        if not ring.fan.is_simplicial:
            raise PreconditionError("cup products assume a simplicial ambient fan")
        if certificate is None:
            certificate = nondegeneracy_certificate(f)
        if not certificate.certified:
            raise CertificateError(
                "cup products require a certified nondegenerate section")
        if certificate.F != [f.weighted_partial(i) for i in certificate.index_set]:
            raise ValidationError("certificate is not of the weighted partials F_I of f")
        self.c_I = certificate.c_I
        self.res = ResidueMap(certificate)
        self.eta_degree = (ring.d + 1) * f.degree - 2 * ring.beta0
        self._xprod = ring.variables_product()
        self._eta_memo = {}  # monomial code -> eta

    @cached_property
    def _cosets(self) -> lattice.QuotientForm:
        return exponent_cosets(self.f)

    def coset_key(self, code: int) -> tuple:
        """The class in Z^n / L_f of the monomial with this code."""
        return self._cosets(self.ring.decode(code))

    @cached_property
    def socle(self) -> tuple:
        """The one class of Z^n / L_f where eta can be nonzero: that of
        exps(c*) - (1, ..., 1), c* the column the residue map reads.  It is
        a difference in the group; c* need not be divisible by x_1...x_n, so
        a difference of codes would borrow across slots."""
        cosets = self._cosets
        star = cosets(self.ring.decode(self.res.span.basis.codes[self.res._col]))
        return cosets.reduce([a - b for a, b in zip(star, cosets((1,) * self.ring.n))])

    def socle_partner(self, code: int) -> tuple:
        """The class that x^e' must lie in for eta(x^(e + e')) to be nonzero,
        x^e the monomial with this code."""
        return self._cosets.reduce([a - b for a, b in zip(self.socle, self.coset_key(code))])

    def eta(self, H: GradedPolynomial) -> Fraction:
        """Trace functional on R_1(f); vanishes outside its critical degree."""
        if H.degree != self.eta_degree:
            return Fraction(0)
        if H.is_zero():
            return Fraction(0)
        return self.c_I * self.res.residue(H * self._xprod)

    def eta_monomial(self, exps) -> Fraction:
        """eta(x^exps), through `eta_of_code`; `eta` is the independent route."""
        return self.eta_of_code(self.ring.code(exps))

    def eta_of_code(self, code: int) -> Fraction:
        """eta of the monomial x^e with this code, remembered per code (the
        Gram matrix needs eta only on monomial products, sums of two codes
        of basis monomials): c_I times the residue of x^(e + 1) when that is
        in the critical degree, which is when e has `eta_degree`, else zero."""
        value = self._eta_memo.get(code)
        if value is None:
            shifted = code + self.ring.ones
            value = (self.c_I * self.res.residue_of_monomial(shifted)
                     if shifted in self.res.span.basis.column else _ZERO)
            self._eta_memo[code] = value
        return value

    def pair(self, A: GradedPolynomial, B: GradedPolynomial,
             a: int, b: int) -> PairingValue:
        """The integral of the cup product of the residue classes of A and B,
        as c * (-1)^d * c_ab * d! vol(Delta) times (2 pi i)^d."""
        d = self.ring.d
        if a + b != d - 1:
            raise ValidationError(f"levels {a} + {b} != d - 1 = {d - 1}")
        beta, beta0 = self.f.degree, self.ring.beta0
        if A.degree != (a + 1) * beta - beta0:
            raise ValidationError("first argument has the wrong degree for its level")
        if B.degree != (b + 1) * beta - beta0:
            raise ValidationError("second argument has the wrong degree for its level")
        r = (-1) ** d * cup_constant(a, b, d) * self.eta(A * B)
        return PairingValue(r, d)
