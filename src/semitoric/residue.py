"""Toric residues and the algebraic cup-product pairing.

The residue map is realized by exact linear algebra in the critical degree
rho = (d+1)beta - beta_0: the span of the input sections has codimension one
there, the toric Jacobian spans the complement, and the residue of the toric
Jacobian is normalized to d! vol(Delta).  The toric Jacobian does not depend
on the admissible index set; it is taken on the first one, and `residue eval
--verify` compares a second.  On top of this sit the trace functional eta and
the pairing procedure for regular semiample hypersurfaces.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

from . import lattice
from .coxring import (
    CoxRing,
    GradedPolynomial,
    ideal_graded_piece,
    nondegeneracy_certificate,
)
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


def c_I_beta(ring: CoxRing, beta, I) -> int:
    """Determinant attaching the degree data b to an ordered index set I:
    first row (b_i)_{i in I}, then the coordinate rows of the rays e_i."""
    I = tuple(int(i) for i in I)
    if len(I) != ring.d + 1:
        raise ValidationError(f"index set of size {len(I)}, expected {ring.d + 1}")
    b = beta.rep
    rows = [[b[i] for i in I]]
    for j in range(ring.d):
        rows.append([ring.fan.rays[i][j] for i in I])
    return lattice.det(rows)


def det_e(ring: CoxRing, I) -> int:
    """det(<m_j, e_{i_k}>) for a d-element index set I."""
    I = tuple(I)
    if len(I) != ring.d:
        raise ValidationError(f"index set of size {len(I)}, expected {ring.d}")
    return lattice.det([[ring.fan.rays[i][j] for i in I] for j in range(ring.d)])


def admissible_index_sets(ring: CoxRing, beta):
    """All (d+1)-subsets I, in lexicographic order, with c_I^beta != 0."""
    out = []
    for I in combinations(range(ring.n), ring.d + 1):
        if c_I_beta(ring, beta, I) != 0:
            out.append(I)
    return out


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


def _first_admissible(ring: CoxRing, beta):
    """The first (d+1)-subset I, in lexicographic order, with c_I^beta != 0."""
    for I in combinations(range(ring.n), ring.d + 1):
        if c_I_beta(ring, beta, I) != 0:
            return I
    raise PreconditionError("no admissible index set: degree determinant vanishes")


def toric_jacobian(ring: CoxRing, F, I=None) -> GradedPolynomial:
    """The toric Jacobian det(dF_j / dx_{i_k}) / (c_I^beta * xhat_I) of d+1
    sections of one degree, in S_{(d+1)beta - beta_0}; independent of the
    admissible I, by default the first (`residue eval --verify` takes a second)."""
    F, beta = _sections(ring, F)
    I = tuple(I) if I is not None else _first_admissible(ring, beta)
    c = c_I_beta(ring, beta, I)
    if c == 0:
        raise ValidationError(f"index set {I} is not admissible")
    det = _poly_det(ring, [[g.partial(i) for i in I] for g in F])
    if det is None or det.is_zero():
        return GradedPolynomial(ring, {}, (ring.d + 1) * beta - ring.beta0, _trusted=True)
    try:
        quot = det.divide_by_monomial(tuple(0 if i in I else 1 for i in range(ring.n)))
    except ValidationError as exc:
        raise InconsistencyError(
            f"Jacobian determinant not divisible by the complementary "
            f"monomial for I={I}") from exc
    return Fraction(1, c) * quot


def cup_jacobian(ring: CoxRing, f: GradedPolynomial) -> GradedPolynomial:
    """det(dF_j/dx_i)_{i,j in I} / ((c_I^beta)^2 xhat_I) for the weighted
    partials F_j = x_j df/dx_j; independent of the admissible I, taken on
    the first one."""
    I = _first_admissible(ring, f.degree)
    jacobian = toric_jacobian(ring, [f.weighted_partial(i) for i in I], I)
    return Fraction(1, c_I_beta(ring, f.degree, I)) * jacobian


class ResidueMap:
    """Res_F for fixed sections F_0..F_d of a semiample degree without common
    zeros; normalized by Res_F(toric Jacobian) = d! vol(Delta).

    The span of F in the critical degree and the toric Jacobian are built
    here unless already at hand (`_span`, `_jacobian`, as a nondegeneracy
    certificate of the same F holds them); either way both are checked."""

    def __init__(self, ring: CoxRing, F, _span=None, _jacobian=None):
        self.ring = ring
        self.F, beta = _sections(ring, F)
        div = TorusInvariantDivisor(ring.fan, beta.rep)
        if not div.is_semiample():
            raise PreconditionError("the residue map is defined for semiample degrees")
        self.beta = beta
        self.rho = (ring.d + 1) * beta - ring.beta0
        self.span = _span if _span is not None else ideal_graded_piece(self.F, self.rho)
        if self.span.codim() != 1:
            raise CertificateError(
                f"sections span codimension {self.span.codim()} in the critical "
                f"degree: common zeros or certificate failure")
        self.jacobian = _jacobian if _jacobian is not None else toric_jacobian(ring, self.F)
        rj = self.span.echelon.reduce(self.span._vectorize(self.jacobian))
        if len(rj) != 1:
            raise CertificateError("toric Jacobian lies in the span of the sections")
        (self._col, self._jcoeff), = rj.items()
        self.volume = div.section_polytope().normalized_volume()

    def residue(self, H: GradedPolynomial) -> Fraction:
        """The unique c with H - c * Jacobian in the span, times d! vol(Delta)."""
        if H.degree != self.rho:
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


def toric_residue(ring: CoxRing, F, H: GradedPolynomial) -> Fraction:
    return ResidueMap(ring, F).residue(H)


def cup_constant(a: int, b: int, d: int) -> Fraction:
    """c_ab = (-1)^(a(a+1)/2 + b(b+1)/2 + a^2 + d - 1) / (a! b!)."""
    sign = (-1) ** (a * (a + 1) // 2 + b * (b + 1) // 2 + a * a + d - 1)
    return Fraction(sign, factorial(a) * factorial(b))


class CupProduct:
    """Cup-product machinery for a fixed nondegenerate hypersurface section f.

    eta(H) is the composed trace c_I^beta Res_{F_I}(H x_1...x_n) on the
    graded piece of degree (d+1)beta - 2beta_0 and zero elsewhere; pairings
    of classes A, B of complementary levels come out as exact rationals times
    a symbolic power of 2 pi i.
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
        self.certificate = certificate
        I = certificate.index_set
        self.index_set = I
        self.c_I = c_I_beta(ring, f.degree, I)
        self.res = ResidueMap(ring, [f.weighted_partial(i) for i in I],
                              _span=certificate.span, _jacobian=certificate.jacobian)
        self.eta_degree = (ring.d + 1) * f.degree - 2 * ring.beta0
        self._xprod = ring.variables_product()
        self._eta_memo = {}  # monomial code -> eta

    def eta(self, H: GradedPolynomial) -> Fraction:
        """Trace functional on R_1(f); vanishes outside its critical degree."""
        if H.degree != self.eta_degree:
            return Fraction(0)
        if H.is_zero():
            return Fraction(0)
        return self.c_I * self.res.residue(H * self._xprod)

    def eta_monomial(self, exps) -> Fraction:
        """eta(x^exps), through `eta_of_code`; `eta` is the independent route."""
        if min(exps) < 0:
            raise ValidationError(f"bad exponent vector {exps}")
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
