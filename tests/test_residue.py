import random
import time
from fractions import Fraction
from itertools import islice, product
from operator import add

import pytest

from semitoric import catalog, residue
from semitoric.coxring import CoxRing
from semitoric.errors import CertificateError, PreconditionError, ValidationError
from semitoric.hodge import triangulation_helper
from semitoric.residue import (
    CupProduct,
    PairingValue,
    NondegeneracyCertificate,
    ResidueMap,
    admissible_index_sets,
    c_I_beta,
    cup_constant,
    cup_jacobian,
    det_e,
    nondegeneracy_certificate,
    toric_jacobian,
)

from .test_coxring import dwork, j1_oracle

P1 = CoxRing(catalog.projective_line())
P2 = CoxRing(catalog.projective_plane())


def fermat(ring, degree):
    return ring.polynomial({tuple(degree * int(i == j) for j in range(ring.n)): 1
                            for i in range(ring.n)})


CUBIC = fermat(P2, 3)


def test_c_I_beta_projective_line():
    beta = P1.degree_class((2, 0))
    assert c_I_beta(P1, beta, (0, 1)) == -2


def test_c_I_beta_representative_independence():
    beta = P1.degree_class((2, 0))
    # adding the image of m = (5,) shifts the representative
    shifted = P1.degree_class((2 + 5, 0 - 5))
    assert shifted == beta
    assert c_I_beta(P1, shifted, (0, 1)) == c_I_beta(P1, beta, (0, 1))


def test_c_I_beta_cubic():
    assert abs(c_I_beta(P2, P2.beta0, (0, 1, 2))) == 3


def test_c_I_beta_wrong_size():
    with pytest.raises(ValidationError):
        c_I_beta(P2, P2.beta0, (0, 1))


def test_index_sets_are_range_checked():
    """An index past n - 1 or below 0, or a repeated one, is refused: -1 no
    longer wraps to the last variable (the Jacobian 243 x^(2,2,1), outside
    S_rho), and 7 no longer raises IndexError."""
    F = [CUBIC.weighted_partial(i) for i in range(3)]
    assert toric_jacobian(P2, F, (0, 1, 2)).terms == {(2, 2, 2): Fraction(243)}
    for I in ((0, 1, -1), (0, 1, 7), (0, 1, 1)):
        with pytest.raises(ValidationError, match="distinct indices"):
            toric_jacobian(P2, F, I)
        with pytest.raises(ValidationError, match="distinct indices"):
            c_I_beta(P2, P2.beta0, I)
    for I in ((0, -1), (0, 3), (2, 2)):
        with pytest.raises(ValidationError, match="distinct indices"):
            det_e(P2, I)


def test_toric_jacobian_projective_line():
    x2 = P1.monomial((2, 0))
    y2 = P1.monomial((0, 2))
    jf = toric_jacobian(P1, [x2, y2])
    assert jf.terms == {(1, 1): Fraction(-2)}


def test_toric_jacobian_repeated_section_vanishes():
    x2 = P1.monomial((2, 0))
    jf = toric_jacobian(P1, [x2, x2])
    assert jf.is_zero()


def test_toric_jacobian_fermat_cubic_weighted_partials():
    F = [CUBIC.weighted_partial(i) for i in range(3)]
    jf = toric_jacobian(P2, F)
    assert set(jf.terms) == {(2, 2, 2)}


def test_residue_normalization_projective_line():
    x2 = P1.monomial((2, 0))
    y2 = P1.monomial((0, 2))
    res = ResidueMap(NondegeneracyCertificate(P1, [x2, y2]))
    assert res.volume == 2
    assert res.residue(res.certificate.jacobian) == 2
    assert res.residue(P1.monomial((1, 1))) == -1


def test_residue_of_span_element_is_zero():
    x2 = P1.monomial((2, 0))
    y2 = P1.monomial((0, 2))
    assert ResidueMap(NondegeneracyCertificate(P1, [x2, y2])).residue(P1.monomial((2, 0))) == 0


def test_residue_requires_no_common_zeros():
    x2 = P1.monomial((2, 0))
    xy = P1.monomial((1, 1))
    with pytest.raises(CertificateError):
        ResidueMap(NondegeneracyCertificate(P1, [x2, xy]))  # common zero x = 0


def test_residue_refuses_a_degree_that_is_not_semiample():
    """x0, x1, x0 + x1 on P^1 x P^1 pull back from one factor: their degree
    is nef, but its section polytope is a segment."""
    ring = CoxRing(catalog.product_fan(catalog.projective_line(), catalog.projective_line()))
    x0, x1 = ring.monomial((1, 0, 0, 0)), ring.monomial((0, 1, 0, 0))
    with pytest.raises(PreconditionError, match="defined for semiample degrees"):
        ResidueMap(NondegeneracyCertificate(ring, [x0, x1, x0 + x1]))


def test_certificate_index_set_is_the_first_admissible_one_when_codim_is_one():
    F = [CUBIC.weighted_partial(i) for i in range(3)]
    certificate = NondegeneracyCertificate(P2, F)
    assert certificate.certified
    assert certificate.index_set == next(admissible_index_sets(P2, CUBIC.degree))
    x2 = P1.monomial((2, 0))
    degenerate = NondegeneracyCertificate(P1, [x2, x2])
    assert degenerate.codim == 2 and not degenerate.certified
    assert degenerate.index_set is None and degenerate.jacobian is None


def test_cup_product_takes_a_certificate_only_of_the_weighted_partials_of_f():
    """A certificate built by hand on F_I of f gives the same trace as the
    default one; a certified certificate of other sections is refused."""
    I = next(admissible_index_sets(P2, CUBIC.degree))
    F_I = [CUBIC.weighted_partial(i) for i in I]
    own = CupProduct(P2, CUBIC, NondegeneracyCertificate(P2, F_I))
    xyz = P2.monomial((1, 1, 1))
    assert own.eta(xyz) == CupProduct(P2, CUBIC).eta(xyz) == Fraction(1, 9)
    cubes = [P2.monomial(tuple(3 * int(i == j) for j in range(3))) for i in range(3)]
    other = NondegeneracyCertificate(P2, cubes)
    assert other.certified
    with pytest.raises(ValidationError, match="not of the weighted partials"):
        CupProduct(P2, CUBIC, other)


def test_cup_jacobian_fermat_cubic():
    j = cup_jacobian(P2, CUBIC)
    assert j.terms == {(2, 2, 2): Fraction(81)}


P1XP1 = CoxRing(catalog.product_fan(catalog.projective_line(), catalog.projective_line()))
BIQUADRIC = P1XP1.polynomial({(2, 0, 2, 0): 1, (0, 2, 2, 0): 2, (2, 0, 0, 2): 3,
                              (0, 2, 0, 2): 5, (1, 1, 1, 1): 7})


def test_cup_jacobian_two_index_sets_agree():
    """The cup Jacobian is taken on the first admissible index set; the
    second one gives the same polynomial."""
    def on(I):
        F = [BIQUADRIC.weighted_partial(i) for i in I]
        return Fraction(1, c_I_beta(P1XP1, BIQUADRIC.degree, I)) * toric_jacobian(P1XP1, F, I)

    first, second = islice(admissible_index_sets(P1XP1, BIQUADRIC.degree), 2)
    assert not on(first).is_zero()
    assert on(first) == on(second) == cup_jacobian(P1XP1, BIQUADRIC)


def test_admissible_index_sets_are_scanned_lazily():
    """The 80-ray fan of the cube's triangulation helper has C(80, 5) =
    24,040,016 index sets; the first two admissible ones, all that
    `residue eval --verify` reads, come back in under a second."""
    ring = CoxRing(triangulation_helper(catalog.cube(4)))
    start = time.perf_counter()
    picks = list(islice(admissible_index_sets(ring, ring.beta0), 2))
    assert time.perf_counter() - start < 1.0
    assert picks == [(0, 1, 2, 4, 8), (0, 1, 2, 4, 9)]
    assert all(c_I_beta(ring, ring.beta0, I) for I in picks)


def test_toric_jacobian_takes_one_determinant(monkeypatch):
    """With no index set given, the toric Jacobian and the cup Jacobian take
    the determinant on the first admissible index set only."""
    calls = []
    original = residue._poly_det
    monkeypatch.setattr(residue, "_poly_det", lambda ring, M: calls.append(M) or original(ring, M))
    F = [BIQUADRIC.weighted_partial(i) for i in range(3)]
    assert len(list(admissible_index_sets(P1XP1, BIQUADRIC.degree))) >= 2
    toric_jacobian(P1XP1, F)
    assert len(calls) == 1
    cup_jacobian(P1XP1, BIQUADRIC)
    assert len(calls) == 2


def test_certificate_takes_determinants_up_to_the_first_admissible_set(monkeypatch):
    """On the crepant P(1,1,2,2,2) fixture the certificate finds the first
    admissible index set with no determinant (`euler_basis`, one
    elimination) and takes c_I^beta once, inside the toric Jacobian."""
    ring, f = catalog.p11222_pullback_fermat(catalog.p11222_crepant_fan())
    first = next(admissible_index_sets(ring, f.degree))
    calls = []
    original = residue.c_I_beta
    monkeypatch.setattr(residue, "c_I_beta",
                        lambda ring, beta, I: calls.append(tuple(I)) or original(ring, beta, I))
    certificate = nondegeneracy_certificate(f)
    assert certificate.index_set == first
    assert calls == [first]


def test_certificate_and_cup_product_take_c_I_beta_once(monkeypatch):
    """On the crepant P(1,1,2,2,2) fixture, the certificate of f and the
    cup product on it take c_I^beta once: the cup product reads it off the
    certificate, next to its Jacobian."""
    ring, f = catalog.p11222_pullback_fermat(catalog.p11222_crepant_fan())
    calls = []
    original = residue.c_I_beta
    monkeypatch.setattr(residue, "c_I_beta",
                        lambda ring, beta, I: calls.append(tuple(I)) or original(ring, beta, I))
    certificate = nondegeneracy_certificate(f)
    cup = CupProduct(ring, f, certificate)
    assert calls == [certificate.index_set]
    assert cup.c_I == certificate.c_I == original(ring, f.degree, certificate.index_set)


P4 = CoxRing(catalog.projective_space(4))
QUINTIC = fermat(P4, 5)
DWORK = dwork(P4, Fraction(1, 2))


@pytest.mark.parametrize("f", [QUINTIC, DWORK], ids=["quintic", "dwork"])
def test_coset_key_grades_monomials_by_the_exponent_lattice(f):
    """The key of a monomial is additive, and does not move under
    translation by a difference of two exponent vectors of f."""
    cup = CupProduct(P4, f)
    key, reduce, code = cup.coset_key, cup._cosets.reduce, P4.code
    exps = list(f.terms)
    rng = random.Random(8)
    for _ in range(40):
        a, b = (tuple(rng.randint(0, 9) for _ in range(5)) for _ in range(2))
        assert key(code(tuple(map(add, a, b)))) == reduce(list(map(add, key(code(a)),
                                                                   key(code(b)))))
        for e in exps[1:]:
            assert key(code(tuple(map(add, a, e)))) == key(code(tuple(map(add, a, exps[0]))))


def test_coset_key_sees_the_torsion_of_the_quintic():
    """x_0 and x_1 have one degree but lie in different classes of Z^5 / L_f
    (its torsion (Z/5)^4), and x_0^5, x_1^5 in one."""
    cup = CupProduct(P4, QUINTIC)
    x = [tuple(int(i == j) for j in range(5)) for i in range(2)]
    assert P4.degree_class(x[0]) == P4.degree_class(x[1])
    assert cup.coset_key(P4.code(x[0])) != cup.coset_key(P4.code(x[1]))
    assert cup.coset_key(P4.code((5, 0, 0, 0, 0))) == cup.coset_key(P4.code((0, 5, 0, 0, 0)))
    assert cup._cosets._moduli == [5, 5, 5, 5, 0]


def test_exponent_cosets_of_a_one_term_section_separate_every_monomial():
    """L_f of rank 0: the form is injective on monomials."""
    cosets = residue.exponent_cosets(P4.monomial((5, 0, 0, 0, 0)))
    assert cosets.rank == 0
    box = list(product(range(3), repeat=5))
    assert len({cosets(e) for e in box}) == len(box)


@pytest.mark.parametrize("f", [QUINTIC, DWORK], ids=["quintic", "dwork"])
def test_eta_vanishes_outside_the_socle_coset(f):
    """Every one of the 3,876 monomials of eta's degree outside the socle
    coset has eta = 0 by the unpruned `eta_of_code`, and some inside it
    does not."""
    cup = CupProduct(P4, f)
    codes = P4.monomial_basis(cup.eta_degree).codes
    assert len(codes) == 3876
    inside = [c for c in codes if cup.coset_key(c) == cup.socle]
    assert any(cup.eta_of_code(c) for c in inside)
    assert not any(cup.eta_of_code(c) for c in codes if cup.coset_key(c) != cup.socle)


def test_eta_on_fermat_cubic():
    cp = CupProduct(P2, CUBIC)
    xyz = P2.monomial((1, 1, 1))
    assert cp.eta(xyz) == Fraction(1, 9)
    assert cp.eta(P2.one()) == 0  # wrong degree


def test_eta_vanishes_on_j1():
    cp = CupProduct(P2, CUBIC)
    for row in j1_oracle(CUBIC, P2.beta0):
        assert cp.eta(row) == 0


def test_cup_pair_elliptic_curve():
    cp = CupProduct(P2, CUBIC)
    one = P2.one()
    xyz = P2.monomial((1, 1, 1))
    val = cp.pair(one, xyz, 0, 1)
    assert val == PairingValue(Fraction(1, 9), 2)
    assert not val.is_zero()


def test_cup_pair_vanishes_on_j1_first_slot():
    cp = CupProduct(P2, CUBIC)
    one = P2.one()
    for elt in j1_oracle(CUBIC, P2.beta0):
        assert cp.pair(one, elt, 0, 1).is_zero()


def test_cup_pair_swap_sign():
    cp = CupProduct(P2, CUBIC)
    one = P2.one()
    xyz = P2.monomial((1, 1, 1))
    ab = cp.pair(one, xyz, 0, 1)
    ba = cp.pair(xyz, one, 1, 0)
    d = P2.d
    ratio = cup_constant(0, 1, d) / cup_constant(1, 0, d)
    assert ab.rational == ratio * ba.rational


def test_cup_constant_values():
    assert cup_constant(0, 1, 2) == 1
    assert cup_constant(1, 2, 4) == Fraction(1, 2)


def test_pairing_value_arithmetic():
    v = PairingValue(Fraction(1, 2), 4)
    w = PairingValue(Fraction(1, 3), 4)
    assert (v + w).rational == Fraction(5, 6)
    assert (2 * v).rational == 1
    assert v.to_json() == {"rational": "1/2", "two_pi_i_exponent": 4}
    with pytest.raises(ValidationError):
        v + PairingValue(Fraction(1), 2)
    assert v == PairingValue(Fraction(2, 4), 4) and hash(v) == hash(PairingValue(Fraction(1, 2), 4))
    assert v != w and v != PairingValue(Fraction(1, 2), 2) and v != Fraction(1, 2)


def test_cup_pair_vanishes_on_j1_second_slot_too():
    cp = CupProduct(P2, CUBIC)
    one = P2.one()
    for elt in j1_oracle(CUBIC, P2.beta0):
        assert cp.pair(elt, one, 1, 0).is_zero()


def test_eta_monomial_vanishes_outside_its_degree():
    cp = CupProduct(P2, CUBIC)
    assert cp.eta_degree == P2.beta0
    for exps in [(0, 0, 0), (1, 0, 0), (2, 0, 1), (2, 2, 0)]:
        assert cp.eta_monomial(exps) == 0 == cp.eta(P2.monomial(exps))
    assert cp.eta_monomial((1, 1, 1)) == cp.eta(P2.monomial((1, 1, 1))) != 0
    with pytest.raises(ValidationError):
        cp.eta_monomial((1, -1, 0))


@pytest.mark.parametrize("psi", [0, Fraction(1, 2), Fraction(1, 3), 2, Fraction(-1, 2)])
def test_eta_on_the_dwork_pencil_by_both_routes(psi):
    """(1 - psi^5) eta((x_1...x_5)^3) = 1/625 and (1 - psi^5) eta(x_1^15) =
    psi^3/625 on f = sum x_i^5 - 5 psi x_1...x_5, through the one-hot
    residue and through eta on the polynomial."""
    ring = CoxRing(catalog.projective_space(4))
    cp = CupProduct(ring, dwork(ring, psi))
    scale = 1 - Fraction(psi) ** 5
    for exps, value in (((3,) * 5, Fraction(1, 625)),
                        ((15, 0, 0, 0, 0), Fraction(psi) ** 3 / 625)):
        assert scale * cp.eta_monomial(exps) == value
        assert scale * cp.eta(ring.monomial(exps)) == value
