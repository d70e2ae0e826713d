from fractions import Fraction
from itertools import combinations

import pytest

from semitoric import catalog, residue
from semitoric.coxring import CoxRing, R1Piece, nondegeneracy_certificate
from semitoric.errors import CertificateError, ValidationError
from semitoric.residue import (
    CupProduct,
    PairingValue,
    ResidueMap,
    admissible_index_sets,
    c_I_beta,
    cup_constant,
    cup_jacobian,
    toric_jacobian,
    toric_residue,
)

from .test_coxring import dwork

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
    res = ResidueMap(P1, [x2, y2])
    assert res.volume == 2
    assert res.residue(res.jacobian) == 2
    assert res.residue(P1.monomial((1, 1))) == -1


def test_residue_of_span_element_is_zero():
    x2 = P1.monomial((2, 0))
    y2 = P1.monomial((0, 2))
    assert toric_residue(P1, [x2, y2], P1.monomial((2, 0))) == 0


def test_residue_requires_no_common_zeros():
    x2 = P1.monomial((2, 0))
    xy = P1.monomial((1, 1))
    with pytest.raises(CertificateError):
        ResidueMap(P1, [x2, xy])  # common zero x = 0


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

    first, second = admissible_index_sets(P1XP1, BIQUADRIC.degree)[:2]
    assert not on(first).is_zero()
    assert on(first) == on(second) == cup_jacobian(P1XP1, BIQUADRIC)


def test_toric_jacobian_takes_one_determinant(monkeypatch):
    """With no index set given, the toric Jacobian and the cup Jacobian take
    the determinant on the first admissible index set only."""
    calls = []
    original = residue._poly_det
    monkeypatch.setattr(residue, "_poly_det", lambda ring, M: calls.append(M) or original(ring, M))
    F = [BIQUADRIC.weighted_partial(i) for i in range(3)]
    assert len(admissible_index_sets(P1XP1, BIQUADRIC.degree)) >= 2
    toric_jacobian(P1XP1, F)
    assert len(calls) == 1
    cup_jacobian(P1XP1, BIQUADRIC)
    assert len(calls) == 2


def test_certificate_takes_determinants_up_to_the_first_admissible_set(monkeypatch):
    """On the crepant P(1,1,2,2,2) fixture the certificate takes c_I^beta on
    the index sets in lexicographic order up to the first admissible one,
    then once more inside the toric Jacobian, and no further."""
    ring, f = catalog.p11222_pullback_fermat(catalog.p11222_crepant_fan())
    subsets = list(combinations(range(ring.n), ring.d + 1))
    first = admissible_index_sets(ring, f.degree)[0]
    calls = []
    original = residue.c_I_beta
    monkeypatch.setattr(residue, "c_I_beta",
                        lambda ring, beta, I: calls.append(tuple(I)) or original(ring, beta, I))
    certificate = nondegeneracy_certificate(f)
    assert certificate.index_set == first
    assert calls == subsets[:subsets.index(first) + 1] + [first]
    assert len(calls) < len(subsets) + 1


def test_eta_on_fermat_cubic():
    cp = CupProduct(P2, CUBIC)
    xyz = P2.monomial((1, 1, 1))
    assert cp.eta(xyz) == Fraction(1, 9)
    assert cp.eta(P2.one()) == 0  # wrong degree


def test_eta_vanishes_on_j1():
    cp = CupProduct(P2, CUBIC)
    piece = R1Piece(CUBIC, P2.beta0)
    for row in piece.j1.reduced_row_basis():
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
    piece = R1Piece(CUBIC, P2.beta0)
    one = P2.one()
    for elt in piece.j1.reduced_row_basis():
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
    piece = R1Piece(CUBIC, P2.beta0)
    one = P2.one()
    for elt in piece.j1.reduced_row_basis():
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
