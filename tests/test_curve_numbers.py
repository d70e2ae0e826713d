"""Property tests of the curve numbers (D · V(tau)) read off the walls.

Cartier divisors are drawn as integer combinations of a basis of support
functions, so non-simplicial fans are covered as well.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from semitoric import catalog  # noqa: E402
from semitoric.divisor import TorusInvariantDivisor  # noqa: E402

from .test_divisor import cartier_basis, cartier_divisor  # noqa: E402

P1 = catalog.projective_line()
FANS = [
    P1,
    catalog.projective_plane(),
    catalog.blowup_p2(),
    catalog.hirzebruch(2),
    catalog.product_fan(P1, P1),
    catalog.projective_space(3),
    catalog.blowup_p3(),
    catalog.cross_polytope(3).normal_fan(),
    catalog.p11222_crepant_fan(),
]
BASES = {id(fan): cartier_basis(fan) for fan in FANS}
fans = st.sampled_from(FANS)


def divisors(fan):
    basis = BASES[id(fan)]
    return st.lists(st.integers(-6, 6), min_size=len(basis), max_size=len(basis)).map(
        lambda weights: cartier_divisor(fan, basis, weights))


@given(st.data())
def test_curve_numbers_are_additive(data):
    fan = data.draw(fans)
    d, e = data.draw(divisors(fan)), data.draw(divisors(fan))
    cd, ce, total = d.curve_numbers(), e.curve_numbers(), (d + e).curve_numbers()
    assert cd.keys() == ce.keys() == total.keys()
    assert all(total[tau] == cd[tau] + ce[tau] for tau in total)


@given(st.data(), st.integers(-7, 7))
def test_curve_numbers_scale(data, k):
    div = data.draw(divisors(data.draw(fans)))
    scaled = (k * div).curve_numbers()
    assert all(scaled[tau] == k * v for tau, v in div.curve_numbers().items())


@given(st.data())
def test_curve_numbers_vanish_on_characters(data):
    fan = data.draw(fans)
    m = data.draw(st.lists(st.integers(-9, 9), min_size=fan.dim, max_size=fan.dim))
    div = TorusInvariantDivisor(fan, [-sum(x * y for x, y in zip(m, e)) for e in fan.rays])
    assert set(div.curve_numbers().values()) == {0}
    assert div.nakai_globally_generated() and not div.nakai_ample()


@given(st.data())
def test_nakai_flags_match_convexity(data):
    div = data.draw(divisors(data.draw(fans)))
    assert div.nakai_globally_generated() == div.is_globally_generated()
    assert div.nakai_ample() == div.is_strictly_convex()
