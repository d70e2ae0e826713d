"""Randomized exact-arithmetic property suites.

Every identity is checked with zero tolerance.  The seed is fixed but can be
overridden through SEMITORIC_TEST_SEED; it is printed so failures reproduce.
"""

import os
import random
from fractions import Fraction
from itertools import combinations

import pytest

from semitoric import catalog
from semitoric.coxring import CoxRing
from semitoric.lattice import cone_multiplicity, det, primitivize
from semitoric.polytope import LatticePolytope
from semitoric.residue import CupProduct, admissible_index_sets, c_I_beta, det_e

from .test_coxring import j1_oracle

SEED = int(os.environ.get("SEMITORIC_TEST_SEED", "20260810"))
print(f"[property suites] seed = {SEED}")


@pytest.fixture
def rng():
    return random.Random(SEED)


def random_rings():
    return [
        CoxRing(catalog.projective_plane()),
        CoxRing(catalog.blowup_p2()),
        CoxRing(catalog.product_fan(catalog.projective_line(),
                                    catalog.projective_line())),
        CoxRing(catalog.projective_space(3)),
    ]


def random_polynomial(ring, rng, max_entry=3, max_terms=4):
    for _ in range(50):
        exps = tuple(rng.randint(0, max_entry) for _ in range(ring.n))
        beta = ring.degree_class(exps)
        basis = ring.monomial_basis(beta)
        if len(basis) == 0:
            continue
        chosen = rng.sample(basis.exponents, min(max_terms, len(basis)))
        terms = {e: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for e in chosen}
        terms = {e: c for e, c in terms.items() if c}
        if terms:
            return ring.polynomial(terms, beta)
    raise AssertionError("could not build a random polynomial")


def test_euler_formula_identity(rng):
    """c_I^beta f = sum_k (-1)^k det(e_{I minus i_k}) x_{i_k} df/dx_{i_k}."""
    for ring in random_rings():
        for _ in range(8):
            f = random_polynomial(ring, rng)
            beta = f.degree
            for I in combinations(range(ring.n), ring.d + 1):
                lhs = c_I_beta(ring, beta, I) * f
                rhs = None
                for k, ik in enumerate(I):
                    rest = tuple(i for i in I if i != ik)
                    term = ((-1) ** k * det_e(ring, rest)) * f.weighted_partial(ik)
                    rhs = term if rhs is None else rhs + term
                assert lhs == rhs


def test_c_I_beta_representative_independence(rng):
    for ring in random_rings():
        for _ in range(10):
            vec = [rng.randint(-4, 4) for _ in range(ring.n)]
            beta = ring.degree_class(vec)
            m = [rng.randint(-3, 3) for _ in range(ring.d)]
            shifted = [v + sum(mj * e[j] for j, mj in enumerate(m))
                       for v, e in zip(vec, ring.fan.rays)]
            assert ring.degree_class(shifted) == beta
            for I in combinations(range(ring.n), ring.d + 1):
                direct = det(
                    [[vec[i] for i in I]]
                    + [[ring.fan.rays[i][j] for i in I] for j in range(ring.d)])
                moved = det(
                    [[shifted[i] for i in I]]
                    + [[ring.fan.rays[i][j] for i in I] for j in range(ring.d)])
                assert direct == moved == c_I_beta(ring, beta, I)


def test_second_euler_row_identity(rng):
    """c_I^beta b_j + sum_k (-1)^{k+1} c_{(j) cup I minus i_k}^beta b_{i_k} = 0."""
    for ring in random_rings():
        for _ in range(10):
            vec = tuple(rng.randint(-4, 4) for _ in range(ring.n))
            beta = ring.degree_class(vec)
            b = beta.rep
            I = tuple(sorted(rng.sample(range(ring.n), ring.d + 1)))
            j = rng.randrange(ring.n)
            total = c_I_beta(ring, beta, I) * b[j]
            for k, ik in enumerate(I):
                J = (j,) + tuple(i for i in I if i != ik)
                if len(set(J)) == len(J):   # a repeated column makes c vanish
                    total += (-1) ** (k + 1) * c_I_beta(ring, beta, J) * b[ik]
            assert total == 0


def test_multiplicity_ray_identity(rng):
    """mult(s'+s'') e_i = mult(s') e'' + mult(s'') e' on random planar cones."""
    done = 0
    while done < 40:
        raw_u = (rng.randint(-5, 5), rng.randint(-5, 5))
        raw_v = (rng.randint(-5, 5), rng.randint(-5, 5))
        if not (any(raw_u) and any(raw_v)):
            continue
        u, v = primitivize(raw_u), primitivize(raw_v)
        if det([list(u), list(v)]) <= 0:
            continue
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        e_i = primitivize(tuple(a * x + b * y for x, y in zip(u, v)))
        lhs = tuple(cone_multiplicity([u, v]) * x for x in e_i)
        rhs = tuple(cone_multiplicity([u, e_i]) * y + cone_multiplicity([e_i, v]) * x
                    for x, y in zip(u, v))
        assert lhs == rhs
        done += 1


def test_multiplicity_invariance(rng):
    """Invariance under generator permutation and unimodular base change."""
    from semitoric.lattice import matrix_rank

    for _ in range(20):
        gens = []
        while len(gens) < 2:
            cand = tuple(rng.randint(-4, 4) for _ in range(3))
            if any(cand):
                gens.append(primitivize(cand))
            if len(gens) == 2 and matrix_rank([list(g) for g in gens]) < 2:
                gens = []
        m = cone_multiplicity(gens)
        assert cone_multiplicity(gens[::-1]) == m
        U = [[1, 1, 0], [0, 1, 0], [rng.randint(-2, 2), 0, 1]]
        moved = [tuple(sum(U[r][c] * g[c] for c in range(3)) for r in range(3))
                 for g in gens]
        assert cone_multiplicity(moved) == m


def _certified_cubic():
    ring = CoxRing(catalog.projective_plane())
    f = ring.polynomial({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    return ring, f


def test_eta_j1_coset_invariance(rng):
    ring, f = _certified_cubic()
    cp = CupProduct(ring, f)
    gamma = cp.eta_degree
    j1_rows = j1_oracle(f, gamma)
    assert j1_rows
    basis = ring.monomial_basis(gamma)
    for _ in range(10):
        h = ring.polynomial(
            {e: Fraction(rng.randint(-3, 3)) for e in
             rng.sample(basis.exponents, min(3, len(basis)))}, gamma)
        shift = rng.choice(j1_rows)
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert cp.eta(h + scale * shift) == cp.eta(h)


def test_cup_pair_j1_coset_invariance(rng):
    ring, f = _certified_cubic()
    cp = CupProduct(ring, f)
    beta, beta0 = f.degree, ring.beta0
    j1_rows = j1_oracle(f, 2 * beta - beta0)
    one = ring.one()
    xyz = ring.monomial((1, 1, 1))
    base = cp.pair(one, xyz, 0, 1)
    for _ in range(8):
        shift = rng.choice(j1_rows)
        scale = Fraction(rng.randint(-4, 4))
        moved = cp.pair(one, xyz + scale * shift, 0, 1)
        assert moved == base


def test_cup_pair_bilinearity(rng):
    ring, f = _certified_cubic()
    cp = CupProduct(ring, f)
    beta, beta0 = f.degree, ring.beta0
    basis = ring.monomial_basis(2 * beta - beta0)
    one = ring.one()
    for _ in range(6):
        b1 = ring.monomial(rng.choice(basis.exponents))
        b2 = ring.monomial(rng.choice(basis.exponents))
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        lhs = cp.pair(one, b1 + s * b2, 0, 1).rational
        rhs = cp.pair(one, b1, 0, 1).rational + s * cp.pair(one, b2, 0, 1).rational
        assert lhs == rhs


def random_lattice_polytope(rng, dim):
    while True:
        pts = [tuple(rng.randint(-3, 3) for _ in range(dim))
               for _ in range(rng.randint(dim + 1, dim + 5))]
        poly = LatticePolytope(pts)
        if poly.dim == dim:
            return poly


def pulling_triangulation(poly, rng):
    """Random-apex pulling triangulation; returns vertex tuples of simplices."""
    verts = poly.vertices
    if len(verts) == poly.dim + 1:
        return [tuple(verts)]
    apex = rng.choice(verts)
    out = []
    for _, _, tight in poly.facets():
        face_verts = [verts[i] for i in sorted(tight)]
        if apex in face_verts:
            continue
        sub = pulling_triangulation(LatticePolytope(face_verts, _trusted=True), rng)
        out.extend(s + (apex,) for s in sub)
    return out


def test_volume_triangulation_additivity(rng):
    for dim in (2, 3):
        for _ in range(6):
            poly = random_lattice_polytope(rng, dim)
            total = Fraction(0)
            for simplex in pulling_triangulation(poly, rng):
                t0 = poly._to_span_coords(simplex[0])
                rows = []
                for v in simplex[1:]:
                    tv = poly._to_span_coords(v)
                    rows.append([a - b for a, b in zip(tv, t0)])
                total += abs(det(rows))
            assert total == poly.normalized_volume()


def test_lattice_point_count_unimodular_invariance(rng):
    for _ in range(8):
        poly = random_lattice_polytope(rng, 2)
        U = [[1, rng.randint(-2, 2)], [0, 1]]
        t = (rng.randint(-3, 3), rng.randint(-3, 3))
        moved = LatticePolytope([
            (U[0][0] * int(x) + U[0][1] * int(y) + t[0],
             U[1][0] * int(x) + U[1][1] * int(y) + t[1])
            for x, y in poly.vertices])
        assert len(moved.lattice_points()) == len(poly.lattice_points())
        assert moved.normalized_volume() == poly.normalized_volume()
