import random
from fractions import Fraction
from itertools import product
from operator import add

import pytest

from semitoric.errors import PreconditionError, ValidationError
from semitoric import lattice


def test_pairing_orthogonal_basis():
    assert lattice.pairing((1, 0), (0, 1)) == 0


def test_pairing_direct_sum():
    assert lattice.pairing((2, 3), (1, 1)) == 5


def test_pairing_seven_dim_vertex():
    m1 = (1, 0, 0, 0, 0, 0, 0)
    n0 = (-2, -2, -2, -2, -3, -3, -3)
    assert lattice.pairing(m1, n0) == -2


def test_pairing_length_mismatch():
    with pytest.raises(ValidationError):
        lattice.pairing((1, 2), (1, 2, 3))


def test_primitivize():
    assert lattice.primitivize((2, 4)) == (1, 2)
    assert lattice.primitivize((1, 1)) == (1, 1)
    assert lattice.primitivize((0, -3)) == (0, -1)
    with pytest.raises(ValidationError):
        lattice.primitivize((0, 0))


def test_det():
    assert lattice.det([[2, 0], [1, -1]]) == -2
    assert lattice.det([[1, 0], [0, 1]]) == 1
    assert lattice.det([[1, 2], [2, 4]]) == 0


def test_matrix_rank_rational():
    assert lattice.matrix_rank([[1, 2], [2, 4]]) == 1
    assert lattice.matrix_rank([[1, 0], [0, 1]]) == 2
    half = Fraction(1, 2)
    assert lattice.matrix_rank([[half, 1], [1, 2]]) == 1
    assert lattice.matrix_rank([[half, 0], [0, Fraction(2, 3)]]) == 2
    assert lattice.matrix_rank([[Fraction(0)] * 3]) == 0


def test_inverse_unimodular_singular():
    with pytest.raises(ValidationError, match="matrix is not unimodular"):
        lattice.inverse_unimodular([[1, 2], [2, 4]])


def test_smith_normal_form_roundtrip():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    U, D, V = lattice.smith_normal_form(A)
    n = len(A)
    UA = [[sum(U[i][k] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    UAV = [[sum(UA[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert UAV == D
    diag = [D[i][i] for i in range(n)]
    assert all(D[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    for i in range(n - 1):
        if diag[i + 1] != 0:
            assert diag[i + 1] % diag[i] == 0
    assert abs(lattice.det(U)) == 1
    assert abs(lattice.det(V)) == 1


def test_quotient_form_of_a_full_rank_lattice_has_its_index_many_classes():
    """L spanned by the columns of G with det G = 25: the forms on the box
    [0, 25)^3, which meets every class, take 25 values; they are additive
    and constant under translation by each column."""
    G = [[2, 1, 0], [0, 3, 1], [1, 0, 4]]
    assert lattice.det(G) == 25
    q = lattice.QuotientForm(G, 3)
    assert q.rank == 3
    assert len({q(v) for v in product(range(25), repeat=3)}) == 25
    rng = random.Random(4)
    for _ in range(30):
        v, w = (tuple(rng.randint(-50, 50) for _ in range(3)) for _ in range(2))
        assert q(tuple(map(add, v, w))) == q.reduce(list(map(add, q(v), q(w))))
        for col in zip(*G):
            assert q(tuple(map(add, v, col))) == q(v)


def test_quotient_form_of_the_zero_lattice_is_injective():
    q = lattice.QuotientForm([[] for _ in range(3)], 3)
    assert q.rank == 0
    box = list(product(range(-3, 4), repeat=3))
    assert len({q(v) for v in box}) == len(box)


def test_cone_multiplicity_unimodular():
    assert lattice.cone_multiplicity([(1, 0), (0, 1)]) == 1


def test_cone_multiplicity_det_two():
    assert lattice.cone_multiplicity([(1, 1), (1, -1)]) == 2


def test_cone_multiplicity_identity_instance():
    assert lattice.cone_multiplicity([(1, 0), (1, 2)]) == 2
    # mult(s'+s'') e_i = mult(s') e'' + mult(s'') e'
    e_prime, e_dprime, e_i = (1, 0), (1, 2), (1, 1)
    m_plus = lattice.cone_multiplicity([e_prime, e_dprime])
    m1 = lattice.cone_multiplicity([e_prime, e_i])
    m2 = lattice.cone_multiplicity([e_i, e_dprime])
    lhs = tuple(m_plus * x for x in e_i)
    rhs = tuple(m1 * a + m2 * b for a, b in zip(e_dprime, e_prime))
    assert lhs == rhs


def test_cone_multiplicity_dependent():
    with pytest.raises(PreconditionError):
        lattice.cone_multiplicity([(1, 0), (2, 0)])


def test_cone_multiplicity_lower_dim_in_big_ambient():
    # 2-cone in a 4-dim lattice, index 2 sublattice of its span
    assert lattice.cone_multiplicity([(1, 0, 0, 0), (-1, -2, -2, -2)]) == 2


def test_integer_kernel():
    K = lattice.integer_kernel([[1, 1, 1]])
    assert len(K) == 2
    for k in K:
        assert sum(k) == 0


def ref_integer_kernel(A, ncols):
    """Basis of {x : A x = 0} read off its own Smith normal form."""
    if not A:
        return [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)]
    m, n = len(A), len(A[0])
    _, D, V = lattice.smith_normal_form(A)
    return [tuple(V[i][j] for i in range(n)) for j in range(n) if j >= m or D[j][j] == 0]


def ref_saturation_basis(rows, dim):
    """Basis of span_Q(rows) ∩ Z^dim as a kernel of a kernel."""
    rows = [tuple(r) for r in rows if any(r)]
    if not rows:
        return []
    K = ref_integer_kernel(rows, dim)
    if not K:
        return [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    return ref_integer_kernel(K, dim)


def ref_solve_integer(A, b):
    """One integer solution of A x = b, or None, from the Smith normal form."""
    m, n = len(A), len(A[0]) if A else 0
    U, D, V = lattice.smith_normal_form(A)
    ub = [sum(U[i][k] * b[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(m):
        di = D[i][i] if i < n else 0
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
    return tuple(sum(V[i][j] * y[j] for j in range(n)) for i in range(n))


def test_solve_integer():
    x = ref_solve_integer([[2, 0], [0, 3]], [4, 9])
    assert x == (2, 3)
    assert ref_solve_integer([[2, 0], [0, 2]], [1, 2]) is None


def test_saturation_basis():
    B = ref_saturation_basis([[0, -2, -2, -2], [1, 0, 0, 0]], 4)
    assert len(B) == 2
    # (0,1,1,1) generates the saturation together with e1
    assert ref_solve_integer([list(b) for b in zip(*B)], [0, 1, 1, 1]) is not None
    k, W, _ = lattice.frame([[0, -2, -2, -2], [1, 0, 0, 0]], 4)
    assert k == 2
    assert ref_solve_integer([list(b) for b in zip(*W[:k])], [0, 1, 1, 1]) is not None


def ref_quotient_projection(span_rows, ambient_dim):
    """(P, Q) for N -> N / (span ∩ N), read off the frame (s, W, C) of the
    span: P = C[s:] maps onto Z^(d-s) with kernel the saturated span, and Q,
    with the columns W[s:], is a right inverse (P Q = I)."""
    s, W, C = lattice.frame(span_rows, ambient_dim)
    return C[s:], [tuple(w[i] for w in W[s:]) for i in range(ambient_dim)]


def test_quotient_projection():
    P, Q = ref_quotient_projection([[1, 0, 0, 0], [0, -2, -2, -2]], 4)
    assert len(P) == 2
    for row in P:
        assert lattice.pairing(row, (1, 0, 0, 0)) == 0
        assert lattice.pairing(row, (0, -1, -1, -1)) == 0
    # P Q = identity
    for k, q in enumerate(zip(*Q)):
        img = tuple(lattice.pairing(p, q) for p in P)
        assert img == tuple(int(i == k) for i in range(2))


def _frame_cases(rng):
    """Integer matrices with d = 1..5: no rows, zero rows, repeated rows,
    rank deficiency and more rows than columns."""
    for d in range(1, 6):
        yield [], d
        yield [[0] * d], d
        for _ in range(40):
            gens = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(1, d))]
            rows = [[sum(rng.randint(-1, 1) * g[i] for g in gens) for i in range(d)]
                    for _ in range(rng.randint(1, d + 3))]
            rows += [list(rows[0])] + ([[0] * d] if rng.random() < 0.3 else [])
            rng.shuffle(rows)
            yield rows, d


def test_frame_matches_the_smith_oracles():
    rng = random.Random(13)
    for rows, d in _frame_cases(rng):
        k, W, C = lattice.frame(rows, d)
        assert k == (lattice.matrix_rank(rows) if rows else 0)
        assert [[lattice.pairing(w, c) for c in C] for w in W] \
            == [[int(i == j) for j in range(d)] for i in range(d)]
        ref = ref_saturation_basis(rows, d)
        assert len(ref) == k
        for a, b in ((W[:k], ref), (ref, W[:k])):  # each basis spans the other
            for row in a:
                assert ref_solve_integer([list(c) for c in zip(*b)], list(row)) is not None
        assert C[k:] == lattice.integer_kernel(rows, ncols=d) == ref_integer_kernel(rows, d)
        x = [rng.randint(-9, 9) for _ in range(d)]
        t = [lattice.pairing(x, c) for c in C]
        assert [sum(tj * w[i] for tj, w in zip(t, W)) for i in range(d)] == x


def test_frame_takes_no_smith_form_at_full_rank(monkeypatch):
    """A full-rank span gets the unit frame from one elimination.  The 8 x 5
    matrix below kept the Smith form busy for over 5 s; d + 4 random points
    of [-20, 20]^d took 11 s to build a polytope from in Z^5."""
    from semitoric.polytope import LatticePolytope

    forms = []
    snf = lattice.smith_normal_form
    monkeypatch.setattr(lattice, "smith_normal_form", lambda a: forms.append(a) or snf(a))
    A = [[-12, 17, -10, 1, -12], [17, -1, 18, -6, 6], [0, -3, -9, -8, 23], [0, -3, -9, -8, 23],
         [-5, 6, 16, -13, -1], [2, -8, -28, 14, 1], [7, -6, 33, 7, 13], [8, -3, 12, -9, -17]]
    k, W, C = lattice.frame(A, 5)
    assert k == 5 and W == C == [tuple(int(i == j) for j in range(5)) for i in range(5)]
    for d in (5, 6, 7):
        rng = random.Random(1)
        poly = LatticePolytope([tuple(rng.randint(-20, 20) for _ in range(d))
                                for _ in range(d + 4)])
        assert poly.dim == d and poly.facets()
    assert forms == []
    assert lattice.frame([[2, 4, 6]], 3)[0] == 1 and len(forms) == 1
