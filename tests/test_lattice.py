from fractions import Fraction

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


def test_solve_integer():
    x = lattice.solve_integer([[2, 0], [0, 3]], [4, 9])
    assert x == (2, 3)
    assert lattice.solve_integer([[2, 0], [0, 2]], [1, 2]) is None


def test_saturation_basis():
    B = lattice.saturation_basis([[0, -2, -2, -2], [1, 0, 0, 0]], 4)
    assert len(B) == 2
    # (0,1,1,1) generates the saturation together with e1
    span = {tuple(b) for b in B}
    assert lattice.solve_integer([list(b) for b in zip(*B)], [0, 1, 1, 1]) is not None


def test_quotient_projection():
    P, Q = lattice.quotient_projection([[1, 0, 0, 0], [0, -2, -2, -2]], 4)
    assert len(P) == 2
    for row in P:
        assert lattice.pairing(row, (1, 0, 0, 0)) == 0
        assert lattice.pairing(row, (0, -1, -1, -1)) == 0
    # P Q = identity
    for k, q in enumerate(zip(*Q)):
        img = tuple(lattice.pairing(p, q) for p in P)
        assert img == tuple(int(i == k) for i in range(2))
