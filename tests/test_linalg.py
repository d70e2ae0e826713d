from fractions import Fraction

from semitoric.linalg import (
    SparseEchelon,
    lp_feasible,
    solve_linear,
    solve_unique,
)


def test_sparse_echelon_rank_and_membership():
    ech = SparseEchelon(4)
    ech.insert({0: Fraction(1), 1: Fraction(2)})
    ech.insert({1: Fraction(1), 3: Fraction(1)})
    assert ech.rank == 2
    assert ech.contains({0: Fraction(2), 1: Fraction(5), 3: Fraction(1)})
    assert not ech.contains({2: Fraction(1)})
    dep_pivot, _ = ech.insert({0: Fraction(1), 1: Fraction(1), 3: Fraction(-1)})
    assert dep_pivot is None
    assert ech.rank == 2


def test_sparse_echelon_residual_is_canonical():
    ech = SparseEchelon(3)
    ech.insert({0: Fraction(1), 1: Fraction(1)})
    r1 = ech.reduce({0: Fraction(1), 2: Fraction(1)})
    r2 = ech.reduce({1: Fraction(-1), 2: Fraction(1)})
    assert r1 == r2  # same coset, same representative


def test_sparse_echelon_tag_columns():
    ech = SparseEchelon(2)
    ech.insert({0: Fraction(1), 1: Fraction(1), 2: Fraction(1)})   # tag col 2
    piv, resid = ech.insert({0: Fraction(2), 1: Fraction(2), 3: Fraction(1)})
    assert piv is None
    # residual records the combination: row2 - 2*row1
    assert resid == {2: Fraction(-2), 3: Fraction(1)}


def test_rref_rows():
    ech = SparseEchelon(3)
    ech.insert({0: Fraction(2), 1: Fraction(2)})
    ech.insert({1: Fraction(3), 2: Fraction(3)})
    rows = ech.rref_rows()
    assert rows[0] == {0: Fraction(1), 2: Fraction(-1)}
    assert rows[1] == {1: Fraction(1), 2: Fraction(1)}


def test_solve_linear():
    x, kernel = solve_linear([[1, 1], [1, -1]], [2, 0])
    assert x == (Fraction(1), Fraction(1))
    assert kernel == []
    assert solve_linear([[1, 1], [1, 1]], [0, 1]) is None
    x, kernel = solve_linear([[1, 1]], [3])
    assert len(kernel) == 1
    assert solve_unique([[1, 1]], [3]) is None


def test_lp_feasible_nonneg():
    # x + y = 1, x, y >= 0 is feasible
    assert lp_feasible(2, eqs=[([1, 1], 1)], nonneg=True) is not None
    # x + y = -1, x, y >= 0 is not
    assert lp_feasible(2, eqs=[([1, 1], -1)], nonneg=True) is None


def test_lp_feasible_free_vars():
    # x >= 3, -x >= -2 is infeasible
    assert lp_feasible(1, ineqs=[([1], 3), ([-1], -2)]) is None
    x = lp_feasible(1, ineqs=[([1], -5), ([-1], -5)])
    assert x is not None and -5 <= x[0] <= 5


def test_lp_feasible_solution_satisfies():
    eqs = [([1, 2, 3], 6)]
    ineqs = [([1, 0, 0], 1), ([0, 1, 0], 0)]
    x = lp_feasible(3, eqs=eqs, ineqs=ineqs)
    assert x is not None
    assert x[0] + 2 * x[1] + 3 * x[2] == 6
    assert x[0] >= 1 and x[1] >= 0

