"""Differential tests of the fraction-free elimination kernel.

The reference below is the plain ``Fraction`` Gauss-Jordan elimination the
package used before it moved to one fraction-free kernel.  It is slow but
obviously right; det, rank, solve and the unimodular inverse are compared
with it on seeded random small rational matrices.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from semitoric import lattice
from semitoric.errors import ValidationError
from semitoric.linalg import solve_linear, solve_unique


def reference_rref(rows, ncols):
    """Reduced row echelon form over Q, pivoting in the first ncols columns.

    Returns (rows, pivot columns, signed product of the pivots).
    """
    a = [[Fraction(x) for x in r] for r in rows]
    m = len(a)
    pivots, det = [], Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        det *= a[r][c]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots, det


def reference_solve(rows, rhs):
    n = len(rows[0]) if rows else 0
    a, pivots, _ = reference_rref([list(r) + [b] for r, b in zip(rows, rhs)], n)
    if any(row[n] != 0 for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(a, pivots):
        x[c] = row[n]
    kernel = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, c in zip(a, pivots):
            v[c] = -row[f]
        kernel.append(tuple(v))
    return tuple(x), kernel


def reference_rank(rows):
    return len(reference_rref(rows, len(rows[0]) if rows else 0)[1])


def reference_det(rows):
    _, pivots, det = reference_rref(rows, len(rows))
    return det if len(pivots) == len(rows) else Fraction(0)


def reference_inverse(A):
    n = len(A)
    a, pivots, _ = reference_rref(
        [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(A)], n)
    if len(pivots) < n or any(x.denominator != 1 for row in a for x in row[n:]):
        return None
    return [tuple(int(x) for x in row[n:]) for row in a]


def random_entry(rng, rational):
    v = rng.choice([0, 0, 0, 1, -1, 2, -2, 3, -5, 7])
    if rational and rng.random() < 0.4:
        return Fraction(v, rng.choice([1, 2, 3, 4, 6, 9]))
    return v


def random_matrix(rng, m, n, rational):
    """A random m x n matrix, made rank-deficient about a third of the time."""
    rows = [[random_entry(rng, rational) for _ in range(n)] for _ in range(m)]
    if m >= 2 and rng.random() < 0.35:
        i, j = rng.sample(range(m), 2)
        c = rng.choice([1, -2, Fraction(1, 2)] if rational else [1, -2, 3])
        rows[j] = [x + c * y for x, y in zip(rows[j], rows[i])]
    return rows


def random_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        rational = rng.random() < 0.5
        # square, wide and tall shapes alike
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        yield rng, rational, random_matrix(rng, m, n, rational)


def test_solve_linear_matches_reference():
    outcomes = set()
    for rng, rational, rows in random_cases(11, 600):
        rhs = [random_entry(rng, rational) for _ in rows]
        if rng.random() < 0.5:  # a consistent right-hand side
            x = [random_entry(rng, rational) for _ in rows[0]]
            rhs = [sum(Fraction(a) * b for a, b in zip(r, x)) for r in rows]
        expected = reference_solve(rows, rhs)
        got = solve_linear(rows, rhs)
        assert got == expected, (rows, rhs)
        if got is not None:
            assert all(type(v) is Fraction for v in got[0])
            assert all(type(v) is Fraction for k in got[1] for v in k)
        outcomes.add("none" if got is None else len(got[1]) > 0)
    assert outcomes == {"none", True, False}


def test_solve_unique_matches_reference():
    for rng, rational, rows in random_cases(12, 300):
        rhs = [random_entry(rng, rational) for _ in rows]
        sol = reference_solve(rows, rhs)
        expected = sol[0] if sol is not None and not sol[1] else None
        assert solve_unique(rows, rhs) == expected, (rows, rhs)


def test_rational_solution_matches_solve_unique():
    """The integer solve gives the rationals of solve_unique as integers
    over one positive denominator, in lowest terms, and None exactly where
    solve_unique gives None."""
    outcomes = set()
    for rng, rational, rows in random_cases(14, 600):
        rhs = [random_entry(rng, rational) for _ in rows]
        if rng.random() < 0.5:  # a consistent right-hand side
            x = [random_entry(rng, rational) for _ in rows[0]]
            rhs = [sum(Fraction(a) * b for a, b in zip(r, x)) for r in rows]
        expected, got = solve_unique(rows, rhs), lattice.rational_solution(rows, rhs)
        if expected is None:
            assert got is None, (rows, rhs)
            outcomes.add("inconsistent" if solve_linear(rows, rhs) is None else "singular")
            continue
        nums, den = got
        assert all(type(v) is int for v in nums) and type(den) is int
        assert den > 0 and gcd(den, *nums) == 1
        assert tuple(Fraction(v, den) for v in nums) == expected, (rows, rhs)
        outcomes.add("square" if len(rows) == len(rows[0]) else "tall")
    assert outcomes == {"inconsistent", "singular", "square", "tall"}


def test_matrix_rank_matches_reference():
    ranks = set()
    for _, _, rows in random_cases(13, 600):
        rank = lattice.matrix_rank(rows)
        assert rank == reference_rank(rows), rows
        ranks.add(rank < min(len(rows), len(rows[0])))
    assert ranks == {True, False}


def test_det_matches_reference():
    rng = random.Random(14)
    for _ in range(600):
        n = rng.randint(0, 5)
        rational = rng.random() < 0.5
        rows = random_matrix(rng, n, n, rational)
        got = lattice.det(rows)
        assert got == reference_det(rows), rows
        if not any(isinstance(x, Fraction) for r in rows for x in r):
            assert type(got) is int


def random_unimodular(rng, n):
    """A random product of elementary unimodular matrices."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 3 * n)):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        move = rng.choice(["add", "swap", "negate"])
        if move == "add" and i != j:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        elif move == "swap":
            a[i], a[j] = a[j], a[i]
        else:
            a[i] = [-x for x in a[i]]
    return a


def test_inverse_unimodular_matches_reference():
    rng = random.Random(15)
    for _ in range(300):
        n = rng.randint(1, 5)
        A = random_unimodular(rng, n)
        inv = lattice.inverse_unimodular(A)
        assert inv == reference_inverse(A), A
        product = [[sum(A[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)]


def test_inverse_unimodular_rejects_what_reference_rejects():
    rng = random.Random(16)
    rejected = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        A = random_matrix(rng, n, n, False)
        expected = reference_inverse(A)
        if expected is None:
            rejected += 1
            with pytest.raises(ValidationError, match="not unimodular"):
                lattice.inverse_unimodular(A)
        else:
            assert lattice.inverse_unimodular(A) == expected
    assert rejected > 0


@pytest.mark.parametrize("call", [
    lambda: lattice.matrix_rank([[1, 2], [3]]),
    lambda: lattice.det([[1, 2], [3]]),
    lambda: lattice.inverse_unimodular([[1, 0], [0]]),
    lambda: solve_linear([[1, 0], [0, 1, 0]], [1, 1]),
    lambda: solve_linear([[1, 0], [0, 1]], [1]),
])
def test_ragged_input_is_rejected(call):
    with pytest.raises(ValidationError):
        call()
