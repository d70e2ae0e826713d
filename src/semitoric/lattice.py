"""Exact integer lattice algebra.

Vectors are plain tuples of Python ints, matrices are sequences of rows.
Everything runs in arbitrary precision; there is no floating point and no
fixed-width fast path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import PreconditionError, ValidationError

IntVec = tuple[int, ...]


def pairing(m, n) -> int:
    """Dual pairing <m, n> = sum_j m_j n_j under the fixed dual bases."""
    if len(m) != len(n):
        raise ValidationError(f"pairing of vectors of lengths {len(m)} and {len(n)}")
    return sum(a * b for a, b in zip(m, n))


def pairing_q(m, n) -> Fraction:
    """Pairing allowing rational entries."""
    if len(m) != len(n):
        raise ValidationError(f"pairing of vectors of lengths {len(m)} and {len(n)}")
    return sum(Fraction(a) * b for a, b in zip(m, n))


def gcd_list(xs) -> int:
    g = 0
    for x in xs:
        g = gcd(g, x)
    return g


def primitivize(v) -> IntVec:
    """Scale an integer vector down to the minimal integral generator of its ray."""
    g = gcd_list(v)
    if g == 0:
        raise ValidationError("zero vector spans no ray")
    return tuple(int(x) // g for x in v)


def _eliminate(rows, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968).

    ``rows`` are equal-length rows of integers or rationals.  Each row is
    first scaled by the lcm of its denominators, so all further work is in
    integers.  Pivots are taken only in the first ``ncols`` columns; later
    columns (a right-hand side, an identity block) ride along.

    Returns ``(a, pivots, D, sign, scale)``: the eliminated integer rows, the
    pivot columns, the common final pivot D, the sign of the row swaps and
    the product of the row scales.  Row i < len(pivots) holds D in column
    pivots[i] and 0 in every other pivot column, so a / D is the reduced row
    echelon form; the remaining rows vanish in the first ``ncols`` columns.
    """
    width = len(rows[0]) if rows else 0
    a, scale = [], 1
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValidationError(f"ragged matrix: row {i} has length {len(row)}, not {width}")
        den = lcm(*[x.denominator for x in row])
        a.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    m = len(a)
    pivots, sign, prev = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        prow = a[r]
        d = prow[c]
        # Every other row is updated, including rows already 0 in column c:
        # the division by the previous pivot is exact only for the full step.
        for i in range(m):
            if i != r:
                f = a[i][c]
                a[i] = [(x * d - f * y) // prev for x, y in zip(a[i], prow)]
        pivots.append(c)
        prev = d
    return a, pivots, prev, sign, scale


def det(rows):
    """Determinant of a square matrix by fraction-free elimination.

    An int when every entry is integral, else an exact Fraction.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValidationError("determinant of a non-square matrix")
    _, pivots, d, sign, scale = _eliminate(rows, n)
    if len(pivots) < n:
        return 0
    return sign * d if scale == 1 else Fraction(sign * d, scale)


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(A):
    """Smith normal form with transforms: returns (U, D, V) with U*A*V = D.

    U and V are unimodular, D is diagonal with nonnegative entries and
    d_i | d_{i+1}.  Pivots are chosen of minimal absolute value.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(r) for r in A]
    if any(len(r) != n for r in D):
        raise ValidationError("ragged matrix")
    U, V = _identity(m), _identity(n)

    def row_op(i, j, c):  # row_i += c * row_j
        D[i] = [a + c * b for a, b in zip(D[i], D[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, c):  # col_i += c * col_j
        for r in D:
            r[i] += c * r[j]
        for r in V:
            r[i] += c * r[j]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(m, n):
        # pivot of minimal absolute value in the trailing submatrix
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0 and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    row_op(i, t, -q)
                    if D[i][t] != 0:  # remainder becomes the smaller pivot
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    col_op(j, t, -q)
                    if D[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
        # divisibility of the remaining block by the pivot
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i][j] % D[t][t] != 0:
                    row_op(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if D[t][t] < 0:
                D[t] = [-a for a in D[t]]
                U[t] = [-a for a in U[t]]
            t += 1
    return U, D, V


def invariant_factors(A) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form."""
    _, D, _ = smith_normal_form(A)
    out = []
    for i in range(min(len(D), len(D[0]) if D else 0)):
        if D[i][i] != 0:
            out.append(D[i][i])
    return out


def cone_multiplicity(generators) -> int:
    """Index of the subgroup spanned by independent primitive generators
    inside the lattice points of their linear span."""
    gens = [tuple(g) for g in generators]
    if not gens:
        return 1
    facs = invariant_factors(gens)
    if len(facs) != len(gens):
        raise PreconditionError("cone multiplicity requires linearly independent generators")
    mult = 1
    for f in facs:
        mult *= f
    return mult


def integer_kernel(A, ncols=None):
    """Basis of the saturated lattice {x : A x = 0}."""
    if not A:
        n = ncols if ncols is not None else 0
        return [tuple(r) for r in _identity(n)]
    m, n = len(A), len(A[0])
    _, D, V = smith_normal_form(A)
    out = []
    for j in range(n):
        dj = D[j][j] if j < m else 0
        if dj == 0:
            out.append(tuple(V[i][j] for i in range(n)))
    return out


def solve_integer(A, b):
    """One integer solution of A x = b, or None."""
    m, n = len(A), len(A[0]) if A else 0
    U, D, V = smith_normal_form(A)
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


def matrix_rank(rows) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[1])


def saturation_basis(rows, ambient_dim):
    """Basis of span_Q(rows) ∩ Z^d (the saturation of the row lattice)."""
    rows = [tuple(r) for r in rows if any(r)]
    if not rows:
        return []
    K = integer_kernel(rows, ncols=ambient_dim)
    if not K:
        return [tuple(r) for r in _identity(ambient_dim)]
    return integer_kernel([list(k) for k in K], ncols=ambient_dim)


def inverse_unimodular(A):
    """Exact inverse of a unimodular integer matrix, as integer rows."""
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValidationError("inverse of a non-square matrix")
    a, pivots, d, _, _ = _eliminate(
        [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(A)], n)
    if len(pivots) < n or d not in (1, -1):
        raise ValidationError("matrix is not unimodular")
    return [tuple(d * x for x in row[n:]) for row in a]


def quotient_projection(span_rows, ambient_dim):
    """Projection data for N -> N / (span ∩ N).

    Returns (P, Q): P is a (d-s) x d integer matrix that is surjective onto
    Z^(d-s) with kernel the saturation of the span; Q is a d x (d-s) integer
    right inverse (P Q = I), used to transport pairings to the quotient.
    """
    C = saturation_basis(span_rows, ambient_dim)
    s = len(C)
    d = ambient_dim
    if s == 0:
        ident = _identity(d)
        return [tuple(r) for r in ident], [tuple(r) for r in ident]
    _, D, V = smith_normal_form([list(r) for r in C])
    if any(D[i][i] != 1 for i in range(s)):
        raise ValidationError("span basis is not saturated")
    P = [tuple(V[i][j] for i in range(d)) for j in range(s, d)]
    W = inverse_unimodular(V)
    Q = [tuple(W[s + k][j] for k in range(d - s)) for j in range(d)]
    return P, Q
