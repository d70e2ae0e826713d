"""Exact integer lattice algebra.

Vectors are plain tuples of Python ints, matrices are sequences of rows.
Everything runs in arbitrary precision; there is no floating point and no
fixed-width fast path.

Every sublattice question is read off one frame: ``frame`` takes one Smith
normal form U A V = D of the rows A and the inverse W of V (a span of rank 0
or of full rank gets the unit frame from one elimination).  The rows of W
split into a basis of the saturated span of A and a complement, the dual
columns of V into coordinates on that span and its equations (the integer
kernel of A).  Saturated bases, integer kernels and the lattice anchors
of polytope spans in ``polytope.py`` each cost one frame.  Normal forms in
a quotient Z^dim / L cost one Smith normal form of the generators of L
(``QuotientForm``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import PreconditionError, ValidationError

IntVec = tuple[int, ...]


def pairing(m, n):
    """Dual pairing <m, n> = sum_j m_j n_j under the fixed dual bases.

    Entries may be ints or Fractions: the sum is exact, an int when every
    entry is an int and a Fraction as soon as one entry is."""
    if len(m) != len(n):
        raise ValidationError(f"pairing of vectors of lengths {len(m)} and {len(n)}")
    return sum(a * b for a, b in zip(m, n))


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


def frame(rows, dim):
    """(k, W, C) from one Smith normal form U A V = D of the rows A in Z^dim:
    W = V^-1 as rows and C the columns of V, so <W[i], C[j]> = delta_ij
    (Cohen, "A Course in Computational Algebraic Number Theory", 1993,
    section 2.4).  k is the rank; the rows W[:k] are a basis of
    span_Q(rows) ∩ Z^dim and W[k:] complete it to a basis of Z^dim, C[k:]
    is a basis of the integer kernel {x : A x = 0}, and <x, C[j]> is
    coordinate j of x in the basis W.

    At rank 0 or full rank the frame is the unit one, and no Smith form is
    taken: the rank comes from one elimination, the V of a full-rank Smith
    form can carry large entries, and a polytope scans a box in the
    coordinates of W."""
    k = len(_eliminate(rows, dim)[1]) if rows else 0
    if k in (0, dim):
        ident = [tuple(r) for r in _identity(dim)]
        return k, ident, ident
    _, _, V = smith_normal_form([list(r) for r in rows])
    return k, inverse_unimodular(V), [tuple(r[j] for r in V) for j in range(dim)]


class QuotientForm:
    """Normal forms of Z^dim modulo the span L of the columns of G (dim rows).

    From one Smith normal form U G V = D of rank r, the form of v is U v with
    its first r coordinates reduced mod d_i and the rest as they are; the
    coordinates with d_i = 1, always 0, are left out (`kept` lists the
    others).  Two vectors have the same form exactly when their difference
    lies in L, and the form is additive up to `reduce`.  The class group of
    a toric variety and the grading of a section by its exponents both read
    their normal forms off this kernel."""

    def __init__(self, G, dim):
        U, D, _ = smith_normal_form([list(r) for r in G])
        diag = [D[i][i] for i in range(min(dim, len(D[0]) if D else 0))]
        self.U = U
        self.rank = sum(1 for x in diag if x)
        self.kept = [i for i in range(dim) if i >= self.rank or diag[i] != 1]
        self._moduli = [diag[i] if i < self.rank else 0 for i in self.kept]
        self._rows = [([(k, x) for k, x in enumerate(U[i]) if x], m)
                      for i, m in zip(self.kept, self._moduli)]

    def __call__(self, v) -> tuple:
        out = []
        for row, m in self._rows:
            s = 0
            for k, x in row:
                s += x * v[k]
            out.append(s % m if m else s)
        return tuple(out)

    def reduce(self, u) -> tuple:
        """The normal form of a vector of kept coordinates."""
        return tuple([x % m if m else x for x, m in zip(u, self._moduli)])


def cone_multiplicity(generators) -> int:
    """Index of the subgroup spanned by independent primitive generators
    inside the lattice points of their linear span."""
    gens = [tuple(g) for g in generators]
    if not gens:
        return 1
    _, D, _ = smith_normal_form(gens)
    mult = 1
    for i in range(len(gens)):
        if i >= len(D[0]) or not D[i][i]:
            raise PreconditionError("cone multiplicity requires linearly independent generators")
        mult *= D[i][i]
    return mult


def integer_kernel(A, ncols=None):
    """Basis of the saturated lattice {x : A x = 0}."""
    n = len(A[0]) if A else (ncols or 0)
    k, _, C = frame(A, n)
    return C[k:]


def dual_rows(vectors, dim):
    """(pivots, rows) from one elimination of [V^T | I], V the vectors in
    Z^dim as rows.  The v_p, p in pivots, are the lex-first basis of their
    span; for i < len(pivots), <v_p, rows[i]> > 0 for p = pivots[i] and 0
    for the other pivots, and the remaining rows span the orthogonal
    complement of the vectors.  Every row is primitive."""
    n = len(vectors)
    a, pivots, d, _, _ = _eliminate(
        [[v[i] for v in vectors] + [int(i == j) for j in range(dim)] for i in range(dim)], n)
    sign = 1 if d > 0 else -1
    return pivots, [primitivize([sign * x for x in row[n:]]) for row in a]


def rational_solution(rows, rhs):
    """The unique rational solution of rows * x = rhs in lowest terms, as
    (nums, den): x = nums / den with integer nums and den > 0, read off one
    elimination of [rows | rhs]; None when there is none or more than one."""
    n = len(rows[0]) if rows else 0
    a, pivots, d, _, _ = _eliminate([list(r) + [b] for r, b in zip(rows, rhs)], n)
    if len(pivots) < n or any(row[n] for row in a[n:]):
        return None
    g = gcd(d, *(row[n] for row in a[:n])) * (1 if d > 0 else -1)
    return [row[n] // g for row in a[:n]], d // g


def matrix_rank(rows) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[1])


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
