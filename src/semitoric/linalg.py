"""Exact linear algebra over the rationals.

Sparse rows are dicts {column index: Fraction}.  The echelon structure keeps
rows with distinct pivot columns, any column a pivot (there are no tag
columns); reducing a vector against it yields the canonical coset
representative supported on non-pivot columns.  A reduction visits the pivot
columns of the residual in increasing order, through a heap.  A row whose
lead is known to be 1 is adopted: when no pivot sits at its lead it becomes
the pivot row there by reference (`SparseEchelon.adopt`), so a stored tail
may hold pivot columns, which a reduction clears as it reads it.

``lp_feasible``, an exact phase-1 simplex, has no caller in the package:
cone questions go through the double-description kernel
``polytope.cone_rays``.  The simplex stays as an independent route that the
tests compare those answers with.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import ValidationError
from .lattice import _eliminate

_ZERO, _ONE = Fraction(0), Fraction(1)   # shared: Fractions are immutable


class SparseEchelon:
    """Incremental row-echelon form of a sparse rational row space.

    Every row but an adopted one goes through `reduce`, which converts only
    the values that are not ``Fraction``s.  Pivot rows have lead 1; a
    residual whose lead is 1 already is stored undivided.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row) -> dict[int, Fraction]:
        """Canonical residual of a row modulo the current row space; a pivot
        row brings in only columns past its pivot, so a heap gives the next."""
        pivots = self.pivots
        r = {c: v if isinstance(v, Fraction) else Fraction(v) for c, v in row.items() if v}
        heap = [k for k in r if k in pivots]
        heapify(heap)
        while heap:
            c = heappop(heap)
            coef = r.pop(c, None)
            if coef is None:   # cancelled after it was pushed
                continue
            for k, v in pivots[c].items():
                if k == c:
                    continue
                if k not in r and k in pivots:
                    heappush(heap, k)
                nv = r.get(k, _ZERO) - coef * v
                if nv:
                    r[k] = nv
                else:
                    del r[k]
        return r

    def insert(self, row):
        """Adjoin a row; returns (pivot column, or None if dependent, residual).
        A residual of lead 1 is stored as it is returned: do not change it."""
        r = self.reduce(row)
        if not r:
            return None, r
        c = min(r)
        lead = r[c]
        self.pivots[c] = r if lead == 1 else {k: v / lead for k, v in r.items()}
        return c, r

    def adopt(self, lead: int, row):
        """`insert` for a row, any object with `items()`, of nonzero Fractions
        whose least column is `lead`, with value 1: when `lead` is no pivot
        yet the row is stored as it is, the pivot row at `lead`, unread; its
        other columns may be pivots.  Any other row is inserted."""
        if lead in self.pivots:
            return self.insert(row)
        self.pivots[lead] = row
        return lead, row


def solve_linear(rows, rhs):
    """All rational solutions of rows * x = rhs.

    Returns (particular, kernel_basis) or None when inconsistent.
    """
    if len(rhs) != len(rows):
        raise ValidationError(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    n = len(rows[0]) if rows else 0
    a, pivots, d, _, _ = _eliminate([list(r) + [b] for r, b in zip(rows, rhs)], n)
    if any(row[n] for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(a, pivots):
        x[c] = Fraction(row[n], d)
    kernel = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, c in zip(a, pivots):
            v[c] = Fraction(-row[f], d)
        kernel.append(tuple(v))
    return tuple(x), kernel


def solve_unique(rows, rhs):
    """The unique rational solution of rows * x = rhs, or None."""
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    x, kernel = sol
    if kernel:
        return None
    return x


def lp_feasible(num_vars, eqs=(), ineqs=(), nonneg=False):
    """Exact LP feasibility: find x with a·x = b for (a, b) in eqs and
    a·x >= b for (a, b) in ineqs.  With nonneg=True, additionally x >= 0.

    Returns a tuple of Fractions or None.  Phase-1 simplex with Bland's rule.
    """
    if nonneg:
        nv = num_vars
        def expand(a):
            return [Fraction(c) for c in a]
        def recover(z):
            return tuple(z[:num_vars])
    else:
        nv = 2 * num_vars
        def expand(a):
            return [Fraction(c) for c in a] + [-Fraction(c) for c in a]
        def recover(z):
            return tuple(z[i] - z[num_vars + i] for i in range(num_vars))

    rows = []
    rhs = []
    nslack = len(ineqs)
    for k, (a, b) in enumerate(ineqs):
        row = expand(a) + [Fraction(0)] * nslack
        row[nv + k] = Fraction(-1)
        rows.append(row)
        rhs.append(Fraction(b))
    for a, b in eqs:
        rows.append(expand(a) + [Fraction(0)] * nslack)
        rhs.append(Fraction(b))

    ncols = nv + nslack
    m = len(rows)
    if m == 0:
        return tuple(Fraction(0) for _ in range(num_vars))
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # Tableau with one artificial variable per row; minimize their sum.
    ncols_t = ncols + m
    tab = [rows[i] + [Fraction(int(j == i)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [ncols + i for i in range(m)]
    cost = [Fraction(0)] * ncols_t + [Fraction(0)]
    for j in range(ncols, ncols_t):
        cost[j] = Fraction(1)
    # reduced costs: cost row minus sum of basic rows (each basic column has cost 1)
    z = [Fraction(0)] * (ncols_t + 1)
    for j in range(ncols_t + 1):
        z[j] = cost[j] - sum(tab[i][j] for i in range(m))

    while True:
        enter = next((j for j in range(ncols_t) if z[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][ncols_t] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise ValidationError("phase-1 LP unbounded; inconsistent model")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if z[enter]:
            f = z[enter]
            z = [x - f * y for x, y in zip(z, tab[leave])]
        basis[leave] = enter

    if -z[ncols_t] != 0:
        return None
    sol = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        if b < ncols:
            sol[b] = tab[i][ncols_t]
    return recover(sol)
