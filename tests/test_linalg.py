import random
from fractions import Fraction

import pytest

from semitoric.linalg import (
    SparseEchelon,
    lp_feasible,
    solve_linear,
    solve_unique,
)


class ReferenceEchelon:
    """The oracle for `SparseEchelon`: every value converted to a Fraction,
    the smallest pivot column found by a scan of the row at every step, and
    every stored row divided by its lead.  Columns >= ncols are tags, carried
    through row operations but never pivots, as the tests' J_1 loop tracks
    combinations with them; `rref_rows` is the tests' canonical form of a
    row space."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row) -> dict[int, Fraction]:
        """Canonical residual of a row modulo the current row space."""
        r = {c: Fraction(v) for c, v in row.items() if v}
        while True:
            c = min((k for k in r if k < self.ncols and k in self.pivots), default=None)
            if c is None:
                return r
            coef = r.pop(c)
            for k, v in self.pivots[c].items():
                if k == c:
                    continue
                nv = r.get(k, Fraction(0)) - coef * v
                if nv:
                    r[k] = nv
                else:
                    r.pop(k, None)

    def insert(self, row):
        """Adjoin a row; returns its pivot column, or None if dependent."""
        r = self.reduce(row)
        c = min((k for k in r if k < self.ncols), default=None)
        if c is None:
            return None, r
        lead = r[c]
        self.pivots[c] = {k: v / lead for k, v in r.items()}
        return c, r

    def contains(self, row) -> bool:
        r = self.reduce(row)
        return not any(k < self.ncols for k in r)

    def rref_rows(self):
        """Fully inter-reduced rows, sorted by pivot column."""
        cols = sorted(self.pivots)
        out = {}
        for c in reversed(cols):
            row = dict(self.pivots[c])
            for k in [k for k in row if k != c and k in out]:
                coef = row.pop(k)
                for kk, vv in out[k].items():
                    if kk == k:
                        continue
                    nv = row.get(kk, Fraction(0)) - coef * vv
                    if nv:
                        row[kk] = nv
                    else:
                        row.pop(kk, None)
            out[c] = row
        return [out[c] for c in cols]


def rref_of(rows, ncols):
    """The rref rows of the span of the given rows, any objects with
    `items()` whose columns lie below ncols (`ReferenceEchelon`)."""
    echelon = ReferenceEchelon(ncols)
    for row in rows:
        echelon.insert(dict(row.items()))
    return echelon.rref_rows()


def random_rows(rng, ncols, ntags, count):
    """Sparse rows with int and Fraction values, tag columns, rows that
    repeat a combination of earlier ones and the negated sum of two earlier
    rows (which cancels to zero against them)."""
    rows = []
    for _ in range(count):
        kind = rng.random()
        if rows and kind < 0.2:
            a, b = rng.sample(rows, 2) if len(rows) > 1 else (rows[0], rows[0])
            s, t = rng.choice([1, 2, -1, Fraction(1, 3)]), rng.choice([1, -3, Fraction(-2, 5)])
            row = {k: s * a.get(k, 0) + t * b.get(k, 0) for k in set(a) | set(b)}
        elif rows and kind < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            row = {k: -(a.get(k, 0) + b.get(k, 0)) for k in set(a) | set(b)}
        else:
            cols = rng.sample(range(ncols), rng.randint(1, min(5, ncols)))
            row = {c: rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-6, 6), rng.randint(1, 4))])
                   for c in cols}
        if ntags and rng.random() < 0.5:
            row[ncols + rng.randrange(ntags)] = rng.choice([1, Fraction(1, 2), -2])
        rows.append(row)
    return rows


def test_sparse_echelon_rank_and_membership():
    ech = SparseEchelon()
    ech.insert({0: Fraction(1), 1: Fraction(2)})
    ech.insert({1: Fraction(1), 3: Fraction(1)})
    assert ech.rank == 2
    assert ech.reduce({0: Fraction(2), 1: Fraction(5), 3: Fraction(1)}) == {}
    assert ech.reduce({2: Fraction(1)}) == {2: Fraction(1)}
    dep_pivot, _ = ech.insert({0: Fraction(1), 1: Fraction(1), 3: Fraction(-1)})
    assert dep_pivot is None
    assert ech.rank == 2


def test_sparse_echelon_residual_is_canonical():
    ech = SparseEchelon()
    ech.insert({0: Fraction(1), 1: Fraction(1)})
    r1 = ech.reduce({0: Fraction(1), 2: Fraction(1)})
    r2 = ech.reduce({1: Fraction(-1), 2: Fraction(1)})
    assert r1 == r2  # same coset, same representative


def test_sparse_echelon_pivots_on_any_column():
    """Every column may be a pivot; only an empty residual is refused."""
    ech = SparseEchelon()
    ech.insert({0: Fraction(1), 1: Fraction(1), 2: Fraction(1)})
    piv, resid = ech.insert({0: Fraction(2), 1: Fraction(2), 3: Fraction(1)})
    assert piv == 2 and resid == {2: Fraction(-2), 3: Fraction(1)}
    assert ech.pivots[2] == {2: Fraction(1), 3: Fraction(-1, 2)}
    assert ech.insert({3: Fraction(1), 2: Fraction(-2)}) == (None, {})
    assert ech.rank == 2


def test_reference_echelon_tag_columns():
    ref = ReferenceEchelon(2)
    ref.insert({0: Fraction(1), 1: Fraction(1), 2: Fraction(1)})   # tag col 2
    piv, resid = ref.insert({0: Fraction(2), 1: Fraction(2), 3: Fraction(1)})
    assert piv is None
    # residual records the combination: row2 - 2*row1
    assert resid == {2: Fraction(-2), 3: Fraction(1)}


def test_rref_of_the_pivot_rows():
    ech = SparseEchelon()
    ech.insert({0: Fraction(2), 1: Fraction(2)})
    ech.insert({1: Fraction(3), 2: Fraction(3)})
    rows = rref_of(ech.pivots.values(), 3)
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



@pytest.mark.parametrize("seed, ncols, ntags, count", [
    (1, 4, 0, 12), (2, 8, 3, 40), (3, 15, 5, 60), (4, 30, 0, 80), (5, 6, 6, 30),
])
def test_sparse_echelon_matches_reference(seed, ncols, ntags, count):
    """After every insert the heap kernel and the reference agree on rank,
    pivot rows, reductions, insert results and membership.  The kernel has no
    tag columns: the reference takes the ntags columns past ncols as pivots
    too."""
    rng = random.Random(seed)
    rows = random_rows(rng, ncols, ntags, count)
    probes = random_rows(rng, ncols, ntags, 15)
    fast, slow = SparseEchelon(), ReferenceEchelon(ncols + ntags)
    dependent = multi_step = 0
    for row in rows:
        multi_step += sum(k in slow.pivots for k in row) > 1
        got, want = fast.insert(dict(row)), slow.insert(dict(row))
        assert got == want
        dependent += got[0] is None
        assert fast.rank == slow.rank
        assert fast.pivots.keys() == slow.pivots.keys()
        assert fast.pivots == slow.pivots
        for probe in probes + rows:
            residual = fast.reduce(probe)
            assert residual == slow.reduce(probe)
            assert (not residual) == slow.contains(probe)
    assert dependent and multi_step


def test_sparse_echelon_keeps_fractions_and_converts_ints():
    ech = SparseEchelon()
    half = Fraction(1, 2)
    r = ech.reduce({0: half, 1: 3, 2: 0})
    assert r == {0: half, 1: Fraction(3)}
    assert r[0] is half and type(r[1]) is Fraction
    piv, resid = ech.insert({1: 1, 2: 4})
    assert piv == 1 and ech.pivots[1] == {1: 1, 2: 4}
    assert all(type(v) is Fraction for v in ech.pivots[1].values())


def unit_lead_rows(rng, ncols, count):
    """(lead, row) pairs: rows of nonzero Fractions whose least column is
    the lead, with value 1, some of them sums of earlier rows rescaled to
    lead 1 (dependent ones among them)."""
    out = []
    for _ in range(count):
        if len(out) > 1 and rng.random() < 0.3:
            (_, a), (_, b) = rng.sample(out, 2)
            s = rng.choice([1, -1, Fraction(2, 3)])
            row = {k: a.get(k, 0) + s * b.get(k, 0) for k in set(a) | set(b)}
            row = {k: Fraction(v) for k, v in row.items() if v}
            if not row:
                continue
            lead = min(row)
            row = {k: v / row[lead] for k, v in row.items()}
        else:
            lead = rng.randrange(ncols)
            rest = rng.sample(range(lead + 1, ncols), min(rng.randint(0, 4), ncols - 1 - lead))
            row = {lead: Fraction(1)}
            row.update({k: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) for k in rest})
        out.append((lead, row))
    return out


class ItemsOnly:
    """A row that only has `items()`, as the rows an ideal piece adopts."""

    def __init__(self, row):
        self.row = row

    def items(self):
        return self.row.items()


@pytest.mark.parametrize("seed, ncols, count", [(1, 6, 20), (2, 12, 50), (3, 25, 80)])
def test_adopt_matches_reference(seed, ncols, count):
    """`adopt` agrees with the reference's `insert` after every row on the
    pivot columns, the rref rows and every reduction: a row whose lead is no
    pivot is stored by reference, also when it meets pivot columns past its
    lead, and a row at a pivot lead is inserted."""
    rng = random.Random(seed)
    fast, slow = SparseEchelon(), ReferenceEchelon(ncols)
    probes = random_rows(rng, ncols, 0, 10)
    kinds = {"kept": 0, "kept past pivots": 0, "at lead": 0}
    for k, (lead, row) in enumerate(unit_lead_rows(rng, ncols, count)):
        kind = ("at lead" if lead in fast.pivots else "kept"
                if fast.pivots.keys().isdisjoint(row) else "kept past pivots")
        kinds[kind] += 1
        if k % 2:
            row = ItemsOnly(row)
        got, want = fast.adopt(lead, row), slow.insert(dict(row.items()))
        if kind == "at lead":
            assert got == want
        else:
            assert got == (lead, row) and want[0] == lead and fast.pivots[lead] is row
        assert fast.pivots.keys() == slow.pivots.keys()
        assert rref_of(fast.pivots.values(), ncols) == slow.rref_rows()
        for probe in probes:
            assert fast.reduce(probe) == slow.reduce(probe)
    assert all(kinds.values())
