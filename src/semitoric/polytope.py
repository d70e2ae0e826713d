"""Lattice polytopes with exact rational vertices.

Every exact coordinate and value here (vertices, facet right-hand sides,
span levels, volumes) is an ``int`` when it is integral and a ``Fraction``
only when it is not, so a lattice polytope is plain integer arithmetic end
to end.  Ints compare and hash equal to the Fractions of the same value,
and mixed int and Fraction arithmetic is exact.

Conversions between half-space and vertex descriptions, face lattices,
lattice-point and relative-interior-point enumeration, normalized volumes,
dilation, reflexive duality and normal fans.  Inequalities are always read
as <m, normal> >= rhs.  Every conversion between half-spaces and vertices
goes through one integer double-description kernel, ``cone_rays``.

Every face lattice is one closure, ``face_closure``: the intersections of
the facet vertex (or ray) sets, here for polytopes and in ``fan.py`` for
maximal cones.  One pulling triangulation on that lattice,
``LatticePolytope.pulling_triangulation``, gives normalized volumes and the
facet cones of the MPCP helper in ``hodge.py``.

Every lattice point comes from one scan, ``_integer_runs``, which carries
the values of affine forms down its levels instead of recomputing them per
point and returns the points as runs along the last coordinate, on which
each form steps by its last coefficient.  ``_enumerate_integer_points``
lists the values at every point (ambient coordinates and slacks here);
``coxring.py`` reads one range of monomial codes off each run.  The scan
counts its intervals before it visits them and raises ``PreconditionError``
once the count passes ``SCAN_LIMIT``, so a polytope too large to list is
refused at once instead of running with no end.  Each face records the
facets that contain it, and its dimension comes from the closure; the face
on which a direction is least is looked up there by its vertex set.  Face
counts come from the same scan, once per polytope and dilation factor k:
every lattice point of kP is labelled by the facets whose slack is zero at
it, and a point lies in the relative interior of k*theta exactly when its
label is the facet set of theta, so ``Face.interior_points(k)`` is a lookup,
not a new polytope.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import compress, repeat
from math import lcm
from operator import not_

from . import lattice
from .errors import PreconditionError, RationalVertexError, ValidationError


class HPolytope:
    """Finite intersection of half-spaces {m : <m, normal> >= rhs}."""

    def __init__(self, inequalities):
        ineqs = tuple((tuple(int(x) for x in n), int(r)) for n, r in inequalities)
        for i, (n, _) in enumerate(ineqs):
            if len(n) != len(ineqs[0][0]):
                raise ValidationError(f"normal {i} has length {len(n)}, "
                                      f"not the ambient rank {len(ineqs[0][0])}")
            if not any(n):
                raise ValidationError("zero normal in inequality system")
        self.inequalities = ineqs

    @property
    def dim(self) -> int:
        return len(self.inequalities[0][0]) if self.inequalities else 0


def _exact(x):
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    q = x if isinstance(x, Fraction) else Fraction(x)
    return q.numerator if q.denominator == 1 else q


def _ratio(p: int, q: int):
    """p / q for integers p and q > 0: an int when q divides p."""
    return p // q if p % q == 0 else Fraction(p, q)


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _floor(q: Fraction) -> int:
    return q.numerator // q.denominator


def _clear_denominators(vec):
    """(w, den) with w = den * vec integral, den the lcm of the denominators
    of the int or Fraction entries."""
    den = lcm(*[x.denominator for x in vec])
    return tuple(x.numerator * (den // x.denominator) for x in vec), den


SCAN_LIMIT = 10**6   # scan steps: the partial points and the points of a scan


def _integer_runs(ineqs, lo, hi, forms):
    """(runs, last): the integer points t of the box with a·t >= c for each
    inequality (a, c), as runs (values, lo_t, hi_t) in lexicographic order
    of t, and `last`, the last coefficient of each affine form (f, f0).
    Along a run the last coordinate of t goes from lo_t to hi_t, and the
    values f·t + f0 of the forms start at `values` and step by `last`.  The
    slack of an inequality is the form (a, -c).  There must be at least one
    form; with no coordinate, the one run has lo_t = hi_t = 0.

    Depth-first scan with per-level interval tightening.  Partial sums are
    carried down the levels.  The stack is explicit, so no reference cycle
    is left behind.  Each tightened interval is counted when it is found,
    before any of it is visited, so an input past `SCAN_LIMIT` raises
    `PreconditionError` after a few levels, not after the work.
    """
    k = len(lo)
    last = [f[-1] for f, _ in forms] if k else [0] * len(forms)
    if any(l > h for l, h in zip(lo, hi)):
        return [], last
    if k == 0:
        return ([([f0 for _, f0 in forms], 0, 0)] if all(c <= 0 for _, c in ineqs) else []), last
    # rest[j][i]: largest possible contribution of coordinates >= j to inequality i
    rest = [[0] * len(ineqs) for _ in range(k + 1)]
    for j in range(k - 1, -1, -1):
        rest[j] = [r + max(a[j] * lo[j], a[j] * hi[j]) for r, (a, _) in zip(rest[j + 1], ineqs)]
    a_cols = [[a[j] for a, _ in ineqs] for j in range(k)]
    f_cols = [[f[j] for f, _ in forms] for j in range(k)]

    def interval(j, partials):
        lo_j, hi_j = lo[j], hi[j]
        for (_, c), p, r, aj in zip(ineqs, partials, rest[j + 1], a_cols[j]):
            need = c - p - r
            if aj > 0:
                lo_j = max(lo_j, -((-need) // aj))
            elif aj < 0:
                hi_j = min(hi_j, need // aj)
            elif need > 0:
                return lo_j, lo_j - 1
        return lo_j, hi_j

    # a frame (j, partials, values, t, hi_j) is the rest t..hi_j of the
    # interval of coordinate j; the child at t is visited before the rest
    frames, runs, steps = [], [], 0
    j, partials, values = 0, [0] * len(ineqs), [f0 for _, f0 in forms]
    while True:
        lo_j, hi_j = interval(j, partials)
        if lo_j <= hi_j:
            steps += hi_j - lo_j + 1
            if steps > SCAN_LIMIT:
                raise PreconditionError(f"more than {SCAN_LIMIT:,} steps to list the integer "
                                        f"points of a polytope; it is too large to enumerate")
            if j == k - 1:   # the tightened interval is exact at the last coordinate
                runs.append((values, lo_j, hi_j))
            else:
                frames.append((j, partials, values, lo_j, hi_j))
        if not frames:
            break
        j, partials, values, t, hi_j = frames.pop()
        if t < hi_j:
            frames.append((j, partials, values, t + 1, hi_j))
        partials = [p + a * t for p, a in zip(partials, a_cols[j])]
        values = [v + f * t for v, f in zip(values, f_cols[j])]
        j += 1
    return runs, last


def _enumerate_integer_points(ineqs, lo, hi, forms):
    """Yield the values of the affine forms at every point of
    `_integer_runs`, in its order: along a run each form is one range."""
    runs, last = _integer_runs(ineqs, lo, hi, forms)
    for values, lo_t, hi_t in runs:
        n = hi_t - lo_t + 1
        yield from zip(*[range(v + s * lo_t, v + s * (hi_t + 1), s) if s else repeat(v, n)
                         for v, s in zip(values, last)])


class LatticePolytope:
    """Convex polytope given by its exact (possibly rational) vertices.

    The affine-span lattice is tracked so that relative volumes and
    relative-interior points of lower-dimensional faces come out right.
    """

    def __init__(self, vertices, hrep=None, _trusted=False):
        pts = [tuple(map(_exact, v)) for v in vertices]
        if pts and len({len(p) for p in pts}) != 1:
            raise ValidationError("vertices of mixed dimensions")
        hull = None
        if not _trusted:
            pts, hull = _extreme_points(pts)
        self.vertices = tuple(sorted(set(pts)))
        self._index = {v: i for i, v in enumerate(self.vertices)}   # vertex -> index
        self.ambient_dim = len(self.vertices[0]) if self.vertices else (
            hrep.dim if isinstance(hrep, HPolytope) else 0)
        self._span = None
        self._facets = None
        if hull is not None:   # the hull of all the points has the same span and facets
            kept = {i: self._index[p] for i, p in enumerate(hull.vertices) if p in self._index}
            self._span = hull._span
            self._facets = [(n, r, frozenset(kept[i] for i in t if i in kept))
                            for n, r, t in hull.facets()]
        self._faces = None
        self._by_vertex_set = None   # {vertex index set: face}, set by face_at_direction
        self._pulls = {}  # (vertex index set, reverse) -> pulling triangulation
        self._polar = None
        self._lattice_points = None
        self._table = None  # {facet index set: lex-sorted lattice points}, set by _points
        self._reflexive = None
        self._labels = {}  # k -> the table of kP, for each k asked for

    # -- basic structure ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, LatticePolytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"LatticePolytope(dim={self.dim}, vertices={len(self.vertices)})"

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def is_lattice(self) -> bool:
        return all(type(x) is int for v in self.vertices for x in v)

    @property
    def dim(self) -> int:
        if self.is_empty:
            return -1
        return len(self._span_data().basis)

    def _span_data(self):
        """The affine span, from one ``lattice.frame`` of the vertex
        differences: see ``_Span``.  Memoized."""
        if self._span is None:
            base, d = self.vertices[0], self.ambient_dim
            k, W, C = lattice.frame(
                [_clear_denominators([x - y for x, y in zip(v, base)])[0]
                 for v in self.vertices[1:]], d)
            basis, coords = _size_reduced(W[:k], C[:k])
            levels = tuple(_exact(lattice.pairing(base, e)) for e in C[k:])
            self._span = _Span(basis, coords, C[k:], W[k:], levels,
                               _anchor(levels, W[k:], d))
        return self._span

    def _to_span_coords(self, x):
        """Coordinates t of x = o + sum_j t_j b_j over the span basis b, o the
        point of the affine span with zero coordinates, or None off the span."""
        span = self._span_data()
        if any(lattice.pairing(x, e) != h for e, h in zip(span.equations, span.levels)):
            return None
        return [lattice.pairing(x, c) for c in span.coords]

    # -- facets and faces --------------------------------------------------

    def facets(self):
        """Irredundant facet list [(normal, rhs, tight vertex index set)].

        Normals are primitive integer vectors in ambient coordinates that
        lie in the direction space of the affine span, in increasing order;
        the facet inequality is <x, normal> >= rhs (an int when integral,
        else a Fraction).  For polytopes of positive dimension only.
        """
        if self._facets is not None:
            return self._facets
        if self.dim <= 0:
            raise PreconditionError("facets of an empty or 0-dimensional polytope")
        basis = self._span_data().basis
        facets = []
        for n, mask in _facets_in_span(self.vertices, basis, affine=True):
            tight = frozenset(i for i in range(len(self.vertices)) if mask >> i & 1)
            facets.append((n, _exact(lattice.pairing(self.vertices[min(tight)], n)), tight))
        facets.sort(key=lambda f: f[0])
        self._facets = facets
        return facets

    def faces(self, k: int):
        """All k-dimensional faces, each exactly once."""
        faces = self.all_faces()
        if not 0 <= k <= self.dim:
            raise ValidationError(f"face dimension {k} out of range 0..{self.dim}")
        return [f for f in faces if f.dim == k]

    def all_faces(self):
        """Every nonempty face (the polytope itself included), by dimension,
        then by sorted vertex indices: the facet vertex sets closed under
        intersection.  A face's facets are its largest proper faces, among
        its intersections with the facets that do not contain it, so
        dim F = 1 + max dim(F & t) over those t, with dim(empty) = -1."""
        if self._faces is None:
            if self.is_empty:
                raise PreconditionError("faces of the empty polytope")
            facet_sets = [t for _, _, t in self.facets()] if self.dim > 0 else []
            dims = {}
            for s in sorted(face_closure(frozenset(range(len(self.vertices))), facet_sets),
                            key=len):  # F & t is smaller than F, so its dim is known
                dims[s] = 1 + max((dims[s & t] for t in facet_sets if not s <= t),
                                  default=-1) if s else -1
            faces = [Face(self, s, dim, frozenset(i for i, t in enumerate(facet_sets) if s <= t))
                     for s, dim in dims.items() if s]
            faces.sort(key=lambda f: (f.dim, sorted(f.vertex_indices)))
            self._faces = faces
        return self._faces

    def subfaces(self, face: "Face"):
        """The faces of dimension dim(face) - 1 inside the face."""
        return [g for g in self.all_faces() if g.dim == face.dim - 1
                and g.vertex_indices < face.vertex_indices]

    def pulling_triangulation(self, face: "Face" = None, reverse: bool = False):
        """Simplices (vertex index sets) of the pulling triangulation of a
        face, or of the polytope itself by default: pull at the lex-first
        vertex (the lex-last when reverse) and cone it over the
        triangulations of the subfaces that miss it (De Loera, Rambau and
        Santos, "Triangulations", 2010, section 4.3).  Memoized per face."""
        if face is None:
            face = Face(self, frozenset(range(len(self.vertices))), self.dim, frozenset())
        key = (face.vertex_indices, reverse)
        if key not in self._pulls:
            if len(face.vertex_indices) == face.dim + 1:  # a simplex, before all_faces()
                out = [face.vertex_indices]
            else:  # the vertices are sorted, so index order is lex order
                v = (max if reverse else min)(face.vertex_indices)
                out = [s | {v} for g in self.subfaces(face) if v not in g.vertex_indices
                       for s in self.pulling_triangulation(g, reverse)]
            self._pulls[key] = out
        return self._pulls[key]

    # -- point enumeration -------------------------------------------------

    def _span_inequalities(self):
        """Facet inequalities transported to span coordinates: a·t >= c,
        c an int exactly when the facet's rhs is (the anchor is integral)."""
        if self.dim == 0:
            return []
        span = self._span_data()
        out = []
        for n, r, _ in self.facets():
            a = tuple(lattice.pairing(b, n) for b in span.basis)
            out.append((a, r - lattice.pairing(span.anchor, n)))
        return out

    def _scan(self, strict: bool):
        """(rows, tight): one unsorted row per integer point x of P (of its
        relative interior when strict), x followed by its slacks at the
        facets in tight, those with an integer rhs unless strict (no other
        facet is tight at a lattice point)."""
        if self.is_empty:
            return [], []
        span = self._span_data()
        basis, anchor = span.basis, span.anchor
        if anchor is None:
            return [], []
        k = len(basis)
        if k == 0:
            return [anchor], []
        # the anchor has zero span coordinates, so t reads relative to it
        tcoords = [self._to_span_coords(v) for v in self.vertices]
        lo = [_ceil(min(t[j] for t in tcoords)) for j in range(k)]
        hi = [_floor(max(t[j] for t in tcoords)) for j in range(k)]
        span_ineqs = self._span_inequalities()
        ineqs = [(a, _floor(c) + 1 if strict else _ceil(c)) for a, c in span_ineqs]
        tight = [] if strict else [i for i, (_, c) in enumerate(span_ineqs)
                                   if type(c) is int]
        # x = anchor + sum_j t_j b_j, one form per ambient coordinate
        forms = [(tuple(b[i] for b in basis), anchor[i]) for i in range(self.ambient_dim)]
        forms += [(span_ineqs[i][0], -span_ineqs[i][1]) for i in tight]
        return _enumerate_integer_points(ineqs, lo, hi, forms), tight

    def _points(self, strict: bool):
        """The integer points of P (of its relative interior when strict),
        in lexicographic order.  Unless strict, the same scan labels each
        point by its zero slacks into the table of ``labelled_points``."""
        rows, tight = self._scan(strict)
        if strict:
            return sorted(rows)
        d = self.ambient_dim
        points, groups = [], {}
        for row in rows:
            x = row[:d]
            points.append(x)
            groups.setdefault(tuple(compress(tight, map(not_, row[d:]))), []).append(x)
        self._table = {frozenset(label): tuple(sorted(pts)) for label, pts in groups.items()}
        points.sort()
        return points

    def lattice_points(self):
        """All integer points, in lexicographic order (a fresh list; the
        enumeration runs once per polytope, and labels the points)."""
        if self._lattice_points is None:
            self._lattice_points = self._points(strict=False)
        return list(self._lattice_points)

    def relative_interior_points(self):
        """Integer points strictly inside every facet of the affine span."""
        return self._points(strict=True)

    def labelled_points(self, k: int = 1):
        """{facet index set: lex-sorted tuple of the lattice points of kP
        tight at exactly those facets}, from the one scan of kP.

        The points labelled with the facet set of a face theta are those in
        the relative interior of k*theta.  The table is shared: read only.
        """
        table = self._labels.get(k)
        if table is None:
            kp = self if k == 1 else self.dilate(k)
            if kp._lattice_points is None:
                kp._lattice_points = kp._points(strict=False)
            table = self._labels[k] = kp._table
        return table

    def labelled_dilations(self):
        """The factors k whose labelled table has been built."""
        return set(self._labels)

    def contains(self, x) -> bool:
        if self.is_empty or self._to_span_coords(x) is None:
            return False
        return self.dim == 0 or all(lattice.pairing_q(x, n) >= r for n, r, _ in self.facets())

    # -- metric and algebraic operations ------------------------------------

    def normalized_volume(self):
        """k! times the k-dimensional volume, measured in the affine-span
        lattice: the sum of |det| over the pulling triangulation."""
        if self.is_empty:
            return 0
        if self.dim == 0:
            return 1
        total = 0
        for simplex in self.pulling_triangulation():
            t0, *ts = (self._to_span_coords(self.vertices[i]) for i in sorted(simplex))
            total += abs(lattice.det([[a - b for a, b in zip(t, t0)] for t in ts]))
        return _exact(total)

    def dilate(self, factor: int) -> "LatticePolytope":
        """factor * P; known facets and span carry over (scaled right-hand
        sides and levels, the same frame; only the anchor is new), as
        scaling keeps the vertex order."""
        if factor < 1:
            raise ValidationError("dilation factor must be a positive integer")
        out = LatticePolytope([tuple(x * factor for x in v) for v in self.vertices],
                              _trusted=True)
        if self._span is not None:
            levels = tuple(_exact(h * factor) for h in self._span.levels)
            out._span = self._span._replace(levels=levels, anchor=_anchor(
                levels, self._span.complement, self.ambient_dim))
        if self._facets is not None:
            out._facets = [(n, _exact(r * factor), t) for n, r, t in self._facets]
        return out

    # -- reflexive duality ---------------------------------------------------

    def _check_dualizable(self):
        if self.is_empty or self.dim != self.ambient_dim:
            raise PreconditionError("polar dual requires a full-dimensional polytope")
        for _, r, _ in self.facets():
            if r >= 0:
                raise PreconditionError("polar dual requires 0 in the interior")

    def dual_polytope(self) -> "LatticePolytope":
        """Polar dual {y : <x, y> >= -1 for all x}; 0 must be interior.

        The partner is cached both ways: polarity is involutive, and the
        cache keeps duals of polytopes with many facets affordable.
        """
        if self._polar is not None:
            return self._polar
        self._check_dualizable()
        if not self.is_lattice:
            raise RationalVertexError("polar dual of a rational-vertex polytope")
        dual = vertices_from_inequalities(HPolytope([(v, -1) for v in self.vertices]))
        self._polar = dual
        dual._polar = self
        return dual

    def is_reflexive(self) -> bool:
        """Memoized: every dual_face call asks."""
        if self._reflexive is None:
            try:
                self._check_dualizable()
                self._reflexive = self.is_lattice and self.dual_polytope().is_lattice
            except PreconditionError:
                self._reflexive = False
        return self._reflexive

    def dual_face(self, face: "Face") -> "Face":
        """The face {y in dual : <x, y> = -1 for x in face} of the dual polytope.

        The vertices of the dual are the facet normals of a reflexive P, so
        the dual face is spanned by the normals of the facets containing the
        face, and has dimension d - 1 - dim(face).
        """
        if face.polytope is not self and face.polytope != self:
            raise ValidationError("face does not belong to this polytope")
        if not self.is_reflexive():
            raise PreconditionError("dual faces are defined for reflexive polytopes")
        dual = self.dual_polytope()
        facets = self.facets()
        idx = frozenset(dual._index[facets[i][0]] for i in face.facets)
        return Face(dual, idx, self.dim - 1 - face.dim)

    # -- normal fan ----------------------------------------------------------

    def normal_fan(self):
        """Complete fan whose maximal cones are the vertex normal cones."""
        from .fan import Fan

        if self.is_empty or self.dim != self.ambient_dim:
            raise PreconditionError("normal fan requires a full-dimensional polytope")
        rays = [lattice.primitivize(n) for n, _, _ in self.facets()]
        tights = [t for _, _, t in self.facets()]
        cones = []
        for i, _ in enumerate(self.vertices):
            cones.append(frozenset(j for j, t in enumerate(tights) if i in t))
        return Fan(rays, cones)

    def face_at_direction(self, n) -> "Face":
        """The face on which <., n> attains its minimum, looked up in
        `all_faces` by its vertex set."""
        if self.is_empty:
            raise PreconditionError("face of the empty polytope")
        if self._by_vertex_set is None:
            self._by_vertex_set = {f.vertex_indices: f for f in self.all_faces()}
        vals = [lattice.pairing(v, n) for v in self.vertices]
        m = min(vals)
        return self._by_vertex_set[frozenset(i for i, v in enumerate(vals) if v == m)]


class Face:
    """A face of a polytope, recorded by its vertex subset, with the indices
    (into ``polytope.facets()``) of the facets that contain it.  Equality
    and hashing leave out the facets, which follow from the rest."""

    __slots__ = ("polytope", "vertex_indices", "dim", "facets")

    def __init__(self, polytope: LatticePolytope, vertex_indices: frozenset, dim: int,
                 facets: frozenset | None = None):
        if facets is None:
            tights = [t for _, _, t in polytope.facets()] if polytope.dim > 0 else []
            facets = frozenset(i for i, t in enumerate(tights) if vertex_indices <= t)
        self.polytope = polytope
        self.vertex_indices = vertex_indices
        self.dim = dim
        self.facets = facets

    def __eq__(self, other):
        if other.__class__ is not Face:
            return NotImplemented
        return (self.polytope, self.vertex_indices, self.dim) == (
            other.polytope, other.vertex_indices, other.dim)

    def __hash__(self):
        return hash((self.polytope, self.vertex_indices, self.dim))

    def vertices(self):
        return tuple(self.polytope.vertices[i] for i in sorted(self.vertex_indices))

    def interior_points(self, k: int = 1):
        """Lattice points in the relative interior of k * face, in
        lexicographic order, read from the polytope's labelled table."""
        return list(self.polytope.labelled_points(k).get(self.facets, ()))

    def as_polytope(self) -> LatticePolytope:
        return LatticePolytope(self.vertices(), _trusted=True)

    def __repr__(self):
        return f"Face(dim={self.dim}, vertices={sorted(self.vertex_indices)})"


# The affine span o + span(basis) of a polytope, read off one frame.
#
# The rows b_i and w_j are a basis of Z^d, the rows c_i and e_j its dual
# basis: <b_i, c_i> = <w_j, e_j> = 1 and every other pairing is 0.  The
# span is {x : <x, e_j> = h_j}, h_j the levels, and on it
# x = o + sum_i <x, c_i> b_i with o = sum_j h_j w_j.  The point o is in
# Z^d, and is the anchor, exactly when every level is an integer.
_Span = namedtuple("_Span", [
    "basis",        # b_i: a basis of the direction lattice
    "coords",       # c_i: coordinates on the span
    "equations",    # e_j: a basis of the lattice orthogonal to the span
    "complement",   # w_j
    "levels",       # h_j, ints where integral
    "anchor",       # o as ints, or None
])


def _anchor(levels, complement, dim):
    """sum_j h_j w_j, or None when some level h_j is not an integer."""
    if any(type(h) is not int for h in levels):
        return None
    return tuple(sum(h * w[i] for h, w in zip(levels, complement))
                 for i in range(dim))


def _size_reduced(basis, coords):
    """The same lattice, spanned by shorter rows: b_i -= q b_j with q the
    integer nearest <b_i, b_j> / <b_j, b_j>, while some row shrinks; the
    dual rows follow, c_j += q c_i, so <b_i, c_j> = delta_ij still.

    Frame bases of small sublattices can carry 9-digit entries, and the
    point enumeration scans a box in the coordinates of the basis.
    """
    rows, duals = [list(b) for b in basis], [list(c) for c in coords]
    shrunk = True
    while shrunk:
        shrunk = False
        for i, bi in enumerate(rows):
            for j, bj in enumerate(rows):
                if i == j:
                    continue
                dot, norm = sum(x * y for x, y in zip(bi, bj)), sum(y * y for y in bj)
                if 2 * abs(dot) > norm:
                    q = (2 * dot + norm) // (2 * norm)
                    bi[:] = [x - q * y for x, y in zip(bi, bj)]
                    duals[j][:] = [x + q * y for x, y in zip(duals[j], duals[i])]
                    shrunk = True
    return [tuple(b) for b in rows], [tuple(c) for c in duals]


def face_closure(top, tight_sets):
    """Every intersection of ``top`` with some of the tight sets, the empty
    set included: the face lattice of a polytope or cone whose facets have
    the given vertex (or ray) sets."""
    seen = {top, frozenset()}
    queue = [top]
    while queue:
        cur = queue.pop()
        for t in tight_sets:
            nxt = cur & t
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _extreme_points(points):
    """(vertices, hull): the vertices among the points, and the polytope of
    all the points (None for at most one point), whose span and facets are
    built.  A point is a vertex exactly when the facets of the hull through
    it meet in that point alone."""
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts, None
    hull = LatticePolytope(pts, _trusted=True)
    through = [frozenset(range(len(pts)))] * len(pts)
    for _, _, tight in hull.facets():
        for i in tight:
            through[i] &= tight
    return [p for i, p in enumerate(pts) if through[i] == {i}], hull


def cone_rays(rows, dim):
    """Extreme rays of the pointed cone {y : <a, y> >= 0 for every row a}.

    Integer double description (Motzkin et al. 1953; Fukuda and Prodon,
    "Double description method revisited", 1996).  Returns a list of
    (primitive ray, mask), where bit j of the mask is set when row j is
    tight at the ray, or None when the integer rows do not span Q^dim.
    """
    rows = [tuple(r) for r in rows]
    # start from the simplex cone of the lex-first basis of the rows: its
    # ray i is tight at every basis row but the i-th
    start, duals = lattice.dual_rows(rows, dim)
    if len(start) < dim:
        return None
    full = sum(1 << j for j in start)
    rays = [(y, full ^ 1 << i) for i, y in zip(start, duals)]
    for j in sorted(set(range(len(rows))) - set(start)):
        a, bit = rows[j], 1 << j
        vals = [sum(x * z for x, z in zip(a, y)) for y, _ in rays]
        masks = [m for _, m in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        nxt = [rays[i] for i in pos]
        nxt += [(y, m | bit) for (y, m), v in zip(rays, vals) if v == 0]
        for p in pos:
            for n in neg:
                common = masks[p] & masks[n]
                # adjacent: the common tight rows cut out a 2-face, which
                # no third ray lies on
                if common.bit_count() < dim - 2 or any(
                        m & common == common for r, m in enumerate(masks)
                        if r != p and r != n):
                    continue
                y = lattice.primitivize([vals[p] * u - vals[n] * w
                                         for u, w in zip(rays[n][0], rays[p][0])])
                nxt.append((y, common | bit))
        rays = nxt
    return rays


def _facets_in_span(points, basis, affine):
    """[(normal, mask)] for the facets of the cone over the points or, when
    affine, of their convex hull, with primitive normals sum_j s_j b_j in
    the span of the basis rows b_j; bit i of a mask marks point i on the
    facet.  The points must span that cone (or hull) inside the span."""
    rows = []
    for p in points:
        w, den = _clear_denominators(p)
        rows.append([lattice.pairing(b, w) for b in basis] + ([-den] if affine else []))
    return [(lattice.primitivize([sum(c * b[i] for c, b in zip(s, basis))
                                  for i in range(len(basis[0]))]), mask)
            for s, mask in cone_rays(rows, len(rows[0]))]


def vertices_from_inequalities(h: HPolytope) -> LatticePolytope:
    """Exact vertex enumeration of a bounded H-polytope.

    The vertices are the rays with t > 0 of the cone
    {(x, t) : <x, n> - r t >= 0, t >= 0}, scaled to t = 1; a ray with t = 0
    is a recession direction.  Infeasible systems give the empty polytope;
    unbounded ones are rejected.
    """
    d = h.dim
    rays = cone_rays([n + (-r,) for n, r in h.inequalities] + [(0,) * d + (1,)], d + 1)
    if rays is None:  # the normals have rank k < d: test feasibility in their span
        k, W, _ = lattice.frame([n for n, _ in h.inequalities], d)
        rows = [[lattice.pairing(b, n) for b in W[:k]] + [-r] for n, r in h.inequalities]
        if any(y[-1] > 0 for y, _ in cone_rays(rows + [[0] * k + [1]], k + 1)):
            raise PreconditionError("inequality system is feasible but unbounded")
        rays = []
    verts = [tuple(_ratio(x, y[-1]) for x in y[:-1]) for y, _ in rays if y[-1] > 0]
    if verts and len(verts) < len(rays):
        raise PreconditionError("inequality system is unbounded, not a polytope")
    return LatticePolytope(verts, hrep=h, _trusted=True)
