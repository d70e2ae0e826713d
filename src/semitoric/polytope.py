"""Lattice polytopes with exact rational vertices.

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

Each face records the facets that contain it.  Face counts come from one
labelled pass per polytope and dilation factor k: every lattice point of kP
is labelled by the set of facets tight at it, and a point lies in the
relative interior of k*theta exactly when its label is the facet set of
theta, so ``Face.interior_points(k)`` is a lookup, not a new polytope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import lattice
from .errors import PreconditionError, RationalVertexError, ValidationError
from .linalg import solve_unique


@dataclass(frozen=True)
class HPolytope:
    """Finite intersection of half-spaces {m : <m, normal> >= rhs}."""

    inequalities: tuple

    def __post_init__(self):
        ineqs = tuple((tuple(int(x) for x in n), int(r)) for n, r in self.inequalities)
        for i, (n, _) in enumerate(ineqs):
            if len(n) != len(ineqs[0][0]):
                raise ValidationError(f"normal {i} has length {len(n)}, "
                                      f"not the ambient rank {len(ineqs[0][0])}")
            if not any(n):
                raise ValidationError("zero normal in inequality system")
        object.__setattr__(self, "inequalities", ineqs)

    @property
    def dim(self) -> int:
        return len(self.inequalities[0][0]) if self.inequalities else 0


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _floor(q: Fraction) -> int:
    return q.numerator // q.denominator


def _clear_denominators(vec):
    from math import lcm

    den = lcm(*[Fraction(x).denominator for x in vec]) if vec else 1
    return tuple(int(Fraction(x) * den) for x in vec), den


def _enumerate_integer_points(ineqs, lo, hi):
    """All integer points of a box satisfying a·t >= c for each (a, c).

    Depth-first scan with per-level interval tightening; suitable for the
    simplex-like regions that arise here.
    """
    k = len(lo)
    if any(l > h for l, h in zip(lo, hi)):
        return []
    if k == 0:
        return [()] if all(c <= 0 for _, c in ineqs) else []
    # suffix_max[i][j]: largest possible contribution of coordinates >= j
    suffix_max = []
    for a, _ in ineqs:
        sm = [0] * (k + 1)
        for j in range(k - 1, -1, -1):
            sm[j] = sm[j + 1] + max(a[j] * lo[j], a[j] * hi[j])
        suffix_max.append(sm)
    out = []

    def descend(j, prefix, partials):
        lo_j, hi_j = lo[j], hi[j]
        for idx, (a, c) in enumerate(ineqs):
            rest = suffix_max[idx][j + 1]
            aj = a[j]
            need = c - partials[idx] - rest
            if aj == 0:
                if need > 0:
                    return
            elif aj > 0:
                lo_j = max(lo_j, -((-need) // aj))
            else:
                hi_j = min(hi_j, need // aj)
        if j == k - 1:   # the tightened interval is exact at the last coordinate
            out.extend(prefix + (t,) for t in range(lo_j, hi_j + 1))
            return
        for t in range(lo_j, hi_j + 1):
            descend(j + 1, prefix + (t,),
                    [p + a[j] * t for p, (a, _) in zip(partials, ineqs)])

    descend(0, (), [0] * len(ineqs))
    return out


class LatticePolytope:
    """Convex polytope given by its exact (possibly rational) vertices.

    The affine-span lattice is tracked so that relative volumes and
    relative-interior points of lower-dimensional faces come out right.
    """

    def __init__(self, vertices, hrep=None, _trusted=False):
        pts = [tuple(Fraction(x) for x in v) for v in vertices]
        if pts and len({len(p) for p in pts}) != 1:
            raise ValidationError("vertices of mixed dimensions")
        if not _trusted:
            pts = _extreme_points(pts)
        self.vertices = tuple(sorted(set(pts)))
        self.ambient_dim = len(self.vertices[0]) if self.vertices else (
            hrep.dim if isinstance(hrep, HPolytope) else 0)
        self._span = None
        self._facets = None
        self._faces = None
        self._pulls = {}  # (vertex index set, reverse) -> pulling triangulation
        self._polar = None
        self._lattice_points = None
        self._reflexive = None
        self._labels = {}  # k -> {facet index set: lex-sorted points of kP}

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
        return all(x.denominator == 1 for v in self.vertices for x in v)

    def require_lattice(self):
        if not self.is_lattice:
            raise RationalVertexError(
                "operation requires a lattice polytope but vertices are rational")

    @property
    def dim(self) -> int:
        if self.is_empty:
            return -1
        return len(self._span_data()[1])

    def _span_data(self):
        """(base point, direction-lattice basis rows, integer anchor or None)."""
        if self._span is None:
            base = self.vertices[0]
            dirs = []
            for v in self.vertices[1:]:
                d, _ = _clear_denominators([x - y for x, y in zip(v, base)])
                if any(d):
                    dirs.append(d)
            basis = _size_reduced(lattice.saturation_basis(dirs, self.ambient_dim))
            anchor = self._integer_anchor(base, basis)
            self._span = (base, basis, anchor)
        return self._span

    def _integer_anchor(self, base, basis):
        """Some lattice point of the affine span, or None."""
        if all(x.denominator == 1 for x in base):
            return tuple(int(x) for x in base)
        constraints = lattice.integer_kernel([list(b) for b in basis],
                                             ncols=self.ambient_dim)
        if not constraints:
            return (0,) * self.ambient_dim  # a full-dimensional span holds the origin
        rhs = [sum(Fraction(c) * b for c, b in zip(row, base)) for row in constraints]
        if any(q.denominator != 1 for q in rhs):
            return None
        return lattice.solve_integer([list(r) for r in constraints],
                                     [int(q) for q in rhs])

    def _to_span_coords(self, x):
        """Coordinates of ambient point x in the affine-span basis."""
        base, basis, _ = self._span_data()
        rel = [Fraction(a) - b for a, b in zip(x, base)]
        cols = [[basis[j][i] for j in range(len(basis))] for i in range(self.ambient_dim)]
        return solve_unique(cols, rel)

    # -- facets and faces --------------------------------------------------

    def facets(self):
        """Irredundant facet list [(normal, rhs, tight vertex index set)].

        Normals are primitive integer vectors in ambient coordinates that
        lie in the direction space of the affine span, in increasing order;
        the facet inequality is <x, normal> >= rhs (rhs rational in general).
        For polytopes of positive dimension only.
        """
        if self._facets is not None:
            return self._facets
        if self.dim <= 0:
            raise PreconditionError("facets of an empty or 0-dimensional polytope")
        _, basis, _ = self._span_data()
        facets = []
        for n, mask in _facets_in_span(self.vertices, basis, affine=True):
            tight = frozenset(i for i in range(len(self.vertices)) if mask >> i & 1)
            facets.append((n, lattice.pairing_q(self.vertices[min(tight)], n), tight))
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
        intersection."""
        if self._faces is None:
            if self.is_empty:
                raise PreconditionError("faces of the empty polytope")
            facet_sets = [t for _, _, t in self.facets()] if self.dim > 0 else []
            faces = [Face(self, s, _affine_dim([self.vertices[i] for i in s]),
                          frozenset(i for i, t in enumerate(facet_sets) if s <= t))
                     for s in face_closure(frozenset(range(len(self.vertices))), facet_sets)
                     if s]
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
        """Facet inequalities transported to span coordinates: a·t >= c (rational)."""
        k = self.dim
        _, basis, anchor = self._span_data()
        out = []
        if k == 0:
            return out
        for n, r, _ in self.facets():
            a = tuple(lattice.pairing(b, n) for b in basis)
            c = Fraction(r) - lattice.pairing_q(anchor, n)
            out.append((a, c))
        return out

    def _points(self, strict: bool):
        if self.is_empty:
            return []
        base, basis, anchor = self._span_data()
        if anchor is None:
            return []
        k = len(basis)
        if k == 0:
            x = tuple(int(v) for v in self.vertices[0]) if self.is_lattice else None
            return [x] if x is not None else []
        tcoords = [self._to_span_coords(v) for v in self.vertices]
        if anchor != base:  # the box is read relative to the anchor
            origin = self._to_span_coords(anchor)
            tcoords = [[a - o for a, o in zip(t, origin)] for t in tcoords]
        lo = [_ceil(min(t[j] for t in tcoords)) for j in range(k)]
        hi = [_floor(max(t[j] for t in tcoords)) for j in range(k)]
        ineqs = []
        for a, c in self._span_inequalities():
            if strict:
                ineqs.append((a, _floor(c) + 1))
            else:
                ineqs.append((a, _ceil(c)))
        pts = _enumerate_integer_points(ineqs, lo, hi)
        out = []
        for t in pts:
            x = tuple(anchor[i] + sum(t[j] * basis[j][i] for j in range(k))
                      for i in range(self.ambient_dim))
            out.append(x)
        out.sort()
        return out

    def lattice_points(self):
        """All integer points, in lexicographic order (a fresh list; the
        enumeration runs once per polytope)."""
        if self._lattice_points is None:
            self._lattice_points = self._points(strict=False)
        return list(self._lattice_points)

    def relative_interior_points(self):
        """Integer points strictly inside every facet of the affine span."""
        return self._points(strict=True)

    def labelled_points(self, k: int = 1):
        """{facet index set: lex-sorted tuple of the lattice points of kP
        tight at exactly those facets}, built on first use from one
        enumeration of kP.

        The points labelled with the facet set of a face theta are those in
        the relative interior of k*theta.  The table is shared: read only.
        """
        table = self._labels.get(k)
        if table is None:
            points = self.lattice_points() if k == 1 else self.dilate(k).lattice_points()
            # a facet whose k*rhs is not an integer is tight at no lattice point
            rows = [(i, n, int(k * r)) for i, (n, r, _) in
                    enumerate(self.facets() if self.dim > 0 else [])
                    if Fraction(k * r).denominator == 1]
            table = {}
            for x in points:
                label = frozenset(i for i, n, c in rows
                                  if sum(a * b for a, b in zip(x, n)) == c)
                table.setdefault(label, []).append(x)
            table = self._labels[k] = {label: tuple(pts) for label, pts in table.items()}
        return table

    def labelled_dilations(self):
        """The factors k whose labelled table has been built."""
        return set(self._labels)

    def contains(self, x) -> bool:
        if self.is_empty:
            return False
        t = self._to_span_coords(x)
        if t is None:
            return False
        if self.dim == 0:
            return tuple(Fraction(a) for a in x) == self.vertices[0]
        return all(lattice.pairing_q(x, n) >= r for n, r, _ in self.facets())

    # -- metric and algebraic operations ------------------------------------

    def normalized_volume(self) -> Fraction:
        """k! times the k-dimensional volume, measured in the affine-span
        lattice: the sum of |det| over the pulling triangulation."""
        if self.is_empty:
            return Fraction(0)
        if self.dim == 0:
            return Fraction(1)
        total = Fraction(0)
        for simplex in self.pulling_triangulation():
            t0, *ts = (self._to_span_coords(self.vertices[i]) for i in sorted(simplex))
            total += abs(lattice.det([[a - b for a, b in zip(t, t0)] for t in ts]))
        return total

    def dilate(self, factor: int) -> "LatticePolytope":
        """factor * P; known facets and span carry over (scaled right-hand
        sides, the same lattice basis), as scaling keeps the vertex order."""
        if factor < 1:
            raise ValidationError("dilation factor must be a positive integer")
        out = LatticePolytope([tuple(x * factor for x in v) for v in self.vertices],
                              _trusted=True)
        if self._span is not None:
            base, basis, _ = self._span
            base = tuple(x * factor for x in base)
            out._span = (base, basis, out._integer_anchor(base, basis))
        if self._facets is not None:
            out._facets = [(n, r * factor, t) for n, r, t in self._facets]
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
        h = HPolytope([(v_int, -1) for v_int in self._integral_vertex_rows()])
        dual = vertices_from_inequalities(h)
        self._polar = dual
        dual._polar = self
        return dual

    def _integral_vertex_rows(self):
        rows = []
        for v in self.vertices:
            r, den = _clear_denominators(v)
            rows.append(r if den == 1 else None)
        if any(r is None for r in rows):
            raise RationalVertexError("polar dual of a rational-vertex polytope")
        return rows

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
        index = {tuple(int(x) for x in w): j for j, w in enumerate(dual.vertices)}
        facets = self.facets()
        idx = frozenset(index[facets[i][0]] for i in face.facets)
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
        """The face on which <., n> attains its minimum."""
        if self.is_empty:
            raise PreconditionError("face of the empty polytope")
        vals = [lattice.pairing_q(v, n) for v in self.vertices]
        m = min(vals)
        idx = frozenset(i for i, v in enumerate(vals) if v == m)
        return Face(self, idx, _affine_dim([self.vertices[i] for i in idx]))


@dataclass(frozen=True)
class Face:
    """A face of a polytope, recorded by its vertex subset, with the indices
    (into ``polytope.facets()``) of the facets that contain it."""

    polytope: LatticePolytope
    vertex_indices: frozenset
    dim: int
    facets: frozenset = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.facets is None:
            poly = self.polytope
            tights = [t for _, _, t in poly.facets()] if poly.dim > 0 else []
            object.__setattr__(self, "facets", frozenset(
                i for i, t in enumerate(tights) if self.vertex_indices <= t))

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


def _size_reduced(basis):
    """The same lattice, spanned by shorter rows: b_i -= q b_j with q the
    integer nearest <b_i, b_j> / <b_j, b_j>, while some row shrinks.

    Saturation bases of small sublattices can carry 9-digit entries, and the
    point enumeration scans a box in the coordinates of the basis.
    """
    rows = [list(b) for b in basis]
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
                    shrunk = True
    return [tuple(b) for b in rows]


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


def _affine_dim(points) -> int:
    if not points:
        return -1
    base = points[0]
    dirs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    dirs = [d for d in dirs if any(d)]
    if not dirs:
        return 0
    return lattice.matrix_rank(dirs)


def _extreme_points(points):
    """The vertices among the points: a point is a vertex exactly when the
    facets of the hull through it meet in that point alone."""
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts
    through = [frozenset(range(len(pts)))] * len(pts)
    for _, _, tight in LatticePolytope(pts, _trusted=True).facets():
        for i in tight:
            through[i] &= tight
    return [p for i, p in enumerate(pts) if through[i] == {i}]


def cone_rays(rows, dim):
    """Extreme rays of the pointed cone {y : <a, y> >= 0 for every row a}.

    Integer double description (Motzkin et al. 1953; Fukuda and Prodon,
    "Double description method revisited", 1996).  Returns a list of
    (primitive ray, mask), where bit j of the mask is set when row j is
    tight at the ray, or None when the integer rows do not span Q^dim.
    """
    rows = [tuple(r) for r in rows]
    # the pivot columns of the transpose are the lex-first basis of the rows
    start = lattice._eliminate([list(c) for c in zip(*rows)], len(rows))[1]
    if len(start) < dim:
        return None
    rays = []
    for i in start:
        y = lattice.integer_kernel([list(rows[j]) for j in start if j != i], ncols=dim)[0]
        if lattice.pairing(rows[i], y) < 0:
            y = tuple(-x for x in y)
        rays.append((y, sum(1 << j for j in start if j != i)))
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
        basis = lattice.saturation_basis([n for n, _ in h.inequalities], d)
        rows = [[lattice.pairing(b, n) for b in basis] + [-r] for n, r in h.inequalities]
        k = len(basis)
        if any(y[-1] > 0 for y, _ in cone_rays(rows + [[0] * k + [1]], k + 1)):
            raise PreconditionError("inequality system is feasible but unbounded")
        rays = []
    verts = [tuple(Fraction(x, y[-1]) for x in y[:-1]) for y, _ in rays if y[-1] > 0]
    if verts and len(verts) < len(rays):
        raise PreconditionError("inequality system is unbounded, not a polytope")
    return LatticePolytope(verts, hrep=h, _trusted=True)
