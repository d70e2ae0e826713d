"""Complete rational polyhedral fans.

Fans are stored as primitive rays plus maximal cones (ray index sets);
non-simplicial maximal cones are allowed.  The faces of a maximal cone come
from ``polytope.face_closure`` on its facet ray sets, listed only when all
cones are asked for; one face is tested and measured without them.  Every
"which cone holds x" question (membership, refinement, support-function
values) goes through ``Fan.locate``, a sign test against the memoized rows
of the maximal cones from the double-description kernel ``cone_rays``, one
call per maximal cone that spans N_R.  Sigma_D is not asked: its cones are
the faces of Delta_D.  Completeness comes with a certificate that rejects
inputs whose cones close up without forming a fan; it reads the walls, and
the side of each wall a cone lies on, off those facet rows.
"""

from __future__ import annotations

from itertools import combinations, count

from . import lattice
from .errors import PreconditionError, ValidationError
from .polytope import _facets_in_span, cone_rays, face_closure


def extreme_rays_of_dual(normals, dim):
    """Sorted primitive extreme rays of {y : <n, y> >= 0 for n in normals};
    the normals must span the ambient space, so that the cone is pointed."""
    rays = cone_rays(normals, dim)
    if rays is None:
        raise PreconditionError("the normals do not span the ambient space")
    return sorted(y for y, _ in rays)


def cone_rows(generators, dim):
    """(rank, rows) with cone(generators) = {x : <h, x> >= 0 for h in rows}:
    the facet normals inside the linear span, then its equations, both
    signs.  Generators that span Q^dim take one cone_rays, others a frame."""
    gens = [tuple(g) for g in generators if any(g)]
    rays = cone_rays(gens, dim)
    if rays is not None:
        return dim, [n for n, _ in rays]
    k, W, C = lattice.frame(gens, dim)
    rows = [n for n, _ in _facets_in_span(gens, W[:k], affine=False)] if k else []
    return k, rows + C[k:] + [tuple(-x for x in e) for e in C[k:]]


class ConeRef:
    """A cone of a fan, named by its ray indices, compared by its rays."""

    __slots__ = ("fan", "ray_indices", "dim", "_rays")

    def __init__(self, fan: Fan, ray_indices: frozenset, dim: int):
        self.fan = fan
        self.ray_indices = ray_indices
        self.dim = dim
        self._rays = frozenset(fan.rays[i] for i in ray_indices)

    def __eq__(self, other):
        if other.__class__ is not ConeRef:
            return NotImplemented
        return (self._rays == other._rays and self.dim == other.dim
                and (self.fan is other.fan or self.fan == other.fan))

    def __hash__(self):
        return hash((self._rays, self.dim))

    def generators(self):
        return tuple(self.fan.rays[i] for i in sorted(self.ray_indices))

    def relint_point(self):
        if not self.ray_indices:
            return (0,) * self.fan.dim
        gens = self.generators()
        return tuple(sum(g[i] for g in gens) for i in range(self.fan.dim))

    def contains(self, x) -> bool:
        """x lies in this cone: the cone of the fan whose relative interior
        holds x is a face of it."""
        held = self.fan.locate(x)
        return held is not None and held.ray_indices <= self.ray_indices

    def __repr__(self):
        return f"ConeRef(dim={self.dim}, rays={sorted(self.ray_indices)})"


class Fan:
    """A fan in N_R given by primitive rays and maximal cones."""

    def __init__(self, rays, max_cones, dim=None):
        rays = tuple(tuple(int(x) for x in r) for r in rays)
        if dim is None:
            if not rays:
                raise ValidationError("ambient rank of a fan without rays must be given")
            dim = len(rays[0])
        for i, r in enumerate(rays):
            if len(r) != dim:
                raise ValidationError(f"ray {i} has length {len(r)}, not the ambient rank {dim}")
            if not any(r):
                raise ValidationError("zero vector is not a ray")
            if r != lattice.primitivize(r):
                raise ValidationError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            i = next(i for i, r in enumerate(rays) if r in rays[:i])
            raise ValidationError(f"rays {rays.index(rays[i])} and {i} are equal: "
                                  f"{list(rays[i])}")
        self.rays = rays
        self.dim = dim
        cones = []
        for k, c in enumerate(max_cones):
            c = frozenset(int(i) for i in c)
            bad = sorted(i for i in c if not 0 <= i < len(rays))
            if bad:
                raise ValidationError(f"max cone {k} {sorted(c)} refers to ray "
                                      f"index {bad[0]}, out of range 0..{len(rays) - 1}")
            cones.append(c)
        self.max_cones = tuple(cones)
        self._face_sets = None
        self._cones_by_dim = None
        self._rows = {}
        self._on_rows = {}
        self._face_memo = {}
        self._complete = None
        self._ranks = {}  # cone_dim by ray index set

    # -- identity ------------------------------------------------------------

    def canonical_key(self):
        return (self.dim,
                frozenset(frozenset(self.rays[i] for i in c) for c in self.max_cones))

    def __eq__(self, other):
        return isinstance(other, Fan) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return (f"Fan(rank={self.dim}, rays={len(self.rays)}, "
                f"max_cones={len(self.max_cones)})")

    # -- cone structure --------------------------------------------------------

    def cone_dim(self, ray_indices) -> int:
        key = frozenset(ray_indices)
        if key not in self._ranks:
            self._ranks[key] = lattice.matrix_rank([self.rays[i] for i in key]) if key else 0
        return self._ranks[key]

    def _max_cone_rows(self, ci):
        """cone_rows of a maximal cone, computed once, keeping its rank."""
        if ci not in self._rows:
            c = self.max_cones[ci]
            self._ranks[c], self._rows[ci] = cone_rows(
                [self.rays[i] for i in sorted(c)], self.dim)
        return self._rows[ci]

    def _rays_on_rows(self, ci):
        """For each row of maximal cone ci, the set of its rays on the row."""
        if ci not in self._on_rows:
            c = self.max_cones[ci]
            self._on_rows[ci] = [frozenset(i for i in c if lattice.pairing(h, self.rays[i]) == 0)
                                 for h in self._max_cone_rows(ci)]
        return self._on_rows[ci]

    def _holds(self, ci, x) -> bool:
        return all(lattice.pairing(h, x) >= 0 for h in self._max_cone_rows(ci))

    def max_cone_index(self, x):
        """Index of the first maximal cone that holds x, or None."""
        return next((ci for ci in range(len(self.max_cones)) if self._holds(ci, x)), None)

    def locate(self, x):
        """The cone whose relative interior holds x, or None off the support.
        In a maximal cone that holds x, the rows that vanish at x cut out
        that face: its rays are the rays tight on every one of them."""
        ci = self.max_cone_index(x)
        if ci is None:
            return None
        c = self.max_cones[ci]
        s = c.intersection(*(
            on for h, on in zip(self._max_cone_rows(ci), self._rays_on_rows(ci))
            if lattice.pairing(h, x) == 0))
        return ConeRef(self, s, len(s) if self.cone_dim(c) == len(c) else self.cone_dim(s))

    def _faces_of_max_cone(self, ci):
        """Map {ray index frozenset -> dim} of all faces of max cone ci, the
        empty face included, by size, then by sorted indices."""
        if ci not in self._face_memo:
            c = self.max_cones[ci]
            if self.cone_dim(c) == len(c):  # simplicial: a facet drops one ray
                faces = {s: len(s) for s in face_closure(c, [c - {i} for i in c])}
            else:  # the span equations are tight at every ray
                faces = {s: self.cone_dim(s) for s in face_closure(c, self._rays_on_rows(ci))}
            self._face_memo[ci] = {s: faces[s] for s in sorted(
                faces, key=lambda s: (len(s), sorted(s)))}
        return self._face_memo[ci]

    def _all_face_sets(self):
        """{ray index set -> dim} of every cone of the fan."""
        if self._face_sets is None:
            self._face_sets = {s: k for ci in range(len(self.max_cones))
                               for s, k in self._faces_of_max_cone(ci).items()}
        return self._face_sets

    def cones(self, k: int):
        """All k-dimensional cones, deduplicated across maximal cones."""
        if not 0 <= k <= self.dim:
            raise ValidationError(f"cone dimension {k} out of range 0..{self.dim}")
        if self._cones_by_dim is None:
            by_dim = {}
            for s, d in self._all_face_sets().items():
                by_dim.setdefault(d, set()).add(s)
            self._cones_by_dim = by_dim
        return [ConeRef(self, s, k)
                for s in sorted(self._cones_by_dim.get(k, ()), key=sorted)]

    def all_cones(self):
        out = []
        for k in range(self.dim + 1):
            out.extend(self.cones(k))
        return out

    def cone_ref(self, ray_indices) -> ConeRef:
        s = frozenset(ray_indices)
        merged = self._all_face_sets()
        if s not in merged:
            raise ValidationError(f"{sorted(s)} is not a cone of this fan")
        return ConeRef(self, s, merged[s])

    # -- global properties -------------------------------------------------------

    @property
    def is_simplicial(self) -> bool:
        return all(self.cone_dim(c) == len(c) for c in self.max_cones)

    def _facet_incidence(self):
        """Map {wall -> list of maximal cone indices having it as a facet},
        for maximal cones of full dimension: each facet row of a cone gives
        the wall of its rays; a cone's walls come by size, then ray list."""
        inc = {}
        for ci in range(len(self.max_cones)):
            for s in sorted(self._rays_on_rows(ci), key=lambda s: (len(s), sorted(s))):
                inc.setdefault(s, []).append(ci)
        return inc

    @property
    def is_complete(self) -> bool:
        """Completeness certificate; raises ValidationError on cones that
        close up along their facets without forming a fan."""
        if self._complete is None:
            self._complete = self._check_complete()
        return self._complete

    def _check_complete(self) -> bool:
        """Each facet of a maximal cone is shared with exactly one other, in a
        connected adjacency graph.  Walls and sides are read off the facet
        rows of the maximal cones: (a) the two cones at a wall lie on
        opposite sides of it exactly when their inward normals there are
        negatives of each other, and (b) a point on no wall lies in the
        cones whose facet rows are all positive at it, and must lie in
        exactly one, or the input is not a fan."""
        if not self.max_cones:
            return self.dim == 0
        rows = [self._max_cone_rows(ci) for ci in range(len(self.max_cones))]
        if any(self.cone_dim(c) != self.dim for c in self.max_cones):
            return False
        inc = self._facet_incidence()
        if any(len(cis) != 2 for cis in inc.values()):
            return False
        adj = [set() for _ in self.max_cones]
        for a, b in inc.values():
            adj[a].add(b)
            adj[b].add(a)
        seen, stack = {0}, [0]
        while stack:
            new = adj[stack.pop()] - seen
            seen |= new
            stack.extend(new)
        if len(seen) != len(self.max_cones):
            return False
        # (a) normal[ci][tau]: the inward normal of cone ci at its wall tau
        normal = [dict(zip(self._rays_on_rows(ci), hs)) for ci, hs in enumerate(rows)]
        for tau, (a, b) in inc.items():
            if normal[b][tau] != tuple(-x for x in normal[a][tau]):
                raise ValidationError(
                    f"cones {sorted(self.max_cones[a])} and {sorted(self.max_cones[b])} "
                    f"lie on the same side of their common facet {sorted(tau)}")
        # (b) at p = (1, t, ..., t^(d-1)), t >= 2 least off every wall: <h, p>
        # is a nonzero polynomial in t, so few values of t are tried
        p = next(p for p in ([t ** k for k in range(self.dim)] for t in count(2))
                 if all(lattice.pairing(h, p) for hs in rows for h in hs))
        holders = [sorted(c) for c, hs in zip(self.max_cones, rows)
                   if all(lattice.pairing(h, p) > 0 for h in hs)]
        if len(holders) != 1:
            raise ValidationError(f"the point {p} lies in {len(holders)} maximal "
                                  f"cones, not one: {holders}")
        return True

    def validate(self):
        """All detected violations of the fan axioms, as human-readable strings."""
        issues = []
        for ci, c in enumerate(self.max_cones):  # pointed: the dual cone is full
            if lattice.matrix_rank(self._max_cone_rows(ci)) < self.dim:
                issues.append(f"cone {sorted(c)} is not strongly convex")
        for a, b in combinations(range(len(self.max_cones)), 2):
            issue = self._face_compatibility_issue(a, b)
            if issue:
                issues.append(issue)
        if not self.is_complete:
            issues.append("fan is not complete")
        if not self.is_simplicial:
            issues.append("fan is not simplicial")
        return issues

    def _face_compatibility_issue(self, a, b):
        ca, cb = self.max_cones[a], self.max_cones[b]
        rows_a = self._max_cone_rows(a)
        rows = rows_a + self._max_cone_rows(b)
        shared = frozenset(i for i in ca | cb
                           if all(lattice.pairing(h, self.rays[i]) >= 0 for h in rows))
        # a face is empty or the rays tight on every row that vanishes on it
        for ci, cone_set in ((a, ca), (b, cb)):
            if not shared <= cone_set or shared and shared != cone_set.intersection(
                    *(on for on in self._rays_on_rows(ci) if shared <= on)):
                return (f"intersection of cones {sorted(ca)} and {sorted(cb)} "
                        f"is not a common face")
        # the cones meet in that face exactly when every ray of their
        # intersection lies on each row of cone a tight on the face; a line
        # in the intersection lies in every face, so it is cut off first
        on_face = sum(1 << j for j, h in enumerate(rows_a)
                      if all(lattice.pairing(h, self.rays[i]) == 0 for i in shared))
        lines = lattice.integer_kernel(rows, ncols=self.dim)
        rays = cone_rays(rows + lines + [tuple(-x for x in v) for v in lines], self.dim)
        if any(mask & on_face != on_face for _, mask in rays):
            return f"cones {sorted(ca)} and {sorted(cb)} overlap beyond a common face"
        return None

    # -- relations between fans -----------------------------------------------

    def is_refinement(self, coarser: "Fan") -> bool:
        """True when every cone of self lies in a cone of coarser and the
        supports agree (both fans complete)."""
        if self.dim != coarser.dim:
            raise ValidationError("fans of different ambient rank")
        if self.canonical_key() == coarser.canonical_key():
            return True
        if not (self.is_complete and coarser.is_complete):
            return False
        # a maximal cone of self lies in a cone of coarser exactly when it
        # lies in the one whose relative interior holds the sum of its rays
        for c in self.max_cones:
            gens = [self.rays[i] for i in c]
            held = coarser.locate([sum(col) for col in zip(*gens)])
            if held is None or not all(held.contains(g) for g in gens):
                return False
        return True
