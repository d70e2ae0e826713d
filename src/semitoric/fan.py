"""Complete rational polyhedral fans.

Fans are stored as primitive rays plus maximal cones (ray index sets);
non-simplicial maximal cones are allowed.  Face lattices, completeness and
refinement queries, smallest containing cones and star (quotient) fans are
all computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import lattice
from .errors import InconsistencyError, PreconditionError, ValidationError
from .linalg import lp_feasible, solve_linear
from .polytope import _facets_in_span, cone_rays


def extreme_rays_of_dual(normals, dim):
    """Sorted primitive extreme rays of {y : <n, y> >= 0 for n in normals};
    the normals must span the ambient space, so that the cone is pointed."""
    rays = cone_rays(normals, dim)
    if rays is None:
        raise PreconditionError("the normals do not span the ambient space")
    return sorted(y for y, _ in rays)


def cone_contains(generators, x) -> bool:
    """Exact membership of x in the cone spanned by the generators."""
    gens = [tuple(g) for g in generators]
    if not gens:
        return not any(x)
    d = len(gens[0])
    cols = [[g[i] for g in gens] for i in range(d)]
    sol = solve_linear(cols, list(x))
    if sol is None:
        return False
    particular, kernel = sol
    if not kernel:
        return all(c >= 0 for c in particular)
    eqs = [(col, xi) for col, xi in zip(cols, x)]
    return lp_feasible(len(gens), eqs=eqs, nonneg=True) is not None


def cone_is_pointed(generators) -> bool:
    gens = [tuple(g) for g in generators]
    if not gens:
        return True
    d = len(gens[0])
    cols = [[g[i] for g in gens] for i in range(d)]
    eqs = [(col, 0) for col in cols] + [([1] * len(gens), 1)]
    return lp_feasible(len(gens), eqs=eqs, nonneg=True) is None


@dataclass(frozen=True)
class ConeRef:
    """A cone of a fan, identified by its set of ray indices."""

    fan: "Fan"
    ray_indices: frozenset
    dim: int

    def generators(self):
        return tuple(self.fan.rays[i] for i in sorted(self.ray_indices))

    def relint_point(self):
        if not self.ray_indices:
            return (0,) * self.fan.dim
        gens = self.generators()
        return tuple(sum(g[i] for g in gens) for i in range(self.fan.dim))

    def contains(self, x) -> bool:
        return cone_contains(self.generators(), x)

    def __repr__(self):
        return f"ConeRef(dim={self.dim}, rays={sorted(self.ray_indices)})"


class Fan:
    """A fan in N_R given by primitive rays and maximal cones."""

    def __init__(self, rays, max_cones, dim=None, ample_hint=None):
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
            raise ValidationError("duplicate rays")
        self.rays = rays
        self.dim = dim
        cones = []
        for c in max_cones:
            c = frozenset(int(i) for i in c)
            if any(not 0 <= i < len(rays) for i in c):
                raise ValidationError("cone refers to a ray index out of range")
            cones.append(c)
        self.max_cones = tuple(cones)
        self.ample_hint = tuple(ample_hint) if ample_hint is not None else None
        self._face_sets = None
        self._cones_by_dim = None
        self._facet_normals = {}
        self._face_memo = {}
        self._complete = None
        self._simplicial = None

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
        if not ray_indices:
            return 0
        return lattice.matrix_rank([self.rays[i] for i in ray_indices])

    def _max_cone_facet_normals(self, ci):
        """Facet normals of a maximal cone, inside its linear span."""
        if ci not in self._facet_normals:
            gens = [self.rays[i] for i in sorted(self.max_cones[ci])]
            basis = lattice.saturation_basis(gens, self.dim)
            self._facet_normals[ci] = [
                n for n, _ in _facets_in_span(gens, basis, affine=False)]
        return self._facet_normals[ci]

    def _faces_of_max_cone(self, ci):
        """Map {ray index frozenset -> dim} of all faces of max cone ci."""
        if ci in self._face_memo:
            return self._face_memo[ci]
        idx = sorted(self.max_cones[ci])
        gens = {i: self.rays[i] for i in idx}
        out = {}
        if self.cone_dim(idx) == len(idx):  # simplicial
            for k in range(len(idx) + 1):
                for sub in combinations(idx, k):
                    out[frozenset(sub)] = k
            self._face_memo[ci] = out
            return out
        normals = self._max_cone_facet_normals(ci)
        seen = {frozenset(idx)}
        queue = [frozenset(idx)]
        while queue:
            cur = queue.pop()
            for h in normals:
                nxt = frozenset(i for i in cur if lattice.pairing(gens[i], h) == 0)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        for s in seen:
            out[s] = self.cone_dim(s)
        out[frozenset()] = 0
        self._face_memo[ci] = out
        return out

    def _all_face_sets(self):
        if self._face_sets is None:
            per_cone = [self._faces_of_max_cone(ci) for ci in range(len(self.max_cones))]
            merged = {}
            for d in per_cone:
                merged.update(d)
            self._face_sets = (per_cone, merged)
        return self._face_sets

    def cones(self, k: int):
        """All k-dimensional cones, deduplicated across maximal cones."""
        if not 0 <= k <= self.dim:
            raise ValidationError(f"cone dimension {k} out of range 0..{self.dim}")
        if self._cones_by_dim is None:
            _, merged = self._all_face_sets()
            by_dim = {}
            for s, d in merged.items():
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
        _, merged = self._all_face_sets()
        if s not in merged:
            raise ValidationError(f"{sorted(s)} is not a cone of this fan")
        return ConeRef(self, s, merged[s])

    def max_cone_refs(self):
        return [ConeRef(self, c, self.cone_dim(c)) for c in self.max_cones]

    # -- global properties -------------------------------------------------------

    @property
    def is_simplicial(self) -> bool:
        if self._simplicial is None:
            self._simplicial = all(self.cone_dim(c) == len(c) for c in self.max_cones)
        return self._simplicial

    def _facet_incidence(self):
        """Map {(d-1)-face -> list of maximal cone indices having it as a face}."""
        per_cone, _ = self._all_face_sets()
        inc = {}
        for ci, faces in enumerate(per_cone):
            for s, k in faces.items():
                if k == self.dim - 1:
                    inc.setdefault(s, []).append(ci)
        return inc

    @property
    def is_complete(self) -> bool:
        """Facet-pairing completeness certificate for pure full-dimensional fans."""
        if self._complete is None:
            self._complete = self._check_complete()
        return self._complete

    def _check_complete(self) -> bool:
        if not self.max_cones:
            return self.dim == 0
        if any(self.cone_dim(c) != self.dim for c in self.max_cones):
            return False
        inc = self._facet_incidence()
        if any(len(cis) != 2 for cis in inc.values()):
            return False
        # connectivity of the facet-adjacency graph
        adj = {ci: set() for ci in range(len(self.max_cones))}
        for cis in inc.values():
            a, b = cis
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(self.max_cones):
            return False
        # spot-check directions in every orthant
        for signs in _orthant_directions(self.dim):
            if not any(cone_contains([self.rays[i] for i in c], signs)
                       for c in self.max_cones):
                return False
        return True

    def validate(self):
        """All detected violations of the fan axioms, as human-readable strings."""
        issues = []
        for c in self.max_cones:
            gens = [self.rays[i] for i in sorted(c)]
            if not cone_is_pointed(gens):
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
        gens_a = [self.rays[i] for i in sorted(ca)]
        gens_b = [self.rays[i] for i in sorted(cb)]
        shared = {i for i in ca if cone_contains(gens_b, self.rays[i])} | \
                 {i for i in cb if cone_contains(gens_a, self.rays[i])}
        for ci, cone_set in ((a, ca), (b, cb)):
            if not shared <= cone_set or \
                    frozenset(shared) not in self._faces_of_max_cone(ci):
                return (f"intersection of cones {sorted(ca)} and {sorted(cb)} "
                        f"is not a common face")
        # separation certificate: a functional vanishing on the shared face,
        # strictly positive on the rest of one cone, strictly negative on the
        # rest of the other; it exists exactly when the cones meet in that face
        eqs = [(list(self.rays[i]), 0) for i in sorted(shared)]
        ineqs = [(list(self.rays[i]), 1) for i in sorted(ca - shared)]
        ineqs += [([-x for x in self.rays[i]], 1) for i in sorted(cb - shared)]
        if lp_feasible(self.dim, eqs=eqs, ineqs=ineqs) is None:
            return (f"cones {sorted(ca)} and {sorted(cb)} overlap beyond "
                    f"a common face")
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
        for c in self.max_cones:
            gens = [self.rays[i] for i in c]
            if not any(all(cone_contains([coarser.rays[j] for j in cc], g)
                           for g in gens)
                       for cc in coarser.max_cones):
                return False
        return True

    def smallest_containing_cone(self, cone: ConeRef) -> ConeRef:
        """Minimal cone of this fan containing the given cone of a refinement."""
        if not cone.ray_indices:
            return ConeRef(self, frozenset(), 0)
        x = cone.relint_point()
        for k in range(self.dim + 1):
            for cand in self.cones(k):
                if cand.contains(x):
                    if all(cand.contains(g) for g in cone.generators()):
                        return cand
                    raise InconsistencyError(
                        "cone is not contained in any cone of the coarser fan; "
                        "refinement precondition violated")
        raise InconsistencyError("complete fan does not cover a point")

    def star_projection(self, cone: ConeRef):
        """Quotient data (P, Q) for N -> N/N_cone; P is surjective with
        kernel the saturated span of the cone, Q a right inverse."""
        return lattice.quotient_projection(
            [list(self.rays[i]) for i in sorted(cone.ray_indices)], self.dim)

    def star_fan(self, cone: ConeRef) -> "Fan":
        """Fan of the orbit closure V(cone) in the quotient lattice N/N_cone."""
        if cone.fan is not self:
            cone = self.cone_ref(cone.ray_indices)
        s = cone.dim
        if s == 0:
            return self
        P, _ = self.star_projection(cone)
        qdim = self.dim - s
        ray_map = {}
        new_rays = []
        new_cones = []
        for c in self.max_cones:
            if not cone.ray_indices <= c:
                if not all(cone_contains([self.rays[i] for i in c], g)
                           for g in cone.generators()):
                    continue
            proj = set()
            for i in c:
                img = tuple(lattice.pairing(p, self.rays[i]) for p in P)
                if not any(img):
                    continue
                img = lattice.primitivize(img)
                if img not in ray_map:
                    ray_map[img] = len(new_rays)
                    new_rays.append(img)
                proj.add(ray_map[img])
            new_cones.append(frozenset(proj))
        maximal = [c for c in new_cones
                   if not any(c < other for other in new_cones)]
        return Fan(new_rays, sorted(set(maximal), key=sorted), dim=qdim)


def _orthant_directions(d):
    if d == 0:
        return []
    out = []
    for signs in range(2 ** d):
        out.append(tuple(1 if (signs >> i) & 1 else -1 for i in range(d)))
    return out
