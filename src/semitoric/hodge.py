"""Lattice-point Hodge-number formulas for regular semiample hypersurfaces.

Subdivision counts a_k(gamma), face-level e-numbers, the h^{d-1-p,2} formula,
the reflexive-polytope formula for h^{2,1} of crepant Calabi-Yau threefolds,
and the end-to-end mirror comparison that exhibits the failure of Hodge-number
duality for singular 7-dimensional mirror pairs.

Every count l*(k theta) is read from the labelled lattice points of the
parent polytope (``Face.interior_points``); no face is rebuilt as a polytope.
"""

from __future__ import annotations

from . import lattice
from .errors import InconsistencyError, PreconditionError, ValidationError
from .fan import ConeRef, Fan
from .polytope import Face, LatticePolytope


# -- subdivision counts ------------------------------------------------------


class SubdivisionCounts:
    """a_k(gamma) = number of k-cones of the fine fan whose smallest
    containing cone in the coarse fan is gamma, for k = 1, 2."""

    def __init__(self, coarse: Fan, a1: dict, a2: dict):
        self.coarse = coarse
        self.a1 = a1
        self.a2 = a2

    def a(self, gamma: ConeRef, k: int) -> int:
        table = {1: self.a1, 2: self.a2}[k]
        return table.get(gamma.ray_indices, 0)


def subdivision_counts(fine: Fan, coarse: Fan) -> SubdivisionCounts:
    if not fine.is_refinement(coarse):
        raise PreconditionError("subdivision counts require a refinement")
    a1, a2 = {}, {}
    for k, table in ((1, a1), (2, a2)):
        for sigma in fine.cones(k):
            gamma = coarse.smallest_containing_cone(sigma)
            table[gamma.ray_indices] = table.get(gamma.ray_indices, 0) + 1
    return SubdivisionCounts(coarse, a1, a2)


# -- face-level e-numbers -------------------------------------------------------


def _as_face(face) -> Face:
    """A bare polytope is read as its own improper face."""
    if isinstance(face, Face):
        return face
    return Face(face, frozenset(range(len(face.vertices))), face.dim)


def _l_star(face: Face, k: int = 1) -> int:
    """l*(k face), read from the polytope's labelled table."""
    return len(face.interior_points(k))


def _facet_interior_sum(face: Face) -> int:
    if face.dim <= 0:
        return 0
    return sum(_l_star(g) for g in face.polytope.subfaces(face))


def _bracket(face: Face, d: int, p: int) -> int:
    """l*(2 Gamma) - (d-p+1) l*(Gamma) - sum of l* over codim-1 faces."""
    return (_l_star(face, 2) - (d - p + 1) * _l_star(face)
            - _facet_interior_sum(face))


def e_face_values(face, d: int, p: int):
    """The two e-numbers of the open stratum attached to a face of the
    section polytope: (e^{d-2-p,1}, e^{d-3-p,0}).

    Which closed form applies is read off the face dimension: d-p for the
    first entry, d-p-1 or d-p-2 for the second; the entry whose display does
    not apply at this dimension is reported as 0.
    """
    face = _as_face(face)
    k = face.dim
    if k == d - p:
        return ((-1) ** (d - p - 1) * _bracket(face, d, p), 0)
    if k == d - p - 1:
        return (0, (-1) ** (d - p - 2) * _facet_interior_sum(face))
    if k == d - p - 2:
        return (0, (-1) ** (d - p - 3) * _l_star(face))
    raise PreconditionError(
        f"face of dimension {k} matches no display for d={d}, p={p}")


# -- the h^{d-1-p,2} formula -------------------------------------------------------


def _face_of_cone(delta: LatticePolytope, gamma: ConeRef) -> Face:
    return delta.face_at_direction(gamma.relint_point())


def h_p2(delta: LatticePolytope, fine: Fan, coarse: Fan, p: int) -> int:
    """h^{d-1-p,2} of a regular semiample hypersurface with section polytope
    delta, computed from subdivision counts and face lattice-point counts.

    Valid for 2 < p <= d-2 with p != d-3: beyond d-2 the stratum behind the
    first closed form degenerates to points and the displays no longer apply.
    """
    d = fine.dim
    if not (2 < p <= d - 2 and p != d - 3):
        raise PreconditionError(
            f"the formula applies for 2 < p <= d-2, p != d-3; got p={p}, d={d}")
    if delta.normal_fan() != coarse:
        raise PreconditionError("the coarse fan must be the normal fan of delta")
    counts = subdivision_counts(fine, coarse)
    total = 0
    for gamma in coarse.cones(p):
        a1 = counts.a(gamma, 1)
        if a1 == 0:
            continue
        total += a1 * _bracket(_face_of_cone(delta, gamma), d, p)
    for gamma in coarse.cones(p + 2):
        lstar = _l_star(_face_of_cone(delta, gamma))
        if lstar == 0:
            continue
        coeff = counts.a(gamma, 2) - (p + 1) * counts.a(gamma, 1)
        for tau in coarse.cones(p + 1):
            if tau.ray_indices <= gamma.ray_indices:
                coeff -= counts.a(tau, 1)
        total += lstar * coeff
    return total


# -- the reflexive h^{2,1} formula ---------------------------------------------------


def h21_batyrev(delta: LatticePolytope) -> int:
    """l(Delta) - 5 - sum over facets of l* + sum over codim-2 faces of
    l*(face) l*(dual face), for a 4-dimensional reflexive polytope."""
    if delta.ambient_dim != 4 or not delta.is_reflexive():
        raise PreconditionError("the formula is for 4-dimensional reflexive polytopes")
    total = len(delta.lattice_points()) - 5
    for theta in delta.faces(3):
        total -= _l_star(theta)
    for theta in delta.faces(2):
        total += _l_star(theta) * _l_star(delta.dual_face(theta))
    return total


# -- triangulations with all boundary points as rays -----------------------------------


def triangulation_helper(q: LatticePolytope, reverse: bool = False) -> Fan:
    """A simplicial refinement of the fan over the faces of a reflexive
    polytope using every nonzero lattice point as a ray.

    Facets are triangulated by pulling at lexicographically least vertices;
    the remaining boundary points are added by stellar subdivision in
    lexicographic order (reverse=True flips both orders, giving a second,
    generally different, triangulation with the same rays).  Projectivity of
    the result is not checked.
    """
    if not q.is_reflexive():
        raise PreconditionError("the triangulation helper expects a reflexive polytope")
    d = q.ambient_dim
    # every vertex of a reflexive polytope is integral; ray i is vertex i
    rays = list(q.vertices)
    ray_index = {r: i for i, r in enumerate(rays)}
    cones = [s for f in q.faces(d - 1) for s in q.pulling_triangulation(f, reverse)]
    extra = [p for p in q.lattice_points()
             if any(p) and p not in ray_index]
    duals = {}  # cone -> [(ray, row)]: a point's coefficient on a ray has the sign of <row, point>
    for point in sorted(extra, reverse=reverse):
        rays.append(point)
        new_cones = []
        for c in cones:
            if c not in duals:  # every cone is simplicial and full
                idx = sorted(c)
                duals[c] = list(zip(idx, lattice.dual_rows([rays[i] for i in idx], d)[1]))
            signs = [(i, lattice.pairing(h, point)) for i, h in duals[c]]
            if any(v < 0 for _, v in signs):
                new_cones.append(c)
            else:
                new_cones.extend(c - {i} | {len(rays) - 1} for i, v in signs if v > 0)
        cones = new_cones
    fan = Fan(rays, cones, dim=d)
    boundary = {p for p in q.lattice_points() if any(p)}
    if set(fan.rays) != boundary:
        raise InconsistencyError("triangulation rays differ from the boundary points")
    if not fan.is_simplicial:
        raise InconsistencyError("triangulation produced a non-simplicial fan")
    return fan


# -- the mirror comparison -------------------------------------------------------------


class HodgeValue:
    def __init__(self, p: int, q: int, value: int, formula: str, witnesses: list | None = None):
        self.p = p
        self.q = q
        self.value = value
        self.formula = formula
        self.witnesses = [] if witnesses is None else witnesses


class HodgeReport:
    """Named Hodge numbers of one side of a mirror pair, with witnesses."""

    def __init__(self, label: str, values: list):
        self.label = label
        self.values = values

    def value(self, p: int, q: int) -> int:
        for v in self.values:
            if (v.p, v.q) == (p, q):
                return v.value
        raise ValidationError(f"no recorded value h^{p},{q}")


def _h32_of_side(section: LatticePolytope) -> HodgeValue:
    """h^{3,2} of the MPCP hypersurface with the given section polytope.

    When every nonzero lattice point of the dual is a vertex the refinement
    is trivial and the full formula runs on the honest fan.  Otherwise the
    first sum is evaluated by classifying the subdividing rays by carrier
    face (the dual 2-face whose relative interior holds them); the second
    sum needs the actual triangulation only when some dual 2-face weight l*
    is nonzero, in which case the full fan is built.
    """
    d = section.ambient_dim
    p = d - 4  # h^{d-1-p,2} = h^{3,2}
    dual = section.dual_polytope()
    # the origin is the only lattice point of a reflexive polytope off its boundary
    only_vertices = len(dual.lattice_points()) == len(dual.vertices) + 1
    second_sum_weights = [
        _l_star(dual.dual_face(f)) for f in dual.faces(p + 1)]
    if only_vertices or any(second_sum_weights):
        fine = triangulation_helper(dual)
        coarse = section.normal_fan()
        value = h_p2(section, fine, coarse, p)
        return HodgeValue(3, 2, value, "subdivision-count formula", [])

    total = 0
    witnesses = []
    for f in dual.faces(2):
        pts = f.interior_points()
        if not pts:
            continue
        gamma_face = dual.dual_face(f)
        bracket = _bracket(gamma_face, d, p)
        if bracket == 0:
            continue
        total += len(pts) * bracket
        witnesses.append({
            "face": [list(v) for v in gamma_face.vertices()],
            "double_face_interior_points": [list(pt) for pt in
                                            gamma_face.interior_points(2)],
            "dual_face": [list(v) for v in f.vertices()],
            "subdividing_points": [list(pt) for pt in pts],
        })
    return HodgeValue(3, 2, total, "carrier-face classification", witnesses)


class MirrorReport:
    def __init__(self, side: HodgeReport, mirror_side: HodgeReport):
        self.side = side
        self.mirror_side = mirror_side

    @property
    def symmetric(self) -> bool:
        return self.side.value(3, 2) == self.mirror_side.value(3, 2)


def mirror_check(delta: LatticePolytope) -> MirrorReport:
    """Compare h^{3,2} of the two MPCP hypersurfaces attached to a
    7-dimensional reflexive polytope and its dual."""
    if delta.ambient_dim != 7:
        raise PreconditionError("the mirror comparison is run in dimension 7")
    if not delta.is_reflexive():
        raise PreconditionError("mirror comparison requires a reflexive polytope")
    dual = delta.dual_polytope()
    side = HodgeReport("section polytope", [_h32_of_side(delta)])
    mirror_side = HodgeReport("dual section polytope", [_h32_of_side(dual)])
    for report in (side, mirror_side):
        for v in report.values:
            if v.value < 0:
                raise InconsistencyError("negative Hodge number computed")
    return MirrorReport(side, mirror_side)
