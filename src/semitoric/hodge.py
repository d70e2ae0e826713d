"""Lattice-point Hodge-number formulas for regular semiample hypersurfaces.

Subdivision counts a_k(gamma), face-level e-numbers, the h^{d-1-p,2} formula,
the reflexive-polytope formula for h^{2,1} of crepant Calabi-Yau threefolds,
and the end-to-end mirror comparison that exhibits the failure of Hodge-number
duality for singular 7-dimensional mirror pairs.

Every count l*(k theta) adds up run lengths in the labelled scan of the
parent polytope (``Face.count_interior_points``); no face is rebuilt as a
polytope, and points are listed only for the mirror comparison's witnesses.
The cones of the coarse fan, the normal fan of the section polytope, are
read off the faces dual to them, never located in the fan: ray j of the
normal fan is facet j, so a cone's ray set is the ``facets`` of its face.
"""

from __future__ import annotations

from . import lattice
from .errors import InconsistencyError, PreconditionError
from .fan import Fan
from .polytope import Face, LatticePolytope


# -- subdivision counts ------------------------------------------------------


def subdivision_counts(fine: Fan, delta: LatticePolytope) -> dict:
    """{(k, gamma): a_k(gamma)} for k = 1, 2: the number of k-cones of the
    fine fan whose smallest containing cone in the normal fan of delta has
    the ray set gamma, the facets of the face least at the sum of their
    rays once the refinement is certified."""
    if not fine.is_refinement(delta.normal_fan()):
        raise PreconditionError("subdivision counts require a refinement")
    counts = {}
    for k in (1, 2):
        for sigma in fine.cones(k):
            key = (k, delta.face_at_direction(sigma.relint_point()).facets)
            counts[key] = counts.get(key, 0) + 1
    return counts


# -- face-level e-numbers -------------------------------------------------------


def _as_face(face) -> Face:
    """A bare polytope is read as its own improper face."""
    if isinstance(face, Face):
        return face
    return Face(face, frozenset(range(len(face.vertices))), face.dim)


def _l_star(face: Face, k: int = 1) -> int:
    """l*(k face), counted off the polytope's labelled table."""
    return face.count_interior_points(k)


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


def h_p2(delta: LatticePolytope, fine: Fan, p: int) -> int:
    """h^{d-1-p,2} of a regular semiample hypersurface with section polytope
    delta, computed from subdivision counts and face lattice-point counts.
    The sums run over the faces of delta; the cone of its normal fan dual to
    a face has the face's facets as its rays, so a_k is read by facet set.

    Valid for 2 < p <= d-2 with p != d-3: beyond d-2 the stratum behind the
    first closed form degenerates to points and the displays no longer apply.
    """
    d = fine.dim
    if not (2 < p <= d - 2 and p != d - 3):
        raise PreconditionError(
            f"the formula applies for 2 < p <= d-2, p != d-3; got p={p}, d={d}")
    counts = subdivision_counts(fine, delta)

    def a(k, face):
        return counts.get((k, face.facets), 0)

    total = sum(a(1, gamma) * _bracket(gamma, d, p)
                for gamma in delta.faces(d - p) if a(1, gamma))
    taus = delta.faces(d - p - 1)
    for gamma in delta.faces(d - p - 2):
        lstar = _l_star(gamma)
        if lstar == 0:
            continue
        total += lstar * (a(2, gamma) - (p + 1) * a(1, gamma) - sum(
            a(1, tau) for tau in taus if tau.facets <= gamma.facets))
    return total


# -- the reflexive h^{2,1} formula ---------------------------------------------------


def h21_batyrev(delta: LatticePolytope) -> int:
    """l(Delta) - 5 - sum over facets of l* + sum over codim-2 faces of
    l*(face) l*(dual face), for a 4-dimensional reflexive polytope."""
    if delta.ambient_dim != 4 or not delta.is_reflexive():
        raise PreconditionError("the formula is for 4-dimensional reflexive polytopes")
    total = -5
    for theta in delta.faces(3):
        total -= _l_star(theta)
    for theta in delta.faces(2):
        total += _l_star(theta) * _l_star(delta.dual_face(theta))
    return total + delta.count_lattice_points()   # read off the table the counts built


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
    def __init__(self, value: int, witnesses: list | None = None):
        self.value = value
        self.witnesses = [] if witnesses is None else witnesses


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
    carriers = [f for f in dual.faces(2) if _l_star(f)]   # builds the dual's table for the count
    # the origin is the only lattice point of a reflexive polytope off its boundary
    only_vertices = dual.count_lattice_points() == len(dual.vertices) + 1
    second_sum_weights = [_l_star(dual.dual_face(f)) for f in dual.faces(p + 1)]
    if only_vertices or any(second_sum_weights):
        return HodgeValue(h_p2(section, triangulation_helper(dual), p))

    total = 0
    witnesses = []
    for f in carriers:
        gamma_face = dual.dual_face(f)
        bracket = _bracket(gamma_face, d, p)
        if bracket == 0:
            continue
        pts = f.interior_points()
        total += len(pts) * bracket
        witnesses.append({
            "face": [list(v) for v in gamma_face.vertices()],
            "double_face_interior_points": [list(pt) for pt in
                                            gamma_face.interior_points(2)],
            "dual_face": [list(v) for v in f.vertices()],
            "subdividing_points": [list(pt) for pt in pts],
        })
    return HodgeValue(total, witnesses)


class MirrorReport:
    """h^{3,2} of the two sides of a mirror pair, with witnesses."""

    def __init__(self, side: HodgeValue, mirror_side: HodgeValue):
        self.side = side
        self.mirror_side = mirror_side

    @property
    def symmetric(self) -> bool:
        return self.side.value == self.mirror_side.value


def mirror_check(delta: LatticePolytope) -> MirrorReport:
    """Compare h^{3,2} of the two MPCP hypersurfaces attached to a
    7-dimensional reflexive polytope and its dual."""
    if delta.ambient_dim != 7:
        raise PreconditionError("the mirror comparison is run in dimension 7")
    if not delta.is_reflexive():
        raise PreconditionError("mirror comparison requires a reflexive polytope")
    report = MirrorReport(_h32_of_side(delta), _h32_of_side(delta.dual_polytope()))
    if report.side.value < 0 or report.mirror_side.value < 0:
        raise InconsistencyError("negative Hodge number computed")
    return report
