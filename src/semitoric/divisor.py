"""Torus-invariant divisors on complete toric varieties.

Support functions, convexity tests, section polytopes, intersection numbers
against orbit closures as slice volumes, the coarsened fan of a semiample
divisor (the normal fan of its section polytope; two gluing routes over the
fine fan rebuild it for tests and `--verify`), push-forward and pull-back
along the associated birational morphism, the Nakai-type criteria from curve
numbers read off the walls of the support function, and the orbit
stratification of a regular semiample hypersurface.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import and_

from . import lattice
from .errors import InconsistencyError, NotCartierError, PreconditionError, ValidationError
from .fan import ConeRef, Fan, extreme_rays_of_dual
from .linalg import solve_unique
from .polytope import HPolytope, LatticePolytope, cone_rays, vertices_from_inequalities


class SupportFunction:
    """The piecewise-linear function of a Cartier divisor: one linear
    functional m_sigma per maximal cone, with <m_sigma, e_i> = -a_i on rays."""

    def __init__(self, fan: Fan, per_max_cone: tuple):
        self.fan = fan
        self.per_max_cone = per_max_cone

    def m_of_cone(self, cone: ConeRef):
        for ci, c in enumerate(self.fan.max_cones):
            if cone.ray_indices <= c:
                return self.per_max_cone[ci]
        # a cone of a refinement lies in every maximal cone that holds the
        # sum of its rays, if it lies in any
        ci = self.fan.max_cone_index(cone.relint_point())
        if ci is None or not all(self.fan._holds(ci, g) for g in cone.generators()):
            raise ValidationError("cone does not belong to the fan of this divisor")
        return self.per_max_cone[ci]

    def value(self, n):
        """psi_D(n), exact."""
        ci = self.fan.max_cone_index(n)
        if ci is None:
            raise PreconditionError("support function evaluated outside a complete fan")
        return lattice.pairing_q(n, self.per_max_cone[ci])


class StratumRecord:
    """One stratum of a regular semiample hypersurface: a cone of the fine
    fan, its smallest container in the coarse fan, and the rank of the torus
    factor (C*)^k of the stratum."""

    def __init__(self, cone: ConeRef, container: ConeRef, torus_factor_dim: int):
        self.cone = cone
        self.container = container
        self.torus_factor_dim = torus_factor_dim


class TorusInvariantDivisor:
    """D = sum a_i D_i on a complete fan, with one integer coefficient per ray."""

    def __init__(self, fan: Fan, coeffs):
        coeffs = tuple(int(a) for a in coeffs)
        if len(coeffs) != len(fan.rays):
            raise ValidationError(
                f"{len(coeffs)} coefficients for {len(fan.rays)} rays")
        self.fan = fan
        self.coeffs = coeffs
        self._support = None
        self._polytope = None
        self._curves = None

    def __repr__(self):
        return f"TorusInvariantDivisor({self.coeffs})"

    def __eq__(self, other):
        return (isinstance(other, TorusInvariantDivisor)
                and self.fan == other.fan and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.fan, self.coeffs))

    def __add__(self, other):
        if other.fan is not self.fan and other.fan != self.fan:
            raise ValidationError("divisors on different fans")
        return TorusInvariantDivisor(self.fan,
                                     [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, k: int):
        return TorusInvariantDivisor(self.fan, [int(k) * a for a in self.coeffs])

    # -- support function and convexity --------------------------------------

    def support_function(self) -> SupportFunction:
        """Solve <m_sigma, e_i> = -a_i on every maximal cone; Cartier test."""
        if self._support is not None:
            return self._support
        if not self.fan.is_complete:
            raise PreconditionError("support functions require a complete fan")
        per_cone = []
        for c in self.fan.max_cones:
            rows = [list(self.fan.rays[i]) for i in sorted(c)]
            rhs = [-self.coeffs[i] for i in sorted(c)]
            m = solve_unique(rows, rhs)
            if m is None:
                raise NotCartierError(
                    f"no linear function matches the coefficients on cone "
                    f"{sorted(c)}")
            if any(x.denominator != 1 for x in m):
                raise NotCartierError(
                    f"support function on cone {sorted(c)} is not integral: {m}")
            per_cone.append(tuple(int(x) for x in m))
        self._support = SupportFunction(self.fan, tuple(per_cone))
        return self._support

    def is_cartier(self) -> bool:
        try:
            self.support_function()
            return True
        except NotCartierError:
            return False

    def is_globally_generated(self) -> bool:
        """Convexity of the support function."""
        sf = self.support_function()
        for ci in range(len(self.fan.max_cones)):
            m = sf.per_max_cone[ci]
            for j, e in enumerate(self.fan.rays):
                if lattice.pairing(m, e) < -self.coeffs[j]:
                    return False
        return True

    def is_strictly_convex(self) -> bool:
        """Strict convexity: equality on a maximal cone only for its own rays."""
        sf = self.support_function()
        for ci, c in enumerate(self.fan.max_cones):
            m = sf.per_max_cone[ci]
            for j, e in enumerate(self.fan.rays):
                val = lattice.pairing(m, e)
                if val < -self.coeffs[j]:
                    return False
                if val == -self.coeffs[j] and j not in c:
                    return False
        return True

    # -- section polytope ------------------------------------------------------

    def polytope_of_divisor(self) -> HPolytope:
        """The half-space system {m : <m, e_i> >= -a_i}, one row per ray."""
        return HPolytope([(e, -a) for e, a in zip(self.fan.rays, self.coeffs)])

    def section_polytope(self) -> LatticePolytope:
        if self._polytope is None:
            self._polytope = vertices_from_inequalities(self.polytope_of_divisor())
        return self._polytope

    def is_semiample(self) -> bool:
        """Globally generated with full-dimensional section polytope."""
        return self.is_globally_generated() and \
            self.section_polytope().dim == self.fan.dim

    # -- intersection numbers ---------------------------------------------------

    def intersection_number(self, k: int, sigma: ConeRef) -> Fraction:
        """(D^k · V(sigma)) = k! vol_k(Delta_D ∩ (sigma-perp + m_sigma)).

        Defined here for globally generated D; sigma must have dimension
        d - k.  The volume is measured in the lattice induced on the slice.
        """
        if not self.is_globally_generated():
            raise PreconditionError(
                "intersection numbers via volumes require a globally generated "
                "divisor; use the curve-intersection helpers for general ones")
        d = self.fan.dim
        if sigma.dim != d - k:
            raise ValidationError(
                f"cone of dimension {sigma.dim} paired with D^{k} in rank {d}")
        m_sigma = self.support_function().m_of_cone(sigma)
        ineqs = list(self.polytope_of_divisor().inequalities)
        for g in sigma.generators():
            c = lattice.pairing(m_sigma, g)
            ineqs.append((g, c))
            ineqs.append((tuple(-x for x in g), -c))
        face = vertices_from_inequalities(HPolytope(ineqs))
        if face.is_empty or face.dim < k:
            return Fraction(0)
        return face.normalized_volume()

    def degree(self) -> Fraction:
        """(D^d) = d! vol(Delta_D)."""
        return self.intersection_number(self.fan.dim,
                                        ConeRef(self.fan, frozenset(), 0))

    # -- the coarsened fan -------------------------------------------------------

    def sigma_d(self) -> Fan:
        """The complete fan on which D becomes ample: the normal fan of the
        section polytope.  `_sigma_d_by_gluing` and `_sigma_d_by_zero_facets`
        build it again from the fine fan, for tests and `--verify`."""
        if not self.is_semiample():
            raise PreconditionError("the coarsened fan is defined for semiample divisors")
        return self.section_polytope().normal_fan()

    def _sigma_d_by_gluing(self):
        """Glue the maximal cones that share their linear function m; the
        glued cone is dual to the differences m' - m of the other ones."""
        ms = self.support_function().per_max_cone

        def glued(m):
            normals = {lattice.primitivize(tuple(a - b for a, b in zip(m2, m)))
                       for m2 in ms if m2 != m}
            return extreme_rays_of_dual(sorted(normals), self.fan.dim)

        return self._assemble_glued_fan([glued(m) for m in sorted(set(ms))])

    def _sigma_d_by_zero_facets(self):
        """Glue maximal cones across the walls tau whose slice volume
        (D . V(tau)) is 0; a ray of a glued cone is extreme when the facets
        through it hold no other ray of the cone."""
        sf = self.support_function()
        parent = list(range(len(self.fan.max_cones)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        inc = self.fan._facet_incidence()
        for tau, (a, b) in ((t, cis) for t, cis in inc.items() if len(cis) == 2):
            tau_ref = ConeRef(self.fan, tau, self.fan.dim - 1)
            if self.intersection_number(1, tau_ref) == 0:
                parent[find(a)] = find(b)
        groups = {}
        for ci in range(len(self.fan.max_cones)):
            groups.setdefault(find(ci), []).append(ci)
        cones = {}  # keyed by the common linear part, the order of the gluing route
        for cis in groups.values():
            keys = {sf.per_max_cone[ci] for ci in cis}
            if len(keys) != 1:
                raise InconsistencyError(
                    "zero-facet gluing merged cones with different linear parts")
            members = sorted({i for ci in cis for i in self.fan.max_cones[ci]})
            gens = [self.fan.rays[i] for i in members]
            facets = [mask for _, mask in cone_rays(gens, self.fan.dim)]  # the group is full
            cones[keys.pop()] = [g for i, g in enumerate(gens) if reduce(
                and_, (m for m in facets if m >> i & 1), (1 << len(gens)) - 1) == 1 << i]
        return self._assemble_glued_fan([cones[m] for m in sorted(cones)])

    def _assemble_glued_fan(self, cones):
        """The fan of the glued cones, each given by its extreme rays."""
        rays = sorted({tuple(r) for c in cones for r in c})
        for r in rays:
            if r not in self.fan.rays:
                raise InconsistencyError(
                    f"glued cone has extreme ray {r} outside the original fan")
        index = {r: i for i, r in enumerate(rays)}
        return Fan(rays, [frozenset(index[tuple(r)] for r in c) for c in cones],
                   dim=self.fan.dim)

    # -- push-forward / pull-back --------------------------------------------------

    def pushforward(self, coarse: Fan) -> "TorusInvariantDivisor":
        """Keep the coefficients at rays surviving in the coarse fan."""
        if not self.fan.is_refinement(coarse):
            raise PreconditionError("push-forward requires the fan to refine the target")
        index_of = {r: i for i, r in enumerate(self.fan.rays)}
        coeffs = []
        for r in coarse.rays:
            if r not in index_of:
                raise PreconditionError(
                    f"ray {r} of the coarse fan is not a ray of the fine fan")
            coeffs.append(self.coeffs[index_of[r]])
        return TorusInvariantDivisor(coarse, coeffs)

    # -- stratification ---------------------------------------------------------------

    def stratify(self):
        """Smallest containing cone and torus-factor rank for every cone."""
        coarse = self.sigma_d()
        out = []
        for cone in self.fan.all_cones():
            container = coarse.smallest_containing_cone(cone)
            out.append(StratumRecord(cone, container, container.dim - cone.dim))
        return out

    # -- intersection-number criteria ----------------------------------------------------

    def curve_numbers(self) -> dict:
        """{wall ray set -> (D · V(tau))} for a Cartier D.  At the wall tau of
        maximal cones a, b, m_a - m_b spans the saturated rank-1 lattice
        tau-perp ∩ M: the number is its gcd, signed by <m_a - m_b, e> for a ray
        e of b off tau (Cox-Little-Schenck, Toric Varieties, Prop. 6.3.8)."""
        if self._curves is None:
            ms, fan, curves = self.support_function().per_max_cone, self.fan, {}
            for tau, (a, b) in fan._facet_incidence().items():
                diff = [x - y for x, y in zip(ms[a], ms[b])]
                side = lattice.pairing(diff, fan.rays[min(fan.max_cones[b] - tau)])
                curves[tau] = gcd(*diff) if side > 0 else -gcd(*diff)
            self._curves = curves
        return self._curves

    def curve_intersection(self, tau: ConeRef) -> Fraction:
        """(D · V(tau)) for a Cartier D and a wall tau of its fan, from curve_numbers."""
        if tau.fan.rays != self.fan.rays or tau.ray_indices not in self.curve_numbers():
            raise ValidationError(f"cone with rays {[list(g) for g in tau.generators()]} and "
                                  f"dimension {tau.dim} is not a wall of the divisor's fan")
        return Fraction(self.curve_numbers()[tau.ray_indices])

    def nakai_globally_generated(self) -> bool:
        """(D · V(tau)) >= 0 for every (d-1)-cone tau."""
        return all(v >= 0 for v in self.curve_numbers().values())

    def nakai_ample(self) -> bool:
        """(D · V(tau)) > 0 for every (d-1)-cone tau."""
        return all(v > 0 for v in self.curve_numbers().values())


def pullback(divisor: TorusInvariantDivisor, fine: Fan) -> TorusInvariantDivisor:
    """Pull a Cartier divisor back along a subdivision: a_i = -psi(e_i)."""
    if not fine.is_refinement(divisor.fan):
        raise PreconditionError("pull-back requires a refinement of the divisor's fan")
    sf = divisor.support_function()
    coeffs = []
    for e in fine.rays:
        v = sf.value(e)
        if v.denominator != 1:
            raise InconsistencyError("support function non-integral at a lattice ray")
        coeffs.append(-int(v))
    return TorusInvariantDivisor(fine, coeffs)


def find_ample(fan: Fan) -> TorusInvariantDivisor:
    """Some ample torus-invariant divisor on a projective complete fan, read
    off the nef cone (Cox-Little-Schenck, Toric Varieties, ch. 6).

    Coordinates: a_i = 0 on d independent rays of the first maximal cone.
    Each wall between maximal cones sigma, sigma' gives a_j - sum c_i a_i
    >= 0, where e_j = sum c_i e_i is a ray of sigma' off the wall written in
    independent rays of sigma; the other rays of a non-simplicial cone give
    the Cartier equalities, as rows of both signs.  The sum of the rays of
    that cone is in its relative interior: it is positive on every wall
    exactly when some class is ample.
    """
    if fan._ample is not None:
        return fan._ample
    if not fan.is_complete:
        raise PreconditionError("ample divisors are sought on complete fans")
    n, d = len(fan.rays), fan.dim

    def independent(c):
        idx = sorted(c)
        return [idx[j] for j in lattice._eliminate(
            [list(col) for col in zip(*(fan.rays[i] for i in idx))], len(idx))[1]]

    bases = [independent(c) for c in fan.max_cones]
    keep = [i for i in range(n) if i not in bases[0]]

    def relation(j, basis, sign=1):
        """sign * den * (a_j - sum c_i a_i) for e_j = sum c_i e_i, on keep."""
        c = solve_unique([[fan.rays[i][k] for i in basis] for k in range(d)],
                         list(fan.rays[j]))
        den = sign * lcm(*(x.denominator for x in c))
        row = [0] * n
        row[j] = den
        for i, x in zip(basis, c):
            row[i] -= int(x * den)
        return [row[i] for i in keep]

    walls = [relation(min(fan.max_cones[b] - tau), bases[a])
             for tau, (a, b) in fan._facet_incidence().items()]
    cartier = [relation(j, basis, sign) for c, basis in zip(fan.max_cones, bases)
               for j in sorted(c - set(basis)) for sign in (1, -1)]
    nef = cone_rays(walls + cartier, len(keep))
    if nef is None:
        raise InconsistencyError("the nef cone of a complete fan holds a line")
    total = [sum(y[k] for y, _ in nef) for k in range(len(keep))]
    if not all(lattice.pairing(r, total) > 0 for r in walls):
        raise PreconditionError(
            "requires a projective fan: no strictly convex support function exists")
    coeffs = [0] * n
    for i, x in zip(keep, total):
        coeffs[i] = x
    # scale so that every linear function m_sigma is integral
    scale = lcm(*(x.denominator for c in fan.max_cones
                  for x in solve_unique([fan.rays[i] for i in sorted(c)],
                                        [-coeffs[i] for i in sorted(c)])))
    div = TorusInvariantDivisor(fan, [scale * x for x in coeffs])
    if not div.is_strictly_convex():
        raise InconsistencyError("ample search produced a non-ample divisor")
    fan._ample = div
    return div
