"""Standard fans, polytopes and hypersurfaces used across tests and demos."""

from __future__ import annotations

from itertools import combinations

from .fan import Fan
from .polytope import HPolytope, LatticePolytope, vertices_from_inequalities


def projective_space(d: int) -> Fan:
    """Fan of P^d: rays e_1..e_d and -(e_1+...+e_d); hyperplane = last ray."""
    rays = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays.append((-1,) * d)
    cones = [set(range(d + 1)) - {i} for i in range(d + 1)]
    return Fan(rays, cones)


def projective_plane() -> Fan:
    return projective_space(2)


def projective_line() -> Fan:
    return projective_space(1)


def blowup_p2() -> Fan:
    """P^2 blown up at the fixed point of cone(e1, e2); ray 3 is exceptional."""
    return Fan([(1, 0), (0, 1), (-1, -1), (1, 1)],
               [{0, 3}, {3, 1}, {1, 2}, {2, 0}])


def hirzebruch(a: int) -> Fan:
    return Fan([(1, 0), (0, 1), (-1, a), (0, -1)],
               [{0, 1}, {1, 2}, {2, 3}, {3, 0}])


def product_fan(f: Fan, g: Fan) -> Fan:
    """Fan of the product variety; rays of f first, then rays of g."""
    rays = [r + (0,) * g.dim for r in f.rays]
    rays += [(0,) * f.dim + r for r in g.rays]
    cones = []
    for a in f.max_cones:
        for b in g.max_cones:
            cones.append(set(a) | {len(f.rays) + i for i in b})
    return Fan(rays, cones)


def weighted_projective(weights) -> Fan:
    """Fan of P(w_0, ..., w_d) with w_0 = 1: rays e_1..e_d and -sum(w_i e_i)."""
    if weights[0] != 1:
        raise ValueError("normalized so that the first weight is 1")
    d = len(weights) - 1
    rays = [tuple(-w for w in weights[1:])]
    rays += [tuple(int(i == j) for j in range(d)) for i in range(d)]
    cones = [set(range(d + 1)) - {i} for i in range(d + 1)]
    return Fan(rays, cones)


_P11222_RAYS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -2, -2, -2)]


def _p11222_subdivided(extra_rays, chain) -> Fan:
    """The cones of P(1,1,2,2,2), each one through cone(v1, v0) cut into
    one cone per step of `chain`, the rays from v1 (ray 0) to v0 (ray 4)."""
    cones = []
    for c in combinations(range(5), 4):
        s = set(c)
        if {0, 4} <= s:
            rest = s - {0, 4}
            cones.extend({a, b} | rest for a, b in zip(chain, chain[1:]))
        else:
            cones.append(s)
    return Fan(_P11222_RAYS + extra_rays, cones)


def p11222_fan() -> Fan:
    """P(1,1,2,2,2) presented with rays v1..v4 = e_i and v0 = (-1,-2,-2,-2)."""
    return _p11222_subdivided([], [0, 4])   # the one step v1 -> v0 cuts nothing


def p11222_crepant_fan() -> Fan:
    """The fan above with cone(v1, v0) subdivided at its interior lattice
    ray (0,-1,-1,-1) (the crepant partial resolution)."""
    return _p11222_subdivided([(0, -1, -1, -1)], [0, 5, 4])


def blowup_p3() -> Fan:
    """P^3 blown up at the fixed point of cone(e1, e2, e3); ray 4 exceptional."""
    return Fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)],
               [{0, 1, 4}, {0, 2, 4}, {1, 2, 4},
                {0, 1, 3}, {0, 2, 3}, {1, 2, 3}])


def p11222_triple_fan() -> Fan:
    """P(1,1,2,2,2) with cone(v1, v0) subdivided at all three of its interior
    primitive rays (only the middle one is crepant)."""
    # v1 -> v7 -> v6 -> v5 -> v0 in angular order
    return _p11222_subdivided([(1, -1, -1, -1), (1, -2, -2, -2), (0, -1, -1, -1)],
                              [0, 5, 6, 7, 4])


def p11222_pullback_fermat(fine: Fan):
    """The Fermat-type anticanonical section of P(1,1,2,2,2), pulled back to
    a refinement; returns (ring, polynomial)."""
    from .coxring import CoxRing
    from .divisor import TorusInvariantDivisor, pullback

    coarse = p11222_fan()
    anti = TorusInvariantDivisor(coarse, (1,) * 5)
    lifted = pullback(anti, fine)
    ring = CoxRing(fine)
    points = [(-1, -1, -1, -1), (7, -1, -1, -1), (-1, 3, -1, -1),
              (-1, -1, 3, -1), (-1, -1, -1, 3)]
    terms = {}
    for m in points:
        exps = tuple(a + sum(mi * ei for mi, ei in zip(m, e))
                     for a, e in zip(lifted.coeffs, fine.rays))
        terms[exps] = 1
    return ring, ring.polynomial(terms, ring.degree_class(lifted.coeffs))


def sec6_hsystem() -> HPolytope:
    """The 7-dimensional reflexive example: z_i >= -1 together with
    -2z_1-2z_2-2z_3-2z_4-3z_5-3z_6-3z_7 >= -1."""
    ineqs = [(tuple(int(i == j) for j in range(7)), -1) for i in range(7)]
    ineqs.append(((-2, -2, -2, -2, -3, -3, -3), -1))
    return HPolytope(ineqs)


def sec6_polytope() -> LatticePolytope:
    return vertices_from_inequalities(sec6_hsystem())


def quintic_polytope() -> LatticePolytope:
    """Section polytope of degree-5 hypersurfaces in P^4 (reflexive)."""
    ineqs = [(tuple(int(i == j) for j in range(4)), -1) for i in range(4)]
    ineqs.append(((-1, -1, -1, -1), -1))
    return vertices_from_inequalities(HPolytope(ineqs))


def cross_polytope(d: int) -> LatticePolytope:
    verts = []
    for i in range(d):
        for s in (1, -1):
            verts.append(tuple(s * int(i == j) for j in range(d)))
    return LatticePolytope(verts, _trusted=True)


def cube(d: int) -> LatticePolytope:
    verts = []
    for mask in range(2 ** d):
        verts.append(tuple(1 if (mask >> i) & 1 else -1 for i in range(d)))
    return LatticePolytope(verts, _trusted=True)
