#!/usr/bin/env python3
"""Lattice polytopes: enumeration, volumes, faces and reflexive duality.

Everything runs in exact integer/rational arithmetic; counts and volumes are
the ones that later feed the Hodge-number formulas.
"""

from semitoric import catalog
from semitoric.polytope import HPolytope, LatticePolytope, vertices_from_inequalities

# From half-spaces to vertices: the section polytope of quintic hypersurfaces.
quintic = catalog.quintic_polytope()
print("quintic simplex vertices:", [tuple(map(int, v)) for v in quintic.vertices])
print("lattice points:", len(quintic.lattice_points()))
print("interior points:", len(quintic.relative_interior_points()))
print("normalized volume:", quintic.normalized_volume())

# Reflexive duality in rank 2: the square and the diamond are polar duals.
square = catalog.cube(2)
diamond = square.dual_polytope()
print("\nsquare is reflexive:", square.is_reflexive())
print("its dual has vertices:", [tuple(map(int, v)) for v in diamond.vertices])
print("double dual returns the square:", diamond.dual_polytope() == square)

# Faces pair with faces of the dual, dimensions summing to d - 1.
for edge in square.faces(1)[:2]:
    dual_vertex = square.dual_face(edge)
    print("edge", sorted(edge.vertex_indices), "pairs with dual face of dim",
          dual_vertex.dim)

# The K3 identity on the cube: over the 12 edges e of [-1, 1]^3 and their dual
# edges e* of the octahedron, the lattice lengths multiply to 2 * 1, and
# sum l(e) l(e*) = 24.  Each edge polytope reads its points off the one scan of
# its parent, not a scan of its own.
cube = catalog.cube(3)


def length(face):
    return len(face.as_polytope().lattice_points()) - 1


products = [length(e) * length(cube.dual_face(e)) for e in cube.faces(1)]
print("\nl(e) l(e*) over the cube's edges:", products, "sum", sum(products))

# The 7-dimensional reflexive polytope behind the mirror comparison.
big = catalog.sec6_polytope()
print("\n7-dimensional polytope: reflexive =", big.is_reflexive())
dual = big.dual_polytope()
print("dual lattice points (vertices and the origin only):",
      len(dual.lattice_points()))

# Its normal fan is the fan of a weighted projective space: the rays carry
# weights (1,2,2,2,2,3,3,3) summing to zero against the ray matrix.
fan = big.normal_fan()
print("normal fan:", fan)

# Normal fans invert vertex enumeration: the unit simplex gives the plane.
simplex = vertices_from_inequalities(HPolytope(
    [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)]))
print("\nnormal fan of the unit simplex has rays",
      sorted(simplex.normal_fan().rays))
