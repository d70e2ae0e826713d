#!/usr/bin/env python3
"""Hodge numbers from lattice points, and a failure of mirror duality.

For crepant Calabi-Yau threefold hypersurfaces the h^{2,1} formula needs only
lattice-point counts of a reflexive polytope.  In dimension 7 the analogous
h^{3,2} values of a mirror pair can differ: the comparison below exhibits the
asymmetry with explicit witness faces and interior points.
"""

from semitoric import catalog
from semitoric.hodge import h21_batyrev, mirror_check, triangulation_helper

# Threefolds first: the quintic and the crepant P(1,1,2,2,2) hypersurface.
print("h^{2,1}(quintic) =", h21_batyrev(catalog.quintic_polytope()))

from semitoric.divisor import TorusInvariantDivisor
delta4 = TorusInvariantDivisor(catalog.p11222_fan(), (1,) * 5).section_polytope()
print("h^{2,1}(crepant P(1,1,2,2,2) hypersurface) =", h21_batyrev(delta4))

# Triangulations with every boundary lattice point as a ray: on the square,
# each edge is split at its midpoint.
fan = triangulation_helper(catalog.cube(2))
print("\nmaximal resolution of the square's face fan:",
      len(fan.rays), "rays,", len(fan.max_cones), "cones")

# The 7-dimensional mirror pair: z_i >= -1 together with
# -2z1-2z2-2z3-2z4-3z5-3z6-3z7 >= -1.
delta = catalog.sec6_polytope()
report = mirror_check(delta)
print("\n7-dimensional mirror comparison:")
print("  h^{3,2} of the hypersurface side:", report.side.value)
print("  h^{3,2} of the dual side:       ", report.mirror_side.value)
print("  symmetric:", report.symmetric)

witness = report.mirror_side.witnesses[0]
print("\nwitness 4-face of the dual polytope:")
for v in witness["face"]:
    print("   ", v)
print("interior point of its double:", witness["double_face_interior_points"])
print("dual 2-face vertices:", witness["dual_face"])
print("its interior lattice points (the subdividing rays):")
for p in witness["subdividing_points"]:
    print("   ", p)
