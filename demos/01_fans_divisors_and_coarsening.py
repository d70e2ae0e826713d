#!/usr/bin/env python3
"""Fans, torus-invariant divisors, and the coarsened fan of a semiample class.

We blow up the projective plane at a torus-fixed point, pull back the
hyperplane class, watch it stop being ample while staying semiample, and
recover the plane by gluing the cones on which the support function is linear.
"""

from semitoric import catalog
from semitoric.divisor import TorusInvariantDivisor, pullback
from semitoric.fan import ConeRef

# The projective plane: rays e1, e2, -e1-e2, all three 2-cones.
plane = catalog.projective_plane()
print("plane fan:", plane)
print("validation issues:", plane.validate())

# The hyperplane class H = D3 (coefficient 1 on the ray -e1-e2).
h = TorusInvariantDivisor(plane, (0, 0, 1))
print("\nH on the plane:")
print("  globally generated:", h.is_globally_generated())
print("  ample:", h.is_strictly_convex())
print("  (H^2) =", h.degree())

# Blow up the fixed point of cone(e1, e2): one new ray at e1 + e2.
blowup = catalog.blowup_p2()
lifted = pullback(h, blowup)
print("\npull-back of H to the blow-up has coefficients", lifted.coeffs)
print("  globally generated:", lifted.is_globally_generated())
print("  ample:", lifted.is_strictly_convex())
print("  semiample:", lifted.is_semiample())

# The intersection numbers against invariant curves detect the same thing:
# the exceptional curve is contracted by the pulled-back class.
for tau in blowup.cones(1):
    ray = blowup.rays[next(iter(tau.ray_indices))]
    print(f"  (D . V({ray})) =", lifted.curve_intersection(tau))

# Gluing the maximal cones with a common linear part returns the plane.
coarse = lifted.sigma_d()
print("\ncoarsened fan equals the plane fan:", coarse == plane)
print("push-forward is ample again:",
      lifted.pushforward(coarse).is_strictly_convex())

# The stratification records, for each cone, the face of the section
# polytope dual to its smallest containing cone downstairs, and the rank of
# the torus factor of the stratum.
print("\nstrata of a regular member of the class:")
for rec in lifted.stratify():
    rays = [blowup.rays[i] for i in sorted(rec.cone.ray_indices)]
    print(f"  cone {rays or '0'}: torus factor (C*)^{rec.torus_factor_dim}")
