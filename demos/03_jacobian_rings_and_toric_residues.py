#!/usr/bin/env python3
"""Graded Jacobian rings and toric residues, all in exact rationals.

The homogeneous coordinate ring of a complete toric variety is graded by the
divisor class group; hypersurface cohomology lives in specific graded pieces
of quotients by partial-derivative ideals, and the residue map turns those
pieces into numbers.
"""

from semitoric import catalog
from semitoric.coxring import CoxRing, R1Piece
from semitoric.residue import (
    CupProduct,
    NondegeneracyCertificate,
    ResidueMap,
    nondegeneracy_certificate,
    toric_jacobian,
)

# The coordinate ring of the projective plane; x, y, z all have degree H.
ring = CoxRing(catalog.projective_plane())
print("beta_0 (sum of variable degrees):", ring.beta0.rep)
print("dim of the cubics:", ring.piece_dim(ring.beta0))

# The Fermat cubic is certified nondegenerate by exact linear algebra in the
# critical degree: the weighted partials span a codimension-one piece and
# the toric Jacobian lies outside it.
cubic = ring.polynomial({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
cert = nondegeneracy_certificate(cubic)
print("\nFermat cubic certified nondegenerate:", cert.certified)

# R_1(f) in its two interesting degrees: both one-dimensional for a cubic
# (the elliptic curve has h^{1,0} = h^{0,1} = 1).
for a in (0, 1):
    gamma = (a + 1) * cubic.degree - ring.beta0
    piece = R1Piece(cubic, gamma)
    print(f"R_1(f) at level {a}: dim {piece.dim}, basis {piece.coset_exponents}")

# The residue map on the projective line, normalized on the toric Jacobian.
p1 = CoxRing(catalog.projective_line())
x2, y2 = p1.monomial((2, 0)), p1.monomial((0, 2))
res = ResidueMap(NondegeneracyCertificate(p1, [x2, y2]))
jac = toric_jacobian(p1, [x2, y2])
print("\non P^1 with sections (x^2, y^2):")
print("  toric Jacobian:", jac)
print("  Res(Jacobian) = 1! vol(segment) =", res.residue(jac))
print("  Res(xy) =", res.residue(p1.monomial((1, 1))))

# The cup-product pairing of the elliptic curve: a single exact rational
# times (2 pi i)^2.
cp = CupProduct(ring, cubic)
value = cp.pair(ring.one(), ring.monomial((1, 1, 1)), 0, 1)
print("\nelliptic-curve pairing <1, xyz> =",
      value.rational, f"* (2 pi i)^{value.two_pi_i_exponent}")

# The Fermat quintic: the classical Hodge numbers of the quintic threefold
# drop out of the same machinery.
p4 = CoxRing(catalog.projective_space(4))
quintic = p4.polynomial({tuple(5 * int(i == j) for j in range(5)): 1
                         for i in range(5)})
dims = [R1Piece(quintic, (a + 1) * quintic.degree - p4.beta0).dim
        for a in range(4)]
print("\nFermat quintic graded dimensions (h^{3,0},...,h^{0,3}):", dims)
