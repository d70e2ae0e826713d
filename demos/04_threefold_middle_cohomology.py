#!/usr/bin/env python3
"""The middle cohomology of regular semiample threefold hypersurfaces.

In a rank-4 fan the middle cohomology splits into a piece coming from the
ambient graded ring plus, for every 2-cone of the coarse fan subdivided by
interior rays, copies of the corresponding curve cohomology on an
orbit-closure surface.  The cup product is exact-rational times powers of
2 pi i, with multiplicity corrections on the surface blocks.
"""

from semitoric import catalog
from semitoric.coxring import CoxRing
from semitoric.threefold import ThreefoldAnalysis

# The ample baseline: the Fermat quintic in P^4.  No subdivided 2-cones, so
# the ring piece is everything and the pairing matrix is a single block.
ring = CoxRing(catalog.projective_space(4))
quintic = ring.polynomial({tuple(5 * int(i == j) for j in range(5)): 1
                           for i in range(5)})
quintic_analysis = ThreefoldAnalysis(quintic)
print("quintic Hodge numbers:",
      [quintic_analysis.hodge_number(a) for a in range(4)])
gram = quintic_analysis.gram(1, 2)
print("pairing between levels 1 and 2: size",
      f"{sum(b.dim for b in gram.row_blocks)}x{sum(b.dim for b in gram.col_blocks)},",
      "rank", gram.rank())

# A genuinely semiample example: the anticanonical class of P(1,1,2,2,2),
# pulled back to the crepant subdivision of the 2-cone spanned by v1 and v0.
ring2, f = catalog.p11222_pullback_fermat(catalog.p11222_crepant_fan())
analysis = ThreefoldAnalysis(f)
print("\ncrepant weighted-projective example:")
for chart in analysis.charts:
    if chart.n_interior:
        print("  subdivided 2-cone with", chart.n_interior, "interior ray(s);",
              "flanking multiplicities", chart.flanking_segments(
                  chart.interior_rays[0]),
              "sum-cone multiplicity", chart.sum_mults[chart.interior_rays[0]])

for a in range(4):
    blocks = analysis.blocks(a)
    desc = " + ".join(f"{b.dim} ({b.kind})" for b in blocks if b.dim)
    print(f"  h^{{{3 - a},{a}}} = {analysis.hodge_number(a)} = {desc or 0}")

# The pairing matrix between complementary levels: the ring part (86 - 3
# dimensions) and the surface part (3 dimensions) never mix, and the whole
# matrix has full rank, as Poincare duality demands.
g = analysis.gram(1, 2)
print("\nfull pairing rank:", g.rank(), "of", sum(b.dim for b in g.row_blocks))
link_entries = []
off_r = 0
for rb in g.row_blocks:
    off_c = 0
    for cb in g.col_blocks:
        if rb.kind == cb.kind == "link":
            for i in range(rb.dim):
                for j in range(cb.dim):
                    link_entries.append(g.entry(off_r + i, off_c + j))
        off_c += cb.dim
    off_r += rb.dim
print("surface-block entries (rational part, times (2 pi i)^2):")
print("  ", [str(v.rational) for v in link_entries])
