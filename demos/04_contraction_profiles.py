"""Contraction and discreteness profiling.

Certifies strong contraction of tree geodesics and its failure on a grid
diagonal, profiles half-radius ball projections, measures the projection
Lipschitz constants, and runs coarse-stabilizer censuses that separate the
axis direction from the central direction in the braid group.
"""

import random

from genlab import (
    Braid3,
    FreeGroup,
    OrbitSegment,
    build_bass_serre_tree,
    build_cayley_tree,
    enumerate_ball,
    grid_graph,
    lipschitz_projection_bound,
    measure_scaled_ledger,
    select_linkage,
    strong_contraction_check,
    weak_contraction_profile,
    wpd_census,
)

tree, action = build_cayley_tree(2)
f2 = tree.group
geo = tree.geodesic(tree.basepoint, f2.normalize((1, 1, 1, 1)))
res = strong_contraction_check(tree, geo, 1, tree.ball(f2.normalize((1, 1)), 4))
print("tree geodesic: 1-strongly contracting:", res.passes, "(least passing level:", res.least_passing, ")")

grid = grid_graph(10, 10)
diag = grid.geodesic(0, 99)
res2 = strong_contraction_check(grid, diag, 1, [v for v in grid.vertices() if v % 3 == 0])
print("grid diagonal at level 1:", res2.passes, "(worst ball projection diameter:", res2.worst, ")")

rng = random.Random(0)
profile = weak_contraction_profile(f2, f2.standard_gens(), action, f2.element("a"), 6,
                                   sample_norms=[4, 6, 8, 10], rng=rng, samples_per_norm=6, seed=0)
print("\nhalf-radius ball projections along the a-axis: bound =", profile.bound,
      "over", len(profile.samples), "samples (flat in the norm)")

seg = OrbitSegment(action, f2.identity(), f2.element("a"), 5)
keys = [k for s in enumerate_ball(f2, f2.standard_gens(), 4, keep_elements=True).elements for k in s]
lip = lipschitz_projection_bound(f2, f2.standard_gens(), action, seg, keys[:60])
print("projection constants: recovery =", lip.recovery_constant, ", coarse-Lipschitz =", lip.proj_constant)

print("\ncoarse stabilizers of a length-6 axis segment in F2 (closeness 2):")
cen = wpd_census(f2, f2.standard_gens(), action, f2.element("a"), 6, 2, 8, linkage_bound=3)
print("  witnesses:", cen.count, "stabilized:", cen.stabilized)

braid = Braid3()
_, _, braid_action = build_bass_serre_tree()
print("central direction Delta^2 in B3 (never stabilizes):")
for r in (3, 6, 9):
    c = wpd_census(braid, braid.standard_gens(), braid_action, braid.element("ababab"), 2, 1, r)
    print(f"  search radius {r}: {c.count} witnesses")

link = select_linkage(f2, f2.standard_gens(), action, f2.element("a"), f2.element("a") ** 3)
print("\nlinkage letters for g = a^3 against the a-axis:", repr(link.s), repr(link.t),
      "achieved product", link.achieved)

led = measure_scaled_ledger(f2, f2.standard_gens(), action, f2.element("a"), random.Random(0), segment_length=4)
print("measured scaled ledger:", {k: v for k, v in led.to_json().items() if k in
      ("gen_displacement", "axis_step", "linkage_bound", "contraction_bound", "dominating")})
