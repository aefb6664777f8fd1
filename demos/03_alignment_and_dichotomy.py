"""Alignment of geodesic sequences and its consequences.

Shows alignment reports with exact projection diameters, the projection
dichotomy for points against an aligned pair, pairwise alignment of chains,
and the captured subsegments of a geodesic threading an aligned chain.
"""

from genlab import (
    aligned_subsegments,
    behrstock_dichotomy,
    chain_alignment,
    check_alignment,
    build_cayley_tree,
    fellow_traveling,
)

tree, _ = build_cayley_tree(2)
point = tree.group.normalize  # tree points are the free group's keys
line = tree.geodesic(tree.basepoint, point((1,) * 20))
g1, g2, g3 = line.subsegment(0, 4), line.subsegment(6, 10), line.subsegment(12, 16)

report = check_alignment(tree, [g1, g2, g3], 1)
print("three collinear segments, in order:")
print("  pair diameters:", report.pair_diameters, "-> 1-aligned:", report.aligned)
back = check_alignment(tree, [g2, g1], 1)
print("a reversed pair records the gap instead:", back.pair_diameters)

print("\nprojection dichotomy for points x against the 1-aligned pair (g1, g2):")
for x, label in [((-1, -1), "behind g1"), ((1,) * 19, "past g2"), ((1, 1, 1, 1, 1, 2), "hanging between")]:
    print(f"  x {label}: branch = {behrstock_dichotomy(tree, point(x), g1, g2, 3, 0)}")

print("\nchain alignment: every pair of a 1-aligned chain is 1-aligned too:",
      chain_alignment(tree, [g1, g2, g3], 1, 0) is None)

caps = aligned_subsegments(tree, point((-1, -1)), [g1, g2, g3], point((1,) * 20), 1, 0)
print("\ncaptured subsegments of [x, y] along the chain (exact at delta = 0):")
for cap in caps:
    exact = fellow_traveling(tree, cap.eta, cap.gamma_sub, 0, strict=False)
    print(f"  segment {cap.index}: eta of length {len(cap.eta)}, coincides: {exact}")
