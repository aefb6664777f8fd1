"""Tree stand-ins for hyperbolic spaces, with exact integer geometry.

Builds the Cayley tree of a free group and the (2,3)-biregular Bass-Serre
tree on which the 3-strand braid group acts through its central quotient,
then measures hyperbolicity constants of small graphs by exhaustive
thin-triangle scan.
"""

from genlab import (
    Braid3,
    OrbitSegment,
    build_bass_serre_tree,
    build_cayley_tree,
    cycle_graph,
    grid_graph,
    gromov_product,
    measure_delta,
    project,
)

tree, action = build_cayley_tree(2)
f2 = tree.group
a, b = f2.element("a"), f2.element("b")
print("Cayley tree of F2: d(a x0, b x0) =", tree.distance(action.proj(a), action.proj(b)))
geo = tree.geodesic(action.proj(b), action.proj(b * b))
print("projection of a x0 onto [b x0, b^2 x0]:",
      tuple(f2.key_word(p) for p in project(tree, action.proj(a), geo).points))
print("Gromov product (a x0, b x0)_x0 =", gromov_product(tree, action.proj(a), action.proj(b), tree.basepoint))

bst, _, braid_action = build_bass_serre_tree()
braid = Braid3()
phi = braid.element("aB")
print("\nBass-Serre tree of Z/2 * Z/3, acted on by B3 mod center")
print("  displacement of phi = s1 s2^-1 :",
      [bst.distance(bst.basepoint, braid_action.proj(phi**n)) for n in range(5)])
print("  displacement of s1 s2 (elliptic):",
      [bst.distance(bst.basepoint, braid_action.proj(braid.element("ab") ** n)) for n in range(5)])
seg = OrbitSegment(braid_action, braid.identity(), phi, 4)
print("  orbit segment of length 4 projects onto a geodesic of length", len(seg.projected))

print("\nmeasured hyperbolicity constants (thin-triangle scan):")
for graph in (cycle_graph(6), cycle_graph(8), grid_graph(4, 4)):
    print(f"  {graph.name}: delta = {measure_delta(graph)}")
print("  (trees are always 0 by uniqueness of geodesics)")
