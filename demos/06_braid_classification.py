"""Nielsen-Thurston types in the 3-strand braid group, exactly.

The trichotomy is decided by the integral matrix trace in the quotient
modular group; the center is handled by the exponent-sum homomorphism,
which also certifies word norms of central elements.
"""

from genlab import Braid3, center_coset_census, classify, translation_length

braid = Braid3()
for word in ("a", "aB", "ab", "ababab", "aabb", "abaB"):
    c = classify(braid, braid.element(word))
    print(f"  {word:>7}: {c.verdict:<15} trace {c.evidence['trace']:>3}  "
          f"central exponent {c.evidence['central_exponent']}")

print("\nclassification is a class function modulo the center:")
g = braid.element("aB")
h = braid.element("bba")
print("  aB conjugated:", classify(braid, h * g * h.inverse()).verdict)
print("  aB times Delta^2:", classify(braid, g * braid.element("ababab")).verdict)

print("\ncenter in word-metric balls (undistorted, linear count):")
cc = center_coset_census(braid, braid.standard_gens(), 6)
print("  #(center in B(r)) for r = 0..6:", cc.center_counts)
print("  least linear slope M with count <= M r + 1:", cc.least_linear_slope)
print("  largest coset intersection with B(6):", cc.max_coset_intersection)

t = translation_length(braid, braid.standard_gens(), braid.element("ababab"), 4)
print("\nstable norm of Delta^2: bounds [", t.lower, ",", t.upper, "] (exponent sum forces 6)")
