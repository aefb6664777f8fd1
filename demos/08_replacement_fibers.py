"""The letter-block replacement map and its fiber census.

Elements of the outer shell that miss the thick set get a window of their
geodesic excised and a linked power of the axis element spliced in; the
map's fibers stay bounded by a constant times sqrt(n), which is what makes
thick elements generic.  Also probes the conjugation-decomposable shell
fraction, which decays geometrically.
"""

import math
import random
from fractions import Fraction

from genlab import (
    BallIndex,
    FreeGroup,
    FreeProductZ2Z3,
    SegmentTable,
    a_thick_search,
    build_bass_serre_tree,
    build_cayley_tree,
    exponential_negligibility_probe,
    fiber_census,
    measure_scaled_ledger,
    replacement_map,
)

q23 = FreeProductZ2Z3()
gens = q23.standard_gens()
_, action, _ = build_bass_serre_tree()
phi = q23.element("xy")
ledger = measure_scaled_ledger(
    q23, gens, action, phi, random.Random(0), segment_length=2, sample_radius=5,
    dominating=Fraction(1), window=(Fraction(1, 4), Fraction(2, 5)),
    cut_window=(Fraction(1, 4), Fraction(2, 5)),
)
print("scaled ledger for Z/2 * Z/3 on its tree: block length", ledger.block_length(),
      "segment length", ledger.segment_length)

g = q23.element("yxyxyyxyxy")
n = q23.exact_length(g.key)
i = math.ceil(ledger.cut_window[0] * n)
table = SegmentTable(BallIndex(q23, gens, 0), action, phi, ledger)  # radius 0: every query searches
rep = replacement_map(table, g, i)
print(f"replacing the block after prefix {i} of a norm-{n} element:")
print("  output norm", q23.exact_length(rep.element.key), "linkage", repr(rep.s), repr(rep.t),
      "alignment certified:", rep.report.aligned)

found = a_thick_search(table, q23.element("xy" * 5))
print("axis-heavy element certified thick:", found.found)

print("\nfiber census over the outer shell, n = 8..14:")
print("  n   domain  image  max-fiber  max-fiber/sqrt(n)")
shared = SegmentTable(BallIndex(q23, gens, 0), action, phi, ledger)  # one table: each census grows its ball
for n in range(8, 15):
    r = fiber_census(shared, n)
    print(f"  {n:>2}  {r.domain_size:>5}  {r.image_size:>5}  {r.max_fiber:>8}  {r.sqrt_ratio:>10.3f}")

f2 = FreeGroup(2)
probe = exponential_negligibility_probe(f2, f2.standard_gens(), [8, 10])
print("\nconjugation-decomposable fraction of the F2 shell:")
for p in probe.points:
    print(f"  n={p.n}: {p.decomposable}/{p.shell_size} = {p.ratio} ({float(p.ratio):.4f})")
print("fitted exponential rate:", round(probe.fitted_rate, 3))
