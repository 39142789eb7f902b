"""Strong inclusion, strongly-far witnesses, and the topological variant.

A pair is strongly far when, beyond being far, some C separates it:
A is far from the complement of C and C is far from B. The search
returns the first such C in mask order. The hat variant asks instead
for disjoint regular-open hulls around the two sets.
"""

from proxitop import (
    GroundSpace,
    Metric,
    PointRelation,
    check_far_vs_sf,
    check_sf_implies_hat,
    derived_near_from_sf,
    check_axioms,
    gap_proximity,
    hat_strongly_far,
    point_generated_proximity,
    strongly_far,
    strongly_included,
)

# -- ten points on a line, near = gap at most 1 -----------------------------
space = GroundSpace.discrete(10)
prox = gap_proximity(space, Metric.line(10), 1)
A, B = 1 << 0, 1 << 9

print("A =", space.format(A), " B =", space.format(B))
print("near?", prox.near(A, B))
result = strongly_far(prox, A, B)
print("strongly far?", result.holds, " witness C =", space.format(result.witness[0]))
# replay the definition on the witness
C = result.witness[0]
print(
    "  check: A far X\\C?", prox.far(A, space.complement(C)),
    " C far B?", prox.far(C, B),
)
print("A strongly included in {p0,p1,p2}?", strongly_included(prox, A, 0b111))

hat = hat_strongly_far(space, A, B)
print("hat-strongly-far?", hat.holds, " hulls:", [space.format(m) for m in hat.witness])

# -- a far pair that is NOT strongly far ------------------------------------
# path relation 0-1-2: each neighbor is near, the ends are far, but no C
# can separate them because every candidate touches the middle
d3 = GroundSpace.discrete(3)
path = point_generated_proximity(d3, PointRelation.from_pairs(3, [(0, 1), (1, 2)]))
print("\npath relation: {p0} far {p2}?", path.far(0b001, 0b100))
print("strongly far?", strongly_far(path, 0b001, 0b100).holds)
partition = check_far_vs_sf(path)
print(
    "far pairs split:", partition.far_and_strongly_far, "strongly far,",
    partition.far_not_strongly_far, "not",
)

# -- derived relation and the implication sweep ------------------------------
derived = derived_near_from_sf(path)
sub = check_axioms(derived, axioms=("P0", "P1", "P2", "P3"))
print(
    "\nderived near-relation (far part = strongly far) passes P0-P3:",
    all(sub.passed(p) for p in ("P0", "P1", "P2", "P3")),
)

sweep = check_sf_implies_hat(d3, path)
print("sf=>hat sweep on the path relation:", sweep.reason)  # not lodato: skipped
