"""Proximity relations and their axiom ladder.

A proximity says which pairs of subsets count as "near". The checker
classifies a relation as not-basic, basic (P0-P3), lodato (adds the
chaining axiom P4) or ef (adds the separating-set property), and every
failed axiom comes with the first violating subsets in mask order.
"""

from proxitop import (
    CompactnessIdeal,
    GroundSpace,
    Metric,
    check_axioms,
    gap_proximity,
    induced_closure,
    is_compatible,
    overlap_proximity,
    alexandroff_proximity,
)

# -- the metric gap proximity --------------------------------------------
# four points on a line; near means the gap is at most 1
space = GroundSpace.discrete(4)
prox = gap_proximity(space, Metric.line(4), 1)
report = check_axioms(prox)
print("gap(eps=1) classification:", report.classification)
a, b, c = report.verdicts["P4"].witness
print(
    "P4 fails:",
    space.format(a), "near", space.format(b),
    "and", space.format(b), "near", space.format(c),
    "but", space.format(a), "is far from", space.format(c),
)

# its induced closure thickens sets by the threshold
print("induced cl {p1} =", space.format(induced_closure(prox, 0b0010)))
print("compatible with the discrete topology?", bool(is_compatible(prox)))

# -- overlap: closures meet ------------------------------------------------
ovl = overlap_proximity(space)
report = check_axioms(ovl)
print("\noverlap classification:", report.classification, "- separated?", report.separated)
print("compatible?", bool(is_compatible(ovl)))

# -- a compactness ideal makes disjoint sets near ---------------------------
# only closed subsets of {p0,p1} count as "compact"; everything else is
# near everything else outside the ideal
ideal = CompactnessIdeal.principal(space, 0b0011)
alex = alexandroff_proximity(space, ideal)
print("\nalexandroff with ideal below {p0,p1}:")
print("  {p2} near {p3}?", alex.near(0b0100, 0b1000), " (both closures outside the ideal)")
print("  {p0} near {p1}?", alex.near(0b0001, 0b0010), " (disjoint, both inside)")
print("  classification:", check_axioms(alex).classification)
print("  compatible?", bool(is_compatible(alex)))
