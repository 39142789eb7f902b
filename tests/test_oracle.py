"""The frozenset oracle against the bitmask code on every 3-point topology.

Criterion 08 of the acceptance suite cross-checks two points; these
sweeps take the closure, interior and hat-strongly-far verdicts, the
axiom verdicts, strongly-far and the miss-only refinement verdicts one
point further, and pin the hat witness to the first (E, C) pair in
ascending mask order that the oracle's own hulls accept.
"""

import oracle

from proxitop import (
    GroundSpace,
    build_topology,
    check_axioms,
    closure,
    enumerate_point_relations,
    hat_strongly_far,
    interior,
    overlap_proximity,
    point_generated_proximity,
    refines,
    strongly_far,
)
from proxitop.proximity import AXIOM_NAMES

POINTS = (0, 1, 2)


def to_mask(s):
    return sum(1 << p for p in s)


def test_three_point_topologies_agree_with_oracle():
    topologies = oracle.all_topologies(POINTS)
    assert len(topologies) == 29
    subsets = sorted(oracle.powerset(POINTS), key=to_mask)
    nonempty = subsets[1:]
    for fam in topologies:
        space = GroundSpace.create(3, [to_mask(o) for o in fam])
        hulls = []
        for s in subsets:
            cl = oracle.closure(POINTS, fam, s)
            assert closure(space, to_mask(s)) == to_mask(cl)
            assert interior(space, to_mask(s)) == to_mask(oracle.interior(POINTS, fam, s))
            hulls.append(oracle.interior(POINTS, fam, cl))
        for a in nonempty:
            for b in nonempty:
                result = hat_strongly_far(space, to_mask(a), to_mask(b))
                assert result.holds == oracle.hat_strongly_far(POINTS, fam, a, b), (fam, a, b)
                first = next(
                    (
                        (e, c)
                        for e in range(8)
                        for c in range(8)
                        if a <= hulls[e] and b <= hulls[c] and not hulls[e] & hulls[c]
                    ),
                    None,
                )
                assert result.witness == first, (fam, a, b)


def assert_axioms_and_strongly_far_agree(prox, near):
    expected = oracle.check_axioms(POINTS, near)
    report = check_axioms(prox)
    assert {a: report.passed(a) for a in AXIOM_NAMES} == {a: expected[a] for a in AXIOM_NAMES}
    assert report.classification == expected["classification"]
    nonempty = sorted(oracle.powerset(POINTS), key=to_mask)[1:]
    for a in nonempty:
        for b in nonempty:
            mine = strongly_far(prox, to_mask(a), to_mask(b)).holds
            assert mine == oracle.strongly_far(POINTS, near, a, b), (a, b)


def test_three_point_overlap_axioms_and_strongly_far_agree_with_oracle():
    for fam in oracle.all_topologies(POINTS):
        space = GroundSpace.create(3, [to_mask(o) for o in fam])
        near = oracle.overlap_near(POINTS, fam)
        assert_axioms_and_strongly_far_agree(overlap_proximity(space), near)


def test_three_point_relations_agree_with_oracle():
    relations = list(enumerate_point_relations(3))
    assert len(relations) == 8
    space = GroundSpace.discrete(3)
    for rel in relations:

        def near(a, b, rows=rel.rows):
            return any(rows[i] >> j & 1 for i in a for j in b)

        assert_axioms_and_strongly_far_agree(point_generated_proximity(space, rel), near)


def test_three_point_miss_only_refinements_agree_with_oracle():
    kinds = ("far_miss_only", "sf_miss_only")
    for fam in oracle.all_topologies(POINTS):
        space = GroundSpace.create(3, [to_mask(o) for o in fam])
        prox = overlap_proximity(space)
        mine = [build_topology(space, kind, prox=prox) for kind in kinds]
        cl_x = oracle.cl_points(POINTS, fam)
        theirs = [
            oracle.open_family_from_subbase(cl_x, oracle.hyper_subbase(POINTS, fam, kind))
            for kind in kinds
        ]
        for i in range(2):
            for j in range(2):
                verdict = refines(mine[i], mine[j]).refines
                assert verdict == oracle.refines(theirs[i], theirs[j]), (fam, kinds[i], kinds[j])
