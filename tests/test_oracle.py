"""The frozenset oracle against the bitmask code on every 3-point topology.

Criterion 08 of the acceptance suite cross-checks two points; this sweep
takes the closure, interior and hat-strongly-far verdicts one point
further, and pins the hat witness to the first (E, C) pair in ascending
mask order that the oracle's own hulls accept.
"""

import oracle

from proxitop import GroundSpace, closure, hat_strongly_far, interior

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
