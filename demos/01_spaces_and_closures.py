"""Finite spaces, bitmask subsets, closure and interior.

Every subset of an n-point ground set is a plain int: bit i set means
point i is in. A space is just the point count plus the family of open
masks; closure and interior read a table built once from that family.
"""

from proxitop import (
    GroundSpace,
    all_masks,
    closed_sets,
    closure,
    interior,
    is_T1,
    validate_topology,
)

# -- a three-point chain space -----------------------------------------
# opens: {}, {0}, {0,1}, {0,1,2}
space = GroundSpace.create(3, [0b000, 0b001, 0b011, 0b111], labels="xyz")
print("opens:  ", [space.format(o) for o in space.opens])
print("closed: ", [space.format(c) for c in closed_sets(space)])

# the closure of {y} picks up z, because every closed superset of y has z
s = space.points.mask_of("y")
print("cl {y} =", space.format(closure(space, s)))
print("int {y,z} =", space.format(interior(space, space.points.mask_of("yz"))))

# T1 fails here: {x} is not closed
print("T1?", is_T1(space))
print("T1 on the discrete space?", is_T1(GroundSpace.discrete(3)))

# -- validation catches non-topologies ----------------------------------
from proxitop.spaces import PointSet

broken = GroundSpace(PointSet(3), (0b000, 0b001, 0b010, 0b111))
report = validate_topology(broken)
print("\nbroken family verdict:", report.summary())

# -- the closure operator is Kuratowski, exhaustively --------------------
ok = all(
    closure(space, a | b) == closure(space, a) | closure(space, b)
    and closure(space, closure(space, a)) == closure(space, a)
    for a in all_masks(3)
    for b in all_masks(3)
)
print("\nclosure is additive and idempotent over all subsets:", ok)
