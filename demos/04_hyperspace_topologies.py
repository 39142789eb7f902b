"""Hit-and-miss topologies on the hyperspace of nonempty closed sets.

CL(X) is enumerated once; a hyperspace topology is a subbase of
hyperpoint families (hit sets plus one of several miss halves), each an
int with bit i set when the i-th hyperpoint belongs to it. Each
hyperpoint's minimal neighbourhood, the intersection of the subbase
members through it, fixes the topology, and the distinct ones form its
smallest base. Refinement compares minimal neighbourhoods pointwise and
is combined into equal / finer / incomparable.
"""

from proxitop import (
    CompactnessIdeal,
    GroundSpace,
    PointRelation,
    build_topology,
    compare,
    enumerate_cl,
    far_miss_set,
    hit_set,
    miss_set,
    overlap_proximity,
    point_generated_proximity,
    sf_miss_set,
)

space = GroundSpace.discrete(3)
prox = overlap_proximity(space)
cl = enumerate_cl(space)
print("CL(X):", [space.format(e) for e in cl])


def show(name, fam):
    members = [space.format(cl[i]) for i in range(len(cl)) if fam >> i & 1]
    print(f"  {name}: {members}")


print("\nsubbase families for the open {p0,p1}:")
show("hit", hit_set(space, 0b011))
show("miss", miss_set(space, 0b011))
show("far-miss", far_miss_set(prox, 0b011))
show("sf-miss", sf_miss_set(prox, 0b011))

# -- vietoris, fell and the far-miss variant all agree here -----------------
viet = build_topology(space, "vietoris")
fell = build_topology(space, "fell", ideal=CompactnessIdeal.all_closed(space))
farm = build_topology(space, "far_miss", prox=prox)
print("\nminimal base sizes:", len(viet.base), len(fell.base), len(farm.base))
print("fell(all closed) vs vietoris:", compare(fell, viet).verdict)
print("far_miss(overlap) vs vietoris:", compare(farm, viet).verdict)

# -- the miss halves alone can separate --------------------------------------
# under the non-transitive path relation the strongly-far miss half
# collapses while the far-miss half does not
path = point_generated_proximity(space, PointRelation.from_pairs(3, [(0, 1), (1, 2)]))
left = build_topology(space, "far_miss_only", prox=path)
right = build_topology(space, "sf_miss_only", prox=path)
result = compare(left, right)
print("\npath relation, far-miss half vs sf-miss half:", result.verdict)
print("  far-miss-only base:", [bin(b) for b in left.base])
print("  sf-miss-only base: ", [bin(b) for b in right.base])
