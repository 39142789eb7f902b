"""Every hyperspace topology's minimal neighbourhoods against the subbase walk.

`build_topology` reads the minimal neighbourhoods of the vietoris, fell,
far-miss and sf-miss topologies, with or without their hit half, off one
closed form, and walks the subbase only for hit_and_miss and for a
relation with no neighbourhood table. Each spec's tuple is compared with
`reference.subbase_neighbourhoods` of its own subbase, and
`_compare_miss_halves`, which builds no subbase, with
`compare` (verdict and witnesses), over every small topology, point
relation and principal ideal, every basic search candidate up to four
points, and random draws up to six points. Up to three points each
subbase is also rebuilt from the public family functions. The incomparable pairs of
four-point models are pinned, and the `incomparable-topologies` search is
shown to build no hyperspace topology.
"""

import importlib

from hypothesis import given, settings, strategies as st

from proxitop import (
    CompactnessIdeal,
    GroundSpace,
    PointRelation,
    build_topology,
    check_axioms,
    compare,
    enumerate_point_relations,
    enumerate_topologies,
    far_miss_set,
    hit_set,
    miss_set,
    point_generated_proximity,
    sf_miss_set,
    table_proximity,
)
from proxitop.hyperspace import MISS_ONLY_KINDS, TOPOLOGY_KINDS, _compare_miss_halves
from proxitop.search import STATUS_EXHAUSTED, SearchTarget, candidate_models, search
from reference import subbase_neighbourhoods

FIRST_INCOMPARABLE_OPENS = (0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 15)
FIRST_INCOMPARABLE_ROWS = (7, 11, 5, 10)
SPECS = TOPOLOGY_KINDS + MISS_ONLY_KINDS


def assert_matches_walk(topo, closed_form):
    """The minimal neighbourhoods are the walk of the topology's own subbase,
    and came from the closed form exactly when `closed_form` says so."""
    walk = subbase_neighbourhoods(topo.subbase, len(topo.cl))
    assert topo.minimal_neighbourhoods == tuple(walk), (topo.space.opens, topo.kind)
    assert (topo.closed_form is not None) == closed_form, (topo.space.opens, topo.kind)


def assert_matches_build(space, prox, ideal=None):
    """Every spec against the walk (fell and hit_and_miss only with an
    ideal, the latter over its members), and the miss halves against
    `compare`. `space` is a topology."""
    tabled = prox._neighbourhoods() is not None
    built = {}
    for kind in SPECS:
        if kind in ("fell", "hit_and_miss") and ideal is None:
            continue
        family = None if ideal is None else ideal.sorted_members()
        built[kind] = build_topology(space, kind, prox=prox, ideal=ideal, family=family)
        closed_form = kind in ("vietoris", "fell") or kind != "hit_and_miss" and tabled
        assert_matches_walk(built[kind], closed_form)
    halves = compare(built["far_miss_only"], built["sf_miss_only"])
    assert _compare_miss_halves(prox) == halves, (space.opens, prox)
    return built


def assert_subbase_from_families(space, prox, ideal, built):
    """Each built subbase is the sorted distinct masks of the family
    functions over the opens that feed it, and each family is an int."""
    members = set(ideal.sorted_members())
    misses = {
        "vietoris": [miss_set(space, w) for w in space.opens],
        "fell": [miss_set(space, w) for w in space.opens if space.complement(w) in members],
        "far_miss": [far_miss_set(prox, a) for a in space.opens],
        "sf_miss": [sf_miss_set(prox, a) for a in space.opens],
    }
    misses["hit_and_miss"] = misses["fell"]
    hits = [hit_set(space, v) for v in space.opens]
    for fam in hits + [m for half in misses.values() for m in half]:
        assert type(fam) is int, fam
    for kind, topo in built.items():
        if kind in MISS_ONLY_KINDS:
            want = misses[kind[: -len("_only")]]
        else:
            want = hits + misses[kind]
        assert topo.subbase == tuple(sorted(set(want))), (space.opens, prox, kind)


def principal_ideals(space):
    return [CompactnessIdeal.principal(space, top) for top in space.closed]


def point_relation_models(n, up_to_iso):
    for opens in enumerate_topologies(n, up_to_iso):
        space = GroundSpace.create(n, opens)
        for rel in enumerate_point_relations(n):
            yield space, point_generated_proximity(space, rel)


class TestAgainstBuiltTopologies:
    def test_every_labelled_topology_up_to_three_points(self):
        count = 0
        for n in (1, 2, 3):
            for space, prox in point_relation_models(n, False):
                for ideal in principal_ideals(space):
                    built = assert_matches_build(space, prox, ideal)
                    assert_subbase_from_families(space, prox, ideal, built)
                    count += 1
        # Per n: the closed sets summed over the labelled topologies, times
        # the point relations.
        assert count == 2 * 1 + 12 * 2 + 130 * 8

    def test_four_point_topologies_up_to_relabeling(self):
        count = 0
        for opens in enumerate_topologies(4, True):
            space = GroundSpace.create(4, opens)
            ideals = principal_ideals(space)
            # 64 relations per space take every principal ideal in turn.
            for i, rel in enumerate(enumerate_point_relations(4)):
                prox = point_generated_proximity(space, rel)
                assert_matches_build(space, prox, ideals[i % len(ideals)])
                count += 1
        assert count == 33 * 64

    def test_every_basic_search_candidate_up_to_four_points(self):
        kinds = set()
        target = SearchTarget("incomparable-topologies", n_max=4)
        for name, model, _ in candidate_models(target, seed=0):
            if check_axioms(model.proximity).is_basic:
                assert_matches_build(model.space, model.proximity, model.ideal)
                kinds.add(model.proximity.kind)
        assert {"table", "point_relation", "gap", "alexandroff"} <= kinds

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_models_up_to_six_points(self, data):
        n = data.draw(st.integers(1, 6))
        # A preorder: reflexive up-sets closed under following their points.
        up = [data.draw(st.integers(0, (1 << n) - 1)) | 1 << i for i in range(n)]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                grown = up[i]
                for j in range(n):
                    if up[i] >> j & 1:
                        grown |= up[j]
                if grown != up[i]:
                    up[i], changed = grown, True
        opens = {0}
        for u in up:
            opens |= {m | u for m in opens}
        space = GroundSpace.create(n, opens)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        prox = point_generated_proximity(space, PointRelation.from_pairs(n, chosen))
        ideal = CompactnessIdeal.principal(space, data.draw(st.sampled_from(space.closed)))
        assert_matches_build(space, prox, ideal)

    def test_non_basic_table_walks_the_subbase(self):
        # {0} is not near itself, so no neighbourhood table generates it.
        space = GroundSpace.discrete(2)
        prox = table_proximity(space, [(0b01, 0b10), (0b10, 0b10), (0b11, 0b11)])
        assert not check_axioms(prox).is_basic
        for kind in ("far_miss", "sf_miss", "far_miss_only", "sf_miss_only"):
            assert_matches_walk(build_topology(space, kind, prox=prox), False)
        assert_matches_walk(build_topology(space, "vietoris"), True)


class TestIncomparableFinding:
    def test_first_four_point_example(self):
        space = GroundSpace.create(4, FIRST_INCOMPARABLE_OPENS)
        prox = point_generated_proximity(space, PointRelation(FIRST_INCOMPARABLE_ROWS))
        left = build_topology(space, "far_miss_only", prox=prox)
        right = build_topology(space, "sf_miss_only", prox=prox)
        assert compare(left, right).verdict == "incomparable"

    def test_counts_up_to_four_points(self):
        # No incomparable pair up to three points; at four, 336 labelled
        # (topology, point relation) pairs on 112 of the 355 topologies,
        # the first in enumeration order being the example above.
        for n in (1, 2, 3):
            assert all(
                _compare_miss_halves(prox).verdict != "incomparable"
                for _, prox in point_relation_models(n, False)
            )
        found = [
            (space.opens, prox.params["relation"].rows)
            for space, prox in point_relation_models(4, False)
            if _compare_miss_halves(prox).verdict == "incomparable"
        ]
        assert len(found) == 336
        assert len({opens for opens, _ in found}) == 112
        assert found[0] == (FIRST_INCOMPARABLE_OPENS, FIRST_INCOMPARABLE_ROWS)


def test_incomparable_search_builds_no_topology(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the incomparable-topologies test built a miss half")

    # The package's own `search` name is the function, so import by path.
    for module in map(importlib.import_module, ("proxitop.hyperspace", "proxitop.search")):
        for name in ("build_topology", "far_miss_set", "sf_miss_set"):
            monkeypatch.setattr(module, name, refuse)
    outcome = search(SearchTarget("incomparable-topologies", n_max=4))
    assert outcome.status == STATUS_EXHAUSTED
    assert (outcome.models_checked, outcome.evaluations) == (436, 42944)
