"""Every hyperspace topology's minimal neighbourhoods against the subbase walk.

`build_topology` reads the minimal neighbourhoods of every spec, with or
without its hit half, off one closed form (F11): hit_and_miss from the
union of the family's members each hyperpoint misses, the others from
F4's `top & ~U(N(E))`. Each spec's tuple is compared with
`reference.subbase_neighbourhoods` of its own subbase, and
`_compare_miss_halves`, which builds no subbase, with `compare` (verdict
and witnesses), over every small topology, point relation and principal
ideal, every basic search candidate up to four points, and random draws
up to six points; hit_and_miss also over random closed families. Up to
three points each subbase is also rebuilt from the public family
functions. A relation that is not basic is refused. The incomparable
pairs of four-point models are pinned, and the `incomparable-topologies`
search is shown to build no hyperspace topology. The Lemma 3.7 sweep's
closed form is compared with the family test.
"""

import importlib
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from proxitop import (
    CompactnessIdeal,
    GroundSpace,
    InvalidModelError,
    PointRelation,
    build_topology,
    check_axioms,
    check_far_vs_sf,
    check_inclusion_containment,
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
from proxitop.hyperspace import (
    MISS_ONLY_KINDS,
    TOPOLOGY_KINDS,
    _compare_miss_halves,
    _inclusion_violations,
)
from proxitop.search import STATUS_EXHAUSTED, SearchTarget, candidate_models, search
from reference import inclusion_containment_violations, subbase_neighbourhoods

FIRST_INCOMPARABLE_OPENS = (0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 15)
FIRST_INCOMPARABLE_ROWS = (7, 11, 5, 10)
SPECS = TOPOLOGY_KINDS + MISS_ONLY_KINDS


def assert_matches_walk(topo):
    """The minimal neighbourhoods are the walk of the topology's own subbase."""
    walk = subbase_neighbourhoods(topo.subbase, len(topo.cl))
    assert topo.minimal_neighbourhoods == tuple(walk), (topo.space.opens, topo.kind)


def assert_matches_build(space, prox, ideal=None):
    """Every spec against the walk (fell and hit_and_miss only with an
    ideal, the latter over its members), and the miss halves against
    `compare`. `space` is a topology."""
    built = {}
    for kind in SPECS:
        if kind in ("fell", "hit_and_miss") and ideal is None:
            continue
        family = None if ideal is None else ideal.sorted_members()
        built[kind] = build_topology(space, kind, prox=prox, ideal=ideal, family=family)
        assert_matches_walk(built[kind])
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


def preorder_space(data, n):
    """A drawn topology on n points: reflexive up-sets closed under
    following their points, and every union of them."""
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
    return GroundSpace.create(n, opens)


def assert_hit_and_miss_matches_walk(space, family):
    """hit_and_miss over any family of closed sets against the walk, and
    its subbase against the hit and miss family functions."""
    topo = build_topology(space, "hit_and_miss", family=family)
    assert_matches_walk(topo)
    want = [hit_set(space, v) for v in space.opens]
    want += [miss_set(space, space.complement(c)) for c in family]
    assert topo.subbase == tuple(sorted(set(want))), (space.opens, family)


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
        space = preorder_space(data, n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        prox = point_generated_proximity(space, PointRelation.from_pairs(n, chosen))
        ideal = CompactnessIdeal.principal(space, data.draw(st.sampled_from(space.closed)))
        assert_matches_build(space, prox, ideal)

    def test_hit_and_miss_over_random_closed_families_up_to_four_points(self):
        # Six seeded families of closed sets per labelled topology, not
        # only ideals: 2,334 families in all.
        rng = random.Random(0)
        count = 0
        for n in (1, 2, 3, 4):
            for opens in enumerate_topologies(n):
                space = GroundSpace.create(n, opens)
                for _ in range(6):
                    family = tuple(c for c in space.closed if rng.random() < 0.5)
                    assert_hit_and_miss_matches_walk(space, family)
                    count += 1
        assert count == 6 * (1 + 4 + 29 + 355)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hit_and_miss_over_random_closed_families_up_to_six_points(self, data):
        space = preorder_space(data, data.draw(st.integers(1, 6)))
        family = data.draw(st.lists(st.sampled_from(space.closed), unique=True))
        assert_hit_and_miss_matches_walk(space, tuple(family))

    def test_non_basic_table_is_refused(self):
        # {0} is not near itself, so no point rows generate the table, and
        # it is not a proximity: every far or sf spec refuses it.
        space = GroundSpace.discrete(2)
        prox = table_proximity(space, [(0b01, 0b10), (0b10, 0b10), (0b11, 0b11)])
        assert not check_axioms(prox).is_basic
        calls = [
            *(
                partial(build_topology, space, kind, prox=prox)
                for kind in ("far_miss", "sf_miss", "far_miss_only", "sf_miss_only")
            ),
            partial(far_miss_set, prox, 0b01),
            partial(sf_miss_set, prox, 0b01),
            partial(check_far_vs_sf, prox),
            partial(_compare_miss_halves, prox),
        ]
        for call in calls:
            with pytest.raises(InvalidModelError) as info:
                call()
            assert info.value.where == "proximity", call
        assert_matches_walk(build_topology(space, "vietoris"))


class TestInclusionContainment:
    """The Lemma 3.7 sweep's closed form against the family test."""

    def test_every_point_relation_up_to_three_points(self):
        cases = 0
        for n in (1, 2, 3):
            for space, prox in point_relation_models(n, False):
                got = _inclusion_violations(space, prox._neighbourhoods())
                assert got == inclusion_containment_violations(prox), (space.opens, prox)
                cases += len(space.opens) ** 2
        assert cases == 5136

    def test_four_point_topologies_up_to_relabeling(self):
        for space, prox in point_relation_models(4, True):
            got = _inclusion_violations(space, prox._neighbourhoods())
            assert got == inclusion_containment_violations(prox), (space.opens, prox)

    def test_sweep_reports_the_closed_form(self):
        applicable = 0
        for n in (1, 2, 3):
            for space, prox in point_relation_models(n, False):
                report = check_inclusion_containment(space, prox)
                if report.applicable:
                    applicable += 1
                    assert report.pairs_checked == len(space.opens) ** 2
                    assert report.violations == inclusion_containment_violations(prox)
        assert applicable > 0


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
