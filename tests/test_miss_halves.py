"""The far-miss and sf-miss topologies compared one hyperpoint at a time.

`_miss_only_neighbourhoods` reads each hyperpoint's minimal neighbourhood
in the far_miss_only and sf_miss_only topologies of a basic relation off
its neighbourhood map, with no subbase. Both tuples are compared with
`build_topology(...).minimal_neighbourhoods`, and `_compare_miss_halves`
with `compare` (verdict and witnesses), over every small topology and
point relation, every basic search candidate up to four points, and
random draws up to six points. The incomparable pairs of four-point
models are pinned, and the `incomparable-topologies` search is shown to
build no hyperspace topology.
"""

import importlib

from hypothesis import given, settings, strategies as st

from proxitop import (
    GroundSpace,
    PointRelation,
    build_topology,
    check_axioms,
    compare,
    enumerate_point_relations,
    enumerate_topologies,
    point_generated_proximity,
)
from proxitop.hyperspace import _compare_miss_halves, _miss_only_neighbourhoods
from proxitop.search import STATUS_EXHAUSTED, SearchTarget, candidate_models, search

FIRST_INCOMPARABLE_OPENS = (0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 15)
FIRST_INCOMPARABLE_ROWS = (7, 11, 5, 10)


def assert_matches_build(space, prox):
    far, sf = _miss_only_neighbourhoods(prox)
    left = build_topology(space, "far_miss_only", prox=prox)
    right = build_topology(space, "sf_miss_only", prox=prox)
    assert far == left.minimal_neighbourhoods, (space.opens, prox)
    assert sf == right.minimal_neighbourhoods, (space.opens, prox)
    assert _compare_miss_halves(prox) == compare(left, right), (space.opens, prox)


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
                assert_matches_build(space, prox)
                count += 1
        assert count == 1 * 1 + 4 * 2 + 29 * 8

    def test_four_point_topologies_up_to_relabeling(self):
        count = 0
        for space, prox in point_relation_models(4, True):
            assert_matches_build(space, prox)
            count += 1
        assert count == 33 * 64

    def test_every_basic_search_candidate_up_to_four_points(self):
        kinds = set()
        target = SearchTarget("incomparable-topologies", n_max=4)
        for name, model, _ in candidate_models(target, seed=0):
            if check_axioms(model.proximity).is_basic:
                assert_matches_build(model.space, model.proximity)
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
        assert_matches_build(space, prox)


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
