"""The dense-matrix axiom kernel against the reference loops.

Every test compares `check_axioms` with `reference.axiom_witnesses`,
which sweeps the relation's definition (`reference.reference_rule`): the
verdict and the exact first witness must agree for every axiom.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from proxitop import (
    CompactnessIdeal,
    GroundSpace,
    Metric,
    PointRelation,
    ProximityRelation,
    alexandroff_proximity,
    check_axioms,
    gap_proximity,
    overlap_proximity,
    point_generated_proximity,
    table_proximity,
)
from proxitop.proximity import AXIOM_NAMES
from proxitop.search import _pair_order, _random_topology, enumerate_point_relations
from proxitop.spaces import PointSet, all_masks, validate_topology
from proxitop.strong import derived_near_from_sf
from reference import axiom_witnesses, rule_near, singleton_rows, topology_witnesses
from strategies import space_strategy


def kernel_witnesses(prox):
    report = check_axioms(prox)
    return {name: report.verdicts[name].witness for name in AXIOM_NAMES}


def assert_matches_reference(prox):
    expected = axiom_witnesses(rule_near(prox), prox.space.n)
    assert kernel_witnesses(prox) == expected, prox


def test_corpus_matches_reference(corpus):
    for m in corpus:
        assert_matches_reference(m.prox)


CONSTRUCTORS = {
    "overlap-discrete": lambda: overlap_proximity(GroundSpace.discrete(3)),
    "overlap-chain": lambda: overlap_proximity(GroundSpace.create(3, (0, 1, 3, 7))),
    "gap": lambda: gap_proximity(GroundSpace.discrete(4), Metric.line(4), 1),
    "gap-zero": lambda: gap_proximity(GroundSpace.discrete(3), Metric.line(3), 0),
    "alexandroff": lambda: _alexandroff(GroundSpace.create(3, (0, 1, 3, 7)), 4),
    "alexandroff-all": lambda: _alexandroff(GroundSpace.discrete(3), None),
    "point_relation": lambda: point_generated_proximity(
        GroundSpace.discrete(4), PointRelation.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    ),
    "table": lambda: table_proximity(
        GroundSpace.discrete(2), [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (1, 2)]
    ),
    "table-empty": lambda: table_proximity(GroundSpace.discrete(2), []),
    "constant": lambda: point_generated_proximity(  # everything near
        GroundSpace.discrete(3), PointRelation((0b111,) * 3)
    ),
    "derived-sf": lambda: derived_near_from_sf(
        gap_proximity(GroundSpace.discrete(3), Metric.line(3), 1)
    ),
}


def _alexandroff(space, top):
    if top is None:
        ideal = CompactnessIdeal.all_closed(space)
    else:
        ideal = CompactnessIdeal.principal(space, top)
    return alexandroff_proximity(space, ideal)


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_every_constructor_kind_matches_reference(name):
    assert_matches_reference(CONSTRUCTORS[name]())


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_each_axiom_alone_matches_the_full_report(name):
    # the EF forms share the reversed far rows, so each must set them up
    # when asked for without the other
    prox = CONSTRUCTORS[name]()
    full = check_axioms(prox)
    for axiom in AXIOM_NAMES:
        assert check_axioms(prox, axioms=[axiom]).verdicts == {axiom: full.verdicts[axiom]}


@st.composite
def point_relations(draw, n):
    pairs = _pair_order(n)
    edges = draw(st.integers(0, (1 << len(pairs)) - 1))
    return PointRelation.from_pairs(n, [p for k, p in enumerate(pairs) if edges >> k & 1])


@st.composite
def tables(draw):
    """Arbitrary tables, and point-generated tables with a few pairs flipped."""
    n = draw(st.integers(1, 4))
    space = GroundSpace.discrete(n)
    pairs = [(a, b) for a in all_masks(n) for b in all_masks(n) if a <= b]
    if draw(st.booleans()):
        near = draw(st.sets(st.sampled_from(pairs)))
    else:
        base = point_generated_proximity(space, draw(point_relations(n)))
        near = {p for p in pairs if base.near(*p)}
        near ^= draw(st.sets(st.sampled_from(pairs), max_size=3))
    return table_proximity(space, near)


@given(tables())
@settings(max_examples=150, deadline=None)
def test_tables_match_reference(prox):
    assert_matches_reference(prox)


def planted_p3_table(rng, n=5):
    """A point-generated relation on three random edges, written out as a
    table with one near pair of disjoint sets, three points or more
    between them, dropped: the five-point table that fails P3 first."""
    edges = rng.sample([(i, j) for i in range(n) for j in range(i + 1, n)], 3)
    base = point_generated_proximity(GroundSpace.discrete(n), PointRelation.from_pairs(n, edges))
    size = 1 << n
    pairs = [(a, b) for a in range(size) for b in range(a, size) if base.near(a, b)]
    pairs.remove(rng.choice([
        (a, b) for a, b in pairs if not a & b and bin(a | b).count("1") >= 3
    ]))
    return table_proximity(GroundSpace.discrete(n), pairs)


def test_planted_p3_tables_match_reference():
    rng = random.Random(24)
    for _ in range(20):
        prox = planted_p3_table(rng)
        assert not check_axioms(prox, axioms=["P3"]).verdicts["P3"].passed
        assert_matches_reference(prox)


@st.composite
def point_generated(draw):
    n = draw(st.integers(1, 4))
    if n == 1 or draw(st.booleans()):
        space = GroundSpace.discrete(n)
    else:
        space = _random_topology(n, random.Random(draw(st.integers(0, 10**6))))
    return point_generated_proximity(space, draw(point_relations(n)))


@given(point_generated())
@settings(max_examples=100, deadline=None)
def test_point_relations_match_reference(prox):
    assert_matches_reference(prox)


@st.composite
def open_families(draw):
    """Random families of masks, mostly not topologies."""
    n = draw(st.integers(1, 4))
    opens = draw(st.sets(st.integers(0, (1 << n) - 1)))
    if draw(st.booleans()):
        opens |= {0, (1 << n) - 1}
    return GroundSpace(PointSet(n), tuple(opens))


@given(space_strategy())
@settings(max_examples=100, deadline=None)
def test_overlap_and_alexandroff_on_any_topology_match_reference(space):
    assert_matches_reference(overlap_proximity(space))
    ideal = CompactnessIdeal.all_closed(space)
    assert_matches_reference(alexandroff_proximity(space, ideal))


@given(open_families())
@settings(max_examples=200, deadline=None)
def test_topology_validation_matches_pair_scan(space):
    report = validate_topology(space)
    assert (report.union_witness, report.intersection_witness) == topology_witnesses(
        space.opens
    )


def _overlap_matrix(calls):
    """A matrix callback for "a meets b" on two points, logging each call."""

    def matrix():
        calls.append(1)
        return [sum(1 << b for b in range(4) if a & b) for a in range(4)]

    return matrix


class TestMatrix:
    def test_rows_agree_with_rule(self):
        """`near` and the dense matrix agree with the definition on every
        relation: a point-generated one reads its matrix rows off N."""
        for name, make in CONSTRUCTORS.items():
            prox = make()
            near = rule_near(prox)
            rows = prox.matrix()
            for a in all_masks(prox.space.n):
                for b in all_masks(prox.space.n):
                    assert prox.near(a, b) == near(a, b), (name, a, b)
                    assert (rows[a] >> b & 1 == 1) == near(a, b), (name, a, b)

    def test_eval_count_counts_determined_pairs(self):
        """A table that is not basic determines every pair at its first
        `near`, when it settles on its matrix."""
        prox = table_proximity(GroundSpace.discrete(3), [(1, 2)])
        assert prox.eval_count == 0
        assert prox.near(2, 1)
        assert prox.eval_count == 8 * 9 // 2
        check_axioms(prox)
        prox.near(5, 6)
        assert prox.eval_count == 8 * 9 // 2

    def test_matrix_is_built_once_and_reused(self):
        calls = []
        prox = ProximityRelation(GroundSpace.discrete(2), "custom", matrix=_overlap_matrix(calls))
        assert prox.near(3, 1) and not prox.near(1, 2)
        check_axioms(prox)
        check_axioms(prox, axioms=["P3"])
        assert prox.matrix() is prox.matrix()
        assert calls == [1]

    def test_point_generated_relation_settles_at_first_near(self):
        calls, asked = [], []
        prox = ProximityRelation(
            GroundSpace.discrete(2), "custom",
            point_rows=lambda: asked.append(1) or (0b01, 0b10),
            matrix=_overlap_matrix(calls),
        )
        assert not prox.near(1, 2)
        assert prox._nbhd is not None and prox._rows is None
        assert prox.eval_count == 4 * 5 // 2
        prox.near(3, 2)
        check_axioms(prox)
        assert prox.matrix() == _overlap_matrix([])()
        assert calls == [] and asked == [1] and prox._rows is None

    @pytest.mark.parametrize("n", range(1, 5))
    def test_point_relation_settles_on_its_stored_rows(self, n):
        """A point relation has no matrix callback; its rows give the definition."""
        space = GroundSpace.discrete(n)
        size = 1 << n
        for relation in enumerate_point_relations(n):
            prox = point_generated_proximity(space, relation)
            rule = rule_near(prox)
            assert prox._pending_matrix is None and prox.eval_count == 0
            prox.near(1, size - 1)
            assert prox._nbhd is not None
            assert prox.eval_count == size * (size + 1) // 2
            assert prox._point_rows() == singleton_rows(n, rule)
            assert all(prox.near(a, b) == rule(a, b) for a in range(size) for b in range(a, size))

    def test_point_generation_is_asked_once(self):
        asked, calls = [], []
        prox = ProximityRelation(
            GroundSpace.discrete(2), "custom",
            point_rows=lambda: asked.append(1), matrix=_overlap_matrix(calls),
        )
        for a in range(4):
            prox.near(a, 3)
        assert asked == [1] and calls == [1] and prox._nbhd is None
        assert prox.eval_count == 4 * 5 // 2
