"""The point-level kernel against the dense matrix and the reference loops.

A point-generated relation answers `check_axioms`, `strongly_far`, the
far-miss and sf-miss families and the strong-layer sweeps from its
neighbourhood table N alone. The axiom verdicts and exact witnesses are
compared with `_matrix_witnesses` on a twin relation that has no point
rows, so that its matrix is filled from the rule, and with the
`reference` loops. The theorem tests check two facts about point
relations: the first strongly-far witness is N(A) (F1), and the Lodato
relations compatible with their topology are the equivalence relations
on their partition spaces (F3).
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
    check_far_vs_sf,
    check_sf_implies_hat,
    enumerate_point_relations,
    enumerate_topologies,
    far_miss_set,
    gap_proximity,
    is_compatible,
    overlap_proximity,
    point_generated_proximity,
    sf_miss_set,
    strongly_far,
)
from proxitop.proximity import AXIOM_NAMES, _matrix_witnesses
from proxitop.search import _pair_order, _partition_space_of, _random_topology
from reference import axiom_witnesses, raw_strongly_far, rule_near

# The reference loops sweep triples of masks, so they run up to this many points.
REFERENCE_MAX_N = 5


def matrix_twin(prox):
    """The same relation without point rows: its matrix is filled from the rule."""
    return ProximityRelation(prox.space, prox.kind, prox._rule, prox.params)


def assert_kernel_matches(make):
    """`make` builds a fresh point-generated relation on each call."""
    prox = make()
    n = prox.space.n
    size = 1 << n
    report = check_axioms(prox)
    got = {name: report.verdicts[name].witness for name in AXIOM_NAMES}
    assert prox._nbhd is not None and prox._rows is None, prox
    assert prox.eval_count == size * (size + 1) // 2
    assert got == _matrix_witnesses(matrix_twin(prox), AXIOM_NAMES), prox
    if n <= REFERENCE_MAX_N:
        assert got == axiom_witnesses(rule_near(prox), n), prox
    for axiom in AXIOM_NAMES:
        alone = check_axioms(make(), axioms=[axiom])
        assert alone.verdicts == {axiom: report.verdicts[axiom]}, (prox, axiom)


def point_relation_makers():
    """Every point relation with n <= 4 on the discrete space and, when
    transitive, on its own partition space."""
    for n in (1, 2, 3, 4):
        discrete = GroundSpace.discrete(n)
        for rel in enumerate_point_relations(n):
            yield lambda rel=rel, s=discrete: point_generated_proximity(s, rel)
            partition = _partition_space_of(rel)
            if partition is not None:
                yield lambda rel=rel, s=partition: point_generated_proximity(s, rel)


def topology_makers():
    """Overlap, and Alexandroff with every principal ideal, on every
    labelled topology with n <= 3."""
    for n in (1, 2, 3):
        for opens in enumerate_topologies(n):
            space = GroundSpace.create(n, opens)
            yield lambda s=space: overlap_proximity(s)
            for top in space.closed:
                ideal = CompactnessIdeal.principal(space, top)
                yield lambda s=space, i=ideal: alexandroff_proximity(s, i)


def gap_makers():
    """Gap relations on line metrics with 2..6 points, at every epsilon."""
    for n in range(2, 7):
        space = GroundSpace.discrete(n)
        metric = Metric.line(n)
        for eps in (0,) + metric.distance_values():
            yield lambda s=space, m=metric, e=eps: gap_proximity(s, m, e)


FAMILIES = {
    "point-relations": point_relation_makers,
    "topologies": topology_makers,
    "gap": gap_makers,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kernel_matches_matrix_and_reference(family):
    for make in FAMILIES[family]():
        assert_kernel_matches(make)


@st.composite
def point_generated(draw):
    n = draw(st.integers(1, 7))
    pairs = _pair_order(n)
    edges = draw(st.integers(0, (1 << len(pairs)) - 1))
    rel = PointRelation.from_pairs(n, [p for k, p in enumerate(pairs) if edges >> k & 1])
    if n == 1 or draw(st.booleans()):
        space = GroundSpace.discrete(n)
    else:
        space = _random_topology(n, random.Random(draw(st.integers(0, 10**6))))
    return lambda: point_generated_proximity(space, rel)


@given(point_generated())
@settings(max_examples=60, deadline=None)
def test_random_point_relations_match(make):
    assert_kernel_matches(make)


def test_the_matrix_is_never_built():
    for make in [*point_relation_makers(), *topology_makers()]:
        prox = make()
        space = prox.space
        check_axioms(prox)
        for a in range(1, 1 << space.n):
            strongly_far(prox, a, space.full_mask ^ a or a)
        for a in space.opens:
            far_miss_set(prox, a)
            sf_miss_set(prox, a)
        check_sf_implies_hat(space, prox)
        check_far_vs_sf(prox)
        assert prox._rows is None, prox


def test_f1_the_strongly_far_witness_is_the_neighbourhood():
    """A is strongly far from B iff N(A) misses N(B), and the first
    witness C is then N(A); 14,811 nonempty pairs in all."""
    pairs = 0
    for n in (1, 2, 3, 4):
        space = GroundSpace.discrete(n)
        for rel in enumerate_point_relations(n):
            prox = point_generated_proximity(space, rel)
            near = rule_near(prox)
            nbhd = [0] * (1 << n)
            for a in range(1 << n):
                for i in range(n):
                    if a >> i & 1:
                        nbhd[a] |= rel.rows[i]
            for a in range(1, 1 << n):
                for b in range(1, 1 << n):
                    want = None if nbhd[a] & nbhd[b] else nbhd[a]
                    assert raw_strongly_far(near, n, a, b) == want, (rel, a, b)
                    result = strongly_far(prox, a, b)
                    assert result.witness == (None if want is None else (want,))
                    pairs += 1
    assert pairs == 14_811


def test_f3_compatible_lodato_models_are_partitions():
    """Across every labelled topology and point relation, the compatible
    Lodato pairs number 1, 2, 5, 15 (the Bell numbers) for n = 1..4, and
    each is an equivalence relation on its partition topology."""
    for n, bell in zip((1, 2, 3, 4), (1, 2, 5, 15)):
        relations = list(enumerate_point_relations(n))
        found = []
        for opens in enumerate_topologies(n):
            space = GroundSpace.create(n, opens)
            for rel in relations:
                prox = point_generated_proximity(space, rel)
                if check_axioms(prox).is_lodato and is_compatible(prox):
                    found.append((space, rel))
        assert len(found) == bell
        for space, rel in found:
            assert rel.is_transitive()
            assert space.opens == _partition_space_of(rel).opens
