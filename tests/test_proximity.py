"""Proximity constructors, axiom checking, induced closure, compatibility."""

import pytest
from hypothesis import given, settings, strategies as st

from proxitop import (
    CapExceededError,
    CompactnessIdeal,
    GroundSpace,
    InvalidTopologyError,
    Metric,
    PointRelation,
    PointSet,
    ToolkitError,
    all_masks,
    bits_of,
    alexandroff_proximity,
    check_axioms,
    closure,
    gap_proximity,
    induced_closure,
    is_compatible,
    kuratowski_violations,
    overlap_proximity,
    point_generated_proximity,
    table_proximity,
)
from proxitop.proximity import CompatibilityResult
from proxitop.search import enumerate_point_relations, enumerate_topologies
from reference import incompatibility_witness


@pytest.fixture
def discrete3():
    return GroundSpace.discrete(3)


class TestOverlap:
    def test_discrete_is_ef_separated_compatible(self, discrete3):
        prox = overlap_proximity(discrete3)
        report = check_axioms(prox)
        assert report.classification == "ef"
        assert report.separated
        assert all(report.passed(p) for p in ("P0", "P1", "P2", "P3", "P4", "P5", "EF"))
        assert is_compatible(prox).compatible

    def test_self_nearness_and_empty(self, discrete3):
        prox = overlap_proximity(discrete3)
        for a in all_masks(3):
            if a:
                assert prox.near(a, a)
            assert prox.far(0, a)

    def test_not_compatible_on_asymmetric_specialization(self):
        # Five-point space (points a,b,c,x,y at bits 0..4) whose point
        # closures are cl a = {a,x}, cl b = {b,x,y}, cl c = {c,y}: the
        # closures of {a} and {b} meet in x, so overlap makes them near,
        # but a never lands in cl {b}; the induced closure overshoots.
        closed_gens = [0b01001, 0b11010, 0b10100, 0b01000, 0b10000]
        family = {0, 0b11111} | set(closed_gens)
        changed = True
        while changed:
            changed = False
            for p in list(family):
                for q in list(family):
                    for m in (p | q, p & q):
                        if m not in family:
                            family.add(m)
                            changed = True
        space = GroundSpace.create(5, [0b11111 ^ c for c in family])
        assert closure(space, 0b00001) == 0b01001
        assert closure(space, 0b00010) == 0b11010
        prox = overlap_proximity(space)
        assert prox.near(0b00001, 0b00010)  # closures share x
        result = is_compatible(prox)
        assert not result.compatible

    def test_compatible_on_every_partition_space(self):
        for blocks in ([[0, 1], [2]], [[0], [1], [2]], [[0, 1, 2]]):
            space = GroundSpace.from_partition(blocks)
            assert is_compatible(overlap_proximity(space)).compatible


class TestGap:
    def test_line_eps1_p4_witness(self):
        space = GroundSpace.discrete(4)
        prox = gap_proximity(space, Metric.line(4), 1)
        report = check_axioms(prox)
        assert report.classification == "basic"
        assert report.verdicts["P4"].witness == (0b0001, 0b0010, 0b0100)

    def test_eps0_matches_overlap_on_discrete(self):
        space = GroundSpace.discrete(4)
        gap = gap_proximity(space, Metric.line(4), 0)
        ovl = overlap_proximity(space)
        for a in all_masks(4):
            for b in all_masks(4):
                assert gap.near(a, b) == ovl.near(a, b)

    def test_endpoints_on_line10(self):
        space = GroundSpace.discrete(10)
        prox = gap_proximity(space, Metric.line(10), 1)
        assert prox.far(1 << 0, 1 << 9)
        assert prox.near(1 << 0, 1 << 1)

    def test_induced_closure_line4(self):
        space = GroundSpace.discrete(4)
        prox = gap_proximity(space, Metric.line(4), 1)
        assert induced_closure(prox, 0b0010) == 0b0111

    def test_exact_rational_threshold(self):
        space = GroundSpace.discrete(2)
        metric = Metric.from_rows([[0, "1/3"], ["1/3", 0]])
        assert gap_proximity(space, metric, "1/3").near(0b01, 0b10)
        assert gap_proximity(space, metric, "1/4").far(0b01, 0b10)


class TestAlexandroff:
    def test_full_ideal_is_overlap(self, discrete3):
        ideal = CompactnessIdeal.all_closed(discrete3)
        alex = alexandroff_proximity(discrete3, ideal)
        ovl = overlap_proximity(discrete3)
        for a in all_masks(3):
            for b in all_masks(3):
                assert alex.near(a, b) == ovl.near(a, b)

    def test_nontrivial_ideal_example(self):
        space = GroundSpace.discrete(4)
        ideal = CompactnessIdeal.principal(space, 0b0011)
        prox = alexandroff_proximity(space, ideal)
        assert prox.near(0b0100, 0b1000)  # both outside the ideal
        assert prox.far(0b0001, 0b0010)  # disjoint, both inside

    def test_always_basic(self):
        # union closure and downward closure of the ideal keep additivity
        space = GroundSpace.create(3, [0, 0b001, 0b011, 0b111])
        for top in space.closed:
            prox = alexandroff_proximity(space, CompactnessIdeal.principal(space, top))
            report = check_axioms(prox)
            assert report.is_basic


class TestCompactnessIdeal:
    def test_principal_members(self, discrete3):
        ideal = CompactnessIdeal.principal(discrete3, 0b011)
        assert ideal.sorted_members() == (0, 0b001, 0b010, 0b011)
        assert 0b001 in ideal and 0b100 not in ideal

    def test_rejects_non_closed_member(self):
        space = GroundSpace.create(3, [0, 0b001, 0b011, 0b111])
        with pytest.raises(ToolkitError):
            CompactnessIdeal(space, frozenset([0, 0b001]))  # {0} is not closed here

    def test_rejects_missing_empty(self, discrete3):
        with pytest.raises(ToolkitError):
            CompactnessIdeal(discrete3, frozenset([0b001]))

    def test_rejects_not_downward_closed(self, discrete3):
        with pytest.raises(ToolkitError):
            CompactnessIdeal(discrete3, frozenset([0, 0b011]))

    def test_rejects_not_union_closed(self, discrete3):
        with pytest.raises(ToolkitError):
            CompactnessIdeal(discrete3, frozenset([0, 0b001, 0b010]))


class TestPointGenerated:
    def test_equality_matches_overlap_on_discrete(self, discrete3):
        prox = point_generated_proximity(discrete3, PointRelation.equality(3))
        ovl = overlap_proximity(discrete3)
        for a in all_masks(3):
            for b in all_masks(3):
                assert prox.near(a, b) == ovl.near(a, b)

    def test_single_extra_pair(self, discrete3):
        rel = PointRelation.from_pairs(3, [(0, 1)])
        prox = point_generated_proximity(discrete3, rel)
        assert prox.near(0b001, 0b010)
        assert prox.far(0b001, 0b100)

    def test_always_basic_at_n3(self, discrete3):
        for rel in enumerate_point_relations(3):
            report = check_axioms(point_generated_proximity(discrete3, rel))
            assert report.is_basic

    def test_lodato_iff_transitive_n_le_4(self):
        for n in (2, 3, 4):
            space = GroundSpace.discrete(n)
            for rel in enumerate_point_relations(n):
                report = check_axioms(point_generated_proximity(space, rel))
                assert report.is_lodato == rel.is_transitive()

    def test_relation_validation(self):
        with pytest.raises(ToolkitError):
            PointRelation((0b01, 0b01))  # not reflexive at 1
        with pytest.raises(ToolkitError):
            PointRelation((0b11, 0b10))  # not symmetric


def everything_near(space):
    """The relation generated by the complete point relation: every two
    nonempty sets are near."""
    return point_generated_proximity(space, PointRelation((space.full_mask,) * space.n))


class TestTableAndConstant:
    def test_constant_relation_report(self, discrete3):
        report = check_axioms(everything_near(discrete3))
        for p in ("P0", "P1", "P2", "P3", "P4"):
            assert report.passed(p)
        assert not report.passed("P5")
        # empty-set bookkeeping makes the separating-set axiom vacuous,
        # so the everything-near relation lands in the ef class
        assert report.classification == "ef"
        assert report.p4_alongside_ef is True

    def test_table_lists_only_near_pairs(self):
        space = GroundSpace.discrete(2)
        prox = table_proximity(space, [(0b01, 0b10)])
        assert prox.near(0b01, 0b10)
        assert prox.near(0b10, 0b01)
        assert prox.far(0b01, 0b01)

    def test_table_can_violate_p1(self):
        space = GroundSpace.discrete(2)
        prox = table_proximity(space, [(0, 0b01)])
        report = check_axioms(prox)
        assert not report.passed("P1")
        assert report.verdicts["P1"].witness == (0, 0b01)


class TestInducedClosureAndCompatibility:
    def test_overlap_induced_closure_is_closure(self, discrete3):
        prox = overlap_proximity(discrete3)
        assert induced_closure(prox, 0b010) == 0b010

    def test_p1_gives_empty_closure(self, discrete3):
        assert induced_closure(overlap_proximity(discrete3), 0) == 0

    def test_constant_not_compatible(self):
        space = GroundSpace.discrete(2)
        result = is_compatible(everything_near(space))
        assert not result.compatible
        assert result.witness == 0b01
        assert induced_closure(everything_near(space), 0b01) == 0b11

    def test_one_point_space_always_compatible(self):
        space = GroundSpace.discrete(1)
        assert is_compatible(everything_near(space)).compatible

    def test_lodato_compatible_induced_closure_is_kuratowski(self):
        space = GroundSpace.from_partition([[0, 1], [2]])
        rel = PointRelation.from_pairs(3, [(0, 1)])
        prox = point_generated_proximity(space, rel)
        report = check_axioms(prox)
        assert report.is_lodato and is_compatible(prox).compatible
        assert kuratowski_violations(3, lambda a: induced_closure(prox, a)) == []


def compatibility_sweep():
    """Every labelled topology with n <= 4, with every point relation,
    overlap and every principal Alexandroff relation on it."""
    for n in range(1, 5):
        relations = list(enumerate_point_relations(n))
        for opens in enumerate_topologies(n):
            space = GroundSpace.create(n, opens)
            for rel in relations:
                yield point_generated_proximity(space, rel)
            yield overlap_proximity(space)
            for top in space.closed:
                yield alexandroff_proximity(space, CompactnessIdeal.principal(space, top))


class TestCompatibilityFromPointRows:
    def test_matches_the_mask_loop_on_every_small_topology(self):
        count = 0
        for prox in compatibility_sweep():
            witness = incompatibility_witness(prox)
            assert is_compatible(prox) == CompatibilityResult(witness is None, witness)
            count += 1
        assert count == 25_832

    def test_table_keeps_the_mask_loop(self):
        # Reflexive and symmetric on points, yet {0,1} is near {2} while
        # neither point is: the first difference is at a two-point mask.
        space = GroundSpace.discrete(3)
        pairs = [(m, m) for m in range(1, 8)] + [(0b011, 0b100)]
        prox = table_proximity(space, pairs)
        assert is_compatible(prox) == CompatibilityResult(False, 0b011)
        assert incompatibility_witness(prox) == 0b011


class TestKuratowskiChecker:
    def test_flags_broken_operator(self):
        # "closure" that forgets to be extensive
        violations = kuratowski_violations(2, lambda a: 0)
        assert any(kind == "extensive" for kind, _ in violations)

    def test_accepts_topological_closure(self):
        space = GroundSpace.create(3, [0, 0b001, 0b011, 0b111])
        assert kuratowski_violations(3, lambda a: closure(space, a)) == []


class TestEFBetweennessEquivalence:
    def test_all_point_relations_n3(self, discrete3):
        for rel in enumerate_point_relations(3):
            report = check_axioms(point_generated_proximity(discrete3, rel))
            assert report.passed("EF") == report.passed("EF-betweenness")

    def test_gap_models(self):
        space = GroundSpace.discrete(4)
        for eps in (0, 1, 2, 3):
            report = check_axioms(gap_proximity(space, Metric.line(4), eps))
            assert report.passed("EF") == report.passed("EF-betweenness")


class TestCaps:
    def test_cap_exceeded(self):
        # a table has no neighbourhood table, so it needs the dense matrix
        space = GroundSpace.discrete(4)
        with pytest.raises(CapExceededError):
            check_axioms(table_proximity(space, [(1, 1)]), cap=3)

    def test_cap_bounds_only_the_matrix(self):
        report = check_axioms(overlap_proximity(GroundSpace.discrete(12)), cap=3)
        assert report.exhaustive
        assert report.classification == "ef"


@st.composite
def point_relation_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    chosen = [pairs[k] for k in range(len(pairs)) if edges >> k & 1]
    return PointRelation.from_pairs(n, chosen)


class TestConstructorInvariants:
    @settings(max_examples=50, deadline=None)
    @given(rel=point_relation_strategy())
    def test_point_generated_p0_p1(self, rel):
        space = GroundSpace.discrete(rel.n)
        prox = point_generated_proximity(space, rel)
        report = check_axioms(prox)
        assert report.passed("P0") and report.passed("P1")
        assert report.is_basic

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=4),
        eps=st.integers(min_value=0, max_value=4),
    )
    def test_gap_p0_p1(self, n, eps):
        space = GroundSpace.discrete(n)
        report = check_axioms(gap_proximity(space, Metric.line(n), eps))
        assert report.passed("P0") and report.passed("P1")


class TestPointRowsOnANonTopology:
    # {0} and {1} are open but their union is not
    @pytest.mark.parametrize(
        "build",
        [overlap_proximity, lambda s: alexandroff_proximity(s, CompactnessIdeal.all_closed(s))],
        ids=["overlap", "alexandroff"],
    )
    def test_every_call_raises(self, build):
        prox = build(GroundSpace(PointSet(3), (0, 0b001, 0b010, 0b111)))
        for _ in range(2):
            with pytest.raises(InvalidTopologyError, match="not a topology"):
                prox._point_rows()


class TestFiniteCollapse:
    """On a finite set: basic <=> point-generated by a reflexive relation,
    Lodato <=> that relation is transitive, and transitive => EF."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_point_relation(self, n):
        space = GroundSpace.discrete(n)
        for rel in enumerate_point_relations(n):
            report = check_axioms(point_generated_proximity(space, rel))
            assert report.is_basic, rel
            assert report.is_lodato == rel.is_transitive(), rel
            assert report.is_ef == rel.is_transitive(), rel

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_table(self, n):
        space = GroundSpace.discrete(n)
        masks = list(all_masks(n))
        pairs = [(a, b) for a in masks for b in masks if a <= b]
        basic = 0
        for table_id in range(1 << len(pairs)):
            chosen = {pairs[k] for k in range(len(pairs)) if table_id >> k & 1}
            report = check_axioms(table_proximity(space, chosen))
            near = lambda a, b: (min(a, b), max(a, b)) in chosen  # noqa: E731
            rows = [sum(1 << j for j in range(n) if near(1 << i, 1 << j)) for i in range(n)]
            point_generated = all(rows[i] >> i & 1 for i in range(n)) and all(
                near(a, b) == any(rows[i] & b for i in bits_of(a)) for a, b in pairs
            )
            assert report.is_basic == point_generated, chosen
            if point_generated:
                basic += 1
                transitive = PointRelation(tuple(rows)).is_transitive()
                assert report.is_lodato == transitive, chosen
                assert report.is_ef == transitive, chosen
        # one basic table per reflexive symmetric point relation
        assert basic == len(list(enumerate_point_relations(n)))
