"""Core space machinery: masks, topologies, closure and interior."""

import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from proxitop import (
    GroundSpace,
    InvalidTopologyError,
    Metric,
    PointRelation,
    PointSet,
    ToolkitError,
    all_masks,
    bits_of,
    build_topology,
    check_axioms,
    check_far_vs_sf,
    closed_sets,
    closure,
    hat_strongly_far,
    hit_set,
    interior,
    is_compatible,
    is_T1,
    miss_set,
    overlap_proximity,
    point_generated_proximity,
    regular_open_hull,
    strongly_far,
    table_proximity,
    validate_topology,
)
from proxitop.hyperspace import _compare_miss_halves
from proxitop.proximity import _alexandroff_rows
from proxitop.search import enumerate_topologies
from reference import (
    point_closure_hulls,
    scan_closure,
    smallest_open_superset,
    triangle_failure,
)
from strategies import space_strategy


def brute_closure(space, s):
    # independent route: intersect every closed superset
    out = space.full_mask
    for o in space.opens:
        c = space.complement(o)
        if s & ~c == 0:
            out &= c
    return out


class TestSubsetAlgebra:
    def test_identities_exhaustive_n4(self):
        space = GroundSpace.discrete(4)
        full = space.full_mask
        for a in all_masks(4):
            assert space.complement(space.complement(a)) == a
            for b in all_masks(4):
                assert space.complement(a | b) == space.complement(a) & space.complement(b)
                assert space.complement(a & b) == space.complement(a) | space.complement(b)
                assert a | b == b | a
                assert a & b == b & a
        assert space.complement(0) == full

    def test_bits_of(self):
        assert list(bits_of(0b1011)) == [0, 1, 3]
        assert list(bits_of(0)) == []


class TestPointSet:
    def test_labels_must_be_distinct(self):
        with pytest.raises(ToolkitError):
            PointSet(2, ("a", "a"))

    def test_label_count_must_match(self):
        with pytest.raises(ToolkitError):
            PointSet(3, ("a", "b"))

    def test_mask_roundtrip(self):
        ps = PointSet(3, ("a", "b", "c"))
        assert ps.mask_of(["a", "c"]) == 0b101
        assert ps.format(0b101) == "{a,c}"
        assert ps.names(0b110) == ["b", "c"]

    def test_cap(self):
        with pytest.raises(ToolkitError):
            PointSet(17)


class TestValidateTopology:
    def test_indiscrete_passes(self):
        report = validate_topology(GroundSpace(PointSet(3), (0, 0b111)))
        assert report.ok

    def test_missing_union_fails_with_witness(self):
        # {0} and {1} are open, their union is not
        space = GroundSpace(PointSet(3), (0, 0b001, 0b010, 0b111))
        report = validate_topology(space)
        assert not report.ok
        assert report.union_witness == (0b001, 0b010)

    def test_full_power_set_passes(self):
        assert validate_topology(GroundSpace.discrete(3)).ok

    def test_create_rejects_invalid(self):
        with pytest.raises(InvalidTopologyError):
            GroundSpace.create(3, [0, 0b001, 0b010, 0b111])

    def test_missing_empty_and_full(self):
        report = validate_topology(GroundSpace(PointSet(2), (0b01,)))
        assert not report.has_empty and not report.has_full


class TestClosureInterior:
    def test_closure_discrete_singleton(self):
        space = GroundSpace.discrete(3)
        assert closure(space, 0b001) == 0b001

    def test_closure_chain_space(self):
        # opens {0,{0},{0,1},X} on three points: cl {1} = {1,2}
        space = GroundSpace.create(3, [0, 0b001, 0b011, 0b111])
        assert closure(space, 0b010) == brute_closure(space, 0b010) == 0b110

    def test_closure_of_full(self):
        space = GroundSpace.create(3, [0, 0b001, 0b011, 0b111])
        assert closure(space, 0b111) == 0b111

    def test_interior_discrete(self):
        assert interior(GroundSpace.discrete(3), 0b001) == 0b001

    def test_interior_chain_space(self):
        space = GroundSpace.create(3, [0, 0b001, 0b011, 0b111])
        assert interior(space, 0b110) == 0

    def test_interior_of_empty(self):
        space = GroundSpace.create(3, [0, 0b001, 0b011, 0b111])
        assert interior(space, 0) == 0

    def test_closed_sets_examples(self):
        assert closed_sets(GroundSpace.discrete(2)) == (0b00, 0b01, 0b10, 0b11)
        assert closed_sets(GroundSpace.indiscrete(2)) == (0, 0b11)
        space = GroundSpace.create(3, [0, 0b001, 0b011, 0b111])
        assert closed_sets(space) == (0, 0b100, 0b110, 0b111)


def assert_closure_table_exact(space):
    full = space.full_mask
    for m in all_masks(space.n):
        cl = brute_closure(space, m)
        assert closure(space, m) == cl == scan_closure(space, m)
        assert interior(space, m) == full ^ brute_closure(space, full ^ m)
        assert regular_open_hull(space, m) == full ^ brute_closure(space, full ^ cl)


def assert_closure_table_exact_or_refused(space):
    """Exact on a topology; InvalidTopologyError on any other family."""
    if validate_topology(space).ok:
        assert_closure_table_exact(space)
        return True
    with pytest.raises(InvalidTopologyError):
        space.closures
    return False


class TestClosureTable:
    """The table against closed-superset scans on a topology; refused elsewhere."""

    def test_every_family_on_three_points(self):
        # all 256 families: 29 topologies, and 227 families that are not
        verdicts = []
        for family in range(1 << 8):
            opens = tuple(m for m in range(8) if family >> m & 1)
            verdicts.append(assert_closure_table_exact_or_refused(GroundSpace(PointSet(3), opens)))
        assert verdicts.count(True) == 29 and verdicts.count(False) == 227

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_families_up_to_seven_points(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        opens = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=24))
        assert_closure_table_exact_or_refused(GroundSpace(PointSet(n), tuple(opens)))


class TestFamilyThatIsNotATopology:
    # {a} and {b} are open but their union is not
    broken = GroundSpace(PointSet(3), (0, 0b001, 0b010, 0b111))

    def test_every_entry_point_raises(self):
        space = self.broken
        relation = point_generated_proximity(space, PointRelation.equality(3))
        table = table_proximity(space, [(0b001, 0b001)])
        calls = [
            lambda: closure(space, 0b001),
            lambda: interior(space, 0b011),
            lambda: regular_open_hull(space, 0b001),
            lambda: overlap_proximity(space).near(0b001, 0b010),
            lambda: is_compatible(relation),
            lambda: hat_strongly_far(space, 0b001, 0b100),
            lambda: build_topology(space, "vietoris"),
            lambda: build_topology(space, "far_miss", prox=relation),
            lambda: build_topology(space, "hit_and_miss", family=(0b110,)),
            lambda: build_topology(space, "far_miss", prox=table),
            lambda: hit_set(space, 0b001),
            lambda: miss_set(space, 0b001),
            lambda: check_axioms(table),
            lambda: strongly_far(table, 0b001, 0b010),
            lambda: check_far_vs_sf(table),
        ]
        for call in calls:
            with pytest.raises(InvalidTopologyError) as info:
                call()
            assert info.value.report == validate_topology(space)

    def test_basic_table_answers_pairs_and_nothing_else(self):
        # The table reads its point rows off its pairs and no closure, so
        # `near` and `far` answer; every layer that needs a topology refuses.
        space = self.broken
        near = [(a, b) for a in range(1, 8) for b in range(a, 8) if a & b]
        table = table_proximity(space, near)
        assert table._point_rows() == (0b001, 0b010, 0b100)
        assert table.near(0b011, 0b110) and table.far(0b001, 0b010)
        calls = [
            lambda: check_axioms(table),
            lambda: strongly_far(table, 0b001, 0b010),
            lambda: build_topology(space, "far_miss_only", prox=table),
            lambda: build_topology(space, "sf_miss", prox=table),
            lambda: _compare_miss_halves(table),
            lambda: check_far_vs_sf(table),
        ]
        for call in calls:
            with pytest.raises(InvalidTopologyError) as info:
                call()
            assert info.value.report == validate_topology(space)


def assert_point_tables_exact(space, masks):
    """The tables read off U_p against the scans, at `masks`."""
    assert space.topology_report.ok
    for m in masks:
        assert space.closures[m] == scan_closure(space, m)
        assert space._open_hulls[m] == smallest_open_superset(space, m)


def chain_space(n):
    """Opens {}, {0}, {0,1}, ..., X: U_p = {0..p}."""
    return GroundSpace.from_minimal_neighbourhoods([(2 << p) - 1 for p in range(n)])


def partition_space(n):
    """Blocks of three consecutive points, the last one shorter."""
    return GroundSpace.from_partition([range(i, min(i + 3, n)) for i in range(0, n, 3)])


def every_partition(n):
    """Every set partition of 0..n-1, as lists of blocks."""
    if n == 0:
        yield []
        return
    for blocks in every_partition(n - 1):
        for k in range(len(blocks)):
            yield blocks[:k] + [blocks[k] + [n - 1]] + blocks[k + 1:]
        yield blocks + [[n - 1]]


class TestPointClosureTables:
    """On a topology the tables come from the n minimal neighbourhoods U_p."""

    def test_every_labelled_topology_up_to_four_points(self):
        for n in range(1, 5):
            for opens in enumerate_topologies(n):
                assert_point_tables_exact(GroundSpace.create(n, opens), all_masks(n))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_topologies_up_to_seven_points(self, data):
        space = data.draw(space_strategy(max_n=7))
        assert_point_tables_exact(space, all_masks(space.n))

    @pytest.mark.parametrize("n", [12, 16])
    @pytest.mark.parametrize("build", [GroundSpace.discrete, chain_space, partition_space])
    def test_sampled_masks_of_large_spaces(self, build, n):
        space = build(n)
        full = space.full_mask
        masks = [0, full] + [1 << i for i in range(n)] + random.Random(n).sample(range(full), 8)
        assert_point_tables_exact(space, masks)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_constructors_equal_create_on_their_opens(self, n):
        spaces = [GroundSpace.discrete(n), GroundSpace.indiscrete(n)]
        spaces += [GroundSpace.from_partition(blocks) for blocks in every_partition(n)]
        for built in spaces:
            explicit = GroundSpace.create(n, built.opens)
            assert built.opens == explicit.opens
            assert built.topology_report == explicit.topology_report == validate_topology(built)
            assert built.closures == explicit.closures
            assert built._open_hulls == explicit._open_hulls

    def test_point_closure_hulls_match_the_loop(self):
        """The cached U(cl{i}) equal the O(n^2) loop over the U_p and the
        hull of each point closure, on every labelled topology with n <= 4;
        reading them changes neither equality nor hashing."""
        for n in range(1, 5):
            for opens in enumerate_topologies(n):
                space = GroundSpace.create(n, opens)
                fresh = GroundSpace.create(n, opens)
                rows = space._point_closure_hulls
                assert rows == point_closure_hulls(space), opens
                assert rows == tuple(space._open_hulls[closure(space, 1 << i)] for i in range(n))
                assert space._point_closure_hulls is rows
                assert space == fresh and hash(space) == hash(fresh)
        assert [f.name for f in fields(GroundSpace)] == ["points", "opens"]

    def test_point_closure_hulls_refuse_a_non_topology_on_every_read(self):
        space = TestFamilyThatIsNotATopology.broken
        for read in [lambda: space._point_closure_hulls, lambda: _alexandroff_rows(space, 0)] * 2:
            with pytest.raises(InvalidTopologyError) as info:
                read()
            assert info.value.report == validate_topology(space)
        assert "_point_closure_hulls" not in vars(space)

    def test_preorder_constructor_refuses_a_non_preorder(self):
        with pytest.raises(ToolkitError, match="must hold it"):
            GroundSpace.from_minimal_neighbourhoods([0b01, 0b01])
        with pytest.raises(ToolkitError, match="must hold that of point 1"):
            GroundSpace.from_minimal_neighbourhoods([0b011, 0b110, 0b100])
        with pytest.raises(ToolkitError, match="beyond point count"):
            GroundSpace.from_minimal_neighbourhoods([0b101, 0b010])


class TestKuratowskiProperties:
    @settings(max_examples=60, deadline=None)
    @given(space=space_strategy())
    def test_closure_axioms(self, space):
        assert closure(space, 0) == 0
        for a in all_masks(space.n):
            ca = closure(space, a)
            assert a & ~ca == 0
            assert closure(space, ca) == ca
        for a in all_masks(space.n):
            for b in all_masks(space.n):
                assert closure(space, a | b) == closure(space, a) | closure(space, b)

    @settings(max_examples=60, deadline=None)
    @given(space=space_strategy())
    def test_interior_duality(self, space):
        for a in all_masks(space.n):
            assert interior(space, a) == space.complement(closure(space, space.complement(a)))

    @settings(max_examples=60, deadline=None)
    @given(space=space_strategy())
    def test_t1_iff_singletons_closed(self, space):
        expected = all(closure(space, 1 << i) == 1 << i for i in range(space.n))
        assert is_T1(space) == expected


class TestT1:
    def test_discrete_true(self):
        assert is_T1(GroundSpace.discrete(3))

    def test_indiscrete_false(self):
        assert not is_T1(GroundSpace.indiscrete(2))

    def test_sierpinski_like_false(self):
        space = GroundSpace.create(2, [0, 0b01, 0b11])
        assert not is_T1(space)


class TestPartitionSpaces:
    def test_partition_opens(self):
        space = GroundSpace.from_partition([[0, 1], [2]])
        assert space.opens == (0, 0b011, 0b100, 0b111)
        assert not is_T1(space)

    def test_partition_must_cover(self):
        with pytest.raises(ToolkitError):
            GroundSpace.from_partition([[0], [2]])

    def test_partition_must_be_disjoint(self):
        with pytest.raises(ToolkitError):
            GroundSpace.from_partition([[0, 1], [1, 2]])


class TestMetric:
    def test_line(self):
        m = Metric.line(4)
        assert m.rows[0] == (0, 1, 2, 3) and m.rows[2] == (2, 1, 0, 1)
        assert m.distance_values() == (1, 2, 3)

    def test_symmetry_enforced(self):
        with pytest.raises(ToolkitError):
            Metric.from_rows([[0, 1], [2, 0]])

    def test_triangle_enforced_unless_semimetric(self):
        rows = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        with pytest.raises(ToolkitError):
            Metric.from_rows(rows)
        assert Metric.from_rows(rows, semimetric=True).rows[0][2] == 5

    def test_zero_diagonal_and_positivity(self):
        with pytest.raises(ToolkitError):
            Metric.from_rows([[0, 0], [0, 0]])
        with pytest.raises(ToolkitError):
            Metric.from_rows([[1, 1], [1, 0]])

    def test_triangle_failure_names_the_first_triple(self):
        rows = [[0, "1/2", "3/2"], ["1/2", 0, "1/3"], ["3/2", "1/3", 0]]
        with pytest.raises(ToolkitError, match=r"fails at \(0,2,1\);"):
            Metric.from_rows(rows)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_triangle_check_matches_the_rational_loop(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        entry = st.fractions(min_value=1, max_value=6, max_denominator=6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = data.draw(entry)
        rows = [[Fraction(d) for d in row] for row in rows]
        expected = triangle_failure(rows)
        if expected is None:
            Metric(tuple(map(tuple, rows)))
        else:
            with pytest.raises(ToolkitError, match=r"fails at \(%d,%d,%d\);" % expected):
                Metric(tuple(map(tuple, rows)))

    def test_exact_fractions(self):
        m = Metric.from_rows([[0, "1/2"], ["1/2", 0]])
        from fractions import Fraction

        assert m.rows[0][1] == Fraction(1, 2)
