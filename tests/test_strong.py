"""Strong inclusion, strongly-far, hat-strongly-far and the sweeps over them."""

import pytest

from proxitop import (
    CapExceededError,
    CompactnessIdeal,
    GroundSpace,
    InvalidModelError,
    Metric,
    PointRelation,
    all_masks,
    alexandroff_proximity,
    check_axioms,
    check_far_vs_sf,
    check_inclusion_containment,
    check_sf_implies_hat,
    derived_near_from_sf,
    far_miss_set,
    gap_proximity,
    hat_strongly_far,
    overlap_proximity,
    point_generated_proximity,
    strongly_far,
    strongly_included,
    table_proximity,
)
from proxitop.strong import replay_hat_strongly_far, replay_strongly_far
from corpus import table_models


@pytest.fixture
def discrete2():
    return GroundSpace.discrete(2)


@pytest.fixture
def discrete3():
    return GroundSpace.discrete(3)


class TestStronglyIncluded:
    def test_whole_space_strongly_includes_everything(self, discrete3):
        prox = overlap_proximity(discrete3)
        for a in all_masks(3):
            if a:
                assert strongly_included(prox, a, 0b111)

    def test_discrete_examples(self, discrete3):
        prox = overlap_proximity(discrete3)
        assert strongly_included(prox, 0b001, 0b011)

    def test_self_inclusion_two_points(self, discrete2):
        prox = overlap_proximity(discrete2)
        assert strongly_included(prox, 0b01, 0b01)


class TestStronglyFar:
    def test_discrete_two_points(self, discrete2):
        prox = overlap_proximity(discrete2)
        result = strongly_far(prox, 0b01, 0b10)
        assert result.holds
        assert result.witness == (0b01,)
        assert replay_strongly_far(prox, 0b01, 0b10, 0b01)

    def test_near_pairs_never_strongly_far(self, discrete3):
        prox = overlap_proximity(discrete3)
        for a in all_masks(3):
            for b in all_masks(3):
                if a and b and prox.near(a, b):
                    assert not strongly_far(prox, a, b).holds

    def test_line10_endpoints(self):
        space = GroundSpace.discrete(10)
        prox = gap_proximity(space, Metric.line(10), 1)
        result = strongly_far(prox, 1 << 0, 1 << 9)
        assert result.holds
        assert result.witness == (0b11,)  # {0,1}
        assert replay_strongly_far(prox, 1 << 0, 1 << 9, 0b11)

    def test_empty_inputs_degenerate(self, discrete2):
        prox = overlap_proximity(discrete2)
        assert strongly_far(prox, 0, 0b01).degenerate
        assert strongly_far(prox, 0b01, 0).degenerate

    def test_implies_far_everywhere(self, discrete3):
        prox = gap_proximity(GroundSpace.discrete(3), Metric.line(3), 1)
        for a in all_masks(3):
            for b in all_masks(3):
                if a and b and strongly_far(prox, a, b).holds:
                    assert prox.far(a, b)

    def test_symmetry_under_p0(self):
        space = GroundSpace.discrete(4)
        rel = PointRelation.from_pairs(4, [(0, 1), (2, 3)])
        prox = point_generated_proximity(space, rel)
        for a in all_masks(4):
            for b in all_masks(4):
                if a and b:
                    assert strongly_far(prox, a, b).holds == strongly_far(prox, b, a).holds

    def test_witness_replays(self):
        space = GroundSpace.discrete(4)
        prox = alexandroff_proximity(space, CompactnessIdeal.principal(space, 0b0011))
        for a in all_masks(4):
            for b in all_masks(4):
                if not (a and b):
                    continue
                result = strongly_far(prox, a, b)
                if result.holds:
                    assert replay_strongly_far(prox, a, b, result.witness[0])


class TestHatStronglyFar:
    def test_discrete_singletons(self, discrete3):
        result = hat_strongly_far(discrete3, 0b001, 0b100)
        assert result.holds
        assert result.witness == (0b001, 0b100)
        assert replay_hat_strongly_far(discrete3, 0b001, 0b100, 0b001, 0b100)

    def test_indiscrete_never_separates(self):
        space = GroundSpace.indiscrete(2)
        assert not hat_strongly_far(space, 0b01, 0b10).holds

    def test_equal_nonempty_never_holds(self, discrete3):
        for a in all_masks(3):
            if a:
                assert not hat_strongly_far(discrete3, a, a).holds

    def test_empty_degenerate(self, discrete3):
        assert hat_strongly_far(discrete3, 0, 0b1).degenerate

    def test_equivalent_to_disjoint_open_separation(self):
        # hat-separation by regular-open hulls is the same as plain
        # separation by disjoint open sets
        spaces = [
            GroundSpace.discrete(3),
            GroundSpace.indiscrete(3),
            GroundSpace.create(3, [0, 0b001, 0b011, 0b111]),
            GroundSpace.from_partition([[0, 1], [2]]),
        ]
        for space in spaces:
            for a in all_masks(3):
                for b in all_masks(3):
                    if not (a and b):
                        continue
                    separated = any(
                        a & ~u == 0 and b & ~v == 0 and u & v == 0
                        for u in space.opens
                        for v in space.opens
                    )
                    assert hat_strongly_far(space, a, b).holds == separated


class TestDerivedRelation:
    def test_overlap_discrete_derived_is_basic(self, discrete3):
        base = overlap_proximity(discrete3)
        derived = derived_near_from_sf(base)
        report = check_axioms(derived, axioms=("P0", "P1", "P2", "P3"))
        assert all(report.passed(p) for p in ("P0", "P1", "P2", "P3"))

    def test_intersecting_pairs_near(self, discrete3):
        derived = derived_near_from_sf(overlap_proximity(discrete3))
        for a in all_masks(3):
            for b in all_masks(3):
                if a & b:
                    assert derived.near(a, b)

    def test_alexandroff_derived_is_basic(self):
        space = GroundSpace.discrete(4)
        base = alexandroff_proximity(space, CompactnessIdeal.principal(space, 0b0011))
        derived = derived_near_from_sf(base)
        report = check_axioms(derived, axioms=("P0", "P1", "P2", "P3"))
        assert all(report.passed(p) for p in ("P0", "P1", "P2", "P3"))


    def test_base_without_point_rows_is_named(self):
        # the table is not basic, yet the relation derived from it is
        base = dict(table_models(2))["n2/table/62"].proximity
        derived = derived_near_from_sf(base)
        assert not check_axioms(base).is_basic and check_axioms(derived).is_basic
        for operation, call in (
            ("check_far_vs_sf", lambda: check_far_vs_sf(derived)),
            ("far_miss_set", lambda: far_miss_set(derived, 0b01)),
        ):
            with pytest.raises(InvalidModelError) as exc:
                call()
            assert str(exc.value) == (
                f"proximity: {operation} needs point rows; this derived-sf relation has "
                "none because its table base is not a basic proximity (P0-P3)"
            )

    def test_dense_matrix_past_the_cap_is_refused(self):
        """On a base with no point rows the derived relation settles on a
        4^n-bit matrix, which is refused above the exhaustive cap."""
        derived = derived_near_from_sf(table_proximity(GroundSpace.discrete(11), []))
        with pytest.raises(CapExceededError) as info:
            derived.near(1, 2)
        assert str(info.value) == "derived_near_from_sf: size 11 exceeds cap 10"
        assert derived.eval_count == 0


class TestSfImpliesHat:
    def test_overlap_discrete_no_violations(self, discrete3):
        report = check_sf_implies_hat(discrete3, overlap_proximity(discrete3))
        assert report.applicable
        assert report.pairs_checked == 49
        assert report.violations == ()

    def test_incompatible_overlap_is_skipped(self):
        # chain space: overlap is Lodato here but not compatible, and the
        # sweep's contract declines to run
        space = GroundSpace.create(3, [0, 0b001, 0b011, 0b111])
        prox = overlap_proximity(space)
        report = check_sf_implies_hat(space, prox)
        assert not report.applicable
        assert "not compatible" in report.reason
        # sanity: with every pair near, the implication is vacuously true
        assert all(
            prox.near(a, b)
            for a in all_masks(3)
            for b in all_masks(3)
            if a and b
        )

    def test_non_lodato_gap_is_skipped(self):
        space = GroundSpace.discrete(4)
        prox = gap_proximity(space, Metric.line(4), 1)
        report = check_sf_implies_hat(space, prox)
        assert not report.applicable
        assert "not lodato" in report.reason

    def test_partition_models_no_violations(self):
        space = GroundSpace.from_partition([[0, 1], [2], [3]])
        rel = PointRelation.from_pairs(4, [(0, 1)])
        report = check_sf_implies_hat(space, point_generated_proximity(space, rel))
        assert report.applicable
        assert report.violations == ()


class TestFarVsSf:
    def test_ef_collapse_on_overlap(self, discrete3):
        report = check_far_vs_sf(overlap_proximity(discrete3))
        assert report.far_not_strongly_far == 0
        assert report.collapse

    def test_alexandroff_partition_counts(self):
        # independently recount both classes with raw loops
        space = GroundSpace.discrete(4)
        prox = alexandroff_proximity(space, CompactnessIdeal.principal(space, 0b0011))
        report = check_far_vs_sf(prox)
        both = far_only = 0
        for a in all_masks(4):
            for b in all_masks(4):
                if not (a and b) or prox.near(a, b):
                    continue
                if strongly_far(prox, a, b).holds:
                    both += 1
                else:
                    far_only += 1
        assert (report.far_and_strongly_far, report.far_not_strongly_far) == (both, far_only)

    def test_intersecting_pairs_excluded(self, discrete3):
        report = check_far_vs_sf(overlap_proximity(discrete3))
        total = report.far_and_strongly_far + report.far_not_strongly_far
        far_pairs = sum(
            1
            for a in all_masks(3)
            for b in all_masks(3)
            if a and b and not (a & b)
            and overlap_proximity(discrete3).far(a, b)
        )
        assert total == far_pairs

    def test_examples_capped(self):
        space = GroundSpace.discrete(4)
        prox = gap_proximity(space, Metric.line(4), 0)
        report = check_far_vs_sf(prox, examples_cap=2)
        assert len(report.examples_strongly_far) <= 2


class TestPathRelationRegime:
    """A non-transitive point relation: far pairs need not be strongly far."""

    def test_far_pair_without_witness(self, discrete3):
        rel = PointRelation.from_pairs(3, [(0, 1), (1, 2)])
        prox = point_generated_proximity(discrete3, rel)
        assert prox.far(0b001, 0b100)
        assert not strongly_far(prox, 0b001, 0b100).holds
        report = check_far_vs_sf(prox)
        assert report.far_not_strongly_far > 0


def _path_proximity(n):
    return point_generated_proximity(
        GroundSpace.discrete(n), PointRelation.from_pairs(n, [(i, i + 1) for i in range(n - 1)])
    )


class TestSweepCaps:
    """The sweeps over every strongly-far pair or pair of opens keep their
    cap on a neighbourhood table too: the work, not a table, is what
    grows. `check_far_vs_sf` counts by a sum over N and has no cap."""

    @pytest.mark.parametrize(
        "name, sweep",
        [
            ("check_sf_implies_hat", check_sf_implies_hat),
            ("check_inclusion_containment", check_inclusion_containment),
        ],
    )
    def test_eleven_points_exceed_the_cap(self, name, sweep):
        prox = _path_proximity(11)
        assert prox._neighbourhoods() is not None
        with pytest.raises(CapExceededError) as info:
            sweep(prox.space, prox)
        assert str(info.value) == f"{name}: size 11 exceeds cap 10"

    @pytest.mark.parametrize("n", [11, 12])
    def test_far_vs_sf_counts_past_the_cap(self, n):
        """A nonempty a is far from the nonempty masks missing N(a), and
        strongly far from those missing N(N(a)) (F9); the examples are the
        first far pairs in ascending order, strongly far iff N(a) misses
        N(b) (F1)."""
        prox = _path_proximity(n)
        rows = prox._point_rows()

        def nbhd(m):
            out = 0
            for i in range(n):
                if m >> i & 1:
                    out |= rows[i]
            return out

        def missing(m):
            return (1 << n - bin(m).count("1")) - 1

        far = sum(missing(nbhd(a)) for a in range(1, 1 << n))
        strong = sum(missing(nbhd(nbhd(a))) for a in range(1, 1 << n))
        examples = {True: [], False: []}
        for a in range(1, 4):
            for b in range(1, 1 << n):
                if not nbhd(a) & b:
                    examples[not nbhd(a) & nbhd(b)].append((a, b))
        report = check_far_vs_sf(prox)
        assert (report.far_and_strongly_far, report.far_not_strongly_far) == (strong, far - strong)
        assert report.examples_strongly_far == tuple(examples[True][:5])
        assert report.examples_not_strongly_far == tuple(examples[False][:5])
