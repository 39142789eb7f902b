"""CL(X) enumeration, subbase families, topology bases and comparison."""

import functools
import operator
import tracemalloc
from pathlib import Path

import pytest

from proxitop import (
    CapExceededError,
    CompactnessIdeal,
    GroundSpace,
    HyperspaceMismatchError,
    InvalidModelError,
    Metric,
    NotOpenError,
    PointRelation,
    alexandroff_proximity,
    build_topology,
    check_axioms,
    check_inclusion_containment,
    compare,
    enumerate_cl,
    far_miss_set,
    gap_proximity,
    hit_set,
    miss_set,
    overlap_proximity,
    point_generated_proximity,
    refines,
    sf_miss_set,
    table_proximity,
)
from proxitop.hyperspace import MISS_ONLY_KINDS, TOPOLOGY_KINDS, HyperTopologyBase
from proxitop.modelfile import parse_file
from proxitop.search import enumerate_topologies
from corpus import table_models
from reference import (
    base_refines,
    close_under_intersection,
    far_miss_mask,
    hit_mask,
    miss_mask,
    rule_near,
    subbase_neighbourhoods,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


def family_members(space, fam):
    cl = enumerate_cl(space)
    return {cl[i] for i in range(len(cl)) if fam >> i & 1}


@pytest.fixture
def discrete2():
    return GroundSpace.discrete(2)


@pytest.fixture
def discrete3():
    return GroundSpace.discrete(3)


class TestEnumerateCL:
    def test_discrete2(self, discrete2):
        assert enumerate_cl(discrete2) == (0b01, 0b10, 0b11)

    def test_discrete4_count(self):
        assert len(enumerate_cl(GroundSpace.discrete(4))) == 15

    def test_indiscrete2(self):
        assert enumerate_cl(GroundSpace.indiscrete(2)) == (0b11,)

    def test_enumerated_once_per_space(self):
        space = GroundSpace.discrete(3)
        assert enumerate_cl(space) is enumerate_cl(space)
        with pytest.raises(CapExceededError):
            enumerate_cl(space, cap=6)


class TestHitMiss:
    def test_hit_examples(self, discrete2):
        assert family_members(discrete2, hit_set(discrete2, 0b01)) == {0b01, 0b11}
        assert hit_set(discrete2, 0) == 0
        assert family_members(discrete2, hit_set(discrete2, 0b11)) == {0b01, 0b10, 0b11}

    def test_miss_examples(self, discrete2):
        assert family_members(discrete2, miss_set(discrete2, 0b01)) == {0b01}
        assert family_members(discrete2, miss_set(discrete2, 0b11)) == {0b01, 0b10, 0b11}
        assert miss_set(GroundSpace.indiscrete(2), 0) == 0

    def test_requires_open(self):
        space = GroundSpace.create(3, [0, 0b001, 0b011, 0b111])
        with pytest.raises(NotOpenError):
            hit_set(space, 0b010)
        with pytest.raises(NotOpenError):
            miss_set(space, 0b110)

    def test_raised_cap_reaches_enumeration(self):
        fam = hit_set(GroundSpace.discrete(13), 1, cap=10000)
        assert bin(fam).count("1") == 4096

    def test_every_family_honours_its_cap(self, discrete3):
        prox = overlap_proximity(discrete3)
        for make in (
            lambda: hit_set(discrete3, 1, cap=6),
            lambda: miss_set(discrete3, 1, cap=6),
            lambda: far_miss_set(prox, 1, cap=6),
            lambda: sf_miss_set(prox, 1, cap=6),
            lambda: build_topology(discrete3, "sf_miss", prox=prox, hyper_cap=6),
        ):
            with pytest.raises(CapExceededError) as info:
                make()
            assert (info.value.operation, info.value.size, info.value.cap) == (
                "enumerate_cl", 7, 6
            )


class TestFarMiss:
    def test_overlap_discrete3(self, discrete3):
        prox = overlap_proximity(discrete3)
        fam = far_miss_set(prox, 0b011)
        assert family_members(discrete3, fam) == {0b001, 0b010, 0b011}

    def test_full_open_gives_everything(self, discrete3):
        prox = overlap_proximity(discrete3)
        assert far_miss_set(prox, 0b111) == (1 << 7) - 1

    def test_gap_excludes_close_sets(self, discrete3):
        prox = gap_proximity(discrete3, Metric.line(3), 1)
        assert family_members(discrete3, far_miss_set(prox, 0b011)) == {0b001}

    def test_sf_miss_matches_far_miss_under_ef(self, discrete3):
        prox = overlap_proximity(discrete3)
        for a in discrete3.opens:
            assert sf_miss_set(prox, a) == far_miss_set(prox, a)

    def test_sf_miss_full_open_convention(self, discrete3):
        rel = PointRelation.from_pairs(3, [(0, 1), (1, 2)])
        prox = point_generated_proximity(discrete3, rel)
        assert sf_miss_set(prox, 0b111) == (1 << 7) - 1

    def test_sf_subset_of_far_everywhere(self, discrete3):
        rel = PointRelation.from_pairs(3, [(0, 1), (1, 2)])
        prox = point_generated_proximity(discrete3, rel)
        for a in discrete3.opens:
            sf = sf_miss_set(prox, a)
            fm = far_miss_set(prox, a)
            assert sf & ~fm == 0

    def test_far_miss_inside_miss_for_compatible_lodato(self):
        space = GroundSpace.from_partition([[0, 1], [2]])
        rel = PointRelation.from_pairs(3, [(0, 1)])
        prox = point_generated_proximity(space, rel)
        for a in space.opens:
            assert far_miss_set(prox, a) & ~miss_set(space, a) == 0

    def test_monotone_in_parameter(self, discrete3):
        prox = overlap_proximity(discrete3)
        opens = discrete3.opens
        for v in opens:
            for w in opens:
                if v & ~w:
                    continue
                assert hit_set(discrete3, v) & ~hit_set(discrete3, w) == 0
                assert miss_set(discrete3, v) & ~miss_set(discrete3, w) == 0
                assert far_miss_set(prox, v) & ~far_miss_set(prox, w) == 0
                assert sf_miss_set(prox, v) & ~sf_miss_set(prox, w) == 0


    def test_far_miss_off_the_table_stores_nothing_per_pair(self):
        """A basic table of 32,896 pairs reads its point rows off its
        singleton pairs; the far-miss families then keep no per-pair record."""
        space = GroundSpace.discrete(8)
        prox = table_proximity(space, [(a, b) for a in range(256) for b in range(a, 256) if a & b])
        cl = enumerate_cl(space)
        space._hyperpoints_meeting  # the space's own cached table, built up front
        tracemalloc.start()
        try:
            got = [far_miss_set(prox, a) for a in space.opens]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        near = rule_near(prox)
        assert got == [far_miss_mask(near, cl, space.complement(a)) for a in space.opens]
        assert peak < 1 << 20, peak


class TestBuildTopology:
    def test_vietoris_discrete2_isolates_hyperpoints(self, discrete2):
        topo = build_topology(discrete2, "vietoris")
        assert len(topo.cl) == 3
        for idx in range(3):
            assert (1 << idx) in topo.base  # singleton families are base elements

    def test_fell_with_full_ideal_equals_vietoris(self, discrete3):
        fell = build_topology(discrete3, "fell", ideal=CompactnessIdeal.all_closed(discrete3))
        viet = build_topology(discrete3, "vietoris")
        assert compare(fell, viet).verdict == "equal"

    def test_far_miss_overlap_equals_vietoris_on_discrete(self, discrete3):
        fm = build_topology(discrete3, "far_miss", prox=overlap_proximity(discrete3))
        viet = build_topology(discrete3, "vietoris")
        assert fm.subbase == viet.subbase
        assert compare(fm, viet).verdict == "equal"

    def test_hit_and_miss_family(self, discrete3):
        topo = build_topology(discrete3, "hit_and_miss", family=(0, 0b001))
        # the miss set of the open whose complement {p0} is in the family
        assert miss_set(discrete3, 0b110) in topo.subbase

    def test_subbase_members_in_base(self, discrete3):
        # the base generates the topology: each subbase member is the
        # union of the base elements inside it
        topo = build_topology(discrete3, "vietoris")
        for fam in topo.subbase:
            inside = [b for b in topo.base if b & ~fam == 0]
            assert fam == functools.reduce(operator.or_, inside, 0)

    def test_unknown_kind(self, discrete3):
        from proxitop import ToolkitError

        with pytest.raises(ToolkitError) as info:
            build_topology(discrete3, "nonsense")
        assert info.type is ToolkitError
        assert str(info.value) == "unknown topology kind 'nonsense'"

    @pytest.mark.parametrize(
        "kind,kwargs,message",
        [
            ("far_miss", {}, "far_miss topology needs a proximity"),
            ("sf_miss_only", {}, "sf_miss topology needs a proximity"),
            ("fell", {}, "fell topology needs a compactness ideal"),
            ("hit_and_miss", {}, "hit_and_miss topology needs a family of closed sets"),
            ("hit_and_miss", {"family": (0b110, 0b001)}, "family member {p0} is not closed"),
        ],
    )
    def test_refusals(self, kind, kwargs, message):
        # each missing or bad argument, on a chain whose {p0} is not closed
        from proxitop import ToolkitError

        chain = GroundSpace.create(3, (0, 0b001, 0b011, 0b111))
        with pytest.raises(ToolkitError) as info:
            build_topology(chain, kind, **kwargs)
        assert info.type is ToolkitError
        assert str(info.value) == message


def custom_base(space, subbase):
    """The topology a hand-made subbase generates, with its minimal
    neighbourhoods walked off the subbase."""
    count = len(space.nonempty_closed)
    return HyperTopologyBase(
        space, "custom", subbase, tuple(subbase_neighbourhoods(subbase, count))
    )


def trivial_base(space):
    return custom_base(space, ())


class TestRefinesCompare:
    def test_reflexive(self, discrete3):
        topo = build_topology(discrete3, "vietoris")
        assert refines(topo, topo).refines

    def test_vietoris_refines_trivial(self, discrete3):
        viet = build_topology(discrete3, "vietoris")
        triv = trivial_base(discrete3)
        assert refines(viet, triv).refines
        back = refines(triv, viet)
        assert not back.refines
        assert back.witness is not None
        result = compare(viet, triv)
        assert result.verdict == "left-strictly-finer"

    def test_incomparable_pair(self, discrete2):
        left = custom_base(discrete2, (0b001,))
        right = custom_base(discrete2, (0b010,))
        assert compare(left, right).verdict == "incomparable"

    def test_transitive(self, discrete3):
        viet = build_topology(discrete3, "vietoris")
        fm = build_topology(discrete3, "far_miss", prox=overlap_proximity(discrete3))
        triv = trivial_base(discrete3)
        if refines(viet, fm).refines and refines(fm, triv).refines:
            assert refines(viet, triv).refines

    def test_mismatched_hyperspace(self, discrete2, discrete3):
        t2 = build_topology(discrete2, "vietoris")
        t3 = build_topology(discrete3, "vietoris")
        with pytest.raises(HyperspaceMismatchError):
            refines(t2, t3)

    def test_miss_only_kinds(self, discrete3):
        rel = PointRelation.from_pairs(3, [(0, 1), (1, 2)])
        prox = point_generated_proximity(discrete3, rel)
        left = build_topology(discrete3, "far_miss_only", prox=prox)
        right = build_topology(discrete3, "sf_miss_only", prox=prox)
        result = compare(left, right)
        # the non-transitive path relation strictly separates the halves
        assert result.verdict == "left-strictly-finer"


def _reference_verdict(left, right):
    """Verdict and both witnesses from the enumerated finite-intersection bases."""
    count = len(left.cl)
    full = (1 << count) - 1
    lmasks = list(left.subbase)
    rmasks = list(right.subbase)
    lr = base_refines(lmasks, close_under_intersection(rmasks, full), count)
    rl = base_refines(rmasks, close_under_intersection(lmasks, full), count)
    verdict = {
        (True, True): "equal",
        (True, False): "left-strictly-finer",
        (False, True): "right-strictly-finer",
        (False, False): "incomparable",
    }[(lr[0], rl[0])]
    return verdict, lr, rl


def _assert_witness(result, finer, coarser):
    """A failed refinement's (g, p): p fails first, g holds p, minL(p) escapes g."""
    count = len(finer.cl)
    full = (1 << count) - 1
    lmin = subbase_neighbourhoods(list(finer.subbase), count)
    right_base = close_under_intersection(list(coarser.subbase), full)
    failing = [
        p for p in range(count) if any(g >> p & 1 and lmin[p] & ~g for g in right_base)
    ]
    g, p = result.witness
    assert p == failing[0]
    assert g >> p & 1
    assert lmin[p] & ~g


def _path_proximity(space):
    n = space.n
    return point_generated_proximity(
        space, PointRelation.from_pairs(n, [(i, i + 1) for i in range(n - 1)])
    )


class TestAgainstEnumeratedBase:
    """Minimal-neighbourhood refinement against the finite-intersection base."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_small_topology(self, n):
        specs = TOPOLOGY_KINDS + MISS_ONLY_KINDS
        for opens in enumerate_topologies(n):
            space = GroundSpace.create(n, list(opens))
            ideal = CompactnessIdeal.all_closed(space)
            for prox in (overlap_proximity(space), _path_proximity(space)):
                topos = [
                    build_topology(
                        space, spec, prox=prox, ideal=ideal, family=ideal.sorted_members()
                    )
                    for spec in specs
                ]
                for left in topos:
                    for right in topos:
                        result = compare(left, right)
                        verdict, lr, rl = _reference_verdict(left, right)
                        assert result.verdict == verdict, (opens, left.kind, right.kind)
                        for got, want, finer, coarser in (
                            (result.left_refines_right, lr, left, right),
                            (result.right_refines_left, rl, right, left),
                        ):
                            assert got.refines == want[0]
                            if not got.refines:
                                _assert_witness(got, finer, coarser)

    def test_base_is_the_minimal_one(self, discrete3):
        # every reference base element is a union of minimal-base elements,
        # and each minimal-base element is a reference base element
        topo = build_topology(discrete3, "far_miss", prox=_path_proximity(discrete3))
        ref = close_under_intersection(list(topo.subbase), topo.full_family)
        assert set(topo.base) <= set(ref)
        for g in ref:
            inside = [b for b in topo.base if b & ~g == 0]
            assert g == functools.reduce(operator.or_, inside, 0)

    def test_six_point_discrete_hit_half(self):
        space = GroundSpace.discrete(6)
        prox = overlap_proximity(space)
        viet = build_topology(space, "vietoris")
        fm = build_topology(space, "far_miss", prox=prox)
        assert len(viet.cl) == 63
        assert compare(viet, fm).verdict == "equal"
        # Vietoris on a discrete space is discrete: each hyperpoint is open
        assert viet.base == tuple(1 << i for i in range(63))


class TestHitMissAgainstReference:
    """hit_set and miss_set from the per-point hyperpoint table against the
    per-hyperpoint loops."""

    @staticmethod
    def assert_matches_reference(space):
        cl = enumerate_cl(space)
        for v in space.opens:
            assert hit_set(space, v) == hit_mask(cl, v), v
            assert miss_set(space, v) == miss_mask(cl, v), v

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_small_topology(self, n):
        for opens in enumerate_topologies(n):
            self.assert_matches_reference(GroundSpace.create(n, opens))

    def test_line_gap_model(self):
        self.assert_matches_reference(parse_file(str(MODELS / "line_gap.yaml")).space)


class TestFarMissAgainstReference:
    """far_miss_set's neighbourhood-table reads against the per-pair loop on the definition."""

    @staticmethod
    def assert_matches_reference(prox, opens):
        space = prox.space
        cl = enumerate_cl(space)
        near = rule_near(prox)
        for a in opens:
            assert far_miss_set(prox, a) == far_miss_mask(near, cl, space.complement(a)), a

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_small_topology(self, n):
        for opens in enumerate_topologies(n):
            space = GroundSpace.create(n, list(opens))
            for prox in (overlap_proximity(space), _path_proximity(space)):
                self.assert_matches_reference(prox, space.opens)

    def test_line_gap_model(self):
        prox = parse_file(str(MODELS / "line_gap.yaml")).proximity
        assert prox.space.n == 10
        self.assert_matches_reference(prox, prox.space.opens)

    def test_past_the_matrix_cap(self):
        # 11 points: the neighbourhood table answers, no matrix is built
        space = GroundSpace.from_partition([[0, 1, 2], [3, 4], [5, 6, 7, 8], [9, 10]])
        prox = _path_proximity(space)
        self.assert_matches_reference(prox, space.opens)
        assert prox._rows is None

    def test_tables(self):
        # A basic table reads its rows off its singleton pairs; any other
        # table is refused before its matrix is built, past the cap too.
        basic = 0
        for n in (1, 2):
            for _, model in table_models(n):
                prox = model.proximity
                if check_axioms(prox).is_basic:
                    self.assert_matches_reference(prox, model.space.opens)
                    basic += 1
                else:
                    with pytest.raises(InvalidModelError):
                        far_miss_set(prox, model.space.full_mask)
        assert basic == 3
        space = GroundSpace.from_partition([[0, 1, 2], [3, 4], [5, 6, 7, 8], [9, 10]])
        prox = table_proximity(space, [(0b111, 0b11000), (0b11000, 0b11111100000)])
        with pytest.raises(InvalidModelError) as info:
            far_miss_set(prox, space.full_mask)
        assert info.value.where == "proximity"
        assert prox._rows is None


class TestInclusionContainment:
    def test_holds_on_partition_model(self):
        space = GroundSpace.from_partition([[0, 1], [2]])
        rel = PointRelation.from_pairs(3, [(0, 1)])
        prox = point_generated_proximity(space, rel)
        report = check_inclusion_containment(space, prox)
        assert report.applicable
        assert report.violations == ()
        assert report.pairs_checked == len(space.opens) ** 2

    def test_skipped_for_non_lodato(self):
        space = GroundSpace.discrete(4)
        prox = gap_proximity(space, Metric.line(4), 1)
        report = check_inclusion_containment(space, prox)
        assert not report.applicable

    def test_skipped_for_incompatible(self):
        space = GroundSpace.discrete(4)
        prox = alexandroff_proximity(space, CompactnessIdeal.principal(space, 0b0011))
        assert check_axioms(prox).is_lodato
        report = check_inclusion_containment(space, prox)
        assert not report.applicable
        assert "compatible" in report.reason

