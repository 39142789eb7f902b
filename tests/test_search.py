"""Model search: enumeration counts, determinism, soundness, replay."""

import hashlib
import random

import pytest

import oracle
from proxitop import (
    GroundSpace,
    ToolkitError,
    enumerate_point_relations,
    enumerate_topologies,
    point_generated_proximity,
    replay,
    search,
    serialize,
    table_proximity,
)
from proxitop.modelfile import Model, parse
from proxitop.search import (
    SAMPLES_PER_STAGE,
    STATUS_BUDGET,
    STATUS_EXHAUSTED,
    STATUS_WITNESS,
    SearchTarget,
    _candidates,
    _random_topology,
    candidate_models,
)
from reference import (
    brute_force_point_relations,
    brute_force_topologies,
    closed_random_topology,
)


class TestEnumeration:
    def test_point_relation_counts(self):
        assert len(list(enumerate_point_relations(1))) == 1
        assert len(list(enumerate_point_relations(2))) == 2
        assert len(list(enumerate_point_relations(3))) == 8
        assert len(list(enumerate_point_relations(3, up_to_iso=True))) == 4
        assert len(list(enumerate_point_relations(4))) == 64

    def test_point_relation_counts_up_to_relabeling(self):
        # graphs on n unlabelled vertices, OEIS A000088
        counts = [len(list(enumerate_point_relations(n, up_to_iso=True))) for n in range(1, 6)]
        assert counts == [1, 2, 4, 11, 34]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_point_relations_up_to_relabeling_match_brute_force(self, n):
        got = [rel.rows for rel in enumerate_point_relations(n, up_to_iso=True)]
        assert got == brute_force_point_relations(n)

    def test_topology_counts(self):
        assert len(enumerate_topologies(1)) == 1
        assert len(enumerate_topologies(2)) == 4
        assert len(enumerate_topologies(3)) == 29
        assert len(enumerate_topologies(4)) == 355
        assert len(enumerate_topologies(2, True)) == 3
        assert len(enumerate_topologies(3, True)) == 9
        assert len(enumerate_topologies(4, True)) == 33

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_topologies_from_preorders_match_brute_force(self, n):
        for up_to_iso in (False, True):
            assert enumerate_topologies(n, up_to_iso) == brute_force_topologies(n, up_to_iso)

    def test_topologies_are_valid(self):
        from proxitop import validate_topology

        for opens in enumerate_topologies(3):
            space = GroundSpace.create(3, opens)
            assert validate_topology(space).ok

    def test_candidate_stream_deterministic(self):
        target = SearchTarget("basic-not-lodato", n_max=2)
        names1 = [name for name, _, _ in candidate_models(target, seed=5)]
        names2 = [name for name, _, _ in candidate_models(target, seed=5)]
        assert names1 == names2
        assert len(names1) == len(set(names1))


class TestTargets:
    def test_basic_not_lodato_found_at_n3(self):
        outcome = search(SearchTarget("basic-not-lodato", n_max=3))
        assert outcome.status == STATUS_WITNESS
        assert outcome.witness is not None
        assert replay(outcome)

    def test_basic_not_lodato_witness_classifies_basic(self):
        outcome = search(SearchTarget("basic-not-lodato", n_max=3))
        from proxitop import check_axioms

        fresh = parse(serialize(outcome.witness))
        assert check_axioms(fresh.proximity).classification == "basic"

    def test_lodato_not_ef_exhausts(self):
        # on finite carriers every additive Lodato relation is already EF
        outcome = search(SearchTarget("lodato-not-ef", n_max=3))
        assert outcome.status == STATUS_EXHAUSTED

    def test_far_not_sf_exhausts_over_lodato(self):
        outcome = search(SearchTarget("far-not-strongly-far", n_max=3))
        assert outcome.status == STATUS_EXHAUSTED

    def test_sf_not_hat_exhausts(self):
        outcome = search(SearchTarget("sf-not-hat", n_max=3))
        assert outcome.status == STATUS_EXHAUSTED

    def test_lemma37_exhausts(self):
        outcome = search(SearchTarget("lemma37-violation", n_max=3))
        assert outcome.status == STATUS_EXHAUSTED

    def test_incomparable_completes_at_n3(self):
        outcome = search(SearchTarget("incomparable-topologies", n_max=3))
        assert outcome.status in (STATUS_WITNESS, STATUS_EXHAUSTED)

    def test_unknown_target_rejected(self):
        with pytest.raises(ToolkitError):
            SearchTarget("no-such-target")

    def test_bad_n_range_rejected(self):
        with pytest.raises(ToolkitError):
            SearchTarget("sf-not-hat", n_min=3, n_max=2)
        with pytest.raises(ToolkitError):
            SearchTarget("sf-not-hat", n_max=9)


class TestDeterminismAndBudget:
    def test_identical_runs_identical_outcomes(self):
        a = search(SearchTarget("basic-not-lodato", n_max=3), budget=10**7, seed=1)
        b = search(SearchTarget("basic-not-lodato", n_max=3), budget=10**7, seed=1)
        assert (a.status, a.evaluations, a.models_checked, a.witness_name) == (
            b.status, b.evaluations, b.models_checked, b.witness_name,
        )
        assert serialize(a.witness) == serialize(b.witness)

    def test_exhaustive_targets_ignore_seed(self):
        a = search(SearchTarget("lodato-not-ef", n_max=3), seed=1)
        b = search(SearchTarget("lodato-not-ef", n_max=3), seed=999)
        assert a.status == b.status == STATUS_EXHAUSTED
        assert a.models_checked == b.models_checked

    def test_tiny_budget_exhausts_budget(self):
        outcome = search(SearchTarget("lodato-not-ef", n_max=3), budget=50)
        assert outcome.status == STATUS_BUDGET

    def test_sampled_stage_never_claims_exhaustion(self):
        outcome = search(SearchTarget("lodato-not-ef", n_min=5, n_max=5))
        assert outcome.status == STATUS_BUDGET
        assert any("sampled" in note for note in outcome.notes)

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "2f0bc11ede0a9068175a6ce9e14895cbbe685d99e8c77df06a74ebcab0fee9c7"),
            (7, "dd318c95001c327f3171ea873bb436c3cd8c07b1a2a8204bf45902505c375d87"),
        ],
    )
    def test_sampled_stream_is_pinned(self, seed, digest):
        """The seeded draws of the sampled stages at n = 5 and 6, as the
        sha256 of their (name, key) list: 3 stages of SAMPLES_PER_STAGE
        entries per n, the same for every target."""
        target = SearchTarget("sf-not-hat", n_min=5, n_max=6)
        entries = [
            (name, key) for name, key, _, exhaustive in _candidates(target, seed) if not exhaustive
        ]
        assert len(entries) == 2 * 3 * SAMPLES_PER_STAGE
        assert hashlib.sha256(repr(entries).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_topology_matches_the_closure_loop(self, n):
        """A sampled topology is the union/intersection closure of the
        drawn masks, from the same draws: the generator is left where the
        closure loop leaves it."""
        for seed in range(1000):
            fast, slow = random.Random(seed), random.Random(seed)
            space = _random_topology(n, fast)
            closed = closed_random_topology(n, slow)
            assert space == closed, (n, seed)
            assert space._minimal_neighbourhoods == closed._minimal_neighbourhoods, (n, seed)
            assert fast.random() == slow.random(), (n, seed)


class TestReplay:
    def test_witness_roundtrips_through_file_format(self):
        outcome = search(SearchTarget("basic-not-lodato", n_max=3))
        text = serialize(outcome.witness)
        fresh = parse(text)
        assert serialize(fresh) == text
        assert replay(fresh)

    def test_perturbed_witness_fails_replay(self):
        outcome = search(SearchTarget("basic-not-lodato", n_max=3))
        witness = outcome.witness
        # flip the relation into an equivalence: drop every off-diagonal pair
        space = witness.space
        tampered = Model(
            space,
            table_proximity(
                space,
                [(a, a) for a in range(1, space.full_mask + 1)],
            ),
            subsets=dict(witness.subsets),
            replay=witness.replay,
        )
        assert not replay(tampered)

    def test_replay_requires_script(self):
        space = GroundSpace.discrete(2)
        model = Model(space, point_generated_proximity(space, _equality(2)))
        with pytest.raises(ToolkitError):
            replay(model)

    def test_replay_rejects_unknown_op(self):
        space = GroundSpace.discrete(2)
        model = Model(
            space,
            point_generated_proximity(space, _equality(2)),
            replay=({"op": "mystery", "args": {}, "expect": {}},),
        )
        with pytest.raises(ToolkitError):
            replay(model)


def _equality(n):
    from proxitop import PointRelation

    return PointRelation.equality(n)


class TestCompletenessCrossCheck:
    """Exhausted-no-witness agrees with an independent raw-definition sweep."""

    def test_no_basic_not_lodato_table_at_n2(self):
        outcome = search(SearchTarget("basic-not-lodato", n_max=2))
        assert outcome.status == STATUS_EXHAUSTED

        points = [0, 1]
        subsets = [s for s in oracle.powerset(points) if s]
        pair_space = [
            (a, b) for i, a in enumerate(subsets) for b in subsets[i:]
        ]
        hits = 0
        for table_id in range(1 << len(pair_space)):
            pairs = [pair_space[k] for k in range(len(pair_space)) if table_id >> k & 1]
            verdicts = oracle.check_axioms(points, oracle.make_near(pairs))
            if verdicts["classification"] == "basic":
                hits += 1
        assert hits == 0

    def test_no_lodato_not_ef_at_n2(self):
        outcome = search(SearchTarget("lodato-not-ef", n_max=2))
        assert outcome.status == STATUS_EXHAUSTED

        points = [0, 1]
        subsets = [s for s in oracle.powerset(points) if s]
        pair_space = [
            (a, b) for i, a in enumerate(subsets) for b in subsets[i:]
        ]
        hits = 0
        for table_id in range(1 << len(pair_space)):
            pairs = [pair_space[k] for k in range(len(pair_space)) if table_id >> k & 1]
            verdicts = oracle.check_axioms(points, oracle.make_near(pairs))
            if verdicts["classification"] == "lodato":
                hits += 1
        assert hits == 0
