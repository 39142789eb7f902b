"""The searcher tests each (topology, point relation) once per call.

Every target test on a point-generated candidate reads only the
topology and the point rows R, so `search` tests the first candidate
with a given (opens, R) and counts its repeats without testing them.
`test_search_matches_the_naive_loop` compares it with
`reference.naive_search`, which tests every candidate;
`test_twins_get_the_same_outcome` checks the premise on every candidate
with n <= 4.
"""

import pytest

from proxitop import serialize
from proxitop.search import TARGET_NAMES, SearchTarget, _TARGET_TESTS, candidate_models, search
from reference import naive_search


def summary(outcome):
    witness = None if outcome.witness is None else serialize(outcome.witness)
    return (
        outcome.status, outcome.witness_name, witness,
        outcome.evaluations, outcome.models_checked, outcome.notes,
    )


@pytest.mark.parametrize("budget", [5_000_000, 60_000])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("max_n", [4, 5])
@pytest.mark.parametrize("name", TARGET_NAMES)
def test_search_matches_the_naive_loop(name, max_n, seed, budget):
    target = SearchTarget(name, n_max=max_n)
    assert summary(search(target, budget=budget, seed=seed)) == summary(
        naive_search(target, budget, seed)
    )


def test_twins_get_the_same_outcome():
    """Candidates sharing (opens, R) get the same verdict from every
    target test and determine the same number of pairs, which reading R
    alone already sets."""
    twins = 0
    for name, test in _TARGET_TESTS.items():
        first = {}
        for _, model, _ in candidate_models(SearchTarget(name, n_max=4), 0):
            prox = model.proximity
            rows = prox._point_rows()
            if rows is None:
                continue
            before = prox.eval_count
            witness = test(model)
            assert prox.eval_count == before
            got = (
                None if witness is None else (witness.subsets, witness.replay),
                prox.eval_count,
            )
            key = (model.space.opens, rows)
            if key in first:
                assert got == first[key], (name, key)
                twins += 1
            else:
                first[key] = got
        assert len(first) == 1 + 4 + 22 + 153, name
    assert twins == 6 * (370 - 180)


def test_repeats_are_not_tested(monkeypatch):
    """At --max-n 4 the stream has 66 tables and 370 point-generated
    candidates with 180 distinct (opens, R); only those 246 are tested."""
    calls = []
    original = _TARGET_TESTS["sf-not-hat"]

    def counted(model):
        calls.append(model)
        return original(model)

    monkeypatch.setitem(_TARGET_TESTS, "sf-not-hat", counted)
    outcome = search(SearchTarget("sf-not-hat", n_max=4))
    assert outcome.models_checked == 66 + 370
    assert len(calls) == 66 + 180
