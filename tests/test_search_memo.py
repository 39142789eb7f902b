"""The searcher tests each (topology, point relation) once per call.

Every target test on a point-generated candidate reads only the
topology and the point rows R, so `search` tests the first candidate
with a given (opens, R) and counts its repeats without building them,
and it tests no table that fails P0-P3. It builds and tests a candidate
only where a read of R says the target's test can return a witness:
R not transitive for `basic-not-lodato` and `incomparable-topologies`,
never for `lodato-not-ef` and `far-not-strongly-far`, and R(i) = cl{i}
for every i for the two Lodato sweeps. A tested candidate gets at most
one axiom report, and `incomparable-topologies` gets none. The
seed-independent stages are built once per process.
`test_search_matches_the_naive_loop` compares it with
`reference.naive_search`, which tests every candidate;
`test_twins_get_the_same_outcome` checks the premise on every candidate
with n <= 4.
"""

import importlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from proxitop import cli, serialize
from proxitop.modelfile import Model
from proxitop.proximity import ProximityRelation, check_axioms, is_compatible
from proxitop.search import (
    KIND_EXHAUSTIVE_CAPS,
    SAMPLES_PER_STAGE,
    TARGET_NAMES,
    SearchTarget,
    _TARGET_TESTS,
    _candidates,
    _exhaustive_stage,
    candidate_models,
    enumerate_topologies,
    search,
)
from corpus import table_models
from reference import naive_search

MODELS = Path(__file__).resolve().parent.parent / "models"


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
    alone already sets. The three basic tables (n <= 2) are twins of
    point relations."""
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
    assert twins == 6 * (370 + 3 - 180)


def test_repeats_are_not_tested(monkeypatch):
    """At --max-n 4 the stream has 66 tables and 370 point-generated
    candidates with 180 distinct (opens, R). 63 of the 370 have rows
    compatible with their topology, 23 of them distinct keys; only those
    23 are tested. Two of them are first met on a table, whose
    point-relation twins are then skipped: every target's witness is
    basic, and the 64 tables passed over are exactly the ones that are
    not basic or not compatible."""
    calls = []
    original = _TARGET_TESTS["sf-not-hat"]

    def counted(model):
        calls.append(model)
        return original(model)

    monkeypatch.setitem(_TARGET_TESTS, "sf-not-hat", counted)
    outcome = search(SearchTarget("sf-not-hat", n_max=4))
    assert outcome.models_checked == 66 + 370
    assert len(calls) == 23
    tested = {m.proximity.params["near_pairs"] for m in calls if m.proximity.kind == "table"}
    tables = [model.proximity for n in (1, 2) for _, model in table_models(n)]
    compatible = {
        prox.params["near_pairs"]
        for prox in tables
        if check_axioms(prox).is_basic and is_compatible(prox)
    }
    assert len(tables) - len(compatible) == 64
    assert tested == compatible


# (target, --max-n, axiom reports at seed 1): the first candidate whose R
# is not transitive is a basic-not-lodato witness; no R is Lodato and not
# EF; 23 = the distinct compatible keys at n <= 4, two of them first met
# on a table.
AXIOM_REPORTS = [
    ("basic-not-lodato", 4, 1),
    ("lodato-not-ef", 4, 0),
    ("far-not-strongly-far", 4, 0),
    ("sf-not-hat", 4, 23),
    ("lemma37-violation", 4, 23),
    ("incomparable-topologies", 4, 0),
    ("far-not-strongly-far", 5, 0),
    ("incomparable-topologies", 5, 0),
]


@pytest.mark.parametrize("name, max_n, reports", AXIOM_REPORTS)
def test_axiom_reports_per_search(name, max_n, reports, monkeypatch):
    """A tested candidate gets at most one axiom report, and none where
    its point rows settle the target: `incomparable-topologies` gates on
    the rows alone. The other targets read P4 or EF witnesses, and the
    two sweeps the Lodato class, off the report."""
    calls = []

    def counted(prox, **kwargs):
        calls.append(prox)
        return check_axioms(prox, **kwargs)

    for module in ("search", "strong"):
        monkeypatch.setattr(importlib.import_module(f"proxitop.{module}"), "check_axioms", counted)
    search(SearchTarget(name, n_max=max_n), seed=1)
    assert len(calls) == reports
    assert len({id(prox) for prox in calls}) == reports


def test_incomparable_builds_no_matrix(monkeypatch):
    """No relation gets a dense matrix while `incomparable-topologies`
    runs: not in a search, and not when its test sees every candidate,
    the 63 tables that are not basic included."""
    built = []
    matrix = ProximityRelation.matrix

    def counted(self):
        built.append(self.kind)
        return matrix(self)

    monkeypatch.setattr(ProximityRelation, "matrix", counted)
    target = SearchTarget("incomparable-topologies", n_max=4)
    search(target, seed=1)
    test = _TARGET_TESTS[target.name]
    for _, model, _ in candidate_models(target, 1):
        test(model)
    assert built == []


# (target, (relations built, of them tables) at --max-n 4): of the 180
# distinct keys, 84 have an R that is not transitive and 23 one that is
# compatible with the topology, two of them first met on a table; no R
# is Lodato and not EF.
RELATIONS_BUILT = {
    "lodato-not-ef": (0, 0),
    "far-not-strongly-far": (0, 0),
    "sf-not-hat": (23, 2),
    "lemma37-violation": (23, 2),
    "incomparable-topologies": (84, 0),
}


@pytest.mark.parametrize("name", TARGET_NAMES[1:])
def test_one_relation_per_distinct_candidate(name, monkeypatch):
    """A search builds one relation per distinct (opens, R) that its
    target's row read passes, and nothing else: a repeated key or a
    table that is not basic builds nothing, not even its relation."""
    built = []
    init = ProximityRelation.__init__

    def counted(self, space, kind, *args, **kwargs):
        built.append(kind)
        init(self, space, kind, *args, **kwargs)

    monkeypatch.setattr(ProximityRelation, "__init__", counted)
    search(SearchTarget(name, n_max=4))
    relations, tables = RELATIONS_BUILT[name]
    assert len(built) == relations
    assert built.count("table") == tables


def test_stages_are_built_once_and_reused():
    """Every target's outcome at --max-n 4 is the same from a cold stage
    cache, from a warm one, and after the topology cache is cleared."""
    _exhaustive_stage.cache_clear()
    cold = [summary(search(SearchTarget(name, n_max=4))) for name in TARGET_NAMES]
    warm = [summary(search(SearchTarget(name, n_max=4))) for name in TARGET_NAMES]
    enumerate_topologies.cache_clear()
    cleared = [summary(search(SearchTarget(name, n_max=4))) for name in TARGET_NAMES]
    assert cold == warm == cleared


def test_stages_hold_no_models_or_relations():
    """The per-process stages hold only names, keys and the immutable
    arguments each build closes over, so every build starts fresh."""
    for kind, cap in KIND_EXHAUSTIVE_CAPS.items():
        for n in range(1, min(cap, 4) + 1):
            for name, key, build in _exhaustive_stage(kind, n):
                assert not any(
                    isinstance(arg, (Model, ProximityRelation)) for arg in build.args
                ), name
                first, second = build(), build()
                assert first.proximity is not second.proximity
                assert first.proximity.eval_count == 0, name


@pytest.mark.parametrize("seed", [0, 7])
def test_stream_keys_are_the_built_models_rows(seed):
    """Each stream key is (opens, R) of the model its build gives: every
    candidate with n <= 4, and the sampled and gap stages at n = 5 and 6.
    A table's key is (opens, rows) exactly when it is basic."""
    counts = {}
    target = SearchTarget(TARGET_NAMES[0], n_max=6)
    for name, key, build, exhaustive in _candidates(target, seed):
        model = build()
        rows = model.proximity._point_rows()
        if model.proximity.kind == "table":
            assert (rows is not None) == check_axioms(model.proximity).is_basic, name
        else:
            assert rows is not None, name
        assert key == (None if rows is None else (model.space.opens, rows)), name
        n = model.space.n
        counts[n, exhaustive] = counts.get((n, exhaustive), 0) + 1
    assert sum(counts.pop((n, True)) for n in range(1, 5)) == 66 + 370
    assert set(counts) == {(5, True), (5, False), (6, True), (6, False)}
    assert counts[5, False] == counts[6, False] == 3 * SAMPLES_PER_STAGE


def test_no_relation_reads_rows_off_its_matrix(monkeypatch):
    """A search of every target at --max-n 4 and `validate` on the
    overlap, Alexandroff and gap models build the four point-generated
    kinds with no matrix callback, only their point rows, and every table
    with a matrix callback that is not called while its row callback
    runs: a table's rows come off its pairs."""
    asked = []
    matrixed = {}
    init = ProximityRelation.__init__

    def watched(self, space, kind, params=None, point_rows=None, matrix=None):
        matrixed.setdefault(kind, set()).add(matrix is not None)
        reading = []

        def guarded():
            assert not reading, f"{kind} read its rows off its matrix"
            return matrix()

        def rows():
            asked.append(kind)
            reading.append(kind)
            try:
                return point_rows()
            finally:
                reading.pop()

        init(self, space, kind, params, point_rows and rows, matrix and guarded)

    monkeypatch.setattr(ProximityRelation, "__init__", watched)
    for name in TARGET_NAMES:
        search(SearchTarget(name, n_max=4))
    for model in ("discrete_overlap", "alexandroff_ideal", "line_gap"):
        with redirect_stdout(io.StringIO()):
            assert cli.main(["validate", str(MODELS / f"{model}.yaml")]) == 0
    assert {"table", "point_relation", "gap", "alexandroff", "overlap"} <= set(asked)
    for kind in ("point_relation", "gap", "alexandroff", "overlap"):
        assert matrixed[kind] == {False}, kind
    assert matrixed["table"] == {True}
