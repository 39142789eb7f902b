"""Search small finite models for witnesses and counterexamples.

Every basic proximity on a finite set is additive, hence generated by a
point relation, so the candidate generators cover the interesting space
cheaply: point relations (exhaustive up to n=4), explicit tables at
n<=2, gap proximities over a line metric, and Alexandroff relations
over every topology (up to relabeling) paired with every compactness
ideal. On a finite space a valid ideal is determined by its unique
maximal member (union closure forces one), so ideals are enumerated as
principal ideals over the closed sets.

Searches are deterministic: exhaustive stages ignore the seed, and the
randomized stages that kick in past the exhaustive caps draw their
models from a seeded generator. Outcomes carry the witness model plus a
replay script of public-operation calls that re-exhibits the property.

The candidates come as a stream of (name, key, build) entries, where
key is (opens, point rows R) and `build()` makes a fresh model over
`build.space`. A table's key comes from its pairs once per process,
when its stage is built; a table with no rows, one that is not basic
(F10), has key None. The seed-independent exhaustive stages hold only
names, keys and the immutable spaces, ideals, point relations and
metrics their builds close over, so each is built once per process
(`_exhaustive_stage`), as `enumerate_topologies` is; the sampled stages
are drawn per call from the seed.

Every target test on a candidate with point rows reads only its
topology and its point rows R, and the generators keep producing the
same pair (the basic tables, the Alexandroff ideals, the partition stage
and the discrete point relations overlap). Within one `search` call each
key is therefore tested once: a repeat cannot be a witness, since the
search would have stopped at its first twin, so it is counted in
`models_checked` and its 2^n (2^n + 1) / 2 pairs in `evaluations`, but
not built. Every target's witness is basic, so a candidate with key None
is counted the same way and never built. `incomparable-topologies` gates
on the point rows alone, not on an axiom report: it compares the miss
halves off the rows, so its search makes no `check_axioms` call.

A first key then passes a row gate
(`_TARGET_GATES`) before anything is built for it: a read of R and the
space's cached point closures that says whether the target's test can
return a witness. P0-P3 hold on R, and P4 and EF fail together exactly
where R is not transitive (N∘N != N), so the classification is `ef` or
`basic` and never `lodato` (F6); the Lodato sweeps need R transitive and
compatible, R(i) = cl{i} for every i (F8), and compatible R is
transitive; and the two miss halves are equal where R is transitive
(F2). So `basic-not-lodato` and `incomparable-topologies` build only
candidates whose R is not transitive, `sf-not-hat` and
`lemma37-violation` only compatible ones, and `lodato-not-ef` and
`far-not-strongly-far` none. Where the gate says no, the unchanged test
would return None, so verdicts, witnesses and counts cannot differ: the
tests stay the only source of witnesses, and every candidate, built or
not, is counted as before.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import permutations
from typing import Callable, Iterator, Optional

from . import modelfile
from .errors import ToolkitError
from .hyperspace import (
    VERDICT_INCOMPARABLE,
    build_topology,
    compare,
    check_inclusion_containment,
    far_miss_set,
    sf_miss_set,
    _compare_miss_halves,
)
from .modelfile import Model
from .proximity import (
    CLASS_BASIC,
    CLASS_LODATO,
    CompactnessIdeal,
    PointRelation,
    _alexandroff_rows,
    _gap_rows,
    _rows_compatible,
    _rows_transitive,
    _table_rows,
    alexandroff_proximity,
    check_axioms,
    gap_proximity,
    point_generated_proximity,
    table_proximity,
)
from .spaces import GroundSpace, Metric, all_masks, bits_of, unions_of
from .strong import check_sf_implies_hat, hat_strongly_far, strongly_far

TARGET_NAMES = (
    "basic-not-lodato",
    "lodato-not-ef",
    "far-not-strongly-far",
    "sf-not-hat",
    "lemma37-violation",
    "incomparable-topologies",
)

ALL_KINDS = ("table", "point_relation", "point_relation_partition", "gap", "alexandroff")

# Sizes up to which each generator enumerates its full space; beyond
# them (up to MAX_SEARCH_N) candidates are sampled from the seed. Point
# relations stay exhaustible through n=4 (64 relations), which keeps the
# whole candidate space at n<=4 enumerable end to end.
KIND_EXHAUSTIVE_CAPS = {
    "table": 2,
    "point_relation": 4,
    "point_relation_partition": 4,
    "gap": 6,
    "alexandroff": 4,
}
MAX_SEARCH_N = 6
SAMPLES_PER_STAGE = 20

STATUS_WITNESS = "witness-found"
STATUS_EXHAUSTED = "exhausted-no-witness"
STATUS_BUDGET = "budget-exhausted"

DEFAULT_BUDGET = 50_000_000


@dataclass(frozen=True)
class SearchTarget:
    """What to look for, over which range of point counts."""

    name: str
    n_min: int = 1
    n_max: int = 3

    def __post_init__(self):
        if self.name not in TARGET_NAMES:
            raise ToolkitError(
                f"unknown target {self.name!r}; expected one of {', '.join(TARGET_NAMES)}"
            )
        if not 1 <= self.n_min <= self.n_max <= MAX_SEARCH_N:
            raise ToolkitError(f"n range must sit inside 1..{MAX_SEARCH_N}")


@dataclass
class SearchOutcome:
    """Result of one search run; deterministic given (target, budget, seed)."""

    target: SearchTarget
    status: str
    budget: int
    seed: int
    evaluations: int
    models_checked: int
    witness: Optional[Model] = None
    witness_name: Optional[str] = None
    notes: tuple[str, ...] = ()


# -- candidate enumeration ---------------------------------------------


def _pair_order(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def enumerate_point_relations(n: int, *, up_to_iso: bool = False) -> Iterator[PointRelation]:
    """All symmetric reflexive point relations, canonical order.

    Relations are indexed by the bitmask of off-diagonal related pairs in
    lexicographic pair order, ascending; with `up_to_iso` only the least
    representative of each relabeling orbit is yielded. In ascending
    order an orbit's first member is its least, so each yielded relation
    marks its whole orbit as seen and later members are skipped.
    """
    if n > MAX_SEARCH_N:
        raise ToolkitError(f"point relation enumeration capped at n={MAX_SEARCH_N}")
    pairs = _pair_order(n)
    # Per relabeling, the index each pair index is sent to; built once.
    edge_maps = []
    if up_to_iso:
        index = {pair: k for k, pair in enumerate(pairs)}
        for p in permutations(range(n)):
            edge_maps.append([index[tuple(sorted((p[i], p[j])))] for i, j in pairs])
    seen: set[int] = set()
    for edges in range(1 << len(pairs)):
        if edges in seen:
            continue
        seen.update(sum(1 << m[k] for k in bits_of(edges)) for m in edge_maps)
        yield PointRelation.from_pairs(n, [pairs[k] for k in bits_of(edges)])


def _permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for i in bits_of(mask):
        out |= 1 << perm[i]
    return out


@lru_cache(maxsize=None)
def enumerate_topologies(n: int, up_to_iso: bool = False) -> tuple[tuple[int, ...], ...]:
    """All open families on n points (as sorted mask tuples), ascending.

    A finite topology is the family of up-sets of its specialization
    preorder, the unions of the minimal open neighbourhoods up[i]. So the
    families are read off the reflexive transitive relations on n points,
    one per relation; the 2^(n(n-1)) candidate relations cap this at n=4.
    """
    if n > 4:
        raise ToolkitError("topology enumeration capped at n=4")
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = []
    for edges in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        for k in bits_of(edges):
            i, j = pairs[k]
            up[i] |= 1 << j
        if any(up[j] & ~u for u in up for j in bits_of(u)):
            continue  # not transitive
        found.append(tuple(sorted(unions_of(up))))
    found.sort()
    if not up_to_iso:
        return tuple(found)
    # In ascending order an orbit's first member is its least, so each
    # representative marks its whole orbit as seen.
    perms = list(permutations(range(n)))
    reps = []
    seen: set[tuple[int, ...]] = set()
    for fam in found:
        if fam not in seen:
            reps.append(fam)
            seen.update(tuple(sorted(_permute_mask(m, p) for m in fam)) for p in perms)
    return tuple(reps)


# A candidate's search key: its topology and point rows.
Key = tuple[tuple[int, ...], tuple[int, ...]]


class _Build:
    """`build()` makes a fresh model, `make(space, *args)`.

    It carries the space its model lives on, so the search reads that
    space's point closures without building the model.
    """

    __slots__ = ("make", "space", "args")

    def __init__(self, make: Callable[..., Model], space: GroundSpace, args: tuple):
        self.make = make
        self.space = space
        self.args = args

    def __call__(self) -> Model:
        return self.make(self.space, *self.args)


# One stream entry: (name, key, build); a table that is not basic has no key.
Entry = tuple[str, Optional[Key], _Build]


def _table_model(space: GroundSpace, pairs: tuple[tuple[int, int], ...]) -> Model:
    return Model(space, table_proximity(space, pairs))


def _point_relation_model(space: GroundSpace, rel: PointRelation) -> Model:
    return Model(space, point_generated_proximity(space, rel))


def _gap_model(space: GroundSpace, metric: Metric, eps) -> Model:
    return Model(space, gap_proximity(space, metric, eps), metric=metric)


def _alexandroff_model(space: GroundSpace, ideal: CompactnessIdeal) -> Model:
    return Model(space, alexandroff_proximity(space, ideal), ideal=ideal)


def _point_relation_entry(name: str, space: GroundSpace, rel: PointRelation) -> Entry:
    return name, (space.opens, rel.rows), _Build(_point_relation_model, space, (rel,))


def _alexandroff_entry(name: str, space: GroundSpace, top: int) -> Entry:
    ideal = CompactnessIdeal.principal(space, top)
    key = (space.opens, _alexandroff_rows(space, top))
    return name, key, _Build(_alexandroff_model, space, (ideal,))


def _table_stage(n: int) -> Iterator[Entry]:
    """Explicit tables over the nonempty-pair space, discrete topology."""
    space = GroundSpace.discrete(n)
    nonempty = [m for m in all_masks(n) if m]
    pair_space = [
        (a, b) for ai, a in enumerate(nonempty) for b in nonempty[ai:]
    ]
    for table_id in range(1 << len(pair_space)):
        pairs = tuple(pair_space[k] for k in bits_of(table_id))
        rows = _table_rows(n, frozenset(pairs))
        key = None if rows is None else (space.opens, rows)
        yield f"n{n}/table/{table_id}", key, _Build(_table_model, space, (pairs,))


def _point_relation_stage(n: int) -> Iterator[Entry]:
    space = GroundSpace.discrete(n)
    for idx, rel in enumerate(enumerate_point_relations(n)):
        yield _point_relation_entry(f"n{n}/point_relation/{idx}", space, rel)


def _point_relation_partition_stage(n: int) -> Iterator[Entry]:
    """Transitive relations on their partition topology (compatible).

    An equivalence's rows are its blocks, which are the partition
    topology's minimal neighbourhoods.
    """
    for idx, rel in enumerate(enumerate_point_relations(n)):
        if rel.is_transitive():
            space = GroundSpace.from_minimal_neighbourhoods(rel.rows)
            yield _point_relation_entry(f"n{n}/point_relation_partition/{idx}", space, rel)


def _gap_stage(n: int) -> Iterator[Entry]:
    if n < 2:
        return
    space = GroundSpace.discrete(n)
    metric = Metric.line(n)
    epsilons = (0,) + metric.distance_values()
    for k, eps in enumerate(epsilons):
        key = (space.opens, _gap_rows(metric, eps))
        yield f"n{n}/gap/line-eps{k}", key, _Build(_gap_model, space, (metric, eps))


def _alexandroff_stage(n: int) -> Iterator[Entry]:
    for t_idx, opens in enumerate(enumerate_topologies(n, True)):
        space = GroundSpace.create(n, opens)
        for top in space.closed:
            yield _alexandroff_entry(f"n{n}/alexandroff/t{t_idx}/i{top}", space, top)


_STAGES = {
    "table": _table_stage,
    "point_relation": _point_relation_stage,
    "point_relation_partition": _point_relation_partition_stage,
    "gap": _gap_stage,
    "alexandroff": _alexandroff_stage,
}


@lru_cache(maxsize=None)
def _exhaustive_stage(kind: str, n: int) -> tuple[Entry, ...]:
    """A seed-independent stage, built once per process.

    It holds names, keys and the immutable spaces, ideals, point
    relations and metrics each `build` closes over; every `build()`
    makes a fresh model whose relation has not settled yet.
    """
    return tuple(_STAGES[kind](n))


def _random_topology(n: int, rng: random.Random) -> GroundSpace:
    """The topology generated by up to n + 1 random proper nonempty masks.

    U_p is the meet of the drawn masks that hold p (X if none), so the
    drawn family is never closed under union and intersection.
    """
    full = (1 << n) - 1
    ups = [full] * n
    for _ in range(rng.randrange(0, n + 2)):
        m = rng.randrange(1, full)
        for p in bits_of(m):
            ups[p] &= m
    return GroundSpace.from_minimal_neighbourhoods(ups)


def _sampled_stage(kind: str, n: int, rng: random.Random) -> Iterator[Entry]:
    if kind == "point_relation":
        pairs = _pair_order(n)
        space = GroundSpace.discrete(n)
        for s in range(SAMPLES_PER_STAGE):
            edges = rng.randrange(0, 1 << len(pairs))
            rel = PointRelation.from_pairs(n, [pairs[k] for k in bits_of(edges)])
            yield _point_relation_entry(f"n{n}/point_relation/sample{s}", space, rel)
        return
    for s in range(SAMPLES_PER_STAGE):
        if kind == "point_relation_partition":
            # Consecutive blocks of drawn sizes; each point's row is its block.
            rows: list[int] = []
            while len(rows) < n:
                size = rng.randrange(1, n - len(rows) + 1)
                rows += [((1 << size) - 1) << len(rows)] * size
            rel = PointRelation(tuple(rows))
            space = GroundSpace.from_minimal_neighbourhoods(rel.rows)
            yield _point_relation_entry(f"n{n}/point_relation_partition/sample{s}", space, rel)
        elif kind == "alexandroff":
            space = _random_topology(n, rng)
            top = space.closed[rng.randrange(len(space.closed))]
            yield _alexandroff_entry(f"n{n}/alexandroff/sample{s}", space, top)
        else:
            return


def _candidates(
    target: SearchTarget, seed: int
) -> Iterator[tuple[str, Optional[Key], _Build, bool]]:
    """The candidate stream: (name, key, build, exhaustive_stage).

    Within each n, kinds run in the fixed order of ALL_KINDS; exhaustive
    stages come out in canonical order, sampled stages in seeded order.
    """
    rng = random.Random(seed)
    for n in range(target.n_min, target.n_max + 1):
        for kind in ALL_KINDS:
            if n <= KIND_EXHAUSTIVE_CAPS[kind]:
                for name, key, build in _exhaustive_stage(kind, n):
                    yield name, key, build, True
            else:
                for name, key, build in _sampled_stage(kind, n, rng):
                    yield name, key, build, False


def candidate_models(target: SearchTarget, seed: int) -> Iterator[tuple[str, Model, bool]]:
    """The documented candidate stream: (name, model, exhaustive_stage)."""
    for name, _, build, exhaustive_stage in _candidates(target, seed):
        yield name, build(), exhaustive_stage


# -- per-target witness tests ------------------------------------------


def _test_basic_not_lodato(model: Model) -> Optional[Model]:
    rep = check_axioms(model.proximity)
    if rep.classification != CLASS_BASIC:
        return None
    a, b, c = rep.verdicts["P4"].witness
    return replace(
        model,
        subsets={"A": a, "B": b, "C": c},
        replay=(
            {"op": "check_axioms", "args": {}, "expect": {"classification": CLASS_BASIC}},
        ),
    )


def _test_lodato_not_ef(model: Model) -> Optional[Model]:
    rep = check_axioms(model.proximity)
    if rep.classification != CLASS_LODATO:
        return None
    a, b = rep.verdicts["EF"].witness
    return replace(
        model,
        subsets={"A": a, "B": b},
        replay=(
            {"op": "check_axioms", "args": {}, "expect": {"classification": CLASS_LODATO}},
        ),
    )


def _test_far_not_sf(model: Model) -> Optional[Model]:
    # A far pair is strongly far iff it passes EF's separation test, and
    # on a basic relation the empty set never fails it, so the first
    # far-not-strongly-far pair of a Lodato relation is its EF witness.
    rep = check_axioms(model.proximity)
    if rep.classification != CLASS_LODATO:
        return None
    a, b = rep.verdicts["EF"].witness
    return replace(
        model,
        subsets={"A": a, "B": b},
        replay=(
            {"op": "far", "args": {"a": "A", "b": "B"}, "expect": {"value": True}},
            {"op": "strongly_far", "args": {"a": "A", "b": "B"}, "expect": {"holds": False}},
        ),
    )


def _test_sf_not_hat(model: Model) -> Optional[Model]:
    rep = check_sf_implies_hat(model.space, model.proximity)
    if not rep.applicable or not rep.violations:
        return None
    a, b = rep.violations[0]
    return replace(
        model,
        subsets={"A": a, "B": b},
        replay=(
            {"op": "strongly_far", "args": {"a": "A", "b": "B"}, "expect": {"holds": True}},
            {"op": "hat_strongly_far", "args": {"a": "A", "b": "B"}, "expect": {"holds": False}},
        ),
    )


def _test_lemma37_violation(model: Model) -> Optional[Model]:
    rep = check_inclusion_containment(model.space, model.proximity)
    if not rep.applicable or not rep.violations:
        return None
    u, w = rep.violations[0]
    return replace(
        model,
        subsets={"U": u, "W": w},
        replay=(
            {
                "op": "inclusion_containment",
                "args": {"u": "U", "w": "W"},
                "expect": {"inclusion": True, "containment": False},
            },
        ),
    )


def _test_incomparable(model: Model) -> Optional[Model]:
    prox = model.proximity
    # A relation is basic iff it has point rows (P0-P3 hold for a
    # reflexive, symmetric R; F10 for tables), so the rows gate the test
    # with no axiom report, and the miss halves compare off them without
    # building either one.
    if prox._point_rows() is None:
        return None
    if _compare_miss_halves(prox).verdict != VERDICT_INCOMPARABLE:
        return None
    return replace(
        model,
        replay=(
            {
                "op": "compare_topologies",
                "args": {"left": "far_miss_only", "right": "sf_miss_only"},
                "expect": {"verdict": VERDICT_INCOMPARABLE},
            },
        ),
    )


_TARGET_TESTS = {
    "basic-not-lodato": _test_basic_not_lodato,
    "lodato-not-ef": _test_lodato_not_ef,
    "far-not-strongly-far": _test_far_not_sf,
    "sf-not-hat": _test_sf_not_hat,
    "lemma37-violation": _test_lemma37_violation,
    "incomparable-topologies": _test_incomparable,
}


# -- the row gate ---------------------------------------------------------
#
# Per target, whether its test can return a witness for a relation with
# point rows R on `space` (see the module docstring). Such a relation is
# `basic` where R is not transitive and `ef` where it is, never `lodato`
# (F6). The Lodato sweeps need R transitive and compatible, and
# compatible is enough: cl{i} is closed, so j in R(i) = cl{i} puts
# R(j) = cl{j} inside R(i).


def _intransitive(space: GroundSpace, rows: tuple[int, ...]) -> bool:
    return not _rows_transitive(rows)


def _never(space: GroundSpace, rows: tuple[int, ...]) -> bool:
    return False


_TARGET_GATES = {
    "basic-not-lodato": _intransitive,
    "lodato-not-ef": _never,
    "far-not-strongly-far": _never,
    "sf-not-hat": _rows_compatible,
    "lemma37-violation": _rows_compatible,
    "incomparable-topologies": _intransitive,
}


# -- the search loop ----------------------------------------------------


def search(
    target: SearchTarget | str,
    *,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> SearchOutcome:
    """Scan the target's candidate space for a witness.

    Returns witness-found with a replayable model, exhausted-no-witness
    when the documented space was fully enumerated, or budget-exhausted
    when the relation-evaluation budget ran out first (sampled stages
    always end in budget-exhausted if no witness turns up, since they do
    not exhaust anything). Every candidate is counted, in
    `models_checked` and with its 2^n (2^n + 1) / 2 pairs in
    `evaluations`. A candidate repeating an earlier one's (topology,
    point rows) key is not built, and neither is one whose rows the
    target's row gate rejects, since the target's test would find no
    witness in it. A table's key comes from its pairs once per process,
    and a table with no rows has key None and is never built.
    """
    if isinstance(target, str):
        target = SearchTarget(target)
    test = _TARGET_TESTS[target.name]
    gate = _TARGET_GATES[target.name]
    evaluations = 0
    models_checked = 0
    all_exhaustive = True
    notes = []
    tested: set[Key] = set()
    for name, key, build, exhaustive_stage in _candidates(target, seed):
        if evaluations >= budget:
            notes.append(f"budget ran out before {name}")
            return SearchOutcome(
                target, STATUS_BUDGET, budget, seed, evaluations, models_checked,
                notes=tuple(notes),
            )
        all_exhaustive = all_exhaustive and exhaustive_stage
        models_checked += 1
        # Reading the rows, or testing a twin, determines every pair.
        size = 1 << build.space.n
        evaluations += size * (size + 1) // 2
        # A keyless table is not basic, and every target's witness is;
        # a repeated key's twin was no witness.
        if key is None or key in tested:
            continue
        tested.add(key)
        if not gate(build.space, key[1]):
            continue
        witness = test(build())
        if witness is not None:
            return SearchOutcome(
                target, STATUS_WITNESS, budget, seed, evaluations, models_checked,
                witness=witness, witness_name=name, notes=tuple(notes),
            )
    status = STATUS_EXHAUSTED if all_exhaustive else STATUS_BUDGET
    if not all_exhaustive:
        notes.append("sampled stages ran; candidate space not exhausted")
    return SearchOutcome(
        target, status, budget, seed, evaluations, models_checked, notes=tuple(notes)
    )


# -- replay ---------------------------------------------------------------


def _run_step(model: Model, step: dict) -> bool:
    op = step["op"]
    args = step.get("args", {})
    expect = step.get("expect", {})
    prox = model.proximity
    space = model.space

    def mask(key: str) -> int:
        return model.subset_mask(str(args[key]))

    if op == "check_axioms":
        rep = check_axioms(prox)
        return rep.classification == expect.get("classification", rep.classification)
    if op == "far":
        return prox.far(mask("a"), mask("b")) == expect.get("value", True)
    if op == "near":
        return prox.near(mask("a"), mask("b")) == expect.get("value", True)
    if op == "strongly_far":
        return strongly_far(prox, mask("a"), mask("b")).holds == expect.get("holds", True)
    if op == "hat_strongly_far":
        return hat_strongly_far(space, mask("a"), mask("b")).holds == expect.get("holds", True)
    if op == "compare_topologies":
        left = build_topology(space, str(args["left"]), prox=prox, ideal=model.ideal)
        right = build_topology(space, str(args["right"]), prox=prox, ideal=model.ideal)
        return compare(left, right).verdict == expect.get("verdict")
    if op == "inclusion_containment":
        u, w = mask("u"), mask("w")
        inclusion = far_miss_set(prox, u) & ~sf_miss_set(prox, w) == 0
        containment = u & ~w == 0
        return (inclusion, containment) == (
            expect.get("inclusion", True), expect.get("containment", False)
        )
    raise ToolkitError(f"malformed witness: unknown replay op {op!r}")


def replay(outcome_or_model: SearchOutcome | Model) -> bool:
    """Re-execute a witness's recorded calls against a fresh deserialization."""
    if isinstance(outcome_or_model, SearchOutcome):
        model = outcome_or_model.witness
        if model is None:
            raise ToolkitError("outcome carries no witness to replay")
    else:
        model = outcome_or_model
    if not model.replay:
        raise ToolkitError("malformed witness: empty replay script")
    fresh = modelfile.parse(modelfile.serialize(model))
    return all(_run_step(fresh, step) for step in fresh.replay)
