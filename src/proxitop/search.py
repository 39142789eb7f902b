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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Optional

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
    alexandroff_proximity,
    check_axioms,
    gap_proximity,
    point_generated_proximity,
    table_proximity,
)
from .spaces import GroundSpace, Metric, all_masks, bits_of
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
        opens = {0}
        for u in up:
            opens |= {m | u for m in opens}
        found.append(tuple(sorted(opens)))
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


def _table_models(n: int) -> Iterator[tuple[str, Model]]:
    """Explicit tables over the nonempty-pair space, discrete topology."""
    space = GroundSpace.discrete(n)
    nonempty = [m for m in all_masks(n) if m]
    pair_space = [
        (a, b) for ai, a in enumerate(nonempty) for b in nonempty[ai:]
    ]
    for table_id in range(1 << len(pair_space)):
        pairs = [pair_space[k] for k in bits_of(table_id)]
        prox = table_proximity(space, pairs)
        yield f"n{n}/table/{table_id}", Model(space, prox)


def _point_relation_models(n: int) -> Iterator[tuple[str, Model]]:
    space = GroundSpace.discrete(n)
    for idx, rel in enumerate(enumerate_point_relations(n)):
        prox = point_generated_proximity(space, rel)
        yield f"n{n}/point_relation/{idx}", Model(space, prox)


def _partition_space_of(rel: PointRelation) -> Optional[GroundSpace]:
    """The partition topology of a transitive relation's classes."""
    if not rel.is_transitive():
        return None
    seen = 0
    blocks = []
    for i in range(rel.n):
        if seen & (1 << i):
            continue
        blocks.append(list(bits_of(rel.rows[i])))
        seen |= rel.rows[i]
    return GroundSpace.from_partition(blocks)


def _point_relation_partition_models(n: int) -> Iterator[tuple[str, Model]]:
    """Transitive relations on their induced partition topology (compatible)."""
    for idx, rel in enumerate(enumerate_point_relations(n)):
        space = _partition_space_of(rel)
        if space is None:
            continue
        prox = point_generated_proximity(space, rel)
        yield f"n{n}/point_relation_partition/{idx}", Model(space, prox)


def _gap_models(n: int) -> Iterator[tuple[str, Model]]:
    if n < 2:
        return
    space = GroundSpace.discrete(n)
    metric = Metric.line(n)
    epsilons = (0,) + metric.distance_values()
    for k, eps in enumerate(epsilons):
        prox = gap_proximity(space, metric, eps)
        yield f"n{n}/gap/line-eps{k}", Model(space, prox, metric=metric)


def _alexandroff_models(n: int) -> Iterator[tuple[str, Model]]:
    for t_idx, opens in enumerate(enumerate_topologies(n, True)):
        space = GroundSpace.create(n, opens)
        for top in space.closed:
            ideal = CompactnessIdeal.principal(space, top)
            prox = alexandroff_proximity(space, ideal)
            yield f"n{n}/alexandroff/t{t_idx}/i{top}", Model(space, prox, ideal=ideal)


def _random_topology(n: int, rng: random.Random) -> GroundSpace:
    full = (1 << n) - 1
    opens = {0, full}
    for _ in range(rng.randrange(0, n + 2)):
        opens.add(rng.randrange(1, full))
    changed = True
    while changed:
        changed = False
        for a in list(opens):
            for b in list(opens):
                for m in (a | b, a & b):
                    if m not in opens:
                        opens.add(m)
                        changed = True
    return GroundSpace.create(n, opens)


def _sampled_models(kind: str, n: int, rng: random.Random) -> Iterator[tuple[str, Model]]:
    for s in range(SAMPLES_PER_STAGE):
        if kind == "point_relation":
            pairs = _pair_order(n)
            edges = rng.randrange(0, 1 << len(pairs))
            rel = PointRelation.from_pairs(n, [pairs[k] for k in bits_of(edges)])
            space = GroundSpace.discrete(n)
            yield f"n{n}/point_relation/sample{s}", Model(
                space, point_generated_proximity(space, rel)
            )
        elif kind == "point_relation_partition":
            sizes = []
            left = n
            while left:
                take = rng.randrange(1, left + 1)
                sizes.append(take)
                left -= take
            blocks, at = [], 0
            for size in sizes:
                blocks.append(list(range(at, at + size)))
                at += size
            rel = PointRelation.from_pairs(
                n, [(i, j) for block in blocks for i in block for j in block if i < j]
            )
            space = _partition_space_of(rel)
            yield f"n{n}/point_relation_partition/sample{s}", Model(
                space, point_generated_proximity(space, rel)
            )
        elif kind == "alexandroff":
            space = _random_topology(n, rng)
            top = space.closed[rng.randrange(len(space.closed))]
            ideal = CompactnessIdeal.principal(space, top)
            yield f"n{n}/alexandroff/sample{s}", Model(
                space, alexandroff_proximity(space, ideal), ideal=ideal
            )
        else:
            return


def candidate_models(target: SearchTarget, seed: int) -> Iterator[tuple[str, Model, bool]]:
    """The documented candidate stream: (name, model, exhaustive_stage).

    Within each n, kinds run in the fixed order of ALL_KINDS; exhaustive
    stages come out in canonical order, sampled stages in seeded order.
    """
    rng = random.Random(seed)
    for n in range(target.n_min, target.n_max + 1):
        for kind in ALL_KINDS:
            if n <= KIND_EXHAUSTIVE_CAPS[kind]:
                gen = {
                    "table": _table_models,
                    "point_relation": _point_relation_models,
                    "point_relation_partition": _point_relation_partition_models,
                    "gap": _gap_models,
                    "alexandroff": _alexandroff_models,
                }[kind](n)
                for name, model in gen:
                    yield name, model, True
            else:
                for name, model in _sampled_models(kind, n, rng):
                    yield name, model, False


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
    rep = check_axioms(prox)
    if not rep.is_basic:
        return None
    # A basic relation, tables included, is generated by its singleton
    # nearness, so the miss halves compare without building either one.
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
    not exhaust anything).
    """
    if isinstance(target, str):
        target = SearchTarget(target)
    test = _TARGET_TESTS[target.name]
    evaluations = 0
    models_checked = 0
    all_exhaustive = True
    notes = []
    for name, model, exhaustive_stage in candidate_models(target, seed):
        if evaluations >= budget:
            notes.append(f"budget ran out before {name}")
            return SearchOutcome(
                target, STATUS_BUDGET, budget, seed, evaluations, models_checked,
                notes=tuple(notes),
            )
        all_exhaustive = all_exhaustive and exhaustive_stage
        witness = test(model)
        evaluations += model.proximity.eval_count
        models_checked += 1
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
        return prox.far(mask("a"), mask("b")) == bool(expect.get("value", True))
    if op == "near":
        return prox.near(mask("a"), mask("b")) == bool(expect.get("value", True))
    if op == "strongly_far":
        return strongly_far(prox, mask("a"), mask("b")).holds == bool(expect.get("holds", True))
    if op == "hat_strongly_far":
        return hat_strongly_far(space, mask("a"), mask("b")).holds == bool(
            expect.get("holds", True)
        )
    if op == "compare_topologies":
        left = build_topology(space, str(args["left"]), prox=prox, ideal=model.ideal)
        right = build_topology(space, str(args["right"]), prox=prox, ideal=model.ideal)
        return compare(left, right).verdict == expect.get("verdict")
    if op == "inclusion_containment":
        u, w = mask("u"), mask("w")
        inclusion = far_miss_set(prox, u).mask & ~sf_miss_set(prox, w).mask == 0
        containment = u & ~w == 0
        return inclusion == bool(expect.get("inclusion", True)) and containment == bool(
            expect.get("containment", False)
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
