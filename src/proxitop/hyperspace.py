"""Hyperspace CL(X) and the hit / miss / far-miss subbase machinery.

CL(X) is the set of nonempty closed subsets, enumerated in ascending
mask order; a family of hyperpoints is then itself a bitmask with one
bit per hyperpoint. The space caches, per point, the family of the
hyperpoints through it, so the hyperpoints meeting a mask are an OR of
those families: hit and miss families, and the far-miss and sf-miss
families of a point-generated relation, cost one OR per point. A topology on CL(X) is represented by its subbase
alone. On a finite space every hyperpoint p has a minimal neighbourhood,
the intersection of the subbase members through p, and these are the
smallest base of the topology: an open set is exactly a union of them.
Refinement is therefore decided pointwise without enumerating a base:
left refines right iff each hyperpoint's minimal left neighbourhood lies
inside its minimal right one. For a basic relation the minimal
neighbourhoods of the two miss-only topologies have a closed form in the
relation's neighbourhood map, so comparing the miss halves builds
neither subbase (`_miss_only_neighbourhoods`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import (
    CapExceededError,
    DEFAULT_EXHAUSTIVE_CAP,
    DEFAULT_HYPER_CAP,
    HyperspaceMismatchError,
    NotOpenError,
    ToolkitError,
)
from .proximity import (
    CompactnessIdeal,
    ProximityRelation,
    _singleton_rows,
    check_axioms,
    is_compatible,
)
from .spaces import GroundSpace, bits_of, union_table


def enumerate_cl(space: GroundSpace, *, cap: int = DEFAULT_HYPER_CAP) -> tuple[int, ...]:
    """All nonempty closed masks, ascending: the hyperpoints of CL(X)."""
    cl = space.nonempty_closed
    if len(cl) > cap:
        raise CapExceededError("enumerate_cl", len(cl), cap)
    return cl


@dataclass(frozen=True)
class HyperFamily:
    """A set of hyperpoints, as a bitmask over the enumerated CL(X).

    `provenance` records which generators produced it, as (tag, parameter
    mask) pairs; families that coincide as masks are merged and keep
    every tag.
    """

    mask: int
    provenance: tuple[tuple[str, int], ...] = ()


def _require_open(space: GroundSpace, mask: int, what: str) -> None:
    if not space.is_open(mask):
        raise NotOpenError(f"{what} must be an open set, got {space.format(mask)}")


def _meeting(space: GroundSpace, m: int) -> int:
    """The family of hyperpoints that meet m: an OR of per-point families."""
    through = space._hyperpoints_through
    family = 0
    for i in bits_of(m):
        family |= through[i]
    return family


def _missing(space: GroundSpace, m: int) -> int:
    """The family of hyperpoints that miss m."""
    return (1 << len(space.nonempty_closed)) - 1 ^ _meeting(space, m)


def hit_set(space: GroundSpace, v: int, *, cap: int = DEFAULT_HYPER_CAP) -> HyperFamily:
    """{ E in CL(X) : E meets V }, for open V; `cap` bounds |CL(X)|."""
    _require_open(space, v, "hit parameter")
    enumerate_cl(space, cap=cap)
    return HyperFamily(_meeting(space, v), (("hit", v),))


def miss_set(space: GroundSpace, w: int, *, cap: int = DEFAULT_HYPER_CAP) -> HyperFamily:
    """{ E in CL(X) : E inside W }, for open W; `cap` bounds |CL(X)|.

    E lies inside W iff it misses X\\W.
    """
    _require_open(space, w, "miss parameter")
    enumerate_cl(space, cap=cap)
    return HyperFamily(_missing(space, space.complement(w)), (("miss", w),))


def far_miss_set(
    prox: ProximityRelation, a: int, *, cap: int = DEFAULT_HYPER_CAP
) -> HyperFamily:
    """{ E in CL(X) : E far from X\\A }, for open A; `cap` bounds |CL(X)|.

    With A = X the complement is empty and every hyperpoint is included,
    matching the convention that everything is far from the empty set.
    On a point-generated relation E is far from X\\A iff E misses
    N(X\\A), so the family is read off the neighbourhood table with no
    per-hyperpoint work. Otherwise, up to DEFAULT_EXHAUSTIVE_CAP points,
    each hyperpoint E is one bit of the relation's dense near matrix, row
    E, column X\\A; past that cap the 4^n-bit matrix is not built and
    each pair goes through `near`.
    """
    space = prox.space
    _require_open(space, a, "far-miss parameter")
    cl = enumerate_cl(space, cap=cap)
    comp = space.complement(a)
    nbhd = prox._neighbourhoods()
    if nbhd is not None:
        return HyperFamily(_missing(space, nbhd[comp]), (("far-miss", a),))
    if space.n <= DEFAULT_EXHAUSTIVE_CAP:
        rows = prox.matrix()
        near_comp = [rows[e] >> comp & 1 for e in cl]
    else:
        near_comp = [prox.near(e, comp) for e in cl]
    mask = 0
    for idx, near in enumerate(near_comp):
        if comp == 0 or not near:
            mask |= 1 << idx
    return HyperFamily(mask, (("far-miss", a),))


def sf_miss_set(
    prox: ProximityRelation,
    a: int,
    *,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
    hyper_cap: int = DEFAULT_HYPER_CAP,
) -> HyperFamily:
    """{ E in CL(X) : E strongly far from X\\A }, for open A.

    `cap` bounds the point count, `hyper_cap` bounds |CL(X)|. With
    B = X\\A, a point-generated relation makes E strongly far from B iff
    N(E) misses N(B), that is iff E misses N(N(B)): the far-miss family of
    the squared relation R∘R, read off the neighbourhood table. Otherwise
    E is strongly far from B iff it is far from B and from some X\\C with
    C far from B; those X\\C are B's far row of the dense matrix,
    index-reversed, and only that one row is reversed per call.
    """
    space = prox.space
    _require_open(space, a, "strongly-far-miss parameter")
    if space.n > cap:
        raise CapExceededError("sf_miss_set", space.n, cap)
    cl = enumerate_cl(space, cap=hyper_cap)
    comp = space.complement(a)
    nbhd = prox._neighbourhoods()
    if nbhd is not None:
        return HyperFamily(_missing(space, nbhd[nbhd[comp]]), (("sf-miss", a),))
    rows = prox.matrix()
    size = 1 << space.n
    far_comp = ((1 << size) - 1) ^ rows[comp]
    sep = int(format(far_comp, f"0{size}b")[::-1], 2)
    mask = 0
    for idx, e in enumerate(cl):
        if comp == 0 or not rows[e] >> comp & 1 and sep & ~rows[e]:
            mask |= 1 << idx
    return HyperFamily(mask, (("sf-miss", a),))


@dataclass(frozen=True)
class HyperTopologyBase:
    """A subbase on CL(X) and the topology it generates.

    `cl` is the enumerated hyperspace the family masks refer to; the
    subbase is ascending and deduped, and the topology is read off its
    minimal neighbourhoods.
    """

    space: GroundSpace
    cl: tuple[int, ...]
    kind: str
    subbase: tuple[HyperFamily, ...]

    @property
    def full_family(self) -> int:
        return (1 << len(self.cl)) - 1

    @cached_property
    def minimal_neighbourhoods(self) -> tuple[int, ...]:
        """Per hyperpoint, the intersection of the subbase members through it.

        A hyperpoint no member contains gets the full family (the empty
        intersection).
        """
        mins = [self.full_family] * len(self.cl)
        for fam in self.subbase:
            rest = fam.mask
            while rest:
                low = rest & -rest
                idx = low.bit_length() - 1
                rest ^= low
                mins[idx] &= fam.mask
        return tuple(mins)

    @property
    def base(self) -> tuple[int, ...]:
        """The distinct minimal neighbourhoods, ascending: the smallest base."""
        return tuple(sorted(set(self.minimal_neighbourhoods)))


TOPOLOGY_KINDS = ("vietoris", "fell", "hit_and_miss", "far_miss", "sf_miss")
MISS_ONLY_KINDS = ("far_miss_only", "sf_miss_only")


def _dedup_subbase(families: list[HyperFamily]) -> tuple[HyperFamily, ...]:
    merged: dict[int, list[tuple[str, int]]] = {}
    order: list[int] = []
    for fam in families:
        if fam.mask not in merged:
            merged[fam.mask] = []
            order.append(fam.mask)
        merged[fam.mask].extend(fam.provenance)
    return tuple(HyperFamily(m, tuple(merged[m])) for m in sorted(order))


def build_topology(
    space: GroundSpace,
    kind: str,
    *,
    prox: Optional[ProximityRelation] = None,
    ideal: Optional[CompactnessIdeal] = None,
    family: Optional[tuple[int, ...]] = None,
    hyper_cap: int = DEFAULT_HYPER_CAP,
) -> HyperTopologyBase:
    """Build a hit-and-miss style topology on CL(X) from its subbase.

    Kinds join the hit sets of every open with a miss half:

      vietoris      miss sets of every open
      fell          miss sets of opens whose complement is in `ideal`
      hit_and_miss  miss sets of opens whose complement is in `family`
      far_miss      far-miss sets of every open (needs `prox`)
      sf_miss       strongly-far-miss sets of every open (needs `prox`)

    The `_only` variants (far_miss_only, sf_miss_only) drop the hit half,
    which is what comparing the pure miss topologies calls for.
    """
    include_hits = True
    miss_kind = kind
    if kind in MISS_ONLY_KINDS:
        include_hits = False
        miss_kind = kind[: -len("_only")]
    elif kind not in TOPOLOGY_KINDS:
        raise ToolkitError(f"unknown topology kind {kind!r}")

    cl = enumerate_cl(space, cap=hyper_cap)
    families: list[HyperFamily] = []
    if include_hits:
        families.extend(hit_set(space, v, cap=hyper_cap) for v in space.opens)

    if miss_kind == "vietoris":
        families.extend(miss_set(space, w, cap=hyper_cap) for w in space.opens)
    elif miss_kind == "fell":
        if ideal is None:
            raise ToolkitError("fell topology needs a compactness ideal")
        families.extend(
            miss_set(space, w, cap=hyper_cap)
            for w in space.opens
            if space.complement(w) in ideal
        )
    elif miss_kind == "hit_and_miss":
        if family is None:
            raise ToolkitError("hit_and_miss topology needs a family of closed sets")
        for c in family:
            if not space.is_closed(c):
                raise ToolkitError(f"family member {space.format(c)} is not closed")
        members = set(family)
        families.extend(
            miss_set(space, w, cap=hyper_cap)
            for w in space.opens
            if space.complement(w) in members
        )
    elif miss_kind == "far_miss":
        if prox is None:
            raise ToolkitError("far_miss topology needs a proximity")
        families.extend(far_miss_set(prox, a, cap=hyper_cap) for a in space.opens)
    elif miss_kind == "sf_miss":
        if prox is None:
            raise ToolkitError("sf_miss topology needs a proximity")
        families.extend(sf_miss_set(prox, a, hyper_cap=hyper_cap) for a in space.opens)

    return HyperTopologyBase(space, cl, kind, _dedup_subbase(families))


@dataclass(frozen=True)
class RefinesResult:
    refines: bool
    # on failure: (minimal right neighbourhood of p, hyperpoint index p)
    witness: Optional[tuple[int, int]] = None


def _check_same_hyperspace(left: HyperTopologyBase, right: HyperTopologyBase) -> None:
    if left.cl != right.cl:
        raise HyperspaceMismatchError(
            "bases enumerate different hyperspaces "
            f"({len(left.cl)} vs {len(right.cl)} hyperpoints)"
        )


def _refines_pointwise(finer: tuple[int, ...], coarser: tuple[int, ...]) -> RefinesResult:
    """Refinement read off two tuples of minimal neighbourhoods over one CL(X).

    A coarser-open set U is finer-open iff it contains the minimal finer
    neighbourhood of each of its hyperpoints, and the minimal coarser
    neighbourhood of p is the smallest coarser-open set through p. So the
    finer topology contains the coarser one iff minF(p) lies inside
    minC(p) for every p; on failure the witness is (minC(p), p) for the
    first such p in ascending order.
    """
    for idx, (fmin, cmin) in enumerate(zip(finer, coarser)):
        if fmin & ~cmin:
            return RefinesResult(False, (cmin, idx))
    return RefinesResult(True)


def refines(left: HyperTopologyBase, right: HyperTopologyBase) -> RefinesResult:
    """Does left's topology contain right's? Decided pointwise from the
    minimal neighbourhoods of both."""
    _check_same_hyperspace(left, right)
    return _refines_pointwise(left.minimal_neighbourhoods, right.minimal_neighbourhoods)


VERDICT_EQUAL = "equal"
VERDICT_LEFT_FINER = "left-strictly-finer"
VERDICT_RIGHT_FINER = "right-strictly-finer"
VERDICT_INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ComparisonResult:
    verdict: str
    left_refines_right: RefinesResult
    right_refines_left: RefinesResult


def _comparison(lr: RefinesResult, rl: RefinesResult) -> ComparisonResult:
    """Combine both refinement directions into one verdict."""
    if lr.refines and rl.refines:
        verdict = VERDICT_EQUAL
    elif lr.refines:
        verdict = VERDICT_LEFT_FINER
    elif rl.refines:
        verdict = VERDICT_RIGHT_FINER
    else:
        verdict = VERDICT_INCOMPARABLE
    return ComparisonResult(verdict, lr, rl)


def compare(left: HyperTopologyBase, right: HyperTopologyBase) -> ComparisonResult:
    """Both refinement directions and the verdict they give."""
    return _comparison(refines(left, right), refines(right, left))


def _miss_only_neighbourhoods(
    prox: ProximityRelation,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per hyperpoint of CL(X), its minimal far_miss_only and sf_miss_only
    neighbourhoods, without building either subbase.

    The caller guarantees that the relation is basic and its space a
    topology (U below is the smallest open superset only then); nothing
    here checks either, and on any other input the tuples are not those
    of `build_topology`.

    A basic relation on a finite set is generated by its singleton
    nearness R: with N(M) the union of R(i) over i in M, A is near B iff
    N(A) meets B, and A is strongly far from B iff N(N(A)) misses B, so
    the sf-miss half is the far-miss half of R∘R. The far-miss subbase
    members through a hyperpoint E are {E' : E' misses N(B)} for the
    closed B with E far from B, that is the closed B inside X\\N(E).
    Those are the closed subsets of K(N(E)) = X\\U(N(E)), U(M) being the
    smallest open superset of M, and N is additive, so their intersection
    is the member of K(N(E)) itself: the hyperpoints missing
    N(K(N(E))). With N∘N in place of N the same gives the sf-miss
    neighbourhood. These are the tuples `build_topology(...)
    .minimal_neighbourhoods` gives for the two miss-only kinds.
    """
    space = prox.space
    cl = enumerate_cl(space)
    near = union_table(_singleton_rows(space.n, prox.near))
    squared = [near[m] for m in near]
    # U(i), the smallest open set through i: the points whose closure holds i.
    up = [0] * space.n
    for p in range(space.n):
        for i in bits_of(space.closures[1 << p]):
            up[i] |= 1 << p
    hull = union_table(up)
    meeting = union_table(space._hyperpoints_through)
    full, every = space.full_mask, (1 << len(cl)) - 1

    def minimal(nbhd: list[int]) -> tuple[int, ...]:
        return tuple(every ^ meeting[nbhd[full ^ hull[nbhd[e]]]] for e in cl)

    return minimal(near), minimal(squared)


def _compare_miss_halves(prox: ProximityRelation) -> ComparisonResult:
    """`compare` of the far_miss_only and sf_miss_only topologies of a
    basic relation on a topology, read off `_miss_only_neighbourhoods`."""
    far, sf = _miss_only_neighbourhoods(prox)
    return _comparison(_refines_pointwise(far, sf), _refines_pointwise(sf, far))


# -- inclusion laws relating the miss halves ---------------------------


@dataclass(frozen=True)
class InclusionContainmentReport:
    """Sweep of: far-miss(U) inside sf-miss(W) forces U inside W.

    Equivalently, with B = X\\U and C = X\\W closed: if every closed set
    far from B is strongly far from C, then C is contained in B. Holds
    for compatible Lodato relations; the check is skipped otherwise.
    """

    applicable: bool
    reason: str
    pairs_checked: int = 0
    violations: tuple[tuple[int, int], ...] = ()  # (U, W) open pairs

    @property
    def ok(self) -> bool:
        return self.applicable and not self.violations


def check_inclusion_containment(
    space: GroundSpace,
    prox: ProximityRelation,
    *,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> InclusionContainmentReport:
    if prox.space is not space and prox.space != space:
        return InclusionContainmentReport(False, "relation lives on a different space")
    if space.n > cap:
        raise CapExceededError("check_inclusion_containment", space.n, cap)
    report = check_axioms(prox, cap=cap)
    if not report.is_lodato:
        return InclusionContainmentReport(
            False, f"relation is {report.classification}, not lodato"
        )
    if not is_compatible(prox):
        return InclusionContainmentReport(
            False, "relation is not compatible with the topology"
        )
    far_families = {a: far_miss_set(prox, a).mask for a in space.opens}
    sf_families = {a: sf_miss_set(prox, a, cap=cap).mask for a in space.opens}
    violations = []
    checked = 0
    for u in space.opens:
        for w in space.opens:
            checked += 1
            if far_families[u] & ~sf_families[w] == 0 and u & ~w:
                violations.append((u, w))
    return InclusionContainmentReport(True, "checked", checked, tuple(violations))


@dataclass(frozen=True)
class MissHalvesReport:
    """Per-model record of: sf-miss(H) inside far-miss(E) iff H inside E.

    The backward direction holds for every basic relation; the forward
    direction can fail on small models, and failures are reported as
    scope notes rather than errors.
    """

    backward_violations: tuple[tuple[int, int], ...]  # should stay empty
    forward_failures: tuple[tuple[int, int], ...]  # informational
    pairs_checked: int


def check_miss_half_inclusions(
    prox: ProximityRelation, *, cap: int = DEFAULT_EXHAUSTIVE_CAP
) -> MissHalvesReport:
    space = prox.space
    if space.n > cap:
        raise CapExceededError("check_miss_half_inclusions", space.n, cap)
    far_families = {a: far_miss_set(prox, a).mask for a in space.opens}
    sf_families = {a: sf_miss_set(prox, a, cap=cap).mask for a in space.opens}
    backward = []
    forward = []
    checked = 0
    for h in space.opens:
        for e in space.opens:
            checked += 1
            included = sf_families[h] & ~far_families[e] == 0
            if h & ~e == 0 and not included:
                backward.append((h, e))
            if included and h & ~e:
                forward.append((h, e))
    return MissHalvesReport(tuple(backward), tuple(forward), checked)
