"""Hyperspace CL(X) and its hit-and-miss topologies.

CL(X) is the set of nonempty closed subsets, enumerated in ascending
mask order; a family of hyperpoints is then a plain int, one bit per
hyperpoint. The space caches, per mask, the family of the hyperpoints
meeting it, so each hit, miss, far-miss and sf-miss family is one
lookup. Far-miss and sf-miss are defined for a proximity, so they
refuse a relation that is not basic.

Every topology here joins the hit sets of every open, or none, with a
miss half {missing[N(C)] : C in B}, one (N, B) pair per kind (`SPECS`).
On a finite space each hyperpoint has a minimal neighbourhood, and
these are the smallest base: `_closed_form_neighbourhoods` reads them
off one closed form (F11), so refinement is decided pointwise without
enumerating a base. The closed form reads the space's open hulls, so it
raises InvalidTopologyError on a family that is not a topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    CapExceededError,
    DEFAULT_HYPER_CAP,
    HyperspaceMismatchError,
    NotOpenError,
    ToolkitError,
)
from .proximity import CompactnessIdeal, ProximityRelation, _require_neighbourhoods
from .spaces import GroundSpace, bits_of
from .strong import LodatoSweepReport, _lodato_sweep_skipped


def enumerate_cl(space: GroundSpace, *, cap: int = DEFAULT_HYPER_CAP) -> tuple[int, ...]:
    """All nonempty closed masks, ascending: the hyperpoints of CL(X)."""
    cl = space.nonempty_closed
    if len(cl) > cap:
        raise CapExceededError("enumerate_cl", len(cl), cap)
    return cl


def _require_open(space: GroundSpace, mask: int, what: str) -> None:
    if not space.is_open(mask):
        raise NotOpenError(f"{what} must be an open set, got {space.format(mask)}")


def _missing(space: GroundSpace, m: int) -> int:
    """The family of hyperpoints that miss m."""
    return (1 << len(space.nonempty_closed)) - 1 ^ space._hyperpoints_meeting[m]


def hit_set(space: GroundSpace, v: int, *, cap: int = DEFAULT_HYPER_CAP) -> int:
    """{ E in CL(X) : E meets V }, for open V; `cap` bounds |CL(X)|."""
    _require_open(space, v, "hit parameter")
    enumerate_cl(space, cap=cap)
    return space._hyperpoints_meeting[v]


def miss_set(space: GroundSpace, w: int, *, cap: int = DEFAULT_HYPER_CAP) -> int:
    """{ E in CL(X) : E inside W }, for open W; `cap` bounds |CL(X)|.

    E lies inside W iff it misses X\\W.
    """
    _require_open(space, w, "miss parameter")
    enumerate_cl(space, cap=cap)
    return _missing(space, space.complement(w))


def far_miss_set(
    prox: ProximityRelation, a: int, *, cap: int = DEFAULT_HYPER_CAP
) -> int:
    """{ E in CL(X) : E far from X\\A }, for open A; `cap` bounds |CL(X)|.

    With A = X the complement is empty and every hyperpoint is included,
    matching the convention that everything is far from the empty set.
    E is far from X\\A iff E misses N(X\\A), so the family is read off
    the neighbourhood table with no per-hyperpoint work. Needs a basic
    proximity.
    """
    space = prox.space
    _require_open(space, a, "far-miss parameter")
    enumerate_cl(space, cap=cap)
    nbhd = _require_neighbourhoods(prox, "far_miss_set")
    return _missing(space, nbhd[space.complement(a)])


def sf_miss_set(
    prox: ProximityRelation, a: int, *, cap: int = DEFAULT_HYPER_CAP
) -> int:
    """{ E in CL(X) : E strongly far from X\\A }, for open A.

    `cap` bounds |CL(X)|. With B = X\\A, E is strongly far from B iff
    N(E) misses N(B), that is iff E misses N(N(B)): the far-miss family
    of the squared relation R∘R, read off the neighbourhood table. Needs
    a basic proximity.
    """
    space = prox.space
    _require_open(space, a, "strongly-far-miss parameter")
    enumerate_cl(space, cap=cap)
    nbhd = _require_neighbourhoods(prox, "sf_miss_set")
    return _missing(space, nbhd[nbhd[space.complement(a)]])


@dataclass(frozen=True)
class HyperTopologyBase:
    """A subbase on CL(X) and the topology it generates.

    The subbase is its distinct family masks, ascending, each over `cl`,
    the space's nonempty closed sets. The topology is given by its
    minimal neighbourhoods, one per hyperpoint: the intersection of the
    subbase members through it, the full family where there is none.
    """

    space: GroundSpace
    kind: str
    subbase: tuple[int, ...]
    minimal_neighbourhoods: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def cl(self) -> tuple[int, ...]:
        """The hyperpoints the family masks refer to, ascending."""
        return self.space.nonempty_closed

    @property
    def full_family(self) -> int:
        return (1 << len(self.cl)) - 1

    @property
    def base(self) -> tuple[int, ...]:
        """The distinct minimal neighbourhoods, ascending: the smallest base."""
        return tuple(sorted(set(self.minimal_neighbourhoods)))


# Each kind as its (N, B) pair: the miss half is {missing[N(C)] : C in B}
# (F11), N being the identity, the relation's neighbourhood table or N∘N,
# and B every closed set, the closed subsets of the ideal's top or a family.
SPECS = {
    "vietoris": ("identity", "closed"),
    "fell": ("identity", "ideal"),
    "hit_and_miss": ("identity", "family"),
    "far_miss": ("N", "closed"),
    "sf_miss": ("N∘N", "closed"),
}
TOPOLOGY_KINDS = tuple(SPECS)
MISS_ONLY_KINDS = ("far_miss_only", "sf_miss_only")


def _closed_form_neighbourhoods(
    space: GroundSpace, near: Sequence[int], b: int | tuple[int, ...], hits: bool
) -> tuple[int, ...]:
    """Minimal neighbourhoods, per hyperpoint E, of the topology with miss
    half {missing[N(C)] : C in B}, N the additive symmetric table `near`,
    joined with the hit sets of every open if `hits` (F11).

    E misses N(C) iff C misses N(E), so the miss members through E meet
    in the hyperpoints missing N(V), V the union of the members of B
    inside X \\ N(E). B is a tuple of closed sets, or an int top standing
    for the closed subsets of top, whose V is top \\ U(N(E)) (F4), U the
    smallest-open-superset table. The hit sets through E meet in those
    meeting U({x}) for each x in E.
    """
    hull, meeting = space._open_hulls, space._hyperpoints_meeting
    every = (1 << len(space.nonempty_closed)) - 1
    point_hits = [meeting[hull[1 << x]] for x in range(space.n)]
    closed_below = isinstance(b, int)
    mins = []
    for e in space.nonempty_closed:
        ne = near[e]
        if closed_below:
            v = b & ~hull[ne]
        else:
            v = 0
            for c in b:
                if not c & ne:
                    v |= c
        m = every ^ meeting[near[v]]
        for x in bits_of(e) if hits else ():
            m &= point_hits[x]
        mins.append(m)
    return tuple(mins)


def build_topology(
    space: GroundSpace,
    kind: str,
    *,
    prox: Optional[ProximityRelation] = None,
    ideal: Optional[CompactnessIdeal] = None,
    family: Optional[tuple[int, ...]] = None,
    hyper_cap: int = DEFAULT_HYPER_CAP,
) -> HyperTopologyBase:
    """The hit sets of every open joined with the miss half of the kind's
    (N, B) in `SPECS`, as a subbase and minimal neighbourhoods on CL(X).

    far_miss and sf_miss need `prox`, a basic proximity (any other
    relation raises InvalidModelError at `proximity`), fell needs
    `ideal` and hit_and_miss a `family` of closed sets. The `_only`
    variants (far_miss_only, sf_miss_only) drop the hit half, which is
    what comparing the pure miss topologies calls for.
    """
    hits = kind not in MISS_ONLY_KINDS
    name = kind if hits else kind[: -len("_only")]
    if name not in SPECS:
        raise ToolkitError(f"unknown topology kind {kind!r}")
    near_name, b_name = SPECS[name]
    enumerate_cl(space, cap=hyper_cap)  # refuses a family that is not a topology

    near: Sequence[int] = range(1 << space.n)
    if near_name != "identity":
        if prox is None:
            raise ToolkitError(f"{name} topology needs a proximity")
        near = _require_neighbourhoods(prox, f"{name} topology")
        if near_name == "N∘N":
            near = [near[m] for m in near]
    b: int | tuple[int, ...] = space.full_mask
    if b_name == "ideal":
        if ideal is None:
            raise ToolkitError(f"{name} topology needs a compactness ideal")
        b = ideal.top
    elif b_name == "family":
        if family is None:
            raise ToolkitError(f"{name} topology needs a family of closed sets")
        for c in family:
            if not space.is_closed(c):
                raise ToolkitError(f"family member {space.format(c)} is not closed")
        b = family

    members = [c for c in space.closed if not c & ~b] if isinstance(b, int) else b
    families = {space._hyperpoints_meeting[v] for v in space.opens} if hits else set()
    families.update(_missing(space, near[c]) for c in members)
    mins = _closed_form_neighbourhoods(space, near, b, hits)
    return HyperTopologyBase(space, kind, tuple(sorted(families)), mins)


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


def _compare_miss_halves(prox: ProximityRelation) -> ComparisonResult:
    """`compare` of the far_miss_only and sf_miss_only topologies of a
    basic relation, building neither subbase.

    sf-miss(R) is far-miss(R∘R) (F2), so where N∘N = N the halves are
    equal and neither is built.
    """
    space = prox.space
    space._require_topology()  # the equal-halves return reads no hull
    near = _require_neighbourhoods(prox, "compare")
    twice = [near[m] for m in near]
    if twice == near:
        return _comparison(RefinesResult(True), RefinesResult(True))
    far, sf = (
        _closed_form_neighbourhoods(space, nbhd, space.full_mask, False)
        for nbhd in (near, twice)
    )
    return _comparison(_refines_pointwise(far, sf), _refines_pointwise(sf, far))


# -- the inclusion law relating the miss halves -----------------------


def _inclusion_violations(space: GroundSpace, nbhd: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The open pairs (U, W), ascending, with far-miss(U) inside sf-miss(W)
    but U not inside W, for the relation with neighbourhood table N.

    With B = X\\U and C = X\\W, the closed sets far from B are those inside
    K_U = X \\ U(N(B)), itself closed, and those strongly far from C are
    those missing N(N(C)); so far-miss(U) lies inside sf-miss(W) iff K_U
    misses N(N(C)), one AND per pair with no family built.
    """
    hull, full, opens = space._open_hulls, space.full_mask, space.opens
    kept = [full ^ hull[nbhd[full ^ u]] for u in opens]
    reach = [nbhd[nbhd[full ^ w]] for w in opens]
    return tuple(
        (u, w)
        for u, k in zip(opens, kept)
        for w, r in zip(opens, reach)
        if not k & r and u & ~w
    )


def check_inclusion_containment(
    space: GroundSpace, prox: ProximityRelation
) -> LodatoSweepReport:
    """Sweep of: far-miss(U) inside sf-miss(W) forces U inside W.

    Equivalently, with B = X\\U and C = X\\W closed: if every closed set
    far from B is strongly far from C, then C is contained in B. Holds
    for compatible Lodato relations; the check is skipped otherwise. The
    violations are (U, W) open pairs, found by `_inclusion_violations`.
    """
    skipped = _lodato_sweep_skipped(space, prox, "check_inclusion_containment")
    if skipped is not None:
        return skipped
    nbhd = _require_neighbourhoods(prox, "check_inclusion_containment")
    violations = _inclusion_violations(space, nbhd)
    return LodatoSweepReport(True, "checked", len(space.opens) ** 2, violations)
