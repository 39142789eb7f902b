"""Hyperspace CL(X) and the hit / miss / far-miss subbase machinery.

CL(X) is the set of nonempty closed subsets, enumerated in ascending
mask order; a family of hyperpoints is then a plain int, one bit per
hyperpoint. The space caches, per mask, the family of the hyperpoints
meeting it, so hit and miss families, and the far-miss and sf-miss
families of a proximity, are one lookup each. Far-miss and sf-miss are
defined for a proximity, so they refuse a relation that is not basic.

Every topology built here is a hit-and-miss topology: the hit sets of
every open, or none, joined with the miss sets of a family of closed
sets. On a finite space each hyperpoint E has a minimal neighbourhood,
and these are the smallest base: an open set is exactly a union of
them. The miss members through E meet in the hyperpoints missing V(E),
the union of the family's members that E misses, so every kind reads
them off one closed form (`_closed_form_neighbourhoods`), and
refinement is decided pointwise without enumerating a base. The
closed form reads the space's open hulls, so it raises
InvalidTopologyError on a family that is not a topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

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


TOPOLOGY_KINDS = ("vietoris", "fell", "hit_and_miss", "far_miss", "sf_miss")
MISS_ONLY_KINDS = ("far_miss_only", "sf_miss_only")


def _closed_form_neighbourhoods(
    space: GroundSpace, unions: Iterable[int], hits: bool
) -> tuple[int, ...]:
    """Minimal neighbourhoods, per hyperpoint E, of a hit-and-miss topology
    on CL(X), given V(E) in `unions`, joined with the hit sets of every
    open if `hits` (F11).

    Each miss member is the family of hyperpoints missing some set, and
    V(E) is the union of the sets that E misses, so the miss members
    through E meet in the hyperpoints missing V(E); the hit sets through
    E meet in those meeting U({x}) for each x in E, U being the
    smallest-open-superset table.
    """
    hull, meeting = space._open_hulls, space._hyperpoints_meeting
    every = (1 << len(space.nonempty_closed)) - 1
    point_hits = [meeting[hull[1 << x]] for x in range(space.n)]
    mins = []
    for e, v in zip(space.nonempty_closed, unions):
        m = every ^ meeting[v]
        for x in bits_of(e) if hits else ():
            m &= point_hits[x]
        mins.append(m)
    return tuple(mins)


def _missed_unions(space: GroundSpace, nbhd: Sequence[int], top: int) -> list[int]:
    """V(E), per hyperpoint E, for the miss half {E' : E' misses N(C)} over
    the closed C inside `top`, N additive and symmetric (F4).

    The C missing N(E) are the closed subsets of K = top \\ U(N(E)), so
    V(E) = N(K). N is the identity for Vietoris and Fell, the relation's
    neighbourhood table for far-miss and its square N∘N for sf-miss.
    """
    hull = space._open_hulls
    return [nbhd[top & ~hull[nbhd[e]]] for e in space.nonempty_closed]


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
    which is what comparing the pure miss topologies calls for. The far
    and sf kinds need a basic proximity; any other relation raises
    InvalidModelError at `proximity`.
    """
    include_hits = True
    miss_kind = kind
    if kind in MISS_ONLY_KINDS:
        include_hits = False
        miss_kind = kind[: -len("_only")]
    elif kind not in TOPOLOGY_KINDS:
        raise ToolkitError(f"unknown topology kind {kind!r}")

    enumerate_cl(space, cap=hyper_cap)
    families: list[int] = []
    if include_hits:
        families.extend(hit_set(space, v, cap=hyper_cap) for v in space.opens)

    if miss_kind in ("far_miss", "sf_miss"):
        if prox is None:
            raise ToolkitError(f"{miss_kind} topology needs a proximity")
        nbhd = _require_neighbourhoods(prox, f"{miss_kind} topology")
        if miss_kind == "far_miss":
            families.extend(far_miss_set(prox, a, cap=hyper_cap) for a in space.opens)
        else:
            families.extend(sf_miss_set(prox, a, cap=hyper_cap) for a in space.opens)
            nbhd = [nbhd[m] for m in nbhd]  # sf-miss is the far-miss half of N∘N
        unions = _missed_unions(space, nbhd, space.full_mask)
    elif miss_kind == "hit_and_miss":
        if family is None:
            raise ToolkitError("hit_and_miss topology needs a family of closed sets")
        for c in family:
            if not space.is_closed(c):
                raise ToolkitError(f"family member {space.format(c)} is not closed")
        families.extend(miss_set(space, space.complement(c), cap=hyper_cap) for c in family)
        unions = []
        for e in space.nonempty_closed:
            v = 0
            for c in family:
                if not c & e:
                    v |= c
            unions.append(v)
    else:
        top = space.full_mask
        if miss_kind == "fell":
            if ideal is None:
                raise ToolkitError("fell topology needs a compactness ideal")
            top = ideal.top
        families.extend(
            miss_set(space, w, cap=hyper_cap)
            for w in space.opens
            if miss_kind == "vietoris" or space.complement(w) in ideal
        )
        unions = _missed_unions(space, range(1 << space.n), top)

    mins = _closed_form_neighbourhoods(space, unions, include_hits)
    return HyperTopologyBase(space, kind, tuple(sorted(set(families))), mins)


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
        _closed_form_neighbourhoods(space, _missed_unions(space, nbhd, space.full_mask), False)
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
