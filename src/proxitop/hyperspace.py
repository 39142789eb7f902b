"""Hyperspace CL(X) and the hit / miss / far-miss subbase machinery.

CL(X) is the set of nonempty closed subsets, enumerated in ascending
mask order; a family of hyperpoints is then a plain int, one bit per
hyperpoint. The space caches, per mask, the family of the hyperpoints
meeting it, so hit and miss families, and the far-miss and sf-miss
families of a point-generated relation, are one lookup each. A topology
on CL(X) is represented by its subbase alone, its distinct family masks
in ascending order. On a finite space every hyperpoint p has a minimal
neighbourhood, the intersection of the subbase members through p, and
these are the smallest base of the topology: an open set is exactly a
union of them. Refinement is therefore decided pointwise without
enumerating a base: left refines right iff each hyperpoint's minimal
left neighbourhood lies inside its minimal right one. Those
neighbourhoods have a closed form (`_closed_form_neighbourhoods`) for
every kind but hit_and_miss and the miss halves of a relation with no
neighbourhood table, which walk the subbase; comparing the miss halves
of a basic relation builds neither. The closed form reads the space's
open hulls, so it raises InvalidTopologyError on a family that is not a
topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

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
)
from .spaces import GroundSpace, bits_of, union_table
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
    On a point-generated relation E is far from X\\A iff E misses
    N(X\\A), so the family is read off the neighbourhood table with no
    per-hyperpoint work. Otherwise each hyperpoint E costs one `near`
    call, which reads the dense matrix once it has been built.
    """
    space = prox.space
    _require_open(space, a, "far-miss parameter")
    cl = enumerate_cl(space, cap=cap)
    comp = space.complement(a)
    nbhd = prox._neighbourhoods()
    if nbhd is not None:
        return _missing(space, nbhd[comp])
    mask = 0
    for idx, e in enumerate(cl):
        if comp == 0 or not prox.near(e, comp):
            mask |= 1 << idx
    return mask


def sf_miss_set(
    prox: ProximityRelation, a: int, *, cap: int = DEFAULT_HYPER_CAP
) -> int:
    """{ E in CL(X) : E strongly far from X\\A }, for open A.

    `cap` bounds |CL(X)|. With B = X\\A, a point-generated relation
    makes E strongly far from B iff N(E) misses N(B), that is iff E misses
    N(N(B)): the far-miss family of the squared relation R∘R, read off the
    neighbourhood table. Otherwise E is strongly far from B iff it is far
    from B and from some X\\C with C far from B; those X\\C are B's far
    row of the dense matrix, index-reversed, and only that one row is
    reversed per call; DEFAULT_EXHAUSTIVE_CAP bounds that matrix.
    """
    space = prox.space
    _require_open(space, a, "strongly-far-miss parameter")
    cl = enumerate_cl(space, cap=cap)
    comp = space.complement(a)
    nbhd = prox._neighbourhoods()
    if nbhd is not None:
        return _missing(space, nbhd[nbhd[comp]])
    if space.n > DEFAULT_EXHAUSTIVE_CAP:
        raise CapExceededError("sf_miss_set", space.n, DEFAULT_EXHAUSTIVE_CAP)
    rows = prox.matrix()
    size = 1 << space.n
    far_comp = ((1 << size) - 1) ^ rows[comp]
    sep = int(format(far_comp, f"0{size}b")[::-1], 2)
    mask = 0
    for idx, e in enumerate(cl):
        if comp == 0 or not rows[e] >> comp & 1 and sep & ~rows[e]:
            mask |= 1 << idx
    return mask


@dataclass(frozen=True)
class HyperTopologyBase:
    """A subbase on CL(X) and the topology it generates.

    The subbase is its distinct family masks, ascending, each over `cl`,
    the space's nonempty closed sets. The topology is read off its
    minimal neighbourhoods, given as `closed_form` when known without it.
    """

    space: GroundSpace
    kind: str
    subbase: tuple[int, ...]
    closed_form: Optional[tuple[int, ...]] = field(default=None, compare=False, repr=False)

    @property
    def cl(self) -> tuple[int, ...]:
        """The hyperpoints the family masks refer to, ascending."""
        return self.space.nonempty_closed

    @property
    def full_family(self) -> int:
        return (1 << len(self.cl)) - 1

    @cached_property
    def minimal_neighbourhoods(self) -> tuple[int, ...]:
        """Per hyperpoint, the intersection of the subbase members through it.

        A hyperpoint no member contains gets the full family (the empty
        intersection).
        """
        if self.closed_form is not None:
            return self.closed_form
        mins = [self.full_family] * len(self.cl)
        for fam in self.subbase:
            rest = fam
            while rest:
                low = rest & -rest
                idx = low.bit_length() - 1
                rest ^= low
                mins[idx] &= fam
        return tuple(mins)

    @property
    def base(self) -> tuple[int, ...]:
        """The distinct minimal neighbourhoods, ascending: the smallest base."""
        return tuple(sorted(set(self.minimal_neighbourhoods)))


TOPOLOGY_KINDS = ("vietoris", "fell", "hit_and_miss", "far_miss", "sf_miss")
MISS_ONLY_KINDS = ("far_miss_only", "sf_miss_only")


def _closed_form_neighbourhoods(
    space: GroundSpace, nbhd: Sequence[int], top: int, hits: bool
) -> tuple[int, ...]:
    """Minimal neighbourhoods, per hyperpoint E, of the topology on CL(X)
    whose miss half is {E' : E' misses N(C)} for each closed C inside `top`,
    N additive and symmetric, joined with the hit sets of every open if `hits`.

    The C missing N(E) are the closed subsets of K = top \\ U(N(E)), U being
    the smallest-open-superset table, so the miss members through E meet in
    the hyperpoints missing N(K); the hit sets through E meet in those
    meeting U({x}) for each x in E. N is the identity for Vietoris and
    Fell, the relation's neighbourhood table for far-miss and its square
    N∘N for sf-miss.
    """
    hull, meeting = space._open_hulls, space._hyperpoints_meeting
    every = (1 << len(space.nonempty_closed)) - 1
    point_hits = [meeting[hull[1 << x]] for x in range(space.n)]
    mins = []
    for e in space.nonempty_closed:
        m = every ^ meeting[nbhd[top & ~hull[nbhd[e]]]]
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

    enumerate_cl(space, cap=hyper_cap)
    families: list[int] = []
    if include_hits:
        families.extend(hit_set(space, v, cap=hyper_cap) for v in space.opens)

    # N and top for `_closed_form_neighbourhoods`; N = None walks the subbase.
    nbhd: Optional[Sequence[int]] = range(1 << space.n)
    top = space.full_mask
    if miss_kind in ("far_miss", "sf_miss"):
        if prox is None:
            raise ToolkitError(f"{miss_kind} topology needs a proximity")
        nbhd = prox._neighbourhoods()
        if miss_kind == "far_miss":
            families.extend(far_miss_set(prox, a, cap=hyper_cap) for a in space.opens)
        else:
            families.extend(sf_miss_set(prox, a, cap=hyper_cap) for a in space.opens)
            if nbhd is not None:  # sf-miss is the far-miss half of N∘N
                nbhd = [nbhd[m] for m in nbhd]
    else:
        missable = None  # the closed complements that give miss sets; None for all
        if miss_kind == "fell":
            if ideal is None:
                raise ToolkitError("fell topology needs a compactness ideal")
            missable, top = ideal, ideal.top
        elif miss_kind == "hit_and_miss":
            if family is None:
                raise ToolkitError("hit_and_miss topology needs a family of closed sets")
            for c in family:
                if not space.is_closed(c):
                    raise ToolkitError(f"family member {space.format(c)} is not closed")
            missable, nbhd = set(family), None
        families.extend(
            miss_set(space, w, cap=hyper_cap)
            for w in space.opens
            if missable is None or space.complement(w) in missable
        )

    mins = None if nbhd is None else _closed_form_neighbourhoods(space, nbhd, top, include_hits)
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
    relation, building neither subbase. The caller guarantees that the
    relation is basic and its space a topology; nothing here checks either.
    """
    space = prox.space
    # A table is basic, so its singleton rows generate it.
    near = prox._neighbourhoods() or union_table(_singleton_rows(space.n, prox.near))
    far, sf = (
        _closed_form_neighbourhoods(space, nbhd, space.full_mask, False)
        for nbhd in (near, [near[m] for m in near])
    )
    return _comparison(_refines_pointwise(far, sf), _refines_pointwise(sf, far))


# -- the inclusion law relating the miss halves -----------------------


def check_inclusion_containment(
    space: GroundSpace, prox: ProximityRelation
) -> LodatoSweepReport:
    """Sweep of: far-miss(U) inside sf-miss(W) forces U inside W.

    Equivalently, with B = X\\U and C = X\\W closed: if every closed set
    far from B is strongly far from C, then C is contained in B. Holds
    for compatible Lodato relations; the check is skipped otherwise. The
    violations are (U, W) open pairs.
    """
    skipped = _lodato_sweep_skipped(space, prox, "check_inclusion_containment")
    if skipped is not None:
        return skipped
    opens = space.opens
    far = [far_miss_set(prox, u) for u in opens]
    sf = [sf_miss_set(prox, w) for w in opens]
    violations = tuple(
        (u, w)
        for u, far_u in zip(opens, far)
        for w, sf_w in zip(opens, sf)
        if far_u & ~sf_w == 0 and u & ~w
    )
    return LodatoSweepReport(True, "checked", len(opens) ** 2, violations)
