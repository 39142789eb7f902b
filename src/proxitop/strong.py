"""Strong inclusion, the strongly-far relation, and its topological twin.

`strongly_far(A, B)` asks for a separating subset C with A far from X\\C
and C far from B, on top of A far from B; the first such C in mask
order is the witness, and the degenerate ends (empty and full) are
flagged when they win. On a point-generated relation, with neighbourhood
map N, A is strongly far from B iff N(A) and N(B) are disjoint, and the
witness is N(A): one lookup per pair. On any other relation the witness
search sweeps all 2^n candidates. The sweeps over all far pairs are
statements about a proximity, so they read the neighbourhood table and
refuse a relation that is not basic (InvalidModelError at `proximity`).
`hat_strongly_far` is the purely topological variant:
A and B must sit inside disjoint regular-open sets, and the least one
holding B is int cl U(B), so the verdict is one AND of two table
lookups; like every hull table, it needs the space to be a topology.

Empty inputs get a distinguished "degenerate" verdict instead of the
vacuous one the raw definitions would produce, so theorem sweeps can
quantify over nonempty sets only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

from .errors import CapExceededError, DEFAULT_EXHAUSTIVE_CAP
from .proximity import (
    ProximityRelation, _far_rows, _require_neighbourhoods, check_axioms, is_compatible,
)
from .spaces import GroundSpace, all_masks, bits_of, regular_open_hull


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of a witness search.

    `witness` is the first witness in ascending mask order (tuples
    lexicographic); replaying the defining conditions on it succeeds
    whenever `holds`. `degenerate` marks empty inputs, for which no
    search was run. `degenerate_witness` marks a winning C that is the
    empty or the full set.
    """

    holds: bool
    witness: Optional[tuple[int, ...]] = None
    degenerate: bool = False
    degenerate_witness: bool = False


def strongly_included(prox: ProximityRelation, a: int, b: int) -> bool:
    """A far from the complement of B (written A << B)."""
    return prox.far(a, prox.space.complement(b))


def _raw_strongly_far(prox: ProximityRelation, a: int, b: int) -> Optional[int]:
    """First C (mask order) with A far X\\C and C far B, requiring A far B.

    Raw definition with no special handling of empty inputs; returns the
    witness mask or None.
    """
    if prox.near(a, b):
        return None
    full = prox.space.full_mask
    for c in all_masks(prox.space.n):
        if prox.far(a, full & ~c) and prox.far(c, b):
            return c
    return None


def strongly_far(prox: ProximityRelation, a: int, b: int) -> WitnessResult:
    """Is A strongly far from B, and which C shows it?

    On a point-generated relation the first C is N(A), and it works iff
    N(A) misses N(B): any C holding N(A) meets N(B) otherwise. Since B
    lies in N(B), A is then far from B too. Other relations run the
    2^n-candidate search. Needs a topology.
    """
    prox.space._require_topology()
    if a == 0 or b == 0:
        return WitnessResult(holds=False, degenerate=True)
    nbhd = prox._neighbourhoods()
    if nbhd is None:
        c = _raw_strongly_far(prox, a, b)
    else:
        c = None if nbhd[a] & nbhd[b] else nbhd[a]
    if c is None:
        return WitnessResult(holds=False)
    return WitnessResult(
        holds=True, witness=(c,), degenerate_witness=c in (0, prox.space.full_mask)
    )


def replay_strongly_far(prox: ProximityRelation, a: int, b: int, c: int) -> bool:
    """Check the defining conditions of a strongly-far witness directly."""
    full = prox.space.full_mask
    return prox.far(a, b) and prox.far(a, full & ~c) and prox.far(c, b)


def hat_strongly_far(space: GroundSpace, a: int, b: int) -> WitnessResult:
    """Do disjoint regular-open hulls int(cl E), int(cl C) cover A and B?

    The least regular open set holding B is minRO(B) = int cl U(B), U the
    smallest open superset: int cl U(B) is regular open and holds U(B),
    and a regular open V holding B holds U(B), so int cl U(B) ⊆ int cl V
    = V. So the pair holds iff minRO(A) misses minRO(B). The first mask e
    whose hull covers A lies inside V = minRO(A): for open V, V ∩ cl e ⊆
    cl(V ∩ e), so the submask e ∩ V covers A too. Its hull is then
    minRO(A), and the witness, the first raw (E, C) pair in lexicographic
    mask order, is the first mask covering A and the first covering B.
    """
    if a == 0 or b == 0:
        return WitnessResult(holds=False, degenerate=True)
    hulls, up = space.regular_open_hulls, space._open_hulls
    if hulls[up[a]] & hulls[up[b]]:
        return WitnessResult(holds=False)
    e = next(e for e, u in enumerate(hulls) if not a & ~u)
    c = next(c for c, v in enumerate(hulls) if not b & ~v)
    return WitnessResult(holds=True, witness=(e, c))


def replay_hat_strongly_far(space: GroundSpace, a: int, b: int, e: int, c: int) -> bool:
    u = regular_open_hull(space, e)
    v = regular_open_hull(space, c)
    return a & ~u == 0 and b & ~v == 0 and u & v == 0


def derived_near_from_sf(prox: ProximityRelation) -> ProximityRelation:
    """The relation whose far part is exactly strongly-far.

    Built on the raw definition, so empty sets stay far through P1 of the
    underlying relation and the result can be fed back to check_axioms.
    On a point-generated base with rows R, {i} is strongly far from {j}
    iff R(i) misses R(j), and A from B iff N(A) misses N(B): the derived
    relation is generated by R∘R, whose rows are N(R(i)) (F2), so it
    settles on its neighbourhood table. On any other base it settles on
    a matrix read off the base's far rows: a far pair (a, b) is strongly
    far iff `flipped[a] & far[b]` (`_far_rows`). That build is dense, so
    past DEFAULT_EXHAUSTIVE_CAP points it raises CapExceededError.
    """

    def squared_rows() -> Optional[tuple[int, ...]]:
        rows = prox._point_rows()
        if rows is None:
            return None
        nbhd = prox._neighbourhoods()
        return tuple(nbhd[row] for row in rows)

    def matrix() -> list[int]:
        n = prox.space.n
        if n > DEFAULT_EXHAUSTIVE_CAP:
            raise CapExceededError("derived_near_from_sf", n, DEFAULT_EXHAUSTIVE_CAP)
        far, flipped = _far_rows(prox)
        everything = (1 << (1 << n)) - 1
        return [
            everything ^ sum(1 << b for b in bits_of(far_a) if flipped_a & far[b])
            for far_a, flipped_a in zip(far, flipped)
        ]

    return ProximityRelation(
        prox.space, "derived-sf", {"base": prox}, point_rows=squared_rows, matrix=matrix
    )


def _far_pairs(nbhd: list[int], strong: bool) -> Iterator[tuple[int, int]]:
    """Every far pair (a, b) of nonempty masks that is strongly far, or
    every one that is not, ascending, read off the neighbourhood table N.

    The far partners of a are the nonempty submasks of X\\N(a), and b is
    strongly far iff it misses N(N(a)) (F1). So the strongly-far partners
    are the nonempty submasks of X\\N(N(a)), and the others exist only
    where N(N(a)) leaves N(a).
    """
    full = len(nbhd) - 1
    for a in range(1, len(nbhd)):
        outside = full ^ nbhd[a]
        reach = nbhd[nbhd[a]] & outside
        if strong:
            outside ^= reach
        elif not reach:
            continue
        b = outside & -outside
        while b:
            if strong or b & reach:
                yield a, b
            b = (b - outside) & outside


@dataclass(frozen=True)
class LodatoSweepReport:
    """A sweep over a compatible Lodato relation, or why it was skipped.

    `violations` are the (a, b) mask pairs the sweep's law fails on.
    """

    applicable: bool
    reason: str
    pairs_checked: int = 0
    violations: tuple[tuple[int, int], ...] = ()

    @property
    def ok(self) -> bool:
        return self.applicable and not self.violations


def _lodato_sweep_skipped(
    space: GroundSpace, prox: ProximityRelation, sweep: str
) -> Optional[LodatoSweepReport]:
    """The skipped report when `prox` is not a compatible Lodato relation on
    `space`, else None; a space past DEFAULT_EXHAUSTIVE_CAP raises instead."""
    if prox.space is not space and prox.space != space:
        return LodatoSweepReport(False, "relation lives on a different space")
    if space.n > DEFAULT_EXHAUSTIVE_CAP:
        raise CapExceededError(sweep, space.n, DEFAULT_EXHAUSTIVE_CAP)
    report = check_axioms(prox)
    if not report.is_lodato:
        return LodatoSweepReport(False, f"relation is {report.classification}, not lodato")
    if not is_compatible(prox):
        return LodatoSweepReport(False, "relation is not compatible with the topology")
    return None


def check_sf_implies_hat(space: GroundSpace, prox: ProximityRelation) -> LodatoSweepReport:
    """Check that every strongly-far pair is hat-strongly-far.

    Precondition: the relation is Lodato and compatible with the space's
    topology (the implication leans on P4 plus topological closure); if
    not, the check is skipped and the report says why. The strongly-far
    partners of each a are visited in ascending order: they are the
    nonempty submasks of X\\N(N(a)), which a Lodato relation
    (N(N(a)) = N(a)) makes all of a's far partners. A pair is
    hat-strongly-far iff int cl U(a) misses int cl U(b) (see
    `hat_strongly_far`). DEFAULT_EXHAUSTIVE_CAP bounds the sweep.
    """
    skipped = _lodato_sweep_skipped(space, prox, "check_sf_implies_hat")
    if skipped is not None:
        return skipped
    nbhd = _require_neighbourhoods(prox, "check_sf_implies_hat")
    hulls, up = space.regular_open_hulls, space._open_hulls
    violations = tuple(
        (a, b) for a, b in _far_pairs(nbhd, True) if hulls[up[a]] & hulls[up[b]]
    )
    return LodatoSweepReport(True, "checked", space.full_mask ** 2, violations)


@dataclass(frozen=True)
class FarVsSfReport:
    """Partition of the nonempty far pairs by strong farness."""

    far_and_strongly_far: int
    far_not_strongly_far: int
    examples_strongly_far: tuple[tuple[int, int], ...]
    examples_not_strongly_far: tuple[tuple[int, int], ...]

    @property
    def collapse(self) -> bool:
        """True when far and strongly-far coincide (the EF situation)."""
        return self.far_not_strongly_far == 0


def check_far_vs_sf(prox: ProximityRelation, *, examples_cap: int = 5) -> FarVsSfReport:
    """Classify every far pair of nonempty subsets by strong farness.

    Reads the neighbourhood table, so the relation must be a basic
    proximity (InvalidModelError at `proximity` otherwise). The far
    partners of a nonempty a are the nonempty masks inside X\\N(a), and
    its strongly-far ones those inside X\\N(N(a)), so both counts are
    one pass over N (F9). Each example list comes from the ascending walk
    over its kind of far pair (`_far_pairs`), stopped once it holds
    min(`examples_cap`, its count). Needs a topology.
    """
    prox.space._require_topology()
    n = prox.space.n
    nbhd = _require_neighbourhoods(prox, "check_far_vs_sf")
    far = both = 0
    for na in nbhd[1:]:
        far += (1 << n - na.bit_count()) - 1
        both += (1 << n - nbhd[na].bit_count()) - 1

    def first(strong: bool, count: int) -> tuple[tuple[int, int], ...]:
        return tuple(islice(_far_pairs(nbhd, strong), max(0, min(examples_cap, count))))

    return FarVsSfReport(both, far - both, first(True, both), first(False, far - both))
