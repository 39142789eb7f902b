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
from typing import Iterator, Optional

from .errors import CapExceededError, DEFAULT_EXHAUSTIVE_CAP
from .proximity import ProximityRelation, _require_neighbourhoods, check_axioms, is_compatible
from .spaces import GroundSpace, all_masks, regular_open_hull


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
    settles on its neighbourhood table, never on the matrix.
    """

    def derived(a: int, b: int) -> bool:
        return _raw_strongly_far(prox, a, b) is None

    def squared_rows() -> Optional[tuple[int, ...]]:
        rows = prox._point_rows()
        if rows is None:
            return None
        nbhd = prox._neighbourhoods()
        return tuple(nbhd[row] for row in rows)

    return ProximityRelation(
        prox.space, "derived-sf", derived, {"base": prox.kind}, point_rows=squared_rows
    )


def _far_pairs(nbhd: list[int]) -> Iterator[tuple[int, int, bool]]:
    """Every far pair (a, b) of nonempty masks, ascending, and whether it is
    strongly far, read off the neighbourhood table N.

    The far partners of a are the nonempty submasks of X\\N(a), visited in
    ascending order, and b is strongly far iff it misses N(N(a)).
    """
    full = len(nbhd) - 1
    for a in range(1, len(nbhd)):
        outside = full ^ nbhd[a]
        reach = nbhd[nbhd[a]]
        b = outside & -outside
        while b:
            yield a, b, not b & reach
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
        (a, b)
        for a, b, strong in _far_pairs(nbhd)
        if strong and hulls[up[a]] & hulls[up[b]]
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
    proximity (InvalidModelError at `proximity` otherwise). Up to 3^n far
    pairs are visited, so DEFAULT_EXHAUSTIVE_CAP bounds the sweep. Needs
    a topology.
    """
    prox.space._require_topology()
    n = prox.space.n
    if n > DEFAULT_EXHAUSTIVE_CAP:
        raise CapExceededError("check_far_vs_sf", n, DEFAULT_EXHAUSTIVE_CAP)
    nbhd = _require_neighbourhoods(prox, "check_far_vs_sf")
    both = 0
    far_only = 0
    ex_both: list[tuple[int, int]] = []
    ex_far: list[tuple[int, int]] = []
    for a, b, strong in _far_pairs(nbhd):
        if strong:
            both += 1
            if len(ex_both) < examples_cap:
                ex_both.append((a, b))
        else:
            far_only += 1
            if len(ex_far) < examples_cap:
                ex_far.append((a, b))
    return FarVsSfReport(both, far_only, tuple(ex_both), tuple(ex_far))
