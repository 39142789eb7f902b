"""Strong inclusion, the strongly-far relation, and its topological twin.

`strongly_far(A, B)` asks for a separating subset C with A far from X\\C
and C far from B, on top of A far from B; the first such C in mask
order is the witness, and the degenerate ends (empty and full) are
flagged when they win. On a point-generated relation, with neighbourhood
map N, A is strongly far from B iff N(A) and N(B) are disjoint, and the
witness is N(A): one lookup per pair. Otherwise the witness search
sweeps all 2^n candidates, and with E = X\\C it is the EF separation
test, so the sweeps over all pairs read it off the dense matrix, one AND
of rows per pair. `hat_strongly_far` is the purely topological variant:
A and B must sit inside disjoint regular-open sets, found in one pass
over the hulls through B's least regular-open cover.

Empty inputs get a distinguished "degenerate" verdict instead of the
vacuous one the raw definitions would produce, so theorem sweeps can
quantify over nonempty sets only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import CapExceededError, DEFAULT_EXHAUSTIVE_CAP, DEFAULT_WITNESS_CAP
from .proximity import ProximityRelation, _far_rows, check_axioms, is_compatible
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


def strongly_far(
    prox: ProximityRelation, a: int, b: int, *, cap: int = DEFAULT_WITNESS_CAP
) -> WitnessResult:
    """Is A strongly far from B, and which C shows it?

    On a point-generated relation the first C is N(A), and it works iff
    N(A) misses N(B): any C holding N(A) meets N(B) otherwise. Since B
    lies in N(B), A is then far from B too. Other relations run the
    2^n-candidate search.
    """
    if a == 0 or b == 0:
        return WitnessResult(holds=False, degenerate=True)
    if prox.space.n > cap:
        raise CapExceededError("strongly_far", prox.space.n, cap)
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


def hat_strongly_far(
    space: GroundSpace, a: int, b: int, *, cap: int = DEFAULT_WITNESS_CAP
) -> WitnessResult:
    """Do disjoint regular-open hulls int(cl E), int(cl C) cover A and B?

    minRO(B), the meet of the hulls covering B, lies inside each of them,
    so only an E whose hull covers A and misses minRO(B) can have a C.
    The regular opens of a finite space are closed under intersection,
    so minRO(B) is itself a hull and the first such E has one: one pass
    over the cached hull table. On a family that is not a topology an E
    without a C is passed over. The witness is the first raw (E, C) pair
    in lexicographic mask order.
    """
    if a == 0 or b == 0:
        return WitnessResult(holds=False, degenerate=True)
    n = space.n
    if n > cap:
        raise CapExceededError("hat_strongly_far", n, cap)
    if a & b:  # hulls covering A and B would meet inside A & B
        return WitnessResult(holds=False)
    hulls = space.regular_open_hulls
    covers_b = [c for c, v in enumerate(hulls) if b & ~v == 0]
    min_ro = space.full_mask
    for c in covers_b:
        min_ro &= hulls[c]
    for e, u in enumerate(hulls):
        if a & ~u or u & min_ro:
            continue
        c = next((c for c in covers_b if not u & hulls[c]), None)
        if c is not None:
            return WitnessResult(holds=True, witness=(e, c))
    return WitnessResult(holds=False)


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
    relation is generated by R∘R, so it settles on the neighbourhood
    table read off its own singleton verdicts, never on the matrix.
    """

    def derived(a: int, b: int) -> bool:
        return _raw_strongly_far(prox, a, b) is None

    return ProximityRelation(
        prox.space, "derived-sf", derived, {"base": prox.kind},
        point_generated=lambda: prox._neighbourhoods() is not None,
    )


def _far_pairs(prox: ProximityRelation) -> Iterator[tuple[int, int, bool]]:
    """Every far pair (a, b) of nonempty masks, ascending, and whether it is strongly far.

    With a neighbourhood table the far partners of a are the nonempty
    submasks of X\\N(a), visited in ascending order, and b is strongly
    far iff it misses N(N(a)). Otherwise they are read off the matrix's
    far rows.
    """
    nbhd = prox._neighbourhoods()
    if nbhd is None:
        far, flipped = _far_rows(prox)
        for a in range(1, len(far)):
            for b in bits_of(far[a] & ~1):
                yield a, b, far[a] & flipped[b] != 0
        return
    full = len(nbhd) - 1
    for a in range(1, len(nbhd)):
        outside = full ^ nbhd[a]
        reach = nbhd[nbhd[a]]
        b = outside & -outside
        while b:
            yield a, b, not b & reach
            b = (b - outside) & outside


@dataclass(frozen=True)
class SfImpliesHatReport:
    """Sweep of strongly_far => hat_strongly_far over nonempty pairs."""

    applicable: bool
    reason: str
    pairs_checked: int = 0
    violations: tuple[tuple[int, int], ...] = ()

    @property
    def ok(self) -> bool:
        return self.applicable and not self.violations


def check_sf_implies_hat(
    space: GroundSpace,
    prox: ProximityRelation,
    *,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> SfImpliesHatReport:
    """Check that every strongly-far pair is hat-strongly-far.

    Precondition: the relation is Lodato and compatible with the space's
    topology (the implication leans on P4 plus topological closure); if
    not, the check is skipped and the report says why. The strongly-far
    partners of each a are visited in ascending order; on a point-generated
    relation they are the nonempty submasks of X\\N(N(a)), which a Lodato
    one (N(N(a)) = N(a)) makes all of a's far partners.
    """
    if prox.space is not space and prox.space != space:
        return SfImpliesHatReport(False, "relation lives on a different space")
    if space.n > cap:
        raise CapExceededError("check_sf_implies_hat", space.n, cap)
    report = check_axioms(prox, cap=cap)
    if not report.is_lodato:
        return SfImpliesHatReport(False, f"relation is {report.classification}, not lodato")
    if not is_compatible(prox):
        return SfImpliesHatReport(False, "relation is not compatible with the topology")

    violations = tuple(
        (a, b)
        for a, b, strong in _far_pairs(prox)
        if strong and not hat_strongly_far(space, a, b).holds
    )
    return SfImpliesHatReport(True, "checked", space.full_mask ** 2, violations)


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


def check_far_vs_sf(
    prox: ProximityRelation,
    *,
    examples_cap: int = 5,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> FarVsSfReport:
    """Classify every far pair of nonempty subsets by strong farness.

    Reads the neighbourhood table or the dense matrix, so the relation is
    settled on every pair.
    """
    n = prox.space.n
    if n > cap:
        raise CapExceededError("check_far_vs_sf", n, cap)
    both = 0
    far_only = 0
    ex_both: list[tuple[int, int]] = []
    ex_far: list[tuple[int, int]] = []
    for a, b, strong in _far_pairs(prox):
        if strong:
            both += 1
            if len(ex_both) < examples_cap:
                ex_both.append((a, b))
        else:
            far_only += 1
            if len(ex_far) < examples_cap:
                ex_far.append((a, b))
    return FarVsSfReport(both, far_only, tuple(ex_both), tuple(ex_far))
