"""Proximity relations on the power set and their axiom checkers.

A proximity is a symmetric "nearness" relation between subsets. The
checker verifies, exhaustively over bitmask-encoded subsets:

  P0  symmetry
  P1  nothing is near the empty set
  P2  overlapping sets are near
  P3  A near (B u C)  iff  A near B or A near C
  P4  A near B, and every point of B near C  =>  A near C   (Lodato)
  P5  distinct singletons are never near                     (separated)
  EF  far pairs are separated by an intermediate set E with
      A far E and X\\E far B                                  (Efremovic)

EF is also checked in its betweenness form over strong inclusions
(A << B  =>  exists C with A << C << B); the two verdicts are proved
equal by the exhaustive property tests. Classification ranks a relation
not-basic < basic (P0-P3) < lodato (+P4) < ef (P0-P3 + EF).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .errors import CapExceededError, DEFAULT_EXHAUSTIVE_CAP, ToolkitError
from .spaces import GroundSpace, Metric, all_masks, bits_of, closure, union_table

AXIOM_NAMES = ("P0", "P1", "P2", "P3", "P4", "P5", "EF", "EF-betweenness")

CLASS_NOT_BASIC = "not-basic"
CLASS_BASIC = "basic"
CLASS_LODATO = "lodato"
CLASS_EF = "ef"


class ProximityRelation:
    """A total symmetric relation over pairs of subset masks.

    Verdicts come from `rule`, called with the unordered pair (a <= b),
    so symmetry (P0) holds structurally. Until the relation is swept,
    each verdict is memoized under its pair key.

    A relation has one description, its rule. A constructor whose rule
    is generated by its singleton verdicts passes `point_generated`, a
    condition asked on first use (overlap and Alexandroff: the family is
    a topology; gap, point relation and constant: always; the derived
    strongly-far relation: its base is point-generated). While it holds,
    the relation is settled by its neighbourhood table: with point rows
    R(i) = {j : {i} near {j}}, read off n(n+1)/2 singleton calls of the
    rule, N[a] is the union of R(i) over i in a, a near b iff N[a] meets
    b, and the table, 2^n ints, is the only representation the relation
    needs. Any other relation (tables, and the rest on a broken family)
    is settled by the first exhaustive sweep (`matrix`) into a dense bit
    matrix of 4^n bits. Either way `near` reads the settled form from
    then on.

    `eval_count` is the number of unordered pairs whose verdict the
    relation has determined: memo misses before it is settled, all
    2^n (2^n + 1) / 2 pairs once it is. The model searcher uses it as
    its budget unit. A pair's verdict never changes once determined.
    """

    __slots__ = (
        "space", "kind", "params", "_rule", "_memo", "eval_count", "_rows", "_nbhd",
        "_point_generated",
    )

    def __init__(
        self,
        space: GroundSpace,
        kind: str,
        rule: Callable[[int, int], bool],
        params: Optional[dict] = None,
        point_generated: Optional[Callable[[], bool]] = None,
    ):
        self.space = space
        self.kind = kind
        self.params = params or {}
        self._rule = rule
        self._memo: dict[tuple[int, int], bool] = {}
        self.eval_count = 0
        self._rows: Optional[list[int]] = None
        self._nbhd: Optional[list[int]] = None
        # Where it holds, the rule is additive with a reflexive, symmetric
        # R, which the axiom kernel relies on.
        self._point_generated = point_generated

    def near(self, a: int, b: int) -> bool:
        nbhd = self._nbhd
        if nbhd is not None:
            return nbhd[a] & b != 0
        rows = self._rows
        if rows is not None:
            return rows[a] >> b & 1 == 1
        key = (a, b) if a <= b else (b, a)
        hit = self._memo.get(key)
        if hit is None:
            self.eval_count += 1
            hit = self._rule(key[0], key[1])
            self._memo[key] = hit
        return hit

    def far(self, a: int, b: int) -> bool:
        return not self.near(a, b)

    def _neighbourhoods(self) -> Optional[list[int]]:
        """The neighbourhood table N, or None unless the relation is point-generated.

        Built on first use from the rule's singleton verdicts (bypassing
        the memo) by one OR per mask over its low bit; building it
        determines every pair.
        """
        if self._nbhd is None and self._point_generated is not None and self._point_generated():
            size = 1 << self.space.n
            self._nbhd = union_table(_singleton_rows(self.space.n, self._rule))
            self._memo = {}
            self.eval_count = size * (size + 1) // 2
        return self._nbhd

    def matrix(self) -> list[int]:
        """The dense near matrix: bit b of `rows[a]` says whether a near b.

        Built on first use. A point-generated relation reads row a as the
        masks meeting N[a]; any other calls `rule` once per unordered
        pair, reusing memoized verdicts.
        """
        if self._rows is None:
            n = self.space.n
            nbhd = self._neighbourhoods()
            if nbhd is not None:
                meets, _ = _mask_tables(n)
                rows = [meets[m] for m in nbhd]
            else:
                size = 1 << n
                rows = [0] * size
                memo, rule = self._memo, self._rule
                for a in range(size):
                    row = rows[a]
                    for b in range(a, size):
                        hit = memo.get((a, b))
                        if hit is None:
                            hit = rule(a, b)
                        if hit:
                            row |= 1 << b
                            rows[b] |= 1 << a
                    rows[a] = row
                self._memo = {}
                self.eval_count = size * (size + 1) // 2
            self._rows = rows
        return self._rows

    def __repr__(self) -> str:
        return f"ProximityRelation(kind={self.kind!r}, n={self.space.n})"


@lru_cache(maxsize=None)
def _mask_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-n tables of 2^n-bit mask sets: (meets, subsets_of).

    `meets[m]` holds every mask that meets m and `subsets_of[m]` every
    mask inside m. The singleton columns are periodic bit patterns; the
    rest follow by one OR per mask over the low bit.
    """
    size = 1 << n
    everything = (1 << size) - 1
    meets = [0] * size
    for i in range(n):
        half = 1 << i
        meets[half] = (((1 << half) - 1) << half) * (everything // ((1 << 2 * half) - 1))
    for m in range(3, size):
        low = m & -m
        if low != m:
            meets[m] = meets[m ^ low] | meets[low]
    full = size - 1
    return tuple(meets), tuple(everything ^ meets[full ^ m] for m in range(size))


def _singleton_rows(n: int, near: Callable[[int, int], bool]) -> list[int]:
    """Per point i, R(i) = {j : {i} near {j}}, from one call per pair i <= j."""
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if near(1 << i, 1 << j):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


# -- concrete constructors --------------------------------------------


def _always() -> bool:
    return True


def overlap_proximity(space: GroundSpace) -> ProximityRelation:
    """A near B iff their closures meet."""

    def rule(a: int, b: int) -> bool:
        return closure(space, a) & closure(space, b) != 0

    # Closure is additive only on a real topology.
    return ProximityRelation(
        space, "overlap", rule, point_generated=lambda: space.topology_report.ok
    )


def gap_proximity(space: GroundSpace, metric: Metric, epsilon) -> ProximityRelation:
    """A near B iff both are nonempty and min-distance(A, B) <= epsilon."""
    if metric.n != space.n:
        raise ToolkitError("metric dimension must match the space")
    eps = epsilon if isinstance(epsilon, Fraction) else Fraction(epsilon)
    if eps < 0:
        raise ToolkitError("epsilon must be non-negative")

    def rule(a: int, b: int) -> bool:
        g = metric.gap(a, b)
        return g is not None and g <= eps

    return ProximityRelation(
        space, "gap", rule, {"epsilon": eps, "metric": metric}, point_generated=_always
    )


@dataclass(frozen=True)
class CompactnessIdeal:
    """A family of closed sets standing in for "the compact sets".

    Invariants: contains the empty set, downward closed among closed
    sets, and closed under pairwise union. On a finite space this forces
    a unique maximal member, so every valid ideal is the family of
    closed subsets of one closed set.
    """

    space: GroundSpace
    members: frozenset[int]

    def __post_init__(self):
        space = self.space
        # On a topology those invariants say exactly that the members are
        # the closed subsets of the largest one; the scans below only word
        # the error for an invalid family.
        if space.topology_report.ok and self.members:
            top = max(self.members)
            if self.members == {c for c in space.closed if c & ~top == 0}:
                return
        for m in self.members:
            if not space.is_closed(m):
                raise ToolkitError(f"ideal member {space.format(m)} is not closed")
        if 0 not in self.members:
            raise ToolkitError("ideal must contain the empty set")
        for m in self.members:
            for c in space.closed:
                if c & ~m == 0 and c not in self.members:
                    raise ToolkitError(
                        f"ideal not downward closed: {space.format(c)} below "
                        f"{space.format(m)} is missing"
                    )
        for a in self.members:
            for b in self.members:
                if (a | b) not in self.members:
                    raise ToolkitError(
                        f"ideal not union closed: {space.format(a)} | {space.format(b)} missing"
                    )

    @classmethod
    def principal(cls, space: GroundSpace, top: int) -> "CompactnessIdeal":
        """All closed subsets of one closed set `top`."""
        if not space.is_closed(top):
            raise ToolkitError(f"{space.format(top)} is not closed")
        return cls(space, frozenset(c for c in space.closed if c & ~top == 0))

    @classmethod
    def all_closed(cls, space: GroundSpace) -> "CompactnessIdeal":
        return cls(space, frozenset(space.closed))

    def __contains__(self, mask: int) -> bool:
        return mask in self.members

    @property
    def top(self) -> int:
        return max(self.members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


def alexandroff_proximity(space: GroundSpace, ideal: CompactnessIdeal) -> ProximityRelation:
    """A near B iff closures meet, or both closures fall outside the ideal.

    The empty set is hard-coded far from everything; its closure lies in
    the ideal anyway, so the override only documents intent.
    """
    if ideal.space is not space and ideal.space != space:
        raise ToolkitError("ideal belongs to a different space")

    def rule(a: int, b: int) -> bool:
        if a == 0 or b == 0:
            return False
        ca, cb = closure(space, a), closure(space, b)
        if ca & cb:
            return True
        return ca not in ideal.members and cb not in ideal.members

    # On a topology a valid ideal is the closed subsets of its top, so a
    # closure leaves it iff some point's closure does.
    return ProximityRelation(
        space, "alexandroff", rule, {"ideal": ideal},
        point_generated=lambda: space.topology_report.ok,
    )


@dataclass(frozen=True)
class PointRelation:
    """Symmetric reflexive relation on points, stored as adjacency masks."""

    rows: tuple[int, ...]

    def __post_init__(self):
        n = len(self.rows)
        for i, row in enumerate(self.rows):
            if row >> n:
                raise ToolkitError("adjacency row uses bits beyond point count")
            if not row & (1 << i):
                raise ToolkitError(f"point relation must be reflexive at {i}")
            for j in bits_of(row):
                if not self.rows[j] & (1 << i):
                    raise ToolkitError(f"point relation must be symmetric at ({i},{j})")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "PointRelation":
        rows = [1 << i for i in range(n)]
        for i, j in pairs:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(tuple(rows))

    @classmethod
    def equality(cls, n: int) -> "PointRelation":
        return cls(tuple(1 << i for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def related(self, i: int, j: int) -> bool:
        return bool(self.rows[i] & (1 << j))

    def is_transitive(self) -> bool:
        for i, row in enumerate(self.rows):
            for j in bits_of(row):
                if self.rows[j] & ~row:
                    return False
        return True

    def pairs(self) -> list[tuple[int, int]]:
        """Off-diagonal related pairs (i < j), ascending."""
        out = []
        for i, row in enumerate(self.rows):
            for j in bits_of(row):
                if j > i:
                    out.append((i, j))
        return out


def point_generated_proximity(space: GroundSpace, relation: PointRelation) -> ProximityRelation:
    """A near B iff some a in A is point-related to some b in B.

    Always satisfies P0-P3; on a finite set this additive form is in fact
    the general shape of every basic proximity.
    """
    if relation.n != space.n:
        raise ToolkitError("point relation dimension must match the space")
    rows = relation.rows

    def rule(a: int, b: int) -> bool:
        for i in bits_of(a):
            if rows[i] & b:
                return True
        return False

    return ProximityRelation(
        space, "point_relation", rule, {"relation": relation}, point_generated=_always
    )


def table_proximity(
    space: GroundSpace, near_pairs: Iterable[tuple[int, int]]
) -> ProximityRelation:
    """Explicit relation: listed pairs are near, everything else is far.

    Unlike the rule-based constructors nothing is enforced, so a table
    can violate any axiom; that is the point of loading one.
    """
    table = frozenset((a, b) if a <= b else (b, a) for a, b in near_pairs)
    full = space.full_mask
    for a, b in table:
        if a & ~full or b & ~full:
            raise ToolkitError("table pair uses bits beyond point count")

    def rule(a: int, b: int) -> bool:
        return (a, b) in table

    return ProximityRelation(space, "table", rule, {"near_pairs": table})


def constant_proximity(space: GroundSpace) -> ProximityRelation:
    """Every pair of nonempty sets is near."""
    return ProximityRelation(
        space, "constant", lambda a, b: a != 0 and b != 0, point_generated=_always
    )


# -- induced closure and compatibility ---------------------------------


def induced_closure(prox: ProximityRelation, a: int) -> int:
    """{ x : {x} near A } -- the closure operator the relation induces."""
    out = 0
    for i in range(prox.space.n):
        if prox.near(1 << i, a):
            out |= 1 << i
    return out


@dataclass(frozen=True)
class CompatibilityResult:
    compatible: bool
    witness: Optional[int] = None  # first mask where induced and topological closure differ

    def __bool__(self) -> bool:
        return self.compatible


def is_compatible(prox: ProximityRelation) -> CompatibilityResult:
    """Does the induced closure agree with the space's topology on every subset?"""
    space = prox.space
    for a in all_masks(space.n):
        if induced_closure(prox, a) != closure(space, a):
            return CompatibilityResult(False, a)
    return CompatibilityResult(True)


def kuratowski_violations(n: int, cl: Callable[[int], int]) -> list[tuple[str, tuple[int, ...]]]:
    """Check an arbitrary closure operator against the four Kuratowski axioms.

    Independent of any space or relation machinery: it only calls `cl` on
    masks over an n-point set and reports (axiom, witness) violations.
    """
    out = []
    if cl(0) != 0:
        out.append(("closure-of-empty", (0,)))
    values = {}
    for a in all_masks(n):
        ca = values[a] = cl(a)
        if a & ~ca:
            out.append(("extensive", (a,)))
    for a in all_masks(n):
        if cl(values[a]) != values[a]:
            out.append(("idempotent", (a,)))
    for a in all_masks(n):
        for b in all_masks(n):
            if values[a | b] != values[a] | values[b]:
                out.append(("additive", (a, b)))
    return out


# -- axiom checking -----------------------------------------------------


@dataclass(frozen=True)
class AxiomVerdict:
    passed: bool
    witness: Optional[tuple[int, ...]] = None  # first violation, ascending mask order


@dataclass(frozen=True)
class ProximityAxiomReport:
    verdicts: dict[str, AxiomVerdict]
    classification: str
    exhaustive: bool
    checked_axioms: tuple[str, ...] = AXIOM_NAMES
    samples: Optional[int] = None

    def passed(self, name: str) -> bool:
        return self.verdicts[name].passed

    @property
    def separated(self) -> bool:
        return self.passed("P5")

    @property
    def p4_alongside_ef(self) -> Optional[bool]:
        """When classified ef, does P4 also hold? None otherwise."""
        if self.classification != CLASS_EF:
            return None
        return self.passed("P4")

    @property
    def is_basic(self) -> bool:
        return self.classification in (CLASS_BASIC, CLASS_LODATO, CLASS_EF)

    @property
    def is_lodato(self) -> bool:
        if self.classification == CLASS_LODATO:
            return True
        return self.classification == CLASS_EF and self.passed("P4")

    @property
    def is_ef(self) -> bool:
        return self.classification == CLASS_EF


def _classify(v: dict[str, AxiomVerdict]) -> str:
    basic = all(v[p].passed for p in ("P0", "P1", "P2", "P3"))
    if not basic:
        return CLASS_NOT_BASIC
    if v["EF"].passed:
        return CLASS_EF
    if v["P4"].passed:
        return CLASS_LODATO
    return CLASS_BASIC


def check_axioms(
    prox: ProximityRelation,
    *,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
    sample: Optional[int] = None,
    seed: int = 0,
    axioms: Iterable[str] = AXIOM_NAMES,
) -> ProximityAxiomReport:
    """Verify the proximity axioms, exhaustively by default.

    Exhaustive mode decides every axiom over all subsets. A point-generated
    relation is decided from its neighbourhood table alone, one lookup per
    mask (`_point_witnesses`); any other relation on its dense matrix
    (`ProximityRelation.matrix`), with a few word operations per row or
    per pair of rows instead of a sweep over triples. Above `cap` points
    this raises CapExceededError; passing `sample` switches to randomized
    probing of the sampled masks and the report is labeled
    non-exhaustive. Witnesses are the first violation in ascending mask
    order (tuples lexicographic), in every mode.
    """
    requested = tuple(a for a in AXIOM_NAMES if a in set(axioms))
    if not requested:
        raise ToolkitError("no axioms requested")
    n = prox.space.n
    if sample is None and n > cap:
        raise CapExceededError("check_axioms", n, cap)

    if sample is None:
        masks = None
        nbhd = prox._neighbourhoods()
        if nbhd is None:
            witnesses = _matrix_witnesses(prox, requested)
        else:
            witnesses = _point_witnesses(nbhd, n, requested)
    else:
        rng = random.Random(seed)
        universe = 1 << n
        count = min(sample, universe)
        masks = sorted(rng.sample(range(universe), count)) if universe > count else list(all_masks(n))
        witnesses = _sampled_witnesses(prox, masks, requested)

    verdicts = {name: AxiomVerdict(witnesses[name] is None, witnesses[name]) for name in requested}
    if all(p in verdicts for p in ("P0", "P1", "P2", "P3", "P4", "EF")):
        classification = _classify(verdicts)
    else:
        classification = "partial"

    return ProximityAxiomReport(
        verdicts=verdicts,
        classification=classification,
        exhaustive=sample is None,
        checked_axioms=requested,
        samples=None if masks is None else len(masks),
    )


Witness = Optional[tuple[int, ...]]


def _low(x: int) -> int:
    """Index of the lowest set bit."""
    return (x & -x).bit_length() - 1


def _point_witnesses(nbhd: list[int], n: int, requested: tuple[str, ...]) -> dict[str, Witness]:
    """First violation of each requested axiom, read off the neighbourhood table.

    R is reflexive and symmetric, so P0-P3 hold, and a far from b means
    N(a) misses b. P4, EF and EF-betweenness each fail at a exactly when
    N(N(a)) != N(a), so all three first fail at the same mask a*. With j
    the lowest point of N(a*) whose N(j) leaves N(a*), and k the lowest
    point of N(j) outside N(a*), the first witnesses are (a*, {j}, {k})
    for P4, (a*, {lowest point of N(N(a*)) \\ N(a*)}) for EF and
    (a*, N(a*)) for EF-betweenness. P5 fails at the first i < j with j
    in R(i).
    """
    out: dict[str, Witness] = dict.fromkeys(requested)
    if "P5" in requested:
        for i in range(n):
            later = nbhd[1 << i] & -(2 << i)  # the points above i
            if later:
                out["P5"] = (1 << i, later & -later)
                break
    if {"P4", "EF", "EF-betweenness"}.intersection(requested):
        a = next((a for a, na in enumerate(nbhd) if nbhd[na] != na), None)
        if a is not None:
            na = nbhd[a]
            j = next(j for j in bits_of(na) if nbhd[1 << j] & ~na)
            first = {
                "P4": (a, 1 << j, 1 << _low(nbhd[1 << j] & ~na)),
                "EF": (a, 1 << _low(nbhd[na] & ~na)),
                "EF-betweenness": (a, na),
            }
            out.update((name, w) for name, w in first.items() if name in requested)
    return out


def _far_rows(prox: ProximityRelation) -> tuple[list[int], list[int]]:
    """The far rows of the dense matrix and their index-reversed twins.

    Bit b of `far[a]` says a is far from b; bit e of `flipped[a]` says a
    is far from X\\e. A far pair (a, b) is EF-separated, which is to say
    strongly far, iff `far[a] & flipped[b]`; its first strongly-far
    witness C is the low bit of `flipped[a] & far[b]`.
    """
    size = 1 << prox.space.n
    everything = (1 << size) - 1
    far = [everything ^ row for row in prox.matrix()]
    return far, [int(format(f, f"0{size}b")[::-1], 2) for f in far]


def _matrix_witnesses(prox: ProximityRelation, requested: tuple[str, ...]) -> dict[str, Witness]:
    """First violation of each requested axiom, read off the dense matrix.

    Row a is the set of masks near a and far[a] its complement. Each test
    finds the first failing a (and, where it is cheap, the rest of the
    witness) with whole-row operations.
    """
    n = prox.space.n
    size = 1 << n
    full = size - 1
    everything = (1 << size) - 1
    rows = prox.matrix()
    meets, subsets_of = _mask_tables(n)
    if "EF" in requested or "EF-betweenness" in requested:
        far, flipped = _far_rows(prox)
    else:
        far = [everything ^ row for row in rows]
    out: dict[str, Witness] = {}

    if "P0" in requested:
        out["P0"] = None  # every fill sets a near b and b near a together

    if "P1" in requested:
        out["P1"] = (0, _low(rows[0])) if rows[0] else None

    if "P2" in requested:
        out["P2"] = next(
            ((a, _low(meets[a] & far[a])) for a in range(size) if meets[a] & far[a]), None
        )

    if "P3" in requested:
        # P3 at a says the row is additive: a near B iff B meets
        # S = {j : a near {j}}, unless a is near the empty set and so
        # near everything.
        w = None
        for a, row in enumerate(rows):
            point_set = sum(1 << j for j in range(n) if row >> (1 << j) & 1)
            if row != meets[point_set] and row != everything:
                w = _p3_witness(a, row, n, meets, everything)
                break
        out["P3"] = w

    if "P4" in requested:
        # a, B, C violate P4 iff a near B, a far C and B lies inside
        # P(C) = {i : {i} near C}: row a must miss the subsets of P(C)
        # for every C far from a.
        singles = [rows[1 << i] for i in range(n)]
        inside = [
            subsets_of[sum(1 << i for i in range(n) if singles[i] >> c & 1)] for c in range(size)
        ]
        w = None
        for a, row in enumerate(rows):
            reach = 0
            for c in bits_of(far[a]):
                reach |= inside[c]
            if row & reach:
                b = _low(row & reach)
                w = (a, b, next(c for c in bits_of(far[a]) if inside[c] >> b & 1))
                break
        out["P4"] = w

    if "P5" in requested:
        out["P5"] = next(
            (
                (1 << i, 1 << j)
                for i in range(n)
                for j in range(i + 1, n)
                if rows[1 << i] >> (1 << j) & 1
            ),
            None,
        )

    if "EF" in requested:
        # A far pair (a, b) is separated iff some E is far from a with
        # X\E far from b: far[a] & flipped[b] != 0.
        out["EF"] = next(
            ((a, b) for a in range(size) for b in bits_of(far[a]) if not far[a] & flipped[b]),
            None,
        )

    if "EF-betweenness" in requested:
        # A << B iff b is in flipped[a]; C sits between iff it is in
        # flipped[a] (A << C) and in far[X\b] (C << B).
        out["EF-betweenness"] = next(
            (
                (a, b)
                for a in range(size)
                for b in bits_of(flipped[a])
                if not flipped[a] & far[full ^ b]
            ),
            None,
        )
    return out


def _p3_witness(
    a: int, row: int, n: int, meets: tuple[int, ...], everything: int
) -> tuple[int, int, int]:
    """First (a, B, C) with a near B|C != (a near B or a near C); row a fails P3."""
    if row & 1:  # near the empty set but not near everything
        return (a, 0, _low(everything ^ row))
    # B fails iff some C breaks the law: when a near B, iff some superset
    # of B is far from a; when a far B, iff adding some point of B to
    # some C changes the verdict on C.
    columns = [meets[1 << i] for i in range(n)]
    invariant = sum(
        1 << i
        for i, col in enumerate(columns)
        if row & ~col == (row & col) >> (1 << i)
    )
    for b in range(1, 1 << n):
        if row >> b & 1:
            supersets = everything
            for i in bits_of(b):
                supersets &= columns[i]
            if not supersets & ~row:
                continue
        elif not b & ~invariant:
            continue
        near_b = row >> b & 1
        for c in range(1 << n):
            if row >> (b | c) & 1 != near_b | (row >> c & 1):
                return (a, b, c)
    raise AssertionError("row fails P3 but no witness found")


def _sampled_witnesses(
    prox: ProximityRelation, masks: list[int], requested: tuple[str, ...]
) -> dict[str, Witness]:
    """First violation of each requested axiom over the sampled masks."""
    n = prox.space.n
    full = prox.space.full_mask
    near = prox.near
    out: dict[str, Witness] = {}

    if "P0" in requested:
        w = None
        for a in masks:
            for b in masks:
                if near(a, b) != near(b, a):
                    w = (a, b)
                    break
            if w:
                break
        out["P0"] = w

    if "P1" in requested:
        w = None
        for b in masks:
            if near(0, b):
                w = (0, b)
                break
        out["P1"] = w

    if "P2" in requested:
        w = None
        for a in masks:
            for b in masks:
                if a & b and not near(a, b):
                    w = (a, b)
                    break
            if w:
                break
        out["P2"] = w

    if "P3" in requested:
        w = None
        for a in masks:
            for b in masks:
                for c in masks:
                    if near(a, b | c) != (near(a, b) or near(a, c)):
                        w = (a, b, c)
                        break
                if w:
                    break
            if w:
                break
        out["P3"] = w

    if "P4" in requested:
        w = None
        for a in masks:
            for b in masks:
                if not near(a, b):
                    continue
                for c in masks:
                    if near(a, c):
                        continue
                    if all(near(1 << i, c) for i in bits_of(b)):
                        w = (a, b, c)
                        break
                if w:
                    break
            if w:
                break
        out["P4"] = w

    if "P5" in requested:
        w = None
        for i in range(n):
            for j in range(i + 1, n):
                if near(1 << i, 1 << j):
                    w = (1 << i, 1 << j)
                    break
            if w:
                break
        out["P5"] = w

    if "EF" in requested:
        w = None
        for a in masks:
            for b in masks:
                if near(a, b):
                    continue
                found = False
                for e in all_masks(n):
                    if not near(a, e) and not near(full & ~e, b):
                        found = True
                        break
                if not found:
                    w = (a, b)
                    break
            if w:
                break
        out["EF"] = w

    if "EF-betweenness" in requested:
        w = None
        for a in masks:
            for b in masks:
                if near(a, full & ~b):  # not a strong inclusion A << B
                    continue
                found = False
                for c in all_masks(n):
                    if not near(a, full & ~c) and not near(c, full & ~b):
                        found = True
                        break
                if not found:
                    w = (a, b)
                    break
            if w:
                break
        out["EF-betweenness"] = w
    return out
