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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .errors import CapExceededError, DEFAULT_EXHAUSTIVE_CAP, InvalidModelError, ToolkitError
from .spaces import GroundSpace, Metric, all_masks, bits_of, closure, union_table

AXIOM_NAMES = ("P0", "P1", "P2", "P3", "P4", "P5", "EF", "EF-betweenness")

CLASS_NOT_BASIC = "not-basic"
CLASS_BASIC = "basic"
CLASS_LODATO = "lodato"
CLASS_EF = "ef"


class ProximityRelation:
    """A total symmetric relation over pairs of subset masks.

    A relation settles once, on first use, on one table. Its constructor
    passes `point_rows`, a callback asked for R(i) = {j : {i} near {j}}
    (R(i) holds i by P2), computed in closed form, or None when the
    relation is not point-generated. On a finite set a relation is basic
    (P0-P3) iff its point rows generate it, so a relation with rows is a
    proximity; the hyperspace layer and the sweeps over far pairs take
    only such a relation (`_require_neighbourhoods`). It settles on its
    neighbourhood table: N[a], the union of R(i) over i in a, by one OR
    per mask, and a near b iff N[a] meets b. The table, 2^n ints, is the
    only representation such a relation needs.

    A relation that can lack rows (a table that is not basic, the derived
    strongly-far relation on such a base) also passes `matrix`, a
    callback for its dense near matrix of 4^n bits, symmetric, bit b of
    row a saying whether a near b. Without rows it settles on that
    matrix, which serves `near`, its axiom report and its strongly-far
    witness search. A row callback that reads closure raises
    InvalidTopologyError on a family that is not a topology.

    `eval_count` is the number of pairs the relation has determined: 0
    before it settles, and all 2^n (2^n + 1) / 2 unordered pairs once it
    has. The tests, `tests/reference.py::naive_search` and the
    benchmark's traces read it; `search` counts its budget itself.
    """

    __slots__ = (
        "space", "kind", "params", "eval_count", "_rows", "_singletons", "_nbhd",
        "_pending_rows", "_pending_matrix",
    )

    def __init__(
        self,
        space: GroundSpace,
        kind: str,
        params: Optional[dict] = None,
        point_rows: Optional[Callable[[], Optional[tuple[int, ...]]]] = None,
        matrix: Optional[Callable[[], list[int]]] = None,
    ):
        self.space = space
        self.kind = kind
        self.params = params or {}
        self.eval_count = 0
        self._rows: Optional[list[int]] = None
        self._singletons: Optional[tuple[int, ...]] = None
        self._nbhd: Optional[list[int]] = None
        # Each callback is cleared once answered.
        self._pending_rows = point_rows
        self._pending_matrix = matrix

    def near(self, a: int, b: int) -> bool:
        nbhd = self._nbhd
        if nbhd is not None:
            return nbhd[a] & b != 0
        rows = self._rows
        if rows is not None:
            return rows[a] >> b & 1 == 1
        if self._neighbourhoods() is not None:
            return self._nbhd[a] & b != 0
        return self.matrix()[a] >> b & 1 == 1

    def far(self, a: int, b: int) -> bool:
        return not self.near(a, b)

    def _point_rows(self) -> Optional[tuple[int, ...]]:
        """The point rows R, or None unless the relation is point-generated.

        The constructor's `point_rows` is asked until it returns, so a
        callback that raises raises again on the next call; reading R
        settles the relation.
        """
        pending = self._pending_rows
        if pending is not None:
            rows = pending()
            self._pending_rows = None
            if rows is not None:
                size = 1 << self.space.n
                self._singletons = rows
                self.eval_count = size * (size + 1) // 2
        return self._singletons

    def _neighbourhoods(self) -> Optional[list[int]]:
        """The neighbourhood table N, or None unless the relation is point-generated.

        Built on first use from the point rows by one OR per mask over its
        low bit.
        """
        if self._nbhd is None:
            rows = self._point_rows()
            if rows is not None:
                self._nbhd = union_table(rows)
        return self._nbhd

    def matrix(self) -> list[int]:
        """The dense near matrix: bit b of `rows[a]` says whether a near b.

        On a point-generated relation row a is the set of masks meeting
        N(a), read off the per-n mask table and not kept. Any other
        relation builds it once from its `matrix` callback and settles on it.
        """
        if self._rows is None:
            nbhd = self._neighbourhoods()
            if nbhd is not None:
                meets = _mask_tables(self.space.n)[0]
                return [meets[na] for na in nbhd]
            size = 1 << self.space.n
            self._rows = self._pending_matrix()
            self._pending_matrix = None
            self.eval_count = size * (size + 1) // 2
        return self._rows

    def __repr__(self) -> str:
        return f"ProximityRelation(kind={self.kind!r}, n={self.space.n})"


def _require_neighbourhoods(prox: ProximityRelation, operation: str) -> list[int]:
    """The neighbourhood table N, or InvalidModelError at `proximity` when
    the relation has no point rows: a table that is not basic, or a
    relation derived from one."""
    nbhd = prox._neighbourhoods()
    if nbhd is None:
        if prox.kind == "derived-sf":
            # The derived relation may itself be basic; its rows are read
            # off its base's, and the base has none.
            raise InvalidModelError(
                f"{operation} needs point rows; this derived-sf relation has none "
                f"because its {prox.params['base'].kind} base is not a basic proximity (P0-P3)",
                "proximity",
            )
        raise InvalidModelError(
            f"{operation} needs a basic proximity (P0-P3); "
            "run the validate command for the axiom report",
            "proximity",
        )
    return nbhd


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


# -- concrete constructors --------------------------------------------


def _alexandroff_rows(space: GroundSpace, top: int) -> tuple[int, ...]:
    """R(i) = U(cl{i}), joined by X\\top when i lies outside `top` (F15).

    For the principal ideal below the closed set `top`, cl{j} is a member
    iff cl{j} lies in `top`, iff j does. The U(cl{i}) are cached on the
    space, so this is an O(n) join.
    """
    outside = space.full_mask ^ top
    return tuple(
        row if top >> i & 1 else row | outside
        for i, row in enumerate(space._point_closure_hulls)
    )


def _gap_rows(metric: Metric, epsilon) -> tuple[int, ...]:
    """R(i) = {j : d(i, j) <= epsilon}."""
    return tuple(
        sum(1 << j for j, d in enumerate(row) if d <= epsilon) for row in metric.rows
    )


def overlap_proximity(space: GroundSpace) -> ProximityRelation:
    """A near B iff their closures meet.

    Closure is additive, so the rows R(i) = U(cl{i}) generate the relation.
    """
    return ProximityRelation(space, "overlap", point_rows=lambda: space._point_closure_hulls)


def gap_proximity(space: GroundSpace, metric: Metric, epsilon) -> ProximityRelation:
    """A near B iff both are nonempty and min-distance(A, B) <= epsilon.

    The gap is a minimum over point pairs, so the rows
    R(i) = {j : d(i, j) <= epsilon} generate the relation.
    """
    if metric.n != space.n:
        raise ToolkitError("metric dimension must match the space")
    eps = epsilon if isinstance(epsilon, Fraction) else Fraction(epsilon)
    if eps < 0:
        raise ToolkitError("epsilon must be non-negative")
    return ProximityRelation(
        space, "gap", params={"epsilon": eps, "metric": metric},
        point_rows=lambda: _gap_rows(metric, eps),
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

    The empty set is far from everything: its closure meets nothing and
    lies in the ideal. A valid ideal is the closed subsets of its top, so
    a closure leaves it iff some point's closure does, and the rows
    `_alexandroff_rows` generate the relation.
    """
    if ideal.space is not space and ideal.space != space:
        raise ToolkitError("ideal belongs to a different space")
    return ProximityRelation(
        space, "alexandroff", params={"ideal": ideal},
        point_rows=lambda: _alexandroff_rows(space, ideal.top),
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
        return _rows_transitive(self.rows)

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
    the general shape of every basic proximity. Its rows are the
    relation's own.
    """
    if relation.n != space.n:
        raise ToolkitError("point relation dimension must match the space")
    return ProximityRelation(
        space, "point_relation", params={"relation": relation}, point_rows=lambda: relation.rows
    )


def _table_rows(n: int, table: frozenset[tuple[int, int]]) -> Optional[tuple[int, ...]]:
    """R(i) = {j : ({i}, {j}) is listed}, when these rows generate the table (F10).

    They do iff R is reflexive, every listed pair (a, b) has N(a)
    meeting b, and the table lists as many unordered pairs as R
    generates. Each nonempty a is near 2^n - 2^(n - |N(a)|) masks b, and
    that sum counts every unordered pair twice but the 2^n - 1 nonempty
    diagonal ones (a, a). Otherwise None.
    """
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if (1 << i, 1 << j) in table:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    if any(not row >> i & 1 for i, row in enumerate(rows)):
        return None
    nbhd = union_table(rows)
    size = 1 << n
    generated = sum(size - (size >> na.bit_count()) for na in nbhd) + size - 1
    if 2 * len(table) != generated or any(not nbhd[a] & b for a, b in table):
        return None
    return tuple(rows)


def table_proximity(
    space: GroundSpace, near_pairs: Iterable[tuple[int, int]]
) -> ProximityRelation:
    """Explicit relation: listed pairs are near, everything else is far.

    Unlike the point-generated constructors nothing is enforced, so a
    table can violate any axiom; that is the point of loading one. A basic
    table gets its point rows off its singleton pairs (`_table_rows`),
    so it runs on its neighbourhood table like every other proximity;
    any other table builds its matrix from its pairs, two ORs per listed
    pair. Neither reads closure, so `near` and `far` on a table keep
    answering on a family that is not a topology: the pairs are the
    whole description, and the axiom report, the strongly-far layer and
    the hyperspace layer each refuse that family on their own.
    """
    table = frozenset((a, b) if a <= b else (b, a) for a, b in near_pairs)
    full = space.full_mask
    for a, b in table:
        if a & ~full or b & ~full:
            raise ToolkitError("table pair uses bits beyond point count")

    def matrix() -> list[int]:
        rows = [0] * (full + 1)
        for a, b in table:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return rows

    return ProximityRelation(
        space, "table", {"near_pairs": table},
        point_rows=lambda: _table_rows(space.n, table), matrix=matrix,
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


def _rows_compatible(space: GroundSpace, rows: tuple[int, ...]) -> bool:
    """Does a relation with point rows R induce the space's closure?
    Iff R(i) = cl({i}) for every i (F8; see `is_compatible`)."""
    return rows == space._point_closures


def is_compatible(prox: ProximityRelation) -> CompatibilityResult:
    """Does the induced closure agree with the space's topology on every subset?

    A relation with point rows R has two additive closures, and the
    induced one sends {i} to R(i). So they agree iff R(i) = cl({i}) for
    every i, and the first mask where they differ is {i} for the lowest
    such i. Any other relation is compared mask by mask.
    """
    space = prox.space
    rows = prox._point_rows()
    if rows is not None:
        for i, row in enumerate(rows):
            if row != closure(space, 1 << i):
                return CompatibilityResult(False, 1 << i)
        return CompatibilityResult(True)
    for a in all_masks(space.n):
        if induced_closure(prox, a) != closure(space, a):
            return CompatibilityResult(False, a)
    return CompatibilityResult(True)


# -- axiom checking -----------------------------------------------------


@dataclass(frozen=True)
class AxiomVerdict:
    passed: bool
    witness: Optional[tuple[int, ...]] = None  # first violation, ascending mask order


@dataclass(frozen=True)
class ProximityAxiomReport:
    verdicts: dict[str, AxiomVerdict]
    classification: str
    exhaustive: bool  # always True: every verdict is exact
    checked_axioms: tuple[str, ...] = AXIOM_NAMES

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


# The one passing verdict every report shares (verdicts are frozen).
_PASSED = AxiomVerdict(True)

# The axioms a classification reads; a report missing one is "partial".
_CLASSIFYING = frozenset(("P0", "P1", "P2", "P3", "P4", "EF"))

# The axioms that fail exactly where N(N(a)) != N(a) (`_point_witnesses`).
_CLOSURE_AXIOMS = frozenset(("P4", "EF", "EF-betweenness"))


def _classify(v: dict[str, AxiomVerdict]) -> str:
    if not (v["P0"].passed and v["P1"].passed and v["P2"].passed and v["P3"].passed):
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
    axioms: Iterable[str] = AXIOM_NAMES,
) -> ProximityAxiomReport:
    """Decide the proximity axioms exactly, over all subsets.

    A point-generated relation is decided from its neighbourhood table
    alone, one lookup per mask (`_point_witnesses`), at any size the
    ground set allows. Any other relation is decided on its dense matrix
    (`ProximityRelation.matrix`), with a few word operations per row or
    per pair of rows instead of a sweep over triples; `cap` bounds the
    point count of that 4^n-bit matrix, and above it this raises
    CapExceededError. Witnesses are the first violation in ascending mask
    order (tuples lexicographic). Needs a topology.
    """
    prox.space._require_topology()
    if axioms is AXIOM_NAMES:  # the default is in order and not empty
        requested = AXIOM_NAMES
    else:
        wanted = set(axioms)
        requested = tuple(a for a in AXIOM_NAMES if a in wanted)
        if not requested:
            raise ToolkitError("no axioms requested")
    n = prox.space.n
    nbhd = prox._neighbourhoods()
    if nbhd is not None:
        witnesses = _point_witnesses(nbhd, n, requested)
    elif n > cap:
        raise CapExceededError("check_axioms", n, cap)
    else:
        witnesses = _matrix_witnesses(prox, requested)

    verdicts = {}
    for name in requested:
        w = witnesses[name]
        verdicts[name] = _PASSED if w is None else AxiomVerdict(False, w)
    if verdicts.keys() >= _CLASSIFYING:
        classification = _classify(verdicts)
    else:
        classification = "partial"

    return ProximityAxiomReport(
        verdicts=verdicts,
        classification=classification,
        exhaustive=True,
        checked_axioms=requested,
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
    if not _CLOSURE_AXIOMS.isdisjoint(requested):
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


def _rows_transitive(rows: Sequence[int]) -> bool:
    """R(j) lies in R(i) for every j in R(i), that is N∘N = N.

    For a reflexive, symmetric R that makes R an equivalence, whose
    distinct rows are disjoint; as they cover the points, that holds iff
    their sizes sum to n.
    """
    return sum(row.bit_count() for row in set(rows)) == len(rows)


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
                w = _p3_witness(a, row, n, everything)
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


def _p3_witness(a: int, row: int, n: int, everything: int) -> tuple[int, int, int]:
    """First (a, B, C) with a near B|C != (a near B or a near C); row a fails P3.

    Only a relation with no point rows reaches the matrix (a table that
    is not basic, or a relation derived from one), and a point-generated
    relation passes P3, so this plain ascending loop runs once per
    `check_axioms` at most.
    """
    if row & 1:  # near the empty set but not near everything
        return (a, 0, _low(everything ^ row))
    for b in range(1, 1 << n):
        near_b = row >> b & 1
        for c in range(1 << n):
            if row >> (b | c) & 1 != near_b | (row >> c & 1):
                return (a, b, c)
    raise AssertionError("row fails P3 but no witness found")
