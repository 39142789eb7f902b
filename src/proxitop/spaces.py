"""Finite topological spaces over bitmask-encoded subsets.

A ground set of ``n`` points is indexed ``0..n-1`` and every subset is a
plain ``int`` whose bit ``i`` says whether point ``i`` is in. The space
stores its topology as the explicit family of open masks. A finite
topology is fixed by each point's minimal open neighbourhood U_p, so
closure, interior and the open and regular-open hulls are read off
union tables of n rows each. A family that is not a topology has no such
tables: it supports `validate_topology` and nothing else. All emitted
families are in ascending mask order so reports are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InvalidTopologyError, MAX_GROUND_POINTS, ToolkitError


def bits_of(mask: int) -> Iterator[int]:
    """Yield the indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union_table(rows: Sequence[int]) -> list[int]:
    """Per mask m over len(rows) points, the OR of rows[i] for i in m.

    The table doubles once per row, the new half being the old half ORed
    with that row: one OR per mask, 2^n word operations.
    """
    table = [0]
    for row in rows:
        table += [m | row for m in table]
    return table


def unions_of(ups: Iterable[int]) -> set[int]:
    """Every union of the sets in `ups`, the empty one included: the opens
    of the topology whose minimal neighbourhoods U_p they are."""
    unions = {0}
    for u in ups:
        unions |= {m | u for m in unions}
    return unions


def all_masks(n: int) -> range:
    """All subset masks of an n-point set, ascending (2^n of them)."""
    return range(1 << n)


@dataclass(frozen=True)
class PointSet:
    """A finite set of points with distinct display labels, `p{i}` by default."""

    n: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GROUND_POINTS:
            raise ToolkitError(
                f"point count must be in 1..{MAX_GROUND_POINTS}, got {self.n}"
            )
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(f"p{i}" for i in range(self.n)))
        if len(self.labels) != self.n:
            raise ToolkitError("label count must equal point count")
        if len(set(self.labels)) != self.n:
            raise ToolkitError("labels must be distinct")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def label(self, i: int) -> str:
        return self.labels[i]

    def index_of(self, name: str) -> int:
        if name in self.labels:
            return self.labels.index(name)
        try:
            i = int(name)
        except ValueError:
            raise ToolkitError(f"unknown point name {name!r}") from None
        if not 0 <= i < self.n:
            raise ToolkitError(f"point index {i} out of range 0..{self.n - 1}")
        return i

    def mask_of(self, names: Iterable[str | int]) -> int:
        mask = 0
        for name in names:
            i = name if isinstance(name, int) else self.index_of(name)
            if not 0 <= i < self.n:
                raise ToolkitError(f"point index {i} out of range 0..{self.n - 1}")
            mask |= 1 << i
        return mask

    def format(self, mask: int) -> str:
        return "{" + ",".join(self.label(i) for i in bits_of(mask)) + "}"

    def names(self, mask: int) -> list[str]:
        return [self.label(i) for i in bits_of(mask)]


@dataclass(frozen=True)
class TopologyReport:
    """Verdicts for the open-family axioms, with violating witnesses."""

    has_empty: bool
    has_full: bool
    union_witness: Optional[tuple[int, int]]  # pair of opens whose union is missing
    intersection_witness: Optional[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return (
            self.has_empty
            and self.has_full
            and self.union_witness is None
            and self.intersection_witness is None
        )

    def summary(self) -> str:
        if self.ok:
            return "valid topology"
        parts = []
        if not self.has_empty:
            parts.append("missing empty set")
        if not self.has_full:
            parts.append("missing full set")
        if self.union_witness is not None:
            a, b = self.union_witness
            parts.append(f"union of {a:#x} and {b:#x} missing")
        if self.intersection_witness is not None:
            a, b = self.intersection_witness
            parts.append(f"intersection of {a:#x} and {b:#x} missing")
        return "; ".join(parts)


@dataclass(frozen=True)
class GroundSpace:
    """A finite point set together with its family of open masks.

    Instances are immutable after construction; every operation on them is
    a pure function, so cached tables never change an observable result.
    Use :meth:`create` (or the named constructors) to get a validated
    space; the raw constructor accepts any family so that
    :func:`validate_topology` has something to report on. On a family
    that is not a topology every closure or hull table raises
    InvalidTopologyError.
    """

    points: PointSet
    opens: tuple[int, ...]

    def __post_init__(self):
        full = self.points.full_mask
        opens = self.opens
        if opens and (min(opens) < 0 or max(opens) > full):
            for m in opens:
                if m & ~full:
                    raise ToolkitError(f"open mask {m:#x} uses bits beyond point count")
        object.__setattr__(self, "opens", tuple(sorted(set(opens))))

    # -- constructors -------------------------------------------------

    @classmethod
    def create(
        cls,
        n: int,
        opens: Iterable[int],
        labels: Optional[Sequence[str]] = None,
    ) -> "GroundSpace":
        space = cls(PointSet(n, tuple(labels) if labels else None), tuple(opens))
        space._require_topology()
        return space

    @classmethod
    def from_minimal_neighbourhoods(
        cls, ups: Sequence[int], labels: Optional[Sequence[str]] = None
    ) -> "GroundSpace":
        """The topology whose minimal open neighbourhoods are `ups`.

        `ups[p]` must hold p, and hold U_q for each q it holds: the up-sets
        of a preorder, checked in O(n^2). The opens are the unions of the
        U_p, a topology by construction, so its report is recorded as
        passing without a scan.
        """
        points = PointSet(len(ups), tuple(labels) if labels else None)
        for p, u in enumerate(ups):
            if u & ~points.full_mask:
                raise ToolkitError(f"neighbourhood of point {p} uses bits beyond point count")
            if not u >> p & 1:
                raise ToolkitError(f"neighbourhood of point {p} must hold it")
            for q in bits_of(u):
                if ups[q] & ~u:
                    raise ToolkitError(
                        f"neighbourhood of point {p} must hold that of point {q}"
                    )
        space = cls(points, tuple(unions_of(ups)))
        # cached_property reads the instance dict first.
        space.__dict__["_minimal_neighbourhoods"] = tuple(ups)
        space.__dict__["topology_report"] = TopologyReport(True, True, None, None)
        return space

    @classmethod
    def discrete(cls, n: int, labels: Optional[Sequence[str]] = None) -> "GroundSpace":
        return cls.from_minimal_neighbourhoods([1 << p for p in range(n)], labels)

    @classmethod
    def indiscrete(cls, n: int, labels: Optional[Sequence[str]] = None) -> "GroundSpace":
        return cls.from_minimal_neighbourhoods([(1 << n) - 1] * n, labels)

    @classmethod
    def from_partition(
        cls, blocks: Sequence[Iterable[int]], labels: Optional[Sequence[str]] = None
    ) -> "GroundSpace":
        """Partition topology: opens are exactly the unions of blocks."""
        block_masks = []
        seen = 0
        for block in blocks:
            m = 0
            for i in block:
                m |= 1 << i
            if m & seen:
                raise ToolkitError("partition blocks must be disjoint")
            if m == 0:
                raise ToolkitError("partition blocks must be nonempty")
            seen |= m
            block_masks.append(m)
        n = seen.bit_length()
        if seen != (1 << n) - 1:
            raise ToolkitError("partition blocks must cover 0..n-1 without gaps")
        ups = [0] * n
        for m in block_masks:
            for i in bits_of(m):
                ups[i] = m
        return cls.from_minimal_neighbourhoods(ups, labels)

    # -- basic queries ------------------------------------------------

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def full_mask(self) -> int:
        return self.points.full_mask

    def complement(self, mask: int) -> int:
        return self.full_mask & ~mask

    def is_open(self, mask: int) -> bool:
        return mask in self._open_set

    def is_closed(self, mask: int) -> bool:
        return self.complement(mask) in self._open_set

    @cached_property
    def _open_set(self) -> frozenset[int]:
        return frozenset(self.opens)

    @cached_property
    def topology_report(self) -> "TopologyReport":
        """`validate_topology` of this space, computed once."""
        return validate_topology(self)

    def _require_topology(self) -> None:
        if not self.topology_report.ok:
            raise InvalidTopologyError(self.topology_report)

    @cached_property
    def closed(self) -> tuple[int, ...]:
        """All closed masks, ascending (complements of the opens)."""
        return tuple(sorted(self.complement(m) for m in self.opens))

    @cached_property
    def nonempty_closed(self) -> tuple[int, ...]:
        """The nonempty closed masks, ascending: the hyperpoints of CL(X)."""
        self._require_topology()
        return tuple(m for m in self.closed if m != 0)

    @cached_property
    def _hyperpoints_meeting(self) -> tuple[int, ...]:
        """Per mask m, the hyperpoints meeting m, as a family mask over
        `nonempty_closed`: the union table of the per-point families."""
        through = [0] * self.n
        for idx, e in enumerate(self.nonempty_closed):
            for i in bits_of(e):
                through[i] |= 1 << idx
        return tuple(union_table(through))

    @cached_property
    def _minimal_neighbourhoods(self) -> tuple[int, ...]:
        """Per point p, U_p: the meet of the opens holding p (full if none).

        On a topology U_p is p's smallest open neighbourhood, and the
        topology is fixed by these n masks.
        """
        full = self.full_mask
        ups = []
        for p in range(self.n):
            u = full
            for o in self.opens:
                if o >> p & 1:
                    u &= o
            ups.append(u)
        return tuple(ups)

    @cached_property
    def _open_hulls(self) -> tuple[int, ...]:
        """Per mask m, the smallest open superset U(m).

        U is additive, so the table is the union table of the U_p.
        """
        self._require_topology()
        return tuple(union_table(self._minimal_neighbourhoods))

    @cached_property
    def _point_closure_hulls(self) -> tuple[int, ...]:
        """Per point i, U(cl{i}), the points whose closure meets cl{i} (F15).

        p is in cl{j} iff j is in U_p, so cl{i} meets cl{j} iff j lies in
        the union of the U_p holding i, which is U(cl{i}). O(n^2), with no
        2^n table. These are the overlap relation's point rows.
        """
        self._require_topology()
        ups = self._minimal_neighbourhoods
        rows = []
        for i in range(self.n):
            row = 0
            for u in ups:
                if u >> i & 1:
                    row |= u
            rows.append(row)
        return tuple(rows)

    @cached_property
    def _point_closures(self) -> tuple[int, ...]:
        """Per point i, cl({i}) = {p : i in U_p}: O(n^2), no 2^n table."""
        self._require_topology()
        point_closures = [0] * self.n
        for p, u in enumerate(self._minimal_neighbourhoods):
            for i in bits_of(u):
                point_closures[i] |= 1 << p
        return tuple(point_closures)

    @cached_property
    def closures(self) -> tuple[int, ...]:
        """Per mask m, the meet of the closed supersets of m.

        Closure is additive, so the table is the union table of the n
        point closures: 2^n ORs.
        """
        return tuple(union_table(self._point_closures))

    @cached_property
    def regular_open_hulls(self) -> tuple[int, ...]:
        """Per mask m, int(cl m), read off the closure table."""
        cl = self.closures
        full = self.full_mask
        return tuple([full ^ cl[full ^ c] for c in cl])

    def format(self, mask: int) -> str:
        return self.points.format(mask)


# -- topology validation ---------------------------------------------


def validate_topology(space: GroundSpace) -> TopologyReport:
    """Check the open family for the finite-topology axioms.

    Closure under arbitrary unions reduces to pairwise closure on a
    finite family. Every member O is the union of the U_p = AND{O : p in
    O} for p in O, and the unions of the U_p are closed under union and
    intersection (q in U_p puts U_q inside U_p). So a family equal to
    those unions needs no scan; any other family is scanned pair by
    pair, and the first violating pair in ascending mask order is
    reported.
    """
    opens = space.opens
    members = set(opens)
    union_witness = None
    intersection_witness = None
    if unions_of(space._minimal_neighbourhoods) != members:
        for i, a in enumerate(opens):
            for b in opens[i:]:
                if union_witness is None and (a | b) not in members:
                    union_witness = (a, b)
                if intersection_witness is None and (a & b) not in members:
                    intersection_witness = (a, b)
            if union_witness is not None and intersection_witness is not None:
                break
    return TopologyReport(
        has_empty=0 in members,
        has_full=space.full_mask in members,
        union_witness=union_witness,
        intersection_witness=intersection_witness,
    )


# -- closure / interior / separation ----------------------------------


def closure(space: GroundSpace, mask: int) -> int:
    """Smallest closed superset of `mask` (meet of all closed supersets),
    read from the space's closure table."""
    return space.closures[mask]


def interior(space: GroundSpace, mask: int) -> int:
    """Largest open subset of `mask`; dual of closure, from the same table."""
    full = space.full_mask
    return full ^ space.closures[full ^ mask]


def is_T1(space: GroundSpace) -> bool:
    """True iff every singleton is closed."""
    return all(closure(space, 1 << i) == 1 << i for i in range(space.n))


def closed_sets(space: GroundSpace) -> tuple[int, ...]:
    """All closed masks including the empty set, ascending."""
    return space.closed


def regular_open_hull(space: GroundSpace, mask: int) -> int:
    """int(cl(mask)); idempotent on open sets, its fixed points are the
    regular open sets."""
    return space.regular_open_hulls[mask]


# -- metrics -----------------------------------------------------------


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ToolkitError(
        f"distances must be exact rationals (int or 'p/q' string), got {value!r}"
    )


@dataclass(frozen=True)
class Metric:
    """Exact rational distance matrix; triangle inequality optional.

    Distances are Fractions and every comparison is exact, so verdicts
    that depend on a gap threshold are bit-stable.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    semimetric: bool = False

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise ToolkitError("metric needs at least one point")
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise ToolkitError("metric matrix must be square")
            if row[i] != 0:
                raise ToolkitError(f"metric diagonal must be zero at {i}")
            for j, d in enumerate(row):
                if d != self.rows[j][i]:
                    raise ToolkitError(f"metric must be symmetric at ({i},{j})")
                if i != j and d <= 0:
                    raise ToolkitError(f"off-diagonal distances must be positive at ({i},{j})")
        if not self.semimetric:
            # Scaled to a common denominator the entries are ints; by
            # symmetry d(k, j) is row j's entry k.
            scale = lcm(*(d.denominator for row in self.rows for d in row))
            ints = [[d.numerator * (scale // d.denominator) for d in row] for row in self.rows]
            for i, row_i in enumerate(ints):
                for j, row_j in enumerate(ints):
                    d = row_i[j]
                    if d > min(map(add, row_i, row_j)):
                        k = next(k for k in range(n) if d > row_i[k] + row_j[k])
                        raise ToolkitError(
                            f"triangle inequality fails at ({i},{j},{k}); "
                            f"pass semimetric=True to relax"
                        )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], semimetric: bool = False) -> "Metric":
        return cls(tuple(tuple(_as_fraction(d) for d in row) for row in rows), semimetric)

    @classmethod
    def line(cls, n: int) -> "Metric":
        """Points 0..n-1 on a line, d(i,j) = |i-j|."""
        return cls.from_rows([[abs(i - j) for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.rows)

    def distance_values(self) -> tuple[Fraction, ...]:
        """Distinct off-diagonal distances, ascending."""
        vals = {self.rows[i][j] for i in range(self.n) for j in range(i + 1, self.n)}
        return tuple(sorted(vals))
