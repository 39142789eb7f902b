"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports the package under test. Subsets of an n-point set
are bitmasks, as in the program, but every quantity is recomputed from
the raw definitions: closures from the closed family, nearness from the
model's own definition (closures, distances, ideal, table or point
relation), strongly-far by a sweep over all 2^n separators, and
hyperspace refinement from each hyperpoint's minimal neighbourhood.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Optional

Near = Callable[[int, int], bool]


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


# -- finite spaces -------------------------------------------------------


class Space:
    """A finite space given by its open family."""

    def __init__(self, n: int, opens):
        self.n = n
        self.full = (1 << n) - 1
        self.opens = tuple(sorted(set(opens)))
        self.closed = tuple(sorted(self.full & ~o for o in self.opens))
        self._cl = [self._closure(m) for m in range(1 << n)]

    def _closure(self, mask: int) -> int:
        out = self.full
        for c in self.closed:
            if mask & ~c == 0:
                out &= c
        return out

    def closure(self, mask: int) -> int:
        return self._cl[mask]

    def hyperpoints(self) -> list[int]:
        """CL(X): the nonempty closed sets, ascending."""
        return [c for c in self.closed if c]


def discrete_opens(n: int) -> list[int]:
    return list(range(1 << n))


def partition_opens(blocks: list[int]) -> list[int]:
    """Unions of blocks (blocks given as masks)."""
    opens = [0]
    for b in blocks:
        opens += [o | b for o in opens]
    return opens


def preorder_opens(n: int, up: list[int]) -> list[int]:
    """Open sets of the Alexandroff topology whose minimal open
    neighbourhood of point i is up[i] (up sets of a preorder)."""
    return [m for m in range(1 << n) if all(up[i] & ~m == 0 for i in bits(m))]


# -- nearness from the model's definition ----------------------------------


def overlap_near(space: Space) -> Near:
    return lambda a, b: space.closure(a) & space.closure(b) != 0


def gap_near(dist: list[list[int]], eps: int) -> Near:
    def near(a: int, b: int) -> bool:
        if not a or not b:
            return False
        return min(dist[i][j] for i in bits(a) for j in bits(b)) <= eps

    return near


def alexandroff_near(space: Space, ideal: frozenset) -> Near:
    def near(a: int, b: int) -> bool:
        if not a or not b:
            return False
        ca, cb = space.closure(a), space.closure(b)
        return bool(ca & cb) or (ca not in ideal and cb not in ideal)

    return near


def table_near(pairs) -> Near:
    table = {(min(a, b), max(a, b)) for a, b in pairs}
    return lambda a, b: (min(a, b), max(a, b)) in table


def relation_near(rows: list[int]) -> Near:
    return lambda a, b: any(rows[i] & b for i in bits(a))


def memo(near: Near, n: int) -> Near:
    """Materialize a nearness predicate as a 2^n x 2^n table."""
    size = 1 << n
    rows = [[near(a, b) for b in range(size)] for a in range(size)]
    return lambda a, b: rows[a][b]


def relation_from(near: Near, n: int) -> list[int]:
    """The point relation i ~ j iff {i} near {j}, as adjacency masks."""
    return [sum(1 << j for j in range(n) if near(1 << i, 1 << j)) for i in range(n)]


def is_transitive(rows: list[int]) -> bool:
    return all(rows[j] & ~rows[i] == 0 for i in range(len(rows)) for j in bits(rows[i]))


def point_generated_verdicts(rows: list[int]) -> dict[str, bool]:
    """Axiom verdicts of a point-generated relation, from its point relation.

    A point-generated relation is always basic (P0-P3). P4 and both EF
    forms hold iff the relation is transitive; P5 iff it is the equality.
    """
    trans = is_transitive(rows)
    return {
        "P0": True, "P1": True, "P2": True, "P3": True,
        "P4": trans, "P5": all(r == 1 << i for i, r in enumerate(rows)),
        "EF": trans, "EF-betweenness": trans,
    }


def classify(v: dict[str, bool]) -> str:
    if not all(v[p] for p in ("P0", "P1", "P2", "P3")):
        return "not-basic"
    if v["EF"]:
        return "ef"
    return "lodato" if v["P4"] else "basic"


def witness_violates(name: str, near: Near, n: int, w: tuple[int, ...]) -> bool:
    """Does `w` violate the defining condition of axiom `name`?"""
    full = (1 << n) - 1
    if name == "P0":
        a, b = w
        return near(a, b) != near(b, a)
    if name == "P1":
        a, b = w
        return a == 0 and near(a, b)
    if name == "P2":
        a, b = w
        return bool(a & b) and not near(a, b)
    if name == "P3":
        a, b, c = w
        return near(a, b | c) != (near(a, b) or near(a, c))
    if name == "P4":
        a, b, c = w
        return near(a, b) and not near(a, c) and all(near(1 << i, c) for i in bits(b))
    if name == "P5":
        a, b = w
        return a != b and bin(a).count("1") == 1 and bin(b).count("1") == 1 and near(a, b)
    if name == "EF":
        a, b = w
        return not near(a, b) and not any(
            not near(a, e) and not near(full & ~e, b) for e in range(full + 1)
        )
    if name == "EF-betweenness":
        a, b = w
        return not near(a, full & ~b) and not any(
            not near(a, full & ~c) and not near(c, full & ~b) for c in range(full + 1)
        )
    raise ValueError(name)


def compatibility(space: Space, near: Near) -> Optional[int]:
    """First mask whose induced closure differs from the topological one."""
    for a in range(1 << space.n):
        induced = sum(1 << i for i in range(space.n) if near(1 << i, a))
        if induced != space.closure(a):
            return a
    return None


# -- strong relations ------------------------------------------------------


def strongly_far(near: Near, n: int, a: int, b: int) -> Optional[int]:
    """First separator C in mask order with A far X\\C and C far B, or None."""
    full = (1 << n) - 1
    if near(a, b):
        return None
    for c in range(full + 1):
        if not near(a, full & ~c) and not near(c, b):
            return c
    return None


def saturation(blocks: list[int], mask: int) -> int:
    return sum(b for b in blocks if b & mask)


# -- hyperspace --------------------------------------------------------------


def subbase(space: Space, near: Near, ideal: Optional[frozenset], spec: str) -> set[int]:
    """The subbase of a hyperspace topology, as family masks over CL(X)."""
    cl = space.hyperpoints()
    full = space.full

    def family(pred) -> int:
        return sum(1 << k for k, e in enumerate(cl) if pred(e))

    fams = set()
    kind = spec[: -len("_only")] if spec.endswith("_only") else spec
    if not spec.endswith("_only"):
        fams |= {family(lambda e, v=v: e & v != 0) for v in space.opens}
    for w in space.opens:
        comp = full & ~w
        if kind == "vietoris" or (kind in ("fell", "hit_and_miss") and comp in ideal):
            fams.add(family(lambda e, w=w: e & ~w == 0))
        elif kind == "far_miss":
            fams.add(family(lambda e, c=comp: c == 0 or not near(e, c)))
        elif kind == "sf_miss":
            fams.add(family(lambda e, c=comp: c == 0 or strongly_far(near, space.n, e, c) is not None))
    return fams


def minimal_neighbourhoods(fams: set[int], count: int) -> list[int]:
    full = (1 << count) - 1
    out = []
    for p in range(count):
        m = full
        for f in fams:
            if f >> p & 1:
                m &= f
        out.append(m)
    return out


def compare_verdict(left: list[int], right: list[int]) -> tuple[str, bool, bool]:
    """Verdict from minimal neighbourhoods: L refines R iff minL(p) <= minR(p)."""
    lr = all(l & ~r == 0 for l, r in zip(left, right))
    rl = all(r & ~l == 0 for l, r in zip(left, right))
    if lr and rl:
        verdict = "equal"
    elif lr:
        verdict = "left-strictly-finer"
    elif rl:
        verdict = "right-strictly-finer"
    else:
        verdict = "incomparable"
    return verdict, lr, rl


# -- closed forms for the search candidate space -----------------------------


def topologies_up_to_homeomorphism(n: int) -> list[tuple[int, ...]]:
    """Open families on n points, one per homeomorphism class (brute force)."""
    full = (1 << n) - 1
    middles = list(range(1, full))
    found = []
    for choice in range(1 << len(middles)):
        fam = {0, full} | {middles[k] for k in bits(choice)}
        if all((a | b) in fam and (a & b) in fam for a in fam for b in fam):
            found.append(frozenset(fam))
    perms = list(permutations(range(n)))
    seen: set[frozenset] = set()
    reps = []
    for fam in found:
        if fam in seen:
            continue
        for p in perms:
            seen.add(frozenset(sum(1 << p[i] for i in bits(m)) for m in fam))
        reps.append(tuple(sorted(fam)))
    return reps


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def exhaustive_candidates(n_max: int, topology_counts: dict[int, list[tuple[int, ...]]]) -> int:
    """Size of the documented exhaustive candidate space for n = 1..n_max.

    Tables at n <= 2 (2^(m(m+1)/2) over m nonempty masks), 2^C(n,2) point
    relations, Bell(n) transitive relations on their partition space, n
    line-metric gap thresholds from n = 2, and for each topology up to
    homeomorphism one Alexandroff model per closed set.
    """
    total = 0
    for n in range(1, n_max + 1):
        if n <= 2:
            m = (1 << n) - 1
            total += 1 << (m * (m + 1) // 2)
        total += 1 << (n * (n - 1) // 2)
        total += bell(n)
        total += n if n >= 2 else 0
        total += sum(len(fam) for fam in topology_counts[n])
    return total
