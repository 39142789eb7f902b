"""Seeded model files for the four workloads, and the check of every output.

`build(workload, seed, workdir)` writes the workload's model files and
returns its fixed list of operations. Each operation is one CLI verb
call plus a `check` that compares the verb's JSON output with values
computed by `reference` (and, for small tables, the frozenset oracle in
`tests/oracle.py`), never with a stored copy of an earlier output. The
seed changes labels, block assignments, relations, ideals and named
subsets; the number of operations, the kinds and the sizes in each slot
are the same for every seed, so the cost of a round barely moves with it.
"""

from __future__ import annotations

import importlib.util
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import reference as ref

WORKLOADS = ("classify", "queries", "hyperspace", "search")

SEARCH_TARGETS = (
    "basic-not-lodato",
    "lodato-not-ef",
    "far-not-strongly-far",
    "sf-not-hat",
    "lemma37-violation",
    "incomparable-topologies",
)
# The paper's results rule these out on finite Lodato models.
NO_WITNESS_TARGETS = ("lodato-not-ef", "far-not-strongly-far", "sf-not-hat", "lemma37-violation")
# Relation evaluations allowed to the --max-n 5 searches: the exhaustive
# part up to four points needs about 4.1 million, the rest goes to the
# seeded sampled stage at five points.
SAMPLED_BUDGET = 5_000_000
TOPOLOGIES_UP_TO_HOMEOMORPHISM = (1, 3, 9, 33)  # OEIS A001930, n = 1..4


@dataclass
class Op:
    """One CLI call; `check` returns the disagreements found in its output."""

    label: str
    argv: list[str]
    check: Callable[[dict], list[str]]
    # Models brought to a verdict by a successful call.
    models: Callable[[dict], int] = lambda doc: 1
    # A known program fault: the call ends in exit 3 (size cap) every time.
    expect_cap: bool = False


# -- model descriptions ------------------------------------------------------


@dataclass
class Desc:
    """A generated model: enough to write its file and recompute its nearness."""

    n: int
    kind: str
    opens: Optional[list[int]] = None  # None means discrete
    dist: Optional[list[list[int]]] = None
    eps: int = 0
    ideal_top: Optional[int] = None
    table: list[tuple[int, int]] = field(default_factory=list)
    relation: list[int] = field(default_factory=list)  # adjacency masks
    blocks: Optional[list[int]] = None  # partition blocks (None: points)
    subsets: dict[str, int] = field(default_factory=dict)

    def space(self) -> ref.Space:
        return ref.Space(self.n, ref.discrete_opens(self.n) if self.opens is None else self.opens)

    def ideal(self, space: ref.Space) -> frozenset:
        return frozenset(c for c in space.closed if c & ~self.ideal_top == 0)

    def near(self, space: ref.Space) -> ref.Near:
        if self.kind == "overlap":
            near = ref.overlap_near(space)
        elif self.kind == "gap":
            near = ref.gap_near(self.dist, self.eps)
        elif self.kind == "alexandroff":
            near = ref.alexandroff_near(space, self.ideal(space))
        elif self.kind == "table":
            near = ref.table_near(self.table)
        else:
            near = ref.relation_near(self.relation)
        return ref.memo(near, self.n)


def label(i: int) -> str:
    return f"x{i}"


def fmt(mask: int) -> str:
    """A subset as the program's reports write it."""
    return "{" + ",".join(label(i) for i in ref.bits(mask)) + "}"


def unfmt(text: str) -> int:
    body = text.strip()[1:-1]
    return sum(1 << int(p[1:]) for p in body.split(",")) if body else 0


def _yaml_set(mask: int) -> str:
    return "[" + ", ".join(label(i) for i in ref.bits(mask)) + "]"


def to_yaml(d: Desc) -> str:
    lines = ["points: [" + ", ".join(label(i) for i in range(d.n)) + "]"]
    if d.opens is None:
        lines.append("topology: discrete")
    else:
        lines.append("topology:")
        lines += [f"  - {_yaml_set(o)}" for o in sorted(d.opens)]
    if d.dist is not None:
        lines += ["metric:", "  rows:"]
        lines += ["    - [" + ", ".join(str(x) for x in row) + "]" for row in d.dist]
    lines += ["proximity:", f"  kind: {d.kind}"]
    if d.kind == "gap":
        lines.append(f"  epsilon: {d.eps}")
    elif d.kind == "alexandroff":
        members = [c for c in d.space().closed if c and c & ~d.ideal_top == 0]
        lines.append("  ideal: [" + ", ".join(_yaml_set(c) for c in members) + "]")
    elif d.kind == "table":
        lines.append("  near:")
        lines += [f"    - [{_yaml_set(a)}, {_yaml_set(b)}]" for a, b in d.table]
    elif d.kind == "point_relation":
        pairs = [(i, j) for i in range(d.n) for j in ref.bits(d.relation[i]) if j > i]
        lines.append("  relation: [" + ", ".join(f"[{label(i)}, {label(j)}]" for i, j in pairs) + "]")
    if d.subsets:
        lines.append("subsets:")
        lines += [f"  {k}: {_yaml_set(v)}" for k, v in sorted(d.subsets.items())]
    return "\n".join(lines) + "\n"


# -- random structure with seed-independent size -------------------------------


def _perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def _relabel(mask: int, perm: list[int]) -> int:
    return sum(1 << perm[i] for i in ref.bits(mask))


def _rows_from_edges(n: int, edges) -> list[int]:
    rows = [1 << i for i in range(n)]
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows


def _random_edges(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return rng.sample(pairs, count)


def _blocks(rng: random.Random, sizes: list[int]) -> list[int]:
    perm = _perm(rng, sum(sizes))
    out, at = [], 0
    for s in sizes:
        out.append(sum(1 << perm[k] for k in range(at, at + s)))
        at += s
    return out


def _block_relation(n: int, blocks: list[int]) -> list[int]:
    return [next(b for b in blocks if b >> i & 1) for i in range(n)]


def _preorder_opens(rng: random.Random, n: int, leq: list[tuple[int, int]]) -> list[int]:
    """Alexandroff topology of a template order, relabeled by the seed."""
    up = [1 << i for i in range(n)]
    changed = True
    while changed:  # transitive closure of the template
        changed = False
        for i, j in leq:
            new = up[i] | up[j]
            if new != up[i]:
                up[i], changed = new, True
    perm = _perm(rng, n)
    relabeled = [0] * n
    for i in range(n):
        relabeled[perm[i]] = _relabel(up[i], perm)
    return ref.preorder_opens(n, relabeled)


def _line(rng: random.Random, gaps: list[int]) -> list[list[int]]:
    """Points on a line with the given gaps in seeded order, seeded labels."""
    gaps = gaps[:]
    rng.shuffle(gaps)
    pos = [0]
    for g in gaps:
        pos.append(pos[-1] + g)
    perm = _perm(rng, len(pos))
    at = [0] * len(pos)
    for k, p in enumerate(perm):
        at[p] = pos[k]
    return [[abs(a - b) for b in at] for a in at]


# -- classify -------------------------------------------------------------------


def _load_oracle(root: str):
    path = os.path.join(root, "tests", "oracle.py")
    spec = importlib.util.spec_from_file_location("proxitop_bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


AXIOMS = ("P0", "P1", "P2", "P3", "P4", "P5", "EF", "EF-betweenness")


def _table_desc(rng: random.Random, defect: str) -> Desc:
    """A five-point table: a point-generated relation written out, then
    one planted defect that decides the verdict at P1, P2 or P3."""
    n = 5
    near = ref.relation_near(_rows_from_edges(n, _random_edges(rng, n, 3)))
    size = 1 << n
    pairs = [(a, b) for a in range(size) for b in range(a, size) if near(a, b)]
    if defect == "P1":
        pairs.append((0, rng.randrange(1, size)))
    elif defect == "P2":
        pairs.remove(rng.choice([p for p in pairs if p[0] & p[1]]))
    elif defect == "P3":
        pairs.remove(rng.choice([
            (a, b) for a, b in pairs
            if not a & b and bin(a).count("1") + bin(b).count("1") >= 3
        ]))
    return Desc(n, "table", table=sorted(set(pairs)))


def _classify_descs(rng: random.Random) -> list[Desc]:
    """Two 5-point relations (about 30 ms a call), then a cluster of about
    200-270 ms: the four 5-point tables (their YAML dominates) and the
    cheaper 6-point models, then the dearer 6-point models and one 7-point
    model (about 2.5 s). The median of the 13 calls falls inside the cluster."""
    out = [Desc(5, "point_relation", relation=_rows_from_edges(5, _random_edges(rng, 5, k)))
           for k in (3, 4)]
    out += [_table_desc(rng, d) for d in ("P1", "P2", "P3", "none")]
    order6 = [(0, 2), (1, 2), (2, 4), (3, 4), (3, 5)]
    out.append(Desc(6, "overlap", opens=_preorder_opens(rng, 6, order6)))
    perm = _perm(rng, 6)
    cycle = [(perm[k], perm[(k + 1) % 6]) for k in range(6)]
    out.append(Desc(6, "point_relation", relation=_rows_from_edges(6, cycle)))
    out.append(Desc(6, "gap", dist=_line(rng, [1, 1, 2, 1, 3]), eps=1))
    alex = Desc(6, "alexandroff", opens=_preorder_opens(rng, 6, order6))
    space = alex.space()
    # The largest point closure: the same shape of ideal for every seed.
    alex.ideal_top = max((space.closure(1 << i) for i in range(6)), key=lambda c: (bin(c).count("1"), -c))
    out.append(alex)
    blocks = _blocks(rng, [3, 2, 1])
    out.append(Desc(6, "point_relation", opens=ref.partition_opens(blocks),
                    relation=_block_relation(6, blocks)))
    out.append(Desc(6, "overlap"))
    blocks = _blocks(rng, [3, 2, 1, 1])
    out.append(Desc(7, "point_relation", opens=ref.partition_opens(blocks),
                    relation=_block_relation(7, blocks)))
    for k, d in enumerate(out):  # named subsets only feed the statistics
        d.subsets = {"A": 1 << (k % d.n)}
    return out


def _expected_validate(d: Desc, oracle) -> dict:
    space = d.space()
    near = d.near(space)
    n = d.n
    if d.kind == "table":
        fs = lambda m: frozenset(ref.bits(m))  # noqa: E731
        verdicts = oracle.check_axioms(
            range(n), oracle.make_near([(fs(a), fs(b)) for a, b in d.table])
        )
        cls = verdicts.pop("classification")
    else:
        rows = ref.relation_from(near, n)
        point_near = ref.relation_near(rows)
        size = 1 << n
        if any(near(a, b) != point_near(a, b) for a in range(size) for b in range(size)):
            raise AssertionError(f"{d.kind} model is not point-generated")
        verdicts = ref.point_generated_verdicts(rows)
        cls = ref.classify(verdicts)
    return {
        "near": near,
        "verdicts": verdicts,
        "classification": cls,
        "T1": all(space.closure(1 << i) == 1 << i for i in range(n)),
        "closed_sets": len(space.closed),
        "hyperpoints": len(space.hyperpoints()),
        "near_singleton_pairs": sum(
            1 for i in range(n) for j in range(i, n) if near(1 << i, 1 << j)
        ),
        "compat_witness": ref.compatibility(space, near),
    }


def _check_validate(d: Desc, exp: dict, doc: dict) -> list[str]:
    bad = []

    def want(what, got, expected):
        if got != expected:
            bad.append(f"{what}: got {got!r}, expected {expected!r}")

    want("topology.valid", doc["topology"]["valid"], True)
    want("topology.T1", doc["topology"]["T1"], exp["T1"])
    for key in ("closed_sets", "hyperpoints", "near_singleton_pairs"):
        want(key, doc["statistics"][key], exp[key])
    want("named_subsets", doc["statistics"]["named_subsets"], len(d.subsets))
    prox = doc["proximity"]
    want("classification", prox["classification"], exp["classification"])
    want("exhaustive", prox["exhaustive"], True)
    want("separated", prox["separated"], exp["verdicts"]["P5"])
    for name in AXIOMS:
        entry = prox["axioms"][name]
        want(f"{name}.passed", entry["passed"], exp["verdicts"][name])
        witness = entry.get("witness")
        if entry["passed"]:
            want(f"{name}.witness", witness, None)
        elif witness is None or not ref.witness_violates(
            name, exp["near"], d.n, tuple(unfmt(w) for w in witness)
        ):
            bad.append(f"{name} witness {witness!r} does not violate the axiom")
    if exp["classification"] == "ef":
        want("p4_alongside_ef", prox.get("p4_alongside_ef"), exp["verdicts"]["P4"])
    cw = exp["compat_witness"]
    want("compatible", doc["compatibility"]["compatible"], cw is None)
    want("compatibility.witness", doc["compatibility"]["witness"], None if cw is None else fmt(cw))
    return bad


# -- queries ----------------------------------------------------------------------


def _pick_pair(rng, near, sf, sizes, kind, n):
    """Random named pair of the given sizes and relation type."""
    for _ in range(10_000):
        a = sum(1 << i for i in rng.sample(range(n), sizes[0]))
        b = sum(1 << i for i in rng.sample(range(n), sizes[1]))
        if kind == "overlapping":
            ok = a & b and a != b
        elif kind == "near":
            ok = not a & b and near(a, b)
        elif kind == "strongly-far":
            ok = not near(a, b) and sf(a, b) is not None
        else:  # far but not strongly far
            ok = not near(a, b) and sf(a, b) is None
        if ok:
            return a, b
    raise RuntimeError(f"no {kind} pair of sizes {sizes}")


PAIR_SIZES = {"near": (1, 1), "overlapping": (2, 2), "strongly-far": (1, 2), "far-not-sf": (1, 1)}


def _queries_descs(rng: random.Random) -> list[Desc]:
    """Three partition files, then two discrete files at 10 points and two
    at 11. The cost classes are far apart (about 10-80 ms, 250 ms, 1.2 s per
    call), so the median operation is always one of the 10-point ones."""
    out = []
    for n, sizes, kind in ((10, [4, 3, 3], "overlap"), (11, [3, 3, 3, 2], "point_relation"),
                           (12, [3, 3, 2, 2, 2], "overlap")):
        blocks = _blocks(rng, sizes)
        out.append(Desc(n, kind, opens=ref.partition_opens(blocks), blocks=blocks,
                        relation=_path_relation(rng, n) if kind == "point_relation" else []))
    for n, gaps in ((10, [1, 1, 1, 2, 1, 1, 3, 1, 1]), (11, [1, 1, 2, 1, 1, 1, 3, 1, 1, 2])):
        out.append(Desc(n, "gap", dist=_line(rng, gaps), eps=1))
        out.append(Desc(n, "point_relation", relation=_path_relation(rng, n)))
    return out


def _path_relation(rng: random.Random, n: int) -> list[int]:
    """A path on four seeded points and one more edge: not transitive."""
    perm = _perm(rng, n)
    path = [(perm[k], perm[k + 1]) for k in range(4)] + [(perm[5], perm[6])]
    return _rows_from_edges(n, path)


def _queries_near(d: Desc) -> ref.Near:
    if d.kind == "overlap":
        return lambda a, b: ref.saturation(d.blocks, a) & ref.saturation(d.blocks, b) != 0
    if d.kind == "gap":
        return ref.gap_near(d.dist, d.eps)
    return ref.relation_near(d.relation)


def _queries_pairs(d: Desc, rng: random.Random) -> list[tuple[str, str]]:
    near = _queries_near(d)
    sf = lambda a, b: ref.strongly_far(near, d.n, a, b)  # noqa: E731
    kinds = ["near", "overlapping", "strongly-far"]
    # Partition overlap relations are EF: far and strongly-far coincide.
    kinds.append("strongly-far" if d.kind == "overlap" else "far-not-sf")
    pairs = []
    for k, kind in enumerate(kinds):
        a, b = _pick_pair(rng, near, sf, PAIR_SIZES[kind], kind, d.n)
        d.subsets[f"A{k}"], d.subsets[f"B{k}"] = a, b
        pairs.append((f"A{k}", f"B{k}"))
    return pairs


def _check_relations(d: Desc, pairs, doc: dict) -> list[str]:
    near = _queries_near(d)
    full = (1 << d.n) - 1
    blocks = d.blocks or [1 << i for i in range(d.n)]
    bad = []
    rows = doc["pairs"]
    if len(rows) != len(pairs):
        return [f"{len(rows)} rows for {len(pairs)} pairs"]
    for (na, nb), row in zip(pairs, rows):
        a, b = d.subsets[na], d.subsets[nb]
        c = ref.strongly_far(near, d.n, a, b)
        hat = ref.saturation(blocks, a) & ref.saturation(blocks, b) == 0
        expected = {
            "pair": f"{na},{nb}", "A": fmt(a), "B": fmt(b),
            "near": near(a, b),
            "strongly_far": c is not None,
            "sf_witness": None if c is None else fmt(c),
            "hat_strongly_far": hat,
            "A_strongly_included_in_B": not near(a, full & ~b),
            "B_strongly_included_in_A": not near(b, full & ~a),
        }
        for key, value in expected.items():
            if row.get(key) != value:
                bad.append(f"{na},{nb} {key}: got {row.get(key)!r}, expected {value!r}")
        hw = row.get("hat_witness")
        if hat:
            if not hw:
                bad.append(f"{na},{nb}: hat witness missing")
                continue
            u, v = (ref.saturation(blocks, unfmt(m)) for m in hw)
            if a & ~u or b & ~v or u & v:
                bad.append(f"{na},{nb}: hat witness {hw!r} does not separate")
        elif hw is not None:
            bad.append(f"{na},{nb}: hat witness {hw!r} for a pair that is not hat-far")
    return bad


# -- hyperspace -----------------------------------------------------------------------


# Ten comparisons take under 10 ms, the six-block miss-only one about
# 20 ms, and ten take 50 ms or more, so the median operation is always the
# seed-independent six-block one.
HYPER_COMPARISONS = [
    ("disc3-alex", [("vietoris", "fell"), ("hit_and_miss", "sf_miss"), ("far_miss_only", "sf_miss_only")]),
    ("disc4-alex", [("vietoris", "far_miss"), ("fell", "far_miss"), ("sf_miss", "sf_miss_only")]),
    ("disc5-alex", [("vietoris", "sf_miss"), ("fell", "hit_and_miss"), ("far_miss_only", "sf_miss_only")]),
    ("part3-relation", [("far_miss", "sf_miss"), ("vietoris", "far_miss_only"), ("far_miss_only", "sf_miss_only")]),
    ("part5-overlap", [("vietoris", "far_miss"), ("far_miss", "sf_miss"), ("vietoris", "sf_miss_only")]),
    ("part5-alex", [("fell", "vietoris"), ("hit_and_miss", "far_miss"), ("sf_miss", "far_miss_only")]),
]
# Six blocks give 63 hyperpoints. With a hit half the finite-intersection
# base passes the program's 200,000 cap and the call ends in exit 3; the
# miss-only comparison stays under it. This file never depends on the seed.
SIX_BLOCK_COMPARISONS = [("vietoris", "far_miss"), ("far_miss", "sf_miss"), ("far_miss_only", "sf_miss_only")]


def _hyper_descs(rng: random.Random) -> list[Desc]:
    out = []
    for n in (3, 4, 5):
        out.append(Desc(n, "alexandroff", ideal_top=sum(1 << i for i in rng.sample(range(n), n // 2))))
    blocks = _blocks(rng, [2, 2, 2])
    out.append(Desc(6, "point_relation", opens=ref.partition_opens(blocks), blocks=blocks,
                    relation=_rows_from_edges(6, _random_edges(rng, 6, 3))))
    blocks = _blocks(rng, [2, 2, 2, 1, 1])
    out.append(Desc(8, "overlap", opens=ref.partition_opens(blocks), blocks=blocks))
    blocks = _blocks(rng, [2, 2, 1, 1, 1])
    out.append(Desc(7, "alexandroff", opens=ref.partition_opens(blocks), blocks=blocks,
                    ideal_top=blocks[0] | blocks[1]))
    return out


def _expected_compare(d: Desc, left: str, right: str) -> dict:
    space = d.space()
    near = d.near(space)
    ideal = d.ideal(space) if d.ideal_top is not None else None
    cl = space.hyperpoints()
    lf = ref.subbase(space, near, ideal, left)
    rf = ref.subbase(space, near, ideal, right)
    lmin = ref.minimal_neighbourhoods(lf, len(cl))
    rmin = ref.minimal_neighbourhoods(rf, len(cl))
    verdict, lr, rl = ref.compare_verdict(lmin, rmin)
    return {"cl": cl, "lf": len(lf), "rf": len(rf), "lmin": lmin, "rmin": rmin,
            "verdict": verdict, "lr": lr, "rl": rl}


def _check_compare(exp: dict, doc: dict) -> list[str]:
    bad = []
    cl = exp["cl"]
    index = {fmt(c): k for k, c in enumerate(cl)}
    got = (doc["hyperpoints"], doc["left"]["subbase"], doc["right"]["subbase"], doc["verdict"],
           doc["left_refines_right"], doc["right_refines_left"])
    want = (len(cl), exp["lf"], exp["rf"], exp["verdict"], exp["lr"], exp["rl"])
    if got != want:
        bad.append(f"(hyperpoints, subbases, verdict, refines) got {got!r}, expected {want!r}")
    for key, refines_ok, finer in (
        ("witness_left_to_right", exp["lr"], exp["lmin"]),
        ("witness_right_to_left", exp["rl"], exp["rmin"]),
    ):
        w = doc[key]
        if refines_ok:
            if w is not None:
                bad.append(f"{key}: {w!r} although the refinement holds")
            continue
        if w is None:
            bad.append(f"{key}: missing")
            continue
        family = sum(1 << index[m] for m in w["family"])
        p = index[w["hyperpoint"]]
        # The witness is an open family through p that no neighbourhood of
        # p in the finer-candidate topology fits inside.
        if not family >> p & 1 or finer[p] & ~family == 0:
            bad.append(f"{key}: {w!r} is not a failed interposition")
    return bad


# -- search -------------------------------------------------------------------------


def _search_ops(seed: int, root: str) -> list[Op]:
    tops = {n: ref.topologies_up_to_homeomorphism(n) for n in range(1, 5)}
    counts = tuple(len(tops[n]) for n in range(1, 5))
    if counts != TOPOLOGIES_UP_TO_HOMEOMORPHISM:
        raise AssertionError(f"reference topology counts {counts}")
    exhaustive = ref.exhaustive_candidates(4, tops)

    def check(target: str, max_n: int) -> Callable[[dict], list[str]]:
        def run(doc: dict) -> list[str]:
            bad = []
            status = doc["status"]
            if status == "witness-found":
                if target in NO_WITNESS_TARGETS:
                    return [f"{target}: witness {doc.get('witness_candidate')} found"]
                return _check_witness(target, doc["witness_model"])
            if target == "basic-not-lodato":
                return [f"basic-not-lodato ended {status}; a 3-point path is a witness"]
            if max_n == 4:
                if status != "exhausted-no-witness":
                    bad.append(f"status {status}")
                if doc["models_checked"] != exhaustive:
                    bad.append(f"models_checked {doc['models_checked']}, closed form {exhaustive}")
            else:
                if status != "budget-exhausted":
                    bad.append(f"status {status}")
                if doc["models_checked"] <= exhaustive:
                    bad.append(f"sampled stage not reached: {doc['models_checked']} models")
            return bad

        return run

    ops = []
    for target in SEARCH_TARGETS:
        argv = ["search", "--target", target, "--max-n", "4", "--seed", str(seed)]
        ops.append(Op(f"{target}/4", argv, check(target, 4), _models_checked))
    for target in ("far-not-strongly-far", "incomparable-topologies"):
        argv = ["search", "--target", target, "--max-n", "5", "--seed", str(seed),
                "--budget", str(SAMPLED_BUDGET)]
        ops.append(Op(f"{target}/5", argv, check(target, 5), _models_checked))
    return ops


def _models_checked(doc: dict) -> int:
    return doc["models_checked"]


def _check_witness(target: str, text: str) -> list[str]:
    """Replay a witness file with the program, then recheck it apart from it."""
    import yaml
    from proxitop import modelfile
    from proxitop.search import replay

    if not replay(modelfile.parse(text)):
        return [f"{target}: witness does not replay"]
    doc = yaml.safe_load(text)
    names = doc["points"]
    n = len(names)
    idx = {name: i for i, name in enumerate(names)}
    mask = lambda members: sum(1 << idx[m] for m in members)  # noqa: E731
    opens = None if doc["topology"] == "discrete" else [mask(o) for o in doc["topology"]]
    prox = doc["proximity"]
    d = Desc(n, prox["kind"], opens=opens)
    if d.kind == "point_relation":
        d.relation = _rows_from_edges(n, [(idx[x], idx[y]) for x, y in prox.get("relation") or []])
    elif d.kind == "alexandroff":
        ideal = prox["ideal"]
        space = d.space()
        d.ideal_top = space.full if ideal == "all" else max((mask(m) for m in ideal), default=0)
    elif d.kind == "gap":
        d.dist, d.eps = doc["metric"]["rows"], int(prox["epsilon"])
    elif d.kind == "table":
        d.table = [(mask(a), mask(b)) for a, b in prox.get("near") or []]
    space = d.space()
    near = d.near(space)
    subsets = {k: mask(v) for k, v in (doc.get("subsets") or {}).items()}
    if target == "basic-not-lodato":
        rows = ref.relation_from(near, n)
        if ref.classify(ref.point_generated_verdicts(rows)) != "basic":
            return ["basic-not-lodato witness is not basic"]
        w = (subsets["A"], subsets["B"], subsets["C"])
        if not ref.witness_violates("P4", near, n, w):
            return ["basic-not-lodato witness triple does not violate P4"]
        return []
    if target == "incomparable-topologies":
        cl = space.hyperpoints()
        mins = [ref.minimal_neighbourhoods(ref.subbase(space, near, None, s), len(cl))
                for s in ("far_miss_only", "sf_miss_only")]
        if ref.compare_verdict(*mins)[0] != "incomparable":
            return ["incomparable-topologies witness compares as comparable"]
        return []
    return [f"{target}: no independent check for its witness"]


# -- building a workload ----------------------------------------------------------------


def _write(workdir: str, name: str, d: Desc) -> str:
    path = os.path.join(workdir, f"{name}.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_yaml(d))
    return path


FLAGS = ["--json", "--no-timestamp"]


def build(workload: str, seed: int, workdir: str, root: str) -> list[Op]:
    """Write the workload's model files under `workdir`; return its operations."""
    rng = random.Random(f"{workload}-{seed}")
    ops: list[Op] = []
    if workload == "classify":
        oracle = _load_oracle(root)
        for k, d in enumerate(_classify_descs(rng)):
            path = _write(workdir, f"classify{k}", d)
            exp = _expected_validate(d, oracle)
            ops.append(Op(f"validate/{d.kind}/{d.n}",
                          ["validate", path] + FLAGS,
                          lambda doc, d=d, exp=exp: _check_validate(d, exp, doc)))
    elif workload == "queries":
        for k, d in enumerate(_queries_descs(rng)):
            pairs = _queries_pairs(d, rng)
            path = _write(workdir, f"queries{k}", d)
            spec = ";".join(f"{a},{b}" for a, b in pairs)
            ops.append(Op(f"relations/{d.kind}/{d.n}",
                          ["relations", path, "--pairs", spec] + FLAGS,
                          lambda doc, d=d, pairs=pairs: _check_relations(d, pairs, doc)))
    elif workload == "hyperspace":
        files = list(zip(HYPER_COMPARISONS, _hyper_descs(rng)))
        six = Desc(6, "overlap")
        files.append((("disc6-overlap", SIX_BLOCK_COMPARISONS), six))
        for (name, comparisons), d in files:
            path = _write(workdir, name, d)
            for left, right in comparisons:
                exp = _expected_compare(d, left, right)
                ops.append(Op(f"compare/{name}/{left}/{right}",
                              ["compare", path, "--left", left, "--right", right] + FLAGS,
                              lambda doc, exp=exp: _check_compare(exp, doc),
                              expect_cap=d is six and "_only" not in left))
    elif workload == "search":
        ops = _search_ops(seed, root)
        for op in ops:
            op.argv += FLAGS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops

