"""Reference checkers: the plain lexicographic loops, kept for differential tests.

`reference_rule` is the paper's definition of each constructor's
relation, the rule each constructor carried before point rows or a
dense matrix became its only description: closures meet (overlap, read
by `scan_closure`), the least distance is at most epsilon (gap, by
`metric_gap`), closures meet or both leave the ideal (Alexandroff), some
pair of points is related (point relation), the pair is listed (table),
and no separating set exists (derived strongly-far: `raw_strongly_far`
over the base's own definition). It reads no state of the relation but
its parameters. `matrix_twin` is the same relation with no point rows,
its dense matrix filled from that definition.

`axiom_witnesses` is the sweep `check_axioms` ran before the dense-matrix
kernel: for each axiom it walks pairs or triples of masks in ascending
order through a `near` predicate and returns the first violation. It sees
a relation only through `rule_near`, which calls `reference_rule`, so it
never touches the kernel or the matrix under test. `topology_witnesses`
is the pair scan of the open-family axioms. `close_under_intersection`
and `base_refines` are the hyperspace refinement test that enumerated
every finite intersection of a subbase before minimal neighbourhoods
replaced it. `scan_closure` is the per-mask scan of the closed sets that
the dense closure table replaced, and `far_miss_mask` is the far-miss
loop that asked `near` once per hyperpoint before it read matrix rows.
`smallest_open_superset` is the meet of the opens holding a mask, which
the hull table reads off the minimal neighbourhoods. `incompatibility_witness`
is the mask loop `is_compatible` ran for every relation before point rows
settled it in n row comparisons, and `triangle_failure` the exact-rational
triangle loop of `Metric` before it compared integers.

The strong-layer loops ran pair by pair before the sweeps read the
dense matrix: `raw_strongly_far` is the 2^n witness scan per pair,
`sf_miss_mask` the strongly-far-miss family built on it, `far_vs_sf`
the `check_far_vs_sf` sweep, `hat_witness` the hat search with its
per-hull memo of the best C, and `first_far_not_sf` and
`sf_not_hat_pairs` the double loops of the model searcher (the second
also the `check_sf_implies_hat` sweep).

`hit_mask` and `miss_mask` are the per-hyperpoint loops that built hit
and miss families before the per-point hyperpoint table, and
`brute_force_topologies` is the topology enumeration over every family
of proper nonempty masks that preorders replaced. Its relabeling filter
and the one in `brute_force_point_relations` take the least relabeling
of every family, the filters the enumerations ran before they marked
each orbit as seen.

`naive_search` is the model searcher's loop before it tested each
(topology, point relation) once per call: every candidate gets an axiom
report and its target test, as every target test once began with one.
`point_closure_hulls` is the O(n^2) loop over the minimal neighbourhoods
that the overlap and Alexandroff rows ran on every call before the
space cached U(cl{i}).

`subbase_neighbourhoods` is the walk over a subbase that minimal
hyperspace neighbourhoods took before each spec read them off one
closed form, and `inclusion_containment_violations` the family test of
the Lemma 3.7 sweep before it compared closed forms. `singleton_rows`
reads point rows off a relation's singleton verdicts, as tables did
before they read them off their pairs. `closed_random_topology` is the
sampled Alexandroff stage's topology draw before it read the minimal
neighbourhoods off the drawn masks: it closes them under pairwise union
and intersection until nothing changes. `kuratowski_violations` checks
any closure operator against the four Kuratowski axioms.
"""

from itertools import permutations

from proxitop.hyperspace import far_miss_set, sf_miss_set
from proxitop.proximity import AXIOM_NAMES, ProximityRelation, check_axioms
from proxitop.search import (
    STATUS_BUDGET,
    STATUS_EXHAUSTED,
    STATUS_WITNESS,
    SearchOutcome,
    _TARGET_TESTS,
    candidate_models,
)
from proxitop.spaces import GroundSpace, all_masks, bits_of


def metric_gap(metric, a, b):
    """min d(i, j) over i in A, j in B; None when either side is empty."""
    gaps = [metric.rows[i][j] for i in bits_of(a) for j in bits_of(b)]
    return min(gaps) if gaps else None


def reference_rule(prox):
    """The relation's definition, as a rule on masks (see the module docstring)."""
    space, kind, params = prox.space, prox.kind, prox.params
    if kind in ("overlap", "alexandroff"):
        cl = [scan_closure(space, m) for m in all_masks(space.n)]
    if kind == "overlap":
        return lambda a, b: cl[a] & cl[b] != 0
    if kind == "gap":
        metric, eps = params["metric"], params["epsilon"]

        def within(a, b):
            gap = metric_gap(metric, a, b)
            return gap is not None and gap <= eps

        return within
    if kind == "alexandroff":
        members = params["ideal"].members

        def meet_or_escape(a, b):
            if a == 0 or b == 0:
                return False
            return cl[a] & cl[b] != 0 or (cl[a] not in members and cl[b] not in members)

        return meet_or_escape
    if kind == "point_relation":
        rows = params["relation"].rows
        return lambda a, b: any(rows[i] & b for i in bits_of(a))
    if kind == "table":
        pairs = params["near_pairs"]
        return lambda a, b: ((a, b) if a <= b else (b, a)) in pairs
    if kind == "derived-sf":
        base_near, n = rule_near(params["base"]), space.n
        return lambda a, b: raw_strongly_far(base_near, n, a, b) is None
    raise ValueError(f"no definition for a {kind} relation")


def matrix_twin(prox):
    """The same relation without point rows: its matrix is filled from
    `reference_rule`, one call per unordered pair."""
    size = 1 << prox.space.n
    rule = reference_rule(prox)

    def matrix():
        rows = [0] * size
        for a in range(size):
            for b in range(a, size):
                if rule(a, b):
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
        return rows

    return ProximityRelation(prox.space, prox.kind, prox.params, matrix=matrix)


def rule_near(prox):
    """`reference_rule`, memoized under the unordered pair."""
    memo = {}
    rule = reference_rule(prox)

    def near(a, b):
        key = (a, b) if a <= b else (b, a)
        if key not in memo:
            memo[key] = rule(*key)
        return memo[key]

    return near


def axiom_witnesses(near, n, axioms=AXIOM_NAMES):
    """First violation (or None) per axiom, sweeping every mask."""
    full = (1 << n) - 1
    masks = list(all_masks(n))
    out = {}

    if "P0" in axioms:
        w = None
        for a in masks:
            for b in masks:
                if near(a, b) != near(b, a):
                    w = (a, b)
                    break
            if w:
                break
        out["P0"] = w

    if "P1" in axioms:
        w = None
        for b in masks:
            if near(0, b):
                w = (0, b)
                break
        out["P1"] = w

    if "P2" in axioms:
        w = None
        for a in masks:
            for b in masks:
                if a & b and not near(a, b):
                    w = (a, b)
                    break
            if w:
                break
        out["P2"] = w

    if "P3" in axioms:
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

    if "P4" in axioms:
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

    if "P5" in axioms:
        w = None
        for i in range(n):
            for j in range(i + 1, n):
                if near(1 << i, 1 << j):
                    w = (1 << i, 1 << j)
                    break
            if w:
                break
        out["P5"] = w

    if "EF" in axioms:
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

    if "EF-betweenness" in axioms:
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


def singleton_rows(n, near):
    """Per point i, R(i) = {j : {i} near {j}}, from one call per pair i < j.

    R(i) is taken to hold i, as P2 on singletons gives: the rows that
    generate a basic relation.
    """
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if near(1 << i, 1 << j):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def topology_witnesses(opens):
    """(union witness, intersection witness) of an ascending open family."""
    members = set(opens)
    union_witness = None
    intersection_witness = None
    for i, a in enumerate(opens):
        for b in opens[i:]:
            if union_witness is None and (a | b) not in members:
                union_witness = (a, b)
            if intersection_witness is None and (a & b) not in members:
                intersection_witness = (a, b)
    return union_witness, intersection_witness


def close_under_intersection(masks, full):
    """Every finite intersection of `masks` (the empty one is `full`), ascending."""
    base = {full}
    frontier = [full]
    gens = sorted(set(masks))
    while frontier:
        nxt = []
        for g in gens:
            for b in frontier:
                m = g & b
                if m not in base:
                    base.add(m)
                    nxt.append(m)
        frontier = nxt
    return tuple(sorted(base))


def subbase_neighbourhoods(masks, count):
    """Per point, the intersection of the members of `masks` through it."""
    full = (1 << count) - 1
    out = []
    for idx in range(count):
        m = full
        for g in masks:
            if g >> idx & 1:
                m &= g
        out.append(m)
    return out


def base_refines(left_masks, right_base, count):
    """(refines, first (G, p) in right_base order with no left interposition)."""
    min_nbhd = subbase_neighbourhoods(left_masks, count)
    for g in right_base:
        rest = g
        while rest:
            low = rest & -rest
            idx = low.bit_length() - 1
            rest ^= low
            if min_nbhd[idx] & ~g:
                return False, (g, idx)
    return True, None


def scan_closure(space, mask):
    """Meet of the closed supersets of `mask`, scanning every closed set."""
    result = space.full_mask
    for c in space.closed:
        if mask & ~c == 0:
            result &= c
    return result


def smallest_open_superset(space, mask):
    """Meet of the opens holding `mask`, scanning every open set."""
    result = space.full_mask
    for o in space.opens:
        if mask & ~o == 0:
            result &= o
    return result


def incompatibility_witness(prox):
    """First mask whose induced closure differs from the topological one, else None."""
    near = rule_near(prox)
    space = prox.space
    for a in all_masks(space.n):
        induced = sum(1 << i for i in range(space.n) if near(1 << i, a))
        if induced != scan_closure(space, a):
            return a
    return None


def triangle_failure(rows):
    """First (i, j, k) with d(i, j) > d(i, k) + d(k, j), in loop order, else None."""
    n = len(rows)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j]:
                    return (i, j, k)
    return None


def far_miss_mask(near, cl, comp):
    """Bitmask over `cl` of the hyperpoints far from `comp` (all if it is empty)."""
    mask = 0
    for idx, e in enumerate(cl):
        if comp == 0 or not near(e, comp):
            mask |= 1 << idx
    return mask


def inclusion_containment_violations(prox):
    """Open pairs (U, W), ascending, with far-miss(U) inside sf-miss(W) and
    U not inside W, from the two families of every open."""
    opens = prox.space.opens
    far = [far_miss_set(prox, u) for u in opens]
    sf = [sf_miss_set(prox, w) for w in opens]
    return tuple(
        (u, w)
        for u, far_u in zip(opens, far)
        for w, sf_w in zip(opens, sf)
        if far_u & ~sf_w == 0 and u & ~w
    )


def raw_strongly_far(near, n, a, b):
    """First C (mask order) with A far X\\C and C far B, given A far B; else None."""
    if near(a, b):
        return None
    full = (1 << n) - 1
    for c in all_masks(n):
        if not near(a, full & ~c) and not near(c, b):
            return c
    return None


def sf_miss_mask(near, n, cl, comp):
    """Bitmask over `cl` of the hyperpoints strongly far from `comp` (all if empty)."""
    mask = 0
    for idx, e in enumerate(cl):
        if comp == 0 or raw_strongly_far(near, n, e, comp) is not None:
            mask |= 1 << idx
    return mask


def far_vs_sf(near, n, examples_cap=5):
    """(strongly far count, far-only count, their first examples) over nonempty far pairs."""
    both = far_only = 0
    ex_both, ex_far = [], []
    for a in range(1, 1 << n):
        for b in range(1, 1 << n):
            if near(a, b):
                continue
            if raw_strongly_far(near, n, a, b) is not None:
                both += 1
                if len(ex_both) < examples_cap:
                    ex_both.append((a, b))
            else:
                far_only += 1
                if len(ex_far) < examples_cap:
                    ex_far.append((a, b))
    return both, far_only, tuple(ex_both), tuple(ex_far)


def hat_witness(hulls, a, b):
    """First (E, C) whose hulls cover A and B and are disjoint, or None."""
    best_c = {}
    for e, u in enumerate(hulls):
        if a & ~u:
            continue
        if u not in best_c:
            best_c[u] = next(
                (c for c, v in enumerate(hulls) if b & ~v == 0 and u & v == 0), -1
            )
        if best_c[u] >= 0:
            return (e, best_c[u])
    return None


def first_far_not_sf(near, n):
    """First nonempty far pair with no strongly-far witness, or None."""
    for a in range(1, 1 << n):
        for b in range(1, 1 << n):
            if not near(a, b) and raw_strongly_far(near, n, a, b) is None:
                return (a, b)
    return None


def sf_not_hat_pairs(near, n, hulls):
    """Every nonempty strongly-far pair that is not hat-strongly-far, ascending."""
    return tuple(
        (a, b)
        for a in range(1, 1 << n)
        for b in range(1, 1 << n)
        if raw_strongly_far(near, n, a, b) is not None and hat_witness(hulls, a, b) is None
    )


def hit_mask(cl, v):
    """Bitmask over `cl` of the hyperpoints meeting `v`."""
    return sum(1 << idx for idx, e in enumerate(cl) if e & v)


def miss_mask(cl, w):
    """Bitmask over `cl` of the hyperpoints inside `w`."""
    return sum(1 << idx for idx, e in enumerate(cl) if e & ~w == 0)


def brute_force_topologies(n, up_to_iso=False):
    """Every open family on n points, ascending, tried over all 2^(2^n - 2)
    choices of proper nonempty masks; with `up_to_iso` only the families
    that are least among their relabelings."""
    full = (1 << n) - 1
    middles = list(range(1, full))
    found = []
    for choice in range(1 << len(middles)):
        opens = {0, full} | {middles[k] for k in bits_of(choice)}
        if all((a | b) in opens and (a & b) in opens for a in opens for b in opens):
            found.append(tuple(sorted(opens)))
    found.sort()
    if not up_to_iso:
        return tuple(found)

    def relabel(mask, perm):
        return sum(1 << perm[i] for i in bits_of(mask))

    perms = list(permutations(range(n)))
    return tuple(
        fam
        for fam in found
        if min(tuple(sorted(relabel(m, p) for m in fam)) for p in perms) == fam
    )


def brute_force_point_relations(n):
    """Rows of the symmetric reflexive point relations on n points that are
    least among their relabelings, ascending by the bitmask of related
    pairs in lexicographic pair order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pair: k for k, pair in enumerate(pairs)}
    maps = [
        [index[tuple(sorted((p[i], p[j])))] for i, j in pairs]
        for p in permutations(range(n))
    ]
    out = []
    for edges in range(1 << len(pairs)):
        if min(sum(1 << m[k] for k in bits_of(edges)) for m in maps) == edges:
            rows = [1 << i for i in range(n)]
            for k in bits_of(edges):
                i, j = pairs[k]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            out.append(tuple(rows))
    return out


def naive_search(target, budget, seed):
    """`search` testing every candidate, with no memo of tested models."""
    test = _TARGET_TESTS[target.name]
    evaluations = models_checked = 0
    all_exhaustive = True
    for name, model, exhaustive_stage in candidate_models(target, seed):
        if evaluations >= budget:
            return SearchOutcome(
                target, STATUS_BUDGET, budget, seed, evaluations, models_checked,
                notes=(f"budget ran out before {name}",),
            )
        all_exhaustive = all_exhaustive and exhaustive_stage
        check_axioms(model.proximity)
        witness = test(model)
        evaluations += model.proximity.eval_count
        models_checked += 1
        if witness is not None:
            return SearchOutcome(
                target, STATUS_WITNESS, budget, seed, evaluations, models_checked,
                witness=witness, witness_name=name,
            )
    if all_exhaustive:
        return SearchOutcome(target, STATUS_EXHAUSTED, budget, seed, evaluations, models_checked)
    return SearchOutcome(
        target, STATUS_BUDGET, budget, seed, evaluations, models_checked,
        notes=("sampled stages ran; candidate space not exhausted",),
    )


def point_closure_hulls(space):
    """Per point i, the union of the U_p holding i."""
    ups = space._minimal_neighbourhoods
    rows = []
    for i in range(space.n):
        row = 0
        for u in ups:
            if u >> i & 1:
                row |= u
        rows.append(row)
    return tuple(rows)


def closed_random_topology(n, rng):
    """Up to n + 1 random proper nonempty masks with 0 and X, closed under
    pairwise union and intersection."""
    full = (1 << n) - 1
    opens = {0, full}
    for _ in range(rng.randrange(0, n + 2)):
        opens.add(rng.randrange(1, full))
    changed = True
    while changed:
        changed = False
        for a in list(opens):
            for b in list(opens):
                for m in (a | b, a & b):
                    if m not in opens:
                        opens.add(m)
                        changed = True
    return GroundSpace.create(n, opens)


def kuratowski_violations(n, cl):
    """Check an arbitrary closure operator against the four Kuratowski axioms.

    Independent of any space or relation machinery: it only calls `cl` on
    masks over an n-point set and reports (axiom, witness) violations.
    Acceptance criterion 01 (the induced closure of a compatible Lodato
    model is a Kuratowski closure) checks with it.
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
