"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
shared corpus (>= 200 seeded models, n <= 5) is classified once per
session; each criterion then sweeps the slice it quantifies over at its
stated tolerance (zero violations unless noted).
"""

import io
import time
from contextlib import redirect_stdout
from pathlib import Path

import oracle
from proxitop import (
    GroundSpace,
    build_topology,
    check_axioms,
    check_far_vs_sf,
    check_inclusion_containment,
    check_sf_implies_hat,
    compare,
    derived_near_from_sf,
    hat_strongly_far,
    induced_closure,
    overlap_proximity,
    refines,
    replay,
    search,
    strongly_far,
    table_proximity,
)
from proxitop.cli import main as cli_main
from proxitop.proximity import CompactnessIdeal
from proxitop.search import STATUS_EXHAUSTED, STATUS_WITNESS, SearchTarget
from reference import kuratowski_violations

MODELS = Path(__file__).parent.parent / "models"


def verdict_line(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {name}: {status} ({detail})")


def test_criterion_01_kuratowski_suite(classified_corpus):
    started = time.time()
    checked = 0
    violations = []
    for model, report, compatible in classified_corpus:
        if not (report.is_lodato and compatible):
            continue
        checked += 1
        prox = model.prox
        bad = kuratowski_violations(model.space.n, lambda a: induced_closure(prox, a))
        if bad:
            violations.append((model.name, bad[0]))
    elapsed = time.time() - started
    ok = not violations and checked > 0 and elapsed < 60
    verdict_line(
        1,
        "kuratowski axioms of the induced closure",
        ok,
        f"{checked} compatible lodato models of {len(classified_corpus)}, "
        f"{len(violations)} violations, {elapsed:.1f}s < 60s",
    )
    assert violations == []
    assert checked > 0
    assert elapsed < 60


def test_criterion_02_derived_relation_is_basic(classified_corpus):
    started = time.time()
    checked = 0
    violations = []
    for model, report, _ in classified_corpus:
        if not report.is_lodato:
            continue
        checked += 1
        derived = derived_near_from_sf(model.prox)
        sub = check_axioms(derived, axioms=("P0", "P1", "P2", "P3"))
        for axiom in ("P0", "P1", "P2", "P3"):
            if not sub.passed(axiom):
                violations.append((model.name, axiom, sub.verdicts[axiom].witness))
    elapsed = time.time() - started
    ok = not violations and checked > 0 and elapsed < 120
    verdict_line(
        2,
        "derived strongly-far relation passes P0-P3 on lodato models",
        ok,
        f"{checked} lodato models, {len(violations)} violations, {elapsed:.1f}s < 120s",
    )
    assert violations == []
    assert checked > 0
    assert elapsed < 120


def test_criterion_03_strongly_far_implies_hat(classified_corpus):
    started = time.time()
    checked = 0
    pairs = 0
    violations = []
    for model, report, compatible in classified_corpus:
        if model.space.n > 4 or not (report.is_lodato and compatible):
            continue
        sweep = check_sf_implies_hat(model.space, model.prox)
        assert sweep.applicable, model.name
        checked += 1
        pairs += sweep.pairs_checked
        violations.extend((model.name, v) for v in sweep.violations)
    elapsed = time.time() - started
    ok = not violations and checked > 0 and elapsed < 120
    verdict_line(
        3,
        "strongly-far implies hat-strongly-far on compatible lodato models",
        ok,
        f"{checked} models, {pairs} pairs, {len(violations)} violations, "
        f"{elapsed:.1f}s < 120s",
    )
    assert violations == []
    assert checked > 0
    assert elapsed < 120


def test_criterion_04_ef_collapse(classified_corpus):
    started = time.time()
    checked = 0
    violations = []
    for model, report, _ in classified_corpus:
        if report.classification != "ef":
            continue
        checked += 1
        partition = check_far_vs_sf(model.prox)
        if partition.far_not_strongly_far != 0:
            violations.append((model.name, "far-but-not-strongly-far nonempty"))
            continue
        left = build_topology(model.space, "far_miss", prox=model.prox)
        right = build_topology(model.space, "sf_miss", prox=model.prox)
        verdict = compare(left, right).verdict
        if verdict != "equal":
            violations.append((model.name, f"topologies {verdict}"))
    elapsed = time.time() - started
    ok = not violations and checked > 0
    verdict_line(
        4,
        "EF collapse: far equals strongly-far and the miss topologies agree",
        ok,
        f"{checked} ef models, {len(violations)} violations, {elapsed:.1f}s",
    )
    assert violations == []
    assert checked > 0


def test_criterion_05_inclusion_forces_containment(classified_corpus):
    started = time.time()
    applicable = 0
    skipped = 0
    pairs = 0
    violations = []
    for model, report, compatible in classified_corpus:
        sweep = check_inclusion_containment(model.space, model.prox)
        if not sweep.applicable:
            # the sweep's hypotheses are lodato + compatibility; outside
            # them it must still say why instead of passing silently
            assert sweep.reason, model.name
            skipped += 1
            continue
        applicable += 1
        pairs += sweep.pairs_checked
        violations.extend((model.name, v) for v in sweep.violations)
    elapsed = time.time() - started
    ok = not violations and applicable > 0
    verdict_line(
        5,
        "far-miss inclusion in sf-miss forces set containment",
        ok,
        f"{applicable} applicable models ({skipped} skipped with reason), "
        f"{pairs} open pairs, {len(violations)} violations, {elapsed:.1f}s",
    )
    assert violations == []
    assert applicable > 0


def test_criterion_06_ef_formulations_agree(classified_corpus):
    violations = [
        (model.name, report.passed("EF"), report.passed("EF-betweenness"))
        for model, report, _ in classified_corpus
        if report.passed("EF") != report.passed("EF-betweenness")
    ]
    ok = not violations
    verdict_line(
        6,
        "EF verdict equals the betweenness formulation",
        ok,
        f"{len(classified_corpus)} models, {len(violations)} disagreements",
    )
    assert violations == []


def test_criterion_07_discrete_collapse():
    started = time.time()
    failures = []
    for n in (2, 3, 4):
        space = GroundSpace.discrete(n)
        viet = build_topology(space, "vietoris")
        far = build_topology(space, "far_miss", prox=overlap_proximity(space))
        fell = build_topology(space, "fell", ideal=CompactnessIdeal.all_closed(space))
        if compare(far, viet).verdict != "equal":
            failures.append((n, "far_miss vs vietoris"))
        if compare(fell, viet).verdict != "equal":
            failures.append((n, "fell(all closed) vs vietoris"))
    elapsed = time.time() - started
    ok = not failures
    verdict_line(
        7,
        "discrete collapse: far-miss and fell coincide with vietoris",
        ok,
        f"n in 2..4, {len(failures)} failures, {elapsed:.1f}s",
    )
    assert failures == []


def test_criterion_08_independent_oracle_agreement():
    started = time.time()
    points = [0, 1]
    subsets = [s for s in oracle.powerset(points) if s]
    pair_space = [(a, b) for i, a in enumerate(subsets) for b in subsets[i:]]
    space = GroundSpace.discrete(2)

    def to_mask(s):
        return sum(1 << p for p in s)

    axiom_checks = 0
    sf_checks = 0
    disagreements = []
    for table_id in range(1 << len(pair_space)):
        chosen = [pair_space[k] for k in range(len(pair_space)) if table_id >> k & 1]
        near = oracle.make_near(chosen)
        expected = oracle.check_axioms(points, near)
        prox = table_proximity(space, [(to_mask(a), to_mask(b)) for a, b in chosen])
        report = check_axioms(prox)
        for axiom in ("P0", "P1", "P2", "P3", "P4", "P5", "EF", "EF-betweenness"):
            axiom_checks += 1
            if report.passed(axiom) != expected[axiom]:
                disagreements.append((table_id, axiom))
        if report.classification != expected["classification"]:
            disagreements.append((table_id, "classification"))
        for a in subsets:
            for b in subsets:
                sf_checks += 1
                mine = strongly_far(prox, to_mask(a), to_mask(b)).holds
                theirs = oracle.strongly_far(points, near, a, b)
                if mine != theirs:
                    disagreements.append((table_id, "strongly_far", a, b))

    hat_checks = 0
    refine_checks = 0
    topologies = oracle.all_topologies(points)
    spaces = []
    for fam in topologies:
        opens = tuple(sorted(to_mask(o) for o in fam))
        spaces.append((fam, GroundSpace.create(2, opens)))
    for fam, sp in spaces:
        for a in subsets:
            for b in subsets:
                hat_checks += 1
                mine = hat_strongly_far(sp, to_mask(a), to_mask(b)).holds
                theirs = oracle.hat_strongly_far(points, fam, a, b)
                if mine != theirs:
                    disagreements.append(("hat", sorted(map(sorted, fam)), a, b))

    # refinement: several hyperspace topologies over each ground space,
    # module's base-level test vs the oracle's fully materialized families
    kind_pairs = [
        ("vietoris", "vietoris"),
        ("fell_trivial_ideal", "fell"),
        ("far_miss_only", "far_miss_only"),
        ("sf_miss_only", "sf_miss_only"),
    ]
    for fam, sp in spaces:
        prox = overlap_proximity(sp)
        trivial_ideal = CompactnessIdeal(sp, frozenset([0]))
        module_bases = []
        oracle_families = []
        for oracle_kind, module_kind in kind_pairs:
            module_bases.append(
                build_topology(sp, module_kind, prox=prox, ideal=trivial_ideal)
            )
            oracle_families.append(
                oracle.open_family_from_subbase(
                    oracle.cl_points(points, fam),
                    oracle.hyper_subbase(points, fam, oracle_kind),
                )
            )
        for i, left in enumerate(module_bases):
            for j, right in enumerate(module_bases):
                refine_checks += 1
                mine = refines(left, right).refines
                theirs = oracle.refines(oracle_families[i], oracle_families[j])
                if mine != theirs:
                    disagreements.append(
                        ("refines", sorted(map(sorted, fam)), kind_pairs[i], kind_pairs[j])
                    )

    elapsed = time.time() - started
    ok = not disagreements
    verdict_line(
        8,
        "independent oracle agrees at n=2",
        ok,
        f"{1 << len(pair_space)} tables, {axiom_checks} axiom verdicts, "
        f"{sf_checks} strongly-far verdicts, {hat_checks} hat verdicts, "
        f"{refine_checks} refinement verdicts, {len(disagreements)} disagreements, "
        f"{elapsed:.1f}s",
    )
    assert disagreements == []


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_criterion_09_command_determinism(tmp_path):
    started = time.time()
    commands = [
        ["validate", str(MODELS / "discrete_overlap.yaml")],
        ["validate", str(MODELS / "alexandroff_ideal.yaml")],
        ["relations", str(MODELS / "line_gap.yaml"), "--pairs", "A,B;B,C;A,A"],
        [
            "compare", str(MODELS / "discrete_overlap.yaml"),
            "--left", "far_miss", "--right", "sf_miss",
        ],
        ["search", "--target", "basic-not-lodato", "--max-n", "3"],
        ["search", "--target", "incomparable-topologies", "--max-n", "3", "--seed", "7"],
    ]
    unstable = []
    runs = 0
    for base in commands:
        for flags in ([], ["--json"]):
            argv = base + ["--no-timestamp"] + flags
            outputs = []
            for _ in range(3):
                code, text = _run_cli(argv)
                assert code == 0, argv
                outputs.append(text.encode("utf-8"))
                runs += 1
            if len(set(outputs)) != 1:
                unstable.append(argv)
    elapsed = time.time() - started
    ok = not unstable
    verdict_line(
        9,
        "byte-identical command output across three runs",
        ok,
        f"{runs} invocations over {len(commands) * 2} command lines, "
        f"{len(unstable)} unstable, {elapsed:.1f}s",
    )
    assert unstable == []


def test_criterion_10_incomparability_scope_honesty(tmp_path):
    started = time.time()
    outcome = search(SearchTarget("incomparable-topologies", n_max=4))
    assert outcome.status in (STATUS_WITNESS, STATUS_EXHAUSTED)
    detail = f"status {outcome.status}, {outcome.models_checked} models"
    if outcome.status == STATUS_WITNESS:
        assert replay(outcome)
        out_path = tmp_path / "incomparable_witness.yaml"
        code, text = _run_cli(
            [
                "search", "--target", "incomparable-topologies", "--max-n", "4",
                "--out", str(out_path), "--no-timestamp",
            ]
        )
        assert code == 0
        code2, _ = _run_cli(["validate", str(out_path), "--no-timestamp"])
        assert code2 == 0
        detail += ", witness replayed and reusable"
    else:
        # the CLI must report the exhaustion rather than stay silent
        code, text = _run_cli(
            [
                "search", "--target", "incomparable-topologies", "--max-n", "4",
                "--no-timestamp",
            ]
        )
        assert code == 0
        assert STATUS_EXHAUSTED in text
        detail += ", exhaustion reported"
    elapsed = time.time() - started
    verdict_line(
        10,
        "incomparability search completes with an honest outcome",
        True,
        f"{detail}, {elapsed:.1f}s",
    )


def test_corpus_is_large_enough(corpus):
    assert len(corpus) >= 200
    assert all(m.space.n <= 5 for m in corpus)
