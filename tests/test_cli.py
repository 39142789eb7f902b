"""CLI commands: reports, exit codes, determinism, witness files."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from proxitop import build_topology
from proxitop.cli import _build_parser, main
from proxitop.modelfile import parse_file
from proxitop.proximity import ProximityRelation
from reference import raw_strongly_far, rule_near, subbase_neighbourhoods

MODELS = Path(__file__).parent.parent / "models"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestValidate:
    def test_discrete_overlap_report(self):
        code, out, _ = run_cli(
            "validate", str(MODELS / "discrete_overlap.yaml"), "--no-timestamp"
        )
        assert code == 0
        assert "classification: ef" in out
        assert "compatible: yes" in out
        assert "T1: yes" in out

    def test_axiom_failures_are_findings_not_errors(self, tmp_path):
        path = tmp_path / "broken_topology.yaml"
        path.write_text(
            "points: [a, b, c]\n"
            "topology: [[], [a], [b], [a, b, c]]\n"
            "proximity: {kind: overlap}\n"
        )
        code, out, _ = run_cli("validate", str(path), "--no-timestamp")
        assert code == 0
        assert "valid: no" in out
        assert "union" in out

    @pytest.mark.parametrize("kind", ["overlap", "table"])
    def test_family_that_is_not_a_topology_stops_at_the_topology_report(self, tmp_path, kind):
        # An empty table is not basic, so it would be checked on its dense
        # matrix, past a cap of one point.
        path = tmp_path / "broken_topology.yaml"
        path.write_text(
            "points: [a, b, c]\n"
            "topology: [[], [a], [b], [a, b, c]]\n"
            f"proximity: {{kind: {kind}}}\n"
        )
        code, out, err = run_cli("validate", str(path), "--no-timestamp", "--cap-n", "1")
        assert (code, err) == (0, "")
        assert out.endswith(
            "topology:\n  valid: no\n  summary: union of 0x1 and 0x2 missing\n"
        )
        for section in ("T1", "statistics", "proximity:", "compatibility"):
            assert section not in out
        code, out, _ = run_cli("validate", str(path), "--no-timestamp", "--json")
        doc = json.loads(out)
        assert code == 0 and list(doc) == ["command", "model", "topology"]
        assert doc["topology"] == {"valid": False, "summary": "union of 0x1 and 0x2 missing"}

    @pytest.mark.parametrize(
        "opens, message",
        [
            ("[[], [a, b], [b, c], [a, b, c]]", "ideal not union closed: {a} | {c} missing"),
            ("[[], [a, b], [b, c]]", "ideal must contain the empty set"),
        ],
    )
    @pytest.mark.parametrize(
        "verb", [("validate",), ("relations",), ("compare", "--left", "vietoris", "--right", "fell")]
    )
    def test_ideal_all_on_a_family_that_is_not_a_topology_exit_2(
        self, tmp_path, opens, message, verb
    ):
        path = tmp_path / "ideal_all.yaml"
        path.write_text(
            f"points: [a, b, c]\ntopology: {opens}\n"
            "proximity: {kind: alexandroff, ideal: all}\n"
        )
        code, out, err = run_cli(verb[0], str(path), *verb[1:])
        assert (code, out) == (2, "")
        assert err == f"parse error: proximity.ideal: {message}\n"

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("points: [a]\nproximity: {kind: overlap}\nbogus_field: 1\n")
        code, _, err = run_cli("validate", str(path))
        assert code == 2
        assert "bogus_field" in err

    @pytest.mark.parametrize("tag", ["int", "float", "bool", "timestamp"])
    def test_unreadable_tagged_scalar_exit_2(self, tmp_path, tag):
        path = tmp_path / "tagged.yaml"
        path.write_text(f"points: [!!{tag} x]\ntopology: discrete\nproximity: {{kind: overlap}}\n")
        code, out, err = run_cli("validate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(
            f"parse error: line 1, column 10: not valid YAML: "
            f"cannot read 'x' as tag:yaml.org,2002:{tag}\n"
        )

    def test_missing_file_exit_2(self):
        code, _, err = run_cli("validate", "/nonexistent/model.yaml")
        assert code == 2

    def test_cap_exceeded_exit_3(self, tmp_path):
        # an empty table is not basic, so it needs the dense matrix
        path = tmp_path / "table3.yaml"
        path.write_text("points: 3\ntopology: discrete\nproximity: {kind: table, near: []}\n")
        code, _, err = run_cli("validate", str(path), "--cap-n", "2")
        assert code == 3
        assert "cap" in err

    def test_json_output(self):
        code, out, _ = run_cli(
            "validate", str(MODELS / "discrete_overlap.yaml"), "--json", "--no-timestamp"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["proximity"]["classification"] == "ef"
        assert doc["compatibility"]["compatible"] is True


class TestLargeModels:
    def test_ten_point_validate_replays_its_witnesses(self):
        code, out, _ = run_cli(
            "validate", str(MODELS / "line_gap.yaml"), "--json", "--no-timestamp"
        )
        assert code == 0
        section = json.loads(out)["proximity"]
        assert section["classification"] == "basic"
        model = parse_file(MODELS / "line_gap.yaml")
        near = rule_near(model.proximity)
        names = model.space.points.labels
        failed = {k: v for k, v in section["axioms"].items() if not v["passed"]}
        assert set(failed) == {"P4", "P5", "EF", "EF-betweenness"}
        for name, verdict in failed.items():
            masks = [
                sum(1 << names.index(p) for p in w.strip("{}").split(",") if p)
                for w in verdict["witness"]
            ]
            assert violates(name, masks, near, model.space.n), (name, masks)

    def test_relations_never_build_the_matrix(self, tmp_path, monkeypatch):
        def refuse(prox):
            raise AssertionError("relations swept the whole power set")

        monkeypatch.setattr(ProximityRelation, "matrix", refuse)
        path = tmp_path / "twelve.yaml"
        path.write_text(
            "points: 12\n"
            "topology: [[], [p0, p1, p2, p3, p4, p5], [p6, p7, p8, p9, p10, p11],\n"
            "  [p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11]]\n"
            "proximity: {kind: overlap}\n"
            "subsets: {A: [p0], B: [p6, p7], C: [p1, p6]}\n"
        )
        code, out, _ = run_cli("relations", str(path), "--json", "--no-timestamp")
        assert code == 0
        assert len(json.loads(out)["pairs"]) == 6


    @pytest.mark.parametrize("n", [11, 16])
    def test_path_relation_is_exact_past_the_matrix_cap(self, tmp_path, n):
        path = tmp_path / f"path{n}.yaml"
        edges = ", ".join(f"[p{i}, p{i + 1}]" for i in range(n - 1))
        path.write_text(
            f"points: {n}\ntopology: discrete\n"
            f"proximity: {{kind: point_relation, relation: [{edges}]}}\n"
        )
        argv = ("validate", str(path), "--json", "--no-timestamp")
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["proximity"]["exhaustive"] is True
        assert run_cli(*argv, "--cap-n", str(n)) == (code, out, err)

    def test_table_past_the_matrix_cap_exit_3(self, tmp_path):
        path = tmp_path / "table11.yaml"
        path.write_text("points: 11\ntopology: discrete\nproximity: {kind: table, near: []}\n")
        code, out, err = run_cli("validate", str(path), "--no-timestamp")
        assert (code, out) == (3, "")
        assert "check_axioms: size 11 exceeds cap 10" in err


def violates(name, witness, near, n):
    """Replay one reported witness against its axiom's defining condition."""
    full = (1 << n) - 1
    if name == "P3":
        a, b, c = witness
        return near(a, b | c) != (near(a, b) or near(a, c))
    if name == "P4":
        a, b, c = witness
        points = [1 << i for i in range(n) if b >> i & 1]
        return near(a, b) and not near(a, c) and all(near(p, c) for p in points)
    if name == "P5":
        a, b = witness
        return a != b and bin(a).count("1") == bin(b).count("1") == 1 and near(a, b)
    if name == "EF":
        a, b = witness
        return not near(a, b) and not any(
            not near(a, e) and not near(full & ~e, b) for e in range(full + 1)
        )
    if name == "EF-betweenness":
        a, b = witness
        return not near(a, full & ~b) and not any(
            not near(a, full & ~c) and not near(c, full & ~b) for c in range(full + 1)
        )
    raise AssertionError(f"no replay for {name}")


class TestRobustness:
    def test_too_many_points_exit_2(self, tmp_path):
        path = tmp_path / "big.yaml"
        path.write_text("points: 20\ntopology: discrete\nproximity: {kind: overlap}\n")
        code, _, err = run_cli("validate", str(path))
        assert code == 2
        assert "points" in err

    def test_boolean_point_count_exit_2(self, tmp_path):
        path = tmp_path / "bool_points.yaml"
        path.write_text("points: true\ntopology: discrete\nproximity: {kind: overlap}\n")
        code, out, err = run_cli("validate", str(path))
        assert (code, out) == (2, "")
        assert "points: expected a list of names or an integer count, got bool" in err

    def test_string_semimetric_exit_2(self, tmp_path):
        path = tmp_path / "string_semimetric.yaml"
        path.write_text(
            "points: 3\n"
            "metric: {rows: [[0, 1, 5], [1, 0, 1], [5, 1, 0]], semimetric: 'false'}\n"
            "proximity: {kind: gap, epsilon: 1}\n"
        )
        code, out, err = run_cli("validate", str(path))
        assert (code, out) == (2, "")
        assert "metric.semimetric: expected a boolean, got str" in err

    def test_string_replay_expectation_exit_2(self, tmp_path):
        path = tmp_path / "string_expectation.yaml"
        path.write_text(
            "points: [a, b]\ntopology: discrete\nproximity: {kind: overlap}\n"
            "subsets: {A: [a], B: [b]}\n"
            "replay:\n  - op: strongly_far\n    args: {a: A, b: B}\n    expect: {holds: '0'}\n"
        )
        code, out, err = run_cli("validate", str(path))
        assert (code, out) == (2, "")
        assert "replay[0].expect.holds: expected a boolean, got str" in err

    @pytest.mark.parametrize("verb", ["validate", "relations"])
    @pytest.mark.parametrize(
        "step,where",
        [
            ("{op: far, args: {a: [x]}}", "args.a"),
            ("{op: far, args: {a: null}}", "args.a"),
            ("{op: far, args: {a: 1.5}}", "args.a"),
            ("{op: far, args: {a: {b: c}}}", "args.a"),
            ("{op: far, expect: {verdict: [1]}}", "expect.verdict"),
            ("{op: far, args: {1: a, b: c}}", "args.1"),
            ("{op: far, expect: {value: true, 1: 2}}", "expect.1"),
        ],
    )
    def test_replay_field_serialize_cannot_write_exit_2(self, tmp_path, verb, step, where):
        path = tmp_path / "replay_field.yaml"
        path.write_text(
            "points: [a, b]\ntopology: discrete\nproximity: {kind: overlap}\n"
            f"subsets: {{A: [a], B: [b]}}\nreplay:\n  - {step}\n"
        )
        code, out, err = run_cli(verb, str(path))
        assert (code, out) == (2, "")
        assert f"replay[0].{where}: expected" in err
        assert "Traceback" not in err

    def test_deeply_nested_near_list_exit_2(self, tmp_path):
        # sequences are built without Python recursion, however deep
        deep = "[" * 20_000 + "]" * 20_000
        path = tmp_path / "deep.yaml"
        path.write_text(
            f"points: [x, y]\ntopology: discrete\nproximity:\n  kind: table\n"
            f"  near: [[{deep}, [x]]]\n"
        )
        code, out, err = run_cli("validate", str(path))
        assert (code, out) == (2, "")
        assert err == "parse error: proximity.near[0][0][0]: expected a point name or index\n"

    def test_recursive_alias_exit_2(self, tmp_path):
        path = tmp_path / "alias.yaml"
        path.write_text("points: &a [x, *a]\ntopology: discrete\nproximity: {kind: overlap}\n")
        code, out, err = run_cli("validate", str(path))
        assert (code, out) == (2, "")
        assert err == "parse error: points[1]: expected a point name, got list\n"

    @pytest.mark.parametrize("other", ["true", "1.0"])
    @pytest.mark.parametrize("index_first", [True, False])
    def test_index_subset_does_not_vouch_for_an_equal_key(self, tmp_path, other, index_first):
        # 1 == 1.0 == True, but only the integer is a point index
        first, second = ("1", other) if index_first else (other, "1")
        path = tmp_path / "keys.yaml"
        path.write_text(
            "points: [x, y]\ntopology: discrete\nproximity:\n  kind: table\n"
            f"  near: [[[{first}], [x]], [[{second}], [x]]]\n"
        )
        code, out, err = run_cli("validate", str(path))
        assert (code, out) == (2, "")
        where = "proximity.near[1][0][0]" if index_first else "proximity.near[0][0][0]"
        assert err == f"parse error: {where}: expected a point name or index\n"

    def test_non_utf8_file_exit_2(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes("points: [\xe9]\n".encode("latin-1"))
        code, _, err = run_cli("validate", str(path))
        assert code == 2
        assert "utf-8" in err

    def test_negative_budget_exit_1(self):
        code, _, err = run_cli("search", "--target", "sf-not-hat", "--budget", "-5")
        assert code == 1
        assert "--budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("compare", str(MODELS / "discrete_overlap.yaml"), "--left", "vietoris",
             "--right", "far_miss", "--cap-n", "3"),
            ("search", "--target", "sf-not-hat", "--max-n", "2", "--cap-hyper", "5"),
            ("search", "--target", "sf-not-hat", "--max-n", "2", "--cap-n", "3"),
            ("validate", str(MODELS / "discrete_overlap.yaml"), "--cap-hyper", "5"),
            ("relations", str(MODELS / "discrete_overlap.yaml"), "--cap-hyper", "5"),
            ("relations", str(MODELS / "discrete_overlap.yaml"), "--cap-n", "3"),
        ],
    )
    def test_cap_flag_a_verb_does_not_apply_exit_1(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err

    def test_negative_cap_exit_1(self):
        code, _, err = run_cli("validate", str(MODELS / "discrete_overlap.yaml"), "--cap-n", "-3")
        assert code == 1
        assert "--cap-n" in err

    def test_search_out_unwritable_exit_1(self, tmp_path):
        out_path = tmp_path / "missing" / "w.yaml"
        code, out, err = run_cli(
            "search", "--target", "basic-not-lodato", "--max-n", "3", "--out", str(out_path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: cannot write --out file")
        assert "Traceback" not in err


MODEL_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(MODELS.glob("*.yaml"))]
# The compare call carries a hyperspace cap: a 10-point model's 1023
# hyperpoints cost seconds in far_miss_set, and exit 3 is an allowed outcome.
FUZZ_COMMANDS = [
    ("validate",),
    ("relations",),
    ("compare", "--left", "vietoris", "--right", "far_miss", "--cap-hyper", "256"),
]
YAML_CHARS = st.one_of(
    st.sampled_from(list(" \n:-,[]{}#'\"&*!|>?%@`0123456789abcdpq")),
    st.characters(blacklist_categories=("Cs",)),
)


@st.composite
def mutated_models(draw):
    text = list(draw(st.sampled_from(MODEL_TEXTS)))
    for _ in range(draw(st.integers(1, 3))):
        text[draw(st.integers(0, len(text) - 1))] = draw(YAML_CHARS)
    return "".join(text).encode("utf-8")


class TestFuzz:
    """Arbitrary file contents end in an exit code, never in an exception."""

    def check(self, tmp_path_factory, data, command):
        path = tmp_path_factory.mktemp("fuzz") / "model.yaml"
        path.write_bytes(data)
        code, _, _ = run_cli(command[0], str(path), *command[1:], "--no-timestamp")
        assert code in (0, 1, 2, 3)

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=300), command=st.sampled_from(FUZZ_COMMANDS))
    def test_random_bytes(self, tmp_path_factory, data, command):
        self.check(tmp_path_factory, data, command)

    @settings(max_examples=100, deadline=None)
    @given(data=mutated_models(), command=st.sampled_from(FUZZ_COMMANDS))
    def test_mutated_models(self, tmp_path_factory, data, command):
        self.check(tmp_path_factory, data, command)


class TestRelations:
    def test_line_gap_endpoints(self):
        code, out, _ = run_cli(
            "relations", str(MODELS / "line_gap.yaml"), "--pairs", "A,B", "--no-timestamp"
        )
        assert code == 0
        assert "strongly_far: yes" in out
        assert "sf_witness: {q0,q1}" in out
        assert "hat_strongly_far: yes" in out

    def test_self_pair_near(self):
        code, out, _ = run_cli(
            "relations",
            str(MODELS / "discrete_overlap.yaml"),
            "--pairs",
            "A,A",
            "--no-timestamp",
        )
        assert code == 0
        assert "near: yes" in out
        assert "strongly_far: no" in out

    def test_degenerate_row_for_empty_subset(self, tmp_path):
        path = tmp_path / "empty_subset.yaml"
        path.write_text(
            "points: [a, b]\ntopology: discrete\nproximity: {kind: overlap}\n"
            "subsets:\n  A: [a]\n  E: []\n"
        )
        code, out, _ = run_cli("relations", str(path), "--pairs", "A,E", "--no-timestamp")
        assert code == 0
        assert "degenerate" in out

    def test_unknown_subset_usage_error(self):
        code, _, err = run_cli(
            "relations", str(MODELS / "discrete_overlap.yaml"), "--pairs", "A,Z"
        )
        assert code == 1
        assert "Z" in err

    @pytest.mark.parametrize(
        "proximity",
        [
            "{kind: point_relation, relation: [%s]}"
            % ", ".join(f"[p{i}, p{i + 1}]" for i in range(15)),
            "{kind: table, near: [[[p0], [p0]], [[p0], [p0, p1]], [[p15], [p15]],\n"
            "  [[p0, p1], [p0, p1]], [[p0], [%s]]]}" % ", ".join(f"p{i}" for i in range(16)),
        ],
        ids=["path", "table"],
    )
    def test_sixteen_points_match_the_reference_sweep(self, tmp_path, proximity):
        path = tmp_path / "sixteen.yaml"
        path.write_text(
            f"points: 16\ntopology: discrete\nproximity: {proximity}\n"
            "subsets: {A: [p0], B: [p15], C: [p0, p1], D: [p2, p3]}\n"
        )
        code, out, err = run_cli("relations", str(path), "--json", "--no-timestamp")
        assert (code, err) == (0, "")
        model = parse_file(str(path))
        near = rule_near(model.proximity)
        rows = json.loads(out)["pairs"]
        assert len(rows) == 10
        for row in rows:
            a, b = (model.subsets[name] for name in row["pair"].split(","))
            c = raw_strongly_far(near, 16, a, b)
            witness = None if c is None else model.space.format(c)
            assert (row["strongly_far"], row["sf_witness"]) == (c is not None, witness), row

    def test_all_pairs(self):
        code, out, _ = run_cli(
            "relations", str(MODELS / "discrete_overlap.yaml"), "--pairs", "all",
            "--no-timestamp",
        )
        assert code == 0
        # A, AB, B -> six unordered pairs including self-pairs
        assert out.count("pair:") == 6


class TestCompare:
    def test_far_miss_vs_vietoris_equal(self):
        code, out, _ = run_cli(
            "compare",
            str(MODELS / "discrete_overlap.yaml"),
            "--left",
            "far_miss",
            "--right",
            "vietoris",
            "--no-timestamp",
        )
        assert code == 0
        assert "verdict: equal" in out

    @pytest.mark.parametrize("spec", ["far_miss", "sf_miss", "far_miss_only", "sf_miss_only"])
    def test_non_basic_table_exit_2(self, tmp_path, spec):
        # {b} is not near itself: the table is not a proximity.
        path = tmp_path / "table2.yaml"
        path.write_text(
            "points: [a, b]\ntopology: discrete\n"
            "proximity: {kind: table, near: [[[a], [a]], [[a], [b]]]}\n"
        )
        code, out, err = run_cli("compare", str(path), "--left", spec, "--right", "vietoris")
        assert (code, out) == (2, "")
        assert err == (
            f"parse error: proximity: {spec.removesuffix('_only')} topology needs a basic "
            "proximity (P0-P3); run the validate command for the axiom report\n"
        )
        code, out, _ = run_cli("compare", str(path), "--left", "vietoris", "--right", "vietoris")
        assert code == 0 and "verdict: equal" in out

    def test_basic_table_compares_like_its_point_relation(self, tmp_path):
        # the path a - b - c written out as a table, and as a point relation
        table = tmp_path / "table3.yaml"
        names = ("a", "b", "c")
        rows = (0b011, 0b111, 0b110)
        near = [
            (x, y)
            for x in range(1, 8)
            for y in range(x, 8)
            if any(rows[i] & y for i in range(3) if x >> i & 1)
        ]

        def subset(mask):
            return "[" + ", ".join(names[i] for i in range(3) if mask >> i & 1) + "]"

        pairs = ", ".join(f"[{subset(x)}, {subset(y)}]" for x, y in near)
        table.write_text(
            f"points: [a, b, c]\ntopology: discrete\nproximity: {{kind: table, near: [{pairs}]}}\n"
        )
        relation = tmp_path / "path3.yaml"
        relation.write_text(
            "points: [a, b, c]\ntopology: discrete\n"
            "proximity: {kind: point_relation, relation: [[a, b], [b, c]]}\n"
        )
        argv = ("--left", "far_miss_only", "--right", "sf_miss_only", "--json", "--no-timestamp")
        docs = []
        for path in (table, relation):
            code, out, err = run_cli("compare", str(path), *argv)
            assert (code, err) == (0, "")
            doc = json.loads(out)
            del doc["model"]
            docs.append(doc)
        assert docs[0] == docs[1]
        assert docs[0]["verdict"] == "left-strictly-finer"

    def test_fell_needs_ideal(self):
        code, _, err = run_cli(
            "compare",
            str(MODELS / "discrete_overlap.yaml"),
            "--left",
            "fell",
            "--right",
            "vietoris",
        )
        assert code == 1
        assert "ideal" in err

    def test_fell_vs_vietoris_with_ideal(self):
        code, out, _ = run_cli(
            "compare",
            str(MODELS / "alexandroff_ideal.yaml"),
            "--left",
            "fell",
            "--right",
            "vietoris",
            "--no-timestamp",
        )
        assert code == 0
        assert "verdict: right-strictly-finer" in out

    def test_far_vs_sf_miss_under_ef_equal(self):
        code, out, _ = run_cli(
            "compare",
            str(MODELS / "discrete_overlap.yaml"),
            "--left",
            "far_miss",
            "--right",
            "sf_miss",
            "--no-timestamp",
        )
        assert code == 0
        assert "verdict: equal" in out

    def test_six_point_discrete_hit_half(self, tmp_path):
        path = tmp_path / "discrete6.yaml"
        path.write_text("points: 6\ntopology: discrete\nproximity: {kind: overlap}\n")
        code, out, err = run_cli(
            "compare", str(path), "--left", "vietoris", "--right", "far_miss", "--json",
            "--no-timestamp",
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["verdict"] == "equal"
        assert doc["hyperpoints"] == 63

    @pytest.mark.parametrize(
        "left,right", [("far_miss_only", "sf_miss_only"), ("vietoris", "sf_miss")]
    )
    def test_eleven_point_path_relation(self, tmp_path, left, right):
        # Past the 10-point cap of the dense matrix, which a point relation
        # never builds: 2,047 hyperpoints, under the default hyperspace cap.
        path = tmp_path / "path11.yaml"
        edges = ", ".join(f"[p{i}, p{i + 1}]" for i in range(10))
        path.write_text(
            "points: 11\ntopology: discrete\n"
            f"proximity: {{kind: point_relation, relation: [{edges}]}}\n"
        )
        code, out, err = run_cli(
            "compare", str(path), "--left", left, "--right", right, "--json",
            "--no-timestamp",
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["hyperpoints"] == 2047
        model = parse_file(str(path))
        walks = [
            subbase_neighbourhoods(topo.subbase, 2047)
            for topo in (build_topology(model.space, spec, prox=model.proximity)
                         for spec in (left, right))
        ]
        refines = [all(f & ~c == 0 for f, c in zip(*pair)) for pair in (walks, walks[::-1])]
        assert [doc["left_refines_right"], doc["right_refines_left"]] == refines

    def test_unknown_spec_usage_error(self):
        code, _, err = run_cli(
            "compare", str(MODELS / "discrete_overlap.yaml"), "--left", "foo",
            "--right", "vietoris",
        )
        assert code == 1
        assert "foo" in err


class TestSearch:
    def test_witness_file_roundtrip(self, tmp_path):
        out_path = tmp_path / "witness.yaml"
        code, out, _ = run_cli(
            "search", "--target", "basic-not-lodato", "--max-n", "3",
            "--out", str(out_path), "--no-timestamp",
        )
        assert code == 0
        assert "status: witness-found" in out
        assert out_path.exists()

        code2, out2, _ = run_cli("validate", str(out_path), "--no-timestamp")
        assert code2 == 0
        assert "classification: basic" in out2

    def test_sf_not_hat_exhausts(self):
        code, out, _ = run_cli(
            "search", "--target", "sf-not-hat", "--max-n", "3", "--no-timestamp"
        )
        assert code == 0
        assert "status: exhausted-no-witness" in out

    def test_unknown_target_usage_error(self):
        code, _, err = run_cli("search", "--target", "nope")
        assert code == 1

    def test_bad_max_n(self):
        code, _, err = run_cli(
            "search", "--target", "sf-not-hat", "--max-n", "11"
        )
        assert code == 1


class TestParserReuse:
    """`main` builds its parser once per process; no call may leak into the next."""

    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    @pytest.fixture
    def table4(self, tmp_path):
        path = tmp_path / "table4.yaml"
        path.write_text("points: 4\ntopology: discrete\nproximity: {kind: table, near: []}\n")
        return str(path)

    def assert_later_call_unaffected(self, first, first_code, then):
        _build_parser()
        assert run_cli(*first)[0] == first_code
        reused = run_cli(*then)
        _build_parser.cache_clear()
        fresh = run_cli(*then)
        assert reused[:2] == fresh[:2]
        return reused

    def test_cap_flag_does_not_stick(self, table4):
        code, out, _ = self.assert_later_call_unaffected(
            ("validate", table4, "--cap-n", "3"), 3, ("validate", table4, "--no-timestamp")
        )
        assert code == 0 and "exhaustive: yes" in out

    def test_usage_error_does_not_stick(self, table4):
        compare = (
            "compare", str(MODELS / "discrete_overlap.yaml"),
            "--left", "far_miss", "--right", "vietoris", "--no-timestamp",
        )
        code, _, _ = self.assert_later_call_unaffected(
            ("validate", table4, "--no-such-flag"), 1, compare
        )
        assert code == 0

    def test_out_file_does_not_stick(self, tmp_path):
        search = (
            "search", "--target", "basic-not-lodato", "--max-n", "3", "--json", "--no-timestamp",
        )
        out_path = tmp_path / "witness.yaml"
        code, out, _ = self.assert_later_call_unaffected(
            search + ("--out", str(out_path)), 0, search
        )
        assert code == 0 and out_path.exists()
        doc = json.loads(out)
        assert doc["status"] == "witness-found" and "witness_file" not in doc


class TestDeterminism:
    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_three_identical_runs(self, flags):
        commands = [
            ("validate", str(MODELS / "discrete_overlap.yaml")),
            ("relations", str(MODELS / "line_gap.yaml"), "--pairs", "A,B"),
            (
                "compare", str(MODELS / "discrete_overlap.yaml"),
                "--left", "far_miss", "--right", "vietoris",
            ),
            ("search", "--target", "basic-not-lodato", "--max-n", "3"),
        ]
        for command in commands:
            argv = command + ("--no-timestamp",) + flags
            outputs = {run_cli(*argv)[1] for _ in range(3)}
            assert len(outputs) == 1

    def test_timestamp_present_by_default(self):
        code, out, _ = run_cli("validate", str(MODELS / "discrete_overlap.yaml"))
        assert code == 0
        assert "timestamp" in out
