"""Model file parsing, validation diagnostics and canonical round-trips."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st
from strategies import mutated_models, space_strategy

from proxitop import InvalidModelError, all_masks, modelfile, parse, serialize
from proxitop.modelfile import Model, _emit_inline_list, model_digest, parse_file
from proxitop.proximity import (
    CompactnessIdeal,
    PointRelation,
    alexandroff_proximity,
    gap_proximity,
    overlap_proximity,
    point_generated_proximity,
    table_proximity,
)
from proxitop.search import (
    STATUS_WITNESS,
    TARGET_NAMES,
    SearchTarget,
    candidate_models,
    enumerate_topologies,
    search,
)
from proxitop.spaces import GroundSpace, Metric, PointSet
from corpus import table_models
from reference import metric_gap

MODELS = Path(__file__).parent.parent / "models"


class TestGoldenFiles:
    def test_discrete_overlap(self):
        model = parse_file(MODELS / "discrete_overlap.yaml")
        assert model.space.n == 3
        assert model.proximity.kind == "overlap"
        assert model.subsets["A"] == 0b001
        assert model.subsets["AB"] == 0b011

    def test_line_gap(self):
        model = parse_file(MODELS / "line_gap.yaml")
        assert model.space.n == 10
        assert model.proximity.kind == "gap"
        assert model.proximity.params["epsilon"] == 1
        assert metric_gap(model.metric, model.subsets["A"], model.subsets["B"]) == 9

    def test_alexandroff_ideal(self):
        model = parse_file(MODELS / "alexandroff_ideal.yaml")
        assert model.proximity.kind == "alexandroff"
        assert model.ideal is not None
        assert model.ideal.top == 0b0011
        assert model.proximity.near(model.subsets["A"], model.subsets["B"])
        assert model.proximity.far(model.subsets["K"], model.subsets["L"])


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["discrete_overlap.yaml", "line_gap.yaml", "alexandroff_ideal.yaml"]
    )
    def test_serialize_parse_semantically_identical(self, name):
        model = parse_file(MODELS / name)
        text = serialize(model)
        again = parse(text)
        assert again.space.opens == model.space.opens
        assert again.subsets == model.subsets
        n = model.space.n
        sample = list(all_masks(min(n, 4)))
        for a in sample:
            for b in sample:
                assert again.proximity.near(a, b) == model.proximity.near(a, b)

    @pytest.mark.parametrize(
        "name", ["discrete_overlap.yaml", "line_gap.yaml", "alexandroff_ideal.yaml"]
    )
    def test_canonical_form_is_fixed_point(self, name):
        model = parse_file(MODELS / name)
        once = serialize(model)
        twice = serialize(parse(once))
        assert once == twice

    def test_digest_stable(self):
        m1 = parse_file(MODELS / "discrete_overlap.yaml")
        m2 = parse_file(MODELS / "discrete_overlap.yaml")
        assert model_digest(m1) == model_digest(m2)


# Names YAML 1.1 reads as booleans or null, beside plain ones.
NAME_POOL = (
    "no", "No", "NO", "yes", "Yes", "YES", "on", "On", "ON", "off", "Off", "OFF",
    "true", "True", "TRUE", "false", "False", "FALSE", "null", "Null", "NULL",
    "y", "n", "a", "b_1", "x-y", "_",
)
# Replay strings besides names: line breaks, a tab, NUL and U+2028, which a
# single-quoted scalar would not keep.
TEXT_POOL = NAME_POOL + ("x\ny", "a\r\nb", "\t", "\x00", "p\u2028q", "it's")


@st.composite
def models(draw):
    """A model of any proximity kind, named from `NAME_POOL`, with a replay."""
    n = draw(st.integers(min_value=1, max_value=3))
    labels = draw(st.lists(st.sampled_from(NAME_POOL), min_size=n, max_size=n, unique=True))
    space = GroundSpace.create(n, draw(st.sampled_from(enumerate_topologies(n))), labels)
    masks = st.integers(min_value=0, max_value=space.full_mask)
    kind = draw(st.sampled_from(("overlap", "gap", "alexandroff", "table", "point_relation")))
    metric = ideal = None
    if kind == "overlap":
        prox = overlap_proximity(space)
    elif kind == "gap":
        space = GroundSpace.discrete(n, labels)
        metric = Metric.line(n)
        prox = gap_proximity(space, metric, draw(st.fractions(min_value=0, max_value=n)))
    elif kind == "alexandroff":
        ideal = CompactnessIdeal.principal(space, draw(st.sampled_from(space.closed)))
        prox = alexandroff_proximity(space, ideal)
    elif kind == "table":
        prox = table_proximity(space, draw(st.lists(st.tuples(masks, masks), max_size=6)))
    else:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        prox = point_generated_proximity(space, PointRelation.from_pairs(n, pairs))
    subsets = draw(st.dictionaries(st.sampled_from(NAME_POOL), masks, max_size=3))
    replay = ()
    if subsets:
        names = st.sampled_from(sorted(subsets))
        # extra keys and values drawn from TEXT_POOL ride along beside the ones replay reads
        extras = st.dictionaries(
            st.sampled_from(TEXT_POOL), names | st.sampled_from(TEXT_POOL), max_size=2
        )
        replay = tuple(
            {
                "op": op,
                "args": {**draw(extras), "a": draw(names), "b": draw(names)},
                "expect": {**draw(extras), key: draw(st.booleans())},
            }
            for op, key in draw(st.lists(st.sampled_from(
                (("near", "value"), ("far", "value"), ("strongly_far", "holds"))
            ), max_size=3))
        )
    return Model(space, prox, metric, ideal, subsets, replay)


def assert_round_trips(model):
    """`parse(serialize(m))` is m on every field and pair; `serialize` is a fixed point."""
    text = serialize(model)
    again = parse(text)
    assert again.space.points.labels == model.space.points.labels
    assert again.space.opens == model.space.opens
    assert again.subsets == model.subsets
    assert again.replay == model.replay
    for a in all_masks(model.space.n):
        for b in all_masks(model.space.n):
            assert again.proximity.near(a, b) == model.proximity.near(a, b)
    assert serialize(again) == text


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(model=models())
    def test_parse_of_serialize_is_the_same_model(self, model):
        assert_round_trips(model)

    def test_every_search_candidate_up_to_four_points(self):
        # alexandroff, gap, point_relation and table models, all exhaustive
        target = SearchTarget(TARGET_NAMES[0], n_max=4)
        kinds = set()
        count = 0
        for _, model, _ in candidate_models(target, 0):
            assert_round_trips(model)
            kinds.add(model.proximity.kind)
            count += 1
        assert count == 436
        assert kinds == {"alexandroff", "gap", "point_relation", "table"}

    def test_search_witness_with_its_replay(self):
        outcome = search(SearchTarget("basic-not-lodato", n_max=4))
        assert outcome.status == STATUS_WITNESS and outcome.witness.replay
        assert_round_trips(outcome.witness)

    def test_yaml_keywords_are_quoted(self):
        space = GroundSpace.discrete(2, ("no", "yes"))
        model = Model(space, overlap_proximity(space), subsets={"null": 0b01})
        text = serialize(model)
        assert text.startswith("points: ['no', 'yes']\n")
        assert "  'null': ['no']\n" in text
        assert parse(text).subsets == {"null": 0b01}

    @pytest.mark.parametrize("value", ["x\ny", "x\r\ny", "x\ty", "x\x00y", "x\u2028y"])
    def test_unprintable_replay_strings_are_double_quoted(self, value):
        space = GroundSpace.discrete(1)
        step = {"op": "near", "args": {"a": "A", "b": "A", "c": value}, "expect": {}}
        model = Model(space, overlap_proximity(space), subsets={"A": 1}, replay=(step,))
        text = serialize(model)
        assert text.splitlines()[-1] == f"    args: {{a: A, b: A, c: {json.dumps(value)}}}"
        assert parse(text).replay == (step,)


def one_pass(base):
    """`modelfile._Loader` built over another base loader."""
    loader = type(f"OnePass{base.__name__}", (base,), {})
    loader.add_constructor("tag:yaml.org,2002:seq", modelfile._construct_seq)
    return loader


# (the one-pass loader, the loader it must agree with): libyaml's and the
# pure-Python fallback's
LOADER_PAIRS = [
    (modelfile._Loader, modelfile._YAML_LOADER),
    (one_pass(yaml.SafeLoader), yaml.SafeLoader),
]


def typed(value):
    """`value` with every node tagged by its exact type: `True == 1 == 1.0`, but
    their tagged forms differ."""
    if isinstance(value, list):
        return ("list", [typed(v) for v in value])
    if isinstance(value, dict):
        return (type(value).__name__, [(typed(k), typed(v)) for k, v in value.items()])
    return (type(value).__name__, value)


def loaded(text, loader):
    try:
        return typed(yaml.load(text, Loader=loader))
    except Exception as exc:  # `!!int x` raises ValueError, not a YAMLError
        return ("error", type(exc).__name__, str(exc))


def assert_same_documents(text):
    for ours, plain in LOADER_PAIRS:
        assert loaded(text, ours) == loaded(text, plain), (plain.__name__, text)
    fast = modelfile._fast_document(text)
    assert fast is None or typed(fast) == loaded(text, yaml.SafeLoader), text


# Near misses of the layout `modelfile._fast_document` reads: names YAML
# types otherwise, integers it reads in another base or not at all, flow
# separators without their space, trailing commas, three-deep sequences,
# indents of 0-3 spaces, repeated keys and trailing spaces. Each is drawn
# rarely enough that some texts keep to the layout.
def rarely(common, *others):
    return st.sampled_from([common] * (3 * len(others)) + list(others))


NEAR_MISS_SCALARS = st.sampled_from(
    ["a", "p0", "x_y", "b-c", "y", "0", "7", "-3", "-0"] * 4
    + ["on", "No", "null", "01", "+1", "1_0"]
)
NEAR_MISS_KEYS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "y", "on"])


@st.composite
def near_miss_values(draw, depth=0):
    if depth == 3 or draw(st.booleans()):
        return draw(NEAR_MISS_SCALARS)
    items = draw(st.lists(near_miss_values(depth + 1), max_size=3))
    return "[" + draw(rarely(", ", ",")).join(items) + draw(rarely("", ",")) + "]"


@st.composite
def near_miss_lines(draw, indent, depth=0):
    pad = " " * indent
    lines = []
    for key in draw(st.lists(NEAR_MISS_KEYS, min_size=1, max_size=3)):
        kind = draw(rarely("value", "seq", "map", "bare") if depth < 2 else st.just("value"))
        if kind == "value":
            lines.append(f"{pad}{key}: {draw(near_miss_values())}")
            continue
        lines.append(f"{pad}{key}:")
        child = indent + draw(rarely(2, 0, 1, 3))
        if kind == "seq":
            values = draw(st.lists(near_miss_values(), min_size=1, max_size=3))
            lines += [f"{' ' * child}- {v}" for v in values]
        elif kind == "map":
            lines += draw(near_miss_lines(child, depth + 1))
    return lines


@st.composite
def near_miss_texts(draw):
    lines = draw(near_miss_lines(draw(rarely(0, 1, 2, 3))))
    return "".join(line + draw(rarely("", " ")) + "\n" for line in lines)


# Scalars of every resolved type inside sequences, explicit tags, anchors,
# merge keys, and the sequence errors the constructor must word as before.
EDGE_TEXTS = [
    "[a, 'b', \"c\", 1, -2, 0x1f, 1.5, .inf, true, no, null, ~, '', 2001-12-14]",
    "[!!str 1, !!str true, !!int '3', !!float 1, !!bool yes, !!null '']",
    "[[], [[]], [[a], [b, [c, [d]]]], {k: [v, [w]]}, [{}, {a: [1]}]]",
    "a: &s [x, y]\nb: [*s, *s]\nc: &t x\nd: [*t, *t]\n",
    "base: &b {k: [1, 2]}\nmerged: {<<: *b, j: [x]}\n",
    "- a\n- - b\n  - c\n- [d, e]\n",
    "!!seq [a, !!seq [b]]",
    "!!set {a, b}",
    "[!!binary aGVsbG8=, !!omap [a: 1, b: 2], !!pairs [a: 1]]",
    "!!seq x",
    "!!seq {a: 1}",
    "[[x], !!seq y]",
    "{[a]: 1}",
    "[!!int x]",
    "[a, *missing]",
    "[a, [b",
    "",
    "[" * 200 + "]" * 200,
]


class TestLoaderParity:
    """The one-pass loader builds the documents plain `yaml.SafeLoader` builds."""

    def test_loader_pairs_mirror_the_module_loader(self):
        assert modelfile._Loader.__bases__ == (modelfile._YAML_LOADER,)
        seq = modelfile._Loader.yaml_constructors["tag:yaml.org,2002:seq"]
        assert seq is modelfile._construct_seq

    @pytest.mark.parametrize("text", EDGE_TEXTS)
    def test_edge_texts(self, text):
        assert_same_documents(text)

    @pytest.mark.parametrize("ours,plain", LOADER_PAIRS)
    def test_recursive_alias_is_the_list_itself(self, ours, plain):
        for loader in (ours, plain):
            doc = yaml.load("points: &a [x, *a]\n", Loader=loader)
            assert doc["points"][0] == "x" and doc["points"][1] is doc["points"]

    def test_model_files(self):
        for path in sorted(MODELS.glob("*.yaml")):
            assert_same_documents(path.read_text(encoding="utf-8"))

    def test_corpus_models(self, corpus):
        for m in corpus:
            metric = m.prox.params.get("metric")
            assert_same_documents(serialize(Model(m.space, m.prox, metric)))

    def test_every_search_candidate_up_to_four_points(self):
        target = SearchTarget(TARGET_NAMES[0], n_max=4)
        for _, model, _ in candidate_models(target, 0):
            assert_same_documents(serialize(model))

    def test_five_point_table(self):
        assert_same_documents(serialize(five_point_table()))

    @settings(max_examples=60, deadline=None)
    @given(model=models())
    def test_drawn_models(self, model):
        assert_same_documents(serialize(model))

    @settings(max_examples=60, deadline=None)
    @given(space=space_strategy(max_n=5), data=st.data())
    def test_drawn_spaces_with_tables(self, space, data):
        masks = st.integers(min_value=0, max_value=space.full_mask)
        near = data.draw(st.lists(st.tuples(masks, masks), max_size=12))
        assert_same_documents(serialize(Model(space, table_proximity(space, near))))

    @settings(max_examples=200, deadline=None)
    @given(data=mutated_models())
    def test_mutated_model_files(self, data):
        assert_same_documents(data.decode("utf-8"))

    @settings(max_examples=300, deadline=None)
    @given(text=near_miss_texts())
    def test_near_misses_of_the_fast_layout(self, text):
        assert_same_documents(text)


class TestFastReader:
    """`serialize` writes the layout `modelfile._fast_document` reads, so
    model files skip PyYAML; any other text is left to it."""

    def test_every_search_candidate_up_to_four_points(self):
        target = SearchTarget(TARGET_NAMES[0], n_max=4)
        for _, model, _ in candidate_models(target, 0):
            assert modelfile._fast_document(serialize(model)) is not None

    def test_five_point_table(self):
        assert modelfile._fast_document(serialize(five_point_table())) is not None

    @pytest.mark.parametrize(
        "text",
        [
            "a:\n",  # YAML's null
            "a: 1\na: 2\n",
            "a: [x,y]\n",
            "a: [[[x]]]\n",
            "a: 01\n",
            "a: on\n",
            "a: 1 \n",
            "a: 1",
            "a: 1\n\nb: 2\n",
            f"{'k' * 1025}: 1\n",  # YAML reads no longer implicit key
        ],
    )
    def test_declines_other_texts(self, text):
        assert modelfile._fast_document(text) is None


def parse_err(text):
    with pytest.raises(InvalidModelError) as info:
        parse(text)
    return str(info.value)


class TestDiagnostics:
    def test_unknown_top_level_field(self):
        msg = parse_err("points: [a]\nproximity: {kind: overlap}\ntopologia: discrete\n")
        assert "topologia" in msg

    def test_missing_points(self):
        msg = parse_err("topology: discrete\nproximity: {kind: overlap}\n")
        assert "points" in msg

    def test_duplicate_point_names(self):
        msg = parse_err("points: [a, a]\ntopology: discrete\nproximity: {kind: overlap}\n")
        assert "distinct" in msg

    def test_bad_point_reference(self):
        msg = parse_err(
            "points: [a, b]\ntopology: discrete\n"
            "proximity: {kind: overlap}\nsubsets: {A: [z]}\n"
        )
        assert "subsets.A" in msg and "z" in msg

    def test_unknown_kind(self):
        msg = parse_err("points: [a]\ntopology: discrete\nproximity: {kind: weird}\n")
        assert "proximity.kind" in msg

    def test_float_epsilon_rejected(self):
        msg = parse_err(
            "points: [a, b]\nmetric: {rows: [[0, 1], [1, 0]]}\n"
            "proximity: {kind: gap, epsilon: 0.5}\n"
        )
        assert "proximity.epsilon" in msg and "float" in msg

    def test_gap_needs_metric(self):
        msg = parse_err(
            "points: [a, b]\ntopology: discrete\nproximity: {kind: gap, epsilon: 1}\n"
        )
        assert "metric" in msg

    def test_metric_shape_checked(self):
        msg = parse_err(
            "points: [a, b]\nmetric: {rows: [[0, 1]]}\nproximity: {kind: gap, epsilon: 1}\n"
        )
        assert "metric.rows" in msg

    def test_ideal_must_be_downward_closed(self):
        msg = parse_err(
            "points: [a, b]\ntopology: discrete\n"
            "proximity: {kind: alexandroff, ideal: [[a, b]]}\n"
        )
        assert "proximity.ideal" in msg

    @pytest.mark.parametrize(
        "text,where,key",
        [
            (
                "points: [a]\ntopology: discrete\npoints: [a, b]\nproximity:\n  kind: overlap\n",
                "line 3, column 1",
                "points",
            ),
            (
                "points: [a, b]\ntopology: discrete\nproximity:\n  kind: overlap\n"
                "subsets:\n  A: [a]\n  A: [b]\n",
                "line 7, column 3",
                "A",
            ),
        ],
    )
    def test_repeated_key_is_a_parse_error(self, text, where, key):
        with pytest.raises(InvalidModelError) as info:
            parse(text)
        assert info.value.where == where
        assert f"duplicate key {key!r}" in str(info.value)

    def test_merged_keys_may_be_overridden(self):
        model = parse(
            "points: [a]\ntopology: discrete\n"
            "proximity: {<<: {kind: table, near: []}, near: [[[a], [a]]]}\n"
        )
        assert model.proximity.near(1, 1)

    def test_yaml_error_carries_location(self):
        msg = parse_err("points: [a\nproximity: {kind: overlap}\n")
        assert "line" in msg

    def test_unknown_field_for_kind(self):
        msg = parse_err(
            "points: [a]\ntopology: discrete\nproximity: {kind: overlap, epsilon: 1}\n"
        )
        assert "proximity.epsilon" in msg

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_boolean_point_count_rejected(self, value):
        # YAML booleans are ints to Python; neither is a point count.
        with pytest.raises(InvalidModelError) as info:
            parse(f"points: {value}\ntopology: discrete\nproximity: {{kind: overlap}}\n")
        assert info.value.where == "points"

    @pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1", "[]"])
    def test_semimetric_must_be_a_boolean(self, value):
        # A string "false" would otherwise be truthy and skip the triangle check.
        with pytest.raises(InvalidModelError) as info:
            parse(
                "points: 3\n"
                f"metric: {{rows: [[0, 1, 5], [1, 0, 1], [5, 1, 0]], semimetric: {value}}}\n"
                "proximity: {kind: gap, epsilon: 1}\n"
            )
        assert info.value.where == "metric.semimetric"

    def test_semimetric_boolean_sets_the_triangle_check(self):
        rows = "[[0, 1, 5], [1, 0, 1], [5, 1, 0]]"
        text = "points: 3\nmetric: {{rows: {}{}}}\nproximity: {{kind: gap, epsilon: 1}}\n"
        for flag in ("", ", semimetric: false"):
            with pytest.raises(InvalidModelError) as info:
                parse(text.format(rows, flag))
            assert info.value.where == "metric"
        assert parse(text.format(rows, ", semimetric: true")).metric.semimetric

    def test_gap_fraction_epsilon(self):
        model = parse(
            "points: [a, b]\nmetric: {rows: [[0, '1/2'], ['1/2', 0]]}\n"
            "proximity: {kind: gap, epsilon: '1/2'}\n"
        )
        assert model.proximity.params["epsilon"] == Fraction(1, 2)


class TestReplayExpectations:
    TEXT = (
        "points: [a, b]\ntopology: discrete\nproximity: {{kind: overlap}}\n"
        "subsets: {{A: [a], B: [b]}}\n"
        "replay:\n  - op: {op}\n    args: {{a: A, b: B}}\n    expect: {{{key}: {value}}}\n"
    )

    @pytest.mark.parametrize("op,key", [
        ("far", "value"), ("near", "value"), ("strongly_far", "holds"),
        ("inclusion_containment", "inclusion"), ("inclusion_containment", "containment"),
    ])
    @pytest.mark.parametrize("value", ['"0"', "'false'", "0", "1", "[]", "null"])
    def test_non_boolean_expectation_refused(self, op, key, value):
        with pytest.raises(InvalidModelError) as info:
            parse(self.TEXT.format(op=op, key=key, value=value))
        assert info.value.where == f"replay[0].expect.{key}"

    def test_boolean_expectation_kept(self):
        model = parse(self.TEXT.format(op="far", key="value", value="true"))
        assert model.replay[0]["expect"] == {"value": True}


class TestTopologyFindings:
    def test_non_union_closed_parses(self):
        # axiom failures are findings for the validate command, not
        # parse errors
        model = parse(
            "points: [a, b, c]\n"
            "topology: [[], [a], [b], [a, b, c]]\n"
            "proximity: {kind: overlap}\n"
        )
        assert not model.topology_valid()

    def test_metric_implies_discrete(self):
        model = parse(
            "points: [a, b]\nmetric: {rows: [[0, 1], [1, 0]]}\n"
            "proximity: {kind: gap, epsilon: 0}\n"
        )
        assert model.space.opens == (0, 1, 2, 3)

    def test_point_count_shorthand(self):
        model = parse("points: 3\ntopology: discrete\nproximity: {kind: overlap}\n")
        assert model.space.points.labels == ("p0", "p1", "p2")


class TestTableFiles:
    def test_table_near_pairs(self):
        model = parse(
            "points: [a, b]\ntopology: discrete\n"
            "proximity:\n  kind: table\n  near:\n"
            "    - [[a], [a]]\n    - [[a], [b]]\n"
        )
        assert model.proximity.near(0b01, 0b10)
        assert model.proximity.far(0b10, 0b10)

    def test_empty_subset_in_table(self):
        model = parse(
            "points: [a]\ntopology: discrete\n"
            "proximity:\n  kind: table\n  near:\n    - [[], [a]]\n"
        )
        assert model.proximity.near(0, 0b1)

    def test_table_roundtrip(self):
        model = parse(
            "points: [a, b]\ntopology: discrete\n"
            "proximity:\n  kind: table\n  near:\n    - [[a], [b]]\n"
        )
        again = parse(serialize(model))
        assert again.proximity.near(0b01, 0b10)
        assert again.proximity.far(0b01, 0b01)


def per_pair_table_text(model):
    """A table model's file text, formatting both subsets anew for every near pair."""
    space = model.space
    names = space.points.names
    lines = [f"points: {_emit_inline_list(space.points.labels)}"]
    if space.opens == tuple(all_masks(space.n)):
        lines.append("topology: discrete")
    else:
        lines.append("topology:")
        lines += [f"  - {_emit_inline_list(names(o))}" for o in space.opens]
    lines += ["proximity:", "  kind: table"]
    pairs = sorted(model.proximity.params["near_pairs"])
    if pairs:
        lines.append("  near:")
        for a, b in pairs:
            lines.append(f"    - [{_emit_inline_list(names(a))}, {_emit_inline_list(names(b))}]")
    else:
        lines.append("  near: []")
    if model.subsets:
        lines.append("subsets:")
        for name in sorted(model.subsets):
            lines.append(f"  {name}: {_emit_inline_list(names(model.subsets[name]))}")
    return "\n".join(lines) + "\n"


def five_point_table():
    space = GroundSpace(PointSet(5), (0, 0b1, 0b11, 0b111, 0b1111, 0b11111))
    pairs = [(a, b) for a in range(32) for b in range(a, 32)]
    near = random.Random(5).sample(pairs, 467)
    subsets = {"A": 0b1, "B": 0b10110, "C": 0b11111, "E": 0}
    return Model(space, table_proximity(space, near), subsets=subsets)


class TestTableSerialization:
    @pytest.mark.parametrize("n", [1, 2])
    def test_every_small_table(self, n):
        for _, model in table_models(n):
            text = serialize(model)
            assert text == per_pair_table_text(model)
            assert serialize(parse(text)) == text

    def test_five_point_table(self):
        model = five_point_table()
        assert len(model.proximity.params["near_pairs"]) >= 400
        text = serialize(model)
        assert text == per_pair_table_text(model)
        assert serialize(parse(text)) == text
