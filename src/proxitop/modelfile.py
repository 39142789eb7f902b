"""Plain-text model files: parsing, validation, canonical serialization.

A model file is a small YAML document describing one finite model:

    points: [a, b, c]          # names, or an integer count
    topology: discrete         # or a list of open sets, e.g. [[], [a], [a, b], [a, b, c]]
    metric:                    # optional; exact rationals (ints or 'p/q' strings)
      rows:
        - [0, 1, 2]
        - [1, 0, 1]
        - [2, 1, 0]
    proximity:
      kind: gap                # overlap | gap | alexandroff | table | point_relation
      epsilon: 1               # gap only
      ideal: all               # alexandroff only: "all" or a list of closed sets
      near: [[[a], [b]]]       # table only: near pairs; unlisted pairs are far
      relation: [[a, b]]       # point_relation only: related point pairs
    subsets:                   # optional named subsets for reports
      A: [a]
      B: [c]
    replay:                    # optional; written into search witness files
      - op: check_axioms
        args: {}
        expect: {classification: basic}

When a metric is given and the topology is omitted, the topology is
discrete. Serialization is canonical (fixed field order, sorted subset
names, ascending masks), so byte-identical output is reproducible, and
`parse(serialize(m))` restores a semantically identical model.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

import yaml

from .errors import InvalidModelError, MAX_GROUND_POINTS, ToolkitError
from .proximity import (
    CompactnessIdeal,
    PointRelation,
    ProximityRelation,
    alexandroff_proximity,
    gap_proximity,
    overlap_proximity,
    point_generated_proximity,
    table_proximity,
)
from .spaces import GroundSpace, Metric, PointSet, all_masks

# libyaml's loader parses about ten times faster than the pure-Python one.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")

PROXIMITY_KINDS = ("overlap", "gap", "alexandroff", "table", "point_relation")


@dataclass
class Model:
    """A parsed model: validated space, total relation, and trimmings."""

    space: GroundSpace
    proximity: ProximityRelation
    metric: Optional[Metric] = None
    ideal: Optional[CompactnessIdeal] = None
    subsets: dict[str, int] = field(default_factory=dict)
    replay: tuple[dict, ...] = ()

    def subset_mask(self, name: str) -> int:
        if name not in self.subsets:
            raise ToolkitError(f"unknown named subset {name!r}")
        return self.subsets[name]

    def topology_valid(self) -> bool:
        return self.space.topology_report.ok


# -- parsing ------------------------------------------------------------


def _fail(where: str, message: str):
    raise InvalidModelError(message, where)


def _expect_type(value, types, where: str, what: str):
    if not isinstance(value, types):
        _fail(where, f"expected {what}, got {type(value).__name__}")
    return value


def _parse_points(doc: dict) -> tuple[str, ...]:
    if "points" not in doc:
        _fail("points", "required field is missing")
    raw = doc["points"]
    if isinstance(raw, int):
        if not 1 <= raw <= MAX_GROUND_POINTS:
            _fail("points", f"point count must be in 1..{MAX_GROUND_POINTS}, got {raw}")
        return PointSet(raw).labels
    raw = _expect_type(raw, list, "points", "a list of names or an integer count")
    names = []
    for i, name in enumerate(raw):
        name = _expect_type(name, str, f"points[{i}]", "a point name")
        if not _NAME_RE.match(name):
            _fail(f"points[{i}]", f"invalid point name {name!r}")
        names.append(name)
    if len(set(names)) != len(names):
        _fail("points", "point names must be distinct")
    if not 1 <= len(names) <= MAX_GROUND_POINTS:
        _fail("points", f"point count must be in 1..{MAX_GROUND_POINTS}, got {len(names)}")
    return tuple(names)


def _subset_mask(labels: tuple[str, ...], raw, where: str) -> int:
    raw = _expect_type(raw, list, where, "a list of point names or indices")
    mask = 0
    for i, name in enumerate(raw):
        if isinstance(name, bool) or not isinstance(name, (str, int)):
            _fail(f"{where}[{i}]", "expected a point name or index")
        if isinstance(name, int):
            if not 0 <= name < len(labels):
                _fail(f"{where}[{i}]", f"point index {name} out of range")
            mask |= 1 << name
            continue
        if name not in labels:
            _fail(f"{where}[{i}]", f"unknown point {name!r}")
        mask |= 1 << labels.index(name)
    return mask


def _parse_fraction(raw, where: str) -> Fraction:
    if isinstance(raw, bool):
        _fail(where, "expected an exact rational (int or 'p/q' string)")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            _fail(where, f"cannot read {raw!r} as a rational")
    if isinstance(raw, float):
        _fail(where, "floats are not accepted; use an int or a 'p/q' string")
    _fail(where, f"expected an exact rational, got {type(raw).__name__}")


def _parse_metric(doc: dict, n: int) -> Optional[Metric]:
    if "metric" not in doc:
        return None
    raw = _expect_type(doc["metric"], dict, "metric", "a mapping with 'rows'")
    for key in raw:
        if key not in ("rows", "semimetric"):
            _fail(f"metric.{key}", "unknown field")
    if "rows" not in raw:
        _fail("metric.rows", "required field is missing")
    rows = _expect_type(raw["rows"], list, "metric.rows", "a list of rows")
    if len(rows) != n:
        _fail("metric.rows", f"expected {n} rows, got {len(rows)}")
    parsed = []
    for i, row in enumerate(rows):
        row = _expect_type(row, list, f"metric.rows[{i}]", "a list of distances")
        if len(row) != n:
            _fail(f"metric.rows[{i}]", f"expected {n} entries, got {len(row)}")
        parsed.append([_parse_fraction(d, f"metric.rows[{i}][{j}]") for j, d in enumerate(row)])
    semimetric = bool(raw.get("semimetric", False))
    try:
        return Metric.from_rows(parsed, semimetric=semimetric)
    except ToolkitError as exc:
        _fail("metric", str(exc))


def _parse_topology(doc: dict, labels: tuple[str, ...], has_metric: bool) -> GroundSpace:
    n = len(labels)
    raw = doc.get("topology")
    if raw is None:
        if not has_metric:
            _fail("topology", "required field is missing (or give a metric)")
        raw = "discrete"
    if isinstance(raw, str):
        if raw == "discrete":
            return GroundSpace.discrete(n, labels)
        _fail("topology", f"unknown topology keyword {raw!r}")
    raw = _expect_type(raw, list, "topology", "'discrete' or a list of open sets")
    opens = [_subset_mask(labels, o, f"topology[{i}]") for i, o in enumerate(raw)]
    try:
        # Structural validation only: whether the family satisfies the
        # topology axioms is a finding for the validate command, not a
        # parse failure.
        return GroundSpace(PointSet(n, labels), tuple(opens))
    except ToolkitError as exc:
        _fail("topology", str(exc))


def _parse_ideal(raw, space: GroundSpace, where: str) -> CompactnessIdeal:
    if raw == "all":
        return CompactnessIdeal.all_closed(space)
    raw = _expect_type(raw, list, where, "'all' or a list of closed sets")
    members = [_subset_mask(space.points.labels, m, f"{where}[{i}]") for i, m in enumerate(raw)]
    try:
        return CompactnessIdeal(space, frozenset(members) | {0})
    except ToolkitError as exc:
        _fail(where, str(exc))


def _parse_proximity(doc: dict, space: GroundSpace, metric: Optional[Metric]):
    if "proximity" not in doc:
        _fail("proximity", "required field is missing")
    raw = _expect_type(doc["proximity"], dict, "proximity", "a mapping with 'kind'")
    kind = raw.get("kind")
    if kind not in PROXIMITY_KINDS:
        _fail("proximity.kind", f"expected one of {', '.join(PROXIMITY_KINDS)}, got {kind!r}")
    allowed = {
        "overlap": {"kind"},
        "gap": {"kind", "epsilon"},
        "alexandroff": {"kind", "ideal"},
        "table": {"kind", "near"},
        "point_relation": {"kind", "relation"},
    }[kind]
    for key in raw:
        if key not in allowed:
            _fail(f"proximity.{key}", f"unknown field for kind {kind!r}")
    labels = space.points.labels

    ideal = None
    if kind == "overlap":
        prox = overlap_proximity(space)
    elif kind == "gap":
        if metric is None:
            _fail("proximity", "gap proximity needs a metric section")
        if "epsilon" not in raw:
            _fail("proximity.epsilon", "required field is missing")
        eps = _parse_fraction(raw["epsilon"], "proximity.epsilon")
        if eps < 0:
            _fail("proximity.epsilon", "epsilon must be non-negative")
        prox = gap_proximity(space, metric, eps)
    elif kind == "alexandroff":
        if "ideal" not in raw:
            _fail("proximity.ideal", "required field is missing")
        ideal = _parse_ideal(raw["ideal"], space, "proximity.ideal")
        prox = alexandroff_proximity(space, ideal)
    elif kind == "table":
        pairs_raw = _expect_type(
            raw.get("near", []), list, "proximity.near", "a list of [A, B] pairs"
        )
        pairs = []
        for i, pair in enumerate(pairs_raw):
            pair = _expect_type(pair, list, f"proximity.near[{i}]", "an [A, B] pair")
            if len(pair) != 2:
                _fail(f"proximity.near[{i}]", "expected exactly two subsets")
            a = _subset_mask(labels, pair[0], f"proximity.near[{i}][0]")
            b = _subset_mask(labels, pair[1], f"proximity.near[{i}][1]")
            pairs.append((a, b))
        prox = table_proximity(space, pairs)
    else:  # point_relation
        rel_raw = _expect_type(
            raw.get("relation", []), list, "proximity.relation", "a list of [x, y] pairs"
        )
        pairs = []
        for i, pair in enumerate(rel_raw):
            pair = _expect_type(pair, list, f"proximity.relation[{i}]", "an [x, y] pair")
            if len(pair) != 2:
                _fail(f"proximity.relation[{i}]", "expected exactly two points")
            idx = []
            for j, name in enumerate(pair):
                name = _expect_type(name, str, f"proximity.relation[{i}][{j}]", "a point name")
                if name not in labels:
                    _fail(f"proximity.relation[{i}][{j}]", f"unknown point {name!r}")
                idx.append(labels.index(name))
            pairs.append((idx[0], idx[1]))
        try:
            relation = PointRelation.from_pairs(space.n, pairs)
        except ToolkitError as exc:
            _fail("proximity.relation", str(exc))
        prox = point_generated_proximity(space, relation)
    return prox, ideal


def _parse_subsets(doc: dict, space: GroundSpace) -> dict[str, int]:
    if "subsets" not in doc:
        return {}
    raw = _expect_type(doc["subsets"], dict, "subsets", "a mapping of names to point lists")
    labels = space.points.labels
    out = {}
    for name, members in raw.items():
        name = _expect_type(name, str, "subsets", "a subset name")
        if not _NAME_RE.match(name):
            _fail(f"subsets.{name}", f"invalid subset name {name!r}")
        out[name] = _subset_mask(labels, members, f"subsets.{name}")
    return out


def _parse_replay(doc: dict) -> tuple[dict, ...]:
    if "replay" not in doc:
        return ()
    raw = _expect_type(doc["replay"], list, "replay", "a list of steps")
    steps = []
    for i, step in enumerate(raw):
        step = _expect_type(step, dict, f"replay[{i}]", "a mapping")
        if "op" not in step:
            _fail(f"replay[{i}].op", "required field is missing")
        op = _expect_type(step["op"], str, f"replay[{i}].op", "an operation name")
        args = _expect_type(step.get("args", {}), dict, f"replay[{i}].args", "a mapping")
        expect = _expect_type(step.get("expect", {}), dict, f"replay[{i}].expect", "a mapping")
        steps.append({"op": op, "args": dict(args), "expect": dict(expect)})
    return tuple(steps)


TOP_LEVEL_FIELDS = ("points", "topology", "metric", "proximity", "subsets", "replay")


def parse(text: str) -> Model:
    """Parse and validate a model file; raise InvalidModelError on any defect."""
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        where = ""
        if hasattr(exc, "problem_mark") and exc.problem_mark is not None:
            mark = exc.problem_mark
            where = f"line {mark.line + 1}, column {mark.column + 1}"
        raise InvalidModelError(f"not valid YAML: {exc}", where) from None
    if not isinstance(doc, dict):
        _fail("", "model file must be a mapping")
    for key in doc:
        if key not in TOP_LEVEL_FIELDS:
            _fail(str(key), "unknown field")

    labels = _parse_points(doc)
    metric = _parse_metric(doc, len(labels))
    space = _parse_topology(doc, labels, metric is not None)
    prox, ideal = _parse_proximity(doc, space, metric)
    subsets = _parse_subsets(doc, space)
    replay = _parse_replay(doc)
    return Model(space, prox, metric, ideal, subsets, replay)


def parse_file(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# -- serialization ------------------------------------------------------


def _emit_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"'{value}'"
    if isinstance(value, str):
        if _NAME_RE.match(value):
            return value
        return "'" + value.replace("'", "''") + "'"
    raise ToolkitError(f"cannot serialize scalar {value!r}")


def _emit_inline_list(values) -> str:
    return "[" + ", ".join(_emit_scalar(v) for v in values) + "]"


def serialize(model: Model) -> str:
    """Canonical text form; stable bytes for identical models."""
    space = model.space
    names = space.points.labels
    lines = [f"points: {_emit_inline_list(names)}"]

    if space.opens == tuple(all_masks(space.n)):
        lines.append("topology: discrete")
    else:
        lines.append("topology:")
        for o in space.opens:
            lines.append(f"  - {_emit_inline_list(space.points.names(o))}")

    if model.metric is not None:
        lines.append("metric:")
        lines.append("  rows:")
        for row in model.metric.rows:
            lines.append(f"    - {_emit_inline_list(row)}")
        if model.metric.semimetric:
            lines.append("  semimetric: true")

    prox = model.proximity
    lines.append("proximity:")
    lines.append(f"  kind: {prox.kind}")
    if prox.kind == "gap":
        lines.append(f"  epsilon: {_emit_scalar(prox.params['epsilon'])}")
    elif prox.kind == "alexandroff":
        ideal = model.ideal if model.ideal is not None else prox.params["ideal"]
        if frozenset(ideal.members) == frozenset(space.closed):
            lines.append("  ideal: all")
        else:
            lines.append("  ideal:")
            for m in ideal.sorted_members():
                lines.append(f"    - {_emit_inline_list(space.points.names(m))}")
    elif prox.kind == "table":
        pairs = sorted(prox.params["near_pairs"])
        if pairs:
            lines.append("  near:")
            for a, b in pairs:
                lines.append(
                    f"    - [{_emit_inline_list(space.points.names(a))}, "
                    f"{_emit_inline_list(space.points.names(b))}]"
                )
        else:
            lines.append("  near: []")
    elif prox.kind == "point_relation":
        relation: PointRelation = prox.params["relation"]
        pairs = relation.pairs()
        if pairs:
            lines.append("  relation:")
            for i, j in pairs:
                lines.append(f"    - [{names[i]}, {names[j]}]")
        else:
            lines.append("  relation: []")
    elif prox.kind != "overlap":
        raise ToolkitError(f"relation kind {prox.kind!r} has no file form")

    if model.subsets:
        lines.append("subsets:")
        for name in sorted(model.subsets):
            lines.append(f"  {name}: {_emit_inline_list(space.points.names(model.subsets[name]))}")

    if model.replay:
        lines.append("replay:")
        for step in model.replay:
            lines.append(f"  - op: {_emit_scalar(step['op'])}")
            args = step.get("args", {})
            if args:
                pairs = ", ".join(f"{k}: {_emit_scalar(v)}" for k, v in sorted(args.items()))
                lines.append(f"    args: {{{pairs}}}")
            expect = step.get("expect", {})
            if expect:
                pairs = ", ".join(f"{k}: {_emit_scalar(v)}" for k, v in sorted(expect.items()))
                lines.append(f"    expect: {{{pairs}}}")
    return "\n".join(lines) + "\n"


def model_digest(model: Model) -> str:
    """Short content hash of the canonical serialization."""
    return hashlib.sha256(serialize(model).encode("utf-8")).hexdigest()[:12]
