"""Command-line surface: validate, relations, compare, search.

Every command is a pure function of its file contents and flags; the
only environment-dependent output is the optional timestamp, disabled by
--no-timestamp for byte-stable golden runs. Exit codes: 0 success (axiom
failures are findings, not errors), 1 usage error, 2 model parse error,
3 size cap exceeded.

The argument parser is built once per process, on the first call of
`main`; `main` keeps no other state between calls, so callers may run it
in a loop.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from . import modelfile, report as rep
from .errors import CapExceededError, InvalidModelError, ToolkitError
from .hyperspace import MISS_ONLY_KINDS, SPECS, TOPOLOGY_KINDS, build_topology, compare
from .modelfile import Model
from .proximity import AXIOM_NAMES, check_axioms, is_compatible
from .search import (
    DEFAULT_BUDGET,
    KIND_EXHAUSTIVE_CAPS,
    MAX_SEARCH_N,
    STATUS_WITNESS,
    SearchTarget,
    TARGET_NAMES,
    search,
)
from .spaces import is_T1
from .strong import hat_strongly_far, strongly_far, strongly_included


class UsageError(ToolkitError):
    pass


def _count(minimum: int):
    """argparse type: an integer no smaller than `minimum`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "integer"  # named in argparse's "invalid integer value" message
    return parse


_CAP_HELP = {
    "--cap-n": "exhaustive-check size cap",
    "--cap-hyper": "hyperspace size cap",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on first use (not at import).

    Each `parse_args` returns a fresh namespace and `error` raises without
    touching the parser, so one parser serves every call of `main`.
    """
    parser = _Parser(prog="proxitop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cap=None):
        """The output flags, and the one size cap, if any, the verb applies."""
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--no-timestamp", action="store_true", help="omit the timestamp field"
        )
        if cap is not None:
            p.add_argument(cap, type=_count(1), default=None, help=_CAP_HELP[cap])

    p = sub.add_parser("validate", help="topology, axiom and compatibility report")
    p.add_argument("file")
    common(p, "--cap-n")

    p = sub.add_parser("relations", help="near/far/strongly-far table for subset pairs")
    p.add_argument("file")
    p.add_argument(
        "--pairs",
        default="all",
        help="semicolon-separated name pairs like 'A,B;B,C', or 'all'",
    )
    common(p)

    p = sub.add_parser("compare", help="compare two hyperspace topologies")
    p.add_argument("file")
    p.add_argument("--left", required=True, help="topology spec")
    p.add_argument("--right", required=True, help="topology spec")
    common(p, "--cap-hyper")

    p = sub.add_parser("search", help="hunt finite models for witnesses")
    p.add_argument("--target", required=True, choices=TARGET_NAMES)
    p.add_argument(
        "--max-n", type=int, default=3,
        help=f"largest point count to search, 1..{MAX_SEARCH_N} (default 3)",
    )
    p.add_argument(
        "--budget", type=_count(0), default=DEFAULT_BUDGET,
        help="relation evaluations to spend: each n-point candidate counts "
        "2^n (2^n + 1) / 2, whether it is built or not",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="seeds only the sampled stages: the point-relation and Alexandroff "
        f"candidates above {KIND_EXHAUSTIVE_CAPS['point_relation']} points, past "
        "the exhaustive caps",
    )
    p.add_argument("--out", default=None, help="write the witness model file here")
    common(p)
    return parser


def _load(path: str, *, require_valid_topology: bool = True) -> Model:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidModelError(str(exc), path) from None
    model = modelfile.parse(text)
    # Only the validate command reports on broken topologies; everything
    # else needs a real space to compute on.
    if require_valid_topology and not model.topology_valid():
        raise InvalidModelError(
            "open family is not a topology; run the validate command for details",
            "topology",
        )
    return model


def _axiom_section(model: Model, cap: Optional[int]) -> dict:
    kwargs = {} if cap is None else {"cap": cap}
    axioms = check_axioms(model.proximity, **kwargs)
    verdicts = {}
    for name in AXIOM_NAMES:
        v = axioms.verdicts[name]
        entry: dict = {"passed": v.passed}
        if v.witness is not None:
            entry["witness"] = [rep.format_subset(model.space, m) for m in v.witness]
        verdicts[name] = entry
    section = {
        "classification": axioms.classification,
        "separated": axioms.separated,
        "exhaustive": axioms.exhaustive,
        "axioms": verdicts,
    }
    if axioms.classification == "ef":
        section["p4_alongside_ef"] = axioms.p4_alongside_ef
    return section


def _cmd_validate(args) -> dict:
    """The topology report, then, on a topology only, the rest of the model's.

    A proximity on an open family that is not a topology has no meaning,
    so such a family's document stops at its topology summary.
    """
    model = _load(args.file, require_valid_topology=False)
    space = model.space
    topo = space.topology_report
    doc = {
        "command": "validate",
        "model": rep.model_header(model, with_timestamp=not args.no_timestamp),
        "topology": {"valid": topo.ok, "summary": topo.summary()},
    }
    if not topo.ok:
        return doc
    compat = is_compatible(model.proximity)
    singleton_edges = sum(
        1
        for i in range(space.n)
        for j in range(i, space.n)
        if model.proximity.near(1 << i, 1 << j)
    )
    doc["topology"]["T1"] = is_T1(space)
    doc["statistics"] = {
        "closed_sets": len(space.closed),
        "hyperpoints": sum(1 for c in space.closed if c),
        "near_singleton_pairs": singleton_edges,
        "named_subsets": len(model.subsets),
    }
    doc["proximity"] = _axiom_section(model, args.cap_n)
    doc["compatibility"] = {
        "compatible": compat.compatible,
        "witness": None if compat.witness is None else rep.format_subset(space, compat.witness),
    }
    return doc


def _pair_list(model: Model, spec: str) -> list[tuple[str, str]]:
    names = sorted(model.subsets)
    if spec == "all":
        return [(a, b) for i, a in enumerate(names) for b in names[i:]]
    pairs = []
    for chunk in spec.split(";"):
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 2:
            raise UsageError(f"--pairs chunk {chunk!r} is not a name pair")
        for p in parts:
            if p not in model.subsets:
                raise UsageError(f"unknown named subset {p!r}")
        pairs.append((parts[0], parts[1]))
    return pairs


def _cmd_relations(args) -> dict:
    model = _load(args.file)
    prox = model.proximity
    space = model.space
    rows = []
    for name_a, name_b in _pair_list(model, args.pairs):
        a, b = model.subsets[name_a], model.subsets[name_b]
        row = {
            "pair": f"{name_a},{name_b}",
            "A": rep.format_subset(space, a),
            "B": rep.format_subset(space, b),
        }
        if a == 0 or b == 0:
            row["verdict"] = "degenerate (empty side)"
            rows.append(row)
            continue
        sf = strongly_far(prox, a, b)
        hat = hat_strongly_far(space, a, b)
        row.update(
            {
                "near": prox.near(a, b),
                "strongly_far": sf.holds,
                "sf_witness": None
                if sf.witness is None
                else rep.format_subset(space, sf.witness[0]),
                "hat_strongly_far": hat.holds,
                "hat_witness": None
                if hat.witness is None
                else [rep.format_subset(space, m) for m in hat.witness],
                "A_strongly_included_in_B": strongly_included(prox, a, b),
                "B_strongly_included_in_A": strongly_included(prox, b, a),
            }
        )
        rows.append(row)
    return {
        "command": "relations",
        "model": rep.model_header(model, with_timestamp=not args.no_timestamp),
        "pairs": rows,
    }


_SPEC_NAMES = TOPOLOGY_KINDS + MISS_ONLY_KINDS


def _topology_from_spec(model: Model, spec: str, cap_hyper: Optional[int]):
    if spec not in _SPEC_NAMES:
        raise UsageError(
            f"unknown topology spec {spec!r}; expected one of {', '.join(_SPEC_NAMES)}"
        )
    # B is every closed set for the _only kinds; the ideal's members
    # serve as hit_and_miss's family
    b = SPECS[spec][1] if spec in SPECS else "closed"
    if b != "closed" and model.ideal is None:
        raise UsageError(f"topology spec {spec!r} needs an ideal in the model file")
    kwargs: dict = {"prox": model.proximity, "ideal": model.ideal}
    if b == "family":
        kwargs["family"] = model.ideal.sorted_members()
    if cap_hyper is not None:
        kwargs["hyper_cap"] = cap_hyper
    return build_topology(model.space, spec, **kwargs)


def _cmd_compare(args) -> dict:
    model = _load(args.file)
    left = _topology_from_spec(model, args.left, args.cap_hyper)
    right = _topology_from_spec(model, args.right, args.cap_hyper)
    result = compare(left, right)
    space = model.space

    def witness_doc(direction):
        if direction.witness is None:
            return None
        family_mask, point_idx = direction.witness
        cl = left.cl
        members = [rep.format_subset(space, cl[i]) for i in range(len(cl)) if family_mask >> i & 1]
        return {
            "family": members,
            "hyperpoint": rep.format_subset(space, cl[point_idx]),
        }

    return {
        "command": "compare",
        "model": rep.model_header(model, with_timestamp=not args.no_timestamp),
        "left": {"spec": args.left, "subbase": len(left.subbase), "base": len(left.base)},
        "right": {"spec": args.right, "subbase": len(right.subbase), "base": len(right.base)},
        "hyperpoints": len(left.cl),
        "verdict": result.verdict,
        "left_refines_right": result.left_refines_right.refines,
        "right_refines_left": result.right_refines_left.refines,
        "witness_left_to_right": witness_doc(result.left_refines_right),
        "witness_right_to_left": witness_doc(result.right_refines_left),
    }


def _cmd_search(args) -> dict:
    if not 1 <= args.max_n <= MAX_SEARCH_N:
        raise UsageError(f"--max-n must be in 1..{MAX_SEARCH_N}")
    target = SearchTarget(args.target, n_max=args.max_n)
    outcome = search(target, budget=args.budget, seed=args.seed)
    doc = {
        "command": "search",
        "target": args.target,
        "max_n": args.max_n,
        "budget": args.budget,
        "seed": args.seed,
        "status": outcome.status,
        "models_checked": outcome.models_checked,
        "evaluations": outcome.evaluations,
        "notes": list(outcome.notes),
    }
    if not args.no_timestamp:
        doc["timestamp"] = rep.timestamp()
    if outcome.status == STATUS_WITNESS:
        doc["witness_candidate"] = outcome.witness_name
        doc["witness_model"] = modelfile.serialize(outcome.witness)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(doc["witness_model"])
            except OSError as exc:
                raise UsageError(f"cannot write --out file: {exc}") from None
            doc["witness_file"] = args.out
    return doc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        doc = {
            "validate": _cmd_validate,
            "relations": _cmd_relations,
            "compare": _cmd_compare,
            "search": _cmd_search,
        }[args.command](args)
        text = rep.render_json(doc) if args.json else rep.render_text(doc)
        sys.stdout.write(text)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InvalidModelError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
