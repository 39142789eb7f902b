"""The benchmark's trace hooks name functions that still exist.

`perfbench/spans.py` rebinds program functions by name when a traced run
starts, so a rename or deletion in the package would make
`perfbench/run.py --trace 1` fail. The spans file is loaded by path, not
imported as a package. The smoke test installs its tracer around CLI
runs, so a change to `check_axioms`' keywords or to the report's fields
that the per-axiom wrapper relies on fails here too.
"""

import importlib
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from proxitop import cli

ROOT = Path(__file__).resolve().parent.parent
SPANS_FILE = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_function_exists():
    spans = load_spans()
    assert spans.SPANS
    for module_name, attr, _ in spans.SPANS:
        module = importlib.import_module(f"proxitop.{module_name}")
        assert callable(getattr(module, attr, None)), f"proxitop.{module_name}.{attr}"
    for module_name in spans.MODULES:
        importlib.import_module(f"proxitop.{module_name}")


def test_functions_the_tracer_wraps_by_hand_exist():
    proximity = importlib.import_module("proxitop.proximity")
    hyperspace = importlib.import_module("proxitop.hyperspace")
    search = importlib.import_module("proxitop.search")
    assert callable(proximity._classify)
    assert callable(proximity.check_axioms)
    assert proximity.ProximityAxiomReport.__dataclass_fields__
    assert callable(hyperspace.build_topology)
    assert callable(search.search)
    assert callable(search.candidate_models)
    assert callable(search.enumerate_topologies.cache_clear)


def _stdout(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_traced_validate_prints_the_untraced_report(tmp_path):
    table = tmp_path / "table.yaml"
    table.write_text(
        "points: [a, b]\ntopology: discrete\n"
        "proximity: {kind: table, near: [[[a], [a]], [[a], [a, b]], [[b], [a, b]]]}\n"
    )
    runs = [
        ["validate", str(path), "--no-timestamp", *flags]
        for path in (ROOT / "models" / "discrete_overlap.yaml", table)
        for flags in ((), ("--json",))
    ]
    plain = [_stdout(argv) for argv in runs]
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [_stdout(argv) for argv in runs]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.calls["proximity.check_axioms"] == len(runs)
    for axiom in spans.AXIOMS:
        assert tracer.calls[f"proximity.axiom.{axiom}"] == len(runs), axiom


def test_traced_relations_prints_the_untraced_report():
    argv = ["relations", str(ROOT / "models" / "alexandroff_ideal.yaml"), "--no-timestamp"]
    plain = _stdout(argv)
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _stdout(argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.calls["strong.strongly_far"] > 0
    assert tracer.calls["strong.hat"] > 0
