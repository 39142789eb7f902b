"""The benchmark's trace hooks name functions that still exist.

`perfbench/spans.py` rebinds program functions by name when a traced run
starts, so a rename or deletion in the package would make
`perfbench/run.py --trace 1` fail. The spans file is loaded by path, not
imported as a package, and nothing from it is installed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
