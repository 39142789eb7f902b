"""Finite-model toolkit for proximity spaces and hyperspace topologies.

Build a finite topological space, put a proximity relation on its power
set, and interrogate the pair: axiom classification with counterexample
witnesses, strong inclusion and strongly-far verdicts, hit-and-miss
topologies on the hyperspace of nonempty closed sets, refinement
comparisons between them, and exhaustive searches over small models.
"""

from .errors import (
    CapExceededError,
    HyperspaceMismatchError,
    InvalidModelError,
    InvalidTopologyError,
    NotOpenError,
    ToolkitError,
)
from .hyperspace import (
    HyperTopologyBase,
    build_topology,
    compare,
    check_inclusion_containment,
    enumerate_cl,
    far_miss_set,
    hit_set,
    miss_set,
    refines,
    sf_miss_set,
)
from .modelfile import Model, model_digest, parse, parse_file, serialize
from .proximity import (
    CompactnessIdeal,
    PointRelation,
    ProximityAxiomReport,
    ProximityRelation,
    alexandroff_proximity,
    check_axioms,
    gap_proximity,
    induced_closure,
    is_compatible,
    overlap_proximity,
    point_generated_proximity,
    table_proximity,
)
from .search import (
    SearchOutcome,
    SearchTarget,
    enumerate_point_relations,
    enumerate_topologies,
    replay,
    search,
)
from .spaces import (
    GroundSpace,
    Metric,
    PointSet,
    all_masks,
    bits_of,
    closed_sets,
    closure,
    interior,
    is_T1,
    regular_open_hull,
    validate_topology,
)
from .strong import (
    WitnessResult,
    check_far_vs_sf,
    check_sf_implies_hat,
    derived_near_from_sf,
    hat_strongly_far,
    strongly_far,
    strongly_included,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
