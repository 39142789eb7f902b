"""Deterministic model corpus shared by the acceptance criteria.

At least 200 models with up to five points: every point relation at
n<=3 on the discrete space, every equivalence relation at n<=5 on its
partition topology (the compatible Lodato backbone), overlap on
enumerated and randomized topologies, randomized gap metrics with
thresholds drawn from their distance multisets, and Alexandroff
relations with randomized principal ideals. Everything is seeded, so the
corpus is byte-identical across runs.
"""

import random
from dataclasses import dataclass

from proxitop import (
    CompactnessIdeal,
    GroundSpace,
    Metric,
    PointRelation,
    ProximityRelation,
    alexandroff_proximity,
    enumerate_point_relations,
    enumerate_topologies,
    gap_proximity,
    overlap_proximity,
    point_generated_proximity,
)
from proxitop.search import _partition_space_of, _random_topology

SEED = 20240831


@dataclass
class CorpusModel:
    name: str
    space: GroundSpace
    prox: ProximityRelation


def set_partitions(items):
    """All partitions of a list, deterministic order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _random_line_metric(n, rng):
    positions = sorted(rng.sample(range(0, 4 * n), n))
    return Metric.from_rows(
        [[abs(positions[i] - positions[j]) for j in range(n)] for i in range(n)]
    )


def build_corpus() -> list[CorpusModel]:
    rng = random.Random(SEED)
    models: list[CorpusModel] = []

    # every point relation at n<=3, on the discrete space
    for n in (1, 2, 3):
        for idx, rel in enumerate(enumerate_point_relations(n)):
            space = GroundSpace.discrete(n)
            models.append(
                CorpusModel(f"pr-n{n}-{idx}", space, point_generated_proximity(space, rel))
            )

    # every equivalence relation at n<=5, on its partition topology
    for n in (1, 2, 3, 4, 5):
        for idx, blocks in enumerate(set_partitions(list(range(n)))):
            rel = PointRelation.from_pairs(
                n, [(i, j) for block in blocks for i in block for j in block if i < j]
            )
            space = _partition_space_of(rel)
            models.append(
                CorpusModel(f"eq-n{n}-{idx}", space, point_generated_proximity(space, rel))
            )

    # overlap on discrete spaces and on every 3-point topology shape
    for n in (2, 3, 4, 5):
        space = GroundSpace.discrete(n)
        models.append(CorpusModel(f"overlap-discrete-n{n}", space, overlap_proximity(space)))
    for idx, opens in enumerate(enumerate_topologies(3, True)):
        space = GroundSpace.create(3, opens)
        models.append(CorpusModel(f"overlap-t3-{idx}", space, overlap_proximity(space)))

    # overlap on randomized topologies
    for n in (4, 5):
        for k in range(10):
            space = _random_topology(n, rng)
            models.append(CorpusModel(f"overlap-rand-n{n}-{k}", space, overlap_proximity(space)))

    # canonical and randomized gap models (discrete topology)
    for n in (3, 4, 5):
        space = GroundSpace.discrete(n)
        metric = Metric.line(n)
        for eps in (0,) + metric.distance_values():
            models.append(
                CorpusModel(f"gap-line-n{n}-e{eps}", space, gap_proximity(space, metric, eps))
            )
    for n in (3, 4, 5):
        for k in range(10):
            space = GroundSpace.discrete(n)
            metric = _random_line_metric(n, rng)
            values = (0,) + metric.distance_values()
            eps = values[rng.randrange(len(values))]
            models.append(
                CorpusModel(f"gap-rand-n{n}-{k}", space, gap_proximity(space, metric, eps))
            )

    # alexandroff: every 3-point topology shape with every principal ideal,
    # then randomized spaces and ideals at n=4,5
    for idx, opens in enumerate(enumerate_topologies(3, True)):
        space = GroundSpace.create(3, opens)
        for top in space.closed:
            ideal = CompactnessIdeal.principal(space, top)
            models.append(
                CorpusModel(
                    f"alex-t3-{idx}-i{top}", space, alexandroff_proximity(space, ideal)
                )
            )
    for n in (4, 5):
        for k in range(10):
            space = _random_topology(n, rng)
            top = space.closed[rng.randrange(len(space.closed))]
            ideal = CompactnessIdeal.principal(space, top)
            models.append(
                CorpusModel(f"alex-rand-n{n}-{k}", space, alexandroff_proximity(space, ideal))
            )

    # the everything-near relation, generated by the complete point
    # relation, which is EF but not separated
    for n in (2, 3):
        space = GroundSpace.discrete(n)
        complete = PointRelation((space.full_mask,) * n)
        models.append(
            CorpusModel(f"constant-n{n}", space, point_generated_proximity(space, complete))
        )

    assert len(models) >= 200, f"corpus too small: {len(models)}"
    return models
