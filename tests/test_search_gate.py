"""The search's row gate against the tests it stands in front of.

`search` builds and tests a point-generated candidate only where a read
of its point rows R says the target's test can return a witness
(`search._TARGET_GATES`). Each read must agree with the report it
replaces: transitivity of R with the `check_axioms` classification (`ef`
where R is transitive, `basic` where it is not, never `lodato`: F6), the
compatibility read with `is_compatible`; and wherever a gate says no, the
target's test must return None. Checked on every candidate with point rows at
n <= 4, on the n = 5 and 6 stages at two seeds, and on Hypothesis draws
of a topology and a point relation on up to 6 points.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxitop.modelfile import Model
from proxitop.proximity import (
    PointRelation,
    _rows_compatible,
    _rows_transitive,
    check_axioms,
    is_compatible,
    point_generated_proximity,
)
from proxitop.search import (
    SAMPLES_PER_STAGE,
    TARGET_NAMES,
    SearchTarget,
    _TARGET_GATES,
    _TARGET_TESTS,
    _candidates,
    _pair_order,
    _random_topology,
)
from proxitop.spaces import GroundSpace


def assert_gate_agrees(build, space, rows):
    """The row reads equal the reports, and a closed gate hides no witness.
    Returns the targets whose gate is open."""
    prox = build().proximity
    assert check_axioms(prox).classification == ("ef" if _rows_transitive(rows) else "basic")
    assert _rows_compatible(space, rows) == is_compatible(prox).compatible
    opened = set()
    for name in TARGET_NAMES:
        if _TARGET_GATES[name](space, rows):
            opened.add(name)
        else:
            assert _TARGET_TESTS[name](build()) is None, name
    return opened


def candidates_with_rows(n_min, n_max, seed):
    """(name, build, rows) of each stream candidate that has point rows."""
    for name, key, build, _ in _candidates(SearchTarget(TARGET_NAMES[0], n_min, n_max), seed):
        rows = build().proximity._point_rows() if key is None else key[1]
        if rows is not None:
            yield name, build, rows


def test_every_small_candidate():
    """All 370 point-generated candidates and the 3 basic tables at n <= 4;
    every gate opens somewhere, and the Lodato-class gate nowhere."""
    opened = set()
    checked = 0
    for name, build, rows in candidates_with_rows(1, 4, 0):
        opened |= assert_gate_agrees(build, build.space, rows)
        checked += 1
    assert checked == 370 + 3
    assert opened == set(TARGET_NAMES) - {"lodato-not-ef", "far-not-strongly-far"}


@pytest.mark.parametrize("seed", [0, 7])
def test_the_five_and_six_point_stages(seed):
    """Three sampled stages at each n, and the line gaps at every epsilon."""
    checked = 0
    for name, build, rows in candidates_with_rows(5, 6, seed):
        assert_gate_agrees(build, build.space, rows)
        checked += 1
    assert checked == 2 * 3 * SAMPLES_PER_STAGE + 5 + 6


@st.composite
def space_and_relation(draw):
    """A point relation on a discrete, random or partition topology; on a
    partition topology it is sometimes the partition's own equivalence,
    which is compatible."""
    n = draw(st.integers(1, 6))
    pairs = _pair_order(n)
    edges = draw(st.integers(0, (1 << len(pairs)) - 1))
    rel = PointRelation.from_pairs(n, [p for k, p in enumerate(pairs) if edges >> k & 1])
    shape = draw(st.sampled_from(("discrete", "random", "partition")))
    if shape == "discrete" or n == 1:
        space = GroundSpace.discrete(n)
    elif shape == "random":
        space = _random_topology(n, random.Random(draw(st.integers(0, 10**6))))
    else:
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        blocks = {}
        for i, label in enumerate(labels):
            blocks.setdefault(label, []).append(i)
        space = GroundSpace.from_partition(list(blocks.values()))
        if draw(st.booleans()):
            rel = PointRelation(space._point_closures)
    return space, rel


@given(space_and_relation())
@settings(max_examples=150, deadline=None)
def test_drawn_relations(drawn):
    space, rel = drawn

    def build():
        return Model(space, point_generated_proximity(space, rel))

    assert_gate_agrees(build, space, rel.rows)
