"""A table's point rows (F10), read off its singleton pairs.

`table_proximity` hands in the rows R(i) = {j : ({i}, {j}) is listed}
when they generate the table: R is reflexive, every listed pair (a, b)
has N(a) meeting b, and the table lists as many pairs as R generates. A
relation on a finite set is basic (P0-P3) iff its singleton rows
generate it, so a table has rows exactly when it is basic. Each test
decides that on a twin with no point rows, whose matrix is filled from
the table's definition (`reference.reference_rule`), and checks that a
table with rows answers every pair, axiom and witness as that twin does.
"""

import pytest
from hypothesis import given, settings, strategies as st

from proxitop import GroundSpace, check_axioms, table_proximity
from proxitop.proximity import AXIOM_NAMES, _matrix_witnesses, _point_witnesses
from proxitop.spaces import bits_of, union_table
from reference import matrix_twin, reference_rule, singleton_rows


def written_out(n, rows):
    """Every unordered pair (a <= b) the rows generate."""
    nbhd = union_table(rows)
    size = 1 << n
    return [(a, b) for a in range(size) for b in range(a, size) if nbhd[a] & b]


def point_rows(n, edges):
    """The reflexive symmetric rows with the pairs of `edges` related."""
    rows = [1 << i for i in range(n)]
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


def assert_rows_iff_basic(prox):
    """Rows exactly when the matrix twin is basic, and then the same relation."""
    n = prox.space.n
    size = 1 << n
    rows = prox._point_rows()
    twin = matrix_twin(prox)
    basic = check_axioms(twin).is_basic
    assert (rows is not None) == basic, prox.params["near_pairs"]
    if basic:
        listed = reference_rule(prox)
        assert rows == singleton_rows(n, listed)
        assert all(
            prox.near(a, b) == listed(a, b) for a in range(size) for b in range(a, size)
        )
        assert check_axioms(prox) == check_axioms(twin)
        assert prox._rows is None
    return basic


def test_every_table_up_to_two_points():
    tables = basic = 0
    for n in (1, 2):
        space = GroundSpace.discrete(n)
        size = 1 << n
        pairs = [(a, b) for a in range(size) for b in range(a, size)]
        for chosen in range(1 << len(pairs)):
            prox = table_proximity(space, [pairs[k] for k in bits_of(chosen)])
            basic += assert_rows_iff_basic(prox)
            tables += 1
    # 2^3 tables on one point and 2^10 on two; the basic ones are the
    # point relations: one on one point, two on two.
    assert (tables, basic) == (1032, 3)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_written_out_relations_with_a_pair_planted_or_removed(data):
    n = data.draw(st.integers(3, 4))
    space = GroundSpace.discrete(n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows = point_rows(n, data.draw(st.lists(st.sampled_from(edges), unique=True)))
    table = written_out(n, rows)
    prox = table_proximity(space, table)
    assert assert_rows_iff_basic(prox) and prox._point_rows() == rows

    size = 1 << n
    listed = set(table)
    if data.draw(st.booleans()):
        unlisted = [(a, b) for a in range(size) for b in range(a, size) if (a, b) not in listed]
        edited = table + [data.draw(st.sampled_from(unlisted))]
    else:
        dropped = data.draw(st.sampled_from(table))
        edited = [pair for pair in table if pair != dropped]
    assert_rows_iff_basic(table_proximity(space, edited))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_equals_matrix_on_every_basic_table(n):
    """Every basic table with n <= 4 is a point relation written out; its
    neighbourhood table gives the matrix's verdicts and witnesses."""
    space = GroundSpace.discrete(n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for chosen in range(1 << len(edges)):
        rows = point_rows(n, [edges[k] for k in bits_of(chosen)])
        prox = table_proximity(space, written_out(n, rows))
        nbhd = prox._neighbourhoods()
        assert nbhd is not None, rows
        assert _point_witnesses(nbhd, n, AXIOM_NAMES) == _matrix_witnesses(
            matrix_twin(prox), AXIOM_NAMES
        ), rows
