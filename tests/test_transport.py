"""The transportation kernel, checked against unit assignment, and the integer column sampler."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from stochmatch.flows import MinCostFlow, column, column_units, draw, transport


def _unit_assignment_cost(supplies, demands, cost_rows):
    # the hand-built bipartite graph of unit copies: row a is split into
    # supplies[a] copies and column b into demands[b], and a min-cost
    # perfect assignment between the copies is an optimal transport
    rows = [a for a, s in enumerate(supplies) for _ in range(s)]
    cols = [b for b, d in enumerate(demands) for _ in range(d)]
    if not rows:
        return 0
    table = [[cost_rows[a][b] for b in cols] for a in rows]
    r, c = linear_sum_assignment(table)
    return sum(table[i][j] for i, j in zip(r, c))


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_transport_matches_hand_built_graph(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 4))
    supplies = data.draw(st.lists(st.integers(0, 5), min_size=m, max_size=m))
    total = sum(supplies)
    cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    demands = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    cost_rows = data.draw(
        st.lists(st.lists(st.integers(0, 9), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    cost, flows = transport(supplies, demands, cost_rows)
    assert cost == _unit_assignment_cost(supplies, demands, cost_rows)
    assert all(f > 0 for f in flows.values())
    assert cost == sum(cost_rows[a][b] * f for (a, b), f in flows.items())
    for a, s in enumerate(supplies):
        assert sum(f for (i, _), f in flows.items() if i == a) == s
    for b, d in enumerate(demands):
        assert sum(f for (_, j), f in flows.items() if j == b) == d


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_warm_duals_keep_the_optimum_and_come_back_feasible(data):
    # any row potentials give an optimal plan with exact marginals, and
    # the final ones, with every column at the min rule, price every
    # arc that carries flow at zero reduced cost
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 5))
    supplies = data.draw(st.lists(st.integers(0, 6), min_size=m, max_size=m))
    total = sum(supplies)
    cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    demands = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    cost_rows = data.draw(
        st.lists(st.lists(st.integers(0, 9), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    duals = data.draw(st.lists(st.integers(-20, 20), min_size=m, max_size=m))
    cold_cost, _ = transport(supplies, demands, cost_rows)
    cost, flows = transport(supplies, demands, cost_rows, duals)
    assert cost == cold_cost
    assert cost == sum(cost_rows[a][b] * f for (a, b), f in flows.items())
    for a, s in enumerate(supplies):
        assert sum(f for (i, _), f in flows.items() if i == a) == s
    for b, d in enumerate(demands):
        assert sum(f for (_, j), f in flows.items() if j == b) == d
    assert len(duals) == m
    cols = [min(u + row[b] for u, row in zip(duals, cost_rows)) for b in range(n)]
    for a, b in flows:
        assert cost_rows[a][b] + duals[a] == cols[b]


def test_warm_duals_checked():
    with pytest.raises(ValueError, match="need 1 duals, got 2"):
        transport([1], [1, 0], [[0, 0]], [0, 0])


def test_new_column_gets_the_min_rule():
    # the kernel starts every column at min over rows of u_a + c_ab
    kernel = MinCostFlow([1, 1], [1, 1], [[4, 9], [2, 1]], [0, 3])
    assert (kernel.row_p, kernel.col_p) == ([0, 3], [min(0 + 4, 3 + 2), min(0 + 9, 3 + 1)])
    # cold, every potential starts at zero
    cold = MinCostFlow([1, 1], [1, 1], [[4, 9], [2, 1]])
    assert (cold.row_p, cold.col_p) == ([0, 0], [0, 0])
    duals = [0, 3]
    assert transport([1, 1], [1, 1], [[4, 9], [2, 1]], duals) == (5, {(0, 0): 1, (1, 1): 1})
    # row 0 ships to column 0 and row 1 to column 1, both at zero reduced cost
    assert duals[0] + 4 == min(duals[0] + 4, duals[1] + 2)
    assert duals[1] + 1 == min(duals[0] + 9, duals[1] + 1)


def test_transport_rejects_unbalanced_totals():
    with pytest.raises(ValueError, match="balance"):
        transport([2, 1], [2], [[0], [0]])


def test_transport_rejects_negative_marginals():
    # balanced, but a row of -1 would leave its units unshipped and the
    # plan's marginals wrong
    with pytest.raises(ValueError, match="must be >= 0"):
        transport([-1, 2], [1, 0], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="must be >= 0"):
        transport([1, 0], [2, -1], [[0, 0], [0, 0]])


def test_column_round_trip():
    pairs = [(4, 2), (1, 0), (7, 3)]
    col = column(pairs)
    assert col == ([4, 1, 7], [2, 2, 5])
    assert list(column_units(col)) == pairs


def test_draw_is_inverse_cdf_on_one_randrange():
    col = column([("a", 2), ("b", 0), ("c", 3)])
    for seed in range(30):
        t = random.Random(seed).randrange(5)
        want = "a" if t < 2 else "c"
        assert draw(col, 5, random.Random(seed)) == want


def test_draw_rejects_wrong_total():
    with pytest.raises(ValueError, match="holds 5 units, expected 4"):
        draw(column([(0, 2), (1, 3)]), 4, random.Random(0))
