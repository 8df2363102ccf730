from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from stochmatch.flows import MinCostFlow, transport


def test_prefers_cheap_path():
    f = MinCostFlow(4)
    f.add_edge(0, 1, 2, 1)
    f.add_edge(1, 3, 2, 1)
    f.add_edge(0, 2, 2, 5)
    f.add_edge(2, 3, 2, 5)
    flow, cost = f.min_cost_flow(0, 3, 2)
    assert (flow, cost) == (2, 4)


def test_splits_when_cheap_path_saturates():
    f = MinCostFlow(4)
    cheap_in = f.add_edge(0, 1, 1, 1)
    f.add_edge(1, 3, 1, 1)
    dear_in = f.add_edge(0, 2, 5, 3)
    f.add_edge(2, 3, 5, 3)
    flow, cost = f.min_cost_flow(0, 3, 3)
    assert (flow, cost) == (3, 2 + 2 * 6)
    assert f.flow_on(cheap_in) == 1
    assert f.flow_on(dear_in) == 2


def test_insufficient_capacity_raises():
    f = MinCostFlow(3)
    f.add_edge(0, 1, 1, 0)
    f.add_edge(1, 2, 1, 0)
    with pytest.raises(ValueError, match="1 of 2"):
        f.min_cost_flow(0, 2, 2)


def test_zero_flow_request():
    f = MinCostFlow(2)
    f.add_edge(0, 1, 1, 7)
    assert f.min_cost_flow(0, 1, 0) == (0, 0)


def test_flow_on_reads_reverse_residual():
    f = MinCostFlow(2)
    e = f.add_edge(0, 1, 3, 2)
    f.min_cost_flow(0, 1, 2)
    assert f.flow_on(e) == 2
    assert f.cap[e] == 1


def test_certificate_accepts_optimal_flow():
    f = MinCostFlow(4)
    f.add_edge(0, 1, 2, 1)
    f.add_edge(1, 3, 2, 1)
    f.add_edge(0, 2, 2, 5)
    f.add_edge(2, 3, 2, 5)
    f.min_cost_flow(0, 3, 3)
    assert not f.residual_has_negative_cycle()


def test_certificate_flags_forced_expensive_flow():
    # route a unit over the cost-5 arc by hand; the residual then has
    # the cycle (reverse at -5, forward parallel at +1)
    f = MinCostFlow(2)
    dear = f.add_edge(0, 1, 1, 5)
    f.add_edge(0, 1, 1, 1)
    f.cap[dear] -= 1
    f.cap[dear ^ 1] += 1
    assert f.residual_has_negative_cycle()


def test_deterministic_arc_choice():
    loads = []
    for _ in range(2):
        f = MinCostFlow(4)
        a = f.add_edge(0, 1, 1, 2)
        b = f.add_edge(0, 2, 1, 2)
        f.add_edge(1, 3, 1, 0)
        f.add_edge(2, 3, 1, 0)
        f.min_cost_flow(0, 3, 1)
        loads.append((f.flow_on(a), f.flow_on(b)))
    assert loads[0] == loads[1]


def test_negative_arc_cost_rejected():
    f = MinCostFlow(2)
    with pytest.raises(ValueError, match="negative cost -1"):
        f.add_edge(0, 1, 1, -1)
    with pytest.raises(ValueError, match="negative cost"):
        transport([0, 2], [2, 0], [[2, 1], [-1, 2]])


def test_start_potentials_with_a_negative_reduced_cost_rejected():
    # arc 0->1 costs 2, and 2 + p[0] - p[1] = -1 under these potentials
    f = MinCostFlow(3)
    f.add_edge(0, 1, 1, 2)
    f.add_edge(1, 2, 1, 0)
    with pytest.raises(ValueError, match="arc 0->1 at negative reduced cost"):
        f.min_cost_flow(0, 2, 1, [0, 3, 3])
    with pytest.raises(ValueError, match="need 3 potentials, got 2"):
        f.min_cost_flow(0, 2, 1, [0, 0])
    assert f.flow_on(0) == 0


def test_feasible_start_potentials_give_the_same_optimum():
    # 2 units on 0-1-3 at 2 each, then 0-1 is full and one unit takes 0-2-3
    arcs = [(0, 1, 2, 1), (1, 3, 2, 1), (0, 2, 2, 5), (2, 3, 2, 5), (1, 2, 1, 0)]
    for start in (None, [0, 1, 1, 2], [5, 6, 6, 7]):
        f = MinCostFlow(4)
        for arc in arcs:
            f.add_edge(*arc)
        potential = None if start is None else list(start)
        assert f.min_cost_flow(0, 3, 3, potential) == (3, 14)
        if potential is not None:
            # updated in place to potentials that certify the final flow
            assert potential != start
            f._check_reduced_costs(potential)


def _lp_optimum(n, arcs, s, t, units=None):
    """The arc LP on the same digraph: the max flow value when units is
    None, else the min cost of sending units from s to t."""
    balance = np.zeros((n, len(arcs) + 1))
    for j, (u, v, _, _) in enumerate(arcs):
        balance[u, j] += 1
        balance[v, j] -= 1
    balance[s, -1] -= 1  # the flow value F leaves s and enters t
    balance[t, -1] += 1
    bounds = [(0, cap) for _, _, cap, _ in arcs]
    if units is None:
        c = [0] * len(arcs) + [-1]
        bounds.append((0, None))
    else:
        c = [cost for _, _, _, cost in arcs] + [0]
        bounds.append((units, units))
    res = linprog(c, A_eq=balance, b_eq=np.zeros(n), bounds=bounds, method="highs")
    assert res.status == 0
    return round(-res.fun) if units is None else round(res.fun)


def _solve(n, arcs, s, t, units):
    f = MinCostFlow(n)
    ids = [f.add_edge(u, v, cap, cost) for u, v, cap, cost in arcs]
    try:
        result = f.min_cost_flow(s, t, units)
    except ValueError as exc:
        result = exc
    return f, [f.flow_on(i) for i in ids], result


@st.composite
def _digraphs(draw):
    n = draw(st.integers(2, 6))
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    node = st.integers(0, n - 1)
    arc = st.tuples(node, node, st.integers(0, 4), st.integers(0, 3)).filter(
        lambda a: a[0] != a[1]
    )
    arcs = draw(st.lists(arc, min_size=n, max_size=16))
    return n, arcs, s, t, draw(st.integers(0, 6))


@settings(deadline=None, max_examples=200)
@given(case=_digraphs())
# node 1 is labelled 2 but not settled when t is; raising its potential
# by that label instead of dist[t] gives arc 2->1 a negative reduced cost
@example(case=(4, [(0, 3, 1, 0), (1, 3, 1, 0), (2, 3, 3, 0), (2, 1, 1, 0),
                   (0, 1, 1, 2), (0, 2, 4, 1)], 0, 3, 5))
def test_general_graphs_match_the_arc_lp(case):
    # parallel and antiparallel arcs, zero costs and capacities and cost
    # ties all occur; the LP optimum is integral (the arc-node incidence
    # matrix is totally unimodular)
    n, arcs, s, t, request = case
    maxflow = _lp_optimum(n, arcs, s, t)
    units = min(request, maxflow + 1)
    f, flows, result = _solve(n, arcs, s, t, units)
    assert _solve(n, arcs, s, t, units)[1] == flows
    if units > maxflow:
        assert isinstance(result, ValueError)
        assert str(result) == f"only {maxflow} of {units} units routable"
    else:
        assert result == (units, _lp_optimum(n, arcs, s, t, units))
        assert result[1] == sum(fl * a[3] for fl, a in zip(flows, arcs))
    assert not f.residual_has_negative_cycle()
