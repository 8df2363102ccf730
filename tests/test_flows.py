"""The transport kernel: small fixed plans and two LP oracles."""
from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from stochmatch import flows
from stochmatch.flows import MinCostFlow, transport


def test_prefers_cheap_path():
    assert transport([1, 1], [1, 1], [[1, 5], [5, 1]]) == (2, {(0, 0): 1, (1, 1): 1})
    # numpy integer costs price the pairs alike
    assert transport([1, 1], [1, 1], np.array([[1, 5], [5, 1]])) == (2, {(0, 0): 1, (1, 1): 1})


def test_splits_when_cheap_path_saturates():
    # row 0's one unit takes column 0 at cost 1; row 1 fills the rest of
    # column 0 and all of column 1 at 3 each, never row 0's pair at 9
    cost, flows = transport([1, 5], [3, 3], [[1, 9], [3, 3]])
    assert (cost, flows) == (1 + 2 * 3 + 3 * 3, {(0, 0): 1, (1, 0): 2, (1, 1): 3})


def test_zero_flow_request():
    kernel = MinCostFlow([0, 0], [0], [[7], [3]])
    assert kernel.min_cost_flow() == (0, 0)
    assert kernel.flows == {}
    assert transport([0, 0], [0], [[7], [3]]) == (0, {})


def test_certificate_accepts_optimal_flow():
    # the final potentials certify the plan: no pair at negative reduced
    # cost, and every pair that carries flow at zero
    supplies, demands = [2, 3, 1], [1, 4, 1]
    cost_rows = [[4, 1, 7], [2, 6, 3], [5, 2, 0]]
    kernel = MinCostFlow(supplies, demands, cost_rows)
    assert kernel.min_cost_flow() == (6, 15)
    for a, row in enumerate(cost_rows):
        for b, c in enumerate(row):
            reduced = c + kernel.row_p[a] - kernel.col_p[b]
            assert reduced >= 0
            assert reduced == 0 or (a, b) not in kernel.flows


def test_deterministic_arc_choice():
    # all four pairs tie: the first row takes the first column
    plans = [transport([1, 1], [1, 1], [[2, 2], [2, 2]]) for _ in range(2)]
    assert plans[0] == plans[1] == (4, {(0, 0): 1, (1, 1): 1})


def test_negative_arc_cost_rejected():
    with pytest.raises(ValueError, match="row 1 has negative cost -1"):
        transport([0, 2], [2, 0], [[2, 1], [-1, 2]])
    with pytest.raises(ValueError, match="negative cost"):
        MinCostFlow([1], [1], [[-3]], [0])
    # so is a cost table of the wrong shape, cold or warm
    for supplies, cost_rows, duals, message in (
        ([1, 1], [[5], [0, 0]], None, "row 0 has 1 costs for 2 columns"),
        ([1, 1], [[5], [0, 0]], [0, 0], "row 0 has 1 costs for 2 columns"),
        ([1], [[0, 7]], None, "row 0 has 2 costs for 1 columns"),
        ([1, 1], [[0, 0]], None, "1 cost rows for 2 supplies"),
    ):
        with pytest.raises(ValueError, match=message):
            transport(supplies, list(supplies), cost_rows, duals)


def test_feasible_start_potentials_give_the_same_optimum():
    plan = (16, {(0, 0): 1, (1, 0): 2, (1, 1): 3})
    for start in (None, [0, 0], [0, 1], [5, 6], [-7, 40]):
        duals = None if start is None else list(start)
        assert transport([1, 5], [3, 3], [[1, 9], [3, 3]], duals) == plan
        if duals is not None:
            # written back: both rows ship to column 0, so their pairs
            # there price it alike, and row 0's unused pair to column 1
            # costs no less than row 1's
            assert duals[0] + 1 == duals[1] + 3
            assert duals[0] + 9 >= duals[1] + 3


def _lp_optimum(supplies, demands, cost_rows):
    """The transportation LP's optimum, integral by total unimodularity."""
    m, n = len(supplies), len(demands)
    rows = np.zeros((m + n, m * n))
    for a in range(m):
        for b in range(n):
            rows[a, a * n + b] = rows[m + b, a * n + b] = 1
    res = linprog(
        np.ravel(cost_rows),
        A_eq=rows,
        b_eq=[*supplies, *demands],
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return round(res.fun)


@st.composite
def _transports(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    supplies = draw(st.lists(st.integers(0, 6), min_size=m, max_size=m))
    total = sum(supplies)
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    demands = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    cost_rows = draw(
        st.lists(st.lists(st.integers(0, 9), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    duals = draw(st.none() | st.lists(st.integers(-20, 20), min_size=m, max_size=m))
    return supplies, demands, cost_rows, duals


@settings(deadline=None, max_examples=200)
@given(case=_transports())
# in the second phase column 0 is labelled 2 but not settled when the
# sink is, at 1; raising its potential by that label instead of the
# sink's distance leaves pair (0, 0), which carries flow, at reduced
# cost -1, and the next Dijkstra then pops a distance below the last
@example(case=([1, 2], [2, 1], [[0, 0], [2, 1]], None))
def test_transport_matches_the_lp(case):
    # cost ties, zero supplies and demands and any start duals all occur
    supplies, demands, cost_rows, duals = case
    start = None if duals is None else list(duals)
    cost, flows = transport(supplies, demands, cost_rows, duals)
    assert transport(supplies, demands, cost_rows, start) == (cost, flows)
    assert cost == _lp_optimum(supplies, demands, cost_rows)
    assert cost == sum(cost_rows[a][b] * f for (a, b), f in flows.items())
    assert all(f > 0 for f in flows.values())
    assert list(flows) == sorted(flows)
    for a, s in enumerate(supplies):
        assert sum(f for (i, _), f in flows.items() if i == a) == s
    for b, d in enumerate(demands):
        assert sum(f for (_, j), f in flows.items() if j == b) == d


# the example above with the fault its comment names, patched into the
# kernel: each labelled node is raised by its label, not by min(label,
# sink distance)
_BROKEN_RAISE = """
import inspect, textwrap
from stochmatch import flows
source = textwrap.dedent(inspect.getsource(flows.MinCostFlow._raise_potentials))
capped = "(d if d < sink_d else sink_d)"
assert source.count(capped) == 2, "the potential raise changed; re-target this fault"
namespace = dict(vars(flows))
exec(source.replace(capped, "(d if d < _INF else sink_d)"), namespace)
flows.MinCostFlow._raise_potentials = namespace["_raise_potentials"]
flows.transport([1, 2], [2, 1], [[0, 0], [2, 1]])
"""


def test_a_broken_reduced_cost_invariant_raises_instead_of_spinning():
    # with a pair that carries flow at negative reduced cost, Dijkstra pops
    # a smaller distance after a larger one; the solve must stop there,
    # not loop forever (run apart, so a hang fails the test, not the suite)
    package_root = str(Path(flows.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _BROKEN_RAISE],
            capture_output=True,
            text=True,
            timeout=20,
            env=dict(os.environ, PYTHONPATH=path),
        )
    except subprocess.TimeoutExpired:
        pytest.fail("transport ran on for 20 s after its reduced-cost invariant broke")
    assert proc.returncode != 0
    assert "RuntimeError: Dijkstra popped" in proc.stderr, proc.stderr[-2000:]


def _arc_lp_optimum(supplies, demands, cost_rows):
    """The arc LP on the graph a transport stands for: source -> rows ->
    columns -> sink, source arcs capped by supply, sink arcs by demand,
    pairs uncapped, and every unit sent from the source to the sink."""
    m, n = len(supplies), len(demands)
    source, sink, total = 0, m + n + 1, sum(supplies)
    arcs = [(source, 1 + a, s, 0) for a, s in enumerate(supplies)]
    arcs += [
        (1 + a, 1 + m + b, None, c) for a, row in enumerate(cost_rows) for b, c in enumerate(row)
    ]
    arcs += [(1 + m + b, sink, d, 0) for b, d in enumerate(demands)]
    balance = np.zeros((m + n + 2, len(arcs)))
    for j, (u, v, _, _) in enumerate(arcs):
        balance[u, j] += 1
        balance[v, j] -= 1
    b_eq = np.zeros(m + n + 2)
    b_eq[source], b_eq[sink] = total, -total
    res = linprog(
        [cost for _, _, _, cost in arcs],
        A_eq=balance,
        b_eq=b_eq,
        bounds=[(0, cap) for _, _, cap, _ in arcs],
        method="highs",
    )
    assert res.status == 0
    return round(res.fun)


@settings(deadline=None, max_examples=100)
@given(case=_transports())
def test_general_graphs_match_the_arc_lp(case):
    # the kernel on the table against the node-arc LP of the graph it
    # stands for (totally unimodular, so integral); its final potentials
    # certify the plan: no pair has negative reduced cost, and every pair
    # that carries flow has reduced cost zero
    supplies, demands, cost_rows, duals = case
    kernel = MinCostFlow(supplies, demands, cost_rows, duals)
    units, cost = kernel.min_cost_flow()
    assert (units, cost) == (sum(supplies), _arc_lp_optimum(supplies, demands, cost_rows))
    for a, row in enumerate(cost_rows):
        for b, c in enumerate(row):
            reduced = c + kernel.row_p[a] - kernel.col_p[b]
            assert reduced >= 0
            assert reduced == 0 or (a, b) not in kernel.flows


def _pinned_corpus(seed, count, low, high):
    """count seeded transports, m and n from low to high, half of them warm.

    Costs run from 0-1 (ties everywhere) to 0-10^6; some supplies are 0,
    and with low = 0 the edge shapes m = 0, m = 1, n = 1 and a zero total
    all occur.  Every tenth case prices its pairs with numpy integers.
    """
    rng = random.Random(seed)
    for i in range(count):
        m, n = rng.randint(low, high), rng.randint(max(low, 1), high)
        top = rng.choice((1, 2, 9, 100, 10**6))
        supplies = [rng.choice((0, rng.randint(1, 20))) for _ in range(m)]
        total = sum(supplies)
        cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
        demands = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        cost_rows = [[rng.randint(0, top) for _ in range(n)] for _ in range(m)]
        if i % 10 == 9 and m:
            cost_rows = np.array(cost_rows, dtype=np.int64)
        duals = [rng.randint(-3 * top, 3 * top) for _ in range(m)] if i % 2 else None
        yield supplies, demands, cost_rows, duals


def _kernel_digest(corpus):
    digest = hashlib.sha256()
    for supplies, demands, cost_rows, duals in corpus:
        cost, flows = transport(supplies, demands, cost_rows, duals)
        record = (
            int(cost),
            [(a, b, int(f)) for (a, b), f in flows.items()],
            None if duals is None else [int(u) for u in duals],
        )
        digest.update(repr(record).encode())
    return digest.hexdigest()


def test_kernel_outputs_are_pinned():
    # (cost, flows, written-back duals) of every corpus transport: a
    # change to the kernel's search that moves any plan or dual, even to
    # another optimal one, breaks a digest and moves per-seed streams.
    # The first corpus holds the small and edge shapes, the second the
    # shapes of the per-arrival matrix solves.
    assert _kernel_digest(_pinned_corpus(2019, 3000, 0, 12)) == (
        "16f42e416e9eda05b675dc1cbba5cd11e500b249b1be98c20a0982de6d5d3b79"
    )
    assert _kernel_digest(_pinned_corpus(2020, 200, 13, 48)) == (
        "932896f29e7de3f1f2ded28b4265652fa23905296236715b72ff96cf8c17da46"
    )
