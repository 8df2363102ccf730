"""The fair-bias server draw on trees: a backward walk on the optimal flow.

The exact-law test drives the real ``step`` with a scripted generator and
enumerates every randrange outcome, so the implied plan x is computed in
Fractions and checked against the edge flow and the tree optimum, both
derived here from the tree alone.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmatch.bmatching import free_below, solve_min_cost, tree_plan
from stochmatch.fairbias import (
    OnlineState,
    PlanProvider,
    init_state,
    run_episode,
    step,
)
from stochmatch.harness import random_metric, verify_structure_lemma
from stochmatch.metrics import (
    WeightedTree,
    frt_embed,
    line_metric,
    random_recursive_tree,
    tree_from_host_edges,
    tree_metric,
)


class Script:
    """Stands in for random.Random: replays chosen randrange values, then 0."""

    def __init__(self, values):
        self.values = list(values)
        self.totals = []

    def randrange(self, total):
        i = len(self.totals)
        self.totals.append(total)
        return self.values[i] if i < len(self.values) else 0


class Flow:
    """The optimal reduced flow of one free set, from the tree alone."""

    def __init__(self, tree, free, n):
        k = len(free)
        parent, order = tree.parent, tree.order
        free_pts = [0] * tree.num_nodes
        points = [0] * tree.num_nodes
        for x in reversed(order):
            p = tree.node_point[x]
            if p >= 0:
                points[x] += 1
                free_pts[x] += p in free
            if parent[x] >= 0:
                points[parent[x]] += points[x]
                free_pts[parent[x]] += free_pts[x]
        self.parent = parent
        self.up = [n * free_pts[x] - k * points[x] for x in range(tree.num_nodes)]
        self.leaf = tree.leaf_for_point

    def into(self, x):
        """Arcs carrying flow into node x, as {from node: units}."""
        arcs = {c: f for c, f in enumerate(self.up) if self.parent[c] == x and f > 0}
        if self.parent[x] >= 0 and self.up[x] < 0:
            arcs[self.parent[x]] = -self.up[x]
        return arcs

    def path(self, p, q):
        """Nodes from point p's leaf to point q's leaf."""
        up_p = [self.leaf[p]]
        while self.parent[up_p[-1]] >= 0:
            up_p.append(self.parent[up_p[-1]])
        up_q = [self.leaf[q]]
        while up_q[-1] not in up_p:
            up_q.append(self.parent[up_q[-1]])
        return up_p[: up_p.index(up_q[-1])] + up_q[::-1]


def _fresh_state(instance, free, hand_set):
    """A state holding ``free``: set by hand, or reached by removals."""
    if hand_set:
        return OnlineState(set(free))
    state = init_state(instance.n)
    tree = instance.tree
    state.below(tree)  # counts first, so the removals below must keep them
    provider = PlanProvider(instance)
    for p in range(instance.n):
        if p not in free:
            step(provider, state, p, None)  # a self-match: no draw
    assert state.below(tree) == free_below(tree, free)
    return state


def walk_law(instance, free, request, hand_set):
    """Exact {server: probability} of ``step`` for an arrival at ``request``."""
    provider = PlanProvider(instance)
    flow = Flow(instance.tree, free, instance.n)

    def run(values):
        script = Script(values)
        state = _fresh_state(instance, free, hand_set)
        server, _ = step(provider, state, request, script)
        assert server in free and server not in state.free_set
        path = flow.path(request, server)
        for x, y in zip(path, path[1:]):
            assert y in flow.into(x), "the walk left the flow"
        branches = [x for x in path[:-1] if len(flow.into(x)) > 1]
        assert script.totals == [sum(flow.into(x).values()) for x in branches]
        return server, path, branches

    law: dict[int, Fraction] = {}

    def explore(prefix, prob):
        server, _, branches = run(prefix)
        if len(prefix) == len(branches):
            law[server] = law.get(server, Fraction(0)) + prob
            return
        x = branches[len(prefix)]
        arcs = flow.into(x)
        picks: dict[int, list[int]] = {}
        for v in range(sum(arcs.values())):
            _, path, _ = run(prefix + [v])
            picks.setdefault(path[path.index(x) + 1], []).append(v)
        # each arc is picked by as many of the draw's values as it carries units
        assert {y: len(vs) for y, vs in picks.items()} == arcs
        for y, vs in picks.items():
            explore(prefix + [vs[0]], prob * Fraction(arcs[y], sum(arcs.values())))

    explore([], Fraction(1))
    return law


def check_implied_plan(instance, free, hand_set=False):
    n, k = instance.n, len(free)
    units = {}  # (s, r) -> units of the n*k-scaled plan
    for r in range(n):
        if r in free:
            units[(r, r)] = k
            continue
        law = walk_law(instance, free, r, hand_set)
        assert sum(law.values()) == 1
        for s, pr in law.items():
            units[(s, r)] = k * pr
    for r in range(n):
        assert sum(u for (_, c), u in units.items() if c == r) == k
    for s in free:
        assert sum(u for (a, c), u in units.items() if a == s and c != s) == n - k
    cost = sum(u * instance.matrix[s][r] for (s, r), u in units.items())
    assert cost == tree_plan(instance.tree, dict.fromkeys(free, 1), k, n)
    assert Fraction(cost, n * k) == solve_min_cost(instance, sorted(free)).value


@st.composite
def tree_case(draw):
    kind = draw(st.sampled_from(["recursive", "hosts", "line", "frt"]))
    n = draw(st.integers(2, 9))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if kind == "recursive":
        instance = tree_metric(random_recursive_tree(n, rng, max_len=5))
    elif kind == "hosts":
        # any lengths, zero included, and Steiner hosts past the n points
        hosts = n + draw(st.integers(0, 3))
        edges = [(rng.randrange(i), i, rng.randint(0, 3)) for i in range(1, hosts)]
        instance = tree_metric(tree_from_host_edges(n, edges))
    elif kind == "line":
        instance = line_metric(n, draw(st.integers(0, 3)))
    else:
        instance = tree_metric(frt_embed(random_metric(n, rng, max_d=9), rng))
    free = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return instance, free, draw(st.booleans())


@settings(deadline=None, max_examples=60)
@given(case=tree_case())
def test_walk_law_is_an_optimal_plan(case):
    instance, free, hand_set = case
    check_implied_plan(instance, free, hand_set)


@pytest.mark.parametrize("hand_set", [True, False])
def test_request_at_a_root_leaf(hand_set):
    # host 0 has degree 1, so point 0 sits on the root itself
    instance = line_metric(5)
    assert instance.tree.leaf_for_point[0] == 0
    check_implied_plan(instance, {2, 4}, hand_set)
    tree = tree_from_host_edges(4, [(0, 1, 2), (1, 2, 0), (1, 3, 5)])
    check_implied_plan(tree_metric(tree), {3}, hand_set)


def test_zero_length_pendants_and_steiner_nodes():
    tree = tree_from_host_edges(4, [(4, 0, 1), (4, 1, 0), (4, 5, 2), (5, 2, 3), (5, 3, 1)])
    for free in ({0}, {1, 2}, {0, 3}, {2, 3, 1}):
        check_implied_plan(tree_metric(tree), free)
    frt = tree_metric(frt_embed(random_metric(6, random.Random(4)), random.Random(5)))
    assert frt.tree.num_nodes > frt.tree.n_points
    for free in ({0}, {1, 3, 5}, {0, 1, 2, 3, 4}):
        check_implied_plan(frt, free)


def test_hand_set_free_set_matches_line_four():
    # the case of test_uniform_column_on_line_four, in exact numbers
    law = walk_law(line_metric(4), {0, 2, 3}, 1, hand_set=True)
    assert law == {0: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)}


def test_walk_makes_no_plan(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a tree episode built a plan")

    # imbalance_cost is the closed form behind every tree plan value, so a
    # plan is caught however it is reached (fairbias.tree_plan has no caller)
    monkeypatch.setattr(WeightedTree, "imbalance_cost", forbidden)
    monkeypatch.setattr(PlanProvider, "columns", forbidden)
    instance = tree_metric(random_recursive_tree(30, random.Random(2)))
    stream = [random.Random(9).randrange(30) for _ in range(30)]
    result = run_episode(PlanProvider(instance), stream, random.Random(1))
    assert sorted(s for _, s in result.assignments) == list(range(30))


def test_free_sets_are_uniform_on_trees():
    for instance in (
        line_metric(5),
        tree_metric(random_recursive_tree(5, random.Random(65))),
    ):
        report = verify_structure_lemma(instance, 40_000, seed=71)
        assert report.ok, [(row.k, row.pvalue) for row in report.rows]
