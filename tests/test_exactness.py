"""Exact optima on every input the public constructors accept."""
from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmatch import flows
from stochmatch.bmatching import canonical_plan, solve_min_cost, tree_plan
from stochmatch.fairbias import PlanProvider
from stochmatch.harness import random_metric
from stochmatch.metrics import (
    line_metric,
    load_metric,
    matrix_unchecked,
    random_recursive_tree,
    tree_from_host_edges,
    tree_metric,
)
from stochmatch.offline import opt_general, opt_max_weight, opt_tree
from stochmatch.splitmatch import split_decomposition
from stochmatch.transship import RequestDistribution


def _assignments(requests):
    # every way to give the requests distinct servers; server s serves r
    return itertools.permutations(range(len(requests)))


@st.composite
def _asymmetric_case(draw, low):
    n = draw(st.integers(1, 5))
    entry = st.integers(low, 30)
    matrix = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    requests = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return matrix, requests


@settings(deadline=None, max_examples=150)
@given(case=_asymmetric_case(0))
def test_opt_general_matches_brute_force_on_unchecked_matrices(case):
    matrix, requests = case
    brute = min(
        sum(matrix[s][r] for r, s in zip(requests, perm))
        for perm in _assignments(requests)
    )
    assert opt_general(matrix_unchecked(matrix), requests) == brute


@settings(deadline=None, max_examples=150)
@given(case=_asymmetric_case(-30))
def test_opt_max_weight_matches_brute_force_on_asymmetric_weights(case):
    weights, requests = case
    brute = max(
        sum(weights[s][r] for r, s in zip(requests, perm))
        for perm in _assignments(requests)
    )
    assert opt_max_weight(weights, requests) == brute


@st.composite
def _tree_case(draw):
    # random host trees with zero-length edges and Steiner hosts, n <= 6
    n = draw(st.integers(1, 6))
    hosts = n + draw(st.integers(0, 2))
    edges = [
        (draw(st.integers(0, i - 1)), i, draw(st.integers(0, 9)))
        for i in range(1, hosts)
    ]
    instance = tree_metric(tree_from_host_edges(n, edges))
    requests = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return instance, requests


@settings(deadline=None, max_examples=150)
@given(case=_tree_case())
def test_opt_tree_matches_brute_force(case):
    instance, requests = case
    brute = min(
        sum(instance.matrix[s][r] for r, s in zip(requests, perm))
        for perm in _assignments(requests)
    )
    assert opt_tree(instance, requests) == brute


@settings(deadline=None, max_examples=150)
@given(case=_tree_case())
def test_tree_plan_value_matches_the_transport_solve(case):
    instance, points = case
    for size in range(1, len(points) + 1):
        free = points[:size]  # a multiset of free servers
        n = instance.n
        value = Fraction(tree_plan(instance.tree, Counter(free), size, n), n * size)
        assert value == solve_min_cost(instance, free).value
        assert value == canonical_plan(instance, free).value


@st.composite
def _canonical_case(draw):
    # checked metrics with n <= 6 and a multiset of free servers
    kind = draw(st.sampled_from(["random", "line", "tree"]))
    if kind == "tree":
        instance, _ = draw(_tree_case())
    elif kind == "line":
        instance = line_metric(draw(st.integers(1, 6)), draw(st.integers(0, 5)))
    else:
        seed = draw(st.integers(0, 2**32))
        instance = random_metric(draw(st.integers(1, 6)), random.Random(seed))
    n = instance.n
    T = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    return instance, T


@settings(deadline=None, max_examples=150)
@given(case=_canonical_case())
def test_canonical_plan_pins_self_mass_and_keeps_the_optimum(case):
    instance, T = case
    n, k = instance.n, len(T)
    m = canonical_plan(instance, T)
    assert m.value == solve_min_cost(instance, T).value
    x = m.entry_map()
    for i in set(T):
        assert x[(i, i)] == min(Fraction(T.count(i), k), Fraction(1, n))
    m.validate()
    # on the set of its points, the plan is the one the sampler draws from:
    # each column lists the off-diagonal entries in n*k units, in order
    free = tuple(sorted(set(T)))
    plan = canonical_plan(instance, free)
    want: dict[int, list] = {}
    for i, j, f in plan.entries:
        if i != j:
            want.setdefault(j, []).append((i, f * n * len(free)))
    columns = PlanProvider(instance).columns(free)
    assert {r: list(flows.column_units(col)) for r, col in columns.items()} == want


def test_negative_entries_rejected(tmp_path):
    with pytest.raises(ValueError, match=">= 0"):
        matrix_unchecked([[0, -1], [2, 0]])
    path = tmp_path / "neg.metric"
    path.write_text("kind matrix\nn 2\nscale 1\n0 3\n-1 0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=">= 0"):
        load_metric(str(path))


def test_max_level_is_recorded_once():
    decomp = split_decomposition(random_recursive_tree(40, random.Random(5)))
    assert decomp.max_level == max(r.level for r in decomp.regions)
    assert decomp.max_level == decomp.top_level


def test_distribution_sample_is_one_inverse_cdf_draw():
    dist = RequestDistribution((0, 3, 1, 0, 4))
    for seed in range(40):
        t = random.Random(seed).randrange(8)
        want = 1 if t < 3 else 2 if t < 4 else 4
        assert dist.sample(random.Random(seed)) == want


@pytest.mark.parametrize("weights", [(1,) * 7, (3,) * 5, (2,)])
def test_flat_distribution_sample_is_the_column_draw(weights):
    dist = RequestDistribution(weights)
    for seed in range(40):
        a, b = random.Random(seed), random.Random(seed)
        assert dist.sample(a) == flows.draw(dist._column, dist.total, b)
        assert a.getstate() == b.getstate()
