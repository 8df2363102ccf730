"""Warm-started plan solves: providers without a memo carry the last
solve's row potentials to the next arrival's solve.  Every warm plan
must be exact and optimal, and the episodes keep their distribution and
their determinism."""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from stochmatch import fairbias
from stochmatch.bmatching import (
    canonical_plan,
    gain_costs,
    solve_max_weight,
    solve_min_cost,
)
from stochmatch.fairbias import MaxWeightProvider, PlanProvider, run_episode
from stochmatch.metrics import gen_nonmetric_instance, random_metric, uniform_metric
from stochmatch.verify import verify_cost_decomposition, verify_structure_lemma


def _warm_calls(monkeypatch, core):
    """Record every call of fairbias.<core> given duals: its counts, its
    result and a copy of the duals it wrote back."""
    calls = []
    real = getattr(fairbias, core)

    def spy(*args):
        result = real(*args)
        if args[-1] is not None:
            calls.append((args[1], result, list(args[-1])))
        return result

    monkeypatch.setattr(fairbias, core, spy)
    return calls


def _check_plan(triples, row_units, col_units, cost, price):
    """Exact marginals, positive units, and cost = sum of price * units."""
    rows, cols = Counter(), Counter()
    for s, r, u in triples:
        assert u > 0
        rows[s] += u
        cols[r] += u
    assert rows == row_units
    assert cols == col_units
    assert cost == sum(price(s, r) * u for s, r, u in triples)


def _check_feasible(duals, rows, cols, price, triples):
    """The written-back row potentials are optimal duals: with every
    column at the min rule, v_j = min_i(price(i, j) + duals[i]), every
    arc that carries flow has zero reduced cost."""
    v = {j: min(price(i, j) + duals[i] for i in rows) for j in cols}
    assert all(price(s, r) + duals[s] == v[r] for s, r, _ in triples)


def _episodes(provider, count, rng, weights=None):
    n = provider.n
    for _ in range(count):
        stream = rng.choices(range(n), weights=weights, k=n)
        run_episode(provider, stream, rng)


@pytest.mark.parametrize("n", [16, 21, 24, 33, 40])
def test_warm_canonical_plans_are_exact_and_optimal(monkeypatch, n):
    calls = _warm_calls(monkeypatch, "_canonical_units")
    rng = random.Random(n)
    instance = random_metric(n, rng)
    matrix = instance.matrix
    _episodes(PlanProvider(instance), 3, rng)
    assert calls
    for counts, (cost, triples), duals in calls:
        free = sorted(counts)
        k = len(free)
        taken = [j for j in range(n) if j not in counts]
        _check_plan(
            triples,
            Counter(dict.fromkeys(free, n - k)),
            Counter(dict.fromkeys(taken, k)),
            cost,
            lambda s, r: matrix[s][r],
        )
        assert Fraction(cost, n * k) == canonical_plan(instance, free).value
        _check_feasible(duals, free, taken, lambda i, j: matrix[i][j], triples)


def test_warm_unchecked_plans_are_exact_and_optimal(monkeypatch):
    calls = _warm_calls(monkeypatch, "_units")
    rng = random.Random(22)
    instance = gen_nonmetric_instance(22)
    matrix = instance.matrix
    n = instance.n
    _episodes(PlanProvider(instance), 3, rng)
    assert len(calls) == 3 * n
    for counts, (cost, triples), duals in calls:
        free = sorted(counts)
        k = len(free)
        _check_feasible(duals, free, range(n), lambda i, j: matrix[i][j], triples)
        _check_plan(
            triples,
            Counter(dict.fromkeys(free, n)),
            Counter(dict.fromkeys(range(n), k)),
            cost,
            lambda s, r: matrix[s][r],
        )
        assert Fraction(cost, n * k) == solve_min_cost(instance, free).value


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_warm_max_weight_plans_are_exact_and_optimal(monkeypatch, n):
    calls = _warm_calls(monkeypatch, "_units")
    rng = random.Random(100 + n)
    gains = [[rng.randint(0, 40) for _ in range(n)] for _ in range(n)]
    location_weights = [2**i for i in range(n)]
    total = sum(location_weights)
    _episodes(MaxWeightProvider(gains, location_weights), 2, rng, location_weights)
    assert len(calls) == 2 * n
    # every solve is a min-cost plan of the one table S - gain
    shift, costs = gain_costs(gains)
    for counts, (cost, triples), duals in calls:
        free = sorted(counts)
        k = len(free)
        _check_feasible(duals, free, range(n), lambda i, j: costs[i][j], triples)
        _check_plan(
            triples,
            Counter(dict.fromkeys(free, total)),
            Counter({j: k * w for j, w in enumerate(location_weights)}),
            cost,
            lambda s, r: shift - gains[s][r],
        )
        value = shift - Fraction(cost, k * total)
        assert value == solve_max_weight(gains, free, location_weights).value


def test_warm_solves_skip_the_memo_and_cold_solves_fill_it(monkeypatch):
    # providers that memoize keep solving cold, so the memo is history-free
    warm = _warm_calls(monkeypatch, "_canonical_units")
    rng = random.Random(3)
    small = PlanProvider(random_metric(8, rng))
    _episodes(small, 3, rng)
    assert warm == [] and small._memo
    monkeypatch.setattr(PlanProvider, "memo_max_n", 0)
    unmemoized = PlanProvider(small._instance)
    _episodes(unmemoized, 3, rng)
    assert warm and unmemoized._memo is None


def test_free_sets_stay_uniform_on_the_warm_route(monkeypatch):
    monkeypatch.setattr(PlanProvider, "memo_max_n", 0)
    calls = _warm_calls(monkeypatch, "_canonical_units")
    report = verify_structure_lemma(uniform_metric(6), 5_000, seed=7)
    assert calls
    assert report.ok, [(row.k, row.pvalue) for row in report.rows]


def test_cost_decomposition_holds_on_the_warm_route(monkeypatch):
    monkeypatch.setattr(PlanProvider, "memo_max_n", 0)
    calls = _warm_calls(monkeypatch, "_canonical_units")
    instance = random_metric(6, random.Random(1234))
    report = verify_cost_decomposition(instance, trials=300, seed=2)
    assert calls
    assert report.ok


def test_shared_provider_gives_the_episodes_of_fresh_ones():
    # duals live in each episode's state, so no episode sees another's
    instance = random_metric(24, random.Random(5))
    shared = PlanProvider(instance)
    for seed in range(4):
        stream = [random.Random(seed ^ 0x5A).randrange(24) for _ in range(24)]
        a = run_episode(shared, stream, random.Random(seed))
        b = run_episode(PlanProvider(instance), stream, random.Random(seed))
        assert a == b
