from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmatch import bmatching
from stochmatch.bmatching import canonical_plan
from stochmatch.fairbias import (
    MaxWeightProvider,
    OnlineState,
    PlanProvider,
    init_state,
    run_episode,
    step,
)
from stochmatch.metrics import (
    line_metric,
    matrix_metric,
    matrix_unchecked,
    random_metric,
    random_recursive_tree,
    tree_metric,
    uniform_metric,
)


def _episode(instance, stream, seed):
    return run_episode(PlanProvider(instance), stream, random.Random(seed))


def _max_weight(weights, location_weights, stream, seed):
    provider = MaxWeightProvider(weights, location_weights)
    return run_episode(provider, stream, random.Random(seed))


def _assert_episode_shape(instance, stream, result):
    n = instance.n
    assert [r for r, _ in result.assignments] == list(stream)
    used = [s for _, s in result.assignments]
    assert sorted(used) == list(range(n))
    for (r, s), c in zip(result.assignments, result.step_costs):
        assert c == instance.matrix[s][r]
    assert result.total_cost == sum(result.step_costs)


class TestDeterministicCases:
    def test_self_matches_are_free(self):
        inst = line_metric(2, spacing=5)
        res = _episode(inst, [0, 1], 0)
        assert res.step_costs == [0, 0]
        assert res.assignments == [(0, 0), (1, 1)]

    def test_repeat_forces_the_far_server(self):
        inst = line_metric(2, spacing=5)
        for seed in range(10):
            res = _episode(inst, [0, 0], seed)
            assert res.step_costs == [0, 5]
            assert res.assignments == [(0, 0), (0, 1)]

    def test_single_point(self):
        res = _episode(line_metric(1), [0], 3)
        assert res.total_cost == 0
        assert res.assignments == [(0, 0)]

    def test_unique_optimum_pins_the_server(self):
        # free {0, 1}, request at 2: server 0 is ten times closer, so
        # the whole plan column sits on it
        inst = matrix_metric(
            [
                [0, 10, 1, 10],
                [10, 0, 10, 1],
                [1, 10, 0, 10],
                [10, 1, 10, 0],
            ]
        )
        provider = PlanProvider(inst)
        for seed in range(20):
            state = OnlineState({0, 1})
            server, cost = step(provider, state, 2, random.Random(seed))
            assert (server, cost) == (0, 1)


class TestSamplingLaw:
    def test_forced_split_is_half_half(self):
        # after a self-match at the middle of a 3-line, the repeat must
        # go to each end point with probability 1/2
        inst = line_metric(3)
        trials = 2000
        hits = 0
        for t in range(trials):
            res = _episode(inst, [1, 1, 1], t)
            if res.assignments[1][1] == 0:
                hits += 1
        freq = hits / trials
        sigma = (0.25 / trials) ** 0.5
        assert abs(freq - 0.5) <= 3 * sigma

    def test_uniform_column_on_line_four(self):
        # free {0, 2, 3} and a request at 1: every free server holds an
        # equal share, confirmed against the canonical plan
        inst = line_metric(4)
        free = (0, 2, 3)
        plan = canonical_plan(inst, list(free))
        x = plan.entry_map()
        expected = {s: 4 * x.get((s, 1), Fraction(0)) for s in free}
        assert expected == {0: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)}

        provider = PlanProvider(inst)
        trials = 3000
        seen = Counter()
        for t in range(trials):
            state = OnlineState(set(free))
            server, _ = step(provider, state, 1, random.Random(t))
            seen[server] += 1
        for s in free:
            freq = seen[s] / trials
            p = float(expected[s])
            sigma = (p * (1 - p) / trials) ** 0.5
            assert abs(freq - p) <= 3 * sigma


class TestProviders:
    def test_cache_does_not_change_episodes(self):
        # one shared memo against a fresh provider per episode, which never
        # sees a free set twice
        inst = random_metric(5, random.Random(8))
        hot = PlanProvider(inst)
        fresh = []
        for seed in range(15):
            stream = [random.Random(seed ^ 0xA5).randrange(5) for _ in range(5)]
            cold = PlanProvider(inst)
            fresh.append(cold)
            a = run_episode(hot, stream, random.Random(seed))
            b = run_episode(cold, stream, random.Random(seed))
            assert a.assignments == b.assignments
            assert a.total_cost == b.total_cost
        # the shared memo served hits: fewer plans than the fresh ones solved
        assert len(hot._memo) < sum(len(p._memo) for p in fresh)

    def test_memo_stays_bounded(self, monkeypatch):
        # at the largest memoized size the memo holds one plan per free
        # set it has seen, each solved once: at most 2^12 - 1 plans
        n = 12
        provider = PlanProvider(random_metric(n, random.Random(8)))
        builds = []
        build = provider._build

        def spy(free, duals):
            builds.append(free)
            return build(free, duals)

        monkeypatch.setattr(provider, "_build", spy)
        for seed in range(30):
            stream = [random.Random(seed ^ 0xA5).randrange(n) for _ in range(n)]
            run_episode(provider, stream, random.Random(seed))
        assert len(builds) == len(set(builds)) == len(provider._memo)
        assert all(set(free) <= set(range(n)) for free in provider._memo)
        assert len(provider._memo) < 2**n

    def test_memo_follows_instance_size(self):
        assert PlanProvider(uniform_metric(12))._memo is not None
        assert PlanProvider(uniform_metric(13))._memo is None
        # trees walk their flow and keep no plans at any size
        assert PlanProvider(line_metric(5))._memo is None
        w = [[1] * 12 for _ in range(12)]
        assert MaxWeightProvider(w, [1] * 12)._memo is not None
        w = [[1] * 13 for _ in range(13)]
        assert MaxWeightProvider(w, [1] * 13)._memo is None

    @pytest.mark.parametrize("weights", [[[1, 2], [3]], [[1, 2, 3], [3, 4, 5]], []])
    def test_non_square_weights_rejected(self, weights):
        # a ragged table raised IndexError
        with pytest.raises(ValueError, match="non-empty square table"):
            MaxWeightProvider(weights, [1, 1])

    @pytest.mark.parametrize(
        "loc_w, match",
        [([1], "one weight per"), ([0.5, 0.5], "integers"),
         ([1, -1], ">= 0"), ([0, 0], "positive total")],
    )
    def test_location_weights_checked_up_front(self, loc_w, match):
        # [1] raised IndexError at the first arrival at point 1, and
        # [0.5, 0.5] a TypeError from Fraction at the first solve
        with pytest.raises(ValueError, match=match):
            MaxWeightProvider([[1, 2], [3, 4]], loc_w)

    def test_tree_and_matrix_backings_agree_on_cost_law(self):
        # same metric with and without the tree backing; episode totals
        # may differ per seed (different tie-breaks) but both must be
        # perfect matchings with honest bookkeeping
        tree = random_recursive_tree(6, random.Random(21), max_len=7)
        with_tree = tree_metric(tree)
        bare = matrix_metric([row[:] for row in with_tree.matrix])
        for seed in range(10):
            stream = [random.Random(200 + seed).randrange(6) for _ in range(6)]
            _assert_episode_shape(with_tree, stream, _episode(with_tree, stream, seed))
            _assert_episode_shape(bare, stream, _episode(bare, stream, seed))

    def test_same_seed_same_episode(self):
        inst = tree_metric(random_recursive_tree(7, random.Random(3)))
        stream = [0, 3, 3, 1, 6, 2, 0]
        a = _episode(inst, stream, 99)
        b = _episode(inst, stream, 99)
        assert a.assignments == b.assignments and a.step_costs == b.step_costs

    def test_unchecked_needs_opt_in(self):
        inst = matrix_unchecked([[0, 1], [1, 0]])
        provider = PlanProvider(inst)
        res = run_episode(provider, [0, 1], random.Random(0))
        _assert_episode_shape(inst, [0, 1], res)


class TestValidation:
    def test_stream_length(self):
        with pytest.raises(ValueError, match="exactly n=3"):
            _episode(line_metric(3), [0, 1], 0)

    def test_stream_range(self):
        with pytest.raises(ValueError, match="outside"):
            _episode(line_metric(3), [0, 1, 5], 0)

    @pytest.mark.parametrize("instance", [line_metric(3), uniform_metric(3)])
    def test_stream_of_non_integers_rejected_by_name(self, instance):
        # on a tree the walk would fail on a bare KeyError, on a matrix
        # on a TypeError; numpy integers are points like any other
        with pytest.raises(ValueError, match="^request location 1.5 is not an integer$"):
            _episode(instance, [0, 1.5, 2], 0)
        stream = [np.int64(2), np.int64(0), np.int64(1)]
        assert len(_episode(instance, stream, 0).assignments) == 3

    def test_step_with_no_free_servers(self):
        inst = line_metric(2)
        provider = PlanProvider(inst)
        state = init_state(2)
        rng = random.Random(0)
        step(provider, state, 0, rng)
        step(provider, state, 0, rng)
        with pytest.raises(ValueError, match="no free servers"):
            step(provider, state, 0, rng)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_episode_invariants_property(data):
    n = data.draw(st.integers(2, 6))
    tree_seed = data.draw(st.integers(0, 500))
    inst = tree_metric(random_recursive_tree(n, random.Random(tree_seed), max_len=6))
    stream = data.draw(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    )
    seed = data.draw(st.integers(0, 10**6))
    _assert_episode_shape(inst, stream, _episode(inst, stream, seed))


class TestMaxWeight:
    def test_diagonal_weights_lock_in(self):
        for seed in range(10):
            res = _max_weight([[3, 1], [2, 4]], [1, 1], [0, 1], seed)
            assert res.total_cost == 7
            assert res.assignments == [(0, 0), (1, 1)]

    def test_gain_bookkeeping(self):
        rng = random.Random(17)
        for _ in range(15):
            n = rng.randint(2, 5)
            weights = [[rng.randint(0, 8) for _ in range(n)] for _ in range(n)]
            loc_w = [rng.randint(1, 3) for _ in range(n)]
            stream = [rng.randrange(n) for _ in range(n)]
            res = _max_weight(weights, loc_w, stream, rng.randrange(10**6))
            used = sorted(s for _, s in res.assignments)
            assert used == list(range(n))
            for (r, s), g in zip(res.assignments, res.step_costs):
                assert g == weights[s][r]
            assert res.total_cost == sum(res.step_costs)

    def test_zero_probability_arrival_rejected(self):
        with pytest.raises(ValueError, match="zero-probability"):
            _max_weight([[1, 1], [1, 1]], [1, 0], [1, 1], 0)

    def test_shared_provider_is_consistent(self):
        weights = [[2, 5, 1], [4, 2, 2], [1, 3, 6]]
        provider = MaxWeightProvider(weights, [1, 2, 1])
        baseline = _max_weight(weights, [1, 2, 1], [1, 1, 2], 5)
        shared = run_episode(provider, [1, 1, 2], random.Random(5))
        assert shared.assignments == baseline.assignments

    def test_stream_length(self):
        with pytest.raises(ValueError, match="exactly"):
            _max_weight([[1, 1], [1, 1]], [1, 1], [0], 0)

    @pytest.mark.parametrize("n", [8, 14])  # memoized, and warm-started
    def test_a_constant_on_every_gain_leaves_episodes_unchanged(self, n):
        rng = random.Random(n)
        gains = [[rng.randint(0, 30) for _ in range(n)] for _ in range(n)]
        loc_w = [rng.randint(1, 4) for _ in range(n)]
        for c in (-5, 11):
            raised = [[g + c for g in row] for row in gains]
            for seed in range(3):
                stream = random.Random(seed).choices(range(n), weights=loc_w, k=n)
                base = _max_weight(gains, loc_w, stream, seed)
                moved = _max_weight(raised, loc_w, stream, seed)
                assert moved.assignments == base.assignments
                assert moved.total_cost == base.total_cost + n * c


def test_episodes_build_no_fraction(monkeypatch):
    # plan columns are read in integer units from the solver cores; the
    # unchecked and max-weight providers went through Fraction entries
    def no_fraction(*args):
        raise AssertionError("Fraction built on the per-arrival path")

    monkeypatch.setattr(bmatching, "Fraction", no_fraction)
    checked = random_metric(6, random.Random(4))
    unchecked = matrix_unchecked([[0, 5, 1], [1, 0, 1], [2, 1, 0]])
    providers = [
        PlanProvider(checked),
        PlanProvider(unchecked),
        MaxWeightProvider([[2, 5, 1], [4, 2, 2], [1, 3, 6]], [1, 2, 1]),
    ]
    for provider in providers:
        n = provider.n
        for seed in range(5):
            rng = random.Random(seed)
            stream = [rng.randrange(n) for _ in range(n)]
            res = run_episode(provider, stream, rng)
            assert sorted(s for _, s in res.assignments) == list(range(n))


def test_uniform_metric_episode_cost_is_mismatch_count():
    inst = uniform_metric(4, c=3)
    for seed in range(8):
        stream = [random.Random(seed).randrange(4) for _ in range(4)]
        res = _episode(inst, stream, seed)
        mismatches = sum(1 for r, s in res.assignments if r != s)
        assert res.total_cost == 3 * mismatches
