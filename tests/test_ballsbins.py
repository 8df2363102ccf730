from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmatch.ballsbins import (
    estimate_Nk,
    estimate_Nk_multi,
    monotone_indicator_comparison,
    poisson_loads,
    poisson_sample,
    sample_loads,
)


class TestSampleLoads:
    def test_conserves_balls(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(1, 40)
            assert sum(sample_loads(n, rng)) == n

    def test_single_bin_takes_everything(self):
        assert sample_loads(1, random.Random(0)) == [1]

    def test_two_balls_two_bins_distribution(self):
        # outcomes (2,0), (1,1), (0,2) arrive with probs 1/4, 1/2, 1/4
        rng = random.Random(11)
        trials = 20000
        hits = sum(1 for _ in range(trials) if sample_loads(2, rng) == [2, 0])
        freq = hits / trials
        sigma = (0.25 * 0.75 / trials) ** 0.5
        assert abs(freq - 0.25) <= 3 * sigma

    def test_first_bin_mean_is_binomial(self):
        # the first bin's load is Binomial(n, 1/n), mean 1
        rng = random.Random(3)
        trials = 20000
        total = sum(sample_loads(8, rng)[0] for _ in range(trials))
        mean = total / trials
        sigma = math.sqrt(8 * 0.125 * 0.875 / trials)
        assert abs(mean - 1.0) <= 3 * sigma

    @pytest.mark.parametrize(
        "n, seed", [(1, 0), (2, 1), (7, 2), (1000, 3), (70_000, 4)]
    )
    def test_is_one_randrange_per_ball(self, n, seed):
        # 70_000 balls are more than 2^16, in one randbelow call
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            want = [0] * n
            for _ in range(n):
                want[ref.randrange(n)] += 1
            assert sample_loads(n, rng) == want
            assert rng.getstate() == ref.getstate()

    def test_validation(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            sample_loads(0, random.Random(0))


class TestTopK:
    def test_k_range_checked(self):
        rng = random.Random(5)
        before = rng.getstate()
        for bad, message in ((0, "^k must be >= 1$"), (4, "^k=4 out of range for 3 bins$")):
            with pytest.raises(ValueError, match=message):
                estimate_Nk(3, bad, 10, rng)
        assert rng.getstate() == before

    @settings(deadline=None, max_examples=60)
    @given(
        loads=st.lists(st.integers(0, 9), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_one_more_ball_never_lowers_order_stats(self, loads, data):
        k = data.draw(st.integers(1, len(loads)))
        bin_ = data.draw(st.integers(0, len(loads) - 1))
        bumped = list(loads)
        bumped[bin_] += 1
        # the k-th largest load as monotone_indicator_comparison reads it
        assert sorted(bumped)[-k] >= sorted(loads)[-k]


class TestEstimates:
    def test_two_bins_exact_expectation(self):
        # top bin with 2 balls in 2 bins: E = 2*(1/2) + 1*(1/2) = 3/2
        mean, stderr = estimate_Nk(2, 1, 20000, random.Random(21))
        assert stderr > 0
        assert abs(mean - 1.5) <= 3 * stderr

    def test_multi_shares_samples_with_single(self):
        single = estimate_Nk(6, 1, 500, random.Random(9))
        multi = estimate_Nk_multi(6, [1, 3], 500, random.Random(9))
        assert multi[1] == single

    def test_one_trial_has_zero_stderr(self):
        mean, stderr = estimate_Nk(6, 2, 1, random.Random(4))
        assert stderr == 0.0 and mean >= 2

    def test_full_prefix_is_every_ball(self):
        mean, stderr = estimate_Nk(5, 5, 200, random.Random(2))
        assert (mean, stderr) == (5.0, 0.0)

    def test_prefix_increments_shrink(self):
        # successive top-k increments are the k-th largest loads, which
        # can only shrink as k grows
        out = estimate_Nk_multi(6, list(range(1, 7)), 20000, random.Random(5))
        means = [out[k][0] for k in range(1, 7)]
        slack = 3 * max(se for _, se in out.values())
        diffs = [b - a for a, b in zip(means, means[1:])]
        for first, second in zip(diffs, diffs[1:]):
            assert second <= first + 2 * slack

    def test_heavy_tail_beats_twice_k(self):
        mean, _ = estimate_Nk(1000, 10, 300, random.Random(17))
        assert mean >= 2 * 10

    def test_validation(self):
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            estimate_Nk(2, 1, 0, random.Random(0))
        with pytest.raises(ValueError, match="out of range"):
            estimate_Nk_multi(3, [4], 10, random.Random(0))
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            monotone_indicator_comparison(10, 2, 1, 0, random.Random(0))


class TestPoisson:
    def test_unit_mean_zero_probability(self):
        rng = random.Random(31)
        trials = 20000
        zeros = sum(1 for _ in range(trials) if poisson_sample(rng) == 0)
        p = math.exp(-1)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(zeros / trials - p) <= 3 * sigma

    def test_unit_mean_pmf_head(self):
        rng = random.Random(32)
        trials = 40000
        counts = [0] * 5
        for _ in range(trials):
            x = poisson_sample(rng)
            if x < 5:
                counts[x] += 1
        for x in range(5):
            p = math.exp(-1) / math.factorial(x)
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(counts[x] / trials - p) <= 4 * sigma

    def test_loads_shape(self):
        loads = poisson_loads(6, random.Random(1))
        assert len(loads) == 6 and all(x >= 0 for x in loads)
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            poisson_loads(0, random.Random(1))


class TestComparison:
    def test_fixture_satisfies_domination(self):
        report = monotone_indicator_comparison(50, 5, 3, 4000, random.Random(8))
        assert report.ok
        assert 0 < report.fixed_mean < 1
        assert 0 < report.poisson_mean < 1
        assert report.trials == 4000

    def test_draws_are_pinned(self):
        # per trial, one randbelow call of n balls, then n Poisson(1)
        # inversions; a change to either stream moves these counts
        report = monotone_indicator_comparison(50, 5, 3, 400, random.Random(7))
        assert (report.fixed_mean, report.poisson_mean) == (262 / 400, 259 / 400)

    def test_rank_refused_before_any_draw(self):
        # the rank is checked before the first trial's draws
        rng = random.Random(6)
        before = rng.getstate()
        with pytest.raises(ValueError, match="^k=6 out of range for 5 bins$"):
            monotone_indicator_comparison(5, 6, 1, 3, rng)
        assert rng.getstate() == before

    def test_combined_sigma_formula(self):
        report = monotone_indicator_comparison(20, 2, 2, 500, random.Random(3))
        expect = math.sqrt(
            report.fixed_stderr**2 + 4 * report.poisson_stderr**2
        )
        assert report.combined_sigma == pytest.approx(expect)

    def test_degenerate_threshold_everything_under(self):
        # threshold far above any plausible load: both indicators are
        # always 1 and the bound 2*1 holds with room
        report = monotone_indicator_comparison(10, 1, 100, 200, random.Random(4))
        assert report.fixed_mean == 1.0 and report.poisson_mean == 1.0
        assert report.ok
