from __future__ import annotations

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from stochmatch.fairbias import PlanProvider
from stochmatch.flows import column
from stochmatch.metrics import (
    line_metric,
    matrix_unchecked,
    random_metric,
    uniform_metric,
)
from stochmatch.transship import (
    RequestDistribution,
    geometric_distribution,
    load_distribution,
    relocate,
    run_wrapped,
    solve_transshipment,
    uniform_distribution,
)

F = Fraction


def _wrapped(inst, dist, seed, plan=None):
    """An episode on n arrivals drawn from dist by the episode's generator."""
    rng = random.Random(seed)
    stream = [dist.sample(rng) for _ in range(inst.n)]
    plan = plan or solve_transshipment(inst, dist)
    return run_wrapped(PlanProvider(inst), plan, stream, rng)


class TestRequestDistribution:
    def test_probabilities(self):
        d = RequestDistribution((3, 1))
        assert d.prob(0) == F(3, 4) and d.prob(1) == F(1, 4)
        assert d.n == 2 and d.total == 4

    def test_geometric_weights(self):
        assert geometric_distribution(4).weights == (1, 2, 4, 8)
        assert geometric_distribution(3, base=3).weights == (1, 3, 9)

    def test_uniform_weights(self):
        assert uniform_distribution(3).weights == (1, 1, 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            RequestDistribution(())
        with pytest.raises(ValueError, match=">= 0"):
            RequestDistribution((1, -1))
        with pytest.raises(ValueError, match="positive"):
            RequestDistribution((0, 0))

    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.25, 0.75), (1, 2.0)])
    def test_non_integer_weights_rejected(self, weights):
        # (0.5, 0.5) sampled the float 0.0; solves raised from Fraction
        with pytest.raises(ValueError, match="integers"):
            RequestDistribution(weights)

    def test_fractional_geometric_base_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            geometric_distribution(3, base=1.5)

    def test_sample_frequencies(self):
        d = RequestDistribution((3, 1))
        rng = random.Random(42)
        trials = 4000
        hits = sum(1 for _ in range(trials) if d.sample(rng) == 0)
        freq = hits / trials
        sigma = (0.75 * 0.25 / trials) ** 0.5
        assert abs(freq - 0.75) <= 3 * sigma

    def test_zero_weight_points_never_sampled(self):
        d = RequestDistribution((0, 1, 0))
        rng = random.Random(1)
        assert all(d.sample(rng) == 1 for _ in range(50))


class TestLoadDistribution:
    def test_reads_sparse_lines(self, tmp_path):
        p = tmp_path / "dist.txt"
        p.write_text("# skewed\n0 3\n2 1  # tail\n")
        d = load_distribution(str(p), 4)
        assert d.weights == (3, 0, 1, 0)

    def test_out_of_range_point(self, tmp_path):
        p = tmp_path / "dist.txt"
        p.write_text("7 1\n")
        with pytest.raises(ValueError, match="outside"):
            load_distribution(str(p), 4)

    @pytest.mark.parametrize("line", ["7 1", "-1 2"])
    def test_out_of_range_point_names_its_line(self, tmp_path, line):
        p = tmp_path / "dist.txt"
        p.write_text(f"0 1\n{line}\n")
        point = line.split()[0]
        want = f"weight line '{line}': point {point} outside the instance"
        with pytest.raises(ValueError) as err:
            load_distribution(str(p), 4)
        assert str(err.value) == want

    def test_repeated_point_rejected(self, tmp_path):
        p = tmp_path / "dist.txt"
        p.write_text("0 3\n1 2\n0 5\n")
        with pytest.raises(ValueError, match="duplicate weight line for point 0"):
            load_distribution(str(p), 3)

    @pytest.mark.parametrize("line", ["0 1 2", "3"])
    def test_malformed_line_rejected(self, tmp_path, line):
        # failed with "too many values to unpack (expected 2)"
        p = tmp_path / "dist.txt"
        p.write_text(f"1 1\n{line}  # note\n")
        with pytest.raises(ValueError) as err:
            load_distribution(str(p), 4)
        assert str(err.value) == f"weight line {line!r} is not 'point weight'"

    @pytest.mark.parametrize("line, token", [("x 1", "x"), ("1 2.5", "2.5")])
    def test_bad_integer_names_its_line(self, tmp_path, line, token):
        # raised "invalid literal for int() with base 10" with no context
        p = tmp_path / "dist.txt"
        p.write_text(f"0 1\n{line}\n")
        with pytest.raises(ValueError) as err:
            load_distribution(str(p), 4)
        assert str(err.value) == f"weight line {line!r}: {token!r} is not an integer"

    def test_all_zero_rejected(self, tmp_path):
        p = tmp_path / "dist.txt"
        p.write_text("\n")
        with pytest.raises(ValueError, match="positive"):
            load_distribution(str(p), 2)


class TestCouplingPlan:
    def test_two_point_frozen(self):
        inst = line_metric(2)
        plan = solve_transshipment(inst, RequestDistribution((3, 1)))
        assert plan.value == F(1, 4)
        assert plan.mass_moved == F(1, 2)
        assert plan.entry_units() == {(0, 0): 4, (0, 1): 2, (1, 1): 2}
        plan.validate()

    @pytest.mark.parametrize(
        "row_1, message",
        [
            ({1: column([(0, 2)])}, "column 0 does not meet its demand"),
            ({1: column([(1, 1)])}, "row 1 does not meet its demand"),
            # passed: only rows and columns 0..n-1 were summed
            ({1: column([(1, 2)]), 2: column([(2, 1)])}, "outside the profile"),
        ],
        ids=["column", "row", "outside"],
    )
    def test_validate_refuses_wrong_marginals(self, row_1, message):
        plan = solve_transshipment(line_metric(2), RequestDistribution((3, 1)))
        rows = {0: plan.rows[0], **row_1}
        with pytest.raises(AssertionError, match=message):
            dataclasses.replace(plan, rows=rows).validate()

    def test_uniform_distribution_stays_put(self):
        inst = line_metric(5)
        plan = solve_transshipment(inst, uniform_distribution(5))
        assert plan.value == 0
        assert plan.mass_moved == 0
        rng = random.Random(0)
        assert all(relocate(plan, r, rng) == r for r in range(5))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            solve_transshipment(line_metric(3), RequestDistribution((1, 1)))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_plans_validate(self, seed):
        rng = random.Random(8800 + seed)
        n = rng.randint(2, 7)
        inst = random_metric(n, rng)
        dist = RequestDistribution(
            tuple(rng.randint(0, 4) for _ in range(n - 1)) + (1,)
        )
        plan = solve_transshipment(inst, dist)
        plan.validate()
        assert plan.value >= 0

    def test_relocated_marginal_is_uniform(self):
        # arrival drawn from the skewed law, then relocated: the result
        # must be uniform over the two points
        inst = line_metric(2)
        dist = RequestDistribution((3, 1))
        plan = solve_transshipment(inst, dist)
        rng = random.Random(7)
        trials = 4000
        seen = Counter(relocate(plan, dist.sample(rng), rng) for _ in range(trials))
        sigma = (0.25 / trials) ** 0.5
        assert abs(seen[0] / trials - 0.5) <= 3 * sigma

    def test_relocate_zero_probability_arrival(self):
        inst = line_metric(2)
        dist = RequestDistribution((0, 1))
        plan = solve_transshipment(inst, dist)
        with pytest.raises(ValueError, match="zero-probability"):
            relocate(plan, 0, random.Random(0))


class TestRunWrapped:
    def test_uniform_distribution_never_relocates(self):
        inst = line_metric(4)
        for seed in range(5):
            out = _wrapped(inst, uniform_distribution(4), seed)
            assert out.relocation_cost == 0
            assert out.algorithm == "fair-bias-wrapped"

    def test_episode_shape(self):
        inst = line_metric(5)
        dist = geometric_distribution(5)
        out = _wrapped(inst, dist, 12)
        assert sorted(s for _, s in out.assignments) == list(range(5))
        for (a, s), c in zip(out.assignments, out.step_costs):
            assert c == inst.matrix[s][a]
        assert out.total_cost == sum(out.step_costs)
        assert out.relocation_cost >= 0

    def test_mean_relocation_matches_plan_mass(self):
        inst = line_metric(2)
        dist = RequestDistribution((3, 1))
        plan = solve_transshipment(inst, dist)
        trials = 2000
        costs = [
            _wrapped(inst, dist, t, plan).relocation_cost
            for t in range(trials)
        ]
        mean = sum(costs) / trials
        var = sum((c - mean) ** 2 for c in costs) / (trials - 1)
        sigma = (var / trials) ** 0.5
        assert abs(mean - float(plan.mass_moved)) <= 3 * sigma

    def test_fixed_stream(self):
        inst = line_metric(3)
        dist = RequestDistribution((1, 2, 1))
        provider, plan = PlanProvider(inst), solve_transshipment(inst, dist)
        out = run_wrapped(provider, plan, [1, 1, 2], random.Random(4))
        assert [a for a, _ in out.assignments] == [1, 1, 2]
        with pytest.raises(ValueError, match="exactly n=3"):
            run_wrapped(provider, plan, [1], random.Random(4))

    @pytest.mark.parametrize("stream", [[0, 1, 5], [0, 1, -1]])
    def test_fixed_stream_range_checked(self, stream):
        inst = line_metric(3)
        plan = solve_transshipment(inst, uniform_distribution(3))
        with pytest.raises(ValueError, match="outside the instance"):
            run_wrapped(PlanProvider(inst), plan, stream, random.Random(4))

    def test_deterministic_per_seed(self):
        inst = uniform_metric(4)
        dist = geometric_distribution(4)
        a = _wrapped(inst, dist, 31)
        b = _wrapped(inst, dist, 31)
        assert a.assignments == b.assignments
        assert a.relocation_cost == b.relocation_cost

    def test_needs_checked_metric(self):
        inst = matrix_unchecked([[0, 1], [1, 0]])
        provider = PlanProvider(inst)
        plan = solve_transshipment(inst, uniform_distribution(2))
        with pytest.raises(ValueError, match="checked metric"):
            run_wrapped(provider, plan, [0, 1], random.Random(0))

    def test_plan_size_must_match_the_provider(self):
        plan = solve_transshipment(line_metric(3), uniform_distribution(3))
        provider = PlanProvider(line_metric(4))
        with pytest.raises(ValueError, match="plan size"):
            run_wrapped(provider, plan, [0, 1, 2, 3], random.Random(0))
