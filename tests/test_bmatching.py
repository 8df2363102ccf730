"""Fractional matching solvers against an exhaustive transport oracle.

The oracle enumerates every feasible integer transport plan directly,
so it shares no code path with the flow-based solvers.
"""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from stochmatch.bmatching import (
    DemandProfile,
    FractionalMatching,
    canonical_plan,
    scaling_identity_check,
    solve_max_weight,
    solve_min_cost,
    tree_plan,
)
from stochmatch.fairbias import MaxWeightProvider
from stochmatch.metrics import (
    line_metric,
    matrix_metric,
    matrix_unchecked,
    random_metric,
    random_recursive_tree,
    star_tree,
    tree_metric,
    uniform_metric,
)
from stochmatch.offline import opt_max_weight

F = Fraction


def _brute_transport(costs, supplies, demands):
    """Minimum cost of moving integer supplies onto integer demands.

    Recursion over the cells in row-major order; the last cell of each
    row and each cell of the last row are forced, which keeps the tree
    small for the unit counts used here.
    """
    m, n = len(supplies), len(demands)
    assert sum(supplies) == sum(demands)
    rows, cols = list(supplies), list(demands)
    best = [None]

    def rec(cell, acc):
        if best[0] is not None and acc >= best[0]:
            return
        if cell == m * n:
            best[0] = acc
            return
        a, j = divmod(cell, n)
        hi = min(rows[a], cols[j])
        lo = rows[a] if j == n - 1 else 0
        if a == m - 1:
            lo = max(lo, cols[j])
        for u in range(lo, hi + 1):
            rows[a] -= u
            cols[j] -= u
            rec(cell + 1, acc + u * costs[a][j])
            rows[a] += u
            cols[j] += u

    rec(0, 0)
    return best[0]


def _oracle_value(instance, T):
    from collections import Counter

    counts = Counter(T)
    lefts = sorted(counts)
    k = sum(counts.values())
    n = instance.n
    best = _brute_transport(
        [instance.matrix[i] for i in lefts],
        [n * counts[i] for i in lefts],
        [k] * n,
    )
    return F(best, n * k)


class TestSolveMinCost:
    def test_line_four_two_free(self):
        m = solve_min_cost(line_metric(4), [0, 3])
        assert m.value == F(1, 2)
        m.validate()

    def test_line_four_single_free(self):
        assert solve_min_cost(line_metric(4), [0]).value == F(3, 2)

    def test_line_three(self):
        assert solve_min_cost(line_metric(3), [0, 1]).value == F(1, 2)

    def test_uniform_three(self):
        assert solve_min_cost(uniform_metric(3), [0]).value == F(2, 3)

    def test_star_two_outer_free(self):
        inst = tree_metric(star_tree(3, arm=2))
        assert solve_min_cost(inst, [1, 2]).value == F(4, 3)

    def test_spacing_scales_value(self):
        assert solve_min_cost(line_metric(2, spacing=5), [0]).value == F(5, 2)

    def test_multiset_free_servers(self):
        assert solve_min_cost(line_metric(3), [0, 0, 1]).value == F(2, 3)

    def test_profile_demands(self):
        m = solve_min_cost(line_metric(4), [2, 2, 3])
        assert m.profile.left == ((2, F(2, 3)), (3, F(1, 3)))
        assert all(d == F(1, 4) for _, d in m.profile.right)

    @pytest.mark.parametrize("seed", range(12))
    def test_against_oracle_metric(self, seed):
        rng = random.Random(900 + seed)
        n = rng.randint(2, 4)
        inst = random_metric(n, rng, max_d=9)
        k = rng.randint(1, min(3, n))
        T = [rng.randrange(n) for _ in range(k)]
        m = solve_min_cost(inst, T)
        assert m.value == _oracle_value(inst, T)
        m.validate()

    @pytest.mark.parametrize("seed", range(8))
    def test_against_oracle_nonmetric(self, seed):
        # the solver does not need the triangle inequality
        rng = random.Random(1700 + seed)
        n = rng.randint(2, 4)
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                mat[i][j] = mat[j][i] = rng.randint(0, 9)
        inst = matrix_unchecked(mat)
        T = [rng.randrange(n) for _ in range(rng.randint(1, 2))]
        assert solve_min_cost(inst, T).value == _oracle_value(inst, T)

    def test_empty_free_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            solve_min_cost(line_metric(3), [])

    def test_out_of_range_server_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            solve_min_cost(line_metric(3), [3])

    def test_non_integer_server_rejected_by_name(self):
        with pytest.raises(ValueError, match="^server point 1.0 is not an integer$"):
            solve_min_cost(line_metric(3), [1.0])
        with pytest.raises(ValueError, match="^server point '1' is not an integer$"):
            solve_min_cost(line_metric(3), ["1"])
        assert solve_min_cost(line_metric(3), [np.int64(1)]).value == Fraction(2, 3)

    def test_value_denominator_divides_scale(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(2, 5)
            inst = random_metric(n, rng)
            k = rng.randint(1, n)
            T = rng.sample(range(n), k)
            m = solve_min_cost(inst, T)
            assert (n * k) % m.value.denominator == 0

    def test_optimal_plans_with_a_support_cycle(self):
        # the primal-dual plan is returned as it is: these supports hold a cycle
        # (more entries than rows + columns - 1) and stay optimal
        M = [
            [0, 1, 1, 2, 2, 2],
            [1, 0, 2, 3, 3, 1],
            [1, 2, 0, 1, 1, 3],
            [2, 3, 1, 0, 2, 4],
            [2, 3, 1, 2, 0, 4],
            [2, 1, 3, 4, 4, 0],
        ]
        inst = matrix_metric(M)
        m = solve_min_cost(inst, [1, 2, 2, 4, 4])
        m.validate()
        assert len(m.entries) > 3 + 6 - 1
        assert m.value == 1
        c = canonical_plan(inst, [1, 2, 2, 4, 4])
        c.validate()
        assert c.value == 1
        x = c.entry_map()
        assert [x[(i, i)] for i in (1, 2, 4)] == [F(1, 6)] * 3

        w = solve_max_weight(
            [[2, 0, 1, 1], [2, 2, 1, 0], [1, 0, 0, 0], [1, 0, 2, 2]],
            [0, 2, 1, 0],
            [2, 0, 2, 2],
        )
        w.validate()
        assert len(w.entries) > 3 + 3 - 1
        assert w.value == F(13, 12)


def _tree_value(instance, T):
    n, k = instance.n, len(T)
    return F(tree_plan(instance.tree, Counter(T), k, n), n * k)


class TestTreeRoute:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_flow_route(self, seed):
        rng = random.Random(40 + seed)
        n = rng.randint(2, 8)
        inst = tree_metric(random_recursive_tree(n, rng, max_len=9))
        k = rng.randint(1, n)
        T = [rng.randrange(n) for _ in range(k)]
        assert _tree_value(inst, T) == solve_min_cost(inst, T).value

    def test_line_values_match_frozen(self):
        inst = line_metric(4)
        assert _tree_value(inst, [0, 3]) == F(1, 2)
        assert _tree_value(inst, [0]) == F(3, 2)


class TestCanonicalPlan:
    def test_line_three_keeps_the_most_mass_at_home(self):
        # an optimal plan for the 3-point line with servers {0, 1} can
        # leave self-matched mass on the table at point 1; the canonical
        # plan keeps 1/3 at each server
        inst = line_metric(3)
        profile = DemandProfile(
            ((0, F(1, 2)), (1, F(1, 2))),
            ((0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3))),
        )
        loose = FractionalMatching(
            profile,
            ((0, 0, F(1, 3)), (0, 1, F(1, 6)), (1, 1, F(1, 6)), (1, 2, F(1, 3))),
            F(1, 2),
        )
        loose.validate()
        tight = canonical_plan(inst, [0, 1])
        assert tight.value == loose.value
        assert tight.profile == profile
        assert tight.entries == (
            (0, 0, F(1, 3)),
            (0, 2, F(1, 6)),
            (1, 1, F(1, 3)),
            (1, 2, F(1, 6)),
        )
        tight.validate()

    def test_unchecked_instance_rejected(self):
        inst = matrix_unchecked([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="checked metric"):
            canonical_plan(inst, [0])

    @pytest.mark.parametrize("seed", range(10))
    def test_optimal_with_pinned_diagonal(self, seed):
        rng = random.Random(300 + seed)
        n = rng.randint(2, 6)
        inst = random_metric(n, rng)
        T = rng.sample(range(n), rng.randint(1, n))
        m = canonical_plan(inst, T)
        m.validate()
        assert m.value == solve_min_cost(inst, T).value
        x = m.entry_map()
        for i, d in m.profile.left:
            assert x.get((i, i), F(0)) == min(d, F(1, n))


class TestMaxWeight:
    @pytest.mark.parametrize("c", [-3, 7])
    def test_a_constant_on_every_gain_moves_only_the_value(self, c):
        # max-weight solves min-cost on S - gain, S the table's largest gain
        rng = random.Random(40 + c)
        n = 5
        gains = [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]
        raised = [[g + c for g in row] for row in gains]
        loc_w = [rng.randint(1, 3) for _ in range(n)]
        for T in ([0], [1, 3], [4, 4, 2], list(range(n))):
            plan = solve_max_weight(gains, T, loc_w)
            moved = solve_max_weight(raised, T, loc_w)
            assert moved.entries == plan.entries
            assert moved.value == plan.value + c
        stream = [rng.randrange(n) for _ in range(n)]
        assert opt_max_weight(raised, stream) == opt_max_weight(gains, stream) + n * c

    def test_diagonal_optimum(self):
        m = solve_max_weight([[3, 1], [2, 4]], [0, 1], [1, 1])
        assert m.value == F(7, 2)
        assert m.entry_map() == {(0, 0): F(1, 2), (1, 1): F(1, 2)}
        m.validate()

    def test_zero_weight_location_excluded(self):
        m = solve_max_weight([[3, 1], [2, 4]], [0, 1], [1, 0])
        assert m.value == F(5, 2)
        assert m.profile.right == ((0, F(1)),)
        m.validate()

    def test_uneven_location_weights(self):
        # location 1 carries three quarters of the demand
        m = solve_max_weight([[5, 1], [1, 5]], [0], [1, 3])
        assert m.value == F(5, 4) + F(3, 4)

    @pytest.mark.parametrize("seed", range(10))
    def test_against_oracle(self, seed):
        from collections import Counter

        rng = random.Random(2400 + seed)
        n = rng.randint(2, 3)
        weights = [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]
        loc_w = [rng.randint(0, 2) for _ in range(n)]
        if sum(loc_w) == 0:
            loc_w[0] = 1
        T = [rng.randrange(n) for _ in range(rng.randint(1, 2))]
        counts = Counter(T)
        lefts = sorted(counts)
        k = sum(counts.values())
        W = sum(loc_w)
        live = [j for j in range(n) if loc_w[j] > 0]
        shift = max(max(weights[i][j] for j in live) for i in lefts)
        best = _brute_transport(
            [[shift - weights[i][j] for j in live] for i in lefts],
            [counts[i] * W for i in lefts],
            [k * loc_w[j] for j in live],
        )
        got = solve_max_weight(weights, T, loc_w)
        assert got.value == F(shift * k * W - best, k * W)
        got.validate()

    def test_weight_vector_validation(self):
        with pytest.raises(ValueError, match="one weight per"):
            solve_max_weight([[1, 1], [1, 1]], [0], [1])
        with pytest.raises(ValueError, match=">= 0"):
            solve_max_weight([[1, 1], [1, 1]], [0], [1, -1])
        with pytest.raises(ValueError, match="positive total"):
            solve_max_weight([[1, 1], [1, 1]], [0], [0, 0])
        with pytest.raises(ValueError, match="outside"):
            solve_max_weight([[1, 1], [1, 1]], [2], [1, 1])

    def test_fractional_gains_rejected(self):
        # solve_max_weight and the provider raised TypeError from Fraction,
        # and opt_max_weight returned 2
        gains = [[0.5, 1], [1, 0.5]]
        with pytest.raises(ValueError, match="gains must be integers"):
            solve_max_weight(gains, [0], [1, 1])
        with pytest.raises(ValueError, match="gains must be integers"):
            MaxWeightProvider(gains, [1, 1])
        with pytest.raises(ValueError, match="gains must be integers"):
            opt_max_weight(gains, [0, 1])
        with pytest.raises(ValueError, match="non-empty square table"):
            solve_max_weight([[1, 2]], [0], [1])

    def test_fractional_weights_rejected(self):
        # a TypeError from Fraction before
        with pytest.raises(ValueError, match="integers"):
            solve_max_weight([[1, 1], [1, 1]], [0], [0.5, 0.5])


class TestScalingIdentity:
    def test_line_four_frozen(self):
        lhs, rhs, ok = scaling_identity_check(line_metric(4), [0])
        assert (lhs, rhs, ok) == (F(3, 2), F(3, 2), True)

    @pytest.mark.parametrize("seed", range(15))
    def test_holds_on_random_metrics(self, seed):
        rng = random.Random(4100 + seed)
        n = rng.randint(2, 7)
        inst = random_metric(n, rng)
        k = rng.randint(1, n // 2)
        T = rng.sample(range(n), k)
        lhs, rhs, ok = scaling_identity_check(inst, T)
        assert ok and lhs == rhs

    def test_needs_small_half(self):
        with pytest.raises(ValueError, match="n/2"):
            scaling_identity_check(line_metric(4), [0, 1, 2])

    def test_needs_set(self):
        with pytest.raises(ValueError, match="set"):
            scaling_identity_check(line_metric(4), [0, 0])

    def test_needs_checked_metric(self):
        with pytest.raises(ValueError, match="checked"):
            scaling_identity_check(matrix_unchecked([[0, 1], [1, 0]]), [0])


class TestMatchingContainer:
    def test_validate_flags_bad_marginals(self):
        profile = DemandProfile(((0, F(1)),), ((0, F(1, 2)), (1, F(1, 2))))
        broken = FractionalMatching(profile, ((0, 0, F(1)),), F(0))
        with pytest.raises(AssertionError, match="column"):
            broken.validate()

    def test_validate_flags_stray_mass(self):
        profile = DemandProfile(((0, F(1)),), ((0, F(1)),))
        stray = FractionalMatching(
            profile, ((0, 0, F(1)), (1, 1, F(0, 1))), F(0)
        )
        # zero-mass strays are tolerated, negative mass is not
        stray.validate()
        bad = FractionalMatching(
            profile, ((0, 0, F(2)), (0, 1, F(-1))), F(0)
        )
        with pytest.raises(AssertionError, match="negative"):
            bad.validate()
