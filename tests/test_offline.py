"""Offline optimum against a permutation-enumeration oracle."""
from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from stochmatch.harness import random_metric
from stochmatch.metrics import (
    line_metric,
    random_recursive_tree,
    star_tree,
    tree_metric,
    uniform_metric,
)
from stochmatch.offline import opt_general, opt_max_weight, opt_tree


def _brute_opt(matrix, requests):
    n = len(matrix)
    return min(
        sum(matrix[r][s] for r, s in zip(requests, perm))
        for perm in itertools.permutations(range(n))
    )


def _brute_opt_max(weights, requests):
    n = len(weights)
    return max(
        sum(weights[s][r] for r, s in zip(requests, perm))
        for perm in itertools.permutations(range(n))
    )


class TestOptGeneral:
    def test_star_all_at_one_point(self):
        inst = tree_metric(star_tree(3))
        assert opt_general(inst, [1, 1, 1]) == 4

    def test_line_two_clusters(self):
        assert opt_general(line_metric(4), [0, 0, 3, 3]) == 2

    def test_uniform_repeats(self):
        assert opt_general(uniform_metric(3), [2, 2, 2]) == 2

    def test_identity_stream_is_free(self):
        inst = line_metric(5)
        assert opt_general(inst, [4, 2, 0, 1, 3]) == 0

    def test_single_point(self):
        assert opt_general(line_metric(1), [0]) == 0

    @pytest.mark.parametrize("seed", range(15))
    def test_against_permutation_oracle(self, seed):
        rng = random.Random(7000 + seed)
        n = rng.randint(2, 6)
        inst = random_metric(n, rng, max_d=9)
        requests = [rng.randrange(n) for _ in range(n)]
        assert opt_general(inst, requests) == _brute_opt(inst.matrix, requests)

    def test_stream_length_checked(self):
        with pytest.raises(ValueError, match="exactly n=3"):
            opt_general(line_metric(3), [0, 1])

    def test_stream_range_checked(self):
        with pytest.raises(ValueError, match="outside"):
            opt_general(line_metric(3), [0, 1, 3])

    @pytest.mark.parametrize("opt", [opt_general, opt_tree])
    def test_non_integer_request_rejected_by_name(self, opt):
        # 1.5 lies in range, so only an integer check catches it; opt_tree
        # used to fail on the root balance instead
        with pytest.raises(ValueError, match="^request location 1.5 is not an integer$"):
            opt(line_metric(3), [0, 1.5, 2])
        assert opt(line_metric(3), [np.int64(0), np.int64(0), 2]) == 1


class TestOptTree:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_opt_general(self, seed):
        rng = random.Random(7300 + seed)
        n = rng.randint(2, 7)
        inst = tree_metric(random_recursive_tree(n, rng, max_len=9))
        requests = [rng.randrange(n) for _ in range(n)]
        assert opt_tree(inst, requests) == opt_general(inst, requests)

    def test_accepts_bare_tree(self):
        tree = star_tree(3)
        assert opt_tree(tree_metric(tree), [1, 1, 1]) == 4

    def test_refuses_matrix_instance(self):
        with pytest.raises(ValueError, match="tree"):
            opt_tree(uniform_metric(3), [0, 1, 2])

    def test_line_frozen(self):
        assert opt_tree(line_metric(4), [0, 0, 3, 3]) == 2
        assert opt_tree(line_metric(4), [0, 0, 0, 0]) == 6


class TestOptMaxWeight:
    def test_diagonal_frozen(self):
        assert opt_max_weight([[3, 1], [2, 4]], [0, 1]) == 7

    def test_forced_off_diagonal(self):
        assert opt_max_weight([[0, 9], [9, 0]], [0, 1]) == 18

    @pytest.mark.parametrize("seed", range(12))
    def test_against_permutation_oracle(self, seed):
        rng = random.Random(7600 + seed)
        n = rng.randint(2, 5)
        weights = [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]
        requests = [rng.randrange(n) for _ in range(n)]
        assert opt_max_weight(weights, requests) == _brute_opt_max(
            weights, requests
        )

    def test_stream_length_checked(self):
        with pytest.raises(ValueError, match="exactly"):
            opt_max_weight([[1, 1], [1, 1]], [0])

    @pytest.mark.parametrize(
        "weights, requests",
        [([[1, 2, 3], [3, 4, 5]], [0, 1]), ([[1, 2], [3]], [0, 1]), ([], [])],
    )
    def test_non_square_table_rejected(self, weights, requests):
        # a 2x3 table returned 5, the optimum of its first two columns
        with pytest.raises(ValueError, match="non-empty square table"):
            opt_max_weight(weights, requests)
