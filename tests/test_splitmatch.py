from __future__ import annotations

import random

import pytest

from stochmatch.metrics import (
    WeightedTree,
    line_metric,
    random_recursive_tree,
    star_tree,
)
from stochmatch.offline import opt_tree
from stochmatch.splitmatch import (
    MatchGuardError,
    OccupancyState,
    hmatch,
    run_episode_hier,
    split_decomposition,
    ternarize,
)


def _max_degree(tree: WeightedTree) -> int:
    return max(len(tree.adj[x]) for x in range(tree.num_nodes))


class TestTernarize:
    def test_star_is_chained_down(self):
        tree = star_tree(6)
        tern = ternarize(tree)
        assert _max_degree(tree) == 6
        assert _max_degree(tern) <= 3
        assert tern.n_points == 6

    def test_distances_preserved(self):
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randint(2, 10)
            tree = random_recursive_tree(n, rng, max_len=9)
            tern = ternarize(tree)
            assert _max_degree(tern) <= 3
            assert tern.leaf_distance_matrix() == tree.leaf_distance_matrix()

    def test_ternary_tree_untouched(self):
        tree = line_metric(5).tree
        tern = ternarize(tree)
        assert tern.num_nodes == tree.num_nodes

    def test_single_point(self):
        tern = ternarize(random_recursive_tree(1, random.Random(0)))
        assert tern.n_points == 1


class TestSplitDecomposition:
    def test_refuses_high_degree(self):
        with pytest.raises(ValueError, match="degree <= 3"):
            split_decomposition(star_tree(6))

    def test_every_edge_gets_a_level(self):
        tern = ternarize(star_tree(5))
        decomp = split_decomposition(tern)
        assert set(decomp.edge_levels) == set(range(len(tern.edges)))

    def test_sibling_pairing(self):
        tern = ternarize(random_recursive_tree(8, random.Random(4)))
        decomp = split_decomposition(tern)
        for r in decomp.regions:
            sib = decomp.regions[r.sibling]
            assert sib.sibling == r.rid
            assert sib.level == r.level
            assert sib.edge_index == r.edge_index
            assert not (set(r.leaves) & set(sib.leaves))

    def test_chains_strictly_increase(self):
        tern = ternarize(random_recursive_tree(9, random.Random(5)))
        decomp = split_decomposition(tern)
        for leaf, chain in decomp.chains.items():
            levels = [decomp.regions[rid].level for rid in chain]
            assert levels == sorted(set(levels)), "levels must strictly grow"
            for rid in chain:
                assert leaf in decomp.regions[rid].leaves

    def test_top_level_partitions_servers(self):
        tern = ternarize(random_recursive_tree(7, random.Random(6)))
        decomp = split_decomposition(tern)
        top = [r for r in decomp.regions if r.level == 1]
        assert len(top) == 2
        got = sorted(top[0].leaves + top[1].leaves)
        assert got == sorted(tern.leaf_for_point.values())

    @pytest.mark.parametrize("seed", range(15))
    def test_balance_contract(self, seed):
        rng = random.Random(60 + seed)
        n = rng.randint(2, 16)
        tern = ternarize(random_recursive_tree(n, rng))
        decomp = split_decomposition(tern)
        assert decomp.balance_audit, "at least one split happens"
        for level, total, a, b in decomp.balance_audit:
            assert a + b == total
            if total >= 2:
                assert 3 * max(a, b) <= 2 * total


class TestOccupancy:
    def test_vacancy_counts_follow_chains(self):
        tern = ternarize(star_tree(4))
        decomp = split_decomposition(tern)
        occ = OccupancyState(decomp)
        leaf = tern.leaf_for_point[2]
        before = list(occ.vacant)
        occ.occupy(leaf)
        for rid, (b, a) in enumerate(zip(before, occ.vacant)):
            expect = b - 1 if rid in decomp.chains[leaf] else b
            assert a == expect

    def test_double_occupy_rejected(self):
        tern = ternarize(star_tree(3))
        decomp = split_decomposition(tern)
        occ = OccupancyState(decomp)
        leaf = tern.leaf_for_point[0]
        occ.occupy(leaf)
        with pytest.raises(ValueError, match="already occupied"):
            occ.occupy(leaf)


class TestHmatch:
    def test_vacant_leaf_matches_itself(self):
        tern = ternarize(star_tree(3))
        decomp = split_decomposition(tern)
        occ = OccupancyState(decomp)
        leaf = tern.leaf_for_point[1]
        assert hmatch(decomp, occ, leaf, random.Random(0)) == leaf

    def test_two_points_deflect_to_the_other(self):
        tree = line_metric(2).tree
        decomp = split_decomposition(ternarize(tree))
        occ = OccupancyState(decomp)
        a = decomp.tree.leaf_for_point[0]
        b = decomp.tree.leaf_for_point[1]
        occ.occupy(a)
        assert hmatch(decomp, occ, a, random.Random(0)) == b

    def test_exhausted_tree_trips_the_guard(self, caplog):
        tern = ternarize(star_tree(3))
        decomp = split_decomposition(tern)
        occ = OccupancyState(decomp)
        for leaf in tern.leaf_for_point.values():
            occ.occupy(leaf)
        with caplog.at_level("WARNING", logger="stochmatch.splitmatch"):
            with pytest.raises(MatchGuardError):
                hmatch(decomp, occ, tern.leaf_for_point[0], random.Random(0))
        assert caplog.records


class TestEpisodes:
    def _assert_shape(self, tree, stream, res):
        matrix = tree.leaf_distance_matrix()
        assert [r for r, _ in res.assignments] == list(stream)
        assert sorted(s for _, s in res.assignments) == list(range(tree.n_points))
        for (r, s), c in zip(res.assignments, res.step_costs):
            assert c == matrix[r][s]
        assert res.total_cost == sum(res.step_costs)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_episodes_are_perfect_matchings(self, seed):
        rng = random.Random(500 + seed)
        n = rng.randint(1, 12)
        tree = random_recursive_tree(n, rng, max_len=9)
        for t in range(10):
            stream = [rng.randrange(n) for _ in range(n)]
            res = run_episode_hier(tree, stream, seed=seed * 100 + t)
            self._assert_shape(tree, stream, res)
            assert res.algorithm == "split-match"

    def test_costs_at_least_offline_optimum(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 10)
            tree = random_recursive_tree(n, rng, max_len=9)
            stream = [rng.randrange(n) for _ in range(n)]
            res = run_episode_hier(tree, stream, seed=rng.randrange(10**6))
            assert res.total_cost >= opt_tree(tree, stream)

    def test_deterministic_per_seed(self):
        tree = random_recursive_tree(9, random.Random(14))
        stream = [random.Random(77).randrange(9) for _ in range(9)]
        a = run_episode_hier(tree, stream, seed=3)
        b = run_episode_hier(tree, stream, seed=3)
        assert a.assignments == b.assignments

    def test_shared_decomposition(self):
        tree = random_recursive_tree(6, random.Random(2))
        decomp = split_decomposition(ternarize(tree))
        stream = [0, 0, 1, 5, 5, 3]
        a = run_episode_hier(tree, stream, seed=8)
        b = run_episode_hier(tree, stream, seed=8, decomp=decomp)
        assert a.assignments == b.assignments

    def test_stream_length_checked(self):
        with pytest.raises(ValueError, match="exactly n=3"):
            run_episode_hier(star_tree(3), [0], seed=0)

    @pytest.mark.parametrize("stream", [[0, 1, 5], [0, 1, -1]])
    def test_stream_range_checked(self, stream):
        tree = line_metric(3).tree
        with pytest.raises(ValueError, match="outside the instance"):
            run_episode_hier(tree, stream, seed=0)

    def test_prices_steps_with_the_callers_matrix(self):
        tree = random_recursive_tree(9, random.Random(4))
        tree.leaf_distance_matrix()
        decomp = split_decomposition(ternarize(tree))
        res = run_episode_hier(tree, [3, 3, 1, 0, 8, 8, 2, 5, 5], seed=2, decomp=decomp)
        assert decomp.tree._matrix is None
        tern = ternarize(tree)
        assert res.step_costs == [
            tern.tree_distance(r, s) for r, s in res.assignments
        ]

    def test_single_point_episode(self):
        tree = random_recursive_tree(1, random.Random(0))
        res = run_episode_hier(tree, [0], seed=0)
        assert res.total_cost == 0

    def test_identity_stream_is_free(self):
        tree = random_recursive_tree(8, random.Random(33))
        res = run_episode_hier(tree, list(range(8)), seed=1)
        assert res.total_cost == 0
