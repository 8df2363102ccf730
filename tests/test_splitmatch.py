from __future__ import annotations

import dataclasses
import random

import pytest

from stochmatch import splitmatch
from stochmatch.metrics import (
    WeightedTree,
    line_metric,
    random_recursive_tree,
    star_tree,
    tree_metric,
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
    degree = [0] * tree.num_nodes
    for u, v, _ in tree.edges:
        degree[u] += 1
        degree[v] += 1
    return max(degree)


def _episode(tree, stream, seed):
    decomp = split_decomposition(tree)
    return run_episode_hier(decomp, stream, random.Random(seed))


def _cuts(decomp):
    """(edge levels, sorted balance audit), read off the region pairs.

    An audit entry is (level, servers in the cut component, side a's
    servers, side b's servers).
    """
    levels, audit = {}, []
    for a, b in zip(decomp.regions[::2], decomp.regions[1::2]):
        levels[a.edge_index] = a.level
        na, nb = len(a.leaves), len(b.leaves)
        audit.append((a.level, na + nb, na, nb))
    return levels, sorted(audit)


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
    def test_high_degree_tree_decomposes_and_plays(self):
        star = star_tree(6)
        decomp = split_decomposition(star)
        assert _max_degree(star) == 6 and _max_degree(decomp.tree) <= 3
        res = run_episode_hier(decomp, [0, 0, 3, 5, 5, 1], random.Random(4))
        assert sorted(s for _, s in res.assignments) == list(range(6))
        assert res.total_cost == sum(res.step_costs)

    def test_every_edge_gets_a_level(self):
        decomp = split_decomposition(star_tree(5))
        levels, _ = _cuts(decomp)
        assert set(levels) == set(range(len(decomp.tree.edges)))
        assert len(decomp.regions) == 2 * len(levels), "one pair per edge"

    def test_sibling_pairing(self):
        # hmatch reads the sibling of region rid at rid ^ 1
        rng = random.Random(4)
        trees = [random_recursive_tree(8, random.Random(4)), star_tree(5)]
        trees += [random_recursive_tree(rng.randint(2, 14), rng) for _ in range(10)]
        for tree in trees:
            regions = split_decomposition(tree).regions
            assert regions and len(regions) % 2 == 0
            for rid in range(0, len(regions), 2):
                a, b = regions[rid], regions[rid ^ 1]
                assert a.level == b.level
                assert a.edge_index == b.edge_index
                assert not (set(a.leaves) & set(b.leaves))

    def test_chains_strictly_increase(self):
        decomp = split_decomposition(random_recursive_tree(9, random.Random(5)))
        for leaf, chain in decomp.chains.items():
            levels = [decomp.regions[rid].level for rid in chain]
            assert levels == sorted(set(levels)), "levels must strictly grow"
            for rid in chain:
                assert leaf in decomp.regions[rid].leaves

    def test_unbalanced_split_is_refused(self, monkeypatch):
        # a 5-leaf star left untouched has no edge with both sides <= 2/3
        monkeypatch.setattr(splitmatch, "ternarize", lambda tree: tree)
        with pytest.raises(RuntimeError, match="^unbalanced split at level 1$"):
            split_decomposition(star_tree(5))

    def test_top_level_partitions_servers(self):
        decomp = split_decomposition(random_recursive_tree(7, random.Random(6)))
        tern = decomp.tree
        top = [r for r in decomp.regions if r.level == 1]
        assert len(top) == 2
        got = sorted(top[0].leaves + top[1].leaves)
        assert got == sorted(tern.leaf_for_point.values())

    @pytest.mark.parametrize("seed", range(15))
    def test_balance_contract(self, seed):
        rng = random.Random(60 + seed)
        n = rng.randint(2, 16)
        _, audit = _cuts(split_decomposition(random_recursive_tree(n, rng)))
        assert audit, "at least one split happens"
        for level, total, a, b in audit:
            if total >= 2:
                assert 3 * max(a, b) <= 2 * total


def _reachable(tree, start, edges, cut):
    adj = [[] for _ in range(tree.num_nodes)]
    for idx, (u, v, _) in enumerate(tree.edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y, idx in adj[x]:
            if idx in edges and idx != cut and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _brute_force_cuts(tree):
    """The cut rule by exhaustion: (edge levels, sorted balance audit).

    Every component tries every one of its edges, counts both sides by
    search, cuts the edge with the least (larger-side servers,
    larger-side nodes, index) and recurses; side a is the side without
    the component's smallest node.
    """
    tern = ternarize(tree)
    servers = set(tern.leaf_for_point.values())
    levels, audit = {}, []
    todo = [(set(range(tern.num_nodes)), set(range(len(tern.edges))), 1)]
    while todo:
        nodes, edges, level = todo.pop()
        if not edges:
            continue
        n_servers = len(nodes & servers)
        keys = []
        for e in edges:
            side = _reachable(tern, tern.edges[e][0], edges, e)
            s, m = len(side & servers), len(side)
            keys.append(
                (max(s, n_servers - s), max(m, len(nodes) - m), e)
            )
        e = min(keys)[2]
        a = _reachable(tern, tern.edges[e][0], edges, e)
        if min(nodes) in a:
            a = nodes - a
        b = nodes - a
        levels[e] = level
        audit.append((level, n_servers, len(a & servers), len(b & servers)))
        for side in (a, b):
            inner = {i for i in edges if i != e and tern.edges[i][0] in side}
            todo.append((side, inner, level + 1))
    return levels, sorted(audit)


def _oracle_trees():
    rng = random.Random(77)
    for _ in range(120):
        n = rng.randint(1, 30)
        yield random_recursive_tree(n, rng, max_len=rng.randint(1, 5))
    for n in (2, 3, 7, 16, 30):
        yield star_tree(n)
        yield line_metric(n).tree


def test_cuts_match_brute_force_oracle():
    for tree in _oracle_trees():
        decomp = split_decomposition(tree)
        levels, audit = _brute_force_cuts(tree)
        assert len(decomp.regions) == 2 * len(levels)
        assert _cuts(decomp) == (levels, audit)


class TestOccupancy:
    def test_vacancy_counts_follow_chains(self):
        decomp = split_decomposition(star_tree(4))
        tern = decomp.tree
        occ = OccupancyState(decomp)
        leaf = tern.leaf_for_point[2]
        before = list(occ.vacant)
        occ.occupy(leaf)
        for rid, (b, a) in enumerate(zip(before, occ.vacant)):
            expect = b - 1 if rid in decomp.chains[leaf] else b
            assert a == expect

    def test_double_occupy_rejected(self):
        decomp = split_decomposition(star_tree(3))
        tern = decomp.tree
        occ = OccupancyState(decomp)
        leaf = tern.leaf_for_point[0]
        occ.occupy(leaf)
        with pytest.raises(ValueError, match="already occupied"):
            occ.occupy(leaf)


class _LastLeaf:
    """A generator stand-in that picks a region's last leaf and counts picks."""

    def __init__(self):
        self.picks = 0

    def randrange(self, n):
        self.picks += 1
        return n - 1


class TestHmatch:
    def test_vacant_leaf_matches_itself(self):
        decomp = split_decomposition(star_tree(3))
        tern = decomp.tree
        occ = OccupancyState(decomp)
        leaf = tern.leaf_for_point[1]
        assert hmatch(decomp, occ, leaf, random.Random(0)) == (leaf, -1)

    def test_two_points_deflect_to_the_other(self):
        decomp = split_decomposition(line_metric(2).tree)
        occ = OccupancyState(decomp)
        a = decomp.tree.leaf_for_point[0]
        b = decomp.tree.leaf_for_point[1]
        occ.occupy(a)
        assert hmatch(decomp, occ, a, random.Random(0)) == (b, 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_returns_the_first_full_region_it_crossed(self, seed):
        rng = random.Random(900 + seed)
        n = rng.randint(2, 14)
        decomp = split_decomposition(random_recursive_tree(n, rng, max_len=5))
        leaves = list(decomp.tree.leaf_for_point.values())
        for _ in range(10):
            occ = OccupancyState(decomp)
            for leaf in rng.sample(leaves, rng.randrange(n)):
                occ.occupy(leaf)
            full = {rid for rid, free in enumerate(occ.vacant) if free == 0}
            for leaf in leaves:
                v, i = hmatch(decomp, occ, leaf, random.Random(rng.randrange(99)))
                assert v not in occ.occupied
                chain = decomp.chains[leaf]
                if leaf not in occ.occupied:
                    assert (v, i) == (leaf, -1)
                    continue
                assert i == min(j for j, rid in enumerate(chain) if rid in full)
                assert v in decomp.regions[chain[i] ^ 1].leaves

    def test_exhausted_tree_trips_the_guard(self, caplog):
        decomp = split_decomposition(star_tree(3))
        tern = decomp.tree
        occ = OccupancyState(decomp)
        for leaf in tern.leaf_for_point.values():
            occ.occupy(leaf)
        with caplog.at_level("WARNING", logger="stochmatch.splitmatch"):
            with pytest.raises(MatchGuardError):
                hmatch(decomp, occ, tern.leaf_for_point[0], random.Random(0))
        assert caplog.records

    def test_occupied_leaf_with_no_full_region_trips_the_guard(self, caplog):
        decomp = split_decomposition(star_tree(3))
        occ = OccupancyState(decomp)
        leaf = decomp.tree.leaf_for_point[0]
        occ.occupied.add(leaf)  # occupied, but no region's vacancy counts it
        with caplog.at_level("WARNING", logger="stochmatch.splitmatch"):
            with pytest.raises(MatchGuardError, match="no full region"):
                hmatch(decomp, occ, leaf, random.Random(0))
        assert "has no full region" in caplog.text

    def test_recursion_guard_trips(self, caplog):
        decomp = split_decomposition(line_metric(8).tree)
        leaf = decomp.tree.leaf_for_point
        occ = OccupancyState(decomp)
        for p in range(1, 8):
            occ.occupy(leaf[p])
        rng = _LastLeaf()
        assert hmatch(decomp, occ, leaf[7], rng)[0] == leaf[0]
        assert rng.picks == 3
        # a depth bound of two jumps cannot reach the vacant leaf
        shallow = dataclasses.replace(decomp, top_level=0)
        with caplog.at_level("WARNING", logger="stochmatch.splitmatch"):
            with pytest.raises(MatchGuardError, match="exceeded its depth bound"):
                hmatch(shallow, occ, leaf[7], _LastLeaf())
        assert "recursion guard tripped" in caplog.text


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
            res = _episode(tree, stream, seed * 100 + t)
            self._assert_shape(tree, stream, res)

    def test_costs_at_least_offline_optimum(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 10)
            tree = random_recursive_tree(n, rng, max_len=9)
            stream = [rng.randrange(n) for _ in range(n)]
            res = _episode(tree, stream, rng.randrange(10**6))
            assert res.total_cost >= opt_tree(tree_metric(tree), stream)

    def test_deterministic_per_seed(self):
        tree = random_recursive_tree(9, random.Random(14))
        stream = [random.Random(77).randrange(9) for _ in range(9)]
        a = _episode(tree, stream, 3)
        b = _episode(tree, stream, 3)
        assert a.assignments == b.assignments

    def test_shared_decomposition(self):
        tree = random_recursive_tree(6, random.Random(2))
        decomp = split_decomposition(tree)
        stream = [0, 0, 1, 5, 5, 3]
        a = _episode(tree, stream, 8)
        run_episode_hier(decomp, stream, random.Random(7))
        b = run_episode_hier(decomp, stream, random.Random(8))
        assert a.assignments == b.assignments

    def test_stream_length_checked(self):
        with pytest.raises(ValueError, match="exactly n=3"):
            _episode(star_tree(3), [0], 0)

    @pytest.mark.parametrize("stream", [[0, 1, 5], [0, 1, -1]])
    def test_stream_range_checked(self, stream):
        tree = line_metric(3).tree
        with pytest.raises(ValueError, match="outside the instance"):
            _episode(tree, stream, 0)

    def test_prices_steps_with_the_callers_matrix(self):
        tree = random_recursive_tree(9, random.Random(4))
        tree.leaf_distance_matrix()
        decomp = split_decomposition(tree)
        res = run_episode_hier(decomp, [3, 3, 1, 0, 8, 8, 2, 5, 5], random.Random(2))
        assert decomp.tree._matrix is None
        tern = ternarize(tree)
        assert res.step_costs == [
            tern.tree_distance(r, s) for r, s in res.assignments
        ]

    def test_single_point_episode(self):
        tree = random_recursive_tree(1, random.Random(0))
        res = _episode(tree, [0], 0)
        assert res.total_cost == 0

    def test_identity_stream_is_free(self):
        tree = random_recursive_tree(8, random.Random(33))
        res = _episode(tree, list(range(8)), 1)
        assert res.total_cost == 0
