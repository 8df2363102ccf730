"""Tree routes price their steps on the tree, with no distance table.

Every distance the tree routes produce (the walk's path length,
split-match step costs, ``tree_distance`` and the table that one
bottom-up merge of (point, depth) lists builds) is checked against a BFS
over the tree's adjacency lists, on random trees with zero-length edges,
pendant leaves, point-free Steiner leaves, stars that need ternarizing,
and one or two points.  The table is also checked on trees of 300
points and on an FRT tree, whose merges are wider and whose Steiner
chains are longer than those draws reach.  The run-level test makes
``WeightedTree.leaf_distance_matrix`` raise, so any tree route that still
builds a table fails.
"""
from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmatch.bmatching import free_below, tree_walk
from stochmatch.harness import Scenario, random_metric, run_trials
from stochmatch.metrics import (
    WeightedTree,
    frt_embed,
    line_metric,
    random_recursive_tree,
    star_tree,
    tree_from_host_edges,
    tree_metric,
)
from stochmatch.splitmatch import run_episode_hier, split_decomposition


def bfs_table(tree: WeightedTree) -> list[list[int]]:
    """Point-to-point distances by one BFS per point: the reference."""
    n = tree.n_points
    table = []
    for p in range(n):
        src = tree.leaf_for_point[p]
        dist = {src: 0}
        stack = [src]
        while stack:
            x = stack.pop()
            for y, w, _ in tree.adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + w
                    stack.append(y)
        table.append([dist[tree.leaf_for_point[q]] for q in range(n)])
    return table


@st.composite
def trees(draw):
    """Point hosts 0..n-1 plus Steiner hosts, as a star, a path or at random."""
    n = draw(st.integers(1, 9))
    hosts = n + draw(st.integers(0, 3))
    shape = draw(st.sampled_from(["random", "star", "path"]))
    lengths = st.sampled_from([0, 0, 1, 2, 7, 100])
    order = draw(st.permutations(range(hosts)))
    edges = []
    for i in range(1, hosts):
        if shape == "star":
            j = 0
        elif shape == "path":
            j = i - 1
        else:
            j = draw(st.integers(0, i - 1))
        edges.append((order[j], order[i], draw(lengths)))
    return tree_from_host_edges(n, edges)


@settings(deadline=None, max_examples=120)
@given(trees())
def test_tree_distance_and_table_match_bfs(tree):
    ref = bfs_table(tree)
    assert tree.leaf_distance_matrix() == ref
    n = tree.n_points
    assert [[tree.tree_distance(p, q) for q in range(n)] for p in range(n)] == ref
    instance = tree_metric(tree)
    assert [[instance.matrix[p][q] for q in range(n)] for p in range(n)] == ref
    assert instance.matrix is tree.leaf_distance_matrix()  # shared, not copied


@pytest.mark.parametrize(
    "build",
    [
        lambda: frt_embed(random_metric(40, Random(1)), Random(2)),
        lambda: random_recursive_tree(300, Random(3)),
        lambda: line_metric(300).tree,
        lambda: star_tree(300),
    ],
    ids=["frt-of-random-40", "random-300", "line-300", "star-300"],
)
def test_large_table_matches_bfs(build):
    # past the sizes drawn above: Steiner chains, long paths, wide merges
    tree = build()
    assert tree.leaf_distance_matrix() == bfs_table(tree)


@settings(deadline=None, max_examples=120)
@given(trees(), st.randoms(use_true_random=False))
def test_walk_length_is_the_distance_to_its_server(tree, rng):
    n = tree.n_points
    if n < 2:
        return  # one point is never occupied while a server is free
    ref = bfs_table(tree)
    free = set(rng.sample(range(n), rng.randint(1, n - 1)))
    below = free_below(tree, free)
    for request in sorted(set(range(n)) - free):
        server, length = tree_walk(tree, below, len(free), n, request, rng)
        assert server in free
        assert length == ref[request][server]


@settings(deadline=None, max_examples=120)
@given(trees(), st.randoms(use_true_random=False))
def test_split_match_step_costs_are_distances(tree, rng):
    n = tree.n_points
    ref = bfs_table(tree)
    decomp = split_decomposition(tree)
    for _ in range(3):
        stream = [rng.randrange(n) for _ in range(n)]
        res = run_episode_hier(decomp, stream, rng)
        assert res.step_costs == [ref[r][s] for r, s in res.assignments]


@pytest.mark.parametrize(
    "fields",
    [
        dict(metric_kind="random", metric_arg="12"),
        dict(metric_kind="line", metric_arg="9"),
        dict(metric_kind="random", metric_arg="12", algorithm="split-match"),
        dict(metric_kind="uniform", metric_arg="8", algorithm="fair-bias-on-frt"),
        dict(metric_kind="uniform", metric_arg="8", algorithm="fair-bias-on-frt",
             frt_mode="once"),
    ],
)
def test_tree_routes_build_no_distance_table(monkeypatch, fields):
    # the FRT routes run on a matrix metric, so the only trees are sampled ones
    def forbidden(self):
        raise AssertionError("a tree route built a distance table")

    monkeypatch.setattr(WeightedTree, "leaf_distance_matrix", forbidden)
    records, _ = run_trials(Scenario(trials=3, seed=5, **fields))
    assert len(records) == 3
    assert all(r.alg_cost >= r.opt_cost for r in records)
