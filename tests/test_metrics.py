from __future__ import annotations

import random

import pytest

from stochmatch.metrics import (
    WeightedTree,
    dump_metric,
    edge_cuts,
    frt_embed,
    line_metric,
    load_metric,
    matrix_metric,
    matrix_unchecked,
    random_recursive_tree,
    star_tree,
    tree_from_host_edges,
    tree_metric,
    uniform_metric,
    validate_metric,
)


def brute_tree_distance(tree: WeightedTree, a: int, b: int) -> int:
    """Independent distance oracle: BFS over the adjacency lists."""
    src = tree.leaf_for_point[a]
    dst = tree.leaf_for_point[b]
    dist = {src: 0}
    queue = [src]
    while queue:
        x = queue.pop()
        for y, w, _ in tree.adj[x]:
            if y not in dist:
                dist[y] = dist[x] + w
                queue.append(y)
    return dist[dst]


class TestWeightedTree:
    def test_single_node(self):
        tree = WeightedTree(1, [], {0: 0})
        assert tree.n_points == 1
        assert tree.tree_distance(0, 0) == 0

    def test_path_distances(self):
        tree = tree_from_host_edges(3, [(0, 1, 2), (1, 2, 5)])
        assert tree.tree_distance(0, 2) == 7
        assert tree.tree_distance(2, 0) == 7
        assert tree.tree_distance(0, 1) == 2

    def test_internal_host_gets_pendant_leaf(self):
        # host 1 is internal on the path, so its point moves to a
        # zero-length pendant; distances must not change
        tree = tree_from_host_edges(3, [(0, 1, 2), (1, 2, 5)])
        leaf = tree.leaf_for_point[1]
        assert len(tree.adj[leaf]) == 1
        assert tree.tree_distance(1, 0) == 2
        assert tree.tree_distance(1, 2) == 5

    def test_edge_count_validation(self):
        with pytest.raises(ValueError, match="edge count"):
            WeightedTree(3, [(0, 1, 1)], {0: 0})

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            WeightedTree(4, [(0, 1, 1), (0, 1, 2), (2, 3, 1)], {0: 0})

    def test_point_on_internal_node_rejected(self):
        with pytest.raises(ValueError, match="non-leaf"):
            WeightedTree(3, [(0, 1, 1), (1, 2, 1)], {0: 1})

    def test_duplicate_leaf_rejected(self):
        with pytest.raises(ValueError, match="same leaf"):
            WeightedTree(3, [(0, 1, 1), (0, 2, 1)], {0: 1, 1: 1})

    @pytest.mark.parametrize("points", [{0: 1, 2: 2}, {1: 1, 2: 2}])
    def test_point_ids_must_be_zero_to_n(self, points):
        with pytest.raises(ValueError, match="0..n-1"):
            WeightedTree(3, [(0, 1, 1), (0, 2, 1)], points)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            WeightedTree(2, [(0, 1, -3)], {0: 0, 1: 1})

    def test_fractional_length_rejected(self):
        # int() would have truncated 1.5 to 1
        with pytest.raises(ValueError, match="integers"):
            WeightedTree(2, [(0, 1, 1.5)], {0: 0, 1: 1})
        assert WeightedTree(2, [(0, 1, 2.0)], {0: 0, 1: 1}).edges == [(0, 1, 2)]

    def test_unmapped_point_distance_raises(self):
        tree = star_tree(3)
        with pytest.raises(KeyError):
            tree.tree_distance(0, 7)

    def test_matrix_matches_bfs_oracle(self):
        rng = random.Random(11)
        for _ in range(20):
            tree = random_recursive_tree(rng.randint(2, 10), rng)
            n = tree.n_points
            for a in range(n):
                for b in range(n):
                    assert tree.tree_distance(a, b) == brute_tree_distance(
                        tree, a, b
                    )


class TestEdgeCuts:
    def test_line_four_points(self):
        inst = line_metric(4)
        cuts = edge_cuts(inst.tree)
        # five edges: the three path segments plus two zero-length
        # pendants for the internal hosts; middle cut ties at 2 vs 2
        # and keeps the side holding point 0
        sizes = sorted(c.n_e for c in cuts)
        assert sizes == [1, 1, 1, 1, 2]
        for cut in cuts:
            assert cut.n_e == len(cut.side_points)
            assert cut.n_e <= 2
        two = next(c for c in cuts if c.n_e == 2)
        assert two.side_points == frozenset({0, 1})

    def test_star_cuts_are_singletons(self):
        cuts = edge_cuts(star_tree(5, arm=3))
        assert all(c.n_e == 1 for c in cuts)
        assert {next(iter(c.side_points)) for c in cuts} == set(range(5))


class TestMetricValidation:
    def test_line_is_metric(self):
        assert validate_metric(line_metric(6).matrix).ok

    def test_triangle_violation_found(self):
        bad = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        report = validate_metric(bad)
        assert not report.ok
        assert any(v.kind == "triangle" for v in report.violations)

    def test_symmetry_and_diagonal(self):
        report = validate_metric([[1, 2], [3, 0]])
        kinds = {v.kind for v in report.violations}
        assert "diagonal" in kinds
        assert "symmetry" in kinds

    def test_negative_distance(self):
        report = validate_metric([[0, -1], [-1, 0]])
        assert any(v.kind == "negative" for v in report.violations)

    def test_checked_constructor_raises(self):
        with pytest.raises(ValueError, match="not a metric"):
            matrix_metric([[0, 1, 5], [1, 0, 1], [5, 1, 0]])

    def test_unchecked_escape_hatch(self):
        inst = matrix_unchecked([[0, 9], [1, 0]])
        assert not inst.verified_metric
        assert inst.dist(0, 1) == 9

    @pytest.mark.parametrize("build", [matrix_metric, matrix_unchecked])
    def test_fractional_distances_rejected(self, build):
        # a checked metric in floats must not be stored truncated to ints
        with pytest.raises(ValueError, match="integers"):
            build([[0, 0.5, 1], [0.5, 0, 0.5], [1, 0.5, 0]])
        assert build([[0, 1.0], [1.0, 0]]).matrix == [[0, 1], [1, 0]]

    def test_uniform_metric(self):
        inst = uniform_metric(4, 3)
        assert inst.verified_metric
        assert inst.dist(1, 2) == 3
        assert inst.dist(2, 2) == 0


class TestFrtEmbedding:
    def test_refuses_unchecked(self):
        with pytest.raises(ValueError, match="checked"):
            frt_embed(matrix_unchecked([[0, 2], [2, 0]]), random.Random(0))

    def test_single_point(self):
        tree = frt_embed(matrix_metric([[0]]), random.Random(0))
        assert tree.n_points == 1

    def test_zero_diameter(self):
        tree = frt_embed(matrix_metric([[0, 0], [0, 0]]), random.Random(0))
        assert tree.tree_distance(0, 1) == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_dominance_exact_line(self, seed):
        inst = line_metric(9, spacing=3)
        tree = frt_embed(inst, random.Random(seed))
        for i in range(9):
            for j in range(9):
                assert tree.tree_distance(i, j) >= inst.matrix[i][j]

    @pytest.mark.parametrize("seed", range(8))
    def test_dominance_exact_random_metric(self, seed):
        from stochmatch.harness import random_metric

        rng = random.Random(100 + seed)
        inst = random_metric(rng.randint(2, 12), rng)
        tree = frt_embed(inst, random.Random(seed))
        n = inst.n
        for i in range(n):
            for j in range(n):
                assert tree.tree_distance(i, j) >= inst.matrix[i][j]

    def test_all_points_mapped(self):
        inst = uniform_metric(7, 4)
        tree = frt_embed(inst, random.Random(5))
        assert sorted(tree.leaf_for_point) == list(range(7))


class TestFileFormat:
    def test_matrix_round_trip(self, tmp_path):
        inst = uniform_metric(3, 2)
        path = tmp_path / "m.txt"
        dump_metric(inst, str(path))
        back = load_metric(str(path))
        assert back.matrix == inst.matrix
        assert back.verified_metric

    def test_line_round_trip(self, tmp_path):
        path = tmp_path / "line.txt"
        dump_metric(line_metric(5, 4), str(path))
        back = load_metric(str(path))
        assert back.backing == "line"
        assert back.matrix[0][4] == 16
        assert back.tree is not None

    def test_tree_round_trip(self, tmp_path):
        tree = random_recursive_tree(6, random.Random(2))
        inst = tree_metric(tree)
        path = tmp_path / "tree.txt"
        dump_metric(inst, str(path))
        back = load_metric(str(path))
        assert back.matrix == inst.matrix
        assert back.tree is not None

    def test_comments_and_scale(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(
            "# a 2x2 matrix\nkind matrix\nn 2\nscale 10\n0 3  # row 0\n3 0\n"
        )
        inst = load_metric(str(path))
        assert inst.dist(0, 1) == 30

    def test_nonmetric_file_loads_unchecked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("kind matrix\nn 3\n0 1 9\n1 0 1\n9 1 0\n")
        inst = load_metric(str(path))
        assert not inst.verified_metric

    def test_missing_header(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0 1\n1 0\n")
        with pytest.raises(ValueError, match="header"):
            load_metric(str(path))

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("kind matrix\nn 3\n0 1 1\n1 0 1\n")
        with pytest.raises(ValueError, match="rows"):
            load_metric(str(path))

    @pytest.mark.parametrize("key", ["kind", "n", "scale"])
    def test_repeated_header_line_rejected(self, tmp_path, key):
        lines = {"kind": "kind line", "n": "n 3", "scale": "scale 2"}
        path = tmp_path / "m.txt"
        path.write_text("\n".join([*lines.values(), lines[key]]) + "\n")
        with pytest.raises(ValueError, match=f"duplicate header line '{key}'"):
            load_metric(str(path))

    def test_line_file_with_a_body_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("kind line\nn 3\n0 1 5\n")
        with pytest.raises(ValueError, match="no body lines"):
            load_metric(str(path))

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("kind blob\nn 2\n")
        with pytest.raises(ValueError, match="unknown metric kind"):
            load_metric(str(path))


def test_line_metric_values():
    inst = line_metric(5, spacing=2)
    assert inst.dist(0, 4) == 8
    assert inst.dist(3, 1) == 4
    assert inst.tree.tree_distance(0, 4) == 8


def test_random_recursive_tree_shape():
    rng = random.Random(9)
    tree = random_recursive_tree(12, rng)
    assert tree.n_points == 12
    assert sorted(tree.leaf_for_point) == list(range(12))
