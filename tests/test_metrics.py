from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from stochmatch import metrics
from stochmatch.bmatching import canonical_plan, scaling_identity_check, solve_min_cost
from stochmatch.fairbias import PlanProvider
from stochmatch.harness import Scenario, run_trials
from stochmatch.metrics import (
    MetricInstance,
    WeightedTree,
    check_matrix,
    dump_metric,
    frt_embed,
    gen_nonmetric_instance,
    line_metric,
    load_metric,
    matrix_metric,
    matrix_unchecked,
    random_metric,
    random_recursive_tree,
    star_tree,
    tree_from_host_edges,
    tree_metric,
    uniform_metric,
)
from stochmatch.transship import run_wrapped, solve_transshipment, uniform_distribution


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


# not symmetric and not a metric; at the request set (0, 4) its
# canonical plan is worth 22/5 and the optimum 43/10
NOT_A_METRIC = [
    [0, 19, 3, 20, 1],
    [16, 0, 9, 18, 8],
    [7, 16, 0, 18, 18],
    [16, 13, 5, 0, 8],
    [5, 17, 13, 1, 0],
]


class TestMetricValidation:
    def test_line_is_metric(self):
        assert not check_matrix(line_metric(6).matrix)

    def test_triangle_violation_found(self):
        bad = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        violations = check_matrix(bad)
        assert violations
        assert any(v.kind == "triangle" for v in violations)

    def test_symmetry_and_diagonal(self):
        kinds = {v.kind for v in check_matrix([[1, 2], [3, 0]])}
        assert "diagonal" in kinds
        assert "symmetry" in kinds

    def test_negative_distance(self):
        violations = check_matrix([[0, -1], [-1, 0]])
        assert any(v.kind == "negative" for v in violations)

    def test_triangle_report_is_one_entry_per_pair(self):
        # one Violation per violating triple made this O(n^3) in size
        rng = random.Random(3)
        n = 40
        bad = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                bad[i][j] = bad[j][i] = rng.randint(1, 100)
        triangles = [v for v in check_matrix(bad) if v.kind == "triangle"]
        pairs = {(v.indices[0], v.indices[2]) for v in triangles}
        assert len(triangles) == len(pairs) <= n * (n - 1)
        for v in triangles:
            i, k, j = v.indices
            assert bad[i][j] > bad[i][k] + bad[j][k]
            assert all(bad[i][j] <= bad[i][m] + bad[j][m] for m in range(k))

    def test_triangle_detail_reads_what_it_prints(self):
        # d(0,1) was read as row 1, column 0 but printed as d(0,1): the
        # printed sum was not the sum of the printed terms
        bad = [[0, 5, 1], [1, 0, 1], [1, 1, 0]]
        triangles = [v for v in check_matrix(bad) if v.kind == "triangle"]
        assert triangles
        for v in triangles:
            pairs = re.findall(r"d\((\d+),(\d+)\)", v.detail)
            d = [bad[int(a)][int(b)] for a, b in pairs]
            lhs, total = (int(x) for x in re.findall(r"=(\d+)", v.detail))
            assert lhs == d[0] > total == d[1] + d[2]
        assert triangles[0].detail == "d(0,1)=5 > d(0,2)+d(2,1)=2"

    def test_first_violation_names_the_first_witness(self):
        with pytest.raises(ValueError, match=r"triangle at \(0, 1, 2\)"):
            matrix_metric([[0, 1, 5], [1, 0, 1], [5, 1, 0]])

    def test_checked_constructor_raises(self):
        with pytest.raises(ValueError, match="not a metric"):
            matrix_metric([[0, 1, 5], [1, 0, 1], [5, 1, 0]])

    def test_unchecked_escape_hatch(self):
        inst = matrix_unchecked([[0, 9], [1, 0]])
        assert not inst.verified_metric
        assert inst.matrix[0][1] == 9

    @pytest.mark.parametrize("build", [matrix_metric, matrix_unchecked])
    def test_fractional_distances_rejected(self, build):
        # a checked metric in floats must not be stored truncated to ints
        with pytest.raises(ValueError, match="integers"):
            build([[0, 0.5, 1], [0.5, 0, 0.5], [1, 0.5, 0]])
        assert build([[0, 1.0], [1.0, 0]]).matrix == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("build", [matrix_metric, matrix_unchecked])
    @pytest.mark.parametrize(
        "table", [[[0, 1, 2], [1, 0, 2]], [[0, 1], [1]], [[0], []], []]
    )
    def test_non_square_tables_rejected(self, build, table):
        # a 2x3 table played full episodes; a ragged one raised IndexError
        with pytest.raises(ValueError, match="non-empty square table"):
            build(table)

    def test_uniform_metric(self):
        inst = uniform_metric(4, 3)
        assert inst.verified_metric
        assert inst.matrix[1][2] == 3
        assert inst.matrix[2][2] == 0

    def test_a_table_is_checked_at_construction(self):
        # MetricInstance(table, "matrix", verified_metric=True) marked this
        # table checked unread; its canonical plan (22/5) undercut the
        # optimum (43/10), and the fair-bias sampler drew from it
        inst = MetricInstance(NOT_A_METRIC)
        assert not inst.verified_metric
        assert inst.backing == "matrix"
        with pytest.raises(ValueError, match="checked metric"):
            canonical_plan(inst, (0, 4))
        assert solve_min_cost(inst, (0, 4)).value == Fraction(43, 10)
        with pytest.raises(TypeError):
            MetricInstance(NOT_A_METRIC, verified_metric=True)
        assert MetricInstance(line_metric(4).matrix).verified_metric

    @pytest.mark.parametrize(
        "table, first",
        [
            (NOT_A_METRIC, "symmetry at (0, 1) (19 != 16)"),
            ([[0, 1, 5], [1, 0, 1], [5, 1, 0]],
             "triangle at (0, 1, 2) (d(0,2)=5 > d(0,1)+d(1,2)=2)"),
            ([[0, 2, 1], [2, 0, 1], [1, 1, 0]], None),
        ],
    )
    def test_matrix_metric_refuses_exactly_the_unchecked_tables(
        self, table, first
    ):
        assert MetricInstance(table).verified_metric == (first is None)
        if first is None:
            assert matrix_metric(table).matrix == table
        else:
            message = re.escape(f"not a metric: {first}")
            with pytest.raises(ValueError, match=message):
                matrix_metric(table)

    def test_each_table_is_checked_once(self, monkeypatch, tmp_path):
        # check_matrix is O(n^3), the largest set-up cost on a table metric
        calls = []
        real = metrics.check_matrix

        def spy(matrix):
            calls.append(len(matrix))
            return real(matrix)

        monkeypatch.setattr(metrics, "check_matrix", spy)
        path = str(tmp_path / "m.txt")
        dump_metric(uniform_metric(4, 2), path)
        assert calls == [4]
        calls.clear()
        load_metric(path)
        assert calls == [4]
        table = line_metric(5).matrix
        for build in (matrix_metric, MetricInstance):
            calls.clear()
            build(table)
            assert calls == [5]
        calls.clear()
        matrix_unchecked(table)
        tree_metric(star_tree(3))
        line_metric(3)
        assert calls == []


def scan_frt_embed(instance, rng: random.Random) -> WeightedTree:
    """Reference embedding: scans the permutation per point per level.

    Same draws and clusters as ``frt_embed``; finds each point's center
    by the first-covering scan.
    """
    n, matrix = instance.n, instance.matrix
    diameter = max(max(row) for row in matrix)
    order = list(range(n))
    rng.shuffle(order)
    beta = 2.0 ** rng.random()
    top = 1
    while (1 << (top - 1)) < diameter:
        top += 1
    node_count, edges = 1, []
    current = [(list(range(n)), 0)]
    for level in range(top - 1, -1, -1):
        radius = beta * (1 << level) / 2.0
        nxt = []
        for members, node in current:
            groups: dict[int, list[int]] = {}
            for p in members:
                c = next(c for c in order if matrix[c][p] <= radius)
                groups.setdefault(c, []).append(p)
            for c in sorted(groups):
                edges.append((node, node_count, 1 << (level + 1)))
                nxt.append((groups[c], node_count))
                node_count += 1
        current = nxt
    leaf_for_point = {}
    for members, node in current:
        for p in members:
            edges.append((node, node_count, 0))
            leaf_for_point[p] = node_count
            node_count += 1
    return WeightedTree(node_count, edges, leaf_for_point)


class TestFrtEmbedding:
    def test_matches_the_permutation_scan(self):
        rng = random.Random(3)
        instances = [
            line_metric(256),
            tree_metric(random_recursive_tree(256, random.Random(4))),
            matrix_metric([[0]]),
            uniform_metric(5, 0),
            line_metric(4, 0),
        ] + [random_metric(rng.randint(2, 30), rng) for _ in range(60)]
        for inst in instances:
            for seed in range(3):
                got = frt_embed(inst, random.Random(seed))
                want = scan_frt_embed(inst, random.Random(seed))
                assert got.num_nodes == want.num_nodes
                assert got.edges == want.edges
                assert got.leaf_for_point == want.leaf_for_point

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
        assert inst.matrix[0][1] == 30

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

    @pytest.mark.parametrize("line", ["scale", "n 3 4", "kind line extra"])
    def test_header_line_must_be_key_value(self, tmp_path, line):
        # a bare key raised IndexError; extra tokens were ignored
        head = {"k": "kind line", "n": "n 3", "s": "scale 1"}
        head[line[0]] = line
        path = tmp_path / "m.txt"
        path.write_text("\n".join(head.values()) + "\n")
        with pytest.raises(ValueError, match=f"header line '{line}'"):
            load_metric(str(path))

    def test_line_file_with_a_body_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("kind line\nn 3\n0 1 5\n")
        with pytest.raises(ValueError, match="no body lines"):
            load_metric(str(path))

    @pytest.mark.parametrize("line", ["0 1", "0 1 5 9"])
    def test_tree_line_must_have_three_fields(self, tmp_path, line):
        # a short line leaked "not enough values to unpack"
        path = tmp_path / "m.txt"
        path.write_text(f"kind tree\nn 3\n0 2 4\n{line}  # an edge\n")
        with pytest.raises(ValueError, match=f"tree line '{line}'"):
            load_metric(str(path))

    @pytest.mark.parametrize("line", ["0 -1 2", "-1 0 2"])
    def test_negative_host_id_rejected(self, tmp_path, line):
        # a negative host indexed a degree from the end; the error then
        # blamed the node range or the edge count
        path = tmp_path / "m.txt"
        path.write_text(f"kind tree\nn 2\n{line}\n")
        with pytest.raises(ValueError) as err:
            load_metric(str(path))
        u, v, w = line.split()
        assert str(err.value) == f"edge ({u},{v},{w}) has a negative host id"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("kind line\nn abc\n", "header n: 'abc' is not an integer"),
            ("kind line\nn 3\nscale 1.5\n", "header scale: '1.5' is not an integer"),
            ("kind matrix\nn 2\n0 1\n1 x\n", "matrix row 1: 'x' is not an integer"),
            ("kind tree\nn 2\n0 1 4\n1 b 2\n", "tree line '1 b 2': 'b' is not an integer"),
            ("kind tree\nn 2\n0 1 4.5\n", "tree line '0 1 4.5': '4.5' is not an integer"),
        ],
        ids=["n", "scale", "matrix-entry", "tree-v", "tree-length"],
    )
    def test_bad_integer_names_its_key_or_line(self, tmp_path, text, message):
        # raised "invalid literal for int() with base 10" with no context
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_metric(str(path))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("kind matrix\nn 2\n0 1\n1 0 4\n", "matrix row 1 has 3 entries, expected 2"),
            ("kind matrix\nn 2\n0\n1 0\n", "matrix row 0 has 1 entries, expected 2"),
            ("kind line\nn 0\n", "header n: '0' must be >= 1"),
            ("kind matrix\nn -1\n", "header n: '-1' must be >= 1"),
            ("kind line\nn 3\nscale -2\n", "header scale: '-2' must be >= 0"),
            ("kind matrix\nn 2\nscale -1\n0 1\n1 0\n", "header scale: '-1' must be >= 0"),
            ("kind tree\nn 2\nscale -3\n0 1 4\n", "header scale: '-3' must be >= 0"),
        ],
        ids=[
            "long-row",
            "short-row",
            "n-zero",
            "n-negative",
            "scale-line",
            "scale-matrix",
            "scale-tree",
        ],
    )
    def test_bad_header_or_row_names_itself(self, tmp_path, text, message):
        # reported as "need a non-empty square table" or as the line
        # constructor's "need n >= 1 and spacing >= 0"
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_metric(str(path))
        assert str(err.value) == message

    @pytest.mark.parametrize("kind", ["line", "matrix", "tree"])
    def test_zero_scale_is_valid(self, tmp_path, kind):
        body = {"line": "", "matrix": "0 1\n1 0\n", "tree": "0 1 4\n"}[kind]
        path = tmp_path / "m.txt"
        path.write_text(f"kind {kind}\nn 2\nscale 0\n{body}")
        assert load_metric(str(path)).matrix == [[0, 0], [0, 0]]

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("kind blob\nn 2\n")
        with pytest.raises(ValueError, match="unknown metric kind"):
            load_metric(str(path))


def test_line_metric_values():
    inst = line_metric(5, spacing=2)
    assert inst.matrix[0][4] == 8
    assert inst.matrix[3][1] == 4
    assert inst.tree.tree_distance(0, 4) == 8


def test_random_recursive_tree_shape():
    rng = random.Random(9)
    tree = random_recursive_tree(12, rng)
    assert tree.n_points == 12
    assert sorted(tree.leaf_for_point) == list(range(12))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: WeightedTree(0, [], {}), "at least one node"),
        (lambda: WeightedTree(2, [(0, 2, 1)], {0: 1}), r"edge \(0,2\) out of range"),
        (lambda: WeightedTree(2, [(0, 1, 1)], {0: 5}), "leaf for point 0 out of range"),
        (lambda: line_metric(0), "need n >= 1"),
        (lambda: tree_from_host_edges(0, []), "need n >= 1"),
        (lambda: star_tree(1), "need n >= 2"),
        (lambda: random_recursive_tree(0, random.Random(0)), "need n >= 1"),
        (lambda: solve_min_cost(line_metric(3), {0: 0, 1: 2}), "must be positive"),
    ],
    ids=[
        "no-nodes", "edge-range", "leaf-range", "line-0", "host-edges-0",
        "star-1", "recursive-0", "zero-multiplicity",
    ],
)
def test_builders_refuse_degenerate_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_random_recursive_tree_refuses_before_any_draw():
    rng = random.Random(5)
    before = rng.getstate()
    with pytest.raises(ValueError, match="need n >= 1"):
        random_recursive_tree(0, rng)
    assert rng.getstate() == before


def nonmetric_cost(n: int, i: int, j: int) -> int:
    """The rule of gen_nonmetric_instance's docstring, for one pair."""
    big, half = 2 ** (n // 2), n // 2
    if i == j:
        return 0
    if {i, j} == {n - 2, n - 1}:
        return big
    if n - 2 in (i, j):  # expensive against the upper half
        return big if i + j - (n - 2) >= half else 1
    if n - 1 in (i, j):  # expensive against the lower half
        return big if i + j - (n - 1) < half else 1
    return 1


def test_nonmetric_table_follows_its_rule():
    for n in range(4, 41, 2):
        inst = gen_nonmetric_instance(n)
        assert not inst.verified_metric
        assert inst.matrix == [
            [nonmetric_cost(n, i, j) for j in range(n)] for i in range(n)
        ]


def _wrapped_on_unchecked():
    inst = gen_nonmetric_instance(4)
    plan = solve_transshipment(inst, uniform_distribution(4))
    run_wrapped(PlanProvider(inst), plan, [0, 1, 2, 3], random.Random(0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: canonical_plan(gen_nonmetric_instance(4), [0]),
        lambda: scaling_identity_check(gen_nonmetric_instance(4), [0]),
        lambda: frt_embed(gen_nonmetric_instance(4), random.Random(0)),
        _wrapped_on_unchecked,
        lambda: run_trials(Scenario("nonmetric", "4", "geometric", trials=1)),
        lambda: run_trials(
            Scenario("nonmetric", "4", algorithm="fair-bias-on-frt", trials=1)
        ),
    ],
    ids=[
        "canonical-plan", "scaling-identity", "frt-embed", "run-wrapped",
        "wrapped-runner", "embedding-runner",
    ],
)
def test_every_refusal_of_an_unchecked_instance_reads_the_same(call):
    with pytest.raises(ValueError, match="needs a checked metric$"):
        call()


def test_instance_repr_names_backing_and_check():
    assert repr(line_metric(3)) == "MetricInstance(n=3, backing=line, metric)"
    unchecked = matrix_unchecked([[0, 1], [1, 0]])
    assert repr(unchecked) == "MetricInstance(n=2, backing=matrix, unchecked)"
