"""Metric instances, weighted trees and the random tree embedding.

Points are integers 0..n-1.  Distances are non-negative integers (use a
fixed-point scale upstream if fractional lengths are needed).  Instances
remember whether they were built through the checked path; operations
that rely on the triangle inequality refuse unchecked instances.

Trees carry servers on leaves.  Hosts that would sit on internal nodes
are pushed onto zero-length pendant leaves, which preserves all
pairwise distances.  A ``WeightedTree`` roots itself at node 0 when it
is built; every tree solver, the online walk and split-match read those
rooted arrays from the tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

PointId = int


# ---------------------------------------------------------------------------
# weighted trees


class WeightedTree:
    """Undirected tree with integer edge lengths and servers on leaves.

    nodes are 0..num_nodes-1 and points are 0..n-1; ``leaf_for_point[p]``
    is the leaf hosting point p.  Every point maps to exactly one degree-1
    node (or to the root of a single-node tree).

    The tree is rooted once, at node 0, by one BFS: ``parent`` (-1 at the
    root), ``parent_len`` (length of the edge to the parent), ``order``
    (the BFS order, root first) and ``node_point`` (the point on each
    node, -1 where none sits).  ``size`` is built on first use.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: list[tuple[int, int, int]],
        leaf_for_point: dict[PointId, int],
    ):
        if num_nodes <= 0:
            raise ValueError("tree needs at least one node")
        if len(edges) != num_nodes - 1:
            raise ValueError("edge count must be num_nodes - 1")
        self.num_nodes = num_nodes
        self.edges = [(int(u), int(v), int(w)) for u, v, w in edges]
        if any(w != e[2] for (_, _, w), e in zip(edges, self.edges)):
            raise ValueError("edge lengths must be integers")
        self.leaf_for_point = dict(leaf_for_point)
        if set(self.leaf_for_point) != set(range(len(self.leaf_for_point))):
            raise ValueError("point ids must be exactly 0..n-1")
        self.adj: list[list[tuple[int, int, int]]] = [[] for _ in range(num_nodes)]
        for idx, (u, v, w) in enumerate(self.edges):
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge ({u},{v}) out of range")
            if w < 0:
                raise ValueError("edge lengths must be >= 0")
            self.adj[u].append((v, w, idx))
            self.adj[v].append((u, w, idx))
        parent = [-1] * num_nodes
        parent_len = [0] * num_nodes
        order = [0]
        parent[0] = 0
        for x in order:
            for y, w, _ in self.adj[x]:
                if parent[y] == -1:
                    parent[y] = x
                    parent_len[y] = w
                    order.append(y)
        parent[0] = -1
        if len(order) != num_nodes:
            raise ValueError("tree is not connected")
        self.parent = parent
        self.parent_len = parent_len
        self.order = order
        self.node_point = [-1] * num_nodes
        for p, leaf in self.leaf_for_point.items():
            if not (0 <= leaf < num_nodes):
                raise ValueError(f"leaf for point {p} out of range")
            if num_nodes > 1 and len(self.adj[leaf]) != 1:
                raise ValueError(f"point {p} is hosted on a non-leaf node")
            if self.node_point[leaf] >= 0:
                raise ValueError("two points mapped to the same leaf")
            self.node_point[leaf] = p
        self._matrix: list[list[int]] | None = None

    @property
    def n_points(self) -> int:
        return len(self.leaf_for_point)

    @cached_property
    def size(self) -> list[int]:
        """Number of points below each node, the node included."""
        size = [0] * self.num_nodes
        parent = self.parent
        node_point = self.node_point
        for x in reversed(self.order):
            if node_point[x] >= 0:
                size[x] += 1
            if parent[x] >= 0:
                size[parent[x]] += size[x]
        return size

    def node_distances_from(self, src: int) -> list[int]:
        dist = [-1] * self.num_nodes
        dist[src] = 0
        stack = [src]
        while stack:
            x = stack.pop()
            dx = dist[x]
            for y, w, _ in self.adj[x]:
                if dist[y] < 0:
                    dist[y] = dx + w
                    stack.append(y)
        return dist

    def leaf_distance_matrix(self) -> list[list[int]]:
        """Pairwise point distances; cached after the first call."""
        if self._matrix is None:
            n = self.n_points
            mat = [[0] * n for _ in range(n)]
            for p in range(n):
                dist = self.node_distances_from(self.leaf_for_point[p])
                row = mat[p]
                for q in range(n):
                    row[q] = dist[self.leaf_for_point[q]]
            self._matrix = mat
        return self._matrix

    def tree_distance(self, p: PointId, q: PointId) -> int:
        if p not in self.leaf_for_point or q not in self.leaf_for_point:
            raise KeyError(f"unmapped point in ({p}, {q})")
        return self.leaf_distance_matrix()[p][q]


@dataclass(frozen=True)
class EdgeCut:
    """One tree edge together with its smaller side of points."""

    edge_index: int
    u: int
    v: int
    length: int
    n_e: int
    side_points: frozenset[PointId]


def edge_cuts(tree: WeightedTree) -> list[EdgeCut]:
    """Cut structure of every edge; n_e is always the smaller side (<= n/2)."""
    parent = tree.parent
    # subtree point sets bottom-up
    below: list[set[PointId]] = [set() for _ in range(tree.num_nodes)]
    for node in reversed(tree.order):
        p = tree.node_point[node]
        if p >= 0:
            below[node].add(p)
        if parent[node] >= 0:
            below[parent[node]] |= below[node]
    cuts = []
    for idx, (u, v, w) in enumerate(tree.edges):
        child = v if parent[v] == u else u
        side = below[child]
        other = len(tree.leaf_for_point) - len(side)
        if len(side) < other or (len(side) == other and 0 in side):
            chosen = side
        else:
            chosen = {p for p in tree.leaf_for_point if p not in side}
        cuts.append(EdgeCut(idx, u, v, w, len(chosen), frozenset(chosen)))
    return cuts


# ---------------------------------------------------------------------------
# metric instances


@dataclass(frozen=True)
class Violation:
    kind: str  # "triangle" | "symmetry" | "diagonal" | "negative"
    indices: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class MetricReport:
    n: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class MetricInstance:
    """n points with an integer distance matrix.

    backing is "matrix", "line" or "tree"; tree/line instances expose a
    WeightedTree view used by the tree-aware solvers.  verified_metric
    records whether the instance came through the checked constructor.
    Negative entries are rejected for every instance: the exact solvers
    need non-negative costs.
    """

    def __init__(
        self,
        matrix: list[list[int]],
        backing: str,
        *,
        tree: WeightedTree | None = None,
        verified_metric: bool,
        scale: int = 1,
    ):
        self.n = len(matrix)
        self.matrix = [list(map(int, row)) for row in matrix]
        if any(a != list(b) for a, b in zip(self.matrix, matrix)):
            raise ValueError("distances must be integers")
        if any(min(row) < 0 for row in self.matrix if row):
            raise ValueError("distances must be >= 0")
        self.backing = backing
        self._tree = tree
        self.verified_metric = verified_metric
        self.scale = scale

    def dist(self, i: PointId, j: PointId) -> int:
        return self.matrix[i][j]

    @property
    def tree(self) -> WeightedTree | None:
        return self._tree

    def __repr__(self) -> str:
        flag = "metric" if self.verified_metric else "unchecked"
        return f"MetricInstance(n={self.n}, backing={self.backing}, {flag})"


def check_matrix(matrix: list[list[int]]) -> list[Violation]:
    n = len(matrix)
    out: list[Violation] = []
    for i in range(n):
        if len(matrix[i]) != n:
            raise ValueError("matrix is not square")
        if matrix[i][i] != 0:
            out.append(Violation("diagonal", (i,), f"d({i},{i})={matrix[i][i]}"))
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] < 0 or matrix[j][i] < 0:
                out.append(Violation("negative", (i, j), "negative distance"))
            if matrix[i][j] != matrix[j][i]:
                out.append(
                    Violation(
                        "symmetry", (i, j), f"{matrix[i][j]} != {matrix[j][i]}"
                    )
                )
    for i in range(n):
        row_i = matrix[i]
        for j in range(n):
            dij = row_i[j]
            row_j = matrix[j]
            for k in range(n):
                if dij > row_i[k] + row_j[k]:
                    out.append(
                        Violation(
                            "triangle",
                            (i, k, j),
                            f"d({i},{j})={dij} > d({i},{k})+d({k},{j})"
                            f"={row_i[k] + row_j[k]}",
                        )
                    )
    return out


def validate_metric(obj: MetricInstance | list[list[int]]) -> MetricReport:
    matrix = obj.matrix if isinstance(obj, MetricInstance) else obj
    violations = check_matrix(matrix)
    return MetricReport(len(matrix), tuple(violations))


def matrix_metric(matrix: list[list[int]]) -> MetricInstance:
    """Checked constructor: raises on the first metric violation."""
    report = validate_metric(matrix)
    if not report.ok:
        v = report.violations[0]
        raise ValueError(f"not a metric: {v.kind} at {v.indices} ({v.detail})")
    return MetricInstance(matrix, "matrix", verified_metric=True)


def matrix_unchecked(matrix: list[list[int]]) -> MetricInstance:
    """Explicit escape hatch for cost structures that are not metrics."""
    return MetricInstance(matrix, "matrix", verified_metric=False)


def line_metric(n: int, spacing: int = 1) -> MetricInstance:
    if n < 1 or spacing < 0:
        raise ValueError("need n >= 1 and spacing >= 0")
    matrix = [[spacing * abs(i - j) for j in range(n)] for i in range(n)]
    tree = tree_from_host_edges(
        n, [(i, i + 1, spacing) for i in range(n - 1)]
    )
    return MetricInstance(
        matrix, "line", tree=tree, verified_metric=True, scale=spacing
    )


def tree_metric(tree: WeightedTree) -> MetricInstance:
    return MetricInstance(
        tree.leaf_distance_matrix(), "tree", tree=tree, verified_metric=True
    )


def uniform_metric(n: int, c: int = 1) -> MetricInstance:
    matrix = [[0 if i == j else c for j in range(n)] for i in range(n)]
    return MetricInstance(matrix, "matrix", verified_metric=True)


def tree_from_host_edges(
    n: int, host_edges: list[tuple[int, int, int]]
) -> WeightedTree:
    """Build a server-on-leaves tree from edges over host nodes 0..N-1.

    Hosts 0..n-1 carry the points.  Hosts that end up internal get a
    zero-length pendant leaf so the point sits on a leaf; distances are
    unchanged.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    num_hosts = n
    for u, v, _ in host_edges:
        num_hosts = max(num_hosts, u + 1, v + 1)
    degree = [0] * num_hosts
    for u, v, _ in host_edges:
        degree[u] += 1
        degree[v] += 1
    edges = list(host_edges)
    leaf_for_point: dict[PointId, int] = {}
    next_node = num_hosts
    for p in range(n):
        if degree[p] <= 1:
            leaf_for_point[p] = p
        else:
            edges.append((p, next_node, 0))
            leaf_for_point[p] = next_node
            next_node += 1
    return WeightedTree(next_node, edges, leaf_for_point)


def star_tree(n: int, arm: int = 1) -> WeightedTree:
    """Star with n leaves at distance arm from the hub."""
    if n < 2:
        raise ValueError("need n >= 2")
    edges = [(n, p, arm) for p in range(n)]
    return WeightedTree(n + 1, edges, {p: p for p in range(n)})


def random_recursive_tree(
    n: int, rng: random.Random, max_len: int = 100
) -> WeightedTree:
    """Uniform random recursive tree on n hosts, lengths uniform in [1, max_len]."""
    if n < 1:
        raise ValueError("need n >= 1")
    host_edges = []
    for i in range(1, n):
        parent = rng.randrange(i)
        host_edges.append((parent, i, rng.randint(1, max_len)))
    return tree_from_host_edges(n, host_edges)


# ---------------------------------------------------------------------------
# random low-stretch tree embedding


def frt_embed(instance: MetricInstance, rng: random.Random) -> WeightedTree:
    """Sample a random hierarchical tree whose distances dominate the metric.

    Random permutation plus a log-uniform radius multiplier beta in
    [1, 2); level-l clusters collect points within beta * 2^(l-1) of the
    first permutation center that covers them.  Child edges at level l
    have length 2^(l+1), which makes tree distances >= metric distances
    for every pair (checked property, not just expected), while the
    expected stretch stays logarithmic in n.
    """
    if not instance.verified_metric:
        raise ValueError("embedding requires a checked metric instance")
    n = instance.n
    if n == 1:
        return WeightedTree(1, [], {0: 0})
    matrix = instance.matrix
    diameter = max(max(row) for row in matrix)
    if diameter == 0:
        edges = [(n, p, 0) for p in range(n)]
        return WeightedTree(n + 1, edges, {p: p for p in range(n)})
    order = list(range(n))
    rng.shuffle(order)
    beta = 2.0 ** rng.random()
    top = 1
    while (1 << (top - 1)) < diameter:
        top += 1
    # cluster tree: clusters[level] maps cluster key -> member list
    node_count = 1
    edges = []
    # (members, tree node id) at the current level
    current = [(list(range(n)), 0)]
    for level in range(top - 1, -1, -1):
        radius = beta * (1 << level) / 2.0
        nxt = []
        for members, node in current:
            groups: dict[int, list[int]] = {}
            for p in members:
                for c in order:
                    if matrix[c][p] <= radius:
                        groups.setdefault(c, []).append(p)
                        break
            for c in sorted(groups):
                child = node_count
                node_count += 1
                edges.append((node, child, 1 << (level + 1)))
                nxt.append((groups[c], child))
        current = nxt
    leaf_for_point: dict[PointId, int] = {}
    for members, node in current:
        for p in members:
            leaf = node_count
            node_count += 1
            edges.append((node, leaf, 0))
            leaf_for_point[p] = leaf
    return WeightedTree(node_count, edges, leaf_for_point)


# ---------------------------------------------------------------------------
# file format


def load_metric(path: str) -> MetricInstance:
    """Read a metric file: a kind/n/scale header then rows or edges.

    kind matrix: n rows of n integers, each multiplied by scale.
    kind line:   distance scale * |i - j|, no body.
    kind tree:   lines "u v length"; hosts 0..n-1 carry the points.
    """
    header: dict[str, str] = {}
    body = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            t = raw.split("#", 1)[0].split()
            if not t:
                continue
            if t[0] not in ("kind", "n", "scale"):
                body.append(t)
            elif t[0] in header:
                raise ValueError(f"duplicate header line {t[0]!r}")
            else:
                header[t[0]] = t[1]
    if "kind" not in header or "n" not in header:
        raise ValueError("metric file needs kind and n header lines")
    kind = header["kind"]
    n = int(header["n"])
    scale = int(header.get("scale", 1))
    if kind == "line":
        if body:
            raise ValueError("a kind line metric file takes no body lines")
        return line_metric(n, scale)
    if kind == "matrix":
        if len(body) != n:
            raise ValueError(f"expected {n} matrix rows, got {len(body)}")
        matrix = [[scale * int(x) for x in row] for row in body]
        report = validate_metric(matrix)
        if report.ok:
            return MetricInstance(matrix, "matrix", verified_metric=True)
        return matrix_unchecked(matrix)
    if kind == "tree":
        host_edges = [(int(u), int(v), scale * int(w)) for u, v, w in body]
        tree = tree_from_host_edges(n, host_edges)
        return tree_metric(tree)
    raise ValueError(f"unknown metric kind {kind!r}")


def dump_metric(instance: MetricInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if instance.backing == "line":
            fh.write(f"kind line\nn {instance.n}\nscale {instance.scale}\n")
            return
        if instance.backing == "tree" and instance.tree is not None:
            tree = instance.tree
            fh.write(f"kind tree\nn {instance.n}\nscale 1\n")
            # leaves keep their point ids, internal nodes renumber upward
            names: dict[int, int] = {}
            for p, leaf in tree.leaf_for_point.items():
                names[leaf] = p
            nxt = instance.n
            for node in range(tree.num_nodes):
                if node not in names:
                    names[node] = nxt
                    nxt += 1
            for u, v, w in tree.edges:
                fh.write(f"{names[u]} {names[v]} {w}\n")
            return
        fh.write(f"kind matrix\nn {instance.n}\nscale 1\n")
        for row in instance.matrix:
            fh.write(" ".join(str(x) for x in row) + "\n")
