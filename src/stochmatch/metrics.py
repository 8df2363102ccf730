"""Metric instances, weighted trees and the random tree embedding.

Points are integers 0..n-1.  Distances are non-negative integers (use a
fixed-point scale upstream if fractional lengths are needed).  Inputs are
checked here: ``_integers`` converts table rows and tree edges, and
``_at_least`` refuses a size, count, rank or seed below its floor or not
an integer.  Whether an instance is a checked metric is a fact of its
construction: a tree instance is one, and a table is one exactly when the
``check_matrix`` pass that every table gets at construction finds no violation.
``matrix_unchecked`` is the one way to skip that pass; the
``gen_nonmetric_instance`` table uses it.  Operations that rely on the
triangle inequality refuse an unchecked instance through the one
refusal, ``MetricInstance.require_metric``: "<use> needs a checked metric".

Trees carry servers on leaves.  Hosts that would sit on internal nodes
are pushed onto zero-length pendant leaves, which preserves all
pairwise distances.  A ``WeightedTree`` roots itself at node 0 when it
is built; the online walk and split-match read those rooted arrays from
the tree.  On a tree, optimal transport has one edge flow: the walk
samples it, and ``WeightedTree.imbalance_cost`` prices it, the one
closed form behind every tree optimum (the offline optimum and the
value of a free set's plan).

Tree and line instances build no distance table up front: the tree
routes price their steps on the tree itself, and ``matrix`` is built
on its first read by ``WeightedTree.leaf_distance_matrix``, one
bottom-up merge of the points below each node, for the callers that
need the table (the explicit plan solvers, the verifiers, the wrapped
route, the general offline optimum and the embedding).
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterator
from functools import cached_property
from operator import add, index

PointId = int


def _integers(values, where: str) -> tuple[int, ...]:
    """``values`` as ints: 2.0 converts, and 1.7 or "1" is a ValueError naming ``where``."""
    try:
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != tuple(values):
        raise ValueError(f"{where} {tuple(values)!r} is not all integers")
    return ints


def _at_least(name: str, value: int, floor: int) -> None:
    """The one refusal of a size, count, rank or seed that is no integer or below ``floor``."""
    try:
        index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if value < floor:
        raise ValueError(f"{name} must be >= {floor}")


# ---------------------------------------------------------------------------
# weighted trees


class WeightedTree:
    """Undirected tree with integer edge lengths and servers on leaves.

    nodes are 0..num_nodes-1 and points are 0..n-1; ``leaf_for_point[p]``
    is the leaf hosting point p.  Every point maps to exactly one degree-1
    node (or to the root of a single-node tree).

    The tree is rooted once, at node 0, by one BFS: ``parent`` (-1 at the
    root), ``parent_len`` (length of the edge to the parent), ``children``
    (each node's children in the order its edges are listed), ``order``
    (the BFS order, root first) and ``node_point`` (the point on each
    node, -1 where none sits).  ``size`` and ``depth`` are built on
    first use.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: list[tuple[int, int, int]],
        leaf_for_point: dict[PointId, int],
    ):
        _at_least("num_nodes", num_nodes, 1)
        if len(edges) != num_nodes - 1:
            raise ValueError("edge count must be num_nodes - 1")
        self.num_nodes = num_nodes
        self.edges = [_integers(e, "edge") for e in edges]
        self.leaf_for_point = dict(
            _integers(pair, "point and leaf") for pair in leaf_for_point.items()
        )
        if set(self.leaf_for_point) != set(range(len(self.leaf_for_point))):
            raise ValueError("point ids must be exactly 0..n-1")
        adj: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
        for u, v, w in self.edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge ({u},{v}) out of range")
            if w < 0:
                raise ValueError("edge lengths must be >= 0")
            adj[u].append((v, w))
            adj[v].append((u, w))
        parent = [-1] * num_nodes
        parent_len = [0] * num_nodes
        children: list[list[int]] = [[] for _ in range(num_nodes)]
        order = [0]
        parent[0] = 0
        for x in order:
            for y, w in adj[x]:
                if parent[y] == -1:
                    parent[y] = x
                    parent_len[y] = w
                    children[x].append(y)
                    order.append(y)
        parent[0] = -1
        if len(order) != num_nodes:
            raise ValueError("tree is not connected")
        self.parent = parent
        self.parent_len = parent_len
        self.children = children
        self.order = order
        self.node_point = [-1] * num_nodes
        for p, leaf in self.leaf_for_point.items():
            if not (0 <= leaf < num_nodes):
                raise ValueError(f"leaf for point {p} out of range")
            if num_nodes > 1 and len(adj[leaf]) != 1:
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

    @cached_property
    def depth(self) -> list[int]:
        """Distance from the root to each node."""
        depth = [0] * self.num_nodes
        parent, parent_len = self.parent, self.parent_len
        for x in self.order[1:]:
            depth[x] = depth[parent[x]] + parent_len[x]
        return depth

    def imbalance_cost(self, counts, a: int, b: int) -> int:
        """Sum over edges of len_e * |a * (counts below e) - b * (points below e)|.

        ``counts`` maps points to multiplicities.  This is the cost of the
        tree's one optimal edge flow that ships a * counts[p] units out of
        every point p and b into each; both totals must agree, else the
        imbalance reaching the root raises.
        """
        parent = self.parent
        parent_len = self.parent_len
        order = self.order
        bal = [0] * self.num_nodes  # per node: a * counts - b * points below
        for p, leaf in self.leaf_for_point.items():
            bal[leaf] = a * counts.get(p, 0) - b
        total = 0
        for i in range(len(order) - 1, 0, -1):  # bottom-up, the root last
            x = order[i]
            v = bal[x]
            if v:
                total += parent_len[x] * (v if v > 0 else -v)
                bal[parent[x]] += v
        if bal[order[0]]:
            raise RuntimeError("supply and demand must balance at the root")
        return total

    def leaf_distance_matrix(self) -> list[list[int]]:
        """Pairwise point distances, built in one pass; cached after the first call.

        Bottom up, a child's (point, depth) pairs merge into its parent's,
        the shorter list into the longer: a pair across the two first
        meets at the parent x, so its distance is dp + dq - 2 * depth[x].
        """
        if self._matrix is None:
            n, parent, depth = self.n_points, self.parent, self.depth
            below = [[] for _ in range(self.num_nodes)]  # (point, depth) pairs
            for p, leaf in self.leaf_for_point.items():
                below[leaf] = [(p, depth[leaf])]
            mat = [[0] * n for _ in range(n)]
            for x in reversed(self.order[1:]):
                up = parent[x]
                mine, theirs = below[x], below[up]
                if len(mine) > len(theirs):
                    mine, theirs = theirs, mine
                    below[up] = theirs
                top = 2 * depth[up]
                low = [(p, dp - top) for p, dp in mine]
                # one row at a time: the shorter side's rows, then the other's
                for p, e in low:
                    row = mat[p]
                    for q, dq in theirs:
                        row[q] = e + dq
                for q, dq in theirs:
                    row = mat[q]
                    for p, e in low:
                        row[p] = e + dq
                theirs += mine
            self._matrix = mat
        return self._matrix

    def tree_distance(self, p: PointId, q: PointId) -> int:
        """Distance between points p and q by a parent walk; no table."""
        leaf_for_point = self.leaf_for_point
        if p not in leaf_for_point or q not in leaf_for_point:
            raise KeyError(f"unmapped point in ({p}, {q})")
        parent, depth = self.parent, self.depth
        a, b = leaf_for_point[p], leaf_for_point[q]
        above_a = set()
        x = a
        while x >= 0:
            above_a.add(x)
            x = parent[x]
        x = b
        while x not in above_a:
            x = parent[x]
        return depth[a] + depth[b] - 2 * depth[x]


# ---------------------------------------------------------------------------
# metric instances


class MetricInstance:
    """n points with an integer distance table, given as a table or a tree.

    ``tree`` and ``verified_metric`` are worked out here, not passed in.
    A tree instance (``tree`` set) is a metric by construction; its
    ``matrix`` is the tree's ``leaf_distance_matrix``, built on the first
    read and shared with the tree, not copied.  A table (``tree`` None)
    is copied, must hold non-negative integers, and is a checked metric
    exactly when one ``check_matrix`` pass finds no violation, whose text
    ``matrix_metric`` raises; ``matrix_unchecked`` skips that pass
    (``_check=False``) and leaves the instance unchecked.
    """

    def __init__(
        self, metric: list[list[int]] | WeightedTree, *, _check: bool = True
    ):
        if isinstance(metric, WeightedTree):
            self.n = metric.n_points
            self.tree: WeightedTree | None = metric
            self.verified_metric = True
            return
        self.n = square_size(metric)
        self.tree = None
        self.matrix = [
            list(_integers(row, f"matrix row {i}")) for i, row in enumerate(metric)
        ]
        if any(min(row) < 0 for row in self.matrix):
            raise ValueError("distances must be >= 0")
        self._violation = check_matrix(self.matrix) if _check else None
        self.verified_metric = _check and self._violation is None

    @cached_property
    def matrix(self) -> list[list[int]]:
        """The distance table; a tree instance builds it on first read."""
        return self.tree.leaf_distance_matrix()

    def require_metric(self, use: str) -> None:
        """Refuse an unchecked instance: ValueError "<use> needs a checked metric"."""
        if not self.verified_metric:
            raise ValueError(f"{use} needs a checked metric")

    def __repr__(self) -> str:
        backing = "matrix" if self.tree is None else "tree"
        flag = "metric" if self.verified_metric else "unchecked"
        return f"MetricInstance(n={self.n}, backing={backing}, {flag})"


def square_size(table) -> int:
    """Side of a non-empty square table; ValueError for any other shape."""
    n = len(table)
    if not n or any(len(row) != n for row in table):
        raise ValueError("need a non-empty square table")
    return n


def check_matrix(matrix: list[list[int]]) -> str | None:
    """The first metric violation, "<kind> at <indices> (<detail>)", or None.

    The scan reads the diagonal, each pair's sign and symmetry, then each
    (i, j) in row-major order for its first triangle witness k.
    """
    n = square_size(matrix)
    for i in range(n):
        if matrix[i][i] != 0:
            return f"diagonal at {(i,)} (d({i},{i})={matrix[i][i]})"
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] < 0 or matrix[j][i] < 0:
                return f"negative at {(i, j)} (negative distance)"
            if matrix[i][j] != matrix[j][i]:
                return f"symmetry at {(i, j)} ({matrix[i][j]} != {matrix[j][i]})"
    for i in range(n):
        row_i = matrix[i]
        for j in range(n):
            dij = row_i[j]
            row_j = matrix[j]  # row_j[k] = d(k, j): the table is symmetric here
            if dij > min(map(add, row_i, row_j)):
                k = next(k for k in range(n) if dij > row_i[k] + row_j[k])
                return (
                    f"triangle at {(i, k, j)} (d({i},{j})={dij} > "
                    f"d({i},{k})+d({k},{j})={row_i[k] + row_j[k]})"
                )
    return None


def matrix_metric(matrix: list[list[int]]) -> MetricInstance:
    """Checked constructor: raises on the first metric violation."""
    instance = MetricInstance(matrix)
    if not instance.verified_metric:
        raise ValueError(f"not a metric: {instance._violation}")
    return instance


def matrix_unchecked(matrix: list[list[int]]) -> MetricInstance:
    """Explicit escape hatch for cost structures that are not metrics.

    The table is not checked, so the instance is unchecked even when the
    table happens to be a metric: its plans are full min-cost plans.
    """
    return MetricInstance(matrix, _check=False)


def line_metric(n: int, spacing: int = 1) -> MetricInstance:
    _at_least("n", n, 1)
    _at_least("spacing", spacing, 0)
    return MetricInstance(
        tree_from_host_edges(n, [(i, i + 1, spacing) for i in range(n - 1)])
    )


def tree_metric(tree: WeightedTree) -> MetricInstance:
    return MetricInstance(tree)


def uniform_metric(n: int, c: int = 1) -> MetricInstance:
    _at_least("n", n, 1)
    return matrix_metric(
        [[0 if i == j else c for j in range(n)] for i in range(n)]
    )


def tree_from_host_edges(
    n: int, host_edges: list[tuple[int, int, int]]
) -> WeightedTree:
    """Build a server-on-leaves tree from edges over host nodes 0..N-1.

    Hosts 0..n-1 carry the points.  Hosts that end up internal get a
    zero-length pendant leaf so the point sits on a leaf; distances are
    unchanged.
    """
    _at_least("n", n, 1)
    edges = [_integers(e, "edge") for e in host_edges]
    num_hosts = n
    for u, v, w in edges:
        if u < 0 or v < 0:
            raise ValueError(f"edge ({u},{v},{w}) has a negative host id")
        num_hosts = max(num_hosts, u + 1, v + 1)
    degree = Counter(x for u, v, _ in edges for x in (u, v))
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
    _at_least("n", n, 2)
    edges = [(n, p, arm) for p in range(n)]
    return WeightedTree(n + 1, edges, {p: p for p in range(n)})


def random_recursive_tree(
    n: int, rng: random.Random, max_len: int = 100
) -> WeightedTree:
    """Uniform random recursive tree on n hosts, lengths uniform in [1, max_len]."""
    _at_least("n", n, 1)
    _at_least("max_len", max_len, 1)
    host_edges = []
    for i in range(1, n):
        parent = rng.randrange(i)
        host_edges.append((parent, i, rng.randint(1, max_len)))
    return tree_from_host_edges(n, host_edges)


def random_metric(n: int, rng: random.Random, max_d: int = 64) -> MetricInstance:
    """Random metric via shortest-path closure of a random complete graph."""
    _at_least("n", n, 1)
    _at_least("max_d", max_d, 1)
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, max_d)
    for via in range(n):
        dv = d[via]
        for i in range(n):
            div = d[i][via]
            row = d[i]
            for j in range(n):
                alt = div + dv[j]
                if alt < row[j]:
                    row[j] = alt
    return matrix_metric(d)


def gen_nonmetric_instance(n: int) -> MetricInstance:
    """Cost structure with two mutually expensive request types.

    Points 0..n-3 cost 1 pairwise.  Point n-2 costs 2^(n/2) against the
    upper half of the servers, point n-1 costs 2^(n/2) against the lower
    half, and the two special points cost 2^(n/2) to each other.  From
    n = 6 up some expensive pairs have cheap two-hop detours, so the
    triangle inequality fails and the cost of serving the special
    points outruns any fixed multiple of the offline optimum.
    """
    _at_least("n", n, 4)
    if n % 2:
        raise ValueError("n must be even")
    big, half, lo, hi = 2 ** (n // 2), n // 2, n - 2, n - 1
    matrix = [[int(i != j) for j in range(n)] for i in range(n)]
    for p in range(lo):  # n-2 is far from the upper half, n-1 from the lower
        far = lo if p >= half else hi
        matrix[p][far] = matrix[far][p] = big
    matrix[lo][hi] = matrix[hi][lo] = big
    return matrix_unchecked(matrix)


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
    instance.require_metric("the embedding")
    n, matrix = instance.n, instance.matrix
    diameter = max(max(row) for row in matrix)
    order = list(range(n))
    rng.shuffle(order)
    beta = 2.0 ** rng.random()
    top = 1
    while (1 << (top - 1)) < diameter:
        top += 1
    # per point, the (distance, center) pairs where the running minimum over
    # the permutation drops: the first within a radius is the first center
    # covering the point, and radii only shrink, so a cursor walks them once
    records = []
    for p in range(n):
        row, recs, best = matrix[p], [], diameter + 1
        for c in order:
            if row[c] < best:
                best = row[c]
                recs.append((best, c))
        records.append(recs)
    cursor = [0] * n
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
                recs, i = records[p], cursor[p]
                while recs[i][0] > radius:
                    i += 1
                cursor[p] = i
                groups.setdefault(recs[i][1], []).append(p)
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


def parse_int(text: str, where: str) -> int:
    """``int(text)`` from an input file; a ValueError names ``where``."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: {text!r} is not an integer") from None


def input_lines(path: str) -> Iterator[str]:
    """The stripped non-blank lines of an input file, ``#`` comments cut."""
    with open(path, encoding="utf-8") as fh:
        yield from filter(None, (raw.split("#", 1)[0].strip() for raw in fh))


def load_metric(path: str) -> MetricInstance:
    """Read a metric file: a kind/n/scale header then rows or edges.

    kind matrix: n rows of n integers, each multiplied by scale.
    kind line:   distance scale * |i - j|, no body.
    kind tree:   lines "u v length"; hosts 0..n-1 carry the points.
    """
    header: dict[str, str] = {}
    body = []
    for line in input_lines(path):
        t = line.split()
        if t[0] not in ("kind", "n", "scale"):
            body.append(t)
        elif len(t) != 2:
            raise ValueError(f"header line {' '.join(t)!r} is not 'key value'")
        elif t[0] in header:
            raise ValueError(f"duplicate header line {t[0]!r}")
        else:
            header[t[0]] = t[1]
    if "kind" not in header or "n" not in header:
        raise ValueError("metric file needs kind and n header lines")
    kind = header["kind"]
    n = parse_int(header["n"], "header n")
    _at_least("header n", n, 1)
    scale = parse_int(header.get("scale", "1"), "header scale")
    _at_least("header scale", scale, 0)
    if kind == "line":
        if body:
            raise ValueError("a kind line metric file takes no body lines")
        return line_metric(n, scale)
    if kind == "matrix":
        if len(body) != n:
            raise ValueError(f"expected {n} matrix rows, got {len(body)}")
        for i, row in enumerate(body):
            if len(row) != n:
                raise ValueError(
                    f"matrix row {i} has {len(row)} entries, expected {n}"
                )
        matrix = [
            [scale * parse_int(x, f"matrix row {i}") for x in row]
            for i, row in enumerate(body)
        ]
        return MetricInstance(matrix)
    if kind == "tree":
        host_edges = []
        for t in body:
            line = " ".join(t)
            if len(t) != 3:
                raise ValueError(f"tree line {line!r} is not 'u v length'")
            u, v, w = (parse_int(x, f"tree line {line!r}") for x in t)
            host_edges.append((u, v, scale * w))
        tree = tree_from_host_edges(n, host_edges)
        return tree_metric(tree)
    raise ValueError(f"unknown metric kind {kind!r}")


def dump_metric(instance: MetricInstance, path: str) -> None:
    """Write ``instance`` as a ``kind tree`` or a ``kind matrix`` file."""
    with open(path, "w", encoding="utf-8") as fh:
        tree = instance.tree
        if tree is not None:
            fh.write(f"kind tree\nn {instance.n}\nscale 1\n")
            # leaves keep their point ids, internal nodes renumber upward
            names = {leaf: p for p, leaf in tree.leaf_for_point.items()}
            inner = [x for x in range(tree.num_nodes) if x not in names]
            names.update(zip(inner, range(instance.n, tree.num_nodes)))
            for u, v, w in tree.edges:
                fh.write(f"{names[u]} {names[v]} {w}\n")
            return
        fh.write(f"kind matrix\nn {instance.n}\nscale 1\n")
        for row in instance.matrix:
            fh.write(" ".join(str(x) for x in row) + "\n")
