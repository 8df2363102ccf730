"""Exact fractional min-cost and max-weight server/location matchings.

The base problem: given the free multiset T of servers over a metric on
n points, spread each server's 1/|T| of mass over locations so every
location receives exactly 1/n (weighted variants replace 1/n by p_j).
All arithmetic is exact: demands are scaled to integers (servers supply
n units each, locations demand |T| units), solved by the integral
transportation solve ``flows.transport``, and divided back, so entries
and values are Fractions with denominator n*|T|.

Two solve routes exist on purpose.  solve_min_cost runs ``transport``
on any instance; tree_plan builds the canonical optimal plan directly
on tree-backed instances by self-matching co-located mass first and
then pairing surplus against deficit bottom-up, and is the exact
reference behind solve_min_cost_tree.  Its columns are the shared
``flows.column`` sampling columns.  Tests pin the two routes to the
same value.

The online matcher builds neither plan on trees: tree_walk samples one
column entry of the tree's unique optimal edge flow by walking it back
from the request, from free-point counts per node (free_below, kept
current by release) that the caller holds across arrivals.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .flows import Column, column, column_units, transport
from .metrics import MetricInstance, WeightedTree


@dataclass(frozen=True)
class DemandProfile:
    """Left (server) and right (location) demands of one instance."""

    left: tuple[tuple[int, Fraction], ...]
    right: tuple[tuple[int, Fraction], ...]

    def check_balanced(self) -> None:
        ls = sum(d for _, d in self.left)
        rs = sum(d for _, d in self.right)
        if ls != 1 or rs != 1:
            raise ValueError(f"demands must each sum to 1, got {ls} and {rs}")


@dataclass(frozen=True)
class FractionalMatching:
    """Sparse exact solution x with its profile and objective value."""

    profile: DemandProfile
    entries: tuple[tuple[int, int, Fraction], ...]
    value: Fraction

    def entry_map(self) -> dict[tuple[int, int], Fraction]:
        return {(i, j): f for i, j, f in self.entries}

    def support_size(self) -> int:
        return len(self.entries)

    def validate(self) -> None:
        """Exact feasibility: marginals match the profile, mass >= 0."""
        rows: dict[int, Fraction] = {}
        cols: dict[int, Fraction] = {}
        for i, j, f in self.entries:
            if f < 0:
                raise AssertionError(f"negative mass at ({i},{j})")
            rows[i] = rows.get(i, Fraction(0)) + f
            cols[j] = cols.get(j, Fraction(0)) + f
        for i, d in self.profile.left:
            if rows.pop(i, Fraction(0)) != d:
                raise AssertionError(f"row {i} does not meet its demand")
        for j, d in self.profile.right:
            if cols.pop(j, Fraction(0)) != d:
                raise AssertionError(f"column {j} does not meet its demand")
        if any(rows.values()) or any(cols.values()):
            raise AssertionError("mass on points outside the profile")

    def debug_lines(self) -> list[str]:
        return [
            f"{i} {j} {f.numerator}/{f.denominator}"
            for i, j, f in self.entries
        ]


def _counts(T) -> Counter:
    counts = Counter(T)
    if not counts:
        raise ValueError("T must be non-empty")
    if any(c <= 0 for c in counts.values()):
        raise ValueError("multiplicities must be positive")
    return counts


def _forestify(
    flow: dict[tuple[int, int], int], cost_of
) -> dict[tuple[int, int], int]:
    """Cancel support cycles (always zero-cost at optimum) until a forest.

    Keeps value and feasibility; afterwards the support is acyclic, so
    its size is at most (#rows + #cols - 1), a vertex of the polytope.
    """
    while True:
        adj: dict[tuple[str, int], list[tuple[tuple[str, int], tuple[int, int]]]] = {}
        for (i, j), f in flow.items():
            if f <= 0:
                continue
            a, b = ("L", i), ("R", j)
            adj.setdefault(a, []).append((b, (i, j)))
            adj.setdefault(b, []).append((a, (i, j)))
        # iterative DFS looking for any cycle in the support graph
        visited: set[tuple[str, int]] = set()
        cycle: list[tuple[int, int]] | None = None
        for start in sorted(adj):
            if start in visited or cycle:
                break
            stack = [(start, None)]
            parent: dict = {start: (None, None)}
            visited.add(start)
            while stack and cycle is None:
                node, via = stack.pop()
                for nxt, edge in adj[node]:
                    if edge == via:
                        continue
                    if nxt in parent:
                        # reconstruct: path node->..., plus edge to nxt
                        path_a = []
                        x = node
                        while x is not None:
                            path_a.append(x)
                            x = parent[x][0]
                        path_b = []
                        x = nxt
                        while x is not None:
                            path_b.append(x)
                            x = parent[x][0]
                        common = None
                        seen_a = set(path_a)
                        for x in path_b:
                            if x in seen_a:
                                common = x
                                break
                        edges = [edge]
                        x = node
                        while x != common:
                            edges.append(parent[x][1])
                            x = parent[x][0]
                        x = nxt
                        tail = []
                        while x != common:
                            tail.append(parent[x][1])
                            x = parent[x][0]
                        edges.extend(reversed(tail))
                        cycle = edges
                        break
                    parent[nxt] = (node, edge)
                    visited.add(nxt)
                    stack.append((nxt, edge))
            if cycle:
                break
        if not cycle:
            return flow
        # alternate +/- around the cycle; optimal => alternating cost is 0
        signs = []
        sign = 1
        for e in cycle:
            signs.append(sign)
            sign = -sign
        alt = sum(s * cost_of(e) for s, e in zip(signs, cycle))
        if alt != 0:
            raise RuntimeError("support cycle with nonzero alternating cost")
        eps = min(flow[e] for s, e in zip(signs, cycle) if s < 0)
        for s, e in zip(signs, cycle):
            flow[e] += s * eps if s > 0 else -eps
            if flow[e] == 0:
                del flow[e]


def solve_min_cost(instance: MetricInstance, T) -> FractionalMatching:
    """Optimal fractional matching of the free multiset T to all locations.

    Works for any non-negative cost matrix (no triangle inequality
    needed); determinism comes from fixed arc insertion order.
    """
    n = instance.n
    counts = _counts(T)
    for i in counts:
        if not 0 <= i < n:
            raise ValueError(f"server point {i} outside the instance")
    k = sum(counts.values())
    scale = n * k
    lefts = sorted(counts)
    cost, flows = transport(
        [n * counts[i] for i in lefts],
        [k] * n,
        [instance.matrix[i] for i in lefts],
    )
    flow = {(lefts[a], j): f for (a, j), f in flows.items()}
    flow = _forestify(flow, lambda e: instance.matrix[e[0]][e[1]])
    profile = DemandProfile(
        tuple((i, Fraction(counts[i], k)) for i in lefts),
        tuple((j, Fraction(1, n)) for j in range(n)),
    )
    entries = tuple(
        (i, j, Fraction(f, scale)) for (i, j), f in sorted(flow.items())
    )
    return FractionalMatching(profile, entries, Fraction(cost, scale))


def canonicalize(
    matching: FractionalMatching, instance: MetricInstance
) -> FractionalMatching:
    """Push self-matched mass to its maximum without changing the value.

    Local exchange: raise x[i][i] while lowering x[i][j] and x[j'][i],
    compensating on x[j'][j].  On a metric each exchange cannot increase
    the cost, and an optimal input leaves the value exactly unchanged
    (checked; a changed value means the input was not optimal).
    """
    if not instance.verified_metric:
        raise ValueError("canonicalize assumes a checked metric instance")
    x = dict(matching.entry_map())
    left = dict(matching.profile.left)
    right = dict(matching.profile.right)
    for i in sorted(left):
        target = min(left[i], right.get(i, Fraction(0)))
        while x.get((i, i), Fraction(0)) < target:
            j = min(b for (a, b) in x if a == i and b != i)
            j2 = min(a for (a, b) in x if b == i and a != i)
            gap = target - x.get((i, i), Fraction(0))
            eps = min(x[(i, j)], x[(j2, i)], gap)
            x[(i, i)] = x.get((i, i), Fraction(0)) + eps
            x[(j2, j)] = x.get((j2, j), Fraction(0)) + eps
            for key in ((i, j), (j2, i)):
                x[key] -= eps
                if x[key] == 0:
                    del x[key]
    value = sum(
        (f * instance.matrix[i][j] for (i, j), f in x.items()),
        Fraction(0),
    )
    if value != matching.value:
        raise ValueError("canonicalize changed the value; input was not optimal")
    entries = tuple((i, j, f) for (i, j), f in sorted(x.items()))
    return FractionalMatching(matching.profile, entries, value)


def solve_max_weight(
    weights: list[list[int]], T, location_weights: list[int]
) -> FractionalMatching:
    """Maximum-weight variant: location j carries probability weight w_j.

    Each free server is matched 1/|T| in total and each location j
    receives exactly w_j / sum(w).  Solved as min-cost flow on shifted
    costs (C - weight), which keeps everything integral and exact.
    """
    n = len(weights)
    counts = _counts(T)
    for i in counts:
        if not 0 <= i < n:
            raise ValueError(f"server point {i} outside the instance")
    k = sum(counts.values())
    if len(location_weights) != n:
        raise ValueError("need one weight per location")
    if any(w < 0 for w in location_weights):
        raise ValueError("location weights must be >= 0")
    W = sum(location_weights)
    if W <= 0:
        raise ValueError("location weights must have positive total")
    lefts = sorted(counts)
    spots = [j for j in range(n) if location_weights[j] > 0]
    shift = max(max(weights[i]) for i in lefts)
    scale = k * W
    cost, flows = transport(
        [counts[i] * W for i in lefts],
        [k * location_weights[j] for j in spots],
        [[shift - weights[i][j] for j in spots] for i in lefts],
    )
    flow = {(lefts[a], spots[b]): f for (a, b), f in flows.items()}
    flow = _forestify(flow, lambda e: shift - weights[e[0]][e[1]])
    profile = DemandProfile(
        tuple((i, Fraction(counts[i], k)) for i in lefts),
        tuple((j, Fraction(location_weights[j], W)) for j in spots),
    )
    entries = tuple(
        (i, j, Fraction(f, scale)) for (i, j), f in sorted(flow.items())
    )
    value = Fraction(shift * scale - cost, scale)
    return FractionalMatching(profile, entries, value)


def scaling_identity_check(
    instance: MetricInstance, T
) -> tuple[Fraction, Fraction, bool]:
    """Exact check of M(T) == (n/|T| - 1) * M(complement) for |T| <= n/2."""
    if not instance.verified_metric:
        raise ValueError("identity assumes a checked metric instance")
    n = instance.n
    tset = set(T)
    if len(tset) != len(list(T)):
        raise ValueError("T must be a set for the complement identity")
    k = len(tset)
    if not 1 <= k <= n // 2:
        raise ValueError("identity needs 1 <= |T| <= n/2")
    rest = sorted(p for p in range(n) if p not in tset)
    m_t = solve_min_cost(instance, sorted(tset)).value
    m_rest = solve_min_cost(instance, rest).value
    rhs = (Fraction(n, k) - 1) * m_rest
    return m_t, rhs, m_t == rhs


# ---------------------------------------------------------------------------
# canonical plans on trees


class TreeContext:
    """Rooted arrays of a tree, reused across many solves.

    ``size``, which only ``tree_walk`` reads, is built on its first call.
    """

    def __init__(self, tree: WeightedTree):
        self.tree = tree
        parent, parent_len, pre = tree.rooted(0)
        self.parent = parent
        self.parent_len = parent_len
        self.bottom_up = list(reversed(pre))
        self.node_point = [-1] * tree.num_nodes
        for p, leaf in tree.leaf_for_point.items():
            self.node_point[leaf] = p

    @cached_property
    def size(self) -> list[int]:
        """Number of points below each node, the node included."""
        size = [0] * len(self.parent)
        for x in self.bottom_up:
            if self.node_point[x] >= 0:
                size[x] += 1
            if self.parent[x] >= 0:
                size[self.parent[x]] += size[x]
        return size


_CTX_ATTR = "_stochmatch_tree_ctx"


def tree_context(tree: WeightedTree) -> TreeContext:
    ctx = getattr(tree, _CTX_ATTR, None)
    if ctx is None:
        ctx = TreeContext(tree)
        setattr(tree, _CTX_ATTR, ctx)
    return ctx


def tree_plan(
    ctx: TreeContext, counts: dict[int, int], k: int, n: int
) -> tuple[int, dict[int, Column]]:
    """Canonical optimal plan on a tree, in n*k-scaled integer units.

    Self-matches first (maximal co-located mass), then surplus meets
    deficit at the lowest common node, paired FIFO, so every recorded
    pair crosses exactly its tree path.  Returns (scaled value, columns)
    where columns[r] is the sampling column (servers, cumulative units)
    of each point r whose demand is not covered by its own supply.
    """
    num_nodes = ctx.tree.num_nodes
    node_point = ctx.node_point
    parent = ctx.parent
    parent_len = ctx.parent_len
    pend: list[deque | None] = [None] * num_nodes
    sign = [0] * num_nodes
    tot = [0] * num_nodes
    columns: dict[int, list[tuple[int, int]]] = {}
    value = 0
    root = ctx.bottom_up[-1]
    for x in ctx.bottom_up:
        own = pend[x]
        own_sign = sign[x]
        own_tot = tot[x]
        p = node_point[x]
        if p >= 0:
            e = n * counts.get(p, 0) - k
            if e:
                s = 1 if e > 0 else -1
                u = abs(e)
                if not own:
                    own, own_sign, own_tot = deque([[p, u]]), s, u
                elif own_sign == s:
                    own.append([p, u])
                    own_tot += u
                else:
                    own, own_sign, own_tot = _pair_off(
                        own, own_sign, own_tot, deque([[p, u]]), s, u, columns
                    )
        if x == root:
            if own:
                raise RuntimeError("excesses must balance at the root")
            continue
        if own:
            w = parent_len[x]
            if w:
                value += w * own_tot
            par = parent[x]
            if not pend[par]:
                pend[par], sign[par], tot[par] = own, own_sign, own_tot
            elif sign[par] == own_sign:
                pend[par].extend(own)
                tot[par] += own_tot
            else:
                pend[par], sign[par], tot[par] = _pair_off(
                    pend[par], sign[par], tot[par], own, own_sign, own_tot, columns
                )
            pend[x] = None
    return value, {r: column(pairs) for r, pairs in columns.items()}


def _pair_off(
    a: deque, sa: int, ta: int, b: deque, sb: int, tb: int, columns
) -> tuple[deque | None, int, int]:
    """Match two opposite-signed FIFO queues; returns the survivor."""
    while a and b:
        pa, ua = a[0]
        pb, ub = b[0]
        m = ua if ua < ub else ub
        if sa > 0:
            columns.setdefault(pb, []).append((pa, m))
        else:
            columns.setdefault(pa, []).append((pb, m))
        if ua == m:
            a.popleft()
        else:
            a[0][1] -= m
        if ub == m:
            b.popleft()
        else:
            b[0][1] -= m
    if b:
        return b, sb, tb - ta
    if a:
        return a, sa, ta - tb
    return None, 0, 0


# ---------------------------------------------------------------------------
# sampling one column entry of the optimal tree flow


def free_below(ctx: TreeContext, free: set[int]) -> list[int]:
    """Number of points of ``free`` below each node.

    Starts from all points and releases the others, so it costs one path
    per point outside ``free``: little when an episode first needs it.
    """
    below = ctx.size[:]
    for p in range(ctx.tree.n_points):
        if p not in free:
            release(ctx, below, p)
    return below


def release(ctx: TreeContext, below: list[int], point: int) -> None:
    """Update ``free_below`` counts for a point leaving the free set."""
    parent = ctx.parent
    x = ctx.tree.leaf_for_point[point]
    while x >= 0:
        below[x] -= 1
        x = parent[x]


def tree_walk(
    ctx: TreeContext, below: list[int], k: int, n: int, request: int, rng
) -> int:
    """Free server for an arrival at an occupied point, by the optimal flow.

    With k free points, the optimal reduced plan (every free point sends
    n - k units, every occupied point takes k, in n*k units) has one
    optimal flow on a tree: edge (v, parent) carries
    n * below[v] - k * size[v] units, upward when positive.  The walk
    starts at the request's leaf and steps back along an arc carrying
    flow into the current node, chosen with probability proportional to
    that flow (one ``randrange`` where two or more arcs do), until it
    reaches a point, which is a free server.  That is the proportional
    path decomposition of the flow: every free row gets n - k units,
    every occupied column k, and the cost is the flow's
    sum_e len_e * |flow_e|, the optimum.  O(depth * degree) per call.
    """
    parent = ctx.parent
    adj = ctx.tree.adj
    size = ctx.size
    node_point = ctx.node_point
    x = ctx.tree.leaf_for_point[request]
    while True:
        up = parent[x]
        arcs = [
            (c, f)
            for c, _, _ in adj[x]
            if c != up and (f := n * below[c] - k * size[c]) > 0
        ]
        if up >= 0:
            f = k * size[x] - n * below[x]
            if f > 0:
                arcs.append((up, f))
        if len(arcs) == 1:
            x = arcs[0][0]
        else:
            u = rng.randrange(sum([f for _, f in arcs]))
            for x, f in arcs:
                if u < f:
                    break
                u -= f
        p = node_point[x]
        if p >= 0:
            return p


def solve_min_cost_tree(instance: MetricInstance, T) -> FractionalMatching:
    """Same contract as solve_min_cost, via the canonical tree plan."""
    if instance.tree is None:
        raise ValueError("instance has no tree backing")
    n = instance.n
    counts = _counts(T)
    k = sum(counts.values())
    ctx = tree_context(instance.tree)
    scale = n * k
    value_scaled, cols = tree_plan(ctx, counts, k, n)
    entries: dict[tuple[int, int], int] = {}
    for i, c in counts.items():
        self_units = min(n * c, k)
        if self_units:
            entries[(i, i)] = self_units
    for r, col in cols.items():
        for s, u in column_units(col):
            entries[(s, r)] = entries.get((s, r), 0) + u
    profile = DemandProfile(
        tuple((i, Fraction(counts[i], k)) for i in sorted(counts)),
        tuple((j, Fraction(1, n)) for j in range(n)),
    )
    out = tuple(
        (i, j, Fraction(f, scale)) for (i, j), f in sorted(entries.items())
    )
    check = sum(
        f * instance.matrix[i][j] for (i, j), f in entries.items()
    )
    if check != value_scaled:
        raise RuntimeError("plan cost must match the edge-cut value")
    return FractionalMatching(profile, out, Fraction(value_scaled, scale))
