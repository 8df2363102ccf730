"""Exact fractional min-cost and max-weight server/location matchings.

The base problem: given the free multiset T of servers over a metric on
n points, spread each server's 1/|T| of mass over locations so every
location receives exactly 1/n (weighted variants replace 1/n by p_j).
Both objectives go through one weighted solve: T against integer
location weights w (all 1 on the cost matrix for min-cost, the caller's
weights on shift - weight for max-weight), scaled to integers (server i
supplies W * count_i units, location j demands |T| * w_j, W = sum w) and
solved by one integral transportation solve, ``flows.transport``.  Its
successive-shortest-path plan is returned as it is: an optimal plan,
whose support may hold cycles, with Fraction entries and value over the
scale |T| * W.  Callers rely on nothing else: the sampler's free-set
uniformity and expected step cost follow from optimality and marginals.

On trees no plan is built.  Optimal transport there has one edge flow:
tree_walk samples one column entry of it by walking it back from the
request, from free-point counts per node (free_below, kept current by
release) that the caller holds across arrivals, and
``WeightedTree.imbalance_cost`` prices it, so tree_plan is that one
call.  solve_min_cost stays the route to an explicit plan on any
instance, trees included, and canonicalize gives its self-matched form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from .flows import transport
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


def _counts(T, n: int) -> Counter:
    counts = Counter(T)
    if not counts:
        raise ValueError("T must be non-empty")
    if any(c <= 0 for c in counts.values()):
        raise ValueError("multiplicities must be positive")
    for i in counts:
        if not 0 <= i < n:
            raise ValueError(f"server point {i} outside the instance")
    return counts


def check_location_weights(weights, n: int) -> None:
    """Exactly n integer weights, none negative, with a positive total."""
    if len(weights) != n:
        raise ValueError("need one weight per location")
    if not all(isinstance(w, int) for w in weights):
        raise ValueError("location weights must be integers")
    if any(w < 0 for w in weights):
        raise ValueError("location weights must be >= 0")
    if sum(weights) <= 0:
        raise ValueError("location weights must have positive total")


def _solve(
    cost_rows, counts: Counter, location_weights: list[int]
) -> FractionalMatching:
    """Optimal plan of the free multiset against weighted locations.

    Each free server ships counts[i] * W units, location j with w_j > 0
    takes k * w_j (W = sum w, k = |T|), and a unit from i to j costs
    cost_rows[i][j].  One ``transport`` call; its SSP plan is returned
    as it is, with the cost over the scale k * W as the value.
    """
    k = sum(counts.values())
    total = sum(location_weights)
    lefts = sorted(counts)
    spots = [j for j, w in enumerate(location_weights) if w > 0]
    scale = k * total
    cost, flows = transport(
        [counts[i] * total for i in lefts],
        [k * location_weights[j] for j in spots],
        [[cost_rows[i][j] for j in spots] for i in lefts],
    )
    profile = DemandProfile(
        tuple((i, Fraction(counts[i], k)) for i in lefts),
        tuple((j, Fraction(location_weights[j], total)) for j in spots),
    )
    # transport lists flows row-major, so entries come out sorted
    entries = tuple(
        (lefts[a], spots[b], Fraction(f, scale)) for (a, b), f in flows.items()
    )
    return FractionalMatching(profile, entries, Fraction(cost, scale))


def solve_min_cost(instance: MetricInstance, T) -> FractionalMatching:
    """Optimal fractional matching of the free multiset T to all locations.

    Works for any non-negative cost matrix (no triangle inequality
    needed); determinism comes from fixed arc insertion order.
    """
    n = instance.n
    return _solve(instance.matrix, _counts(T, n), [1] * n)


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
    receives exactly w_j / sum(w).  Solved as the min-cost plan on
    shifted costs (shift - weight, shift the largest weight in a free
    row), which keeps everything integral and exact.
    """
    counts = _counts(T, len(weights))
    check_location_weights(location_weights, len(weights))
    shift = max(max(weights[i]) for i in counts)
    shifted = {i: [shift - w for w in weights[i]] for i in counts}
    plan = _solve(shifted, counts, location_weights)
    return replace(plan, value=shift - plan.value)


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
# the tree's one optimal edge flow


def tree_plan(tree: WeightedTree, counts: dict[int, int], k: int, n: int) -> int:
    """Optimal value of the free multiset ``counts`` (k servers) on a tree.

    In n*k-scaled integer units: every free point p ships n * counts[p],
    every point takes k, and the tree's one optimal flow costs the edge
    imbalance sum.
    """
    return tree.imbalance_cost(counts, n, k)


# ---------------------------------------------------------------------------
# sampling one column entry of the optimal tree flow


def free_below(tree: WeightedTree, free: set[int]) -> list[int]:
    """Number of points of ``free`` below each node.

    Starts from all points and releases the others, so it costs one path
    per point outside ``free``: little when an episode first needs it.
    """
    below = tree.size[:]
    for p in range(tree.n_points):
        if p not in free:
            release(tree, below, p)
    return below


def release(tree: WeightedTree, below: list[int], point: int) -> None:
    """Update ``free_below`` counts for a point leaving the free set."""
    parent = tree.parent
    x = tree.leaf_for_point[point]
    while x >= 0:
        below[x] -= 1
        x = parent[x]


def tree_walk(
    tree: WeightedTree, below: list[int], k: int, n: int, request: int, rng
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
    parent = tree.parent
    adj = tree.adj
    size = tree.size
    node_point = tree.node_point
    x = tree.leaf_for_point[request]
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
