"""Exact fractional min-cost and max-weight server/location matchings.

The base problem: given the free multiset T of servers over a metric on
n points, spread each server's 1/|T| of mass over locations so every
location receives exactly 1/n (weighted variants replace 1/n by p_j).
Every transportation problem in the package is built here, by one of
two integer cores, each one ``flows.transport`` call (in ``_plan``)
returning its cost and (server, location, units) triples, which the
callers read directly; the public solves wrap the units into a
FractionalMatching of Fractions.  ``_units`` solves T against integer
location weights and keeps the plan the primal-dual flow engine returns
as it is, an optimal plan whose support may hold cycles.  It serves
solve_min_cost, solve_max_weight, the unchecked and max-weight online
providers, the offline optima (``offline``: requests against one
location per server) and the arrival coupling (``transship``: arrival
weights against weight 1 per location).  Max-weight is min-cost on one
fixed table: ``gain_costs`` gives S - gain, S the table's largest gain,
and every caller of either objective solves that table.
``_canonical_units`` solves, on a checked metric, the plan that matches
co-located mass to itself, the one the fair-bias sampler draws from:
canonical_plan.

Each core takes optional ``duals``: a row potential per point (server).
A solve starts from those of its rows, every column from the tightest
potential they allow, and writes the rows' final values back, so the
next solve over a smaller free set starts from this one's optimal duals
(see ``flows.transport``).  The public solves below always start cold.

On trees no plan is built.  Optimal transport there has one edge flow:
tree_walk samples one column entry of it by walking it back from the
request, from free-point counts per node (free_below, kept current by
release) that the caller holds across arrivals, and returns the length
of the path it walked, the step's cost, so no distance table is read;
``WeightedTree.imbalance_cost`` prices it, so tree_plan is that one
call.  solve_min_cost and canonical_plan give explicit plans on any
instance, trees included.  One function per rule: ``check_stream`` (n
arrivals at points 0..n-1, for every episode and offline optimum),
``check_marginals`` (a plan's sums) and ``arrival_weight`` (w_r > 0).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import index

from .flows import transport
from .metrics import MetricInstance, WeightedTree, square_size


@dataclass(frozen=True)
class DemandProfile:
    """Left (server) and right (location) demands of one instance."""

    left: tuple[tuple[int, Fraction], ...]
    right: tuple[tuple[int, Fraction], ...]


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
        check_marginals(self.entries, self.profile.left, self.profile.right)


def check_marginals(entries, left, right) -> None:
    """Refuse negative mass, and row or column sums off the (point, demand) pairs."""
    rows, cols = {}, {}
    for i, j, f in entries:
        if f < 0:
            raise AssertionError(f"negative mass at ({i},{j})")
        rows[i] = rows.get(i, 0) + f
        cols[j] = cols.get(j, 0) + f
    for i, d in left:
        if rows.pop(i, 0) != d:
            raise AssertionError(f"row {i} does not meet its demand")
    for j, d in right:
        if cols.pop(j, 0) != d:
            raise AssertionError(f"column {j} does not meet its demand")
    if any(rows.values()) or any(cols.values()):
        raise AssertionError("mass on points outside the profile")


def arrival_weight(weights, r: int) -> int:
    """The weight w_r of an arrival's location, refusing weight 0."""
    w_r = weights[r]
    if w_r <= 0:
        raise ValueError(f"arrival at zero-probability location {r}")
    return w_r


def check_points(points, n: int, what: str) -> None:
    """Reject any entry that is not an integer point 0..n-1, naming it."""
    for p in points:
        try:
            index(p)
        except TypeError:
            raise ValueError(f"{what} {p!r} is not an integer") from None
        if not 0 <= p < n:
            raise ValueError(f"{what} {p} outside the instance")


def check_stream(n: int, stream) -> None:
    """Reject a stream that is not exactly n arrivals at points 0..n-1."""
    if len(stream) != n:
        need = f"need exactly {n} requests (exactly n={n}, one per server)"
        raise ValueError(f"{need}, got {len(stream)}")
    check_points(stream, n, "request location")


def _counts(T, n: int) -> Counter:
    counts = Counter(T)
    if not counts:
        raise ValueError("T must be non-empty")
    if any(c <= 0 for c in counts.values()):
        raise ValueError("multiplicities must be positive")
    check_points(counts, n, "server point")
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


def _plan(rows, cols, supplies, demands, cost_rows, duals):
    """``flows.transport`` between points; cost and (row, col, units) triples.

    ``duals``, if not None, holds a row potential per point.  The solve
    starts from those of ``rows`` and writes their final values back.
    """
    local = None if duals is None else [duals[p] for p in rows]
    cost, flows = transport(supplies, demands, cost_rows, local)
    if duals is not None:
        for p, v in zip(rows, local):
            duals[p] = v
    return cost, [(rows[a], cols[b], f) for (a, b), f in flows.items()]


def _units(cost_rows, counts, location_weights: list[int], duals=None):
    """Cost and row-major (server, location, units) triples of the plan.

    Server i ships counts[i] * W units, location j with w_j > 0 takes
    k * w_j (W = sum w, k = |T|), a unit from i to j costs cost_rows[i][j].
    """
    k = sum(counts.values())
    total = sum(location_weights)
    lefts = sorted(counts)
    spots = [j for j, w in enumerate(location_weights) if w > 0]
    return _plan(
        lefts,
        spots,
        [counts[i] * total for i in lefts],
        [k * location_weights[j] for j in spots],
        [list(map(row.__getitem__, spots)) for row in map(cost_rows.__getitem__, lefts)],
        duals,
    )


def _canonical_units(matrix, counts, n: int, duals=None):
    """Cost and off-diagonal triples of the canonical plan, in n * k units.

    Point i keeps min(n * c_i, k) units on itself; the surpluses
    n * c_i - k ship to the deficits k - n * c_j, points in ascending
    order.  On a metric that is optimal for the whole program.
    """
    k = sum(counts.values())
    rows = [i for i in sorted(counts) if n * counts[i] > k]
    cols = [j for j in range(n) if n * counts.get(j, 0) < k]
    return _plan(
        rows,
        cols,
        [n * counts[i] - k for i in rows],
        [k - n * counts.get(j, 0) for j in cols],
        [list(map(row.__getitem__, cols)) for row in map(matrix.__getitem__, rows)],
        duals,
    )


def gain_costs(weights) -> tuple[int, list[list[int]]]:
    """The largest gain S and the cost table S - gain of a gain table.

    Every plan ships the same mass out of every row, so a plan of least
    cost on S - gain has the most gain, worth S minus its cost per unit.
    The table must be non-empty, square and of integers.
    """
    square_size(weights)
    if not all(isinstance(w, int) for row in weights for w in row):
        raise ValueError("gains must be integers")
    shift = max(w for row in weights for w in row)
    return shift, [[shift - w for w in row] for row in weights]


def _matching(counts, location_weights, cost: int, units) -> FractionalMatching:
    """Exact matching of integer units at the scale k * W."""
    k, total = sum(counts.values()), sum(location_weights)
    scale = k * total
    profile = DemandProfile(
        tuple((i, Fraction(counts[i], k)) for i in sorted(counts)),
        tuple((j, Fraction(w, total)) for j, w in enumerate(location_weights) if w),
    )
    entries = tuple((i, j, Fraction(u, scale)) for i, j, u in units)
    return FractionalMatching(profile, entries, Fraction(cost, scale))


def solve_min_cost(instance: MetricInstance, T) -> FractionalMatching:
    """Optimal fractional matching of the free multiset T to all locations.

    Works for any non-negative cost matrix (no triangle inequality
    needed); determinism comes from the transport kernel's fixed scan
    order (see ``flows.MinCostFlow``).
    """
    n = instance.n
    counts = _counts(T, n)
    return _matching(counts, [1] * n, *_units(instance.matrix, counts, [1] * n))


def canonical_plan(instance: MetricInstance, T) -> FractionalMatching:
    """The optimal plan the sampler draws from: co-located mass self-matched.

    Every diagonal entry is min(c_i / k, 1/n), the most any plan can
    keep there; the rest is ``_canonical_units``.  Needs a checked
    metric: without the triangle inequality the plan need not be optimal.
    """
    instance.require_metric("the canonical plan")
    n = instance.n
    counts = _counts(T, n)
    k = sum(counts.values())
    cost, units = _canonical_units(instance.matrix, counts, n)
    diagonal = [(i, i, min(n * c, k)) for i, c in counts.items()]
    return _matching(counts, [1] * n, cost, sorted(diagonal + units))


def solve_max_weight(
    weights: list[list[int]], T, location_weights: list[int]
) -> FractionalMatching:
    """Maximum-weight variant: location j carries probability weight w_j.

    Each free server is matched 1/|T| in total and each location j
    receives exactly w_j / sum(w).  Solved as the min-cost plan on
    ``gain_costs`` (shift - weight, shift the table's largest weight),
    which keeps everything integral and exact.
    """
    shift, costs = gain_costs(weights)
    n = len(costs)
    counts = _counts(T, n)
    check_location_weights(location_weights, n)
    units = _units(costs, counts, location_weights)
    plan = _matching(counts, location_weights, *units)
    return replace(plan, value=shift - plan.value)


def scaling_identity_check(
    instance: MetricInstance, T
) -> tuple[Fraction, Fraction, bool]:
    """Exact check of M(T) == (n/|T| - 1) * M(complement) for |T| <= n/2."""
    instance.require_metric("the scaling identity")
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
) -> tuple[int, int]:
    """Free server for an arrival at an occupied point, and its distance.

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

    An edge carries flow one way, so the walk climbs while flow comes
    down from the parent and, after its first step down, only descends:
    it is the tree path from the request to the server through the node
    it turned at, and their distance is read off the depths there.
    """
    parent = tree.parent
    children = tree.children
    size = tree.size
    node_point = tree.node_point
    start = x = tree.leaf_for_point[request]
    top = -1  # the node the walk turned down at
    while True:
        arcs = []  # a loop, not a comprehension: no function call per hop
        for c in children[x]:
            f = n * below[c] - k * size[c]
            if f > 0:
                arcs.append((c, f))
        up = parent[x]
        if top < 0 and up >= 0:  # no flow comes down once the walk descends
            f = k * size[x] - n * below[x]
            if f > 0:
                arcs.append((up, f))
        if len(arcs) == 1:
            y = arcs[0][0]
        else:
            u = rng.randrange(sum([f for _, f in arcs]))
            for y, f in arcs:
                if u < f:
                    break
                u -= f
        if top < 0 and y != up:
            top = x
        x = y
        p = node_point[x]
        if p >= 0:
            break
    if top < 0:  # a point at the root, reached climbing
        top = x
    depth = tree.depth
    return p, depth[start] + depth[x] - 2 * depth[top]
