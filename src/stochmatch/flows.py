"""Exact transportation solves and exact sampling from integer columns.

``transport`` solves the uncapacitated transportation problem (rows with
integer supplies, columns with integer demands, a cost per row/column
pair) as a min-cost flow.  It is the one solve behind the fractional
matchings, the reduced per-arrival plans, the distribution coupling and
the offline optima.  ``MinCostFlow`` is its engine: the primal-dual
method, one Dijkstra per shortest-path length and Dinic blocking flows
on the arcs of zero reduced cost.  Everything is integer arithmetic:
capacities, costs and flows are Python ints, so results are exact at
any magnitude.

Warm starts: ``transport(..., duals=...)`` starts the solve from one
potential per row, and writes the final ones back, so a caller that
re-solves a slightly changed problem (the online providers, once per
arrival) starts each solve from the last one's optimal row duals.
Each column starts at the tightest potential those rows allow, so
every row/column arc starts at non-negative reduced cost; the plan is
optimal whatever the rows hold, and only the number of phases depends
on them.  With ``duals=None`` the solve starts from zero potentials.

Determinism: arcs keep insertion order, every search scans them in that
order and Dijkstra breaks ties by node index, so identical inputs
produce identical flows.

A plan's column is carried as ``(items, cumulative units)``.  ``column``
builds one from (item, units) pairs, ``column_units`` decodes it back,
and ``draw`` samples an item with probability units / total from one
uniform integer draw, so sampling involves no floating point.
"""

from __future__ import annotations

import bisect
import heapq
import random
from collections.abc import Iterable, Iterator, Sequence

_INF = float("inf")

Column = tuple[list, list[int]]  # items, cumulative units


class MinCostFlow:
    """Primal-dual min-cost flow on a directed graph.

    Node ids are 0..n-1 and arc costs must be non-negative, which
    ``add_edge`` enforces.  Each phase runs one Dijkstra on reduced
    costs, stopped once the sink is settled, and raises the potentials
    so every shortest path to the sink has reduced cost 0.  It then
    pushes blocking flows (Dinic: BFS levels, current-arc search) over
    the admissible arcs, those with residual capacity and reduced cost
    0, until the sink is cut off from them.  So there is one Dijkstra
    per distinct shortest-path length, not one per augmenting path
    (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, section 9.8).
    """

    def __init__(self, n: int):
        self.n = n
        # arc storage: parallel lists, adj[u] holds arc indices out of u
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> int:
        """Add arc u->v; returns the arc index (reverse arc is index^1)."""
        if cost < 0:
            raise ValueError(f"arc {u}->{v} has negative cost {cost}")
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.adj[u].append(idx)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        self.adj[v].append(idx + 1)
        return idx

    def flow_on(self, idx: int) -> int:
        """Units currently routed through arc idx (its reverse residual)."""
        return self.cap[idx ^ 1]

    def min_cost_flow(
        self, s: int, t: int, maxf: int, potential: list[int] | None = None
    ) -> tuple[int, int]:
        """Push up to maxf units from s to t; returns (flow, cost).

        Starts from ``potential`` (one per node, default all zero), which
        must leave every residual arc at non-negative reduced cost
        cost + p[u] - p[v]; the list is updated in place to the final
        potentials.  Raises ValueError if fewer than maxf units can be
        routed, so callers can rely on exact saturation.
        """
        if potential is None:
            potential = [0] * self.n
        self._check_reduced_costs(potential)
        total_flow = 0
        total_cost = 0
        while total_flow < maxf:
            length = self._raise_potentials(s, t, potential)
            if length is None:
                raise ValueError(
                    f"only {total_flow} of {maxf} units routable"
                )
            pushed = self._blocking_flows(s, t, potential, maxf - total_flow)
            total_flow += pushed
            total_cost += pushed * length
        return total_flow, total_cost

    def _check_reduced_costs(self, potential: list[int]) -> None:
        """Raise ValueError unless every residual arc has reduced cost >= 0."""
        if len(potential) != self.n:
            raise ValueError(f"need {self.n} potentials, got {len(potential)}")
        to, cap, cost = self.to, self.cap, self.cost
        for u, arcs in enumerate(self.adj):
            pu = potential[u]
            for idx in arcs:
                if cap[idx] > 0 and cost[idx] + pu < potential[to[idx]]:
                    raise ValueError(
                        f"potentials leave arc {u}->{to[idx]} at negative reduced cost"
                    )

    def _raise_potentials(self, s: int, t: int, potential: list[int]) -> int | None:
        """One phase's Dijkstra on reduced costs, stopped once t is settled.

        Raises every potential by min(dist, dist[t]), which keeps all
        residual reduced costs non-negative and makes every shortest s-t
        path one of reduced cost 0.  Returns that path length in true
        costs, or None if t is unreachable.
        """
        to, cap, cost, adj = self.to, self.cap, self.cost, self.adj
        heappush, heappop = heapq.heappush, heapq.heappop
        dist: list[float] = [_INF] * self.n
        dist[s] = 0
        done = [False] * self.n
        heap: list[tuple[int, int]] = [(0, s)]
        while heap:
            d, u = heappop(heap)
            if done[u]:
                continue
            done[u] = True
            if u == t:
                break
            pu = potential[u]
            for idx in adj[u]:
                if cap[idx] > 0:
                    v = to[idx]
                    if not done[v]:
                        nd = d + cost[idx] + pu - potential[v]
                        if nd < dist[v]:
                            dist[v] = nd
                            heappush(heap, (nd, v))
        if not done[t]:
            return None
        # nodes not settled lie at least dist[t] away
        dt = dist[t]
        potential[:] = [p + (d if d < dt else dt) for p, d in zip(potential, dist)]
        return potential[t] - potential[s]

    def _blocking_flows(self, s: int, t: int, potential: list[int], limit: int) -> int:
        """Dinic on the arcs of reduced cost 0; pushes up to limit units.

        Stops when limit units are pushed or t is cut off from s along
        arcs of reduced cost 0 with residual capacity.
        """
        n = self.n
        to, cap, cost = self.to, self.cap, self.cost
        # listed whatever their capacity: potentials hold for the phase, and
        # a reverse arc gains capacity once its arc carries flow
        zero = [
            [idx for idx in arcs if cost[idx] + pu == potential[to[idx]]]
            for arcs, pu in zip(self.adj, potential)
        ]
        pushed = 0
        while pushed < limit:
            # BFS levels, up to the sink's level
            level = [-1] * n
            level[s] = 0
            queue = [s]
            for u in queue:
                lu = level[u]
                if lu == level[t]:
                    break
                for idx in zero[u]:
                    if cap[idx] > 0:
                        v = to[idx]
                        if level[v] < 0:
                            level[v] = lu + 1
                            queue.append(v)
            if level[t] < 0:
                break
            # advance along current arcs one level at a time, retreat at dead ends
            current = [0] * n
            path: list[int] = []
            u = s
            while pushed < limit:
                if u == t:
                    push = limit - pushed
                    for idx in path:
                        if cap[idx] < push:
                            push = cap[idx]
                    for idx in path:
                        cap[idx] -= push
                        cap[idx ^ 1] += push
                    pushed += push
                    path.clear()
                    u = s
                    continue
                arcs = zero[u]
                i = current[u]
                lv = level[u] + 1
                while i < len(arcs) and not (cap[arcs[i]] > 0 and level[to[arcs[i]]] == lv):
                    i += 1
                current[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    u = to[arcs[i]]
                elif u == s:
                    break
                else:
                    u = to[path.pop() ^ 1]
                    current[u] += 1
        return pushed

    def residual_has_negative_cycle(self) -> bool:
        """Bellman-Ford over the residual graph; certifies optimality.

        A feasible flow is min-cost iff the residual graph has no
        negative-cost cycle.  Independent of the search used to build
        the flow, so tests use it as an optimality certificate.
        """
        n = self.n
        dist = [0] * n  # virtual source into every node
        to, cap, cost = self.to, self.cap, self.cost
        for it in range(n):
            changed = False
            for idx in range(len(to)):
                if cap[idx] <= 0:
                    continue
                u = to[idx ^ 1]
                v = to[idx]
                if dist[u] + cost[idx] < dist[v]:
                    dist[v] = dist[u] + cost[idx]
                    changed = True
            if not changed:
                return False
        return changed


def transport(
    supplies: Sequence[int],
    demands: Sequence[int],
    cost_rows: Sequence[Sequence[int]],
    duals: list[int] | None = None,
) -> tuple[int, dict[tuple[int, int], int]]:
    """Min-cost transportation plan; returns (cost, flows).

    Row a ships supplies[a] units, column b receives demands[b] units,
    and a unit from a to b costs cost_rows[a][b] (non-negative).  Every
    row/column arc is uncapacitated.  flows maps (row index, column
    index) to its positive integer flow, in row-major order.

    ``duals``, if given, holds a potential u_a per row; every column
    starts at v_b = min_a(u_a + c_ab), the largest potential that keeps
    its arcs at non-negative reduced cost, and the value complementary
    slackness gives any column that receives flow.  The source and sink
    arcs are priced u_a - min u and max v - v_b, so every row and column
    starts at reduced distance 0 from the source and to the sink: the
    pseudoflow start of Ahuja, Magnanti & Orlin, *Network Flows*,
    section 9.7.  Every row and column saturates, so that pricing adds
    the same constant to every plan, and the returned cost is the plan's
    sum c * x.  The final row potentials are written back into ``duals``.
    """
    total = sum(supplies)
    if total != sum(demands):
        raise ValueError(
            f"supplies ({total}) and demands ({sum(demands)}) must balance"
        )
    m, n = len(supplies), len(demands)
    if duals is None:
        row_p, col_p = [0] * m, [0] * n
    elif len(duals) != m:
        raise ValueError(f"need {m} duals, got {len(duals)}")
    else:
        row_p = duals
        col_p = [
            min((u + row[b] for u, row in zip(row_p, cost_rows)), default=0)
            for b in range(n)
        ]
    low = min(row_p, default=0)
    high = max(col_p, default=0)
    # nodes: 0 source, 1..m rows, m+1..m+n columns, m+n+1 sink
    g = MinCostFlow(m + n + 2)
    sink = m + n + 1
    for a, units in enumerate(supplies):
        g.add_edge(0, 1 + a, units, row_p[a] - low)
    arcs = [
        [g.add_edge(1 + a, 1 + m + b, total, row[b]) for b in range(n)]
        for a, row in enumerate(cost_rows)
    ]
    for b, units in enumerate(demands):
        g.add_edge(1 + m + b, sink, units, high - col_p[b])
    potential = [low, *row_p, *col_p, high]
    g.min_cost_flow(0, sink, total, potential)
    if duals is not None:
        duals[:] = potential[1 : 1 + m]
    flows = {}
    for a, row_arcs in enumerate(arcs):
        for b, idx in enumerate(row_arcs):
            f = g.flow_on(idx)
            if f > 0:
                flows[(a, b)] = f
    return sum(cost_rows[a][b] * f for (a, b), f in flows.items()), flows


def column(pairs: Iterable[tuple[object, int]]) -> Column:
    """Sampling column of (item, units) pairs, in the given order."""
    items = []
    cum = []
    acc = 0
    for item, units in pairs:
        acc += units
        items.append(item)
        cum.append(acc)
    return items, cum


def column_units(col: Column) -> Iterator[tuple[object, int]]:
    """The (item, units) pairs a column was built from."""
    prev = 0
    for item, acc in zip(*col):
        yield item, acc - prev
        prev = acc


def draw(col: Column, total: int, rng: random.Random):
    """Item drawn with probability units / total; the column must hold total."""
    items, cum = col
    if cum[-1] != total:
        raise ValueError(f"column holds {cum[-1]} units, expected {total}")
    return items[bisect.bisect_right(cum, rng.randrange(total))]
