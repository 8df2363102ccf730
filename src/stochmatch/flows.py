"""Exact transportation solves and exact sampling from integer columns.

``transport`` solves the uncapacitated transportation problem (rows with
integer supplies, columns with integer demands, a cost per row/column
pair) as a min-cost flow.  It is the one solve behind the fractional
matchings, the reduced per-arrival plans, the distribution coupling and
the offline optima.  ``MinCostFlow`` is its kernel and works on the
table itself, not on a general graph: a row x column flow table, a
potential per row and per column, and the supply and demand left.  It
runs the primal-dual method: one Dijkstra per shortest-path length, then
Dinic blocking flows over the pairs of zero reduced cost.  Costs,
potentials and flows are Python ints, so results are exact at any
magnitude.

Warm starts: ``transport(..., duals=...)`` starts the solve from one
potential per row and writes the final ones back, so a caller that
re-solves a slightly changed problem (the online providers, once per
arrival) starts from the last solve's optimal row duals.  Each column
starts at the tightest potential those rows allow, so the plan is
optimal whatever the rows hold; only the number of phases depends on
them.  With ``duals=None`` every potential starts at zero.

Determinism: searches scan rows in ascending order, then columns in
ascending order, a column tries its rows before the sink, and Dijkstra
breaks ties by node index, so identical inputs give identical flows.

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
from itertools import compress, repeat
from operator import add, eq, lt

_INF = float("inf")

Column = tuple[list, list[int]]  # items, cumulative units


class MinCostFlow:
    """Primal-dual min-cost flow on one transportation table.

    The network is source -> rows -> columns -> sink, with a source arc
    per row (its supply), a sink arc per column (its demand) and an arc
    per pair.  A pair needs no capacity: a row ships at most its supply,
    at most the total.  Dijkstra breaks ties by node number: 0 for the
    source, 1..m for the rows, m+1..m+n for the columns, m+n+1 the sink.
    Each phase raises the potentials by one Dijkstra on reduced costs,
    then pushes blocking flows (BFS levels, current-arc search) over the
    arcs of reduced cost 0 until the sink is cut off from them (Ahuja,
    Magnanti & Orlin, *Network Flows*, 1993, sections 9.7-9.8).  A source
    arc's reduced cost is its row's start potential minus its current
    one, a sink arc's its column's rise minus the sink's, so every row
    and column starts at reduced distance 0 from the source and to the
    sink: the pseudoflow start of section 9.7.
    """

    def __init__(self, supplies, demands, cost_rows, duals=None):
        m, n = len(supplies), len(demands)
        for a, row in enumerate(cost_rows):
            if min(row, default=0) < 0:
                raise ValueError(f"row {a} has negative cost {min(row)}")
        if duals is None:
            self.row_p, self.col_p = [0] * m, [0] * n
        elif len(duals) != m:
            raise ValueError(f"need {m} duals, got {len(duals)}")
        else:
            self.row_p = list(duals)
            self.col_p = [
                min((u + row[b] for u, row in zip(duals, cost_rows)), default=0)
                for b in range(n)
            ]
        self.row_start, self.col_start = list(self.row_p), list(self.col_p)
        self.sink_rise = 0
        self.cost = cost_rows
        self.flow = [[0] * n for _ in range(m)]
        self.supply_left, self.demand_left = list(supplies), list(demands)
        self.flows: dict[tuple[int, int], int] = {}

    # bench/tracing.py binds this name when it installs; the kernel builds
    # no arcs.  ROADMAP item 1 deletes it, with the fairbias.tree_plan
    # import and HierarchicalDecomposition.max_level.
    def add_edge(self, *arc) -> None:
        raise NotImplementedError("the transport kernel builds no arcs")

    def min_cost_flow(self) -> tuple[int, int]:
        """Route every unit; returns (units, cost of the plan).

        Leaves the positive pair flows, in row-major order, in ``flows``
        and the final row potentials in ``row_p``.
        """
        units = left = sum(self.supply_left)
        while left:
            self._raise_potentials()
            left -= self._blocking_flows(left)
        self.flows = {
            (a, b): f for a, row in enumerate(self.flow) for b, f in enumerate(row) if f
        }
        return units, sum(self.cost[a][b] * f for (a, b), f in self.flows.items())

    def _raise_potentials(self) -> None:
        """One phase's Dijkstra on reduced costs, stopped once the sink settles.

        Raises every potential by min(dist, dist[sink]), which keeps every
        residual reduced cost non-negative and puts every shortest path to
        the sink at reduced cost 0.  So a settled node is never improved
        on, and a pair that carries flow has reduced cost 0.  While units
        are left the sink is reachable, over any row with supply left.
        """
        m, n = len(self.row_p), len(self.col_p)
        cost, flow, row_p, col_p = self.cost, self.flow, self.row_p, self.col_p
        row_d: list[float] = [_INF] * m
        col_d: list[float] = [_INF] * n
        sink_d: float = _INF
        heap = []  # the source is settled first, at distance 0
        for a, (units, start, p) in enumerate(zip(self.supply_left, self.row_start, row_p)):
            if units > 0:
                row_d[a] = start - p
                heap.append((start - p, 1 + a))
        heapq.heapify(heap)
        heappush, heappop, sink = heapq.heappush, heapq.heappop, m + n + 1
        while True:
            d, u = heappop(heap)
            if u == sink:
                break
            if u <= m:
                a = u - 1
                if d > row_d[a]:
                    continue
                base = d + row_p[a]
                dist = [base + c - q for c, q in zip(cost[a], col_p)]
                for b in compress(range(n), map(lt, dist, col_d)):
                    col_d[b] = dist[b]
                    heappush(heap, (dist[b], 1 + m + b))
            else:
                b = u - 1 - m
                if d > col_d[b]:
                    continue
                for a, row in enumerate(flow):
                    if row[b] and d < row_d[a]:
                        row_d[a] = d
                        heappush(heap, (d, 1 + a))
                if self.demand_left[b]:
                    nd = d + col_p[b] - self.col_start[b] - self.sink_rise
                    if nd < sink_d:
                        sink_d = nd
                        heappush(heap, (nd, sink))
        # nodes not settled lie at least dist[sink] away
        row_p[:] = [p + (d if d < sink_d else sink_d) for p, d in zip(row_p, row_d)]
        col_p[:] = [p + (d if d < sink_d else sink_d) for p, d in zip(col_p, col_d)]
        self.sink_rise += sink_d

    def _blocking_flows(self, limit: int) -> int:
        """Dinic on the arcs of reduced cost 0; pushes up to limit units.

        A path holds rows and columns in turn, a1, b1, a2, ...: it ships
        a1 -> b1 on their pair, b1 -> a2 against a pair's flow, and so
        on, and ends at the sink.
        """
        flow, row_p, col_p = self.flow, self.row_p, self.col_p
        m, n, supply_left, demand_left = len(row_p), len(col_p), self.supply_left, self.demand_left
        # listed whatever their capacity: potentials hold for the phase, and
        # a pair's return arc gains capacity once the pair carries flow
        sources = [a for a, (s, p) in enumerate(zip(self.row_start, row_p)) if s == p]
        row_zero = [
            list(compress(range(n), map(eq, map(add, row, repeat(p)), col_p)))
            for row, p in zip(self.cost, row_p)
        ]
        col_zero: list[list[int]] = [[] for _ in range(n)]  # rows, then m: the sink
        for a, cols in enumerate(row_zero):
            for b in cols:
                col_zero[b].append(a)
        for b, (p, start) in enumerate(zip(col_p, self.col_start)):
            if p - start == self.sink_rise:
                col_zero[b].append(m)
        pushed = 0
        while pushed < limit:
            # BFS levels, a layer of rows and then one of columns at a time,
            # up to the sink's level
            row_lv, col_lv, sink_lv = [-1] * m, [-1] * n, -1
            rows = [a for a in sources if supply_left[a]]
            for a in rows:
                row_lv[a] = 1
            level = 1
            while rows and sink_lv < 0:
                cols = []
                for a in rows:
                    for b in row_zero[a]:
                        if col_lv[b] < 0:
                            col_lv[b] = level + 1
                            cols.append(b)
                level += 2
                rows = []
                for b in cols:
                    for a in col_zero[b]:
                        if a == m:
                            if demand_left[b]:
                                sink_lv = level
                        elif row_lv[a] < 0 and flow[a][b]:
                            row_lv[a] = level
                            rows.append(a)
            if sink_lv < 0:
                break
            # advance along current arcs one level at a time, retreat at dead ends
            next_source, row_next, col_next = 0, [0] * m, [0] * n
            path: list[int] = []
            while pushed < limit:
                if not path:
                    i = next_source
                    while i < len(sources) and not (
                        supply_left[sources[i]] and row_lv[sources[i]] == 1
                    ):
                        i += 1
                    next_source = i
                    if i == len(sources):
                        break
                    path.append(sources[i])
                elif len(path) % 2:
                    a = path[-1]
                    cols, i, lv = row_zero[a], row_next[a], row_lv[a] + 1
                    while i < len(cols) and col_lv[cols[i]] != lv:
                        i += 1
                    row_next[a] = i
                    if i < len(cols):
                        path.append(cols[i])
                    else:  # back over the arc into a
                        path.pop()
                        if path:
                            col_next[path[-1]] += 1
                        else:
                            next_source += 1
                else:
                    b = path[-1]
                    rows, i, lv = col_zero[b], col_next[b], col_lv[b] + 1
                    while i < len(rows) and not (
                        (demand_left[b] and sink_lv == lv)
                        if rows[i] == m
                        else (flow[rows[i]][b] and row_lv[rows[i]] == lv)
                    ):
                        i += 1
                    col_next[b] = i
                    if i == len(rows):  # back over the pair into b
                        path.pop()
                        row_next[path[-1]] += 1
                    elif rows[i] < m:
                        path.append(rows[i])
                    else:
                        pushed += self._augment(path, limit - pushed)
                        path.clear()
        return pushed

    def _augment(self, path: list[int], limit: int) -> int:
        """Push up to limit units along a path of rows and columns in turn."""
        flow = self.flow
        push = min(limit, self.supply_left[path[0]], self.demand_left[path[-1]])
        for i in range(2, len(path), 2):
            push = min(push, flow[path[i]][path[i - 1]])
        self.supply_left[path[0]] -= push
        self.demand_left[path[-1]] -= push
        for i in range(0, len(path), 2):
            flow[path[i]][path[i + 1]] += push
            if i:
                flow[path[i]][path[i - 1]] -= push
        return push


def transport(
    supplies: Sequence[int],
    demands: Sequence[int],
    cost_rows: Sequence[Sequence[int]],
    duals: list[int] | None = None,
) -> tuple[int, dict[tuple[int, int], int]]:
    """Min-cost transportation plan; returns (cost, flows).

    Row a ships supplies[a] units, column b receives demands[b] units,
    and a unit from a to b costs cost_rows[a][b] (non-negative).  flows
    maps (row, column) to its positive flow, in row-major order, and
    cost is the plan's sum c * x.  ``duals``, if given, holds a potential
    u_a per row; every column starts at v_b = min_a(u_a + c_ab), the
    largest potential that keeps its pairs at non-negative reduced cost,
    and the final row potentials are written back into ``duals``.
    """
    total = sum(supplies)
    if total != sum(demands):
        raise ValueError(
            f"supplies ({total}) and demands ({sum(demands)}) must balance"
        )
    if min(supplies, default=0) < 0 or min(demands, default=0) < 0:
        raise ValueError("supplies and demands must be >= 0")
    kernel = MinCostFlow(supplies, demands, cost_rows, duals)
    cost = kernel.min_cost_flow()[1]
    if duals is not None:
        duals[:] = kernel.row_p
    return cost, kernel.flows


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
