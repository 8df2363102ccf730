"""Exact transportation solves and exact sampling from integer columns.

``transport`` solves the uncapacitated transportation problem (rows with
integer supplies, columns with integer demands, a cost per row/column
pair) as a min-cost flow on the table itself; ``MinCostFlow`` is its
kernel.  It is the one solve behind the fractional matchings, the
reduced per-arrival plans, the distribution coupling and the offline
optima.  Costs, potentials and flows are Python ints, so results are
exact at any magnitude, and identical inputs give identical flows.

Warm starts: ``transport(..., duals=...)`` starts the solve from one
potential per row and writes the final ones back, so a caller that
re-solves a slightly changed problem (the online providers, once per
arrival) starts from the last solve's optimal row duals.  Each column
starts at the tightest potential those rows allow, so the plan is
optimal whatever the rows hold; only the number of phases depends on
them.  With ``duals=None`` every potential starts at zero.

A plan's column is ``(items, cumulative units)``: ``column`` builds one
from (item, units) pairs, ``columns_by_key`` one per key from (item,
key, units) triples, ``column_units`` decodes one, and ``draw`` samples
an item with probability units / total from one uniform integer draw.
``randbelow`` makes many such uniform draws in one call, with the values
``rng.randrange`` would give; the arrival streams are drawn from it.
"""

from __future__ import annotations

import bisect
import heapq
import random
from collections.abc import Iterable, Iterator, Sequence
from itertools import compress, repeat
from operator import add, eq, lt, sub

_INF = float("inf")

Column = tuple[list, list[int]]  # items, cumulative units


class MinCostFlow:
    """Primal-dual min-cost flow on one transportation table.

    The network is source -> rows -> columns -> sink, with a source arc
    per row (its supply), a sink arc per column (its demand) and an arc
    per pair.  A pair needs no capacity: a row ships at most its supply,
    at most the total.  The kernel keeps a potential per row and per
    column, the supply and demand left, and the flow record:
    ``support[b]`` maps each row that carries flow on column b to that
    flow.  Each phase raises the potentials by one Dijkstra on reduced
    costs, then pushes blocking flows (BFS levels, current-arc search)
    over the arcs of reduced cost 0 until the sink is cut off from them
    (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, sections 9.7-9.8).
    A source arc's reduced cost is its row's start potential minus its
    current one, a sink arc's its column's rise minus the sink's, so
    every row and column starts at reduced distance 0 from the source and
    to the sink: the pseudoflow start of section 9.7.

    The only residual arcs out of a column, other than to the sink, run
    back to the rows in its flow record, so Dijkstra and the searches
    read those instead of scanning every row.  Within a round the levels
    stop at the sink's, the search drops a node it retreats from and
    keeps a path up to its first saturated arc after each push.  When the
    sink is one pair away, the round is shipped while the BFS labels its
    first layer: each source row, in order, sends along its zero pairs,
    in column order, into the columns next to the sink.

    Determinism: searches scan rows in ascending order, then columns in
    ascending order, a column tries its rows before the sink, and
    Dijkstra breaks ties by node number (0 for the source, 1..m for the
    rows, m+1..m+n for the columns, m+n+1 the sink).
    """

    def __init__(self, supplies, demands, cost_rows, duals=None):
        m, n = len(supplies), len(demands)
        if len(cost_rows) != m:
            raise ValueError(f"{len(cost_rows)} cost rows for {m} supplies")
        for a, row in enumerate(cost_rows):
            if len(row) != n:
                raise ValueError(f"row {a} has {len(row)} costs for {n} columns")
            if min(row, default=0) < 0:
                raise ValueError(f"row {a} has negative cost {min(row)}")
        if duals is None:
            self.row_p, self.col_p = [0] * m, [0] * n
        elif len(duals) != m:
            raise ValueError(f"need {m} duals, got {len(duals)}")
        else:
            self.row_p = list(duals)
            # each column at min_a(u_a + c_ab)
            self.col_p = (
                list(map(min, zip(*[map(add, repeat(u), row) for u, row in zip(duals, cost_rows)])))
                if m
                else [0] * n
            )
        self.row_start, self.col_start = list(self.row_p), list(self.col_p)
        self.sink_rise = 0
        self.cost = cost_rows
        self.support: list[dict[int, int]] = [{} for _ in range(n)]
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
        self.flows = flows = dict(
            sorted(((a, b), f) for b, col in enumerate(self.support) for a, f in col.items())
        )
        return units, sum(self.cost[a][b] * f for (a, b), f in flows.items())

    def _raise_potentials(self) -> None:
        """One phase's Dijkstra on reduced costs, stopped once the sink settles.

        Raises every potential by min(dist, dist[sink]), which keeps every
        residual reduced cost non-negative and puts every shortest path to
        the sink at reduced cost 0.  So a settled node is never improved
        on, and a pair that carries flow has reduced cost 0.  While units
        are left the sink is reachable, over any row with supply left.
        Pops never decrease while reduced costs are non-negative; one that
        does raises RuntimeError instead of letting the solve run on.
        """
        m, n = len(self.row_p), len(self.col_p)
        cost, support, row_p, col_p = self.cost, self.support, self.row_p, self.col_p
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
        last = -_INF
        while True:
            d, u = heappop(heap)
            if d < last:
                raise RuntimeError(
                    f"Dijkstra popped {d} after {last}: a reduced cost went negative"
                )
            last = d
            if u == sink:
                break
            if u <= m:
                a = u - 1
                if d > row_d[a]:
                    continue
                dist = list(map(sub, map(add, repeat(d + row_p[a]), cost[a]), col_p))
                for b in compress(range(n), map(lt, dist, col_d)):
                    col_d[b] = dist[b]
                    heappush(heap, (dist[b], 1 + m + b))
            else:
                b = u - 1 - m
                if d > col_d[b]:
                    continue
                for a in support[b]:
                    if d < row_d[a]:
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
        on, and ends at the sink.  A row tries its zero pairs and a
        column its flow rows in ascending order, so the pushes are those
        of a current-arc search over every zero pair.  A round whose sink
        is one pair away makes that search's pushes while its BFS labels
        the first layer, and ends there.
        """
        cost, support = self.cost, self.support
        row_p, col_p = self.row_p, self.col_p
        supply_left, demand_left = self.supply_left, self.demand_left
        m, n = len(row_p), len(col_p)
        # listed whatever their supply: potentials hold for the phase
        sources = list(compress(range(m), map(eq, self.row_start, row_p)))
        to_sink = list(map(eq, map(sub, col_p, self.col_start), repeat(self.sink_rise)))
        row_zero: list[list[int] | None] = [None] * m  # built on a row's first visit
        pushed = 0
        while pushed < limit:
            # BFS levels, a layer of rows and then one of columns at a time,
            # up to the sink's level; level 0 marks a node the search dropped
            row_lv, col_lv = [-1] * m, [-1] * n
            rows = list(compress(sources, map(supply_left.__getitem__, sources)))
            for a in rows:
                row_lv[a] = 1
            level, start = 1, pushed
            while rows:
                cols = []
                for a in rows:
                    zero = row_zero[a]
                    if zero is None:
                        zero = row_zero[a] = list(
                            compress(range(n), map(eq, map(add, cost[a], repeat(row_p[a])), col_p))
                        )
                    for b in zero:
                        if col_lv[b] < 0:
                            col_lv[b] = level + 1
                            cols.append(b)
                    if level == 1 and pushed < limit:
                        for b in zero:
                            if demand_left[b] and to_sink[b]:
                                push = min(limit - pushed, supply_left[a], demand_left[b])
                                col = support[b]
                                col[a] = col.get(a, 0) + push
                                supply_left[a] -= push
                                demand_left[b] -= push
                                pushed += push
                                if not supply_left[a] or pushed == limit:
                                    break
                level += 2
                if pushed > start or any(demand_left[b] and to_sink[b] for b in cols):
                    break
                rows = []
                for b in cols:
                    for a in support[b]:
                        if row_lv[a] < 0:
                            row_lv[a] = level
                            rows.append(a)
            else:  # the sink is cut off: the phase is over
                break
            if pushed > start:
                continue
            sink_lv = level
            # advance along current arcs one level at a time, retreat at dead ends
            next_source, row_next, col_next = 0, [0] * m, [0] * n
            col_rows: list[list[int] | None] = [None] * n
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
                    continue
                if len(path) % 2:
                    a = path[-1]
                    cols, i, lv = row_zero[a], row_next[a], row_lv[a] + 1
                    while i < len(cols) and col_lv[cols[i]] != lv:
                        i += 1
                    row_next[a] = i
                    if i < len(cols):
                        path.append(cols[i])
                    else:  # back over the arc into a, for good
                        row_lv[a] = 0
                        path.pop()
                    continue
                b = path[-1]
                lv = col_lv[b] + 1
                if lv == sink_lv:
                    if not (demand_left[b] and to_sink[b]):
                        col_lv[b] = 0
                        path.pop()
                        continue
                    pushed += self._augment(path, limit - pushed)
                    # the path up to its first saturated arc still holds
                    if not supply_left[path[0]]:
                        path.clear()
                    else:
                        for i in range(2, len(path), 2):
                            if path[i] not in support[path[i - 1]]:
                                del path[i:]
                                break
                    continue
                rows = col_rows[b]
                if rows is None:
                    rows = col_rows[b] = sorted(a for a in support[b] if row_lv[a] == lv)
                i, col = col_next[b], support[b]
                while i < len(rows) and not (rows[i] in col and row_lv[rows[i]] == lv):
                    i += 1
                col_next[b] = i
                if i < len(rows):
                    path.append(rows[i])
                else:  # back over the pair into b, for good
                    col_lv[b] = 0
                    path.pop()
        return pushed

    def _augment(self, path: list[int], limit: int) -> int:
        """Push up to limit units along a path of rows and columns in turn."""
        support = self.support
        push = min(limit, self.supply_left[path[0]], self.demand_left[path[-1]])
        for i in range(2, len(path), 2):
            push = min(push, support[path[i - 1]][path[i]])
        self.supply_left[path[0]] -= push
        self.demand_left[path[-1]] -= push
        for i in range(0, len(path), 2):
            a, col = path[i], support[path[i + 1]]
            col[a] = col.get(a, 0) + push
            if i:
                back = support[path[i - 1]]
                if back[a] == push:
                    del back[a]
                else:
                    back[a] -= push
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


def columns_by_key(triples: Iterable[tuple]) -> dict[object, Column]:
    """Sampling columns from (item, key, units) triples, one per key."""
    raw: dict = {}
    for item, key, units in triples:
        raw.setdefault(key, []).append((item, units))
    return {key: column(pairs) for key, pairs in raw.items()}


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


def randbelow(total: int, count: int, rng: random.Random) -> list[int]:
    """``count`` draws of ``rng.randrange(total)``, from the same bits.

    CPython's ``randrange(m)`` takes k = m.bit_length() bits from
    ``getrandbits`` and redraws while the value is >= m.  This does the
    same without the per-call argument handling, so the values, and the
    generator's state after them, are those of ``count`` randrange calls.
    """
    if total < 1:
        raise ValueError(f"need a positive total, got {total}")
    k = total.bit_length()
    getrandbits = rng.getrandbits
    out = []
    append = out.append
    for _ in range(count):
        r = getrandbits(k)
        while r >= total:
            r = getrandbits(k)
        append(r)
    return out
