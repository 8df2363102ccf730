"""Reduction from arbitrary arrival distributions to the uniform one.

An exact transport plan couples the arrival distribution p with the
uniform distribution over server locations.  Each arrival at r is
relocated to j with probability x[r][j] / p_r; the relocated sequence
is then exactly uniform, and the online matcher runs on the relocated
requests while true costs are charged against the original locations.
The plan's mass moved, M = n * (plan LP value), prices the relocation.

The plan is solved by ``flows.transport``; its rows, and the arrival
distribution itself, are ``flows.column`` sampling columns drawn from
with ``flows.draw``.  ``run_wrapped(provider, plan, stream, rng)`` plays
one episode from a prepared checked-metric provider and a plan of the
same size, and prices every step on ``provider.matrix``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .fairbias import MatchingResult, PlanProvider, check_stream, init_state, step
from .flows import Column, column, column_units, draw, transport
from .metrics import MetricInstance


@dataclass(frozen=True)
class RequestDistribution:
    """Integer-weighted distribution over the n points."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("empty distribution")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be >= 0")
        if sum(self.weights) <= 0:
            raise ValueError("total weight must be positive")

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def total(self) -> int:
        return sum(self.weights)

    def prob(self, i: int) -> Fraction:
        return Fraction(self.weights[i], self.total)

    @cached_property
    def _column(self) -> Column:
        return column(enumerate(self.weights))

    @cached_property
    def _flat(self) -> bool:
        return len(set(self.weights)) == 1

    def sample(self, rng: random.Random) -> int:
        if self._flat:  # the same randrange(total) draw, without the search
            return rng.randrange(self.total) // self.weights[0]
        return draw(self._column, self.total, rng)


def uniform_distribution(n: int) -> RequestDistribution:
    return RequestDistribution(tuple([1] * n))


def geometric_distribution(n: int, base: int = 2) -> RequestDistribution:
    """Skewed weights base**i; sharply favors the highest point ids."""
    return RequestDistribution(tuple(base**i for i in range(n)))


def load_distribution(path: str, n: int) -> RequestDistribution:
    """Read "point_id weight" integer lines; absent points get weight 0."""
    weights = [0] * n
    seen: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            pid, w = line.split()
            p = int(pid)
            if not 0 <= p < n:
                raise ValueError(f"point {pid} outside 0..{n - 1}")
            if p in seen:
                raise ValueError(f"duplicate weight line for point {p}")
            seen.add(p)
            weights[p] = int(w)
    return RequestDistribution(tuple(weights))


@dataclass
class CouplingPlan:
    """Exact transport between the arrival and uniform distributions.

    Units are integers at scale n * total_weight: row i holds n * w_i
    units, every column holds total_weight units.
    """

    n: int
    dist: RequestDistribution
    rows: dict[int, Column]  # r -> (targets, cumulative units)
    value: Fraction  # LP optimum (mass-weighted distance)

    @property
    def mass_moved(self) -> Fraction:
        """M = n * LP value, the price of one relocated episode in expectation."""
        return self.n * self.value

    def entry_units(self) -> dict[tuple[int, int], int]:
        return {
            (r, j): u
            for r, col in self.rows.items()
            for j, u in column_units(col)
        }

    def validate(self) -> None:
        W = self.dist.total
        units = self.entry_units()
        row_tot: dict[int, int] = {}
        col_tot: dict[int, int] = {}
        for (i, j), u in units.items():
            if u < 0:
                raise AssertionError("negative plan mass")
            row_tot[i] = row_tot.get(i, 0) + u
            col_tot[j] = col_tot.get(j, 0) + u
        for i in range(self.n):
            if row_tot.get(i, 0) != self.n * self.dist.weights[i]:
                raise AssertionError(f"row {i} mass mismatch")
        for j in range(self.n):
            if col_tot.get(j, 0) != W:
                raise AssertionError(f"column {j} mass mismatch")


def solve_transshipment(
    instance: MetricInstance, dist: RequestDistribution
) -> CouplingPlan:
    """Min-cost exact coupling of dist with uniform over the n points."""
    n = instance.n
    if dist.n != n:
        raise ValueError("distribution size does not match the instance")
    W = dist.total
    scale = n * W
    rows = [i for i in range(n) if dist.weights[i] > 0]
    cost, flows = transport(
        [n * dist.weights[i] for i in rows],
        [W] * n,
        [instance.matrix[i] for i in rows],
    )
    raw: dict[int, list[tuple[int, int]]] = {i: [] for i in rows}
    for (a, j), f in flows.items():
        raw[rows[a]].append((j, f))
    plan_rows = {i: column(pairs) for i, pairs in raw.items()}
    return CouplingPlan(n, dist, plan_rows, Fraction(cost, scale))


def relocate(plan: CouplingPlan, r: int, rng: random.Random) -> int:
    """Sample the uniformized stand-in location for an arrival at r."""
    w_r = plan.dist.weights[r]
    if w_r <= 0:
        raise ValueError(f"arrival at zero-probability location {r}")
    return draw(plan.rows[r], plan.n * w_r, rng)


@dataclass
class WrappedResult:
    """Episode under the relocated stream, with both cost accountings."""

    result: MatchingResult  # step costs against the true arrival locations
    relocated_cost: int  # same assignments, costs against stand-in locations
    relocation_cost: int  # distance arrivals were moved


def run_wrapped(
    provider: PlanProvider,
    plan: CouplingPlan,
    stream: list[int],
    rng: random.Random,
) -> WrappedResult:
    """Relocate each arrival of ``stream`` with ``plan`` and match online."""
    if not provider.canonical:
        raise ValueError("the wrapper's accounting needs a checked metric")
    n = provider.n
    if plan.n != n:
        raise ValueError("coupling plan size does not match the provider")
    check_stream(n, stream)
    state = init_state(n)
    matrix = provider.matrix
    assignments = []
    true_costs = []
    relocated_cost = 0
    relocation_cost = 0
    for a in stream:
        b = relocate(plan, a, rng)
        s, c_rel = step(provider, state, b, rng)
        true_cost = matrix[s][a]
        if true_cost > matrix[a][b] + matrix[b][s]:
            raise RuntimeError("triangle accounting")
        assignments.append((a, s))
        true_costs.append(true_cost)
        relocated_cost += c_rel
        relocation_cost += matrix[a][b]
    result = MatchingResult(
        "fair-bias-wrapped", assignments, true_costs, sum(true_costs)
    )
    return WrappedResult(result, relocated_cost, relocation_cost)
