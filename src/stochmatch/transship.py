"""Reduction from arbitrary arrival distributions to the uniform one.

An exact transport plan couples the arrival distribution p with the
uniform distribution over server locations.  Each arrival at r is
relocated to j with probability x[r][j] / p_r; the relocated sequence
is then exactly uniform, and the online matcher runs on the relocated
requests while true costs are charged against the original locations.
The plan's mass moved, M = n * (plan LP value), prices the relocation.

The plan is the plan core ``bmatching._units`` with the arrival weights
as the server multiset and weight 1 on every location.  Its rows, the
core's triples grouped by point with ``flows.columns_by_key`` and held
to ``bmatching.check_marginals`` by ``validate``, and the arrival
distribution, one ``flows.column``, are drawn from with ``flows.draw``.
``run_wrapped(provider, plan, stream, rng)`` plays one episode from a
prepared checked-metric provider and a plan of the same size, and returns
the ``MatchingResult`` of every route: steps priced on ``provider.matrix``
at the true arrival, the distance the arrivals moved as ``relocation_cost``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .bmatching import (
    _units,
    arrival_weight,
    check_location_weights,
    check_marginals,
    check_points,
    check_stream,
)
from .fairbias import MatchingResult, PlanProvider, init_state, step
from .flows import Column, column, column_units, columns_by_key, draw
from .metrics import MetricInstance, input_lines, parse_int


@dataclass(frozen=True)
class RequestDistribution:
    """Integer-weighted distribution over the n points."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("empty distribution")
        check_location_weights(self.weights, len(self.weights))

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
    for line in input_lines(path):
        parts = line.split()
        where = f"weight line {line!r}"
        if len(parts) != 2:
            raise ValueError(f"{where} is not 'point weight'")
        pid, w = parts
        p = parse_int(pid, where)
        check_points([p], n, f"{where}: point")
        if p in seen:
            raise ValueError(f"duplicate weight line for point {p}")
        seen.add(p)
        weights[p] = parse_int(w, where)
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
        check_marginals(
            ((i, j, u) for (i, j), u in self.entry_units().items()),
            [(i, self.n * w) for i, w in enumerate(self.dist.weights)],
            [(j, self.dist.total) for j in range(self.n)],
        )


def solve_transshipment(
    instance: MetricInstance, dist: RequestDistribution
) -> CouplingPlan:
    """Min-cost exact coupling of dist with uniform over the n points."""
    n = instance.n
    if dist.n != n:
        raise ValueError("distribution size does not match the instance")
    # point i ships n * w_i units, every location takes W = sum w
    weights = {i: w for i, w in enumerate(dist.weights) if w > 0}
    cost, units = _units(instance.matrix, weights, [1] * n)
    plan_rows = columns_by_key((j, i, f) for i, j, f in units)  # rows by point
    return CouplingPlan(n, dist, plan_rows, Fraction(cost, n * dist.total))


def relocate(plan: CouplingPlan, r: int, rng: random.Random) -> int:
    """Sample the uniformized stand-in location for an arrival at r."""
    units = plan.n * arrival_weight(plan.dist.weights, r)  # w_r = 0 has no row
    return draw(plan.rows[r], units, rng)


def run_wrapped(
    provider: PlanProvider,
    plan: CouplingPlan,
    stream: list[int],
    rng: random.Random,
) -> MatchingResult:
    """Relocate each arrival of ``stream`` with ``plan`` and match online.

    The step serving stand-in b is charged d(s, a) at the true arrival a,
    which must not exceed d(a, b) + d(b, s): the metric must be checked.
    """
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
    relocation_cost = 0
    for a in stream:
        b = relocate(plan, a, rng)
        s, _ = step(provider, state, b, rng)
        true_cost = matrix[s][a]
        if true_cost > matrix[a][b] + matrix[b][s]:
            raise RuntimeError("triangle accounting")
        assignments.append((a, s))
        true_costs.append(true_cost)
        relocation_cost += matrix[a][b]
    return MatchingResult(
        "fair-bias-wrapped", assignments, true_costs, relocation_cost
    )
