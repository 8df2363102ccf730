"""Online matching by sampling servers from exact optimal plans.

At every arrival the algorithm samples, from the canonical optimal
fractional matching of the current free set (``bmatching.canonical_plan``:
co-located mass matches itself), the free server s with probability
n * x[s][r].  An arrival at a free location takes its own server.

A plan provider per backing does the sampling.  Tree-backed instances,
checked metrics by construction, never build a plan:
``bmatching.tree_walk`` walks the tree's unique optimal edge flow back
from the request in O(depth) per arrival, on the tree's rooted arrays
and free-point counts per node that the episode's state keeps current.
The walk is the tree path from the request to the server, so the length
it returns is the step's cost, and a tree provider never reads a
distance table.
Every other backing draws with ``flows.draw`` from the columns that
``flows.columns_by_key`` groups, by location, out of a ``bmatching``
core's integer units, so the draw is inverse-CDF sampling with no
floating point and no Fraction: the canonical plan's off-diagonal units
on checked matrix metrics (self-matches are implicit), the full min-cost
plan's on unchecked instances.  ``MaxWeightProvider`` is that unchecked
provider on the cost table S - gain (``bmatching.gain_costs``, S the
largest gain) with its caller's location weights: only its ``matrix``,
the gains that steps are paid in, differs.  These providers memoize
plans per free set up to ``memo_max_n`` (12) points, at most 2^12 - 1
plans, each solved cold from zero potentials, so a memoized plan does
not depend on the episode that solved it first and memoization cannot
change behavior.  Past ``memo_max_n``, where a warm solve beats the
memo, a provider keeps no memo: the episode's ``OnlineState`` carries
one row potential per point from its last plan solve (``plan_duals``,
made at the first solve, so tree episodes never hold them), and the next
arrival's solve starts from them.  Any row potentials give an exact
optimal plan, and the last optimal ones leave little to re-optimize.
Where optimal plans tie, the one drawn from may depend on the episode's
earlier solves, which keeps free sets uniform and the expected step cost
M(T).  Tree providers keep neither memo nor duals: the walk needs neither.

Every provider exposes ``sample(state, r, rng)``, which returns the
server and the step's cost or gain, ``columns(free, duals=None)``, the
cost-or-gain ``matrix``, the ``location_weights`` w_r (all 1 for min-cost;
``bmatching.arrival_weight`` refuses w_r = 0) and ``canonical``.
On a tree ``matrix`` is the instance's table, built on first read, and
``columns`` is the canonical plan of that table, like any checked
metric's; the walk never asks for either.

An episode is ``run_episode(provider, stream, rng)``: it holds the
stream to ``bmatching.check_stream``, the provider is the only source of
the instance, and the trial's generator drives every draw.  The result
is named by ``provider.algorithm``, so the maximum-weight variant is the
same loop over ``MaxWeightProvider``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bmatching import (
    _canonical_units,
    _units,
    arrival_weight,
    check_location_weights,
    check_stream,
    free_below,
    gain_costs,
    release,
    tree_plan,  # unused here; bench/tracing.py wraps fairbias.tree_plan by name
    tree_walk,
)
from .flows import Column, columns_by_key, draw
from .metrics import MetricInstance, WeightedTree, matrix_unchecked


@dataclass
class MatchingResult:
    """One episode of any route: assignments, step costs at the true
    arrivals, and how far the relocation wrapper moved them (else 0)."""

    algorithm: str
    assignments: list[tuple[int, int]]  # (request, server) in arrival order
    step_costs: list[int]
    relocation_cost: int = 0

    @property
    def total_cost(self) -> int:
        return sum(self.step_costs)


class OnlineState:
    """The free servers of one episode.

    ``free_set`` gives O(1) membership and removal; ``free`` builds the
    sorted tuple that plan memos key on, only when asked.  A tree
    provider's free-point counts per node are built on first use by
    ``below`` and kept current by ``remove``.  A warm-starting provider's
    row potentials are made on first use by ``plan_duals``.
    """

    def __init__(self, free_set: set[int]):
        self.free_set = free_set
        self._tree: WeightedTree | None = None  # whose counts _below holds
        self._below: list[int] = []
        self._duals: list[int] | None = None  # made by plan_duals

    def plan_duals(self, n: int) -> list[int]:
        """The row potential per point that warm plan solves start from
        and write back: all zero at the episode's first solve."""
        if self._duals is None:
            self._duals = [0] * n
        return self._duals

    @property
    def free(self) -> tuple[int, ...]:
        return tuple(sorted(self.free_set))

    @property
    def k(self) -> int:
        return len(self.free_set)

    def below(self, tree: WeightedTree) -> list[int]:
        """Free points below each node of ``tree``."""
        if self._tree is not tree:
            self._tree, self._below = tree, free_below(tree, self.free_set)
        return self._below

    def remove(self, server: int) -> None:
        self.free_set.remove(server)
        if self._tree is not None:
            release(self._tree, self._below, server)


class PlanProvider:
    """Samples servers from the canonical plan of each free set, or from
    the full min-cost plan on an instance that is not a checked metric."""

    algorithm = "fair-bias"
    memo_max_n = 12

    def __init__(self, instance: MetricInstance):
        self.n = instance.n
        self._instance = instance
        self.location_weights = [1] * self.n
        self.canonical = instance.verified_metric
        self._tree = instance.tree
        # free set -> columns; tree episodes walk and never ask for columns
        memo = self._tree is None and self.n <= self.memo_max_n
        self._memo = {} if memo else None

    @property
    def matrix(self) -> list[list[int]]:
        """The instance's cost table; a tree instance builds it on first read."""
        return self._instance.matrix

    def sample(
        self, state: OnlineState, request: int, rng: random.Random
    ) -> tuple[int, int]:
        """Draw the server for an arrival at ``request``; (server, cost).

        ``step`` serves a canonical arrival at a free location itself, so
        the tree walk always starts at an occupied point.
        """
        tree = self._tree
        if tree is not None:
            return tree_walk(tree, state.below(tree), state.k, self.n, request, rng)
        mass = state.k * arrival_weight(self.location_weights, request)
        duals = None if self._memo is not None else state.plan_duals(self.n)
        server = draw(self.columns(state.free, duals)[request], mass, rng)
        return server, self.matrix[server][request]

    def columns(
        self, free: tuple[int, ...], duals: list[int] | None = None
    ) -> dict[int, Column]:
        """Sampling columns of the plan of ``free``, by location.

        With ``duals`` (``OnlineState.plan_duals``) the solve starts from
        them and writes them back, and the memo is not read or written.
        """
        memo = self._memo if duals is None else None
        if memo is not None:
            hit = memo.get(free)
            if hit is not None:
                return hit
        cols = self._build(free, duals)
        if memo is not None:
            memo[free] = cols
        return cols

    def _build(
        self, free: tuple[int, ...], duals: list[int] | None
    ) -> dict[int, Column]:
        # the canonical plan's off-diagonal part in n*k units, or the full
        # plan in k*W units, W the total location weight
        costs = self._instance.matrix
        counts = dict.fromkeys(free, 1)
        if self.canonical:
            _, units = _canonical_units(costs, counts, self.n, duals)
        else:
            _, units = _units(costs, counts, self.location_weights, duals)
        return columns_by_key(units)  # (server, location, units) triples


def init_state(n: int) -> OnlineState:
    return OnlineState(set(range(n)))


def step(
    provider: PlanProvider,
    state: OnlineState,
    request: int,
    rng: random.Random,
) -> tuple[int, int]:
    """Serve one arrival; returns (server, cost) and shrinks the free set."""
    if not state.free_set:
        raise ValueError("no free servers left")
    if provider.canonical and request in state.free_set:
        # canonical plans put the full column on the co-located server,
        # at distance 0 on a checked metric
        server, cost = request, 0
    else:
        server, cost = provider.sample(state, request, rng)
    state.remove(server)
    return server, cost


def run_episode(
    provider: PlanProvider, stream: list[int], rng: random.Random
) -> MatchingResult:
    """Serve the n arrivals of ``stream`` against n servers with ``step``."""
    n = provider.n
    check_stream(n, stream)
    state = init_state(n)
    assignments = []
    costs = []
    for r in stream:
        s, c = step(provider, state, r, rng)
        assignments.append((r, s))
        costs.append(c)
    return MatchingResult(provider.algorithm, assignments, costs)


# ---------------------------------------------------------------------------
# maximum-weight variant


class MaxWeightProvider(PlanProvider):
    """Plan columns for the weighted-gain variant: the min-cost plans of
    the cost table S - gain (``bmatching.gain_costs``), S the largest gain."""

    algorithm = "max-weight"

    def __init__(self, weights: list[list[int]], location_weights: list[int]):
        _, costs = gain_costs(weights)
        super().__init__(matrix_unchecked(costs))
        check_location_weights(location_weights, self.n)
        self.weights = weights
        self.location_weights = list(location_weights)

    @property
    def matrix(self) -> list[list[int]]:
        """The gain table, read where the base provider reads costs."""
        return self.weights
