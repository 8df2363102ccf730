"""Online matching by sampling servers from exact optimal plans.

At every arrival the algorithm samples, from an optimal fractional
matching of the current free set canonicalized so co-located mass
matches itself, the free server s with probability n * x[s][r].  An
arrival at a free location takes its own server.

A plan provider per backing does the sampling.  Checked tree-backed
instances never build a plan: ``bmatching.tree_walk`` walks the tree's
unique optimal edge flow back from the request in O(depth) per arrival,
on the tree's rooted arrays and free-point counts per node that the
episode's state keeps current.
Every other backing draws with ``flows.draw`` from a ``flows.column`` of
integer units with an exact total, so the draw is inverse-CDF sampling
with no floating point: checked matrix metrics solve the reduced
surplus/deficit transportation problem with ``flows.transport``
(self-matches are implicit), unchecked instances solve the full program
and sample its raw columns.  These column providers memoize plans per
free set up to ``memo_max_n`` points, past which free sets rarely recur,
and stop adding plans once ``memo_max_plans`` are held; the solver is
deterministic, so memoization cannot change behavior.
Tree providers keep no memo: the walk needs none.

Every provider exposes ``sample(state, r, rng)``, ``columns(free)``, the
cost-or-gain ``matrix``, the expected ``column_mass(r, k)`` and
``canonical``.  On a tree ``columns`` is the reduced transportation plan
of its distance matrix, like any checked metric's; the walk never asks
for it.

An episode is ``run_episode(provider, stream, rng)``: the provider is
the only source of the instance, and the trial's generator drives every
draw.  The result is named by ``provider.algorithm``, so the
maximum-weight variant is the same loop over ``MaxWeightProvider``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bmatching import (
    free_below,
    release,
    solve_max_weight,
    solve_min_cost,
    tree_plan,  # unused here; bench/tracing.py wraps fairbias.tree_plan by name
    tree_walk,
)
from .flows import Column, column, draw, transport
from .metrics import MetricInstance, WeightedTree


@dataclass
class MatchingResult:
    """One episode: per-step assignments and costs plus the total."""

    algorithm: str
    assignments: list[tuple[int, int]]  # (request, server) in arrival order
    step_costs: list[int]
    total_cost: int


class OnlineState:
    """The free servers of one episode.

    ``free_set`` gives O(1) membership and removal; ``free`` builds the
    sorted tuple that plan memos key on, only when asked.  A tree
    provider's free-point counts per node are built on first use by
    ``below`` and kept current by ``remove``; assigning a new free set
    drops them.
    """

    def __init__(self, free_set: set[int]):
        self.free_set = free_set

    @property
    def free_set(self) -> set[int]:
        return self._free_set

    @free_set.setter
    def free_set(self, value: set[int]) -> None:
        self._free_set = value
        self._tree: WeightedTree | None = None  # whose counts _below holds
        self._below: list[int] = []

    @property
    def free(self) -> tuple[int, ...]:
        return tuple(sorted(self._free_set))

    @free.setter
    def free(self, value) -> None:
        self.free_set = set(value)

    @property
    def k(self) -> int:
        return len(self._free_set)

    def below(self, tree: WeightedTree) -> list[int]:
        """Free points below each node of ``tree``."""
        if self._tree is not tree:
            self._tree, self._below = tree, free_below(tree, self._free_set)
        return self._below

    def remove(self, server: int) -> None:
        self._free_set.remove(server)
        if self._tree is not None:
            release(self._tree, self._below, server)


class PlanProvider:
    """Samples servers from the canonical plan of each free set."""

    algorithm = "fair-bias"
    memo_max_n = 20
    memo_max_plans = 1 << 12  # the memo stops growing at this many plans

    def __init__(self, instance: MetricInstance, *, allow_unchecked: bool = False):
        if not instance.verified_metric and not allow_unchecked:
            raise ValueError(
                "instance is not a checked metric; pass allow_unchecked=True "
                "to run on it anyway"
            )
        self.instance = instance
        self.n = instance.n
        self.matrix = instance.matrix
        self.canonical = instance.verified_metric
        self._tree = instance.tree if instance.verified_metric else None
        # free set -> columns; tree episodes walk and never ask for columns
        memo = self._tree is None and self.n <= self.memo_max_n
        self._memo = {} if memo else None

    def sample(self, state: OnlineState, request: int, rng: random.Random) -> int:
        """Draw the server for an arrival at ``request``.

        ``step`` serves a canonical arrival at a free location itself, so
        the tree walk always starts at an occupied point.
        """
        tree = self._tree
        if tree is not None:
            return tree_walk(tree, state.below(tree), state.k, self.n, request, rng)
        mass = self.column_mass(request, state.k)
        return draw(self.columns(state.free)[request], mass, rng)

    def column_mass(self, request: int, k: int) -> int:
        """Units in column ``request`` when k servers are free."""
        return k

    def columns(self, free: tuple[int, ...]) -> dict[int, Column]:
        if self._memo is not None:
            hit = self._memo.get(free)
            if hit is not None:
                return hit
        cols = self._build(free)
        if self._memo is not None and len(self._memo) < self.memo_max_plans:
            self._memo[free] = cols
        return cols

    def _build(self, free: tuple[int, ...]) -> dict[int, Column]:
        if self.canonical:
            return self._build_reduced(free)
        n = self.n
        k = len(free)
        full = solve_min_cost(self.instance, list(free))
        return _by_location((i, j, int(f * n * k)) for i, j, f in full.entries)

    def _build_reduced(self, free: tuple[int, ...]) -> dict[int, Column]:
        # surplus n-k per free server vs deficit k per occupied location,
        # in the same n*k-scaled units as the full program
        n = self.n
        k = len(free)
        if k == n:
            return {}
        free_set = set(free)
        occupied = [p for p in range(n) if p not in free_set]
        matrix = self.matrix
        _, flows = transport(
            [n - k] * k,
            [k] * len(occupied),
            [[matrix[s][r] for r in occupied] for s in free],
        )
        return _by_location(
            (free[a], occupied[b], f) for (a, b), f in flows.items()
        )


def _by_location(triples) -> dict[int, Column]:
    """Sampling columns from (server, location, units) triples."""
    raw: dict[int, list[tuple[int, int]]] = {}
    for s, r, u in triples:
        raw.setdefault(r, []).append((s, u))
    return {r: column(pairs) for r, pairs in raw.items()}


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
        # canonical plans put the full column on the co-located server
        server = request
    else:
        server = provider.sample(state, request, rng)
    state.remove(server)
    return server, provider.matrix[server][request]


def check_stream(n: int, stream: list[int]) -> None:
    """Reject a stream that is not n arrivals at points 0..n-1."""
    if len(stream) != n:
        raise ValueError(f"stream must have exactly n={n} requests")
    if any(not 0 <= r < n for r in stream):
        raise ValueError("request location outside the instance")


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
    return MatchingResult(provider.algorithm, assignments, costs, sum(costs))


# ---------------------------------------------------------------------------
# maximum-weight variant


class MaxWeightProvider(PlanProvider):
    """Plan columns for the weighted-gain variant, memoized per free set."""

    algorithm = "max-weight"
    canonical = False
    memo_max_n = 12
    _tree = None  # gains are sampled from plan columns on every backing

    def __init__(self, weights: list[list[int]], location_weights: list[int]):
        self.n = len(weights)
        self.matrix = self.weights = weights
        self.location_weights = list(location_weights)
        self.total_weight = sum(self.location_weights)
        self._memo = {} if self.n <= self.memo_max_n else None

    def column_mass(self, request: int, k: int) -> int:
        w_r = self.location_weights[request]
        if w_r <= 0:
            raise ValueError(f"arrival at zero-probability location {request}")
        return k * w_r

    def _build(self, free: tuple[int, ...]) -> dict[int, Column]:
        sol = solve_max_weight(self.weights, list(free), self.location_weights)
        scale = len(free) * self.total_weight
        return _by_location((i, j, int(f * scale)) for i, j, f in sol.entries)
