"""Online matching by sampling servers from exact optimal plans.

At every arrival the algorithm re-solves the fractional matching of the
current free set, canonicalized so co-located mass matches itself, and
assigns the request to free server s with probability n * x[s][r].  The
sampling distribution is carried as a ``flows.column`` of integer units
with an exact total, so one ``flows.draw`` per step implements
inverse-CDF sampling with no floating point.

A plan provider per backing keeps this fast: tree-backed instances use
the bottom-up canonical plan, checked matrix metrics solve the reduced
surplus/deficit transportation problem with ``flows.transport``
(self-matches are implicit), unchecked instances solve the full program
and sample its raw columns.  Providers memoize plans per free set up to
``memo_max_n`` points, past which free sets rarely recur; the solver is
deterministic, so memoization cannot change behavior.

The maximum-weight variant is the same loop over a different provider:
every provider exposes ``columns(free)``, the cost-or-gain ``matrix``,
the expected ``column_mass(r, k)`` and ``canonical``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bmatching import solve_max_weight, solve_min_cost, tree_context, tree_plan
from .flows import Column, column, draw, transport
from .metrics import MetricInstance


@dataclass
class MatchingResult:
    """One episode: per-step assignments and costs plus the total."""

    algorithm: str
    seed: int | None
    assignments: list[tuple[int, int]]  # (request, server) in arrival order
    step_costs: list[int]
    total_cost: int


@dataclass
class OnlineState:
    free: tuple[int, ...]
    free_set: set[int]

    @property
    def k(self) -> int:
        return len(self.free)


class PlanProvider:
    """Sampling columns of the canonical plan for each free set."""

    memo_max_n = 20

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
        self._ctx = (
            tree_context(instance.tree)
            if instance.verified_metric and instance.tree is not None
            else None
        )
        self._memo = {} if self.n <= self.memo_max_n else None  # free set -> columns

    def column_mass(self, request: int, k: int) -> int:
        """Units in column ``request`` when k servers are free."""
        return k

    def columns(self, free: tuple[int, ...]) -> dict[int, Column]:
        if self._memo is not None:
            hit = self._memo.get(free)
            if hit is not None:
                return hit
        cols = self._build(free)
        if self._memo is not None:
            self._memo[free] = cols
        return cols

    def _build(self, free: tuple[int, ...]) -> dict[int, Column]:
        n = self.n
        k = len(free)
        if self._ctx is not None:
            counts = dict.fromkeys(free, 1)
            _, cols = tree_plan(self._ctx, counts, k, n)
            return cols
        if self.canonical:
            return self._build_reduced(free)
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
    free = tuple(range(n))
    return OnlineState(free, set(free))


def step(
    provider: PlanProvider,
    state: OnlineState,
    request: int,
    rng: random.Random,
) -> tuple[int, int]:
    """Serve one arrival; returns (server, cost) and shrinks the free set."""
    k = state.k
    if k == 0:
        raise ValueError("no free servers left")
    if provider.canonical and request in state.free_set:
        # canonical plans put the full column on the co-located server
        server = request
    else:
        mass = provider.column_mass(request, k)
        server = draw(provider.columns(state.free)[request], mass, rng)
    cost = provider.matrix[server][request]
    state.free_set.discard(server)
    state.free = tuple(p for p in state.free if p != server)
    return server, cost


def checked_rng(
    n: int, stream: list[int], seed: int | None, rng: random.Random | None
) -> random.Random:
    """Check an episode's stream against n points; default rng from seed."""
    if len(stream) != n:
        raise ValueError(f"stream must have exactly n={n} requests")
    if any(not 0 <= r < n for r in stream):
        raise ValueError("request location outside the instance")
    return random.Random(seed) if rng is None else rng


def _play(
    algorithm: str,
    provider: PlanProvider,
    stream: list[int],
    seed: int | None,
    rng: random.Random | None,
) -> MatchingResult:
    """Serve every arrival of the stream with ``step``."""
    n = provider.n
    rng = checked_rng(n, stream, seed, rng)
    state = init_state(n)
    assignments = []
    costs = []
    for r in stream:
        s, c = step(provider, state, r, rng)
        assignments.append((r, s))
        costs.append(c)
    return MatchingResult(algorithm, seed, assignments, costs, sum(costs))


def run_episode(
    instance: MetricInstance,
    stream: list[int],
    *,
    seed: int | None = None,
    rng: random.Random | None = None,
    provider: PlanProvider | None = None,
    allow_unchecked: bool = False,
) -> MatchingResult:
    """Play one full episode (n arrivals against n servers)."""
    if provider is None:
        provider = PlanProvider(instance, allow_unchecked=allow_unchecked)
    return _play("fair-bias", provider, stream, seed, rng)


# ---------------------------------------------------------------------------
# maximum-weight variant


class MaxWeightProvider(PlanProvider):
    """Plan columns for the weighted-gain variant, memoized per free set."""

    canonical = False
    memo_max_n = 12

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


def run_episode_max_weight(
    weights: list[list[int]],
    location_weights: list[int],
    stream: list[int],
    *,
    seed: int | None = None,
    rng: random.Random | None = None,
    provider: MaxWeightProvider | None = None,
) -> MatchingResult:
    """Weighted episode: server s serves r with probability x[s][r] / p_r."""
    if provider is None:
        provider = MaxWeightProvider(weights, location_weights)
    return _play("max-weight", provider, stream, seed, rng)
