"""Offline benchmarks: optimal cost of a realized request stream.

One min-cost assignment solves both objectives: the plan core
``bmatching._units`` with the requests as rows (collapsed by location)
and one location per server, priced like the online loop: server s
serving a request at r costs cost[s][r].  opt_general runs it on the
instance's matrix; opt_max_weight runs it on ``bmatching.gain_costs``
(shift - weight, shift the largest weight) and returns n * shift minus
its optimum.  On a tree optimal transport has one edge flow, the kind
the online walk samples, and ``WeightedTree.imbalance_cost`` prices
it: opt_tree, on a tree instance, is the sum over edges of length times
|requests below - servers below|, the optimum there.  Each optimum holds its
stream, a sized sequence, to the episodes' ``bmatching.check_stream``.
"""

from __future__ import annotations

from collections import Counter

from .bmatching import _units, check_stream, gain_costs
from .metrics import MetricInstance, square_size


def _min_assignment(cost: list[list[int]], requests) -> int:
    """Min-cost perfect assignment of the stream to the len(cost) servers.

    The request multiset against one location per server, on the
    transposed table: ``_units`` ships n units per request, so its cost
    is n times the optimum, exactly.  The solve starts from zero row
    duals, so each server column starts at its nearest request: the
    same optimum in fewer phases than a cold start.
    """
    n = square_size(cost)
    check_stream(n, requests)
    return _units(list(zip(*cost)), Counter(requests), [1] * n, [0] * n)[0] // n


def opt_general(instance: MetricInstance, requests) -> int:
    """Min-cost perfect assignment of the stream to the n servers."""
    return _min_assignment(instance.matrix, requests)


def opt_tree(instance: MetricInstance, requests) -> int:
    """Closed-form optimum on a tree instance: sum_e len_e * |X_e - n_e|."""
    tree = instance.tree
    if tree is None:
        raise ValueError("instance has no tree backing")
    check_stream(tree.n_points, requests)
    return tree.imbalance_cost(Counter(requests), 1, 1)


def opt_max_weight(weights: list[list[int]], requests) -> int:
    """Max-weight perfect assignment of the stream to the n servers.

    weights[s][r] is the gain of serving a request at r with server s.
    """
    shift, costs = gain_costs(weights)
    return len(costs) * shift - _min_assignment(costs, requests)
