"""Offline benchmarks: optimal cost of a realized request stream.

One min-cost assignment solves both objectives: an exact transportation
problem with ``flows.transport`` (requests collapsed by location, one
unit per server), priced like the online loop: server s serving a
request at r costs cost[s][r].  opt_general runs it on the instance's
matrix; opt_max_weight runs it on shift - weight (shift the largest
weight) and returns n * shift minus its optimum.  opt_tree uses the
closed form on trees: sum over edges of length times |requests in the
cut - servers in the cut|, which equals the assignment optimum there.
"""

from __future__ import annotations

from collections import Counter

from .flows import transport
from .metrics import MetricInstance, WeightedTree


def _request_counts(n: int, requests) -> Counter:
    counts = Counter(requests)
    if sum(counts.values()) != n:
        raise ValueError(f"need exactly n={n} requests")
    for r in counts:
        if not 0 <= r < n:
            raise ValueError(f"request location {r} outside the instance")
    return counts


def _min_assignment(cost: list[list[int]], requests) -> int:
    """Min-cost perfect assignment of the stream to the len(cost) servers."""
    n = len(cost)
    counts = _request_counts(n, requests)
    spots = sorted(counts)
    value, _ = transport(
        [counts[r] for r in spots],
        [1] * n,
        [[cost[s][r] for s in range(n)] for r in spots],
    )
    return value


def opt_general(instance: MetricInstance, requests) -> int:
    """Min-cost perfect assignment of the stream to the n servers."""
    return _min_assignment(instance.matrix, requests)


def opt_tree(tree_or_instance: WeightedTree | MetricInstance, requests) -> int:
    """Closed-form optimum on a tree: sum_e len_e * |X_e - n_e|."""
    if isinstance(tree_or_instance, MetricInstance):
        tree = tree_or_instance.tree
        if tree is None:
            raise ValueError("instance has no tree backing")
    else:
        tree = tree_or_instance
    n = tree.n_points
    counts = _request_counts(n, requests)
    node_point = tree.node_point
    parent = tree.parent
    parent_len = tree.parent_len
    # per node: requests minus servers in its subtree
    bal = [0] * tree.num_nodes
    total = 0
    for x in reversed(tree.order):
        p = node_point[x]
        if p >= 0:
            bal[x] += counts.get(p, 0) - 1
        par = parent[x]
        if par >= 0:
            if parent_len[x] and bal[x]:
                total += parent_len[x] * abs(bal[x])
            bal[par] += bal[x]
    if bal[tree.order[0]] != 0:
        raise RuntimeError("requests and servers must balance at the root")
    return total


def opt_max_weight(weights: list[list[int]], requests) -> int:
    """Max-weight perfect assignment of the stream to the n servers.

    weights[s][r] is the gain of serving a request at r with server s.
    """
    shift = max(max(row) for row in weights)
    shifted = [[shift - w for w in row] for row in weights]
    return len(weights) * shift - _min_assignment(shifted, requests)
