"""Hierarchical tree matcher: balanced edge marking plus local recursion.

``split_decomposition`` first ternarizes the tree it is given
(zero-length internal edges cap the degree at 3, leaf distances
unchanged) and keeps both.  Split then marks one edge per component of
the copy with its recursion level, always choosing an edge whose two
sides carry at most 2/3 of the component's servers each (sides of
components with fewer than two servers are unconstrained).  Match sends
a request at an occupied leaf to the sibling side of the smallest-level
full region containing it, picks a leaf there uniformly, and recurses.

Levels strictly increase along the recursion (all regions on the
requester's chain below the chosen one are non-full, and region levels
grow with depth), so it terminates; a depth guard converts any breach
of that argument into a logged error instead of a hang.

An episode is ``run_episode_hier(decomp, stream, rng)``: it matches on
the ternarized copy and prices steps on the source tree's cached
distance matrix, so the decomposition is the only source of the tree.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field

from .fairbias import MatchingResult, check_stream
from .metrics import WeightedTree

log = logging.getLogger(__name__)


class MatchGuardError(RuntimeError):
    """The match recursion exceeded its provable depth bound."""


def ternarize(tree: WeightedTree) -> WeightedTree:
    """Cap every degree at 3 by chaining children over zero-length edges."""
    parent, parent_len, order = tree.parent, tree.parent_len, tree.order
    children: dict[int, list[int]] = {x: [] for x in range(tree.num_nodes)}
    for x in order:
        if parent[x] >= 0:
            children[parent[x]].append(x)
    edge_len = {x: parent_len[x] for x in order if parent[x] >= 0}
    next_id = tree.num_nodes
    queue = list(range(tree.num_nodes))
    while queue:
        v = queue.pop()
        kids = children[v]
        if len(kids) <= 2:
            continue
        w = next_id
        next_id += 1
        keep, moved = kids[0], kids[1:]
        children[v] = [keep, w]
        children[w] = moved
        edge_len[w] = 0
        queue.append(w)
    edges = []
    for v, kids in children.items():
        for c in kids:
            edges.append((v, c, edge_len[c]))
    return WeightedTree(next_id, edges, dict(tree.leaf_for_point))


@dataclass
class Region:
    """One side of a marked edge, at the level the edge was marked."""

    rid: int
    level: int
    leaves: tuple[int, ...]  # server-hosting leaf nodes on this side
    sibling: int = -1
    edge_index: int = -1


@dataclass
class HierarchicalDecomposition:
    tree: WeightedTree  # the ternarized copy the regions live on
    source: WeightedTree  # the tree the decomposition was asked for
    regions: list[Region] = field(default_factory=list)
    chains: dict[int, list[int]] = field(default_factory=dict)
    edge_levels: dict[int, int] = field(default_factory=dict)
    # (level, parent server count, side server counts) per split, for audits
    balance_audit: list[tuple[int, int, int, int]] = field(default_factory=list)
    top_level: int = 0  # deepest region level, recorded as regions are added

    @property
    def max_level(self) -> int:
        return self.top_level


def split_decomposition(tree: WeightedTree) -> HierarchicalDecomposition:
    """Ternarize ``tree``, then mark every edge of the copy with a level."""
    tern = ternarize(tree)
    decomp = HierarchicalDecomposition(tern, tree)
    decomp.chains = {leaf: [] for leaf in tern.leaf_for_point.values()}
    servers = set(tern.leaf_for_point.values())
    all_nodes = set(range(tern.num_nodes))
    all_edges = set(range(len(tern.edges)))
    _split(tern, decomp, all_nodes, all_edges, servers & all_nodes, 1)
    return decomp


def _best_cut(
    tree: WeightedTree, nodes: set[int], edges: set[int], leaves: set[int]
) -> tuple[int, set[int]]:
    """Edge minimizing (larger-side servers, larger-side nodes, index).

    One rooted pass over the component scores every edge; only the
    winner's child side is then materialized.
    """
    root = min(nodes)
    parent = {root: -1}
    parent_edge = {root: -1}
    order = [root]
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        for y, _, idx in tree.adj[x]:
            if idx in edges and y not in parent:
                parent[y] = x
                parent_edge[y] = idx
                order.append(y)
    below_leaves = {x: (1 if x in leaves else 0) for x in order}
    below_nodes = dict.fromkeys(order, 1)
    for x in reversed(order[1:]):
        below_leaves[parent[x]] += below_leaves[x]
        below_nodes[parent[x]] += below_nodes[x]
    total_l = len(leaves)
    total_n = len(nodes)
    best = None
    best_child = -1
    for x in order[1:]:
        la = below_leaves[x]
        na = below_nodes[x]
        key = (max(la, total_l - la), max(na, total_n - na), parent_edge[x])
        if best is None or key < best:
            best = key
            best_child = x
    e = best[2]
    side = {best_child}
    stack = [best_child]
    while stack:
        x = stack.pop()
        for y, _, idx in tree.adj[x]:
            if idx in edges and idx != e and y not in side:
                side.add(y)
                stack.append(y)
    return e, side


def _split(
    tree: WeightedTree,
    decomp: HierarchicalDecomposition,
    nodes: set[int],
    edges: set[int],
    leaves: set[int],
    level: int,
) -> None:
    stack = [(nodes, edges, leaves, level)]
    while stack:
        nodes, edges, leaves, level = stack.pop()
        if not edges:
            continue
        e, side_a = _best_cut(tree, nodes, edges, leaves)
        side_b = nodes - side_a
        leaves_a = tuple(sorted(side_a & leaves))
        leaves_b = tuple(sorted(leaves - side_a))
        if len(leaves) >= 2:
            # balance contract: neither side exceeds 2/3 of the servers here
            if 3 * max(len(leaves_a), len(leaves_b)) > 2 * len(leaves):
                raise RuntimeError(f"unbalanced split at level {level}")
        decomp.balance_audit.append(
            (level, len(leaves), len(leaves_a), len(leaves_b))
        )
        decomp.edge_levels[e] = level
        decomp.top_level = max(decomp.top_level, level)
        ra = Region(len(decomp.regions), level, leaves_a, edge_index=e)
        decomp.regions.append(ra)
        rb = Region(len(decomp.regions), level, leaves_b, edge_index=e)
        decomp.regions.append(rb)
        ra.sibling = rb.rid
        rb.sibling = ra.rid
        for leaf in leaves_a:
            decomp.chains[leaf].append(ra.rid)
        for leaf in leaves_b:
            decomp.chains[leaf].append(rb.rid)
        edges_a = set()
        for x in side_a:
            for _, _, idx in tree.adj[x]:
                if idx in edges and idx != e:
                    edges_a.add(idx)
        edges_b = edges - edges_a - {e}
        stack.append((side_a, edges_a, set(leaves_a), level + 1))
        stack.append((side_b, edges_b, set(leaves_b), level + 1))


class OccupancyState:
    """Vacancy bookkeeping per region for one episode."""

    def __init__(self, decomp: HierarchicalDecomposition):
        self.decomp = decomp
        self.vacant = [len(r.leaves) for r in decomp.regions]
        self.occupied: set[int] = set()

    def is_vacant(self, leaf: int) -> bool:
        return leaf not in self.occupied

    def occupy(self, leaf: int) -> None:
        if leaf in self.occupied:
            raise ValueError(f"leaf {leaf} already occupied")
        self.occupied.add(leaf)
        for rid in self.decomp.chains[leaf]:
            self.vacant[rid] -= 1


def hmatch(
    decomp: HierarchicalDecomposition,
    occ: OccupancyState,
    leaf: int,
    rng: random.Random,
) -> int:
    """Find the leaf whose server takes a request arriving at ``leaf``."""
    guard = decomp.top_level + 2
    u = leaf
    for _ in range(guard):
        if occ.is_vacant(u):
            return u
        chain = decomp.chains[u]
        target = -1
        for rid in chain:
            if occ.vacant[rid] == 0:
                target = rid
                break
        if target < 0:
            log.warning("occupied leaf %d has no full region", u)
            raise MatchGuardError("no full region found for an occupied leaf")
        sib = decomp.regions[decomp.regions[target].sibling]
        if occ.vacant[sib.rid] == 0 or not sib.leaves:
            log.warning("sibling region %d is full; laminar argument broken", sib.rid)
            raise MatchGuardError("sibling of the minimal full region is full")
        u = sib.leaves[rng.randrange(len(sib.leaves))]
    log.warning("match recursion guard tripped at leaf %d", leaf)
    raise MatchGuardError("match recursion exceeded its depth bound")


def run_episode_hier(
    decomp: HierarchicalDecomposition, stream: list[int], rng: random.Random
) -> MatchingResult:
    """One episode of the hierarchical matcher on ``decomp``'s source tree."""
    source, tern = decomp.source, decomp.tree
    check_stream(source.n_points, stream)
    matrix = source.leaf_distance_matrix()  # same point distances as tern's
    occ = OccupancyState(decomp)
    assignments = []
    costs = []
    for r in stream:
        u = tern.leaf_for_point[r]
        v = hmatch(decomp, occ, u, rng)
        occ.occupy(v)
        s = tern.node_point[v]
        assignments.append((r, s))
        costs.append(matrix[r][s])
    return MatchingResult("split-match", assignments, costs, sum(costs))
