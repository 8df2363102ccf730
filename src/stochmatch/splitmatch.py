"""Hierarchical tree matcher: balanced edge marking plus local recursion.

``split_decomposition`` first ternarizes the tree it is given
(zero-length internal edges cap the degree at 3, leaf distances
unchanged) and keeps both.  Split then marks one edge per component of
the copy with its recursion level, always choosing an edge whose two
sides carry at most 2/3 of the component's servers each (sides of
components with fewer than two servers are unconstrained).  The cuts
run on the copy's own rooting: a component lists its nodes in the BFS
``order``, is scored by one bottom-up pass and split by one top-down
pass.  The two sides of a cut are its one record, regions 2j and 2j + 1,
so a region's sibling is ``rid ^ 1``.  Match sends a request at an
occupied leaf to the sibling of the smallest-level full region
containing it, picks a leaf there uniformly, and recurses.

Levels strictly increase along the recursion (all regions on the
requester's chain below the chosen one are non-full, and region levels
grow with depth), so it terminates; a depth guard converts any breach
of that argument into a logged error instead of a hang.

Steps are priced without a distance table.  Let R be the first full
region a match crosses out of, cut at edge e, and S its sibling: by the
laminar argument every later jump stays inside S, so the server v is in
S and d(u, v) = d(u, e's end in R) + len(e) + d(e's end in S, v).  The
decomposition stores, per leaf and aligned with its chain, the distance
to the cut edge's end on the leaf's side, with len(e) folded into side
a's; ``hmatch`` returns R's chain index with the leaf it found, so a
step costs two list reads and an add.

An episode is ``run_episode_hier(decomp, stream, rng)``: it matches on
the ternarized copy and prices steps with those offsets, so the
decomposition is the only source of the tree.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

from .bmatching import check_stream
from .fairbias import MatchingResult
from .metrics import WeightedTree

log = logging.getLogger(__name__)


class MatchGuardError(RuntimeError):
    """The match recursion exceeded its provable depth bound."""


def ternarize(tree: WeightedTree) -> WeightedTree:
    """Cap every degree at 3 by chaining children over zero-length edges."""
    children = list(tree.children)  # rows are replaced, never changed in place
    edge_len = list(tree.parent_len)
    queue = list(range(tree.num_nodes))
    while queue:
        v = queue.pop()
        kids = children[v]
        if len(kids) > 2:
            w = len(children)  # the chain node takes the next free id
            children[v] = [kids[0], w]
            children.append(kids[1:])
            edge_len.append(0)
            queue.append(w)
    edges = [(v, c, edge_len[c]) for v, kids in enumerate(children) for c in kids]
    return WeightedTree(len(children), edges, dict(tree.leaf_for_point))


@dataclass
class Region:
    """One side of a marked edge, at the level the edge was marked."""

    level: int
    leaves: tuple[int, ...]  # server-hosting leaf nodes on this side
    edge_index: int


@dataclass
class HierarchicalDecomposition:
    tree: WeightedTree  # the ternarized copy the regions live on
    regions: list[Region]  # side a of each cut at an even id, side b next
    chains: dict[int, list[int]]
    # per leaf, aligned with its chain: distance to the end of the region's
    # cut edge on the leaf's side, plus the edge's length on side a
    offsets: dict[int, list[int]]
    top_level: int  # deepest region level

    @property
    def max_level(self) -> int:
        return self.top_level


def split_decomposition(tree: WeightedTree) -> HierarchicalDecomposition:
    """Ternarize ``tree``, then mark every edge of the copy with a level.

    A component is a list of the copy's nodes in its BFS ``order``: the
    first is its top, and every other node's parent edge lies inside it.
    """
    tern = ternarize(tree)
    regions: list[Region] = []
    chains = {leaf: [] for leaf in tern.leaf_for_point.values()}
    offsets = {leaf: [] for leaf in tern.leaf_for_point.values()}
    top_level = 0
    parent, point, depth = tern.parent, tern.node_point, tern.depth
    up_edge = [-1] * tern.num_nodes  # index of the edge x - parent[x]
    for idx, (u, v, _) in enumerate(tern.edges):
        up_edge[v if parent[v] == u else u] = idx
    below_l = [0] * tern.num_nodes  # servers below x inside the component
    below_n = [0] * tern.num_nodes  # nodes below x inside the component
    below_cut = [False] * tern.num_nodes
    meet = [0] * tern.num_nodes  # lowest ancestor on the path to parent[cut]
    stack = [(tern.order, 1)]
    while stack:
        comp, level = stack.pop()
        if len(comp) < 2:
            continue
        for x in comp:
            below_l[x] = 1 if point[x] >= 0 else 0
            below_n[x] = 1
        for i in range(len(comp) - 1, 0, -1):
            x = comp[i]
            below_l[parent[x]] += below_l[x]
            below_n[parent[x]] += below_n[x]
        total_l, total_n = below_l[comp[0]], len(comp)
        # the edge minimizing (larger-side servers, larger-side nodes, index)
        best = None
        for x in comp[1:]:
            la, na = below_l[x], below_n[x]
            key = (max(la, total_l - la), max(na, total_n - na), up_edge[x])
            if best is None or key < best:
                best, cut = key, x
        for x in comp:
            below_cut[x] = x == cut or (x != comp[0] and below_cut[parent[x]])
        # off the cut's subtree, a leaf meets the path from parent[cut] up to
        # the top at its lowest ancestor there
        end = parent[cut]
        path = {comp[0]}
        x = end
        while x != comp[0]:
            path.add(x)
            x = parent[x]
        for x in comp:
            if not below_cut[x]:
                meet[x] = x if x in path else meet[parent[x]]
        side_a = [x for x in comp if below_cut[x]]
        side_b = [x for x in comp if not below_cut[x]]
        if below_cut[min(comp)]:  # side a is the one away from the smallest id
            side_a, side_b = side_b, side_a
        leaves_a = tuple(sorted(x for x in side_a if point[x] >= 0))
        leaves_b = tuple(sorted(x for x in side_b if point[x] >= 0))
        # balance contract: neither side exceeds 2/3 of the servers here
        if total_l >= 2 and 3 * max(len(leaves_a), len(leaves_b)) > 2 * total_l:
            raise RuntimeError(f"unbalanced split at level {level}")
        e = up_edge[cut]
        top_level = max(top_level, level)
        rid = len(regions)  # even: side a is region rid, side b rid + 1
        regions.append(Region(level, leaves_a, e))
        regions.append(Region(level, leaves_b, e))
        len_e = tern.parent_len[cut]
        for leaves, rid_side, extra in ((leaves_a, rid, len_e), (leaves_b, rid + 1, 0)):
            for leaf in leaves:
                chains[leaf].append(rid_side)
                if below_cut[leaf]:
                    off = depth[leaf] - depth[cut]
                else:
                    off = depth[leaf] + depth[end] - 2 * depth[meet[leaf]]
                offsets[leaf].append(off + extra)
        stack.append((side_a, level + 1))
        stack.append((side_b, level + 1))
    return HierarchicalDecomposition(tern, regions, chains, offsets, top_level)


class OccupancyState:
    """Vacancy bookkeeping per region for one episode."""

    def __init__(self, decomp: HierarchicalDecomposition):
        self.decomp = decomp
        self.vacant = [len(r.leaves) for r in decomp.regions]
        self.occupied: set[int] = set()

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
) -> tuple[int, int]:
    """Find the leaf whose server takes a request arriving at ``leaf``.

    Returns ``(v, crossed)``: the leaf v, and the chain index of the first
    full region the match crossed out of, or -1 when ``leaf`` was vacant.
    """
    guard = decomp.top_level + 2
    u = leaf
    crossed = -1
    for _ in range(guard):
        if u not in occ.occupied:
            return u, crossed
        for rid in decomp.chains[u]:
            if occ.vacant[rid] == 0:
                break
        else:
            log.warning("occupied leaf %d has no full region", u)
            raise MatchGuardError("no full region found for an occupied leaf")
        rid ^= 1  # the sibling; an empty side reads vacant 0 too
        if occ.vacant[rid] == 0:
            log.warning("sibling region %d is full; laminar argument broken", rid)
            raise MatchGuardError("sibling of the minimal full region is full")
        sib = decomp.regions[rid]
        if u == leaf:  # chains hold one region per level, from level 1
            crossed = sib.level - 1
        u = sib.leaves[rng.randrange(len(sib.leaves))]
    log.warning("match recursion guard tripped at leaf %d", leaf)
    raise MatchGuardError("match recursion exceeded its depth bound")


def run_episode_hier(
    decomp: HierarchicalDecomposition, stream: list[int], rng: random.Random
) -> MatchingResult:
    """One episode of the hierarchical matcher on ``decomp``'s tree.

    A step from u to v across the cut of chain index i, the one this
    step's ``hmatch`` crossed, costs offsets[u][i] + offsets[v][i]:
    exactly one of the two holds the cut edge's length.
    """
    tern, offsets = decomp.tree, decomp.offsets
    leaf_for_point, node_point = tern.leaf_for_point, tern.node_point
    check_stream(tern.n_points, stream)
    occ = OccupancyState(decomp)
    assignments = []
    costs = []
    for r in stream:
        u = leaf_for_point[r]
        v, i = hmatch(decomp, occ, u, rng)  # i is -1 when v == u
        costs.append(offsets[u][i] + offsets[v][i] if i >= 0 else 0)
        occ.occupy(v)
        assignments.append((r, node_point[v]))
    return MatchingResult(assignments, costs)
