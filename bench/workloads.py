"""The four benchmark workloads, their generated instances and reference optima.

Everything here is derived from the benchmark's own seed argument and
computed without stochmatch: the instance (random tree edges or a
shortest-path matrix), the distances between points, each trial's
arrival stream and the offline optimum of that stream.  The program
only ever sees the metric file and the scenario file written here.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "tree" (random recursive tree) or "matrix" (shortest-path closure)
    n: int
    algorithm: str  # scenario algorithm
    distribution: str  # "uniform" or "geometric" (weights 2^i)
    trials: int  # trials per round; every round replays the same trials
    max_ratio: float | None = None  # upper bound on mean ALG / mean OPT
    tiny: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tree-n256", "tree", 256, "fair-bias", "uniform", 40, max_ratio=9.0),
        Workload("matrix-n48", "matrix", 48, "fair-bias", "uniform", 16),
        Workload("split-n512", "tree", 512, "split-match", "uniform", 60),
        Workload("skew-n16", "tree", 16, "fair-bias", "geometric", 5000),
    )
}

# sizes for the self-check: the same code path, a few seconds in all
TINY_SIZES = {"tree-n256": (12, 4), "matrix-n48": (8, 4), "split-n512": (16, 4), "skew-n16": (6, 400)}


def tiny(w: Workload) -> Workload:
    n, trials = TINY_SIZES[w.name]
    return replace(w, n=n, trials=trials, tiny=True)


@dataclass
class Instance:
    workload: Workload
    seed: int
    dist: np.ndarray  # dist[s][r], int64, computed here from the generated edges or matrix
    scenario_path: Path


def random_tree_edges(n: int, rng: random.Random, max_len: int = 100) -> list[tuple[int, int, int]]:
    """Random recursive tree over hosts 0..n-1, lengths uniform in [1, max_len]."""
    return [(rng.randrange(i), i, rng.randint(1, max_len)) for i in range(1, n)]


def tree_distances(n: int, edges: list[tuple[int, int, int]]) -> np.ndarray:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = np.zeros((n, n), dtype=np.int64)
    for src in range(n):
        row = [-1] * n
        row[src] = 0
        stack = [src]
        while stack:
            x = stack.pop()
            for y, w in adj[x]:
                if row[y] < 0:
                    row[y] = row[x] + w
                    stack.append(y)
        dist[src] = row
    return dist


def random_shortest_path_matrix(n: int, rng: random.Random, max_d: int = 64) -> np.ndarray:
    """Complete graph with weights uniform in [1, max_d], closed under shortest paths."""
    d = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = rng.randint(1, max_d)
    for via in range(n):
        d = np.minimum(d, d[:, via : via + 1] + d[via : via + 1, :])
    return d


def generate(w: Workload, seed: int) -> Instance:
    """Write the workload's metric and scenario files; return its distances."""
    rng = random.Random(f"{w.name}:{seed}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}{'-tiny' if w.tiny else ''}-{seed}"
    metric_path = OUT_DIR / f"{stem}.metric"
    lines = [f"kind {w.kind}", f"n {w.n}", "scale 1"]
    if w.kind == "tree":
        edges = random_tree_edges(w.n, rng)
        lines += [f"{u} {v} {length}" for u, v, length in edges]
        dist = tree_distances(w.n, edges)
    else:
        dist = random_shortest_path_matrix(w.n, rng)
        lines += [" ".join(map(str, row)) for row in dist.tolist()]
    metric_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    scenario_path = OUT_DIR / f"{stem}.scenario"
    scenario_path.write_text(
        f"metric = file {metric_path.relative_to(ROOT)}\n"
        f"distribution = {w.distribution}\n"
        f"algorithm = {w.algorithm}\n"
        f"trials = {w.trials}\n"
        f"seed = {seed}\n",
        encoding="utf-8",
    )
    return Instance(w, seed, dist, scenario_path)


def arrival_weights(w: Workload) -> list[int]:
    if w.distribution == "uniform":
        return [1] * w.n
    return [2**i for i in range(w.n)]


def trial_stream(w: Workload, seed: int, t: int) -> list[int]:
    """The harness's seeding: trial t draws its n arrivals first from Random(seed + t)."""
    rng = random.Random(seed + t)
    if w.distribution == "uniform":
        return [rng.randrange(w.n) for _ in range(w.n)]
    cum = list(accumulate(arrival_weights(w)))
    return [bisect_right(cum, rng.randrange(cum[-1])) for _ in range(w.n)]


def optimum(dist: np.ndarray, stream: list[int]) -> int:
    """Min-cost assignment of the stream to the n servers; server s serves r at dist[s][r]."""
    cost = dist[:, stream].T  # cost[i][s]: request i served by server s
    rows, cols = linear_sum_assignment(cost)
    return int(cost[rows, cols].sum())


def reference_optima(inst: Instance) -> list[int]:
    w = inst.workload
    return [optimum(inst.dist, trial_stream(w, inst.seed, t)) for t in range(w.trials)]


def coupling_mass(inst: Instance) -> float:
    """n times the optimal coupling of the arrival law with the uniform one (an LP)."""
    w = inst.workload
    n = w.n
    weights = arrival_weights(w)
    p = np.array(weights, dtype=float) / sum(weights)
    a_eq = np.zeros((2 * n, n * n))
    for i in range(n):
        a_eq[i, i * n : (i + 1) * n] = 1.0  # row i of x carries p_i
        a_eq[n + i, i::n] = 1.0  # column i of x carries 1/n
    b_eq = np.concatenate([p, np.full(n, 1.0 / n)])
    res = linprog(inst.dist.astype(float).ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"coupling LP failed: {res.message}")
    return n * float(res.fun)
