"""Acceptance gate: one check and one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines
as they complete; without ``-s`` they only surface on failure.  Every
check is seeded, so reruns are bit-identical apart from wall time.
"""
from __future__ import annotations

import math
import random
import time

from stochmatch.ballsbins import estimate_Nk_multi, monotone_indicator_comparison
from stochmatch.fairbias import MaxWeightProvider, run_episode
from stochmatch.harness import Scenario, run_trials
from stochmatch.metrics import (
    frt_embed,
    line_metric,
    random_metric,
    random_recursive_tree,
    star_tree,
    tree_metric,
    uniform_metric,
)
from stochmatch.offline import opt_general, opt_max_weight, opt_tree
from stochmatch.splitmatch import run_episode_hier, split_decomposition
from stochmatch.verify import (
    verify_cost_decomposition,
    verify_match_to_self,
    verify_replacement,
    verify_scaling,
    verify_structure_lemma,
)


def _report(name: str, ok: bool, details: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {details} ({time.perf_counter() - t0:.1f}s)")


def test_01_tree_ratio_at_most_four():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    worst_hi = 0.0
    pieces = []
    runs = [("random", n) for n in (8, 16, 32, 64)] + [("line", 32)]
    for kind, n in runs:
        sc = Scenario(kind, str(n), trials=2000, seed=100 + n)
        _, summary = run_trials(sc)
        worst_ratio = max(worst_ratio, summary.ratio)
        worst_hi = max(worst_hi, summary.ci_high)
        pieces.append(f"{kind}{n}={summary.ratio:.2f}")
    ok = worst_ratio <= 4.0 and worst_hi <= 4.2
    _report(
        "uniform arrivals on trees",
        ok,
        f"{', '.join(pieces)}, worst CI high {worst_hi:.2f} (bounds 4 / 4.2)",
        t0,
    )
    assert ok


def test_02_skewed_arrivals_stay_under_nine():
    t0 = time.perf_counter()
    worst = 0.0
    pieces = []
    for n in (8, 16):
        sc = Scenario(
            "random", str(n), distribution="geometric", trials=3000, seed=40 + n
        )
        _, summary = run_trials(sc)
        worst = max(worst, summary.ratio)
        pieces.append(f"n={n} ratio {summary.ratio:.2f}")
    ok = worst <= 9.0
    _report(
        "skewed arrivals through relocation",
        ok,
        f"{', '.join(pieces)} (bound 9)",
        t0,
    )
    assert ok


def test_03_free_sets_are_uniform_subsets():
    t0 = time.perf_counter()
    reports = [
        verify_structure_lemma(uniform_metric(n), 100_000, seed=60 + n)
        for n in (4, 5)
    ]
    min_p = min(row.pvalue for rep in reports for row in rep.rows)
    ok = all(rep.ok for rep in reports)
    _report(
        "free-set uniformity",
        ok,
        f"n=4,5 with 1e5 episodes, min p-value {min_p:.4f} (need > 0.01)",
        t0,
    )
    assert ok


def test_04_episode_cost_decomposes_by_size():
    t0 = time.perf_counter()
    instance = tree_metric(random_recursive_tree(6, random.Random(1234)))
    report = verify_cost_decomposition(instance, trials=100_000, seed=77)
    episodes, summed = report.rows[:2]
    gap = abs(episodes.mean - summed.mean)
    sigma = math.sqrt(episodes.stderr**2 + summed.stderr**2)
    ok = report.ok
    _report(
        "cost decomposition across free-set sizes",
        ok,
        f"episodes {episodes.mean:.3f} vs summed {summed.mean:.3f}, "
        f"gap {gap:.3f} <= 3 sigma {3 * sigma:.3f}",
        t0,
    )
    assert ok


def test_05_subset_average_at_most_iid_average():
    t0 = time.perf_counter()
    fixtures = (
        [line_metric(n) for n in range(2, 6)]
        + [uniform_metric(n) for n in range(2, 6)]
        + [tree_metric(star_tree(n)) for n in (3, 4, 5)]
        + [
            tree_metric(random_recursive_tree(n, random.Random(50 + n)))
            for n in (4, 5)
        ]
    )
    rows = 0
    ok = True
    for inst in fixtures:
        report = verify_replacement(inst)
        rows += len(report.rows)
        ok = ok and report.ok
    _report(
        "subset vs iid free-set cost",
        ok,
        f"{len(fixtures)} fixtures, {rows} exact (k) rows, zero tolerance",
        t0,
    )
    assert ok


def test_06_canonical_plans_self_match_maximally():
    t0 = time.perf_counter()
    report = verify_match_to_self(100, seed=2024)
    ok = report.ok
    _report(
        "canonical self-match shape",
        ok,
        f"{report.checked} random instances, {len(report.rows)} failures",
        t0,
    )
    assert ok


def test_07_complement_scaling_identity():
    t0 = time.perf_counter()
    report = verify_scaling(100, seed=4242)
    ok = report.ok
    _report(
        "complement scaling identity",
        ok,
        f"{report.checked} exact subset identities, "
        f"{len(report.rows)} failures",
        t0,
    )
    assert ok


def test_08_tree_closed_form_matches_general_solver():
    t0 = time.perf_counter()
    rng = random.Random(31337)
    mismatches = 0
    for _ in range(500):
        n = rng.randint(2, 8)
        tree = random_recursive_tree(n, rng, max_len=50)
        inst = tree_metric(tree)
        stream = [rng.randrange(n) for _ in range(n)]
        if opt_tree(inst, stream) != opt_general(inst, stream):
            mismatches += 1
    ok = mismatches == 0
    _report(
        "tree optimum closed form",
        ok,
        f"500 random (tree, stream) pairs, {mismatches} mismatches",
        t0,
    )
    assert ok


def test_09_top_k_loads_and_poisson_domination():
    t0 = time.perf_counter()
    est = estimate_Nk_multi(1000, [10, 50, 250, 500], 10_000, random.Random(99))
    pieces = []
    ok = True
    for k in (50, 250, 500):
        mean, se = est[k]
        bound = 1.5 * k - 3 * se
        ok = ok and mean >= bound
        pieces.append(f"k={k}: {mean:.0f}>={bound:.0f}")
    mean10, _ = est[10]
    ok = ok and mean10 >= 2 * 10
    pieces.append(f"k=10: {mean10:.1f}>=20")
    comp = monotone_indicator_comparison(50, 5, 3, 10_000, random.Random(7))
    ok = ok and comp.ok
    pieces.append(
        f"domination {comp.fixed_mean:.3f} <= "
        f"2*{comp.poisson_mean:.3f}+3sig"
    )
    _report("top-k loads and poisson domination", ok, ", ".join(pieces), t0)
    assert ok


def test_10_max_weight_gains_at_least_half_optimum():
    t0 = time.perf_counter()
    pieces = []
    ok = True
    for n in (4, 8):
        rng = random.Random(500 + n)
        weights = [[rng.randint(1, 20) for _ in range(n)] for _ in range(n)]
        loc_w = [1] * n
        provider = MaxWeightProvider(weights, loc_w)
        algs = []
        opts = []
        for t in range(10_000):
            ep = random.Random(9000 + t)
            stream = [ep.randrange(n) for _ in range(n)]
            res = run_episode(provider, stream, ep)
            algs.append(float(res.total_cost))
            opts.append(float(opt_max_weight(weights, stream)))
        ma = sum(algs) / len(algs)
        mo = sum(opts) / len(opts)
        se_a = math.sqrt(
            sum((a - ma) ** 2 for a in algs) / (len(algs) - 1) / len(algs)
        )
        se_o = math.sqrt(
            sum((o - mo) ** 2 for o in opts) / (len(opts) - 1) / len(opts)
        )
        sigma = math.sqrt(se_a**2 + 0.25 * se_o**2)
        ok = ok and ma >= 0.5 * mo - 3 * sigma
        pieces.append(f"n={n}: E[gain] {ma:.2f} vs half-opt {0.5 * mo:.2f}")
    _report("max-weight half-optimum bound", ok, ", ".join(pieces), t0)
    assert ok


def test_11_embedding_dominates_with_stable_stretch():
    t0 = time.perf_counter()
    fixtures = [
        ("line32", line_metric(32)),
        ("uniform16", uniform_metric(16)),
        ("random24", random_metric(24, random.Random(111))),
    ]
    ok = True
    pieces = []
    for name, inst in fixtures:
        n = inst.n
        means = []
        dominated = True
        for s in range(100):
            tree = frt_embed(inst, random.Random(1000 + s))
            tmat = tree.leaf_distance_matrix()
            total = 0.0
            pairs = 0
            for i in range(n):
                for j in range(i + 1, n):
                    if tmat[i][j] < inst.matrix[i][j]:
                        dominated = False
                    total += tmat[i][j] / inst.matrix[i][j]
                    pairs += 1
            means.append(total / pairs)
        grand = sum(means) / len(means)
        cums = []
        acc = 0.0
        for i, m in enumerate(means, start=1):
            acc += m
            cums.append(acc / i)
        spread_first = max(cums[:50]) - min(cums[:50])
        spread_last = max(cums[50:]) - min(cums[50:])
        # a fixture whose stretch never fluctuates is already settled
        settled = spread_last < spread_first or spread_last == 0.0
        ok = ok and dominated and math.isfinite(grand) and settled
        pieces.append(f"{name}: stretch {grand:.2f}")
    _report(
        "dominating tree embedding",
        ok,
        f"{', '.join(pieces)}; per-pair dominance exact, running means settle",
        t0,
    )
    assert ok


def test_12_split_balance_and_bounded_ratio():
    t0 = time.perf_counter()
    rng = random.Random(808)
    worst_frac = 0.0
    for _ in range(60):
        n = rng.randint(2, 40)
        decomp = split_decomposition(random_recursive_tree(n, rng))
        for _, total, a, b in decomp.balance_audit:
            if total >= 2:
                worst_frac = max(worst_frac, max(a, b) / total)
    balanced = worst_frac <= 2 / 3

    matched = True
    tree = random_recursive_tree(16, random.Random(909))
    decomp = split_decomposition(tree)
    for t in range(200):
        ep = random.Random(7000 + t)
        stream = [ep.randrange(16) for _ in range(16)]
        res = run_episode_hier(decomp, stream, ep)
        matched = matched and sorted(s for _, s in res.assignments) == list(
            range(16)
        )

    sc = Scenario("random", "16", algorithm="split-match", trials=500, seed=11)
    _, summary = run_trials(sc)
    bounded = math.isfinite(summary.ratio) and summary.ratio <= 8.0

    ok = balanced and matched and bounded
    _report(
        "split balance and matcher ratio",
        ok,
        f"worst side fraction {worst_frac:.3f} <= 2/3, perfect matchings, "
        f"ratio {summary.ratio:.2f} (recorded bound 8)",
        t0,
    )
    assert ok
