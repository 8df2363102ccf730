"""Scenario files, seeded trial runs, and the lemma verifiers.

A scenario is a small key-value text file (``key = value`` lines, ``#``
comments).  ``run_trials`` replays it deterministically through a table
of per-algorithm episode runners.  A runner refuses a scenario its route
cannot play before any trial, prepares its provider, coupling plan or
decomposition once, and every episode runs from that object, the stream
and the trial's generator: ``run_episode(provider, stream, rng)``,
``run_wrapped(provider, plan, stream, rng)`` or ``run_episode_hier(decomp,
stream, rng)``, each returning a ``MatchingResult``.  Trial t makes one
``random.Random(seed + t)``, which draws the n arrivals and then drives
the episode, so reruns produce identical CSV rows apart from the
wall-time column.  In ``run_trials`` that is the only generator made
through the ``random`` module name: set-up generators (the ``random N``
tree, the ``once`` embedding) come from ``_SetupRandom``, so a hook on
``harness.random`` sees one per trial.
Summaries report the ratio of sample means E[ALG]/E[OPT] with a
bootstrap 95% interval, never a mean of ratios.

The verify_* functions are the checkable counterparts of the structural
facts the matcher relies on: free-set uniformity, cost decomposition
across free-set sizes, subset-versus-iid monotonicity, the canonical
self-match shape, and the complement scaling identity.  The first three
take an instance, the last two draw ``count`` random metrics from a
seed.  Every report has ``ok`` and ``lines(name)``, the text ``stochmatch
verify`` prints.
"""

from __future__ import annotations

import csv
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from random import Random as _SetupRandom

from .ballsbins import _mean_stderr
from .bmatching import (
    canonical_plan,
    scaling_identity_check,
    solve_min_cost,
    tree_plan,
)
from .fairbias import (
    MatchingResult,
    MaxWeightProvider,
    PlanProvider,
    init_state,
    run_episode,
    step,
)
from .metrics import (
    MetricInstance,
    frt_embed,
    input_lines,
    line_metric,
    load_metric,
    matrix_metric,
    matrix_unchecked,
    parse_int,
    random_recursive_tree,
    star_tree,
    tree_metric,
    uniform_metric,
)
from .offline import opt_general, opt_max_weight, opt_tree
from .splitmatch import run_episode_hier, split_decomposition
from .transship import (
    geometric_distribution,
    load_distribution,
    run_wrapped,
    solve_transshipment,
    uniform_distribution,
)

_TREE_SALT = 0x7E11
_FRT_SALT = 0x0F47
_SUBSET_SALT = 0xD150


def _at_least_one(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


# ---------------------------------------------------------------------------
# scenarios

# generated metric kind -> (scenario, size) -> instance; "file" takes a path
_GENERATORS = {
    "line": lambda sc, n: line_metric(n, sc.spacing),
    "star": lambda sc, n: tree_metric(star_tree(n, sc.spacing)),
    "uniform": lambda sc, n: uniform_metric(n, sc.spacing),
    "random": lambda sc, n: tree_metric(
        random_recursive_tree(n, _SetupRandom(sc.seed ^ _TREE_SALT))
    ),
    "nonmetric": lambda sc, n: gen_nonmetric_instance(n),
}
GENERATED_KINDS = tuple(_GENERATORS)

# distribution name -> ((scenario, size) -> distribution, whether it takes a path)
_DISTRIBUTIONS = {
    "uniform": (lambda sc, n: uniform_distribution(n), False),
    "geometric": (lambda sc, n: geometric_distribution(n), False),
    "weights": (lambda sc, n: load_distribution(sc.dist_arg, n), True),
}


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment: metric, distribution, algorithm, seeds."""

    metric_kind: str  # a key of _GENERATORS, or file
    metric_arg: str  # size for generators, path for files
    distribution: str = "uniform"  # a key of _DISTRIBUTIONS
    dist_arg: str = ""
    algorithm: str = "fair-bias"
    trials: int = 100
    seed: int = 0
    output: str | None = None
    spacing: int = 1
    frt_mode: str = "per-trial"  # per-trial | once

    def __post_init__(self):
        _at_least_one("trials", self.trials)
        if self.spacing < 0:
            raise ValueError("spacing must be >= 0")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.frt_mode not in ("per-trial", "once"):
            raise ValueError(f"unknown frt_mode {self.frt_mode!r}")
        if self.frt_mode == "once" and self.algorithm != "fair-bias-on-frt":
            raise ValueError(
                f"frt_mode applies to fair-bias-on-frt, not {self.algorithm}"
            )
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if _DISTRIBUTIONS[self.distribution][1] != bool(self.dist_arg):
            wrong = "takes no argument" if self.dist_arg else "needs a path"
            raise ValueError(f"distribution {self.distribution} {wrong}")


def parse_scenario(path: str) -> Scenario:
    fields: dict[str, str] = {}
    for line in input_lines(path):
        if "=" not in line:
            raise ValueError(f"bad scenario line {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise ValueError(f"duplicate scenario key {key!r}")
        fields[key] = value
    if "metric" not in fields:
        raise ValueError("scenario needs a metric line")
    mk, _, marg = fields.pop("metric").partition(" ")
    keys = {"metric_kind": mk, "metric_arg": marg.strip()}
    if "distribution" in fields:
        dk, _, darg = fields.pop("distribution").partition(" ")
        keys.update(distribution=dk, dist_arg=darg.strip())
    for key in ("algorithm", "frt_mode", "output"):
        if key in fields:
            keys[key] = fields.pop(key)
    for key in ("trials", "seed", "spacing"):
        if key in fields:
            keys[key] = parse_int(fields.pop(key), f"scenario key {key}")
    if fields:
        raise ValueError(f"unknown scenario keys: {sorted(fields)}")
    return Scenario(**keys)


def build_instance(sc: Scenario) -> MetricInstance:
    kind, arg = sc.metric_kind, sc.metric_arg
    if kind != "file" and kind not in _GENERATORS:
        raise ValueError(f"unknown metric kind {kind!r}")
    if sc.spacing != 1 and kind in ("random", "nonmetric", "file"):
        raise ValueError(f"spacing applies to line, star and uniform, not {kind}")
    if kind == "file":
        if not arg:
            raise ValueError("metric file needs a path")
        return load_metric(arg)
    if not arg:
        raise ValueError(f"metric {kind} needs a size")
    try:
        n = int(arg)
    except ValueError:
        raise ValueError(
            f"metric {kind} {arg}: the size must be an integer"
        ) from None
    return _GENERATORS[kind](sc, n)


def build_distribution(sc: Scenario, n: int):
    return _DISTRIBUTIONS[sc.distribution][0](sc, n)


# ---------------------------------------------------------------------------
# trial runner


@dataclass
class TrialRecord:
    trial: int
    seed: int
    alg_cost: int
    opt_cost: int
    reloc_cost: int
    steps: int
    millis: float
    step_costs: list[int] = field(default_factory=list, repr=False)


@dataclass(frozen=True)
class RunSummary:
    trials: int
    mean_alg: float
    mean_opt: float
    ratio: float
    ci_low: float
    ci_high: float
    zero_over_zero: bool

    def lines(self) -> list[str]:
        flag = "  (0/0 reported as 1)" if self.zero_over_zero else ""
        return [
            f"trials    {self.trials}",
            f"mean ALG  {self.mean_alg:.6g}",
            f"mean OPT  {self.mean_opt:.6g}",
            f"ratio     {self.ratio:.6g}{flag}",
            f"95% CI    [{self.ci_low:.6g}, {self.ci_high:.6g}]",
        ]


_RESAMPLES = 1000  # bootstrap resamples behind the 95% interval


def ratio_of_means(
    algs: list[float], opts: list[float], seed: int
) -> tuple[float, float, float, bool]:
    """Ratio of sample means with a bootstrap percentile interval.

    Every value must be finite and non-negative: a NaN, an infinity or a
    negative value would skew the interval or cancel the means silently.
    """
    if len(algs) != len(opts) or len(algs) == 0:
        raise ValueError(f"need paired trials: {len(algs)} costs, {len(opts)} optima")
    for side, values in (("cost", algs), ("optimum", opts)):
        for x in values:
            if not 0.0 <= x < math.inf:  # false for NaN too
                raise ValueError(f"{side} {x!r} is not finite and non-negative")
    import numpy as np  # slow to import; only the summary needs it

    a = np.asarray(algs, dtype=float)
    o = np.asarray(opts, dtype=float)
    ma, mo = float(a.mean()), float(o.mean())
    if ma == 0.0 and mo == 0.0:
        return 1.0, 1.0, 1.0, True
    if mo == 0.0:
        return math.inf, math.inf, math.inf, False
    gen = np.random.default_rng(seed)
    # ~1M indices at a time, in blocks of rows: the same indices as one draw
    block = max(1, (1 << 20) // len(a))
    am, om = np.empty(_RESAMPLES), np.empty(_RESAMPLES)
    for lo in range(0, _RESAMPLES, block):
        idx = gen.integers(0, len(a), size=(min(block, _RESAMPLES - lo), len(a)))
        am[lo : lo + block] = a[idx].mean(axis=1)
        om[lo : lo + block] = o[idx].mean(axis=1)
    ratios = np.where(
        (am == 0.0) & (om == 0.0),
        1.0,
        np.divide(am, om, out=np.full_like(am, np.inf), where=om != 0.0),
    )
    lo, hi = np.percentile(ratios, [2.5, 97.5])
    return ma / mo, float(lo), float(hi), False


def summarize(records: list[TrialRecord], seed: int) -> RunSummary:
    algs = [float(r.alg_cost) for r in records]
    opts = [float(r.opt_cost) for r in records]
    ratio, lo, hi, flag = ratio_of_means(algs, opts, seed)
    return RunSummary(
        len(records),
        sum(algs) / len(algs),
        sum(opts) / len(opts),
        ratio,
        lo,
        hi,
        flag,
    )


def write_csv(records: list[TrialRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["trial", "seed", "alg_cost", "opt_cost", "reloc_cost", "steps", "millis"]
        )
        for r in records:
            writer.writerow(
                [r.trial, r.seed, r.alg_cost, r.opt_cost, r.reloc_cost, r.steps,
                 f"{r.millis:.3f}"]
            )


# A runner checks the instance, does the algorithm's setup and returns the
# episode, (stream, rng) -> MatchingResult, which looks the episode
# functions up as module globals at call time.


def _fair_bias(sc: Scenario, instance: MetricInstance, dist):
    provider = PlanProvider(instance)
    if sc.distribution == "uniform":
        return lambda stream, rng: run_episode(provider, stream, rng)
    if not instance.verified_metric:
        raise ValueError("fair-bias with non-uniform arrivals needs a checked metric")
    plan = solve_transshipment(instance, dist)
    return lambda stream, rng: run_wrapped(provider, plan, stream, rng)


def _split_match(sc: Scenario, instance: MetricInstance, dist):
    if instance.tree is None:
        raise ValueError("split-match needs a tree-backed metric")
    if sc.distribution != "uniform":
        raise ValueError("split-match scenarios are uniform-arrival only")
    decomp = split_decomposition(instance.tree)
    return lambda stream, rng: run_episode_hier(decomp, stream, rng)


def _fair_bias_on_frt(sc: Scenario, instance: MetricInstance, dist):
    if not instance.verified_metric:
        raise ValueError("the embedding variant needs a checked metric")
    if sc.distribution != "uniform":
        raise ValueError("the embedding variant is uniform-arrival only")
    # the embedding and the true step costs read the metric's table, built
    # here in set-up; the sampled trees are walked and never tabled
    matrix = instance.matrix
    once = None
    if sc.frt_mode == "once":
        ftree = frt_embed(instance, _SetupRandom(sc.seed ^ _FRT_SALT))
        once = PlanProvider(tree_metric(ftree))

    def episode(stream, rng):
        prov = once or PlanProvider(tree_metric(frt_embed(instance, rng)))
        on_tree = run_episode(prov, stream, rng)
        true_steps = [matrix[s][r] for r, s in on_tree.assignments]
        return MatchingResult("fair-bias-on-frt", on_tree.assignments, true_steps)

    return episode


def _max_weight(sc: Scenario, instance: MetricInstance, dist):
    provider = MaxWeightProvider(instance.matrix, list(dist.weights))
    return lambda stream, rng: run_episode(provider, stream, rng)


# name -> (runner, whether the result is a gain the optimum bounds above)
_RUNNERS = {
    "fair-bias": (_fair_bias, False),
    "split-match": (_split_match, False),
    "fair-bias-on-frt": (_fair_bias_on_frt, False),
    "max-weight": (_max_weight, True),
}
ALGORITHMS = tuple(_RUNNERS)


def offline_opt(instance: MetricInstance, stream) -> int:
    """opt_tree on a tree, else opt_general, each read as a global per call."""
    return (opt_tree if instance.tree is not None else opt_general)(instance, stream)


def run_trials(sc: Scenario) -> tuple[list[TrialRecord], RunSummary]:
    """Replay a scenario; returns per-trial records and the summary."""
    instance = build_instance(sc)
    n = instance.n
    dist = build_distribution(sc, n)
    runner, gain = _RUNNERS[sc.algorithm]
    episode = runner(sc, instance, dist)
    records: list[TrialRecord] = []
    for t in range(sc.trials):
        ep_seed = sc.seed + t
        rng = random.Random(ep_seed)
        t0 = time.perf_counter()
        stream = [dist.sample(rng) for _ in range(n)]
        result = episode(stream, rng)
        alg = result.total_cost
        if gain:
            opt = opt_max_weight(instance.matrix, stream)
            if alg > opt:
                raise RuntimeError("online gain above the offline optimum")
        else:
            opt = offline_opt(instance, stream)
            if alg < opt:
                raise RuntimeError("online cost below the offline optimum")
        millis = (time.perf_counter() - t0) * 1000.0
        records.append(
            TrialRecord(
                t, ep_seed, alg, opt, result.relocation_cost, n, millis,
                result.step_costs,
            )
        )
    if sc.output:
        write_csv(records, sc.output)
    return records, summarize(records, sc.seed)


# ---------------------------------------------------------------------------
# non-metric demonstration


def gen_nonmetric_instance(n: int) -> MetricInstance:
    """Cost structure with two mutually expensive request types.

    Points 0..n-3 cost 1 pairwise.  Point n-2 costs 2^(n/2) against the
    upper half of the servers, point n-1 costs 2^(n/2) against the lower
    half, and the two special points cost 2^(n/2) to each other.  From
    n = 6 up some expensive pairs have cheap two-hop detours, so the
    triangle inequality fails and the cost of serving the special
    points outruns any fixed multiple of the offline optimum.
    """
    if n < 4 or n % 2:
        raise ValueError("need even n >= 4")
    big = 2 ** (n // 2)
    half = n // 2
    lo_special, hi_special = n - 2, n - 1

    def cost(i: int, j: int) -> int:
        if {i, j} == {lo_special, hi_special}:
            return big
        if lo_special in (i, j):
            other = i if j == lo_special else j
            return big if other >= half else 1
        if hi_special in (i, j):
            other = i if j == hi_special else j
            return big if other < half else 1
        return 1

    matrix = [
        [0 if i == j else cost(i, j) for j in range(n)] for i in range(n)
    ]
    return matrix_unchecked(matrix)


# ---------------------------------------------------------------------------
# verifiers


def _matching_value(instance: MetricInstance, T, memo: dict) -> Fraction:
    key = tuple(sorted(T))
    hit = memo.get(key)
    if hit is None:
        if instance.tree is not None:
            n, k = instance.n, len(key)
            hit = Fraction(tree_plan(instance.tree, Counter(key), k, n), n * k)
        else:
            hit = solve_min_cost(instance, list(key)).value
        memo[key] = hit
    return hit


def _verdict(ok: bool) -> str:
    return "ok" if ok else "FAIL"


@dataclass(frozen=True)
class ChiSquareRow:
    k: int
    categories: int
    statistic: float
    pvalue: float
    ok: bool

    def line(self) -> str:
        return (
            f"k={self.k} cells={self.categories} chi2={self.statistic:.3f} "
            f"p={self.pvalue:.4f} {_verdict(self.ok)}"
        )


@dataclass(frozen=True)
class ReplacementRow:
    k: int
    e_subsets: Fraction  # uniform k-subset of the servers
    e_iid: Fraction  # k independent uniform draws (multiset)
    ok: bool

    def line(self) -> str:
        verdict = _verdict(self.ok)
        return f"k={self.k} subsets={self.e_subsets} iid={self.e_iid} {verdict}"


@dataclass(frozen=True)
class RowReport:
    """One row per free-set size k; ok when every row is."""

    rows: tuple[ChiSquareRow, ...] | tuple[ReplacementRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def lines(self, name: str) -> list[str]:
        return [r.line() for r in self.rows] + [f"{name}: {_verdict(self.ok)}"]


def verify_structure_lemma(
    instance: MetricInstance, trials: int, seed: int
) -> RowReport:
    """Chi-square test that each free set is uniform over its k-subsets."""
    from scipy.stats import chi2  # slow to import; only this verifier needs it

    n = instance.n
    if n > 8:
        raise ValueError("subset space too large to tabulate beyond n=8")
    if n < 2:
        raise ValueError(f"no free set to tabulate with n={n} < 2 points")
    _at_least_one("trials", trials)
    provider = PlanProvider(instance)
    counts: dict[int, Counter] = {k: Counter() for k in range(1, n)}
    for t in range(trials):
        rng = random.Random(seed + t)
        state = init_state(n)
        for _ in range(n):
            step(provider, state, rng.randrange(n), rng)
            if 1 <= state.k < n:
                counts[state.k][state.free] += 1
    rows = []
    for k in range(1, n):
        cats = list(combinations(range(n), k))
        expected = trials / len(cats)
        stat = sum(
            (counts[k].get(c, 0) - expected) ** 2 / expected for c in cats
        )
        pvalue = float(chi2.sf(stat, len(cats) - 1))
        rows.append(ChiSquareRow(k, len(cats), stat, pvalue, pvalue > 0.01))
    return RowReport(tuple(rows))


def verify_replacement(instance: MetricInstance) -> RowReport:
    """Exact check, k = 1..n, that subset-average cost is at most iid-average."""
    n = instance.n
    if n > 6:
        raise ValueError("exact enumeration is only tractable up to n=6")
    memo: dict = {}
    rows = []
    for k in range(1, n + 1):
        subs = list(combinations(range(n), k))
        e_sub = sum(
            (_matching_value(instance, T, memo) for T in subs), Fraction(0)
        ) / len(subs)
        e_iid = Fraction(0)
        total_w = Fraction(0)
        for ms in combinations_with_replacement(range(n), k):
            tally = Counter(ms)
            perms = math.factorial(k)
            for c in tally.values():
                perms //= math.factorial(c)
            w = Fraction(perms, n**k)
            total_w += w
            e_iid += w * _matching_value(instance, ms, memo)
        if total_w != 1:
            raise RuntimeError("multiset weights must sum to one")
        rows.append(ReplacementRow(k, e_sub, e_iid, e_sub <= e_iid))
    return RowReport(tuple(rows))


@dataclass(frozen=True)
class DecompositionReport:
    mean_alg: float
    stderr_alg: float
    sum_per_size: float
    stderr_sum: float
    per_size: tuple[tuple[int, float, float], ...]  # (k, mean, stderr)

    @property
    def combined_sigma(self) -> float:
        return math.sqrt(self.stderr_alg**2 + self.stderr_sum**2)

    @property
    def ok(self) -> bool:
        return abs(self.mean_alg - self.sum_per_size) <= 3 * self.combined_sigma

    def lines(self, name: str) -> list[str]:
        return [
            f"episodes   {self.mean_alg:.4f} +- {self.stderr_alg:.4f}",
            f"summed     {self.sum_per_size:.4f} +- {self.stderr_sum:.4f}",
            f"3 sigma    {3 * self.combined_sigma:.4f}",
            f"{name}: {_verdict(self.ok)}",
        ]


def verify_cost_decomposition(
    instance: MetricInstance, trials: int, seed: int
) -> DecompositionReport:
    """Monte Carlo check of total cost against per-free-set-size costs.

    The left side replays full episodes; the right side samples uniform
    k-subsets independently for every size k and sums the matching
    values, which is what the free-set uniformity predicts the episode
    total should decompose into.
    """
    _at_least_one("trials", trials)
    n = instance.n
    provider = PlanProvider(instance)
    totals = []
    for t in range(trials):
        rng = random.Random(seed + t)
        stream = [rng.randrange(n) for _ in range(n)]
        result = run_episode(provider, stream, rng)
        totals.append(float(result.total_cost))
    mean_alg, se_alg = _mean_stderr(totals)
    srng = random.Random(seed ^ _SUBSET_SALT)
    memo: dict = {}
    per_size = []
    var_sum = 0.0
    rhs = 0.0
    for k in range(1, n + 1):
        samples = []
        for _ in range(trials):
            T = srng.sample(range(n), k)
            samples.append(float(_matching_value(instance, T, memo)))
        mean_k, se_k = _mean_stderr(samples)
        per_size.append((k, mean_k, se_k))
        rhs += mean_k
        var_sum += se_k**2
    return DecompositionReport(
        mean_alg, se_alg, rhs, math.sqrt(var_sum), tuple(per_size)
    )


@dataclass(frozen=True)
class CheckReport:
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self, name: str) -> list[str]:
        return [*self.failures, f"{name}: {self.checked} checks, {_verdict(self.ok)}"]


def random_metric(n: int, rng: random.Random, max_d: int = 64) -> MetricInstance:
    """Random metric via shortest-path closure of a random complete graph."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, max_d)
    for via in range(n):
        dv = d[via]
        for i in range(n):
            div = d[i][via]
            row = d[i]
            for j in range(n):
                alt = div + dv[j]
                if alt < row[j]:
                    row[j] = alt
    return matrix_metric(d)


_CASE_MAX_N = 8  # points in the largest random case


def _random_cases(count: int, seed: int):
    """(case, instance, rng) per random metric; a case draws the rest from rng."""
    _at_least_one("count", count)
    rng = random.Random(seed)
    for case in range(count):
        yield case, random_metric(rng.randint(2, _CASE_MAX_N), rng), rng


def verify_match_to_self(count: int, seed: int) -> CheckReport:
    """The canonical plan has the optimal value and pins every diagonal entry.

    Each random metric gains a twin of point 0 at distance 0, where an
    optimal plan may ship co-located mass away; only a plan that pins
    the diagonal passes there.
    """
    failures = []
    checked = 0
    for case, random_case, rng in _random_cases(count, seed):
        rows = [row + [row[0]] for row in random_case.matrix]
        instance = matrix_metric(rows + [rows[0]])
        n = instance.n
        k = rng.randint(1, n)
        T = [rng.randrange(n) for _ in range(k)]
        base = solve_min_cost(instance, T)
        canon = canonical_plan(instance, T)
        checked += 1
        if canon.value != base.value:
            failures.append(f"case {case}: value {canon.value} is not {base.value}")
            continue
        tally = Counter(T)
        entries = canon.entry_map()
        for i in range(n):
            want = min(Fraction(tally.get(i, 0), k), Fraction(1, n))
            got = entries.get((i, i), Fraction(0))
            if got != want:
                failures.append(
                    f"case {case}: diagonal {i} is {got}, expected {want}"
                )
                break
    return CheckReport(checked, tuple(failures))


def verify_scaling(count: int, seed: int) -> CheckReport:
    """Complement identity over every small subset of random instances."""
    failures = []
    checked = 0
    for case, instance, _ in _random_cases(count, seed):
        for k in range(1, instance.n // 2 + 1):
            for T in combinations(range(instance.n), k):
                lhs, rhs, ok = scaling_identity_check(instance, set(T))
                checked += 1
                if not ok:
                    failures.append(
                        f"case {case}: T={T} gives {lhs} vs {rhs}"
                    )
    return CheckReport(checked, tuple(failures))
