"""Scenario files and seeded trial runs: the experiments behind ``simulate``.

A scenario is a small key-value text file (``key = value`` lines, ``#``
comments).  ``run_trials`` replays it deterministically through a table
of per-algorithm episode runners.  A runner refuses a scenario its route
cannot play before any trial, prepares its provider, coupling plan or
decomposition once, and every episode runs from that object, the stream
and the trial's generator: ``run_episode(provider, stream, rng)``,
``run_wrapped(provider, plan, stream, rng)`` or ``run_episode_hier(decomp,
stream, rng)``, each returning a ``MatchingResult``.  Trial t makes one
``random.Random(seed + t)``, which draws the n arrivals in one
``dist.sample(rng, n)`` call and then drives the episode, so reruns
produce identical CSV rows apart from the wall-time column.  In
``run_trials`` that is the only generator made through the ``random``
module name: set-up generators (the ``random N`` tree, the ``once``
embedding) come from ``_SetupRandom``, so a hook on ``harness.random``
sees one per trial.
Summaries report the ratio of sample means E[ALG]/E[OPT] with a
bootstrap 95% interval, never a mean of ratios; its ends are order
statistics of the resampled ratios, interpolated by numpy's default rule.

The lemma verifiers live in ``stochmatch.verify``.
"""
from __future__ import annotations

import csv
import math
import random
import time
from dataclasses import dataclass, field
from random import Random as _SetupRandom

from .fairbias import (
    MatchingResult,
    MaxWeightProvider,
    PlanProvider,
    run_episode,
)
from .metrics import (
    MetricInstance,
    frt_embed,
    gen_nonmetric_instance,
    input_lines,
    line_metric,
    load_metric,
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
        if self.seed < 0:  # the bootstrap's numpy generator takes no negative seed
            raise ValueError("seed must be >= 0")
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
    ordered = sorted(ratios.tolist())
    return ma / mo, _percentile(ordered, 2.5), _percentile(ordered, 97.5), False


def _percentile(ordered: list[float], q: float) -> float:
    """numpy's default ("linear") q-th percentile of sorted values.

    Floats in numpy's order of operations, so finite results match
    ``np.percentile`` bit for bit, without the ~11 ms first-call import of
    ``numpy.ma`` that it makes.  Strictly between a value and an infinite
    one the end is inf, where numpy's interpolation reads inf - inf as NaN.
    """
    h = (len(ordered) - 1) * (q / 100)
    i = math.floor(h)
    a, b = ordered[i], ordered[min(i + 1, len(ordered) - 1)]
    t, d = h - i, b - a
    if b == math.inf:
        return a if t == 0 else math.inf
    return b - d * (1 - t) if t >= 0.5 else a + d * t


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
    instance.require_metric("fair-bias with non-uniform arrivals")
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
    instance.require_metric("the embedding variant")
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
        stream = dist.sample(rng, n)
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
