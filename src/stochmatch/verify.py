"""The lemma verifiers: checkable counterparts of the matcher's structural facts.

Free-set uniformity (``verify_structure_lemma``), cost decomposition
across free-set sizes (``verify_cost_decomposition``), subset-versus-iid
monotonicity (``verify_replacement``), the canonical self-match shape
(``verify_match_to_self``) and the complement scaling identity
(``verify_scaling``).  The first three take an instance, the last two
draw ``count`` random metrics from a seed.

Every verifier returns a ``Report``: its rows, each one printed line, and
the verdict.  ``Report.lines(name)`` is the text ``stochmatch verify``
prints, and the one place that writes the closing ``name: ok|FAIL`` line.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .ballsbins import _mean_stderr
from .bmatching import canonical_plan, scaling_identity_check, solve_min_cost
from .fairbias import PlanProvider, init_state, run_episode, step
from .flows import randbelow
from .harness import _at_least_one
from .metrics import MetricInstance, matrix_metric, random_metric

_SUBSET_SALT = 0xD150
_CASE_MAX_N = 8  # points in the largest random case
_VERDICT = {True: "ok", False: "FAIL"}


@dataclass(frozen=True)
class Report:
    """A verifier's rows, one printed line each, and its verdict.

    ``checked`` is the number of exact checks, for the verifiers that
    count them; the closing line then names it.
    """

    rows: tuple
    ok: bool
    checked: int | None = None

    def lines(self, name: str) -> list[str]:
        count = "" if self.checked is None else f"{self.checked} checks, "
        return [*map(str, self.rows), f"{name}: {count}{_VERDICT[self.ok]}"]


@dataclass(frozen=True)
class ChiSquareRow:
    k: int
    categories: int
    statistic: float
    pvalue: float
    ok: bool

    def __str__(self) -> str:
        return (
            f"k={self.k} cells={self.categories} chi2={self.statistic:.3f} "
            f"p={self.pvalue:.4f} {_VERDICT[self.ok]}"
        )


@dataclass(frozen=True)
class ReplacementRow:
    k: int
    e_subsets: Fraction  # uniform k-subset of the servers
    e_iid: Fraction  # k independent uniform draws (multiset)
    ok: bool

    def __str__(self) -> str:
        verdict = _VERDICT[self.ok]
        return f"k={self.k} subsets={self.e_subsets} iid={self.e_iid} {verdict}"


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo mean with its standard error."""

    label: str
    mean: float
    stderr: float

    def __str__(self) -> str:
        return f"{self.label:<10} {self.mean:.4f} +- {self.stderr:.4f}"


def _matching_value(instance: MetricInstance, T, memo: dict) -> Fraction:
    key = tuple(sorted(T))
    hit = memo.get(key)
    if hit is None:
        if instance.tree is not None:
            n, k = instance.n, len(key)
            hit = Fraction(instance.tree.imbalance_cost(Counter(key), n, k), n * k)
        else:
            hit = solve_min_cost(instance, list(key)).value
        memo[key] = hit
    return hit


def verify_structure_lemma(
    instance: MetricInstance, trials: int, seed: int
) -> Report:
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
    return Report(tuple(rows), all(r.ok for r in rows))


def verify_replacement(instance: MetricInstance) -> Report:
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
    return Report(tuple(rows), all(r.ok for r in rows))


def verify_cost_decomposition(
    instance: MetricInstance, trials: int, seed: int
) -> Report:
    """Monte Carlo check of total cost against per-free-set-size costs.

    The left side replays full episodes; the right side samples uniform
    k-subsets independently for every size k and sums the matching
    values, which is what the free-set uniformity predicts the episode
    total should decompose into.  Passes when the two means lie within
    3 sigma of each other.
    """
    _at_least_one("trials", trials)
    n = instance.n
    provider = PlanProvider(instance)
    totals = []
    for t in range(trials):
        rng = random.Random(seed + t)
        stream = randbelow(n, n, rng)
        result = run_episode(provider, stream, rng)
        totals.append(float(result.total_cost))
    episodes = Estimate("episodes", *_mean_stderr(totals))
    srng = random.Random(seed ^ _SUBSET_SALT)
    var_sum = 0.0
    rhs = 0.0
    for k in range(1, n + 1):
        memo: dict = {}  # a key of size k is never looked up past k
        samples = []
        for _ in range(trials):
            T = srng.sample(range(n), k)
            samples.append(float(_matching_value(instance, T, memo)))
        mean_k, se_k = _mean_stderr(samples)
        rhs += mean_k
        var_sum += se_k**2
    summed = Estimate("summed", rhs, math.sqrt(var_sum))
    sigma = math.sqrt(episodes.stderr**2 + summed.stderr**2)
    ok = abs(episodes.mean - summed.mean) <= 3 * sigma
    return Report((episodes, summed, f"{'3 sigma':<10} {3 * sigma:.4f}"), ok)


def _random_cases(count: int, seed: int):
    """(case, instance, rng) per random metric; a case draws the rest from rng."""
    _at_least_one("count", count)
    rng = random.Random(seed)
    for case in range(count):
        yield case, random_metric(rng.randint(2, _CASE_MAX_N), rng), rng


def verify_match_to_self(count: int, seed: int) -> Report:
    """The canonical plan has the optimal value and pins every diagonal entry.

    Each random metric gains a twin of point 0 at distance 0, where an
    optimal plan may ship co-located mass away; only a plan that pins
    the diagonal passes there.  The rows are the failures.
    """
    failures = []
    checked = 0
    for case, random_case, rng in _random_cases(count, seed):
        rows = [row + [row[0]] for row in random_case.matrix]
        instance = matrix_metric(rows + [rows[0]])
        n = instance.n
        k = rng.randint(1, n)
        T = randbelow(n, k, rng)
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
    return Report(tuple(failures), not failures, checked)


def verify_scaling(count: int, seed: int) -> Report:
    """Complement identity over every small subset of random instances.

    The rows are the failures.
    """
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
    return Report(tuple(failures), not failures, checked)
