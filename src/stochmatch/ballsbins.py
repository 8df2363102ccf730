"""Balls-and-bins sampling plus top-k load statistics.

Loads are plain integer lists.  The exact-count sampler throws n balls
independently and uniformly into n bins; the Poisson sampler draws n
independent Poisson(1) counts, the standard comparison distribution
for n balls in n bins.  Poisson draws use pmf inversion, since the mean
is small and exactness beats speed.  Sizes, trial counts (``_at_least``)
and ranks (``_check_rank``) are checked before the first draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate

from .flows import randbelow
from .metrics import _at_least


def sample_loads(n: int, rng: random.Random) -> list[int]:
    """Throw n balls uniformly into n bins; return per-bin counts."""
    _at_least("n", n, 1)
    loads = [0] * n
    for b in randbelow(n, n, rng):
        loads[b] += 1
    return loads


def _check_rank(k: int, n: int) -> None:
    """The one refusal of a rank k that is not 1..n."""
    _at_least("k", k, 1)
    if k > n:
        raise ValueError(f"k={k} out of range for {n} bins")


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    t = len(values)
    mean = sum(values) / t
    if t < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (t - 1)
    return mean, math.sqrt(var / t)


def estimate_Nk(
    n: int, k: int, trials: int, rng: random.Random
) -> tuple[float, float]:
    """Monte Carlo mean and stderr of the top-k load with n balls, n bins."""
    return estimate_Nk_multi(n, [k], trials, rng)[k]


def estimate_Nk_multi(
    n: int, ks: list[int], trials: int, rng: random.Random
) -> dict[int, tuple[float, float]]:
    """Top-k estimates for several k sharing one set of load samples."""
    _at_least("trials", trials, 1)
    for k in ks:
        _check_rank(k, n)
    per_k: dict[int, list[float]] = {k: [] for k in ks}
    for _ in range(trials):
        cuts = list(accumulate(sorted(sample_loads(n, rng), reverse=True)))
        for k, values in per_k.items():
            values.append(float(cuts[k - 1]))
    return {k: _mean_stderr(v) for k, v in per_k.items()}


def poisson_sample(rng: random.Random) -> int:
    p = math.exp(-1.0)
    u = rng.random()
    cum = p
    x = 0
    while u > cum:
        x += 1
        p *= 1.0 / x  # not p /= x, which rounds differently at some x
        cum += p
        if x > 1000:  # the summed pmf fell short of u by rounding
            raise RuntimeError("poisson inversion ran away")
    return x


def poisson_loads(n: int, rng: random.Random) -> list[int]:
    """n independent Poisson(1) counts; no sum constraint."""
    _at_least("n", n, 1)
    return [poisson_sample(rng) for _ in range(n)]


@dataclass(frozen=True)
class ComparisonReport:
    """Monte Carlo estimates of a monotone indicator under both samplers.

    fixed_*: n balls exactly.  poisson_*: independent Poisson(1)
    counts.  The domination inequality under test is
    fixed_mean <= 2 * poisson_mean + 3 * combined_sigma.
    """

    n: int
    k: int
    threshold: int
    trials: int
    fixed_mean: float
    fixed_stderr: float
    poisson_mean: float
    poisson_stderr: float

    @property
    def combined_sigma(self) -> float:
        return math.sqrt(self.fixed_stderr**2 + 4 * self.poisson_stderr**2)

    @property
    def ok(self) -> bool:
        bound = 2 * self.poisson_mean + 3 * self.combined_sigma
        return self.fixed_mean <= bound


def monotone_indicator_comparison(
    n: int, k: int, threshold: int, trials: int, rng: random.Random
) -> ComparisonReport:
    """Compare E[f] for f = 1{k-th largest load < threshold} under both models.

    f is non-increasing in the number of balls (adding a ball never
    lowers any order statistic), so the Poisson domination bound with
    factor 2 applies to it.
    """
    _at_least("trials", trials, 1)
    _check_rank(k, n)
    fixed = []
    pois = []
    for _ in range(trials):
        fixed.append(float(sorted(sample_loads(n, rng))[-k] < threshold))
        pois.append(float(sorted(poisson_loads(n, rng))[-k] < threshold))
    fm, fs = _mean_stderr(fixed)
    pm, ps = _mean_stderr(pois)
    return ComparisonReport(n, k, threshold, trials, fm, fs, pm, ps)
