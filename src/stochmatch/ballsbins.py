"""Balls-and-bins sampling plus top-k load statistics.

Loads are plain integer lists.  The exact-count sampler throws m balls
independently and uniformly into n bins; the Poisson sampler draws n
independent counts with a fixed mean, which is the standard comparison
distribution for heavily loaded bins.  Poisson draws use pmf inversion
since every use here has a small mean and exactness beats speed.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from itertools import accumulate

from .flows import randbelow

_THROW_CHUNK = 1 << 16  # balls per randbelow call, so memory stays O(n)


def sample_loads(n: int, m: int, rng: random.Random) -> list[int]:
    """Throw m balls uniformly into n bins; return per-bin counts."""
    if n < 1:
        raise ValueError("need at least one bin")
    if m < 0:
        raise ValueError("ball count must be >= 0")
    loads = [0] * n
    for start in range(0, m, _THROW_CHUNK):
        for b in randbelow(n, min(_THROW_CHUNK, m - start), rng):
            loads[b] += 1
    return loads


def kth_largest(loads: list[int], k: int) -> int:
    if not 1 <= k <= len(loads):
        raise ValueError(f"k={k} out of range for {len(loads)} bins")
    return sorted(loads, reverse=True)[k - 1]


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
    if trials < 1:
        raise ValueError("need at least one trial")
    for k in ks:
        if not 1 <= k <= n:
            raise ValueError(f"k={k} out of range for {n} bins")
    per_k: dict[int, list[float]] = {k: [] for k in ks}
    for _ in range(trials):
        cuts = list(accumulate(sorted(sample_loads(n, n, rng), reverse=True)))
        for k, values in per_k.items():
            values.append(float(cuts[k - 1]))
    return {k: _mean_stderr(v) for k, v in per_k.items()}


def poisson_sample(mean: float, rng: random.Random) -> int:
    if mean < 0:
        raise ValueError("mean must be >= 0")
    if mean == 0:
        return 0
    p = math.exp(-mean)
    if not p >= sys.float_info.min:  # nan, inf, or a subnormal pmf head
        raise ValueError(f"mean {mean} is not finite or too large (> ~708)")
    u = rng.random()
    cum = p
    x = 0
    while u > cum:
        x += 1
        p *= mean / x
        cum += p
        if x > 1000:  # the summed pmf fell short of u by rounding
            raise RuntimeError("poisson inversion ran away")
    return x


def poisson_loads(n: int, mean: float, rng: random.Random) -> list[int]:
    """n independent Poisson(mean) counts; no sum constraint."""
    if n < 1:
        raise ValueError("need at least one bin")
    return [poisson_sample(mean, rng) for _ in range(n)]


@dataclass(frozen=True)
class ComparisonReport:
    """Monte Carlo estimates of a monotone indicator under both samplers.

    fixed_*: m = n balls exactly.  poisson_*: independent Poisson(1)
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
    if trials < 1:
        raise ValueError("need at least one trial")
    fixed = []
    pois = []
    for _ in range(trials):
        fixed.append(float(kth_largest(sample_loads(n, n, rng), k) < threshold))
        pois.append(float(kth_largest(poisson_loads(n, 1.0, rng), k) < threshold))
    fm, fs = _mean_stderr(fixed)
    pm, ps = _mean_stderr(pois)
    return ComparisonReport(n, k, threshold, trials, fm, fs, pm, ps)
