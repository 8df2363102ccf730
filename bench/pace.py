"""A reference clock for one round: host-speed samples taken in the round's own process.

The speed of a shared VM can change by a factor of two from one second
to the next, and stay changed for minutes, so wall-clock figures from
runs taken minutes apart mostly measure the host.  A round therefore
times a fixed piece of pure-Python work, the pace chunk, again and
again while it runs:

- a few times before its clock starts and after the summary;
- during set-up, at a package import at most every SETUP_GAP_S;
- before every ``every``-th trial, ahead of the trial's own timer.

Every time the round reports is then in reference seconds: the stretch
between two samples counts as its wall length times REF_CHUNK_S over the
local chunk time, the median of the four nearest samples.  The chunks
themselves are cut out of every interval, so a reference second is a
second on a host that runs one chunk in REF_CHUNK_S, whatever the host
did meanwhile.  A change that makes the program faster moves reference
times exactly as much as wall times; the chunk's own speed does not
depend on the program.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
import types
from bisect import bisect_right

REF_CHUNK_S = 1e-3
SETUP_GAP_S = 0.03
CHUNK_STEPS = 6000
_TABLE = list(range(1024))
_MAP = {i: (i * 7919) % 1013 for i in range(1024)}


def chunk() -> None:
    """Fixed interpreter work: loads, dict and list lookups, integer arithmetic.

    It creates no objects the garbage collector tracks, so its time does
    not depend on the size of the program's heap.
    """
    acc = 0
    table, mapping = _TABLE, _MAP
    for i in range(CHUNK_STEPS):
        k = mapping[i & 1023]
        acc = (acc + table[k] * k) % 1000003


class Pacer:
    def __init__(self) -> None:
        self.every = 1
        self.starts: list[float] = []
        self.durs: list[float] = []
        self.trial_gaps: list[int] = []  # per trial: the gap it ran in
        self.sample(5)
        sys.meta_path.insert(0, self)

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            chunk()
            self.starts.append(t0)
            self.durs.append(time.perf_counter() - t0)

    def find_spec(self, name, path=None, target=None):
        """Import hook: sample during set-up; never finds a module itself."""
        if time.perf_counter() - self.starts[-1] - self.durs[-1] >= SETUP_GAP_S:
            self.sample()
        return None

    def install(self, harness, trials: int) -> None:
        """Sample before every ``trials // 60``-th trial (at least every trial).

        The hook is the harness's per-trial ``random.Random(seed + t)`` call,
        which comes before the trial's timer starts; the trial still gets a
        plain ``random.Random`` seeded as before.
        """
        self.every = max(1, trials // 60)
        pacer = self

        class RandomModule(types.ModuleType):
            def __getattr__(self, name):
                return getattr(random, name)

            @staticmethod
            def Random(*args):
                if not pacer.trial_gaps:
                    sys.meta_path.remove(pacer)  # lazy imports inside trials stay unsampled
                if len(pacer.trial_gaps) % pacer.every == 0:
                    pacer.sample()
                pacer.trial_gaps.append(len(pacer.starts) - 1)
                return random.Random(*args)

        harness.random = RandomModule("random")

    # -- reference time ------------------------------------------------------
    # gap i runs from the end of sample i to the start of sample i + 1;
    # gap -1 lies before the first sample and gap len - 1 after the last.

    def finish(self) -> None:
        """Take the closing samples and fix each gap's factor."""
        self.sample(5)
        d = self.durs
        self.factors = [
            REF_CHUNK_S / statistics.median(d[max(0, gap - 1) : gap + 3]) for gap in range(-1, len(d))
        ]

    def factor(self, gap: int) -> float:
        return self.factors[gap + 1]

    def factor_at(self, t: float) -> float:
        return self.factor(bisect_right(self.starts, t) - 1)

    def elapsed(self, a: float, b: float) -> float:
        """Reference seconds in the wall interval [a, b], chunks cut out."""
        s, d = self.starts, self.durs
        total = 0.0
        for gap in range(-1, len(s)):
            lo = s[gap] + d[gap] if gap >= 0 else a
            hi = s[gap + 1] if gap + 1 < len(s) else b
            lo, hi = max(lo, a), min(hi, b)
            if hi > lo:
                total += (hi - lo) * self.factor(gap)
        return total
