"""Clock markers and layer spans, installed from outside the program.

Every round installs two markers: the first call of the episode function
(the first trial's start) and the call of ``harness.summarize`` (the
last trial's end and the bootstrap summary).  A traced round also wraps
each layer's public functions at the name its caller looks them up by,
records a span (name, start, end, parent, phase) per call and counts
work at the same boundaries.  Spans are kept in memory and written out
when the round ends.

Self time is a span's duration minus its child spans.  ``*_ms`` metrics
are trial-phase self time per trial, counts are trial-phase counts per
trial, ``*_s`` metrics are inclusive time per run in any phase.  Every
duration is in reference time: scaled by the pace factor at its start.
"""

from __future__ import annotations

import time
from collections import Counter

SETUP, TRIALS, SUMMARY = 0, 1, 2
PHASES = ("setup", "trials", "summary")
EPISODE_FUNCTIONS = ("run_episode", "run_wrapped", "run_episode_hier")


class Probe:
    def __init__(self, trace: bool):
        self.trace = trace
        self.phase = SETUP
        self.first_episode: float | None = None
        self.summary_start: float | None = None
        self.summary_end: float | None = None
        self.names: list[str] = []
        self.parents: list[int] = []
        self.phases: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self.counts = [Counter(), Counter(), Counter()]

    # -- wrappers -----------------------------------------------------------

    def _episode_marker(self, fn):
        def wrapper(*args, **kwargs):
            if self.first_episode is None:
                self.first_episode = time.perf_counter()
                self.phase = TRIALS
            return fn(*args, **kwargs)

        return wrapper

    def _summary_marker(self, fn):
        def wrapper(*args, **kwargs):
            self.summary_start = time.perf_counter()
            self.phase = SUMMARY
            try:
                return fn(*args, **kwargs)
            finally:
                self.summary_end = time.perf_counter()

        return wrapper

    def _span(self, name, fn):
        names, parents, phases = self.names, self.parents, self.phases
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            phases.append(self.phase)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def _count(self, name, fn, amount=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[self.phase][name] += 1 if amount is None else amount(result)
            return result

        return wrapper

    def install(self, harness) -> None:
        """Patch the markers, and with tracing the layer boundaries, in place."""
        from stochmatch import fairbias, flows, metrics, splitmatch, transship

        for attr in EPISODE_FUNCTIONS:
            fn = getattr(harness, attr)
            if self.trace:
                fn = self._span("episode", fn)
            setattr(harness, attr, self._episode_marker(fn))
        harness.summarize = self._summary_marker(harness.summarize)
        if not self.trace:
            return
        span, count = self._span, self._count
        harness.opt_general = span("offline.opt_general", harness.opt_general)
        harness.opt_tree = span("offline.opt_tree", harness.opt_tree)
        harness.solve_transshipment = span("transship.solve", harness.solve_transshipment)
        harness.split_decomposition = span("splitmatch.decomposition", harness.split_decomposition)
        fairbias.tree_plan = span("bmatching.tree_plan", fairbias.tree_plan)
        provider = fairbias.PlanProvider
        provider.columns = span("fairbias.columns", provider.columns)
        provider._build = count("fairbias.plan_solves", provider._build)
        mcf = flows.MinCostFlow
        mcf.min_cost_flow = count(
            "flows.units", span("flows.solve", mcf.min_cost_flow), amount=lambda r: r[0]
        )
        mcf.add_edge = count("flows.arcs", mcf.add_edge)
        transship.relocate = span("transship.relocate", transship.relocate)
        dist = transship.RequestDistribution
        dist.sample = span("transship.sample", dist.sample)
        splitmatch.hmatch = span("splitmatch.hmatch", splitmatch.hmatch)
        decomp = splitmatch.HierarchicalDecomposition
        decomp.max_level = property(count("splitmatch.max_level_evals", decomp.max_level.fget))
        metrics.check_matrix = span("metrics.check_matrix", metrics.check_matrix)
        tree = metrics.WeightedTree
        tree.leaf_distance_matrix = span("metrics.leaf_distance_matrix", tree.leaf_distance_matrix)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, trials: int, trial_ms: list[float], import_s: float, pacer) -> dict[str, float]:
        """Per-layer metrics of one traced round (names as in BENCHMARK.json)."""
        n = len(self.names)
        dur = [(self.ends[i] - self.starts[i]) * pacer.factor_at(self.starts[i]) for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        trial_self: Counter = Counter()  # trial-phase self seconds per span name
        trial_calls: Counter = Counter()
        run_total: Counter = Counter()  # inclusive seconds per span name, any phase
        top_trial = 0.0
        for i, name in enumerate(self.names):
            run_total[name] += dur[i]
            if self.phases[i] == TRIALS:
                trial_self[name] += dur[i] - child[i]
                trial_calls[name] += 1
                if self.parents[i] < 0:
                    top_trial += dur[i]
        counts = self.counts[TRIALS]

        def ms(name):
            return 1000.0 * trial_self[name] / trials

        def per_trial(value):
            return value / trials

        columns = trial_calls["fairbias.columns"]
        solves = counts["fairbias.plan_solves"]
        return {
            "bmatching.tree_plan_ms": ms("bmatching.tree_plan"),
            "bmatching.tree_plan_calls": per_trial(trial_calls["bmatching.tree_plan"]),
            "flows.solve_ms": ms("flows.solve"),
            "flows.solves": per_trial(trial_calls["flows.solve"]),
            "flows.arcs": per_trial(counts["flows.arcs"]),
            "flows.units": per_trial(counts["flows.units"]),
            "offline.opt_general_ms": ms("offline.opt_general"),
            "offline.opt_tree_ms": ms("offline.opt_tree"),
            "fairbias.columns_calls": per_trial(columns),
            "fairbias.columns_self_ms": ms("fairbias.columns"),
            "fairbias.plan_solves": per_trial(solves),
            "fairbias.memo_hit_ratio": (columns - solves) / columns if columns else 0.0,
            "transship.relocate_calls": per_trial(trial_calls["transship.relocate"]),
            "transship.relocate_ms": ms("transship.relocate"),
            "transship.sample_ms": ms("transship.sample"),
            "transship.solve_s": run_total["transship.solve"],
            "splitmatch.hmatch_calls": per_trial(trial_calls["splitmatch.hmatch"]),
            "splitmatch.hmatch_ms": ms("splitmatch.hmatch"),
            "splitmatch.max_level_evals": per_trial(counts["splitmatch.max_level_evals"]),
            "splitmatch.decomposition_s": run_total["splitmatch.decomposition"],
            "metrics.leaf_distance_matrix_s": run_total["metrics.leaf_distance_matrix"],
            "metrics.check_matrix_s": run_total["metrics.check_matrix"],
            "harness.import_s": import_s,
            "harness.summarize_s": pacer.elapsed(self.summary_start, self.summary_end),
            "harness.trial_self_ms": (sum(trial_ms) - 1000.0 * top_trial) / trials,
            "episode.self_ms": ms("episode"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tphase\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{PHASES[self.phases[i]]}\t{name}\t"
                    f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n"
                )
