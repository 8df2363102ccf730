"""One measured round in a fresh process: import, set up, run every trial, summarize.

Usage: python3 bench/round.py SCENARIO TRACE SPANS_PATH

Replays SCENARIO through ``stochmatch.harness.run_trials``, the function
``stochmatch simulate`` calls, and prints one JSON object: the clock
marks, peak memory, every trial record and the summary, plus the layer
metrics when TRACE is 1.  The clock starts before the package import.
Times are in reference seconds (bench/pace.py); the wall-clock ones
are kept under "wall" with the host's median chunk time.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path

from pace import Pacer
from tracing import Probe

PACER = Pacer()
T0 = time.perf_counter()


def main() -> None:
    scenario, trace, spans_path = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import stochmatch.harness as harness

    t_import = time.perf_counter()
    probe = Probe(trace)
    probe.install(harness)
    sc = harness.parse_scenario(scenario)
    PACER.install(harness, sc.trials)
    records, summary = harness.run_trials(sc)
    t_end = time.perf_counter()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    PACER.finish()
    if len(PACER.trial_gaps) != len(records):
        raise RuntimeError(f"{len(PACER.trial_gaps)} random.Random calls for {len(records)} trials")

    elapsed = PACER.elapsed
    trial_ms = [r.millis * PACER.factor(gap) for r, gap in zip(records, PACER.trial_gaps)]
    out = {
        "setup_s": elapsed(T0, probe.first_episode),
        "trials_s": elapsed(probe.first_episode, probe.summary_start),
        "run_s": elapsed(T0, t_end),
        "peak_rss_mib": peak_kib / 1024.0,
        "wall": {
            "setup_s": probe.first_episode - T0,
            "trials_s": probe.summary_start - probe.first_episode,
            "chunk_ms": 1000.0 * statistics.median(PACER.durs),
        },
        # trial, seed, alg_cost, opt_cost, reloc_cost, steps, sum(step_costs), len(step_costs), ms
        "records": [
            [r.trial, r.seed, r.alg_cost, r.opt_cost, r.reloc_cost, r.steps,
             sum(r.step_costs), len(r.step_costs), ms]
            for r, ms in zip(records, trial_ms)
        ],
        "summary": {"trials": summary.trials, "ratio": summary.ratio},
    }
    if trace:
        out["layers"] = probe.layer_metrics(len(records), trial_ms, elapsed(T0, t_import), PACER)
        probe.write_spans(spans_path)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
