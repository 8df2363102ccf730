"""Benchmark of the ``stochmatch simulate`` path: one workload per run.

    python3 bench/run.py --workload tree-n256 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-check

A run generates the workload's instance from --seed, then runs whole
rounds, each a fresh single-threaded process (bench/round.py) that
imports the package and replays the same fixed trials, until --seconds
have passed (at least MIN_ROUNDS rounds).  Every trial of every round is
checked against optima computed here, apart from the program.  The last
line printed is one JSON object: correct, attempted, failed, metrics.
Times are in reference seconds (bench/pace.py), which take the host's
changing speed out; the wall-clock figures go to standard error.

--trace 0 reports the end-to-end metrics (medians over rounds).
--trace 1 alternates untraced and traced rounds and reports the layer
metrics of the traced ones plus the tracing overhead.
--self-check runs every workload at a tiny size, one untraced and one
traced round each, and exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 60
LAST_ROUND_START_S = 100  # a run must end within 180 s


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "stochmatch" / "harness.py").is_file():
    fail(f"no stochmatch sources under {ROOT / 'src'}")

from workloads import (  # noqa: E402
    OUT_DIR,
    WORKLOADS,
    Workload,
    coupling_mass,
    generate,
    reference_optima,
    tiny,
)


def run_round(scenario: Path, trace: bool, spans: Path) -> dict | None:
    """One fresh process; None when it crashed or printed no result."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH_DIR / "round.py"),
           str(scenario.relative_to(ROOT)), "1" if trace else "0", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("bench: round timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"bench: round exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_round(w: Workload, seed: int, refs: list[int], out: dict | None) -> int:
    """Number of failed trials in one round."""
    if out is None or len(out["records"]) != w.trials:
        return w.trials
    failed = 0
    for t, (trial, tseed, alg, opt, _reloc, steps, step_sum, n_steps, _ms) in enumerate(out["records"]):
        ok = (
            trial == t
            and tseed == seed + t
            and opt == refs[t]
            and alg >= opt
            and alg == step_sum
            and steps == n_steps == w.n
        )
        failed += not ok
    return failed


def run_checks(w: Workload, out: dict, mass: float | None) -> list[str]:
    """Run-level properties of one round's trials; returns the ones that fail."""
    recs = out["records"]
    algs = [r[2] for r in recs]
    opts = [r[3] for r in recs]
    ratio = sum(algs) / sum(opts) if sum(opts) else math.inf
    errors = []
    if not ratio >= 1.0:
        errors.append(f"mean ALG / mean OPT = {ratio} < 1")
    if w.max_ratio is not None and not ratio <= w.max_ratio:
        errors.append(f"mean ALG / mean OPT = {ratio} > {w.max_ratio}")
    if out["summary"]["trials"] != len(recs) or not math.isclose(out["summary"]["ratio"], ratio, rel_tol=1e-9):
        errors.append(f"summary {out['summary']} disagrees with the records (ratio {ratio})")
    if mass is not None:
        reloc = [r[4] for r in recs]
        se = statistics.stdev(reloc) / math.sqrt(len(reloc))
        if abs(statistics.fmean(reloc) - mass) > 4 * se + 1e-9 * max(mass, 1.0):
            errors.append(f"mean relocation {statistics.fmean(reloc)} vs n * LP = {mass} (se {se})")
    return errors


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, min_rounds: int = MIN_ROUNDS) -> dict:
    inst = generate(w, seed)
    refs = reference_optima(inst)
    mass = coupling_mass(inst) if w.distribution != "uniform" else None
    spans = OUT_DIR / f"{w.name}{'-tiny' if w.tiny else ''}.spans.tsv"  # the last traced round
    plain, traced, errors = [], [], []
    attempted = failed = rounds = 0
    need = min_rounds * (2 if trace else 1)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # after the minimum, a round starts only if due to end within half a round of --seconds
        if rounds >= need and elapsed + elapsed / rounds / 2 >= min(seconds, LAST_ROUND_START_S):
            break
        tracing = trace and rounds % 2 == 1
        rounds += 1
        out = run_round(inst.scenario_path, tracing, spans)
        attempted += w.trials
        failed += check_round(w, seed, refs, out)
        if out is None:
            continue
        errors += run_checks(w, out, mass)
        (traced if tracing else plain).append(out)
    for e in errors:
        print(f"bench: {w.name} seed {seed}: {e}", file=sys.stderr)
    if plain:
        wall = [o["wall"] for o in plain]
        print(f"bench: wall clock: {sum(len(o['records']) for o in plain) / sum(x['trials_s'] for x in wall):.5g} "
              f"trials/s, setup {statistics.median(x['setup_s'] for x in wall):.4g} s, pace chunk "
              f"{statistics.median(x['chunk_ms'] for x in wall):.4g} ms", file=sys.stderr)
    return {"correct": not errors and failed == 0 and bool(plain) and (bool(traced) or not trace),
            "attempted": attempted, "failed": failed,
            "metrics": layer_metrics(plain, traced) if trace else end_to_end(plain)}


def end_to_end(rounds: list[dict]) -> dict:
    if not rounds:
        return {}
    med = statistics.median
    trial_ms = [r[-1] for out in rounds for r in out["records"]]
    values = {
        "trials_per_s": (trials_per_s(rounds), "trials/s"),
        "trial_ms_p50": (med(trial_ms), "ms"),
        "setup_s": (med(o["setup_s"] for o in rounds), "s"),
        "run_s": (med(o["run_s"] for o in rounds), "s"),
        "peak_rss_mib": (med(o["peak_rss_mib"] for o in rounds), "MiB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def trials_per_s(rounds: list[dict]) -> float:
    """All trials over all trial windows (first trial's start to last trial's end)."""
    return sum(len(o["records"]) for o in rounds) / sum(o["trials_s"] for o in rounds)


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    if not plain or not traced:
        return {}
    med = statistics.median
    metrics = {
        name: {"value": med(o["layers"][name] for o in traced), "unit": layer_unit(name)}
        for name in traced[0]["layers"]
    }
    plain_tps, traced_tps = trials_per_s(plain), trials_per_s(traced)
    metrics["trace.overhead_pct"] = {"value": 100.0 * (plain_tps - traced_tps) / plain_tps, "unit": "%"}
    return metrics


def self_check(seed: int) -> int:
    bad = 0
    for w in WORKLOADS.values():
        t = tiny(w)
        t0 = time.perf_counter()
        res = run_workload(t, seed, seconds=0, trace=True, min_rounds=1)
        ok = res["correct"] and len(res["metrics"]) > 1
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {w.name} at n={t.n}: {res['attempted']} trials, "
              f"{res['failed']} failed, {time.perf_counter() - t0:.1f} s")
    return 1 if bad else 0


def main() -> None:
    # on SIGTERM, unwind through subprocess.run so that it kills and reaps the running round
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        sys.exit(self_check(args.seed))
    if args.workload is None:
        ap.error("--workload is required")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    if not result["metrics"]:
        fail("no round finished")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
