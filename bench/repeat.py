"""Run two sets of benchmark runs of the same code and compare them.

    python3 bench/repeat.py [--runs 10] [--workloads a,b] [--first-seed 1]
    python3 bench/repeat.py --from bench/out/repeat.json

Each run is ``bench/run.py --trace 0`` with its own seed (set s, run i
uses seed first_seed + s * runs + i) for run_seconds from
BENCHMARK.json.  Sets run one after the other.  For every workload and
end-to-end metric it prints each set's median and quartiles, the
quartile spread as a share of the median, and whether the sets agree:
each spread is within the metric's bound, and the two medians differ by
no more than the bound, in either direction.  It
also requires the same share of failed trials in both sets.  Raw results
are saved to bench/out/repeat.json as they arrive.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETS = 2
SAVE = BENCH_DIR / "out" / "repeat.json"


def run_sets(spec: dict, workloads: list[str], runs: int, first_seed: int) -> dict:
    results: dict = {"runs": runs, "sets": {}}
    SAVE.parent.mkdir(exist_ok=True)
    for s in range(SETS):
        for wl in workloads:
            for i in range(runs):
                seed = first_seed + s * runs + i
                cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", wl, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
                if proc.returncode != 0:
                    print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                    continue
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                out["seed"] = seed
                results["sets"].setdefault(str(s), {}).setdefault(wl, []).append(out)
                print(f"set {s + 1} {wl} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in out["metrics"].items()), flush=True)
                SAVE.write_text(json.dumps(results), encoding="utf-8")
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(spec: dict, results: dict) -> bool:
    sets = [results["sets"][k] for k in sorted(results["sets"])]
    all_ok = True
    print(f"{'workload':<11} {'metric':<13} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for wl in sets[0]:
        shares = set()
        for runs in (s.get(wl, []) for s in sets):
            shares.add(sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs)))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for si, s in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in s.get(wl, [])]
                if len(values) < 2:
                    continue
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                ok = spread <= bound
                note = "ok" if spread <= bound / 3 else ("ok, above a third of the bound" if ok else "SPREAD")
                all_ok &= ok
                print(f"{wl:<11} {name:<13} {si + 1:>3} {med:>10.5g} {q1:>10.5g} {q3:>10.5g} "
                      f"{spread:>7.1%} {bound:>6.0%}  {note}")
            if len(medians) == SETS:
                a, b = medians
                worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
                ok = abs(worse) <= bound
                all_ok &= ok
                print(f"{'':<11} {name:<13} second median {'worse' if worse > 0 else 'better'} by "
                      f"{abs(worse):.1%}  {'agree' if ok else 'DISAGREE'}")
        same = len(shares) == 1
        all_ok &= same
        print(f"{wl:<11} failed share per set: {sorted(shares)}  {'same' if same else 'DIFFERENT'}")
    print("sets agree within the bounds" if all_ok else "sets do NOT agree within the bounds")
    return all_ok


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--from", dest="saved", help="report on saved results instead of running")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.saved:
        results = json.loads(Path(args.saved).read_text(encoding="utf-8"))
    else:
        workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
        results = run_sets(spec, workloads, args.runs, args.first_seed)
    sys.exit(0 if report(spec, results) else 1)


if __name__ == "__main__":
    main()
