"""Command line front end.

Subcommands: simulate (scenario file -> CSV + summary), verify (one of
the lemma verifiers in ``stochmatch.verify``; non-zero exit on failure),
opt (exact offline value), embed (sample dominating trees, report
stretch), ballsbins (top-k load estimate).

``verify`` runs one entry of ``VERIFIERS``, which maps the parsed
arguments to a verifier call, and prints its ``Report.lines``.  The
instance verifiers build their fixture with ``harness.build_instance``,
so ``--kind`` is a scenario metric kind.
"""

from __future__ import annotations

import argparse
import random
import sys

from .ballsbins import estimate_Nk
from .harness import (
    GENERATED_KINDS,
    Scenario,
    build_instance,
    offline_opt,
    parse_scenario,
    run_trials,
)
from .metrics import _at_least, dump_metric, frt_embed, load_metric, tree_metric
from .verify import (
    verify_cost_decomposition,
    verify_match_to_self,
    verify_replacement,
    verify_scaling,
    verify_structure_lemma,
)


def _instance(args, default: str):
    return build_instance(Scenario(args.kind or default, str(args.n), seed=args.seed))


# verify name -> args -> Report; each instance verifier has its own
# default --kind
VERIFIERS = {
    "structure": lambda a: verify_structure_lemma(
        _instance(a, "uniform"), a.trials, a.seed
    ),
    "replacement": lambda a: verify_replacement(_instance(a, "line")),
    "decomposition": lambda a: verify_cost_decomposition(
        _instance(a, "random"), a.trials, a.seed
    ),
    "scaling": lambda a: verify_scaling(a.count, a.seed),
    "match-to-self": lambda a: verify_match_to_self(a.count, a.seed),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochmatch",
        description="online stochastic matching experiments and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario file, write CSV")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("scenario", help="key = value scenario file")

    p = sub.add_parser("verify", help="run one of the lemma verifiers")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("which", choices=list(VERIFIERS))
    p.add_argument("--n", type=int, default=5, help="points in the fixture metric")
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--count", type=int, default=25, help="random instances")
    p.add_argument(
        "--kind",
        choices=GENERATED_KINDS,
        help="fixture metric; defaults: structure uniform, replacement line, "
        "decomposition random",
    )

    p = sub.add_parser("opt", help="exact offline optimum of a request list")
    p.set_defaults(run=_cmd_opt)
    p.add_argument("metric", help="metric file")
    p.add_argument("requests", nargs="+", type=int)

    p = sub.add_parser("embed", help="sample dominating trees for a metric")
    p.set_defaults(run=_cmd_embed)
    p.add_argument("metric", help="metric file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--dump", help="write the last sampled tree as a metric file")

    p = sub.add_parser("ballsbins", help="mean and stderr of the top-k load")
    p.set_defaults(run=_cmd_ballsbins)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("trials", type=int)
    p.add_argument("seed", type=int)
    return parser


def _cmd_simulate(args) -> int:
    sc = parse_scenario(args.scenario)
    records, summary = run_trials(sc)
    for line in summary.lines():
        print(line)
    if sc.output:
        print(f"wrote {len(records)} rows to {sc.output}")
    return 0


def _cmd_verify(args) -> int:
    report = VERIFIERS[args.which](args)
    for line in report.lines(args.which):
        print(line)
    return 0 if report.ok else 2


def _cmd_opt(args) -> int:
    print(offline_opt(load_metric(args.metric), args.requests))
    return 0


def _cmd_embed(args) -> int:
    _at_least("samples", args.samples, 1)
    instance = load_metric(args.metric)
    n = instance.n
    dmat = instance.matrix
    ok = True
    for s in range(args.samples):
        tree = frt_embed(instance, random.Random(args.seed + s))
        tmat = tree.leaf_distance_matrix()
        worst = 0.0
        total = 0.0
        pairs = 0
        dominated = True
        for i in range(n):
            for j in range(i + 1, n):
                td = tmat[i][j]
                d = dmat[i][j]
                if td < d:
                    dominated = False
                if d > 0:
                    stretch = td / d
                    worst = max(worst, stretch)
                    total += stretch
                    pairs += 1
        # with no pair at a positive distance, every pair keeps its length
        worst, mean = (worst, total / pairs) if pairs else (1.0, 1.0)
        ok = ok and dominated
        print(
            f"sample {s}: dominance {'ok' if dominated else 'VIOLATED'} "
            f"max-stretch {worst:.3f} mean-stretch {mean:.3f}"
        )
    if args.dump:
        dump_metric(tree_metric(tree), args.dump)
        print(f"wrote {args.dump}")
    return 0 if ok else 2


def _cmd_ballsbins(args) -> int:
    mean, stderr = estimate_Nk(
        args.n, args.k, args.trials, random.Random(args.seed)
    )
    print(f"mean {mean:.6f}")
    print(f"stderr {stderr:.6f}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _at_least("seed", getattr(args, "seed", 0), 0)  # Random(-s) is Random(s)
        return args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
