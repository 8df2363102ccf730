"""Command line front end.

Subcommands: simulate (scenario file -> CSV + summary), verify (the
lemma verifiers; non-zero exit on failure), opt (exact offline value),
embed (sample dominating trees, report stretch), ballsbins (top-k load
estimate).
"""

from __future__ import annotations

import argparse
import random
import sys

from .ballsbins import estimate_Nk
from .harness import (
    parse_scenario,
    run_trials,
    verify_cost_decomposition,
    verify_match_to_self,
    verify_replacement,
    verify_scaling,
    verify_structure_lemma,
)
from .metrics import (
    dump_metric,
    frt_embed,
    line_metric,
    load_metric,
    random_recursive_tree,
    star_tree,
    tree_metric,
    uniform_metric,
)
from .offline import opt_general, opt_tree


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochmatch",
        description="online stochastic matching experiments and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario file, write CSV")
    p.add_argument("scenario", help="key = value scenario file")

    p = sub.add_parser("verify", help="run one of the lemma verifiers")
    p.add_argument(
        "which",
        choices=[
            "structure",
            "replacement",
            "decomposition",
            "scaling",
            "match-to-self",
        ],
    )
    p.add_argument(
        "--n",
        type=int,
        default=5,
        help="instance size (structure, replacement, decomposition)",
    )
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--count", type=int, default=25, help="random instances")
    p.add_argument(
        "--kind",
        default="line",
        choices=["line", "uniform", "star", "random"],
        help="fixture metric for the replacement check",
    )

    p = sub.add_parser("opt", help="exact offline optimum of a request list")
    p.add_argument("metric", help="metric file")
    p.add_argument("requests", nargs="+", type=int)

    p = sub.add_parser("embed", help="sample dominating trees for a metric")
    p.add_argument("metric", help="metric file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--dump", help="write the last sampled tree as a metric file")

    p = sub.add_parser("ballsbins", help="mean and stderr of the top-k load")
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


def _fixture(kind: str, n: int, seed: int):
    if kind == "line":
        return line_metric(n)
    if kind == "uniform":
        return uniform_metric(n)
    if kind == "star":
        return tree_metric(star_tree(n))
    return tree_metric(random_recursive_tree(n, random.Random(seed)))


def _cmd_verify(args) -> int:
    if args.which == "structure":
        report = verify_structure_lemma(args.n, args.trials, args.seed)
        for row in report.rows:
            print(
                f"k={row.k} cells={row.categories} chi2={row.statistic:.3f} "
                f"p={row.pvalue:.4f} {'ok' if row.ok else 'FAIL'}"
            )
        print("structure: " + ("ok" if report.ok else "FAIL"))
        return 0 if report.ok else 2
    if args.which == "replacement":
        instance = _fixture(args.kind, args.n, args.seed)
        report = verify_replacement(instance)
        for row in report.rows:
            print(
                f"k={row.k} subsets={row.e_subsets} iid={row.e_iid} "
                f"{'ok' if row.ok else 'FAIL'}"
            )
        print("replacement: " + ("ok" if report.ok else "FAIL"))
        return 0 if report.ok else 2
    if args.which == "decomposition":
        instance = tree_metric(
            random_recursive_tree(args.n, random.Random(args.seed))
        )
        report = verify_cost_decomposition(instance, args.trials, args.seed)
        print(f"episodes   {report.mean_alg:.4f} +- {report.stderr_alg:.4f}")
        print(f"summed     {report.sum_per_size:.4f} +- {report.stderr_sum:.4f}")
        print(f"3 sigma    {3 * report.combined_sigma:.4f}")
        print("decomposition: " + ("ok" if report.ok else "FAIL"))
        return 0 if report.ok else 2
    if args.which == "scaling":
        report = verify_scaling(args.count, args.seed)
    else:
        report = verify_match_to_self(args.count, args.seed)
    for failure in report.failures:
        print(failure)
    print(
        f"{args.which}: {report.checked} checks, "
        + ("ok" if report.ok else "FAIL")
    )
    return 0 if report.ok else 2


def _cmd_opt(args) -> int:
    instance = load_metric(args.metric)
    if instance.tree is not None:
        value = opt_tree(instance, args.requests)
    else:
        value = opt_general(instance, args.requests)
    print(value)
    return 0


def _cmd_embed(args) -> int:
    if args.samples < 1:
        raise ValueError("samples must be >= 1")
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
        mean = total / pairs if pairs else 1.0
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
    handlers = {
        "simulate": _cmd_simulate,
        "verify": _cmd_verify,
        "opt": _cmd_opt,
        "embed": _cmd_embed,
        "ballsbins": _cmd_ballsbins,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
