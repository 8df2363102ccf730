"""Package-wide rules: no assert statements, a light top-level import,
and every name the benchmark's tracer patches still exists."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stochmatch
import stochmatch.harness as harness

SRC = Path(stochmatch.__file__).resolve().parent
BENCH = SRC.parent.parent / "bench"


def test_no_assert_statements_in_the_package():
    # asserts vanish under python -O; checks that guard results must raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, stochmatch; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC.parent)},
    )
    assert out.stdout.strip() == "False"


# every algorithm, and the wrapped route skewed arrivals take: the
# scenario line that picks it, and spans its replay must record
TRACED_ROUTES = {
    "fair-bias": ("", {"offline.opt_tree"}),
    "split-match": (
        "algorithm = split-match",
        {"splitmatch.decomposition", "splitmatch.hmatch"},
    ),
    "fair-bias-on-frt": ("algorithm = fair-bias-on-frt", {"offline.opt_tree"}),
    "max-weight": ("algorithm = max-weight", {"fairbias.columns"}),
    "wrapped": ("distribution = geometric", {"transship.solve", "transship.relocate"}),
}


@pytest.mark.parametrize("route", sorted(TRACED_ROUTES))
def test_benchmark_tracer_installs_and_replays_a_tree_scenario(tmp_path, route):
    # bench/tracing.py wraps package names in place, so a refactor that
    # drops or moves one of them, or that plays an episode through a name
    # the tracer does not mark, must fail here as well as in the bench
    scenario = tmp_path / "tree.scenario"
    line, spans = TRACED_ROUTES[route]
    scenario.write_text(f"metric = random 8\ntrials = 2\nseed = 3\n{line}\n")
    code = (
        "import sys, tracing, stochmatch.harness as harness\n"
        "probe = tracing.Probe(True)\n"
        "probe.install(harness)\n"
        "records, _ = harness.run_trials(harness.parse_scenario(sys.argv[1]))\n"
        "print(len(records), ' '.join(sorted(set(probe.names))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(scenario)],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": os.pathsep.join([str(SRC.parent), str(BENCH)])},
    )
    trials, names = out.stdout.split(" ", 1)
    assert trials == "2"
    assert {"episode", *spans} <= set(names.split())


def test_traced_routes_cover_every_algorithm():
    assert set(harness.ALGORITHMS) < set(TRACED_ROUTES)
