"""Package-wide rules: no assert statements, no orphaned private code, a
light top-level import, and every name the benchmark's tracer patches
still exists."""
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


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level private functions, classes and constants."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _names_read(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names, attributes and imported names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_no_orphaned_private_definitions():
    # a private helper nothing reads any more (a deleted caller's leftover)
    # is dead code; every one must be read somewhere in the package
    defined = []
    used = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined += [f"{path.name}:{n}" for n in _private_definitions(tree)]
        used |= _names_read(tree)
    assert [d for d in defined if d.split(":")[1] not in used] == []


def test_exports_are_exactly_the_imported_names():
    # __all__ lists what __init__ imports, nothing more or less, and each
    # entry resolves: a name deleted from its module must leave both
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = set()
    exported = None
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = ast.literal_eval(node.value)
    assert exported is not None
    assert len(exported) == len(set(exported))
    assert set(exported) == imported
    assert [n for n in exported if not hasattr(stochmatch, n)] == []


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


# every algorithm, the wrapped route skewed arrivals take, and a matrix
# route past the plan memo's size, where every arrival warm-starts a plan
# solve: the scenario lines that pick it, and the spans and positive
# counts its replay must record (flows.units sums the units routed, the
# first item MinCostFlow.min_cost_flow returns)
TRACED_ROUTES = {
    "fair-bias": ("metric = random 8", {"offline.opt_tree"}),
    "split-match": (
        "metric = random 8\nalgorithm = split-match",
        {"splitmatch.decomposition", "splitmatch.hmatch"},
    ),
    "fair-bias-on-frt": (
        "metric = random 8\nalgorithm = fair-bias-on-frt",
        {"offline.opt_tree"},
    ),
    "max-weight": (
        "metric = random 8\nalgorithm = max-weight",
        {"fairbias.columns", "fairbias.plan_solves"},
    ),
    "wrapped": (
        "metric = random 8\ndistribution = geometric",
        {"transship.solve", "transship.relocate"},
    ),
    "matrix": (
        "metric = uniform 24",
        {
            "fairbias.columns",
            "fairbias.plan_solves",
            "flows.solve",
            "flows.units",
            "offline.opt_general",
        },
    ),
}


@pytest.mark.parametrize("route", sorted(TRACED_ROUTES))
def test_benchmark_tracer_installs_and_replays_a_tree_scenario(tmp_path, route):
    # bench/tracing.py wraps package names in place, so a refactor that
    # drops or moves one of them, or that plays an episode through a name
    # the tracer does not mark, must fail here as well as in the bench;
    # every route but "matrix" runs on a tree
    scenario = tmp_path / "route.scenario"
    lines, spans = TRACED_ROUTES[route]
    scenario.write_text(f"{lines}\ntrials = 2\nseed = 3\n")
    code = (
        "import sys, tracing, stochmatch.harness as harness\n"
        "probe = tracing.Probe(True)\n"
        "probe.install(harness)\n"
        "records, _ = harness.run_trials(harness.parse_scenario(sys.argv[1]))\n"
        "counted = {k for c in probe.counts for k, v in c.items() if v > 0}\n"
        "print(len(records), ' '.join(sorted(set(probe.names) | counted)))\n"
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


def test_only_flows_and_bmatching_reference_transport():
    # every transport problem is built by the bmatching plan cores, so a
    # solver kernel swap touches one call site, and the kernel class is
    # reached only through transport
    names = {
        path.stem: _names_read(ast.parse(path.read_text(encoding="utf-8")))
        for path in SRC.glob("*.py")
    }
    users = {module for module, read in names.items() if "transport" in read}
    assert "bmatching" in users
    assert users <= {"flows", "bmatching"}
    assert {module for module, read in names.items() if "MinCostFlow" in read} == {"flows"}
