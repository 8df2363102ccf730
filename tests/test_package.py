"""Package-wide rules: no assert statements, no hand-written floor refusals,
no orphaned private code, route names only in the harness, the verifiers in
their own module, light imports that load only the modules they use, every
name the benchmark's tracer patches still exists, and the README's python
examples run."""
from __future__ import annotations

import ast
import os
import re
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


def test_floors_are_refused_through_at_least():
    # every size, count and rank floor is metrics._at_least's one text,
    # "<name> must be >= <floor>"; ten checks once wrote their own
    texts = ("need n >=", "need even n", "need at least one", "needs at least one")
    found = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if any(text in line for text in texts)
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


def _docstrings(tree: ast.Module) -> set[ast.AST]:
    """The docstring nodes of a module and of its classes and functions."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        node.body[0].value
        for node in ast.walk(tree)
        if isinstance(node, owners)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def test_only_harness_names_routes():
    # harness._RUNNERS owns the route names; a result or provider that
    # spelled its own name again was read only by tests
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "harness.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        docs = _docstrings(tree)
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node not in docs
            and node.value.startswith(harness.ALGORITHMS)
        ]
    assert found == []


def test_verifiers_live_in_verify_and_harness_skips_bmatching():
    # the scenario harness and the lemma verifiers share no code; a new
    # verifier goes to verify.py, and the plan solvers stay out of harness
    homes = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        homes += [
            path.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("verify_")
        ]
    assert homes and set(homes) == {"verify.py"}
    tree = ast.parse((SRC / "harness.py").read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules |= {base} | {f"{base}.{a.name}" for a in node.names}
    assert [m for m in modules if "bmatching" in m.split(".")] == []


def _package_modules_loaded_by(module: str) -> set[str]:
    code = (
        "import importlib, sys\n"
        "importlib.import_module(sys.argv[1])\n"
        "print(*sorted(m for m in sys.modules if m.startswith('stochmatch.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, module],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC.parent)},
    )
    return {m.removeprefix("stochmatch.") for m in out.stdout.split()}


def test_imports_load_only_the_modules_they_use():
    # the root re-exports nothing, and the lemma verifiers and the scenario
    # harness share no code
    assert _package_modules_loaded_by("stochmatch") == set()
    harness_loads = _package_modules_loaded_by("stochmatch.harness")
    assert harness_loads & {"verify", "ballsbins", "cli"} == set()
    verify_loads = _package_modules_loaded_by("stochmatch.verify")
    assert verify_loads & {"harness", "offline", "splitmatch", "transship"} == set()


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


def test_import_and_verify_leave_numpy_unloaded():
    # numpy loads only for the bootstrap summary and the package never
    # loads scipy, so a plain import and a short verify load neither
    code = (
        "import sys, stochmatch, stochmatch.cli\n"
        "print('numpy' in sys.modules, 'scipy' in sys.modules)\n"
        "stochmatch.cli.main(['verify', 'match-to-self', '--count', '3', '--seed', '1'])\n"
        "print('numpy' in sys.modules)\n"
        "stochmatch.cli.main(['verify', 'structure', '--n', '4', '--trials', '200'])\n"
        "print('scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC.parent)},
    )
    assert out.stdout.splitlines() == [
        "False False",
        "match-to-self: 3 checks, ok",
        "False",
        "k=1 cells=4 chi2=2.080 p=0.5560 ok",
        "k=2 cells=6 chi2=7.900 p=0.1618 ok",
        "k=3 cells=4 chi2=2.320 p=0.5087 ok",
        "structure: ok",
        "False",
    ]


def test_summary_leaves_numpy_ma_unloaded():
    # np.percentile imported numpy.ma on its first call, ~11 ms a summary
    code = (
        "import sys\n"
        "from stochmatch.harness import Scenario, run_trials\n"
        "run_trials(Scenario('line', '8', trials=20, seed=3))\n"
        "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC.parent)},
    )
    assert out.stdout.strip() == "True False"


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


def test_readme_python_examples_run():
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
