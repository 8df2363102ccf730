"""Package-wide rules: no assert statements, a light top-level import."""
from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import stochmatch

SRC = Path(stochmatch.__file__).resolve().parent


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
