"""The runtime needs NumPy alone: no module under ``src/specproj`` imports a
package that ``pyproject.toml`` does not list, and the CLI loads no SciPy.
The numeric path works on arrays: only the I/O edge imports the grid and
field container."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _imported_packages() -> dict[str, list[str]]:
    """Top-level package of every absolute import in src/specproj -> files."""
    found: dict[str, list[str]] = {}
    for path in sorted((SRC / "specproj").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], []).append(path.name)
    return found


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
                for d in project["dependencies"]}
    third_party = {name: files for name, files in _imported_packages().items()
                   if name not in sys.stdlib_module_names and name != "specproj"}
    assert set(third_party) == declared, third_party


def test_cli_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = ("import sys, specproj.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_only_the_io_edge_imports_grids():
    # fldio checks outside input as a RealField; projection wraps its stages
    # for one RealField (the ``project`` command and the acceptance tests)
    importers = set()
    for path in sorted((SRC / "specproj").rglob("*.py")):
        pkg = ".".join(path.relative_to(SRC).with_suffix("").parts[:-1])
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                base = pkg.rsplit(".", node.level - 1)[0] if node.level else ""
                module = ".".join(p for p in (base, node.module) if p)
                names = [module] + [f"{module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if "specproj.grids" in names:
                importers.add(path.relative_to(SRC / "specproj").as_posix())
    assert importers == {"fldio.py", "projection.py"}, importers
