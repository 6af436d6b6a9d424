"""The runtime needs NumPy alone: no module under ``src/specproj`` imports a
package that ``pyproject.toml`` does not list, and the CLI loads no SciPy.
Fields are plain arrays: no module under ``src/specproj`` imports
``specproj.grids``, which stays for the benchmark harness alone. A CLI
process loads only the layers its command runs: help and usage errors load
no NumPy at all."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specproj import fldio
from specproj.surrogate import FnoHyper, init_params, save_model

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
    """No module under src/specproj imports specproj.grids: ``fldio.read_fld``
    checks outside input as a plain array, and the grid is its axes."""
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
    assert importers == set(), importers


# runs the CLI on argv and, at exit, writes the names of the loaded modules
_PROBE = """\
import atexit, json, pathlib, sys
atexit.register(lambda: pathlib.Path(sys.argv[1]).write_text(json.dumps(sorted(sys.modules))))
from specproj.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _loaded(tmp_path, *argv) -> tuple[int, set[str]]:
    """The exit code of ``specproj *argv`` in a fresh process, and the
    specproj modules (plus numpy) it loaded."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    listing = tmp_path / "modules.json"
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(listing), *map(str, argv)],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    modules = json.loads(listing.read_text())
    return proc.returncode, {m for m in modules if m.split(".")[0] in ("specproj", "numpy")}


_START = {"specproj", "specproj.cli", "specproj.runconfig", "specproj.errors"}


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["rollout", "--help"], 0),
    (["generate", "no_such_kind"], 1),  # a usage error
    (["--out", "r.fld", "rollout", "m.mdl", "i.fld", "--steps", "abc"], 2),  # a settings error
], ids=["help", "rollout_help", "usage_error", "settings_error"])
def test_help_and_argument_errors_load_no_numpy(tmp_path, argv, code):
    exit_code, loaded = _loaded(tmp_path, *argv)
    assert exit_code == code
    assert loaded == _START


def _layers(loaded: set[str]) -> set[str]:
    return {m.split(".")[1] for m in loaded if m.startswith("specproj.")}


def test_generate_loads_no_model_layer(tmp_path):
    (tmp_path / "kse.cfg").write_text("n = 16\nwarmup = 0\nsteps = 2\nsubsteps = 1\n")
    code, loaded = _loaded(tmp_path, "--out", "ds", "--config", "kse.cfg",
                           "generate", "kse", "--count", "1")
    assert code == 0 and (tmp_path / "ds" / "traj_0000.fld").exists()
    assert "solvers" in _layers(loaded)
    assert not _layers(loaded) & {"surrogate", "consistency", "projection", "optim",
                                  "metrics", "_erf"}


def test_rollout_loads_no_solver_corrector_or_metric(tmp_path):
    hyper = FnoHyper(n_layers=1, modes=(3, 3), width=4, in_channels=2, out_channels=2)
    save_model(tmp_path / "m.mdl", init_params(hyper, (8, 8), np.random.default_rng(0)))
    fldio.write_array(tmp_path / "init.fld", np.random.default_rng(1).normal(size=(2, 8, 8)))
    code, loaded = _loaded(tmp_path, "--out", "r.fld", "rollout", "m.mdl", "init.fld",
                           "--steps", "2")
    assert code == 0 and (tmp_path / "r.fld").exists()
    assert "surrogate" in _layers(loaded)
    assert not _layers(loaded) & {"consistency", "solvers", "metrics"}


def test_evaluate_loads_no_solver_or_model_layer(tmp_path):
    traj = np.random.default_rng(2).normal(size=(2, 3, 8, 8))
    for d in ("pred", "truth"):
        (tmp_path / d).mkdir()
        fldio.write_array(tmp_path / d / "traj_0000.fld", traj)
    code, loaded = _loaded(tmp_path, "--out", "rep", "evaluate", "pred", "truth",
                           "--metrics", "nrmse,mse,pearson,divergence,momentum,csi")
    assert code == 0 and (tmp_path / "rep" / "report.txt").exists()
    assert "metrics" in _layers(loaded)
    assert not _layers(loaded) & {"solvers", "surrogate", "consistency", "projection", "optim"}
