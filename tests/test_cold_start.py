"""Start-up without scipy: only the IMEX scheme's implicit diffusion needs scipy.linalg.

Importing the package or its CLI loads no scipy module, every explicit solve
and the CLI's ``solve`` and ``check`` run with scipy unimportable, and an IMEX
solve loads ``scipy.linalg`` at its first implicit step.  The import-state
tests run in fresh interpreters, since this one has scipy loaded already.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

import switchvi
from switchvi.discretization import SpatialGrid, TimeGrid, build_levy_quadrature
from switchvi.pde_solver import SchemeConfig, _Workspace, solve_minmax

from conftest import step

SRC = str(Path(switchvi.__file__).resolve().parents[1])

_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now raises ImportError
from switchvi.cli import main
from switchvi.discretization import SpatialGrid, TimeGrid, build_levy_quadrature
from switchvi.model import load_builtin_problem
from switchvi.pde_solver import solve_minmax

spec = load_builtin_problem("switch_2x2_jump")
solve_minmax(spec, SpatialGrid.line(-2.0, 2.0, 21), TimeGrid(spec.horizon, 10), build_levy_quadrature(spec.levy))
config, out = sys.argv[1:]
codes = [main([command, "--config", config, "--out", f"{out}/{command}"]) for command in ("solve", "check")]
print("exit codes", *codes)
"""

_IMEX_SOLVE = f"""
import hashlib, sys
from switchvi.discretization import SpatialGrid, TimeGrid, build_levy_quadrature
from switchvi.model import load_builtin_problem
from switchvi.pde_solver import SchemeConfig, solve_minmax

spec = load_builtin_problem("switch_2x2_jump")
args = spec, SpatialGrid.line(-2.0, 2.0, 41), TimeGrid(spec.horizon, 20), build_levy_quadrature(spec.levy)
before = {_SCIPY_MODULES}
traj, _ = solve_minmax(*args, config=SchemeConfig(mode="imex"))
print(before, "scipy.linalg" in sys.modules, hashlib.sha256(traj.values.tobytes()).hexdigest())
"""


def run_fresh(code: str, *args: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports this switchvi."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_importing_the_package_and_its_cli_loads_no_scipy():
    assert run_fresh(f"import sys, switchvi, switchvi.cli; print({_SCIPY_MODULES})").strip() == "[]"


def test_explicit_solves_and_the_cli_run_without_scipy(tmp_path):
    config = {
        "problem": "switch_2x2_jump",
        "grid": {"x_min": -2.0, "x_max": 2.0, "n_nodes": 41},
        "time": {"n_steps": 20},
        "scheme": {"mode": "explicit"},
        "solve": {"system": "minmax", "mode": "direct"},
        "check": {"paths": 4000, "x0": 0.0, "n": 4, "m": 4, "n_steps": 20},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run_fresh(_WITHOUT_SCIPY, str(path), str(tmp_path / "out")).splitlines()[-1] == "exit codes 0 0"


def test_an_imex_solve_loads_scipy_linalg_at_its_first_implicit_step(spec_2x2, quad_2x2):
    """The fresh solve's bytes equal this process's, where scipy was loaded before it."""
    before, loaded, digest = run_fresh(_IMEX_SOLVE).rsplit(" ", 2)
    assert before == "[]" and loaded == "True"
    traj, _ = solve_minmax(spec_2x2, SpatialGrid.line(-2.0, 2.0, 41), TimeGrid(spec_2x2.horizon, 20), quad_2x2, config=SchemeConfig(mode="imex"))
    assert digest.strip() == hashlib.sha256(traj.values.tobytes()).hexdigest()


def test_one_banded_solve_per_mode_pair_per_imex_step(spec_2x2, quad_2x2, monkeypatch):
    """The step looks ``solve_banded`` up on ``scipy.linalg`` at every call, so a
    wrapper set after the workspace is built sees every solve."""
    tgrid = TimeGrid(spec_2x2.horizon, 20)
    ws = _Workspace(spec_2x2, SpatialGrid.line(-2.0, 2.0, 41), tgrid, quad_2x2, SchemeConfig(mode="imex"))
    calls = []
    solve_banded = scipy.linalg.solve_banded

    def counting(*args, **kwargs):
        calls.append(args[2].shape)
        return solve_banded(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_banded", counting)
    values = spec_2x2.terminal_table(ws.x)
    times = tgrid.times()
    for k in (tgrid.n_steps - 1, tgrid.n_steps - 2):
        values = step(ws, values, float(times[k + 1]), 0.0, 0.0)
        assert np.all(np.isfinite(values))
    assert len(ws.pairs) == 4
    assert calls == [(ws.n_nodes,)] * (2 * len(ws.pairs))
