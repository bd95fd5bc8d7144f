"""The benchmark's three workloads.

Each workload is built in two steps.  The constructor is the set-up that
``setup_s`` times: it loads or builds the problem, the grids and the jump
quadrature, or writes the CLI config files.  ``prepare`` then computes, off
the clock, whatever the correctness checks compare against.  ``op`` is one
timed operation, the same work every time, and ``check`` returns the list of
problems found in its output (empty when the operation is correct).

Each workload calls switchvi through module attributes (``pde_solver.solve_minmax``,
``cli.main``), the names the traced run wraps.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from importlib import resources
from pathlib import Path

import numpy as np

from switchvi import cli, discretization, model, pde_solver
from switchvi.discretization import SpatialGrid, TimeGrid

# 64 atoms on 0.05 <= |e| <= 1 replace the two atoms of switch_2x2_jump.
DENSITY_LEVY = {"density": "0.4*exp(-abs(e))", "radius": 1.0, "cutoff": 0.05}

# Library workloads: 201 nodes on [-2, 2], 200 steps over the 0.5 horizon.
X_MIN, X_MAX, N_NODES, N_STEPS = -2.0, 2.0, 201, 200

ORDER_TOL = 1e-8  # max-min <= min-max + ORDER_TOL
OBSTACLE_TOL = 1e-10  # min-max lower-obstacle violation
LIMIT_SLACK = 1e-9  # |limit - direct| <= 2 * last schedule gap + LIMIT_SLACK
ORACLE_TOL = 1e-10  # CLI check: solver against the discrete-game oracle


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class _SameOutput:
    """Flags an operation whose output bytes differ from the first one's."""

    def __init__(self):
        self.first = None

    def problems(self, digest: str) -> list:
        if self.first is None:
            self.first = digest
        return [] if digest == self.first else ["output bytes differ from the run's first operation"]


class JumpDense:
    """Direct min-max then max-min, explicit scheme, 64-atom density jumps."""

    name = "jump_dense"

    def __init__(self, workdir: Path, seed: int):
        raw = json.loads(resources.files("switchvi.problems").joinpath("switch_2x2_jump.json").read_text(encoding="utf-8"))
        raw.update(name="switch_2x2_jump_density64", levy=DENSITY_LEVY)
        self.spec = model.load_problem(raw)
        self.grid = SpatialGrid.line(X_MIN, X_MAX, N_NODES)
        self.tgrid = TimeGrid(horizon=self.spec.horizon, n_steps=N_STEPS)
        self.quad = discretization.build_levy_quadrature(self.spec.levy)
        self.same = _SameOutput()

    def prepare(self) -> None:
        x = self.grid.axis()
        m1, m2 = self.spec.modes.m1, self.spec.modes.m2
        self.terminal = np.stack([np.stack([self.spec.eval_terminal((i, j), x) for j in range(m2)]) for i in range(m1)])

    def op(self):
        upper = pde_solver.solve_minmax(self.spec, self.grid, self.tgrid, self.quad, mode="direct")
        lower = pde_solver.solve_maxmin(self.spec, self.grid, self.tgrid, self.quad, mode="direct")
        return upper, lower

    def check(self, out) -> list:
        (upper, upper_report), (lower, _) = out
        problems = []
        if not np.all(lower.values <= upper.values + ORDER_TOL):
            problems.append(f"max-min exceeds min-max by {float(np.max(lower.values - upper.values)):.3e}")
        violation = max(upper_report.obstacle_lower_violation)
        if violation > OBSTACLE_TOL:
            problems.append(f"min-max lower-obstacle violation {violation:.3e}")
        for label, traj in (("min-max", upper), ("max-min", lower)):
            if not np.array_equal(traj.values[-1], self.terminal):
                problems.append(f"{label} terminal level differs from h")
        return problems + self.same.problems(_digest(upper.values, lower.values))


class PenaltyLimit:
    """Limit-mode min-max then max-min, IMEX scheme, no jumps."""

    name = "penalty_limit"

    def __init__(self, workdir: Path, seed: int):
        self.spec = model.load_builtin_problem("no_jump")
        self.grid = SpatialGrid.line(X_MIN, X_MAX, N_NODES)
        self.tgrid = TimeGrid(horizon=self.spec.horizon, n_steps=N_STEPS)
        self.quad = discretization.build_levy_quadrature(self.spec.levy)
        self.config = pde_solver.SchemeConfig(mode="imex")
        self.same = _SameOutput()

    def _solvers(self):
        return (pde_solver.solve_minmax, pde_solver.solve_maxmin)

    def prepare(self) -> None:
        self.direct = [
            solver(self.spec, self.grid, self.tgrid, self.quad, mode="direct", config=self.config)[0]
            for solver in self._solvers()
        ]

    def op(self):
        return [
            solver(
                self.spec, self.grid, self.tgrid, self.quad, mode="limit", config=self.config,
                gap_tol=0.0, raise_on_nonconvergence=False,
            )
            for solver in self._solvers()
        ]

    def check(self, out) -> list:
        problems = []
        for (traj, report), direct, label in zip(out, self.direct, ("min-max", "max-min")):
            if not report.schedule_gaps:
                problems.append(f"{label} limit solve ran fewer than two schedule entries")
                continue
            distance = traj.sup_distance(direct)
            allowed = 2.0 * report.schedule_gaps[-1] + LIMIT_SLACK
            if not distance <= allowed:
                problems.append(f"{label} limit is {distance:.3e} from the direct solve (allowed {allowed:.3e})")
        return problems + self.same.problems(_digest(*(traj.values for traj, _ in out)))


class CliCrosscheck:
    """``switchvi solve`` then ``switchvi check``, in process."""

    name = "cli_crosscheck"

    def __init__(self, workdir: Path, seed: int, stencil_perturbation=None):
        """``stencil_perturbation`` passes the CLI's oracle test hook through
        (``[step, row, col, amount]``); every operation must then fail."""
        self.seed = seed
        self.solve_cfg = workdir / "solve.json"
        self.check_cfg = workdir / "check.json"
        self.solve_out = workdir / "solve_out"
        self.check_out = workdir / "check_out"
        grid = {"x_min": X_MIN, "x_max": X_MAX}
        solve = {
            "problem": "switch_2x2_jump",
            "grid": dict(grid, n_nodes=N_NODES),
            "time": {"n_steps": N_STEPS},
            "scheme": {"mode": "explicit"},
            "solve": {"system": "minmax", "mode": "direct"},
        }
        check = {
            "problem": "switch_2x2_jump",
            "grid": dict(grid, n_nodes=50),
            "time": {"n_steps": 20},
            "scheme": {"mode": "explicit"},
            "check": {"paths": 10_000, "n_steps": 50, "x0": 0.0, "n": 4, "m": 4},
        }
        if stencil_perturbation is not None:
            check["check"]["stencil_perturbation"] = list(stencil_perturbation)
        self.solve_cfg.write_text(json.dumps(solve), encoding="utf-8")
        self.check_cfg.write_text(json.dumps(check), encoding="utf-8")
        self.same = _SameOutput()

    def prepare(self) -> None:
        pass

    def op(self):
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            codes = (
                cli.main(["solve", "--config", str(self.solve_cfg), "--out", str(self.solve_out), "--format", "bin"]),
                cli.main(["check", "--config", str(self.check_cfg), "--out", str(self.check_out), "--seed", str(self.seed)]),
            )
        return codes, log.getvalue()

    def check(self, out) -> list:
        codes, log = out
        problems = []
        if codes != (0, 0):
            problems.append(f"exit codes {codes}: {log.strip()[-300:]}")
        report_path = self.check_out / "check_report.json"
        if report_path.exists():
            report = json.loads(report_path.read_text(encoding="utf-8"))
            if not report.get("passed"):
                problems.append("check_report.json did not pass")
            for order in ("oracle_minmax", "oracle_maxmin"):
                diff = report.get(order, {}).get("max_abs_diff", float("inf"))
                if not diff <= ORACLE_TOL:
                    problems.append(f"{order} differs from the solver by {diff:.3e}")
        else:
            problems.append("check_report.json was not written")
        digest = hashlib.sha256()
        csvs = sorted(self.solve_out.glob("*.csv"))
        for path in csvs:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        if len(csvs) != N_STEPS + 2:  # every level plus plotdata.csv
            problems.append(f"solve wrote {len(csvs)} CSV files, expected {N_STEPS + 2}")
        problems += self.same.problems(digest.hexdigest())
        # the next operation writes into empty directories, so stale files cannot pass
        shutil.rmtree(self.solve_out, ignore_errors=True)
        shutil.rmtree(self.check_out, ignore_errors=True)
        return problems


WORKLOADS = {w.name: w for w in (JumpDense, PenaltyLimit, CliCrosscheck)}
