"""Backward-in-time monotone finite-difference solvers.

Five systems share one explicit monotone step (optionally with implicit
diffusion), and ``_PROJECTED`` describes each once by the obstacles
``L[v]_ij = max_{k != i} (v_kj - lower_ik)`` and
``U[v]_ij = min_{l != j} (v_il + upper_jl)`` it projects: after each step
the clip ``max(L, min(U, .))``, less an obstacle it does not project, is
swept to its fixed point; the step penalizes the other obstacles,
``+ n (v - L[v])^-`` and ``- m (v - U[v])^+``, lagged to the previous level;
and the loop gate checks the projecting players' loops.  The penalized
system projects neither obstacle, the lower- (upper-) reflected one L (U),
min-max and max-min both; their limit modes run the lower- (upper-)
reflected solves as ``m`` (``n``) grows.

Min-max and max-min share the clip: on a grid that passes the loop gate
their fixed points coincide.  At a min-max fixed point
``v = max(L, min(U, p))``, ``v >= L``, and ``v <= U`` where ``v > L``.
Where ``v_ij = L_ij = v_kj - c_ik``, the chain of lower-active pairs in
column j cannot close (it would be a lower loop of cost sum 0), so it ends
at a pair with ``v <= U``, and walking back
``v_il + d_jl >= v_kl - c_ik + d_jl >= v_kj - c_ik = v_ij`` gives ``v <= U``
at each pair.  So v is a fixed point of ``clip(p, L, U)``; max-min is the
mirror image.  That fixed point is unique: where two differ most, the pairs
at the largest gap form a loop, one switching leg at a time, of cost sum 0,
which the gate rejects.  So a gated fixed point has ``L > U`` nowhere except
by rounding.

Monotonicity is the load-bearing property: with the CFL guard satisfied,
each step output is non-decreasing in every input node value, which
transfers the comparison structure of the continuous systems to the grid
(penalty-parameter monotonicity, ordering of the two bilateral solutions,
terminal-data comparison).  Large penalties force small steps because ``n``
and ``m`` enter the CFL bound linearly; that trade-off is inherent to the
explicit treatment.

Within one backward step node updates only read the previous level, so they
are order-independent: the step works on the whole ``(m1, m2, nodes)`` stack
at once, the jump sums included (one matrix product with the stacked jump
operator), and the drivers of all pairs come as one table from the
workspace's one driver evaluator (``ProblemSpec.driver_evaluator``), which
sums an affine driver's linear form ``g0 + A·y + B z + C q`` in a fixed
order, within rounding of the driver's own tree, and gives any other driver
bitwise.  The local part, the upwinded drift and in explicit mode the
diffusion, enters as three weights per node (``_Workspace.local_weights``),
read off the stencil helpers once per distinct step time, so a step is
``dt (jumps + drivers + penalties)`` plus three weighted slices of the
previous level; only the implicit diffusion solves pair by pair.  That banded
solve is the package's one use of scipy, imported at the first implicit
step, so the package imports and explicit solves run without loading scipy.
An obstacle sweep is a run of whole-stack passes: each projects every pair
at once onto the obstacles of the previous pass's values, which under the
non-free-loop property reaches the unique fixed point a pair-by-pair sweep
reaches.  A pass whose projection
changes nothing is at the fixed point and stops, and the report and the next
step's penalties reuse its obstacles, so a level evaluates them once, with
``eval_obstacles`` on the workspace's cached ``ProblemSpec.obstacle_costs``;
the terminal gate reads the terminal level's record.  Identical inputs give
bitwise-identical results at a fixed BLAS thread count; the dense jump
product's sums can split by thread, so from about 401 nodes one and two
threads differ in the last bits (1.1e-16 on ``switch_2x2_jump``, IMEX, 401 x
200).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import exprdsl
from .discretization import (
    LevyQuadrature,
    SpatialGrid,
    TimeGrid,
    gradient_surface,
    jump_operator,
    second_derivative_surface,
    small_jump_variance,
    upwind_drift,
)
from .model import (
    TERMINAL_CONSISTENCY_TOL,
    ProblemSpec,
    driver_increments,
    eval_obstacles,
    is_finite_number,
    is_integer,
    neg_part,
    pos_part,
    probe_points,
    validate_non_free_loop,
    validate_terminal_consistency,
)

__all__ = [
    "SchemeConfig",
    "SolverReport",
    "Trajectory",
    "CflViolationError",
    "SweepNonConvergenceError",
    "ScheduleNonConvergenceError",
    "AssumptionViolationError",
    "compute_cfl_bound",
    "estimate_driver_lipschitz",
    "solve_penalized",
    "solve_lower_reflected",
    "solve_upper_reflected",
    "solve_minmax",
    "solve_maxmin",
    "residual_report",
    "check_schedule",
    "check_penalty",
    "DEFAULT_PENALTY_SCHEDULE",
]

DEFAULT_PENALTY_SCHEDULE = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def check_schedule(schedule) -> tuple:
    """``schedule`` as a tuple of its entries if it is a non-empty sequence of
    finite, positive, strictly increasing numbers (not booleans), the penalties
    of a limit solve; ValueError otherwise."""
    entries = tuple(schedule) if isinstance(schedule, (Sequence, np.ndarray)) and not isinstance(schedule, str) else ()
    positive = all(is_finite_number(p) and p > 0 for p in entries)
    if entries and positive and all(a < b for a, b in zip(entries, entries[1:])):
        return entries
    raise ValueError(f"schedule must be a non-empty, strictly increasing sequence of finite positive penalties, got {schedule!r}")


def check_penalty(penalty, name: str) -> float:
    """``penalty`` as a float if it is a finite number >= 0 (not a boolean),
    the penalty ``name`` (``n`` on the lower obstacle, ``m`` on the upper
    one) of a single solve; ValueError otherwise."""
    if is_finite_number(penalty) and penalty >= 0:
        return float(penalty)
    raise ValueError(f"penalty {name} must be a finite number >= 0, got {penalty!r}")


class CflViolationError(ValueError):
    """Explicit step rejected: its stability number exceeds 1."""


class SweepNonConvergenceError(RuntimeError):
    def __init__(self, worst_residual: float, sweeps: int):
        self.worst_residual = worst_residual
        self.sweeps = sweeps
        super().__init__(
            f"obstacle sweeps did not stabilize within {sweeps} passes "
            f"(worst residual {worst_residual:.3e}); check the non-free-loop "
            f"property or raise max_sweeps"
        )


class ScheduleNonConvergenceError(RuntimeError):
    def __init__(self, gaps: list, trajectory=None, report=None):
        self.gaps = gaps
        self.trajectory = trajectory
        self.report = report
        super().__init__(f"penalty schedule did not converge; last gaps: {gaps[-2:]}")


class AssumptionViolationError(ValueError):
    def __init__(self, report):
        self.report = report
        super().__init__(f"standing assumption '{report.name}' violated: {report.violations[:1]}")


@dataclass(frozen=True)
class SchemeConfig:
    """Stepping configuration shared by all solvers.

    ``mode`` is ``"explicit"`` or ``"imex"`` (diffusion implicit via a
    tridiagonal solve, everything else explicit).  Obstacle sweeps run to
    their exact fixed point, which the non-free-loop property lets finitely
    many whole-stack passes reach; ``max_sweeps``, an integer of at least 1,
    caps the passes of one level (a zero-sum loop can keep them cycling).
    """

    mode: str = "explicit"
    max_sweeps: int = 500
    allow_terminal_inconsistency: bool = False

    def __post_init__(self):
        if self.mode not in ("explicit", "imex"):
            raise ValueError(f"unknown scheme mode '{self.mode}'")
        if not is_integer(self.max_sweeps) or self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be an integer of at least 1, got {self.max_sweeps!r}")


@dataclass
class SolverReport:
    """Diagnostics for one backward solve."""

    system: str
    dt: float
    n_steps: int
    cfl_bound: float = 0.0
    cfl_terms: dict = field(default_factory=dict)
    update_norms: list = field(default_factory=list)
    obstacle_lower_violation: list = field(default_factory=list)
    obstacle_upper_violation: list = field(default_factory=list)
    sweep_counts: list = field(default_factory=list)
    residual_norms: dict = field(default_factory=dict)
    schedule: list = field(default_factory=list)
    schedule_gaps: list = field(default_factory=list)
    converged: bool = True
    terminal_inconsistency: float = 0.0
    wall_clock_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Trajectory:
    """Value surfaces at every time level, index 0 = initial time, -1 = expiry."""

    times: np.ndarray  # (n_levels,)
    values: np.ndarray  # (n_levels, m1, m2, n_nodes)
    grid: SpatialGrid

    @property
    def n_levels(self) -> int:
        return int(self.values.shape[0])

    def sup_distance(self, other: "Trajectory") -> float:
        return float(np.max(np.abs(self.values - other.values)))


# --- CFL ------------------------------------------------------------------


def estimate_driver_lipschitz(spec: ProblemSpec, grid: SpatialGrid, tgrid: TimeGrid) -> float:
    """Probe the drivers' joint Lipschitz constant in (y, z, q) by finite differences.

    Sampling cannot certify a bound: the estimate feeds the CFL guard as it
    is, with no margin for a larger slope between the samples.
    """
    x = grid.axis()
    h = 1e-5
    bases = [np.zeros((spec.modes.m1, spec.modes.m2)), np.mean(spec.terminal_table(probe_points(x)), axis=-1)]
    rows = [(t, y0) for t in (0.0, 0.5 * tgrid.horizon, tgrid.horizon) for y0 in bases]
    slopes = driver_increments(spec, [t for t, _ in rows], x, np.array([y0 for _, y0 in rows]), h) / h
    # a sequential sum in pair order, then z, then q: the estimate's bits depend on that order
    return float(np.max(np.sqrt(sum(slopes[:, b] ** 2 for b in range(slopes.shape[1])))))


def compute_cfl_bound(
    spec: ProblemSpec, grid: SpatialGrid, tgrid: TimeGrid, quad: LevyQuadrature, n: float, m: float
) -> tuple[float, dict]:
    """Stability number of the explicit step and its terms (see ``_Workspace.cfl``)."""
    return _Workspace(spec, grid, tgrid, quad, SchemeConfig()).cfl(n, m)


# --- precomputed stepping workspace -----------------------------------------


class _Workspace:
    """Per-(spec, grids, quadrature) tables shared by all backward steps."""

    def __init__(self, spec: ProblemSpec, grid: SpatialGrid, tgrid: TimeGrid, quad: LevyQuadrature, config: SchemeConfig):
        tgrid.check_horizon(spec.horizon)
        self.spec = spec
        self.grid = grid
        self.tgrid = tgrid
        self.quad = quad
        self.config = config
        self.x = grid.axis()
        self.dx = grid.dx
        self.dt = tgrid.dt
        self.n_nodes = grid.n_nodes
        self.m1, self.m2 = spec.modes.m1, spec.modes.m2
        self.pairs = list(spec.modes.pairs())

        # the jump sums as matrices and the compensator sum_k w_k beta_k, which the
        # step upwinds with the drift; of the (atoms, nodes) coefficient tables
        # only sup gamma outlives the assembly
        self.jumps = None
        self.compensator = 0.0
        self.gamma_sup = 0.0
        if quad.n_atoms:
            beta, gamma = spec.jump_tables(self.x, quad.marks)
            self.jumps = jump_operator(grid, quad, beta, gamma)
            self.compensator = np.sum(quad.weights[:, None] * beta, axis=0)
            self.gamma_sup = max(0.0, float(np.max(gamma)))

        # small-jump diffusion surrogate coefficient
        self.corr_coeff = 0.5 * small_jump_variance(spec, quad, self.x)

        self.lip_g = estimate_driver_lipschitz(spec, grid, tgrid)

        # coefficients whose expressions never read t are evaluated once, on first use
        self._local_reads_t = any("t" in exprdsl.free_variables(e) for e in (spec.drift, spec.vol))
        # the step computes the gradient z = sigma Dv only for drivers that read it
        self._drivers_read_z = any("z" in exprdsl.free_variables(e) for e in spec.drivers.values())
        self.drivers = spec.driver_evaluator(self.x)
        self._local = self._local_t = self._weights = self._costs = None

    # -- pieces ------------------------------------------------------------

    def cfl(self, n: float, m: float) -> tuple[float, dict]:
        """Stability number of the step and its terms.

        ``dt * (2 ||sigma sigma^T||/dx^2 + ||b - c||/dx + Lambda + n + m + Lip_g)``
        with ``c = sum_k w_k beta(., e_k)`` and ``Lambda = sum_k w_k sup gamma +
        sum_k w_k``.  The diffusion norm includes the small-jump surrogate; in
        IMEX mode the diffusion term is dropped.  The drift norm is taken of the
        folded drift ``b - c = b^+ + b^-``, because the step upwinds the jump
        compensator together with the drift.  Drift and volatility are read at
        the steps' times ``tgrid.times()[1:]``, or once, at T, if neither reads t.
        """
        sig2_max = b_max = 0.0
        for t in self.tgrid.times()[1:] if self._local_reads_t else (self.tgrid.horizon,):
            bp, bm, sig, _ = self.local_coefficients(float(t))
            sig2_max = max(sig2_max, float(np.max(sig**2)))
            b_max = max(b_max, float(np.max(np.abs(bp + bm))))
        sig2_max += 2.0 * float(np.max(self.corr_coeff))
        total_w = self.quad.total_weight
        terms = {
            "diffusion": self.dt * 2.0 * sig2_max / self.dx**2,
            "drift": self.dt * b_max / self.dx,
            "jump_intensity": self.dt * (total_w * self.gamma_sup + total_w),
            "penalties": self.dt * (n + m),
            "driver_lipschitz": self.dt * self.lip_g,
        }
        value = float(sum(terms.values()))
        if self.config.mode == "imex":
            value = value - terms["diffusion"]
            terms = dict(terms, diffusion=0.0)
        return value, terms

    def check_cfl(self, n: float, m: float) -> tuple[float, dict]:
        value, terms = self.cfl(n, m)
        if not value <= 1.0 + 1e-12:  # a NaN stability number fails too
            raise CflViolationError(
                f"stability number {value:.4f} exceeds 1 "
                f"(terms: { {k: round(v, 4) for k, v in terms.items()} }); "
                f"reduce dt, coarsen penalties or switch to imex"
            )
        return value, terms

    def obstacle_costs(self, t: float) -> tuple:
        """``ProblemSpec.obstacle_costs`` at t on the grid; evaluated once when
        no cost reads t.  Callers must not write to them."""
        if self._costs is None or self.spec.costs_read_t:
            self._costs = self.spec.obstacle_costs(t, self.x)
        return self._costs

    def local_coefficients(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Upwind parts ``b^+``, ``b^-`` of the drift less the compensator, volatility and
        diffusion coefficient at t, evaluated once per distinct t, or once if
        neither drift nor volatility reads t; callers must not write to them."""
        if self._local is None or (self._local_reads_t and t != self._local_t):
            b = self.spec.eval_drift(t, self.x) - self.compensator
            sig = self.spec.eval_vol(t, self.x)
            self._local = np.maximum(b, 0.0), np.minimum(b, 0.0), sig, 0.5 * sig**2 + self.corr_coeff
            self._local_t, self._weights = t, None
        return self._local

    def local_weights(self, t: float) -> tuple:
        """The step's local part at t as weights, formed with
        :meth:`local_coefficients`: ``v + dt (b^+ D^+ v + b^- D^- v)``, plus
        ``dt a D2 v`` in explicit mode, is ``centre * v`` plus ``lower * v[:-1]``
        on nodes 1 to n - 1 and ``upper * v[1:]`` on nodes 0 to n - 2.  The
        fourth entry is the banded matrix of ``I - dt a D2`` for the implicit
        solve in IMEX mode, None in explicit mode.  The weights are read off
        ``upwind_drift`` and ``second_derivative_surface`` applied once to the
        indicator stack of ``arange(n) % 3 == c``, ``c = 0, 1, 2``: the three
        nodes of any row's stencil lie in distinct rows of that stack (Curtis,
        Powell & Reid, J. Inst. Maths Applics 13, 1974).  Callers must not
        write to them."""
        bp, bm, _, a_diff = self.local_coefficients(t)
        if self._weights is None:
            probes = (np.arange(self.n_nodes) % 3 == np.arange(3)[:, None]).astype(float)
            local = upwind_drift(probes, self.grid, self.dt * bp, self.dt * bm)
            diffusion = (self.dt * a_diff) * second_derivative_surface(probes, self.grid)
            banded = None
            if self.config.mode == "explicit":
                local += diffusion
            else:
                lower, centre, upper = _read_weights(diffusion)
                banded = np.zeros((3, self.n_nodes))
                banded[0, 1:] = -upper  # superdiagonal
                banded[1] = 1.0 - centre
                banded[2, :-1] = -lower  # subdiagonal
            lower, centre, upper = _read_weights(local)
            self._weights = lower, centre + 1.0, upper, banded
        return self._weights

    # -- the explicit / imex step ------------------------------------------

    def step(self, values: np.ndarray, t_next: float, n: float, m: float, obstacles: tuple) -> np.ndarray:
        """One backward step; all coupling terms read the previous level.

        ``obstacles`` is ``eval_obstacles`` of ``values`` at ``t_next``; the
        penalties read it.  The result is ``dt (jumps + drivers + penalties)``
        plus the local part by its weights (:meth:`local_weights`), then, in
        IMEX mode, the implicit diffusion solve.
        """
        lower, centre, upper, banded = self.local_weights(t_next)
        z = self.local_coefficients(t_next)[2] * gradient_surface(values, self.grid) if self._drivers_read_z else 0.0
        if self.jumps is None:
            out = self.drivers(t_next, values, z, 0.0)
        else:
            jump_gen, q = self.jumps.apply(values)
            out = self.drivers(t_next, values, z, q)
            out += jump_gen
        if n > 0.0:
            out += n * neg_part(values - obstacles[0])
        if m > 0.0:
            out -= m * pos_part(values - obstacles[1])
        out *= self.dt
        out += centre * values
        out[..., 1:] += lower * values[..., :-1]
        out[..., :-1] += upper * values[..., 1:]

        if banded is not None:
            out = self._implicit_diffusion(out, banded)
        if not np.all(np.isfinite(out)):
            bad = np.argwhere(~np.isfinite(out))[0]
            raise FloatingPointError(
                f"non-finite update at mode pair ({bad[0]}, {bad[1]}), node {bad[2]} (t_next={t_next})"
            )
        return out

    def _implicit_diffusion(self, values: np.ndarray, banded: np.ndarray) -> np.ndarray:
        """Solve ``banded`` v = rhs per surface, in place in ``values``, which it
        returns.  The solve skips scipy's finiteness check: the step checks its
        result.  scipy is imported here, at the first implicit step, and
        ``solve_banded`` looked up on ``scipy.linalg`` at every call, so
        explicit runs never load scipy."""
        import scipy.linalg

        for i, j in self.pairs:
            values[i, j] = scipy.linalg.solve_banded((1, 1), banded, values[i, j], overwrite_b=True, check_finite=False)
        return values


def _read_weights(probed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A three-point stencil's ``(lower, centre, upper)`` weights per node, read
    off its ``(3, n)`` action ``probed`` on the indicator stack of ``arange(n) %
    3 == c``: node k's weight of node j sits in row ``j % 3``, column k."""
    k = np.arange(probed.shape[-1])
    return probed[(k[1:] - 1) % 3, k[1:]], probed[k % 3, k], probed[(k[:-1] + 1) % 3, k[:-1]]


# --- obstacle sweeps --------------------------------------------------------


# Each system by the obstacles (L, U) it projects.  It penalizes exactly the
# others, and its loop gate checks exactly the projecting players' loops.
_PROJECTED = {
    "penalized": (False, False),
    "lower": (True, False),
    "upper": (False, True),
    "minmax": (True, True),
    "maxmin": (True, True),
}


def _project(pde: np.ndarray, L: np.ndarray, U: np.ndarray, sides: tuple) -> np.ndarray:
    """``max(L, min(U, pde))`` with each obstacle that ``sides`` does not
    project dropped, not clipped against an infinity."""
    lower, upper = sides
    if upper:
        pde = np.minimum(U, pde)
    return np.maximum(L, pde) if lower else pde


def _penalties(sides: tuple, n: float, m: float) -> tuple[float, float]:
    """The penalties ``n`` on L and ``m`` on U, 0 on an obstacle ``sides`` projects."""
    return (0.0 if sides[0] else n), (0.0 if sides[1] else m)


def _sweep(values: np.ndarray, costs: tuple, sides: tuple, config: SchemeConfig) -> tuple[int, tuple]:
    """Whole-stack passes of ``_project`` onto the obstacles ``sides`` to their
    exact fixed point (module docstring), in place, on the obstacle costs
    ``_Workspace.obstacle_costs``; a zero-sum loop can keep them cycling until
    the cap, which raises with the last pass's largest change.  An entry a pass
    does not change keeps its bytes, a -0.0 included.  Returns the
    changed-pass count and ``(L, U)``, ``eval_obstacles`` of the swept values."""
    pde_values = values.copy()
    changed = np.empty(values.shape, dtype=bool)
    for passes in range(config.max_sweeps):
        obstacles = eval_obstacles(values, costs)
        new = _project(pde_values, *obstacles, sides)
        if not np.not_equal(new, values, out=changed).any():
            return passes, obstacles
        if passes == config.max_sweeps - 1:
            worst_residual = float(np.max(np.abs(new - values)))
        np.copyto(values, new, where=changed)
    raise SweepNonConvergenceError(worst_residual, config.max_sweeps)


# --- assumption gates -------------------------------------------------------


def _gate_loops(spec: ProblemSpec, grid: SpatialGrid, tgrid: TimeGrid, sides: tuple) -> None:
    """Reject a zero-sum loop of the players whose obstacles ``sides`` projects."""
    if not any(sides):
        return
    moves = "both" if all(sides) else "lower" if sides[0] else "upper"
    check = validate_non_free_loop(spec, spec.loop_check_points(grid.axis(), tgrid.times()), moves=moves)
    if not check.passed:
        raise AssumptionViolationError(check)


# --- backward solves --------------------------------------------------------


def _record_obstacles(report: SolverReport, ws: _Workspace, values: np.ndarray, t: float, obstacles=None, scratch=None) -> tuple[np.ndarray, np.ndarray]:
    """Append the level's obstacle violations, computed in ``scratch``, an array
    of the level's shape, when given; returns the obstacles ``(L, U)``, the
    caller's ``obstacles`` of ``values`` when it holds them."""
    L, U = obstacles if obstacles is not None else eval_obstacles(values, ws.obstacle_costs(t))
    scratch = np.empty_like(values) if scratch is None else scratch
    low = up = 0.0
    if ws.m1 > 1:
        low = float(np.max(neg_part(np.subtract(values, L, out=scratch), scratch)))
    if ws.m2 > 1:
        up = float(np.max(pos_part(np.subtract(values, U, out=scratch), scratch)))
    report.obstacle_lower_violation.append(low)
    report.obstacle_upper_violation.append(up)
    return L, U


def _solve_backward(ws: _Workspace, n: float, m: float, sides: tuple, system: str) -> tuple[Trajectory, SolverReport]:
    """Step from the terminal level to time 0, projecting onto the obstacles
    ``sides`` and penalizing the others, recording each level's update norm and
    obstacle violations.  The terminal level's two recorded violations are its
    ``terminal_inconsistency``, the terminal-consistency check; only when it
    fails does ``validate_terminal_consistency`` run, to report the failure."""
    n, m = _penalties(sides, n, m)
    report = SolverReport(system=system, dt=ws.dt, n_steps=ws.tgrid.n_steps)
    report.cfl_bound, report.cfl_terms = ws.check_cfl(n, m)

    times = ws.tgrid.times()
    n_levels = ws.tgrid.n_steps + 1
    values = np.empty((n_levels, ws.m1, ws.m2, ws.n_nodes))
    values[-1] = ws.spec.terminal_table(ws.x)
    scratch = np.empty_like(values[-1])
    obstacles = _record_obstacles(report, ws, values[-1], float(times[-1]), scratch=scratch)
    report.terminal_inconsistency = max(report.obstacle_lower_violation[-1], report.obstacle_upper_violation[-1])
    if report.terminal_inconsistency > TERMINAL_CONSISTENCY_TOL and not ws.config.allow_terminal_inconsistency:
        raise AssumptionViolationError(validate_terminal_consistency(ws.spec, ws.x))

    for k in range(ws.tgrid.n_steps - 1, -1, -1):
        t_next = float(times[k + 1])
        t_here = float(times[k])
        new = ws.step(values[k + 1], t_next, n, m, obstacles)
        sweeps, obstacles = _sweep(new, ws.obstacle_costs(t_here), sides, ws.config) if any(sides) else (0, None)
        values[k] = new
        report.update_norms.append(float(np.max(np.abs(np.subtract(values[k], values[k + 1], out=scratch), out=scratch))))
        report.sweep_counts.append(sweeps)
        obstacles = _record_obstacles(report, ws, values[k], t_here, obstacles, scratch)

    report.update_norms.reverse()
    report.sweep_counts.reverse()
    report.obstacle_lower_violation.reverse()
    report.obstacle_upper_violation.reverse()
    traj = Trajectory(times=times, values=values, grid=ws.grid)
    return traj, report


def _solve(system: str, label: str, penalties: dict, spec, grid, tgrid, quad, config) -> tuple[Trajectory, SolverReport]:
    """``system`` solved on its own workspace behind its loop gate, with the checked
    ``penalties`` ``n`` and ``m`` (0 if absent) recorded in its report, labelled
    ``label``, whose ``wall_clock_s`` times the whole solve, workspace and gate included."""
    t_start = time.perf_counter()
    sides = _PROJECTED[system]
    ws = _Workspace(spec, grid, tgrid, quad, config or SchemeConfig())
    _gate_loops(spec, grid, tgrid, sides)
    traj, report = _solve_backward(ws, penalties.get("n", 0.0), penalties.get("m", 0.0), sides, label)
    if penalties:
        report.extra["penalties"] = penalties
    report.wall_clock_s = time.perf_counter() - t_start
    return traj, report


def solve_penalized(
    spec: ProblemSpec,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    quad: LevyQuadrature,
    n: float,
    m: float,
    config: SchemeConfig | None = None,
) -> tuple[Trajectory, SolverReport]:
    """Backward solve of the doubly penalized system from expiry to time 0."""
    n, m = check_penalty(n, "n"), check_penalty(m, "m")
    return _solve("penalized", f"penalized(n={n}, m={m})", {"n": n, "m": m}, spec, grid, tgrid, quad, config)


def solve_lower_reflected(
    spec: ProblemSpec,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    quad: LevyQuadrature,
    m: float,
    config: SchemeConfig | None = None,
) -> tuple[Trajectory, SolverReport]:
    """Lower obstacle by projection sweeps, upper obstacle penalized with ``m``."""
    m = check_penalty(m, "m")
    return _solve("lower", f"lower_reflected(m={m})", {"m": m}, spec, grid, tgrid, quad, config)


def solve_upper_reflected(
    spec: ProblemSpec,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    quad: LevyQuadrature,
    n: float,
    config: SchemeConfig | None = None,
) -> tuple[Trajectory, SolverReport]:
    """Upper obstacle by projection sweeps, lower obstacle penalized with ``n``."""
    n = check_penalty(n, "n")
    return _solve("upper", f"upper_reflected(n={n})", {"n": n}, spec, grid, tgrid, quad, config)


def _solve_bilateral(system: str, spec, grid, tgrid, quad, mode: str, config, schedule, gap_tol, raise_on_nonconvergence: bool):
    """Bilateral system ``"minmax"`` or ``"maxmin"``: direct mode projects both
    obstacles; limit mode runs the lower-reflected (min-max) or upper-reflected
    (max-min) solver along ``schedule``, and its report's ``wall_clock_s`` times
    the whole solve: the workspace, the gate and every schedule entry."""
    if mode not in ("direct", "limit"):
        raise ValueError(f"unknown mode '{mode}'")
    label = f"{system}({mode})"
    if mode == "direct":
        return _solve(system, label, {}, spec, grid, tgrid, quad, config)
    t_start = time.perf_counter()
    schedule = check_schedule(schedule)
    ws = _Workspace(spec, grid, tgrid, quad, config or SchemeConfig())
    _gate_loops(spec, grid, tgrid, _PROJECTED[system])
    gaps: list[float] = []
    used: list[float] = []
    prev: Trajectory | None = None
    converged = False
    reflected = solve_lower_reflected if system == "minmax" else solve_upper_reflected
    for p in schedule:
        try:
            ws.check_cfl(0.0, p)
        except CflViolationError:
            if prev is None:
                raise  # no schedule ran: the first penalty's violation is the error
            break
        traj, report = reflected(spec, grid, tgrid, quad, p, config)
        used.append(p)
        if prev is not None:
            gaps.append(traj.sup_distance(prev))
            tol = gap_tol if gap_tol is not None else 1e-6 * (1.0 + float(np.max(np.abs(traj.values))))
            converged = gaps[-1] < tol
        prev = traj
        if converged:
            break
    report.system = label
    report.schedule = used
    report.schedule_gaps = gaps
    report.converged = converged
    report.wall_clock_s = time.perf_counter() - t_start
    if not converged and raise_on_nonconvergence:
        raise ScheduleNonConvergenceError(gaps, trajectory=prev, report=report)
    return prev, report


def solve_minmax(
    spec: ProblemSpec,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    quad: LevyQuadrature,
    mode: str = "direct",
    config: SchemeConfig | None = None,
    schedule: Sequence[float] = DEFAULT_PENALTY_SCHEDULE,
    gap_tol: float | None = None,
    raise_on_nonconvergence: bool = True,
) -> tuple[Trajectory, SolverReport]:
    """Bilateral system with lower-obstacle priority.

    ``direct`` does backward induction with the projection
    ``v <- max(L[v], min(U[v], v_pde))`` swept to a fixed point each step;
    ``limit`` runs the lower-reflected solver along an increasing upper
    penalty schedule (see :func:`check_schedule`) until successive solutions
    agree (the schedule stops early if the next penalty would break the CFL
    guard; when the first one does, its ``CflViolationError`` is raised).
    """
    return _solve_bilateral("minmax", spec, grid, tgrid, quad, mode, config, schedule, gap_tol, raise_on_nonconvergence)


def solve_maxmin(
    spec: ProblemSpec,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    quad: LevyQuadrature,
    mode: str = "direct",
    config: SchemeConfig | None = None,
    schedule: Sequence[float] = DEFAULT_PENALTY_SCHEDULE,
    gap_tol: float | None = None,
    raise_on_nonconvergence: bool = True,
) -> tuple[Trajectory, SolverReport]:
    """Bilateral system with upper-obstacle priority.  ``direct`` equals
    :func:`solve_minmax`'s bitwise: behind the loop gate both have one fixed
    point (module docstring); ``limit`` runs the upper-reflected solver."""
    return _solve_bilateral("maxmin", spec, grid, tgrid, quad, mode, config, schedule, gap_tol, raise_on_nonconvergence)


# --- residuals ---------------------------------------------------------------


def residual_report(
    trajectory: Trajectory,
    spec: ProblemSpec,
    quad: LevyQuadrature,
    system: str,
    n: float = 0.0,
    m: float = 0.0,
    config: SchemeConfig | None = None,
) -> SolverReport:
    """Recompute the discrete equation residual at every interior level, on the trajectory's grids.

    ``system`` is ``"penalized"`` (penalties ``n`` and ``m``), ``"lower"``
    (penalty ``m``), ``"upper"`` (penalty ``n``), ``"minmax"`` or ``"maxmin"``;
    the step penalizes the obstacles the system does not project.  At a
    converged solution every fixed-point identity below holds exactly, so
    residuals of a fresh trajectory sit at rounding level:

    * penalized: ``v_k = step(v_{k+1})``
    * lower-reflected: ``v_k = max(L[v_k], step(v_{k+1}))``
    * upper-reflected: ``v_k = min(U[v_k], step(v_{k+1}))``
    * bilateral: ``v_k = max(L[v_k], min(U[v_k], step(v_{k+1})))``
    """
    if system not in _PROJECTED:
        raise ValueError(f"unknown system '{system}'")
    sides = _PROJECTED[system]
    n, m = _penalties(sides, check_penalty(n, "n"), check_penalty(m, "m"))
    tgrid = TimeGrid(float(trajectory.times[-1]), trajectory.n_levels - 1)
    ws = _Workspace(spec, trajectory.grid, tgrid, quad, config or SchemeConfig())
    report = SolverReport(system=f"residual({system})", dt=ws.dt, n_steps=tgrid.n_steps)
    per_pair = {f"{i},{j}": 0.0 for i, j in ws.pairs}
    obstacles = eval_obstacles(trajectory.values[-1], ws.obstacle_costs(float(trajectory.times[-1])))
    for k in range(tgrid.n_steps - 1, -1, -1):
        t_next = float(trajectory.times[k + 1])
        t_here = float(trajectory.times[k])
        candidate = ws.step(trajectory.values[k + 1], t_next, n, m, obstacles)
        obstacles = eval_obstacles(trajectory.values[k], ws.obstacle_costs(t_here))
        resid = np.abs(trajectory.values[k] - _project(candidate, *obstacles, sides))
        report.update_norms.append(float(np.max(resid)))
        for i, j in ws.pairs:
            per_pair[f"{i},{j}"] = max(per_pair[f"{i},{j}"], float(np.max(resid[i, j])))
    report.update_norms.reverse()
    terminal_resid = float(np.max(np.abs(trajectory.values[-1] - spec.terminal_table(ws.x))))
    report.residual_norms = {"per_pair_max": per_pair, "terminal": terminal_resid, "overall": max(per_pair.values(), default=0.0)}
    return report
