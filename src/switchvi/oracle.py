"""Brute-force cross-check: the explicit scheme as a discrete-state game.

The explicit monotone step is, node by node, a convex combination of the
previous level plus a running reward.  This module rebuilds that object
literally: a dense per-step transition matrix over grid nodes (diffusion,
upwind drift, jump redistribution and small-jump surrogate weights, all
normalized by dt) and a plain dynamic-programming recursion
with the bilateral projection applied at each level.  Transition rows must
be probability vectors; a negative entry is exactly a CFL violation and
aborts the build.  The jump compensator ``-sum_k w_k beta_k Dv`` is a
first-order term, so it is in the drift, upwinded with it, not in the jump
part of the kernel.

What is shared with the finite-difference solver is only the coefficient
values and the result container: the beta, gamma and terminal tables and
the small-jump variance come from :meth:`ProblemSpec.jump_tables`,
:meth:`ProblemSpec.terminal_table` and
:func:`~switchvi.discretization.small_jump_variance`, built once per game;
drift, volatility and the drivers are evaluated over the node vector, and
the induction returns a :class:`~switchvi.pde_solver.Trajectory`.
Everything that turns the coefficients into a step is written independently
(explicit Python loops, no shared stepping code): the kernel assembly, the
compensator sum, the interpolation weights, the gradient and jump-sum loops
and the projection sweeps, the package's only pair-ordered ones (the solver
projects the whole stack per pass).  So agreement between the two is
evidence, not tautology.
Deliberately naive and single-threaded; meant for small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretization import LevyQuadrature, SpatialGrid, TimeGrid, small_jump_variance
from .model import CapacityError, ProblemSpec, driver_variable
from .pde_solver import CflViolationError, SchemeConfig, SweepNonConvergenceError, Trajectory

__all__ = ["DiscreteGame", "build_discrete_game", "backward_induction"]

MAX_KERNEL_BYTES = 2**28  # the dense per-step transition kernels, 8 * n_steps * nodes**2 bytes


@dataclass
class DiscreteGame:
    """Explicit transition tables plus the data needed to roll rewards."""

    spec: ProblemSpec
    grid: SpatialGrid
    tgrid: TimeGrid
    quad: LevyQuadrature
    kernels: np.ndarray  # (n_steps, N, N); kernels[k] maps level k+1 to level k
    terminal: np.ndarray  # (m1, m2, N)
    gamma: np.ndarray  # (m1, m2, atoms, N)
    destinations: list  # [node][atom]: _interp_weights of x_node + beta(x_node, e_atom)
    config: SchemeConfig = field(default_factory=SchemeConfig)


def _interp_weights(grid: SpatialGrid, xq: float) -> list[tuple[int, float]]:
    """Linear interpolation weights of one query point, clamped outside."""
    x0, x1 = grid.x_min, grid.x_max
    n = grid.n_nodes
    dx = grid.dx
    if xq < x0:
        return [(0, 1.0)]
    if xq > x1:
        return [(n - 1, 1.0)]
    pos = (xq - x0) / dx
    snapped = round(pos)
    if abs(pos - snapped) < 1e-9:
        pos = float(snapped)
    lo = int(min(max(np.floor(pos), 0), n - 2))
    theta = pos - lo
    return [(lo, 1.0 - theta), (lo + 1, theta)]


def build_discrete_game(
    spec: ProblemSpec,
    grid: SpatialGrid,
    tgrid: TimeGrid,
    quad: LevyQuadrature,
    config: SchemeConfig | None = None,
    stencil_perturbation: tuple[int, int, int, float] | None = None,
) -> DiscreteGame:
    """Assemble per-step transition matrices for the explicit scheme.

    ``stencil_perturbation = (step, row, col, amount)`` is a test hook that
    deliberately corrupts one kernel weight; cross-checks against the solver
    must then fail (negative control).  Kernels that would take more than
    ``MAX_KERNEL_BYTES`` raise :class:`~switchvi.model.CapacityError` before
    anything is allocated.
    """
    config = config or SchemeConfig()
    if config.mode != "explicit":
        raise ValueError("the discrete game mirrors the explicit scheme only")
    tgrid.check_horizon(spec.horizon)
    n = grid.n_nodes
    kernel_bytes = 8 * tgrid.n_steps * n * n
    if kernel_bytes > MAX_KERNEL_BYTES:
        raise CapacityError(f"the oracle's transition kernels would take {kernel_bytes} bytes, over its cap of {MAX_KERNEL_BYTES}")
    x = grid.axis()
    dx = grid.dx
    dt = tgrid.dt
    times = tgrid.times()
    beta, gamma = spec.jump_tables(x, quad.marks)
    small = 0.5 * small_jump_variance(spec, quad, x)

    # the jump destinations x_i + beta(x_i, e_k) do not depend on t
    destinations = [
        [_interp_weights(grid, xi + beta_k) for beta_k in betas] for xi, betas in zip(x.tolist(), beta.T.tolist())
    ]
    kernels = np.zeros((tgrid.n_steps, n, n))
    for k in range(tgrid.n_steps):
        t = float(times[k + 1])
        drift = spec.eval_drift(t, x)
        vol = spec.eval_vol(t, x)
        P = kernels[k]
        for i in range(n):
            P[i, i] += 1.0
            betas = beta[:, i].tolist()
            b = float(drift[i]) - sum(float(w_k) * beta_k for w_k, beta_k in zip(quad.weights, betas))
            sig = float(vol[i])
            a = 0.5 * sig * sig + float(small[i])
            # diffusion, clamped ghost at the boundary
            if i + 1 < n:
                w = dt * a / dx**2
                P[i, i + 1] += w
                P[i, i] -= w
            if i - 1 >= 0:
                w = dt * a / dx**2
                P[i, i - 1] += w
                P[i, i] -= w
            # upwind drift, compensator included; outward difference vanishes at the boundary
            if b > 0.0 and i + 1 < n:
                w = dt * b / dx
                P[i, i + 1] += w
                P[i, i] -= w
            elif b < 0.0 and i - 1 >= 0:
                w = dt * (-b) / dx
                P[i, i - 1] += w
                P[i, i] -= w
            # jumps: redistribute to the destination, subtract the mass
            for dest, w_k in zip(destinations[i], quad.weights):
                for idx, wgt in dest:
                    P[i, idx] += dt * w_k * wgt
                P[i, i] -= dt * w_k

    if stencil_perturbation is not None:
        k, r, cc, amount = stencil_perturbation
        kernels[k, r, cc] += amount

    min_weight = float(np.min(kernels))
    if min_weight < -1e-12:
        bad = np.argwhere(kernels < -1e-12)[0]
        raise CflViolationError(
            f"transition weight {min_weight:.3e} at step {bad[0]}, node {bad[1]} -> {bad[2]} "
            f"is negative; the explicit scheme is not monotone at this resolution"
        )

    return DiscreteGame(
        spec=spec, grid=grid, tgrid=tgrid, quad=quad, kernels=kernels,
        terminal=spec.terminal_table(x), gamma=gamma, destinations=destinations, config=config,
    )


def _reward(game: DiscreteGame, values: np.ndarray, t: float) -> np.ndarray:
    """Running reward from the lagged level: the driver with its own gradient
    and jump-sum loops (independent of the solver's vectorized versions)."""
    spec = game.spec
    grid = game.grid
    x = grid.axis()
    n = grid.n_nodes
    dx = grid.dx
    m1, m2 = spec.modes.m1, spec.modes.m2
    vol = spec.eval_vol(t, x)
    entries = {driver_variable(a, bb): values[a, bb] for a in range(m1) for bb in range(m2)}
    weights = game.quad.weights.tolist()
    out = np.empty_like(values)
    for i in range(m1):
        for j in range(m2):
            s = values[i, j]
            gamma_rows = game.gamma[i, j].T.tolist()
            grad = np.empty(n)
            q = np.empty(n)
            for p in range(n):
                if p == 0:
                    grad[p] = (s[1] - s[0]) / dx
                elif p == n - 1:
                    grad[p] = (s[n - 1] - s[n - 2]) / dx
                else:
                    grad[p] = (s[p + 1] - s[p - 1]) / (2.0 * dx)
            for p in range(n):
                q_p = 0.0
                for w_k, dest, gamma_k in zip(weights, game.destinations[p], gamma_rows[p]):
                    dest_val = 0.0
                    for idx, wgt in dest:
                        dest_val += wgt * s[idx]
                    q_p += w_k * gamma_k * (dest_val - s[p])
                q[p] = q_p
            out[i, j] = spec.eval_driver((i, j), t, x, entries, vol * grad, q)
    return out


def backward_induction(game: DiscreteGame, order: str = "minmax") -> Trajectory:
    """Exact dynamic programming over the discrete game.

    At each level: continuation = kernel @ next + dt * reward(next), then the
    bilateral projection (priority given by ``order``) iterated to its fixed
    point by Gauss-Seidel pair visits, the only pair-ordered sweep in the
    package; the solver reaches that fixed point by whole-stack passes.  A
    level whose ``max_sweeps`` passes all change an entry raises
    :class:`~switchvi.pde_solver.SweepNonConvergenceError`, as the solver does.
    """
    if order not in ("minmax", "maxmin"):
        raise ValueError(f"unknown order '{order}'")
    spec = game.spec
    grid = game.grid
    x = grid.axis()
    n = grid.n_nodes
    m1, m2 = spec.modes.m1, spec.modes.m2
    times = game.tgrid.times()
    n_steps = game.tgrid.n_steps
    dt = game.tgrid.dt
    values = np.empty((n_steps + 1, m1, m2, n))
    values[-1] = game.terminal.copy()

    pairs = [(i, j) for i in range(m1) for j in range(m2)]
    for k in range(n_steps - 1, -1, -1):
        t_next = float(times[k + 1])
        t_here = float(times[k])
        nxt = values[k + 1]
        reward = _reward(game, nxt, t_next)
        cont = np.empty((m1, m2, n))
        for i, j in pairs:
            cont[i, j] = game.kernels[k] @ nxt[i, j] + dt * reward[i, j]

        lc = spec.lower_cost_table(t_here, x)
        uc = spec.upper_cost_table(t_here, x)
        cur = cont.copy()
        for sweep in range(game.config.max_sweeps):
            worst = 0.0
            ordered = pairs if sweep % 2 == 0 else list(reversed(pairs))
            for i, j in ordered:
                L = np.full(n, -np.inf)
                U = np.full(n, np.inf)
                if m1 > 1:
                    L = np.max(np.stack([cur[p, j] - lc[i, p] for p in range(m1) if p != i]), axis=0)
                if m2 > 1:
                    U = np.min(np.stack([cur[i, l] + uc[j, l] for l in range(m2) if l != j]), axis=0)
                if order == "minmax":
                    new = np.maximum(L, np.minimum(U, cont[i, j]))
                else:
                    new = np.minimum(U, np.maximum(L, cont[i, j]))
                worst = max(worst, float(np.max(np.abs(new - cur[i, j]))))
                cur[i, j] = new
            if worst == 0.0:
                break
        else:
            raise SweepNonConvergenceError(worst, game.config.max_sweeps)
        values[k] = cur

    return Trajectory(times=times, values=values, grid=grid)
