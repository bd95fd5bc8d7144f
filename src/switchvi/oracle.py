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
the induction returns a :class:`~switchvi.pde_solver.Trajectory`; switching
costs that do not read t are tabulated once per induction.
Everything that turns the coefficients into a step is written independently
(no shared stepping code, no solver helper): the kernel assembly, the
compensator sum and the interpolation weights in explicit Python loops, the
reward's gradient as three slice differences and its jump sums as per-atom
gathers of each node's interpolation neighbours, built once per game from
those weights, and the projection sweeps, the package's only pair-ordered
ones (the solver projects the whole stack per pass).  So agreement between
the two is evidence, not tautology.
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
    gathers: tuple  # _gathers(destinations): the destinations as (lower, w_lower, upper, w_upper), each (atoms, N)
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


def _gathers(destinations: list, n_atoms: int) -> tuple:
    """Each atom's destination nodes and weights as ``(atoms, N)`` arrays
    ``(lower, w_lower, upper, w_upper)``; a clamped destination is its one
    node, below, with node 0 at weight 0 above."""
    n = len(destinations)
    lower, upper = np.zeros((n_atoms, n), dtype=np.intp), np.zeros((n_atoms, n), dtype=np.intp)
    w_lower, w_upper = np.zeros((n_atoms, n)), np.zeros((n_atoms, n))
    for i, dests in enumerate(destinations):
        for a, dest in enumerate(dests):
            lower[a, i], w_lower[a, i] = dest[0]
            if len(dest) == 2:
                upper[a, i], w_upper[a, i] = dest[1]
    return lower, w_lower, upper, w_upper


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
        terminal=spec.terminal_table(x), gamma=gamma, destinations=destinations,
        gathers=_gathers(destinations, quad.n_atoms), config=config,
    )


def _reward(game: DiscreteGame, values: np.ndarray, t: float) -> np.ndarray:
    """Running reward from the lagged level: the driver with its own
    gradient and jump sums (independent of the solver's vectorized versions).

    The gradient is central inside and one-sided at the two boundary nodes;
    the jump sum gathers, per atom, each node's two interpolation
    neighbours from ``game.gathers``.
    """
    spec = game.spec
    x = game.grid.axis()
    dx = game.grid.dx
    m1, m2 = spec.modes.m1, spec.modes.m2
    vol = spec.eval_vol(t, x)
    entries = {driver_variable(a, bb): values[a, bb] for a in range(m1) for bb in range(m2)}
    grad = np.empty_like(values)
    grad[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * dx)
    grad[..., 0] = (values[..., 1] - values[..., 0]) / dx
    grad[..., -1] = (values[..., -1] - values[..., -2]) / dx
    q = np.zeros_like(values)
    for a, (lo, w_lo, hi, w_hi, w_k) in enumerate(zip(*game.gathers, game.quad.weights.tolist())):
        dest = w_lo * values[..., lo] + w_hi * values[..., hi]
        q += w_k * game.gamma[:, :, a] * (dest - values)
    out = np.empty_like(values)
    for i in range(m1):
        for j in range(m2):
            out[i, j] = spec.eval_driver((i, j), t, x, entries, vol * grad[i, j], q[i, j])
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

    def cost_tables(t: float) -> tuple:
        return spec.lower_cost_table(t, x), spec.upper_cost_table(t, x)

    fixed_costs = None if spec.costs_read_t else cost_tables(float(times[0]))
    pairs = [(i, j) for i in range(m1) for j in range(m2)]
    for k in range(n_steps - 1, -1, -1):
        t_next = float(times[k + 1])
        t_here = float(times[k])
        nxt = values[k + 1]
        reward = _reward(game, nxt, t_next)
        cont = np.empty((m1, m2, n))
        for i, j in pairs:
            cont[i, j] = game.kernels[k] @ nxt[i, j] + dt * reward[i, j]

        lc, uc = fixed_costs or cost_tables(t_here)
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
