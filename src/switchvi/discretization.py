"""Grids, Lévy quadrature and discrete local / non-local operators.

The jump measure is approximated by finitely many atoms with mark ``|e| >=
cutoff``; mass below the cutoff is replaced by its second moment ``s_delta``
and re-enters the generator as a matched diffusion correction
``0.5 * s_delta * (d beta/d e)(x,0)^2 * v''(x)`` (``small_jump_variance``),
which keeps the small-jump part of the non-local integral bounded while
preserving its infinitesimal variance.

Stencil conventions.  Each has a single implementation here:
``gradient_surface``, ``upwind_drift`` and ``second_derivative_surface`` all
act along the last (node) axis, so one call covers every mode pair.  The
solver step calls ``gradient_surface`` for drivers that read ``z``; the other
two it does not call at every step: the solver reads them into three weights
per node once per step time, by applying them to three interleaved
indicator vectors (``pde_solver._Workspace.local_weights``).  The
dynamic-programming cross-check keeps its own independent copy.

* first derivative surfaces (``gradient_surface``): central differences
  inside, one-sided first-order at the two boundary nodes;
* drift term (``upwind_drift``): upwind in the sign of ``b``; when the
  upwind neighbour falls outside the grid the directional difference is zero
  (ghost node clamped to the boundary value, consistent with clamp
  extrapolation);
* second derivative (``second_derivative_surface``): central inside, clamped
  ghost at the boundary (so the boundary row reduces to a one-sided single
  difference).

Off-grid evaluation is linear inside the box and clamps to the boundary
value beyond it, so every off-grid value is a convex combination of node
values and the step stays monotone and commutes with constants.  All of
this lives in one place, the destination table: ``destination_table``
clips a set of query points of any shape to the box, snaps them and
locates each in a cell once, as a left node ``lo`` and a weight ``theta``
of its right node; ``DestinationTable.apply`` evaluates a surface there as
``(1 - theta) v[lo] + theta v[lo + 1]``.  A clipped query sits on a cell end
with weight 1, so the clamp needs no branch of its own.

The compensator convention.  The non-local term ``sum_k w_k [v(x+beta_k) -
v(x) - beta_k Dv(x)]`` splits into the redistribution ``sum_k w_k
[v(x+beta_k) - v(x)]`` and the first-order part ``-(sum_k w_k beta_k) Dv``.
The first-order part is drift: the solver and the oracle subtract ``sum_k w_k
beta_k`` from ``b`` before the upwind split, so it is upwinded with the drift
and counted once in the stability bound (Cont & Voltchkova, SIAM J. Numer.
Anal. 43(4), 2005; d'Halluin, Forsyth & Vetzal, IMA J. Numer. Anal. 25,
2005).  With non-negative interpolation weights, every off-diagonal weight
of the step's linear part is then non-negative by construction.

The jump sums, the redistribution and the driver's jump argument
``sum_k w_k gamma_k [v(x+beta_k) - v(x)]``, are linear in ``v`` and do not
depend on ``t``, so ``jump_operator`` assembles them once per workspace as
dense ``nodes x nodes`` matrices, with ``P_k`` the interpolation at ``x +
beta(x, e_k)``: the generator ``sum_k w_k (P_k - I)`` and one driver matrix
``sum_k w_k gamma_k (P_k - I)`` per distinct gamma table (pairs with
bitwise-equal tables share one), stacked, transposed, side by side in one
array.  ``JumpOperator.apply`` runs them all on a whole ``(m1, m2, nodes)``
stack with one matrix product and reads each pair's driver sum off its own
table's block.  Each
destination adds its two cell ends ``(lo, 1 - theta)`` and ``(lo + 1,
theta)`` of the destination table to its row, the clamped ones included.
Dense storage costs ``(1 + distinct gamma tables) x nodes^2`` doubles.  The
dynamic-programming cross-check re-implements the interpolation and the
sums on purpose: it is the independent check, not a copy.

Grids and quadratures are immutable; operator evaluations at distinct nodes
are independent, and per-node sums run over atoms in fixed order, so results
do not depend on any parallel schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprdsl import evaluate
from .model import LevyMeasureSpec, MalformedSpecError, ProblemSpec, is_finite_number, is_integer

__all__ = [
    "SpatialGrid",
    "TimeGrid",
    "LevyQuadrature",
    "build_levy_quadrature",
    "check_atom_count",
    "NonIntegrableDensityError",
    "interpolate",
    "DestinationTable",
    "destination_table",
    "JumpOperator",
    "jump_operator",
    "gradient_surface",
    "second_derivative_surface",
    "upwind_drift",
    "small_jump_variance",
]

ATOM_WEIGHT_FLOOR = 1e-14
_NODE_SNAP = 1e-9  # relative tolerance for snapping a query onto a grid node
BETA_SLOPE_STEP = 1e-6  # mark step of small_jump_variance's central difference


class NonIntegrableDensityError(ValueError):
    """The quadrature of a jump density produced a divergent moment sum."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid of ``n_nodes`` nodes on the interval ``[x_min, x_max]``."""

    x_min: float
    x_max: float
    n_nodes: int

    def __post_init__(self):
        if not is_integer(self.n_nodes) or self.n_nodes < 3:
            raise MalformedSpecError(f"need an integer of at least 3 nodes, got {self.n_nodes!r}")
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
        if not (is_finite_number(self.x_min) and is_finite_number(self.x_max) and math.isfinite(self.x_max - self.x_min)):
            raise MalformedSpecError(f"spatial grid bounds [{self.x_min!r}, {self.x_max!r}] must be finite numbers, with a finite width")
        object.__setattr__(self, "x_min", float(self.x_min))
        object.__setattr__(self, "x_max", float(self.x_max))
        if not self.x_max > self.x_min:
            raise MalformedSpecError(f"empty spatial box [{self.x_min}, {self.x_max}]")

    @staticmethod
    def line(x_min: float, x_max: float, n_nodes: int) -> "SpatialGrid":
        return SpatialGrid(x_min, x_max, n_nodes)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_nodes - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_nodes)


@dataclass(frozen=True)
class TimeGrid:
    horizon: float
    n_steps: int

    def __post_init__(self):
        if not is_integer(self.n_steps) or self.n_steps < 1:
            raise MalformedSpecError(f"need an integer of at least 1 time step, got {self.n_steps!r}")
        object.__setattr__(self, "n_steps", int(self.n_steps))
        if not (is_finite_number(self.horizon) and self.horizon > 0):
            raise MalformedSpecError(f"time horizon must be a finite number > 0, got {self.horizon!r}")
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def check_horizon(self, horizon: float) -> None:
        """ValueError unless the grid ends at ``horizon``, its problem's horizon."""
        if self.horizon != horizon:
            raise ValueError(f"time grid horizon {self.horizon} is not the problem's horizon {horizon}")


@dataclass(frozen=True)
class LevyQuadrature:
    """Finite-atom jump measure with a small-jump diffusion surrogate."""

    marks: np.ndarray
    weights: np.ndarray
    cutoff: float = 0.0
    small_jump_second_moment: float = 0.0

    def __post_init__(self):
        marks = np.asarray(self.marks, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "weights", weights)
        if marks.shape != weights.shape:
            raise MalformedSpecError("marks and weights must align")
        if marks.size and np.min(np.abs(marks)) < self.cutoff - 1e-15:
            raise MalformedSpecError("quadrature atoms must satisfy |e| >= cutoff")
        if np.any(weights <= 0):
            raise MalformedSpecError("quadrature weights must be positive")
        moment = float(np.sum(weights * np.minimum(1.0, marks**2))) if marks.size else 0.0
        if not math.isfinite(moment) or not math.isfinite(self.small_jump_second_moment):
            raise NonIntegrableDensityError("quadrature moment sum is not finite")
        if self.small_jump_second_moment < 0:
            raise MalformedSpecError("the small-jump second moment must be non-negative")

    @property
    def n_atoms(self) -> int:
        return int(self.marks.size)

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def check_atom_count(n_atoms) -> int:
    """``n_atoms`` as an int if it is an even integer >= 2, the atom counts of
    a density quadrature (half of its cells on each side of zero); ValueError
    otherwise."""
    if is_integer(n_atoms) and n_atoms >= 2 and n_atoms % 2 == 0:
        return int(n_atoms)
    raise ValueError(f"n_atoms must be an even integer >= 2, got {n_atoms!r}")


def build_levy_quadrature(
    measure: LevyMeasureSpec,
    n_atoms: int = 64,
    radius: float | None = None,
) -> LevyQuadrature:
    """Turn a jump-measure description into a finite quadrature.

    Atom lists pass through; atoms with ``|e| < cutoff`` are folded into the
    small-jump second moment.  A density is integrated by the midpoint rule
    on ``cutoff <= |e| <= radius`` (two-sided, ``n_atoms // 2`` cells per
    side; see :func:`check_atom_count`) and its small-jump part by a fixed
    fine midpoint rule on ``|e| < cutoff``; a density that is negative on
    any cell of either rule is rejected.
    Atoms with weight below 1e-14 are dropped; a ``radius`` that is not a
    finite number (a boolean or a string either), or for a density is not
    above the cutoff, raises ValueError.
    """
    delta = measure.cutoff
    if radius is not None and not (is_finite_number(radius) and (measure.density is None or radius > delta)):
        raise ValueError(f"radius must be a finite number, above the cutoff {delta} for a density, got {radius!r}")
    if measure.atoms is not None:
        marks, weights = [], []
        s_small = 0.0
        for e, w in measure.atoms:
            if w < ATOM_WEIGHT_FLOOR:
                continue
            if abs(e) >= delta:
                marks.append(e)
                weights.append(w)
            else:
                s_small += w * e * e
        return LevyQuadrature(
            marks=np.asarray(marks, dtype=float),
            weights=np.asarray(weights, dtype=float),
            cutoff=delta,
            small_jump_second_moment=s_small,
        )

    R = float(radius if radius is not None else measure.radius)
    n_half = check_atom_count(n_atoms) // 2

    def midpoint(lo: float, hi: float, n_cells: int):
        """Cell centers of ``[lo, hi]``, the density there and the cell width."""
        edges = np.linspace(lo, hi, n_cells + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        dens = np.asarray(evaluate(measure.density, {"e": centers}), dtype=float)
        dens = np.broadcast_to(dens, centers.shape)
        if np.any(dens < 0):
            raise NonIntegrableDensityError(f"jump density is negative on the quadrature cells of [{lo}, {hi}]")
        return centers, dens, edges[1] - edges[0]

    sides = [midpoint(lo, hi, n_half) for lo, hi in ((-R, -delta), (delta, R))]
    marks = np.concatenate([c for c, _, _ in sides])
    weights = np.concatenate([dens * de for _, dens, de in sides])
    keep = weights >= ATOM_WEIGHT_FLOOR
    marks, weights = marks[keep], weights[keep]
    if not np.all(np.isfinite(weights)) or not math.isfinite(float(np.sum(weights * np.minimum(1.0, marks**2)))):
        raise NonIntegrableDensityError("density quadrature diverges")

    # small-jump second moment on |e| < cutoff, midpoint with 512 cells per side
    s_small = 0.0
    for lo, hi in ((-delta, 0.0), (0.0, delta)):
        centers, dens, de = midpoint(lo, hi, 512)
        s_small += float(np.sum(dens * centers**2 * de))
    if not math.isfinite(s_small):
        raise NonIntegrableDensityError("small-jump second moment diverges")
    return LevyQuadrature(marks=marks, weights=weights, cutoff=delta, small_jump_second_moment=s_small)


# --- off-grid evaluation ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class DestinationTable:
    """Off-grid evaluation at fixed query points, built once by :func:`destination_table`.

    ``lo`` (the left node of each query's cell) and ``theta`` (the weight of
    its right node) have the shape of the queries.
    """

    lo: np.ndarray
    theta: np.ndarray

    def apply(self, surface: np.ndarray) -> np.ndarray:
        """Values of a node-value surface at the query points; a stack of
        surfaces along the last axis gives the stack's leading axes first."""
        return (1.0 - self.theta) * surface[..., self.lo] + self.theta * surface[..., self.lo + 1]


def destination_table(grid: SpatialGrid, xq: np.ndarray) -> DestinationTable:
    """Interpolation data for query points of any shape, e.g. ``(atoms, nodes)``.

    Queries clip to the box and snap onto a node within a 1e-9 relative
    tolerance, so a query beyond the box (``±inf`` included) lands on ``theta
    = 0`` at node 0 or on ``theta = 1`` at node ``n - 2``: the boundary
    node's value, with no separate branch.  A NaN query raises ValueError.
    """
    n = grid.n_nodes
    xq = np.asarray(xq, dtype=float)
    if np.isnan(xq).any():
        raise ValueError("off-grid query points must not be NaN")
    pos = (np.clip(xq, grid.x_min, grid.x_max) - grid.x_min) / grid.dx
    snapped = np.rint(pos)
    pos = np.where(np.abs(pos - snapped) < _NODE_SNAP, snapped, pos)
    lo = np.minimum(np.floor(pos), n - 2).astype(int)
    return DestinationTable(lo, pos - lo)


def interpolate(surface: np.ndarray, x_query: float, grid: SpatialGrid) -> float:
    """Value of a node-value surface at an arbitrary point.

    Linear between nodes (exact on nodes, queries snap onto nodes within a
    1e-9 relative tolerance), the boundary node's value outside.
    """
    xq = np.atleast_1d(np.asarray(x_query, dtype=float))
    return float(destination_table(grid, xq).apply(np.asarray(surface, dtype=float))[0])


# --- derivative surfaces ---------------------------------------------------


def gradient_surface(surface: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Central differences ``(v[k+1] - v[k-1]) / (2 dx)`` along the last
    (node) axis, one-sided first order at the two ends: bitwise
    ``np.gradient(surface, grid.dx, axis=-1)``, without its generic set-up."""
    out = np.empty_like(surface)
    out[..., 1:-1] = (surface[..., 2:] - surface[..., :-2]) / (2.0 * grid.dx)
    out[..., 0] = (surface[..., 1] - surface[..., 0]) / grid.dx
    out[..., -1] = (surface[..., -1] - surface[..., -2]) / grid.dx
    return out


def upwind_drift(surface: np.ndarray, grid: SpatialGrid, b_plus: np.ndarray, b_minus: np.ndarray) -> np.ndarray:
    """Upwinded drift term ``b^+ D^+ v + b^- D^- v`` along the last (node) axis.

    ``b_plus = max(b, 0)`` multiplies the forward and ``b_minus = min(b, 0)``
    the backward difference.  The outward difference at each boundary node
    is zero (clamped ghost node).
    """
    diff = (surface[..., 1:] - surface[..., :-1]) / grid.dx
    fwd = np.zeros_like(surface)
    bwd = np.zeros_like(surface)
    fwd[..., :-1] = diff
    bwd[..., 1:] = diff
    return b_plus * fwd + b_minus * bwd


def second_derivative_surface(surface: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Central second difference along the last (node) axis, with clamped
    ghost nodes at the boundary."""
    dx2 = grid.dx**2
    out = np.empty_like(surface)
    out[..., 1:-1] = (surface[..., 2:] - 2.0 * surface[..., 1:-1] + surface[..., :-2]) / dx2
    out[..., 0] = (surface[..., 1] - surface[..., 0]) / dx2
    out[..., -1] = (surface[..., -2] - surface[..., -1]) / dx2
    return out


# --- non-local operators ----------------------------------------------------


def small_jump_variance(spec: ProblemSpec, quad: LevyQuadrature, x: np.ndarray) -> np.ndarray:
    """The small-jump diffusion's variance rate ``s (d beta/d e)(x, 0)^2``, ``s =
    quad.small_jump_second_moment``, by a central difference of step ``BETA_SLOPE_STEP``
    in one :meth:`ProblemSpec.beta_table`; zeros, with no evaluation, when ``s = 0``."""
    if quad.small_jump_second_moment == 0.0:
        return np.zeros(np.shape(x))
    h = BETA_SLOPE_STEP
    beta = spec.beta_table(x, (h, -h))
    return quad.small_jump_second_moment * ((beta[0] - beta[1]) / (2.0 * h)) ** 2


@dataclass(frozen=True, eq=False)
class JumpOperator:
    """The jump sums of one workspace as one stacked matrix, built once by :func:`jump_operator`.

    ``stacked`` is the C-contiguous ``(nodes, (1 + tables) nodes)`` matrix
    ``[generator | drivers[0] | drivers[1] | ...]^T``: the generator ``sum_k
    w_k (P_k - I)`` and, for the ``d``-th distinct gamma table, ``sum_k w_k
    gamma_k (P_k - I)``, each transposed in a column block of its own;
    ``generator`` and ``drivers`` are views of it.  ``driver_index[i, j]``
    is the table of pair ``(i, j)``.  ``P_k`` interpolates at ``x + beta(x,
    e_k)`` and clamps outside the box.  The compensator ``sum_k w_k beta_k``
    is not here: it is upwinded with the drift (see the module docstring).
    """

    stacked: np.ndarray
    driver_index: np.ndarray

    @property
    def generator(self) -> np.ndarray:
        n = self.stacked.shape[0]
        return self.stacked[:, :n].T

    @property
    def drivers(self) -> np.ndarray:
        n = self.stacked.shape[0]
        return self.stacked.reshape(n, -1, n)[:, 1:].transpose(1, 2, 0)

    def apply(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both jump sums of an ``(m1, m2, nodes)`` stack, by one matrix product.

        Returns the redistribution ``sum_k w_k [v(x+beta_k) - v]`` and the
        drivers' jump argument, each of the stack's shape; each pair's
        argument is read off its own table's block.  Neither the compensator
        nor the small-jump surrogate is included: they enter as drift and as
        diffusion.
        """
        flat = values.reshape(-1, values.shape[-1])
        sums = (flat @ self.stacked).reshape(len(flat), -1, flat.shape[-1])
        q = sums[np.arange(len(flat)), 1 + self.driver_index.reshape(-1)]
        return sums[:, 0].reshape(values.shape), q.reshape(values.shape)


def jump_operator(
    grid: SpatialGrid,
    quad: LevyQuadrature,
    beta: np.ndarray,
    gamma: np.ndarray,
) -> JumpOperator:
    """Assemble the jump sums over ``quad``'s atoms as one stacked matrix.

    ``beta`` is the ``(atoms, nodes)`` table of ``beta(x, e_k)`` and
    ``gamma`` the ``(m1, m2, atoms, nodes)`` table of ``gamma_ij(x, e_k)``.
    Pairs whose gamma tables are bitwise equal share one driver matrix.
    """
    n = grid.n_nodes
    w = quad.weights[:, None]
    table = destination_table(grid, grid.axis() + beta)

    m1, m2 = gamma.shape[:2]
    pair_tables = gamma.reshape(m1 * m2, *beta.shape)
    ids: dict[bytes, int] = {}
    index = np.array([ids.setdefault(g.tobytes(), len(ids)) for g in pair_tables])
    tables = pair_tables[np.unique(index, return_index=True)[1]]

    # entry (row, col) of the d-th matrix sits at stacked[col, d * n + row]; the
    # two cell ends of every (atom, row) destination, stacked on a leading axis
    width = (1 + len(tables)) * n
    row = np.arange(n)
    flat = np.stack([table.lo * width + row, (table.lo + 1) * width + row]).ravel()
    diagonal = row * (width + 1)
    ent_w = w * np.stack([1.0 - table.theta, table.theta])

    stacked = np.zeros((n, width))
    entries = stacked.reshape(-1)
    np.add.at(entries, flat, ent_w.ravel())
    entries[diagonal] -= np.sum(quad.weights)
    for d, g in enumerate(tables, start=1):
        np.add.at(entries, flat + d * n, (ent_w * g).ravel())
        entries[diagonal + d * n] -= np.sum(w * g, axis=0)
    return JumpOperator(stacked, index.reshape(m1, m2))
