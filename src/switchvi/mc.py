"""Monte-Carlo cross-validation of the backward solvers.

Simulates the jump-diffusion with compensated per-atom Poisson jumps
(Euler-Maruyama) and estimates the doubly penalized backward system by
least-squares regression on polynomial bases, then compares the time-zero
estimate against the deterministic surface at the starting point.  The
estimate works on the ``(m1, m2, paths)`` stack of all mode pairs: the
pairs share each level's design, so one Householder QR of it and one
``lstsq`` on its triangle fit them all, and the obstacles and penalties act
on the whole stack.  Switching costs that read neither ``t`` nor ``x``, and
jump coefficients that do not read ``x``, are evaluated once per batch, not
once per level.  Jumps below the quadrature cutoff enter the paths as the
grid solver's small-jump diffusion ``0.5 s (d beta/de)(x, 0)^2 v''`` (see
:func:`simulate_paths`).

Supported problem class for the Monte-Carlo side: drivers that do not
depend on the gradient argument ``z`` (it is passed as zero).  Estimating
``z`` needs martingale-increment or Malliavin-weight regression and would
not materially strengthen the representation check.  The jump argument is
estimated from the fitted continuation function; the value-matrix coupling
is resolved with ``N_PICARD`` Picard passes per step.

A batch draws from two counter-based Philox streams keyed by the uint64
pairs ``(seed mod 2**64, 0)`` and ``(seed mod 2**64, 1)``: the first gives
the Brownian increments, the second the Poisson counts.  Each is read
sequentially in path-major order, so path ``p`` takes the same entries of
both streams whatever the batch size, and the batch is reproducible.  When
every intensity ``lam`` is in ``(0, 10)`` the counts come by inverse
transform, one uniform per draw, read block by block from one table of the
Poisson CDF; otherwise by one ``poisson`` call.  Regression assembly uses
fixed-order reductions.

The pass thresholds reported by the check combine the Monte-Carlo standard
error with a scheme-bias allowance; both are engineering defaults, not
certified error bounds, and the report says so.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import exprdsl
from .discretization import LevyQuadrature, TimeGrid, small_jump_variance
from .model import ProblemSpec, eval_obstacles, is_finite_number, is_integer, neg_part, pos_part
from .pde_solver import Trajectory, check_penalty

__all__ = [
    "PathBatch",
    "RegressionBasis",
    "BsdeEstimate",
    "CheckReport",
    "SingularRegressionError",
    "simulate_paths",
    "solve_bsde_regression",
    "feynman_kac_check",
]


N_PICARD = 2  # Picard passes over the value-matrix coupling per step
BIAS_ALLOWANCE = 0.05  # the Feynman-Kac check's relative scheme-bias allowance
_UNIFORM_BLOCK_BYTES = 2**20  # cap on the block of uniforms a batch's Poisson counts are read from


class SingularRegressionError(RuntimeError):
    def __init__(self, cond: float, step: int):
        self.cond = cond
        self.step = step
        super().__init__(f"regression design matrix is rank-deficient at step {step} (condition ~ {cond:.3e})")


@dataclass
class PathBatch:
    """Simulated trajectories of ``spec`` from ``x0``, with their noise and jump bookkeeping."""

    spec: ProblemSpec
    states: np.ndarray  # (P, n_steps+1)
    brownian: np.ndarray  # (P, n_steps)
    jump_counts: np.ndarray  # (P, n_steps, n_atoms)
    times: np.ndarray
    quadrature: LevyQuadrature
    seed: int
    x0: float

    @property
    def n_paths(self) -> int:
        return int(self.states.shape[0])

    @property
    def n_steps(self) -> int:
        return int(self.states.shape[1] - 1)


@dataclass(frozen=True)
class RegressionBasis:
    """Monomials 1, x, ..., x^degree."""

    degree: int = 3

    def __post_init__(self):
        if not is_integer(self.degree) or self.degree < 0:
            raise ValueError(f"basis degree must be a non-negative integer, got {self.degree!r}")

    def design(self, x: np.ndarray) -> np.ndarray:
        """The ``x.shape + (degree + 1,)`` powers, each column the previous
        one times ``x``: the products ``np.vander(x, increasing=True)`` accumulates."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape + (self.degree + 1,))
        out[..., 0] = 1.0
        for k in range(1, self.degree + 1):
            np.multiply(out[..., k - 1], x, out=out[..., k])
        return out


@dataclass
class BsdeEstimate:
    """The time-zero estimate per mode pair.  ``stderr`` is ``std(level-one values) / sqrt(P)``, the
    spread of the values averaged at time zero; it understates ``y0``'s Monte-Carlo error."""

    y0: np.ndarray  # (m1, m2)
    stderr: np.ndarray  # (m1, m2)
    n_paths: int
    n: float
    m: float
    x0: float  # the paths' start point

    def __post_init__(self):
        if np.any(self.stderr < 0):
            raise ValueError("standard errors must be non-negative")


def _reads(exprs, names: tuple) -> bool:
    """Whether any of the trees ``exprs`` reads one of ``names``."""
    return any(not exprdsl.free_variables(e).isdisjoint(names) for e in exprs)


def _poisson_cdf(lam: np.ndarray) -> np.ndarray:
    """``F[k, a] = P(N_a <= k)`` for Poisson ``N_a`` of mean ``lam[a]`` in ``(0, 10)``.

    The rows run from ``k = 0`` to the first row where every column is 1.0;
    64 rows cover ``lam < 10``, whose mass beyond 63 is below 1e-29, so row
    63 is 1.0.  The pmf ``exp(-lam) lam^k / k!`` is summed from the left
    while the sum is below 0.5 and from the right above it, as ``1 - P(N_a >
    k)``, so every entry lies within a few ulps of the exact sum and a column
    reaches 1.0 where its tail drops below half an ulp of 1.
    """
    pmf = np.exp(-lam) * lam ** np.arange(64.0)[:, None] / np.array([float(math.factorial(k)) for k in range(64)])[:, None]
    below = np.cumsum(pmf[:-1], axis=0)
    above = np.cumsum(pmf[:0:-1], axis=0)[::-1]  # P(N_a > k) for k < 63
    cdf = np.vstack([np.where(below < 0.5, below, 1.0 - above), np.ones(lam.size)])
    return cdf[: np.argmax((cdf == 1.0).all(axis=1)) + 1]


def simulate_paths(
    spec: ProblemSpec,
    quad: LevyQuadrature,
    x0: float,
    n_paths: int,
    tgrid: TimeGrid,
    seed: int,
) -> PathBatch:
    """Euler-Maruyama with compensated jumps.

    ``X_{k+1} = X_k + b dt + sigma dB + sum_jumps beta(X_k, e)
    - dt * sum_a w_a beta(X_k, e_a)``; jump counts are per-atom Poisson with
    intensity ``w_a dt`` (thinning keeps the mark law exactly the
    quadrature).  Jumps below the cutoff enter as the grid solver's
    small-jump diffusion: with ``s = quad.small_jump_second_moment > 0`` the
    Brownian coefficient is ``sqrt(sigma^2 + s (d beta/de)(X_k, 0)^2)``, the
    variance from :func:`~switchvi.discretization.small_jump_variance`.
    An amplitude ``beta`` that does not read ``x`` is tabulated once per
    batch, with the small-jump variance, otherwise both once per step at
    the paths' states.

    The normals are one ``standard_normal((n_paths, n_steps))`` call on
    Philox keyed by ``np.array([seed mod 2**64, 0], dtype=np.uint64)``, the
    counts read from the key ``[seed mod 2**64, 1]``, so any integer seed,
    negative or at least 2**63 included, has its own streams.  When every
    ``lam = w_a dt`` is in ``(0, 10)`` a count takes one uniform: blocks of
    at most ``_UNIFORM_BLOCK_BYTES`` (one row at least) hold a row of
    ``atoms`` uniforms per path and step, and a draw ``u`` of atom ``a``
    counts ``#(F[:, a] <= u)`` in the table ``F`` of :func:`_poisson_cdf`.
    Otherwise one ``poisson(lam, size=(n_paths, n_steps, atoms))`` call
    draws them.  Both streams are read in path-major order, so a path's
    draws do not depend on ``n_paths`` or the block size.
    """
    if not is_integer(n_paths) or n_paths < 1:
        raise ValueError(f"need an integer of at least one path, got {n_paths!r}")
    if not is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not is_finite_number(x0):
        raise ValueError(f"x0 must be a finite number, got {x0!r}")
    tgrid.check_horizon(spec.horizon)
    if not math.isfinite(quad.total_weight):
        raise ValueError("quadrature total weight must be finite")
    seed = int(seed) % 2**64  # counter-based keys are uint64
    n_steps = tgrid.n_steps
    dt = tgrid.dt
    n_atoms = quad.n_atoms

    lam = quad.weights * dt
    normals, draws = (np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64))) for i in (0, 1))
    dB = normals.standard_normal((n_paths, n_steps))
    dB *= math.sqrt(dt)
    counts = np.zeros((n_paths, n_steps, n_atoms), dtype=np.int64)
    if n_atoms and 0.0 < lam.min() and lam.max() < 10.0:
        cdf = _poisson_cdf(lam)
        flat = counts.reshape(-1)
        block = max(1, min(n_paths * n_steps, _UNIFORM_BLOCK_BYTES // (8 * n_atoms)))
        uniforms = np.empty((block, n_atoms))
        for lo in range(0, n_paths * n_steps, block):
            rows = uniforms[: n_paths * n_steps - lo]
            draws.random(out=rows)
            # a draw below F[0] = exp(-lam) counts 0; the rest count #(F[:, a] <= u)
            hit = np.flatnonzero(rows >= cdf[0])
            u, atom = rows.ravel()[hit], hit % n_atoms
            n = np.ones(hit.size, dtype=np.int64)
            for row_cdf in cdf[1:]:
                n += row_cdf[atom] <= u
            flat[lo * n_atoms + hit] = n
    elif n_atoms:
        counts = draws.poisson(lam, size=(n_paths, n_steps, n_atoms))

    def jump_terms(x):
        """``beta`` at the atoms and the small-jump variance (``None`` without small jumps) at ``x``."""
        variance = small_jump_variance(spec, quad, x) if quad.small_jump_second_moment > 0.0 else None
        return spec.beta_table(x, quad.marks), variance

    times = tgrid.times()
    states = np.empty((n_paths, n_steps + 1))
    states[:, 0] = x0
    fixed = None if _reads((spec.jump_amplitude,), ("x",)) else jump_terms(float(x0))
    for k in range(n_steps):
        t = float(times[k])
        xk = states[:, k]
        b = spec.eval_drift(t, xk)
        sig = spec.eval_vol(t, xk)
        beta, variance = jump_terms(xk) if fixed is None else fixed
        if variance is not None:
            sig = np.sqrt(sig**2 + variance)
        incr = xk + b * dt + sig * dB[:, k]
        for a in range(n_atoms):
            incr = incr + counts[:, k, a] * beta[a] - dt * float(quad.weights[a]) * beta[a]
        states[:, k + 1] = incr
    if not np.all(np.isfinite(states)):
        raise FloatingPointError("path simulation produced non-finite states")
    return PathBatch(
        spec=spec,
        states=states,
        brownian=dB,
        jump_counts=counts,
        times=times,
        quadrature=quad,
        seed=seed,
        x0=float(x0),
    )


def _fit(design: np.ndarray, targets: np.ndarray, step: int) -> np.ndarray:
    """One least-squares fit of every pair's ``targets`` ``(m1, m2, P)`` on ``design`` ``(P, basis)``.

    Returns the ``(m1*m2, basis)`` coefficients.  The design is reduced by
    one Householder QR, ``design = Q R``, and the ``(basis, basis)``
    triangle ``R`` solved against ``Q^T targets`` by one ``lstsq``, whose
    cutoff ``eps * max(P, basis)`` is the one ``lstsq`` of the whole design
    would take: ``R`` has the design's singular values, so the rank, and so
    the singularity check, depends on the design alone.
    """
    rhs = targets.reshape(-1, targets.shape[-1]).T
    q, r = np.linalg.qr(design)
    coeffs, _, rank, sv = np.linalg.lstsq(r, q.T @ rhs, rcond=np.finfo(float).eps * max(design.shape))
    if rank < design.shape[1]:
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        raise SingularRegressionError(cond, step)
    return coeffs.T


def solve_bsde_regression(
    batch: PathBatch,
    n: float,
    m: float,
    basis: RegressionBasis | None = None,
) -> BsdeEstimate:
    """Backward least-squares sweep for the doubly penalized system of ``batch.spec``.

    The values live in one ``(m1, m2, paths)`` stack.  Each step fits the
    whole next level on the basis at the current states with one
    least-squares solve, predicts the continuation at the current and
    jump-shifted states for the driver's jump argument, and resolves the
    value-matrix coupling with ``N_PICARD`` passes.  Switching costs that
    read neither ``t`` nor ``x`` are evaluated once per batch, at ``x0``,
    and so are ``beta`` and ``gamma`` when neither reads ``x``; otherwise
    each level evaluates them at its states.  Time zero is degenerate
    (all paths share ``x0``), so the conditional expectation is the plain
    mean and the continuation used for the jump argument is the smoothing
    fit of the level-one values on the level-one states.
    """
    n, m = check_penalty(n, "n"), check_penalty(m, "m")
    if batch.n_paths < 2:
        raise ValueError("need at least two paths for a regression estimate")
    basis = basis or RegressionBasis()
    spec = batch.spec
    quad = batch.quadrature
    m1, m2 = spec.modes.m1, spec.modes.m2
    P = batch.n_paths
    dt = float(batch.times[1] - batch.times[0])

    def predict(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """The fitted ``(m1, m2) + x.shape`` stack at the states ``x``."""
        return (coeffs @ basis.design(x).T).reshape((m1, m2) + x.shape)

    # the tables' tails broadcast against the paths: () costs, beta (atoms,), gamma (m1, m2, atoms, 1)
    fixed_costs = None
    if not _reads((*spec.lower_costs.values(), *spec.upper_costs.values()), ("t", "x")):
        fixed_costs = spec.obstacle_costs(float(batch.times[0]), batch.x0)
    fixed_jumps = None
    if not _reads((spec.jump_amplitude, *spec.jump_weights.values()), ("x",)):
        beta, gamma = spec.jump_tables(batch.x0, quad.marks)
        fixed_jumps = beta, gamma[..., None]

    def jump_argument(coeffs: np.ndarray, x: np.ndarray, fitted: np.ndarray) -> np.ndarray:
        """``sum_a w_a gamma_a (fit(x + beta_a) - fitted)``; one shifted prediction at a time."""
        beta, gamma = spec.jump_tables(x, quad.marks) if fixed_jumps is None else fixed_jumps
        q = np.zeros((m1, m2) + x.shape)
        for a in range(quad.n_atoms):
            q += float(quad.weights[a]) * gamma[:, :, a] * (predict(x + beta[a], coeffs) - fitted)
        return q

    def picard(cont: np.ndarray, q_hat: np.ndarray, t: float, xk: np.ndarray) -> np.ndarray:
        """cont, q_hat: (m1, m2, P) continuation and jump-argument stacks."""
        costs = spec.obstacle_costs(t, xk) if fixed_costs is None else fixed_costs
        drivers = spec.driver_evaluator(xk)
        y = cont
        for _ in range(N_PICARD):
            L, U = eval_obstacles(y, costs)
            g = drivers(t, y, 0.0, q_hat)
            y = cont + dt * (g + n * neg_part(y - L) - m * pos_part(y - U))
        return y

    Y = spec.terminal_table(batch.states[:, -1])
    for k in range(batch.n_steps - 1, 0, -1):
        xk = batch.states[:, k]
        design = basis.design(xk)
        coeffs = _fit(design, Y, k)
        cont = (coeffs @ design.T).reshape(m1, m2, P)
        del design  # before jump_argument's shifted designs
        Y = picard(cont, jump_argument(coeffs, xk, cont), float(batch.times[k]), xk)

    # time zero: Y now holds level one.  All paths share x0, so condition by
    # averaging; the jump argument reuses a smoothing fit of level-one values
    # on level-one states
    x0 = np.full(1, batch.x0)
    coeffs = _fit(basis.design(batch.states[:, 1]), Y, 0)
    cont0 = Y.mean(axis=2, keepdims=True)
    y0 = picard(cont0, jump_argument(coeffs, x0, predict(x0, coeffs)), float(batch.times[0]), x0)
    stderr = Y.std(axis=2, ddof=1) / math.sqrt(P)
    return BsdeEstimate(y0=y0[:, :, 0], stderr=stderr, n_paths=P, n=n, m=m, x0=batch.x0)


@dataclass
class CheckReport:
    """Feynman-Kac comparison between the grid solve and the path estimate."""

    records: list = field(default_factory=list)
    passed: bool = True
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def feynman_kac_check(trajectory: Trajectory, estimate: BsdeEstimate) -> CheckReport:
    """Compare ``v(0, x0)`` per mode pair against the regression estimate at its ``x0``.

    ``v(0, x0)`` is read off the grid as the solver reads off-grid values,
    so a start point outside the box takes the boundary node's value.
    Pass threshold per pair: ``4 * stderr + BIAS_ALLOWANCE * (1 + |v|)``.
    """
    from .discretization import interpolate

    report = CheckReport()
    report.notes.append(
        "threshold = 4*stderr + bias*(1+|v|); the bias allowance covers scheme and "
        "regression discretization error and is an engineering default, not a bound"
    )
    m1, m2 = estimate.y0.shape
    for i in range(m1):
        for j in range(m2):
            v = interpolate(trajectory.values[0, i, j], estimate.x0, trajectory.grid)
            diff = abs(v - float(estimate.y0[i, j]))
            thr = 4.0 * float(estimate.stderr[i, j]) + BIAS_ALLOWANCE * (1.0 + abs(v))
            ok = diff <= thr
            report.passed = report.passed and ok
            report.records.append(
                {
                    "pair": [i, j],
                    "pde_value": float(v),
                    "mc_value": float(estimate.y0[i, j]),
                    "stderr": float(estimate.stderr[i, j]),
                    "difference": diff,
                    "threshold": thr,
                    "passed": ok,
                }
            )
    return report
