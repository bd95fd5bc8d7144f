"""Manufactured solutions: the grid against a known smooth solution.

The oracle runs the same discrete scheme, so its agreement shows that the
code is the scheme, not that the scheme converges.  Here the exact solution
``u(t, x) = exp(-t) exp(-x^2)`` is put into the drivers as a source, and the
sup error at t = 0 over [-2, 2] is measured on three grids.  The jumps are
the shipped two atoms (marks +-0.5, weight 0.4 each, beta = 0.8 e, gamma =
0.5 min(|e|, 1)), so the off-grid reads ``u(x + beta)`` that the destination
table evaluates carry the whole non-local term.

With drift ``a x``, vol ``s``, two jumps of size +-0.4 and rate 0.4 (their
compensator sums to 0) and driver ``f - 0.2 y + 0.3 q``, the source is

    f = u (1.2 + 2 a x^2 - s^2 (2 x^2 - 1)) - 0.4 (1 + 0.3 * 0.25) D,
    D = e^{-t} (e^{-(x + 0.4)^2} + e^{-(x - 0.4)^2} - 2 e^{-x^2}).

In the 2x1 game pair (1, 0) is ``u - 0.3``, one lower switching cost
below pair (0, 0), and its source is 1.0 below the exact one, so its
continuation sits under the lower obstacle and the projection puts it
there at every node and level.
"""

import numpy as np
import pytest

from switchvi.discretization import SpatialGrid, TimeGrid, build_levy_quadrature
from switchvi.model import ProblemSpec
from switchvi.pde_solver import SchemeConfig, solve_minmax, solve_penalized

from conftest import make_spec

HORIZON = 0.5
DRIFT, VOL = 0.1, 0.25
NODES = (101, 201, 401)
ORDER_BAND = (0.9, 1.1)  # observed 0.95 to 0.98
FINEST_ERROR = 7e-4  # sup error at 401 nodes, observed 6.2e-4 (IMEX) and 5.7e-4 (explicit)
COST = 0.3


def source(drift: float, shift: float = 0.0) -> str:
    """The driver of a pair whose exact value is ``u + shift``, for drift ``drift x``."""
    u = "exp(-t)*exp(-x*x)"
    d = "exp(-t)*(exp(-(x + 0.4)*(x + 0.4)) + exp(-(x - 0.4)*(x - 0.4)) - 2*exp(-x*x))"
    return f"{u}*(1.2 + {2 * drift}*x*x - {VOL**2}*(2*x*x - 1)) - {0.4 * (1 + 0.3 * 0.25)}*{d} + {0.2 * shift}"


def spec_1x1(source_drift: float) -> ProblemSpec:
    return make_spec(
        drift=f"{DRIFT}*x",
        vol=f"{VOL}",
        drivers={"default": source(source_drift) + " - 0.2*y_0_0 + 0.3*q"},
        terminal={"default": f"exp(-{HORIZON})*exp(-x*x)"},
        lower_costs={},
        upper_costs={},
    )


def spec_2x1(source_drift: float) -> ProblemSpec:
    """Pair (1, 0) on its lower obstacle ``v_00 - COST`` everywhere."""
    return make_spec(
        modes={"m1": 2, "m2": 1},
        drift=f"{DRIFT}*x",
        vol=f"{VOL}",
        drivers={
            "0,0": source(source_drift) + " - 0.2*y_0_0 + 0.3*q",
            "1,0": source(source_drift, -COST) + " - 1.0 - 0.2*y_1_0 + 0.3*q",
        },
        terminal={"0,0": f"exp(-{HORIZON})*exp(-x*x)", "1,0": f"exp(-{HORIZON})*exp(-x*x) - {COST}"},
        lower_costs={"default": f"{COST}"},
        upper_costs={},
    )


def errors(system: str, mode: str, source_drift: float = DRIFT) -> list:
    """Sup error at t = 0 over [-2, 2] on each grid of ``NODES``, box [-5, 5], ``(nodes - 1) / 2`` steps."""
    spec = spec_1x1(source_drift) if system == "penalized" else spec_2x1(source_drift)
    quad = build_levy_quadrature(spec.levy)
    out = []
    for nodes in NODES:
        grid = SpatialGrid.line(-5.0, 5.0, nodes)
        tgrid = TimeGrid(horizon=HORIZON, n_steps=(nodes - 1) // 2)
        config = SchemeConfig(mode=mode)
        if system == "penalized":
            traj, _ = solve_penalized(spec, grid, tgrid, quad, 4.0, 4.0, config)
        else:
            traj, report = solve_minmax(spec, grid, tgrid, quad, mode="direct", config=config)
            assert max(report.sweep_counts) == 1  # one projection pass per level
            np.testing.assert_array_equal(traj.values[:, 1, 0], traj.values[:, 0, 0] - COST)  # on the obstacle
        x = grid.axis()
        window = np.abs(x) <= 2.0
        exact = np.exp(-x[window] ** 2)
        worst = float(np.max(np.abs(traj.values[0, 0, 0, window] - exact)))
        if system == "minmax":
            worst = max(worst, float(np.max(np.abs(traj.values[0, 1, 0, window] - (exact - COST)))))
        out.append(worst)
    return out


def orders(errs: list) -> list:
    return [float(np.log2(a / b)) for a, b in zip(errs[:-1], errs[1:])]


@pytest.mark.parametrize("mode", ["imex", "explicit"])
@pytest.mark.parametrize("system", ["penalized", "minmax"])
def test_first_order_convergence_to_the_exact_solution(system, mode):
    errs = errors(system, mode)
    for order in orders(errs):
        assert ORDER_BAND[0] <= order <= ORDER_BAND[1], (errs, orders(errs))
    assert errs[-1] < FINEST_ERROR, errs


@pytest.mark.parametrize("system", ["penalized", "minmax"])
def test_a_drift_five_percent_off_leaves_the_order_band(system):
    """Negative control: the source built for drift 0.105 x, the solve run with 0.1 x."""
    found = orders(errors(system, "imex", source_drift=1.05 * DRIFT))
    assert any(not ORDER_BAND[0] <= order <= ORDER_BAND[1] for order in found), found
