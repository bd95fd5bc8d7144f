"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import time

import numpy as np
import pytest

from switchvi.discretization import SpatialGrid, TimeGrid, build_levy_quadrature
from switchvi.mc import feynman_kac_check, simulate_paths, solve_bsde_regression
from switchvi.model import (
    ProblemSpec,
    load_builtin_problem,
    validate_non_free_loop,
    validate_terminal_consistency,
)
from switchvi.oracle import backward_induction, build_discrete_game
from switchvi.pde_solver import (
    solve_lower_reflected,
    solve_maxmin,
    solve_minmax,
    solve_penalized,
    solve_upper_reflected,
)

from conftest import make_spec
from test_oracle import spec_3x3

GRID = SpatialGrid.line(-2.0, 2.0, 101)
TGRID = TimeGrid(horizon=0.5, n_steps=50)
SCHEDULE = (1.0, 2.0, 4.0, 8.0)


def _report(criterion: str, passed: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion} failed: {detail}"


def test_criterion_1_double_monotonicity():
    spec = load_builtin_problem("switch_2x2_jump")
    quad = build_levy_quadrature(spec.levy)
    t0 = time.perf_counter()
    sol = {}
    for n in SCHEDULE:
        for m in SCHEDULE:
            traj, _ = solve_penalized(spec, GRID, TGRID, quad, n, m)
            sol[(n, m)] = traj.values
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for a in SCHEDULE:
        for b in SCHEDULE:
            if a >= b:
                continue
            for other in SCHEDULE:  # every ordered pair, both parameters
                worst = max(worst, float(np.max(sol[(a, other)] - sol[(b, other)])))
                worst = max(worst, float(np.max(sol[(other, b)] - sol[(other, a)])))
    _report(
        "1 double-monotonicity",
        worst <= 1e-10 and elapsed < 60.0,
        f"worst violation {worst:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_one_sided_schemes():
    spec = load_builtin_problem("switch_2x2_jump")
    quad = build_levy_quadrature(spec.levy)
    worst_order = 0.0
    worst_feas = 0.0
    bars = {}
    for m in SCHEDULE:
        traj, report = solve_lower_reflected(spec, GRID, TGRID, quad, m)
        worst_feas = max(worst_feas, max(report.obstacle_lower_violation))
        bars[m] = traj.values
    unders = {}
    for n in SCHEDULE:
        traj, report = solve_upper_reflected(spec, GRID, TGRID, quad, n)
        worst_feas = max(worst_feas, max(report.obstacle_upper_violation))
        unders[n] = traj.values
    for a in SCHEDULE:
        for b in SCHEDULE:
            if a < b:  # every ordered pair along the schedule
                worst_order = max(worst_order, float(np.max(bars[b] - bars[a])))
                worst_order = max(worst_order, float(np.max(unders[a] - unders[b])))
    _report(
        "2 one-sided-limits",
        worst_order <= 1e-10 and worst_feas <= 1e-10,
        f"worst monotonicity violation {worst_order:.2e}, worst feasibility {worst_feas:.2e}",
    )


def test_criterion_3_ordering_on_all_instances():
    worst = -np.inf
    for name in ("no_jump", "two_atom_jump", "switch_2x2_jump"):
        spec = load_builtin_problem(name)
        quad = build_levy_quadrature(spec.levy)
        upper, _ = solve_minmax(spec, GRID, TGRID, quad, mode="direct")
        lower, _ = solve_maxmin(spec, GRID, TGRID, quad, mode="direct")
        worst = max(worst, float(np.max(lower.values - upper.values)))
    _report("3 ordering", worst <= 1e-8, f"worst maxmin-over-minmax excess {worst:.2e}")


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [
        (load_builtin_problem("switch_2x2_jump"), SpatialGrid.line(-2.0, 2.0, 41)),
        (spec_3x3(), SpatialGrid.line(-2.0, 2.0, 31)),
    ]
    tgrid = TimeGrid(horizon=0.5, n_steps=20)
    for spec, grid in cases:
        quad = build_levy_quadrature(spec.levy)
        game = build_discrete_game(spec, grid, tgrid, quad)
        for order, solver in (("minmax", solve_minmax), ("maxmin", solve_maxmin)):
            traj, _ = solver(spec, grid, tgrid, quad, mode="direct")
            res = backward_induction(game, order=order)
            worst = max(worst, float(np.max(np.abs(traj.values - res.values))))
    elapsed = time.perf_counter() - t0
    _report(
        "4 oracle-equivalence",
        worst <= 1e-10 and elapsed < 10.0,
        f"max abs diff {worst:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_5_feynman_kac():
    t0 = time.perf_counter()
    # shipped two-atom instance, z-independent drivers, matched penalties
    spec = load_builtin_problem("two_atom_jump")
    quad = build_levy_quadrature(spec.levy)
    traj, _ = solve_penalized(spec, GRID, TGRID, quad, 4.0, 4.0)
    batch = simulate_paths(spec, quad, 0.0, 10_000, TGRID, seed=20240901)
    est = solve_bsde_regression(batch, 4.0, 4.0)
    report = feynman_kac_check(traj, est)

    # closed-form control: constant driver, zero terminal
    const = make_spec(
        modes={"m1": 1, "m2": 1},
        drivers={"default": "0.7"},
        lower_costs={},
        upper_costs={},
        terminal={"default": "0"},
    )
    cquad = build_levy_quadrature(const.levy)
    ctraj, _ = solve_penalized(const, GRID, TGRID, cquad, 0.0, 0.0)
    cbatch = simulate_paths(const, cquad, 0.0, 10_000, TGRID, seed=20240901)
    cest = solve_bsde_regression(cbatch, 0.0, 0.0)
    closed_diff = abs(float(cest.y0[0, 0]) - float(ctraj.values[0, 0, 0, 50]))
    elapsed = time.perf_counter() - t0
    detail = "; ".join(f"pair {r['pair']}: diff {r['difference']:.4f} thr {r['threshold']:.4f}" for r in report.records)
    _report(
        "5 feynman-kac",
        report.passed and closed_diff <= 1e-8 and elapsed < 120.0,
        f"{detail}; closed-form diff {closed_diff:.2e}; runtime {elapsed:.1f}s",
    )


def test_criterion_6_comparison_surrogate():
    base = {
        "name": "cmp",
        "modes": {"m1": 2, "m2": 2},
        "horizon": 0.5,
        "drift": "0.1*x",
        "vol": "0.2",
        "jump_amplitude": "0.8*e",
        "jump_weights": {"default": "0.5*min(abs(e), 1)"},
        "levy": {"atoms": [[0.5, 0.4], [-0.5, 0.4]]},
        "drivers": {
            "0,0": "0.9 + 0.3*q + 0.1*z + 0.1*max(x, 0)",
            "0,1": "-0.1 + 0.3*q + 0.1*z",
            "1,0": "-0.45 + 0.3*q + 0.1*z",
            "1,1": "0.35 + 0.3*q + 0.1*z",
        },
        "lower_costs": {"default": "0.3"},
        "upper_costs": {"default": "0.4"},
        "terminal": {
            "0,0": "0.8*exp(-x*x)",
            "0,1": "0.75*exp(-x*x)",
            "1,0": "0.9*exp(-x*x)",
            "1,1": "0.85*exp(-x*x)",
        },
    }
    spec_h = ProblemSpec.from_dict(base)
    shifted = dict(base)
    shifted["terminal"] = {k: f"({v}) + 1" for k, v in base["terminal"].items()}
    spec_h1 = ProblemSpec.from_dict(shifted)
    quad = build_levy_quadrature(spec_h.levy)
    worst = -np.inf
    for solver, kwargs in (
        (solve_penalized, {"n": 4.0, "m": 4.0}),
        (solve_minmax, {"mode": "direct"}),
        (solve_maxmin, {"mode": "direct"}),
    ):
        a, _ = solver(spec_h, GRID, TGRID, quad, **kwargs)
        b, _ = solver(spec_h1, GRID, TGRID, quad, **kwargs)
        worst = max(worst, float(np.max(a.values - b.values)))
    _report("6 comparison-surrogate", worst <= -1.0 + 1e-10, f"worst v(h) - v(h+1) = {worst:.12f}")


def test_criterion_7_degenerate_reductions():
    c = 0.7
    const = make_spec(
        modes={"m1": 1, "m2": 1},
        drivers={"default": repr(c)},
        lower_costs={},
        upper_costs={},
        terminal={"default": "0"},
    )
    quad = build_levy_quadrature(const.levy)
    traj, _ = solve_penalized(const, GRID, TGRID, quad, 0.0, 0.0)
    expected = c * (TGRID.horizon - traj.times)[:, None, None, None]
    ode_err = float(np.max(np.abs(traj.values - expected)))

    # jumps of (2 - |x|)/2 never leave the box [-2, 2], so v = x is exact under the clamp
    affine = make_spec(
        modes={"m1": 1, "m2": 1},
        drift="0",
        vol="0",
        jump_amplitude="e*(2 - abs(x))/2",
        jump_weights={"default": "0"},
        levy={"atoms": [[1.0, 1.0], [-1.0, 1.0]]},
        drivers={"default": "0"},
        lower_costs={},
        upper_costs={},
        terminal={"default": "x"},
    )
    aquad = build_levy_quadrature(affine.levy)
    atraj, _ = solve_penalized(affine, GRID, TGRID, aquad, 0.0, 0.0)
    affine_err = float(np.max(np.abs(atraj.values - GRID.axis()[None, None, None, :])))
    _report(
        "7 degenerate-reductions",
        ode_err <= 1e-12 and affine_err <= 1e-10,
        f"ode err {ode_err:.2e}, affine err {affine_err:.2e}",
    )


def test_criterion_8_validator_correctness():
    points = [(t, x) for t in (0.0, 0.25, 0.5) for x in (-2.0, 0.0, 2.0)]
    free = make_spec(
        modes={"m1": 2, "m2": 2},
        drivers={"default": "0"},
        lower_costs={"default": "1"},
        upper_costs={"default": "1"},
    )
    free_report = validate_non_free_loop(free, points)
    has_witness = (not free_report.passed) and bool(free_report.violations) and free_report.violations[0]["loop"]

    strict = make_spec(
        modes={"m1": 2, "m2": 2},
        drivers={"default": "0"},
        lower_costs={"default": "1"},
        upper_costs={"default": "2"},
    )
    strict_ok = validate_non_free_loop(strict, points).passed

    bad_terminal = make_spec(
        modes={"m1": 2, "m2": 1},
        drivers={"default": "0"},
        lower_costs={"default": "1"},
        upper_costs={},
        terminal={"0,0": "0", "1,0": "5"},
    )
    term_report = validate_terminal_consistency(bad_terminal, np.linspace(-2, 2, 9))
    term_rejected = (not term_report.passed) and term_report.details["worst_violation"] == pytest.approx(4.0)

    _report(
        "8 validator-correctness",
        bool(has_witness and strict_ok and term_rejected),
        f"loop witness {free_report.violations[0]['loop'] if free_report.violations else None}, "
        f"terminal magnitude {term_report.details['worst_violation']:.2f}",
    )
