import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import types
from collections import Counter
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import switchvi
from switchvi import pde_solver
from switchvi.discretization import (
    SpatialGrid,
    TimeGrid,
    build_levy_quadrature,
    destination_table,
    gradient_surface,
    second_derivative_surface,
    upwind_drift,
)
from switchvi.exprdsl import BinOp, Num, NumericDomainError
from switchvi.mc import simulate_paths
from switchvi.model import (
    ProblemSpec,
    _loop_legs,
    driver_variable,
    eval_obstacles,
    load_builtin_problem,
    neg_part,
    other_mode_costs,
    pos_part,
    validate_non_free_loop,
    validate_terminal_consistency,
)
from switchvi.oracle import backward_induction, build_discrete_game
from switchvi.pde_solver import (
    AssumptionViolationError,
    CflViolationError,
    ScheduleNonConvergenceError,
    SchemeConfig,
    SolverReport,
    SweepNonConvergenceError,
    _sweep,
    compute_cfl_bound,
    estimate_driver_lipschitz,
    residual_report,
    solve_lower_reflected,
    solve_maxmin,
    solve_minmax,
    solve_penalized,
    solve_upper_reflected,
    _record_obstacles,
    _Workspace,
)

from conftest import (
    CAP_Q_TERMS,
    assert_all_le,
    assert_matches_walker,
    beta_slope_at_zero,
    cap_broadcast_arguments,
    gathered,
    make_spec,
    mode_pair_cap_spec,
    negated_transposed_spec,
    step,
)

GRID = SpatialGrid.line(-2.0, 2.0, 41)
TGRID = TimeGrid(horizon=0.5, n_steps=25)


def const_driver_spec(c=0.7):
    return make_spec(
        modes={"m1": 1, "m2": 1},
        drivers={"default": repr(c)},
        lower_costs={},
        upper_costs={},
        terminal={"default": "0"},
    )


def affine_spec():
    """``v = x`` solves it exactly: jumps of ``(2 - |x|)/2`` never leave [-2, 2], so the clamp never acts."""
    return make_spec(
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


class TestSchemeConfig:
    @pytest.mark.parametrize("max_sweeps", [1, 500, np.int64(3)])
    def test_max_sweeps_accepts_a_positive_integer(self, max_sweeps):
        assert SchemeConfig(max_sweeps=max_sweeps).max_sweeps == max_sweeps

    @pytest.mark.parametrize("max_sweeps", [0, -1, 2.5, 3.0, True, False, "500", None])
    def test_max_sweeps_rejects_anything_but_a_positive_integer(self, max_sweeps):
        """A float cap failed in ``range`` after a full step, and ``True`` ran as a cap of 1."""
        with pytest.raises(ValueError, match="max_sweeps"):
            SchemeConfig(max_sweeps=max_sweeps)


BAD_PENALTIES = [-5.0, -1, float("nan"), float("inf"), 10**400, True, np.True_, "4", None]


def short_id(value) -> str:
    return repr(value).replace(repr(10**400), "10**400")


class TestPenalties:
    """A penalty is a finite number >= 0: a negative or NaN one ran as 0, and an infinite one failed the CFL guard."""

    @pytest.mark.parametrize("penalty", [0, 4, 2.5, np.int64(3), np.float64(1.5)], ids=repr)
    def test_check_penalty_keeps_the_value(self, penalty):
        assert pde_solver.check_penalty(penalty, "n") == float(penalty)
        assert type(pde_solver.check_penalty(penalty, "n")) is float

    @pytest.mark.parametrize("penalty", BAD_PENALTIES, ids=short_id)
    def test_check_penalty_rejects_anything_but_a_finite_number_of_at_least_0(self, penalty):
        with pytest.raises(ValueError, match="penalty m must be") as err:
            pde_solver.check_penalty(penalty, "m")
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("penalty", BAD_PENALTIES, ids=short_id)
    @pytest.mark.parametrize("side", ["n", "m"])
    def test_solve_penalized_rejects_a_bad_penalty(self, spec_no_jump, side, penalty):
        """``n=-5`` returned the ``n=0`` trajectory under the name ``penalized(n=-5.0, ...)``."""
        tgrid = TimeGrid(horizon=spec_no_jump.horizon, n_steps=20)
        penalties = {"n": 4.0, "m": 4.0, side: penalty}
        with pytest.raises(ValueError, match=f"penalty {side} must be") as err:
            solve_penalized(spec_no_jump, GRID, tgrid, build_levy_quadrature(spec_no_jump.levy), penalties["n"], penalties["m"])
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("penalty", [-3.0, float("nan"), float("inf"), True])
    @pytest.mark.parametrize("solver, side", [(solve_lower_reflected, "m"), (solve_upper_reflected, "n")])
    def test_reflected_solves_reject_a_bad_penalty(self, spec_no_jump, solver, side, penalty):
        tgrid = TimeGrid(horizon=spec_no_jump.horizon, n_steps=20)
        with pytest.raises(ValueError, match=f"penalty {side} must be") as err:
            solver(spec_no_jump, GRID, tgrid, build_levy_quadrature(spec_no_jump.levy), penalty)
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("n, m", [(-1.0, 0.0), (0.0, float("nan")), (True, 0.0)])
    def test_residual_report_rejects_a_bad_penalty(self, spec_no_jump, n, m):
        tgrid = TimeGrid(horizon=spec_no_jump.horizon, n_steps=20)
        quad = build_levy_quadrature(spec_no_jump.levy)
        traj, _ = solve_penalized(spec_no_jump, GRID, tgrid, quad, 1.0, 1.0)
        with pytest.raises(ValueError, match="penalty"):
            residual_report(traj, spec_no_jump, quad, "penalized", n, m)

    def test_stability_guard_rejects_a_nan_stability_number(self, spec_no_jump):
        """``NaN > 1 + 1e-12`` is false, so the guard let a NaN stability number through."""
        tgrid = TimeGrid(horizon=spec_no_jump.horizon, n_steps=20)
        ws = _Workspace(spec_no_jump, GRID, tgrid, build_levy_quadrature(spec_no_jump.levy), SchemeConfig())
        with pytest.raises(CflViolationError, match="nan"):
            ws.check_cfl(float("nan"), 0.0)


class TestStepAndCfl:
    def test_closed_form_constant_driver(self):
        c = 0.7
        spec = const_driver_spec(c)
        quad = build_levy_quadrature(spec.levy)
        traj, _ = solve_penalized(spec, GRID, TGRID, quad, 0.0, 0.0)
        expected = c * (TGRID.horizon - traj.times)[:, None, None, None]
        assert float(np.max(np.abs(traj.values - expected))) <= 1e-12

    def test_affine_invariance_of_compensated_jumps(self):
        spec = affine_spec()
        quad = build_levy_quadrature(spec.levy)
        traj, _ = solve_penalized(spec, GRID, TGRID, quad, 0.0, 0.0)
        x = GRID.axis()
        assert float(np.max(np.abs(traj.values - x[None, None, None, :]))) <= 1e-10

    def test_cfl_guard_rejects_before_stepping(self, spec_2x2, quad_2x2, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped past a failing CFL guard")

        monkeypatch.setattr(_Workspace, "step", no_step)
        with pytest.raises(CflViolationError):
            solve_penalized(spec_2x2, GRID, TGRID, quad_2x2, 500.0, 0.0)

    def test_cfl_terms_reported(self, spec_2x2, quad_2x2):
        value, terms = compute_cfl_bound(spec_2x2, GRID, TGRID, quad_2x2, 2.0, 2.0)
        assert value == pytest.approx(sum(terms.values()))
        assert terms["penalties"] == pytest.approx(TGRID.dt * 4.0)
        assert value < 1.0

    def test_monotone_step_by_directional_probing(self, spec_2x2, quad_2x2):
        tiny = SpatialGrid.line(-1.0, 1.0, 9)
        ttiny = TimeGrid(horizon=0.5, n_steps=25)
        ws = _Workspace(spec_2x2, tiny, ttiny, quad_2x2, SchemeConfig())
        ws.check_cfl(2.0, 2.0)
        rng = np.random.default_rng(2)
        base = rng.normal(scale=0.2, size=(2, 2, 9))
        f0 = step(ws, base, 0.5, 2.0, 2.0)
        for trial in range(12):
            bump = np.zeros_like(base)
            bump[rng.integers(2), rng.integers(2), rng.integers(9)] = rng.uniform(0.01, 0.5)
            f1 = step(ws, base + bump, 0.5, 2.0, 2.0)
            assert_all_le(f0, f1, 1e-12, "monotone step")

    def test_imex_closed_form_and_looser_cfl(self):
        spec = const_driver_spec(0.4)
        quad = build_levy_quadrature(spec.levy)
        fine = SpatialGrid.line(-2.0, 2.0, 201)
        with pytest.raises(CflViolationError):
            solve_penalized(spec, fine, TGRID, quad, 0.0, 0.0)  # explicit diffusion blows the bound
        imex = SchemeConfig(mode="imex")
        traj, _ = solve_penalized(spec, fine, TGRID, quad, 0.0, 0.0, imex)
        expected = 0.4 * (TGRID.horizon - traj.times)[:, None, None, None]
        assert float(np.max(np.abs(traj.values - expected))) <= 1e-12

    def test_imex_close_to_explicit(self, spec_2x2, quad_2x2):
        e, _ = solve_penalized(spec_2x2, GRID, TGRID, quad_2x2, 2.0, 2.0)
        i, _ = solve_penalized(spec_2x2, GRID, TGRID, quad_2x2, 2.0, 2.0, SchemeConfig(mode="imex"))
        assert float(np.max(np.abs(e.values - i.values))) < 5e-3


def reference_cfl_bound(spec, grid, tgrid, quad, n, m, mode):
    """The stability number written straight from ``spec.eval_*``, independently of the workspace."""
    x = grid.axis()
    dx = grid.dx
    dt = tgrid.dt
    ts = [float(t) for t in tgrid.times()[1:]]  # the times the steps read
    sig2_max = max(float(np.max(spec.eval_vol(t, x) ** 2)) for t in ts)
    if quad.small_jump_second_moment > 0.0:
        slope = beta_slope_at_zero(spec, x)
        sig2_max += quad.small_jump_second_moment * float(np.max(slope**2))
    compensator = np.zeros_like(x)
    gamma_sup = 0.0
    for e_k, w_k in zip(quad.marks, quad.weights):
        compensator += w_k * spec.eval_beta(x, float(e_k))
        for pair in spec.modes.pairs():
            gamma_sup = max(gamma_sup, float(np.max(spec.eval_gamma(pair, x, float(e_k)))))
    b_max = max(float(np.max(np.abs(spec.eval_drift(t, x) - compensator))) for t in ts)
    total_w = quad.total_weight
    terms = {
        "diffusion": dt * 2.0 * sig2_max / dx**2,
        "drift": dt * b_max / dx,
        "jump_intensity": dt * (total_w * gamma_sup + total_w),
        "penalties": dt * (n + m),
        "driver_lipschitz": dt * estimate_driver_lipschitz(spec, grid, tgrid),
    }
    value = float(sum(terms.values()))
    if mode == "imex":
        value = value - terms["diffusion"]
        terms = dict(terms, diffusion=0.0)
    return value, terms


def density_jump_spec() -> ProblemSpec:
    """``switch_2x2_jump`` with 64 density atoms and a small-jump surrogate."""
    raw = json.loads((files("switchvi.problems") / "switch_2x2_jump.json").read_text(encoding="utf-8"))
    raw.update(levy={"density": "0.4*exp(-abs(e))", "radius": 1.0, "cutoff": 0.05})
    return ProblemSpec.from_dict(raw)


def drift_spike_spec() -> ProblemSpec:
    """A drift spike of height 8 around t = 0.125, zero at t in {0, T/2, T}."""
    return make_spec(drift="400*max(0, 0.02 - abs(t - 0.125))", vol="0.05", levy={"atoms": []}, jump_weights={"default": "0"})


class TestStabilityBoundReadsTheWorkspace:
    """``_Workspace.cfl`` reads the step's own tables and equals the formula written from the spec, bit for bit."""

    SPECS = {
        "no_jump": lambda: load_builtin_problem("no_jump"),
        "switch_2x2_jump": lambda: load_builtin_problem("switch_2x2_jump"),
        "two_atom_jump": lambda: load_builtin_problem("two_atom_jump"),
        "density": density_jump_spec,
        "2x2 in t and x": lambda: make_spec(
            modes={"m1": 2, "m2": 2},
            drift="0.1*x - 0.3*t*x + 0.05",
            vol="0.2 + 0.1*t*abs(x)",
            jump_amplitude="0.8*e*(1 + 0.3*x)",
            jump_weights={"default": "-0.5*min(abs(e), 1)", "1,0": "0.2*abs(e) - 0.3"},  # sup gamma < 0
            levy={"atoms": [[0.5, 0.4], [-0.7, 0.3], [1.1, 0.2]]},
        ),
        "drift spike in t": drift_spike_spec,
    }

    @pytest.mark.parametrize("mode", ["explicit", "imex"])
    @pytest.mark.parametrize("problem", list(SPECS))
    def test_equals_the_formula_bitwise(self, problem, mode):
        spec = self.SPECS[problem]()
        quad = build_levy_quadrature(spec.levy)
        assert problem != "density" or quad.small_jump_second_moment > 0.0
        ws = _Workspace(spec, GRID, TGRID, quad, SchemeConfig(mode=mode))
        for n, m in ((0.0, 0.0), (2.0, 3.0)):
            value, terms = ws.cfl(n, m)
            ref_value, ref_terms = reference_cfl_bound(spec, GRID, TGRID, quad, n, m, mode)
            assert list(terms) == list(ref_terms)
            assert same_bits(list(terms.values()), list(ref_terms.values()))
            assert same_bits(value, ref_value)

    def test_reads_no_coefficient_after_the_workspace_is_built(self, monkeypatch):
        spec = self.SPECS["2x2 in t and x"]()
        ws = _Workspace(spec, GRID, TGRID, build_levy_quadrature(spec.levy), SchemeConfig())
        for name in ("eval_beta", "eval_gamma"):
            monkeypatch.setattr(ProblemSpec, name, lambda *args: pytest.fail("the stability bound re-evaluated the jumps"))
        monkeypatch.setattr(switchvi.pde_solver, "estimate_driver_lipschitz", lambda *args: pytest.fail("probed again"))
        ws.cfl(1.0, 1.0)


def worst_bump_response(ws: _Workspace, base: np.ndarray) -> float:
    """Smallest change of one step over all +1 bumps of a single node of ``base``."""
    before = step(ws, base, ws.tgrid.horizon, 0.0, 0.0)
    worst = np.inf
    for node in np.ndindex(base.shape):
        bumped = base.copy()
        bumped[node] += 1.0
        worst = min(worst, float(np.min(step(ws, bumped, ws.tgrid.horizon, 0.0, 0.0) - before)))
    return worst


class TestMonotoneByConstruction:
    """The jump compensator is upwinded with the drift: an accepted step is monotone,
    and the oracle, which checks every transition weight, builds the same instance."""

    TGRID = TimeGrid(horizon=0.5, n_steps=20)

    def assert_accepted_step_is_monotone(self, spec, mode):
        quad = build_levy_quadrature(spec.levy)
        ws = _Workspace(spec, GRID, self.TGRID, quad, SchemeConfig(mode=mode))
        try:
            ws.check_cfl(0.0, 0.0)
        except CflViolationError:
            return
        base = np.random.default_rng(3).normal(size=(1, 1, GRID.n_nodes))
        assert worst_bump_response(ws, base) >= -1e-12
        build_discrete_game(spec, GRID, self.TGRID, quad)

    @pytest.mark.parametrize("mode", ["explicit", "imex"])
    def test_one_sided_atom_step_is_monotone(self, mode):
        # a central compensator lowered a neighbour by 0.0799 under an accepted stability number of 0.1
        spec = make_spec(vol="0.01", drift="0", levy={"atoms": [[0.5, 0.8]]}, jump_weights={"default": "0"})
        self.assert_accepted_step_is_monotone(spec, mode)

    @pytest.mark.parametrize("mode", ["explicit", "imex"])
    @pytest.mark.parametrize(
        "atoms", [[[0.5, 0.8]], [[0.3, 1.0], [-0.1, 0.5]], [[1.0, 0.2], [0.5, 0.6], [-0.25, 0.9]], [[-1.5, 0.3], [0.2, 2.0]]]
    )
    def test_asymmetric_atoms(self, atoms, mode):
        spec = make_spec(
            vol="0.01",
            drift="0.3*x",
            jump_amplitude="0.8*e*(1 + 0.3*x)",
            levy={"atoms": atoms},
            jump_weights={"default": "0"},
        )
        self.assert_accepted_step_is_monotone(spec, mode)

    @pytest.mark.parametrize("mode", ["explicit", "imex"])
    def test_drift_spike_between_the_old_sample_times_is_rejected(self, mode):
        """The drift peaks at 8 at t = 0.125, a time that step 4 reads and that
        ``{0, T/2, T}`` misses; the oracle finds a negative transition weight there."""
        grid = SpatialGrid.line(-1.0, 1.0, 41)
        spec = drift_spike_spec()
        quad = build_levy_quadrature(spec.levy)
        with pytest.raises(CflViolationError, match="'drift': 4.0"):
            solve_penalized(spec, grid, self.TGRID, quad, 0.0, 0.0, SchemeConfig(mode=mode))
        with pytest.raises(CflViolationError, match="at step 4, node 0"):
            build_discrete_game(spec, grid, self.TGRID, quad)

    @pytest.mark.parametrize("mode", ["explicit", "imex"])
    @pytest.mark.parametrize("solver", [solve_minmax, solve_maxmin])
    def test_limit_mode_names_the_first_penalty_stability_terms(self, solver, mode):
        """When the schedule's first penalty already breaks the guard, no schedule ran:
        the error is that penalty's stability violation, with its terms."""
        grid = SpatialGrid.line(-1.0, 1.0, 41)
        spec = drift_spike_spec()
        quad = build_levy_quadrature(spec.levy)
        with pytest.raises(CflViolationError, match=r"stability number \d+\.\d+ exceeds 1 .*'drift': 4.0"):
            solver(spec, grid, self.TGRID, quad, mode="limit", config=SchemeConfig(mode=mode))

    def test_cfl_drift_term_is_the_folded_drift(self):
        atoms = [[1.0, 0.2], [0.5, 0.6], [-0.25, 0.9]]
        spec = make_spec(drift="0.3*x", jump_amplitude="0.8*e*(1 + 0.3*x)", levy={"atoms": atoms})
        quad = build_levy_quadrature(spec.levy)
        _, terms = compute_cfl_bound(spec, GRID, self.TGRID, quad, 0.0, 0.0)
        x = GRID.axis()
        folded = 0.3 * x - sum(w * 0.8 * e * (1.0 + 0.3 * x) for e, w in atoms)
        assert terms["drift"] == pytest.approx(self.TGRID.dt * np.max(np.abs(folded)) / GRID.dx, rel=1e-12)


class TestPenalized:
    def test_terminal_level_is_h_bitwise(self, spec_2x2, quad_2x2):
        traj, _ = solve_penalized(spec_2x2, GRID, TGRID, quad_2x2, 1.0, 1.0)
        x = GRID.axis()
        for i, j in spec_2x2.modes.pairs():
            np.testing.assert_array_equal(traj.values[-1, i, j], np.asarray(spec_2x2.eval_terminal((i, j), x)))

    @pytest.mark.parametrize("m", [1.0, 4.0])
    def test_monotone_in_n(self, spec_2x2, quad_2x2, m):
        a, _ = solve_penalized(spec_2x2, GRID, TGRID, quad_2x2, 1.0, m)
        b, _ = solve_penalized(spec_2x2, GRID, TGRID, quad_2x2, 2.0, m)
        assert_all_le(a.values, b.values, 1e-10, "v increasing in n")

    @pytest.mark.parametrize("n", [1.0, 4.0])
    def test_monotone_in_m(self, spec_2x2, quad_2x2, n):
        a, _ = solve_penalized(spec_2x2, GRID, TGRID, quad_2x2, n, 2.0)
        b, _ = solve_penalized(spec_2x2, GRID, TGRID, quad_2x2, n, 1.0)
        assert_all_le(a.values, b.values, 1e-10, "v decreasing in m")

    def test_terminal_inconsistency_gate(self):
        bad = make_spec(
            modes={"m1": 2, "m2": 1},
            drivers={"default": "0"},
            lower_costs={"default": "1"},
            upper_costs={},
            terminal={"0,0": "0", "1,0": "5"},
            levy={"atoms": []},
            jump_amplitude="0",
            jump_weights={"default": "0"},
        )
        quad = build_levy_quadrature(bad.levy)
        with pytest.raises(AssumptionViolationError):
            solve_penalized(bad, GRID, TGRID, quad, 1.0, 0.0)
        traj, report = solve_penalized(bad, GRID, TGRID, quad, 1.0, 0.0, SchemeConfig(allow_terminal_inconsistency=True))
        assert report.terminal_inconsistency == pytest.approx(4.0)
        assert traj.n_levels == TGRID.n_steps + 1

    @pytest.mark.parametrize("modes,side", [((2, 2), "lower"), ((2, 2), "upper"), ((2, 2), "both"), ((2, 1), "lower"), ((1, 2), "upper")])
    @pytest.mark.parametrize("solver", ["penalized", "minmax"])
    def test_terminal_gate_reads_the_recorded_level(self, modes, side, solver):
        """The gate's magnitude and its report are the validator's, bit for bit."""
        spec = inconsistent_terminal_spec(*modes, side)
        quad = build_levy_quadrature(spec.levy)
        expected = validate_terminal_consistency(spec, GRID.axis())
        assert not expected.passed and expected.violations[0]["side"] == ("upper" if side == "upper" else "lower")

        def run(config):
            if solver == "penalized":
                return solve_penalized(spec, GRID, TGRID, quad, 1.0, 1.0, config)
            return solve_minmax(spec, GRID, TGRID, quad, mode="direct", config=config)

        _, report = run(SchemeConfig(allow_terminal_inconsistency=True))
        assert same_bits(report.terminal_inconsistency, expected.details["worst_violation"])
        with pytest.raises(AssumptionViolationError) as err:
            run(SchemeConfig())
        assert err.value.report.to_dict() == expected.to_dict()
        assert str(err.value) == str(AssumptionViolationError(expected))

    def test_a_consistent_solve_does_not_run_the_terminal_validator(self, spec_2x2, quad_2x2, monkeypatch):
        """Consistent terminal data pass on the recorded terminal level alone."""

        def refuse(*args, **kwargs):
            raise AssertionError("validate_terminal_consistency ran on consistent terminal data")

        monkeypatch.setattr(pde_solver, "validate_terminal_consistency", refuse)
        assert solve_penalized(spec_2x2, GRID, TGRID, quad_2x2, 2.0, 2.0)[1].terminal_inconsistency == 0.0
        solve_lower_reflected(spec_2x2, GRID, TGRID, quad_2x2, 2.0)
        solve_upper_reflected(spec_2x2, GRID, TGRID, quad_2x2, 2.0)
        solve_minmax(spec_2x2, GRID, TGRID, quad_2x2, mode="direct")
        solve_maxmin(spec_2x2, GRID, TGRID, quad_2x2, mode="limit", schedule=(1, 2), raise_on_nonconvergence=False)


def inconsistent_terminal_spec(m1: int, m2: int, side: str) -> ProblemSpec:
    """An ``m1 x m2`` game whose terminal data break the ``side`` half of the
    sandwich at expiry (``"both"``: each half somewhere), with costs that read
    t and terminal data that read x."""
    bump = "2.5*(1 + 0.5*x*x)"
    terminal = {}
    for i in range(m1):
        for j in range(m2):
            low = f"{i}*{bump}" if side in ("lower", "both") else "0"
            up = f"{m2 - 1 - j}*{bump}*0.8" if side in ("upper", "both") else "0"
            terminal[f"{i},{j}"] = f"{low} + {up}"
    return make_spec(
        modes={"m1": m1, "m2": m2},
        lower_costs={"default": "0.3 + t"} if m1 > 1 else {},
        upper_costs={"default": "0.2 + 0.5*t"} if m2 > 1 else {},
        terminal=terminal,
    )


class TestLowerReflected:
    def test_monotone_in_m_and_feasible(self, spec_2x2, quad_2x2):
        prev = None
        for m in (1.0, 2.0, 4.0, 8.0):
            traj, report = solve_lower_reflected(spec_2x2, GRID, TGRID, quad_2x2, m)
            assert max(report.obstacle_lower_violation) <= 1e-10
            if prev is not None:
                assert_all_le(traj.values, prev, 1e-10, "ubar decreasing in m")
            prev = traj.values

    def test_dominates_penalized(self, spec_2x2, quad_2x2):
        bar, _ = solve_lower_reflected(spec_2x2, GRID, TGRID, quad_2x2, 2.0)
        for n in (1.0, 2.0, 4.0, 8.0):
            pen, _ = solve_penalized(spec_2x2, GRID, TGRID, quad_2x2, n, 2.0)
            assert_all_le(pen.values, bar.values, 1e-10, f"penalized n={n} below reflected")

    def test_sweep_count_bound_constant_costs(self, spec_2x2, quad_2x2):
        _, report = solve_lower_reflected(spec_2x2, GRID, TGRID, quad_2x2, 1.0)
        assert max(report.sweep_counts) <= spec_2x2.modes.m1 * spec_2x2.modes.m2

    def test_free_loop_gate(self):
        # zero lower costs give a free player-1 loop; the solver must refuse
        free = make_spec(
            modes={"m1": 2, "m2": 1},
            drivers={"default": "0"},
            lower_costs={"default": "0"},
            upper_costs={},
        )
        quad = build_levy_quadrature(free.levy)
        with pytest.raises(AssumptionViolationError):
            solve_lower_reflected(free, GRID, TGRID, quad, 1.0)

    def test_sweep_cap_raises(self, spec_2x2, quad_2x2):
        cfg = SchemeConfig(max_sweeps=1)
        with pytest.raises(SweepNonConvergenceError):
            solve_lower_reflected(spec_2x2, GRID, TGRID, quad_2x2, 1.0, cfg)


def one_by_two(**overrides) -> ProblemSpec:
    return make_spec(modes={"m1": 1, "m2": 2}, **overrides)


class TestUpperReflected:
    def test_monotone_in_n_and_feasible(self, spec_2x2, quad_2x2):
        prev = None
        for n in (1.0, 2.0, 4.0, 8.0):
            traj, report = solve_upper_reflected(spec_2x2, GRID, TGRID, quad_2x2, n)
            assert max(report.obstacle_upper_violation) <= 1e-10
            if prev is not None:
                assert_all_le(prev, traj.values, 1e-10, "ubar increasing in n")
            prev = traj.values

    @staticmethod
    def assert_dual(spec, config):
        """The direct upper-reflected solve is the negative transpose of the
        lower-reflected solve of the sign-flip conjugate."""
        quad = build_levy_quadrature(spec.levy)
        up, up_report = solve_upper_reflected(spec, GRID, TGRID, quad, 4.0, config)
        low, low_report = solve_lower_reflected(negated_transposed_spec(spec), GRID, TGRID, quad, 4.0, config)
        assert np.array_equal(up.values, -np.transpose(low.values, (0, 2, 1, 3)))
        assert same_bits(up_report.obstacle_lower_violation, low_report.obstacle_upper_violation)
        assert same_bits(up_report.obstacle_upper_violation, low_report.obstacle_lower_violation)
        assert up_report.sweep_counts == low_report.sweep_counts

    def test_negation_duality(self, spec_2x2):
        self.assert_dual(spec_2x2, SchemeConfig())

    @pytest.mark.parametrize("mode", ["explicit", "imex"])
    @pytest.mark.parametrize("modes", [(2, 2), (1, 3), (3, 2)])
    def test_negation_duality_with_time_dependent_data(self, modes, mode):
        self.assert_dual(switching_in_time(*modes), SchemeConfig(mode=mode))

    @pytest.mark.parametrize("solver", [solve_lower_reflected, solve_upper_reflected])
    def test_domain_error_names_the_written_driver(self, solver):
        spec = one_by_two(drivers={"0,0": "0", "0,1": "exp(1000*y_0_1 + 800)"})
        with pytest.raises(NumericDomainError, match=re.escape("'exp(1000.0*y_0_1 + 800.0)'")):
            solver(spec, GRID, TGRID, build_levy_quadrature(spec.levy), 1.0)

    @pytest.mark.parametrize("solver", [solve_lower_reflected, solve_upper_reflected])
    def test_terminal_violation_names_the_pair_and_side(self, solver):
        spec = one_by_two(terminal={"0,0": "0", "0,1": "1"}, upper_costs={"default": "0.1"})
        with pytest.raises(AssumptionViolationError) as err:
            solver(spec, GRID, TGRID, build_levy_quadrature(spec.levy), 1.0)
        violation = err.value.report.violations[0]
        assert (violation["pair"], violation["side"]) == ([0, 1], "upper")

    @pytest.mark.parametrize(
        "mode,driver,terminal",
        [
            ("explicit", "-1.7e308", "-1.79e308"),  # the weighted local part overflows
            ("imex", "1e308", "1.7e308"),  # the implicit solve overflows
            ("imex", "1e308", "1.79e308"),  # the explicit part overflows before the implicit solve
        ],
    )
    @pytest.mark.parametrize("solver", [solve_lower_reflected, solve_upper_reflected])
    def test_non_finite_update_names_the_pair(self, solver, mode, driver, terminal):
        """The step's own check names the pair, whether or not scipy checks the banded solve's input."""
        spec = one_by_two(drivers={"0,0": "0", "0,1": driver}, terminal={"0,0": "0", "0,1": terminal})
        config = SchemeConfig(mode=mode, allow_terminal_inconsistency=True)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError, match=re.escape("mode pair (0, 1)")):
            solver(spec, GRID, TGRID, build_levy_quadrature(spec.levy), 1.0, config)

    def test_stability_terms_equal_the_lower_reflected_ones(self, spec_2x2, quad_2x2):
        _, up = solve_upper_reflected(spec_2x2, GRID, TGRID, quad_2x2, 2.0)
        _, low = solve_lower_reflected(spec_2x2, GRID, TGRID, quad_2x2, 2.0)
        assert up.cfl_terms == low.cfl_terms
        assert up.cfl_bound == low.cfl_bound

    def test_conjugate_spec_round_trip(self, spec_2x2):
        back = negated_transposed_spec(negated_transposed_spec(spec_2x2))
        assert back.modes == spec_2x2.modes
        # double conjugation restores terminal data exactly
        x = np.linspace(-2, 2, 7)
        for pair in spec_2x2.modes.pairs():
            np.testing.assert_allclose(
                np.asarray(back.eval_terminal(pair, x)), np.asarray(spec_2x2.eval_terminal(pair, x)), atol=1e-15
            )


class TestBilateral:
    def test_sandwich_pairwise(self, spec_2x2, quad_2x2):
        for n in (1.0, 4.0):
            under, _ = solve_upper_reflected(spec_2x2, GRID, TGRID, quad_2x2, n)
            for m in (1.0, 4.0):
                bar, _ = solve_lower_reflected(spec_2x2, GRID, TGRID, quad_2x2, m)
                assert_all_le(under.values, bar.values, 1e-9, f"sandwich n={n} m={m}")

    def test_ordering_direct_modes(self, spec_2x2, quad_2x2):
        up, _ = solve_minmax(spec_2x2, GRID, TGRID, quad_2x2, mode="direct")
        lo, _ = solve_maxmin(spec_2x2, GRID, TGRID, quad_2x2, mode="direct")
        assert_all_le(lo.values, up.values, 1e-8, "maxmin below minmax")

    def test_minmax_residual_structure(self, spec_2x2, quad_2x2):
        traj, report = solve_minmax(spec_2x2, GRID, TGRID, quad_2x2, mode="direct")
        assert max(report.obstacle_lower_violation) <= 1e-10
        res = residual_report(traj, spec_2x2, quad_2x2, system="minmax")
        assert res.residual_norms["overall"] <= 1e-8
        assert res.residual_norms["terminal"] == 0.0

    def test_modes_agree_within_twice_gap(self, spec_2x2, quad_2x2):
        grid = SpatialGrid.line(-2.0, 2.0, 61)
        tgrid = TimeGrid(horizon=0.5, n_steps=200)
        schedule = (1, 2, 4, 8, 16, 32, 64, 128, 256)
        for direct_solver in (solve_minmax, solve_maxmin):
            direct, _ = direct_solver(spec_2x2, grid, tgrid, quad_2x2, mode="direct")
            lim, rep = direct_solver(
                spec_2x2, grid, tgrid, quad_2x2, mode="limit", schedule=schedule, gap_tol=0.0, raise_on_nonconvergence=False
            )
            gap = rep.schedule_gaps[-1]
            assert direct.sup_distance(lim) <= 2.0 * gap + 1e-9

    def test_limit_mode_nonconvergence_raises_with_gaps(self, spec_2x2, quad_2x2):
        from switchvi.pde_solver import ScheduleNonConvergenceError

        with pytest.raises(ScheduleNonConvergenceError) as err:
            solve_minmax(spec_2x2, GRID, TGRID, quad_2x2, mode="limit", schedule=(1, 2, 4), gap_tol=1e-12)
        assert len(err.value.gaps) == 2
        assert err.value.trajectory is not None

    def test_maxmin_residual(self, spec_2x2, quad_2x2):
        traj, _ = solve_maxmin(spec_2x2, GRID, TGRID, quad_2x2, mode="direct")
        rep = residual_report(traj, spec_2x2, quad_2x2, system="maxmin")
        assert rep.residual_norms["overall"] <= 1e-12

    def test_limit_families_bracket_the_direct_solve(self, spec_2x2, quad_2x2):
        """Min-max's limit runs lower-reflected solves (upper penalty ``m``), which
        lie above the direct solve; max-min's runs upper-reflected solves (lower
        penalty ``n``), which lie below it."""
        direct, _ = solve_minmax(spec_2x2, GRID, TGRID, quad_2x2, mode="direct")
        limits = [
            solver(spec_2x2, GRID, TGRID, quad_2x2, mode="limit", schedule=(1, 2), gap_tol=0.0, raise_on_nonconvergence=False)
            for solver in (solve_minmax, solve_maxmin)
        ]
        (above, above_report), (below, below_report) = limits
        assert (above_report.extra["penalties"], below_report.extra["penalties"]) == ({"m": 2.0}, {"n": 2.0})
        assert_all_le(direct.values, above.values, 1e-12, "min-max limit above the direct solve")
        assert_all_le(below.values, direct.values, 1e-12, "max-min limit below the direct solve")
        assert min(above.sup_distance(direct), below.sup_distance(direct)) > 1e-6

    def test_limit_mode_schedule_respects_cfl(self, spec_2x2, quad_2x2):
        # huge penalties are skipped instead of blowing up the explicit step
        _, rep = solve_minmax(
            spec_2x2, GRID, TGRID, quad_2x2, mode="limit", schedule=(1, 2, 4, 1e6), gap_tol=0.0, raise_on_nonconvergence=False
        )
        assert 1e6 not in rep.schedule
        assert not rep.converged

    def test_single_pair_reduces_to_penalized_bitwise(self):
        spec = const_driver_spec(0.3)
        quad = build_levy_quadrature(spec.levy)
        pen, _ = solve_penalized(spec, GRID, TGRID, quad, 0.0, 0.0)
        mm, _ = solve_minmax(spec, GRID, TGRID, quad, mode="direct")
        assert np.array_equal(pen.values, mm.values)

    def test_no_upper_obstacle_makes_orders_agree_bitwise(self, spec_two_atom, quad_two_atom):
        a, _ = solve_minmax(spec_two_atom, GRID, TGRID, quad_two_atom, mode="direct")
        b, _ = solve_maxmin(spec_two_atom, GRID, TGRID, quad_two_atom, mode="direct")
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("solver", [solve_minmax, solve_maxmin])
    def test_unknown_mode_is_named_before_the_loop_gate(self, solver):
        """A zero-cost loop would fail the gate; the mode is checked first."""
        free = make_spec(modes={"m1": 2, "m2": 1}, lower_costs={"default": "0"}, upper_costs={})
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            solver(free, GRID, TGRID, build_levy_quadrature(free.levy), mode="bogus")

    @pytest.mark.parametrize("schedule", [(), (4, 4), (0, -1), (2, 1), (1, float("inf")), (1, float("nan")), (True, 2)])
    @pytest.mark.parametrize("solver", [solve_minmax, solve_maxmin])
    def test_limit_schedule_must_be_positive_and_increasing(self, solver, schedule, spec_no_jump):
        """An empty schedule raised a schedule error that named no gaps, a
        repeated or non-positive one returned converged after one run, and a
        boolean entry ran as the penalty 1."""
        grid, tgrid = SpatialGrid.line(-2.0, 2.0, 41), TimeGrid(horizon=0.5, n_steps=20)
        with pytest.raises(ValueError, match="schedule") as err:
            solver(spec_no_jump, grid, tgrid, build_levy_quadrature(spec_no_jump.levy), mode="limit", schedule=schedule)
        assert type(err.value) is ValueError
        assert repr(schedule) in str(err.value)

    @pytest.mark.parametrize("solver", [solve_minmax, solve_maxmin])
    def test_bad_schedule_is_named_before_the_loop_gate(self, solver):
        free = make_spec(modes={"m1": 2, "m2": 1}, lower_costs={"default": "0"}, upper_costs={})
        with pytest.raises(ValueError, match="schedule") as err:
            solver(free, GRID, TGRID, build_levy_quadrature(free.levy), mode="limit", schedule=())
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("schedule", [[1, 2.5, 4], (np.int64(1), np.float64(3.0)), np.array([0.5, 8.0]), range(1, 4)])
    def test_check_schedule_keeps_the_entries(self, schedule):
        assert pde_solver.check_schedule(schedule) == tuple(schedule)

    @pytest.mark.parametrize(
        "schedule", [4, "12", [[1, 2]], [1, "2"], None, np.array([[1.0, 2.0]]), [True, 2], [np.True_, 2], [1, 10**400]], ids=short_id
    )
    def test_check_schedule_rejects_anything_but_a_sequence_of_numbers(self, schedule):
        with pytest.raises(ValueError, match="schedule"):
            pde_solver.check_schedule(schedule)

    def test_the_clip_gives_L_where_the_obstacles_conflict(self):
        """Both bilateral systems run ``max(L, min(U, .))``: where ``L > U``,
        which a gated fixed point only reaches by rounding, it gives L."""
        pde = np.array([-1.0, 0.5, 3.0])
        L, U = np.full(3, 1.0), np.full(3, 0.25)
        for system in ("minmax", "maxmin"):
            assert np.array_equal(pde_solver._project(pde, L, U, pde_solver._PROJECTED[system]), L)

    @pytest.mark.parametrize("projection", ["minmax", "maxmin"])
    def test_conflicting_free_loop_raises(self, projection):
        """Equal costs 0.1 make the loop (0,0) -> (1,0) -> (1,1) -> (0,1) -> (0,0) sum
        to 0; from spreads that force ``L > U`` at (0,0) the passes never settle."""
        values = np.broadcast_to(np.array([[0.0, 2.0], [3.0, 0.0]])[:, :, None], (2, 2, 3)).copy()
        costs = np.full((2, 2, 3), 0.1)
        assert not non_free(costs, costs)
        with pytest.raises(SweepNonConvergenceError):
            sweep(values, costs, costs, projection, SchemeConfig(max_sweeps=200))


class TestWallClock:
    """``wall_clock_s`` times the whole solve: the workspace, the loop gate and,
    in limit mode, every schedule entry.  A fake clock advances 1,000 per
    workspace, 100 per loop gate and 1 per step."""

    @pytest.fixture
    def clock(self, monkeypatch):
        now = [0.0]

        def advancing(fn, amount):
            def run(*args, **kwargs):
                now[0] += amount
                return fn(*args, **kwargs)

            return run

        monkeypatch.setattr(pde_solver, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(_Workspace, "__init__", advancing(_Workspace.__init__, 1000.0))
        monkeypatch.setattr(pde_solver, "_gate_loops", advancing(pde_solver._gate_loops, 100.0))
        monkeypatch.setattr(_Workspace, "step", advancing(_Workspace.step, 1.0))

    @pytest.mark.parametrize("solver", [solve_minmax, solve_maxmin])
    def test_limit_mode_times_every_schedule_entry(self, spec_2x2, quad_2x2, clock, solver):
        """It read 25, the last entry's backward loop."""
        _, report = solver(spec_2x2, GRID, TGRID, quad_2x2, mode="limit", schedule=(1, 2, 4), gap_tol=0.0, raise_on_nonconvergence=False)
        assert report.schedule == [1, 2, 4]
        assert report.wall_clock_s == 4 * 1000 + 4 * 100 + 3 * TGRID.n_steps  # a workspace and a gate per entry, and the limit's own

    def test_a_schedule_that_does_not_converge_reports_its_whole_time(self, spec_2x2, quad_2x2, clock):
        with pytest.raises(ScheduleNonConvergenceError) as err:
            solve_minmax(spec_2x2, GRID, TGRID, quad_2x2, mode="limit", schedule=(1, 2), gap_tol=0.0)
        assert err.value.report.wall_clock_s == 3 * 1000 + 3 * 100 + 2 * TGRID.n_steps

    @pytest.mark.parametrize("solve", [
        lambda *args: solve_minmax(*args, mode="direct"),
        lambda *args: solve_penalized(*args, 1.0, 1.0),
        lambda *args: solve_lower_reflected(*args, 1.0),
    ], ids=["direct", "penalized", "lower"])
    def test_a_single_solve_times_its_workspace_and_gate(self, spec_2x2, quad_2x2, clock, solve):
        """It read 25, the backward loop alone."""
        _, report = solve(spec_2x2, GRID, TGRID, quad_2x2)
        assert report.wall_clock_s == 1000 + 100 + TGRID.n_steps


class TestResiduals:
    def test_fresh_penalized_residual_zero(self, spec_2x2, quad_2x2):
        traj, _ = solve_penalized(spec_2x2, GRID, TGRID, quad_2x2, 2.0, 2.0)
        rep = residual_report(traj, spec_2x2, quad_2x2, system="penalized", n=2.0, m=2.0)
        assert rep.residual_norms["overall"] <= 1e-13

    def test_perturbation_detected(self, spec_2x2, quad_2x2):
        traj, _ = solve_minmax(spec_2x2, GRID, TGRID, quad_2x2, mode="direct")
        traj.values[TGRID.n_steps // 2, 0, 0, 20] += 1.0
        rep = residual_report(traj, spec_2x2, quad_2x2, system="minmax")
        assert rep.residual_norms["overall"] > 0.1

    @pytest.mark.parametrize("system,n,m", [("lower", 0.0, 100.0), ("upper", 100.0, 0.0), ("minmax", 0.0, 0.0), ("maxmin", 0.0, 0.0)])
    def test_a_projected_obstacle_takes_no_penalty(self, system, n, m, spec_2x2, quad_2x2):
        """On a trajectory that violates both obstacles, the residual of a system
        ignores the penalty given for an obstacle it projects (``n`` for L, ``m``
        for U), even one so large that the projection would not mask it."""
        traj, _ = solve_penalized(spec_2x2, GRID, TGRID, quad_2x2, 2.0, 2.0)
        given = residual_report(traj, spec_2x2, quad_2x2, system=system, n=100.0, m=100.0)
        kept = residual_report(traj, spec_2x2, quad_2x2, system=system, n=n, m=m)
        assert (given.update_norms, given.residual_norms) == (kept.update_norms, kept.residual_norms)

    @pytest.mark.parametrize(
        "grid,tgrid", [(SpatialGrid.line(-3.0, 3.0, 41), TimeGrid(0.5, 20)), (GRID, TimeGrid(0.5, 40))], ids=["box-3", "40-steps"]
    )
    def test_reads_the_trajectorys_own_grids(self, grid, tgrid, spec_2x2, quad_2x2):
        """Grids given beside the trajectory were trusted to be its own: on a 41
        x 20 solve, a 41-node grid on [-3, 3] gave 3.0e-3, a 10-step time grid
        checked 10 levels at the wrong times and a 40-step one raised IndexError."""
        traj, _ = solve_minmax(spec_2x2, grid, tgrid, quad_2x2)
        rep = residual_report(traj, spec_2x2, quad_2x2, system="minmax")
        assert (rep.dt, rep.n_steps, len(rep.update_norms)) == (tgrid.dt, tgrid.n_steps, tgrid.n_steps)
        assert rep.residual_norms["overall"] == 0.0

    def test_unknown_system_rejected(self, spec_2x2, quad_2x2):
        traj, _ = solve_penalized(spec_2x2, GRID, TGRID, quad_2x2, 2.0, 2.0)
        with pytest.raises(ValueError, match="unknown system 'bilateral'"):
            residual_report(traj, spec_2x2, quad_2x2, system="bilateral")

    @pytest.mark.parametrize("mode", ["explicit", "imex"])
    @pytest.mark.parametrize("problem", ["no_jump", "switch_2x2_jump", "two_atom_jump"])
    def test_fresh_upper_reflected_residual_zero(self, problem, mode):
        spec = load_builtin_problem(problem)
        quad = build_levy_quadrature(spec.levy)
        config = SchemeConfig(mode=mode)
        traj, _ = solve_upper_reflected(spec, GRID, TGRID, quad, 2.0, config)
        rep = residual_report(traj, spec, quad, system="upper", n=2.0, config=config)
        assert rep.residual_norms["overall"] == 0.0

    def test_upper_reflected_perturbation_detected(self, spec_2x2, quad_2x2):
        traj, _ = solve_upper_reflected(spec_2x2, GRID, TGRID, quad_2x2, 2.0)
        traj.values[TGRID.n_steps // 2, 0, 0, 20] += 1e-3
        rep = residual_report(traj, spec_2x2, quad_2x2, system="upper", n=2.0)
        assert rep.residual_norms["overall"] >= 0.9e-3

    def test_lower_reflected_residual(self, spec_2x2, quad_2x2):
        traj, _ = solve_lower_reflected(spec_2x2, GRID, TGRID, quad_2x2, 4.0)
        rep = residual_report(traj, spec_2x2, quad_2x2, system="lower", m=4.0)
        assert rep.residual_norms["overall"] <= 1e-12

    SOLVES = {
        "penalized": lambda spec, quad, config: solve_penalized(spec, GRID, TGRID, quad, 2.0, 3.0, config),
        "lower": lambda spec, quad, config: solve_lower_reflected(spec, GRID, TGRID, quad, 3.0, config),
        "upper": lambda spec, quad, config: solve_upper_reflected(spec, GRID, TGRID, quad, 2.0, config),
        "minmax": lambda spec, quad, config: solve_minmax(spec, GRID, TGRID, quad, config=config),
        "maxmin": lambda spec, quad, config: solve_maxmin(spec, GRID, TGRID, quad, config=config),
    }

    @pytest.mark.parametrize("mode", ["explicit", "imex"])
    @pytest.mark.parametrize("system", list(SOLVES))
    def test_fresh_residual_zero_with_costs_in_t(self, system, mode):
        """Lower costs ``0.3 + 0.1*t``: the residuals read each level's costs, not the first level's."""
        spec = no_jump_in_time()
        quad = build_levy_quadrature(spec.levy)
        config = SchemeConfig(mode=mode)
        traj, _ = self.SOLVES[system](spec, quad, config)
        rep = residual_report(traj, spec, quad, system, n=2.0, m=3.0, config=config)
        assert rep.residual_norms["overall"] == 0.0


class TestTimeGridHorizon:
    """A time grid whose horizon is not the problem's is rejected, naming both
    horizons.  With costs that read t, the terminal gate read the obstacles at
    the grid's expiry while the validator read them at the problem's, and the
    solve failed with a report that named no violation."""

    ENTRIES = {
        "penalized": lambda spec, tgrid, quad: solve_penalized(spec, GRID, tgrid, quad, 1.0, 1.0),
        "lower": lambda spec, tgrid, quad: solve_lower_reflected(spec, GRID, tgrid, quad, 1.0),
        "upper": lambda spec, tgrid, quad: solve_upper_reflected(spec, GRID, tgrid, quad, 1.0),
        "minmax": lambda spec, tgrid, quad: solve_minmax(spec, GRID, tgrid, quad),
        "maxmin-limit": lambda spec, tgrid, quad: solve_maxmin(spec, GRID, tgrid, quad, mode="limit", schedule=(1, 2), raise_on_nonconvergence=False),
        "cfl": lambda spec, tgrid, quad: compute_cfl_bound(spec, GRID, tgrid, quad, 0.0, 0.0),
        # the oracle and the paths ran the other problem without a word
        "oracle": lambda spec, tgrid, quad: build_discrete_game(spec, GRID, tgrid, quad),
        "paths": lambda spec, tgrid, quad: simulate_paths(spec, quad, 0.0, 10, tgrid, seed=1),
    }

    @staticmethod
    def spec():
        return make_spec(modes={"m1": 2, "m2": 1}, lower_costs={"default": "0.3 + 4*t"}, terminal={"0,0": "0", "1,0": "1"})

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_every_entry_rejects_another_horizon(self, entry):
        spec = self.spec()
        quad = build_levy_quadrature(spec.levy)
        self.ENTRIES[entry](spec, TimeGrid(0.5, 10), quad)
        with pytest.raises(ValueError, match="horizon") as err:
            self.ENTRIES[entry](spec, TimeGrid(0.1, 10), quad)
        assert "0.1" in str(err.value) and "0.5" in str(err.value)
        assert not isinstance(err.value, AssumptionViolationError)

    def test_residual_report_rejects_another_horizon(self):
        spec = self.spec()
        quad = build_levy_quadrature(spec.levy)
        traj, _ = solve_minmax(spec, GRID, TimeGrid(0.5, 10), quad)
        with pytest.raises(ValueError, match="horizon") as err:
            residual_report(traj, dataclasses.replace(spec, horizon=0.1), quad, system="minmax")
        assert "0.1" in str(err.value) and "0.5" in str(err.value)


def no_jump_in_time(lower: str = "0.3 + 0.1*t"):
    """``no_jump`` with drift, volatility and lower costs that read t."""
    raw = json.loads((files("switchvi.problems") / "no_jump.json").read_text(encoding="utf-8"))
    raw.update(drift="0.1*x + 0.2*t", vol="0.25 + 0.1*t", lower_costs={"default": lower})
    return ProblemSpec.from_dict(raw)


def free_at_half() -> ProblemSpec:
    """2x2 costs whose mixed loops (0,0) -> (1,0) -> (1,1) -> (0,1) -> (0,0),
    both ways round, sum to 0 at x = 0.5 and nowhere else."""
    return make_spec(modes={"m1": 2, "m2": 2}, lower_costs={"default": "0.4"}, upper_costs={"default": "0.4 + 0.5*abs(x - 0.5)"})


class TestNonFreeLoopGate:
    """A bilateral solve checks the non-free-loop property at every node, and at
    every time of the time grid when a cost reads t; it used to check 3 x 3 points."""

    @pytest.mark.parametrize("mode", ["direct", "limit"])
    @pytest.mark.parametrize("solve", [solve_minmax, solve_maxmin])
    def test_a_loop_free_at_one_node_is_rejected(self, solve, mode):
        spec = free_at_half()
        with pytest.raises(AssumptionViolationError) as err:
            solve(spec, SpatialGrid.line(-1.0, 1.0, 41), TimeGrid(0.5, 20), build_levy_quadrature(spec.levy), mode=mode)
        witness = err.value.report.violations[0]
        assert witness["loop"] == [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
        assert witness["point"] == [0.5, pytest.approx(0.5)]
        assert "'loop': [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]" in str(err.value)
        assert err.value.report.details["points_checked"] == 41

    def test_costs_free_between_the_old_sample_times_are_rejected(self):
        """Lower costs ``0.3 + t`` against upper costs 0.4: the mixed loops sum to
        ``0.2 - 2t``, zero at t = 0.1, a step time but none of 0, 0.25 and 0.5."""
        spec = no_jump_in_time("0.3 + t")
        with pytest.raises(AssumptionViolationError) as err:
            solve_minmax(spec, GRID, TGRID, build_levy_quadrature(spec.levy))
        witness = err.value.report.violations[0]
        assert witness["loop"] == [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
        assert witness["point"] == [pytest.approx(0.1), GRID.x_min]
        assert err.value.report.details["points_checked"] == (TGRID.n_steps + 1) * GRID.n_nodes

    def test_a_valid_4x3_spec_with_costs_in_t_passes(self):
        """No loop of at most 12 legs has lower and upper leg counts in the ratio of
        the costs, which stays within [3.27, 3.4] on [0, 0.5]."""
        spec = make_spec(modes={"m1": 4, "m2": 3}, lower_costs={"default": "0.5 + 0.1*t"}, upper_costs={"default": "1.7 + 0.2*t"})
        grid, tgrid = SpatialGrid.line(-1.0, 1.0, 11), TimeGrid(0.5, 5)
        report = validate_non_free_loop(spec, spec.loop_check_points(grid.axis(), tgrid.times()))
        assert report.passed and report.details == {"loops_checked": 27920, "points_checked": 66, "moves": "both"}
        traj, _ = solve_minmax(spec, grid, tgrid, build_levy_quadrature(spec.levy))
        assert traj.values.shape == (6, 4, 3, 11)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestTimeFreeCoefficients:
    """The workspace keeps coefficients that do not read t and re-evaluates the rest."""

    def test_time_dependent_coefficients_follow_t(self):
        spec = no_jump_in_time()
        quad = build_levy_quadrature(spec.levy)
        ws = _Workspace(spec, GRID, TGRID, quad, SchemeConfig(mode="imex"))
        x = GRID.axis()
        for t in (0.5, 0.1, 0.5, 0.3, 0.0):
            tables = spec.lower_cost_table(t, x), spec.upper_cost_table(t, x)
            for got, expected in zip(ws.obstacle_costs(t), map(other_mode_costs, tables)):
                assert (got is None) == (expected is None)
                assert expected is None or all(same_bits(a, b) for a, b in zip(got, expected))
            bp, bm, sig, a_diff = ws.local_coefficients(t)
            b = spec.eval_drift(t, x)
            assert same_bits(bp, np.maximum(b, 0.0)) and same_bits(bm, np.minimum(b, 0.0))
            assert same_bits(sig, spec.eval_vol(t, x))
            assert same_bits(a_diff, 0.5 * spec.eval_vol(t, x) ** 2 + ws.corr_coeff)

        values = spec.terminal_table(ws.x)
        fresh = _Workspace(spec, GRID, TGRID, quad, SchemeConfig(mode="imex"))
        assert same_bits(step(ws, values, 0.1, 2.0, 2.0), step(fresh, values, 0.1, 2.0, 2.0))

    def test_local_coefficients_do_not_alias_the_axis(self):
        spec = make_spec(vol="x")
        ws = _Workspace(spec, GRID, TGRID, build_levy_quadrature(spec.levy), SchemeConfig())
        axis = GRID.axis()
        sig = ws.local_coefficients(0.0)[2]
        sig *= 2.0
        assert same_bits(ws.x, axis)

    def test_time_free_coefficients_are_evaluated_independently_of_n_steps(self, spec_no_jump, monkeypatch):
        counts = Counter()
        for name in ("eval_drift", "eval_vol", "eval_lower_cost", "eval_upper_cost"):

            def counted(self, *args, _original=getattr(ProblemSpec, name), _name=name):
                counts[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(ProblemSpec, name, counted)
        quad = build_levy_quadrature(spec_no_jump.levy)
        imex = SchemeConfig(mode="imex")
        per_n_steps = []
        for n_steps in (5, 20):
            counts.clear()
            tgrid = TimeGrid(horizon=0.5, n_steps=n_steps)
            solve_minmax(spec_no_jump, GRID, tgrid, quad, mode="direct", config=imex)
            solve_penalized(spec_no_jump, GRID, tgrid, quad, 2.0, 2.0, imex)
            per_n_steps.append(dict(counts))
        assert set(per_n_steps[0]) == {"eval_drift", "eval_vol", "eval_lower_cost", "eval_upper_cost"}
        assert per_n_steps[0] == per_n_steps[1]


def switching_in_time(m1: int, m2: int, term: str = "0.05*z") -> ProblemSpec:
    """An ``m1 x m2`` game whose drift, volatility and switching costs read t;
    each driver has ``term`` in it."""
    pairs = [(i, j) for i in range(m1) for j in range(m2)]
    return make_spec(
        modes={"m1": m1, "m2": m2},
        drift="0.1*x + 0.2*t",
        vol="0.3 + 0.1*t",
        drivers={f"{i},{j}": f"{0.6 * (i - j)}*x + {term} + 0.1*q - 0.1*y_{i}_{j}" for i, j in pairs},
        lower_costs={"default": "0.3 + t"},
        upper_costs={"default": "0.2 + 0.5*t"},
        terminal={f"{i},{j}": repr(0.1 * (i - j)) for i, j in pairs},
    )


class TestObstaclesOncePerLevel:
    """The solver reuses each level's recorded obstacles instead of recomputing them."""

    @pytest.mark.parametrize("mode", ["explicit", "imex"])
    def test_step_with_recorded_obstacles_matches_a_fresh_step(self, mode):
        spec = switching_in_time(3, 2)
        quad = build_levy_quadrature(spec.levy)
        config = SchemeConfig(mode=mode)
        traj, _ = solve_penalized(spec, GRID, TGRID, quad, 2.0, 2.0, config)
        k = 12
        values, t = traj.values[k], float(traj.times[k])
        ws = _Workspace(spec, GRID, TGRID, quad, config)
        report = SolverReport(system="probe", dt=TGRID.dt, n_steps=TGRID.n_steps)
        obstacles = _record_obstacles(report, ws, values, t)
        stepped = ws.step(values, t, 2.0, 2.0, obstacles)
        fresh = step(_Workspace(spec, GRID, TGRID, quad, config), values, t, 2.0, 2.0)
        assert same_bits(stepped, fresh)
        assert same_bits(stepped, traj.values[k - 1])

    @pytest.mark.parametrize("mode", ["explicit", "imex"])
    @pytest.mark.parametrize("modes", [(3, 2), (1, 3), (3, 1)])
    def test_upper_reflected_violations_match_recomputation(self, modes, mode):
        spec = switching_in_time(*modes)
        quad = build_levy_quadrature(spec.levy)
        traj, report = solve_upper_reflected(spec, GRID, TGRID, quad, 3.0, SchemeConfig(mode=mode))
        m1, m2 = modes
        x = GRID.axis()
        lower, upper = [], []
        for values, t in zip(traj.values, traj.times):
            L, U = eval_obstacles(values, spec.obstacle_costs(float(t), x))
            lower.append(float(np.max(neg_part(values - L))) if m1 > 1 else 0.0)
            upper.append(float(np.max(pos_part(values - U))) if m2 > 1 else 0.0)
        assert same_bits(report.obstacle_lower_violation, lower)
        assert same_bits(report.obstacle_upper_violation, upper)
        assert m1 == 1 or max(lower) > 0.0  # the penalized lower obstacle is active


class TestJumpOperator:
    """The workspace's assembled jump sums against a per-pair, per-atom loop."""

    def test_pair_dependent_jump_weight_gets_its_own_driver_matrix(self):
        spec = make_spec(
            modes={"m1": 3, "m2": 2},
            jump_amplitude="0.8*e*(1 + 0.3*x)",
            jump_weights={"default": "0.5*min(abs(e), 1)", "0,1": "0.2*abs(e)"},
            levy={"atoms": [[0.5, 0.4], [-0.7, 0.3], [1.1, 0.2]]},
        )
        quad = build_levy_quadrature(spec.levy)
        ws = _Workspace(spec, GRID, TGRID, quad, SchemeConfig())
        assert ws.jumps.drivers.shape[0] == 2
        assert ws.jumps.driver_index.tolist() == [[0, 1], [0, 0], [0, 0]]
        values = np.random.default_rng(11).normal(size=(3, 2, GRID.n_nodes))
        gen, q = ws.jumps.apply(values)
        x = GRID.axis()
        for i, j in spec.modes.pairs():
            ref_gen = np.zeros_like(x)
            ref_q = np.zeros_like(x)
            for e_k, w_k in zip(quad.marks, quad.weights):
                beta = spec.eval_beta(x, float(e_k))
                shift = destination_table(GRID, x + beta).apply(values[i, j]) - values[i, j]
                ref_gen += w_k * shift
                ref_q += w_k * spec.eval_gamma((i, j), x, float(e_k)) * shift
            np.testing.assert_allclose(gen[i, j], ref_gen, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(q[i, j], ref_q, rtol=0.0, atol=1e-13)

    def test_no_atoms_builds_no_operator(self, spec_no_jump):
        ws = _Workspace(spec_no_jump, GRID, TGRID, build_levy_quadrature(spec_no_jump.levy), SchemeConfig())
        assert ws.jumps is None

    def test_one_stacked_product_equals_per_atom_sums(self):
        """Two distinct ``jump_weights`` tables on a 2x2 spec, so that each pair's
        driver sum is gathered from its own block of the one product; the
        operator holds its ``(1 + tables) nodes^2`` doubles once."""
        spec = make_spec(
            modes={"m1": 2, "m2": 2},
            jump_amplitude="0.8*e*(1 + 0.3*x)",
            jump_weights={"default": "0.5*min(abs(e), 1)", "1,0": "0.2*abs(e) - 0.3"},
            levy={"atoms": [[0.5, 0.4], [-0.7, 0.3], [1.1, 0.2]]},
        )
        quad = build_levy_quadrature(spec.levy)
        op = _Workspace(spec, GRID, TGRID, quad, SchemeConfig()).jumps
        assert op.driver_index.tolist() == [[0, 0], [1, 0]]
        n = GRID.n_nodes
        arrays = [a for a in vars(op).values() if isinstance(a, np.ndarray) and a.dtype == float]
        assert sum(a.size for a in arrays) == op.stacked.size == (1 + 2) * n * n
        assert op.stacked.flags.c_contiguous
        assert np.shares_memory(op.generator, op.stacked) and np.shares_memory(op.drivers, op.stacked)

        values = np.random.default_rng(12).normal(size=(2, 2, n))
        gen, q = op.apply(values)
        x = GRID.axis()
        for i, j in spec.modes.pairs():
            ref_gen = np.zeros_like(x)
            ref_q = np.zeros_like(x)
            for e_k, w_k in zip(quad.marks, quad.weights):
                shift = destination_table(GRID, x + spec.eval_beta(x, float(e_k))).apply(values[i, j]) - values[i, j]
                ref_gen += w_k * shift
                ref_q += w_k * spec.eval_gamma((i, j), x, float(e_k)) * shift
            np.testing.assert_allclose(gen[i, j], ref_gen, rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(q[i, j], ref_q, rtol=0.0, atol=1e-14)


def shift_upper_diffusion(surface, grid):
    """``second_derivative_surface`` with the upper neighbour's coefficient of
    every interior row moved by 1e-3 / dx^2."""
    out = second_derivative_surface(surface, grid)
    out[..., 1:-1] += 1e-3 * surface[..., 2:] / grid.dx**2
    return out


def scale_forward_drift(surface, grid, b_plus, b_minus):
    """``upwind_drift`` with the forward coefficient ``b^+`` moved by 1e-3 of itself."""
    return upwind_drift(surface, grid, b_plus * (1.0 + 1e-3), b_minus)


class TestStepWeights:
    """The step's local weights against the stencil helpers they are read off."""

    SPECS = {
        "no_jump": lambda: load_builtin_problem("no_jump"),
        "two_atom_jump": lambda: load_builtin_problem("two_atom_jump"),
        "switch_2x2_jump": lambda: load_builtin_problem("switch_2x2_jump"),
        "density": density_jump_spec,
        "3x2 in t": lambda: switching_in_time(3, 2),
    }

    @staticmethod
    def workspace(name: str, mode: str, n_nodes: int) -> _Workspace:
        spec = TestStepWeights.SPECS[name]()
        grid, tgrid = SpatialGrid.line(-2.0, 2.0, n_nodes), TimeGrid(spec.horizon, 200)
        return _Workspace(spec, grid, tgrid, build_levy_quadrature(spec.levy), SchemeConfig(mode=mode))

    @staticmethod
    def step_times(ws: _Workspace) -> list:
        return [float(t) for t in ws.tgrid.times()[[-1, 100, 1]]]

    @staticmethod
    def assert_local_part_matches_the_helpers(ws: _Workspace, t: float, values: np.ndarray) -> None:
        """``centre v + lower v[:-1] + upper v[1:]`` against ``v + dt (upwind_drift
        + a second_derivative_surface)`` (no diffusion in IMEX mode).  Forward
        error: each side rounds a handful of times on terms no larger than
        ``|v_k| + dt (|b_k| / dx + 4 a_k / dx^2) max |v_{k-1..k+1}|``, so the
        two agree within 8 eps of that at node k."""
        lower, centre, upper, _ = ws.local_weights(t)
        weighted = centre * values
        weighted[..., 1:] += lower * values[..., :-1]
        weighted[..., :-1] += upper * values[..., 1:]
        bp, bm, _, a_diff = ws.local_coefficients(t)
        rates = upwind_drift(values, ws.grid, bp, bm)
        explicit = ws.config.mode == "explicit"
        if explicit:
            rates += a_diff * second_derivative_surface(values, ws.grid)
        reference = values + ws.dt * rates
        padded = np.abs(np.pad(values, [(0, 0)] * (values.ndim - 1) + [(1, 1)], mode="edge"))
        neighbours = np.maximum(np.maximum(padded[..., :-2], padded[..., 1:-1]), padded[..., 2:])
        coefficient = ws.dt * ((bp - bm) / ws.dx + (4.0 * a_diff / ws.dx**2 if explicit else 0.0))
        bound = 8.0 * np.finfo(float).eps * (np.abs(values) + coefficient * neighbours)
        excess = np.abs(weighted - reference) - bound
        assert np.all(excess <= 0.0), f"local part off the helpers by {float(np.max(excess)):.3e} beyond the bound"

    @staticmethod
    def noisy_values(ws: _Workspace) -> np.ndarray:
        noise = np.random.default_rng(5).normal(scale=0.2, size=(ws.m1, ws.m2, ws.n_nodes))
        return ws.spec.terminal_table(ws.x) + noise

    @pytest.mark.parametrize("n_nodes", [21, 201])
    @pytest.mark.parametrize("mode", ["explicit", "imex"])
    @pytest.mark.parametrize("name", list(SPECS))
    def test_weights_are_monotone_sum_to_one_and_match_the_helpers(self, name, mode, n_nodes):
        ws = self.workspace(name, mode, n_nodes)
        try:
            ws.check_cfl(0.0, 0.0)
        except CflViolationError:  # the 3x2 spec in t, explicit at 201 nodes
            stable = False
        else:
            stable = True
        values = self.noisy_values(ws)
        for t in self.step_times(ws):
            lower, centre, upper, _ = ws.local_weights(t)
            assert lower.shape == upper.shape == (n_nodes - 1,) and centre.shape == (n_nodes,)
            rows = zip(np.append(0.0, lower), centre, np.append(upper, 0.0))
            sums = np.array([math.fsum(row) for row in rows])  # exact, rounded once
            assert np.all(np.abs(sums - 1.0) <= 2.0 * np.finfo(float).eps)
            assert not stable or (np.all(lower >= 0.0) and np.all(upper >= 0.0))
            self.assert_local_part_matches_the_helpers(ws, t, values)

    @pytest.mark.parametrize("n_nodes", [21, 201])
    @pytest.mark.parametrize("name", list(SPECS))
    def test_imex_banded_rows_are_the_clamped_diffusion_matrix(self, name, n_nodes):
        ws = self.workspace(name, "imex", n_nodes)
        for t in self.step_times(ws):
            banded = ws.local_weights(t)[3]
            r = ws.dt * ws.local_coefficients(t)[3] / ws.dx**2
            diagonal = 1.0 + 2.0 * r
            diagonal[[0, -1]] = 1.0 + r[[0, -1]]
            assert np.all(np.abs(banded[1] - diagonal) <= np.spacing(diagonal))
            assert np.all(np.abs(banded[0, 1:] + r[:-1]) <= np.spacing(r[:-1]))
            assert np.all(np.abs(banded[2, :-1] + r[1:]) <= np.spacing(r[1:]))
            assert banded[0, 0] == banded[2, -1] == 0.0
        assert ws.local_weights(0.0)[3] is not None and self.workspace(name, "explicit", n_nodes).local_weights(0.0)[3] is None

    @pytest.mark.parametrize("helper,perturbed", [("second_derivative_surface", shift_upper_diffusion), ("upwind_drift", scale_forward_drift)])
    def test_a_moved_stencil_coefficient_fails_the_comparison(self, helper, perturbed, monkeypatch):
        monkeypatch.setattr(pde_solver, helper, perturbed)
        ws = self.workspace("switch_2x2_jump", "explicit", 201)
        with pytest.raises(AssertionError, match="beyond the bound"):
            self.assert_local_part_matches_the_helpers(ws, ws.tgrid.horizon, self.noisy_values(ws))

    def test_helpers_are_read_once_per_distinct_step_time(self, monkeypatch):
        counts = Counter()
        for helper in ("upwind_drift", "second_derivative_surface"):

            def counted(*args, _original=getattr(pde_solver, helper), _name=helper):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(pde_solver, helper, counted)
        for name, reads_t in (("switch_2x2_jump", False), ("3x2 in t", True)):
            counts.clear()
            ws = self.workspace(name, "explicit", 21)
            solve_penalized(ws.spec, ws.grid, ws.tgrid, build_levy_quadrature(ws.spec.levy), 2.0, 2.0)
            expected = ws.tgrid.n_steps if reads_t else 1
            assert counts == {"upwind_drift": expected, "second_derivative_surface": expected}


_DENSITY_SOLVE = """
import hashlib, json
from importlib.resources import files
from switchvi.discretization import SpatialGrid, TimeGrid, build_levy_quadrature
from switchvi.model import load_problem
from switchvi.pde_solver import solve_minmax
raw = json.loads((files("switchvi.problems") / "switch_2x2_jump.json").read_text(encoding="utf-8"))
raw.update(levy={"density": "0.4*exp(-abs(e))", "radius": 1.0, "cutoff": 0.05})
spec = load_problem(raw)
quad = build_levy_quadrature(spec.levy)
assert quad.n_atoms == 64
traj, _ = solve_minmax(spec, SpatialGrid.line(-2.0, 2.0, 101), TimeGrid(spec.horizon, 50), quad, mode="direct")
print(hashlib.sha256(traj.values.tobytes()).hexdigest())
"""


def test_trajectory_bytes_do_not_depend_on_blas_threads():
    """At 101 nodes the step's matrix products give the same bytes on one and on two BLAS threads."""
    src = str(Path(switchvi.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        run = subprocess.run([sys.executable, "-c", _DENSITY_SOLVE], env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


_IMEX_SOLVE_401 = """
import sys
import numpy as np
from switchvi.discretization import SpatialGrid, TimeGrid, build_levy_quadrature
from switchvi.model import load_builtin_problem
from switchvi.pde_solver import SchemeConfig, solve_minmax
spec = load_builtin_problem("switch_2x2_jump")
grid, tgrid = SpatialGrid.line(-2.0, 2.0, 401), TimeGrid(spec.horizon, 200)
traj, _ = solve_minmax(spec, grid, tgrid, build_levy_quadrature(spec.levy), mode="direct", config=SchemeConfig(mode="imex"))
np.save(sys.argv[1], traj.values)
"""


def test_trajectory_on_two_blas_threads_stays_within_rounding_at_401_nodes(tmp_path):
    """From about 401 nodes the dense jump product splits its sums by BLAS
    thread, so the bytes depend on the thread count (1.1e-16 apart here on
    switch_2x2_jump, IMEX, 401 x 200); the values stay within rounding."""
    src = str(Path(switchvi.__file__).resolve().parents[1])
    values = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        out = tmp_path / f"threads{threads}.npy"
        run = subprocess.run([sys.executable, "-c", _IMEX_SOLVE_401, str(out)], env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        values.append(np.load(out))
    assert values[0].shape == (201, 2, 2, 401)
    assert float(np.max(np.abs(values[0] - values[1]))) <= 1e-14


def pair_loop_sweep(values: np.ndarray, lc: np.ndarray, uc: np.ndarray, projection: str, config: SchemeConfig) -> int:
    """Gauss-Seidel one mode pair at a time, each obstacle a loop over the other modes."""
    m1, m2 = values.shape[:2]
    pairs = [(i, j) for i in range(m1) for j in range(m2)]
    pde = values.copy()
    passes = 0
    for sweep in range(config.max_sweeps):
        worst = 0.0
        for i, j in pairs if sweep % 2 == 0 else pairs[::-1]:
            L, U = -np.inf, np.inf
            for k in range(m1):
                if k != i and projection != "upper":
                    L = np.maximum(L, values[k, j] - lc[i, k])
            for l in range(m2):
                if l != j and projection != "lower":
                    U = np.minimum(U, values[i, l] + uc[j, l])
            new = {
                "lower": lambda: np.maximum(pde[i, j], L),
                "upper": lambda: np.minimum(pde[i, j], U),
                "minmax": lambda: np.maximum(L, np.minimum(U, pde[i, j])),
                "maxmin": lambda: np.minimum(U, np.maximum(L, pde[i, j])),
            }[projection]()
            delta = float(np.max(np.abs(new - values[i, j])))
            if delta > 0.0:
                values[i, j] = new
                worst = max(worst, delta)
        if worst == 0.0:
            return passes
        passes += 1
    raise SweepNonConvergenceError(worst, config.max_sweeps)


def sweep(values: np.ndarray, lc: np.ndarray, uc: np.ndarray, projection: str, config: SchemeConfig):
    """``_sweep`` on cost tables, in the format that ``_Workspace.obstacle_costs`` keeps."""
    return _sweep(values, gathered(lc, uc), pde_solver._PROJECTED[projection], config)


def assert_swept_obstacles(obstacles, values, lc, uc):
    """The sweep hands back ``eval_obstacles`` of the swept values, bit for bit."""
    for got, expected in zip(obstacles, eval_obstacles(values, gathered(lc, uc))):
        assert same_bits(got, expected)


def assert_reaches_the_pair_loop(values, lc, uc, projection, order=None) -> tuple[int, int]:
    """``_sweep`` ends, in place, at the values of the pair loop in ``order``
    (default ``projection``) (``==``), makes a pass exactly when the pair loop
    makes one, and hands back the swept values' obstacles; returns its pass
    count and the pair loop's."""
    expected = values.copy()
    passes = pair_loop_sweep(expected, lc, uc, order or projection, SchemeConfig())
    got, obstacles = sweep(values, lc, uc, projection, SchemeConfig())
    assert np.array_equal(values, expected)
    assert (got >= 1) == (passes >= 1)
    assert_swept_obstacles(obstacles, values, lc, uc)
    return got, passes


def noisy_start(spec, modes) -> np.ndarray:
    """The terminal data plus standard normal noise, the same draw every call."""
    return spec.terminal_table(GRID.axis()) + np.random.default_rng(5).normal(size=modes + (GRID.n_nodes,))


def chained_costs(spec, modes, t=0.3):
    """Cost tables growing with the square of the mode distance: off the triangle
    inequality, so a switch chains through the modes in between over several passes."""
    x = GRID.axis()
    lc, uc = spec.lower_cost_table(t, x), spec.upper_cost_table(t, x)
    lc += 0.5 * np.subtract.outer(np.arange(modes[0]), np.arange(modes[0]))[..., None] ** 2
    uc += 0.5 * np.subtract.outer(np.arange(modes[1]), np.arange(modes[1]))[..., None] ** 2
    return lc, uc


def non_free(lc: np.ndarray, uc: np.ndarray) -> bool:
    """Every simple loop's cost sum, ``-lower + upper`` legs as ``validate_non_free_loop``
    adds them, is non-zero at every node of the cost tail."""
    _, rows, _ = _loop_legs(lc.shape[0], uc.shape[0])
    sums = rows @ np.concatenate([lc.reshape(lc.shape[0] ** 2, -1), uc.reshape(uc.shape[0] ** 2, -1)])
    return bool(np.all(sums != 0.0))


@st.composite
def non_free_sweeps(draw):
    """Dyadic costs, so loop sums are exact, on up to 4 modes a player (not 4x4:
    its loops pass the enumeration cap); the cheaper player's costs are divided
    by 1, 4 or 64, and at 64 no loop that both players switch in can sum to 0."""
    m1, m2 = draw(st.sampled_from([(a, b) for a in range(1, 5) for b in range(1, 5) if a * b < 16]))
    scale, cheap = draw(st.sampled_from([1, 4, 64])), draw(st.sampled_from(["lower", "upper"]))

    def costs(m, side):
        numerators = draw(st.lists(st.integers(8, 16), min_size=m * m, max_size=m * m))
        return np.reshape(numerators, (m, m)) / (8.0 * (scale if side == cheap else 1)) * (1 - np.eye(m))

    lc, uc = costs(m1, "lower"), costs(m2, "upper")
    assume(non_free(lc, uc))
    start = np.reshape(draw(st.lists(st.integers(-16, 16), min_size=m1 * m2 * 3, max_size=m1 * m2 * 3)), (m1, m2, 3)) / 8.0
    return start, lc, uc, draw(st.sampled_from(["lower", "upper", "minmax", "maxmin"]))


def signed_zero_starts(lower_costs: tuple, upper_costs: tuple):
    """Starts of -1 to 0.5 with both zeros on 3x2 and 2x3 games, with per-node
    cost tables drawn from ``lower_costs`` and ``upper_costs``."""
    rng = np.random.default_rng(1)
    for modes in [(3, 2), (2, 3)] * 100:
        values = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5], size=modes + (2,))
        lc = rng.choice(lower_costs, size=(modes[0], modes[0], 2)) * (1 - np.eye(modes[0]))[..., None]
        uc = rng.choice(upper_costs, size=(modes[1], modes[1], 2)) * (1 - np.eye(modes[1]))[..., None]
        yield values, lc, uc


class TestSweepFixedPoint:
    """Whole-stack passes reach the pair loop's fixed point on non-free costs,
    and hand back the obstacles of the swept values."""

    @pytest.mark.parametrize("start", ["noisy", "swept"])
    @pytest.mark.parametrize("projection", ["lower", "upper", "minmax", "maxmin"])
    @pytest.mark.parametrize("modes", [(3, 2), (2, 3), (3, 3), (4, 2), (2, 4), (1, 1), (1, 2), (2, 1)])
    def test_reaches_the_pair_loop_fixed_point(self, modes, projection, start):
        """A player with one mode (the last three shapes) has the sentinel obstacle.
        A swept start is a fixed point: no pass changes it, and the first check's
        obstacles come back.  Max-min runs the min-max clip, so its pair loop
        runs in min-max order; ``test_maxmin_order_differs_only_by_rounding``
        compares the max-min order."""
        spec = switching_in_time(*modes)
        lc, uc = chained_costs(spec, modes)
        values = noisy_start(spec, modes)
        order = "minmax" if projection == "maxmin" else projection
        if start == "swept":
            pair_loop_sweep(values, lc, uc, order, SchemeConfig())
        before = values.copy()
        got, passes = assert_reaches_the_pair_loop(values, lc, uc, projection, order)
        if start == "swept":
            assert got == 0 and same_bits(values, before)
            return
        swept_modes = {"lower": modes[0], "upper": modes[1]}.get(projection, max(modes))
        assert passes >= min(swept_modes - 1, 2) and (swept_modes > 1 or passes == 0)

    @settings(max_examples=200, deadline=None)
    @given(non_free_sweeps())
    def test_random_non_free_costs_reach_the_pair_loop_fixed_point(self, case):
        """Dyadic costs sum exactly, so the max-min-order pair loop reaches the
        clip's fixed point bitwise too."""
        start, lc, uc, projection = case
        assert_reaches_the_pair_loop(start, lc, uc, projection)

    @pytest.mark.parametrize("modes", [(3, 2), (2, 3), (3, 3), (4, 2), (2, 4)])
    def test_maxmin_order_differs_only_by_rounding(self, modes):
        """On the noisy chained-cost starts, whose loop sums round, the max-min-order
        pair loop leaves the clip's fixed point only where rounding leaves
        ``L > U``, and by a few ulp of the values."""
        spec = switching_in_time(*modes)
        lc, uc = chained_costs(spec, modes)
        clipped, maxmin = noisy_start(spec, modes), noisy_start(spec, modes)
        _, (L, U) = sweep(clipped, lc, uc, "maxmin", SchemeConfig())
        pair_loop_sweep(maxmin, lc, uc, "maxmin", SchemeConfig())
        differ = maxmin != clipped
        assert np.all(L[differ] > U[differ])
        assert np.all(np.abs(maxmin - clipped) <= 4 * np.spacing(np.max(np.abs(clipped))))

    @pytest.mark.parametrize("projection", ["lower", "upper", "minmax", "maxmin"])
    def test_max_sweeps_boundary(self, projection):
        """A level that the sweep settles in k changed passes raises at
        ``max_sweeps = k``, naming the last pass's largest change, and returns k
        at ``max_sweeps = k + 1``."""
        modes = (3, 3)
        spec = switching_in_time(*modes)
        lc, uc = chained_costs(spec, modes)
        start = noisy_start(spec, modes)
        k, _ = sweep(start.copy(), lc, uc, projection, SchemeConfig())
        assert k >= 2
        before, after = start.copy(), start.copy()
        with pytest.raises(SweepNonConvergenceError):
            sweep(before, lc, uc, projection, SchemeConfig(max_sweeps=k - 1))
        with pytest.raises(SweepNonConvergenceError) as err:
            sweep(after, lc, uc, projection, SchemeConfig(max_sweeps=k))
        assert (err.value.worst_residual, err.value.sweeps) == (float(np.max(np.abs(after - before))), k)
        values = start.copy()
        passes, obstacles = sweep(values, lc, uc, projection, SchemeConfig(max_sweeps=k + 1))
        assert passes == k
        assert_swept_obstacles(obstacles, values, lc, uc)

    @pytest.mark.parametrize("projection", ["lower", "upper", "minmax", "maxmin"])
    def test_signed_zeros_keep_their_bytes(self, projection):
        """On non-free costs (one player's dear, the other's cheap): an entry a pass
        leaves unchanged keeps its bytes, -0.0 or +0.0, while other entries change;
        the sweep ends at the pair loop's values."""
        sides = pde_solver._PROJECTED[projection]
        checked = 0
        dear, cheap = (0.5, 1.0), (0.125, 0.25)
        for start, lc, uc in (*signed_zero_starts(dear, cheap), *signed_zero_starts(cheap, dear)):
            if not non_free(lc, uc):
                continue
            checked += 1
            one = start.copy()
            assert_reaches_the_pair_loop(start.copy(), lc, uc, projection)
            new = pde_solver._project(start, *eval_obstacles(start, gathered(lc, uc)), sides)
            try:
                sweep(one, lc, uc, projection, SchemeConfig(max_sweeps=1))
            except SweepNonConvergenceError:
                pass
            assert same_bits(one, np.where(new != start, new, start))
        assert checked >= 300

    @pytest.mark.parametrize("projection", ["lower", "upper", "minmax", "maxmin"])
    def test_free_loops_settle_or_raise(self, projection):
        """With a zero-sum loop the fixed point need not be unique and the passes
        may cycle: the sweep returns a fixed point or raises the typed error."""
        config = SchemeConfig(max_sweeps=50)
        sides = pde_solver._PROJECTED[projection]
        checked = 0
        for start, lc, uc in signed_zero_starts((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)):
            if non_free(lc, uc):
                continue
            checked += 1
            values = start.copy()
            try:
                _, obstacles = sweep(values, lc, uc, projection, config)
            except SweepNonConvergenceError as err:
                assert err.sweeps == config.max_sweeps
                continue
            assert np.array_equal(pde_solver._project(start, *obstacles, sides), values)
            assert_swept_obstacles(obstacles, values, lc, uc)
        assert checked >= 50


def driver_arguments(ws: _Workspace, values: np.ndarray, t: float) -> tuple:
    """The gradient argument z, always computed, and the jump argument q of a step at ``values``."""
    z = ws.local_coefficients(t)[2] * gradient_surface(values, ws.grid)
    q = ws.jumps.apply(values)[1] if ws.jumps is not None else np.zeros_like(values)
    return z, q


def reference_step(ws: _Workspace, values: np.ndarray, t: float, n: float, m: float, drivers=None) -> np.ndarray:
    """The step with the gradient always computed and, unless a driver table
    ``drivers`` is given, one ``eval_driver`` call per pair, each pair's
    driver set apart; the local part by the workspace's weights, which
    ``TestStepWeights`` checks against the stencil helpers."""
    lower, centre, upper, banded = ws.local_weights(t)
    L, U = eval_obstacles(values, ws.spec.obstacle_costs(t, ws.x))
    entries = {driver_variable(i, j): values[i, j] for i, j in ws.pairs}
    z, q = driver_arguments(ws, values, t)
    rhs = np.empty_like(values)
    for i, j in ws.pairs:
        rhs[i, j] = ws.spec.eval_driver((i, j), t, ws.x, entries, z[i, j], q[i, j]) if drivers is None else drivers[i, j]
    if ws.jumps is not None:
        rhs += ws.jumps.apply(values)[0]
    rhs += n * neg_part(values - L)
    rhs -= m * pos_part(values - U)
    out = ws.dt * rhs
    out += centre * values
    out[..., 1:] += lower * values[..., :-1]
    out[..., :-1] += upper * values[..., 1:]
    return ws._implicit_diffusion(out, banded) if banded is not None else out


class TestDriverTableStep:
    """The step's one driver table against a per-pair ``eval_driver`` loop."""

    SPECS = {
        "no_jump": lambda: load_builtin_problem("no_jump"),
        "two_atom_jump": lambda: load_builtin_problem("two_atom_jump"),
        "switch_2x2_jump": lambda: load_builtin_problem("switch_2x2_jump"),
        "3x2 in t without z": lambda: switching_in_time(3, 2, term="0.3*t"),
        "3x2 in t with z": lambda: switching_in_time(3, 2),
    }

    @pytest.mark.parametrize("mode", ["explicit", "imex"])
    @pytest.mark.parametrize("name", list(SPECS))
    def test_equals_the_per_pair_reference(self, name, mode, monkeypatch):
        """The workspace's driver table against one ``eval_driver`` call per
        pair (bitwise for a driver that is not affine, within the
        forward-error bound for an affine one), and the step bitwise against
        the reference step that adds that table pair by pair."""
        spec = self.SPECS[name]()
        quad = build_levy_quadrature(spec.levy)
        ws = _Workspace(spec, GRID, TGRID, quad, SchemeConfig(mode=mode))
        noise = np.random.default_rng(3).normal(scale=0.2, size=(spec.modes.m1, spec.modes.m2, GRID.n_nodes))
        values = spec.terminal_table(GRID.axis()) + noise
        z, q = driver_arguments(ws, values, 0.3)
        table = ws.drivers(0.3, values, z if ws._drivers_read_z else 0.0, q)
        entries = {driver_variable(i, j): values[i, j] for i, j in ws.pairs}
        for pair in ws.pairs:
            expected = spec.eval_driver(pair, 0.3, ws.x, entries, z[pair], q[pair])
            ctx = {"t": 0.3, "x": ws.x, "z": z[pair], "q": q[pair], **entries}
            assert_matches_walker(spec.drivers[pair], table[pair], expected, ctx, f"pair {pair}")
        expected = reference_step(ws, values, 0.3, 2.0, 3.0, table)
        if not ws._drivers_read_z:
            monkeypatch.setattr(pde_solver, "gradient_surface", None)  # a driver without z needs no gradient
        assert same_bits(step(ws, values, 0.3, 2.0, 3.0), expected)

    @pytest.mark.parametrize("name,reads_z", [("no_jump", False), ("two_atom_jump", False), ("switch_2x2_jump", True)])
    def test_gradient_only_for_drivers_that_read_z(self, name, reads_z):
        spec = load_builtin_problem(name)
        assert _Workspace(spec, GRID, TGRID, build_levy_quadrature(spec.levy), SchemeConfig())._drivers_read_z == reads_z

    def test_driver_table_accepts_scalar_and_stacked_arguments(self, spec_2x2):
        x = GRID.axis()
        y = spec_2x2.terminal_table(x)
        q = np.random.default_rng(2).normal(size=y.shape)
        entries = {driver_variable(i, j): y[i, j] for i, j in spec_2x2.modes.pairs()}
        table = spec_2x2.driver_evaluator(x)(0.1, y, 0.5, q)
        for pair in spec_2x2.modes.pairs():
            expected = spec_2x2.eval_driver(pair, 0.1, x, entries, 0.5, q[pair])
            ctx = {"t": 0.1, "x": x, "z": 0.5, "q": q[pair], **entries}
            assert_matches_walker(spec_2x2.drivers[pair], table[pair], expected, ctx, f"pair {pair}")

    @pytest.mark.parametrize("q_term", list(CAP_Q_TERMS.values()), ids=list(CAP_Q_TERMS))
    def test_driver_table_at_the_mode_pair_cap(self, q_term, monkeypatch):
        """A 6x6 spec (36 pairs, the cap) matches eval_driver per pair
        (bitwise, or within the forward-error bound for affine drivers), and
        np.broadcast gets few enough arguments for numpy 1.x, which takes 32."""
        spec = mode_pair_cap_spec(q_term)
        pairs = list(spec.modes.pairs())
        x = GRID.axis()
        rng = np.random.default_rng(3)
        y, z = rng.normal(size=(2, 6, 6) + x.shape)
        entries = {driver_variable(i, j): y[i, j] for i, j in pairs}
        cap_broadcast_arguments(monkeypatch)
        table = spec.driver_evaluator(x)(0.2, y, z, 0.5)
        for pair in pairs:
            expected = spec.eval_driver(pair, 0.2, x, entries, z[pair], 0.5)
            ctx = {"t": 0.2, "x": x, "z": z[pair], "q": 0.5, **entries}
            assert_matches_walker(spec.drivers[pair], table[pair], expected, ctx, f"pair {pair}")


def reference_lipschitz(spec: ProblemSpec, grid: SpatialGrid, tgrid: TimeGrid) -> float:
    """The probe one time, pair and base at a time, with scalar bindings."""
    x = grid.axis()
    probe_x = x[:: max(1, len(x) // 8)]
    h = 1e-5
    pairs = list(spec.modes.pairs())
    bases = [np.zeros((spec.modes.m1, spec.modes.m2)), np.mean(spec.terminal_table(probe_x), axis=-1)]
    worst = 0.0
    for t in (0.0, 0.5 * tgrid.horizon, tgrid.horizon):
        for pair in pairs:
            for y0 in bases:
                entries = {driver_variable(p, l): float(y0[p, l]) for p, l in pairs}
                base = spec.eval_driver(pair, float(t), probe_x, entries, 0.0, 0.0)
                sq = np.zeros_like(probe_x)
                for other in pairs:
                    bumped = dict(entries)
                    bumped[driver_variable(*other)] = float(y0[other]) + h
                    dy = (spec.eval_driver(pair, float(t), probe_x, bumped, 0.0, 0.0) - base) / h
                    sq = sq + dy**2
                dz = (spec.eval_driver(pair, float(t), probe_x, entries, h, 0.0) - base) / h
                dq = (spec.eval_driver(pair, float(t), probe_x, entries, 0.0, h) - base) / h
                worst = max(worst, float(np.max(np.sqrt(sq + dz**2 + dq**2))))
    return worst


class TestDriverProbe:
    @pytest.mark.parametrize("name", ["no_jump", "two_atom_jump", "switch_2x2_jump", "drivers in t"])
    def test_equals_the_loop_reference_bitwise(self, name, monkeypatch):
        if name == "drivers in t":
            spec = make_spec(
                modes={"m1": 2, "m2": 2},
                drivers={"default": "exp(0.5*t)*y_0_1 + sqrt(1 + t*x*x) + 0.2*t*q - 0.3*y_1_1 + 0.1*z*t"},
                terminal={"0,0": "0.1*x", "default": "0.2*max(x, 0)"},
            )
        else:
            spec = load_builtin_problem(name)
        expected = reference_lipschitz(spec, GRID, TGRID)
        calls = Counter()
        original = ProblemSpec.eval_driver
        monkeypatch.setattr(ProblemSpec, "eval_driver", lambda self, *a: calls.update([a[0]]) or original(self, *a))
        assert estimate_driver_lipschitz(spec, GRID, TGRID) == expected
        assert dict(calls) == {pair: 1 for pair in spec.modes.pairs()}  # the base point and every bump in one call

    @pytest.mark.parametrize("q_term", list(CAP_Q_TERMS.values()), ids=list(CAP_Q_TERMS))
    def test_at_the_mode_pair_cap(self, q_term, monkeypatch):
        """The 6x6 spec's 40 driver bindings, with np.broadcast capped at numpy 1.x's 32 arguments."""
        spec = mode_pair_cap_spec(q_term)
        expected = reference_lipschitz(spec, GRID, TGRID)
        cap_broadcast_arguments(monkeypatch)
        assert estimate_driver_lipschitz(spec, GRID, TGRID) == expected


def shifted_terminal(spec: ProblemSpec, c: float) -> ProblemSpec:
    """``spec`` with every terminal datum moved by the constant ``c``."""
    return dataclasses.replace(spec, terminal={pair: BinOp("+", h, Num(c)) for pair, h in spec.terminal.items()})


def edge_spec() -> ProblemSpec:
    """A 1x1 ``switch_2x2_jump`` with driver 0 and terminal data that cross 0 near the box edge."""
    raw = json.loads((files("switchvi.problems") / "switch_2x2_jump.json").read_text(encoding="utf-8"))
    raw.update(modes={"m1": 1, "m2": 1}, drivers={"default": "0"}, lower_costs={}, upper_costs={}, terminal={"default": "0.8*exp(-x*x) - 0.8*exp(-4)"})
    return ProblemSpec.from_dict(raw)


CONTRACTION_SHIFT = 1e-12
CONTRACTION_FACTOR = 2.0  # times the 2e-12 data spread; the largest measured ratio was 1.0002


class TestContraction:
    """A monotone step that commutes with constants is a sup-norm contraction
    (Crandall & Tartar, Proc. AMS 78, 1980), so the solution depends
    continuously on its data: terminal data moved by +-1e-12 move every value
    by a small multiple of 2e-12.  Extrapolating beyond the box by a growth
    bound broke this: the edge spec's values moved by 6.6e-2."""

    @pytest.mark.parametrize("mode", ["explicit", "imex"])
    @pytest.mark.parametrize("problem", ["switch_2x2_jump", "two_atom_jump", "no_jump", "edge"])
    def test_data_moved_by_2e_12_move_every_value_by_a_small_multiple(self, problem, mode):
        spec = edge_spec() if problem == "edge" else load_builtin_problem(problem)
        grid, tgrid = SpatialGrid.line(-2.0, 2.0, 101), TimeGrid(horizon=spec.horizon, n_steps=50)
        quad, config = build_levy_quadrature(spec.levy), SchemeConfig(mode=mode)
        for solver in (solve_minmax, solve_maxmin):
            up, _ = solver(shifted_terminal(spec, CONTRACTION_SHIFT), grid, tgrid, quad, mode="direct", config=config)
            down, _ = solver(shifted_terminal(spec, -CONTRACTION_SHIFT), grid, tgrid, quad, mode="direct", config=config)
            assert up.sup_distance(down) <= CONTRACTION_FACTOR * 2 * CONTRACTION_SHIFT


@st.composite
def valid_bilateral_specs(draw):
    """2x2 to 3x3 games with dyadic constant costs of 1/4 to 1 whose loops
    never sum to 0, drivers that are monotone in the other entries and in the
    jump argument, and terminal data in the sandwich: bumps of height 0 to
    1/4, which differ by less than any cost."""
    m1, m2 = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))

    def costs(m):
        numerators = draw(st.lists(st.integers(2, 8), min_size=m * m, max_size=m * m))
        return np.reshape(numerators, (m, m)) / 8.0 * (1 - np.eye(m))

    lc, uc = costs(m1), costs(m2)
    assume(non_free(lc[..., None], uc[..., None]))
    pairs = [(i, j) for i in range(m1) for j in range(m2)]
    drivers, terminal = {}, {}
    for i, j in pairs:
        others = " + ".join(driver_variable(k, l) for k, l in pairs if (k, l) != (i, j))
        level, own = draw(st.integers(-8, 8)) / 8.0, draw(st.integers(0, 4)) / 8.0
        drivers[f"{i},{j}"] = f"{level} + 0.3*q + 0.1*z - {own}*y_{i}_{j} + 0.02*({others})"
        terminal[f"{i},{j}"] = f"{draw(st.integers(0, 4)) / 16.0}*exp(-x*x)"
    return make_spec(
        modes={"m1": m1, "m2": m2},
        drift="0.1*x",
        drivers=drivers,
        lower_costs={f"{i},{k}": str(lc[i, k]) for i in range(m1) for k in range(m1) if i != k},
        upper_costs={f"{j},{l}": str(uc[j, l]) for j in range(m2) for l in range(m2) if j != l},
        terminal=terminal,
    )


ORACLE_TOL = 1e-10  # the solver against the oracle's pair-ordered induction


class TestMinmaxEqualsMaxmin:
    """On a gated grid min-max and max-min have one fixed point (the module
    docstring's argument), so both run the clip ``max(L, min(U, .))``: direct
    ``solve_maxmin`` equals ``solve_minmax`` bitwise, and both lie within
    rounding of the oracle's own induction in either order."""

    @settings(max_examples=40, deadline=None)
    @given(valid_bilateral_specs())
    def test_the_two_orders_agree(self, spec):
        quad = build_levy_quadrature(spec.levy)
        up, _ = solve_minmax(spec, GRID, TGRID, quad, mode="direct")
        lo, _ = solve_maxmin(spec, GRID, TGRID, quad, mode="direct")
        assert same_bits(up.values, lo.values)
        game = build_discrete_game(spec, GRID, TGRID, quad)
        for order in ("minmax", "maxmin"):
            assert up.sup_distance(backward_induction(game, order=order)) <= ORACLE_TOL

    @pytest.mark.parametrize("mode", ["explicit", "imex"])
    @pytest.mark.parametrize("problem", ["switch_2x2_jump", "two_atom_jump", "no_jump"])
    def test_no_level_has_conflicting_obstacles(self, problem, mode):
        """No level of either direct solve of a shipped problem has ``L > U``
        at any node, so the two orders of the clip coincide there."""
        spec = load_builtin_problem(problem)
        grid, tgrid = SpatialGrid.line(-2.0, 2.0, 101), TimeGrid(horizon=spec.horizon, n_steps=50)
        quad, config = build_levy_quadrature(spec.levy), SchemeConfig(mode=mode)
        for solver in (solve_minmax, solve_maxmin):
            traj, _ = solver(spec, grid, tgrid, quad, mode="direct", config=config)
            for t, values in zip(traj.times, traj.values):
                L, U = eval_obstacles(values, spec.obstacle_costs(float(t), grid.axis()))
                assert np.count_nonzero(L > U) == 0
