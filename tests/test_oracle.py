from collections import Counter

import numpy as np
import pytest

from switchvi import oracle
from switchvi.discretization import SpatialGrid, TimeGrid, build_levy_quadrature
from switchvi.model import CapacityError, ProblemSpec, validate_non_free_loop
from switchvi.oracle import backward_induction, build_discrete_game
from switchvi.pde_solver import CflViolationError, SchemeConfig, SweepNonConvergenceError, solve_maxmin, solve_minmax

from conftest import make_spec

GRID = SpatialGrid.line(-2.0, 2.0, 41)
TGRID = TimeGrid(horizon=0.5, n_steps=20)


def spec_3x3():
    lower = {f"{i},{k}": repr(0.3 + 0.05 * i + 0.013 * k) for i in range(3) for k in range(3) if i != k}
    upper = {f"{j},{l}": repr(0.41 + 0.053 * j + 0.009 * l) for j in range(3) for l in range(3) if j != l}
    drivers = {}
    consts = [0.9, -0.1, 0.4, -0.45, 0.35, 0.05, 0.6, -0.3, 0.15]
    for i in range(3):
        for j in range(3):
            others = " + ".join(f"y_{a}_{b}" for a in range(3) for b in range(3) if (a, b) != (i, j))
            drivers[f"{i},{j}"] = f"{consts[3 * i + j]} + 0.3*q + 0.1*z - 0.15*y_{i}_{j} + 0.02*({others})"
    terminal = {f"{i},{j}": f"{0.7 + 0.05 * i - 0.03 * j}*exp(-x*x)" for i in range(3) for j in range(3)}
    return make_spec(
        modes={"m1": 3, "m2": 3},
        drivers=drivers,
        lower_costs=lower,
        upper_costs=upper,
        terminal=terminal,
    )


def chained_spec_3x3():
    """Costs growing with the square of the mode distance: a level needs two changed sweep passes."""
    pairs = [(i, j) for i in range(3) for j in range(3)]
    return make_spec(
        modes={"m1": 3, "m2": 3},
        drift="0.1*x",
        vol="0.3",
        drivers={f"{i},{j}": f"{3.0 * (i - j)}*x - 0.1*y_{i}_{j}" for i, j in pairs},
        lower_costs={f"{i},{k}": repr(0.3 + 0.05 * i + 0.013 * k + 0.5 * (i - k) ** 2) for i, k in pairs if i != k},
        upper_costs={f"{j},{l}": repr(0.41 + 0.053 * j + 0.009 * l + 0.5 * (j - l) ** 2) for j, l in pairs if j != l},
        terminal={"default": "0"},
    )


class TestGameBuild:
    def test_frozen_chain_identity_kernel(self):
        spec = make_spec(
            modes={"m1": 1, "m2": 1},
            drift="0",
            vol="0",
            jump_amplitude="0",
            jump_weights={"default": "0"},
            levy={"atoms": []},
            drivers={"default": "0"},
            lower_costs={},
            upper_costs={},
        )
        quad = build_levy_quadrature(spec.levy)
        game = build_discrete_game(spec, GRID, TGRID, quad)
        for k in range(TGRID.n_steps):
            np.testing.assert_array_equal(game.kernels[k], np.eye(41))

    def test_rows_are_probabilities(self, spec_2x2, quad_2x2):
        game = build_discrete_game(spec_2x2, GRID, TGRID, quad_2x2)
        sums = game.kernels.sum(axis=2)
        assert float(np.max(np.abs(sums - 1.0))) <= 1e-14
        assert float(np.min(game.kernels)) >= -1e-12

    def test_symmetric_diffusion_weights_without_drift(self):
        spec = make_spec(
            modes={"m1": 1, "m2": 1},
            drift="0",
            vol="0.3",
            jump_amplitude="0",
            jump_weights={"default": "0"},
            levy={"atoms": []},
            drivers={"default": "0"},
            lower_costs={},
            upper_costs={},
        )
        quad = build_levy_quadrature(spec.levy)
        game = build_discrete_game(spec, GRID, TGRID, quad)
        P = game.kernels[0]
        for i in range(1, 40):
            assert P[i, i + 1] == pytest.approx(P[i, i - 1])

    def test_kernel_bytes_cap(self, spec_2x2, quad_2x2, monkeypatch):
        """The cap bounds the kernels' bytes, 8 x steps x nodes², and is checked
        before any coefficient is read or any kernel allocated."""
        kernel_bytes = 8 * TGRID.n_steps * GRID.n_nodes**2
        monkeypatch.setattr(oracle, "MAX_KERNEL_BYTES", kernel_bytes)
        assert build_discrete_game(spec_2x2, GRID, TGRID, quad_2x2).kernels.nbytes == kernel_bytes
        monkeypatch.setattr(oracle, "MAX_KERNEL_BYTES", kernel_bytes - 1)
        monkeypatch.setattr(ProblemSpec, "jump_tables", lambda *args: pytest.fail("read a coefficient over the cap"))
        with pytest.raises(CapacityError, match=f"{kernel_bytes} bytes"):
            build_discrete_game(spec_2x2, GRID, TGRID, quad_2x2)

    def test_cfl_violation_reported(self, spec_2x2, quad_2x2):
        with pytest.raises(CflViolationError):
            build_discrete_game(spec_2x2, SpatialGrid.line(-2, 2, 401), TGRID, quad_2x2)


class TestInduction:
    def test_equivalence_minmax_2x2(self, spec_2x2, quad_2x2):
        traj, _ = solve_minmax(spec_2x2, GRID, TGRID, quad_2x2, mode="direct")
        game = build_discrete_game(spec_2x2, GRID, TGRID, quad_2x2)
        res = backward_induction(game, order="minmax")
        assert float(np.max(np.abs(traj.values - res.values))) <= 1e-10

    def test_equivalence_maxmin_2x2(self, spec_2x2, quad_2x2):
        traj, _ = solve_maxmin(spec_2x2, GRID, TGRID, quad_2x2, mode="direct")
        game = build_discrete_game(spec_2x2, GRID, TGRID, quad_2x2)
        res = backward_induction(game, order="maxmin")
        assert float(np.max(np.abs(traj.values - res.values))) <= 1e-10

    def test_equivalence_3x3(self):
        spec = spec_3x3()
        quad = build_levy_quadrature(spec.levy)
        pts = [(t, x) for t in (0.0, 0.25, 0.5) for x in (-2.0, 0.0, 2.0)]
        assert validate_non_free_loop(spec, pts).passed
        grid = SpatialGrid.line(-2.0, 2.0, 31)
        tgrid = TimeGrid(horizon=0.5, n_steps=20)
        game = build_discrete_game(spec, grid, tgrid, quad)
        for order, solver in (("minmax", solve_minmax), ("maxmin", solve_maxmin)):
            traj, _ = solver(spec, grid, tgrid, quad, mode="direct")
            res = backward_induction(game, order=order)
            assert float(np.max(np.abs(traj.values - res.values))) <= 1e-10

    def test_equivalence_when_a_level_needs_several_passes(self):
        """Costs growing with the square of the mode distance chain a switch over
        several Gauss-Seidel passes, so the induction must sweep past its first pass."""
        spec = chained_spec_3x3()
        quad = build_levy_quadrature(spec.levy)
        game = build_discrete_game(spec, GRID, TGRID, quad)
        for order, solver in (("minmax", solve_minmax), ("maxmin", solve_maxmin)):
            traj, report = solver(spec, GRID, TGRID, quad, mode="direct")
            assert max(report.sweep_counts) >= 2
            res = backward_induction(game, order=order)
            assert float(np.max(np.abs(traj.values - res.values))) <= 1e-10

    @pytest.mark.parametrize("order, solver", [("minmax", solve_minmax), ("maxmin", solve_maxmin)])
    def test_sweep_cap_raises_in_the_solver_and_the_induction(self, order, solver):
        """A level that needs two changed passes breaks ``max_sweeps=1`` on both sides."""
        spec = chained_spec_3x3()
        quad = build_levy_quadrature(spec.levy)
        config = SchemeConfig(max_sweeps=1)
        with pytest.raises(SweepNonConvergenceError):
            solver(spec, GRID, TGRID, quad, mode="direct", config=config)
        with pytest.raises(SweepNonConvergenceError):
            backward_induction(build_discrete_game(spec, GRID, TGRID, quad, config), order=order)

    def test_plain_recursion_closed_form(self):
        spec = make_spec(
            modes={"m1": 1, "m2": 1},
            drivers={"default": "0.7"},
            lower_costs={},
            upper_costs={},
            terminal={"default": "0"},
        )
        quad = build_levy_quadrature(spec.levy)
        game = build_discrete_game(spec, GRID, TGRID, quad)
        res = backward_induction(game, order="minmax")
        expected = 0.7 * (TGRID.horizon - res.times)[:, None, None, None]
        assert float(np.max(np.abs(res.values - expected))) <= 1e-12

    def test_order_comparison(self, spec_2x2, quad_2x2):
        game = build_discrete_game(spec_2x2, GRID, TGRID, quad_2x2)
        up = backward_induction(game, order="minmax")
        lo = backward_induction(game, order="maxmin")
        assert float(np.max(lo.values - up.values)) <= 1e-10

    def test_monotone_in_terminal_data(self, spec_2x2, quad_2x2):
        game = build_discrete_game(spec_2x2, GRID, TGRID, quad_2x2)
        res_a = backward_induction(game, order="minmax")
        lifted = build_discrete_game(spec_2x2, GRID, TGRID, quad_2x2)
        lifted.terminal = game.terminal + 1.0
        res_b = backward_induction(lifted, order="minmax")
        assert float(np.max(res_a.values - res_b.values)) <= 1e-10

    def test_stencil_perturbation_breaks_equivalence(self, spec_2x2, quad_2x2):
        traj, _ = solve_minmax(spec_2x2, GRID, TGRID, quad_2x2, mode="direct")
        game = build_discrete_game(spec_2x2, GRID, TGRID, quad_2x2, stencil_perturbation=(5, 20, 21, 1e-4))
        res = backward_induction(game, order="minmax")
        assert float(np.max(np.abs(traj.values - res.values))) > 1e-7

    def test_jump_coefficients_are_evaluated_independently_of_n_steps(self, spec_2x2, quad_2x2, monkeypatch):
        """beta and gamma do not read t, so the game tabulates them once:
        one call over every mark for beta and one per pair for gamma."""
        counts = Counter()
        for name in ("eval_beta", "eval_gamma"):

            def counted(self, *args, _original=getattr(ProblemSpec, name), _name=name):
                counts[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(ProblemSpec, name, counted)
        per_run = []
        for n_steps in (5, 10):
            counts.clear()
            game = build_discrete_game(spec_2x2, GRID, TimeGrid(horizon=0.5, n_steps=n_steps), quad_2x2)
            backward_induction(game, order="minmax")
            per_run.append(dict(counts))
        assert per_run[0] == per_run[1] == {"eval_beta": 1, "eval_gamma": 4}

    def test_values_export_in_trajectory_layout(self, spec_2x2, quad_2x2, tmp_path):
        from switchvi.export import trajectory_csv_files

        game = build_discrete_game(spec_2x2, GRID, TGRID, quad_2x2)
        traj = backward_induction(game, order="minmax")
        files = trajectory_csv_files(traj, tmp_path, stem="oracle", levels=[0])
        lines = files[0].read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,v_0_0,v_0_1,v_1_0,v_1_1"
        assert len(lines) == GRID.n_nodes + 1
