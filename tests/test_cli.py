import json
import time
from importlib.resources import files

import numpy as np
import pytest

from switchvi import export, oracle
from switchvi.cli import DEFAULT_SEED, main
from switchvi.discretization import SpatialGrid, TimeGrid, build_levy_quadrature
from switchvi.model import eval_obstacles, load_builtin_problem
from switchvi.pde_solver import Trajectory, solve_minmax


def write_config(tmp_path, name="run.json", **overrides):
    cfg = {
        "problem": "switch_2x2_jump",
        "grid": {"x_min": -2.0, "x_max": 2.0, "n_nodes": 101},
        "time": {"n_steps": 50},
        "scheme": {"mode": "explicit"},
        "solve": {"system": "minmax", "mode": "direct"},
        "output": {"levels": [0, 25, 50]},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestValidate:
    def test_shipped_problem_passes(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "validation.json").read_text())
        assert payload["passed"]

    def test_free_loop_rejected_with_witness(self, tmp_path):
        prob = {
            "name": "freeloop",
            "modes": {"m1": 2, "m2": 2},
            "horizon": 0.5,
            "drift": "0",
            "vol": "0.2",
            "drivers": {"default": "0"},
            "lower_costs": {"default": "1"},
            "upper_costs": {"default": "1"},
            "terminal": {"default": "0"},
        }
        cfg = write_config(tmp_path, problem=prob)
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        payload = json.loads((tmp_path / "out" / "validation.json").read_text())
        loop_report = next(r for r in payload["reports"] if r["name"] == "non_free_loop")
        assert loop_report["violations"], "expected a concrete loop witness"
        witness = loop_report["violations"][0]
        assert witness["loop"][0] == witness["loop"][-1]

    def test_a_loop_free_at_one_node_exits_1(self, tmp_path):
        """Upper costs ``0.4 + 0.5*abs(x - 0.5)`` against lower costs 0.4: the
        mixed loop is free at x = 0.5 only, node 125 of 201, which a check at
        every 12th node skipped."""
        prob = shipped_problem(lower_costs={"default": "0.4"}, upper_costs={"default": "0.4 + 0.5*abs(x - 0.5)"})
        cfg = write_config(tmp_path, problem=prob, grid={"x_min": -2.0, "x_max": 2.0, "n_nodes": 201})
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        payload = json.loads((tmp_path / "out" / "validation.json").read_text())
        loop_report = next(r for r in payload["reports"] if r["name"] == "non_free_loop")
        assert loop_report["details"]["points_checked"] == 201
        assert [v["point"][1] for v in loop_report["violations"]] == [pytest.approx(0.5)] * 2

    def test_terminal_violation_rejected_with_magnitude(self, tmp_path):
        prob = {
            "name": "badterminal",
            "modes": {"m1": 2, "m2": 1},
            "horizon": 0.5,
            "drift": "0",
            "vol": "0.2",
            "drivers": {"default": "0"},
            "lower_costs": {"default": "1"},
            "upper_costs": {},
            "terminal": {"0,0": "0", "1,0": "5"},
        }
        cfg = write_config(tmp_path, problem=prob)
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        payload = json.loads((tmp_path / "out" / "validation.json").read_text())
        term = next(r for r in payload["reports"] if r["name"] == "terminal_consistency")
        assert term["details"]["worst_violation"] == pytest.approx(4.0)

    def test_malformed_dsl_exit_2(self, tmp_path):
        prob = {
            "name": "broken",
            "modes": {"m1": 1, "m2": 1},
            "horizon": 0.5,
            "drivers": {"default": "x * ("},
            "terminal": {"default": "0"},
        }
        cfg = write_config(tmp_path, problem=prob)
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_bad_config_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2

    def test_unknown_problem_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, problem="no_such_problem")
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


class TestSolve:
    def test_smoke_under_budget_and_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        t0 = time.perf_counter()
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"smoke solve took {elapsed:.1f}s"
        assert (out / "minmax_level0000.csv").exists()
        assert (out / "plotdata.csv").exists()
        report = json.loads((out / "solve_report.json").read_text())
        assert report["report"]["system"] == "minmax(direct)"
        header = (out / "plotdata.csv").read_text().splitlines()[0]
        assert "v_0_0" in header and "L_0_0" in header and "U_0_0" in header

    @pytest.mark.parametrize("mode", ["limit", "direct"])
    def test_prints_the_reports_one_time(self, tmp_path, capsys, mode):
        """The command timed the solve itself and wrote that time as ``elapsed_s`` beside the report's own."""
        small = {"grid": {"x_min": -2.0, "x_max": 2.0, "n_nodes": 21}, "time": {"n_steps": 10}, "output": {"levels": [0]}}
        cfg = write_config(tmp_path, problem="two_atom_jump", solve={"system": "minmax", "mode": mode}, **small)
        capsys.readouterr()
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        written = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert set(written) == {"report", "files"}
        assert f" in {written['report']['wall_clock_s']:.2f}s;" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("minmax_level0000.csv", "minmax_level0025.csv", "plotdata.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_rerun_into_a_directory_named_like_the_problem(self, tmp_path):
        """A problem name resolves to the shipped instance even when the output
        directory next to the config has that name."""
        runs = tmp_path / "runs"
        runs.mkdir()
        cfg = write_config(
            runs, name="switch_2x2_jump.json", grid={"x_min": -2.0, "x_max": 2.0, "n_nodes": 21}, time={"n_steps": 10}, output={"levels": [0]}
        )
        out = runs / "switch_2x2_jump"
        for _ in range(2):
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0

    @pytest.mark.parametrize("x_min, shown", [(float("-inf"), "-inf"), ("-Infinity", "'-Infinity'")])
    def test_non_finite_grid_bound_exit_2_naming_the_grid(self, tmp_path, capsys, x_min, shown):
        """The JSON number -Infinity is not finite; the string "-Infinity" is not a number."""
        cfg = write_config(tmp_path, grid={"x_min": x_min, "x_max": 2.0, "n_nodes": 11})
        capsys.readouterr()
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "grid" in err and shown in err
        assert len(err.strip().splitlines()) == 1

    def test_unwritable_out_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        assert main(["solve", "--config", str(cfg), "--out", str(blocker / "sub")]) == 2

    def test_binary_snapshot(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--format", "bin"]) == 0
        snap = export.read_binary_snapshot(out / "minmax.bin")
        assert snap.values.shape == (51, 2, 2, 101)

    def test_a4_violation_needs_override(self, tmp_path):
        prob = {
            "name": "badterminal",
            "modes": {"m1": 2, "m2": 1},
            "horizon": 0.5,
            "drift": "0",
            "vol": "0.2",
            "drivers": {"default": "0"},
            "lower_costs": {"default": "1"},
            "upper_costs": {},
            "terminal": {"0,0": "0", "1,0": "5"},
        }
        cfg = write_config(tmp_path, problem=prob, solve={"system": "penalized", "n": 1, "m": 0})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o1")]) == 1
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o2"), "--override-a4"]) == 0
        rep = json.loads((tmp_path / "o2" / "solve_report.json").read_text())
        assert rep["report"]["terminal_inconsistency"] == pytest.approx(4.0)


class TestSweep:
    def test_doubling_schedules_no_violations(self, tmp_path):
        cfg = write_config(
            tmp_path,
            grid={"x_min": -2.0, "x_max": 2.0, "n_nodes": 41},
            time={"n_steps": 25},
            sweep={"n_schedule": [1, 2, 4, 8], "m_schedule": [1, 2, 4, 8]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "sweep_report.json").read_text())
        assert payload["monotonicity_violations"] == 0
        assert (out / "sweep_gaps.csv").exists()

    def test_empty_schedule_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, sweep={"n_schedule": [], "m_schedule": [1]})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


class TestCheck:
    def test_smoke_all_checks_pass(self, tmp_path):
        cfg = write_config(
            tmp_path,
            grid={"x_min": -2.0, "x_max": 2.0, "n_nodes": 41},
            time={"n_steps": 20},
            check={"paths": 4000, "x0": 0.0, "n": 4, "m": 4, "n_steps": 20},
        )
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "check_report.json").read_text())
        assert payload["passed"]
        assert payload["seed"] == DEFAULT_SEED  # documented default when --seed is missing
        assert payload["oracle_minmax"]["max_abs_diff"] <= 1e-10

    def test_stencil_perturbation_negative_control(self, tmp_path):
        cfg = write_config(
            tmp_path,
            grid={"x_min": -2.0, "x_max": 2.0, "n_nodes": 41},
            time={"n_steps": 20},
            check={"paths": 2000, "x0": 0.0, "n": 4, "m": 4, "n_steps": 20, "stencil_perturbation": [5, 20, 21, 1e-4]},
        )
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 1
        payload = json.loads((out / "check_report.json").read_text())
        assert not payload["oracle_minmax"]["passed"]

    def test_oversized_instance_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, grid={"x_min": -2.0, "x_max": 2.0, "n_nodes": 5001})
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_oracle_kernel_cap_exit_2_naming_the_bytes(self, tmp_path, capsys, monkeypatch):
        """The one cap bounds the oracle's kernel bytes: 8 x 10 steps x 21² nodes
        here, one byte over a cap set just below them."""
        monkeypatch.setattr(oracle, "MAX_KERNEL_BYTES", 8 * 10 * 21 * 21 - 1)
        cfg = write_config(tmp_path, grid={"x_min": -2.0, "x_max": 2.0, "n_nodes": 21}, time={"n_steps": 10})
        capsys.readouterr()
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{8 * 10 * 21 * 21} bytes" in err

    def test_paths_that_leave_the_box_exit_2_naming_check_x0_and_the_subexpression(self, tmp_path, capsys):
        """Jumps of 1e200 carry paths from x0 = 0 to where the terminal data's
        ``-x*x`` overflows: the problem evaluates on the grid, whose solves
        clamp the jumps' destinations, so the error is the check's x0, not
        the problem file's."""
        cfg = write_config(
            tmp_path,
            problem=shipped_problem(jump_amplitude="1e200*e"),
            grid={"x_min": -2.0, "x_max": 2.0, "n_nodes": 21},
            time={"n_steps": 10},
            check={"paths": 100, "x0": 0.0, "n": 4, "m": 4, "n_steps": 10},
        )
        capsys.readouterr()
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config 'check': ") and "x0 0.0" in err and "'-x*x'" in err
        assert len(err.strip().splitlines()) == 1

    def test_growth_extrapolation_exit_2_with_one_line_error(self, tmp_path, capsys):
        """Values beyond the box are clamped; a problem file asking for growth extrapolation (C > 0) is malformed."""
        prob = json.loads((files("switchvi.problems") / "switch_2x2_jump.json").read_text(encoding="utf-8"))
        prob["growth"] = {"C": 1.0, "gamma": 1.0}
        cfg = write_config(
            tmp_path,
            problem=prob,
            grid={"x_min": -2.0, "x_max": 2.0, "n_nodes": 21},
            time={"n_steps": 10},
            check={"paths": 100, "x0": 0.0, "n": 4, "m": 4, "n_steps": 10},
        )
        capsys.readouterr()
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("problem definition error: ") and "growth" in err
        assert len(err.strip().splitlines()) == 1


def shipped_problem(**overrides) -> dict:
    prob = json.loads((files("switchvi.problems") / "switch_2x2_jump.json").read_text(encoding="utf-8"))
    prob.update(overrides)
    return prob


def density_problem(density="abs(e) - 0.5", radius=1.0, cutoff=0.1):
    prob = json.loads((files("switchvi.problems") / "switch_2x2_jump.json").read_text(encoding="utf-8"))
    prob["levy"] = {"density": density, "radius": radius, "cutoff": cutoff}
    return prob


def negative_density_problem():
    return density_problem()


class TestBadConfigValues:
    """A bad value in the config or the problem exits 2 with one line naming where it is."""

    @pytest.mark.parametrize(
        "command,overrides,prefix",
        [
            pytest.param("solve", {"scheme": {"mode": "implicit"}}, "error: config 'scheme': ", id="scheme-mode"),
            # retired keys: sweeps always reach their fixed point, the stability number is judged against 1
            pytest.param("solve", {"scheme": {"cfl_factor": 1.0}}, "error: config 'scheme': unknown keys ['cfl_factor']", id="scheme-cfl"),
            pytest.param("solve", {"scheme": {"sweep_tol": 0.01}}, "error: config 'scheme': unknown keys ['sweep_tol']", id="scheme-sweep-tol"),
            pytest.param("solve", {"scheme": {"max_sweeps": 0}}, "error: config 'scheme': ", id="scheme-sweeps"),
            # a cap that is not an integer ran as int() of it, or failed after a full step
            *(
                pytest.param("solve", {"scheme": {"max_sweeps": cap}}, "error: config 'scheme': ", id=f"scheme-sweeps-{label}")
                for label, cap in (("bool", True), ("float", 2.5), ("str", "500"))
            ),
            pytest.param("solve", {"solve": {"system": "minmax", "mode": "bogus"}}, "error: config 'solve': ", id="solve-mode"),
            pytest.param("solve", {"output": {"levels": [999]}}, "error: config 'output': ", id="output-levels"),
            pytest.param("solve", {"output": {"levels": [2.5]}}, "error: config 'output': ", id="output-levels-float"),
            # a boolean level ran as level 1, because a bool is an int
            pytest.param("solve", {"output": {"levels": [True]}}, "error: config 'output': ", id="output-levels-bool"),
            # a repeated level was written, counted and listed once per repeat
            pytest.param("solve", {"output": {"levels": [0, 0, 0]}}, "error: config 'output': ", id="output-levels-repeated"),
            pytest.param("solve", {"time": {"n_steps": 0}}, "error: config 'time': ", id="time-steps"),
            pytest.param("check", {"scheme": {"mode": "imex"}}, "error: config 'scheme': ", id="check-scheme-imex"),
            pytest.param("check", {"check": {"paths": 0}}, "error: config 'check': ", id="check-paths-0"),
            pytest.param("check", {"check": {"paths": 1}}, "error: config 'check': ", id="check-paths-1"),
            pytest.param("check", {"check": {"n_steps": 0}}, "error: config 'check': ", id="check-steps"),
            pytest.param("check", {"check": {"basis_degree": -2}}, "error: config 'check': ", id="check-basis"),
            # x0 was read with float(): NaN failed only after the oracle build and both solves, a string ran as its number
            *(
                pytest.param("check", {"check": {"x0": value}}, "error: config 'check': x0 ", id=f"check-x0-{label}")
                for label, value in (("nan", float("nan")), ("str", "0.5"), ("bool", True))
            ),
            pytest.param("solve", {"problem": negative_density_problem()}, "problem definition error: ", id="negative-density"),
            pytest.param(
                "solve", {"problem": density_problem("0.4*exp(-abs(e))", cutoff=0.05), "quadrature": {"radius": 0.01}},
                "error: config 'quadrature': ", id="quadrature-radius-below-cutoff",
            ),
            pytest.param(
                "solve", {"problem": density_problem("0.4*exp(-abs(e))", cutoff=0.05), "quadrature": {"radius": 0.05}},
                "error: config 'quadrature': ", id="quadrature-radius-at-cutoff",
            ),
            pytest.param(
                "solve", {"problem": density_problem("0.4*exp(-abs(e))", radius=0.05, cutoff=0.1)},
                "problem definition error: ", id="problem-radius-below-cutoff",
            ),
            # the quadrature is built inside the config's quadrature section; the density's own error stays the problem's
            pytest.param(
                "solve", {"problem": density_problem("log(e)")},
                "problem definition error: non-finite result in subexpression 'log(e)'", id="density-does-not-evaluate",
            ),
            *(
                pytest.param(
                    "solve", {"problem": density_problem("0.4*exp(-abs(e))", cutoff=0.05), "quadrature": {"n_atoms": n}},
                    "error: config 'quadrature': ", id=f"quadrature-n-atoms-{n}",
                )
                for n in (0, -5, 1, 3, 2.5, "64")
            ),
            # values read outside their section ended in a traceback, and an empty
            # or non-increasing limit schedule exited 1 or 0
            pytest.param("solve", {"solve": {"system": "penalized", "n": "abc"}}, "error: config 'solve': ", id="solve-n"),
            pytest.param("solve", {"solve": {"system": "penalized", "m": [1]}}, "error: config 'solve': ", id="solve-m-list"),
            *(
                pytest.param(
                    "solve", {"solve": {"system": system, "mode": "limit", "schedule": schedule}},
                    "error: config 'solve': schedule ", id=f"solve-{system}-schedule-{label}",
                )
                for system in ("minmax", "maxmin")
                for label, schedule in (("str", ["a"]), ("int", 4), ("empty", []), ("repeat", [4, 4]), ("negative", [0, -1]), ("bool", [True, 2]))
            ),
            # a negative or NaN penalty ran as 0, a boolean one as 1, and an infinite one exited 1 on the CFL guard
            *(
                pytest.param(command, {command: {**extra, key: value}}, f"error: config '{command}': penalty {key} ", id=f"{command}-{key}-{label}")
                for command, extra in (("solve", {"system": "penalized"}), ("check", {}))
                for key in ("n", "m")
                for label, value in (("negative", -1), ("nan", "nan"), ("bool", True), ("inf", "Infinity"), ("nan-literal", float("nan")))
            ),
            # a count that is not an integer ran as int() of it
            *(
                pytest.param(command, {section: {key: value}}, f"error: config '{section}': ", id=f"{section}-{key}-{label}")
                for command, section, key, good in (
                    ("solve", "grid", "n_nodes", 21),
                    ("solve", "time", "n_steps", 10),
                    ("check", "check", "paths", 100),
                    ("check", "check", "n_steps", 10),
                    ("check", "check", "basis_degree", 3),
                )
                for label, value in (("float", good + 0.7), ("whole-float", float(good)), ("bool", True), ("str", str(good)))
            ),
            # an integer too large for a float passed the number rule and ended in an OverflowError traceback
            pytest.param("solve", {"solve": {"system": "penalized", "n": 10**400}}, "error: config 'solve': penalty n ", id="solve-n-huge"),
            pytest.param("check", {"check": {"m": 10**400}}, "error: config 'check': penalty m ", id="check-m-huge"),
            pytest.param("check", {"check": {"x0": -(10**400)}}, "error: config 'check': x0 ", id="check-x0-huge"),
            # v(0, x0) is read at the boundary node outside the box, so 50 failed the
            # Feynman-Kac check with exit 1 and 1e5 ended in a singular-regression traceback
            *(
                pytest.param("check", {"check": {"paths": 100, "x0": x0}}, "error: config 'check': x0 ", id=f"check-x0-outside-{x0}")
                for x0 in (50, 1e5, 1e300, -2.5, 2.0 + 1e-12)
            ),
            # too few paths for the basis ended in a singular-regression traceback
            pytest.param("check", {"check": {"paths": 2}}, "error: config 'check': 2 paths ", id="check-paths-2-singular"),
            pytest.param("check", {"check": {"paths": 3, "basis_degree": 3}}, "error: config 'check': 3 paths ", id="check-paths-3-singular"),
            pytest.param(
                "solve", {"solve": {"system": "minmax", "mode": "limit", "schedule": [1, 10**400]}},
                "error: config 'solve': schedule ", id="solve-schedule-huge",
            ),
            pytest.param("sweep", {"sweep": {"n_schedule": [1, 10**400], "m_schedule": [1]}}, "error: config 'sweep': ", id="sweep-n-huge"),
            pytest.param("solve", {"grid": {"x_min": -(10**400), "x_max": 2.0, "n_nodes": 21}}, "error: config 'grid': ", id="grid-x-min-huge"),
            # problem-file entries: a string ended in a ValueError traceback, a NaN or infinite
            # horizon loaded, a boolean horizon ran as 1 and a fractional mode count as its integer part
            *(
                pytest.param(command, {"problem": shipped_problem(**entry)}, "problem definition error: ", id=f"{command}-problem-{label}")
                for command in ("validate", "solve")
                for label, entry in (
                    ("horizon-str", {"horizon": "abc"}),
                    ("horizon-nan", {"horizon": float("nan")}),
                    ("horizon-inf", {"horizon": float("inf")}),
                    ("horizon-bool", {"horizon": True}),
                    ("horizon-huge", {"horizon": 10**400}),
                    ("m1-str", {"modes": {"m1": "x", "m2": 2}}),
                    ("m1-float", {"modes": {"m1": 2.5, "m2": 2}}),
                    ("atom-str", {"levy": {"atoms": [["a", 1]]}}),
                    # a boolean coefficient loaded as 1.0, a NaN one evaluated to NaN, a string atom entry ran as its number
                    ("vol-bool", {"vol": True}),
                    ("vol-nan", {"vol": float("nan")}),
                    ("atom-bool-str", {"levy": {"atoms": [[True, "0.4"]]}}),
                    ("cutoff-str", {"levy": {"atoms": [[0.5, 0.4]], "cutoff": "0.1"}}),
                    # an unknown key loaded as if absent: "drfit" as drift 0, a levy "atom" as no jumps
                    ("drfit", {"drfit": "0.1*x"}),
                    ("levy-atom", {"levy": {"atom": [[0.5, 0.4]]}}),
                    ("driver-5-5", {"drivers": {"default": "0", "5,5": "1"}}),
                    # a key the entry's kind does not read was dropped: a density's atoms,
                    # atoms' radius, and a growth "c" (for "C") loaded as C = 0
                    ("levy-density-and-atoms", {"levy": {"density": "0.4*exp(-abs(e))", "radius": 1.0, "cutoff": 0.05, "atoms": [[0.5, 0.4]]}}),
                    ("levy-radius-with-atoms", {"levy": {"atoms": [[0.5, 0.4]], "radius": 1.0}}),
                    ("growth-c", {"growth": {"c": 0.5}}),
                )
            ),
            # a boolean or string grid bound ran as its number, a boolean radius as 1,
            # and a stencil perturbation off the grid ended in an IndexError traceback
            pytest.param("solve", {"grid": {"x_min": True, "x_max": "2", "n_nodes": 21}}, "error: config 'grid': ", id="grid-bounds-bool-str"),
            pytest.param("validate", {"grid": {"x_min": -2.0, "x_max": "2", "n_nodes": 21}}, "error: config 'grid': ", id="grid-x-max-str"),
            *(
                pytest.param(
                    "solve", {"problem": density_problem("0.4*exp(-abs(e))", cutoff=0.05), "quadrature": {"radius": radius}},
                    "error: config 'quadrature': radius ", id=f"quadrature-radius-{label}",
                )
                for label, radius in (("bool", True), ("str", "1.0"), ("nan", float("nan")))
            ),
            *(
                pytest.param(
                    "check", {"check": {"paths": 200, "stencil_perturbation": perturbation}},
                    "error: config 'check': stencil_perturbation ", id=f"check-stencil-perturbation-{label}",
                )
                for label, perturbation in (
                    ("step", [999, 0, 0, 1.0]),
                    ("row", [0, 21, 0, 1.0]),
                    ("negative-col", [0, 0, -1, 1.0]),
                    ("amount-nan", [0, 0, 0, float("nan")]),
                    ("bool-step", [True, 0, 0, 1.0]),
                    ("short", [0, 0, 0]),
                )
            ),
            pytest.param("sweep", {"sweep": {"n_schedule": ["abc"], "m_schedule": [1]}}, "error: config 'sweep': ", id="sweep-n-str"),
            pytest.param("sweep", {"sweep": {"n_schedule": 4, "m_schedule": [1]}}, "error: config 'sweep': ", id="sweep-n-int"),
            pytest.param("sweep", {"sweep": {"n_schedule": [1], "m_schedule": ["abc"]}}, "error: config 'sweep': ", id="sweep-m-str"),
            pytest.param("sweep", {"sweep": {"n_schedule": [1], "m_schedule": 4}}, "error: config 'sweep': ", id="sweep-m-int"),
            pytest.param("sweep", {"sweep": {"n_schedule": [], "m_schedule": [1]}}, "error: config 'sweep': ", id="sweep-n-empty"),
            # a decreasing schedule exited 1 as a monotonicity failure, and a string ran as its digits
            pytest.param("sweep", {"sweep": {"n_schedule": [4, 2], "m_schedule": [1]}}, "error: config 'sweep': ", id="sweep-n-decreasing"),
            pytest.param("sweep", {"sweep": {"n_schedule": "12", "m_schedule": [1]}}, "error: config 'sweep': ", id="sweep-n-string"),
            pytest.param("sweep", {"sweep": {"n_schedule": [1], "m_schedule": [4, 2]}}, "error: config 'sweep': ", id="sweep-m-decreasing"),
            pytest.param("sweep", {"sweep": {"n_schedule": [1], "m_schedule": "12"}}, "error: config 'sweep': ", id="sweep-m-string"),
            # a boolean entry ran as the penalty 1
            pytest.param("sweep", {"sweep": {"n_schedule": [True, 2], "m_schedule": [1]}}, "error: config 'sweep': ", id="sweep-n-bool"),
        ],
    )
    def test_exit_2_with_one_line(self, tmp_path, capsys, command, overrides, prefix):
        base = {"grid": {"x_min": -2.0, "x_max": 2.0, "n_nodes": 21}, "time": {"n_steps": 10}}
        cfg = write_config(tmp_path, **{**base, **overrides})
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert len(err.strip().splitlines()) == 1


class TestConfigShape:
    """The config and every section are JSON objects with known keys only.

    A misspelled key used to be ignored (the run took the default and exited
    0), and a section that is not an object ended in an AttributeError
    traceback."""

    @pytest.mark.parametrize(
        "command,overrides,where,key",
        [
            pytest.param("solve", {"grid": {"nodes": 41}}, "config 'grid'", "nodes", id="grid-nodes"),
            pytest.param("solve", {"time": {"steps": 10}}, "config 'time'", "steps", id="time-steps"),
            pytest.param("solve", {"solve": {"shedule": [1, 2]}}, "config 'solve'", "shedule", id="solve-shedule"),
            pytest.param("solve", {"output": {"level": [0]}}, "config 'output'", "level", id="output-level"),
            pytest.param("solve", {"quadrature": {"atoms": 8}}, "config 'quadrature'", "atoms", id="quadrature-atoms"),
            pytest.param("check", {"check": {"path": 200}}, "config 'check'", "path", id="check-path"),
            pytest.param("sweep", {"sweep": {"n_schedule": [1], "m_shedule": [1]}}, "config 'sweep'", "m_shedule", id="sweep-m-shedule"),
            # a section the command does not read is checked too
            pytest.param("validate", {"check": {"seed": 3}}, "config 'check'", "seed", id="validate-check-seed"),
            pytest.param("solve", {"gird": {"n_nodes": 41}}, "config", "gird", id="top-level-gird"),
        ],
    )
    def test_unknown_key_exit_2_naming_section_and_key(self, tmp_path, capsys, command, overrides, where, key):
        base = {"grid": {"x_min": -2.0, "x_max": 2.0, "n_nodes": 21}, "time": {"n_steps": 10}}
        cfg = write_config(tmp_path, **{**base, **overrides})
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: unknown keys ['{key}']")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section,value",
        [("grid", 5), ("solve", [1]), ("time", None), ("scheme", "explicit"), ("output", [0]), ("check", 1.5)],
        ids=["grid-int", "solve-list", "time-null", "scheme-str", "output-list", "check-float"],
    )
    def test_section_not_an_object_exit_2(self, tmp_path, capsys, section, value):
        command = "check" if section == "check" else "solve"
        cfg = write_config(tmp_path, **{section: value})
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config '{section}': must be a JSON object, got ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("top", [[1, 2], "switch_2x2_jump", None, 3], ids=["list", "str", "null", "int"])
    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, command, top):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(top), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: must be a JSON object, got ")
        assert len(err.strip().splitlines()) == 1

    def test_every_documented_key_is_accepted(self, tmp_path):
        """The module docstring's example config, every key of every section, loads."""
        cfg = write_config(
            tmp_path,
            grid={"x_min": -2.0, "x_max": 2.0, "n_nodes": 21},
            time={"n_steps": 10},
            quadrature={"n_atoms": 64, "radius": 1.0},
            scheme={"mode": "explicit", "max_sweeps": 500},
            solve={"system": "minmax", "mode": "direct", "n": 4, "m": 4, "schedule": [1, 2, 4, 8]},
            sweep={"n_schedule": [1, 2], "m_schedule": [1, 2]},
            check={"paths": 200, "x0": 0.0, "n": 4, "m": 4, "basis_degree": 3, "n_steps": 10, "stencil_perturbation": None},
            output={"levels": [0]},
        )
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


class TestFlags:
    """Each subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--seed", "1"],
            ["validate", "--format", "bin"],
            ["validate", "--override-a4"],
            ["solve", "--seed", "1"],
            ["sweep", "--format", "bin"],
            ["check", "--format", "bin"],
        ],
    )
    def test_flag_a_subcommand_does_not_read_exits_2(self, tmp_path, argv):
        cfg = write_config(tmp_path)
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_check_reads_seed(self, tmp_path):
        cfg = write_config(
            tmp_path,
            grid={"x_min": -2.0, "x_max": 2.0, "n_nodes": 41},
            time={"n_steps": 20},
            check={"paths": 4000, "x0": 0.0, "n": 4, "m": 4, "n_steps": 20},
        )
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
        assert json.loads((out / "check_report.json").read_text())["seed"] == 7

    def test_a_negative_seed_has_its_own_stream(self, tmp_path):
        """``--seed`` is taken mod 2**64: -1 is the top key, not an alias of 0."""
        cfg = write_config(
            tmp_path,
            grid={"x_min": -2.0, "x_max": 2.0, "n_nodes": 21},
            time={"n_steps": 10},
            check={"paths": 200, "x0": 0.0, "n": 4, "m": 4, "n_steps": 10},
        )
        mc_values = {}
        for seed in ("-1", "0", str(2**64 - 1)):
            out = tmp_path / f"out{seed}"
            assert main(["check", "--config", str(cfg), "--out", str(out), "--seed", seed]) in (0, 1)
            records = json.loads((out / "check_report.json").read_text())["feynman_kac"]["records"]
            mc_values[seed] = [r["mc_value"] for r in records]
        assert mc_values["-1"] == mc_values[str(2**64 - 1)]
        assert mc_values["-1"] != mc_values["0"]


class TestExportRoundTrip:
    def test_binary_snapshot_round_trip(self, tmp_path):
        spec = load_builtin_problem("switch_2x2_jump")
        grid = SpatialGrid.line(-2.0, 2.0, 41)
        tgrid = TimeGrid(horizon=0.5, n_steps=10)
        quad = build_levy_quadrature(spec.levy)
        traj, _ = solve_minmax(spec, grid, tgrid, quad, mode="direct")
        path = tmp_path / "t.bin"
        export.write_binary_snapshot(traj, path)
        back = export.read_binary_snapshot(path)
        np.testing.assert_array_equal(back.values, traj.values)
        np.testing.assert_array_equal(back.times, traj.times)
        assert back.grid.x_min == traj.grid.x_min

    def snapshot(self, tmp_path):
        """A written 2-level 2 x 1 x 4 snapshot: its path, its bytes and its trajectory."""
        values = np.arange(16, dtype=float).reshape(2, 2, 1, 4) / 7.0
        traj = Trajectory(times=np.array([0.0, 0.5]), values=values, grid=SpatialGrid.line(-1.0, 1.0, 4))
        path = tmp_path / "t.bin"
        export.write_binary_snapshot(traj, path)
        return path, path.read_bytes(), traj

    @pytest.mark.parametrize("cut", [1, 8, 100], ids=["one-byte", "one-float", "most-of-the-body"])
    def test_short_snapshot_names_both_lengths(self, tmp_path, cut):
        """A short body raised numpy's "buffer is smaller" message."""
        path, raw, _ = self.snapshot(tmp_path)
        path.write_bytes(raw[:-cut])
        with pytest.raises(ValueError, match=f"needs {len(raw)} bytes, the file has {len(raw) - cut}"):
            export.read_binary_snapshot(path)

    @pytest.mark.parametrize("extra", [b"\0", b"\0" * 8, b"SVITRAJ1"], ids=["one-byte", "one-float", "magic"])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        """Trailing bytes were ignored."""
        path, raw, _ = self.snapshot(tmp_path)
        path.write_bytes(raw + extra)
        with pytest.raises(ValueError, match=f"needs {len(raw)} bytes, the file has {len(raw) + len(extra)}"):
            export.read_binary_snapshot(path)

    @pytest.mark.parametrize("size", [8, 20, 39])
    def test_short_header_is_a_value_error(self, tmp_path, size):
        """A short header raised struct.error."""
        path, raw, _ = self.snapshot(tmp_path)
        path.write_bytes(raw[:size])
        with pytest.raises(ValueError, match=f"header needs 40 bytes, the file has {size}"):
            export.read_binary_snapshot(path)

    @pytest.mark.parametrize("where", ["time", "value"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_snapshot_rejected(self, tmp_path, where, bad):
        """Non-finite times or values loaded; the value type that checked surfaces read from files is gone."""
        path, _, traj = self.snapshot(tmp_path)
        if where == "time":
            traj.times[1] = bad
        else:
            traj.values[1, 0, 0, 2] = bad
        export.write_binary_snapshot(traj, path)
        with pytest.raises(ValueError, match="non-finite"):
            export.read_binary_snapshot(path)

    def test_snapshot_bytes_follow_the_documented_layout(self, tmp_path):
        path, raw, traj = self.snapshot(tmp_path)
        header = b"SVITRAJ1" + np.array([2, 1, 4], "<u4").tobytes() + np.array([-1.0, 1.0], "<f8").tobytes() + np.array([2], "<u4").tobytes()
        assert raw == header + traj.times.astype("<f8").tobytes() + traj.values.astype("<f8").tobytes()
        back = export.read_binary_snapshot(path)
        np.testing.assert_array_equal(back.values, traj.values)
        np.testing.assert_array_equal(back.times, traj.times)
        assert (back.grid.x_min, back.grid.x_max, back.grid.n_nodes) == (-1.0, 1.0, 4)

    def test_level_csv_matches_per_cell_reference(self, tmp_path):
        """A level file of a 2 x 3 trajectory holds the per-cell text, signed zero and subnormals included."""
        grid = SpatialGrid.line(-1.0, 1.0, 5)
        values = np.resize([-0.0, 5e-324, 1e300, 0.1, -1e-300, 1.0 / 3.0, 2.0], (1, 2, 3, 5))
        assert np.signbit(values[0, 0, 0, 0]) and values[0, 0, 0, 1] == 5e-324
        traj = Trajectory(times=np.array([0.0]), values=values, grid=grid)
        x = grid.axis()
        lines = ["x," + ",".join(f"v_{i}_{j}" for i in range(2) for j in range(3))]
        for p in range(5):
            lines.append(",".join([export.fmt_float(x[p])] + [export.fmt_float(values[0, i, j, p]) for i in range(2) for j in range(3)]))
        (path,) = export.trajectory_csv_files(traj, tmp_path, "v")
        assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("m1, m2", [(2, 2), (1, 1), (3, 2)])
    def test_trajectory_csv_files_match_per_cell_reference(self, tmp_path, m1, m2):
        """The node column is formatted once per call; every level's file is still the per-cell text."""
        grid = SpatialGrid.line(-1.0, 1.0, 5)
        cells = [-0.0, 5e-324, 1e300, 0.1, -1e-300, 1.0 / 3.0, 2.0, -7.25, 1e-05, 1e16, 1.7976931348623157e308]
        values = np.resize(cells, (3, m1, m2, 5))
        traj = Trajectory(times=np.array([0.0, 0.25, 0.5]), values=values, grid=grid)
        x = grid.axis()
        paths = export.trajectory_csv_files(traj, tmp_path, "v")
        assert [p.name for p in paths] == ["v_level0000.csv", "v_level0001.csv", "v_level0002.csv"]
        for k, path in enumerate(paths):
            lines = [",".join(["x"] + [f"v_{i}_{j}" for i in range(m1) for j in range(m2)])]
            for p in range(5):
                cells = [x[p]] + [values[k, i, j, p] for i in range(m1) for j in range(m2)]
                lines.append(",".join(export.fmt_float(c) for c in cells))
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        assert export.trajectory_csv_files(traj, tmp_path / "one", "v", levels=[2])[0].read_bytes() == paths[2].read_bytes()

    def test_plotdata_csv_matches_per_cell_reference(self):
        spec = load_builtin_problem("two_atom_jump")  # 2x1 modes: every U column is +inf
        grid = SpatialGrid.line(-1.0, 1.0, 4)
        values = np.resize([-0.0, 5e-324, 1e300, 0.1, -1e-300, 1.0 / 3.0, 2.0], (2, 2, 1, 4))
        traj = Trajectory(times=np.array([0.0, 0.5]), values=values, grid=grid)
        x = grid.axis()
        L, U = eval_obstacles(values[1], spec.obstacle_costs(0.5, x))
        assert np.all(U == np.inf)
        lines = ["x,v_0_0,L_0_0,U_0_0,v_1_0,L_1_0,U_1_0"]
        for p in range(4):
            cells = [x[p]] + [c for i in range(2) for c in (values[1, i, 0, p], L[i, 0, p], U[i, 0, p])]
            lines.append(",".join(export.fmt_float(c) for c in cells))
        assert export.plotdata_csv(traj, spec, level=1) == "\n".join(lines) + "\n"

    def test_level_csv_layout(self, tmp_path):
        spec = load_builtin_problem("no_jump")
        grid = SpatialGrid.line(-1.0, 1.0, 5)
        tgrid = TimeGrid(horizon=0.5, n_steps=3)
        quad = build_levy_quadrature(spec.levy)
        traj, _ = solve_minmax(spec, grid, tgrid, quad, mode="direct")
        (path,) = export.trajectory_csv_files(traj, tmp_path, "v", levels=[0])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,v_0_0,v_0_1,v_1_0,v_1_1"
        assert len(lines) == 6
