"""Batch front end: validate | solve | sweep | check.

Everything a run needs except paths, seed and output format lives in a
JSON config file, so studies re-run byte-identically from the same config.
Commands write CSV surfaces, plot-ready data and JSON reports; plotting
itself happens elsewhere.

Exit codes: 0 success, 1 domain failure (assumption violated, solve or
check failed), 2 usage / IO / parse failure.

Config file shape (see the shipped problems for coefficient syntax):

    {
      "problem": "switch_2x2_jump" | "/path/to/problem.json" | {...inline...},
      "grid":   {"x_min": -2.0, "x_max": 2.0, "n_nodes": 101},
      "time":   {"n_steps": 50},
      "quadrature": {"n_atoms": 64, "radius": 1.0},
      "scheme": {"mode": "explicit", "max_sweeps": 500},   # the only keys; check needs explicit
      "solve":  {"system": "minmax", "mode": "direct",
                 "n": 4, "m": 4,                  # penalized only
                 "schedule": [1, 2, 4, 8]},       # limit modes only
      "sweep":  {"n_schedule": [1, 2, 4, 8], "m_schedule": [1, 2, 4, 8]},
      "check":  {"paths": 10000, "x0": 0.0, "n": 4, "m": 4,
                 "basis_degree": 3, "n_steps": 50},
      "output": {"levels": [0]}
    }

The config and each of its sections must be a JSON object with only the
keys shown (and ``check.stencil_perturbation``, a test hook); anything else
exits 2 naming the section and the key.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import export, mc, oracle, pde_solver
from .discretization import NonIntegrableDensityError, SpatialGrid, TimeGrid, build_levy_quadrature, check_atom_count
from .exprdsl import ExprError
from .model import (
    CapacityError,
    MalformedSpecError,
    ProblemSpec,
    is_finite_number,
    is_integer,
    load_builtin_problem,
    load_problem,
    validate_coefficient_bounds,
    validate_non_free_loop,
    validate_terminal_consistency,
)
from .pde_solver import (
    AssumptionViolationError,
    CflViolationError,
    SchemeConfig,
    ScheduleNonConvergenceError,
    SweepNonConvergenceError,
    solve_maxmin,
    solve_minmax,
    solve_penalized,
)

__all__ = ["main", "DEFAULT_SEED"]

DEFAULT_SEED = 20240901  # used when --seed is not given; documented for reproducibility

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

_SECTIONS = {  # the keys of each config section
    "grid": ("x_min", "x_max", "n_nodes"),
    "time": ("n_steps",),
    "quadrature": ("n_atoms", "radius"),
    "scheme": ("mode", "max_sweeps"),
    "solve": ("system", "mode", "n", "m", "schedule"),
    "sweep": ("n_schedule", "m_schedule"),
    "check": ("paths", "x0", "n", "m", "basis_degree", "n_steps", "stencil_perturbation"),
    "output": ("levels",),
}


class UsageError(Exception):
    pass


@contextmanager
def _config_section(name: str):
    """Report a bad value read from config section ``name`` as a usage error; the problem's own
    errors, an expression or a jump density that does not evaluate, pass through."""
    try:
        yield
    except (ExprError, NonIntegrableDensityError):
        raise
    except (ValueError, IndexError, TypeError, OverflowError) as exc:
        raise UsageError(f"config '{name}': {exc}") from exc


def _check_object(value, where: str, keys) -> None:
    """UsageError unless ``value`` is a JSON object with no key outside ``keys``."""
    if not isinstance(value, dict):
        raise UsageError(f"{where}: must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise UsageError(f"{where}: unknown keys {unknown}; the keys are {', '.join(map(repr, keys))}")


def _load_config(path: str) -> dict:
    """The config as a dict whose sections are objects with known keys only."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    _check_object(cfg, "config", ("problem", *_SECTIONS))
    for name, keys in _SECTIONS.items():
        if name in cfg:
            _check_object(cfg[name], f"config '{name}'", keys)
    return cfg


def _load_spec(cfg: dict, config_dir: Path) -> ProblemSpec:
    prob = cfg.get("problem")
    if prob is None:
        raise UsageError("config is missing 'problem'")
    if isinstance(prob, dict):
        return ProblemSpec.from_dict(prob)
    text = str(prob)
    candidate = (config_dir / text) if not Path(text).is_absolute() else Path(text)
    if candidate.is_file():
        return load_problem(str(candidate))
    if Path(text).is_file():
        return load_problem(text)
    try:
        return load_builtin_problem(text)
    except FileNotFoundError as exc:
        raise UsageError(f"problem '{text}' is neither a file nor a shipped instance") from exc


def _grids(cfg: dict, spec: ProblemSpec) -> tuple[SpatialGrid, TimeGrid]:
    g = cfg.get("grid", {})
    with _config_section("grid"):
        grid = SpatialGrid.line(g.get("x_min", -2.0), g.get("x_max", 2.0), g.get("n_nodes", 101))
    with _config_section("time"):
        tgrid = TimeGrid(horizon=spec.horizon, n_steps=cfg.get("time", {}).get("n_steps", 50))
    return grid, tgrid


def _quadrature(cfg: dict, spec: ProblemSpec):
    q = cfg.get("quadrature", {})
    with _config_section("quadrature"):
        return build_levy_quadrature(spec.levy, n_atoms=check_atom_count(q.get("n_atoms", 64)), radius=q.get("radius"))


def _scheme(cfg: dict, override_a4: bool) -> SchemeConfig:
    s = cfg.get("scheme", {})
    with _config_section("scheme"):
        return SchemeConfig(mode=s.get("mode", "explicit"), max_sweeps=s.get("max_sweeps", 500), allow_terminal_inconsistency=override_a4)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise UsageError(f"output directory is not writable: {exc}") from exc
    return out


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    spec = _load_spec(cfg, Path(args.config).resolve().parent)
    grid, tgrid = _grids(cfg, spec)
    x = grid.axis()
    ts = [0.0, 0.5 * spec.horizon, spec.horizon]

    reports = [
        validate_non_free_loop(spec, spec.loop_check_points(x, tgrid.times())),
        validate_terminal_consistency(spec, x),
        validate_coefficient_bounds(spec, ts, x),
    ]
    payload = {"problem": spec.name, "reports": [r.to_dict() for r in reports], "passed": all(r.passed for r in reports)}
    out = _out_dir(args)
    export.write_json(payload, out / "validation.json")
    for r in reports:
        print(f"{r.name}: {'pass' if r.passed else 'FAIL'}")
        for v in r.violations[:3]:
            print(f"  violation: {v}")
        for w in r.warnings[:3]:
            print(f"  warning: {w}")
    return EXIT_OK if payload["passed"] else EXIT_DOMAIN


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    spec = _load_spec(cfg, Path(args.config).resolve().parent)
    grid, tgrid = _grids(cfg, spec)
    quad = _quadrature(cfg, spec)
    scheme = _scheme(cfg, args.override_a4)
    out = _out_dir(args)
    solve = cfg.get("solve", {})
    system = solve.get("system", "minmax")
    mode = solve.get("mode", "direct")
    schedule = solve.get("schedule", pde_solver.DEFAULT_PENALTY_SCHEDULE)
    with _config_section("solve"):
        if system == "penalized":
            n, m = (pde_solver.check_penalty(solve.get(key, 1), key) for key in ("n", "m"))
        elif system not in ("minmax", "maxmin"):
            raise ValueError(f"unknown system '{system}'")
        elif mode not in ("direct", "limit"):
            raise ValueError(f"unknown mode '{mode}'")
        elif mode == "limit":
            schedule = pde_solver.check_schedule(schedule)
    levels = cfg.get("output", {}).get("levels")
    distinct = isinstance(levels, list) and all(is_integer(k) and 0 <= k <= tgrid.n_steps for k in levels) and len(set(levels)) == len(levels)
    if levels is not None and not distinct:
        raise UsageError(f"config 'output': levels must be a list of distinct integers in 0..{tgrid.n_steps}, got {levels!r}")

    if system == "penalized":
        traj, report = solve_penalized(spec, grid, tgrid, quad, n, m, scheme)
    else:
        solver = solve_minmax if system == "minmax" else solve_maxmin
        traj, report = solver(spec, grid, tgrid, quad, mode=mode, config=scheme, schedule=schedule)

    files = export.trajectory_csv_files(traj, out, stem=f"{system}", levels=levels)
    (out / "plotdata.csv").write_text(export.plotdata_csv(traj, spec, level=0), encoding="utf-8")
    if args.format == "bin":
        export.write_binary_snapshot(traj, out / f"{system}.bin")
    elif args.format == "json":
        export.write_json(
            {"times": [float(t) for t in traj.times], "values": traj.values.tolist()},
            out / f"{system}_trajectory.json",
        )
    export.write_json({"report": report.to_dict(), "files": [f.name for f in files]}, out / "solve_report.json")
    print(f"solved {system} ({mode}) in {report.wall_clock_s:.2f}s; wrote {len(files)} level files to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    spec = _load_spec(cfg, Path(args.config).resolve().parent)
    grid, tgrid = _grids(cfg, spec)
    quad = _quadrature(cfg, spec)
    scheme = _scheme(cfg, args.override_a4)
    out = _out_dir(args)
    sw = cfg.get("sweep", {})
    with _config_section("sweep"):
        n_sched, m_sched = ([float(v) for v in pde_solver.check_schedule(sw.get(key, []))] for key in ("n_schedule", "m_schedule"))

    solves: dict[tuple[float, float], np.ndarray] = {}
    for n in n_sched:
        for m in m_sched:
            traj, _ = solve_penalized(spec, grid, tgrid, quad, n, m, scheme)
            solves[(n, m)] = traj.values

    violations = 0
    tol = 1e-10
    gap_rows = []
    for m in m_sched:
        for a, b in zip(n_sched[:-1], n_sched[1:]):
            diff = solves[(a, m)] - solves[(b, m)]  # should be <= 0
            violations += int(np.max(diff) > tol)
            gap_rows.append({"fixed": f"m={m}", "from": a, "to": b, "sup_gap": float(np.max(np.abs(diff)))})
    for n in n_sched:
        for a, b in zip(m_sched[:-1], m_sched[1:]):
            diff = solves[(n, b)] - solves[(n, a)]  # larger m -> smaller values
            violations += int(np.max(diff) > tol)
            gap_rows.append({"fixed": f"n={n}", "from": a, "to": b, "sup_gap": float(np.max(np.abs(diff)))})

    payload = {
        "n_schedule": n_sched,
        "m_schedule": m_sched,
        "monotonicity_violations": violations,
        "gaps": gap_rows,
    }
    export.write_json(payload, out / "sweep_report.json")
    lines = ["fixed,from,to,sup_gap"] + [f"{r['fixed']},{r['from']},{r['to']},{export.fmt_float(r['sup_gap'])}" for r in gap_rows]
    (out / "sweep_gaps.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"sweep over {len(n_sched)}x{len(m_sched)} penalties: {violations} monotonicity violations")
    return EXIT_OK if violations == 0 else EXIT_DOMAIN


def cmd_check(args) -> int:
    cfg = _load_config(args.config)
    spec = _load_spec(cfg, Path(args.config).resolve().parent)
    grid, tgrid = _grids(cfg, spec)
    quad = _quadrature(cfg, spec)
    scheme = _scheme(cfg, args.override_a4)
    with _config_section("scheme"):
        if scheme.mode != "explicit":
            raise ValueError(f"check mirrors the explicit scheme only, got mode '{scheme.mode}'")
    out = _out_dir(args)
    ck = cfg.get("check", {})

    with _config_section("check"):
        n_pen, m_pen = (pde_solver.check_penalty(ck.get(key, 4), key) for key in ("n", "m"))
        x0 = ck.get("x0", 0.0)
        if not (is_finite_number(x0) and grid.x_min <= x0 <= grid.x_max):
            raise ValueError(f"x0 must be a number in the grid box [{grid.x_min}, {grid.x_max}], got {x0!r}")
        n_paths = ck.get("paths", 10_000)
        if not is_integer(n_paths) or n_paths < 2:
            raise ValueError(f"need an integer of at least two paths for a regression estimate, got {n_paths!r}")
        mc_tgrid = TimeGrid(horizon=spec.horizon, n_steps=ck.get("n_steps", tgrid.n_steps))
        basis = mc.RegressionBasis(ck.get("basis_degree", 3))
        perturb = ck.get("stencil_perturbation")  # test hook: [step, row, col, amount]
        if perturb is not None and not (
            isinstance(perturb, list)
            and len(perturb) == 4
            and all(is_integer(k) and 0 <= k < top for k, top in zip(perturb, (tgrid.n_steps, grid.n_nodes, grid.n_nodes)))
            and is_finite_number(perturb[3])
        ):
            raise ValueError(f"stencil_perturbation must be [step, row, col, amount] with a step and nodes on the grid and a finite amount, got {perturb!r}")

    results: dict = {"seed": args.seed}
    ok = True

    # dynamic-programming equivalence: min-max and max-min are one solve on a
    # gated grid, which the oracle's induction reaches in either order
    game = oracle.build_discrete_game(
        spec, grid, tgrid, quad, scheme, stencil_perturbation=tuple(perturb) if perturb else None
    )
    traj, _ = solve_minmax(spec, grid, tgrid, quad, mode="direct", config=scheme)
    for order in ("minmax", "maxmin"):
        ind = oracle.backward_induction(game, order=order)
        diff = float(np.max(np.abs(traj.values - ind.values)))
        passed = diff <= 1e-10
        ok = ok and passed
        results[f"oracle_{order}"] = {"max_abs_diff": diff, "passed": passed}

    # Feynman-Kac cross-check on the penalized system
    traj, _ = solve_penalized(spec, grid, tgrid, quad, n_pen, m_pen, scheme)
    try:
        batch = mc.simulate_paths(spec, quad, x0, n_paths, mc_tgrid, args.seed)
        estimate = mc.solve_bsde_regression(batch, n_pen, m_pen, basis)
    except ExprError as exc:  # the grid solves read the problem without failure
        raise UsageError(f"config 'check': the paths from x0 {x0!r} reach states where the problem does not evaluate: {exc}") from exc
    except mc.SingularRegressionError as exc:
        raise UsageError(f"config 'check': {n_paths} paths do not fit a degree {basis.degree} regression: {exc}") from exc
    fk = mc.feynman_kac_check(traj, estimate)
    ok = ok and fk.passed
    results["feynman_kac"] = fk.to_dict()

    results["passed"] = ok
    export.write_json(results, out / "check_report.json")
    for key in ("oracle_minmax", "oracle_maxmin"):
        print(f"{key}: {'pass' if results[key]['passed'] else 'FAIL'} (max diff {results[key]['max_abs_diff']:.2e})")
    print(f"feynman_kac: {'pass' if fk.passed else 'FAIL'}")
    return EXIT_OK if ok else EXIT_DOMAIN


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="switchvi", description="Switching-game variational inequality solvers")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("validate", cmd_validate), ("solve", cmd_solve), ("sweep", cmd_sweep), ("check", cmd_check)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default="out", help="output directory")
        if name != "validate":
            p.add_argument("--override-a4", action="store_true", help="proceed despite inconsistent terminal data (the report records the magnitude)")
        if name == "solve":
            p.add_argument("--format", choices=("csv", "json", "bin"), default="csv")
        if name == "check":
            p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"RNG seed (default {DEFAULT_SEED})")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (UsageError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ExprError, MalformedSpecError, NonIntegrableDensityError, json.JSONDecodeError) as exc:
        print(f"problem definition error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssumptionViolationError, CflViolationError, SweepNonConvergenceError, ScheduleNonConvergenceError) as exc:
        print(f"domain failure: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
