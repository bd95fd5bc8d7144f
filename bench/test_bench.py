"""Tests of the benchmark harness itself.

Run with ``python -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from switchvi import model, pde_solver  # noqa: E402
from switchvi.discretization import SpatialGrid, TimeGrid, build_levy_quadrature  # noqa: E402


def test_negative_control_fails_every_operation(tmp_path, monkeypatch):
    """A corrupted oracle kernel weight must fail every cli_crosscheck operation."""
    monkeypatch.setattr(run, "MIN_OPS", 2)
    workload = workloads.CliCrosscheck(tmp_path, seed=7, stencil_perturbation=[5, 20, 21, 1e-4])
    workload.prepare()
    records = run.run_ops(workload, seconds=0.0)
    assert len(records) == 2
    assert all(r["problems"] for r in records)
    assert any("oracle_minmax" in p for p in records[0]["problems"])


def test_operations_lie_between_reference_timings(tmp_path, monkeypatch):
    """Each operation's ``ref_s`` is the mean of the kernel timings around it,
    and a host twice as slow for both leaves the scaled time unchanged."""
    ticks = iter([1.0, 3.0, 5.0, 7.0])
    monkeypatch.setattr(run, "time_reference", lambda: next(ticks))
    monkeypatch.setattr(run, "MIN_OPS", 3)

    class _Noop:
        def op(self):
            return None

        def check(self, out):
            return []

    records = run.run_ops(_Noop(), seconds=0.0)
    assert [r["ref_s"] for r in records] == [2.0, 4.0, 6.0]
    assert run.at_ref_speed(2.0, 0.5) == run.at_ref_speed(4.0, 1.0) == pytest.approx(4.0 * run.REF_S)


class _SmallSolves:
    """Two small solves, one direct and one limit-mode, as a traced operation."""

    def __init__(self):
        self.spec = model.load_builtin_problem("switch_2x2_jump")
        self.grid = SpatialGrid.line(-2.0, 2.0, 21)
        self.tgrid = TimeGrid(horizon=self.spec.horizon, n_steps=10)
        self.quad = build_levy_quadrature(self.spec.levy)
        self.imex = pde_solver.SchemeConfig(mode="imex")

    def op(self):
        direct = pde_solver.solve_minmax(self.spec, self.grid, self.tgrid, self.quad, mode="direct")
        limit = pde_solver.solve_minmax(
            self.spec, self.grid, self.tgrid, self.quad, mode="limit", config=self.imex,
            schedule=(1, 2, 4), gap_tol=0.0, raise_on_nonconvergence=False,
        )
        return direct, limit

    def check(self, out):
        return []


def test_traced_self_times_add_up_to_the_operation(monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 2)
    originals = {(id(owner), attr): getattr(owner, attr) for owner, attr, _, _ in tracing.switchvi_targets()}
    tracer = tracing.Tracer(tracing.switchvi_targets())
    records = run.run_ops(_SmallSolves(), seconds=0.0, tracer=tracer)
    assert [r["traced"] for r in records] == [False, True]
    for owner, attr, _, _ in tracing.switchvi_targets():
        assert getattr(owner, attr) is originals[(id(owner), attr)], f"{attr} left wrapped"

    metrics = tracing.layer_metrics(tracer, [records[1]["s"]], [records[0]["s"]])
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {name: unit for name, (_, unit) in metrics.items()} == {d["name"]: d["unit"] for d in declared}
    m = {name: value for name, (value, _) in metrics.items()}
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + m["trace.untraced_s"] == pytest.approx(m["trace.op_s"], rel=1e-9)
    assert m["pde_solver.solve.calls"] == 2
    assert m["pde_solver.schedule_entries"] == 3
    # 2x2 pairs x 21 nodes x 10 steps: the direct solve plus three schedule entries
    assert m["pde_solver.node_steps"] == 4 * 840
    assert m["pde_solver.limit.useful_ratio"] == pytest.approx(1 / 3)
    assert m["pde_solver.implicit_solve.calls"] == 3 * 10 * 4
    assert m["pde_solver.lipschitz_probe.calls"] == 1 + 1 + 3
    assert m["exprdsl.evaluate.calls"] > 0 and m["model.eval_driver.calls"] > 0


def test_exits_nonzero_without_the_sources(tmp_path):
    """Given only the benchmark's own files, the harness refuses to run."""
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "jump_dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
