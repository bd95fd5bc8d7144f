"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions that switchvi's modules call into each
other, at the name each caller looks up (a module attribute or a
``ProblemSpec`` method), and records one span per call: name, start, end,
parent span and operation id.  Spans stay in memory until the run ends.
Nothing under ``src/`` changes; the wrappers are installed for one traced
operation and removed after it, so untraced operations run the plain code.

A span name is ``<layer>.<what>``; its layer is the part before the first
dot.  Self time is a span's duration minus the durations of its direct
child spans.  Every traced operation has a root span named ``op``, so for
each operation the layers' self times plus the root's own self time (the
time no span covers) add up to the operation's duration.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import time
from collections import defaultdict
from pathlib import Path

ROOT_SPAN = "op"

LAYERS = ("exprdsl", "model", "discretization", "pde_solver", "oracle", "mc", "export", "cli")


class Tracer:
    """Records spans and counters for the operations run between begin/end."""

    def __init__(self, targets):
        # targets: (owner, attribute, span name or callable(args) -> name, hook or None)
        self.targets = list(targets)
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counters: dict = defaultdict(float)  # (op id, key) -> amount
        self.ops: list = []
        self._stack: list = []
        self._op = None
        self._saved: list = []

    # -- recording ------------------------------------------------------------

    def begin(self, op_id) -> None:
        """Install the wrappers and open the root span of one operation."""
        if self._op is not None:
            raise RuntimeError("an operation is already being traced")
        self._op = op_id
        self.ops.append(op_id)
        for owner, attr, name, hook in self.targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))
        self._stack.append(len(self.spans))
        self.spans.append((ROOT_SPAN, time.perf_counter(), None, -1, op_id))

    def end(self) -> None:
        """Close the root span and restore every wrapped name."""
        end = time.perf_counter()
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        idx = self._stack.pop()
        name, start, _, parent, op_id = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, op_id)
        self._op = None

    def add(self, key: str, amount) -> None:
        self.counters[self._op, key] += amount

    def _wrap(self, fn, name, hook):
        spans = self.spans
        stack = self._stack
        op_id = self._op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            label = name(args) if callable(name) else name
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, op_id)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV: op, index, name, parent, start, end."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("op,index,name,parent,start_s,end_s\n")
            for idx, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(f"{op_id},{idx},{name},{parent},{start!r},{end!r}\n")


def span_totals(spans: list, ops) -> dict:
    """Per span name over the given operations: calls, time, self time.

    No wrapped function calls another one of the same span name, so summing
    durations counts no time twice.
    """
    ops = set(ops)
    child = [0.0] * len(spans)
    for name, start, end, parent, op_id in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "time": 0.0, "self": 0.0})
    for idx, (name, start, end, parent, op_id) in enumerate(spans):
        if op_id not in ops:
            continue
        dur = end - start
        entry = out[name]
        entry["calls"] += 1
        entry["time"] += dur
        entry["self"] += dur - child[idx]
    return dict(out)


def layer_metrics(tracer: Tracer, traced_times: list, untraced_times: list) -> dict:
    """Per-layer metrics, per traced operation, as ``{name: (value, unit)}``.

    Times and counts are means over the traced operations (counts repeat
    exactly from one operation to the next).  ``discretization.quadrature.s``
    is measured in the traced set-up (op id ``"setup"``) when the workload
    builds its quadrature there, plus any built inside the operations.
    """
    ops = [op for op in tracer.ops if op != "setup"]
    n_ops = len(ops)
    if n_ops == 0:
        raise ValueError("no traced operation")
    totals = span_totals(tracer.spans, ops)
    setup = span_totals(tracer.spans, ["setup"]) if "setup" in tracer.ops else {}
    c: dict = defaultdict(float)
    for (op_id, key), amount in tracer.counters.items():
        if op_id != "setup":
            c[key] += amount

    def calls(name):
        return totals.get(name, {}).get("calls", 0) / n_ops

    def secs(name):
        return totals.get(name, {}).get("time", 0.0) / n_ops

    def self_s(layer):
        return sum(v["self"] for k, v in totals.items() if k.split(".")[0] == layer) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict = {}
    m["exprdsl.evaluate.calls"] = (calls("exprdsl.evaluate"), "count")
    m["exprdsl.evaluate.s"] = (secs("exprdsl.evaluate"), "s")
    m["exprdsl.evaluate.elems_per_call"] = (ratio(c["exprdsl.evaluate.elems"], totals.get("exprdsl.evaluate", {}).get("calls", 0)), "elems")
    for what in ("eval_driver", "eval_jump", "eval_diffusion", "cost_tables", "eval_obstacles"):
        m[f"model.{what}.calls"] = (calls(f"model.{what}"), "count")
        m[f"model.{what}.s"] = (secs(f"model.{what}"), "s")
    m["model.validate.s"] = (secs("model.validate"), "s")
    quad_s = setup.get("discretization.quadrature", {}).get("time", 0.0) + secs("discretization.quadrature")
    m["discretization.quadrature.s"] = (quad_s, "s")
    m["discretization.stencil.calls"] = (calls("discretization.stencil"), "count")
    m["discretization.stencil.s"] = (secs("discretization.stencil"), "s")
    m["discretization.interpolate.calls"] = (calls("discretization.interpolate"), "count")
    node_steps = c["pde_solver.node_steps"] / n_ops
    m["pde_solver.solve.calls"] = (calls("pde_solver.solve"), "count")
    m["pde_solver.solve.s"] = (secs("pde_solver.solve"), "s")
    m["pde_solver.node_steps"] = (node_steps, "count")
    m["pde_solver.ns_per_node_step"] = (1e9 * ratio(secs("pde_solver.solve"), node_steps), "ns")
    m["pde_solver.sweeps"] = (c["pde_solver.sweeps"] / n_ops, "count")
    m["pde_solver.lipschitz_probe.calls"] = (calls("pde_solver.lipschitz_probe"), "count")
    m["pde_solver.lipschitz_probe.s"] = (secs("pde_solver.lipschitz_probe"), "s")
    m["pde_solver.cfl.calls"] = (calls("pde_solver.cfl"), "count")
    m["pde_solver.cfl.s"] = (secs("pde_solver.cfl"), "s")
    m["pde_solver.schedule_entries"] = (c["pde_solver.schedule_entries"] / n_ops, "count")
    m["pde_solver.limit.useful_ratio"] = (ratio(c["pde_solver.limit.useful_node_steps"], c["pde_solver.limit.node_steps"]), "ratio")
    m["pde_solver.implicit_solve.calls"] = (calls("pde_solver.implicit_solve"), "count")
    m["pde_solver.implicit_solve.s"] = (secs("pde_solver.implicit_solve"), "s")
    m["oracle.build.s"] = (secs("oracle.build"), "s")
    m["oracle.induction.calls"] = (calls("oracle.induction"), "count")
    m["oracle.induction.s"] = (secs("oracle.induction"), "s")
    m["oracle.kernel_bytes"] = (c["oracle.kernel_bytes"] / n_ops, "B")
    m["mc.simulate.s"] = (secs("mc.simulate"), "s")
    m["mc.path_steps_per_s"] = (ratio(c["mc.path_steps"] / n_ops, secs("mc.simulate")), "1/s")
    m["mc.regression.s"] = (secs("mc.regression"), "s")
    m["mc.fk_check.s"] = (secs("mc.fk_check"), "s")
    m["export.csv.s"] = (secs("export.csv"), "s")
    m["export.bin.s"] = (secs("export.bin"), "s")
    m["export.json.s"] = (secs("export.json"), "s")
    m["export.bytes"] = (c["export.bytes"] / n_ops, "B")
    m["cli.solve.s"] = (secs("cli.solve"), "s")
    m["cli.check.s"] = (secs("cli.check"), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s(layer), "s")
    m["trace.op_s"] = (secs(ROOT_SPAN), "s")
    m["trace.untraced_s"] = (totals[ROOT_SPAN]["self"] / n_ops, "s")
    m["trace.overhead"] = (statistics.median(traced_times) / statistics.median(untraced_times), "ratio")
    return m


# --- where the wrappers go ---------------------------------------------------


def _elems(tracer, args, result):
    tracer.add("exprdsl.evaluate.elems", getattr(result, "size", 1))


def _solve_entry(tracer, args, result):
    traj, report = result
    tracer.add("pde_solver.node_steps", (traj.n_levels - 1) * traj.values[0].size)
    tracer.add("pde_solver.sweeps", sum(report.sweep_counts))


def _solve(tracer, args, result):
    traj, report = result
    if not report.schedule:
        _solve_entry(tracer, args, result)
        return
    # limit mode: each schedule entry was counted by its reflected solve
    entries = len(report.schedule)
    per_entry = (traj.n_levels - 1) * traj.values[0].size
    tracer.add("pde_solver.schedule_entries", entries)
    tracer.add("pde_solver.limit.node_steps", entries * per_entry)
    tracer.add("pde_solver.limit.useful_node_steps", per_entry)


def _kernel_bytes(tracer, args, result):
    tracer.add("oracle.kernel_bytes", result.kernels.nbytes)


def _path_steps(tracer, args, result):
    tracer.add("mc.path_steps", result.n_paths * result.n_steps)


def _csv_files_bytes(tracer, args, result):
    tracer.add("export.bytes", sum(p.stat().st_size for p in result))


def _text_bytes(tracer, args, result):
    tracer.add("export.bytes", len(result.encode("utf-8")))


def _file_bytes(tracer, args, result):
    tracer.add("export.bytes", Path(args[1]).stat().st_size)


def _cli_span(args):
    return f"cli.{args[0][0]}"


def switchvi_targets() -> list:
    """Every wrapped name: (owner, attribute, span name, counter hook)."""
    import scipy.linalg

    from switchvi import cli, discretization, export, mc, model, oracle, pde_solver

    spec = model.ProblemSpec
    targets = [
        (model, "evaluate", "exprdsl.evaluate", _elems),
        (discretization, "evaluate", "exprdsl.evaluate", _elems),
        (spec, "eval_driver", "model.eval_driver", None),
        (spec, "eval_beta", "model.eval_jump", None),
        (spec, "eval_gamma", "model.eval_jump", None),
        (spec, "eval_drift", "model.eval_diffusion", None),
        (spec, "eval_vol", "model.eval_diffusion", None),
        (spec, "eval_terminal", "model.eval_terminal", None),
        (spec, "eval_lower_cost", "model.eval_cost", None),
        (spec, "eval_upper_cost", "model.eval_cost", None),
        (spec, "lower_cost_table", "model.cost_tables", None),
        (spec, "upper_cost_table", "model.cost_tables", None),
        (pde_solver, "validate_non_free_loop", "model.validate", None),
        (pde_solver, "validate_terminal_consistency", "model.validate", None),
        (discretization, "build_levy_quadrature", "discretization.quadrature", None),
        (cli, "build_levy_quadrature", "discretization.quadrature", None),
        (pde_solver, "second_derivative_surface", "discretization.stencil", None),
        (discretization, "interpolate", "discretization.interpolate", None),
        (pde_solver, "solve_lower_reflected", "pde_solver.reflected", _solve_entry),
        (pde_solver, "solve_upper_reflected", "pde_solver.reflected", _solve_entry),
        (pde_solver, "estimate_driver_lipschitz", "pde_solver.lipschitz_probe", None),
        (pde_solver, "compute_cfl_bound", "pde_solver.cfl", None),
        (scipy.linalg, "solve_banded", "pde_solver.implicit_solve", None),
        (oracle, "build_discrete_game", "oracle.build", _kernel_bytes),
        (oracle, "backward_induction", "oracle.induction", None),
        (mc, "simulate_paths", "mc.simulate", _path_steps),
        (mc, "solve_bsde_regression", "mc.regression", None),
        (mc, "feynman_kac_check", "mc.fk_check", None),
        (export, "trajectory_csv_files", "export.csv", _csv_files_bytes),
        (export, "plotdata_csv", "export.csv", _text_bytes),
        (export, "write_binary_snapshot", "export.bin", _file_bytes),
        (export, "write_json", "export.json", _file_bytes),
        (cli, "main", _cli_span, None),
    ]
    targets += [(owner, "eval_obstacles", "model.eval_obstacles", None) for owner in (model, pde_solver, mc, export)]
    for owner in (pde_solver, cli):
        targets += [(owner, fn, "pde_solver.solve", _solve) for fn in ("solve_minmax", "solve_maxmin", "solve_penalized")]
    return targets
