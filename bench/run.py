"""Benchmark of switchvi: three workloads, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload jump_dense --seed 1 --seconds 36 --trace 0

Workloads (see ``workloads.py``; ``LAYERS.md`` has the layer shares):

* ``jump_dense``: direct ``solve_minmax`` then ``solve_maxmin``, explicit
  scheme, ``switch_2x2_jump`` with a 64-atom density jump measure, 201 nodes
  x 200 steps.  Loads the per-atom jump loop in ``pde_solver``.
* ``penalty_limit``: limit-mode ``solve_minmax`` then ``solve_maxmin`` over
  the 9-entry default schedule, IMEX scheme, ``no_jump``, 201 x 200.  Loads
  coefficient evaluation, obstacles, the implicit solve and the per-entry
  workspace rebuilds; the jump operator is idle.
* ``cli_crosscheck``: in-process ``switchvi solve`` (201 x 200, every level
  as CSV plus ``--format bin``) then ``switchvi check --seed <seed>`` (50 x 20,
  10,000 paths x 50 Monte-Carlo steps).  Loads ``oracle``, ``mc``, ``export``
  and ``cli``.

Every operation does the same work; the seed reaches only the Monte-Carlo
stream of ``check``.  Each operation's output is checked, and an operation
whose check fails, or that raises, counts in ``failed``.  BLAS and OpenMP are
pinned to one thread.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``op_s``: wall time of one operation at a fixed host speed.  On a
  shared host the speed of this process swings by up to 2x over seconds to
  minutes; CPU time swings with wall time, so it is contention, not steal,
  and no statistic of the operation times alone removes it.  So a fixed
  kernel that does not touch switchvi (``reference_kernel``) is timed
  before the first operation and right after each one.  ``op_s`` is the
  run's total operation time over the total time of the kernels bracketing
  those operations (for each, the mean of the one before and the one
  after), times ``REF_S``, the kernel's typical time on the host named in
  ``LAYERS.md``.  A change to switchvi moves ``op_s`` by the share it moves
  the operations' time, while a change of host speed moves both sides of
  the ratio.  A change that leaves work running between operations (a
  background thread, say) would slow the kernel too and show less than it
  should.  The raw median wall time and the sample count (``attempted``)
  are printed beside it;
* ``setup_s``: median, over this process and one fresh process started
  after each operation, of the time from before ``import switchvi`` until
  the workload's inputs are ready, brought to the same fixed host speed
  (times ``REF_S`` over the run's median bracketing kernel time).  The raw
  samples are printed beside it;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` untraced and traced operations alternate, and the metrics
are per-layer ones from the traced operations (see ``tracing.py``), plus the
tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines above it
give the per-operation times, ``failed_ops`` and the run's provenance
(versions, CPU, thread pin, steal ticks from ``/proc/stat``).  A copy of the
result, and in a traced run every span, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("jump_dense", "penalty_limit", "cli_crosscheck")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 3
PROBE_TIMEOUT_S = 120

# The reference kernel runs REF_ROUNDS rounds of fixed work (see
# ``reference_kernel``).  REF_S is its typical time on the host LAYERS.md
# names, so ``op_s`` reads as seconds on that host.
REF_ROUNDS = 20
REF_S = 0.3


def cpu_ticks() -> dict | None:
    """Aggregate CPU ticks from /proc/stat (read only); None where absent."""
    try:
        fields = Path("/proc/stat").read_text(encoding="ascii").splitlines()[0].split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:]]
    return {"steal": ticks[7] if len(ticks) > 7 else 0, "total": sum(ticks)}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(before: dict | None, after: dict | None) -> dict:
    import numpy
    import scipy

    out = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_pin": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    if before is not None and after is not None:
        total = after["total"] - before["total"]
        steal = after["steal"] - before["steal"]
        out.update(steal_ticks=steal, total_ticks=total, steal_share=steal / total if total else 0.0)
    return out


def reference_kernel() -> float:
    """Fixed work that does not touch switchvi; its time tracks the host's speed.

    Each round mixes what the workloads spend their time on: passes over
    a larger array, banded solves, numpy calls on 201-element arrays and
    pure-Python loops.  The larger array is 256 KiB and is worked on in
    place, so the kernel does not raise the process's peak memory.
    """
    import numpy as np
    import scipy.linalg

    x = np.linspace(-2.0, 2.0, 201)
    big = np.linspace(0.0, 1.0, 32_768)
    buf = np.empty_like(big)
    ab = np.vstack([np.full(201, -1.0), np.full(201, 4.0), np.full(201, -1.0)])
    acc = 0.0
    for r in range(REF_ROUNDS):
        for k in range(90):
            np.add(big, 90 * r + k, out=buf)
            acc += float(np.sqrt(buf, out=buf).sum()) * 1e-6
        for _ in range(100):
            acc += float(scipy.linalg.solve_banded((1, 1), ab, x)[100])
        for i in range(800):
            z = np.exp(-np.abs(x - i * 1e-4))
            acc += float(np.interp(0.3, x, z))
        for _ in range(1000):
            acc += sum(j * j for j in range(40)) * 1e-6
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def at_ref_speed(seconds: float, ref_seconds: float) -> float:
    """``seconds`` measured while the reference kernel took ``ref_seconds``,
    brought to the host speed at which the kernel takes ``REF_S``."""
    return REF_S * seconds / ref_seconds


def setup_sample(name: str, seed: int, workdir: Path):
    """Time from before importing switchvi until the workload's inputs are ready."""
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](workdir, seed)
    return time.perf_counter() - start, workload


def probe_setup(name: str, seed: int) -> float:
    """One ``setup_sample`` in a fresh interpreter, so the import is timed again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed), "--seconds", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def run_ops(workload, seconds: float, tracer=None, probe=None) -> list:
    """Operations until ``seconds`` have passed and at least MIN_OPS ran.

    In a traced run every second operation is traced.  ``probe``, when
    given, is called after each operation and its result recorded with it;
    spreading the set-up samples over the run keeps one slow spell of the
    host from deciding their median.  The reference kernel is timed before
    the first operation and right after each one (``ref_s``), so every
    operation lies between two reference timings.
    """
    records = []
    start = time.perf_counter()
    ref_before = time_reference()
    while True:
        i = len(records)
        traced = tracer is not None and i % 2 == 1
        gc.collect()
        if traced:
            tracer.begin(i)
        t0 = time.perf_counter()
        try:
            out = workload.op()
            failure = None
        except Exception:
            failure = "operation raised:\n" + traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.end()
        ref_after = time_reference()
        problems = [failure] if failure else workload.check(out)
        record = {"op": i, "traced": traced, "s": elapsed, "ref_s": (ref_before + ref_after) / 2, "problems": problems}
        ref_before = ref_after
        print(f"op {i}{' traced' if traced else ''}: {elapsed:.4f} s {'ok' if not problems else 'FAILED: ' + '; '.join(problems)}", flush=True)
        if probe is not None:
            record["setup_s"] = probe()
        records.append(record)
        if time.perf_counter() - start >= seconds and len(records) >= MIN_OPS:
            return records


def measure(args, workdir: Path) -> dict:
    before = cpu_ticks()
    tracer = None
    setups: list = []
    if args.trace:
        import tracing
        import workloads

        tracer = tracing.Tracer(tracing.switchvi_targets())
        tracer.begin("setup")
        try:
            workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
        finally:
            tracer.end()
    else:
        seconds, workload = setup_sample(args.workload, args.seed, workdir)
        setups = [seconds]
    workload.prepare()
    probe = None if tracer is not None else lambda: probe_setup(args.workload, args.seed)
    records = run_ops(workload, args.seconds, tracer, probe)
    setups += [r["setup_s"] for r in records if "setup_s" in r]
    after = cpu_ticks()

    untraced = [r["s"] for r in records if not r["traced"]]
    if tracer is not None:
        # trace.overhead compares operation times at the reference kernel's speed
        scaled = {flag: [r["s"] / r["ref_s"] for r in records if r["traced"] is flag] for flag in (True, False)}
        metrics = tracing.layer_metrics(tracer, scaled[True], scaled[False])
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    else:
        untraced_ref = [r["ref_s"] for r in records if not r["traced"]]
        metrics = {
            "op_s": (at_ref_speed(sum(untraced), sum(untraced_ref)), "s"),
            "setup_s": (at_ref_speed(statistics.median(setups), statistics.median(r["ref_s"] for r in records)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(before, after),
        "setup_samples_s": setups,
        "ops": records,
        "metrics": metrics,
    }


def report(result: dict) -> dict:
    """Print the human-readable summary; return the final JSON line's object."""
    records = result["ops"]
    failed = sum(1 for r in records if r["problems"])
    untraced = sorted(r["s"] for r in records if not r["traced"])
    print(f"provenance: {json.dumps(result['provenance'], sort_keys=True)}")
    if result["setup_samples_s"]:
        print(f"set-up samples: {', '.join(f'{s:.4f}' for s in result['setup_samples_s'])} s")
    note = " (fewer than 11, so no tail percentile)" if len(untraced) < 11 else ""
    refs = sorted(r["ref_s"] for r in records if not r["traced"])
    print(
        f"operations: {len(untraced)} untraced, wall median {statistics.median(untraced):.4f} s, "
        f"min {untraced[0]:.4f} s, max {untraced[-1]:.4f} s{note}"
    )
    print(f"reference kernel (bracketing means): median {statistics.median(refs):.4f} s, min {refs[0]:.4f} s, max {refs[-1]:.4f} s; REF_S {REF_S} s")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ops {failed}/{len(records)} = {failed / len(records):.3g}")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="seed of the Monte-Carlo stream (cli_crosscheck)")
    parser.add_argument("--seconds", type=float, required=True, help="how long to run operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from traced operations")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "switchvi" / "__init__.py").is_file():
        print(f"error: switchvi sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported, here and in the set-up probes
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if args.setup_probe:
            seconds, _ = setup_sample(args.workload, args.seed, workdir)
            print(repr(seconds))
            return 0
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    final = report(result)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(dict(result, summary=final), indent=1) + "\n", encoding="utf-8")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
