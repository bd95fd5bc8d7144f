"""Artifact writers: CSV surfaces, plot data, JSON reports, binary snapshots.

Floats are written with shortest round-trip ``repr``, so identical runs give
byte-identical files.

Binary snapshot layout (little-endian):

    magic     8 bytes   b"SVITRAJ1"
    m1, m2    uint32 each
    n_nodes   uint32
    x_min     float64
    x_max     float64
    n_levels  uint32
    times     float64[n_levels]
    values    float64[n_levels * m1 * m2 * n_nodes], row-major in
              (level, i, j, node) order
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .discretization import SpatialGrid
from .model import ProblemSpec, eval_obstacles
from .pde_solver import Trajectory

__all__ = [
    "fmt_float",
    "trajectory_csv_files",
    "plotdata_csv",
    "write_json",
    "write_binary_snapshot",
    "read_binary_snapshot",
]

_MAGIC = b"SVITRAJ1"
_HEADER = struct.Struct("<8sIIIddI")  # magic, m1, m2, n_nodes, x_min, x_max, n_levels


def fmt_float(v: float) -> str:
    return repr(float(v))


def _node_column(grid: SpatialGrid) -> list[str]:
    """The node coordinates as ``fmt_float`` strings."""
    return list(map(repr, grid.axis().tolist()))


def _csv(header: list[str], nodes: list[str], columns: np.ndarray) -> str:
    """A header line, then one line per node: its formatted coordinate and
    its entries of a ``(columns, nodes)`` array, each line by one ``%``
    format whose ``%r`` is ``repr`` of a Python float, so ``fmt_float``."""
    line = "%s" + ",%r" * columns.shape[0] + "\n"
    return ",".join(header) + "\n" + "".join([line % row for row in zip(nodes, *columns.tolist())])


def _values_csv(values: np.ndarray, nodes: list[str]) -> str:
    """Columns: node coordinate, one value column per mode pair of ``(m1, m2, nodes)`` values."""
    m1, m2 = values.shape[0], values.shape[1]
    header = ["x"] + [f"v_{i}_{j}" for i in range(m1) for j in range(m2)]
    return _csv(header, nodes, values.reshape(m1 * m2, -1))


def trajectory_csv_files(trajectory: Trajectory, out_dir: Path, stem: str, levels: list[int] | None = None) -> list[Path]:
    """One values CSV file per level (columns: node coordinate, one value
    column per mode pair); the node column is formatted once."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    nodes = _node_column(trajectory.grid)
    written = []
    idxs = levels if levels is not None else list(range(trajectory.n_levels))
    for k in idxs:
        path = out_dir / f"{stem}_level{k:04d}.csv"
        path.write_text(_values_csv(trajectory.values[k], nodes), encoding="utf-8")
        written.append(path)
    return written


def plotdata_csv(trajectory: Trajectory, spec: ProblemSpec, level: int = 0) -> str:
    """Level slice with obstacle columns: x, v_ij, L_ij, U_ij per pair."""
    values = trajectory.values[level]
    L, U = eval_obstacles(values, spec.obstacle_costs(float(trajectory.times[level]), trajectory.grid.axis()))
    m1, m2 = values.shape[0], values.shape[1]
    header = ["x"] + [f"{c}_{i}_{j}" for i in range(m1) for j in range(m2) for c in "vLU"]
    columns = np.stack([values, L, U], axis=2).reshape(3 * m1 * m2, -1)
    return _csv(header, _node_column(trajectory.grid), columns)


def write_json(obj, path: Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_binary_snapshot(trajectory: Trajectory, path: Path) -> None:
    m1, m2, n = trajectory.values.shape[1:]
    grid = trajectory.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, m1, m2, n, grid.x_min, grid.x_max, trajectory.n_levels))
        fh.write(np.ascontiguousarray(trajectory.times, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(trajectory.values, dtype="<f8").tobytes())


def read_binary_snapshot(path: Path) -> Trajectory:
    """The trajectory in a snapshot file; ValueError unless the file is
    exactly one header and the finite times and values it announces."""
    raw = Path(path).read_bytes()
    if raw[:8] != _MAGIC:
        raise ValueError("not a trajectory snapshot")
    if len(raw) < _HEADER.size:
        raise ValueError(f"snapshot header needs {_HEADER.size} bytes, the file has {len(raw)}")
    _, m1, m2, n, x_min, x_max, n_levels = _HEADER.unpack_from(raw)
    expected = _HEADER.size + 8 * n_levels * (1 + m1 * m2 * n)
    if len(raw) != expected:
        raise ValueError(f"snapshot of {n_levels} levels of {m1} x {m2} x {n} values needs {expected} bytes, the file has {len(raw)}")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).copy()
    if not np.isfinite(data).all():
        raise ValueError("snapshot holds non-finite times or values")
    values = data[n_levels:].reshape(n_levels, m1, m2, n)
    return Trajectory(times=data[:n_levels], values=values, grid=SpatialGrid.line(x_min, x_max, n))
