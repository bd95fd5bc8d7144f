"""Problem definition and standing-assumption validators.

A :class:`ProblemSpec` bundles everything that defines one switching-game
instance on ``[0, T] x R``: mode sets for the two players, diffusion
coefficients ``b`` and ``sigma``, jump amplitude ``beta`` and per-mode jump
weights ``gamma``, drivers ``g^{ij}``, switching costs (lower costs for the
maximizer, upper costs for the minimizer), terminal data ``h^{ij}`` and the
jump measure.

Validators check the standing assumptions by finite sampling (the
coefficient expressions are opaque, so nothing is proved symbolically):

* non-free-loop property: no cycle of switches has zero net cost, at the
  points of :meth:`ProblemSpec.loop_check_points` (solver gate and CLI alike),
* terminal consistency: ``max_k (h^{kj} - lower_ik(T)) <= h^{ij}
  <= min_l (h^{il} + upper_jl(T))``,
* coefficient bounds: non-negative costs, ``0 <= gamma <= C (1 ^ |e|)``,
  ``|beta| <= K (1 ^ |e|)``, and monotonicity probes of the drivers in the
  jump argument and in the off-diagonal value entries (probe failures are
  reported as warnings, they do not block a solve).

ProblemSpec instances are immutable after construction and safe to share
across workers; every validator is a pure function.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import exprdsl
from .exprdsl import Evaluator, Expr, evaluate, parse

__all__ = [
    "ModeSet",
    "LevyMeasureSpec",
    "ProblemSpec",
    "ValidationReport",
    "CapacityError",
    "MalformedSpecError",
    "validate_non_free_loop",
    "validate_terminal_consistency",
    "validate_coefficient_bounds",
    "eval_obstacles",
    "neg_part",
    "pos_part",
    "driver_variable",
    "driver_increments",
    "probe_points",
    "load_problem",
    "load_builtin_problem",
    "builtin_problem_names",
    "is_finite_number",
    "is_integer",
]

MAX_MODE_PAIRS = 36
MAX_ENUMERATED_LOOPS = 200_000
NON_FREE_LOOP_TOL = 1e-9  # a loop sum this close to 0, relative to its legs and 1, is free
LOOP_SUM_BLOCK = 256  # sample points per loop-sum product, which bounds its (points, rows) array
TERMINAL_CONSISTENCY_TOL = 1e-12  # how far terminal data may break the sandwich at expiry
BOUND_SAMPLE_MARKS = (-1.0, -0.5, -0.1, 0.1, 0.5, 1.0)  # the marks e at which the coefficient bounds are probed
BOUND_TOL = 1e-12  # how far below 0 a probed cost, gamma or driver increment may fall

DRIFT_SCHEMA = ("t", "x")
COST_SCHEMA = ("t", "x")
TERMINAL_SCHEMA = ("x",)
JUMP_SCHEMA = ("x", "e")
DENSITY_SCHEMA = ("e",)
PROBLEM_KEYS = ("name", "modes", "horizon", "drift", "vol", "jump_amplitude", "jump_weights", "levy", "drivers", "lower_costs", "upper_costs", "terminal", "growth")


class CapacityError(ValueError):
    """A desk-scale cap was exceeded (mode pairs, loop enumeration, ...)."""


class MalformedSpecError(ValueError):
    """A problem definition is structurally broken or fails to evaluate."""


def is_finite_number(value) -> bool:
    """Whether ``value`` is a real number of a Python or numpy type, not a
    boolean, and finite as a float: an int too large for a float is not."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, and not a boolean: the
    type every count (modes, nodes, steps, atoms, paths, sweeps, degree) must have."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def driver_variable(i: int, j: int) -> str:
    """DSL variable name bound to the value-matrix entry for mode pair (i, j)."""
    return f"y_{i}_{j}"


def neg_part(x, out=None):
    """(-x) v 0, elementwise, into ``out`` when given."""
    return np.maximum(np.negative(x, out=out), 0.0, out=out)


def pos_part(x, out=None):
    """x v 0, elementwise, into ``out`` when given."""
    return np.maximum(x, 0.0, out=out)


@dataclass(frozen=True)
class ModeSet:
    """Mode counts for the two players; indices run 0..m1-1 and 0..m2-1."""

    m1: int
    m2: int

    def __post_init__(self):
        if not (is_integer(self.m1) and is_integer(self.m2) and self.m1 >= 1 and self.m2 >= 1):
            raise MalformedSpecError(f"mode counts must be integers >= 1, got ({self.m1!r}, {self.m2!r})")
        object.__setattr__(self, "m1", int(self.m1))
        object.__setattr__(self, "m2", int(self.m2))
        if self.m1 * self.m2 > MAX_MODE_PAIRS:
            raise CapacityError(
                f"m1*m2 = {self.m1 * self.m2} exceeds the supported cap of {MAX_MODE_PAIRS} mode pairs"
            )

    def pairs(self) -> Iterable[tuple[int, int]]:
        for i in range(self.m1):
            for j in range(self.m2):
                yield (i, j)


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Jump measure: either a finite atom list or a density with truncation.

    ``cutoff`` is the small-jump threshold; marks below it are replaced by a
    matched diffusion correction when the quadrature is built.
    """

    atoms: tuple[tuple[float, float], ...] | None = None
    density: Expr | None = None
    radius: float | None = None
    cutoff: float = 0.0

    def __post_init__(self):
        if not (is_finite_number(self.cutoff) and 0.0 <= self.cutoff < 1.0):
            raise MalformedSpecError(f"cutoff must be a number in [0, 1), got {self.cutoff!r}")
        object.__setattr__(self, "cutoff", float(self.cutoff))
        if self.atoms is None and self.density is None:
            object.__setattr__(self, "atoms", ())
        if self.atoms is not None and self.density is not None:
            raise MalformedSpecError("give either atoms or a density, not both")
        if self.atoms is not None:
            for e, w in self.atoms:
                if not (is_finite_number(e) and is_finite_number(w) and w > 0):
                    raise MalformedSpecError(f"atom ({e!r}, {w!r}) must have a finite number as mark and one > 0 as weight")
            object.__setattr__(self, "atoms", tuple((float(e), float(w)) for e, w in self.atoms))
        if self.density is not None:
            if not (is_finite_number(self.radius) and self.radius > self.cutoff > 0.0):
                raise MalformedSpecError(f"a density descriptor requires finite numbers radius > cutoff > 0, got radius {self.radius!r}")
            object.__setattr__(self, "radius", float(self.radius))

    @staticmethod
    def from_dict(d: Mapping) -> "LevyMeasureSpec":
        _check_keys(d, ("atoms", "density", "radius", "cutoff"), "levy")
        if "density" in d and "atoms" in d:
            raise MalformedSpecError("levy: give either 'atoms' or a 'density', not both")
        if "radius" in d and "density" not in d:
            raise MalformedSpecError("levy: 'radius' goes with a 'density', not with 'atoms'")
        if "density" in d:
            dens = d["density"]
            expr = parse(dens, DENSITY_SCHEMA) if isinstance(dens, str) else dens
            return LevyMeasureSpec(atoms=None, density=expr, radius=d["radius"], cutoff=d.get("cutoff", 0.0))
        atoms = tuple((e, w) for e, w in d.get("atoms", []))
        return LevyMeasureSpec(atoms=atoms, cutoff=d.get("cutoff", 0.0))


def _as_expr(value, schema: Sequence[str]) -> Expr:
    if isinstance(value, str):
        return parse(value, schema)
    if isinstance(value, (int, float, np.integer, np.floating)):
        if not is_finite_number(value):
            raise MalformedSpecError(f"a coefficient must be an expression or a finite number, got {value!r}")
        return exprdsl.Num(float(value))
    return value  # already an Expr


def _check_keys(raw, keys: Sequence[str], where: str) -> None:
    """MalformedSpecError naming a key of the mapping ``raw`` outside ``keys``."""
    unknown = sorted(map(str, set(raw) - set(keys))) if isinstance(raw, Mapping) else []
    if unknown:
        raise MalformedSpecError(f"{where}: unknown key {unknown[0]!r}; the keys are {', '.join(keys)}")


def _pair_map(raw: Mapping, pairs: Sequence[tuple[int, int]], schema: Sequence[str], what: str) -> dict:
    """Normalize {"i,j": expr} / {(i,j): expr} maps of ``pairs``; 'default' fills gaps."""
    parsed: dict[tuple[int, int], Expr] = {}
    default = raw.get("default") if isinstance(raw, Mapping) else None
    for key, value in raw.items():
        if key == "default":
            continue
        if isinstance(key, str):
            a, b = key.split(",")
            pair = (int(a), int(b))
        else:
            pair = (int(key[0]), int(key[1]))
        if pair not in pairs:
            raise MalformedSpecError(f"unknown {what} key {key!r}; the keys are 'default' and {', '.join(f'{a},{b}' for a, b in pairs)}")
        parsed[pair] = _as_expr(value, schema)
    out = {}
    for pair in pairs:
        if pair in parsed:
            out[pair] = parsed[pair]
        elif default is not None:
            out[pair] = _as_expr(default, schema)
        else:
            raise MalformedSpecError(f"missing {what} entry for mode pair {pair}")
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """One switching-game instance; all coefficients are parsed DSL trees."""

    modes: ModeSet
    horizon: float
    drift: Expr
    vol: Expr
    jump_amplitude: Expr
    jump_weights: Mapping[tuple[int, int], Expr]
    drivers: Mapping[tuple[int, int], Expr]
    lower_costs: Mapping[tuple[int, int], Expr]
    upper_costs: Mapping[tuple[int, int], Expr]
    terminal: Mapping[tuple[int, int], Expr]
    levy: LevyMeasureSpec
    name: str = ""

    def __post_init__(self):
        if not (is_finite_number(self.horizon) and self.horizon > 0):
            raise MalformedSpecError(f"horizon must be a finite number > 0, got {self.horizon!r}")
        object.__setattr__(self, "horizon", float(self.horizon))
        m1, m2 = self.modes.m1, self.modes.m2
        pairs = set(self.modes.pairs())
        for label, mapping, keys in (
            ("driver", self.drivers, pairs),
            ("jump weight", self.jump_weights, pairs),
            ("terminal", self.terminal, pairs),
            ("lower cost", self.lower_costs, {(i, k) for i in range(m1) for k in range(m1) if i != k}),
            ("upper cost", self.upper_costs, {(j, l) for j in range(m2) for l in range(m2) if j != l}),
        ):
            missing = keys - set(mapping)
            if missing:
                raise MalformedSpecError(f"missing {label} entries for {sorted(missing)}")
        for name in ("jump_weights", "drivers", "lower_costs", "upper_costs", "terminal"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def __reduce__(self):
        # a mappingproxy does not pickle: rebuild from plain dicts, through the checks above
        return ProblemSpec, tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in (getattr(self, f.name) for f in fields(self)))

    # --- construction -------------------------------------------------

    @staticmethod
    def from_dict(d: Mapping) -> "ProblemSpec":
        try:
            _check_keys(d, PROBLEM_KEYS, "problem")
            growth = d.get("growth", {})  # C = 0 asks for the clamp, so files that carry it still load
            _check_keys(growth, ("C", "gamma"), "growth")
            if not (isinstance(growth, Mapping) and is_finite_number(growth.get("C", 0)) and growth.get("C", 0) == 0):
                raise MalformedSpecError(f"growth extrapolation is retired: values beyond the grid box are clamped, got growth {growth!r}")
            _check_keys(d["modes"], ("m1", "m2"), "modes")
            modes = ModeSet(d["modes"]["m1"], d["modes"]["m2"])
            pairs = list(modes.pairs())
            driver_schema = ("t", "x", "z", "q") + tuple(driver_variable(i, j) for i, j in pairs)
            lower_keys = [(i, k) for i in range(modes.m1) for k in range(modes.m1) if i != k]
            upper_keys = [(j, l) for j in range(modes.m2) for l in range(modes.m2) if j != l]
            return ProblemSpec(
                modes=modes,
                horizon=d["horizon"],
                drift=_as_expr(d.get("drift", "0"), DRIFT_SCHEMA),
                vol=_as_expr(d.get("vol", "0"), DRIFT_SCHEMA),
                jump_amplitude=_as_expr(d.get("jump_amplitude", "0"), JUMP_SCHEMA),
                jump_weights=_pair_map(d.get("jump_weights", {"default": "0"}), pairs, JUMP_SCHEMA, "jump weight"),
                drivers=_pair_map(d["drivers"], pairs, driver_schema, "driver"),
                lower_costs=_pair_map(d.get("lower_costs", {}), lower_keys, COST_SCHEMA, "lower cost"),
                upper_costs=_pair_map(d.get("upper_costs", {}), upper_keys, COST_SCHEMA, "upper cost"),
                terminal=_pair_map(d["terminal"], pairs, TERMINAL_SCHEMA, "terminal"),
                levy=LevyMeasureSpec.from_dict(d.get("levy", {})),
                name=str(d.get("name", "")),
            )
        except (MalformedSpecError, CapacityError, exprdsl.ExprError):
            raise
        except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise MalformedSpecError(f"problem definition is missing or mistypes a field: {exc}") from exc

    # --- coefficient evaluation ----------------------------------------
    # Every helper broadcasts its expression to the joint shape of all of its
    # bindings, so one call covers a leading mark, time or bump axis; the distinct
    # shapes are joined pair by pair, as numpy 1.x's np.broadcast takes 32 arguments.

    def _field(self, expr: Expr, ctx: Mapping) -> np.ndarray:
        shape = functools.reduce(np.broadcast_shapes, {np.shape(v) for v in ctx.values()}, ())
        arr = np.asarray(evaluate(expr, ctx), dtype=float)
        if arr.shape != shape:
            arr = np.broadcast_to(arr, shape).copy()
        elif isinstance(expr, exprdsl.Var):
            arr = arr.copy()  # the one result that can share memory with a caller's array
        return arr

    def eval_drift(self, t: float, x) -> np.ndarray:
        return self._field(self.drift, {"t": t, "x": np.asarray(x, dtype=float)})

    def eval_vol(self, t: float, x) -> np.ndarray:
        return self._field(self.vol, {"t": t, "x": np.asarray(x, dtype=float)})

    def eval_beta(self, x, e: float) -> np.ndarray:
        return self._field(self.jump_amplitude, {"x": np.asarray(x, dtype=float), "e": e})

    def eval_gamma(self, pair: tuple[int, int], x, e: float) -> np.ndarray:
        return self._field(self.jump_weights[pair], {"x": np.asarray(x, dtype=float), "e": e})

    def eval_lower_cost(self, i: int, k: int, t: float, x) -> np.ndarray:
        return self._field(self.lower_costs[(i, k)], {"t": t, "x": np.asarray(x, dtype=float)})

    def eval_upper_cost(self, j: int, l: int, t: float, x) -> np.ndarray:
        return self._field(self.upper_costs[(j, l)], {"t": t, "x": np.asarray(x, dtype=float)})

    def eval_terminal(self, pair: tuple[int, int], x) -> np.ndarray:
        return self._field(self.terminal[pair], {"x": np.asarray(x, dtype=float)})

    def eval_driver(self, pair: tuple[int, int], t: float, x, y_entries: Mapping[str, object], z, q) -> np.ndarray:
        return self._field(self.drivers[pair], {"t": t, "x": np.asarray(x, dtype=float), "z": z, "q": q, **y_entries})

    def _cost_table(self, m: int, eval_cost, t: float, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros((m, m) + x.shape)
        for i in range(m):
            for k in range(m):
                if i != k:
                    out[i, k] = eval_cost(i, k, t, x)
        return out

    def lower_cost_table(self, t: float, x) -> np.ndarray:
        """(m1, m1) + x.shape array of lower switching costs at (t, x); diagonal 0."""
        return self._cost_table(self.modes.m1, self.eval_lower_cost, t, x)

    def upper_cost_table(self, t: float, x) -> np.ndarray:
        """(m2, m2) + x.shape array of upper switching costs at (t, x); diagonal 0."""
        return self._cost_table(self.modes.m2, self.eval_upper_cost, t, x)

    def obstacle_costs(self, t: float, x) -> tuple:
        """The players' :func:`other_mode_costs` gathers of the lower and upper
        cost tables at (t, x): the cost format :func:`eval_obstacles` reads."""
        return other_mode_costs(self.lower_cost_table(t, x)), other_mode_costs(self.upper_cost_table(t, x))

    @functools.cached_property
    def costs_read_t(self) -> bool:
        """Whether any switching cost reads t."""
        return any("t" in exprdsl.free_variables(e) for e in (*self.lower_costs.values(), *self.upper_costs.values()))

    def loop_check_points(self, x, times) -> np.ndarray:
        """The ``(points, 2)`` array of ``(t, x)`` at which the non-free-loop
        property is checked on a grid: every node of ``x`` at every time of
        ``times`` when a switching cost reads t, at the last time otherwise."""
        ts = np.asarray(times, dtype=float)[slice(None) if self.costs_read_t else slice(-1, None)]
        return np.column_stack([np.repeat(ts, np.size(x)), np.tile(np.asarray(x, dtype=float), len(ts))])

    def terminal_table(self, x) -> np.ndarray:
        """(m1, m2) + x.shape array of the terminal data ``h^{ij}(x)``."""
        x = np.asarray(x, dtype=float)
        out = np.empty((self.modes.m1, self.modes.m2) + x.shape)
        for pair in self.modes.pairs():
            out[pair] = self.eval_terminal(pair, x)
        return out

    def driver_evaluator(self, x):
        """``drivers(t, y, z, q)``: the ``(m1, m2) + x.shape`` array of the
        drivers ``g^{ij}(t, x, y, z^{ij}, q^{ij})`` at this ``x``, for a
        ``(m1, m2) + x.shape`` value stack ``y`` and ``z``, ``q`` stacks of
        that shape or scalars, by one :class:`~switchvi.exprdsl.Evaluator`.
        It computes an affine driver (every shipped one) as
        ``g0(t, x) + A·y + B z + C q``, within rounding of one
        :meth:`eval_driver` call per pair, and any other driver bitwise equal
        to that call; errors are that call's.  The coefficients and the
        drivers' subtrees over ``t`` and ``x`` alone are computed once per
        distinct ``t``, or once if none reads ``t``."""
        x = np.asarray(x, dtype=float)
        pairs = list(self.modes.pairs())
        table = Evaluator([self.drivers[p] for p in pairs], x, [driver_variable(i, j) for i, j in pairs])
        shape = (self.modes.m1, self.modes.m2) + x.shape
        return lambda t, y, z, q: table(t, y, z=z, q=q).reshape(shape)

    def beta_table(self, x, marks: Sequence[float]) -> np.ndarray:
        """``(atoms,) + x.shape`` array of ``beta(x, e_a)``, one atom per entry of ``marks``."""
        x = np.asarray(x, dtype=float)
        return self.eval_beta(x, np.asarray(marks, dtype=float).reshape((-1,) + (1,) * x.ndim))

    def jump_tables(self, x, marks: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """``beta_table(x, marks)`` and the ``(m1, m2, atoms) + x.shape`` array of ``gamma^{ij}(x, e_a)``."""
        x = np.asarray(x, dtype=float)
        e = np.asarray(marks, dtype=float).reshape((-1,) + (1,) * x.ndim)
        gamma = [[self.eval_gamma((i, j), x, e) for j in range(self.modes.m2)] for i in range(self.modes.m1)]
        return self.eval_beta(x, e), np.array(gamma)


# --- obstacles ---------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _other_modes(m: int) -> np.ndarray:
    """The read-only ``(m, m - 1)`` table whose row ``i`` lists the modes ``k != i`` in increasing order."""
    table = np.array([np.delete(np.arange(m), i) for i in range(m)]).reshape(m, m - 1)
    table.setflags(write=False)
    return table


def other_mode_costs(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(ks, c)`` for a player's ``(m, m) + cost_tail`` cost table: ``ks[i]``
    lists the modes ``k != i`` in increasing order and ``c[i] = costs[i, ks[i]]``;
    None for a player with a single mode."""
    if costs.shape[0] < 2:
        return None
    ks = _other_modes(costs.shape[0])
    return ks, costs[np.arange(len(ks))[:, None], ks]


def obstacle(y: np.ndarray, gather, axis: int, combine: np.ufunc, pick: np.ufunc) -> np.ndarray:
    """``pick`` over the other modes of ``combine(y.take(ks, axis), c)``.

    ``gather = (ks, c)`` is ``other_mode_costs`` of one player's costs;
    ``axis`` is that player's mode axis in ``y``, 0 or 1, and ``c``'s cost
    tail broadcasts against the trailing axes of ``y``.  ``np.subtract``
    with ``np.maximum`` gives the lower obstacle, ``np.add`` with
    ``np.minimum`` the upper one; a None ``gather`` (a single mode) gives
    the sentinel ``-inf`` or ``+inf`` everywhere.  The
    candidates are gathered once, combined in place and reduced in
    increasing ``k``, as a per-mode loop would; with a single candidate the
    result is a view of the gather.
    """
    if gather is None:
        return np.full(y.shape, -np.inf if pick is np.maximum else np.inf)
    ks, c = gather
    cands = y.take(ks, axis=axis)
    tail = c.shape[2:]
    combine(cands, c.reshape(ks.shape + (1,) * (y.ndim - 1 - axis - len(tail)) + tail), out=cands)
    if cands.shape[axis + 1] == 1:
        return cands[(slice(None),) * (axis + 1) + (0,)]
    return pick.reduce(cands, axis=axis + 1)


def eval_obstacles(y: np.ndarray, costs: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Interconnected obstacles built from a value matrix.

    ``L[i,j] = max_{k != i} (y[k,j] - lower_costs[i,k])`` and
    ``U[i,j] = min_{l != j} (y[i,l] + upper_costs[j,l])``.  When a player has
    a single mode the corresponding obstacle is the sentinel -inf / +inf,
    which makes downstream penalties and projections vanish.

    ``y`` is ``(m1, m2) + tail`` and may carry trailing axes such as grid
    nodes or paths.  ``costs`` is :meth:`ProblemSpec.obstacle_costs`, the
    players' cost gathers, whose cost tail broadcasts against ``tail``
    (``()`` for constant costs, or ``tail`` itself); ``L`` and ``U`` have
    the shape of ``y``.  Each side is one :func:`obstacle` over all modes.
    """
    lower, upper = costs
    return obstacle(y, lower, 0, np.subtract, np.maximum), obstacle(y, upper, 1, np.add, np.minimum)


# --- validation ----------------------------------------------------------


@dataclass
class ValidationReport:
    """Outcome of one validator: hard violations block, warnings do not."""

    name: str
    passed: bool
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@functools.lru_cache(maxsize=None)
def _loop_legs(m1: int, m2: int, moves: str = "both") -> tuple:
    """``(loops, rows, row_of)``: the directed simple loops of the mode-pair
    graph, each a pair sequence back to its start through distinct pairs with
    one coordinate changing per step, player 1's (``moves`` 'lower'), player
    2's ('upper') or either's ('both').  A loop starts at its smallest pair,
    so no rotation repeats; both directions are kept.  The read-only ``rows``
    are the distinct leg counts: minus how often a loop takes lower leg
    ``(i, k)``, at column ``i*m1 + k``, then plus how often it takes each
    upper leg ``(j, l)``, so a row times the stacked cost tables is a loop's
    sum; ``row_of[n]`` is loop ``n``'s row."""
    loops: list[tuple[tuple[int, int], ...]] = []

    def extend(start, path, visited):
        if len(loops) > MAX_ENUMERATED_LOOPS:
            raise CapacityError(f"loop enumeration exceeded {MAX_ENUMERATED_LOOPS} loops; reduce the mode sets")
        i, j = path[-1]
        lower = [(k, j) for k in range(m1) if k != i and moves != "upper"]
        for nxt in lower + [(i, l) for l in range(m2) if l != j and moves != "lower"]:
            if nxt == start and len(path) >= 2:
                loops.append(tuple(path) + (start,))
            elif nxt not in visited and nxt > start:
                visited.add(nxt)
                extend(start, path + [nxt], visited)
                visited.discard(nxt)

    for start in np.ndindex(m1, m2):
        extend(start, [start], {start})
    counts = np.zeros((len(loops), m1 * m1 + m2 * m2))
    for n, loop in enumerate(loops):
        for (i1, j1), (i2, j2) in zip(loop, loop[1:]):
            column, sign = (i1 * m1 + i2, -1) if i1 != i2 else (m1 * m1 + j1 * m2 + j2, 1)
            counts[n, column] += sign
    rows, row_of = np.unique(counts, axis=0, return_inverse=True)
    for table in (rows, row_of):
        table.setflags(write=False)
    return tuple(loops), rows, row_of


def validate_non_free_loop(
    spec: ProblemSpec,
    sample_points: Sequence[tuple[float, float]],
    moves: str = "both",
) -> ValidationReport:
    """Check that every simple switching loop has a nonvanishing cost sum.

    Each loop leg contributes ``-lower_cost`` when player 1 switches and
    ``+upper_cost`` when player 2 switches.  A loop whose sum is within
    ``NON_FREE_LOOP_TOL`` (relative to the leg magnitudes and 1) of zero at
    any ``(t, x)`` sample point is reported once, at its first such point.
    The checked players' cost tables are evaluated once over all points, the
    :func:`_loop_legs` rows summed per block by one matrix product; a sum within
    twice the tolerance (past rounding) is re-added leg by leg, which decides.
    """
    points = np.asarray(sample_points, dtype=float).reshape(-1, 2)
    if not len(points):
        raise MalformedSpecError("sample_points must be non-empty")
    m1, m2 = spec.modes.m1, spec.modes.m2
    loops, rows, row_of = _loop_legs(m1, m2, moves)
    ts, xs = points.T.copy()
    try:
        lower = spec.lower_cost_table(ts, xs) if moves != "upper" else np.zeros((m1, m1, len(xs)))
        upper = spec.upper_cost_table(ts, xs) if moves != "lower" else np.zeros((m2, m2, len(xs)))
    except exprdsl.ExprError as exc:
        raise MalformedSpecError(f"cost expression failed to evaluate: {exc}") from exc
    legs = np.concatenate([lower.reshape(m1 * m1, -1).T, upper.reshape(m2 * m2, -1).T], axis=1)
    found: dict = {}
    open_rows = np.ones(len(rows), dtype=bool)  # rows with a loop not yet found free
    for start in range(0, len(xs), LOOP_SUM_BLOCK):
        block = legs[start : start + LOOP_SUM_BLOCK]
        sums = block @ rows.T
        near = np.abs(sums, out=sums) < 2.0 * NON_FREE_LOOP_TOL * np.maximum(1.0, np.max(np.abs(block), axis=1, keepdims=True))
        for r in np.flatnonzero(near.any(axis=0) & open_rows):
            members = [n for n in np.flatnonzero(row_of == r) if n not in found]
            for n in members:
                for w in start + np.flatnonzero(near[:, r]):
                    total, scale = 0.0, 1.0
                    for (i1, j1), (i2, j2) in zip(loops[n], loops[n][1:]):
                        leg = -lower[i1, i2, w] if i1 != i2 else upper[j1, j2, w]
                        total, scale = total + leg, max(scale, abs(leg))
                    if abs(total) < NON_FREE_LOOP_TOL * scale:
                        found[n] = {"loop": [list(p) for p in loops[n]], "point": [float(ts[w]), float(xs[w])], "loop_sum": float(total)}
                        break
            open_rows[r] = any(n not in found for n in members)
    violations = [found[n] for n in sorted(found)]
    return ValidationReport(
        name="non_free_loop",
        passed=not violations,
        violations=violations,
        details={"loops_checked": len(loops), "points_checked": len(xs), "moves": moves},
    )


def validate_terminal_consistency(spec: ProblemSpec, sample_xs: Sequence[float]) -> ValidationReport:
    """Check the terminal sandwich against switching costs at expiry; a
    violation above ``TERMINAL_CONSISTENCY_TOL`` fails it."""
    xs = np.asarray(list(sample_xs), dtype=float)
    T = spec.horizon
    h = spec.terminal_table(xs)
    L, U = eval_obstacles(h, spec.obstacle_costs(T, xs))
    low_viol = neg_part(h - L)  # L > h
    up_viol = pos_part(h - U)  # h > U
    worst = max(float(np.max(low_viol)), float(np.max(up_viol)))
    violations = []
    if worst > TERMINAL_CONSISTENCY_TOL:
        side = "lower" if np.max(low_viol) >= np.max(up_viol) else "upper"
        viol = low_viol if side == "lower" else up_viol
        flat = int(np.argmax(viol))
        i, j, w = np.unravel_index(flat, viol.shape)
        violations.append(
            {
                "pair": [int(i), int(j)],
                "x": float(xs[w]),
                "side": side,
                "magnitude": float(viol[i, j, w]),
            }
        )
    return ValidationReport(
        name="terminal_consistency",
        passed=not violations,
        violations=violations,
        details={"worst_violation": worst, "points_checked": len(xs)},
    )


def probe_points(xs) -> np.ndarray:
    """Every eighth point of ``xs``, where the driver probes sample."""
    return np.asarray(xs, dtype=float)[:: max(1, len(xs) // 8)]


def driver_increments(spec: ProblemSpec, times, xs, y_rows, h: float) -> np.ndarray:
    """The ``(pairs, pairs + 2, rows, probes)`` increments of each pair's driver
    at the :func:`probe_points` of ``xs`` when each value entry in pair order,
    then z, then q is raised by ``h``, from ``t = times[r]``, ``y = y_rows[r]``
    and ``z = q = 0`` in row r, ``y_rows`` an ``(rows, m1, m2)`` array: the
    probe behind the stability bound's Lipschitz term and the monotonicity warnings,
    by one :meth:`ProblemSpec.eval_driver` call per pair over a leading bump axis."""
    t = np.asarray(times, dtype=float)[:, None]
    x = np.tile(probe_points(xs), (len(t), 1))
    pairs = list(spec.modes.pairs())
    # bump row 0 is the base point, row 1 + b raises value entry b, the last two z and q
    y = np.repeat(np.asarray(y_rows, dtype=float)[None], len(pairs) + 3, axis=0)
    z, q = np.zeros((2, len(pairs) + 3, 1, 1))
    for b, (i, j) in enumerate(pairs, start=1):
        y[b, :, i, j] += h
    z[-2] = q[-1] = h
    entries = {driver_variable(i, j): y[:, :, i, j, None] for i, j in pairs}
    values = np.array([spec.eval_driver(pair, t, x, entries, z, q) for pair in pairs])
    return values[:, 1:] - values[:, :1]


def validate_coefficient_bounds(
    spec: ProblemSpec,
    sample_ts: Sequence[float],
    sample_xs: Sequence[float],
) -> ValidationReport:
    """Probe cost non-negativity, gamma/beta envelopes and driver monotonicity.

    Sampling can only certify, never prove: the report records the inferred
    envelope constants.  Monotonicity probe failures (driver decreasing in
    the jump argument or in an off-diagonal value entry) are warnings; they
    flag an instance the comparison structure may not cover, but do not
    block a solve.
    """
    xs = np.asarray(list(sample_xs), dtype=float)
    violations: list = []
    warnings: list = []
    details: dict = {}

    for t in sample_ts:
        for side, costs in (("lower", spec.lower_cost_table(float(t), xs)), ("upper", spec.upper_cost_table(float(t), xs))):
            for a, b in zip(*np.nonzero(np.min(costs, axis=-1) < -BOUND_TOL)):
                violations.append({"what": f"{side}_cost[{a},{b}]", "t": float(t), "min": float(np.min(costs[a, b]))})

    gamma_ratio = 0.0
    beta_ratio = 0.0
    beta, gamma = spec.jump_tables(xs, BOUND_SAMPLE_MARKS)
    for a, e in enumerate(BOUND_SAMPLE_MARKS):
        cap = min(1.0, abs(float(e)))
        beta_ratio = max(beta_ratio, float(np.max(np.abs(beta[a]))) / cap)
        for pair in spec.modes.pairs():
            g_vals = gamma[pair][a]
            if np.min(g_vals) < -BOUND_TOL:
                violations.append({"what": f"gamma[{pair}]", "e": float(e), "min": float(np.min(g_vals))})
            gamma_ratio = max(gamma_ratio, float(np.max(g_vals)) / cap)
    details["gamma_envelope_constant"] = gamma_ratio
    details["beta_envelope_constant"] = beta_ratio

    # driver monotonicity probes: q and off-diagonal y entries
    increments = driver_increments(spec, sample_ts, xs, np.zeros((len(sample_ts), spec.modes.m1, spec.modes.m2)), 1e-4)
    for r, t in enumerate(sample_ts):
        for a, pair in enumerate(spec.modes.pairs()):
            if np.min(increments[a, -1, r]) < -BOUND_TOL:
                warnings.append({"what": f"driver[{pair}] decreasing in q", "t": float(t)})
            for b, other in enumerate(spec.modes.pairs()):
                if other != pair and np.min(increments[a, b, r]) < -BOUND_TOL:
                    warnings.append({"what": f"driver[{pair}] decreasing in y[{other}]", "t": float(t)})

    return ValidationReport(
        name="coefficient_bounds",
        passed=not violations,
        violations=violations,
        warnings=warnings,
        details=details,
    )


# --- shipped problems -----------------------------------------------------


def load_problem(source) -> ProblemSpec:
    """Build a ProblemSpec from a dict, a JSON string or a file path."""
    if isinstance(source, Mapping):
        return ProblemSpec.from_dict(source)
    text = str(source)
    if text.strip().startswith("{"):
        return ProblemSpec.from_dict(json.loads(text))
    with open(text, "r", encoding="utf-8") as fh:
        return ProblemSpec.from_dict(json.load(fh))


def builtin_problem_names() -> list[str]:
    files = resources.files("switchvi.problems")
    return sorted(p.name[: -len(".json")] for p in files.iterdir() if p.name.endswith(".json"))


def load_builtin_problem(name: str) -> ProblemSpec:
    ref = resources.files("switchvi.problems").joinpath(f"{name}.json")
    return ProblemSpec.from_dict(json.loads(ref.read_text(encoding="utf-8")))
