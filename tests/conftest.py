import numpy as np
import pytest

from switchvi.discretization import BETA_SLOPE_STEP, SpatialGrid, TimeGrid, build_levy_quadrature
from switchvi import exprdsl
from switchvi.exprdsl import BinOp, Call, Expr, Neg, Num, Var, evaluate, free_variables
from switchvi.model import ModeSet, ProblemSpec, driver_variable, eval_obstacles, load_builtin_problem, other_mode_costs


@pytest.fixture(scope="session")
def grid101():
    return SpatialGrid.line(-2.0, 2.0, 101)


@pytest.fixture(scope="session")
def tgrid50():
    return TimeGrid(horizon=0.5, n_steps=50)


@pytest.fixture(scope="session")
def spec_2x2():
    return load_builtin_problem("switch_2x2_jump")


@pytest.fixture(scope="session")
def spec_two_atom():
    return load_builtin_problem("two_atom_jump")


@pytest.fixture(scope="session")
def spec_no_jump():
    return load_builtin_problem("no_jump")


@pytest.fixture(scope="session")
def quad_2x2(spec_2x2):
    return build_levy_quadrature(spec_2x2.levy)


@pytest.fixture(scope="session")
def quad_two_atom(spec_two_atom):
    return build_levy_quadrature(spec_two_atom.levy)


def make_spec(**overrides) -> ProblemSpec:
    """Single-mode jump-diffusion baseline; override fields per test."""
    base = {
        "name": "test",
        "modes": {"m1": 1, "m2": 1},
        "horizon": 0.5,
        "drift": "0.05",
        "vol": "0.2",
        "jump_amplitude": "0.8*e",
        "jump_weights": {"default": "0.5*min(abs(e), 1)"},
        "levy": {"atoms": [[0.5, 0.4], [-0.5, 0.4]]},
        "drivers": {"default": "0"},
        "lower_costs": {"default": "0.4"},
        "upper_costs": {"default": "0.4"},
        "terminal": {"default": "0"},
    }
    base.update(overrides)
    return ProblemSpec.from_dict(base)


@pytest.fixture
def spec_factory():
    return make_spec


def beta_slope_at_zero(spec: ProblemSpec, x) -> np.ndarray:
    """Reference ``(d beta/d e)(x, 0)``: the central difference of step
    ``BETA_SLOPE_STEP``, one ``eval_beta`` call per mark."""
    h = BETA_SLOPE_STEP
    return (spec.eval_beta(x, h) - spec.eval_beta(x, -h)) / (2.0 * h)


# the last term of each driver of mode_pair_cap_spec
CAP_Q_TERMS = {"not-affine": "0.02*q*y_{i}_{k}", "affine": "0.02*q + 0.03*y_{i}_{k}"}


def mode_pair_cap_spec(q_term: str) -> ProblemSpec:
    """A 6x6 game (36 pairs, the cap), so a driver has 40 bindings: t, x, z, q
    and 36 value entries; ``q_term`` is formatted with ``i`` and ``k = 5 - j``."""
    pairs = [(i, j) for i in range(6) for j in range(6)]
    drivers = {f"{i},{j}": f"0.1*z - 0.2*y_{i}_{j} + 0.01*y_{5 - i}_{j} + " + q_term.format(i=i, k=5 - j) for i, j in pairs}
    return make_spec(modes={"m1": 6, "m2": 6}, drivers=drivers)


def cap_broadcast_arguments(monkeypatch) -> None:
    """Make np.broadcast fail on more than the 32 arguments numpy 1.x takes."""
    broadcast = np.broadcast

    def capped(*args):
        assert len(args) <= 32
        return broadcast(*args)

    monkeypatch.setattr(np, "broadcast", capped)


def gathered(lower_costs: np.ndarray, upper_costs: np.ndarray) -> tuple:
    """Two cost tables in the format ``eval_obstacles`` reads, as ``ProblemSpec.obstacle_costs`` returns it."""
    return other_mode_costs(lower_costs), other_mode_costs(upper_costs)


def step(ws, values: np.ndarray, t: float, n: float, m: float) -> np.ndarray:
    """``ws.step`` of ``values`` at ``t``, on their obstacles there from the workspace's costs."""
    return ws.step(values, t, n, m, eval_obstacles(values, ws.obstacle_costs(t)))


def assert_all_le(a: np.ndarray, b: np.ndarray, tol: float, label: str = ""):
    worst = float(np.max(a - b))
    assert worst <= tol, f"{label}: worst violation {worst:.3e} > {tol:.1e}"


def substitute(expr: Expr, mapping: dict) -> Expr:
    """Replace variables by subtrees."""
    if isinstance(expr, Num):
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Neg):
        return Neg(substitute(expr.operand, mapping))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Call):
        return Call(expr.fn, tuple(substitute(a, mapping) for a in expr.args))
    raise TypeError(f"not an Expr node: {expr!r}")


def negated_transposed_spec(spec: ProblemSpec) -> ProblemSpec:
    """Sign-flip conjugate: swap the players, negate data and drivers.

    The upper-reflected system for ``spec`` equals the negative transpose of
    the lower-reflected system for the returned spec (the upper projection
    turns into a lower one and the lower penalty into an upper one).  It is
    an independent reference for the duality between the two reflected
    systems.
    """
    m1, m2 = spec.modes.m1, spec.modes.m2
    mapping = {"z": Neg(Var("z")), "q": Neg(Var("q"))}
    for i in range(m1):
        for j in range(m2):
            mapping[driver_variable(i, j)] = Neg(Var(driver_variable(j, i)))
    drivers = {}
    terminal = {}
    weights = {}
    for i in range(m1):
        for j in range(m2):
            drivers[(j, i)] = Neg(substitute(spec.drivers[(i, j)], mapping))
            terminal[(j, i)] = Neg(spec.terminal[(i, j)])
            weights[(j, i)] = spec.jump_weights[(i, j)]
    return ProblemSpec(
        modes=ModeSet(m2, m1),
        horizon=spec.horizon,
        drift=spec.drift,
        vol=spec.vol,
        jump_amplitude=spec.jump_amplitude,
        jump_weights=weights,
        drivers=drivers,
        lower_costs=dict(spec.upper_costs),
        upper_costs=dict(spec.lower_costs),
        terminal=terminal,
        levy=spec.levy,
        name=f"{spec.name}:conjugate" if spec.name else "conjugate",
    )


UNIT_ROUNDOFF = 2.0**-53
UNDERFLOW_ERROR = 2.0**-1075  # the largest error of one rounding into the subnormal range


def operation_count(expr: Expr) -> int:
    """The operators of a tree: its BinOp, Neg and Call nodes."""
    if isinstance(expr, (Num, Var)):
        return 0
    children = (expr.operand,) if isinstance(expr, Neg) else (expr.left, expr.right) if isinstance(expr, BinOp) else expr.args
    return 1 + sum(map(operation_count, children))


def _magnitudes(expr: Expr, ctx: dict):
    """``(E, P)`` of an affine tree at ``ctx`` (see ``affine_error_bound``)."""
    if isinstance(expr, Var) or free_variables(expr) <= {"t", "x"}:
        value = np.abs(np.asarray(evaluate(expr, ctx), dtype=float))
        return value, np.maximum(value, 1.0)
    if isinstance(expr, Neg):
        return _magnitudes(expr.operand, ctx)
    (a, pa), (b, pb) = _magnitudes(expr.left, ctx), _magnitudes(expr.right, ctx)
    if expr.op in "+-":
        return a + b, np.maximum(pa, pb)
    if expr.op == "*":
        return a * b, pa * pb
    return a / b, pa * np.maximum(1.0, 1.0 / b)  # "/": the divisor reads only t and x


def affine_error_bound(expr: Expr, ctx: dict) -> np.ndarray:
    """How far an ``exprdsl.Evaluator`` entry of the affine tree ``expr`` may
    lie from ``evaluate(expr, ctx)``, elementwise.

    Both sum the same monomials: products of literals, subtrees over t and x
    (which both compute alike) and at most one other variable.  Along a
    monomial the walker rounds once per operator on its path, at most
    ``ops = operation_count(expr)`` times.  The evaluator rounds once per
    operator folded into a coefficient, once for the product with the
    binding and once per term of its sum: at most ``ops + vars + 1`` times,
    ``vars`` the variables other than t and x that ``expr`` reads.  With
    ``n = ops + vars + 2``, unit roundoff ``u = 2**-53`` and
    ``gamma_n = n u / (1 - n u)``, each lies within ``gamma_n * E`` of the
    exact value, ``E`` the sum of the monomials' absolute values, except for
    roundings into the subnormal range: each errs by at most
    ``eta = 2**-1075``, which the later factors of a monomial scale by at
    most ``P``, the largest product of ``max(1, |factor|)`` (of
    ``max(1, 1/|divisor|)`` for a divisor) over the monomials.  Both make at
    most ``N = (ops + 2) * (vars + 2)`` roundings in all, so the bound is
    ``2 * gamma_n * E + 2 * N * eta * P``.
    """
    ops, n_vars = operation_count(expr), len(free_variables(expr) - {"t", "x"})
    n = ops + n_vars + 2
    gamma = n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)
    with np.errstate(all="ignore"):
        magnitude, amplification = _magnitudes(expr, ctx)
        return 2.0 * gamma * magnitude + 2.0 * (ops + 2) * (n_vars + 2) * UNDERFLOW_ERROR * amplification


def assert_matches_walker(expr: Expr, got, expected, ctx: dict, label: str = "") -> None:
    """``got``, an Evaluator entry of ``expr`` at ``ctx``, against the walker's
    ``expected``: bitwise for a tree that is not affine, within
    ``affine_error_bound`` for an affine one."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert got.shape == expected.shape, label
    if exprdsl._affine(expr) is None:
        assert got.tobytes() == expected.tobytes(), f"{label}: not bitwise the walker's"
        return
    bound = np.broadcast_to(affine_error_bound(expr, ctx), expected.shape)
    worst = np.max(np.abs(got - expected) - bound, initial=-np.inf)
    assert worst <= 0.0, f"{label}: {worst:.3e} beyond the bound of {exprdsl.format_expr(expr)}"
