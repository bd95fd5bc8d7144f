import json
import pickle
import re
from collections import Counter
from importlib.resources import files
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from switchvi import exprdsl
from switchvi.discretization import SpatialGrid, TimeGrid, build_levy_quadrature
from switchvi.exprdsl import BinOp, Call, Neg, Num, NumericDomainError, Var, format_expr
from switchvi.model import (
    CapacityError,
    MalformedSpecError,
    ModeSet,
    ProblemSpec,
    _loop_legs,
    builtin_problem_names,
    driver_increments,
    driver_variable,
    eval_obstacles,
    load_builtin_problem,
    probe_points,
    validate_coefficient_bounds,
    validate_non_free_loop,
    validate_terminal_consistency,
)

from switchvi.pde_solver import solve_minmax

from conftest import CAP_Q_TERMS, assert_matches_walker, cap_broadcast_arguments, gathered, make_spec, mode_pair_cap_spec

POINTS = [(0.0, 0.0), (0.25, 1.0), (0.5, -1.5)]


def _cost_spec(lower, upper, m1=2, m2=2, terminal="0"):
    return make_spec(
        modes={"m1": m1, "m2": m2},
        drivers={"default": "0"},
        lower_costs={"default": lower} if m1 > 1 else {},
        upper_costs={"default": upper} if m2 > 1 else {},
        terminal={"default": terminal},
    )


class TestNonFreeLoop:
    def test_equal_costs_free_loop_detected(self):
        spec = _cost_spec("1", "1")
        report = validate_non_free_loop(spec, POINTS)
        assert not report.passed
        # the witness is a mixed loop alternating the two players
        loop = report.violations[0]["loop"]
        assert loop[0] == loop[-1]
        assert abs(report.violations[0]["loop_sum"]) < 1e-12
        assert len(loop) == 5

    def test_distinct_costs_pass(self):
        spec = _cost_spec("1", "2")
        report = validate_non_free_loop(spec, POINTS)
        assert report.passed
        assert report.details["loops_checked"] > 0

    def test_single_mode_trivial_pass(self):
        spec = _cost_spec("1", "1", m1=1, m2=1)
        report = validate_non_free_loop(spec, POINTS)
        assert report.passed
        assert report.details["loops_checked"] == 0

    def test_empty_points_rejected(self):
        spec = _cost_spec("1", "2")
        with pytest.raises(MalformedSpecError):
            validate_non_free_loop(spec, [])

    def test_mode_cap(self):
        with pytest.raises(CapacityError):
            ModeSet(7, 6)

    def test_lower_only_moves(self):
        # equal costs do not hurt player-1-only loops (sums are -2c != 0)
        spec = _cost_spec("1", "1")
        report = validate_non_free_loop(spec, POINTS, moves="lower")
        assert report.passed

    @pytest.mark.parametrize("moves", ["both", "lower", "upper"])
    @pytest.mark.parametrize("modes", [(3, 2), (2, 3), (2, 2), (3, 1), (1, 3), (3, 3), (4, 2)])
    def test_equals_the_per_point_reference(self, modes, moves):
        """One evaluation per leg over all points gives the bits of one per point,
        with costs that read t and x through exp, log and pow; the free loops
        among them are found at the same points with the same sums."""
        m1, m2 = modes
        lower = {f"{i},{k}": f"0.5*exp(0.3*t - 0.1*x*{i}) + log(1 + x*x + {k})" for i in range(m1) for k in range(m1) if i != k}
        upper = {f"{j},{l}": f"pow(1.5 + 0.2*(x*{l} + t), 1.3)" for j in range(m2) for l in range(m2) if j != l}
        if m2 > 1:
            # legs that cancel two lower switches (or each other): a free loop to find
            upper["0,1"], upper["1,0"] = (lower["0,1"], lower["1,0"]) if m1 > 1 else ("0.5*x*x", "-0.5*x*x")
        spec = make_spec(modes={"m1": m1, "m2": m2}, lower_costs=lower, upper_costs=upper)
        points = [(t, x) for t in (0.0, 0.2, 0.5) for x in (-1.5, 0.0, 0.7, 2.0)]
        expected = per_point_non_free_loop(spec, points, moves)
        report = validate_non_free_loop(spec, points, moves=moves)
        assert report.violations == expected
        assert report.passed == (not expected)
        assert report.details == {"loops_checked": report.details["loops_checked"], "points_checked": len(points), "moves": moves}
        if moves == "both" and m1 > 1 and m2 > 1:
            assert expected, "the cancelling legs make a free loop"

    def test_decides_at_the_tolerance_as_the_per_point_reference(self):
        """The mixed loops sum to ``4e-9 x`` against a largest leg of about 1:
        free for |x| < 0.25, where the leg-by-leg sum, not the product, decides."""
        spec = _cost_spec("1", "1 + 2e-9*x")
        points = [(0.0, x) for x in np.linspace(-1.0, 1.0, 1201)]
        expected = per_point_non_free_loop(spec, points, "both")
        assert [v["loop"] for v in expected] == [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], [[0, 0], [0, 1], [1, 1], [1, 0], [0, 0]]]
        assert -0.25 < expected[0]["point"][1] < -0.24
        assert validate_non_free_loop(spec, points).violations == expected

    def test_the_leg_table_is_built_once_per_shape(self):
        loops, rows, row_of = _loop_legs(4, 3, "both")
        assert (len(loops), len(rows)) == (27920, 4275) and row_of.shape == (27920,)
        assert _loop_legs(4, 3, "both")[1] is rows and not rows.flags.writeable
        assert [len(_loop_legs(m1, m2)[1]) for m1, m2 in ((2, 2), (3, 3))] == [3, 142]

    def test_a_lower_only_check_evaluates_no_upper_cost(self):
        """An upper cost of log(x) fails at x <= 0: only a check that moves player 2 evaluates it."""
        spec = make_spec(modes={"m1": 3, "m2": 2}, lower_costs={"default": "0.5 + t"}, upper_costs={"default": "log(x)"})
        points = [(0.0, -1.0), (0.5, 0.0), (0.25, 1.0)]
        assert validate_non_free_loop(spec, points, moves="lower").passed
        for moves in ("both", "upper"):
            with pytest.raises(MalformedSpecError, match="cost expression failed to evaluate"):
                validate_non_free_loop(spec, points, moves=moves)


class TestLoopCheckPoints:
    """The one point rule of the solver gate and ``switchvi validate``."""

    X, TIMES = np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 0.5, 4)

    @pytest.mark.parametrize("lower, upper", [("1", "2 + x"), ("1", "2")])
    def test_every_node_once_when_no_cost_reads_t(self, lower, upper):
        spec = _cost_spec(lower, upper)
        assert not spec.costs_read_t
        assert np.array_equal(spec.loop_check_points(self.X, self.TIMES), np.column_stack([np.full(5, 0.5), self.X]))

    @pytest.mark.parametrize("lower, upper", [("1 + t", "2"), ("1", "2 + t*x")])
    def test_every_node_at_every_time_when_a_cost_reads_t(self, lower, upper):
        spec = _cost_spec(lower, upper)
        assert spec.costs_read_t
        points = spec.loop_check_points(self.X, self.TIMES)
        assert [tuple(p) for p in points] == [(t, x) for t in self.TIMES for x in self.X]


def per_point_non_free_loop(spec, sample_points, moves):
    """The loop check one sample point at a time: each leg cost is evaluated at
    scalar ``(t, x)``, and a loop is free where its sum is within 1e-9 of its
    largest leg (or of 1) of zero.  Returns the violations."""
    m1, m2 = spec.modes.m1, spec.modes.m2
    violations = []
    for loop in _loop_legs(m1, m2, moves)[0]:
        for t, x in sample_points:
            total, scale = 0.0, 1.0
            for (i1, j1), (i2, j2) in zip(loop[:-1], loop[1:]):
                if i1 != i2:
                    leg = -float(spec.eval_lower_cost(i1, i2, float(t), np.asarray(x)))
                else:
                    leg = float(spec.eval_upper_cost(j1, j2, float(t), np.asarray(x)))
                total += leg
                scale = max(scale, abs(leg))
            if abs(total) < 1e-9 * scale:
                violations.append({"loop": [list(p) for p in loop], "point": [float(t), float(x)], "loop_sum": total})
                break
    return violations


class TestTerminalConsistency:
    def test_zero_terminal_passes(self):
        spec = _cost_spec("0.5", "0.5")
        report = validate_terminal_consistency(spec, np.linspace(-2, 2, 9))
        assert report.passed
        assert report.details["worst_violation"] == 0.0

    def test_lower_violation_magnitude(self):
        spec = make_spec(
            modes={"m1": 2, "m2": 1},
            drivers={"default": "0"},
            lower_costs={"default": "1"},
            upper_costs={},
            terminal={"0,0": "0", "1,0": "5"},
        )
        report = validate_terminal_consistency(spec, [0.0, 1.0])
        assert not report.passed
        assert report.details["worst_violation"] == pytest.approx(4.0)
        assert report.violations[0]["side"] == "lower"

    def test_upper_violation_magnitude(self):
        spec = make_spec(
            modes={"m1": 1, "m2": 2},
            drivers={"default": "0"},
            lower_costs={},
            upper_costs={"default": "1"},
            terminal={"0,0": "0", "0,1": "-3"},
        )
        report = validate_terminal_consistency(spec, [0.0])
        assert not report.passed
        assert report.details["worst_violation"] == pytest.approx(2.0)
        assert report.violations[0]["side"] == "upper"


class TestObstacles:
    def test_constant_field(self):
        y = np.zeros((2, 2))
        lc = np.ones((2, 2))
        uc = np.ones((2, 2))
        L, U = eval_obstacles(y, gathered(lc, uc))
        assert L[0, 0] == -1.0 and U[0, 0] == 1.0

    def test_cost_tables_in_place_of_the_costs_raise(self):
        """The cost tables of the old three-argument form cannot pass as the players' gathers."""
        with pytest.raises(TypeError):
            eval_obstacles(np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2)))

    def test_single_mode_sentinels(self):
        y = np.zeros((1, 3))
        L, U = eval_obstacles(y, gathered(np.zeros((1, 1)), np.ones((3, 3))))
        assert np.all(L == -np.inf)
        assert np.all(np.isfinite(U))

    def test_direct_formula(self):
        y = np.array([[0.0, 0.0], [3.0, 0.0]])
        lc = np.full((2, 2), 0.5)
        L, _ = eval_obstacles(y, gathered(lc, np.ones((2, 2))))
        assert L[0, 0] == pytest.approx(2.5)

    def test_monotone_in_field(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            y = rng.normal(size=(3, 2))
            lc = rng.uniform(0.1, 1.0, size=(3, 3))
            uc = rng.uniform(0.1, 1.0, size=(2, 2))
            L0, U0 = eval_obstacles(y, gathered(lc, uc))
            bump = y.copy()
            i, j = rng.integers(3), rng.integers(2)
            bump[i, j] += rng.uniform(0.0, 2.0)
            L1, U1 = eval_obstacles(bump, gathered(lc, uc))
            assert np.all(L1 >= L0 - 1e-14) and np.all(U1 >= U0 - 1e-14)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=(2, 2, 5))
        lc = np.broadcast_to(rng.uniform(0.1, 1, (2, 2, 1)), (2, 2, 5)).copy()
        uc = np.broadcast_to(rng.uniform(0.1, 1, (2, 2, 1)), (2, 2, 5)).copy()
        L, U = eval_obstacles(y, gathered(lc, uc))
        for p in range(5):
            Lp, Up = eval_obstacles(y[:, :, p], gathered(lc[:, :, p], uc[:, :, p]))
            assert np.array_equal(L[:, :, p], Lp)
            assert np.array_equal(U[:, :, p], Up)


def reference_obstacles(y, lower_costs, upper_costs):
    """Per-pair loop over the candidate lists of the obstacle definitions."""
    m1, m2 = y.shape[0], y.shape[1]
    L = np.full(y.shape, -np.inf)
    U = np.full(y.shape, np.inf)
    for i in range(m1):
        for j in range(m2):
            if m1 > 1:
                L[i, j] = np.max(np.stack([y[k, j] - lower_costs[i, k] for k in range(m1) if k != i]), axis=0)
            if m2 > 1:
                U[i, j] = np.min(np.stack([y[i, l] + upper_costs[j, l] for l in range(m2) if l != j]), axis=0)
    return L, U


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([(), (5,)]),
    st.booleans(),
    st.data(),
)
def test_eval_obstacles_matches_per_pair_loop_bitwise(m1, m2, tail, costs_per_node, data):
    """Any mode counts, with or without a node axis, and cost tables with the
    node axis or constant along it: the same bytes as the per-pair loop."""
    cost_tail = tail if costs_per_node else ()
    values = st.floats(-4.0, 4.0, allow_nan=False)
    y = data.draw(hnp.arrays(float, (m1, m2) + tail, elements=values))
    lc = data.draw(hnp.arrays(float, (m1, m1) + cost_tail, elements=values))
    uc = data.draw(hnp.arrays(float, (m2, m2) + cost_tail, elements=values))
    L, U = eval_obstacles(y, gathered(lc, uc))
    L_ref, U_ref = reference_obstacles(y, lc, uc)
    assert L.shape == U.shape == y.shape
    assert L.tobytes() == L_ref.tobytes() and U.tobytes() == U_ref.tobytes()


def _table_spec():
    """3x2 modes, x-dependent terminal data and a gamma that differs per pair."""
    return make_spec(
        modes={"m1": 3, "m2": 2},
        jump_amplitude="0.8*e*(1 + 0.3*x)",
        jump_weights={"default": "0.5*min(abs(e), 1)", "1,0": "0.2*abs(e) + 0.1*abs(x)", "2,1": "exp(-x*x)*e*e"},
        terminal={"default": "0.8*exp(-x*x)", "0,1": "0.3*x", "2,0": "max(x, 0.1)"},
        levy={"atoms": [[0.5, 0.4], [-0.7, 0.3], [1.1, 0.2]]},
    )


class TestCoefficientTables:
    """``terminal_table`` and ``jump_tables`` hold the bytes of the per-pair, per-atom ``eval_*`` loops."""

    XS = {
        "nodes": np.linspace(-2.0, 2.0, 41),
        "paths": np.random.default_rng(4).normal(0.1, 0.7, 1_000),
        "2-D": np.random.default_rng(5).normal(0.1, 0.7, (7, 13)),
    }

    @pytest.mark.parametrize("shape", list(XS))
    def test_terminal_table(self, shape):
        spec, x = _table_spec(), self.XS[shape]
        table = spec.terminal_table(x)
        assert table.shape == (3, 2) + x.shape
        for pair in spec.modes.pairs():
            assert table[pair].tobytes() == spec.eval_terminal(pair, x).tobytes()

    @pytest.mark.parametrize("shape", list(XS))
    @pytest.mark.parametrize("marks", [(0.5, -0.7, 1.1), (0.5,), ()], ids=["three atoms", "one atom", "no atoms"])
    def test_jump_tables(self, shape, marks):
        spec, x = _table_spec(), self.XS[shape]
        beta, gamma = spec.jump_tables(x, np.asarray(marks))
        assert beta.shape == (len(marks),) + x.shape
        assert gamma.shape == (3, 2, len(marks)) + x.shape
        for a, e in enumerate(marks):
            assert beta[a].tobytes() == spec.eval_beta(x, e).tobytes()
            for pair in spec.modes.pairs():
                assert gamma[pair][a].tobytes() == spec.eval_gamma(pair, x, e).tobytes()
        if marks:
            assert not np.array_equal(gamma[1, 0], gamma[0, 0])

    def test_one_evaluation_per_expression(self, monkeypatch):
        """One ``eval_beta`` call over every mark, and one ``eval_gamma`` call per pair."""
        spec, calls = _table_spec(), Counter()
        for name in ("eval_beta", "eval_gamma"):
            original = getattr(ProblemSpec, name)
            monkeypatch.setattr(ProblemSpec, name, lambda self, *a, _o=original, _n=name: calls.update([_n]) or _o(self, *a))
        spec.beta_table(self.XS["nodes"], (0.5, -0.7, 1.1))
        assert calls == {"eval_beta": 1}
        spec.jump_tables(self.XS["nodes"], (0.5, -0.7, 1.1))
        assert calls == {"eval_beta": 2, "eval_gamma": 6}

    def test_cost_tables(self):
        spec = _cost_spec("0.3 + 0.1*x", "0.5 - t", m1=3, m2=2)
        x = self.XS["nodes"]
        for table, eval_cost in (
            (spec.lower_cost_table(0.2, x), spec.eval_lower_cost),
            (spec.upper_cost_table(0.2, x), spec.eval_upper_cost),
        ):
            m = table.shape[0]
            assert table.shape == (m, m) + x.shape
            for i in range(m):
                for k in range(m):
                    expected = np.zeros_like(x) if i == k else eval_cost(i, k, 0.2, x)
                    assert table[i, k].tobytes() == expected.tobytes()


PAIRS_2X2 = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _trees(leaves, max_leaves):
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from("+-*"), sub, sub).map(lambda a: BinOp(*a)),
            st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(lambda a: Call(a[0], a[1:])),
            sub.map(Neg),
            sub.map(lambda a: Call("abs", (a,))),
        ),
        max_leaves=max_leaves,
    )


@st.composite
def _driver_tables(draw):
    """Four drivers whose subtrees over the grid read t, x, both or neither."""
    grid_names = draw(st.sampled_from([(), ("t",), ("x",), ("t", "x")]))
    literals = st.sampled_from([0.5, 1.0, 2.0]).map(Num)
    grid = _trees(st.one_of(literals, st.sampled_from(grid_names).map(Var)) if grid_names else literals, 3)
    grid = grid.map(lambda e: BinOp("*", Num(0.5), e))  # never a bare literal, so always hoisted
    values = st.sampled_from(["z", "q", *(driver_variable(i, j) for i, j in PAIRS_2X2)]).map(Var)
    return [draw(_trees(st.one_of(grid, values, literals), 6)) for _ in PAIRS_2X2]


class TestDriverEvaluator:
    """``driver_evaluator`` against one ``eval_driver`` call per pair."""

    X = np.linspace(-1.5, 1.5, 7)

    @settings(max_examples=150, deadline=None)
    @given(_driver_tables(), st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2, unique=True), st.booleans(), st.integers(0, 2**16))
    def test_equals_eval_driver_per_pair(self, drivers, ts, z_shared, seed):
        """At two distinct times and then the first again, with new values
        each call: bitwise for a driver that is not affine, within the
        forward-error bound for an affine one."""
        spec = make_spec(modes={"m1": 2, "m2": 2}, drivers={f"{i},{j}": format_expr(e) for (i, j), e in zip(PAIRS_2X2, drivers)})
        evaluator = spec.driver_evaluator(self.X)
        rng = np.random.default_rng(seed)
        for t in (ts[0], ts[1], ts[0]):
            y, z, q = rng.normal(size=(3, 2, 2) + self.X.shape)
            z = float(z[0, 0, 0]) if z_shared else z
            entries = {driver_variable(i, j): y[i, j] for i, j in PAIRS_2X2}
            with mock.patch.object(exprdsl, "evaluate", side_effect=AssertionError("the plain evaluate loop ran")):
                table = evaluator(t, y, z, q)  # finite bindings and results stay on the closures
            for pair in PAIRS_2X2:
                z_pair = z if z_shared else z[pair]
                expected = spec.eval_driver(pair, t, self.X, entries, z_pair, q[pair])
                ctx = {"t": t, "x": self.X, "z": z_pair, "q": q[pair], **entries}
                assert_matches_walker(spec.drivers[pair], table[pair], expected, ctx, f"pair {pair}")

    def test_a_failing_hoisted_subtree_raises_the_per_pair_error(self):
        spec = make_spec(modes={"m1": 2, "m2": 2}, drivers={"default": "0.1*y_0_0 + log(x - 3)"})
        y = np.zeros((2, 2) + self.X.shape)
        with pytest.raises(NumericDomainError) as expected:
            spec.eval_driver((0, 0), 0.0, self.X, {driver_variable(i, j): y[i, j] for i, j in PAIRS_2X2}, 0.0, 0.0)
        assert expected.value.subexpr == "log(x - 3.0)"
        with pytest.raises(NumericDomainError, match=re.escape(str(expected.value))):
            spec.driver_evaluator(self.X)(0.0, y, 0.0, 0.0)

    SHIPPED_COEFFICIENTS = {  # the drivers' literals in y, z and q, as the problem files write them
        "switch_2x2_jump": {
            pair: {"q": 0.3, "z": 0.1, **{driver_variable(*other): -0.2 if other == pair else 0.04 for other in PAIRS_2X2}} for pair in PAIRS_2X2
        },
        "no_jump": {pair: {driver_variable(*other): -0.2 if other == pair else 0.04 for other in PAIRS_2X2} for pair in PAIRS_2X2},
        "two_atom_jump": {(0, 0): {"q": 0.3, "y_0_0": -0.25, "y_1_0": 0.1}, (1, 0): {"q": 0.3, "y_1_0": -0.25, "y_0_0": 0.1}},
    }

    @pytest.mark.parametrize("name", builtin_problem_names())
    def test_shipped_drivers_are_affine_with_the_files_literals(self, name):
        spec = load_builtin_problem(name)
        assert {pair: exprdsl._affine(e).coefs for pair, e in spec.drivers.items()} == self.SHIPPED_COEFFICIENTS[name]

    @pytest.mark.parametrize("name", builtin_problem_names())
    def test_shipped_coefficients_are_the_probed_slopes(self, name):
        """``driver_increments / h`` at h = 1e-4, in each value entry, z and q,
        agrees with the linear form's coefficients to 1e-9."""
        spec = load_builtin_problem(name)
        pairs = list(spec.modes.pairs())
        times, h = [0.0, 0.25, 0.5], 1e-4
        rows = np.random.default_rng(4).normal(size=(len(times), spec.modes.m1, spec.modes.m2))
        slopes = driver_increments(spec, times, np.linspace(-2.0, 2.0, 41), rows, h) / h
        for a, pair in enumerate(pairs):
            coefs = exprdsl._affine(spec.drivers[pair]).coefs
            for b, name in enumerate([driver_variable(*p) for p in pairs] + ["z", "q"]):
                assert np.max(np.abs(slopes[a, b] - coefs.get(name, 0.0))) <= 1e-9, (pair, name)

    @pytest.mark.parametrize("q_term", list(CAP_Q_TERMS.values()), ids=list(CAP_Q_TERMS))
    def test_increments_at_the_mode_pair_cap(self, q_term, monkeypatch):
        """The 6x6 spec's 40 driver bindings, with np.broadcast capped at numpy
        1.x's 32 arguments: each increment equals a per-bump ``eval_driver`` call's."""
        spec = mode_pair_cap_spec(q_term)
        pairs = list(spec.modes.pairs())
        times, xs, h = [0.0, 0.5], np.linspace(-2.0, 2.0, 41), 1e-4
        rows = np.random.default_rng(4).normal(size=(len(times), 6, 6))
        cap_broadcast_arguments(monkeypatch)
        got = driver_increments(spec, times, xs, rows, h)
        px = probe_points(xs)
        assert got.shape == (36, 38, 2, len(px))
        for r, t in enumerate(times):
            entries = {driver_variable(i, j): float(rows[r, i, j]) for i, j in pairs}
            bumps = [(dict(entries, **{driver_variable(*other): float(rows[r][other]) + h}), 0.0, 0.0) for other in pairs]
            bumps += [(entries, h, 0.0), (entries, 0.0, h)]
            for a in (0, 17, 35):
                base = spec.eval_driver(pairs[a], t, px, entries, 0.0, 0.0)
                for b, (bumped, z, q) in enumerate(bumps):
                    assert (spec.eval_driver(pairs[a], t, px, bumped, z, q) - base).tobytes() == got[a, b, r].tobytes()

    def test_drivers_that_read_no_value_entry_keep_the_increments_shape(self):
        """A constant driver and one in x alone still give every bump's row, all zero."""
        spec = make_spec(modes={"m1": 2, "m2": 2}, drivers={"0,0": "0", "default": "0.5*x"})
        xs = np.linspace(-2.0, 2.0, 41)
        got = driver_increments(spec, [0.0, 0.25, 0.5], xs, np.zeros((3, 2, 2)), 1e-4)
        assert got.shape == (4, 6, 3, len(probe_points(xs)))
        assert not np.any(got)

    def test_spec_pickles_after_a_solve(self):
        spec = load_builtin_problem("switch_2x2_jump")
        grid, tgrid, quad = SpatialGrid.line(-2.0, 2.0, 21), TimeGrid(spec.horizon, 10), build_levy_quadrature(spec.levy)
        traj, _ = solve_minmax(spec, grid, tgrid, quad)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        assert not any(hasattr(e, form) for e in copy.drivers.values() for form in ("_split", "_compiled", "_affine"))
        assert solve_minmax(copy, grid, tgrid, quad)[0].values.tobytes() == traj.values.tobytes()


class TestFieldOwnership:
    """A coefficient that is a bare variable comes back as a copy, never as the caller's array."""

    def test_bare_x_is_copied(self):
        spec = make_spec(vol="x", terminal={"default": "x"})
        x = np.linspace(-1.0, 1.0, 5)
        before = x.copy()
        for out in (spec.eval_vol(0.0, x), spec.eval_terminal((0, 0), x), spec.terminal_table(x)[0, 0]):
            np.testing.assert_array_equal(out, before)
            out *= 3.0
            np.testing.assert_array_equal(x, before)

    def test_bare_driver_entry_is_copied(self):
        spec = make_spec(drivers={"default": "y_0_0"})
        y = np.array([0.5, -0.25])
        out = spec.eval_driver((0, 0), 0.0, np.zeros(2), {"y_0_0": y}, 0.0, 0.0)
        out += 1.0
        np.testing.assert_array_equal(y, [0.5, -0.25])


class TestCoefficientBounds:
    def test_negative_cost_flagged(self):
        spec = _cost_spec("-1", "1")
        report = validate_coefficient_bounds(spec, [0.0, 0.5], np.linspace(-2, 2, 9))
        assert not report.passed
        assert any("lower_cost" in v["what"] for v in report.violations)

    def test_decreasing_in_q_warns_not_blocks(self):
        spec = make_spec(
            modes={"m1": 2, "m2": 2},
            drivers={"default": "-q"},
            lower_costs={"default": "1"},
            upper_costs={"default": "2"},
        )
        report = validate_coefficient_bounds(spec, [0.0], np.linspace(-2, 2, 9))
        assert report.passed  # warnings only
        assert any("decreasing in q" in w["what"] for w in report.warnings)

    def test_decreasing_in_other_y_warns(self):
        spec = make_spec(
            modes={"m1": 2, "m2": 1},
            drivers={"0,0": "0 - y_1_0", "1,0": "0"},
            lower_costs={"default": "1"},
            upper_costs={},
        )
        report = validate_coefficient_bounds(spec, [0.0], np.linspace(-1, 1, 5))
        assert any("decreasing in y" in w["what"] for w in report.warnings)

    @pytest.mark.parametrize("name", ["no_jump", "switch_2x2_jump", "decreasing"])
    def test_warnings_equal_the_loop_reference(self, name):
        """The shared driver probe gives the warnings, in the order, of a
        probe one time and pair at a time with scalar bindings."""
        if name == "decreasing":
            spec = make_spec(
                modes={"m1": 2, "m2": 2},
                drivers={"default": "-0.3*q - 0.2*y_0_1 + 0.1*y_1_0 - 0.4*y_1_1*t + (x - 0.5)*y_0_0 - 0.1*exp(x)*q"},
            )
        else:
            spec = load_builtin_problem(name)
        ts, xs = [0.0, 0.25, 0.5], np.linspace(-2, 2, 101)
        warnings = validate_coefficient_bounds(spec, ts, xs).warnings
        assert warnings == reference_monotonicity_warnings(spec, ts, xs)
        assert (len(warnings) > 0) == (name == "decreasing")

    def test_warnings_at_the_mode_pair_cap(self, monkeypatch):
        """The 6x6 spec's 40 driver bindings, with np.broadcast capped at numpy 1.x's 32 arguments."""
        spec = mode_pair_cap_spec("- 0.02*q - 0.03*y_{i}_{k}")  # decreasing in q and in another entry
        ts, xs = [0.0, 0.5], np.linspace(-2, 2, 41)
        expected = reference_monotonicity_warnings(spec, ts, xs)
        cap_broadcast_arguments(monkeypatch)
        report = validate_coefficient_bounds(spec, ts, xs)
        assert report.warnings == expected and len(expected) > 0

    def test_envelope_constants_reported(self, spec_2x2):
        report = validate_coefficient_bounds(spec_2x2, [0.0, 0.5], np.linspace(-2, 2, 9))
        assert report.passed
        assert report.details["beta_envelope_constant"] == pytest.approx(0.8, rel=1e-9)
        assert report.details["gamma_envelope_constant"] == pytest.approx(0.5, rel=1e-9)


def reference_monotonicity_warnings(spec: ProblemSpec, ts, xs) -> list:
    """The validator's driver warnings, one time and pair at a time with scalar bindings."""
    probe_x = xs[:: max(1, len(xs) // 8)]
    pairs = list(spec.modes.pairs())
    entries = {driver_variable(p, l): 0.0 for p, l in pairs}
    warnings = []
    for t in ts:
        for pair in pairs:
            base = spec.eval_driver(pair, t, probe_x, entries, 0.0, 0.0)
            if np.min(spec.eval_driver(pair, t, probe_x, entries, 0.0, 1e-4) - base) < -1e-12:
                warnings.append({"what": f"driver[{pair}] decreasing in q", "t": t})
            for other in pairs:
                bumped = dict(entries, **{driver_variable(*other): 1e-4})
                if other != pair and np.min(spec.eval_driver(pair, t, probe_x, bumped, 0.0, 0.0) - base) < -1e-12:
                    warnings.append({"what": f"driver[{pair}] decreasing in y[{other}]", "t": t})
    return warnings


class TestShippedProblems:
    def test_names(self):
        names = builtin_problem_names()
        assert {"no_jump", "two_atom_jump", "switch_2x2_jump"} <= set(names)

    @pytest.mark.parametrize("name", ["no_jump", "two_atom_jump", "switch_2x2_jump"])
    def test_all_assumptions_pass(self, name):
        spec = load_builtin_problem(name)
        xs = np.linspace(-2, 2, 17)
        pts = [(t, float(x)) for t in (0.0, 0.25, 0.5) for x in xs[::4]]
        assert validate_non_free_loop(spec, pts).passed
        assert validate_terminal_consistency(spec, xs).passed
        report = validate_coefficient_bounds(spec, [0.0, 0.25, 0.5], xs)
        assert report.passed
        assert not report.warnings

    def test_missing_entry_rejected(self):
        with pytest.raises(MalformedSpecError):
            ProblemSpec.from_dict(
                {
                    "modes": {"m1": 2, "m2": 1},
                    "horizon": 1.0,
                    "drivers": {"0,0": "0"},  # (1,0) missing, no default
                    "terminal": {"default": "0"},
                    "lower_costs": {"default": "1"},
                }
            )


HUGE = 10**400  # an integer too large for a float


def short_id(value) -> str:
    return repr(value).replace(repr(HUGE), "10**400")


def shipped_problem(**overrides) -> dict:
    """The ``switch_2x2_jump`` problem file as a dict, with some entries replaced."""
    raw = json.loads(files("switchvi.problems").joinpath("switch_2x2_jump.json").read_text(encoding="utf-8"))
    raw.update(overrides)
    return raw


class TestProblemFile:
    """A problem file's entries are checked as it loads: a bad one raises
    ``MalformedSpecError``, never a bare ``ValueError`` or ``OverflowError``."""

    @pytest.mark.parametrize(
        "growth",
        [{"C": 0.5, "gamma": 1.0}, {"C": 1e-300}, {"C": -1.0}, {"C": float("nan")}, {"C": "0"}, {"C": False}, {"C": HUGE}, [0]],
        ids=short_id,
    )
    def test_growth_extrapolation_is_rejected(self, growth):
        """Growth extrapolation beyond the box broke the step's contraction: a
        2e-12 change of terminal data moved a solution by 6.6e-2."""
        with pytest.raises(MalformedSpecError, match="growth") as err:
            ProblemSpec.from_dict(shipped_problem(growth=growth))
        assert type(err.value) is MalformedSpecError

    def test_an_unknown_growth_key_is_rejected_by_name(self):
        """``{"c": 0.5}``, meant as extrapolation, loaded as if C were 0."""
        with pytest.raises(MalformedSpecError, match=re.escape("growth: unknown key 'c'")) as err:
            ProblemSpec.from_dict(shipped_problem(growth={"c": 0.5}))
        assert type(err.value) is MalformedSpecError

    @pytest.mark.parametrize(
        "levy,names",
        [
            ({"density": "0.4*exp(-abs(e))", "radius": 1.0, "cutoff": 0.05, "atoms": [[0.5, 0.4]]}, ("'atoms'", "'density'")),
            ({"density": "0.4*exp(-abs(e))", "radius": 1.0, "cutoff": 0.05, "atoms": []}, ("'atoms'", "'density'")),
            ({"atoms": [[0.5, 0.4]], "radius": 1.0}, ("'atoms'", "'radius'")),
            ({"radius": 1.0}, ("'radius'",)),
        ],
        ids=["density-and-atoms", "density-and-no-atoms", "radius-with-atoms", "radius-alone"],
    )
    def test_a_levy_key_its_kind_does_not_read_is_rejected(self, levy, names):
        """A density silently dropped the atoms beside it, and atoms their radius."""
        with pytest.raises(MalformedSpecError) as err:
            ProblemSpec.from_dict(shipped_problem(levy=levy))
        assert type(err.value) is MalformedSpecError
        assert all(name in str(err.value) for name in names), str(err.value)

    @pytest.mark.parametrize("growth", [{"C": 0, "gamma": 0}, {"C": 0.0, "gamma": 2.0}, {"C": -0.0}, {"gamma": 1.0}, {}], ids=repr)
    def test_a_zero_growth_entry_still_loads(self, growth):
        assert ProblemSpec.from_dict(shipped_problem(growth=growth)) == load_builtin_problem("switch_2x2_jump")

    @pytest.mark.parametrize("horizon", ["abc", "0.5", float("nan"), float("inf"), -float("inf"), True, 0, -0.5, HUGE, None], ids=short_id)
    def test_horizon_must_be_a_finite_positive_number(self, horizon):
        """A NaN or infinite horizon loaded and failed only in a solve, and ``true`` ran as 1."""
        with pytest.raises(MalformedSpecError, match="horizon") as err:
            ProblemSpec.from_dict(shipped_problem(horizon=horizon))
        assert type(err.value) is MalformedSpecError

    @pytest.mark.parametrize("horizon", [1, np.int64(2), np.float64(0.25)], ids=repr)
    def test_horizon_is_kept_as_a_float(self, horizon):
        spec = ProblemSpec.from_dict(shipped_problem(horizon=horizon))
        assert spec.horizon == horizon and type(spec.horizon) is float

    @pytest.mark.parametrize(
        "modes",
        [{"m1": "x", "m2": 2}, {"m1": 1.7, "m2": 2}, {"m1": 2.5, "m2": 2}, {"m1": 2.0, "m2": 2}, {"m1": True, "m2": 2}, {"m1": 2, "m2": "2"}, {"m1": 2, "m2": 0}],
        ids=repr,
    )
    def test_mode_counts_must_be_integers(self, modes):
        """``1.7`` ran as 1 mode, and ``"x"`` ended in a ValueError."""
        with pytest.raises(MalformedSpecError, match="mode counts") as err:
            ProblemSpec.from_dict(shipped_problem(modes=modes))
        assert type(err.value) is MalformedSpecError

    @pytest.mark.parametrize(
        "entry",
        [
            {"levy": {"atoms": [["a", 1]]}},
            {"levy": {"atoms": [[0.5, "w"]]}},
            {"levy": {"atoms": [[0.5]]}},
            {"levy": {"atoms": [[HUGE, 1]]}},
            {"levy": {"density": "exp(-abs(e))", "radius": "r", "cutoff": 0.1}},
            {"drivers": {"0,x": "0", "default": "0"}},
            {"drivers": {"0": "0", "default": "0"}},
            {"drivers": ["0"]},
        ],
        ids=short_id,
    )
    def test_an_entry_that_does_not_convert_is_malformed(self, entry):
        with pytest.raises(MalformedSpecError) as err:
            ProblemSpec.from_dict(shipped_problem(**entry))
        assert type(err.value) is MalformedSpecError

    @pytest.mark.parametrize(
        "entry,key",
        [
            ({"drfit": "0.1*x"}, "drfit"),
            ({"modes": {"m1": 2, "m2": 2, "m3": 2}}, "m3"),
            ({"levy": {"atom": [[0.5, 0.4]]}}, "atom"),
            ({"levy": {"atoms": [[0.5, 0.4]], "cutof": 0.1}}, "cutof"),
            ({"levy": {"density": "exp(-abs(e))", "radius": 1.0, "cutof": 0.1}}, "cutof"),
            ({"drivers": {"default": "0", "5,5": "1"}}, "5,5"),
            ({"jump_weights": {"default": "0", (0, 2): "1"}}, (0, 2)),
            ({"terminal": {"default": "0", "2,0": "1"}}, "2,0"),
            ({"lower_costs": {"default": "0.3", "0,0": "0.1"}}, "0,0"),
            ({"upper_costs": {"default": "0.4", "1,1": "0.1"}}, "1,1"),
        ],
        ids=lambda v: str(v) if not isinstance(v, dict) else None,
    )
    def test_an_unknown_key_is_rejected_by_name(self, entry, key):
        """An unknown key loaded as if it were absent: ``"drfit"`` as drift 0, a
        levy ``"atom"`` as no jumps and ``"cutof"`` as cutoff 0, and a pair key
        outside the mode sets, a diagonal cost included, was dropped."""
        with pytest.raises(MalformedSpecError, match=re.escape(repr(key))) as err:
            ProblemSpec.from_dict(shipped_problem(**entry))
        assert type(err.value) is MalformedSpecError

    @pytest.mark.parametrize(
        "entry",
        [
            {"vol": True},
            {"vol": float("nan")},
            {"drift": float("inf")},
            {"vol": HUGE},
            {"lower_costs": {"default": False}},
            {"terminal": {"default": float("-inf")}},
            {"levy": {"atoms": [[True, "0.4"]]}},
            {"levy": {"atoms": [[0.5, "0.4"]]}},
            {"levy": {"atoms": [[0.5, np.nan]]}},
            {"levy": {"atoms": [[0.5, 0.4]], "cutoff": True}},
            {"levy": {"atoms": [[0.5, 0.4]], "cutoff": "0.1"}},
            {"levy": {"density": "exp(-abs(e))", "radius": True, "cutoff": 0.1}},
            {"levy": {"density": "exp(-abs(e))", "radius": "1.0", "cutoff": 0.1}},
            {"levy": {"density": "exp(-abs(e))", "radius": 1.0, "cutoff": "0.1"}},
        ],
        ids=short_id,
    )
    def test_a_number_entry_must_be_a_finite_number(self, entry):
        """``"vol": true`` loaded as 1.0 and ``NaN`` as a literal that evaluated to NaN;
        the atom ``[true, "0.4"]`` loaded as (1.0, 0.4)."""
        with pytest.raises(MalformedSpecError) as err:
            ProblemSpec.from_dict(shipped_problem(**entry))
        assert type(err.value) is MalformedSpecError
