import pickle
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchvi import exprdsl
from switchvi.exprdsl import (
    ArityError,
    BinOp,
    Call,
    ExprSyntaxError,
    Neg,
    Num,
    NumericDomainError,
    UnknownVariableError,
    Var,
    evaluate,
    expr_depth,
    format_expr,
    free_variables,
    parse,
)

from conftest import affine_error_bound, assert_matches_walker, operation_count, substitute


class TestParseEvaluate:
    def test_min_call(self):
        e = parse("min(x, 2) + 1", ("x",))
        assert evaluate(e, {"x": 3.0}) == 3.0

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x * (", ("x",))
        assert err.value.offset == 5

    def test_power(self):
        e = parse("0.5*x^2", ("x",))
        assert evaluate(e, {"x": 2.0}) == 2.0

    def test_exp_identity(self):
        assert evaluate(parse("exp(0)", ()), {}) == 1.0

    def test_division_by_zero_raises(self):
        e = parse("1/x", ("x",))
        with pytest.raises(NumericDomainError):
            evaluate(e, {"x": 0.0})

    def test_abs_via_max(self):
        e = parse("max(t, -t)", ("t",))
        assert evaluate(e, {"t": -2.0}) == 2.0

    def test_power_right_assoc(self):
        e = parse("2^3^2", ())
        assert evaluate(e, {}) == 512.0

    def test_unary_minus_exponent(self):
        e = parse("2^-1", ())
        assert evaluate(e, {}) == 0.5

    def test_pow_function(self):
        assert evaluate(parse("pow(x, 2)", ("x",)), {"x": 3.0}) == 9.0

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            parse("x + y", ("x",))

    def test_arity(self):
        with pytest.raises(ArityError):
            parse("min(x)", ("x",))
        with pytest.raises(ArityError):
            parse("abs(x, 1)", ("x",))

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin(x)", ("x",))

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ", ("x",))

    def test_trailing_tokens(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 + 2 3", ())

    def test_log_of_negative(self):
        with pytest.raises(NumericDomainError) as err:
            evaluate(parse("log(x)", ("x",)), {"x": -1.0})
        assert "log" in str(err.value)

    def test_sqrt_exp(self):
        assert evaluate(parse("sqrt(x)", ("x",)), {"x": 4.0}) == 2.0
        with pytest.raises(NumericDomainError):
            evaluate(parse("exp(x)", ("x",)), {"x": 1e9})

    def test_unbound_variable_at_eval(self):
        e = parse("x + 1", ("x",))
        with pytest.raises(NumericDomainError):
            evaluate(e, {})

    def test_nonfinite_binding(self):
        e = parse("x", ("x",))
        with pytest.raises(NumericDomainError):
            evaluate(e, {"x": float("nan")})

    def test_array_evaluation(self):
        e = parse("max(x, 0) * 2", ("x",))
        out = evaluate(e, {"x": np.array([-1.0, 0.5, 2.0])})
        np.testing.assert_array_equal(out, [0.0, 1.0, 4.0])

    def test_depth_guard(self):
        deep = "x" + " + x" * 100
        with pytest.raises(ExprSyntaxError):
            parse(deep, ("x",))
        assert expr_depth(parse("x" + " + x" * (exprdsl.MAX_DEPTH - 1), ("x",))) == exprdsl.MAX_DEPTH

    @pytest.mark.parametrize("text, offset", [("1e999", 0), ("min(1e999, 1)", 4), ("x + 2e308*x", 4)])
    def test_a_literal_not_finite_as_a_float_is_a_syntax_error(self, text, offset):
        """``1e999`` evaluated to inf, and ``min(1e999, 1)`` to 1."""
        with pytest.raises(ExprSyntaxError) as err:
            parse(text, ("x",))
        assert err.value.offset == offset

    @pytest.mark.parametrize("literal", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_literal_built_directly_raises(self, literal):
        for tree in (Num(literal), Call("min", (Num(literal), Num(1.0))), BinOp("+", Var("x"), Num(literal))):
            with pytest.raises(NumericDomainError, match="non-finite literal"):
                evaluate(tree, {"x": np.zeros(3)})
            with pytest.raises(NumericDomainError, match="non-finite literal"):
                exprdsl._eval(tree, {"x": 1.0})

    def test_purity_bitwise(self):
        e = parse("exp(x) * 0.3 - sqrt(abs(x))", ("x",))
        a = evaluate(e, {"x": 0.7310585786300049})
        b = evaluate(e, {"x": 0.7310585786300049})
        assert a == b


class TestCompiledEvaluation:
    """``evaluate`` runs a compiled form and falls back to the walker ``_eval``."""

    @pytest.mark.parametrize(
        "text, x, subexpr",
        [
            ("min(x*x, 1)", 1e200, "x*x"),
            ("min(x + x, 1)", 1e308, "x + x"),
            ("max(exp(x), 1) - exp(x)", 1000.0, "exp(x)"),
        ],
    )
    @pytest.mark.parametrize("as_array", [False, True])
    def test_only_an_intermediate_is_non_finite(self, text, x, subexpr, as_array):
        """The final value is finite or masked; the error still names the subexpression."""
        e = parse(text, ("x",))
        ctx = {"x": np.array([0.5, x, -0.25]) if as_array else x}
        with pytest.raises(NumericDomainError) as err:
            evaluate(e, ctx)
        assert err.value.subexpr == subexpr
        with pytest.raises(NumericDomainError) as ref:
            exprdsl._eval(e, ctx)
        assert str(err.value) == str(ref.value)

    def test_non_finite_literal_takes_the_walker(self):
        """inf*2 raises no floating-point flag, and min() would hide it."""
        with pytest.raises(NumericDomainError) as err:
            evaluate(Call("min", (BinOp("*", Num(np.inf), Num(2.0)), Var("x"))), {"x": 1.0})
        assert err.value.subexpr == "inf"

    def test_tree_and_compiled_form_are_freed_with_the_tree(self):
        tree = parse("0.6 + 0.2*max(x, 0) - exp(-x*x)", ("x",))
        evaluate(tree, {"x": np.linspace(-1.0, 1.0, 5)})
        tree_ref = weakref.ref(tree)
        form_ref = weakref.ref(tree._compiled[0])
        del tree
        assert tree_ref() is None and form_ref() is None  # no reference cycle: freed before any collection

    def test_pickle_after_evaluate(self):
        tree = parse("x*t + 1", ("x", "t"))
        evaluate(tree, {"x": 2.0, "t": 3.0})
        copy = pickle.loads(pickle.dumps(tree))
        assert copy == tree
        assert evaluate(copy, {"x": 2.0, "t": 3.0}) == 7.0


class TestAstUtilities:
    def test_substitute(self):
        e = parse("y_0_1 + z", ("y_0_1", "z"))
        out = substitute(e, {"y_0_1": Neg(Var("y_1_0")), "z": Num(0.0)})
        assert evaluate(out, {"y_1_0": 2.0}) == -2.0

    def test_free_variables(self):
        e = parse("x*t + min(q, z)", ("x", "t", "q", "z"))
        assert free_variables(e) == frozenset({"x", "t", "q", "z"})

    def test_free_variables_are_kept_on_each_node_and_not_pickled(self):
        tree = parse("x*t + min(q, exp(z))", ("x", "t", "q", "z"))
        names = free_variables(tree)
        assert free_variables(tree) is names and tree.right._free == frozenset({"q", "z"})
        copy = pickle.loads(pickle.dumps(tree))
        assert copy == tree and not hasattr(copy, "_free") and not hasattr(copy.right, "_free")
        assert free_variables(copy) == names
        ctx = {"x": 2.0, "t": 3.0, "q": 0.1, "z": -1.0}
        assert evaluate(copy, ctx) == evaluate(tree, ctx) == 6.0 + 0.1

    def test_depth(self):
        assert expr_depth(Num(1.0)) == 1
        assert expr_depth(BinOp("+", Num(1.0), Neg(Var("x")))) == 3


# strategy for random small ASTs over variables x, t
_vars = st.sampled_from(["x", "t"])


def _exprs(depth: int):
    # literals are non-negative: the parser only builds Neg(Num(+v)) forms
    if depth == 0:
        return st.one_of(
            st.floats(min_value=0, max_value=5, allow_nan=False).map(lambda v: Num(round(v, 3))),
            _vars.map(Var),
        )
    sub = _exprs(depth - 1)
    return st.one_of(
        sub,
        st.tuples(st.sampled_from("+-*"), sub, sub).map(lambda t: BinOp(t[0], t[1], t[2])),
        sub.map(Neg),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(lambda t: Call(t[0], (t[1], t[2]))),
        sub.map(lambda a: Call("abs", (a,))),
    )


@settings(max_examples=200, deadline=None)
@given(_exprs(4))
def test_format_parse_round_trip(expr):
    text = format_expr(expr)
    reparsed = parse(text, ("x", "t"))
    assert reparsed == expr


@settings(max_examples=100, deadline=None)
@given(_exprs(3), st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
def test_eval_matches_reparse(expr, x, t):
    ctx = {"x": x, "t": t}
    a = evaluate(expr, ctx)
    b = evaluate(parse(format_expr(expr), ("x", "t")), ctx)
    assert a == b


def _any_exprs(depth: int, variables=_vars):
    """Trees over every operator and function, so results can overflow or leave a domain."""
    if depth == 0:
        return st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 700.0, 1e200]).map(Num),
            variables.map(Var),
        )
    sub = _any_exprs(depth - 1, variables)
    return st.one_of(
        sub,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: BinOp(t[0], t[1], t[2])),
        sub.map(Neg),
        st.tuples(st.sampled_from(["min", "max", "pow"]), sub, sub).map(lambda t: Call(t[0], (t[1], t[2]))),
        st.tuples(st.sampled_from(["abs", "exp", "log", "sqrt"]), sub).map(lambda t: Call(t[0], (t[1],))),
    )


_values = st.floats(-1e300, 1e300, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 710.0, np.inf, np.nan])


def _outcome(fn, expr, ctx):
    try:
        return "value", np.asarray(fn(expr, ctx), dtype=float).tobytes()
    except NumericDomainError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(_any_exprs(3), _values, _values, st.booleans())
def test_evaluate_matches_walker_bitwise(expr, x, t, as_array):
    """The compiled form returns the walker's bytes, or raises the walker's error."""
    ctx = {"x": np.array([x, -x, 0.5 * x]) if as_array else x, "t": t}
    assert _outcome(evaluate, expr, ctx) == _outcome(exprdsl._eval, expr, ctx)


def _loop_values(exprs, ctx, rows):
    """The per-expression ``evaluate`` loop that an ``Evaluator`` call stands
    for, stacked, or its first error; ``rows`` hold one binding per tree
    along their leading axis."""
    try:
        results = [evaluate(e, {**ctx, **{name: a[k] for name, a in rows.items()}}) for k, e in enumerate(exprs)]
        shape = np.broadcast_shapes(*(np.shape(v) for v in ctx.values()), *(np.shape(a)[1:] for a in rows.values()))
        return "value", np.stack([np.broadcast_to(r, shape) for r in results]).astype(float)
    except NumericDomainError as exc:
        return "error", type(exc), str(exc)


def _loop_outcome(exprs, ctx, rows):
    outcome = _loop_values(exprs, ctx, rows)
    return ("value", outcome[1].tobytes()) if outcome[0] == "value" else outcome


def _evaluator_outcome(evaluator, t, stack=np.empty(0), **rows):
    try:
        return "value", np.asarray(evaluator(t, stack, **rows), dtype=float).tobytes()
    except NumericDomainError as exc:
        return "error", type(exc), str(exc)


def _assert_matches_the_loop(evaluator, t, ctx, stack=np.empty(0), **rows):
    """An Evaluator call against the loop at the shared bindings ``ctx`` and
    the per-tree ``rows`` (a scalar row is shared too): the loop's error,
    type and message alike, or per tree the loop's values, bitwise for a
    tree that is not affine and within ``affine_error_bound`` for an affine
    one."""
    shared = {**ctx, **{name: v for name, v in rows.items() if not np.ndim(v)}}
    per_tree = {name: v for name, v in rows.items() if np.ndim(v)}
    expected = _loop_values(evaluator.exprs, shared, per_tree)
    try:
        got = np.asarray(evaluator(t, stack, **rows), dtype=float)
    except NumericDomainError as exc:
        assert ("error", type(exc), str(exc)) == expected
        return
    assert expected[0] == "value", f"the loop raised {expected[1:]}, the evaluator did not"
    for k, e in enumerate(evaluator.exprs):
        assert_matches_walker(e, got[k], expected[1][k], {**shared, **{name: a[k] for name, a in per_tree.items()}}, f"tree {k}")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_any_exprs(2, st.sampled_from(["x", "t", "q"])), min_size=1, max_size=4),
    _values,
    st.lists(_values, min_size=2, max_size=2),
    st.lists(_values, min_size=12, max_size=12),
    st.booleans(),
)
def test_evaluator_matches_the_loop(exprs, x, ts, qs, q_in_rows):
    """At two values of t and then the first again, with q shared by every
    tree or one q row per tree: the loop's values (bitwise for a tree that
    is not affine in q, within the forward-error bound for an affine one),
    or the loop's first error with its type and message."""
    x = np.array([x, -x, 0.5 * x])
    evaluator = exprdsl.Evaluator(exprs, x, ())
    for call, t in enumerate((ts[0], ts[1], ts[0])):
        q = np.array(qs[4 * call : 4 * call + len(exprs)])[:, None] * np.ones(3) if q_in_rows else qs[4 * call]
        _assert_matches_the_loop(evaluator, t, {"x": x, "t": t}, q=q)


@settings(max_examples=300, deadline=None)
@given(st.lists(_any_exprs(2), min_size=1, max_size=4), st.lists(_values, min_size=7, max_size=7), st.booleans())
def test_evaluator_checks_a_shared_stack_once(exprs, entries, t_in_stack):
    """Shared bindings held in one stack are checked through the stack: the
    loop's values (as above), or the loop's first error, which names the
    binding.  A non-finite entry in a binding that no tree reads (``u``)
    raises nothing."""
    exprs = [substitute(e, {"t": Var("s")}) for e in exprs] if t_in_stack else exprs
    x = np.array(entries[:2])
    stack = np.array(entries[2:6]).reshape(2, 2)
    ctx = {"x": x, "t": entries[6], "s": stack[0], "u": stack[1]}
    _assert_matches_the_loop(exprdsl.Evaluator(exprs, x, ("s", "u")), entries[6], ctx, stack)


class TestEvaluator:
    EXPRS = [parse(s, ("x", "t", "q")) for s in ("x + q", "2*t - q", "exp(x*t) + q")]
    X = np.array([0.5, 1.0, 2.0])

    def rows(self, q=None):
        return {"q": np.arange(9.0).reshape(3, 3) if q is None else q}

    def test_stacks_the_loop_results(self):
        evaluator = exprdsl.Evaluator(self.EXPRS, self.X, ())
        assert evaluator(0.25, np.empty(0), **self.rows()).shape == (3, 3)
        _assert_matches_the_loop(evaluator, 0.25, {"x": self.X, "t": 0.25}, **self.rows())

    def test_constant_trees_broadcast_to_the_bindings(self):
        exprs = [parse("1", ("x",)), parse("x", ("x",))]
        out = exprdsl.Evaluator(exprs, np.array([3.0, 4.0]), ())(0.0, np.empty(0))
        assert out.tolist() == [[1.0, 1.0], [3.0, 4.0]]

    @pytest.mark.parametrize(
        "x,t,rows",
        [
            pytest.param(np.array([0.5, np.inf, 2.0]), 0.25, {}, id="shared-binding"),
            pytest.param(X, 0.25, {"q": np.array([[0.0] * 3, [0.0, np.nan, 0.0], [0.0] * 3])}, id="row-entry"),
            pytest.param(X, 400.0, {}, id="result-overflow"),
        ],
    )
    def test_errors_are_the_loop_errors(self, x, t, rows):
        rows = {**self.rows(), **rows}
        outcome = _evaluator_outcome(exprdsl.Evaluator(self.EXPRS, x, ()), t, **rows)
        assert outcome[0] == "error"
        assert outcome == _loop_outcome(self.EXPRS, {"x": x, "t": t}, rows)

    def test_a_non_finite_stack_entry_raises_the_per_binding_error(self):
        names = ("y_0_0", "y_0_1")
        exprs = [parse(s, names) for s in ("y_0_0 + 1", "2*y_0_1", "y_0_0 - y_0_1")]
        y = np.zeros((2, 3))
        y[1, 1] = np.inf
        with pytest.raises(NumericDomainError, match=re.escape("non-finite binding for 'y_0_1'")):
            exprdsl.Evaluator(exprs, self.X, names)(0.0, y)

    def test_missing_binding_is_the_loop_error(self):
        outcome = _evaluator_outcome(exprdsl.Evaluator(self.EXPRS, self.X, ()), 0.25)
        assert outcome[0] == "error" and "unbound variable 'q'" in outcome[2]
        assert outcome == _loop_outcome(self.EXPRS, {"x": self.X, "t": 0.25}, {})

    @pytest.mark.parametrize("text", ["min(x + 1, y)", "pow(x, 0) + y"])
    def test_a_non_finite_hoisted_value_is_the_loop_error(self, text):
        """``x + 1`` and ``pow(x, 0)`` at ``x = inf`` raise no floating-point
        flag, and ``min`` hides the first: only the check of the hoisted
        values and the bindings they read catches them."""
        exprs = [parse(text, ("x", "y"))]
        x, y = np.array([0.0, np.inf]), np.zeros((1, 2))
        with pytest.raises(NumericDomainError, match=re.escape("non-finite binding for 'x'")):
            exprdsl.Evaluator(exprs, x, ("y",))(0.0, y)

    def test_finite_bindings_never_take_the_loop(self, monkeypatch):
        """Only the subtrees over t and x are hoisted, so every call with
        finite bindings and results stays on the closures."""
        names = ("y_0_0", "z")
        exprs = [parse(s, ("x", "t") + names) for s in ("0.6 + 0.2*max(x, 0) - 0.2*y_0_0", "t*x + exp(-y_0_0*y_0_0) + z", "x - 0.5*min(y_0_0, t)")]
        expected = [_loop_outcome(exprs, {"x": self.X, "t": t, "y_0_0": y, "z": 0.5}, {}) for t, y in ((0.1, self.X), (0.2, -self.X))]

        def refuse(*args):
            raise AssertionError("the plain evaluate loop ran")

        monkeypatch.setattr(exprdsl, "evaluate", refuse)
        evaluator = exprdsl.Evaluator(exprs, self.X, names[:1])
        assert [_evaluator_outcome(evaluator, t, y[None], z=0.5) for t, y in ((0.1, self.X), (0.2, -self.X))] == expected

    def test_signed_zero_t_is_a_new_t(self):
        """``y + t*x`` at ``y = -0.0`` is -0.0 at ``t = -0.0`` and 0.0 at ``t = 0.0``."""
        exprs = [parse("y + t*x", ("x", "t", "y"))]
        evaluator = exprdsl.Evaluator(exprs, np.array([1.0]), ("y",))
        for t in (0.0, -0.0, 0.0):
            expected = _loop_outcome(exprs, {"x": np.array([1.0]), "t": t, "y": np.array([-0.0])}, {})
            assert _evaluator_outcome(evaluator, t, np.array([[-0.0]])) == expected

    def test_split_form_is_freed_with_the_tree_and_not_pickled(self):
        tree = parse("0.6 + 0.2*max(x, 0) - max(y, 0)*exp(-x*x)", ("x", "y"))
        exprdsl.Evaluator([tree], np.linspace(-1.0, 1.0, 5), ("y",))(0.0, np.ones((1, 5)))
        assert list(tree._split[1]) == ["0.6 + 0.2*max(x, 0.0)", "exp(-x*x)"]
        copy = pickle.loads(pickle.dumps(tree))
        assert copy == tree and not hasattr(copy, "_split")
        tree_ref, form_ref = weakref.ref(tree), weakref.ref(tree._split[0])
        del tree
        assert tree_ref() is None and form_ref() is None

    def test_linear_form_is_freed_with_the_tree_and_not_pickled(self):
        tree = parse("0.6 + 0.2*max(x, 0) - y*exp(-x*x)", ("x", "y"))
        exprdsl.Evaluator([tree], np.linspace(-1.0, 1.0, 5), ("y",))(0.0, np.ones((1, 5)))
        assert tree._affine.const == "0.6 + 0.2*max(x, 0.0)" and tree._affine.coefs == {"y": "-exp(-x*x)"}
        assert not hasattr(tree, "_split")
        copy = pickle.loads(pickle.dumps(tree))
        assert copy == tree and not hasattr(copy, "_affine")
        tree_ref, form_ref = weakref.ref(tree), weakref.ref(tree._affine.trees["-exp(-x*x)"])
        del tree
        assert tree_ref() is None and form_ref() is None


SWITCH_DRIVERS = (  # the drivers of the shipped switch_2x2_jump problem
    "0.9 + 0.3*q + 0.1*z + 0.1*max(x, 0) - 0.2*y_0_0 + 0.04*(y_0_1 + y_1_0 + y_1_1)",
    "-0.1 + 0.3*q + 0.1*z - 0.2*y_0_1 + 0.04*(y_0_0 + y_1_0 + y_1_1)",
    "-0.45 + 0.3*q + 0.1*z + 0.1*min(x, 0) - 0.2*y_1_0 + 0.04*(y_0_0 + y_0_1 + y_1_1)",
    "0.35 + 0.3*q + 0.1*z - 0.2*y_1_1 + 0.04*(y_0_0 + y_0_1 + y_1_0)",
)
Y_NAMES = ("y_0_0", "y_0_1", "y_1_0", "y_1_1")
DRIVER_SCHEMA = ("t", "x", "z", "q") + Y_NAMES


class TestAffineForm:
    """The linear form an Evaluator computes an affine tree by."""

    @pytest.mark.parametrize("text", ["q*y_0_0", "max(y_0_0, 0)", "exp(z)", "x/y_0_1", "y_0_0^2", "abs(q) + 1", "pow(z, 1)"])
    def test_not_affine(self, text):
        assert exprdsl._affine(parse(text, DRIVER_SCHEMA)) is None

    @pytest.mark.parametrize(
        "text,const,coefs",
        [
            ("2*y_0_0 - (x + 1)*q/4 + t", "t", {"y_0_0": 2.0, "q": "-((x + 1.0)/4.0)"}),
            ("-(3*z - y_0_0)*exp(-t)", 0.0, {"z": "-3.0*exp(-t)", "y_0_0": "exp(-t)"}),
            ("0.5*x", "0.5*x", {}),
            ("z - z", 0.0, {"z": 0.0}),
        ],
    )
    def test_constant_and_coefficients(self, text, const, coefs):
        form = exprdsl._affine(parse(text, DRIVER_SCHEMA))
        assert (form.const, form.coefs) == (const, coefs)

    def test_a_literal_coefficient_that_is_not_finite_is_not_affine(self):
        assert exprdsl._affine(parse("1e200*(1e200*q)", DRIVER_SCHEMA)) is None
        assert exprdsl._affine(BinOp("+", Num(np.inf), Var("q"))) is None

    def test_shipped_literals(self):
        """The switch_2x2_jump drivers: diagonal -0.2, off-diagonal 0.04, z 0.1, q 0.3."""
        for k, text in enumerate(SWITCH_DRIVERS):
            form = exprdsl._affine(parse(text, DRIVER_SCHEMA))
            assert form.coefs == {"q": 0.3, "z": 0.1, **{y: -0.2 if i == k else 0.04 for i, y in enumerate(Y_NAMES)}}

    def test_rows_are_the_terms_summed_in_order(self):
        """The constant, then one term per variable in the order the variables
        first appear in the tree, whatever the order of the stack."""
        exprs = [parse(text, DRIVER_SCHEMA) for text in SWITCH_DRIVERS]
        x = np.linspace(-2.0, 2.0, 11)
        rng = np.random.default_rng(5)
        y, z, q = rng.normal(size=(3, 4, 11))
        out = exprdsl.Evaluator(exprs, x, Y_NAMES)(0.1, y, z=z, q=q)
        shuffled = exprdsl.Evaluator(exprs, x, Y_NAMES[::-1])(0.1, y[::-1], z=z, q=q)
        for k, e in enumerate(exprs):
            form = exprdsl._affine(e)
            assert list(form.coefs)[:3] == ["q", "z", Y_NAMES[k]]
            bindings = {**dict(zip(Y_NAMES, y)), "q": q[k], "z": z[k]}
            expected = evaluate(parse(form.const, ("x",)), {"x": x}) if isinstance(form.const, str) else form.const
            for name, coef in form.coefs.items():
                expected = expected + coef * bindings[name]
            assert out[k].tobytes() == shuffled[k].tobytes() == expected.tobytes()

    def test_closures_above_the_point_cap(self):
        """Past ``_LINEAR_MAX_POINTS`` points an affine tree runs its closures,
        bitwise the loop, and up to it its linear form, which here is not."""
        rng = np.random.default_rng(7)
        exprs = [parse(text, DRIVER_SCHEMA) for text in SWITCH_DRIVERS]
        outcomes = []
        for n in (exprdsl._LINEAR_MAX_POINTS, exprdsl._LINEAR_MAX_POINTS + 1):
            x = np.linspace(-2.0, 2.0, n)
            y, z, q = rng.normal(size=(3, 4, n))
            expected = _loop_outcome(exprs, {"t": 0.1, "x": x, **dict(zip(Y_NAMES, y))}, {"z": z, "q": q})
            outcomes.append(_evaluator_outcome(exprdsl.Evaluator(exprs, x, Y_NAMES), 0.1, y, z=z, q=q) == expected)
        assert outcomes == [False, True]

    def test_a_moved_coefficient_breaks_the_bound(self):
        """Negative control: with one coefficient moved by 1e-12 relative, an
        entry lies outside the bound that the true form meets."""
        x = np.linspace(-2.0, 2.0, 201)
        rng = np.random.default_rng(11)
        y, z, q = rng.normal(size=(3, 4, 201))
        ctx = {"t": 0.1, "x": x, "z": z[0], "q": q[0], **dict(zip(Y_NAMES, y))}
        for moved in (False, True):
            tree = parse(SWITCH_DRIVERS[0], DRIVER_SCHEMA)
            if moved:
                form = exprdsl._affine(tree)
                object.__setattr__(tree, "_affine", form._replace(coefs={**form.coefs, "y_0_0": form.coefs["y_0_0"] * (1 + 1e-12)}))
            got = exprdsl.Evaluator([tree], x, Y_NAMES)(0.1, y, z=z[:1], q=q[:1])[0]
            expected = evaluate(tree, ctx)
            inside = np.abs(got - expected) <= affine_error_bound(tree, ctx)
            assert inside.all() != moved
            assert operation_count(tree) == 13

    @pytest.mark.parametrize(
        "text,value",
        [
            ("q*1e200 - q*1e200", 1e300),  # coefficient 0, but q*1e200 overflows
            ("0.04*(q + q + q)", 1e308),  # coefficient 0.12, but q + q overflows
            ("(q + 1e308) - 1e308", 1e308),  # constant 0, but q + 1e308 overflows
        ],
    )
    def test_an_overflowing_node_is_the_loop_error(self, text, value):
        """A tree whose linear form is finite at a binding where a node of the
        tree overflows raises what ``evaluate`` raises there."""
        exprs = [parse(text, ("x", "q"))]
        expected = _loop_outcome(exprs, {"x": self.X, "q": value}, {})
        assert expected[0] == "error"
        assert _evaluator_outcome(exprdsl.Evaluator(exprs, self.X, ()), 0.0, q=value) == expected
        # one order of magnitude below, the same call is no error
        _assert_matches_the_loop(exprdsl.Evaluator(exprs, self.X, ()), 0.0, {"x": self.X}, q=value / 10)

    X = np.array([0.5, 1.0, 2.0])

    @pytest.mark.parametrize("reads_t", [False, True])
    def test_coefficients_once_per_evaluator_or_per_t(self, reads_t, monkeypatch):
        """The coefficient trees run once per Evaluator when none reads t,
        once per distinct t when one does; never once per call."""
        calls = []

        def counted(a):
            calls.append(1)
            return np.exp(a)

        monkeypatch.setitem(exprdsl._CALLS, "exp", counted)
        exprs = [parse(f"exp(-x{'*t' if reads_t else ''})*y_0_0 + 0.5*q", DRIVER_SCHEMA)]
        evaluator = exprdsl.Evaluator(exprs, self.X, ("y_0_0",))
        rng = np.random.default_rng(2)
        times = (0.1, 0.1, 0.2, 0.2, 0.3)
        evaluator(times[0], rng.normal(size=(1, 3)), q=float(rng.normal()))
        per_pass = len(calls)  # the trees of the coefficient and of the bound that read exp
        assert per_pass > 0
        for t in times[1:]:
            evaluator(t, rng.normal(size=(1, 3)), q=float(rng.normal()))
        assert len(calls) == per_pass * (len(set(times)) if reads_t else 1)

