"""Small arithmetic expression language for user-supplied coefficient functions.

Coefficients (drift, volatility, jump amplitude/weights, drivers, switching
costs, terminal data) are given as strings over named variables and parsed
into immutable ASTs once.  Evaluation binds variables to floats or numpy
arrays, so a single expression evaluates over a whole grid or path batch in
one call.

Grammar (precedence climbing, loosest to tightest):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right-associative
    atom    := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Built-in functions: min(a,b), max(a,b), pow(a,b), abs(a), exp(a), log(a),
sqrt(a).  There is no branching; min/max cover every kink the supported
problem class needs.  Division is allowed but can silently destroy Lipschitz
continuity of a coefficient, so prefer polynomial/exp forms.

Every non-finite intermediate (overflow, log of a non-positive value,
division by zero) raises :class:`NumericDomainError` naming the offending
subexpression; evaluation never returns NaN or infinity.

:func:`evaluate` compiles a tree once, on its first call, into nested
closures that apply every operator as a numpy ufunc (``np.add``,
``np.multiply``, ``np.power``, ...), on Python-float scalars too, and keeps
the compiled form on the root node so that it is freed with the tree.  A
call checks each bound free variable for finiteness once, runs the closures
under ``np.errstate(over/divide/invalid="raise")`` and checks the result
once.  Plain Python float arithmetic is never used: it would overflow to inf
silently, and ``min(x*x, 1)`` at ``x = 1e200`` would return 1.  On any
floating-point error, missing binding or non-finite value, the call is
re-run by the tree-walker, which checks every node and names the first bad
subexpression, so errors and their messages are those of the walker, and
every successful result is bitwise the walker's.

:class:`Evaluator` runs several trees that share most bindings (the
drivers of all mode pairs, say) at one fixed ``x``, as every level of the
backward step does.  A tree that is affine in its variables other than ``t``
and ``x`` is compiled once, on the first Evaluator that runs it, into a
linear form kept on its root: a constant tree ``c0`` plus one coefficient
tree ``c_v`` per variable, each reading only ``t`` and ``x``, literals
folded.  A subtree over ``t`` and ``x`` is a constant, a variable has
coefficient 1, ``+``, ``-`` and unary ``-`` combine forms, and ``*`` and
``/`` are affine only when one side (for ``/`` the divisor) reads just
``t`` and ``x``; anything else makes the tree non-affine.  Every other tree
is split once: every maximal subtree that reads only ``t`` and ``x``
(``0.6 + 0.2*max(x, 0)``, a bare ``x``; not a literal) is hoisted, and read
by the residual closures under its source text.  The hoisted subtrees and
coefficient trees, and the bindings they read, are computed and checked
once, under the same ``errstate``: again only when ``t`` changes, and never
when none reads ``t``.  A call computes the affine trees' entries as
``c0 + sum_v c_v v``, summed in the order the variables first appear in the
tree and with no BLAS call, after one multiply of each binding that bounds
it, so that no node of an affine tree can overflow where the walker's would
not.  It checks the bindings the residual closures read, and the whole table
once.  On any failure it re-runs the plain :func:`evaluate` loop.  So
entries of non-affine trees are bitwise that loop's, entries of affine trees
lie within rounding of it (the bound ``tests/conftest.py::affine_error_bound``
states), and errors are exactly the loop's, type and message.  Past
``_LINEAR_MAX_POINTS`` points, where the linear forms no longer pay, every
tree runs its closures.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "UnknownVariableError",
    "ArityError",
    "NumericDomainError",
    "parse",
    "evaluate",
    "Evaluator",
    "format_expr",
    "free_variables",
    "expr_depth",
]

MAX_DEPTH = 64

FUNCTIONS = {"min": 2, "max": 2, "pow": 2, "abs": 1, "exp": 1, "log": 1, "sqrt": 1}


class ExprError(ValueError):
    """Base class for all DSL errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


class UnknownVariableError(ExprError):
    def __init__(self, name: str, offset: int, schema: tuple[str, ...]):
        self.name = name
        self.offset = offset
        super().__init__(
            f"unknown variable '{name}' at offset {offset}; declared variables: {', '.join(schema) or '(none)'}"
        )


class ArityError(ExprError):
    def __init__(self, fn: str, got: int, want: int, offset: int):
        self.offset = offset
        super().__init__(f"function '{fn}' takes {want} argument(s), got {got} at offset {offset}")


class NumericDomainError(ExprError):
    def __init__(self, detail: str, subexpr: str):
        self.subexpr = subexpr
        super().__init__(f"{detail} in subexpression '{subexpr}'")


class _Node:
    """Base of the AST nodes.

    :func:`evaluate` stores a tree's compiled form on its root node,
    :class:`Evaluator` its split and linear forms, and :func:`free_variables`
    each node's variable names on the node, so each lives exactly as long as
    the tree; pickles leave them out.
    """

    def __getstate__(self):
        state = dict(self.__dict__)
        for form in ("_compiled", "_split", "_affine", "_free"):
            state.pop(form, None)
        return state


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True)
class Neg(_Node):
    operand: "Expr"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call(_Node):
    fn: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip whitespace-only tail
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ExprSyntaxError(f"unexpected character '{text[bad]}'", bad)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, schema: tuple[str, ...]):
        self.text = text
        self.schema = schema
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.idx]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected '{op}'", off, expected=(op,))
        self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.parse_term()
                node = BinOp(val, node, rhs)
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.parse_factor()
                node = BinOp(val, node, rhs)
            else:
                return node

    def parse_factor(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            # right-associative; exponent may carry a unary minus
            exponent = self.parse_factor()
            return BinOp("^", base, exponent)
        return base

    def parse_atom(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            if not math.isfinite(float(val)):
                raise ExprSyntaxError(f"number '{val}' is not finite as a float", off)
            return Num(float(val))
        if kind == "name":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                return self.parse_call(val, off)
            if val not in self.schema:
                raise UnknownVariableError(val, off, self.schema)
            return Var(val)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", off)
        raise ExprSyntaxError(f"unexpected token '{val}'", off)

    def parse_call(self, fn: str, off: int) -> Expr:
        if fn not in FUNCTIONS:
            raise ExprSyntaxError(f"unknown function '{fn}'", off, expected=tuple(sorted(FUNCTIONS)))
        self.expect_op("(")
        args = [self.parse_expr()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == ",":
                self.advance()
                args.append(self.parse_expr())
            else:
                break
        self.expect_op(")")
        want = FUNCTIONS[fn]
        if len(args) != want:
            raise ArityError(fn, len(args), want, off)
        return Call(fn, tuple(args))


def parse(text: str, schema: Sequence[str]) -> Expr:
    """Parse ``text`` into an AST of depth at most ``MAX_DEPTH``; every
    variable must appear in ``schema`` and every number be finite as a float."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text, tuple(schema))
    node = parser.parse_expr()
    kind, val, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing token '{val}'", off)
    d = expr_depth(node)
    if d > MAX_DEPTH:
        raise ExprSyntaxError(f"expression tree depth {d} exceeds limit {MAX_DEPTH}", 0)
    return node


def expr_depth(expr: Expr) -> int:
    if isinstance(expr, (Num, Var)):
        return 1
    if isinstance(expr, Neg):
        return 1 + expr_depth(expr.operand)
    if isinstance(expr, BinOp):
        return 1 + max(expr_depth(expr.left), expr_depth(expr.right))
    if isinstance(expr, Call):
        return 1 + max(expr_depth(a) for a in expr.args)
    raise TypeError(f"not an Expr node: {expr!r}")


def free_variables(expr: Expr) -> frozenset[str]:
    """The names ``expr`` reads, computed on first use and kept on each node."""
    try:
        return expr._free
    except AttributeError:
        pass
    if isinstance(expr, Num):
        out: frozenset[str] = frozenset()
    elif isinstance(expr, Var):
        out = frozenset((expr.name,))
    elif isinstance(expr, Neg):
        out = free_variables(expr.operand)
    elif isinstance(expr, BinOp):
        out = free_variables(expr.left) | free_variables(expr.right)
    elif isinstance(expr, Call):
        out = frozenset().union(*map(free_variables, expr.args))
    else:
        raise TypeError(f"not an Expr node: {expr!r}")
    object.__setattr__(expr, "_free", out)
    return out


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3


def _fmt(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Num):
        s = repr(expr.value)
        return s
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = _fmt(expr.operand, _NEG_PREC)
        s = f"-{inner}"
        return f"({s})" if parent_prec > _NEG_PREC else s
    if isinstance(expr, BinOp):
        p = _PREC[expr.op]
        # left operand of ^ needs parens at equal precedence (right-assoc);
        # right operands of - and / need them too (left-assoc)
        left = _fmt(expr.left, p + 1 if expr.op == "^" else p)
        right = _fmt(expr.right, p if expr.op == "^" else p + 1)
        s = f"{left} {expr.op} {right}" if expr.op in "+-" else f"{left}{expr.op}{right}"
        return f"({s})" if parent_prec > p else s
    if isinstance(expr, Call):
        return f"{expr.fn}({', '.join(_fmt(a, 0) for a in expr.args)})"
    raise TypeError(f"not an Expr node: {expr!r}")


def format_expr(expr: Expr) -> str:
    """Render an AST back to source text; reparsing gives an identical tree."""
    return _fmt(expr, 0)


Value = Union[float, np.ndarray]


def _check_finite(value: Value, node: Expr, detail: str) -> Value:
    ok = np.all(np.isfinite(value)) if isinstance(value, np.ndarray) else np.isfinite(value)
    if not ok:
        raise NumericDomainError(detail, format_expr(node))
    return value


_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
_CALLS = {
    "min": np.minimum,
    "max": np.maximum,
    "pow": np.power,
    "abs": np.abs,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}


def _eval(expr: Expr, ctx: Mapping[str, Value]) -> Value:
    """Reference tree-walker: checks every node and names the first non-finite one."""
    if isinstance(expr, Num):
        return _check_finite(expr.value, expr, "non-finite literal")
    if isinstance(expr, Var):
        try:
            v = ctx[expr.name]
        except KeyError:
            raise NumericDomainError(f"unbound variable '{expr.name}'", expr.name) from None
        return _check_finite(v, expr, f"non-finite binding for '{expr.name}'")
    if isinstance(expr, Neg):
        return -_eval(expr.operand, ctx)
    if isinstance(expr, BinOp):
        a = _eval(expr.left, ctx)
        b = _eval(expr.right, ctx)
        with np.errstate(all="ignore"):
            out = _BINARY[expr.op](a, b)
        return _check_finite(out, expr, "non-finite result")
    if isinstance(expr, Call):
        vals = [_eval(a, ctx) for a in expr.args]
        with np.errstate(all="ignore"):
            out = _CALLS[expr.fn](*vals)
        return _check_finite(out, expr, "non-finite result")
    raise TypeError(f"not an Expr node: {expr!r}")


def _closure(expr: Expr, hoisted: dict | None = None):
    """The tree as nested closures calling numpy ufuncs, without checks; with
    a dict ``hoisted``, its hoisted subtrees are put there and read from the
    context, each under its source text (see the module docstring)."""
    if hoisted is not None and not isinstance(expr, Num) and free_variables(expr) <= {"t", "x"}:
        key = format_expr(expr)
        hoisted[key] = expr
        return lambda ctx: ctx[key]
    if isinstance(expr, Num):
        value = expr.value
        if not math.isfinite(value):
            # only a tree built directly holds one (parse rejects it); it can
            # give a finite result (min(inf, 1)), so the walker raises instead
            def walker_decides(ctx):
                raise FloatingPointError

            return walker_decides
        return lambda ctx: value
    if isinstance(expr, Var):
        name = expr.name
        return lambda ctx: ctx[name]
    if isinstance(expr, Neg):
        f = _closure(expr.operand, hoisted)
        return lambda ctx: np.negative(f(ctx))
    if isinstance(expr, BinOp):
        op, f, g = _BINARY[expr.op], _closure(expr.left, hoisted), _closure(expr.right, hoisted)
        return lambda ctx: op(f(ctx), g(ctx))
    if isinstance(expr, Call):
        fn = _CALLS[expr.fn]
        if len(expr.args) == 1:
            f = _closure(expr.args[0], hoisted)
            return lambda ctx: fn(f(ctx))
        f, g = (_closure(a, hoisted) for a in expr.args)
        return lambda ctx: fn(f(ctx), g(ctx))
    raise TypeError(f"not an Expr node: {expr!r}")


def _compiled(expr: Expr):
    """``(closure, free variable names)``, built on first use and kept on the node."""
    try:
        return expr._compiled
    except AttributeError:
        pass
    form = (_closure(expr), tuple(sorted(free_variables(expr))))
    object.__setattr__(expr, "_compiled", form)
    return form


def _split(expr: Expr):
    """``(closure, hoisted)``: ``_closure(expr, hoisted)`` and its hoisted
    subtrees by source text, built on first use and kept on the root node."""
    try:
        return expr._split
    except AttributeError:
        pass
    hoisted: dict = {}
    form = (_closure(expr, hoisted), hoisted)
    object.__setattr__(expr, "_split", form)
    return form


_GRID = frozenset(("t", "x"))
_ONE = Num(1.0)
# an affine row is computed only when no node of its tree can reach this
# magnitude (see Evaluator); rounding cannot carry a node from below it to
# the largest float
_AFFINE_RANGE = 2.0**1000
# the most points an Evaluator sums linear forms at.  The forms save ufunc
# calls, not passes over memory: on a 2-vCPU host the shipped 2x2 drivers
# took 21 against 50 us per call at 201 points, 46 against 57 at 1,000, 85
# against 84 at 2,000 and 417 against 195 at 10,000 (one BLAS thread)
_LINEAR_MAX_POINTS = 1024


class _NotAffine(Exception):
    pass


class _Linear(NamedTuple):
    """An affine tree as ``const + sum(coefs[v] * v)``: ``const`` and each
    coefficient are a float, or the source text of a tree in ``trees`` that
    reads only t and x.  ``bound`` plus the largest absolute value of each
    tree named in ``bounds`` is at least, at every (t, x), the sum over the
    nodes that read a variable of their constants' and coefficients'
    absolute values: at least the largest such sum of one node."""

    const: Union[float, str]
    coefs: dict
    bound: float
    bounds: tuple
    trees: dict


def _folded(tree: Expr) -> Expr:
    """``tree``, or its value as a literal if it reads no variable; raises
    _NotAffine if that value is not finite."""
    if free_variables(tree):
        return tree
    try:
        return Num(float(_eval(tree, {})))
    except NumericDomainError:
        raise _NotAffine from None


def _combine(op: str, a, b):
    """``a op b`` of two coefficient trees, None standing for a missing term."""
    if b is None:
        return a
    if a is None:
        return b if op == "+" else _folded(Neg(b))
    return _folded(BinOp(op, a, b))


def _scaled(form: tuple, op: str, factor: Expr, right: bool) -> tuple:
    """The form of ``node op factor`` (of ``factor op node`` unless ``right``)
    for a node of form ``form`` and a tree ``factor`` over t and x."""

    def scale(c):
        if c is None:
            return None
        if op == "*" and c == _ONE:
            return factor
        return _folded(BinOp(op, c, factor) if right else BinOp(op, factor, c))

    const, coefs = form
    return scale(const), {v: scale(c) for v, c in coefs.items()}


def _linear(expr: Expr, bounds: list):
    """``(const, coefs)`` of an affine tree: a tree over t and x or None, and a
    coefficient tree over t and x per variable.  Each node that reads a
    variable appends its constant and coefficients to ``bounds``.  Raises
    _NotAffine if ``expr`` is not affine."""
    if free_variables(expr) <= _GRID:
        return _folded(expr), {}
    if isinstance(expr, Var):
        return None, {expr.name: _ONE}
    if isinstance(expr, Neg):
        const, coefs = _linear(expr.operand, bounds)
        form = _combine("-", None, const), {v: _combine("-", None, c) for v, c in coefs.items()}
    elif isinstance(expr, BinOp) and expr.op in "+-":
        (a0, a), (b0, b) = _linear(expr.left, bounds), _linear(expr.right, bounds)
        form = _combine(expr.op, a0, b0), {v: _combine(expr.op, a.get(v), b.get(v)) for v in {**a, **b}}
    elif isinstance(expr, BinOp) and expr.op in "*/" and free_variables(expr.right) <= _GRID:
        form = _scaled(_linear(expr.left, bounds), expr.op, _folded(expr.right), right=True)
    elif isinstance(expr, BinOp) and expr.op == "*" and free_variables(expr.left) <= _GRID:
        form = _scaled(_linear(expr.right, bounds), "*", _folded(expr.left), right=False)
    else:
        raise _NotAffine
    bounds.extend(c for c in (form[0], *form[1].values()) if c is not None)
    return form


def _affine(expr: Expr):
    """The tree's :class:`_Linear` form, or None if it is not affine in its
    variables other than t and x; built on first use and kept on the root node."""
    try:
        return expr._affine
    except AttributeError:
        pass
    bounds: list = []
    try:
        const, coefs = _linear(expr, bounds)
    except _NotAffine:
        form = None
    else:
        trees: dict = {}

        def entry(tree):
            if isinstance(tree, Num):
                return tree.value
            key = format_expr(tree)
            trees[key] = tree
            return key

        form = _Linear(
            0.0 if const is None else entry(const),
            {v: entry(c) for v, c in coefs.items()},
            sum(abs(b.value) for b in bounds if isinstance(b, Num)),
            tuple(entry(b) for b in bounds if not isinstance(b, Num)),
            trees,
        )
    object.__setattr__(expr, "_affine", form)
    return form


def _finite(value: Value) -> bool:
    return bool(np.isfinite(value).all()) if isinstance(value, np.ndarray) else math.isfinite(value)


def evaluate(expr: Expr, ctx: Mapping[str, Value]) -> Value:
    """Evaluate with float or numpy-array bindings.

    Pure: identical context gives a bitwise-identical result.  Raises
    :class:`NumericDomainError` instead of ever propagating NaN/inf.
    """
    fn, names = _compiled(expr)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if all(_finite(ctx[name]) for name in names):
                out = fn(ctx)
                if _finite(out):
                    return out
    except (KeyError, TypeError, FloatingPointError):  # TypeError: bindings math.isfinite cannot read
        pass
    return _eval(expr, ctx)


class Evaluator:
    """The trees ``exprs`` bound to one ``x``, evaluated together at each call
    (see the module docstring for what a call hoists and checks).

    ``evaluator(t, stack, **rows)`` is the ``(len(exprs),) + x.shape`` stack
    whose entry ``k`` is ``evaluate(exprs[k], ctx)`` broadcast to ``x.shape``,
    where ``ctx`` binds ``t``, ``x``, one entry of ``names`` per entry of
    ``stack`` along its leading axes, and each of ``rows``: a scalar, shared
    by every tree, or an array holding one binding per tree along its
    leading axes.  The entry of a tree that is not affine in its variables
    other than t and x is bitwise that of ``evaluate``; the entry of an
    affine one is its linear form, within rounding of it, and an error is
    always the one ``evaluate`` raises.
    """

    def __init__(self, exprs: Sequence[Expr], x: Value, names: Sequence[str]):
        self.exprs, self.x, self.names = tuple(exprs), x, tuple(names)
        forms = [_affine(e) if np.size(x) <= _LINEAR_MAX_POINTS else None for e in self.exprs]
        self._rows = [k for k, form in enumerate(forms) if form is not None]
        self._forms = [forms[k] for k in self._rows]
        residual = [(k, e) for k, e in enumerate(self.exprs) if forms[k] is None]
        self._splits = [(k, _split(e)[0]) for k, e in residual]
        hoisted = {key: node for _, e in residual for key, node in _split(e)[1].items()}
        for form in self._forms:
            hoisted.update(form.trees)
        grid = frozenset().union(*map(free_variables, hoisted.values()))
        hoisted.update((name, Var(name)) for name in grid)  # so the one check covers the bindings too
        self._hoisted = [(key, _compiled(node)[0]) for key, node in hoisted.items()]
        self._reads_t = "t" in grid
        reads = frozenset().union(*(free_variables(e) for _, e in residual)).difference(_GRID)
        self._reads, self._reads_stack = reads.difference(self.names), not reads.isdisjoint(self.names)
        # each call gathers the affine rows' bindings into one source: the
        # stack, then each other variable's binding (by name) once per tree,
        # then a row of -0.0, which pads a tree's terms (x + -0.0 is x bitwise)
        self._others = sorted({v for form in self._forms for v in form.coefs}.difference(self.names))
        n, m = len(self.names), len(self.exprs)

        def place(v, k):
            return self.names.index(v) if v in self.names else n + self._others.index(v) * m + k

        self._width = max((len(form.coefs) for form in self._forms), default=0)
        pad = n + len(self._others) * m
        # gather[j, r]: the source row of the j-th term of affine row r, in the
        # order its variable first appears in the tree
        self._gather = np.array(
            [[place(v, k) for v in form.coefs] + [pad] * (self._width - len(form.coefs)) for k, form in zip(self._rows, self._forms)],
            dtype=np.intp,
        ).reshape(len(self._forms), self._width).T
        shape = np.shape(x)
        self._terms = np.empty((1 + self._width, len(self._forms)) + shape)  # the constants, then the terms
        self._source = np.empty((pad + 1,) + shape)
        self._source[-1] = -0.0
        self._t = None  # the t, with its sign, of the values _refresh computed

    def _refresh(self, t: float) -> None:
        """The hoisted values at t, checked, and from them the affine rows'
        constants and coefficients and the scale that bounds their bindings
        (see ``_affine_rows``)."""
        hoisted = {name: fn({"t": t, "x": self.x}) for name, fn in self._hoisted}
        if not all(map(_finite, hoisted.values())):
            raise FloatingPointError
        self._ctx = hoisted
        if not self._forms:
            return
        shape = np.shape(self.x)
        lead = (len(self._forms),)

        def column(entries):
            values = [hoisted[e] if isinstance(e, str) else e for e in entries]
            if not any(map(np.ndim, values)):
                return np.array(values, dtype=float).reshape(lead + (1,) * len(shape))
            out = np.empty(lead + shape)
            for r, value in enumerate(values):
                out[r] = value
            return out

        coefs = [list(form.coefs.values()) + [1.0] * (self._width - len(form.coefs)) for form in self._forms]
        self._coefs = np.stack(np.broadcast_arrays(*(column(entries) for entries in zip(*coefs)))) if self._width else None
        self._terms[0] = column([form.const for form in self._forms])
        bound = max(form.bound + sum(np.max(np.abs(hoisted[key])) for key in form.bounds) for form in self._forms)
        if not bound < _AFFINE_RANGE:
            raise FloatingPointError
        self._scale = max(bound, 1.0) * (sys.float_info.max / _AFFINE_RANGE)

    def _affine_rows(self, out: np.ndarray, stack: np.ndarray, rows: dict, per_tree: dict) -> None:
        """Write each affine row: its constant plus one term ``coef * binding``
        per variable, in the order the variables first appear in its tree,
        summed in that order by one ``np.add.reduce`` from -0.0.  The sum does
        not depend on the order of the stack, nor, with no BLAS call, on the
        thread count.

        First every binding is multiplied by ``_scale``, under
        ``errstate(over="raise")``: that overflows unless every entry is at
        most ``_AFFINE_RANGE / max(1, bound)``, so no node of an affine tree
        reaches ``_AFFINE_RANGE``, and where ``evaluate`` would overflow at a
        node the call falls back to it.  A non-finite binding passes the scale
        but gives a non-finite row, which the caller's check of the table
        catches."""
        source, n, m = self._source, len(self.names), len(self.exprs)
        source[:n] = stack
        for j, v in enumerate(self._others):
            source[n + j * m : n + (j + 1) * m] = per_tree[v] if v in per_tree else rows[v]
        np.multiply(source, self._scale)
        terms = self._terms
        if self._width:
            np.take(source, self._gather, axis=0, out=terms[1:], mode="clip")
            np.multiply(terms[1:], self._coefs, out=terms[1:])
        if len(self._rows) == m:
            np.add.reduce(terms, axis=0, out=out, initial=-0.0)
        else:
            out[self._rows] = np.add.reduce(terms, axis=0, initial=-0.0)

    def __call__(self, t: float, stack: np.ndarray, **rows) -> np.ndarray:
        shape = np.shape(self.x)
        stack = stack.reshape((len(self.names),) + shape)
        per_tree = {name: v.reshape((len(self.exprs),) + shape) for name, v in rows.items() if np.ndim(v)}
        out = np.empty((len(self.exprs),) + shape)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                key = (t, math.copysign(1.0, t))  # 0.0 and -0.0 can give different bits
                if self._t is None or (self._reads_t and key != self._t):
                    self._t = None
                    self._refresh(t)
                    self._t = key
                if self._forms:
                    self._affine_rows(out, stack, rows, per_tree)
                if self._splits:
                    if self._reads_stack and not _finite(stack):
                        raise FloatingPointError
                    if not all(_finite(per_tree[name] if name in per_tree else rows[name]) for name in self._reads):
                        raise FloatingPointError
                    ctx = self._ctx
                    ctx.update(zip(self.names, stack))
                    ctx.update(rows)
                    for k, fn in self._splits:
                        ctx.update((name, a[k]) for name, a in per_tree.items())
                        out[k] = fn(ctx)
                if _finite(out):
                    return out
        except (KeyError, TypeError, FloatingPointError):
            pass
        shared = {"t": t, "x": self.x, **dict(zip(self.names, stack)), **rows}
        for k, e in enumerate(self.exprs):
            out[k] = evaluate(e, {**shared, **{name: a[k] for name, a in per_tree.items()}})
        return out
