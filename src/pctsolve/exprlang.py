"""Expression language for user-defined mass profiles.

A small grammar over the independent variable ``x`` and named parameters.
One walk of the AST gives either forward-mode second-order jets, the value
with its exact first and second derivatives (``eval_jet``), or the value
alone (``eval_value``), bit-identical to the jet's value.  Supported
functions: exp, ln, sqrt, sin, cos, sinh, cosh, tanh, coth and the
q-deformed sinhq, coshq, tanhq, cothq, sechq, cschq, whose q is the
parameter table entry ``q`` (finite and > 0).  Each function is one table
row, its value function and its derivatives from the argument and that
value; a jet takes its value from the value function, so both walks raise
the same error where the value is undefined.  Precedence: ``^``
(right-assoc) > unary minus > ``* /`` > ``+ -``.  An expression nested too
deeply for Python's recursion limit is an ``ExprSyntaxError`` when parsed
and a ``DomainError`` when evaluated.  Every value of a walk is numpy's:
x, the constants and parameters, and the q-functions' results (a scalar x
gives a ``numpy.float64``).  So one arithmetic applies throughout: a power
that overflows is inf and x/0 is +-inf or NaN, where a Python float would
raise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import qmath
from .errors import (
    DomainError,
    ExprSyntaxError,
    UnboundParameterError,
    UnknownFunctionError,
)

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    """The independent variable x."""


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: "ExprAst"
    rhs: "ExprAst"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprAst"


ExprAst = Union[Num, Var, Param, Neg, BinOp, Call]

RESERVED_VARIABLE = "x"

# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | eof
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        if source[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(
                f"expected {op!r}, found {tok.text or 'end of input'!r}",
                tok.offset,
                expected={op},
            )
        return self.next()

    # grammar ---------------------------------------------------------------

    def parse(self) -> ExprAst:
        node = self.sum()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExprSyntaxError(
                f"unexpected trailing input {tok.text!r}", tok.offset
            )
        return node

    def sum(self) -> ExprAst:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> ExprAst:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> ExprAst:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.next()
            name = tok.text
            follows_call = (
                self.peek().kind == "op" and self.peek().text == "("
            )
            if follows_call:
                if name == RESERVED_VARIABLE or name not in FUNCTION_NAMES:
                    raise UnknownFunctionError(
                        f"unknown function {name!r}", tok.offset
                    )
                self.next()
                arg = self.sum()
                self.expect_op(")")
                return Call(name, arg)
            if name in FUNCTION_NAMES:
                raise ExprSyntaxError(
                    f"function {name!r} requires an argument list", tok.offset,
                    expected={"("},
                )
            if name == RESERVED_VARIABLE:
                return Var()
            return Param(name)
        if tok.kind == "op" and tok.text == "(":
            self.next()
            node = self.sum()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            tok.offset,
            expected={"number", "identifier", "("},
        )


def parse(source: str) -> ExprAst:
    """Parse an expression string into an immutable AST."""
    parser = _Parser(source)
    try:
        return parser.parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", parser.peek().offset) from None


# ---------------------------------------------------------------------------
# Second-order forward jets


@dataclass(frozen=True)
class Jet2:
    """Value with first and second derivative w.r.t. x."""

    value: object
    d1: object
    d2: object

    def __add__(self, other):
        o = _jet(other)
        return Jet2(self.value + o.value, self.d1 + o.d1, self.d2 + o.d2)

    def __neg__(self):
        return Jet2(-self.value, -self.d1, -self.d2)

    def __sub__(self, other):
        # a - b, not a + (-b): the negation flips a NaN's sign bit
        o = _jet(other)
        return Jet2(self.value - o.value, self.d1 - o.d1, self.d2 - o.d2)

    def __mul__(self, other):
        o = _jet(other)
        return Jet2(
            self.value * o.value,
            self.d1 * o.value + self.value * o.d1,
            self.d2 * o.value + 2.0 * self.d1 * o.d1 + self.value * o.d2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _jet_div(self, _jet(other))


def _jet(v) -> Jet2:
    if isinstance(v, Jet2):
        return v
    return Jet2(v, np.float64(0.0), np.float64(0.0))


# Each function's value formula and domain check is written once, as the
# value function below; its jet computes the value through it, so a walk for
# values and a walk for jets agree bit for bit and raise the same errors
# wherever the value itself is undefined.


def _divide(a, b):
    # an element is falsy exactly when it is +-0: one reduction pass
    if not np.all(b):
        raise DomainError("division by zero in expression")
    return a / b


def _ln(v):
    if np.any(np.asarray(v) <= 0):
        raise DomainError("ln of a non-positive value")
    return np.log(v)


def _sqrt(v):
    if np.any(np.asarray(v) <= 0):
        raise DomainError("sqrt of a non-positive value")
    return np.sqrt(v)


def _coth(v):
    # 1/tanh stays finite where cosh/sinh would be inf/inf
    t = np.tanh(v)
    if np.any(np.abs(np.asarray(t)) < qmath.POLE_THRESHOLD):
        raise DomainError("coth evaluated at its pole")
    return 1.0 / t


def _integer_exponent(k):
    """k as an int when it is a whole-number scalar, else None."""
    return int(k) if np.ndim(k) == 0 and float(k).is_integer() else None


def _power(b, k):
    """b^k for an exponent k constant in x: the value of the power jet."""
    n = _integer_exponent(k)
    if n is None:
        if np.any(np.asarray(b) <= 0):
            raise DomainError("non-integer power of a non-positive base")
        return b**k
    if n == 0:
        return 1.0 + 0.0 * b  # keeps b's shape
    if n < 0:
        if not np.all(b):
            raise DomainError("division by zero in expression")
        # 1/b^|n|: where b^|n| underflows to +-0 for a nonzero b, +-inf
        return 1.0 / b**-n
    return b**n


def _jet_div(u: Jet2, v: Jet2) -> Jet2:
    return _jet_quotient(u, v, _divide(u.value, v.value))


def _jet_quotient(u: Jet2, v: Jet2, w) -> Jet2:
    """u / v given its value w."""
    w1 = (u.d1 - w * v.d1) / v.value
    w2 = (u.d2 - 2.0 * w1 * v.d1 - w * v.d2) / v.value
    return Jet2(w, w1, w2)


def _chain(u: Jet2, f0, f1, f2) -> Jet2:
    return Jet2(f0, f1 * u.d1, f2 * u.d1 * u.d1 + f1 * u.d2)


# One row per function: name -> (value, derivatives).  value(v) is the
# function with its domain check; derivatives(v, f) gives (f', f'') from the
# argument v and the value f just computed.  The q rows take q last and look
# qmath's functions up at call time, so a wrapper installed on qmath
# (perfbench's tracer) sees every call.  Their derivatives use qmath's
# overflow-safe forms (cosh_q^2 - sinh_q^2 = q gives every derivative in terms
# of the ratios), and qmath raises PoleError at the poles of cothq and cschq.


def _tanh_like(t, d1):
    """(t', t'') of a ratio t with t' = d1 and d1' = -2 t d1 (tanh, coth and
    their q forms)."""
    return d1, -2.0 * t * d1


def _sechq_derivatives(v, sh, q):
    t = qmath.tanh_q(v, q)
    return -t * sh, sh * (t * t - q * sh * sh)


def _cschq_derivatives(v, cs, q):
    ct = qmath.coth_q(v, q)
    return -ct * cs, cs * (ct * ct + q * cs * cs)


_FUNCTIONS = {
    "exp": (np.exp, lambda v, e: (e, e)),
    "ln": (_ln, lambda v, f: (1.0 / v, -1.0 / (v * v))),
    "sqrt": (_sqrt, lambda v, r: (0.5 / r, -0.25 / (r * v))),
    "sin": (np.sin, lambda v, s: (np.cos(v), -s)),
    "cos": (np.cos, lambda v, c: (-np.sin(v), -c)),
    "sinh": (np.sinh, lambda v, s: (np.cosh(v), s)),
    "cosh": (np.cosh, lambda v, c: (np.sinh(v), c)),
    "tanh": (np.tanh, lambda v, t: _tanh_like(t, 1.0 - t * t)),
    # 1 - coth^2 = -1/sinh^2
    "coth": (_coth, lambda v, ct: _tanh_like(ct, 1.0 - ct * ct)),
    "sinhq": (lambda v, q: qmath.sinh_q(v, q), lambda v, s, q: (qmath.cosh_q(v, q), s)),
    "coshq": (lambda v, q: qmath.cosh_q(v, q), lambda v, c, q: (qmath.sinh_q(v, q), c)),
    "tanhq": (
        lambda v, q: qmath.tanh_q(v, q),
        lambda v, t, q: _tanh_like(t, q * qmath.sech_sq_q(v, q)),
    ),
    "cothq": (
        lambda v, q: qmath.coth_q(v, q),
        lambda v, ct, q: _tanh_like(ct, -q * qmath.csch_sq_q(v, q)),
    ),
    "sechq": (lambda v, q: qmath.sech_q(v, q), _sechq_derivatives),
    "cschq": (lambda v, q: qmath.csch_q(v, q), _cschq_derivatives),
}

#: the functions whose row takes the parameter q
_Q_FUNCTIONS = frozenset({"sinhq", "coshq", "tanhq", "cothq", "sechq", "cschq"})


def _value(name, v, *q):
    """Function ``name`` at v, a float64 also where qmath gives a Python float."""
    return np.float64(_FUNCTIONS[name][0](v, *q))


def _apply(name, u: Jet2, *q) -> Jet2:
    """The jet of function ``name`` at the jet u: its value first, so the jet
    raises the value's error where it has one."""
    f = _value(name, u.value, *q)
    return _chain(u, f, *_FUNCTIONS[name][1](u.value, f, *q))


FUNCTION_NAMES = frozenset(_FUNCTIONS)


def _exponent_constant(v: Jet2) -> bool:
    return bool(np.all(np.asarray(v.d1) == 0.0) and np.all(np.asarray(v.d2) == 0.0))


def _jet_pow(u: Jet2, v: Jet2) -> Jet2:
    if not _exponent_constant(v):
        return _apply("exp", v * _apply("ln", u))
    k = v.value
    # the value first, so the jet raises the value's error where it has one
    f0 = _power(u.value, k)
    n = _integer_exponent(k)
    if n == 0:
        return _jet(1.0) + 0.0 * u  # keeps array shape
    if n is not None and n < 0:
        # f0 is 1/u^|n|, also where u^|n| underflows
        return _jet_quotient(_jet(1.0), _jet_pow(u, -v), f0)
    f1 = k * u.value ** (k - 1.0)
    f2 = k * (k - 1.0) * (u.value ** (k - 2.0) if n is None or n >= 2 else 0.0)
    return _chain(u, f0, f1, f2)


def eval_jet(ast: ExprAst, x, params=None) -> Jet2:
    """Evaluate an AST at x, returning value and first two x-derivatives.

    x may be a scalar or a numpy array; derivatives are exact to floating
    precision (no truncation error).  What overflows is inf (NaN where inf
    meets 0) without a numpy warning: a mass profile's validation rejects it.
    """
    return _evaluate(ast, x, params, True)


def eval_value(ast: ExprAst, x, params=None):
    """The value of ``eval_jet(ast, x, params)`` alone, without derivatives.

    Bit-identical to the jet's value, and raises the same error wherever the
    value itself is undefined; an error only a derivative would hit (for
    example at a pole of m' alone) is left to ``eval_jet``.
    """
    return _evaluate(ast, x, params, False)


def _evaluate(ast, x, params, jets):
    with np.errstate(all="ignore"):
        try:
            return _walk(ast, x, params or {}, jets)
        except RecursionError:
            raise DomainError("expression nested too deeply to evaluate") from None


def _param(params, name):
    try:
        return float(params[name])
    except KeyError:
        raise UnboundParameterError(name) from None


def _walk(node: ExprAst, x, params, jets):
    # the node's jet if jets, else its value; module-level, not a closure: a
    # self-referencing nested function forms a reference cycle that keeps x
    # alive until the cyclic GC runs
    if isinstance(node, Num):
        value = np.float64(node.value)
        return _jet(value) if jets else value
    if isinstance(node, Var):
        x = np.asarray(x, dtype=float)  # [()] takes a 0-d x to a float64
        return Jet2(x[()], np.ones_like(x)[()], np.zeros_like(x)[()]) if jets else x[()]
    if isinstance(node, Param):
        value = np.float64(_param(params, node.name))
        return _jet(value) if jets else value
    if isinstance(node, Neg):
        return -_walk(node.operand, x, params, jets)
    if isinstance(node, Call):
        u = _walk(node.arg, x, params, jets)
        # q stays a Python float: qmath's messages show it with repr
        q = (_param(params, "q"),) if node.func in _Q_FUNCTIONS else ()
        return _apply(node.func, u, *q) if jets else _value(node.func, u, *q)
    lhs = _walk(node.lhs, x, params, jets)
    if node.op == "^":
        # the power jet's branch depends on the exponent's derivatives, so
        # the exponent is a jet (a scalar one unless it contains x); for a
        # value, an exponent that varies with x sends the whole power
        # through the jet
        rhs = _walk(node.rhs, x, params, True)
        if jets:
            return _jet_pow(lhs, rhs)
        if _exponent_constant(rhs):
            return _power(lhs, rhs.value)
        return _jet_pow(_walk(node.lhs, x, params, True), rhs).value
    rhs = _walk(node.rhs, x, params, jets)
    if node.op == "+":
        return lhs + rhs
    if node.op == "-":
        return lhs - rhs
    if node.op == "*":
        return lhs * rhs
    # Jet2's division calls _divide on the values
    return lhs / rhs if jets else _divide(lhs, rhs)
