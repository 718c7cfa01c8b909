"""Render an expression AST back to config text: parse(to_source(a)) == a.

The inverse of ``pctsolve.exprlang.parse`` for the round-trip tests, and for
any test that draws ASTs and needs them as expression strings.
"""

from pctsolve.exprlang import RESERVED_VARIABLE, BinOp, Call, ExprAst, Neg, Num, Param, Var

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node: ExprAst) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return 5


def to_source(node: ExprAst) -> str:
    """Render an AST back to text; parse(to_source(a)) == a."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return RESERVED_VARIABLE
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Neg):
        inner = to_source(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    lhs, rhs = to_source(node.lhs), to_source(node.rhs)
    p = _PREC[node.op]
    if node.op == "^":
        # base must be an atom; exponent binds at unary level
        if _prec(node.lhs) < 5:
            lhs = f"({lhs})"
        if _prec(node.rhs) < 3:
            rhs = f"({rhs})"
    else:
        if _prec(node.lhs) < p:
            lhs = f"({lhs})"
        # - and / are left-associative: right child needs strictly higher prec
        if _prec(node.rhs) <= p:
            rhs = f"({rhs})"
    return f"{lhs}{node.op}{rhs}"
