"""Pretty-printer for the surface AST.

``pretty(parse_expr(s))`` produces a string that re-parses to an
equal AST (round-tripping is property-tested).  Output is fully
parenthesized only where precedence requires it.
"""

from __future__ import annotations

from typing import List, Union

from repro.lang import ast

_PREC = {
    ":=": 1,
    "||": 2,
    "&&": 3,
    "==": 4,
    "/=": 4,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "++": 5,
    "+": 6,
    "-": 6,
    "*": 7,
    "/": 7,
    "%": 7,
    "!": 9,
}
_RIGHT = {"||", "&&", "++"}
_APP_PREC = 10


def pretty(node: Union[ast.Node, List[ast.Binding]]) -> str:
    """Render ``node`` as concrete syntax; a binding list (a parsed
    program) renders as its ``;``-separated bindings."""
    if isinstance(node, list):
        return "; ".join(_pp_binding(bind) for bind in node)
    return _pp(node, 0)


def _parens(text: str, needed: bool) -> str:
    return f"({text})" if needed else text


def _pp(node: ast.Node, prec: int) -> str:
    if isinstance(node, ast.Lit):
        if node.value is True:
            return "True"
        if node.value is False:
            return "False"
        text = repr(node.value)
        if isinstance(node.value, (int, float)) and node.value < 0:
            return _parens(text, prec > 0)
        return text
    if isinstance(node, ast.Var):
        return node.name
    if isinstance(node, ast.Lam):
        body = _pp(node.body, 0)
        return _parens(f"\\{' '.join(node.params)} -> {body}", prec > 0)
    if isinstance(node, ast.App):
        parts = [_pp(node.fn, _APP_PREC)]
        parts += [_pp(arg, _APP_PREC) for arg in node.args]
        return _parens(" ".join(parts), prec >= _APP_PREC)
    if isinstance(node, ast.BinOp):
        return _pp_binop(node.op, node.left, node.right, prec)
    if isinstance(node, ast.SVPair):
        return _pp_binop(":=", node.sub, node.val, prec)
    if isinstance(node, ast.Append):
        return _pp_binop("++", node.left, node.right, prec)
    if isinstance(node, ast.Index):
        return _pp_binop("!", node.arr, node.idx, prec)
    if isinstance(node, ast.UnOp):
        spacer = " " if node.op == "not" else ""
        return _parens(
            f"{node.op}{spacer}{_pp(node.operand, 8)}", prec > 7
        )
    if isinstance(node, ast.If):
        text = (
            f"if {_pp(node.cond, 0)} then {_pp(node.then, 0)} "
            f"else {_pp(node.else_, 0)}"
        )
        return _parens(text, prec > 0)
    if isinstance(node, ast.TupleExpr):
        return "(" + ", ".join(_pp(item, 0) for item in node.items) + ")"
    if isinstance(node, ast.ListExpr):
        return "[" + ", ".join(_pp(item, 0) for item in node.items) + "]"
    if isinstance(node, ast.EnumSeq):
        start = _pp(node.start, 0)
        stop = _pp(node.stop, 0)
        if node.second is None:
            return f"[{start}..{stop}]"
        return f"[{start},{_pp(node.second, 0)}..{stop}]"
    if isinstance(node, ast.Comp):
        quals = ", ".join(_pp_qual(qual) for qual in node.quals)
        return f"[{_pp(node.head, 0)} | {quals}]"
    if isinstance(node, ast.NestedComp):
        if not node.quals:
            return f"[* {_pp(node.body, 0)} *]"
        quals = ", ".join(_pp_qual(qual) for qual in node.quals)
        return f"[* {_pp(node.body, 0)} | {quals} *]"
    if isinstance(node, ast.Let):
        binds = "; ".join(_pp_binding(bind) for bind in node.binds)
        return _parens(
            f"{node.kind} {binds} in {_pp(node.body, 0)}", prec > 0
        )
    raise TypeError(f"cannot pretty-print {type(node).__name__}")


def _pp_binop(op: str, left: ast.Node, right: ast.Node, prec: int) -> str:
    my_prec = _PREC[op]
    if op in _RIGHT:
        left_prec, right_prec = my_prec + 1, my_prec
    else:
        left_prec, right_prec = my_prec, my_prec + 1
    text = f"{_pp(left, left_prec)} {op} {_pp(right, right_prec)}"
    if op == "!":
        text = f"{_pp(left, left_prec)}!{_pp(right, right_prec)}"
    return _parens(text, prec > my_prec)


def _pp_qual(qual: ast.Node) -> str:
    if isinstance(qual, ast.Generator):
        return f"{qual.var} <- {_pp(qual.source, 0)}"
    if isinstance(qual, ast.Guard):
        return _pp(qual.cond, 0)
    if isinstance(qual, ast.LetQual):
        binds = "; ".join(_pp_binding(bind) for bind in qual.binds)
        return f"let {binds}"
    raise TypeError(f"not a qualifier: {type(qual).__name__}")


def _pp_binding(bind: ast.Binding) -> str:
    expr = bind.expr
    if bind.params and isinstance(expr, ast.Lam):
        expr = expr.body
        return f"{bind.name} {' '.join(bind.params)} = {_pp(expr, 0)}"
    return f"{bind.name} = {_pp(expr, 0)}"
