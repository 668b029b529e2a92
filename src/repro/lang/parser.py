"""Recursive-descent / Pratt parser for the surface language.

Produces the AST of :mod:`repro.lang.ast`.  The concrete syntax is the
paper's own notation: Haskell-style expressions without the layout rule
(bindings and qualifiers are separated by ``;`` or ``,``), plus the
paper's extensions ``:=``, ``letrec*``, and ``[* ... *]``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lang import ast
from repro.lang.errors import ParseError
from repro.lang.lexer import Token, tokenize

# Binary operator precedence and associativity.  Higher binds tighter.
# Application and '!' are handled separately above all of these.
_BINOPS = {
    ":=": (1, "none"),
    "||": (2, "right"),
    "&&": (3, "right"),
    "==": (4, "none"),
    "/=": (4, "none"),
    "<": (4, "none"),
    "<=": (4, "none"),
    ">": (4, "none"),
    ">=": (4, "none"),
    "++": (5, "right"),
    "+": (6, "left"),
    "-": (6, "left"),
    "*": (7, "left"),
    "/": (7, "left"),
    "%": (7, "left"),
    "!": (9, "left"),
}

# Tokens that can begin an atom — used to detect application by
# juxtaposition.
_ATOM_STARTS_OPS = {"(", "[", "[*"}


class Parser:
    """Token-stream parser.  Reset ``pos`` to 0 to parse again."""

    def __init__(self, src: str):
        self.tokens = tokenize(src)
        self.pos = 0

    # ------------------------------------------------------------------
    # Token-stream helpers.

    def peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, message: str, token: Optional[Token] = None):
        token = token or self.peek()
        raise ParseError(
            f"{message} (found {token.text!r})", token.line, token.col
        )

    def expect_op(self, op: str) -> Token:
        token = self.peek()
        if not token.is_op(op):
            self.error(f"expected {op!r}")
        return self.next()

    def expect_kw(self, kw: str) -> Token:
        token = self.peek()
        if not token.is_kw(kw):
            self.error(f"expected keyword {kw!r}")
        return self.next()

    def expect_ident(self) -> Token:
        token = self.peek()
        if token.kind != "ident":
            self.error("expected identifier")
        return self.next()

    @staticmethod
    def _pos(token: Token):
        return (token.line, token.col)

    # ------------------------------------------------------------------
    # Entry points.

    def parse_expression(self) -> ast.Node:
        """Parse a complete expression; the whole input must be consumed."""
        expr = self.expr()
        if self.peek().kind != "eof":
            self.error("unexpected input after expression")
        return expr

    def parse_program(self) -> List[ast.Binding]:
        """Parse a ``;``-separated sequence of top-level bindings.

        A single trailing ``;`` after the last binding is accepted (the
        natural way to write one binding per line ends every line with
        a separator).
        """
        binds = self.bindings(stoppers=())
        if self.peek().is_op(";"):
            self.next()
        if self.peek().kind != "eof":
            self.error("unexpected input after program")
        return binds

    # ------------------------------------------------------------------
    # Expressions.

    def expr(self) -> ast.Node:
        """Full expression, including a trailing ``where`` clause."""
        result = self.expr_nowhere()
        if self.peek().is_kw("where"):
            where_token = self.next()
            binds = self.bindings(stoppers=("in",))
            result = ast.Let(
                kind="let", binds=binds, body=result,
                pos=self._pos(where_token),
            )
        return result

    def expr_nowhere(self) -> ast.Node:
        token = self.peek()
        if token.is_op("\\"):
            return self.lambda_expr()
        if token.is_kw("let", "letrec", "letrec*"):
            return self.let_expr()
        if token.is_kw("if"):
            return self.if_expr()
        return self.opexpr(0)

    def lambda_expr(self) -> ast.Node:
        start = self.expect_op("\\")
        params = [self.expect_ident().text]
        while self.peek().kind == "ident":
            params.append(self.next().text)
        self.expect_op("->")
        body = self.expr()
        return ast.Lam(params=params, body=body, pos=self._pos(start))

    def let_expr(self) -> ast.Node:
        start = self.next()
        kind = start.text
        binds = self.bindings(stoppers=("in",))
        self.expect_kw("in")
        body = self.expr()
        return ast.Let(kind=kind, binds=binds, body=body,
                       pos=self._pos(start))

    def if_expr(self) -> ast.Node:
        start = self.expect_kw("if")
        cond = self.expr()
        self.expect_kw("then")
        then = self.expr()
        self.expect_kw("else")
        else_ = self.expr()
        return ast.If(cond=cond, then=then, else_=else_,
                      pos=self._pos(start))

    def bindings(self, stoppers) -> List[ast.Binding]:
        """Parse ``name params = expr`` bindings separated by ``;``.

        Stops at EOF, at any keyword named in ``stoppers``, or when no
        ``;`` follows a binding.
        """
        binds = [self.binding()]
        while self.peek().is_op(";") and self._binding_follows():
            self.next()
            binds.append(self.binding())
        return binds

    def _binding_follows(self) -> bool:
        """Whether ``; name param* =`` follows — i.e. another binding.

        Distinguishes ``let v = 1; w = 2`` from a ``;`` that separates
        comprehension qualifiers after a ``let`` qualifier, e.g.
        ``[* e | let v = 1; i <- [1..n] *]``.
        """
        ahead = 1
        if self.peek(ahead).kind != "ident":
            return False
        ahead += 1
        while self.peek(ahead).kind == "ident":
            ahead += 1
        return self.peek(ahead).is_op("=")

    def binding(self) -> ast.Binding:
        name_token = self.expect_ident()
        params = []
        while self.peek().kind == "ident":
            params.append(self.next().text)
        self.expect_op("=")
        expr = self.expr()
        if params:
            expr = ast.Lam(params=list(params), body=expr,
                           pos=self._pos(name_token))
        return ast.Binding(name=name_token.text, params=params, expr=expr,
                           pos=self._pos(name_token))

    def opexpr(self, min_prec: int) -> ast.Node:
        left = self.unary()
        while True:
            token = self.peek()
            if token.kind != "op" or token.text not in _BINOPS:
                return left
            prec, assoc = _BINOPS[token.text]
            if prec < min_prec:
                return left
            self.next()
            next_min = prec if assoc == "right" else prec + 1
            right = self.operand(next_min)
            if token.text == ":=":
                left = ast.SVPair(sub=left, val=right,
                                  pos=self._pos(token))
            elif token.text == "!":
                left = ast.Index(arr=left, idx=right,
                                 pos=self._pos(token))
            elif token.text == "++":
                left = ast.Append(left=left, right=right,
                                  pos=self._pos(token))
            else:
                left = ast.BinOp(op=token.text, left=left, right=right,
                                 pos=self._pos(token))

    def operand(self, min_prec: int) -> ast.Node:
        """Right operand of a binary operator: allows ``let``/``if``/lambda."""
        token = self.peek()
        if token.is_op("\\"):
            return self.lambda_expr()
        if token.is_kw("let", "letrec", "letrec*"):
            return self.let_expr()
        if token.is_kw("if"):
            return self.if_expr()
        return self.opexpr(min_prec)

    def unary(self) -> ast.Node:
        token = self.peek()
        if token.is_op("-"):
            self.next()
            operand = self.unary()
            return ast.UnOp(op="-", operand=operand, pos=self._pos(token))
        if token.is_kw("not"):
            self.next()
            operand = self.unary()
            return ast.UnOp(op="not", operand=operand, pos=self._pos(token))
        return self.application()

    def application(self) -> ast.Node:
        fn = self.atom()
        args = []
        while self.starts_atom(self.peek()):
            args.append(self.atom())
        if not args:
            return fn
        return ast.App(fn=fn, args=args, pos=fn.pos)

    @staticmethod
    def starts_atom(token: Token) -> bool:
        if token.kind in ("int", "float", "ident"):
            return True
        if token.is_kw("True", "False"):
            return True
        return token.kind == "op" and token.text in _ATOM_STARTS_OPS

    def atom(self) -> ast.Node:
        token = self.peek()
        if token.kind in ("int", "float"):
            self.next()
            return ast.Lit(token.value, pos=self._pos(token))
        if token.is_kw("True"):
            self.next()
            return ast.Lit(True, pos=self._pos(token))
        if token.is_kw("False"):
            self.next()
            return ast.Lit(False, pos=self._pos(token))
        if token.kind == "ident":
            self.next()
            return ast.Var(token.text, pos=self._pos(token))
        if token.is_op("("):
            return self.paren()
        if token.is_op("["):
            return self.bracket()
        if token.is_op("[*"):
            return self.nested_comp()
        self.error("expected an expression")

    def paren(self) -> ast.Node:
        start = self.expect_op("(")
        first = self.expr()
        if self.peek().is_op(","):
            items = [first]
            while self.peek().is_op(","):
                self.next()
                items.append(self.expr())
            self.expect_op(")")
            return ast.TupleExpr(items=items, pos=self._pos(start))
        self.expect_op(")")
        return first

    def bracket(self) -> ast.Node:
        """``[ ... ]``: list, arithmetic sequence, or comprehension."""
        start = self.expect_op("[")
        if self.peek().is_op("]"):
            self.next()
            return ast.ListExpr(items=[], pos=self._pos(start))
        first = self.expr()
        token = self.peek()
        if token.is_op(".."):
            self.next()
            stop = self.expr()
            self.expect_op("]")
            return ast.EnumSeq(start=first, second=None, stop=stop,
                               pos=self._pos(start))
        if token.is_op("|"):
            self.next()
            quals = self.qualifiers()
            self.expect_op("]")
            return ast.Comp(head=first, quals=quals, pos=self._pos(start))
        if token.is_op(","):
            self.next()
            second = self.expr()
            if self.peek().is_op(".."):
                self.next()
                stop = self.expr()
                self.expect_op("]")
                return ast.EnumSeq(start=first, second=second, stop=stop,
                                   pos=self._pos(start))
            items = [first, second]
            while self.peek().is_op(","):
                self.next()
                items.append(self.expr())
            self.expect_op("]")
            return ast.ListExpr(items=items, pos=self._pos(start))
        self.expect_op("]")
        return ast.ListExpr(items=[first], pos=self._pos(start))

    def nested_comp(self) -> ast.Node:
        """``[* body | quals *]`` (paper §3.1)."""
        start = self.expect_op("[*")
        body = self.expr()
        quals: List[ast.Node] = []
        if self.peek().is_op("|"):
            self.next()
            quals = self.qualifiers()
        self.expect_op("*]")
        return ast.NestedComp(body=body, quals=quals, pos=self._pos(start))

    def qualifiers(self) -> List[ast.Node]:
        quals = [self.qualifier()]
        while self.peek().is_op(",", ";"):
            self.next()
            quals.append(self.qualifier())
        return quals

    def qualifier(self) -> ast.Node:
        token = self.peek()
        if token.is_kw("let"):
            self.next()
            binds = self.bindings(stoppers=())
            return ast.LetQual(binds=binds, pos=self._pos(token))
        if token.kind == "ident" and self.peek(1).is_op("<-"):
            var = self.next().text
            self.next()  # '<-'
            source = self.expr()
            return ast.Generator(var=var, source=source,
                                 pos=self._pos(token))
        cond = self.expr()
        return ast.Guard(cond=cond, pos=self._pos(token))


def parse_expr(src: str) -> ast.Node:
    """Parse ``src`` as a single expression."""
    return Parser(src).parse_expression()


def parse_program(src: str) -> List[ast.Binding]:
    """Parse ``src`` as a ``;``-separated list of top-level bindings."""
    return Parser(src).parse_program()
