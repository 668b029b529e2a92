"""Pretty-printer tests, including property-based round-tripping."""

from hypothesis import given, settings, strategies as st

from repro.lang import ast
from repro.lang.parser import parse_expr, parse_program
from repro.lang.pretty import pretty


def roundtrips(src):
    e = parse_expr(src)
    printed = pretty(e)
    assert parse_expr(printed) == e, printed
    return printed


class TestRendering:
    def test_simple(self):
        assert pretty(parse_expr("1 + 2 * 3")) == "1 + 2 * 3"

    def test_parens_only_when_needed(self):
        assert pretty(parse_expr("(1 + 2) * 3")) == "(1 + 2) * 3"
        assert pretty(parse_expr("1 + (2 * 3)")) == "1 + 2 * 3"

    def test_index_compact(self):
        assert pretty(parse_expr("a!(i-1)")) == "a!(i - 1)"

    def test_comprehension(self):
        assert (
            pretty(parse_expr("[ i*i | i <- [1..n] ]"))
            == "[i * i | i <- [1..n]]"
        )

    def test_nested_comprehension(self):
        out = pretty(parse_expr("[* [1 := 2] | i <- [1..3] *]"))
        assert out.startswith("[*") and out.endswith("*]")

    def test_sequences(self):
        assert pretty(parse_expr("[1..n]")) == "[1..n]"
        assert pretty(parse_expr("[10,8..0]")) == "[10,8..0]"

    def test_lambda_and_let(self):
        assert pretty(parse_expr("\\x -> x + 1")) == "\\x -> x + 1"
        assert pretty(parse_expr("let x = 1 in x")) == "let x = 1 in x"


class TestRoundTrips:
    def test_paper_kernels_roundtrip(self):
        from repro.kernels import CATALOG

        for entry in CATALOG.values():
            roundtrips(entry["source"])

    def test_programs_roundtrip(self):
        # A binding list renders as a program (the service keys a
        # parsed program by this text).
        from repro.kernels import PROGRAM_CATALOG

        for entry in PROGRAM_CATALOG.values():
            binds = parse_program(entry["source"])
            assert parse_program(pretty(binds)) == binds

    def test_tricky_cases(self):
        for src in [
            "a ++ b ++ c",
            "(a ++ b) ++ c",
            "- (x + 1)",
            "f (g x) y",
            "a!(i, j)",
            "if a then b else c",
            "1 := 2",
            "[ x | i <- [1..3], i > 1, let x = i ]",
            "not (a && b)",
            "letrec* x = [1] in x",
            "f a ! i",
        ]:
            roundtrips(src)


# ----------------------------------------------------------------------
# Property-based: random ASTs print-then-parse to themselves.

_names = st.sampled_from(["x", "y", "i", "j", "aa", "bb"])


def _exprs(depth):
    leaf = st.one_of(
        st.integers(0, 999).map(ast.Lit),
        st.booleans().map(ast.Lit),
        _names.map(ast.Var),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["+", "-", "*", "==", "<", "&&"]),
                  sub, sub).map(
            lambda t: ast.BinOp(op=t[0], left=t[1], right=t[2])
        ),
        st.tuples(sub, sub).map(lambda t: ast.Append(left=t[0], right=t[1])),
        st.tuples(sub, sub).map(lambda t: ast.Index(arr=t[0], idx=t[1])),
        st.tuples(sub, sub).map(lambda t: ast.SVPair(sub=t[0], val=t[1])),
        st.tuples(sub, sub, sub).map(
            lambda t: ast.If(cond=t[0], then=t[1], else_=t[2])
        ),
        st.lists(sub, min_size=0, max_size=3).map(
            lambda items: ast.ListExpr(items=items)
        ),
        st.tuples(sub, sub).map(
            lambda t: ast.TupleExpr(items=[t[0], t[1]])
        ),
        st.tuples(_names, sub).map(
            lambda t: ast.Lam(params=[t[0]], body=t[1])
        ),
        st.tuples(_names, sub, sub).map(
            lambda t: ast.Let(
                kind="let",
                binds=[ast.Binding(name=t[0], params=[], expr=t[1])],
                body=t[2],
            )
        ),
        st.tuples(_names, sub, sub).map(
            lambda t: ast.Comp(
                head=t[1],
                quals=[ast.Generator(
                    var=t[0],
                    source=ast.EnumSeq(start=ast.Lit(1), second=None,
                                       stop=t[2]),
                )],
            )
        ),
    )


@settings(max_examples=200, deadline=None)
@given(_exprs(3))
def test_pretty_parse_roundtrip(expr):
    printed = pretty(expr)
    assert parse_expr(printed) == expr
