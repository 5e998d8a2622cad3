import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stepweaver import dsl
from stepweaver.builders import right_heavy, silver
from stepweaver.dsl import (
    DslSyntaxError,
    DslTypeError,
    ExprMacro,
    compile_expression,
    evaluate,
    format_expr,
    parse,
    typecheck,
)
from stepweaver.schedule import LEAF, CompClass, CompositionTree, JoinOp, fold_tree, postorder

SQ2 = math.sqrt(2.0)


class TestParse:
    def test_sjoin_of_leaves(self):
        ast = parse("(e >< e)")
        assert ast == CompositionTree(JoinOp.SJOIN, LEAF, LEAF)

    def test_nested(self):
        ast = parse("((e >< e) |> (e |> e))")
        assert ast.op is JoinOp.FJOIN
        assert ast.left.op is JoinOp.SJOIN
        assert ast.right.op is JoinOp.FJOIN

    def test_whitespace_insensitive(self):
        assert parse("(e><e)") == parse("(  e  ><  e  )")

    def test_unicode_aliases(self):
        assert parse("(e ⋈ e)") == parse("(e >< e)")
        assert parse("(e ▷ e)") == parse("(e |> e)")
        assert parse("(e ◁ e)") == parse("(e <| e)")

    def test_macro(self):
        assert parse("silver(3)") == ExprMacro("silver", 3)
        assert parse("obsf( 12 )") == ExprMacro("obsf", 12)

    def test_trailing_input_is_an_error(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("(e >< e) >< e) ")
        assert exc.value.pos == 9

    def test_unbalanced_paren(self):
        with pytest.raises(DslSyntaxError):
            parse("((e >< e) |> e")

    def test_missing_operator(self):
        with pytest.raises(DslSyntaxError, match="join operator"):
            parse("(e e)")

    def test_unknown_macro(self):
        with pytest.raises(DslSyntaxError, match="unknown macro"):
            parse("nosuch(3)")

    def test_negative_macro_argument(self):
        with pytest.raises(DslSyntaxError, match="negative"):
            parse("silver(-2)")

    def test_error_carries_position_and_expectations(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("(e >< )")
        assert exc.value.pos == 6
        assert "e" in exc.value.expected

    def test_position_counts_characters_not_bytes(self):
        text = "(e ⋈ e) @"  # the operator is one character and three UTF-8 bytes
        with pytest.raises(DslSyntaxError) as exc:
            parse(text)
        assert exc.value.pos == text.index("@") == 8
        assert str(exc.value).startswith("syntax error at position 8: unexpected character '@'")

    def test_determinism(self):
        text = "((silver(2) >< e) |> (e |> e))"
        assert parse(text) == parse(text)

    @pytest.mark.parametrize(
        "text,want",
        [
            # the scan is eager: a lexical error wins over the earlier missing operator
            ("(e e) @", ("unexpected character '@'", 6, ("e", "macro", "(", ")"))),
            ("e(3)", ("unexpected character '3'", 2, ("e", "macro", "(", ")"))),
            ("E", ("unexpected character 'E'", 0, ("e", "macro", "(", ")"))),
            ("(e><e)x", ("unknown macro 'x'", 6, dsl.MACRO_NAMES)),
            ("(e >< e  ", ("unbalanced parenthesis", 9, (")",))),
            ("obsf(1)(", ("trailing input after a complete expression", 7, ("end of input",))),
            ("silver ( +3 )", "silver(3)"),
            ("silver(-0)", "silver(0)"),
            ("(e\t⋈\u3000e)", "(e >< e)"),
            ("(silver(2)▷e)", "(silver(2) |> e)"),
            ("\u3000e\n", "e"),
        ],
    )
    def test_scanner_edge_cases(self, text, want):
        if isinstance(want, str):
            assert format_expr(parse(text)) == want
            return
        message, pos, expected = want
        with pytest.raises(DslSyntaxError) as exc:
            parse(text)
        assert (str(exc.value), exc.value.pos, exc.value.expected) == (
            str(DslSyntaxError(message, pos, expected)),
            pos,
            expected,
        )


class TestTypecheck:
    def test_leaf_admits_everything(self):
        assert typecheck(LEAF) == frozenset(CompClass)

    def test_sjoin_requires_s_operands(self):
        with pytest.raises(DslTypeError, match=r"left operand of >< has classes \{f\}"):
            typecheck(parse("((e |> e) >< e)"))

    def test_gjoin_requires_g_left(self):
        with pytest.raises(DslTypeError, match=r"left operand of <\|"):
            typecheck(parse("((e >< e) <| e)"))

    def test_macro_classes(self):
        assert typecheck(parse("silver(2)")) == {CompClass.S}
        assert typecheck(parse("obsg(4)")) == {CompClass.G}
        assert typecheck(parse("rheavy(2)")) == {CompClass.F}

    def test_error_reports_offending_subtree(self):
        with pytest.raises(DslTypeError, match=r"\(e \|> e\)"):
            typecheck(parse("((e |> e) >< e)"))

    def test_agrees_with_evaluation(self):
        for text in ["(e >< e)", "(e |> e)", "(e <| e)", "((e >< e) |> (e |> e))"]:
            ast = parse(text)
            classes = typecheck(ast)
            for cls in CompClass:
                if cls in classes:
                    assert evaluate(ast, cls).comp_class is cls
                else:
                    with pytest.raises(DslTypeError):
                        evaluate(ast, cls)


class TestEvaluate:
    def test_one_step_balanced(self):
        h = evaluate(parse("(e >< e)"), CompClass.S)
        assert np.allclose(h.steps, [SQ2])

    def test_silver_macro(self):
        h = evaluate(parse("silver(2)"), CompClass.S)
        assert np.allclose(h.steps, [SQ2, 2.0, SQ2], rtol=1e-15)

    def test_three_step_gap_optimal(self):
        h = evaluate(parse("((e >< e) |> (e |> e))"), CompClass.F)
        assert np.allclose(h.steps, [SQ2, 1.0 + SQ2, 1.5], rtol=1e-15)

    def test_macro_inside_join(self):
        h = evaluate(parse("(silver(1) >< silver(1))"), CompClass.S)
        assert np.allclose(h.steps, [SQ2, 2.0, SQ2], rtol=1e-15)

    def test_conjectured_macro_cannot_be_joined(self):
        from stepweaver.schedule import UncertifiedScheduleError

        with pytest.raises(UncertifiedScheduleError):
            evaluate(parse("(const_s(3) >< e)"), CompClass.S)

    def test_class_inference(self):
        sched, _ = compile_expression("(e |> e)")
        assert sched.comp_class is CompClass.F
        with pytest.raises(DslTypeError, match="pass an explicit class"):
            compile_expression("e")


def random_expr(rng, depth):
    """Random well-typed expression of the requested class-shape."""

    def gen(cls, d):
        if d == 0 or rng.random() < 0.3:
            return LEAF
        if cls is CompClass.S:
            return CompositionTree(JoinOp.SJOIN, gen(CompClass.S, d - 1), gen(CompClass.S, d - 1))
        if cls is CompClass.F:
            return CompositionTree(JoinOp.FJOIN, gen(CompClass.S, d - 1), gen(CompClass.F, d - 1))
        return CompositionTree(JoinOp.GJOIN, gen(CompClass.G, d - 1), gen(CompClass.S, d - 1))

    cls = rng.choice([CompClass.S, CompClass.F, CompClass.G])
    return gen(cls, depth)


WHITESPACE = (" ", "\t", "\n", "\u3000")
SPELLINGS = {JoinOp.SJOIN: ("><", "⋈"), JoinOp.FJOIN: ("|>", "▷"), JoinOp.GJOIN: ("<|", "◁")}


class TestRoundTrip:
    def test_thousand_random_trees(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            ast = random_expr(rng, rng.randint(0, 8))
            text = format_expr(ast)
            assert parse(text) == ast
            typecheck(ast)

    def test_canonical_corpus_strings_fixed(self):
        for text in [
            "e",
            "silver(4)",
            "(e >< e)",
            "((e >< e) |> (e |> e))",
            "((e <| e) <| (e >< e))",
            "(obss(3) >< dshort(2))",
        ]:
            assert format_expr(parse(text)) == text

    @given(st.randoms(use_true_random=False), st.integers(0, 8))
    def test_any_spacing_and_spelling_parses_back(self, rng, depth):
        ast = random_expr(rng, depth)

        def space():
            return "".join(rng.choice(WHITESPACE) for _ in range(rng.randint(0, 2)))

        def combine(node, left, right):
            return f"({space()}{left}{space()}{rng.choice(SPELLINGS[node.op])}{space()}{right}{space()})"

        text = postorder(ast, lambda node: space() + "e" + space(), combine)
        assert parse(text) == ast


# Construction trees of any shape, mistyped ones included.
any_trees = st.recursive(
    st.just(LEAF),
    lambda sub: st.builds(CompositionTree, st.sampled_from(list(JoinOp)), sub, sub),
    max_leaves=24,
)


class TestFolds:
    def test_ast_equality_is_structural(self):
        want = CompositionTree(JoinOp.FJOIN, ExprMacro("silver", 2), CompositionTree(JoinOp.FJOIN, LEAF, LEAF))
        assert parse("(silver(2) |> (e |> e))") == want
        assert parse("(silver(2) |> (e |> e))") != parse("(silver(3) |> (e |> e))")
        assert parse("(e >< e)") != parse("(e |> e)")
        assert LEAF.is_leaf and ExprMacro("obss", 3).is_leaf and not want.is_leaf
        assert hash(parse("(silver(2) |> (e |> e))")) == hash(want)
        assert repr(want) == "(silver(2) |> (e |> e))"

    def test_ast_equality_hash_repr_at_the_nesting_cap(self):
        depth = dsl.MAX_NESTING
        text = "(" * depth + "e" + " >< e)" * depth
        a, b = parse(text), parse(text)
        assert a == b and hash(a) == hash(b)
        assert a != parse(text[:-5] + "|> e)")
        assert repr(a) == text

    @pytest.mark.parametrize("k", range(7))
    def test_family_trees_equal_their_parsed_expansion(self, k):
        s_text, f_text = "e", "e"
        for _ in range(k):
            s_text, f_text = f"({s_text} >< {s_text})", f"({s_text} |> {f_text})"
        for macro, built, text in (("silver", silver(k), s_text), ("rheavy", right_heavy(k), f_text)):
            parsed = parse(text)
            assert parsed == built.tree and built.tree == parsed
            assert hash(parsed) == hash(built.tree)
            assert repr(built.tree) == text
            # a macro leaf evaluates to a schedule carrying the same tree
            assert compile_expression(f"{macro}({k})")[0].tree == parsed

    @pytest.mark.parametrize(
        "other",
        [
            "((silver(2) >< e) |> (e |> obsf(4)))",  # one macro argument
            "((silver(3) >< e) |> (e |> obsf(3)))",
            "((silver(2) >< e) |> (e |> obsg(3)))",  # one macro name
            "((silver(2) >< e) |> (e <| obsf(3)))",  # one op
            "((silver(2) |> e) |> (e |> obsf(3)))",
            "((silver(2) >< e) |> (silver(0) |> obsf(3)))",  # e against a macro
            "((silver(2) >< e) |> (obsf(3) |> e))",  # operands swapped
        ],
    )
    def test_one_difference_makes_trees_unequal(self, other):
        base = parse("((silver(2) >< e) |> (e |> obsf(3)))")
        assert base == parse("((silver(2) ⋈ e) ▷ (e ▷ obsf(3)))")
        assert base != parse(other) and parse(other) != base
        assert not base == parse(other)

    def test_macro_leaf_is_never_e(self):
        for macro in (ExprMacro("silver", 0), ExprMacro("obss", 0)):
            assert macro != LEAF and LEAF != macro
            assert CompositionTree(JoinOp.SJOIN, macro, LEAF) != CompositionTree(JoinOp.SJOIN, LEAF, LEAF)
        assert ExprMacro("silver", 0) != ExprMacro("obss", 0)

    @given(any_trees)
    def test_typecheck_agrees_with_admissible_classes(self, tree):
        text = postorder(tree, lambda node: "e", lambda node, left, right: f"({left} {node.op.symbol} {right})")
        assert repr(tree) == text and parse(text) == tree
        classes = fold_tree(tree).classes
        if classes:
            assert typecheck(parse(text)) == classes
        else:
            with pytest.raises(DslTypeError):
                typecheck(parse(text))
