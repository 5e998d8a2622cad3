import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stepweaver import dsl
from stepweaver.dsl import (
    DslSyntaxError,
    DslTypeError,
    ExprJoin,
    ExprLeaf,
    ExprMacro,
    compile_expression,
    evaluate,
    format_expr,
    parse,
    typecheck,
)
from stepweaver.schedule import LEAF, CompClass, CompositionTree, JoinOp, admissible_classes, postorder

SQ2 = math.sqrt(2.0)


class TestParse:
    def test_sjoin_of_leaves(self):
        ast = parse("(e >< e)")
        assert ast == ExprJoin(JoinOp.SJOIN, ExprLeaf(), ExprLeaf())

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

    def test_determinism(self):
        text = "((silver(2) >< e) |> (e |> e))"
        assert parse(text) == parse(text)


class TestTypecheck:
    def test_leaf_admits_everything(self):
        assert typecheck(ExprLeaf()) == frozenset(CompClass)

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
            return ExprLeaf()
        if cls is CompClass.S:
            return ExprJoin(JoinOp.SJOIN, gen(CompClass.S, d - 1), gen(CompClass.S, d - 1))
        if cls is CompClass.F:
            return ExprJoin(JoinOp.FJOIN, gen(CompClass.S, d - 1), gen(CompClass.F, d - 1))
        return ExprJoin(JoinOp.GJOIN, gen(CompClass.G, d - 1), gen(CompClass.S, d - 1))

    cls = rng.choice([CompClass.S, CompClass.F, CompClass.G])
    return gen(cls, depth)


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


# Construction trees of any shape, mistyped ones included.
any_trees = st.recursive(
    st.just(LEAF),
    lambda sub: st.builds(CompositionTree, st.sampled_from(list(JoinOp)), sub, sub),
    max_leaves=24,
)


class TestFolds:
    def test_ast_equality_is_structural(self):
        want = ExprJoin(JoinOp.FJOIN, ExprMacro("silver", 2), ExprJoin(JoinOp.FJOIN, ExprLeaf(), ExprLeaf()))
        assert parse("(silver(2) |> (e |> e))") == want
        assert parse("(silver(2) |> (e |> e))") != parse("(silver(3) |> (e |> e))")
        assert parse("(e >< e)") != parse("(e |> e)")
        assert ExprLeaf().is_leaf and ExprMacro("obss", 3).is_leaf and not want.is_leaf
        assert hash(parse("(silver(2) |> (e |> e))")) == hash(want)
        assert repr(want) == (
            "ExprJoin(op=<JoinOp.FJOIN: '|>'>, left=ExprMacro(name='silver', arg=2), right=ExprJoin("
            "op=<JoinOp.FJOIN: '|>'>, left=ExprLeaf(), right=ExprLeaf()))"
        )

    def test_ast_equality_hash_repr_at_the_nesting_cap(self):
        depth = dsl.MAX_NESTING
        text = "(" * depth + "e" + " >< e)" * depth
        a, b = parse(text), parse(text)
        assert a == b and hash(a) == hash(b)
        assert a != parse(text[:-5] + "|> e)")
        assert repr(a).count("ExprJoin(") == depth

    @given(any_trees)
    def test_typecheck_agrees_with_admissible_classes(self, tree):
        text = postorder(tree, lambda node: "e", lambda node, left, right: f"({left} {node.op.symbol} {right})")
        classes = admissible_classes(tree)
        if classes:
            assert typecheck(parse(text)) == classes
        else:
            with pytest.raises(DslTypeError):
                typecheck(parse(text))
