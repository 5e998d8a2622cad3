import importlib.util
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stepweaver.schedule import (
    ClassMismatchError,
    CompClass,
    CompositionTree,
    IdentityError,
    JoinOp,
    LEAF,
    MAX_TREE_STEPS,
    MAX_TREE_TEXT,
    ResourceCapError,
    ScheduleError,
    StepSchedule,
    UncertifiedScheduleError,
    check_tree,
    closed_form_rates,
    empty_leaf,
    empty_schedule,
    fg_rates_from_s,
    fold_tree,
    _fgjoin,
    _fgjoin_rate,
    _sjoin,
    _sjoin_rate,
    join,
    join_step,
    materialize,
    operand_classes,
    result_class,
    reverse,
    validate_schedule,
)

from corpus import full_corpus
from oracles import (
    fgjoin_mu_reference,
    fgjoin_rate_reference,
    join_by_join,
    sjoin_mu_reference,
    sjoin_rate_reference,
)

SQ2 = math.sqrt(2.0)

rates = st.floats(min_value=1e-6, max_value=1.0)


def sjoin(a, b):
    return join(JoinOp.SJOIN, a, b)


def e(cls=CompClass.S):
    return empty_schedule(cls)


class TestEmpty:
    @pytest.mark.parametrize("cls", list(CompClass))
    def test_rate_one_and_length_zero(self, cls):
        h = empty_schedule(cls)
        assert h.rate == 1.0
        assert h.n == 0
        assert h.comp_class is cls
        validate_schedule(h)

    def test_polymorphic_leaf(self):
        assert fold_tree(LEAF).classes == frozenset(CompClass)


class TestJoinRate:
    """The joined rate of ``join_step``, operands in concatenation order:
    ``<|`` takes its s-side rate second."""

    def test_sjoin_of_ones(self):
        assert join_step(JoinOp.SJOIN, 1.0, 1.0)[1] == pytest.approx(SQ2 - 1.0, rel=1e-15)

    def test_fjoin_of_ones(self):
        assert join_step(JoinOp.FJOIN, 1.0, 1.0)[1] == 0.25

    def test_fjoin_silver_one(self):
        # composing the one-step balanced schedule with an empty f-schedule
        expected = 2.0 / (math.sqrt(9.0 + 8.0 * SQ2) + 4.0 * SQ2 + 5.0)
        assert join_step(JoinOp.FJOIN, SQ2 - 1.0, 1.0)[1] == pytest.approx(expected, rel=1e-14)
        assert join_step(JoinOp.GJOIN, 1.0, SQ2 - 1.0)[1] == pytest.approx(expected, rel=1e-14)

    def test_rejects_nonpositive(self):
        for bad in (0.0, -0.1):
            with pytest.raises(ScheduleError):
                join_step(JoinOp.SJOIN, bad, 0.5)
            with pytest.raises(ScheduleError):
                join_step(JoinOp.FJOIN, 0.5, bad)

    def test_accepts_rates_above_one(self):
        # the scalar overload is defined for all positive values
        assert join_step(JoinOp.FJOIN, 4.0, 4.0)[1] == pytest.approx(1.0, rel=1e-14)

    @given(rates, rates, st.floats(min_value=1e-3, max_value=1.0))
    def test_homogeneity(self, a, b, r):
        for op in JoinOp:
            assert join_step(op, r * a, r * b)[1] == pytest.approx(r * join_step(op, a, b)[1], rel=1e-13)

    def test_homogeneity_spec_point(self):
        r, a, b = 0.5, 0.3, 0.7
        assert join_step(JoinOp.SJOIN, r * a, r * b)[1] == pytest.approx(
            r * join_step(JoinOp.SJOIN, a, b)[1], rel=1e-13
        )

    @given(rates, rates, st.floats(min_value=1.001, max_value=2.0))
    def test_monotone_in_first_argument(self, a, b, bump):
        a2 = min(a * bump, 1.0)
        if a2 - a < 1e-9 * a:  # below float resolution of the join
            return
        for op in JoinOp:
            assert join_step(op, a2, b)[1] > join_step(op, a, b)[1]

    @given(rates, rates, st.floats(min_value=1.001, max_value=2.0))
    def test_monotone_in_second_argument(self, a, b, bump):
        b2 = min(b * bump, 1.0)
        if b2 - b < 1e-9 * b:
            return
        for op in JoinOp:
            assert join_step(op, a, b2)[1] > join_step(op, a, b)[1]

    @given(rates, rates)
    def test_sjoin_commutative_exactly(self, a, b):
        assert join_step(JoinOp.SJOIN, a, b) == join_step(JoinOp.SJOIN, b, a)

    @given(rates)
    def test_self_sjoin_identity(self, a):
        assert join_step(JoinOp.SJOIN, a, a)[1] == pytest.approx(a / (1.0 + SQ2), rel=1e-13)

    @given(rates)
    def test_join_with_one_decreases(self, a):
        assert join_step(JoinOp.SJOIN, a, 1.0)[1] < a
        assert join_step(JoinOp.FJOIN, 1.0, a)[1] < a  # 1 |> a
        assert join_step(JoinOp.GJOIN, a, 1.0)[1] < a  # a <| 1


class TestMiddleStep:
    """The middle step of ``join_step``, operands in concatenation order."""

    def test_sjoin_of_ones_is_sqrt2(self):
        assert join_step(JoinOp.SJOIN, 1.0, 1.0)[0] == pytest.approx(SQ2, rel=1e-15)

    def test_fjoin_example(self):
        assert join_step(JoinOp.FJOIN, 1.0, 0.25)[0] == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_gjoin_example(self):
        expected = (3.0 + math.sqrt(9.0 + 8.0 * SQ2)) / 4.0
        assert join_step(JoinOp.GJOIN, 1.0, SQ2 - 1.0)[0] == pytest.approx(expected, rel=1e-14)

    @given(rates, rates)
    def test_exceeds_one(self, a, b):
        for op in JoinOp:
            assert join_step(op, a, b)[0] > 1.0

    @given(
        st.floats(min_value=1e-3, max_value=1.0), st.floats(min_value=1e-3, max_value=1.0)
    )
    def test_matches_subtractive_forms(self, a, b):
        # the rationalized forms agree with the direct subtractive expressions
        # wherever the latter are numerically stable (a is the s-side rate)
        s_sub = 1.0 + (math.sqrt(a * a + 6 * a * b + b * b) - (a + b)) / (2 * a * b)
        fg_sub = 1.0 + (math.sqrt(a * a + 8 * a * b) - a) / (4 * a * b)
        assert join_step(JoinOp.SJOIN, a, b)[0] == pytest.approx(s_sub, rel=1e-12)
        assert join_step(JoinOp.FJOIN, a, b)[0] == pytest.approx(fg_sub, rel=1e-12)
        assert join_step(JoinOp.GJOIN, b, a)[0] == pytest.approx(fg_sub, rel=1e-12)

    def test_stable_for_extreme_ratios(self):
        # subtractive form would cancel catastrophically here
        mu = join_step(JoinOp.FJOIN, 1.0, 1e-14)[0]
        assert mu == pytest.approx(2.0, rel=1e-10)


_ANY_RATE = (
    st.floats(min_value=1e-300, max_value=1e-6)  # tiny
    | st.floats(min_value=0.5, max_value=1.5)  # near 1
    | st.floats(min_value=1.0, max_value=1e6)  # above 1
)
_REFERENCE = {  # S-side rate first: (mu, rate)
    JoinOp.SJOIN: (sjoin_mu_reference, sjoin_rate_reference),
    JoinOp.FJOIN: (fgjoin_mu_reference, fgjoin_rate_reference),
    JoinOp.GJOIN: (fgjoin_mu_reference, fgjoin_rate_reference),
}


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


class TestJoinFormulas:
    """One formula per join against the separate formulas, each with its own
    square root: the same bits from ``join_step`` and the array forms, on
    scalars and arrays."""

    @given(_ANY_RATE, _ANY_RATE)
    def test_scalar_views(self, a, b):
        for op, (mu_ref, rate_ref) in _REFERENCE.items():
            mu, rate = mu_ref(a, b), rate_ref(a, b)
            concat = (b, a) if op is JoinOp.GJOIN else (a, b)
            assert _bits(join_step(op, *concat)) == _bits((mu, rate))
        assert _bits(_sjoin_rate(a, b)) == _bits(sjoin_rate_reference(a, b))
        assert _bits(_fgjoin_rate(a, b)) == _bits(fgjoin_rate_reference(a, b))

    @given(st.lists(st.tuples(_ANY_RATE, _ANY_RATE), min_size=1, max_size=40))
    def test_array_views(self, pairs):
        a, b = np.array(pairs).T
        assert _bits(_sjoin_rate(a, b)) == _bits(sjoin_rate_reference(a, b))
        assert _bits(_fgjoin_rate(a, b)) == _bits(fgjoin_rate_reference(a, b))
        assert _bits(_sjoin(a, b)) == _bits((sjoin_mu_reference(a, b), sjoin_rate_reference(a, b)))
        assert _bits(_fgjoin(a, b)) == _bits((fgjoin_mu_reference(a, b), fgjoin_rate_reference(a, b)))

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.nan])
    def test_rejects_a_nonpositive_rate_on_either_side(self, bad):
        for op in JoinOp:
            for pair in ((bad, 0.5), (0.5, bad)):
                with pytest.raises(ScheduleError, match="join rates must be positive"):
                    join_step(op, *pair)


class TestJoin:
    def test_sjoin_empties(self):
        h = sjoin(e(), e())
        assert np.allclose(h.steps, [SQ2])
        assert h.rate == pytest.approx(SQ2 - 1.0, rel=1e-15)

    def test_balanced_three_step(self):
        s1 = sjoin(e(), e())
        h = sjoin(s1, s1)
        assert np.allclose(h.steps, [SQ2, 2.0, SQ2], rtol=1e-15)
        assert h.rate == pytest.approx(1.0 / (3.0 + 2.0 * SQ2), rel=1e-14)

    def test_fjoin_concatenation_order(self):
        s1 = sjoin(e(), e())
        f1 = join(JoinOp.FJOIN, e(), e(CompClass.F))
        h = join(JoinOp.FJOIN, s1, f1)
        assert np.allclose(h.steps, [SQ2, 1.0 + SQ2, 1.5], rtol=1e-15)
        assert h.rate == pytest.approx(1.0 / (6.0 + 4.0 * SQ2), rel=1e-14)
        assert h.comp_class is CompClass.F

    def test_gjoin_concatenation_order(self):
        g1 = join(JoinOp.GJOIN, e(CompClass.G), e())
        s1 = sjoin(e(), e())
        h = join(JoinOp.GJOIN, g1, s1)
        assert np.allclose(h.steps, [1.5, 1.0 + SQ2, SQ2], rtol=1e-15)
        assert h.rate == pytest.approx(1.0 / (6.0 + 4.0 * SQ2), rel=1e-14)
        assert h.comp_class is CompClass.G

    def test_length_law(self):
        a = sjoin(e(), e())
        b = sjoin(sjoin(e(), e()), e())
        assert join(JoinOp.SJOIN, a, b).n == a.n + b.n + 1

    def test_class_mismatch_names_requirements(self):
        with pytest.raises(ClassMismatchError, match=r"left=s.*right=f"):
            join(JoinOp.FJOIN, e(CompClass.F), e(CompClass.F))
        with pytest.raises(ClassMismatchError):
            join(JoinOp.SJOIN, e(CompClass.G), e())
        with pytest.raises(ClassMismatchError):
            join(JoinOp.GJOIN, e(CompClass.G), e(CompClass.G))

    def test_conjectured_operands_rejected(self):
        from stepweaver.builders import constant_optimal

        c = constant_optimal(CompClass.S, 3)
        assert c.conjectured
        with pytest.raises(UncertifiedScheduleError):
            sjoin(c, e())

    def test_join_identities_hold(self):
        # both closed forms agree with the recursive rate after every join
        h = e()
        for _ in range(6):
            h = sjoin(h, e())
        denom, prod = closed_form_rates(h.steps, CompClass.S)
        assert denom == pytest.approx(h.rate, rel=1e-10)
        assert prod == pytest.approx(h.rate, rel=1e-10)


class TestNonAssociativity:
    def test_schedules_differ_for_equal_operands(self):
        a = b = c = e()
        left = sjoin(sjoin(a, b), c)
        right = sjoin(a, sjoin(b, c))
        assert not np.array_equal(left.steps, right.steps)
        # the two orders reverse each other, so their rates coincide exactly
        # by commutativity of the scalar join
        assert left.rate == right.rate

    def test_rate_differs_for_unequal_operands(self):
        a = sjoin(e(), e())
        b = c = e()
        left = sjoin(sjoin(a, b), c)
        right = sjoin(a, sjoin(b, c))
        assert left.rate != right.rate


class TestReverse:
    def test_reverses_steps_and_swaps_classes(self):
        s1 = sjoin(e(), e())
        f1 = join(JoinOp.FJOIN, e(), e(CompClass.F))
        h = join(JoinOp.FJOIN, s1, f1)
        r = reverse(h)
        assert np.array_equal(r.steps, h.steps[::-1])
        assert r.comp_class is CompClass.G
        assert r.rate == h.rate
        validate_schedule(r)

    def test_palindrome_fixed_point(self):
        h = sjoin(sjoin(e(), e()), sjoin(e(), e()))
        r = reverse(h)
        assert np.array_equal(r.steps, h.steps)
        assert r.comp_class is CompClass.S

    def test_involution(self):
        from stepweaver.optimizer import obs_f

        h = obs_f(5)
        rr = reverse(reverse(h))
        assert np.array_equal(rr.steps, h.steps)
        assert rr.comp_class is h.comp_class
        assert rr.rate == h.rate
        assert rr.tree == h.tree

    def test_mirrored_tree_swaps_f_and_g_joins(self):
        f1 = join(JoinOp.FJOIN, e(), e(CompClass.F))
        r = reverse(f1)
        assert r.tree.op is JoinOp.GJOIN

    def test_requires_construction_tree(self):
        bare = StepSchedule(np.array([1.5]), CompClass.F, 0.25)
        with pytest.raises(UncertifiedScheduleError):
            reverse(bare)

    def test_deep_chain_folds_without_recursion(self):
        from stepweaver.builders import dynamic_short

        h = dynamic_short(20000)
        r = reverse(h)
        assert r.tree.length() == h.tree.length() == 20000
        assert fold_tree(h.tree).classes == {CompClass.G}
        assert fold_tree(r.tree).classes == {CompClass.F}


class TestFgRates:
    def test_one_step(self):
        s1 = sjoin(e(), e())
        f, g = fg_rates_from_s(s1)
        assert f == g == pytest.approx(1.0 / (1.0 + 2.0 * SQ2), rel=1e-14)

    def test_silver_three_levels(self):
        from stepweaver.builders import silver

        h = silver(3)
        f, _ = fg_rates_from_s(h)
        # equals 1/(2*(1+sqrt2)^3 - 1); doubled it gives the 1/(4*(1+sqrt2)^3 - 2)
        # guarantee on the halved squared distance
        assert f == pytest.approx(1.0 / (2.0 * (1.0 + SQ2) ** 3 - 1.0), rel=1e-12)

    def test_empty(self):
        assert fg_rates_from_s(e()) == (1.0, 1.0)

    def test_rejects_other_classes(self):
        with pytest.raises(ClassMismatchError):
            fg_rates_from_s(e(CompClass.F))

    @pytest.mark.parametrize("rate", [0.0, 2.0])
    def test_rate_zero_or_two_is_a_schedule_error(self, rate):
        # 1/(2/eta - 1) divides by zero there
        with pytest.raises(ScheduleError, match=r"1/\(2/eta - 1\) is not defined at rate"):
            fg_rates_from_s(StepSchedule([1.5], CompClass.S, rate))

    @given(st.floats(min_value=1e-300, max_value=1e6).filter(lambda eta: eta != 2.0))
    def test_bits_of_the_closed_form(self, eta):
        r = 1.0 / (2.0 / eta - 1.0)
        assert fg_rates_from_s(StepSchedule([1.5], CompClass.S, eta)) == (r, r)


class TestValidation:
    def test_identity_violation_raises(self):
        bad = StepSchedule(np.array([1.9, 1.9, 1.9]), CompClass.F, 1.0 / (1.0 + 2.0 * 5.7))
        with pytest.raises(IdentityError):
            validate_schedule(bad)

    def test_empty_rate_must_be_exactly_one(self):
        with pytest.raises(IdentityError):
            validate_schedule(StepSchedule(np.empty(0), CompClass.S, 0.999999))

    def test_nonpositive_step_rejected(self):
        with pytest.raises(IdentityError):
            validate_schedule(StepSchedule(np.array([-1.5]), CompClass.F, 0.25))


class TestMaterialize:
    def test_evaluates_shared_subtrees_once(self):
        t = LEAF
        for _ in range(10):
            t = CompositionTree(JoinOp.SJOIN, t, t)
        h = materialize(t, CompClass.S)
        assert h.n == 2**10 - 1

    def test_length_counts_shared_subtrees_per_use(self):
        from stepweaver.builders import silver
        from stepweaver.dsl import typecheck

        assert silver(20).tree.length() == 2**20 - 1
        t = LEAF
        for _ in range(64):  # 2^64 - 1 joins: finishes only if shared nodes are folded once
            t = CompositionTree(JoinOp.SJOIN, t, t)
        assert t.length() == 2**64 - 1
        assert typecheck(t) == {CompClass.S}  # the DSL's typing fold: fold_tree would lay 2^64 steps out

    @pytest.mark.parametrize("levels", [40, 64])
    def test_shared_tree_past_the_step_cap_is_refused(self, levels):
        """2^40 - 1 steps would ask numpy for 8 TiB, 2^64 - 1 overflow the
        int64 sizes: each fold stops at the cap instead."""
        t = LEAF
        for _ in range(levels):
            t = CompositionTree(JoinOp.SJOIN, t, t)
        with pytest.raises(ResourceCapError, match="cap"):
            materialize(t, CompClass.S)
        with pytest.raises(ResourceCapError, match="cap"):
            check_tree(StepSchedule([], CompClass.S, 1.0, t))

    def test_step_cap_admits_silver_20_and_a_join_of_two(self):
        from stepweaver.builders import silver

        t = CompositionTree(JoinOp.SJOIN, silver(20).tree, silver(20).tree)
        assert materialize(t, CompClass.S).n == 2**21 - 1 <= MAX_TREE_STEPS

    def test_rejects_inadmissible_class(self):
        t = CompositionTree(JoinOp.SJOIN, LEAF, LEAF)
        with pytest.raises(ClassMismatchError):
            materialize(t, CompClass.F)


class TestMacroLeaves:
    """Only ``e`` reads as the empty schedule: a DSL macro leaf needs its leaf
    schedule, so every fold without one raises at that leaf and names it."""

    TEXT = "(silver(2) >< e)"

    @staticmethod
    def one_step(text):
        from stepweaver.dsl import parse

        return StepSchedule([SQ2], CompClass.S, SQ2 - 1.0, parse(text))

    def test_empty_leaf_reads_e_alone(self):
        from stepweaver.dsl import ExprMacro

        assert empty_leaf(LEAF) is None and empty_leaf(CompositionTree()) is None
        with pytest.raises(ScheduleError, match=r"leaf obsf\(3\) is not e"):
            empty_leaf(ExprMacro("obsf", 3))

    def test_materialize_without_leaf_schedules_refuses_a_macro(self):
        from stepweaver.dsl import parse

        for text in (self.TEXT, "silver(2)", "((e >< e) |> (e |> obsf(2)))"):
            with pytest.raises(ScheduleError, match="is not e"):
                materialize(parse(text), CompClass.S if "|>" not in text else CompClass.F)

    def test_fold_tree_raises_at_a_macro_leaf(self, monkeypatch):
        """The leaf reader's error leaves ``fold_tree`` at the leaf itself:
        the fold reads no leaf after it and joins nothing above it."""
        from stepweaver import schedule
        from stepweaver.dsl import parse

        with pytest.raises(ScheduleError, match=r"leaf silver\(2\) is not e"):
            fold_tree(parse(self.TEXT))
        read, joined, join_step = [], [], schedule.join_step
        monkeypatch.setattr(schedule, "join_step", lambda *args: joined.append(args) or join_step(*args))

        def leaf(node):
            read.append(node)
            return empty_leaf(node)

        with pytest.raises(ScheduleError, match=r"leaf obsf\(2\) is not e"):
            fold_tree(parse("((e >< e) |> (obsf(2) |> silver(1)))"), leaf)
        assert [str(node) for node in read] == ["e", "obsf(2)"] and len(joined) == 1  # (e >< e) alone

    def test_check_tree_and_reverse_refuse_a_macro(self):
        h = self.one_step(self.TEXT)
        with pytest.raises(ScheduleError, match=r"leaf silver\(2\) is not e"):
            check_tree(h)
        with pytest.raises(ScheduleError, match=r"leaf silver\(2\) is not e"):
            reverse(h)
        check_tree(self.one_step("(e >< e)"))
        assert reverse(self.one_step("(e >< e)")).tree == CompositionTree(JoinOp.SJOIN, LEAF, LEAF)

    def test_length_and_classes_still_count_a_macro_leaf(self):
        """``length`` counts a macro leaf as empty and the DSL's typecheck
        gives its classes; ``fold_tree``, which needs its steps, refuses it."""
        from stepweaver.dsl import parse, typecheck

        tree = parse(self.TEXT)
        assert tree.length() == 1 and typecheck(tree) == {CompClass.S}
        with pytest.raises(ScheduleError, match="is not e"):
            fold_tree(tree)

    def test_leaf_schedules_take_their_places(self):
        """With leaf schedules, the result is the join of the leaves and
        carries each leaf's own tree in its place."""
        from stepweaver.builders import silver
        from stepweaver.dsl import parse

        leaf = lambda node: None if node == LEAF else silver(node.arg)
        h = materialize(parse(self.TEXT), CompClass.S, leaf)
        want = join(JoinOp.SJOIN, silver(2), e())
        assert h.steps.tobytes() == want.steps.tobytes() and h.rate == want.rate and h.tree == want.tree
        assert materialize(parse("silver(3)"), CompClass.S, leaf).steps.tobytes() == silver(3).steps.tobytes()

    def test_a_conjectured_leaf_is_refused_only_where_joined(self):
        from stepweaver.builders import constant_optimal
        from stepweaver.dsl import parse

        leaf = lambda node: None if node == LEAF else constant_optimal(CompClass.S, node.arg)
        assert materialize(parse("const_s(3)"), CompClass.S, leaf).conjectured
        with pytest.raises(UncertifiedScheduleError):
            materialize(parse("(e >< const_s(3))"), CompClass.S, leaf)
        assert materialize(parse("(e >< const_s(2))"), CompClass.S, leaf).tree is None

    def test_shape_walk_keeps_each_expressions_first_error(self):
        """The shape walk refuses the conjectured join before the fold reads
        the leaf to its right, whose builder would raise its own error."""
        from stepweaver.dsl import compile_expression

        with pytest.raises(ScheduleError, match="need n >= 1"):
            compile_expression("const_s(0)")
        with pytest.raises(UncertifiedScheduleError):
            compile_expression("((e >< const_s(3)) >< const_s(0))")

    def test_materialize_folds_once(self, monkeypatch):
        """One ``fold_tree`` per ``materialize``, with leaf schedules (each
        built once) or without."""
        from stepweaver import schedule
        from stepweaver.dsl import _leaf_schedule, parse

        folds, original = [], schedule.fold_tree
        monkeypatch.setattr(schedule, "fold_tree", lambda *args: folds.append(args[0]) or original(*args))
        for text, cls in (("(silver(2) >< e)", CompClass.S), ("((e >< silver(1)) |> obsf(3))", CompClass.F)):
            tree, built = parse(text), []
            materialize(tree, cls, lambda node: built.append(node) or _leaf_schedule(node))
            # the leaf builders materialize their own trees: count the folds of this one
            assert sum(t is tree for t in folds) == 1 and len(built) == len(set(map(id, built)))
        folds.clear()
        materialize(parse("((e >< e) |> e)"), CompClass.F)
        assert len(folds) == 1


class TestTreesEqual:
    def test_independent_shared_trees_fold_once(self):
        from stepweaver.builders import silver

        a, b = silver(20).tree, silver(20).tree
        assert a is not b
        start = time.perf_counter()
        assert a == b and hash(a) == hash(b)
        # 21 distinct nodes a tree; a walk over node pairs visits 2^21 (about 1 s)
        assert time.perf_counter() - start < 0.25

    def test_deep_chain_compares_hashes_and_prints_without_recursion(self):
        from stepweaver.builders import dynamic_short

        n = 3000  # deeper than the default recursion limit
        a, b = dynamic_short(n).tree, dynamic_short(n).tree
        assert repr(a) == "(" * n + "e" + " <| e)" * n  # first: a failing == would print the trees
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != CompositionTree(JoinOp.GJOIN, a.left, CompositionTree(JoinOp.SJOIN, LEAF, LEAF))

    def test_shared_tree_prints_an_abbreviation(self):
        """Text that doubles with each level of sharing is sized per distinct
        node first: past the bound the repr names the length instead."""
        from stepweaver.builders import silver

        t = LEAF
        for _ in range(64):
            t = CompositionTree(JoinOp.SJOIN, t, t)
        assert repr(t) == f"<CompositionTree of {2**64 - 1} steps: {(2**64 - 1) * 7 + 1} characters of text>"
        assert len(repr(silver(20).tree)) == (2**20 - 1) * 7 + 1 <= MAX_TREE_TEXT  # "(" left " >< " right ")"
        half = CompositionTree(JoinOp.SJOIN, silver(20).tree, silver(20).tree)
        big = CompositionTree(JoinOp.SJOIN, half, half)
        assert repr(big) == f"<CompositionTree of {2**22 - 1} steps: {(2**22 - 1) * 7 + 1} characters of text>"

    def test_one_deep_mu_differs(self):
        from stepweaver.builders import silver

        a = silver(20).tree
        spine = [a]
        while not spine[-1].left.is_leaf:
            spine.append(spine[-1].left)
        b = LEAF
        for node in reversed(spine):
            b = CompositionTree(node.op, b, b)
        assert a == b
        half = CompositionTree(a.op, a.left, b.right)  # only the right half is rebuilt
        assert a == half
        assert a != CompositionTree(JoinOp.FJOIN, a.left, a.right)


class TestFoldMemory:
    def test_chain_fold_drops_used_values(self):
        """A fold keeps a value only until its last parent used it: the
        3000 intermediate schedules of a chain would hold 36 MB of steps."""
        t = LEAF
        for _ in range(3000):
            t = CompositionTree(JoinOp.SJOIN, t, LEAF)
        materialize(t, CompClass.S)
        tracemalloc.start()
        try:
            h = materialize(t, CompClass.S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.n == 3000
        assert peak < 4_000_000


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_fold_matches_joins(tree, cls, h=None):
    """``fold_tree`` and ``materialize`` give the join-by-join steps byte for
    byte and the same rate (and ``h``'s, when given)."""
    ref = join_by_join(tree, cls)
    fold = fold_tree(tree)
    steps, rate = fold.steps, fold.rate
    built = materialize(tree, cls)
    assert steps.tobytes() == built.steps.tobytes() == ref.steps.tobytes()
    assert rate == built.rate == ref.rate
    assert built.tree is tree
    if h is not None:
        assert steps.tobytes() == h.steps.tobytes() and rate == h.rate


@st.composite
def shared_trees(draw, cls, max_len=600):
    """A construction tree of class ``cls`` whose joins take their operands
    from a pool of earlier subtrees, so subtrees are shared (by identity)
    between parents and within one parent."""
    pools = {c: [(LEAF, 0)] for c in CompClass}

    def pick(c):  # index 0 is the newest subtree, so examples shrink to large trees
        pool = pools[c]
        return pool[-1 - draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 60))):
        op = draw(st.sampled_from(list(JoinOp)))
        lcls, rcls = operand_classes(op)
        (left, m), (right, k) = pick(lcls), pick(rcls)
        if m + k + 1 <= max_len:
            pools[result_class(op)].append((CompositionTree(op, left, right), m + k + 1))
    return pick(cls)[0]


class TestTreeSteps:
    @pytest.fixture(scope="class")
    def tables(self):
        from stepweaver.optimizer import build_tables

        return build_tables(4096)

    @pytest.mark.parametrize(
        "name", ["silver(12)", "obss(2047)", "obsf(4095)", "rheavy(12)", "dshort(2000)", "dshort_sigma(300)"]
    )
    def test_long_schedules_match_join_by_join(self, tables, name):
        from stepweaver import builders, optimizer

        makers = {
            "silver(12)": lambda: builders.silver(12),
            "obss(2047)": lambda: optimizer.obs_s(2047, tables),
            "obsf(4095)": lambda: optimizer.obs_f(4095, tables),
            "rheavy(12)": lambda: builders.right_heavy(12),
            "dshort(2000)": lambda: builders.dynamic_short(2000),
            "dshort_sigma(300)": lambda: builders.dynamic_short(300, "sigma"),
        }
        h = makers[name]()
        _assert_fold_matches_joins(h.tree, h.comp_class, h)

    def test_benchmark_schedules_match_join_by_join(self):
        """Every verify-corpus and verify-long schedule with a tree, and every
        schedule the construct workload builds."""
        from stepweaver import dsl, optimizer

        workloads = _workloads()
        schedules = full_corpus(optimizer.build_tables(65)) + workloads.long_schedules()
        tables = optimizer.build_tables(max(n for _, n in workloads.OPTIMIZE_SIZES) + 1)
        obs = {"s": optimizer.obs_s, "f": optimizer.obs_f, "g": optimizer.obs_g}
        schedules += [(f"obs{c}({n})", obs[c](n, tables)) for c, n in workloads.OPTIMIZE_SIZES]
        schedules += [(text, dsl.compile_expression(text)[0]) for text in workloads.COMPOSE_EXPRS]
        with_tree = [(name, h) for name, h in schedules if h.tree is not None]
        assert len(with_tree) >= 200
        for name, h in with_tree:
            _assert_fold_matches_joins(h.tree, h.comp_class, h)
            check_tree(h)

    @given(st.sampled_from(list(CompClass)).flatmap(lambda cls: st.tuples(st.just(cls), shared_trees(cls))))
    def test_random_shared_trees_match_join_by_join(self, cls_tree):
        cls, tree = cls_tree
        _assert_fold_matches_joins(tree, cls)

    def test_leaf_is_the_empty_schedule(self):
        fold = fold_tree(LEAF)
        assert fold.steps.size == 0 and fold.rate == 1.0 and fold.classes == frozenset(CompClass)

    def test_no_consumer_joins_per_node(self, monkeypatch):
        """materialize, the table walk, the F certificate, the DSL's
        evaluation and a schedule file's construction check run no join."""
        from stepweaver import dsl, io as sw_io, optimizer, schedule, verify

        def refuse(*args):
            raise AssertionError("join called")

        for module in (schedule, optimizer, dsl):
            monkeypatch.setattr(module, "join", refuse)
        tables = optimizer.build_tables(40)
        h = optimizer.obs_f(39, tables)
        assert materialize(h.tree, CompClass.F).steps.tobytes() == h.steps.tobytes()
        assert verify.build_f_certificate(h.tree).weights.size == 40
        text = "(((e >< e) >< (e >< e)) |> ((e >< e) |> (e |> e)))"
        built, _ = dsl.compile_expression(text, CompClass.F)
        loaded = sw_io.loads_schedule(sw_io.dumps_schedule(built, construction=text))
        assert loaded.steps.tobytes() == built.steps.tobytes() and loaded.tree is not None


class TestCheckTree:
    """A schedule's tree must admit its class and reproduce its steps and rate;
    the error says which of these fails."""

    def test_join_built_schedules_pass(self):
        from stepweaver.builders import dynamic_short, right_heavy, silver

        for h in (silver(5), right_heavy(5), reverse(right_heavy(5)), dynamic_short(40), e(CompClass.G)):
            check_tree(h)

    def test_class_not_admitted(self):
        from stepweaver.builders import right_heavy, silver

        h = silver(3)
        with pytest.raises(ClassMismatchError, match=r"tree does not admit class s \(admits \{f\}\)"):
            check_tree(StepSchedule(h.steps[:7], CompClass.S, h.rate, right_heavy(3).tree))

    def test_other_length(self):
        from stepweaver.builders import silver

        h = silver(3)
        with pytest.raises(IdentityError, match="tree has length 3, schedule has 7 steps"):
            check_tree(StepSchedule(h.steps, CompClass.S, h.rate, silver(2).tree))

    def test_other_steps_name_the_step(self):
        from stepweaver.builders import silver

        h = silver(2)
        steps = h.steps.copy()
        steps[2] *= 1 + 1e-6
        with pytest.raises(IdentityError, match=r"tree steps differ: step 2 is .*\(relative 1\.\d+e-06 > 1e-09\)"):
            check_tree(StepSchedule(steps, CompClass.S, h.rate, h.tree))

    def test_nan_step_fails(self):
        from stepweaver.builders import silver

        h = silver(2)
        steps = h.steps.copy()
        steps[1] = np.nan
        with pytest.raises(IdentityError, match="step 1 is"):
            check_tree(StepSchedule(steps, CompClass.S, h.rate, h.tree))

    def test_other_rate(self):
        from stepweaver.builders import silver

        h = silver(2)
        with pytest.raises(IdentityError, match="tree rate .* differs"):
            check_tree(StepSchedule(h.steps, CompClass.S, h.rate * (1 + 1e-8), h.tree))
        check_tree(StepSchedule(h.steps, CompClass.S, h.rate * (1 + 1e-10), h.tree))
