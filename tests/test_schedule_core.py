import math
import time
import tracemalloc

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
    ScheduleError,
    StepSchedule,
    UncertifiedScheduleError,
    admissible_classes,
    closed_form_rates,
    empty_schedule,
    fg_rates_from_s,
    join,
    join_rate,
    materialize,
    middle_step,
    reverse,
    trees_equal,
    validate_schedule,
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
        assert admissible_classes(LEAF) == frozenset(CompClass)


class TestJoinRate:
    def test_sjoin_of_ones(self):
        assert join_rate(JoinOp.SJOIN, 1.0, 1.0) == pytest.approx(SQ2 - 1.0, rel=1e-15)

    def test_fjoin_of_ones(self):
        assert join_rate(JoinOp.FJOIN, 1.0, 1.0) == 0.25

    def test_fjoin_silver_one(self):
        # composing the one-step balanced schedule with an empty f-schedule
        expected = 2.0 / (math.sqrt(9.0 + 8.0 * SQ2) + 4.0 * SQ2 + 5.0)
        assert join_rate(JoinOp.FJOIN, SQ2 - 1.0, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_rejects_nonpositive(self):
        for bad in (0.0, -0.1):
            with pytest.raises(ScheduleError):
                join_rate(JoinOp.SJOIN, bad, 0.5)
            with pytest.raises(ScheduleError):
                join_rate(JoinOp.FJOIN, 0.5, bad)

    def test_accepts_rates_above_one(self):
        # the scalar overload is defined for all positive values
        assert join_rate(JoinOp.FJOIN, 4.0, 4.0) == pytest.approx(1.0, rel=1e-14)

    @given(rates, rates, st.floats(min_value=1e-3, max_value=1.0))
    def test_homogeneity(self, a, b, r):
        for op in JoinOp:
            assert join_rate(op, r * a, r * b) == pytest.approx(
                r * join_rate(op, a, b), rel=1e-13
            )

    def test_homogeneity_spec_point(self):
        r, a, b = 0.5, 0.3, 0.7
        assert join_rate(JoinOp.SJOIN, r * a, r * b) == pytest.approx(
            r * join_rate(JoinOp.SJOIN, a, b), rel=1e-13
        )

    @given(rates, rates, st.floats(min_value=1.001, max_value=2.0))
    def test_monotone_in_first_argument(self, a, b, bump):
        a2 = min(a * bump, 1.0)
        if a2 - a < 1e-9 * a:  # below float resolution of the join
            return
        for op in JoinOp:
            assert join_rate(op, a2, b) > join_rate(op, a, b)

    @given(rates, rates, st.floats(min_value=1.001, max_value=2.0))
    def test_monotone_in_second_argument(self, a, b, bump):
        b2 = min(b * bump, 1.0)
        if b2 - b < 1e-9 * b:
            return
        for op in JoinOp:
            assert join_rate(op, a, b2) > join_rate(op, a, b)

    @given(rates, rates)
    def test_sjoin_commutative_exactly(self, a, b):
        assert join_rate(JoinOp.SJOIN, a, b) == join_rate(JoinOp.SJOIN, b, a)

    @given(rates)
    def test_self_sjoin_identity(self, a):
        assert join_rate(JoinOp.SJOIN, a, a) == pytest.approx(a / (1.0 + SQ2), rel=1e-13)

    @given(rates)
    def test_join_with_one_decreases(self, a):
        assert join_rate(JoinOp.SJOIN, a, 1.0) < a
        assert join_rate(JoinOp.FJOIN, 1.0, a) < a  # 1 |> a
        assert join_rate(JoinOp.GJOIN, 1.0, a) < a  # a <| 1 in concat order


class TestMiddleStep:
    def test_sjoin_of_ones_is_sqrt2(self):
        assert middle_step(JoinOp.SJOIN, 1.0, 1.0) == pytest.approx(SQ2, rel=1e-15)

    def test_fjoin_example(self):
        assert middle_step(JoinOp.FJOIN, 1.0, 0.25) == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_gjoin_example(self):
        expected = (3.0 + math.sqrt(9.0 + 8.0 * SQ2)) / 4.0
        assert middle_step(JoinOp.GJOIN, SQ2 - 1.0, 1.0) == pytest.approx(expected, rel=1e-14)

    @given(rates, rates)
    def test_exceeds_one(self, a, b):
        for op in JoinOp:
            assert middle_step(op, a, b) > 1.0

    @given(
        st.floats(min_value=1e-3, max_value=1.0), st.floats(min_value=1e-3, max_value=1.0)
    )
    def test_matches_subtractive_forms(self, a, b):
        # the rationalized forms agree with the direct subtractive expressions
        # wherever the latter are numerically stable
        s_sub = 1.0 + (math.sqrt(a * a + 6 * a * b + b * b) - (a + b)) / (2 * a * b)
        fg_sub = 1.0 + (math.sqrt(a * a + 8 * a * b) - a) / (4 * a * b)
        assert middle_step(JoinOp.SJOIN, a, b) == pytest.approx(s_sub, rel=1e-12)
        assert middle_step(JoinOp.FJOIN, a, b) == pytest.approx(fg_sub, rel=1e-12)

    def test_stable_for_extreme_ratios(self):
        # subtractive form would cancel catastrophically here
        mu = middle_step(JoinOp.FJOIN, 1.0, 1e-14)
        assert mu == pytest.approx(2.0, rel=1e-10)


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
        assert trees_equal(rr.tree, h.tree, check_mu=True)

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
        assert admissible_classes(h.tree) == {CompClass.G}
        assert admissible_classes(r.tree) == {CompClass.F}


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

        assert silver(20).tree.length() == 2**20 - 1
        t = LEAF
        for _ in range(64):  # 2^64 - 1 joins: finishes only if shared nodes are folded once
            t = CompositionTree(JoinOp.SJOIN, t, t)
        assert t.length() == 2**64 - 1
        assert admissible_classes(t) == {CompClass.S}

    def test_rejects_inadmissible_class(self):
        t = CompositionTree(JoinOp.SJOIN, LEAF, LEAF)
        with pytest.raises(ClassMismatchError):
            materialize(t, CompClass.F)


class TestTreesEqual:
    def test_independent_shared_trees_fold_once(self):
        from stepweaver.builders import silver

        a, b = silver(20).tree, silver(20).tree
        assert a is not b
        start = time.perf_counter()
        assert trees_equal(a, b, check_mu=True)
        # 21 distinct nodes a tree; a walk over node pairs visits 2^21 (about 1 s)
        assert time.perf_counter() - start < 0.25

    def test_one_deep_mu_differs(self):
        from stepweaver.builders import silver

        a = silver(20).tree
        spine = [a]
        while not spine[-1].left.is_leaf:
            spine.append(spine[-1].left)
        b = LEAF
        for depth, node in enumerate(reversed(spine)):
            mu = np.nextafter(node.mu, 3.0) if depth == 0 else node.mu
            b = CompositionTree(node.op, b, b, mu)
        assert trees_equal(a, b)
        assert not trees_equal(a, b, check_mu=True)
        half = CompositionTree(a.op, a.left, b.right, a.mu)  # only the right half differs
        assert trees_equal(a, half)
        assert not trees_equal(a, half, check_mu=True)
        assert not trees_equal(a, CompositionTree(JoinOp.FJOIN, a.left, a.right, a.mu))


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
