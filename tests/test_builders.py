import math

import numpy as np
import pytest

from stepweaver import dsl
from stepweaver.builders import (
    constant_optimal,
    dynamic_short,
    f_extend,
    left_heavy,
    right_heavy,
    short_step_recurrence,
    sigma_seed,
    silver,
)
from stepweaver.io import dumps_schedule, loads_schedule
from stepweaver.schedule import (
    LEAF,
    CompClass,
    CompositionTree,
    JoinOp,
    ResourceCapError,
    ScheduleError,
    StepSchedule,
    UncertifiedScheduleError,
    empty_schedule,
    join,
    reverse,
    validate_schedule,
)

SQ2 = math.sqrt(2.0)
PHI = 1.0 + SQ2


def join_by_join(h, n):
    """Reference extension: join the empty s-schedule one step at a time."""
    e = empty_schedule(CompClass.S)
    while h.n < n:
        h = join(JoinOp.GJOIN, h, e) if h.comp_class is CompClass.G else join(JoinOp.FJOIN, e, h)
    return h


def assert_same_extension(ext, ref):
    assert np.array_equal(ext.steps, ref.steps)
    assert ext.rate == ref.rate
    assert ext.comp_class is ref.comp_class
    assert (ext.tree is None) == (ref.tree is None)
    if ref.tree is not None:
        assert ext.tree == ref.tree


class TestSilver:
    @pytest.mark.parametrize(
        "k,steps",
        [
            (0, []),
            (1, [SQ2]),
            (2, [SQ2, 2.0, SQ2]),
            (3, [SQ2, 2.0, SQ2, 2.0 + SQ2, SQ2, 2.0, SQ2]),
        ],
    )
    def test_first_levels(self, k, steps):
        h = silver(k)
        assert np.allclose(h.steps, steps, rtol=1e-15)
        assert h.rate == pytest.approx(PHI**-k, rel=1e-14)
        assert h.comp_class is CompClass.S

    @pytest.mark.parametrize("k", range(0, 11))
    def test_equals_balanced_join_evaluation_exactly(self, k):
        h = silver(k)
        if k == 0:
            assert h.n == 0
            return
        rec = join(JoinOp.SJOIN, silver(k - 1), silver(k - 1))
        assert np.array_equal(h.steps, rec.steps)
        assert h.rate == rec.rate

    @pytest.mark.parametrize("k", range(0, 11))
    def test_equals_materialized_balanced_tree_exactly(self, k):
        from stepweaver.schedule import LEAF, CompositionTree, materialize

        tree = LEAF
        for _ in range(k):
            tree = CompositionTree(JoinOp.SJOIN, tree, tree)
        h = materialize(tree, CompClass.S)
        assert np.array_equal(h.steps, silver(k).steps)
        assert h.rate == silver(k).rate

    @pytest.mark.parametrize("k", range(1, 13))
    def test_middle_step_matches_literal_power(self, k):
        # the join-derived middle step of level k equals 1 + (1+sqrt2)^(k-2)
        mid = silver(k).steps[2 ** (k - 1) - 1]
        assert mid == pytest.approx(1.0 + PHI ** (k - 2), rel=1e-12)

    def test_palindrome(self):
        h = silver(4)
        assert np.array_equal(h.steps, h.steps[::-1])

    def test_caps_and_validation(self):
        with pytest.raises(ScheduleError):
            silver(-1)
        with pytest.raises(ResourceCapError):
            silver(64)


class TestHeavy:
    def test_level_one(self):
        assert np.allclose(right_heavy(1).steps, [1.5])
        assert right_heavy(1).rate == 0.25

    def test_level_two(self):
        h = right_heavy(2)
        assert np.allclose(h.steps, [SQ2, 1.0 + SQ2, 1.5], rtol=1e-15)
        assert h.rate == pytest.approx(1.0 / (6.0 + 4.0 * SQ2), rel=1e-14)

    def test_level_three(self):
        h = right_heavy(3)
        assert h.n == 7
        assert h.steps[3] == pytest.approx(4.602, abs=5e-4)
        assert h.rate == pytest.approx(0.03277, abs=5e-6)

    @pytest.mark.parametrize("k", range(0, 7))
    def test_left_is_exact_reverse_of_right(self, k):
        lh, rh = left_heavy(k), right_heavy(k)
        assert np.array_equal(lh.steps, reverse(rh).steps)
        assert lh.rate == rh.rate
        assert lh.comp_class is CompClass.G

    @pytest.mark.parametrize("k", range(0, 15))
    def test_equal_joining_level_by_level(self, k):
        """``right_heavy`` and ``left_heavy`` from one materialized tree equal
        joining a fresh silver block onto the level below, level by level."""
        s, f, g = empty_schedule(CompClass.S), empty_schedule(CompClass.F), empty_schedule(CompClass.G)
        for _ in range(k):
            f, g, s = join(JoinOp.FJOIN, s, f), join(JoinOp.GJOIN, g, s), join(JoinOp.SJOIN, s, s)
        for h, ref in ((right_heavy(k), f), (left_heavy(k), g)):
            assert h.steps.tobytes() == ref.steps.tobytes()
            assert h.rate == ref.rate
            assert h.comp_class is ref.comp_class
            assert h.tree == ref.tree

    def test_dominated_by_optimized_family(self):
        from stepweaver.optimizer import obs_f

        for k in (1, 2, 3, 4):
            n = 2**k - 1
            assert obs_f(n).rate <= right_heavy(k).rate + 1e-15
        assert obs_f(7).rate == pytest.approx(0.03266, abs=5e-6)


class TestDynamicShort:
    def test_base_case(self):
        h = dynamic_short(1)
        assert np.allclose(h.steps, [1.5])
        assert h.rate == 0.25
        assert h.comp_class is CompClass.G

    def test_two_steps(self):
        h = dynamic_short(2)
        assert np.allclose(h.steps, [1.5, math.sqrt(3.0)], rtol=1e-14)
        assert h.rate == pytest.approx((2.0 - math.sqrt(3.0)) / 2.0, rel=1e-14)

    def test_sigma_seed_value(self):
        s = sigma_seed()
        assert np.allclose(
            s.steps, [(3.0 + math.sqrt(9.0 + 8.0 * SQ2)) / 4.0, SQ2], rtol=1e-14
        )
        assert s.rate == pytest.approx(0.131892, abs=1e-6)
        want = join(JoinOp.GJOIN, empty_schedule(CompClass.G), join(JoinOp.SJOIN, *[empty_schedule(CompClass.S)] * 2))
        assert s.steps.tobytes() == want.steps.tobytes() and s.rate == want.rate and s.tree == want.tree

    def test_sigma_seed_is_materialized_without_a_join(self, monkeypatch):
        from stepweaver import builders, schedule

        def refuse(*args):
            raise AssertionError("join called")

        for module in (builders, schedule):
            monkeypatch.setattr(module, "join", refuse)
        assert sigma_seed().tree == CompositionTree(JoinOp.GJOIN, LEAF, CompositionTree(JoinOp.SJOIN, LEAF, LEAF))

    def test_recurrence_matches_joins(self):
        h = dynamic_short(60)
        mus, etas = short_step_recurrence(60)
        assert np.allclose(h.steps, mus, rtol=1e-12)
        assert h.rate == pytest.approx(etas[-1], rel=1e-12)

    def test_steps_stay_short_and_rates_decrease(self):
        for seed in ("empty", "sigma"):
            prev = None
            for n in range(2, 40):
                h = dynamic_short(n, seed)
                assert np.all(h.steps > 0.0) and np.all(h.steps < 2.0)
                if prev is not None:
                    assert h.rate < prev
                prev = h.rate

    def test_sigma_strictly_better(self):
        for n in range(2, 40):
            assert dynamic_short(n, "sigma").rate < dynamic_short(n, "empty").rate

    def test_custom_seed_must_be_g_class(self):
        with pytest.raises(ScheduleError):
            dynamic_short(3, empty_schedule(CompClass.F))

    def test_target_shorter_than_seed(self):
        with pytest.raises(ScheduleError):
            dynamic_short(1, "sigma")

    @pytest.mark.parametrize("n", [3, 4, 17, 300])
    @pytest.mark.parametrize("seed", ["empty", "sigma", "treeless"])
    def test_equals_join_by_join_reference(self, seed, n):
        start = {
            "empty": empty_schedule(CompClass.G),
            "sigma": sigma_seed(),
            "treeless": constant_optimal(CompClass.G, 3),
        }[seed]
        arg = start if seed == "treeless" else seed
        assert_same_extension(dynamic_short(n, arg), join_by_join(start, n))

    def test_conjectured_seed_rejected(self):
        g = constant_optimal(CompClass.G, 3)
        conj = StepSchedule(g.steps, CompClass.G, g.rate, conjectured=True)
        with pytest.raises(UncertifiedScheduleError):
            dynamic_short(5, conj)


class TestFExtend:
    def test_base_cases(self):
        assert np.allclose(f_extend(1).steps, [1.5])
        h = f_extend(2)
        assert np.allclose(h.steps, [math.sqrt(3.0), 1.5], rtol=1e-14)
        assert h.rate == pytest.approx(1.0 / (4.0 + 2.0 * math.sqrt(3.0)), rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 25])
    def test_reversal_duality_with_dynamic_short(self, n):
        assert np.array_equal(reverse(f_extend(n)).steps, dynamic_short(n).steps)
        assert f_extend(n).rate == dynamic_short(n).rate

    @pytest.mark.parametrize("n", [2, 3, 17, 300])
    @pytest.mark.parametrize("seed", ["empty", "reversed_sigma", "treeless"])
    def test_equals_join_by_join_reference(self, seed, n):
        seed = {
            "empty": empty_schedule(CompClass.F),
            "reversed_sigma": reverse(sigma_seed()),
            # a schedule file without a construction loads without a tree
            "treeless": loads_schedule(dumps_schedule(f_extend(2))),
        }[seed]
        assert_same_extension(f_extend(n, seed), join_by_join(seed, n))

    def test_conjectured_seed_rejected(self):
        conj = constant_optimal(CompClass.F, 3, unverified=True)
        with pytest.raises(UncertifiedScheduleError):
            f_extend(5, conj)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_reversal_duality_with_custom_seed(self, n):
        seed_f = reverse(sigma_seed())
        ext = f_extend(n, seed_f)
        assert np.array_equal(reverse(ext).steps, dynamic_short(n, "sigma").steps)
        assert ext.rate == dynamic_short(n, "sigma").rate


class TestConstantOptimal:
    def test_s_one_step(self):
        h = constant_optimal(CompClass.S, 1)
        assert h.steps[0] == pytest.approx(SQ2, abs=1e-13)
        assert not h.conjectured

    def test_s_two_steps(self):
        h = constant_optimal(CompClass.S, 2)
        assert np.allclose(h.steps, [1.5, 1.5], atol=1e-13)
        assert h.rate == pytest.approx(0.25, rel=1e-13)

    def test_g_one_step(self):
        h = constant_optimal(CompClass.G, 1)
        assert h.steps[0] == pytest.approx(1.5, abs=1e-13)
        # (h-1)^2 * (1+2h) = 1 exactly at h = 3/2
        hbar = h.steps[0]
        assert (hbar - 1.0) ** 2 * (1.0 + 2.0 * hbar) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 100])
    def test_g_residual_tiny(self, n):
        h = constant_optimal(CompClass.G, n)
        hbar = h.steps[0]
        residual = 1.0 / (1.0 + 2.0 * hbar * n) - (hbar - 1.0) ** (2 * n)
        assert abs(residual) < 1e-13

    def test_s_conjectured_from_three(self):
        assert not constant_optimal(CompClass.S, 2).conjectured
        assert constant_optimal(CompClass.S, 3).conjectured

    def test_f_requires_unverified_flag(self):
        with pytest.raises(UncertifiedScheduleError):
            constant_optimal(CompClass.F, 4)
        h = constant_optimal(CompClass.F, 4, unverified=True)
        assert h.conjectured
        assert h.tree is None

    def test_not_join_built(self):
        assert constant_optimal(CompClass.G, 3).tree is None

    def test_identities_hold(self):
        for n in (1, 2, 3, 7):
            validate_schedule(constant_optimal(CompClass.G, n))
            validate_schedule(constant_optimal(CompClass.S, n))


class TestDslMacros:
    def test_builders_reachable_from_expressions(self):
        pairs = [
            ("silver(3)", silver(3)),
            ("rheavy(2)", right_heavy(2)),
            ("lheavy(2)", left_heavy(2)),
            ("dshort(5)", dynamic_short(5)),
            ("dshort_sigma(5)", dynamic_short(5, "sigma")),
        ]
        for text, direct in pairs:
            sched, _ = dsl.compile_expression(text)
            assert np.array_equal(sched.steps, direct.steps)
            assert sched.rate == direct.rate
