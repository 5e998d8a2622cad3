import math
import typing

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import coord_grad, coord_value_reference, q_min_pairwise, raw_run_reference
from stepweaver import gd
from stepweaver.builders import constant_optimal, dynamic_short, silver
from stepweaver.gd import (
    GDTrace,
    ProblemInstance,
    certified_bound,
    huber_instance,
    quad_instance,
    random_instance,
    random_x0,
    raw_run,
    run,
    tight_delta,
    worst_case_scan,
)
from stepweaver.optimizer import obs_f, obs_g, obs_s
from stepweaver.schedule import (
    CompClass,
    JoinOp,
    ResourceCapError,
    ScheduleError,
    StepSchedule,
    empty_schedule,
    join,
)

SQ2 = math.sqrt(2.0)


def one_step_s():
    return join(JoinOp.SJOIN, empty_schedule(CompClass.S), empty_schedule(CompClass.S))


def one_step_f():
    return join(JoinOp.FJOIN, empty_schedule(CompClass.S), empty_schedule(CompClass.F))


def one_step_g():
    return join(JoinOp.GJOIN, empty_schedule(CompClass.G), empty_schedule(CompClass.S))


def finite_diff_grad(instance, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (instance.value(up) - instance.value(dn)) / (2.0 * h)
    return g


class TestInstances:
    def test_quad_value_and_grad(self):
        inst = quad_instance(0.5, d=2)
        x = np.array([2.0, -1.0])
        assert inst.value(x) == pytest.approx(0.25 * 4.0 + 0.25 * 1.0)
        assert np.allclose(inst.grad(x), [1.0, -0.5])

    def test_huber_branches(self):
        inst = huber_instance(0.5)
        assert inst.value(np.array([0.2])) == pytest.approx(0.02)
        assert inst.value(np.array([2.0])) == pytest.approx(0.5 * 2.0 - 0.125)
        assert inst.grad(np.array([0.2]))[0] == pytest.approx(0.2)
        assert inst.grad(np.array([-2.0]))[0] == pytest.approx(-0.5)

    def test_kink_uses_quadratic_branch(self):
        inst = huber_instance(0.5)
        assert inst.grad(np.array([0.5]))[0] == 0.5

    def test_validation(self):
        with pytest.raises(ScheduleError):
            quad_instance(1.5)
        with pytest.raises(ScheduleError):
            huber_instance(0.0)
        with pytest.raises(ScheduleError):
            ProblemInstance(np.array([False]), np.array([-1.0]))

    @pytest.mark.parametrize("family", ["quad", "huber", "mixed"])
    def test_gradients_match_finite_differences(self, family):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            if family == "quad":
                inst = ProblemInstance(np.zeros(d, bool), rng.uniform(0.05, 1.0, d))
            elif family == "huber":
                inst = ProblemInstance(np.ones(d, bool), 10.0 ** rng.uniform(-2, 0, d))
            else:
                inst = random_instance(rng, d)
            x = rng.standard_normal(d)
            assert np.allclose(inst.grad(x), finite_diff_grad(inst, x), atol=1e-6)

    @pytest.mark.parametrize("d", [0, -2])
    def test_random_instance_needs_positive_dimension(self, d):
        with pytest.raises(ScheduleError, match="positive integer"):
            random_instance(np.random.default_rng(0), d)

    def test_random_dimension_cap_comes_before_any_draw(self):
        """No generator is touched (``None`` has no methods) above the cap."""
        with pytest.raises(ResourceCapError, match=f"dimension {gd.MAX_COORDS + 1} exceeds cap {gd.MAX_COORDS}"):
            random_instance(None, gd.MAX_COORDS + 1)

    def test_generator_annotations_resolve(self):
        """The quoted ``rng`` annotations, which keep ``numpy.random`` from
        loading with the module, name numpy's ``Generator``."""
        for draw in (random_instance, random_x0):
            assert typing.get_type_hints(draw)["rng"] is np.random.Generator

    def test_one_smoothness_on_random_pairs(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, 6)
        for _ in range(100):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            assert np.linalg.norm(inst.grad(x) - inst.grad(y)) <= np.linalg.norm(x - y) * (
                1.0 + 1e-12
            )


class TestRun:
    def test_trace_cap_comes_before_the_run(self, monkeypatch):
        """A trace of (n+1)*d > ``MAX_COORDS`` coordinates is refused before
        ``raw_run`` allocates it; a short trace in the same dimension runs."""
        d = 4096
        steps = np.full(gd.MAX_COORDS // d, 0.5)  # (n+1)*d is one row over the cap
        refuse = lambda *args: pytest.fail("raw_run called")
        monkeypatch.setattr(gd, "raw_run", refuse)
        with pytest.raises(ResourceCapError, match=f"trace of {steps.size + 1} points in dimension {d} exceeds cap"):
            run(StepSchedule(steps, CompClass.G, 0.5), quad_instance(1.0, d), np.ones(d))
        monkeypatch.undo()
        assert run(StepSchedule(steps[:3], CompClass.G, 0.5), quad_instance(1.0, d), np.ones(d)).n == 3

    def test_single_step_on_quadratic(self):
        tr = run(one_step_s(), quad_instance(1.0), 1.0)
        assert tr.x[-1, 0] == pytest.approx(1.0 - SQ2, rel=1e-15)
        assert tr.objective_gap() == pytest.approx((SQ2 - 1.0) ** 2 / 2.0, rel=1e-14)

    def test_huber_tight_one_step(self):
        tr = run(one_step_f(), huber_instance(0.25), 1.0)
        assert tr.objective_gap() == pytest.approx(0.125, rel=1e-15)

    def test_empty_schedule_trace(self):
        tr = run(empty_schedule(CompClass.F), quad_instance(1.0), 2.0)
        assert tr.n == 0
        assert tr.f[0] == pytest.approx(2.0)
        assert tr.objective_gap() == pytest.approx(2.0)

    def test_iteration_identity(self):
        h = obs_f(6)
        rng = np.random.default_rng(0)
        inst = random_instance(rng, 4)
        x0 = rng.standard_normal(4)
        tr = run(h, inst, x0)
        for i in range(h.n):
            assert np.array_equal(tr.x[i + 1], tr.x[i] - h.steps[i] * tr.g[i])
        assert tr.f.shape == (h.n + 1,)

    def test_dimension_mismatch(self):
        with pytest.raises(ScheduleError):
            run(one_step_s(), quad_instance(1.0, d=2), np.zeros(3))

    def test_monotone_decrease_for_short_schedules(self):
        rng = np.random.default_rng(11)
        for sched in (dynamic_short(30), dynamic_short(30, "sigma"), constant_optimal(CompClass.G, 10)):
            assert np.all(sched.steps < 2.0)
            for _ in range(20):
                d = int(rng.integers(1, 8))
                inst = random_instance(rng, d)
                x0 = rng.standard_normal(d) * 10.0 ** rng.uniform(-1, 1)
                tr = run(sched, inst, x0)
                scale = max(1.0, tr.f[0])
                assert np.all(np.diff(tr.f) <= 1e-12 * scale)

    def test_trace_csv(self):
        tr = run(one_step_f(), quad_instance(1.0, d=2), np.array([1.0, -2.0]))
        text = tr.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "i,x,f_i,grad_norm"
        assert len(lines) == 3
        x_cell = lines[1].split(",")[1]
        assert [float(v) for v in x_cell.split(";")] == [1.0, -2.0]


class TestTightInstances:
    def test_deltas_per_class(self):
        assert tight_delta(CompClass.F, "defining", 0.25) == 0.25
        assert tight_delta(CompClass.G, "defining", 0.25) == pytest.approx(0.4)
        eta = SQ2 - 1.0
        assert tight_delta(CompClass.S, "f-line", eta) == pytest.approx(eta / (2.0 - eta))
        assert tight_delta(CompClass.S, "g-line", eta) == eta

    def test_pair_achieves_equality_from_one(self):
        h = obs_f(4)
        pair = (huber_instance(tight_delta(CompClass.F, "defining", h.rate)), quad_instance())
        for inst in pair:
            tr = run(h, inst, 1.0)
            assert tr.objective_gap() == pytest.approx(h.rate * 0.5, abs=1e-14)

    def test_g_pair_achieves_equality(self):
        h = obs_g(4)
        pair = (huber_instance(tight_delta(CompClass.G, "defining", h.rate)), quad_instance())
        for inst in pair:
            tr = run(h, inst, 1.0)
            assert tr.half_grad_sq() == pytest.approx(h.rate * tr.f[0], abs=1e-14)

    def test_bad_purpose_rejected(self):
        with pytest.raises(ScheduleError):
            tight_delta(CompClass.F, "g-line", 0.2)
        with pytest.raises(ScheduleError):
            tight_delta(CompClass.S, "nonsense", 0.2)


class TestWorstCaseScan:
    def test_gap_criterion_matches_certified_rate(self):
        h = obs_f(3)
        res = worst_case_scan(h, "objective_gap_per_D2", 400)
        assert res.worst_value <= h.rate + 1e-9
        assert res.worst_value == pytest.approx(h.rate, abs=1e-9)
        assert res.quad_value == pytest.approx(h.rate, rel=1e-12)

    def test_grad_criterion_for_g_schedule(self):
        h = obs_g(5)
        res = worst_case_scan(h, "gradnorm_per_gap", 400)
        assert res.worst_value <= h.rate + 1e-9
        assert res.quad_value <= h.rate + 1e-12

    def test_empty_schedule_worst_ratio_one(self):
        res = worst_case_scan(empty_schedule(CompClass.F), "objective_gap_per_D2", 100)
        assert res.worst_value == pytest.approx(1.0, rel=1e-12)
        assert res.delta_star == pytest.approx(1.0)

    def test_s_schedule_certified_both_ways(self):
        h = obs_s(5)
        bound = certified_bound(h, "objective_gap_per_D2")
        res = worst_case_scan(h, "objective_gap_per_D2", 256)
        assert res.worst_value <= bound + 1e-9
        bound_g = certified_bound(h, "gradnorm_per_gap")
        res_g = worst_case_scan(h, "gradnorm_per_gap", 256)
        assert res_g.worst_value <= bound_g + 1e-9

    def test_uncertified_combination_returns_none(self):
        assert certified_bound(obs_f(2), "gradnorm_per_gap") is None

    @pytest.mark.parametrize("rate", [0.0, 2.0])
    @pytest.mark.parametrize("criterion", ["objective_gap_per_D2", "gradnorm_per_gap"])
    def test_s_rate_zero_or_two_is_a_schedule_error(self, rate, criterion):
        with pytest.raises(ScheduleError, match=r"1/\(2/eta - 1\) is not defined at rate"):
            certified_bound(StepSchedule([1.5], CompClass.S, rate), criterion)

    def test_grid_size_guard(self):
        with pytest.raises(ScheduleError):
            worst_case_scan(obs_f(2), "objective_gap_per_D2", 50)
        with pytest.raises(ScheduleError):
            worst_case_scan(obs_f(2), "nonsense", 200)

    def test_scan_cap_comes_before_the_run(self, monkeypatch):
        """A scan of (n+1)*(grid+1) > ``MAX_COORDS`` points is refused before
        ``raw_run`` allocates it; a short schedule on the same grid runs."""
        steps = np.full(gd.MAX_COORDS // 101, 0.5)  # (n+1)*101 is past the cap
        assert (steps.size + 1) * 101 > gd.MAX_COORDS >= steps.size * 101
        refuse = lambda *args: pytest.fail("raw_run called")
        monkeypatch.setattr(gd, "raw_run", refuse)
        with pytest.raises(ResourceCapError, match=f"scan of {steps.size + 1} points x 101 runs exceeds cap"):
            worst_case_scan(StepSchedule(steps, CompClass.G, 0.5), "gradnorm_per_gap", 100)
        monkeypatch.undo()
        res = worst_case_scan(StepSchedule(steps[:3], CompClass.G, 0.5), "gradnorm_per_gap", 100)
        assert res.criterion == "gradnorm_per_gap"


def instance_arrays(rng, shape):
    """Random Huber/quadratic coordinates; about a fifth of the quadratic
    ones get curvature exactly 1."""
    is_huber = rng.random(shape) < 0.5
    param = np.where(is_huber, 10.0 ** rng.uniform(-3.0, 0.0, shape), rng.uniform(0.05, 1.0, shape))
    param[~is_huber & (rng.random(shape) < 0.2)] = 1.0
    return is_huber, param


def start_points(rng, shape, param):
    """Gaussian start points with some coordinates exactly on the kink
    (x = +-delta), at twice the kink (a unit step lands on it) or -0.0."""
    x0 = rng.standard_normal(shape) * 10.0 ** rng.uniform(-1.0, 1.0)
    delta = np.broadcast_to(param, shape)
    pick = rng.random(shape)
    x0 = np.where(pick < 0.15, delta, x0)
    x0 = np.where((pick >= 0.15) & (pick < 0.3), -delta, x0)
    x0 = np.where((pick >= 0.3) & (pick < 0.4), 2.0 * delta, x0)
    return np.where(pick >= 0.95, -0.0, x0)


# (instance shape, x0 shape) for b instances of dimension d
LAYOUTS = {
    "unbatched": lambda b, d: ((d,), (d,)),
    "batched": lambda b, d: ((b, d), (b, d)),
    "packed": lambda b, d: ((b * d, 1), (b * d, 1)),
    "broadcast-rows": lambda b, d: ((d,), (b, d)),
    "broadcast-cols": lambda b, d: ((b, 1), (b, d)),
}


def assert_same_bytes(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestRawRunOracle:
    """The clip-form kernel reproduces the per-step reference loop byte for byte."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 40),
        b=st.integers(1, 5),
        d=st.sampled_from([1, 2, 4, 8]),
        layout=st.sampled_from(sorted(LAYOUTS)),
    )
    def test_traces_match_reference(self, seed, n, b, d, layout):
        rng = np.random.default_rng(seed)
        inst_shape, x_shape = LAYOUTS[layout](b, d)
        is_huber, param = instance_arrays(rng, inst_shape)
        x0 = start_points(rng, x_shape, param)
        steps = np.where(rng.random(n) < 0.3, 1.0, rng.uniform(0.1, 3.0, n))
        assert_same_bytes(raw_run(steps, is_huber, param, x0), raw_run_reference(steps, is_huber, param, x0))

    @pytest.mark.parametrize("shape,n", [((1200, 1), 60), ((300, 8), 40)])
    def test_values_span_several_row_blocks(self, shape, n):
        rows = gd._VALUE_BLOCK // (shape[0] * shape[1])
        assert n + 1 > 2 * rows and (n + 1) % rows
        rng = np.random.default_rng(n)
        is_huber, param = instance_arrays(rng, shape)
        x0 = start_points(rng, shape, param)
        steps = rng.uniform(0.1, 3.0, n)
        assert_same_bytes(raw_run(steps, is_huber, param, x0), raw_run_reference(steps, is_huber, param, x0))

    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 4, 8]), b=st.integers(1, 4))
    def test_instance_grad_matches_branch_formula(self, seed, d, b):
        rng = np.random.default_rng(seed)
        is_huber, param = instance_arrays(rng, (d,))
        inst = ProblemInstance(is_huber, param)
        for x in (start_points(rng, (d,), param), start_points(rng, (b, d), param)):
            want = coord_grad(x, inst.is_huber, inst.param)
            assert_same_bytes([inst.grad(x)], [want])


# (is_huber, param, x) of one coordinate; x is any double, one of moderate
# size, a special value, or a multiple of the kink (1 puts x on it, where the
# Huber branches meet)
SPECIAL_X = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308, -1e-310]
COORDS = st.tuples(
    st.booleans(),
    st.one_of(st.just(1.0), st.floats(min_value=5e-324, max_value=1.0), st.floats(0.05, 1.0)),
    st.one_of(
        st.floats(width=64).map(lambda x: math.nan if math.isnan(x) else x),
        st.floats(-8.0, 8.0),
        st.sampled_from(SPECIAL_X),
        st.tuples(st.sampled_from([-1.0, 1.0]), st.one_of(st.just(1.0), st.floats(0.0, 5.0))),
    ),
)


def value_columns(coords):
    is_huber = np.array([h for h, _, _ in coords])
    param = np.array([p for _, p, _ in coords])
    x = np.array([x[0] * x[1] * p if isinstance(x, tuple) else x for _, p, x in coords])
    return x, is_huber, param


class TestSelectValue:
    """The one-select value over the clip form's constants gives the bytes
    of the two-branch formulas."""

    @given(st.lists(COORDS, min_size=1, max_size=40))
    def test_select_is_byte_equal_to_two_branches(self, coords):
        x, is_huber, param = value_columns(coords)
        with np.errstate(all="ignore"):
            got = gd._coord_value(x, gd.coord_form(is_huber, param))
            want = coord_value_reference(x, is_huber, param)
        assert_same_bytes([got], [want])

    def test_negative_nan_is_nan_on_both_sides(self):
        # x86 arithmetic makes a NaN with the sign bit set (inf - inf); at a
        # NaN a quadratic coordinate takes the select's line, whose |x|
        # clears that bit, while the quadratic formula keeps it
        x = -np.full(4, np.nan)
        is_huber, param = np.array([True, True, False, False]), np.array([0.5, 1.0, 0.3, 1.0])
        got = gd._coord_value(x, gd.coord_form(is_huber, param))
        want = coord_value_reference(x, is_huber, param)
        assert np.isnan(got).all() and np.isnan(want).all()
        assert got[:2].tobytes() == want[:2].tobytes()


def worst_case_reference(schedule, criterion, grid_size):
    """The scan as two runs of the reference loop: the Huber grid, then the
    unit quadratic on its own."""
    deltas = np.geomspace(1e-6, 1.0, grid_size)
    ones = np.ones((grid_size, 1))
    xs, gs, fs = raw_run_reference(schedule.steps, ones > 0, deltas.reshape(-1, 1), ones)
    qx, qg, qf = raw_run_reference(schedule.steps, np.zeros(1, dtype=bool), np.ones(1), np.ones(1))
    if criterion == "objective_gap_per_D2":
        vals, quad_val = fs[-1] / 0.5, float(qf[-1] / 0.5)
    else:
        vals, quad_val = 0.5 * gs[-1, :, 0] ** 2 / fs[0], float(0.5 * qg[-1, 0] ** 2 / qf[0])
    i = int(np.argmax(vals))
    return gd.WorstCaseResult(float(deltas[i]), float(vals[i]), quad_val, criterion)


@pytest.mark.parametrize("criterion", gd.WORST_CASE_CRITERIA)
@pytest.mark.parametrize(
    "schedule",
    [empty_schedule(CompClass.F), obs_f(3), obs_g(5), obs_s(5), silver(4), dynamic_short(30)],
    ids=["empty", "obsf3", "obsg5", "obss5", "silver4", "dshort30"],
)
def test_worst_case_scan_matches_two_run_reference(schedule, criterion):
    for grid in (100, 256):
        assert worst_case_scan(schedule, criterion, grid) == worst_case_reference(schedule, criterion, grid)


class TestInterpolationOnTraces:
    def test_q_nonnegative_on_genuine_runs(self):
        from stepweaver.verify import _q_min_batched

        rng = np.random.default_rng(5)
        for sched in (silver(4), obs_f(10), obs_g(7)):
            for _ in range(10):
                d = int(rng.integers(1, 8))
                inst = random_instance(rng, d)
                x0 = rng.standard_normal(d)
                tr = run(sched, inst, x0)
                # the whole trace by the pairwise oracle, each coordinate alone by the 1-D kernel
                assert q_min_pairwise(tr.x, tr.g, tr.f) >= -1e-9
                for k in range(d):
                    hub, par = inst.is_huber[k : k + 1], inst.param[k : k + 1]
                    x = raw_run(sched.steps, hub, par, x0[k : k + 1])[0]
                    assert _q_min_batched(x[:, None], gd.coord_form(hub, par))[0] >= -1e-9
