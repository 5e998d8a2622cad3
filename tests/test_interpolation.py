"""The 1-D interpolation kernel against the pairwise oracle and, byte for
byte, against the argsort-and-gather reference, the theorem its neighbour
core rests on, its non-finite rule and its memory, the battery values built
only where read, the battery-evaluation helpers against the numpy calls they
replace, the cached battery, and the program names that the benchmark's
traced run wraps."""

import importlib.util
import inspect
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from corpus import full_corpus
from oracles import q_min_gathered_reference, q_min_pairwise
from stepweaver import builders, dsl, gd, optimizer, schedule, verify
from stepweaver.builders import right_heavy, silver
from stepweaver.gd import coord_form, gradients, quad_instance, raw_run, run, values
from stepweaver.io import RunConfig
from stepweaver.optimizer import build_tables, obs_f, obs_g, obs_s
from stepweaver.schedule import CompClass
from stepweaver.verify import _dot, _neighbour_min, _q_min_batched, _weighted_sum, verify_schedule


def q_tolerance(X, G, F) -> float:
    """Agreement bound: 1e-12 of the largest magnitude Q is built from."""
    return 1e-12 * max(1.0, np.abs(F).max(), np.abs(X).max() ** 2, np.abs(G).max() ** 2)


def convex_run(seed, n, batch, d):
    """GD traces on random separable 1-smooth convex instances, shaped
    (n+1, batch, d), and the instances' ``CoordForm``; arbitrary positive
    steps keep every point on the function."""
    rng = np.random.default_rng(seed)
    is_huber = rng.random((batch, d)) < 0.5
    param = np.where(is_huber, 10.0 ** rng.uniform(-3.0, 0.0, (batch, d)), rng.uniform(0.05, 1.0, (batch, d)))
    x0 = rng.standard_normal((batch, d)) * 10.0 ** rng.uniform(-1.0, 1.0, (batch, 1))
    return raw_run(rng.uniform(0.1, 3.0, n), is_huber, param, x0), coord_form(is_huber, param)


def evaluated(X, form):
    """``(X, G, F)``: the points with the gradients and values of ``form``
    evaluated on them, as the trace of a GD run holds them."""
    return X, gradients(X, form), values(X, form)


def neighbour_min(X, G, F):
    """``verify._neighbour_min`` on the ``(n+1, B, 1)`` points, gradients
    and values of a trace: one row per instance with the minimizer (0, 0, 0)
    appended, sorted by x (stably, ties in index order)."""
    rows = [np.concatenate([a.reshape(len(X), -1), np.zeros((1, X.shape[1]))]).T for a in (X, G, F)]
    order = np.argsort(rows[0], axis=1, kind="stable")
    return _neighbour_min(*(np.take_along_axis(r, order, axis=1) for r in rows))


def arbitrary_traces(seed, n, batch):
    """1-D points, gradients and values drawn independently: mostly non-convex."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    return (
        scale * rng.standard_normal((n + 1, batch, 1)),
        rng.standard_normal((n + 1, batch, 1)),
        scale * rng.standard_normal((n + 1, batch)),
    )


class TestKernelOracle:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(1, 6))
    def test_convex_batched(self, seed, n, batch):
        (X, G, F), form = convex_run(seed, n, batch, 1)
        got = _q_min_batched(X, form)
        assert got.shape == (batch,)
        assert np.max(np.abs(got - q_min_pairwise(X, G, F))) <= q_tolerance(X, G, F)
        assert got.tobytes() == q_min_gathered_reference(X, G, F).tobytes()
        # blocks of one instance, of three and the default give the same bytes
        for block in (1, 3 * (n + 2)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(verify, "_SORT_BLOCK", block)
                assert _q_min_batched(X, form).tobytes() == got.tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 6))
    def test_arbitrary(self, seed, n, batch):
        """Mostly non-convex points, gradients and values, by the neighbour
        core: each minimum has the sign of the all-pairs one, and is never
        below it by more than rounding."""
        X, G, F = arbitrary_traces(seed, n, batch)
        got, want = neighbour_min(X, G, F), q_min_pairwise(X, G, F)
        assert np.all((got < 0.0) == (want < 0.0))
        assert np.all(got >= want - q_tolerance(X, G, F))

    def test_row_blocks_bound_memory_at_n_2047(self):
        """Three instances per block at n = 2047: the kernel's temporaries
        stay near eight arrays of ``_SORT_BLOCK`` entries (0.5 MiB)."""
        (X, _, _), form = convex_run(11, 2047, 6, 1)
        tracemalloc.start()
        try:
            _q_min_batched(X, form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_star_only_pair_is_exactly_zero(self):
        # one point at the minimizer plus the appended star: every Q is 0
        zero = np.zeros((1, 1, 1))
        assert _q_min_batched(zero, coord_form(False, 1.0))[0] == 0.0
        assert _neighbour_min(*np.zeros((3, 1, 2)))[0] == 0.0

    def test_wider_trace_raises(self):
        """The kernel reads one coordinate per instance; a trace with d > 1
        raises instead of reading one coordinate silently."""
        (X, _, _), form = convex_run(2, 5, 3, 2)
        with pytest.raises(ValueError):
            _q_min_batched(X, form)


def capture_kernel_calls(monkeypatch) -> list:
    """The ``(X, form, result)`` of every ``verify._q_min_batched`` call."""
    calls, original = [], verify._q_min_batched

    def keeping(X, form):
        q = original(X, form)
        calls.append((X, form, q))
        return q

    monkeypatch.setattr(verify, "_q_min_batched", keeping)
    return calls


@pytest.mark.parametrize("offset", [1, 2])
def test_kernel_equals_gathered_reference_on_benchmark_traces(monkeypatch, offset):
    """On the battery trace of every verify-corpus and verify-long schedule,
    the kernel, which evaluates g and f on the sorted points, gives the bytes
    of the reference that gathers the trace's own gradients and values."""
    calls = capture_kernel_calls(monkeypatch)
    schedules = [h for _, h in full_corpus(build_tables(65))] + long_schedules()
    cfg = RunConfig(seed=0xC0FFEE + offset)
    for h in schedules:
        verify_schedule(h, cfg)
    assert len(calls) == len(schedules) == 240
    for (X, form, got), h in zip(calls, schedules):
        assert got.tobytes() == q_min_gathered_reference(*evaluated(X, form)).tobytes(), h.describe()


class TestSortedPoints:
    """Traces whose points tie: signed zeros, repeated points."""

    def test_signed_zero_iterates(self):
        """From x0 = -0.0 the next iterates are +0.0; a unit step on the unit
        quadratic, and two steps along a Huber instance's line, land exactly
        on +0.0 and stay there, tied with the minimizer."""
        is_huber = np.array([[False], [False], [True], [False], [True]])
        param = np.array([[1.0], [0.5], [0.25], [1.0], [0.5]])
        x0 = np.array([[-0.0], [-0.0], [-0.0], [3.0], [-1.5]])
        X, G, F = raw_run([1.0, 2.0, 1.0, 1.5], is_huber, param, x0)
        assert X[:, :3].tobytes() == np.array([-0.0] * 3 + [0.0] * 12).tobytes()
        assert X[:, 3:, 0].T.tobytes() == np.array([3.0] + [0.0] * 4 + [-1.5, -1.0] + [0.0] * 3).tobytes()
        got = _q_min_batched(X, coord_form(is_huber, param))
        assert got.tobytes() == q_min_gathered_reference(X, G, F).tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_repeated_points(self, seed):
        """Points drawn with repeats from a few values of both signs, on
        random instances: equal x carry equal g and f."""
        rng = np.random.default_rng(seed)
        batch = 6
        pool = np.array([-2.5, -1.0, -1e-3, -0.0, 0.0, 1e-3, 1.0, 4.0])
        X = rng.choice(pool, (9, batch, 1))
        is_huber = rng.random((batch, 1)) < 0.5
        param = np.where(is_huber, rng.uniform(1e-3, 1.0, (batch, 1)), rng.uniform(0.05, 1.0, (batch, 1)))
        form = coord_form(is_huber, param)
        got = _q_min_batched(X, form)
        assert got.tobytes() == q_min_gathered_reference(*evaluated(X, form)).tobytes()
        assert np.all(got >= -1e-12) and np.all(got <= 0.0)


@st.composite
def integer_traces(draw):
    """1-D traces ``(X, G, F)`` of up to four instances on small-integer
    points, where every Q is computed exactly in floats.  Each instance is a
    1-smooth convex function with its minimizer at 0 (a quadratic of
    curvature 1, 1/2 or 1/4, or a Huber function of integer kink, whose
    gradients tie where it is linear), sampled at integers that may repeat
    (x-ties and duplicate points); one instance in two then has one x, g or
    f shifted by a multiple of 1/4, which breaks convexity or not."""
    points = draw(st.integers(1, 6))
    batch = draw(st.integers(1, 4))
    X, G, F = np.empty((points, batch, 1)), np.empty((points, batch, 1)), np.empty((points, batch))
    for b in range(batch):
        x = np.array(draw(st.lists(st.integers(-6, 6), min_size=points, max_size=points)), dtype=float)
        if draw(st.booleans()):
            c = draw(st.sampled_from([1.0, 0.5, 0.25]))
            g, f = c * x, 0.5 * c * x * x
        else:
            k = draw(st.integers(1, 4))
            g = np.clip(x, -k, k)
            f = np.where(np.abs(x) <= k, 0.5 * x * x, k * np.abs(x) - 0.5 * k * k)
        if draw(st.booleans()):
            which, i = draw(st.sampled_from([x, g, f])), draw(st.integers(0, points - 1))
            which[i] += 0.25 * draw(st.integers(-8, 8))
        X[:, b, 0], G[:, b, 0], F[:, b] = x, g, f
    return X, G, F


@settings(max_examples=500)
@given(integer_traces())
# a point off its function at a gradient tie: sorted by g (or left in index
# order among the ties), its violating pair with (1, 1, 0.5) is no neighbour
@example((np.array([[[0.25]], [[1.0]]]), np.array([[[0.0]], [[1.0]]]), np.array([[0.0], [0.5]])))
def test_neighbours_decide_like_all_pairs(trace):
    """The theorem of ``_neighbour_min``: on points where float arithmetic
    is exact, the x-neighbour minimum is negative exactly when the
    all-pairs minimum is, and never below it."""
    got, want = neighbour_min(*trace), q_min_pairwise(*trace)
    assert np.array_equal(got < 0.0, want < 0.0), (got, want)
    assert np.all(got >= want)


class TestSubBatchedKernel:
    """The kernel takes instances in blocks of at most ``_SORT_BLOCK``
    entries per array: a non-finite value stays in its instance, and the
    temporaries stay small."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["x", "g", "f"])
    def test_non_finite_stays_in_its_instance(self, monkeypatch, where, bad):
        """A NaN or an infinity in an instance's x, g or f makes its minimum
        NaN; every other instance keeps its bytes.  A bad point goes through
        the kernel, with the bad one in one block of several (blocks of
        three instances) and in its own block; a bad gradient or value,
        which the kernel could only evaluate from a bad point, goes through
        the neighbour core."""
        for n, per in ((30, 3), (300, 3), (300, 1)):
            monkeypatch.setattr(verify, "_SORT_BLOCK", per * (n + 2))
            (X, G, F), form = convex_run(17, n, 7, 1)
            check = (lambda: _q_min_batched(X, form)) if where == "x" else (lambda: neighbour_min(X, G, F))
            clean = check()
            {"x": X[..., 0], "g": G[..., 0], "f": F}[where][n // 2, 4] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                got = check()
            assert np.isnan(got).tolist() == [i == 4 for i in range(7)]
            assert np.delete(got, 4).tobytes() == np.delete(clean, 4).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e160, -1e160])
    def test_bad_point_matches_gathered_reference(self, monkeypatch, bad):
        """A NaN or infinite point, or one whose value overflows (x^2 at
        |x| = 1e160 on a quadratic), makes its instance's minimum NaN, and
        the kernel gives the gathered reference's bytes, in a block of
        several instances and in the bad one's own block."""
        for n, per in ((30, 3), (300, 3), (300, 1)):
            monkeypatch.setattr(verify, "_SORT_BLOCK", per * (n + 2))
            (X, _, _), form = convex_run(17, n, 7, 1)
            assert np.isinf(form.high[2, 0])  # a quadratic instance
            clean = _q_min_batched(X, form)
            X[n // 2, 2] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                got = _q_min_batched(X, form)
                want = q_min_gathered_reference(*evaluated(X, form), block=per * (n + 2))
            assert np.isnan(got).tolist() == [i == 2 for i in range(7)]
            assert np.delete(got, 2).tobytes() == np.delete(clean, 2).tobytes()
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [30, 300])  # 7 instances in one default block
    def test_nan_stays_in_its_instance(self, n, bad):
        """At the default block size, a NaN or infinite point makes only its
        own instance's minimum NaN, as the all-pairs oracle's is."""
        (X, _, _), form = convex_run(17, n, 7, 1)
        clean = _q_min_batched(X, form)
        X[n // 2, 3] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            got = _q_min_batched(X, form)
            want = q_min_pairwise(*evaluated(X, form))
        assert np.isnan(got).tolist() == np.isnan(want).tolist() == [i == 3 for i in range(7)]
        assert np.delete(got, 3).tobytes() == np.delete(clean, 3).tobytes()

    @pytest.mark.parametrize("n", [511, 255])
    def test_peak_memory_is_bounded(self, n):
        """About eight arrays of at most ``_SORT_BLOCK`` entries (0.5 MiB)
        at any battery size: here 50 instances, which in one block would
        take eight arrays of 0.2 MiB at n = 511."""
        (X, _, _), form = convex_run(19, n, 50, 1)
        tracemalloc.start()
        try:
            _q_min_batched(X, form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


def layout_traces(layout, n, d, batch=5):
    """``(X, G, F)`` of ``n + 1`` points in one of the layouts the verifier
    evaluates: ``contiguous`` ``(n+1, B, d)`` arrays; ``packed``, strided
    ``(n+1, B, d)`` views of packed ``(n+1, M)`` points, at d = 1 cut as
    ``verify._slice_trace`` cuts the battery (it evaluates contiguous
    gradients; strided ones are checked too); ``single``, the ``(n+1, d)`` and
    ``(n+1,)`` arrays of one trace that ``defining_slack`` passes."""
    (X, G, F), _ = convex_run(100 * n + d, n, 3 * batch, d)
    if layout == "single":
        return X[:, 0].copy(), G[:, 0].copy(), F[:, 0].copy()
    if layout == "contiguous":
        return X[:, :batch].copy(), G[:, :batch].copy(), F[:, :batch].copy()
    # one coordinate per column, as the verifier's loop packs the battery
    xs, gs = (a.reshape(n + 1, -1, 1) for a in (X, G))
    start, stop = 2 * d + 1, 2 * d + 1 + batch * d
    X, G = (a[:, start:stop].reshape(-1, batch, d) for a in (xs, gs))
    F = 0.5 * (X * G).sum(axis=-1)  # any values: F is a fresh array in the verifier too
    assert n == 0 or not X.flags.c_contiguous  # one point is a contiguous row
    return X, G, F


LAYOUTS = pytest.mark.parametrize("layout", ["contiguous", "packed", "single"])
SIZES = pytest.mark.parametrize("n", [0, 1, 40, 255])
WIDTHS = pytest.mark.parametrize("d", [1, 2, 4, 8])


def special_rows(rng, rows, d, pool):
    """``rows`` rows of ``d`` entries drawn from ``pool``, a quarter of them
    all -0.0 (numpy's sum of such a row is +0.0)."""
    a = rng.choice(np.array(pool), (rows, d))
    a[rng.random(rows) < 0.25] = -0.0
    return a


FINITE_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-315, 2.2250738585072014e-308, 1.0, -3.0, 1e308, -1e308]


class TestWrapperFreeHelpers:
    """The battery slacks call ``_weighted_sum`` for ``np.tensordot(v, a,
    axes=(0, 0))`` and ``_dot`` with ``gd.coord_sum`` for ``np.add.reduce``;
    each must give the bytes of the numpy call it replaces, on every layout
    the verifier passes."""

    @LAYOUTS
    @SIZES
    @WIDTHS
    def test_weighted_sum_is_tensordot(self, layout, n, d):
        X, G, F = layout_traces(layout, n, d)
        v = np.random.default_rng(n + d).uniform(0.1, 3.0, n + 1)
        terms = 2.0 * (F - F[-1]) + np.sum(G * G, axis=-1)
        for w, a in ((v, terms), (v, G), (v[:-1], G[:-1]), (v[:-1], terms[:-1])):
            want = np.tensordot(w, a, axes=(0, 0))
            got = _weighted_sum(w, a)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    @LAYOUTS
    @SIZES
    @pytest.mark.parametrize("d", range(1, 10))
    def test_dot_is_sum_of_products(self, layout, n, d):
        """``coord_sum`` adds the column from 64 rows of one coordinate on,
        so at d = 1 the whole-trace products take that path at n = 40 and
        255 (205 and 1280 rows; 41 and 256 in the single layout, so there
        only at n = 255) and at n = 0 or 1 never; every other d takes the
        reduce."""
        X, G, F = layout_traces(layout, n, d)
        for a, b in ((G, G), (G, X[0] - X), (X[0], X[0]), (G[-1], G[-1]), (G[:-1], X[0] - X[:-1])):
            want = np.sum(a * b, axis=-1)
            got = _dot(a, b)
            assert (type(got), np.shape(got)) == (type(want), np.shape(want))
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("d", range(1, 10))
    def test_coord_sum_is_add_reduce_beside_its_switch(self, d):
        """``gd.coord_sum`` against ``np.add.reduce(a, -1)``, byte for byte,
        on one row, on 64*d - 1 rows (the reduce) and on 64*d rows (the
        column, for d = 1), as ``(rows, d)`` and ``(2, rows/2, d)``
        arrays: random rows of every scale, all -0.0 rows, subnormals,
        +-inf (whose NaN from inf - inf comes out alike) and +-1e308
        (which overflow)."""
        rng = np.random.default_rng(d)
        for rows in (1, 64 * d - 1, 64 * d, 64 * d + 64):
            scaled = rng.standard_normal((rows, d)) * 10.0 ** rng.uniform(-300, 300, (rows, d))
            scaled[rng.random(rows) < 0.25] = -0.0
            pools = (FINITE_SPECIALS, FINITE_SPECIALS + [np.inf, -np.inf])
            for a in (scaled, *(special_rows(rng, rows, d, pool) for pool in pools)):
                for shaped in (a, a[: rows - rows % 2].reshape(2, -1, d)):
                    with np.errstate(all="ignore"):
                        want = np.add.reduce(shaped, -1)
                        got = gd.coord_sum(shaped.copy())
                        into = gd.coord_sum(shaped.copy(), out=np.full(shaped.shape[:-1], np.nan))
                    assert (type(got), got.shape, got.tobytes()) == (type(want), want.shape, want.tobytes())
                    assert into.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", range(1, 10))
    def test_coord_sum_keeps_every_nan(self, d):
        """With NaNs of both signs among the entries, a sum is NaN exactly
        where numpy's is, and keeps numpy's bytes wherever it is not; only
        the sign of a NaN may differ, where NaNs of both signs meet."""
        rng = np.random.default_rng(100 + d)
        for rows in (64 * d - 1, 64 * d):
            a = special_rows(rng, rows, d, FINITE_SPECIALS + [np.inf, -np.inf, np.nan, -np.nan])
            with np.errstate(all="ignore"):
                want, got = np.add.reduce(a, -1), gd.coord_sum(a.copy())
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert got[~np.isnan(want)].tobytes() == want[~np.isnan(want)].tobytes()
            assert np.isnan(want).any()


def long_schedules():
    """The eight join-built schedules with n in 255..511 that the benchmark's
    verify-long workload verifies."""
    tables = build_tables(512)
    return [
        silver(8),
        obs_f(255, tables),
        obs_g(255, tables),
        obs_f(383, tables),
        obs_g(383, tables),
        obs_s(383, tables),
        obs_s(511, tables),
        right_heavy(9),
    ]


def test_long_reports_match_pairwise_oracle_per_instance(monkeypatch):
    """The verify-long reports with the pairwise oracle, one instance at a
    time, in place of the kernel the verifier calls."""
    cfg = RunConfig()
    schedules = long_schedules()
    reports = [verify_schedule(h, cfg) for h in schedules]
    calls = []

    def oracle(X, form):
        X, G, F = evaluated(X, form)
        calls.append(X.shape)
        return np.array([q_min_pairwise(X[:, i], G[:, i], F[:, i]) for i in range(X.shape[1])])

    monkeypatch.setattr(verify, "_q_min_batched", oracle)
    for h, report in zip(schedules, reports):
        calls.clear()
        expected = verify_schedule(h, cfg)
        assert calls == [(h.n + 1, cfg.battery, 1)], h.describe()  # the oracle scored this report
        assert (report.passed, report.certified) == (expected.passed, expected.certified)
        for got, want in zip(report.checks, expected.checks, strict=True):
            assert (got.name, got.passed) == (want.name, want.passed)
            if got.name == "interpolation":  # near-ties may name another witness
                assert abs(got.slack - want.slack) <= 1e-12
            else:
                assert got.slack == want.slack or np.isnan(got.slack) and np.isnan(want.slack)
                assert got.instance == want.instance


class TestBatteryCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        verify._battery.cache_clear()
        yield
        verify._battery.cache_clear()

    def test_arrays_are_read_only(self):
        packed = verify._battery(12, 7)
        for a in packed:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]

    @pytest.mark.parametrize("battery,seed", [(12, 8), (16, 7)])
    def test_entries_keyed_by_battery_and_seed(self, battery, seed):
        first = verify._battery(12, 7)
        packed = verify._battery(battery, seed)
        assert packed is not first
        triples = verify.battery_instances(RunConfig(battery=battery, seed=seed))
        assert [i for i, _, _ in triples] == list(range(battery))
        for i, inst, x0 in triples:  # instance i is coordinate i
            assert inst.dim == 1
            assert packed.is_huber[i : i + 1].tolist() == inst.is_huber.tolist()
            assert packed.param[i : i + 1].tolist() == inst.param.tolist()
            assert packed.x0[i : i + 1].tolist() == x0.tolist()
        assert verify._battery(12, 7) is first

    @pytest.mark.parametrize("battery", [1, 2, 3, 5, 7, 12, 200, 203, 2000])
    def test_no_chunk_exceeds_the_largest_group(self, battery):
        """The whole battery is one chunk, one GD loop's points, and one
        group: one coordinate per instance, in index order, so a loop holds
        exactly ``battery`` battery coordinates."""
        triples = verify.battery_instances(RunConfig(battery=battery))
        assert [inst.dim for _, inst, _ in triples] == [1] * battery
        packed = verify._battery(battery, RunConfig().seed)
        assert packed._fields == ("is_huber", "param", "x0")
        assert packed.is_huber.shape == packed.param.shape == packed.x0.shape == (battery,)
        assert packed.x0.tolist() == [x0[0] for _, _, x0 in triples]

    def test_cache_stays_bounded(self):
        for seed in range(1, 13):
            verify._battery(4, seed)
        assert verify._battery.cache_info().currsize == verify._battery.cache_info().maxsize

    def test_second_verify_builds_no_battery(self, monkeypatch):
        calls = []
        original = verify.battery_instances

        def counting(config):
            calls.append(config)
            return original(config)

        monkeypatch.setattr(verify, "battery_instances", counting)
        cfg = RunConfig(battery=20, seed=0x5EED)
        first = verify_schedule(silver(3), cfg)
        second = verify_schedule(silver(3), cfg)
        assert len(calls) == 1
        assert first.to_dict() == second.to_dict()
        # only battery and seed select the entry
        verify_schedule(silver(3), replace(cfg, seed=0x5EEE))
        verify_schedule(silver(3), replace(cfg, battery=21))
        verify_schedule(silver(3), replace(cfg, q_tol=1e-6, slack_tol=1e-6))
        assert [(c.battery, c.seed) for c in calls] == [(20, 0x5EED), (20, 0x5EEE), (21, 0x5EED)]


def same_bytes(got, want):
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))


@pytest.mark.parametrize("battery", [13, 200])
def test_one_loop_traces_equal_separate_runs(monkeypatch, battery):
    """The battery's ``(X, G, F)`` and every tight or reversal trace of the
    one loop equals ``raw_run`` on the battery or that instance alone, byte
    for byte."""
    seen = []
    original = verify._one_loop

    def keeping(packed, runs, every_value, every_gradient):
        got = original(packed, runs, every_value, every_gradient)
        seen.append((packed, runs, every_value, every_gradient, *got))
        return got

    monkeypatch.setattr(verify, "_one_loop", keeping)
    tables = build_tables(70)
    treeless = replace(obs_f(12, tables), tree=None)
    for h in (silver(3), obs_f(64, tables), obs_g(41, tables), obs_s(63, tables), treeless):
        seen.clear()
        verify_schedule(h, RunConfig(battery=battery))
        (packed, runs, every_value, every_gradient, trace, form, traces), = seen
        assert [len(rows) for _, rows in runs] == ([4] if h.comp_class is CompClass.S else [2]) + (
            [] if h.tree is None else [2]
        )
        alone = raw_run(h.steps, *(a.reshape(battery, 1) for a in packed))
        if not every_gradient:  # the gradients of points 0 and n
            alone = (alone[0], alone[1][[0, -1]], alone[2])
        if not every_value:  # the values of points 0 and n
            alone = (*alone[:2], alone[2][[0, -1]])
        assert same_bytes(trace, alone), h.describe()
        assert same_bytes(form, coord_form(*(a.reshape(battery, 1) for a in packed[:2])))
        columns = [(h.steps, hub, par) for h, rows in runs for hub, par, _ in rows]
        assert len(traces) == len(columns)
        for trace, (steps, hub, par) in zip(traces, columns):
            assert same_bytes(trace, raw_run(steps, np.array([hub]), np.array([par]), np.ones(1)))


def test_battery_values_only_where_read(monkeypatch):
    """The battery gets every point's value where its certificate sums
    per-point terms (the f weights, the s mixed inequality), and otherwise
    those of points 0 and n, all that the scales and the other slacks read.
    One kernel call per verification scores the interpolation entry."""
    tables = build_tables(64)
    calls, shapes = capture_kernel_calls(monkeypatch), []
    original = verify.values
    monkeypatch.setattr(verify, "values", lambda X, form: shapes.append(X.shape) or original(X, form))
    cfg = RunConfig()
    treeless = replace(obs_f(63, tables), tree=None)  # no f weights: the direct gap inequality
    for h, rows in ((obs_g(63, tables), 2), (treeless, 2), (obs_f(63, tables), 64), (obs_s(63, tables), 64)):
        calls.clear()
        shapes.clear()
        assert verify_schedule(h, cfg).passed, h.describe()
        assert [s for s in shapes if s[1] == cfg.battery] == [(rows, cfg.battery, 1)], h.describe()
        assert [X.shape for X, _, _ in calls] == [(64, cfg.battery, 1)], h.describe()


def test_battery_gradients_only_where_read(monkeypatch):
    """The battery gets every point's gradient where a check sums over
    points (the f weights, the s mixed inequality and implied bounds), and
    otherwise those of points 0 and n: class g reads ``g_n`` only, the
    direct gap inequality of a tree-less f schedule no gradient."""
    tables = build_tables(64)
    shapes = []
    original = verify.gradients
    monkeypatch.setattr(verify, "gradients", lambda X, form: shapes.append(X.shape) or original(X, form))
    cfg = RunConfig()
    treeless = replace(obs_f(63, tables), tree=None)
    for h, rows in ((obs_g(63, tables), 2), (treeless, 2), (obs_f(63, tables), 64), (obs_s(63, tables), 64)):
        shapes.clear()
        assert verify_schedule(h, cfg).passed, h.describe()
        assert [s for s in shapes if s[1] == cfg.battery] == [(rows, cfg.battery, 1)], h.describe()


def test_gd_loops_per_verify(monkeypatch):
    """One GD loop per verification: the battery, the tight instances and
    the reversed schedule's tight pair all run in one ``descend``; loops
    through ``raw_run`` or ``gd.run`` count too, since both call it."""
    calls = []
    original = gd.descend

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(verify, "descend", counting)
    monkeypatch.setattr(gd, "descend", counting)
    tables = build_tables(40)
    treeless = replace(silver(3), tree=None)
    for h in (silver(3), obs_f(30, tables), obs_g(21, tables), obs_s(33, tables), treeless):
        calls.clear()
        report = verify_schedule(h, RunConfig())
        assert report.passed
        assert len(calls) == 1, h.describe()
        assert len(calls[0][0]) == (1 if h.tree is None else 2)  # step runs: forward, reversed


def _count_tree_walks(monkeypatch) -> list:
    """The calls of ``postorder``, patched in ``schedule`` and in ``verify``,
    so a walk through either counts."""
    calls = []
    original = schedule.postorder

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(schedule, "postorder", counting)
    monkeypatch.setattr(verify, "postorder", counting, raising=False)
    return calls


def test_one_tree_fold_per_verify(monkeypatch):
    """One walk of the construction tree per verification: the identity
    entry, the f certificate and the reversal check all read one
    ``schedule.fold_tree``, whose ``postorder`` is counted."""
    calls = _count_tree_walks(monkeypatch)
    tables = build_tables(40)
    cases = [(obs_f(30, tables), 1), (obs_g(30, tables), 1), (obs_s(30, tables), 1), (silver(5), 1)]
    cases.append((replace(silver(3), tree=None), 0))
    for h, folds in cases:
        calls.clear()
        report = verify_schedule(h, RunConfig())
        # without a tree, the identity entry proves none: passed, not certified
        assert report.passed and report.certified == (h.tree is not None), report.summary()
        assert len(calls) == folds, h.describe()


@pytest.mark.parametrize("corrupt", ["rate", "step"])
def test_no_tree_fold_when_closed_forms_fail(monkeypatch, corrupt):
    """The identity entry folds the tree only once the closed forms hold:
    a schedule whose rate or step breaks them walks its tree zero times."""
    calls = _count_tree_walks(monkeypatch)
    for h in (silver(3), right_heavy(3), obs_g(6, build_tables(8))):
        steps, rate = h.steps.copy(), h.rate
        if corrupt == "rate":
            rate *= 1.01
        else:
            steps[1] *= 1.01
        bad = replace(h, steps=steps, rate=rate)
        calls.clear()
        report = verify_schedule(bad, RunConfig(battery=8))
        assert not next(c for c in report.checks if c.name == "identity").passed
        assert calls == [], h.describe()


# Beside the points and the battery's gradients, values and per-point
# terms, a verification holds the block temporaries of one evaluation at a
# time: those of the per-point terms (about four arrays of
# ``gd._VALUE_BLOCK`` = 2**15 entries, 1 MiB), which set the measured peaks,
# or those of the interpolation kernel (about eight arrays of
# ``verify._SORT_BLOCK`` = 2**13 entries, 0.5 MiB); and the report and
# numpy's small temporaries.
KERNEL_ALLOWANCE = 3 * 2**19


def working_set_bound(n: int, battery: int, per_point: bool = True) -> float:
    """Bytes a verification at length n may hold at once: the n+1 points of
    every battery coordinate and of at most six tight rows, the battery's
    gradients, values and per-point certificate terms at every point
    (``per_point``: the f weights, the s mixed inequality) or else its
    gradients and values at points 0 and n, and ``KERNEL_ALLOWANCE``."""
    if per_point:
        return 8 * (n + 1) * (battery + 6 + 3 * battery) + KERNEL_ALLOWANCE
    return 8 * (n + 1) * (battery + 6) + 8 * 2 * 2 * battery + KERNEL_ALLOWANCE


def verify_peak(h, config=None) -> int:
    """tracemalloc peak of one verify with a warm battery cache."""
    verify_schedule(h, config)
    tracemalloc.start()
    try:
        verify_schedule(h, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_peak_memory_stays_bounded():
    """At n=511 every class stays within one working set: bound 4.65 MiB,
    4.22 and 4.25 MiB measured for f and s with numpy 2.4; the g class holds
    no per-point terms and two rows of gradients and values, bound 2.32
    MiB, 1.36 MiB measured.  The bounds themselves are pinned, so that they
    cannot grow unnoticed."""
    tables = build_tables(512)
    peaks = {cls: verify_peak(make(511, tables)) for cls, make in (("f", obs_f), ("g", obs_g), ("s", obs_s))}
    bound, bound_g = working_set_bound(511, RunConfig().battery), working_set_bound(511, RunConfig().battery, False)
    assert bound <= 4.65 * 2**20 and bound_g <= 2.32 * 2**20
    assert peaks["f"] <= bound and peaks["s"] <= bound and peaks["g"] <= bound_g, (peaks, bound, bound_g)


@pytest.mark.parametrize("cls", ["f", "g", "s"])
def test_large_battery_peak_memory_stays_bounded(cls):
    """At n=255 with ``battery=2000``, where the battery's gradients, values
    and per-point terms outweigh the block temporaries: bound 17.14 MiB,
    16.8 MiB measured with numpy 2.4 for f and s; for g, bound 5.48 MiB,
    4.63 MiB measured.  The bounds themselves are pinned, so that they
    cannot grow unnoticed."""
    h = {"f": obs_f, "g": obs_g, "s": obs_s}[cls](255, build_tables(256))
    bound = working_set_bound(255, 2000, per_point=cls != "g")
    assert bound <= (5.48 if cls == "g" else 17.14) * 2**20
    assert verify_peak(h, RunConfig(battery=2000)) <= bound


def test_traced_boundaries_exist():
    """The benchmark's traced run wraps these names in ``stepweaver.verify``;
    dropping one silently removes a per-layer span.  Its interpolation
    counts read the kernel's first argument ``X`` (``(n+1, B, 1)``) and its
    ``(B,)`` result."""
    assert list(inspect.signature(verify._q_min_batched).parameters)[0] == "X"
    (X, _, _), form = convex_run(3, 5, 7, 1)
    assert verify._q_min_batched(X, form).shape == (7,)
    cfg = RunConfig(battery=5)
    triples = verify.battery_instances(cfg)
    assert [t[0] for t in triples] == list(range(5))
    assert verify.raw_run is raw_run
    assert verify.run is run


def test_every_benchmark_target_resolves():
    """The traced run's ``Tracer`` finds every name it wraps (its ``TARGETS``
    and ``MACRO_TARGETS``) and puts the originals back."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = verify._q_min_batched
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert verify._q_min_batched is not original
    finally:
        tracer.uninstall()
    assert verify._q_min_batched is original


def test_traced_construction_boundaries_exist(tmp_path, monkeypatch):
    """The traced run also wraps these names in the construction and
    certificate layers, the DSL's silver macro included; the construct
    workload resets ``optimizer._SHARED_TABLES`` between ops, so it must
    exist."""
    assert list(inspect.signature(optimizer.build_tables).parameters) == ["n_max"]
    assert hasattr(optimizer, "_SHARED_TABLES")
    built, saved = [], []
    real_build, real_save = optimizer.build_tables, optimizer.save_tables
    monkeypatch.setattr(optimizer, "build_tables", lambda n_max: built.append(n_max) or real_build(n_max))
    monkeypatch.setattr(optimizer, "save_tables", lambda t, d: saved.append(real_save(t, d)) or saved[-1])
    optimizer.load_or_build(9, str(tmp_path))  # a cold cache builds through build_tables
    assert built == [9]
    assert os.path.getsize(saved[0]) > 0  # the traced run sizes the file save_tables returns
    assert optimizer.load_tables(saved[0]).n_max == 9
    assert list(inspect.signature(optimizer._reconstruct).parameters) == ["tables", "cls", "idx"]
    assert optimizer._reconstruct(build_tables(8), CompClass.F, 5).n == 4
    assert dsl._MACROS["silver"] == (CompClass.S, builders.silver)
    h = silver(2)
    tr = run(h, quad_instance(1.0), np.ones(1))
    assert isinstance(verify.defining_slack(h, tr), float)
    assert np.shape(verify._f_direct_slack_raw(h.rate, tr.x, tr.g, tr.f)) == ()
    assert len(verify._s_fg_slacks_raw(h.steps, h.rate, tr.x, tr.g, tr.f)) == 4
