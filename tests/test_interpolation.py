"""The Gram-form interpolation kernel against the pairwise oracle and the
unpruned kernel, its pruning bounds, the battery-evaluation helpers against
the numpy calls they replace, the cached battery, and the program names that
the benchmark's traced run wraps."""

import importlib.util
import inspect
import os
import tracemalloc
from fractions import Fraction
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import gram_rows_reference, q_min_pairwise, q_min_row_blocks_reference, q_min_unpruned_reference
from stepweaver import builders, dsl, gd, optimizer, verify
from stepweaver.builders import right_heavy, silver
from stepweaver.gd import quad_instance, raw_run, run
from stepweaver.io import RunConfig
from stepweaver.optimizer import build_tables, obs_f, obs_g, obs_s
from stepweaver.schedule import CompClass
from stepweaver.verify import _dot, _gram_rows, _q_min_batched, _weighted_sum, verify_schedule

DIMS = st.sampled_from([1, 2, 4, 8])


def q_tolerance(X, G, F) -> float:
    """Agreement bound: 1e-12 of the largest magnitude Q is built from."""
    return 1e-12 * max(1.0, np.abs(F).max(), np.abs(X).max() ** 2, np.abs(G).max() ** 2)


def convex_traces(seed, n, batch, d):
    """GD traces on random separable 1-smooth convex instances, shaped
    (n+1, batch, d); arbitrary positive steps keep every point on the function."""
    rng = np.random.default_rng(seed)
    is_huber = rng.random((batch, d)) < 0.5
    param = np.where(is_huber, 10.0 ** rng.uniform(-3.0, 0.0, (batch, d)), rng.uniform(0.05, 1.0, (batch, d)))
    x0 = rng.standard_normal((batch, d)) * 10.0 ** rng.uniform(-1.0, 1.0, (batch, 1))
    return raw_run(rng.uniform(0.1, 3.0, n), is_huber, param, x0)


def arbitrary_traces(seed, n, batch, d):
    """Points, gradients and values drawn independently: mostly non-convex."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    return (
        scale * rng.standard_normal((n + 1, batch, d)),
        rng.standard_normal((n + 1, batch, d)),
        scale * rng.standard_normal((n + 1, batch)),
    )


class TestGramKernelOracle:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(1, 6), DIMS)
    def test_convex_batched(self, seed, n, batch, d):
        X, G, F = convex_traces(seed, n, batch, d)
        expected = q_min_pairwise(X, G, F)
        tol = q_tolerance(X, G, F)
        assert np.max(np.abs(_q_min_batched(X, G, F) - expected)) <= tol
        # chunks of one instance, of three and the default, against one call
        for pair_block in (1, 3 * (n + 2) ** 2, verify._PAIR_BLOCK):
            with mock.patch.object(verify, "_PAIR_BLOCK", pair_block):
                got = _q_min_batched(X, G, F)
            assert got.shape == (batch,)
            assert np.max(np.abs(got - expected)) <= tol

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 6), DIMS)
    def test_arbitrary(self, seed, n, batch, d):
        X, G, F = arbitrary_traces(seed, n, batch, d)
        assert np.max(np.abs(_q_min_batched(X, G, F) - q_min_pairwise(X, G, F))) <= q_tolerance(X, G, F)

    def test_row_blocks_bound_memory_at_n_2047(self, monkeypatch):
        """8*(n+2)^2 bytes per instance in one product (32 MiB at n = 2047);
        row blocks of at most 2**18 entries keep the peak near 2 MiB."""
        X, G, F = convex_traces(11, 2047, 6, 2)
        tracemalloc.start()
        try:
            got = _q_min_batched(X, G, F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        monkeypatch.setattr(verify, "_PAIR_BLOCK", 2**40)  # one product per instance
        assert got.tobytes() == _q_min_batched(X, G, F).tobytes()

    def test_star_only_pair_is_exactly_zero(self):
        # one point at the minimizer plus the appended star: every Q is 0
        zero = np.zeros((1, 1, 3))
        assert _q_min_batched(zero, zero, np.zeros((1, 1)))[0] == 0.0


class TestSubBatchedKernel:
    """The sub-batched kernel against the row-block kernel it replaced, on
    both sides of its switch from whole instances per product to row blocks
    of one instance at N^2 = ``_PAIR_BLOCK`` (N = n + 2 = 256 at n = 254
    with the star row)."""

    # the "-True" suffix (minimizer row appended) keeps these cases' ids stable
    @pytest.mark.parametrize("n", [0, 1, 253, 254, 255, 383, 511], ids="{}-True".format)
    def test_minima_are_byte_equal_to_row_blocks(self, n):
        assert verify._PAIR_BLOCK == 256**2
        for batch in (1, 7, 50):
            for d in (1, 2, 4, 8):
                X, G, F = convex_traces(1000 * n + 10 * batch + d, n, batch, d)
                got = _q_min_batched(X, G, F)
                assert got.tobytes() == q_min_row_blocks_reference(X, G, F).tobytes(), (batch, d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [30, 300])  # 7 instances in one product; row blocks
    def test_nan_stays_in_its_instance(self, n, bad):
        """A NaN value makes a whole row and column of Q NaN; an infinite one
        makes only Q_ii NaN, so the NaN sits in one row block."""
        X, G, F = convex_traces(17, n, 7, 2)
        F[n // 2, 3] = bad
        with np.errstate(invalid="ignore"):
            got = _q_min_batched(X, G, F)
        assert np.isnan(got).tolist() == [i == 3 for i in range(7)]
        with np.errstate(invalid="ignore"):
            assert got.tobytes() == q_min_row_blocks_reference(X, G, F).tobytes()

    @pytest.mark.parametrize("n", [511, 255])
    def test_peak_memory_is_bounded(self, n):
        """P, R^T and the product buffer each hold at most 2**16 entries:
        about 1.9 MiB, where P and R^T of a whole 50-instance group would
        take 3.9 MiB at n = 511."""
        X, G, F = convex_traces(19, n, 50, 8)
        tracemalloc.start()
        try:
            _q_min_batched(X, G, F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


def decaying_traces(seed, n, batch, d, floor):
    """Points, gradients and values drawn independently (mostly non-convex),
    point k's x and g scaled by 2^-e_k and its value by 2^-2e_k, with e_k
    rising evenly from 0 to ``floor``: exact scalings down to subnormals."""
    rng = np.random.default_rng(seed)
    e = np.floor(np.linspace(0.0, floor, n + 1)).astype(np.int64)
    X = np.ldexp(rng.standard_normal((n + 1, batch, d)), -e[:, None, None])
    G = np.ldexp(rng.standard_normal((n + 1, batch, d)), -e[:, None, None])
    F = np.ldexp(rng.standard_normal((n + 1, batch)), -2 * e[:, None])
    return X, G, F


def halving_traces(seed, n, batch, curvature=None):
    """1-D GD traces on quadratics from random x0.  By default curvature 1
    and step 1/2: every point halves, and Q_ij is exactly zero (a = b = u =
    0).  With ``curvature = (low, high)``, step 1 on curvatures drawn from
    it: the points shrink by 1 - curvature per step."""
    rng = np.random.default_rng(seed)
    param = np.full((batch, 1), 1.0) if curvature is None else rng.uniform(*curvature, (batch, 1))
    steps = np.full(n, 0.5 if curvature is None else 1.0)
    return raw_run(steps, np.zeros((batch, 1), dtype=bool), param, rng.standard_normal((batch, 1)))


@pytest.fixture
def cuts(monkeypatch):
    """``(N, cut)`` of every ``_suffix_cut`` call: the rows of the pair
    matrix and where each instance's skipped suffix starts (N: none)."""
    seen = []
    real = verify._suffix_cut

    def keeping(P, Rt, best):
        got = real(P, Rt, best)
        seen.append((P.shape[1], got[0].copy()))
        return got

    monkeypatch.setattr(verify, "_suffix_cut", keeping)
    return seen


class TestPrunedKernel:
    """One instance at a time (n >= 255) the kernel skips the pairs whose
    rounding bound exceeds a computed entry: the minima must be the
    unpruned kernel's, byte for byte."""

    def test_verify_long_traces(self, monkeypatch, cuts):
        groups = []
        real = verify._q_min_batched

        def keeping(X, G, F):
            groups.append((X, G, F))
            return real(X, G, F)

        monkeypatch.setattr(verify, "_q_min_batched", keeping)
        for h in long_schedules():
            verify_schedule(h, RunConfig(battery=40))
        assert len(groups) == 32
        cuts.clear()
        for X, G, F in groups:
            assert real(X, G, F).tobytes() == q_min_unpruned_reference(X, G, F).tobytes()
        skipped = sum(int(np.count_nonzero(cut < rows)) for rows, cut in cuts)
        assert skipped >= 0.75 * 8 * 40  # most instances skip a suffix

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(255, 700), st.integers(1, 6), DIMS, st.integers(0, 560))
    def test_decaying_traces(self, seed, n, batch, d, floor):
        X, G, F = decaying_traces(seed, n, batch, d, floor)
        assert _q_min_batched(X, G, F).tobytes() == q_min_unpruned_reference(X, G, F).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["x", "g", "f"])
    def test_non_finite_point_in_the_skipped_suffix(self, cuts, where, bad):
        X, G, F = decaying_traces(5, 300, 4, 2, 400)
        clean = _q_min_batched(X, G, F)
        (rows, cut), = cuts
        assert cut[1] <= rows - 2  # instance 1 skips a suffix of two rows at least
        {"x": X, "g": G, "f": F}[where][(cut[1] + rows) // 2, 1] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            got = _q_min_batched(X, G, F)
            assert got.tobytes() == q_min_unpruned_reference(X, G, F).tobytes()
        assert np.isnan(got[1])
        assert np.delete(got, 1).tobytes() == np.delete(clean, 1).tobytes()

    def test_zero_minimum_skips_nothing(self, cuts):
        X, G, F = halving_traces(3, 400, 5)  # f_n near 2^-800: no rounding below the normal floats
        got = _q_min_batched(X, G, F)
        assert got.tobytes() == q_min_unpruned_reference(X, G, F).tobytes()
        assert got.tolist() == [0.0] * 5
        assert all(np.all(cut == rows) for rows, cut in cuts)

    def test_violating_pair_among_late_points(self, cuts):
        """f_{k+1} = f_k at a late point k: the pair (k, k+1) falls far below
        the early points' rounding noise, and each instance still skips a
        suffix."""
        X, G, F = halving_traces(11, 400, 4, curvature=(0.3, 0.7))
        clean = _q_min_batched(X, G, F)
        k = np.argmax(F < 1e-9 * F[0], axis=0)  # the first point below 1e-9 f_0
        cols = np.arange(4)
        F[k + 1, cols] = F[k, cols]
        got = _q_min_batched(X, G, F)
        assert got.tobytes() == q_min_unpruned_reference(X, G, F).tobytes()
        assert np.all(got < -1e-3 * F[k, cols]) and np.all(clean > 1e-6 * got)
        assert all(np.all(cut < rows) for rows, cut in cuts)


class TestProductMin:
    """``_product_min`` against ``np.min(Pr @ Rc)`` on small integer
    entries, whose products are exact in any summation order."""

    @staticmethod
    def operands(rows, cols, d=3, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(-9, 10, (rows, d)).astype(float), rng.integers(-9, 10, (d, cols)).astype(float)

    @staticmethod
    def block_rows(monkeypatch):
        """The row count of every product ``np.matmul`` computes."""
        seen, real = [], np.matmul

        def counting(a, b, out):
            seen.append(a.shape[0])
            return real(a, b, out=out)

        monkeypatch.setattr(np, "matmul", counting)
        return seen

    @pytest.mark.parametrize("row", [0, 1, 6, 11, 12])  # blocks 0..2, 3..5, 6..8, 9..11, 11..12
    def test_nan_in_any_block_reaches_the_minimum(self, row):
        Pr, Rc = self.operands(13, 7)
        Pr[row, 1] = np.nan
        assert np.isnan(np.min(Pr @ Rc))
        assert np.isnan(verify._product_min(Pr, Rc, np.empty(3 * 7)))

    def test_one_row_buffer_covers_the_last_row(self, monkeypatch):
        Pr, Rc = self.operands(6, 5)
        Pr[-1], Rc[:, 0] = 100.0, -9.0  # the minimum, -2700, lies in the last row only
        rows = self.block_rows(monkeypatch)
        got = verify._product_min(Pr, Rc, np.empty(5))
        monkeypatch.undo()
        assert rows == [1] * 6
        assert got == np.min(Pr @ Rc) == -2700.0

    def test_one_row_tail_takes_a_two_row_product(self, monkeypatch):
        Pr, Rc = self.operands(7, 5)
        Pr[-1], Rc[:, 0] = 100.0, -9.0
        rows = self.block_rows(monkeypatch)
        got = verify._product_min(Pr, Rc, np.empty(3 * 5))
        monkeypatch.undo()
        assert rows == [3, 3, 2]
        assert got == np.min(Pr @ Rc) == -2700.0


def gram_rows_spread(rng, m, rows, d, low, high):
    """Gram rows ``(P, R^T)`` of m instances, shaped ``(m, rows, d+2)`` and
    ``(m, d+2, rows)``, with u, a, w and b of magnitudes 2^e, e drawn from
    [low, high] and falling along the rows.  In half the instances every u
    is negative and every w positive, so that the inner products come near
    Hoelder's bound; one a_i per instance cancels a pair's other terms."""
    e = -np.sort(-rng.integers(low, high, (m, rows, 1)), axis=1)
    mant = rng.uniform(0.5, 1.0, (4, m, rows, d)) * rng.choice([-1.0, 1.0], (4, m, rows, d))
    aligned = np.arange(m) % 2 == 0
    mant[0, aligned] = -np.abs(mant[0, aligned]).max(axis=-1, keepdims=True)
    mant[2, aligned] = np.abs(mant[2, aligned]).max(axis=-1, keepdims=True)
    val = np.ldexp(mant, e + rng.integers(-3, 1, (4, m, rows, d)))
    P, Rt = np.ones((m, rows, d + 2)), np.ones((m, d + 2, rows))
    P[:, :, :d], P[:, :, d] = val[0], val[1, :, :, 0]
    Rt[:, :d], Rt[:, d + 1] = val[2].swapaxes(1, 2), val[3, :, :, 0]
    for i in range(m):
        r, c = rng.integers(0, rows, 2)
        P[i, r, d] = -(Rt[i, d + 1, c] + P[i, r, :d] @ Rt[i, :d, c])
    return P, Rt


@given(st.integers(0, 2**32 - 1), DIMS)
def test_rounding_bound_holds_for_every_product(seed, d):
    """Every GEMM entry q_ij of Gram rows spread over 2^-1000..2^500 lies
    within GAMMA*(|a_i| + |b_j| + |u_i|_1 |w_j|_inf) + ETA of the exact sum,
    and so within the pruning bounds (exact rational arithmetic)."""
    rng = np.random.default_rng(seed)
    P, Rt = gram_rows_spread(rng, 1, 8, d, -1000, 500)
    Q = np.matmul(P[0], Rt[0])
    gamma, eta = Fraction(verify._GAMMA), Fraction(verify._ETA)
    for i in range(8):
        row = [Fraction(v) for v in P[0, i]]
        for j in range(8):
            col = [Fraction(v) for v in Rt[0, :, j]]
            q, exact = Fraction(Q[i, j]), sum(x * y for x, y in zip(row, col))
            a, b = abs(row[d]), abs(col[d + 1])
            uw = sum(abs(x) for x in row[:d]) * max(abs(y) for y in col[:d])
            assert abs(q - exact) <= gamma * (a + b + uw) + eta
            assert abs(q) <= (1 + gamma) * (a + b + uw) + eta
            assert q >= row[d] - gamma * a - (1 + gamma) * (b + uw) - eta
            assert q >= col[d + 1] - gamma * b - (1 + gamma) * (a + uw) - eta


def tight_gram_rows(rng, m, d, scale):
    """Gram rows of m instances of 8 points whose row bound is tight: rows
    below a cut c are of order 1, the rest of order 2^scale and falling;
    every u is negative and every w has equal positive components, so
    <u_i, w_j> = -|u_i|_1 |w_j|_inf; every b is negative, so the pair (r, c)
    meets the bound a_r - |b_c| - |u_r|_1 |w_c|_inf up to rounding, and a_r
    cancels part of it.  Returns ``(P, R^T, pairs)``, ``pairs`` indexing
    each instance's (r, c) in the ``(m, 8, 8)`` pair matrices."""
    P, Rt = np.ones((m, 8, d + 2)), np.ones((m, d + 2, 8))
    c = rng.integers(2, 6, m)
    r = rng.integers(0, c)
    for i in range(m):
        e = np.where(np.arange(8) < c[i], 0.0, scale - 3.0 * (np.arange(8) - c[i]))
        big = np.where(np.arange(8) < c[i], 8.0, 1.0)
        P[i, :, :d] = -rng.uniform(1.0, 2.0, (8, d)) * (big * np.exp2(e))[:, None]
        Rt[i, :d] = rng.uniform(1.0, 2.0, 8) * np.exp2(e)
        P[i, :, d] = rng.uniform(1.0, 2.0, 8) * np.exp2(e)
        Rt[i, d + 1] = -rng.uniform(1.0, 2.0, 8) * np.exp2(e)
        P[i, r[i], d] = -(Rt[i, d + 1, c[i]] + P[i, r[i], :d] @ Rt[i, :d, c[i]]) * rng.uniform(0.5, 0.98)
    return P, Rt, (np.arange(m), r, c)


def assert_skipped_pairs_exceed(Q, best, got):
    """Every pair that ``_suffix_cut``'s result ``got`` lets the kernel skip
    exceeds ``best``: those of the suffix, and those of the rows and columns
    below the cut that it does not keep."""
    rows = Q.shape[1]
    for i, t in enumerate(got[0].tolist()):
        if t == rows:
            continue
        assert t <= rows - 2
        assert np.all(Q[i, t:, t:] > best[i])
        assert np.all(Q[i, :t][~got[1][i, :t], t:] > best[i])
        assert np.all(Q[i, t:, :t][:, ~got[2][i, :t]] > best[i])


SPREADS = st.sampled_from([(-1000, 500), (-1100, -1000), (-60, 60)])


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(4, 48), DIMS, SPREADS)
def test_suffix_cut_skips_only_pairs_above_best(seed, m, rows, d, spread):
    """Against any computed entry ``best`` (here: the first two rows'
    minimum, or an entry's next float up, of the whole matrix or of a
    suffix), every pair the kernel may skip exceeds it."""
    rng = np.random.default_rng(seed)
    P, Rt = gram_rows_spread(rng, m, rows, d, *spread)
    Q = np.matmul(P, Rt)
    best = np.empty(m)
    for i in range(m):
        k = int(rng.integers(0, rows - 1))
        pick = (Q[i, :2].min(), Q[i].flat[rng.integers(rows * rows)], Q[i, k:, k:].min())[i % 3]
        best[i] = pick if i % 3 == 0 else np.nextafter(pick, np.inf)
    assert_skipped_pairs_exceed(Q, best, verify._suffix_cut(P, Rt, best))


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8]), st.sampled_from([-200.0, -537.0, -1066.0, -1070.0]))
def test_suffix_cut_keeps_tight_pairs(seed, d, scale):
    """Where a row's bound is met up to rounding, and at subnormal scales
    where rounding is absolute, the pair next below ``best`` is kept."""
    P, Rt, pairs = tight_gram_rows(np.random.default_rng(seed), 64, d, scale)
    Q = np.matmul(P, Rt)
    best = np.nextafter(Q[pairs], np.inf)
    assert_skipped_pairs_exceed(Q, best, verify._suffix_cut(P, Rt, best))


def layout_traces(layout, n, d, batch=5):
    """``(X, G, F)`` of ``n + 1`` points in one of the layouts the verifier
    evaluates: ``contiguous`` ``(n+1, B, d)`` arrays; ``packed``, strided
    ``(n+1, B, d)`` views of packed ``(n+1, M)`` points cut as
    ``verify._group_trace`` cuts them (it evaluates contiguous gradients;
    strided ones are checked too); ``single``, the ``(n+1, d)`` and
    ``(n+1,)`` arrays of one trace that ``defining_slack`` passes."""
    X, G, F = convex_traces(100 * n + d, n, 3 * batch, d)
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


class TestWrapperFreeHelpers:
    """The battery slacks call ``_weighted_sum`` for ``np.tensordot(v, a,
    axes=(0, 0))`` and ``_dot`` with ``np.add.reduce``, and ``_gram_rows``
    reads ``swapaxes``/``transpose`` views; each must give the bytes of the
    numpy call it replaces, on every layout the verifier passes."""

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
    @WIDTHS
    def test_dot_is_sum_of_products(self, layout, n, d):
        X, G, F = layout_traces(layout, n, d)
        for a, b in ((G, G), (G, X[0] - X), (X[0], X[0]), (G[-1], G[-1]), (G[:-1], X[0] - X[:-1])):
            want = np.sum(a * b, axis=-1)
            got = _dot(a, b)
            assert (type(got), np.shape(got)) == (type(want), np.shape(want))
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("layout", ["contiguous", "packed"])
    @pytest.mark.parametrize("include_star", [True, False])
    @SIZES
    @WIDTHS
    def test_gram_rows_match_moveaxis_version(self, layout, include_star, n, d):
        X, G, F = layout_traces(layout, n, d)
        rows, batch = n + 1 + include_star, X.shape[1]
        got = np.full((batch, rows, d + 2), np.nan), np.full((batch, d + 2, rows), np.nan)
        want = np.full((batch, rows, d + 2), np.nan), np.full((batch, d + 2, rows), np.nan)
        _gram_rows(X, G, F, *got)
        gram_rows_reference(X, G, F, *want)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


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

    def oracle(X, G, F):
        return np.array([q_min_pairwise(X[:, i], G[:, i], F[:, i]) for i in range(X.shape[1])])

    monkeypatch.setattr(verify, "_q_min_batched", oracle)
    for h, report in zip(schedules, reports):
        expected = verify_schedule(h, cfg)
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
        for a in (packed.is_huber, packed.param, packed.x0, *(idx for _, idx, _ in packed.groups)):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]

    @pytest.mark.parametrize("battery,seed", [(12, 8), (16, 7)])
    def test_entries_keyed_by_battery_and_seed(self, battery, seed):
        first = verify._battery(12, 7)
        packed = verify._battery(battery, seed)
        assert packed is not first
        found = []
        for d, idx, start in packed.groups:
            for k, i in enumerate(idx.tolist()):
                coords = slice(start + k * d, start + (k + 1) * d)
                found.append((i, packed.is_huber[coords], packed.param[coords], packed.x0[coords]))
        assert sorted(i for i, *_ in found) == list(range(battery))
        expected = {i: (inst, x0) for i, inst, x0 in verify.battery_instances(RunConfig(battery=battery, seed=seed))}
        for i, is_huber, param, x0 in found:
            inst, want_x0 = expected[i]
            assert is_huber.tolist() == inst.is_huber.tolist()
            assert param.tolist() == inst.param.tolist()
            assert x0.tolist() == want_x0.tolist()
        assert verify._battery(12, 7) is first

    @pytest.mark.parametrize("battery", [1, 2, 3, 5, 7, 12, 200, 203, 2000])
    def test_no_chunk_exceeds_the_largest_group(self, battery):
        """The whole battery is one chunk, one GD loop's points, and never
        larger than the points, gradients and values of its largest group
        alone: every coordinate once, the groups in ``BATTERY_DIMS`` order,
        at most three times the largest group's coordinates."""
        dims = [inst.dim for _, inst, _ in verify.battery_instances(RunConfig(battery=battery))]
        largest = max(d * dims.count(d) for d in set(dims))
        packed = verify._battery(battery, RunConfig().seed)
        m = packed.x0.size
        assert packed.is_huber.shape == packed.param.shape == packed.x0.shape == (m,)
        assert m == sum(dims) <= 3 * largest
        assert [d for d, _, _ in packed.groups] == [d for d in verify.BATTERY_DIMS if d in dims]
        layout = [(start, d * idx.size) for d, idx, start in packed.groups]
        assert [start for start, _ in layout] == np.cumsum([0] + [size for _, size in layout])[:-1].tolist()
        assert sorted(i for _, idx, _ in packed.groups for i in idx.tolist()) == list(range(battery))
        if battery == RunConfig().battery:
            assert [(d, idx.size) for d, idx, _ in packed.groups] == [(1, 50), (2, 50), (4, 50), (8, 50)]
            assert m == 750

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
    """Every battery group's ``(X, G, F)`` and every tight or reversal trace
    of the one loop equals ``raw_run`` on that group or instance alone, byte
    for byte."""
    seen = []
    original = verify._one_loop

    def keeping(packed, runs):
        groups, traces = original(packed, runs)
        groups = list(groups)
        seen.append((packed, runs, groups, traces))
        return iter(groups), traces

    monkeypatch.setattr(verify, "_one_loop", keeping)
    tables = build_tables(70)
    treeless = replace(obs_f(12, tables), tree=None)
    for h in (silver(3), obs_f(64, tables), obs_g(41, tables), obs_s(63, tables), treeless):
        seen.clear()
        verify_schedule(h, RunConfig(battery=battery))
        (packed, runs, groups, traces), = seen
        assert [len(rows) for _, rows in runs] == ([4] if h.comp_class is CompClass.S else [2]) + (
            [] if h.tree is None else [2]
        )
        for (d, idx, trace), (e, want_idx, start) in zip(groups, packed.groups, strict=True):
            assert d == e and idx is want_idx
            coords = slice(start, start + idx.size * d)
            alone = raw_run(
                h.steps,
                *(a[coords].reshape(idx.size, d) for a in (packed.is_huber, packed.param, packed.x0)),
            )
            assert same_bytes(trace, alone), (h.describe(), d)
        columns = [(h.steps, hub, par) for h, rows in runs for hub, par, _ in rows]
        assert len(traces) == len(columns)
        for trace, (steps, hub, par) in zip(traces, columns):
            assert same_bytes(trace, raw_run(steps, np.array([hub]), np.array([par]), np.ones(1)))


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


def test_verify_peak_memory_stays_bounded():
    """tracemalloc peak of one verify at n=511 with a warm battery cache:
    6.9 MiB with one loop per dimension group, about 8.5 MiB with packed
    chunks (numpy 2.4)."""
    h = obs_s(511, build_tables(512))
    verify_schedule(h)
    tracemalloc.start()
    try:
        verify_schedule(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.0 * 2**20


@pytest.mark.parametrize("cls,bound_mib", [("f", 42.05), ("g", 26.28), ("s", 42.03)])
def test_large_battery_peak_memory_stays_bounded(cls, bound_mib):
    """tracemalloc peak of one verify at n=255 with ``battery=2000`` and a
    warm battery cache stays within that of two packed chunks holding points,
    gradients and values (measured with numpy 2.4): the one loop's points
    cover the whole battery, but only one group's gradients and values are
    alive at a time."""
    tables = build_tables(256)
    h = {"f": obs_f, "g": obs_g, "s": obs_s}[cls](255, tables)
    cfg = RunConfig(battery=2000)
    verify_schedule(h, cfg)
    tracemalloc.start()
    try:
        verify_schedule(h, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


def test_traced_boundaries_exist():
    """The benchmark's traced run wraps these names in ``stepweaver.verify``;
    dropping one silently removes a per-layer span."""
    assert list(inspect.signature(verify._q_min_batched).parameters)[:3] == ["X", "G", "F"]
    X, G, F = convex_traces(3, 5, 7, 2)
    assert verify._q_min_batched(X, G, F).shape == (7,)
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
