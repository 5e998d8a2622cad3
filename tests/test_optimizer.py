import dataclasses
import gc
import io
import math
import os
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import build_tables_reference, rate_rows_mp, write_rate_csv_reference
from stepweaver import optimizer
from stepweaver.builders import silver
from stepweaver.optimizer import (
    AsymptoticConstants,
    CACHE_NAME,
    MAX_LEVEL,
    MAX_TABLE_N,
    P_EXPONENT,
    RateTables,
    asymptotic_constants,
    build_tables,
    c_low,
    enumerate_basic,
    load_or_build,
    load_tables,
    obs_f,
    obs_g,
    obs_s,
    r_constant,
    save_tables,
    write_rate_csv,
)
from stepweaver.schedule import (
    CompClass,
    ResourceCapError,
    ScheduleError,
    _sjoin_rate,
    materialize,
    reverse,
)

SQ2 = math.sqrt(2.0)
PHI = 1.0 + SQ2


@pytest.fixture(scope="module")
def tables():
    return build_tables(512)


class TestBuildTables:
    def test_base_rows(self, tables):
        assert tables.s_rate[1] == 1.0
        assert tables.f_rate[1] == 1.0
        assert tables.s_rate[2] == pytest.approx(SQ2 - 1.0, rel=1e-15)
        assert tables.f_rate[2] == 0.25

    def test_small_f_rows(self, tables):
        assert tables.f_rate[3] == pytest.approx(0.13189, abs=1e-5)
        assert tables.f_rate[4] == pytest.approx(0.08579, abs=1e-5)
        assert tables.f_rate[5] == pytest.approx(0.06234, abs=1e-5)

    def test_strictly_decreasing(self, tables):
        assert np.all(np.diff(tables.s_rate[1:]) < 0.0)
        assert np.all(np.diff(tables.f_rate[1:]) < 0.0)

    def test_silver_rows_exact_powers(self, tables):
        for k in range(0, 10):
            assert tables.s_rate[2**k] * PHI**k == pytest.approx(1.0, rel=1e-12)

    def test_s_split_symmetry_tiebreak_smallest(self, tables):
        # the balanced row has a symmetric optimum; the recorded split is the
        # smallest minimizer, never past the middle
        for n in range(2, 100):
            assert 1 <= tables.s_split[n] <= n // 2

    def test_dominates_published_reconstructions(self, tables):
        # rates of the bnb-matching constructions of lengths 1..10; the DP
        # optimum must be at least as good everywhere (strictly better at
        # lengths 6, 8, 9)
        published = [0.25, 0.13189, 0.08579, 0.06234, 0.04814, 0.04020, 0.03266, 0.02811, 0.02456, 0.02124]
        for n, rate in enumerate(published, start=1):
            assert tables.f_rate[n + 1] <= rate + 1e-4
        for n in (1, 2, 3, 4, 5, 7, 10):
            assert tables.f_rate[n + 1] == pytest.approx(published[n - 1], abs=1e-4)
        for n in (6, 8, 9):
            assert tables.f_rate[n + 1] < published[n - 1] - 1e-4

    def test_rejects_bad_sizes(self):
        with pytest.raises(ScheduleError):
            build_tables(0)
        with pytest.raises(ResourceCapError):
            build_tables(10**6)
        with pytest.raises(ResourceCapError):
            obs_s(MAX_TABLE_N)
        with pytest.raises(ResourceCapError):
            asymptotic_constants(14)

    @pytest.mark.parametrize(
        "k, error, match",
        [(-1, ScheduleError, "need k_max >= 0, got -1"), (-7, ScheduleError, "got -7")]
        + [(MAX_LEVEL + 1, ResourceCapError, f"level {MAX_LEVEL + 1} exceeds"), (60, ResourceCapError, "level 60")],
    )
    @pytest.mark.parametrize("given_tables", [False, True])
    def test_level_outside_the_cap_is_refused_first(self, monkeypatch, k, error, match, given_tables):
        tables = build_tables(3) if given_tables else None

        def no_work(*args, **kwargs):
            raise AssertionError("a refused level must not load, fill or solve anything")

        for name in ("load_or_build", "c_low", "r_constant"):
            monkeypatch.setattr(optimizer, name, no_work)
        with pytest.raises(error, match=match):
            asymptotic_constants(k, tables)

    def test_fields(self):
        names = [f.name for f in dataclasses.fields(RateTables)]
        assert names == ["n_max", "s_rate", "f_rate", "s_split", "f_split"]


class TestMpOracle:
    """``build_tables(160)`` against the two join formulas in 50-digit
    arithmetic: an oracle that shares no code with the fill."""

    @pytest.fixture(scope="class")
    def both(self):
        return build_tables(160), rate_rows_mp(160)

    def test_rates_drift_at_most_1e_13(self, both):
        tables, rows = both
        for name, rate in (("s", tables.s_rate), ("f", tables.f_rate)):
            drift = max(abs(mpmath.mpf(float(rate[n])) - rows[name][n][0]) / rows[name][n][0] for n in range(1, 161))
            assert drift <= 1e-13, name

    def test_splits_agree_where_the_best_leads(self, both):
        """Where two splits tie in exact arithmetic, rounding may pick
        either; where the best leads the second by more than 1e-12, the
        float fill must pick it."""
        tables, rows = both
        for name, split, least in (("s", tables.s_split, 80), ("f", tables.f_split, 150)):
            led = [n for n in range(2, 161) if rows[name][n][2] > 1e-12]
            assert len(led) >= least, name  # the check covers most rows
            assert [int(split[n]) for n in led] == [rows[name][n][1] for n in led], name


@pytest.mark.slow
def test_pruned_fill_at_the_cap_matches_reference():
    """The fill of the largest table, 80% of its f-splits skipped, against
    the all-splits scan (several seconds): deselected by default."""
    _same_tables(build_tables(MAX_TABLE_N), build_tables_reference(MAX_TABLE_N))


@pytest.mark.slow
def test_mp_oracle_to_row_512():
    """:class:`TestMpOracle`'s two checks up to row 512, a few seconds of
    mpmath: deselected by default, ``pytest -m slow`` runs it."""
    tables, rows = build_tables(512), rate_rows_mp(512)
    columns = (("s", tables.s_rate, tables.s_split, 256), ("f", tables.f_rate, tables.f_split, 480))
    for name, rate, split, least in columns:
        drift = max(abs(mpmath.mpf(float(rate[n])) - rows[name][n][0]) / rows[name][n][0] for n in range(1, 513))
        assert drift <= 1e-13, name
        led = [n for n in range(2, 513) if rows[name][n][2] > 1e-12]
        assert len(led) >= least, name
        assert [int(split[n]) for n in led] == [rows[name][n][1] for n in led], name


class TestReconstruction:
    @pytest.mark.parametrize(
        "column, row, value, match",
        [
            ("s_split", 6, 0, "out of range"),
            ("s_split", 6, 6, "out of range"),
            ("f_split", 9, 0, "out of range"),
            ("s_rate", 4, 0.5, "mismatch at row 4"),
            ("f_rate", 1, 0.5, "mismatch at row 1"),
        ],
    )
    def test_bad_tables_raise(self, column, row, value, match):
        """A split that is not a shorter row, or a rate that is not the join
        of its operands' rates, stops the walk with ScheduleError."""
        t = build_tables(12)
        getattr(t, column)[row] = value
        obs = obs_s if column.startswith("s") else obs_f
        with pytest.raises(ScheduleError, match=match):
            obs(row - 1, t)

    @staticmethod
    def _operand_rows(t, cls, n):
        """The rows that row ``n`` of class ``cls`` joins, ``(class, row)`` each."""
        m = int((t.s_split if cls == "s" else t.f_split)[n])
        return ("s", m), (cls, n - m)

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("cls", ["s", "f"])
    @pytest.mark.parametrize("bad", ["zero", "row"])
    def test_split_out_of_range_names_its_row(self, cls, side, bad):
        """An operand row of the root (the left or the right) whose split is 0
        or the row itself: the walk names that split and row."""
        t = build_tables(40)
        c, row = self._operand_rows(t, cls, 40)[side]
        split = t.s_split if c == "s" else t.f_split
        split[row] = 0 if bad == "zero" else row
        obs = obs_s if cls == "s" else obs_f
        with pytest.raises(ScheduleError, match=rf"^{c}-table split {split[row]} out of range at row {row}$"):
            obs(39, t)

    @pytest.mark.parametrize("toward", [0.0, 2.0])
    @pytest.mark.parametrize("side", [0, 1, None])
    @pytest.mark.parametrize("cls", ["s", "f"])
    def test_rate_one_ulp_off_names_its_row(self, cls, side, toward):
        """A rate one ulp from the join of its operands' rates, at the root
        (``side`` None) or at one of its operand rows, is a mismatch at that
        row: the rates are compared bit for bit."""
        t = build_tables(40)
        c, row = (cls, 40) if side is None else self._operand_rows(t, cls, 40)[side]
        rate = t.s_rate if c == "s" else t.f_rate
        rate[row] = np.nextafter(rate[row], toward)
        obs = obs_s if cls == "s" else obs_f
        with pytest.raises(ScheduleError, match=rf"^{c}-table reconstruction mismatch at row {row}$"):
            obs(39, t)

    def test_obs_s_three(self, tables):
        h = obs_s(3, tables)
        assert np.allclose(h.steps, [SQ2, 2.0, SQ2], rtol=1e-15)

    def test_obs_f_three(self, tables):
        h = obs_f(3, tables)
        assert np.allclose(h.steps, [SQ2, 1.0 + SQ2, 1.5], rtol=1e-15)

    def test_obs_g_three(self, tables):
        h = obs_g(3, tables)
        assert np.allclose(h.steps, [1.5, 1.0 + SQ2, SQ2], rtol=1e-15)
        assert h.rate == pytest.approx(1.0 / (6.0 + 4.0 * SQ2), rel=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 64, 200])
    def test_rate_matches_table_exactly(self, tables, n):
        assert obs_s(n, tables).rate == tables.s_rate[n + 1]
        assert obs_f(n, tables).rate == tables.f_rate[n + 1]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_powers_of_two_reproduce_silver_bitwise(self, tables, k):
        assert np.array_equal(obs_s(2**k - 1, tables).steps, silver(k).steps)

    def test_obs_g_is_reverse_of_obs_f(self, tables):
        for n in (1, 5, 33):
            f = obs_f(n, tables)
            g = obs_g(n, tables)
            assert np.array_equal(g.steps, reverse(f).steps)
            assert g.rate == f.rate

    def test_trees_attached(self, tables):
        assert obs_f(9, tables).tree is not None
        assert obs_f(9, tables).tree.length() == 9

    def test_beyond_table_rejected(self, tables):
        with pytest.raises(ScheduleError):
            obs_s(512, tables)

    @pytest.mark.parametrize("cls,obs", [(CompClass.S, obs_s), (CompClass.F, obs_f)])
    def test_tree_materializes_bitwise_on_every_row(self, tables, cls, obs):
        for n in range(tables.n_max):
            h = obs(n, tables)
            again = materialize(h.tree, cls)
            assert np.array_equal(again.steps, h.steps), n
            assert again.rate == h.rate, n

    def test_interleaved_classes_share_no_memo_entries(self):
        mixed = build_tables(96)
        fresh_s, fresh_f = build_tables(96), build_tables(96)
        for n in (0, 1, 2, 7, 30, 31, 60, 95):
            for got, want in ((obs_s(n, mixed), obs_s(n, fresh_s)), (obs_f(n, mixed), obs_f(n, fresh_f))):
                assert got.comp_class is want.comp_class
                assert np.array_equal(got.steps, want.steps)
                assert got.rate == want.rate
                assert got.tree == want.tree

    def test_returned_schedules_are_not_kept(self, tables):
        refs = [
            weakref.ref(obs(n, t)) for obs in (obs_s, obs_f, obs_g) for t in (tables, None) for n in (4, 100, 511)
        ]
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)


def _same_tables(got, want):
    """Rates and splits equal byte for byte (index 0 is unused)."""
    assert got.n_max == want.n_max
    for name in ("s_rate", "f_rate", "s_split", "f_split"):
        assert getattr(got, name)[1:].tobytes() == getattr(want, name)[1:].tobytes(), name


def _same_rows(got, want, n_max, f_max):
    """s rows 1..n_max and f rows 1..f_max of ``got`` are those of ``want``."""
    for names, rows in ((("s_rate", "s_split"), n_max), (("f_rate", "f_split"), f_max)):
        for name in names:
            assert getattr(got, name)[1:].tobytes() == getattr(want, name)[1 : rows + 1].tobytes(), name


@pytest.fixture(scope="module")
def reference_4096():
    return build_tables_reference(4096)


@pytest.fixture(scope="module")
def reference_700():
    return build_tables_reference(700)


RATES = st.floats(1e-12, 1.0)


@st.composite
def fill_requests(draw):
    """``(prefix, n_max, f_max)``: row counts of a fill and the ``(n_max,
    f_max)`` of the table it extends (none: a fresh fill), on either side."""
    n_max = draw(st.integers(1, 700))
    f_max = draw(st.integers(1, n_max))
    prefix = draw(st.none() | st.integers(1, 700).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p))))
    return prefix, n_max, f_max


class TestFillKernel:
    """The fill scans half the s-splits and reuses buffers; its rates and
    splits must stay byte-equal to the plain all-splits row loop."""

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 64, 1000])
    def test_build_tables_matches_reference(self, n_max):
        _same_tables(build_tables(n_max), build_tables_reference(n_max))

    def test_build_tables_4096_matches_reference(self, reference_4096):
        _same_tables(build_tables(4096), reference_4096)

    @pytest.mark.parametrize("prefix", [1, 2, 3, 2047, 4095])
    def test_extend_matches_reference(self, prefix, reference_4096):
        _same_tables(optimizer._extend(build_tables(prefix), 4096), reference_4096)

    @given(st.lists(st.tuples(RATES, RATES), min_size=1, max_size=40))
    def test_sjoin_rate_is_exactly_commutative(self, pairs):
        """The half s-scan relies on split m and n - m giving the same bits."""
        a, b = np.array(pairs).T
        assert _sjoin_rate(a, b).tobytes() == _sjoin_rate(b, a).tobytes()
        for x, y in pairs:
            assert _sjoin_rate(x, y) == _sjoin_rate(y, x)

    @pytest.mark.parametrize("n_max", [1, 2, 3, 64, 1000, 4096])
    def test_s_only_fill_matches_reference(self, n_max, reference_4096):
        want = reference_4096 if n_max == 4096 else build_tables_reference(n_max)
        got = optimizer._extend(None, n_max, 1)
        assert (got.n_max, got.f_max) == (n_max, 1)
        _same_rows(got, want, n_max, 1)

    @pytest.mark.parametrize(
        "first, then",
        [((2047, 1), (4096, 4096)), ((4096, 1), (4096, 3000)), ((3000, 1000), (4096, 4096)), ((4095, 2), (4096, 2047))],
    )
    def test_mixed_prefixes_extend_to_a_fresh_fill(self, first, then, reference_4096):
        """s-only prefixes that later gain f rows, and f rows shorter than s rows."""
        got = optimizer._extend(optimizer._extend(None, *first), *then)
        assert (got.n_max, got.f_max) == then
        _same_rows(got, reference_4096, *then)

    @given(fill=fill_requests())
    def test_any_fill_from_any_prefix_matches_reference(self, fill, reference_700):
        """h = 1 rows, odd and even n, s-only fills, prefixes shorter or
        longer than the request and f rows shorter than s rows."""
        prefix, n_max, f_max = fill
        tables = None if prefix is None else optimizer._extend(None, *prefix)
        got = optimizer._extend(tables, n_max, f_max)
        assert (got.n_max, got.f_max) == (n_max, f_max)
        _same_rows(got, reference_700, n_max, f_max)

    def test_fill_peak_memory_stays_bounded(self):
        """tracemalloc peak of a 4096-row fill, in table columns of 4097
        float64: about 9.4 with reused buffers (the f column holds 4f while
        the f rows fill, so no 4f column is made), 11.1 with per-row arrays
        (numpy 2.4).  A per-row or O(N^2) scratch array breaks the bound."""
        build_tables(8)
        tracemalloc.start()
        try:
            build_tables(4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * 4097


@pytest.fixture
def windows_seen(monkeypatch):
    """``{"s": {n: window}, "f": {n: window}}``: the ``(short, lo, hi)`` of
    each row the envelope pruned, last seen: the row scanned its splits
    ``lo..hi`` and left ``1..short`` to the batch check."""
    seen = {"s": {}, "f": {}}
    real = optimizer._windows

    def spy(t, n, k, cap):
        windows = real(t, n, k, cap)
        seen["s" if t.half else "f"].update(zip(range(n, n + k), zip(*windows)))
        return windows

    monkeypatch.setattr(optimizer, "_windows", spy)
    return seen


def _scanned(seen, rows, half=False):
    """The fraction of the splits of ``rows`` (``m <= n // 2`` if ``half``)
    that ``seen`` scanned or left to the check."""
    return sum(hi - lo + 1 + short for short, lo, hi in map(seen.get, rows)) / sum(
        n // 2 if half else n - 1 for n in rows
    )


class TestEnvelopePruning:
    """The rows scan only the splits the lower envelope leaves; the rates
    and splits must stay byte-equal to the all-splits scan, whatever the
    prefix holds."""

    def test_envelope_constant_is_pinned_below_c_low(self):
        assert c_low() - 1e-4 < optimizer._ENVELOPE_RHO <= c_low()

    def test_bound_table_rises_falls_rises(self):
        bound, i1, i2 = optimizer._envelope_bounds(optimizer._fgjoin_rate, optimizer._ENVELOPE_RHO)
        lb = np.array(bound)
        lb[i1 + 1 : i2] *= -1.0  # stored negated inside the fall
        assert len(lb) == optimizer._ENVELOPE_CELLS and 0 < i1 < i2 < len(lb) - 1
        assert np.all(np.diff(lb[: i1 + 1]) >= 0) and np.all(np.diff(lb[i1 : i2 + 1]) <= 0)
        assert np.all(np.diff(lb[i2:]) >= 0)
        assert lb[0] < optimizer._ENVELOPE_RHO < lb[i1] and 0.42 < lb[i2] < lb[-1] < 0.5

    def test_s_bound_table_rises_then_falls_to_one_half(self):
        bound, i1, i2 = optimizer._envelope_bounds(optimizer._sjoin_rate, 1.0, 0.5)
        lb = np.array(bound)
        lb[i1 + 1 : i2] *= -1.0
        assert len(lb) == optimizer._ENVELOPE_CELLS and 0 < i1 < i2 == len(lb) - 1
        assert np.all(np.diff(lb[: i1 + 1]) >= 0) and np.all(np.diff(lb[i1:]) <= 0)
        assert lb[0] < 1.0 < lb[i1] < 1.03 and lb[-1] < 1.0  # L_s = 1: the silver rows lie in both ends

    def test_bound_table_of_another_shape_is_refused(self):
        assert optimizer._envelope_bounds(lambda a, b: np.cos(8.0 / a), 1.0) is None

    def test_row_8191_scans_a_fifth_and_holds_its_split(self, windows_seen):
        tables = build_tables(8191)
        short, lo, hi = windows_seen["f"][8191]
        assert 0 < short < lo - 1 and hi - lo + 1 + short <= 0.25 * 8190
        assert lo <= tables.f_split[8191] <= hi
        assert _scanned(windows_seen["f"], range(optimizer._PRUNE_MIN_ROW, 8192)) <= 0.25
        assert min(windows_seen["f"]) == optimizer._PRUNE_MIN_ROW  # shorter rows scan every split

    def test_s_rows_from_2048_scan_a_third_of_the_half_splits(self, windows_seen):
        tables = optimizer._extend(None, 8191, 1)
        seen = windows_seen["s"]
        assert _scanned(seen, range(optimizer._PRUNE_MIN_ROW, 8192), half=True) <= 0.35
        assert all(lo <= tables.s_split[n] <= hi for n, (short, lo, hi) in seen.items())
        assert min(seen) == optimizer._PRUNE_MIN_ROW and not windows_seen["f"]

    @pytest.mark.parametrize("n_max", [1000, 4096])
    def test_pruned_from_row_16_matches_reference(self, monkeypatch, windows_seen, n_max, reference_4096):
        monkeypatch.setattr(optimizer, "_PRUNE_MIN_ROW", 16)
        want = reference_4096 if n_max == 4096 else build_tables_reference(n_max)
        _same_tables(build_tables(n_max), want)
        assert _scanned(windows_seen["f"], range(16, n_max + 1)) < 0.5
        assert _scanned(windows_seen["s"], range(16, n_max + 1), half=True) < 0.6

    @given(fill=fill_requests())
    def test_any_pruned_fill_from_any_prefix_matches_reference(self, fill, reference_700):
        prefix, n_max, f_max = fill
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimizer, "_PRUNE_MIN_ROW", 16)
            tables = None if prefix is None else optimizer._extend(None, *prefix)
            got = optimizer._extend(tables, n_max, f_max)
        _same_rows(got, reference_700, n_max, f_max)

    def test_constant_above_the_least_f_rate_scans_every_split(self, monkeypatch, windows_seen):
        """Once an f row held has ``f[k] k^p`` below the table's constant,
        every row of each later batch scans all its splits."""
        monkeypatch.setattr(optimizer, "_PRUNE_MIN_ROW", 16)
        monkeypatch.setattr(optimizer, "_ENVELOPE_RHO", 0.43)
        got = build_tables(1000)
        _same_tables(got, build_tables_reference(1000))
        below = np.flatnonzero(got.f_rate[1:] * np.arange(1, 1001) ** P_EXPONENT < 0.43) + 1
        assert below.size and below[0] < 500
        later = range(below[0] + optimizer._BATCH_ROWS, 1001)
        assert all(windows_seen["f"][n] == (0, 1, n - 1) for n in later)

    @pytest.mark.parametrize("tamper, pruned", [("f_below_envelope", False), ("s_scaled_down", True), ("far_split", True)])
    def test_tampered_cache_extends_like_a_full_scan(self, tmp_path, windows_seen, tamper, pruned):
        """An f row below the envelope turns the pruning off, s rows scaled
        down loosen it, a last split far from the minimum leaves it on; each
        extension of the cache file equals the all-splits extension of its
        rows."""
        prefix = build_tables(3000)
        if tamper == "f_below_envelope":
            prefix.f_rate[2500] *= 0.9
        elif tamper == "s_scaled_down":
            prefix.s_rate[1000:2000] *= 0.99
        else:
            prefix.f_split[3000] = 1
        save_tables(prefix, str(tmp_path))
        got = load_or_build(4096, str(tmp_path))
        _same_tables(got, build_tables_reference(4096, prefix))
        assert (_scanned(windows_seen["f"], range(3001, 4097)) < 0.5) is pruned

    def test_in_memory_prefix_without_a_split_is_extended_exactly(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_PRUNE_MIN_ROW", 16)
        prefix = build_tables(300)
        prefix.f_split[300] = 0  # not a split: the fill takes another
        _same_tables(optimizer._extend(prefix, 700), build_tables_reference(700, prefix))


@pytest.fixture
def checks_failed(monkeypatch):
    """``[(table, row, its place in the batch)]``: each row where the batch
    check found a short split at most the window's minimum."""
    failed = []
    real = optimizer._check

    def spy(t, n, short, los, buf):
        row = real(t, n, short, los, buf)
        if row:
            failed.append(("s" if t.half else "f", row, row - n))
        return row

    monkeypatch.setattr(optimizer, "_check", spy)
    return failed


@pytest.fixture(scope="module")
def tables_3000():
    return build_tables(3000)


def _cut(tables, rows):
    """A copy of rows ``1..rows`` of both tables."""
    return RateTables(rows, *(getattr(tables, name)[: rows + 1].copy() for name in ("s_rate", "f_rate", "s_split", "f_split")))


def _tie(join, w):
    """The rate ``b`` with ``join(1, b) == w`` exactly (bisection)."""
    lo, hi = w, 2.0 * w
    while 0.5 * (lo + hi) not in (lo, hi):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if join(1.0, mid) < w else (lo, mid)
    found = [b for b in (lo, hi) if join(1.0, b) == w]
    assert found, "no rate ties the row"
    return found[0]


class TestBatchCheck:
    """A long row scans one window, and a batch check scores the short
    splits below it; a short split that wins or ties must be found, in any
    row of a batch, so the tables stay those of the all-splits scan."""

    @pytest.mark.parametrize("rows", [3200, 3001])
    @pytest.mark.parametrize("cls", ["s", "f"])
    def test_short_split_that_wins_is_taken(self, tables_3000, checks_failed, cls, rows):
        """The last row of a prefix 0.1% below its rate: the next rows take
        split 1 or 2, outside their windows, and the check fails at each
        (the first row of a batch, also a batch of one row)."""
        prefix = _cut(tables_3000, 3000)
        getattr(prefix, f"{cls}_rate")[3000] *= 0.999
        got = optimizer._extend(prefix, rows)
        _same_tables(got, build_tables_reference(rows, prefix))
        assert (cls, 3001, 0) in checks_failed and getattr(got, f"{cls}_split")[3001] == 1

    @pytest.mark.parametrize("cls", ["s", "f"])
    def test_short_split_that_ties_the_window_is_taken(self, tables_3000, checks_failed, cls):
        """A prefix whose last row makes split 1 of the next row tie its
        window minimum bit for bit: the first minimum is split 1, so a tie
        fails the check."""
        prefix = _cut(tables_3000, 3000)
        join = optimizer._sjoin_rate if cls == "s" else optimizer._fgjoin_rate
        rate = getattr(prefix, f"{cls}_rate")
        rate[3000] = _tie(join, getattr(build_tables_reference(3001, prefix), f"{cls}_rate")[3001])
        got = optimizer._extend(prefix, 3001)
        _same_tables(got, build_tables_reference(3001, prefix))
        assert (cls, 3001, 0) in checks_failed and getattr(got, f"{cls}_split")[3001] == 1

    def test_check_fails_inside_a_batch(self, monkeypatch, checks_failed):
        """Small rows, and a prefix whose last s row is 2% low: the first row
        of the fill scans every split, and the check fails at the second."""
        monkeypatch.setattr(optimizer, "_PRUNE_MIN_ROW", 16)
        prefix = _cut(build_tables(224), 224)
        prefix.s_rate[224] *= 0.98
        _same_tables(optimizer._extend(prefix, 300), build_tables_reference(300, prefix))
        assert any(table == "s" and at > 0 for table, _, at in checks_failed)

    @pytest.mark.parametrize("cls", ["s", "f"])
    def test_splits_that_read_the_batch_are_checked(self, monkeypatch, tables_3000, checks_failed, cls):
        """Windows that leave no short split to the check, and a first row
        of each batch that scans every split: after a prefix row set low,
        the rows inside each batch that take split 1 (a row of the batch)
        are found, since the check covers every split that reads one."""
        real = optimizer._windows

        def windows(t, n, k, cap):
            shorts, los, his = real(t, n, k, cap)
            return [0] * k, [1] + los[1:], [n // 2 if t.half else n - 1] + his[1:]

        monkeypatch.setattr(optimizer, "_windows", windows)
        prefix = _cut(tables_3000, 3000)
        getattr(prefix, f"{cls}_rate")[3000] *= 0.999
        _same_tables(optimizer._extend(prefix, 3200), build_tables_reference(3200, prefix))
        assert any(table == cls and at > 0 for table, _, at in checks_failed)


class TestTableStore:
    def test_extend_equals_fresh_fill(self):
        want = build_tables(700)
        for prefix in (1, 2, 64, 511, 699, 700):
            _same_tables(optimizer._extend(build_tables(prefix), 700), want)

    def test_shared_tables_fill_each_row_once(self, monkeypatch, rows_filled):
        monkeypatch.setattr(optimizer, "_SHARED_TABLES", None)
        monkeypatch.delenv(optimizer.CACHE_ENV_VAR, raising=False)
        sizes = [load_or_build(n).n_max for n in (100, 300, 200, 1000)]
        assert sizes == [100, 300, 300, 1000]
        assert rows_filled == {"s": 999, "f": 999}
        _same_tables(load_or_build(1000), build_tables(1000))

    def test_load_or_build_extends_the_one_file(self, tmp_path, rows_filled):
        assert load_or_build(50, str(tmp_path)).n_max == 50
        grown = load_or_build(300, str(tmp_path))
        assert load_or_build(120, str(tmp_path)).n_max == 300  # served by the larger file
        assert rows_filled == {"s": 299, "f": 299}
        assert [p.name for p in tmp_path.iterdir()] == [CACHE_NAME]
        _same_tables(grown, build_tables(300))
        _same_tables(load_tables(str(tmp_path / CACHE_NAME)), grown)


    def test_s_requests_fill_only_the_s_table(self, monkeypatch, rows_filled):
        monkeypatch.setattr(optimizer, "_SHARED_TABLES", None)
        monkeypatch.delenv(optimizer.CACHE_ENV_VAR, raising=False)
        s_only = load_or_build(500, f_table=False)
        assert (s_only.n_max, s_only.f_max) == (500, 1)
        assert obs_s(499).rate == s_only.s_rate[500]
        assert rows_filled == {"s": 499, "f": 0}
        assert obs_f(299).rate == load_or_build(300).f_rate[300]  # f rows from the s rows held
        assert rows_filled == {"s": 499, "f": 299}
        assert (load_or_build(300).n_max, load_or_build(300).f_max) == (500, 300)
        _same_rows(load_or_build(300), build_tables(500), 500, 300)

    def test_s_only_tables_refuse_f_rows(self):
        t = optimizer._extend(None, 40, 10)
        obs_s(39, t)
        obs_f(9, t)
        with pytest.raises(ScheduleError, match=r"beyond the table \(f_max=10\)"):
            obs_f(10, t)
        with pytest.raises(ScheduleError, match="f-table covers 10 rows"):
            r_constant(CompClass.F, 3, t)
        assert r_constant(CompClass.S, 4, t) == r_constant(CompClass.S, 4, build_tables(40))

    @pytest.mark.parametrize("n_max, f_max", [(0, 1), (10, 0), (10, 11)])
    def test_extend_rejects_bad_row_counts(self, n_max, f_max):
        with pytest.raises(ScheduleError):
            optimizer._extend(None, n_max, f_max)


class TestRateCsv:
    """The CSV writer formats each row at once; its bytes must stay those of
    the ``csv.writer`` version."""

    @pytest.mark.parametrize("n_rows", [1, 2, 8191])
    @pytest.mark.parametrize("prefixes", [("",), ("s_", "f_")])
    def test_bytes_match_the_csv_writer(self, n_rows, prefixes):
        t = build_tables(8191) if n_rows == 8191 else build_tables(2)
        columns = dict(zip(prefixes, (t.s_rate, t.f_rate)))
        got, want = io.StringIO(newline=""), io.StringIO(newline="")
        write_rate_csv(got, n_rows, columns)
        write_rate_csv_reference(want, n_rows, columns)
        assert got.getvalue() == want.getvalue()
        assert got.getvalue().count("\r\n") == n_rows + 1

    @given(st.integers(1, 3000), st.integers(0, 40), st.sampled_from([("",), ("s_", "f_")]), st.integers(0, 2**32 - 1))
    def test_random_tables_match_the_csv_writer(self, n_rows, extra, prefixes, seed):
        """Rates of any magnitude, from tables ``extra`` rows longer than
        the rows written."""
        rng = np.random.default_rng(seed)
        columns = {p: np.concatenate([[np.nan], 10.0 ** rng.uniform(-9.0, 0.0, n_rows + extra)]) for p in prefixes}
        got, want = io.StringIO(newline=""), io.StringIO(newline="")
        write_rate_csv(got, n_rows, columns)
        write_rate_csv_reference(want, n_rows, columns)
        assert got.getvalue() == want.getvalue()


class TestEnumeration:
    def test_length_one(self):
        for cls in CompClass:
            best, rates = enumerate_basic(1, cls)
            assert len(rates) == 1
            expected = SQ2 - 1.0 if cls is CompClass.S else 0.25
            assert best.rate == pytest.approx(expected, rel=1e-14)

    def test_s_three_steps(self):
        best, rates = enumerate_basic(3, CompClass.S)
        assert len(rates) == 5
        assert rates[0] == pytest.approx(1.0 / (3.0 + 2.0 * SQ2), rel=1e-13)
        assert np.allclose(rates[1:], [0.17489] * 4, atol=1e-5)

    def test_f_three_steps(self):
        best, rates = enumerate_basic(3, CompClass.F)
        assert len(rates) == 5
        assert rates[0] == pytest.approx(1.0 / (6.0 + 4.0 * SQ2), rel=1e-13)
        assert np.allclose(sorted(rates[1:]), [0.08765, 0.08765, 0.08908, 0.09006], atol=1e-5)

    def test_g_counts_mirror_f(self):
        _, rf = enumerate_basic(4, CompClass.F)
        _, rg = enumerate_basic(4, CompClass.G)
        assert len(rf) == len(rg)
        assert rf == rg

    @pytest.mark.parametrize("n", range(0, 9))
    def test_matches_dp_optimum(self, tables, n):
        for cls, tab in ((CompClass.S, tables.s_rate), (CompClass.F, tables.f_rate)):
            best, _ = enumerate_basic(n, cls)
            assert abs(best.rate - tab[n + 1]) <= 1e-14

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            enumerate_basic(13, CompClass.S)


class TestAsymptotics:
    def test_exponent_value(self):
        assert P_EXPONENT == pytest.approx(math.log2(1.0 + SQ2), rel=1e-15)
        assert P_EXPONENT == pytest.approx(1.27155, abs=1e-5)

    def test_r_level_zero_is_one(self, tables):
        assert r_constant(CompClass.S, 0, tables) == 1.0
        assert r_constant(CompClass.F, 0, tables) == 1.0

    def test_r_f_strictly_decreasing(self, tables):
        vals = [r_constant(CompClass.F, k, tables) for k in range(9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_r_s_converges_upward_to_its_limit(self, tables):
        # the s-side block constants rise from 1 toward ~1.00723
        vals = [r_constant(CompClass.S, k, tables) for k in range(9)]
        assert vals[1] > vals[0]
        assert all(1.0 <= v < 1.0073 for v in vals)
        assert vals[-1] == pytest.approx(1.00723, abs=2e-5)

    def test_r_requires_coverage(self, tables):
        with pytest.raises(ScheduleError):
            r_constant(CompClass.S, 12, tables)
        with pytest.raises(ScheduleError):
            r_constant(CompClass.G, 1, tables)

    def test_c_low_value_and_residual(self):
        c = c_low()
        assert c == pytest.approx(0.4208, abs=2e-4)
        # residual of the defining minimization at the returned point
        from stepweaver.schedule import _fgjoin_rate
        from stepweaver.numerics import golden_min

        lam = np.arange(1e-3, 1.0, 1e-3)
        vals = _fgjoin_rate(lam ** (-P_EXPONENT), c * (1.0 - lam) ** (-P_EXPONENT))
        i = int(np.argmin(vals))
        _, refined = golden_min(
            lambda t: float(
                _fgjoin_rate(t ** (-P_EXPONENT), c * (1.0 - t) ** (-P_EXPONENT))
            ),
            lam[i - 1],
            lam[i + 1],
            tol=1e-12,
        )
        assert abs(c - min(refined, float(vals[i]))) < 1e-10

    def test_inner_objective_sanity_points(self):
        # at lambda = 1/2 with c = 1 the objective is (1+sqrt2) * (1 |> 1)
        from stepweaver.schedule import JoinOp, join_step

        val = join_step(JoinOp.FJOIN, 2.0**P_EXPONENT, 2.0**P_EXPONENT)[1]
        assert val == pytest.approx((1.0 + SQ2) / 4.0, rel=1e-14)

    def test_bundle(self, tables):
        consts = asymptotic_constants(4, tables)
        assert isinstance(consts, AsymptoticConstants)
        assert set(consts.r_obs_s) == set(range(5))
        assert consts.c_low == pytest.approx(0.4208, abs=2e-4)

    def test_dyadic_block_bound_on_rates(self, tables):
        # rate[n] <= R_k * (1 + 2^-k)^p / n^p for n >= 2^(k+1)
        for k in (1, 2, 3):
            rk = r_constant(CompClass.S, k, tables)
            ns = np.arange(2 ** (k + 1), 513)
            bound = rk * (1.0 + 0.5**k) ** P_EXPONENT / ns.astype(float) ** P_EXPONENT
            assert np.all(tables.s_rate[ns] <= bound * (1.0 + 1e-12))


class TestDyadicSpotChecks:
    """rate[2m] <= rate[m]/(1+sqrt2) for every m in 1..256: the dyadic upper
    bound of a self-join, on the whole 512-row fixture."""

    def test_doubling_inequality_s(self, tables):
        m = np.arange(1, 257)
        assert np.all(tables.s_rate[2 * m] <= tables.s_rate[m] / PHI * (1.0 + 1e-12))

    def test_doubling_inequality_f(self, tables):
        m = np.arange(1, 257)
        assert np.all(tables.f_rate[2 * m] <= tables.f_rate[m] / PHI * (1.0 + 1e-12))


class TestCache:
    def test_round_trip(self, tables, tmp_path):
        path = save_tables(tables, str(tmp_path))
        loaded = load_tables(path)
        assert loaded.n_max == tables.n_max
        assert np.array_equal(loaded.s_rate[1:], tables.s_rate[1:])
        assert np.array_equal(loaded.f_split, tables.f_split)

    def test_load_or_build_uses_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STEPWEAVER_CACHE", str(tmp_path))
        t1 = load_or_build(32)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        t2 = load_or_build(32)
        assert np.array_equal(t1.s_rate[1:], t2.s_rate[1:])

    def test_save_leaves_only_the_cache_file(self, tables, tmp_path):
        path = save_tables(tables, str(tmp_path))
        save_tables(tables, str(tmp_path))  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(path)]

    def test_save_never_shrinks_the_file(self, tmp_path):
        """A process saving smaller tables after another extended the file
        keeps the larger file; an invalid file is still replaced."""
        path = save_tables(build_tables(40), str(tmp_path))
        assert save_tables(build_tables(10), str(tmp_path)) == path
        assert load_tables(path).n_max == 40
        assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(path)]
        with open(path, "wb") as fh:
            fh.write(b"not a zip")
        save_tables(build_tables(10), str(tmp_path))
        assert load_tables(path).n_max == 10

    def test_save_never_shrinks_either_table(self, tmp_path):
        """Tables with more s rows and tables with more f rows save to a
        file that holds the rows of both."""
        path = save_tables(optimizer._extend(None, 60, 1), str(tmp_path))
        save_tables(build_tables(30), str(tmp_path))
        _same_rows(load_tables(path), build_tables(60), 60, 30)
        save_tables(optimizer._extend(None, 20, 5), str(tmp_path))  # covered: the file is kept
        assert (load_tables(path).n_max, load_tables(path).f_max) == (60, 30)

    def test_older_cache_versions_are_ignored_not_deleted(self, tmp_path):
        assert CACHE_NAME == "obs-tables-v3.npz"
        old = tmp_path / "obs-tables-v2.npz"
        old.write_bytes(b"older tables")
        load_or_build(20, str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [old.name, CACHE_NAME]
        assert old.read_bytes() == b"older tables"

    @pytest.mark.parametrize("key", ["s_rate", "f_rate", "s_split", "f_split"])
    def test_short_array_rejected(self, tables, tmp_path, key):
        path = save_tables(tables, str(tmp_path))
        data = dict(np.load(path, allow_pickle=False))
        data[key] = data[key][:-1]
        np.savez(path, **data)
        with pytest.raises(ScheduleError, match="table size"):
            load_tables(path)

    def test_version_mismatch_rejected(self, tables, tmp_path):
        import json

        path = save_tables(tables, str(tmp_path))
        data = dict(np.load(path, allow_pickle=False))
        meta = json.loads(str(data["meta"]))
        meta["cache_version"] = 999
        data["meta"] = json.dumps(meta)
        np.savez(path, **data)
        with pytest.raises(ScheduleError, match="version"):
            load_tables(path)
