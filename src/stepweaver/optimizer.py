"""Dynamic programs for rate-optimal join-built schedules and their asymptotics.

Tables are indexed by ``n`` where row ``n`` holds the best rate achievable by
a join-built schedule of length ``n - 1`` (so ``n`` counts the leaves of the
construction, and a split ``m`` composes rows ``m`` and ``n - m``).  The
convenience wrappers :func:`obs_s` / :func:`obs_f` / :func:`obs_g` take the
schedule *length* instead.

The fill is exact: each row's rate and split are those of a scan of every
split.  The s rows scan half the splits (the s-join is commutative); rows
from ``_PRUNE_MIN_ROW`` on scan only the window near the optimum that the
paper's lower envelope leaves.  The rows of a batch of up to 64 are scored
by a few kernel calls on Hankel blocks of the columns, and one check scores
their short splits at once (see :func:`_fill`).
"""

import json
import math
import os
import sys
import zipfile
from dataclasses import dataclass

import numpy as np

from . import __version__ as _pkg_version
from .numerics import golden_min
from .schedule import (
    CompClass,
    CompositionTree,
    JoinOp,
    LEAF,
    ResourceCapError,
    ScheduleError,
    StepSchedule,
    _fgjoin_rate,
    _sjoin_rate,
    fold_tree,
    join,  # not called here; perfbench's traced layer map wraps optimizer.join
    join_step,
    materialize,
    operand_classes,
    result_class,
    reverse,
    validate_schedule,
)

# Exponent governing the n^-p decay of optimal rates; computed, never hard-coded.
P_EXPONENT = float(np.log2(1.0 + np.sqrt(2.0)))

MAX_TABLE_N = 20_001  # O(N^2) fill; ~2e4 is the supported envelope
MAX_OBS_LEN = MAX_TABLE_N - 1  # a length-n schedule reads table row n + 1
MAX_LEVEL = (MAX_TABLE_N + 1).bit_length() - 2  # largest dyadic level k whose 2^(k+1) - 1 rows fit the cap
MAX_ENUM_LEN = 12
CACHE_VERSION = 3
C_LOW_GRID_STEP = 1e-3  # c_low: coarse lambda grid of the inner minimum
C_LOW_INNER_TOL = 1e-12  # c_low: golden-section tolerance of the inner minimum
C_LOW_FIXED_POINT_TOL = 1e-11
C_LOW_MAX_OUTER = 10_000


@dataclass(eq=False)
class RateTables:
    """DP memo of optimal s- and f-rates with the chosen split points.

    ``s_rate[n]`` holds the optimal s-rate at length ``n - 1`` for n in
    [1, n_max], and ``f_rate[n]`` the f-rate for n in [1, f_max], where
    ``f_max <= n_max`` is the size of the f columns (1: the base row only);
    index 0 is unused.  ``s_split[n]`` is the smallest minimizing ``m``; 0
    marks the base row.
    """

    n_max: int
    s_rate: np.ndarray
    f_rate: np.ndarray
    s_split: np.ndarray
    f_split: np.ndarray

    @property
    def f_max(self) -> int:
        return len(self.f_rate) - 1


_PAD = 64  # zeros below entry 0 of an operand column, which a Hankel block may reach (masked)


def _padded(size: int) -> np.ndarray:
    """A float64 column of ``size`` zeros, a view that starts ``_PAD`` zeros
    into its base (see :func:`_hankel`)."""
    return np.zeros(_PAD + size)[_PAD:]


def _hankel(col: np.ndarray, top: int, rows: int, width: int) -> np.ndarray:
    """The view ``out[i, j] = col[top + i - j]`` of a :func:`_padded` column."""
    return np.ndarray((rows, width), buffer=col.base, offset=8 * (_PAD + top), strides=(8, -8))


def _rows(rate: np.ndarray, split: np.ndarray, rows: int):
    """Copies of a rate and a split column cut or zero-padded to ``rows``,
    the rate column :func:`_padded`."""
    done = min(len(rate) - 1, rows)
    rate_col, split_col = _padded(rows + 1), np.zeros(rows + 1, split.dtype)
    rate_col[: done + 1], split_col[: done + 1] = rate[: done + 1], split[: done + 1]
    return rate_col, split_col


def _extend(tables: "RateTables | None", n_max: int, f_max: "int | None" = None) -> RateTables:
    """Tables of ``n_max`` s rows and ``f_max`` f rows (default ``n_max``):
    the rows of ``tables`` (default: the base rows) copied, the rest filled by
    exact O(N^2) dynamic programming (:func:`_fill`).

    Row ``n`` of the s-table reads only s rows below it, and row ``n`` of the
    f-table only the rows below it of both, so the s-table fills alone and
    any prefix extends to the bytes of a fresh fill.
    """
    f_max = n_max if f_max is None else f_max
    if n_max < 1:
        raise ScheduleError(f"need n_max >= 1, got {n_max}")
    if n_max > MAX_TABLE_N:
        raise ResourceCapError(f"n_max {n_max} exceeds cap {MAX_TABLE_N} (O(N^2) fill)")
    if not 1 <= f_max <= n_max:
        raise ScheduleError(f"need 1 <= f_max <= n_max = {n_max}, got {f_max}")
    base, no_split = np.array([np.nan, 1.0]), np.zeros(2, dtype=np.int64)
    old = tables or RateTables(1, base, base, no_split, no_split)
    held_s, held_f = min(old.n_max, n_max), min(old.f_max, f_max)
    # built per fill, before the columns: neither they nor their scratch arrays
    # stay in the heap between fills or under the fill's peak
    s_bounds = _envelope_bounds(_sjoin_rate, 1.0, 0.5) if held_s < n_max and n_max >= _PRUNE_MIN_ROW else None
    f_bounds = _envelope_bounds(_fgjoin_rate, _ENVELOPE_RHO) if held_f < f_max and f_max >= _PRUNE_MIN_ROW else None
    s, s_split = _rows(old.s_rate, old.s_split, n_max)
    f, f_split = _rows(old.f_rate, old.f_split, f_max)
    ss = _padded(n_max + 1)
    _multiply(s, s, ss)
    # the blocks of every scan and check; _scan grows them for a row wider than a block
    buf = [np.empty(_SCAN_BLOCK) for _ in range(3)]
    lows = [_normalized_min(s, 1, held_s), math.nan]
    if held_s < n_max:
        _fill(_Table(CompClass.S, s, s_split, s, ss, s_bounds, lows), held_s + 1, n_max, buf)
    del s_bounds  # not held under the f fill's peak
    if held_f < f_max:
        lows[1] = _normalized_min(f, 1, held_f)
        f *= 4.0  # the f fill keeps 4f, the kernel's quotient; scaling by 4 is exact
        _fill(_Table(CompClass.F, f, f_split, s, ss, f_bounds, lows), held_f + 1, f_max, buf)
        f *= 0.25
    return RateTables(n_max, s, f, s_split, f_split)


def _normalized_min(rate: np.ndarray, first: int, last: int) -> float:
    """Least ``rate[k] * k^p`` over rows ``first..last`` (nan if one is nan)."""
    k = np.arange(float(first), last + 1)
    np.power(k, P_EXPONENT, k)
    np.multiply(k, rate[first : last + 1], k)
    return float(k.min())


_multiply, _add, _sqrt, _divide = np.multiply, np.add, np.sqrt, np.divide
_SIX = np.array(6.0)  # numpy converts a Python float on every call


def _s_kernel(a, aa, x, y, p, d, t) -> None:
    """Half the s-join rates of rows ``a`` and ``x`` (squares ``aa``, ``y``)
    into ``p``, in the join formula's operations."""
    _multiply(a, x, p)
    _multiply(_SIX, p, t)
    _add(aa, y, d)
    _add(d, t, d)
    _sqrt(d, d)
    _add(a, x, t)
    _add(t, d, d)
    _divide(p, d, p)


def _f_kernel(a, aa, x, y, p, d, t) -> None:
    """Four times the f-join rates of s rows ``a`` and the f rows of ``x =
    8f``, ``y = 4f``: 8 times the join formula's numerator and quotient."""
    _multiply(a, x, p)
    _add(aa, p, d)
    _sqrt(d, d)
    _add(a, y, t)
    _add(t, d, d)
    _divide(p, d, p)


class _Table:
    """One table in a fill: split ``m`` of row ``n`` joins s row ``m`` with
    row ``n - m`` of ``rate`` (operand columns ``x``, ``y``), whose rate is
    ``scale * unit`` times the kernel's least quotient.  ``lows`` holds
    ``L_s`` and ``L_f``, the least ``rate[k] k^p`` of the rows that stand."""

    __slots__ = ("rate", "split", "x", "y", "s", "ss", "bounds", "lows", "own", "half", "kernel", "scale", "unit", "den", "need")

    def __init__(self, cls, rate, split, s, ss, bounds, lows):
        self.rate, self.split, self.s, self.ss, self.bounds, self.lows = rate, split, s, ss, bounds, lows
        self.half = cls is CompClass.S  # split m and n - m tie exactly: scan m <= n // 2
        self.own, self.x, self.y = (0, rate, ss) if self.half else (1, _padded(len(rate)), rate)
        if not self.half:
            _multiply(rate, 2.0, self.x)
        self.kernel, self.scale, self.unit = (_s_kernel, 2.0, 1.0) if self.half else (_f_kernel, 1.0, 0.25)
        self.den = _ENVELOPE_CELLS * (2 if self.half else 1)  # bound cells per unit of m / n
        self.need = 0.0 if self.half else _ENVELOPE_RHO * (1.0 + _ENVELOPE_MARGIN)  # L_f >= rho L_s


def _scan(t: _Table, n: int, los: list, his: list, buf: list) -> None:
    """Rows ``n + i`` take the first minimum of their splits ``los[i]..his[i]``,
    each at least ``len(los)``, so that every split reads a row below ``n``.

    Consecutive rows whose union window fits the block, ``g`` rows of width
    ``w``, are scored by one kernel call on ``(g, w)`` Hankel views of the
    columns; each row's entries outside its window are set to +inf, and its
    ``argmin`` raised to its window start is the window's first minimum."""
    k, i = len(los), 0
    while i < k:
        a, b, j = los[i], his[i], i + 1
        if b - a >= len(buf[0]):  # one row wider than a block: the blocks grow to a full row
            buf[:] = (np.empty(len(t.rate) - 2) for _ in buf)
        size = len(buf[0])
        while j < k:  # row j joins if the rows times their union width still fit
            lo, hi = (los[j] if los[j] < a else a), (his[j] if his[j] > b else b)
            if (j - i + 1) * (hi - lo + 1) > size:
                break
            a, b, j = lo, hi, j + 1
        r, g, w = n + i, j - i, b - a + 1
        p, d, q = (z[: g * w] for z in buf)
        block = p.reshape(g, w)
        x, y = (_hankel(col, r - a, g, w) for col in (t.x, t.y))
        t.kernel(t.s[a : b + 1], t.ss[a : b + 1], x, y, block, d.reshape(g, w), q.reshape(g, w))
        end = 0
        for row, lo, hi in zip(range(0, g * w, w), los[i:j], his[i:j]):  # one row's end to the next's start
            p[end : row + lo - a] = np.inf
            end = row + hi - a + 1
        p[end:] = np.inf
        at = np.maximum(block.argmin(1), np.subtract(los[i:j], a))  # the window's start if all +inf
        v = p[at + np.arange(0, g * w, w)]
        v *= t.scale  # exact: a power of 2 times a normal float
        t.rate[r : r + g] = v
        t.split[r : r + g] = at + a
        if t.half:
            _multiply(v, v, t.y[r : r + g])
        else:
            _add(v, v, t.x[r : r + g])
        i = j


_BATCH_ROWS = 64
_SCAN_BLOCK = 1 << 15  # float64 entries of each scratch buffer of a fill


def _fill(t: _Table, first: int, last: int, buf: list) -> None:
    """Fill rows ``first..last``, each the first minimum over all its splits.

    In batches of ``k`` rows (up to ``_BATCH_ROWS``), each row scans every
    split below ``_PRUNE_MIN_ROW``, else only its window of :func:`_windows`,
    from split ``k`` on: those splits read only rows below the batch, so one
    :func:`_scan` scores the whole batch.  One kernel call on Hankel views of
    the columns then scores the splits ``m <= M`` of the batch, ``M`` covering
    each row's short span and every split below ``k``, which includes every
    split that reads a row of the batch.  A row's window minimum stands if
    each split checked below the window is strictly larger; the first row
    where one is not scans every split, and the fill goes on after it.  So
    each row checked reads only rows that stand."""
    n = first
    while n <= last:
        size, stop = len(buf[0]), last if n >= _PRUNE_MIN_ROW else min(last, _PRUNE_MIN_ROW - 1)
        k = max(1, min(_BATCH_ROWS, n // 8, math.isqrt(size), stop - n + 1))
        if t.bounds is not None and n >= _PRUNE_MIN_ROW:
            # checked splits are splits of every row of the batch, and fit buf
            shorts, los, his = _windows(t, n, k, min(n // 2 if t.half else n - 1, size // k))
        else:
            shorts, los, his = (0,), (1,) * k, [r // 2 if t.half else r - 1 for r in range(n, n + k)]
        los = [lo if lo > k else k for lo in los]  # each window ends at about n / 2 or later, above k
        _scan(t, n, los, his, buf)
        short = max(k - 1, *shorts)
        r = _check(t, n, short, los, buf) if short else 0
        if r:
            _scan(t, r, [1], [r // 2 if t.half else r - 1], buf)
        end = r or n + k - 1
        low, least = t.lows[t.own], _normalized_min(t.rate, n, end) * t.unit
        if least < low or least != least:  # a nan sticks
            t.lows[t.own] = least
        n = end + 1


def _check(t: _Table, n: int, short: int, los: list, buf: list) -> int:
    """The first row ``n + i`` with a split ``m <= short`` below its window
    start ``los[i]`` not rated above the row's rate (a nan included), or 0."""
    k = len(los)
    p, d, q = (b[: k * short].reshape(k, short) for b in buf)
    x, y = (_hankel(col, n - 1, k, short) for col in (t.x, t.y))
    t.kernel(t.s[1 : short + 1], t.ss[1 : short + 1], x, y, p, d, q)
    for i, lo in enumerate(los):
        if lo <= short:  # the window scanned these splits
            p[i, lo - 1 :] = np.inf
    fails = np.flatnonzero(~(p.min(1) * t.scale > t.rate[n : n + k]))
    return n + int(fails[0]) if fails.size else 0


# ---------------------------------------------------------------------------
# Lower-envelope pruning.
# ---------------------------------------------------------------------------
#
# The joins are homogeneous of degree 1 and increase in each operand.  With
# L_s <= s[k] k^p and L_f <= f[k] k^p over the rows held, split m of row n
# has rate >= L_s n^-p h(m/n): h(x) = J_f(x^-p, rho (1-x)^-p) for f, any
# rho <= L_f / L_s, and h(x) = J_s(x^-p, (1-x)^-p) on [0, 1/2] for s.  On
# the cell [x_i, x_i+1] of a grid, h >= lb_i = J(x_i+1^-p, rho (1-x_i)^-p),
# so a cell with L_s n^-p lb_i above the value v0 of one split of the row
# holds no split that can be the row's first minimum.

_PRUNE_MIN_ROW = 1024  # shorter rows scan every split: a window and a check cost more than they save
_ENVELOPE_RHO = 0.4208  # rho of the f bound table, just below c_low() = 0.42080935...
_ENVELOPE_CELLS = 4096
_ENVELOPE_MARGIN = 1e-9  # relative; covers the rounding of v0, n^p, the minima and the table


def _envelope_bounds(rate_of, rho: float, width: float = 1.0):
    """``(bound, i1, i2)``: lower bounds of
    ``h(x) = rate_of(x^-p, rho * (1-x)^-p)`` on the ``_ENVELOPE_CELLS``
    cells ``[x_i, x_i+1]`` of [0, ``width``], ``lb_i = rate_of(x_i+1^-p,
    rho * (1-x_i)^-p)``, valid for any join homogeneous of degree 1 and
    increasing in both operands.  None unless ``lb`` rises to cell ``i1``,
    falls to cell ``i2`` and rises to the end (``i2`` is the last cell if
    it only falls).  ``bound`` holds ``lb_i``, negated strictly inside the
    fall, so that each run is searched as an ascending sequence."""
    cells = _ENVELOPE_CELLS
    x = np.arange(cells + 1) / cells * width
    lb = rate_of(x[1:] ** -P_EXPONENT, rho * (1.0 - x[:-1]) ** -P_EXPONENT)
    step = np.diff(lb)
    down = np.flatnonzero(step < 0.0)
    i1 = int(down[0]) if down.size else cells - 1
    up = np.flatnonzero(step[i1:] > 0.0)
    i2 = i1 + int(up[0]) if up.size else cells - 1
    if np.any(step[i2:] < 0.0):
        return None
    lb[i1 + 1 : i2] *= -1.0
    return lb, i1, i2


def _windows(t: _Table, n: int, k: int, cap: int) -> tuple:
    """``(shorts, los, his)``: row ``n + i`` scans its splits
    ``los[i]..his[i]`` and leaves ``1..shorts[i]`` (at most ``cap``) to the
    check, covering each cell whose bound is at most ``v0 r^p / L_s`` (ends
    rounded outward).  ``v0`` is the value of the split at row ``n - 1``'s
    split ratio, with operands below the batch.  Every split when ``L_s <=
    0``, ``L_f < rho L_s`` or a nan."""
    r = np.arange(n, n + k)
    last = r // 2 if t.half else r - 1
    low_s = t.lows[0]
    if not (low_s > 0.0 and t.lows[t.own] >= t.need * low_s):
        return [0] * k, [1] * k, last.tolist()
    j = t.split.item(n - 1)
    m0 = (j * r + (n - 1) // 2) // (n - 1) if 0 < j < n - 1 else r // 2  # else: a split the fill did not write
    m0 = np.minimum(np.maximum(m0, r - n + 1), last)
    v0 = np.empty((3, k))
    t.kernel(t.s[m0], t.ss[m0], t.x[r - m0], t.y[r - m0], *v0)
    thr = v0[0] * (r ** P_EXPONENT * (t.scale * t.unit / (low_s * (1.0 - _ENVELOPE_MARGIN))))
    lb, i1, i2 = t.bounds
    a = np.searchsorted(lb[: i1 + 1], thr, "right")  # cells [0, a) of the first rise
    b = np.searchsorted(lb[i1 + 1 : i2], -thr) + (i1 + 1)  # cells [b, i2] of the fall (i2 if only i2)
    c = np.searchsorted(lb[i2:], thr, "right") + i2  # cells [i2, c) of the last rise
    short = np.minimum(-(-a * r // t.den), last)
    lo, hi = b * r // t.den, np.minimum(-(-c * r // t.den), last)
    # one span from split 1 when the spans meet, the short span is too long or there is no window
    full = (lo <= short + 1) | (short > cap) | (b >= c)
    return np.where(full, 0, short).tolist(), np.where(full, 1, lo).tolist(), np.where(b >= c, last, hi).tolist()


def build_tables(n_max: int) -> RateTables:
    """Fill both tables up to ``n_max`` from scratch (see :func:`_extend`)."""
    return _extend(None, n_max)


def _reconstruct(tables: RateTables, cls: CompClass, idx: int) -> StepSchedule:
    """Rebuild the optimal schedule for table row ``idx`` by following splits.

    Row ``n`` of class ``cls`` joins rows ``m`` and ``n - m`` with the class's
    join, whose operand classes come from the join typing table.  Iterative,
    so deep split chains cannot overflow the stack.  The walk builds each
    row's tree node once, a shape only; one :func:`fold_tree` of the
    returned row then gives every row's rate, which must equal the table's
    bit for bit (the first row that differs, in the walk's order of
    building, is named), and the steps.  Nothing is kept between calls.
    """
    columns = {  # class -> (join, split and rate columns, operand classes)
        CompClass.S: (JoinOp.SJOIN, tables.s_split, tables.s_rate, *operand_classes(JoinOp.SJOIN)),
        CompClass.F: (JoinOp.FJOIN, tables.f_split, tables.f_rate, *operand_classes(JoinOp.FJOIN)),
    }
    rows = {}  # (class, row) -> its tree node, children first
    work = [(cls, idx)]
    while work:
        key = c, n = work.pop()
        if key in rows:
            continue
        op, split, _, lcls, rcls = columns[c]
        if n == 1:
            rows[key] = LEAF
            continue
        m = int(split[n])
        if not 0 < m < n:  # operand rows must be shorter, or the walk never ends
            raise ScheduleError(f"{c.value}-table split {m} out of range at row {n}")
        left, right = rows.get((lcls, m)), rows.get((rcls, n - m))
        if left is None or right is None:
            work += [key, (lcls, m), (rcls, n - m)]  # resolve the operand rows first
            continue
        rows[key] = CompositionTree(op, left, right)
    tree = rows[cls, idx]
    fold = fold_tree(tree)
    for (c, n), node in rows.items():
        if fold.node(node)[0] != columns[c][2][n]:
            raise ScheduleError(f"{c.value}-table reconstruction mismatch at row {n}")
    out = StepSchedule(fold.steps, cls, fold.rate, tree)
    validate_schedule(out)
    return out


def _check_row(n: int, tables: "RateTables | None", f_table: bool) -> RateTables:
    """Tables holding row ``n + 1`` of the s-table, and of the f-table if
    ``f_table``; without ``tables``, those of :func:`load_or_build`."""
    if n < 0:
        raise ScheduleError(f"length must be nonnegative, got {n}")
    if n > MAX_OBS_LEN:
        raise ResourceCapError(f"length {n} exceeds the largest accepted length {MAX_OBS_LEN} (O(N^2) table fill)")
    tables = tables or load_or_build(n + 1, f_table=f_table)
    name, rows = ("f_max", tables.f_max) if f_table else ("n_max", tables.n_max)
    if n + 1 > rows:
        raise ScheduleError(f"length {n} is beyond the table ({name}={rows})")
    return tables


def obs_s(n: int, tables: "RateTables | None" = None) -> StepSchedule:
    """Optimal join-built S-class schedule of length ``n``."""
    return _reconstruct(_check_row(n, tables, f_table=False), CompClass.S, n + 1)


def obs_f(n: int, tables: "RateTables | None" = None) -> StepSchedule:
    """Optimal join-built F-class schedule of length ``n``."""
    return _reconstruct(_check_row(n, tables, f_table=True), CompClass.F, n + 1)


def obs_g(n: int, tables: "RateTables | None" = None) -> StepSchedule:
    """Optimal join-built G-class schedule of length ``n``: the reversed f-optimum."""
    return reverse(obs_f(n, tables))


# ---------------------------------------------------------------------------
# Brute-force enumeration oracle.
# ---------------------------------------------------------------------------


def enumerate_basic(n: int, comp_class: CompClass):
    """Exhaustively enumerate every well-typed construction of length ``n``.

    Returns ``(best_schedule, rates)`` where ``rates`` is the sorted list of
    rates over all constructions (the full multiset).  Independent of the DP:
    the only shared ingredient is the scalar join.  Guarded by a hard cap
    because the tree count grows super-exponentially.
    """
    if n < 0:
        raise ScheduleError(f"length must be nonnegative, got {n}")
    if n > MAX_ENUM_LEN:
        raise ResourceCapError(f"enumeration capped at length {MAX_ENUM_LEN}, got {n}")

    # s-trees are built for every class: they are the operands of |> and <|
    ops = [JoinOp.SJOIN]
    ops += [op for op in (JoinOp.FJOIN, JoinOp.GJOIN) if result_class(op) is comp_class]
    pairs = {cls: [[(LEAF, 1.0)]] for cls in (CompClass.S, comp_class)}
    for ln in range(1, n + 1):
        for op in ops:
            lefts, rights = (pairs[cls] for cls in operand_classes(op))
            # ordered by split m, then left, then right: this order fixes min's tie-break
            pairs[result_class(op)].append(
                [
                    (CompositionTree(op, left, right), join_step(op, lrate, rrate)[1])
                    for m in range(ln)
                    for left, lrate in lefts[m]
                    for right, rrate in rights[ln - 1 - m]
                ]
            )

    candidates = pairs[comp_class][n]
    best_tree, _ = min(candidates, key=lambda pair: pair[1])
    return materialize(best_tree, comp_class), sorted(rate for _, rate in candidates)


# ---------------------------------------------------------------------------
# Asymptotic constants.
# ---------------------------------------------------------------------------


@dataclass
class AsymptoticConstants:
    """Normalized-rate envelope constants: r maps dyadic level k to the block max."""

    r_obs_s: dict
    r_obs_f: dict
    c_low: float
    p: float


def r_constant(comp_class: CompClass, k: int, tables: RateTables) -> float:
    """Max of ``rate[n] * n^p`` over the dyadic block ``n in [2^k, 2^(k+1))``."""
    if comp_class not in (CompClass.S, CompClass.F):
        raise ScheduleError(f"block constants are defined for classes s and f, got {comp_class.value}")
    if k < 0:
        raise ScheduleError(f"need k >= 0, got {k}")
    hi = 2 ** (k + 1) - 1
    tab = tables.s_rate if comp_class is CompClass.S else tables.f_rate
    if len(tab) <= hi:
        raise ScheduleError(f"{comp_class.value}-table covers {len(tab) - 1} rows, need {hi} for k={k}")
    ns = np.arange(2**k, 2 ** (k + 1))
    return float(np.max(tab[ns] * ns.astype(np.float64) ** P_EXPONENT))


def c_low() -> float:
    """Lower-envelope constant: the fixed point of

        c = min over lam in (0,1) of (lam^-p) |> (c * (1-lam)^-p)

    solved by fixed-point iteration from ``c = 0.5``.  The inner minimum is
    located on a coarse grid, which has a single dip at every iterate, and
    polished by golden-section search.
    """
    p, grid_step = P_EXPONENT, C_LOW_GRID_STEP
    lam = np.arange(grid_step, 1.0, grid_step)
    lam_pow = lam ** (-p)
    rem_pow = (1.0 - lam) ** (-p)

    def inner_min(c: float) -> float:
        vals = _fgjoin_rate(lam_pow, c * rem_pow)
        i = int(np.argmin(vals))
        lo = lam[max(i - 1, 0)]
        hi = lam[min(i + 1, lam.size - 1)]
        _, val = golden_min(
            lambda t: float(_fgjoin_rate(t ** (-p), c * (1.0 - t) ** (-p))), lo, hi, tol=C_LOW_INNER_TOL
        )
        return min(val, float(vals[i]))

    c = 0.5
    for _ in range(C_LOW_MAX_OUTER):
        c_next = inner_min(c)
        if abs(c_next - c) < C_LOW_FIXED_POINT_TOL:
            return c_next
        c = c_next
    raise RuntimeError(
        f"fixed-point iteration did not converge in {C_LOW_MAX_OUTER} steps (last c={c!r})"
    )


def asymptotic_constants(k_max: int, tables: "RateTables | None" = None) -> AsymptoticConstants:
    """Block constants for k = 0..k_max plus the lower constant and exponent."""
    if k_max < 0:
        raise ScheduleError(f"need k_max >= 0, got {k_max}")
    if k_max > MAX_LEVEL:
        raise ResourceCapError(f"level {k_max} exceeds the largest accepted level {MAX_LEVEL} (O(4^k) table fill)")
    if tables is None:
        tables = load_or_build(2 ** (k_max + 1) - 1)
    ks = range(k_max + 1)
    return AsymptoticConstants(
        r_obs_s={k: r_constant(CompClass.S, k, tables) for k in ks},
        r_obs_f={k: r_constant(CompClass.F, k, tables) for k in ks},
        c_low=c_low(),
        p=P_EXPONENT,
    )


def write_rate_csv(fh, n_rows: int, columns: dict) -> None:
    """Write rows ``n = 1..n_rows`` of rate tables as CSV with ``\\r\\n`` line
    ends: for each ``prefix -> table`` in ``columns``, the columns
    ``<prefix>rate`` and ``<prefix>normalized`` (``rate * n^p``), in 17
    significant digits.  ``n^p`` is Python's float power: numpy's ``power``
    differs from it in the last bit for some n.  Each normalized column is
    one elementwise multiply, the same IEEE product as in Python floats."""
    names = [p + name for p in columns for name in ("rate", "normalized")]
    line = "%d,%d" + ",%.17g,%.17g" * len(columns) + "\r\n"
    ns = range(1, n_rows + 1)
    scale = np.array([n**P_EXPONENT for n in ns])
    values = []
    for tab in columns.values():
        rate = tab[1 : n_rows + 1]
        values += [rate.tolist(), (rate * scale).tolist()]
    fh.write(",".join(["n", "length"] + names) + "\r\n")
    fh.writelines(map(line.__mod__, zip(ns, range(n_rows), *values)))


# ---------------------------------------------------------------------------
# Table cache on disk.
# ---------------------------------------------------------------------------

CACHE_ENV_VAR = "STEPWEAVER_CACHE"
CACHE_NAME = f"obs-tables-v{CACHE_VERSION}.npz"
_CACHE_ERRORS = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)


def save_tables(tables: RateTables, directory: str) -> str:
    """Write the tables to the versioned .npz cache file; returns the path.
    Saving never shrinks either table: a valid file that holds as many rows
    of both is kept, and the rows it holds beyond ``tables`` are written too."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, CACHE_NAME)
    try:  # another process may have extended the file meanwhile
        held = load_tables(path) if os.path.exists(path) else None
    except _CACHE_ERRORS:
        held = None
    if held is not None:
        if held.n_max >= tables.n_max and held.f_max >= tables.f_max:
            return path
        s = held if held.n_max > tables.n_max else tables
        f = held if held.f_max > tables.f_max else tables
        tables = RateTables(s.n_max, s.s_rate, f.f_rate, s.s_split, f.f_split)
    meta = {
        "cache_version": CACHE_VERSION,
        "package_version": _pkg_version,
        "n_max": tables.n_max,
        "f_max": tables.f_max,
    }
    # write beside the target, then rename: a reader never sees half a file
    # (np.savez appends .npz to a name without it)
    tmp = f"{path}.{os.getpid()}.tmp.npz"
    try:
        np.savez(
            tmp,
            s_rate=tables.s_rate,
            f_rate=tables.f_rate,
            s_split=tables.s_split,
            f_split=tables.f_split,
            meta=json.dumps(meta),
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def load_tables(path: str) -> RateTables:
    """Load a cache written by :func:`save_tables`.  Raises ScheduleError unless
    the version, sizes and shapes match, ``1 <= f_max <= n_max``, and every
    row the file holds is valid: the base row has rate 1 and split 0, every
    split of row n >= 2 lies in [1, n - 1] and every rate in (0, 1]."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if not isinstance(meta, dict):
            raise ScheduleError(f"cache meta is not an object: {meta!r}")
        if meta.get("cache_version") != CACHE_VERSION:
            raise ScheduleError(
                f"cache version mismatch: file has {meta.get('cache_version')}, "
                f"expected {CACHE_VERSION}"
            )
        n_max, f_max = meta.get("n_max"), meta.get("f_max")
        for name, rows in (("n_max", n_max), ("f_max", f_max)):
            if type(rows) is not int or rows < 1:
                raise ScheduleError(f"cache {name} must be a positive integer, got {rows!r}")
        if f_max > n_max:
            raise ScheduleError(f"cache f_max {f_max} exceeds n_max {n_max}")
        t = RateTables(
            n_max,
            data["s_rate"].astype(np.float64),
            data["f_rate"].astype(np.float64),
            data["s_split"].astype(np.int64),
            data["f_split"].astype(np.int64),
        )
    for rate, split, rows in ((t.s_rate, t.s_split, n_max), (t.f_rate, t.f_split, f_max)):
        if rate.shape != (rows + 1,) or split.shape != (rows + 1,):
            raise ScheduleError("cache arrays do not match the declared table size")
        if rate[1] != 1.0 or split[1] != 0:
            raise ScheduleError("cache base row is not rate 1 with split 0")
        if np.any((split[2:] < 1) | (split[2:] > np.arange(1, rows))):
            raise ScheduleError("cache splits out of range")
        if not np.all((rate[1:] > 0.0) & (rate[1:] <= 1.0)):
            raise ScheduleError("cache rates outside (0, 1]")
    return t


_SHARED_TABLES: "RateTables | None" = None


def _served(tables: "RateTables | None", n_max: int, f_max: int) -> RateTables:
    """``tables`` if it holds ``n_max`` s rows and ``f_max`` f rows, else the
    tables extended to hold them (built when there are none)."""
    if tables is None:
        return build_tables(n_max) if f_max == n_max else _extend(None, n_max, f_max)
    if tables.n_max >= n_max and tables.f_max >= f_max:
        return tables
    return _extend(tables, max(tables.n_max, n_max), max(tables.f_max, f_max))


def load_or_build(n_max: int, cache_dir: "str | None" = None, f_table: bool = True) -> RateTables:
    """Tables of at least ``n_max`` s rows, and as many f rows if ``f_table``
    (an s-class request never fills the f-table), the one accessor of the
    table store.  The cache directory (``STEPWEAVER_CACHE`` by default) holds
    one file that serves any request it covers; a request it does not cover
    fills the missing rows of each table and replaces it, and an unreadable
    or invalid file is rebuilt with a warning on stderr.  With no directory
    configured: the in-process shared tables, extended likewise."""
    global _SHARED_TABLES
    f_max = n_max if f_table else 1
    directory = cache_dir or os.environ.get(CACHE_ENV_VAR)
    if not directory:
        _SHARED_TABLES = _served(_SHARED_TABLES, n_max, f_max)
        return _SHARED_TABLES
    path = os.path.join(directory, CACHE_NAME)
    tables = None
    if os.path.exists(path):
        try:
            tables = load_tables(path)
        except _CACHE_ERRORS as err:
            print(f"warning: rebuilding table cache {path}: {err}", file=sys.stderr)
    served = _served(tables, n_max, f_max)
    if served is not tables:
        save_tables(served, directory)
    return served
