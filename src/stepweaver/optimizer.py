"""Dynamic programs for rate-optimal join-built schedules and their asymptotics.

Tables are indexed by ``n`` where row ``n`` holds the best rate achievable by
a join-built schedule of length ``n - 1`` (so ``n`` counts the leaves of the
construction, and a split ``m`` composes rows ``m`` and ``n - m``).  The
convenience wrappers :func:`obs_s` / :func:`obs_f` / :func:`obs_g` take the
schedule *length* instead.
"""

import json
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
    _s_side_first,
    join,  # not called here; perfbench's traced layer map wraps optimizer.join
    join_rate,
    materialize,
    operand_classes,
    result_class,
    reverse,
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


def _rows(rate: np.ndarray, split: np.ndarray, rows: int):
    """Copies of a rate and a split column cut or zero-padded to ``rows``."""
    done = min(len(rate) - 1, rows)
    return (np.concatenate((col[: done + 1], np.zeros(rows - done, col.dtype))) for col in (rate, split))


def _extend(tables: "RateTables | None", n_max: int, f_max: "int | None" = None) -> RateTables:
    """Tables of ``n_max`` s rows and ``f_max`` f rows (default ``n_max``):
    the rows of ``tables`` (default: the base rows) copied, the rest filled by
    exact O(N^2) dynamic programming.

    Row ``n`` of the s-table reads only s rows below it, and row ``n`` of the
    f-table only the rows below it of both, so the s-table fills alone and
    any prefix extends to the bytes of a fresh fill.  Split ties break to the
    smallest ``m`` (np.argmin returns the first minimum), which makes
    reconstruction deterministic.
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
    s, s_split = _rows(old.s_rate, old.s_split, n_max)
    f, f_split = _rows(old.f_rate, old.f_split, f_max)
    ss = s * s
    buf = tuple(np.empty(max(n_max // 2, f_max - 1)) for _ in range(3))
    s_cols = (s, s_split, ss)
    for n in range(min(old.n_max, n_max) + 1, n_max + 1):
        _fill_s_row(n, s_cols, buf)
    f_cols = (s, f, f_split, ss, 4.0 * f)
    for n in range(min(old.f_max, f_max) + 1, f_max + 1):
        _fill_f_row(n, f_cols, buf)
    return RateTables(n_max, s, f, s_split, f_split)


def _fill_s_row(n: int, cols: tuple, buf: tuple) -> None:
    """Fill row ``n`` of ``cols = (s, s_split, ss)`` from the rows below it;
    ``ss = s*s`` is kept up to date here.

    Bit-identical to ``argmin`` over ``_sjoin_rate(a, a[::-1])`` with
    ``a = s[1:n]``: the operations and their order are those of the join
    formula, written into the scratch arrays ``buf``.  The s-join is exactly
    commutative, so split ``m`` and ``n - m`` tie and the first minimum lies
    in ``m <= n // 2``; only those splits are scanned.  The factor 2 of the
    numerator is applied to the minimum only, which is exact for the normal
    floats the rates are.  A row costs eight ufunc calls, so each operand is
    sliced once, ``out`` is passed by position and the scalar tail runs on
    Python floats (the same IEEE operations).
    """
    multiply, add, sqrt, divide = np.multiply, np.add, np.sqrt, np.divide
    s, s_split, ss = cols
    h = n // 2
    p, d, t = buf
    p, d, t = p[:h], d[:h], t[:h]
    m, rest = slice(1, h + 1), slice(n - 1, n - h - 1, -1)  # splits m and rows n - m
    a, b = s[m], s[rest]
    multiply(a, b, p)
    multiply(6.0, p, t)
    add(ss[m], ss[rest], d)
    add(d, t, d)
    sqrt(d, d)
    add(a, b, t)
    add(t, d, d)
    divide(p, d, p)
    i = p.argmin()
    v = 2.0 * p.item(i)
    s[n] = v
    s_split[n] = i + 1
    ss[n] = v * v


def _fill_f_row(n: int, cols: tuple, buf: tuple) -> None:
    """Fill row ``n`` of the f columns of ``cols = (s, f, f_split, ss, f4)``
    from the s and f rows below it; ``f4 = 4*f`` is kept up to date here.

    Bit-identical to ``argmin`` over ``_fgjoin_rate(s[1:n], f[n-1:0:-1])``,
    in the manner of :func:`_fill_s_row`, over all ``n - 1`` splits.
    """
    multiply, add, sqrt, divide = np.multiply, np.add, np.sqrt, np.divide
    s, f, f_split, ss, f4 = cols
    p, d, t = buf
    p, d, t = p[: n - 1], d[: n - 1], t[: n - 1]
    m, rest = slice(1, n), slice(n - 1, 0, -1)
    a = s[m]
    multiply(a, f[rest], p)
    multiply(8.0, p, t)
    add(ss[m], t, d)
    sqrt(d, d)
    add(a, f4[rest], t)
    add(t, d, d)
    divide(p, d, p)
    j = p.argmin()
    v = 2.0 * p.item(j)
    f[n] = v
    f_split[n] = j + 1
    f4[n] = 4.0 * v


def build_tables(n_max: int) -> RateTables:
    """Fill both tables up to ``n_max`` from scratch (see :func:`_extend`)."""
    return _extend(None, n_max)


def _reconstruct(tables: RateTables, cls: CompClass, idx: int) -> StepSchedule:
    """Rebuild the optimal schedule for table row ``idx`` by following splits.

    Row ``n`` of class ``cls`` joins rows ``m`` and ``n - m`` with the class's
    join, whose operand classes come from the join typing table.  Iterative,
    so deep split chains cannot overflow the stack.  The walk builds each
    row's tree once, with its rate, which must equal the table's; the
    steps come from one :func:`materialize` of the returned row's tree, and
    nothing is kept between calls.
    """
    columns = {  # class -> (join, split and rate columns, operand classes)
        CompClass.S: (JoinOp.SJOIN, tables.s_split, tables.s_rate, *operand_classes(JoinOp.SJOIN)),
        CompClass.F: (JoinOp.FJOIN, tables.f_split, tables.f_rate, *operand_classes(JoinOp.FJOIN)),
    }
    rows = {}
    work = [(cls, idx)]
    while work:
        key = c, n = work.pop()
        if key in rows:
            continue
        op, split, rate, lcls, rcls = columns[c]
        if n == 1:
            row = (LEAF, 1.0)
        else:
            m = int(split[n])
            if not 0 < m < n:  # operand rows must be shorter, or the walk never ends
                raise ScheduleError(f"{c.value}-table split {m} out of range at row {n}")
            left, right = rows.get((lcls, m)), rows.get((rcls, n - m))
            if left is None or right is None:
                work += [key, (lcls, m), (rcls, n - m)]  # resolve the operand rows first
                continue
            (ltree, lrate), (rtree, rrate) = left, right
            row = (CompositionTree(op, ltree, rtree), join_rate(op, *_s_side_first(op, lrate, rrate)))
        if row[1] != rate[n]:
            raise ScheduleError(f"{c.value}-table reconstruction mismatch at row {n}")
        rows[key] = row
    return materialize(rows[cls, idx][0], cls)


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
                    (CompositionTree(op, left, right), join_rate(op, *_s_side_first(op, lrate, rrate)))
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
