"""Dynamic programs for rate-optimal join-built schedules and their asymptotics.

Tables are indexed by ``n`` where row ``n`` holds the best rate achievable by
a join-built schedule of length ``n - 1`` (so ``n`` counts the leaves of the
construction, and a split ``m`` composes rows ``m`` and ``n - m``).  The
convenience wrappers :func:`obs_s` / :func:`obs_f` / :func:`obs_g` take the
schedule *length* instead.
"""

import csv
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
    middle_step,
    operand_classes,
    result_class,
    reverse,
    validate_schedule,
)

# Exponent governing the n^-p decay of optimal rates; computed, never hard-coded.
P_EXPONENT = float(np.log2(1.0 + np.sqrt(2.0)))

MAX_TABLE_N = 20_001  # O(N^2) fill; ~2e4 is the supported envelope
MAX_ENUM_LEN = 12
CACHE_VERSION = 2


@dataclass(eq=False)
class RateTables:
    """DP memo of optimal s- and f-rates with the chosen split points.

    ``s_rate[n]`` / ``f_rate[n]`` hold the optimal rate at length ``n - 1``
    for n in [1, n_max]; index 0 is unused.  ``s_split[n]`` is the smallest
    minimizing ``m``; 0 marks the base row.
    """

    n_max: int
    s_rate: np.ndarray
    f_rate: np.ndarray
    s_split: np.ndarray
    f_split: np.ndarray


def _extend(tables: "RateTables | None", n_max: int) -> RateTables:
    """Tables to row ``n_max``: the rows of ``tables`` (default: the base row)
    copied, the rest filled by exact O(N^2) dynamic programming.

    Row ``n`` reads only rows below it, so any prefix extends to the bytes of
    a fresh fill.  Split ties break to the smallest ``m`` (np.argmin returns
    the first minimum), which makes reconstruction deterministic.
    """
    if n_max < 1:
        raise ScheduleError(f"need n_max >= 1, got {n_max}")
    if n_max > MAX_TABLE_N:
        raise ResourceCapError(f"n_max {n_max} exceeds cap {MAX_TABLE_N} (O(N^2) fill)")
    base, no_split = np.array([np.nan, 1.0]), np.zeros(2, dtype=np.int64)
    old = tables or RateTables(1, base, base, no_split, no_split)
    done = min(old.n_max, n_max)
    s, f, s_split, f_split = (
        np.concatenate((col[: done + 1], np.zeros(n_max - done, col.dtype)))
        for col in (old.s_rate, old.f_rate, old.s_split, old.f_split)
    )
    cols = (s, f, s_split, f_split, s * s, 4.0 * f)
    buf = tuple(np.empty(n_max) for _ in range(3))
    for n in range(done + 1, n_max + 1):
        _fill_row(n, cols, buf)
    return RateTables(n_max, s, f, s_split, f_split)


def _fill_row(n: int, cols: tuple, buf: tuple) -> None:
    """Fill row ``n`` of ``cols = (s, f, s_split, f_split, ss, f4)`` from the
    rows below it; ``ss = s*s`` and ``f4 = 4*f`` are kept up to date here.

    Bit-identical to ``argmin`` over ``_sjoin_rate(a, a[::-1])`` and
    ``_fgjoin_rate(a, f[n-1:0:-1])`` with ``a = s[1:n]``: the operations and
    their order are those of the join formulas, written into the scratch
    arrays ``buf``.  The s-join is exactly commutative, so split ``m`` and
    ``n - m`` tie and the first minimum lies in ``m <= n // 2``; only those
    splits are scanned.  The factor 2 of the numerator is applied to the
    minimum only, which is exact for the normal floats the rates are.
    """
    s, f, s_split, f_split, ss, f4 = cols
    h = n // 2
    p, d, t = (x[:h] for x in buf)
    m, rest = slice(1, h + 1), slice(n - 1, n - h - 1, -1)  # splits m and rows n - m
    np.multiply(s[m], s[rest], out=p)
    np.multiply(6.0, p, out=t)
    np.add(ss[m], ss[rest], out=d)
    np.add(d, t, out=d)
    np.sqrt(d, out=d)
    np.add(s[m], s[rest], out=t)
    np.add(t, d, out=d)
    np.divide(p, d, out=p)
    i = int(p.argmin())
    s[n] = 2.0 * p[i]
    s_split[n] = i + 1

    p, d, t = (x[: n - 1] for x in buf)
    m, rest = slice(1, n), slice(n - 1, 0, -1)
    np.multiply(s[m], f[rest], out=p)
    np.multiply(8.0, p, out=t)
    np.add(ss[m], t, out=d)
    np.sqrt(d, out=d)
    np.add(s[m], f4[rest], out=t)
    np.add(t, d, out=d)
    np.divide(p, d, out=p)
    j = int(p.argmin())
    f[n] = 2.0 * p[j]
    f_split[n] = j + 1
    ss[n] = s[n] * s[n]
    f4[n] = 4.0 * f[n]


def build_tables(n_max: int) -> RateTables:
    """Fill both tables up to ``n_max`` from scratch (see :func:`_extend`)."""
    return _extend(None, n_max)


def _reconstruct(tables: RateTables, cls: CompClass, idx: int) -> StepSchedule:
    """Rebuild the optimal schedule for table row ``idx`` by following splits.

    Row ``n`` of class ``cls`` joins rows ``m`` and ``n - m`` with the class's
    join, whose operand classes come from the join typing table.  Iterative,
    so deep split chains cannot overflow the stack.  A row is its steps, tree
    and rate, and the rate must equal the table's; only the returned schedule
    is built and validated, and nothing is kept between calls.
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
            row = ((), LEAF, 1.0)
        else:
            m = int(split[n])
            if not 0 < m < n:  # operand rows must be shorter, or the walk never ends
                raise ScheduleError(f"{c.value}-table split {m} out of range at row {n}")
            left, right = rows.get((lcls, m)), rows.get((rcls, n - m))
            if left is None or right is None:
                work += [key, (lcls, m), (rcls, n - m)]  # resolve the operand rows first
                continue
            (lsteps, ltree, lrate), (rsteps, rtree, rrate) = left, right
            mu = middle_step(op, lrate, rrate)  # both joins take the s-side operand on the left
            row = (lsteps + (mu,) + rsteps, CompositionTree(op, ltree, rtree, mu), join_rate(op, lrate, rrate))
        if row[2] != rate[n]:
            raise ScheduleError(f"{c.value}-table reconstruction mismatch at row {n}")
        rows[key] = row
    steps, tree, h_rate = rows[cls, idx]
    out = StepSchedule(steps, cls, h_rate, tree)
    validate_schedule(out)
    return out


_SHARED_TABLES: "RateTables | None" = None


def get_tables(min_n: int) -> RateTables:
    """Shared in-process tables, extended to exactly ``min_n`` rows when shorter."""
    global _SHARED_TABLES
    if _SHARED_TABLES is None or _SHARED_TABLES.n_max < min_n:
        _SHARED_TABLES = _extend(_SHARED_TABLES, min_n)
    return _SHARED_TABLES


def _check_row(n: int, tables: "RateTables | None") -> RateTables:
    if n < 0:
        raise ScheduleError(f"length must be nonnegative, got {n}")
    tables = tables or get_tables(n + 1)
    if n + 1 > tables.n_max:
        raise ScheduleError(f"length {n} is beyond the table (n_max={tables.n_max})")
    return tables


def obs_s(n: int, tables: "RateTables | None" = None) -> StepSchedule:
    """Optimal join-built S-class schedule of length ``n``."""
    return _reconstruct(_check_row(n, tables), CompClass.S, n + 1)


def obs_f(n: int, tables: "RateTables | None" = None) -> StepSchedule:
    """Optimal join-built F-class schedule of length ``n``."""
    return _reconstruct(_check_row(n, tables), CompClass.F, n + 1)


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
    if tables.n_max < hi:
        raise ScheduleError(f"tables cover n_max={tables.n_max}, need {hi} for k={k}")
    ns = np.arange(2**k, 2 ** (k + 1))
    tab = tables.s_rate if comp_class is CompClass.S else tables.f_rate
    return float(np.max(tab[ns] * ns.astype(np.float64) ** P_EXPONENT))


def c_low(
    grid_step: float = 1e-3,
    inner_tol: float = 1e-12,
    fixed_point_tol: float = 1e-11,
    max_outer: int = 10_000,
) -> float:
    """Lower-envelope constant: the fixed point of

        c = min over lam in (0,1) of (lam^-p) |> (c * (1-lam)^-p)

    solved by fixed-point iteration from ``c = 0.5``.  The inner minimum is
    located on a coarse grid (validated to have a single local minimum, with
    a finer global grid as fallback) and polished by golden-section search.
    """
    p = P_EXPONENT
    lam = np.arange(grid_step, 1.0, grid_step)
    lam_pow = lam ** (-p)
    rem_pow = (1.0 - lam) ** (-p)

    def inner_min(c: float) -> float:
        vals = _fgjoin_rate(lam_pow, c * rem_pow)
        dips = np.nonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:]))[0]
        grid_l, grid_v = lam, vals
        if dips.size != 1:
            # coarse grid not unimodal: refine globally before polishing
            grid_l = np.arange(grid_step * 1e-2, 1.0, grid_step * 1e-2)
            grid_v = _fgjoin_rate(grid_l ** (-p), c * (1.0 - grid_l) ** (-p))
        i = int(np.argmin(grid_v))
        lo = grid_l[max(i - 1, 0)]
        hi = grid_l[min(i + 1, grid_l.size - 1)]
        _, val = golden_min(
            lambda t: float(_fgjoin_rate(t ** (-p), c * (1.0 - t) ** (-p))), lo, hi, tol=inner_tol
        )
        return min(val, float(grid_v[i]))

    c = 0.5
    for _ in range(max_outer):
        c_next = inner_min(c)
        if abs(c_next - c) < fixed_point_tol:
            return c_next
        c = c_next
    raise RuntimeError(
        f"fixed-point iteration did not converge in {max_outer} steps (last c={c!r})"
    )


def asymptotic_constants(k_max: int, tables: "RateTables | None" = None) -> AsymptoticConstants:
    """Block constants for k = 0..k_max plus the lower constant and exponent."""
    if tables is None:
        tables = get_tables(2 ** (k_max + 1) - 1)
    ks = range(k_max + 1)
    return AsymptoticConstants(
        r_obs_s={k: r_constant(CompClass.S, k, tables) for k in ks},
        r_obs_f={k: r_constant(CompClass.F, k, tables) for k in ks},
        c_low=c_low(),
        p=P_EXPONENT,
    )


def write_rate_csv(fh, n_rows: int, columns: dict) -> None:
    """Write rows ``n = 1..n_rows`` of rate tables as CSV: for each
    ``prefix -> table`` in ``columns``, the columns ``<prefix>rate`` and
    ``<prefix>normalized`` (``rate * n^p``), in 17 significant digits."""
    w = csv.writer(fh)
    w.writerow(["n", "length"] + [p + name for p in columns for name in ("rate", "normalized")])
    for n in range(1, n_rows + 1):
        row = [n, n - 1]
        for tab in columns.values():
            rate = float(tab[n])
            row += [format(rate, ".17g"), format(rate * n**P_EXPONENT, ".17g")]
        w.writerow(row)


# ---------------------------------------------------------------------------
# Table cache on disk.
# ---------------------------------------------------------------------------

CACHE_ENV_VAR = "STEPWEAVER_CACHE"
CACHE_NAME = f"obs-tables-v{CACHE_VERSION}.npz"
_CACHE_ERRORS = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)


def save_tables(tables: RateTables, directory: str) -> str:
    """Write the tables to the versioned .npz cache file; returns the path.
    A valid file with as many rows is kept: saving never shrinks the file."""
    os.makedirs(directory, exist_ok=True)
    meta = {"cache_version": CACHE_VERSION, "package_version": _pkg_version, "n_max": tables.n_max}
    path = os.path.join(directory, CACHE_NAME)
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
        try:  # another process may have extended the file meanwhile
            keep = os.path.exists(path) and load_tables(path).n_max >= tables.n_max
        except _CACHE_ERRORS:
            keep = False
        if not keep:
            os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def load_tables(path: str) -> RateTables:
    """Load a cache written by :func:`save_tables`.  Raises ScheduleError unless
    the version, size and shapes match, every split of row n >= 2 lies in
    [1, n - 1] and every rate in (0, 1]."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if not isinstance(meta, dict):
            raise ScheduleError(f"cache meta is not an object: {meta!r}")
        if meta.get("cache_version") != CACHE_VERSION:
            raise ScheduleError(
                f"cache version mismatch: file has {meta.get('cache_version')}, "
                f"expected {CACHE_VERSION}"
            )
        n_max = meta.get("n_max")
        if type(n_max) is not int or n_max < 1:
            raise ScheduleError(f"cache n_max must be a positive integer, got {n_max!r}")
        t = RateTables(
            n_max,
            data["s_rate"].astype(np.float64),
            data["f_rate"].astype(np.float64),
            data["s_split"].astype(np.int64),
            data["f_split"].astype(np.int64),
        )
    if any(a.shape != (n_max + 1,) for a in (t.s_rate, t.f_rate, t.s_split, t.f_split)):
        raise ScheduleError("cache arrays do not match the declared table size")
    n = np.arange(2, n_max + 1)
    for split in (t.s_split, t.f_split):
        if np.any((split[2:] < 1) | (split[2:] > n - 1)):
            raise ScheduleError("cache splits out of range")
    for rate in (t.s_rate, t.f_rate):
        if not np.all((rate[1:] > 0.0) & (rate[1:] <= 1.0)):
            raise ScheduleError("cache rates outside (0, 1]")
    return t


def load_or_build(n_max: int, cache_dir: "str | None" = None) -> RateTables:
    """Fetch tables from the cache directory (``STEPWEAVER_CACHE`` by default):
    its one file serves any request up to its size, and a larger request or a
    miss extends or builds it and replaces it.  An unreadable or invalid file
    is rebuilt, with a warning on stderr.  With no cache directory configured,
    falls back to the in-process shared tables."""
    directory = cache_dir or os.environ.get(CACHE_ENV_VAR)
    if not directory:
        return get_tables(n_max)
    path = os.path.join(directory, CACHE_NAME)
    tables = None
    if os.path.exists(path):
        try:
            tables = load_tables(path)
        except _CACHE_ERRORS as err:
            print(f"warning: rebuilding table cache {path}: {err}", file=sys.stderr)
    if tables is not None and tables.n_max >= n_max:
        return tables
    tables = build_tables(n_max) if tables is None else _extend(tables, n_max)
    save_tables(tables, directory)
    return tables
