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
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as _pkg_version
from .numerics import golden_min
from .schedule import (
    DEFAULT_IDENTITY_TOL,
    CompClass,
    CompositionTree,
    JoinOp,
    LEAF,
    ResourceCapError,
    ScheduleError,
    StepSchedule,
    _fgjoin_rate,
    _s_side_first,
    _sjoin_rate,
    empty_schedule,
    join,
    join_rate,
    materialize,
    operand_classes,
    result_class,
    reverse,
)

# Exponent governing the n^-p decay of optimal rates; computed, never hard-coded.
P_EXPONENT = float(np.log2(1.0 + np.sqrt(2.0)))

MAX_TABLE_N = 20_001  # O(N^2) fill; ~2e4 is the supported envelope
MAX_ENUM_LEN = 12
CACHE_VERSION = 1


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
    identity_tol: float = DEFAULT_IDENTITY_TOL
    _memo: dict = field(default_factory=dict, repr=False)


def build_tables(n_max: int) -> RateTables:
    """Fill both tables up to ``n_max`` by exact O(N^2) dynamic programming.

    Split ties break to the smallest ``m`` (np.argmin returns the first
    minimum), which makes reconstruction deterministic.
    """
    if n_max < 1:
        raise ScheduleError(f"need n_max >= 1, got {n_max}")
    if n_max > MAX_TABLE_N:
        raise ResourceCapError(f"n_max {n_max} exceeds cap {MAX_TABLE_N} (O(N^2) fill)")
    s = np.empty(n_max + 1)
    f = np.empty(n_max + 1)
    s_split = np.zeros(n_max + 1, dtype=np.int64)
    f_split = np.zeros(n_max + 1, dtype=np.int64)
    s[0] = f[0] = np.nan
    s[1] = f[1] = 1.0
    for n in range(2, n_max + 1):
        a = s[1:n]
        cand = _sjoin_rate(a, a[::-1])
        i = int(np.argmin(cand))
        s[n] = cand[i]
        s_split[n] = i + 1
        candf = _fgjoin_rate(a, f[n - 1 : 0 : -1])
        j = int(np.argmin(candf))
        f[n] = candf[j]
        f_split[n] = j + 1
    return RateTables(n_max, s, f, s_split, f_split)


def _reconstruct(tables: RateTables, cls: CompClass, idx: int) -> StepSchedule:
    """Rebuild the optimal schedule for table row ``idx`` by following splits.

    Row ``n`` of class ``cls`` joins rows ``m`` and ``n - m`` with the class's
    join, whose operand classes come from the join typing table.  Iterative:
    resolve all needed rows bottom-up so deep split chains cannot overflow
    the stack.  Results are memoized on the tables object by ``(class, row)``.
    """
    columns = {
        CompClass.S: (JoinOp.SJOIN, tables.s_split, tables.s_rate),
        CompClass.F: (JoinOp.FJOIN, tables.f_split, tables.f_rate),
    }
    memo = tables._memo
    needed = set()
    work = [(cls, idx)]
    while work:
        key = work.pop()
        if key in memo or key in needed:
            continue
        needed.add(key)
        c, n = key
        if n > 1:
            op, split, _ = columns[c]
            m = int(split[n])
            lcls, rcls = operand_classes(op)
            work += [(lcls, m), (rcls, n - m)]
    # both operand rows of row n are shorter than n
    for c, n in sorted(needed, key=lambda key: (key[1], key[0].value)):
        op, split, rate = columns[c]
        if n == 1:
            h = empty_schedule(c)
        else:
            m = int(split[n])
            lcls, rcls = operand_classes(op)
            h = join(op, memo[lcls, m], memo[rcls, n - m], tables.identity_tol)
        if h.rate != rate[n]:
            raise ScheduleError(f"{c.value}-table reconstruction mismatch at row {n}")
        memo[c, n] = h
    return memo[cls, idx]


_SHARED_TABLES: "RateTables | None" = None


def get_tables(min_n: int) -> RateTables:
    """Shared, lazily grown table cache (values are independent of table size)."""
    global _SHARED_TABLES
    t = _SHARED_TABLES
    if t is None or t.n_max < min_n:
        size = max(min_n, 64 if t is None else 2 * t.n_max)
        if min_n <= MAX_TABLE_N:
            size = min(size, MAX_TABLE_N)  # doubling must not trip the cap itself
        _SHARED_TABLES = t = build_tables(size)
    return t


def _check_row(n: int, tables: "RateTables | None") -> RateTables:
    if n < 0:
        raise ScheduleError(f"length must be nonnegative, got {n}")
    if tables is None:
        if n + 1 > MAX_TABLE_N:
            raise ResourceCapError(f"length {n} exceeds the supported table envelope")
        return get_tables(n + 1)
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
    need = 2 ** (k_max + 1) - 1
    if tables is None:
        if need > MAX_TABLE_N:
            raise ResourceCapError(
                f"k_max={k_max} needs tables to n={need}; beyond the supported envelope"
            )
        tables = get_tables(need)
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


def _cache_name(n_max: int, identity_tol: float) -> str:
    return f"obs-tables-v{CACHE_VERSION}-N{n_max}-tol{identity_tol:g}.npz"


def save_tables(tables: RateTables, directory: str) -> str:
    """Write the tables to a versioned .npz cache file; returns the path."""
    os.makedirs(directory, exist_ok=True)
    meta = {
        "cache_version": CACHE_VERSION,
        "package_version": _pkg_version,
        "n_max": tables.n_max,
        "identity_tol": tables.identity_tol,
    }
    path = os.path.join(directory, _cache_name(tables.n_max, tables.identity_tol))
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
    """Load a cache written by :func:`save_tables`; validates the version key."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("cache_version") != CACHE_VERSION:
            raise ScheduleError(
                f"cache version mismatch: file has {meta.get('cache_version')}, "
                f"expected {CACHE_VERSION}"
            )
        t = RateTables(
            int(meta["n_max"]),
            data["s_rate"].copy(),
            data["f_rate"].copy(),
            data["s_split"].copy(),
            data["f_split"].copy(),
            float(meta["identity_tol"]),
        )
    if any(a.shape != (t.n_max + 1,) for a in (t.s_rate, t.f_rate, t.s_split, t.f_split)):
        raise ScheduleError("cache arrays do not match the declared table size")
    return t


def load_or_build(n_max: int, cache_dir: "str | None" = None) -> RateTables:
    """Fetch tables from the cache directory (``STEPWEAVER_CACHE`` by default),
    building and caching them on a miss.  An unreadable or mismatched cache
    file is rebuilt, with a warning on stderr.  With no cache directory
    configured, falls back to the in-process shared tables."""
    directory = cache_dir or os.environ.get(CACHE_ENV_VAR)
    if not directory:
        return get_tables(n_max)
    path = os.path.join(directory, _cache_name(n_max, DEFAULT_IDENTITY_TOL))
    if os.path.exists(path):
        try:
            tables = load_tables(path)
            if tables.n_max != n_max:
                raise ScheduleError(f"file holds n_max={tables.n_max}, expected {n_max}")
            return tables
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as err:
            print(f"warning: rebuilding table cache {path}: {err}", file=sys.stderr)
    tables = build_tables(n_max)
    save_tables(tables, directory)
    return tables
