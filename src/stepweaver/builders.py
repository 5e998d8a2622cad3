"""Recursive and closed-form schedule families built from the join algebra."""

import decimal

import numpy as np

from .numerics import bisect_root
from .schedule import (
    CompClass,
    CompositionTree,
    JoinOp,
    LEAF,
    ResourceCapError,
    ScheduleError,
    StepSchedule,
    UncertifiedScheduleError,
    empty_schedule,
    join,  # not called here; perfbench's traced layer map wraps builders.join
    join_step,
    materialize,
    operand_classes,
    result_class,
    reverse,
    validate_schedule,
)

# Length 2^k - 1 at level k: keep the doubling family under ~8 MB of steps.
MAX_SILVER_LEVEL = 20
# Longest schedule the extensions and the constant schedules build.
MAX_EXTEND_LEN = 100_000


def silver(k: int) -> StepSchedule:
    """Level-``k`` balanced self-join schedule of length ``2^k - 1``, class S.

    The tree of ``h = h >< h`` over the empty s-schedule, whose halves share
    one subtree at every level, materialized once.  Rate is ``(1+sqrt(2))^-k``.
    """
    if k < 0:
        raise ScheduleError(f"level must be nonnegative, got {k}")
    if k > MAX_SILVER_LEVEL:
        raise ResourceCapError(f"level {k} exceeds cap {MAX_SILVER_LEVEL} (length 2^k - 1)")
    tree = LEAF
    for _ in range(k):
        tree = CompositionTree(JoinOp.SJOIN, tree, tree)
    return materialize(tree, CompClass.S)


def right_heavy(k: int) -> StepSchedule:
    """Level-``k`` objective-gap schedule: prepend a silver block at each level.

    ``h(0)`` is empty; ``h(i+1) = silver(i) |> h(i)``.  Class F, length 2^k - 1.
    One tree, sharing each level's silver subtree, is materialized once.
    """
    if k < 0:
        raise ScheduleError(f"level must be nonnegative, got {k}")
    if k > MAX_SILVER_LEVEL:
        raise ResourceCapError(f"level {k} exceeds cap {MAX_SILVER_LEVEL}")
    tree = s = LEAF
    for _ in range(k):
        tree, s = CompositionTree(JoinOp.FJOIN, s, tree), CompositionTree(JoinOp.SJOIN, s, s)
    return materialize(tree, CompClass.F)


def left_heavy(k: int) -> StepSchedule:
    """Gradient-norm mirror of :func:`right_heavy`: ``h(i+1) = h(i) <| silver(i)``."""
    return reverse(right_heavy(k))


def sigma_seed() -> StepSchedule:
    """The two-step short-stepsize seed ``e <| (e >< e)``, class G, materialized from its tree."""
    return materialize(CompositionTree(JoinOp.GJOIN, LEAF, CompositionTree(JoinOp.SJOIN, LEAF, LEAF)), CompClass.G)


def _resolve_seed(seed) -> StepSchedule:
    if isinstance(seed, StepSchedule):
        return seed
    if seed == "empty":
        return empty_schedule(CompClass.G)
    if seed == "sigma":
        return sigma_seed()
    raise ScheduleError(f"unknown seed {seed!r}: expected 'empty', 'sigma', or a g-schedule")


def _extend(h: StepSchedule, n: int, op: JoinOp) -> StepSchedule:
    """Join the empty s-schedule onto ``h`` until it has length ``n``: after
    it with ``<|``, before it with ``|>``.

    Bit-identical to joining one step at a time, but only the rate is carried
    from step to step; the steps are concatenated and validated once.
    """
    cls = result_class(op)
    if h.comp_class is not cls:
        raise ScheduleError(f"seed must be class {cls.value}, got {h.comp_class.value}")
    validate_schedule(h)
    if n < h.n:
        raise ScheduleError(f"target length {n} is shorter than the seed ({h.n})")
    if n > MAX_EXTEND_LEN:
        raise ResourceCapError(f"length {n} exceeds cap {MAX_EXTEND_LEN}")
    if n == h.n:
        return h
    if h.conjectured:
        raise UncertifiedScheduleError("cannot extend a conjectured seed: its class is unproven")
    seed_first = operand_classes(op)[0] is cls  # <| joins after the seed, |> before it
    order = (lambda seed, s: (seed, s)) if seed_first else (lambda seed, s: (s, seed))
    rate, tree = h.rate, h.tree
    mus = []
    for _ in range(n - h.n):
        mu, rate = join_step(op, *order(rate, 1.0))  # the empty s-side has rate 1
        mus.append(mu)
        if tree is not None:
            tree = CompositionTree(op, *order(tree, LEAF))
    steps = [h.steps, mus] if seed_first else [mus[::-1], h.steps]
    out = StepSchedule(np.concatenate(steps), cls, rate, tree)
    validate_schedule(out)
    return out


def dynamic_short(n: int, seed="empty") -> StepSchedule:
    """Extend a g-class seed to length ``n`` by joining the empty schedule.

    Each appended step lands in ``(0, 2)``, so the objective value decreases
    monotonically along the run.  The appended steps satisfy the closed-form
    recurrence ``mu' = (3 - 2*mu + sqrt(9 - 4*mu)) / (2*(2 - mu))`` with rate
    ``(2 - mu)/2``, which :func:`short_step_recurrence` exposes for checks.
    """
    return _extend(_resolve_seed(seed), n, JoinOp.GJOIN)


def f_extend(n: int, seed=None) -> StepSchedule:
    """Objective-gap counterpart of :func:`dynamic_short`: prepend empty f-joins.

    Equals the reversal of :func:`dynamic_short` run from the reversed seed.
    """
    return _extend(empty_schedule(CompClass.F) if seed is None else seed, n, JoinOp.FJOIN)


def short_step_recurrence(n: int):
    """Closed-form (mu_i, eta_i) sequence for empty-seeded short steps from ``mu_1 = 3/2``.

    Independent of the join machinery; used to cross-check
    :func:`dynamic_short`.  Iterated in 50-digit decimal arithmetic: the
    recurrence stores the rate inside the difference 2 - mu, so a binary64
    iteration would drift by ~1e-12 after 100 steps and mask real errors.
    Returns float arrays of length ``n``.
    """
    if n < 1:
        raise ScheduleError("need n >= 1")
    mus = np.empty(n)
    etas = np.empty(n)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        two = decimal.Decimal(2)
        mu = decimal.Decimal("1.5")
        for i in range(n):
            mus[i] = float(mu)
            etas[i] = float((two - mu) / two)
            mu = (3 - 2 * mu + (9 - 4 * mu).sqrt()) / (2 * (two - mu))
    return mus, etas


def constant_optimal(comp_class: CompClass, n: int, unverified: bool = False) -> StepSchedule:
    """Best constant schedule of length ``n`` for the given class.

    The common step solves ``1/(1 + 2*h*n) = (h-1)^(2n)`` for classes G/F and
    ``1/(1 + h*n) = (h-1)^n`` for class S, on ``h in (1, 2)`` by bisection.
    Not join-built (no tree).  The S variant is proven only for n <= 2 and is
    flagged conjectured beyond that; the F variant is conjectured outright and
    requires ``unverified=True``.  Lengths above ``MAX_EXTEND_LEN`` raise
    ``ResourceCapError`` before the bisection.
    """
    if n < 1:
        raise ScheduleError(f"need n >= 1, got {n}")
    if n > MAX_EXTEND_LEN:
        raise ResourceCapError(f"length {n} exceeds cap {MAX_EXTEND_LEN}")
    if comp_class is CompClass.F and not unverified:
        raise UncertifiedScheduleError(
            "the constant f-class schedule is conjectural and carries no rate "
            "certificate; pass unverified=True to build it anyway"
        )
    c = 1 if comp_class is CompClass.S else 2  # the closed forms' factor, as in closed_form_rates
    hbar = bisect_root(lambda h: 1.0 / (1.0 + c * h * n) - (h - 1.0) ** (c * n), 1.0 + 1e-12, 2.0 - 1e-12, tol=1e-14)
    conjectured = n >= 3 if comp_class is CompClass.S else comp_class is CompClass.F
    out = StepSchedule(np.full(n, hbar), comp_class, 1.0 / (1.0 + c * hbar * n), tree=None, conjectured=conjectured)
    validate_schedule(out)
    return out
