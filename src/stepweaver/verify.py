"""Numerical verification of certified rates.

Every class has a trace-level certificate inequality that is nonnegative on
any genuine 1-smooth convex run and zero on the class's tight instances:

* F: a weighted aggregation of per-point inequalities with weights ``v``
  built recursively from the construction tree (sum v = 1/eta);
* G: ``eta*(f_0 - f_n) - (1-eta)/2 * ||g_n||^2 >= 0``;
* S: ``sum h_i*(2(f_i - f_n) + ||g_i||^2 + 2<g_i, x_0 - x_i>)
        - ||x_n - x_0||^2 - (1-eta)/eta^2 * ||g_n||^2 >= 0``.

S-class schedules additionally certify objective-gap and gradient-norm
bounds with explicit residual terms that vanish on their tight instances.
Battery slacks (certificate and implied bounds) are divided by
max(1, ||x0||^2, f_0) before they meet ``slack_tol``, so mixed-scale random
instances are judged fairly.  The interpolation check is not rescaled: the
minimum of Q_ij over all pairs of the points 0..n and the minimizer,
evaluated in Gram form (rank-(d+2) matrix products; the rows are assembled
per sub-batch of instances and every product is written into one reused
buffer, all of bounded size), is compared with the absolute ``q_tol``.

From n = 255 on, each instance is taken alone: one routine computes every
product of it by blocks of rows, and the pairs that a rounding bound
(derived in ``_q_min_batched``) proves cannot hold its minimum are skipped;
an instance where the bound cannot be used skips nothing.  Its minima equal
the unpruned kernel's byte for byte on the tests' traces and on the
report-digest set, a tested fact and not a proof (see ``_q_min_batched``).

Every battery instance is one coordinate.  Each battery function is
separable, so the slacks and Q_ij of a d-dimensional instance are sums of
the same 1-D quantities over its coordinates: wider instances would refute
nothing more, and in a sum a failing coordinate can hide behind passing
ones.  One verification runs one GD loop, which stores only the points: the
packed battery and the class's tight 1-D instances (``(is_huber, param,
label)`` rows, run from ``x0 = 1``) take the schedule's steps, and the
reversed schedule's tight pair takes the reversed steps on a trailing
segment of the same coordinates.  Gradients and values are evaluated after
the loop, and the certificate slacks take their per-point terms by blocks
of points, so every class holds at most the points, the battery's
gradients, values and per-point terms and the interpolation kernel's
buffers.  One scorer turns the tight traces of either schedule, on the raw
arrays, into tightness checks: beside the cached battery, a verification
builds no ``ProblemInstance`` or ``GDTrace``.  A check that cannot be built
(say, a reversed schedule that breaks its identities) fails with NaN slack
and the error's text, and the battery runs without it.

Inner products sum over the coordinates with ``gd.coord_sum`` (the bits of
``np.add.reduce``, by one column add on many 1-D rows); the einsums of the
Gram rows stay, since their order differs from the reduce's at d >= 3.  A
carried construction tree is walked at most once per verification, by the
identity entry's ``schedule.check_tree`` once the closed forms hold.  Only
a tree that this entry proved feeds the F weights (its fold's per-node
rates and lengths; each ``|>`` node's S operand is a slice of its steps)
and the reversal check, which runs the reversed steps at the swapped class
and the same rate (``schedule.flip``) without mirroring the tree.
"""

import functools
import json
import math
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np

from .gd import (
    _VALUE_BLOCK,
    CoordForm,
    GDTrace,
    coord_form,
    coord_sum,
    descend,
    gradients,
    random_instance,
    random_x0,
    raw_run,  # not called here; the benchmark's traced run wraps verify.raw_run
    run,  # not called here; the benchmark's traced run wraps verify.run
    tight_delta,
    values,
)
from .io import RunConfig
from .schedule import (
    ClassMismatchError,
    CompClass,
    CompositionTree,
    IdentityError,
    ResourceCapError,
    ScheduleError,
    StepSchedule,
    TreeFold,
    _s_fg_ratio,
    check_tree,
    flip,
    fold_tree,
    reverse,  # not called here; the benchmark's traced run wraps verify.reverse
    validate_schedule,
)

# Most float64 values the one GD loop of a verification may hold: n+1 points
# of every battery coordinate and tight row, 256 MiB.  The default battery
# at n = 32767 takes 32768 x 206, about 6.75e6; battery 2000 at n = 255
# takes about 5.1e5.
MAX_TRACE_VALUES = 2**25


@dataclass(frozen=True)
class CertificateV:
    """Finite nonnegative aggregation weights for the F-class certificate,
    at a rate eta in (0, 1]."""

    weights: np.ndarray
    eta: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if not 0.0 < self.eta <= 1.0:  # NaN too
            raise IdentityError(f"certificate rate {self.eta!r} outside (0, 1]")
        if not np.isfinite(w).all():
            raise IdentityError("certificate weights must be finite")
        if (w < 0.0).any():
            raise IdentityError("certificate weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0 / self.eta) > 1e-10 / self.eta:
            raise IdentityError(f"certificate weights sum to {total!r}, expected 1/eta = {1.0 / self.eta!r}")


def build_f_certificate(tree: CompositionTree, fold: "TreeFold | None" = None) -> CertificateV:
    """Construct the certificate weights for an F-class construction tree.

    An F-class tree is a right spine of ``|>`` nodes ending in ``e``, each
    joining an S-subtree on its left.  Bottom-up along the spine: the ``e``
    carries ``v = [1]`` (any other leaf is refused, see
    ``schedule.empty_leaf``), and a ``|>`` node joining an S-subtree with
    steps ``a`` and rate alpha onto a certificate ``w`` at rate beta gives
    ``v = [a, 1 + 1/alpha, sqrt(beta/eta) * w]`` at the joined rate eta.  A
    spine node's subtree holds the last steps of the tree, so ``a`` and the
    node's middle step ``mu`` are read off the tree's steps, and the rates
    are the fold's: ``fold`` is the tree's ``schedule.fold_tree``, made here
    when not given.  The scaling factor is checked against its two
    algebraically equal forms ``beta/eta - 2*beta/alpha`` and
    ``alpha*beta*(mu-1)/eta``.
    """
    fold = fold_tree(tree) if fold is None else fold
    if CompClass.F not in fold.classes:
        raise ClassMismatchError("tree is not an f-class construction")
    spine = []
    while not tree.is_leaf:
        spine.append(tree)
        tree = tree.right
    v, beta, n = np.array([1.0]), 1.0, fold.steps.size
    for node in reversed(spine):
        (alpha, size), (eta, length) = fold.node(node.left), fold.node(node)
        start = n - length
        mu = fold.steps[start + size]
        scale = np.sqrt(beta / eta)
        alt1 = beta / eta - 2.0 * beta / alpha
        alt2 = alpha * beta * (mu - 1.0) / eta
        for alt in (alt1, alt2):
            if abs(scale - alt) > 1e-12 * scale:
                raise IdentityError(
                    f"certificate scaling identity violated: sqrt(beta/eta)={float(scale)!r} vs {float(alt)!r}"
                )
        a = fold.steps[start : start + size]
        v, beta = np.concatenate([a, [1.0 + 1.0 / alpha], scale * v]), eta
    return CertificateV(v, beta)


# ---------------------------------------------------------------------------
# Slack evaluations.  The raw forms accept batched arrays: X, G of shape
# (N, ..., d) and F of shape (N, ...); slacks come back with the batch shape.
# ---------------------------------------------------------------------------


def _dot(a, b):
    return coord_sum(a * b)


def _weighted_sum(v, a):
    """``sum_i v[i] * a[i]`` over the first axis of ``a`` for a 1-D ``v``:
    ``np.tensordot(v, a, axes=(0, 0))``, by the same reshape and 2-D
    ``np.dot`` that it runs, so the same BLAS call gives the same bits."""
    n, rest = v.shape[0], a.shape[1:]
    return np.dot(v.reshape(1, n), a.reshape(n, math.prod(rest))).reshape(rest)


def _point_terms(X, G, F, count):
    """``2(f_i - f_n) + ||g_i||^2 + 2<g_i, x_0 - x_i>`` of the first ``count``
    points, as an array of shape ``(count, ...)``.  The points are taken in
    blocks of at most ``_VALUE_BLOCK`` coordinates, so the temporaries of
    the per-point products stay that small; each entry gets the bits that
    the expression over all points at once gives it."""
    terms = np.empty((count,) + F.shape[1:])
    rows = max(1, _VALUE_BLOCK // max(1, X[0].size))
    for r in range(0, count, rows):
        s = slice(r, min(r + rows, count))
        terms[s] = 2.0 * (F[s] - F[-1]) + _dot(G[s], G[s]) + 2.0 * _dot(G[s], X[0] - X[s])
    return terms


def _f_cert_slack_raw(v, X, G, F):
    weighted = _weighted_sum(v, _point_terms(X, G, F, len(X)))
    combo = _weighted_sum(v, G)
    return weighted - _dot(combo, combo)


def _f_direct_slack_raw(eta, X, G, F):
    return eta * 0.5 * _dot(X[0], X[0]) - (F[-1] - 0.0)


def _g_slack_raw(eta, X, G, F):
    return eta * (F[0] - F[-1]) - 0.5 * (1.0 - eta) * _dot(G[-1], G[-1])


def _s_gradient_weight(eta: float) -> float:
    """``(1 - eta)/eta^2``, the weight of ``||g_n||^2`` in the S certificate.
    Where it is not finite (a rate below about 1.5e-154, whose square
    underflows, or a NaN) it raises a ``ScheduleError``."""
    weight = (1.0 - eta) / (eta * eta) if eta * eta != 0.0 else math.inf
    if not math.isfinite(weight):
        raise ScheduleError(f"the s certificate's weight (1 - eta)/eta^2 is not finite at rate {eta!r}")
    return weight


def _s_slack_raw(steps, eta, X, G, F):
    weighted = _weighted_sum(steps, _point_terms(X, G, F, len(X) - 1))
    diff = X[-1] - X[0]
    return weighted - _dot(diff, diff) - _s_gradient_weight(eta) * _dot(G[-1], G[-1])


def _s_fg_slacks_raw(steps, eta, X, G, F):
    r = _s_fg_ratio(eta)
    res_f = X[-1] - G[-1] / eta  # x* = 0
    f_resid = 0.5 * _dot(res_f, res_f)
    f_slack = r * (0.5 * _dot(X[0], X[0]) - f_resid) - F[-1]
    hg = _weighted_sum(steps, G[:-1])
    res_g = G[0] - eta * hg - eta * G[-1]
    g_resid = 0.5 * _dot(res_g, res_g)
    g_slack = r * (F[0] - g_resid) - 0.5 * _dot(G[-1], G[-1])
    return f_slack, g_slack, f_resid, g_resid


# The interpolation check works in pieces of at most this many float64
# entries (512 KiB): the rows P and R^T of a sub-batch of instances, and the
# one buffer every product is written into, so that all three stay in a
# core's L2 cache together (from n = 4095 on, the buffer holds the
# _LEAD_ROWS rows, and so more).
_PAIR_BLOCK = 2**16

# the rounding bound's constants, derived in _q_min_batched
_GAMMA, _ETA = 2.0**-30, 1e-300
# the first rows of an instance, computed against every column: their
# minimum is the entry that the bounds measure the other pairs against
_LEAD_ROWS = 16


def _gram_rows(X, G, F, P, Rt) -> None:
    """Write the Gram rows of an ``(n+1, m, d)`` trace into ``P`` of shape
    ``(m, N, d+2)`` and ``Rt`` of shape ``(m, d+2, N)``, where N is n+1, or
    n+2 with the star row last."""
    points, _, d = X.shape
    Xb, Gb, Fb = X.swapaxes(0, 1), G.swapaxes(0, 1), F.T
    gsq = np.einsum("bnd,bnd->bn", Gb, Gb)
    # elementwise work runs in the trace's own layout, then one strided copy
    P[:, :points, :d] = (G - X).swapaxes(0, 1)
    np.subtract(2.0 * Fb, gsq, out=P[:, :points, d])
    P[:, :, d + 1] = 1.0
    P[:, points:, : d + 1] = 0.0
    np.multiply(G.transpose(1, 2, 0), 2.0, out=Rt[:, :d, :points])
    Rt[:, :d, points:] = 0.0
    Rt[:, d] = 1.0
    np.subtract(2.0 * np.einsum("bnd,bnd->bn", Gb, Xb) - 2.0 * Fb, gsq, out=Rt[:, d + 1, :points])
    Rt[:, d + 1, points:] = 0.0


def _q_min_batched(X, G, F):
    """The ``(B,)`` minima, one per instance of an ``(n+1, B, d)`` trace, over
    all ordered pairs of the smooth-convex interpolation quantity
    Q_ij = 2f_i - 2f_j - 2<g_j, x_i - x_j> - ||g_i - g_j||^2.

    Gram form: Q_ij = a_i + b_j + 2<g_i - x_i, g_j> with a_i = 2f_i - ||g_i||^2
    and b_j = -2f_j + 2<g_j, x_j> - ||g_j||^2, so with rows
    P_i = [g_i - x_i, a_i, 1] and R_j = [2g_j, 1, b_j] the pair matrix is
    P @ R^T per instance.  The minimizer (x, g, f) = 0 is the last point,
    with P_* = [0, 0, 1] and R_* = [0, 1, 0].

    P and a contiguous R^T are assembled once per sub-batch of instances
    whose rows hold at most ``_PAIR_BLOCK`` entries.  Every product is
    written into one buffer, allocated once per call, of at most
    ``_PAIR_BLOCK`` entries or ``_LEAD_ROWS`` rows, whichever is larger.
    While an N x N matrix fits, a product covers several whole instances.
    Otherwise (N^2 > ``_PAIR_BLOCK``, so n >= 255) each instance is taken
    alone, and :func:`_product_min` takes every product of it, by blocks of
    rows that fill the buffer.  So memory stays O(B*N*d) beside a buffer of
    512 KiB through n = 4094 and 8*16*N bytes beyond (4 MiB at n = 32767);
    one product per instance would take 8*N^2 bytes (32 MiB at n = 2047,
    8 GiB at n = 32767).  A NaN reaches its instance's minimum and no other.

    A large instance skips the pairs that provably cannot hold its minimum.
    A computed entry q_ij = fl(P_i . R_j) is a sum of d + 2 rounded terms;
    in any order, FMA or not, it lies within (d+2)*2^-53 times the sum of
    the terms' magnitudes, plus (d+2)*2^-1075 for underflow, of the exact
    P_i . R_j.  With u_i = g_i - x_i and w_j = 2g_j, Hoelder's inequality
    (sum_k |u_ik w_jk| <= |u_i|_1 |w_j|_inf) gives

        |q_ij - P_i . R_j| <= GAMMA*(|a_i| + |b_j| + |u_i|_1 |w_j|_inf) + ETA

    with GAMMA = 2^-30 and ETA = 1e-300 far above those constants, so that
    the bounds also hold however they are rounded themselves.  With A,
    B, U, W the maxima of |a|, |b|, |u|_1 and |w|_inf over the points
    t..N-1:

    * every pair of the suffix S = {t..N-1} has |q_ij| <= mag[t] =
      (1+GAMMA)*(A + B + U*W) + ETA;
    * a row i < t against S has q_ij >= a_i - GAMMA*|a_i|
      - (1+GAMMA)*(B + |u_i|_1 W) - ETA, and a column j < t against S has
      q_ij >= b_j - GAMMA*|b_j| - (1+GAMMA)*(A + U |w_j|_inf) - ETA.

    ``best``, the minimum of the first ``_LEAD_ROWS`` rows against every
    column, is a computed entry, so a pair whose bound exceeds it cannot be
    the minimum.  The traces of a converging descent decay geometrically,
    so S, from the first t with mag[t] < -best, is often most of the
    points: rows ``_LEAD_ROWS``..t-1 are computed against columns 0..t-1,
    the rows and columns below t whose bound is not above ``best`` against
    S, and S x S not at all.  An instance with ``best`` >= 0 or NaN, or a
    NaN or infinity anywhere in its rows (so mag[0] is not finite), skips
    nothing: its one product is P @ R^T.  While the buffer holds two rows or
    more, each product has at least two rows and two columns, so BLAS
    computes it as a matrix product (GEMM); numpy sends a one-row or
    one-column product to GEMV, which sums in another order.  A GEMM over a
    sub-block need not give an entry the bits of the full product either:
    on random Gram rows scaled 10^+-5, column-prefix and row-suffix products
    differ from the full one in about 10% and 20-35% of trials.  So byte
    equality of the minima with the unpruned kernel
    (``tests/oracles.q_min_unpruned_reference``) is a tested fact, on the
    tests' traces and the report-digest set, where each minimum sits in the
    first rows, and not a proof.
    """
    points, batch, d = X.shape
    rows = points + 1
    sub = max(1, min(batch, _PAIR_BLOCK // (rows * (d + 2))))
    if rows * rows <= _PAIR_BLOCK:
        per, block = min(sub, _PAIR_BLOCK // (rows * rows)), rows
    else:
        per, most = 1, max(1, _PAIR_BLOCK // rows)
        block = -(-rows // -(-rows // most))
    lead = _LEAD_ROWS
    buf = np.empty(max(per * block, lead) * rows)  # the lead product fits at every N
    P, Rt = np.empty((sub, rows, d + 2)), np.empty((sub, d + 2, rows))
    q = np.empty(batch)
    prune = lead <= rows - 2  # always at N^2 > _PAIR_BLOCK = 2**16
    for s in range(0, batch, sub):
        m = min(sub, batch - s)
        _gram_rows(X[:, s : s + m], G[:, s : s + m], F[:, s : s + m], P[:m], Rt[:m])
        if block == rows:
            for i in range(0, m, per):
                k = min(per, m - i)
                out = buf[: k * rows * rows].reshape(k, rows, rows)
                np.matmul(P[i : i + k], Rt[i : i + k], out=out)
                np.minimum.reduce(out.reshape(k, -1), axis=1, out=q[s + i : s + i + k])
            continue
        cut = np.full(m, rows)
        if prune:
            first = buf[: lead * rows].reshape(lead, rows)
            best = np.array([np.matmul(P[i, :lead], Rt[i], out=first).min() for i in range(m)])
            cut, need_row, need_col = _suffix_cut(P[:m], Rt[:m], best)
        for i in range(m):
            t, Pi, Rti = int(cut[i]), P[i], Rt[i]
            if t == rows:
                q[s + i] = _product_min(Pi, Rti, buf)
                continue
            # rows lead..t-1 against columns 0..t-1, then the rows and
            # columns below t that the bounds keep against S = t..N-1
            low = best[i]
            if t > lead:
                low = min(low, _product_min(Pi[min(lead, t - 2) : t], Rti[:, :t], buf))
                kept = np.flatnonzero(need_row[i, lead:t]) + lead
                if kept.size:
                    low = min(low, _product_min(Pi[_two(kept)], Rti[:, t:], buf))
            kept = np.flatnonzero(need_col[i, :t])
            if kept.size:
                low = min(low, _product_min(Pi[max(lead, t) :], Rti[:, _two(kept)], buf))
            q[s + i] = low
    return q


def _suffix_cut(P, Rt, best):
    """The bounds of :func:`_q_min_batched` for the Gram rows ``P`` of shape
    ``(m, N, d+2)`` and ``R^T`` of shape ``(m, d+2, N)`` of m instances,
    with a computed entry ``best`` of each: ``(cut, need_row, need_col)``,
    the start t of each instance's suffix S (N where nothing is skipped:
    ``best`` >= 0 or NaN, a non-finite magnitude, or fewer than two points
    in S) and ``(m, N)`` masks of the rows and columns whose pairs with S may
    not exceed ``best``, read below t only.  NaN bounds compare false, so
    they keep their rows."""
    m, rows, d = P.shape[0], P.shape[1], P.shape[2] - 2
    a, b = P[:, :, d], Rt[:, d + 1]
    mags = np.empty((4, m, rows))
    absa, absb, u, w = mags  # |a_i|, |b_j|, |u_i|_1, |w_j|_inf
    np.abs(a, out=absa)
    np.abs(b, out=absb)
    np.abs(P[:, :, 0], out=u)
    np.abs(Rt[:, 0], out=w)
    part = np.empty((m, rows))
    for k in range(1, d):
        u += np.abs(P[:, :, k], out=part)
        np.maximum(w, np.abs(Rt[:, k], out=part), out=w)
    sup = np.maximum.accumulate(mags[:, :, ::-1], axis=2)[:, :, ::-1]  # suffix maxima
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite row prunes nothing
        mag = np.multiply(sup[2], sup[3], out=part)
        mag += sup[0]
        mag += sup[1]
        mag *= 1.0 + _GAMMA
        mag += _ETA
        # mag does not rise along the rows, so where it is below -best is a suffix
        cut = rows - np.count_nonzero(mag < -best[:, None], axis=1)
        cut[(cut > rows - 2) | ~np.isfinite(mag[:, 0])] = rows
        At, Bt, Ut, Wt = (1.0 + _GAMMA) * sup[:, np.arange(m), np.minimum(cut, rows - 1)]
        lows = sup[:2]  # the suffix maxima are gathered: their memory takes the lower bounds
        for low, x, absx, y, Y, Z in ((lows[0], a, absa, u, Wt, Bt), (lows[1], b, absb, w, Ut, At)):
            np.multiply(absx, -_GAMMA, out=low)
            low += x
            low -= np.multiply(y, Y[:, None], out=part)
            low -= (Z + _ETA)[:, None]
    return cut, ~(lows[0] > best[:, None]), ~(lows[1] > best[:, None])


def _two(index):
    """An index array of at least two entries: a single row or column below
    the cut gets the next one, which is a pair of the instance too."""
    return index if index.size > 1 else np.array([index[0], index[0] + 1])


def _product_min(Pr, Rc, buf):
    """The minimum of ``Pr @ Rc`` by blocks of rows that fit ``buf``, a NaN
    kept once seen.  A buffer of two rows or more takes blocks of at least
    two rows (a one-row tail is computed with the row before it), so with
    two columns or more every product is a GEMM; a one-row buffer takes
    one-row products."""
    rows, cols = Pr.shape[0], Rc.shape[1]
    step = buf.size // cols
    low = np.inf
    for r in range(0, rows, step):
        r = min(r, rows - min(step, 2))
        out = buf[: min(step, rows - r) * cols].reshape(-1, cols)
        x = np.matmul(Pr[r : r + step], Rc, out=out).min()
        low = x if x != x else min(low, x)  # min(nan, x) is nan: a NaN stays once seen
    return low


def _trace_arrays(schedule: StepSchedule, trace: GDTrace, comp_class=None):
    """``(x, g, f)`` of a trace of the schedule's length, whose schedule is of
    ``comp_class`` when one is given."""
    if comp_class is not None and schedule.comp_class is not comp_class:
        raise ClassMismatchError(f"expected class {comp_class.value}, got {schedule.comp_class.value}")
    if schedule.n != trace.n:
        raise ScheduleError(f"schedule has {schedule.n} steps, trace has {trace.n}")
    return trace.x, trace.g, trace.f


def check_s_implies_fg(schedule: StepSchedule, trace: GDTrace):
    """Slacks of the objective-gap and gradient-norm bounds implied by class S."""
    arrays = _trace_arrays(schedule, trace, CompClass.S)
    f_slack, g_slack, _, _ = _s_fg_slacks_raw(schedule.steps, schedule.rate, *arrays)
    return float(f_slack), float(g_slack)


def fg_residuals(schedule: StepSchedule, trace: GDTrace):
    """Residual halves-of-squared-norms in the implied F/G bounds; both vanish
    on the respective tight instances."""
    arrays = _trace_arrays(schedule, trace, CompClass.S)
    _, _, f_resid, g_resid = _s_fg_slacks_raw(schedule.steps, schedule.rate, *arrays)
    return float(f_resid), float(g_resid)


def _defining_slack_raw(comp_class: CompClass, eta: float, X, G, F):
    if comp_class is CompClass.F:
        return _f_direct_slack_raw(eta, X, G, F)
    if comp_class is CompClass.G:
        return eta * (F[0] - 0.0) - 0.5 * _dot(G[-1], G[-1])
    lhs = (
        0.5 * (1.0 - eta) * _dot(G[-1], G[-1])
        + 0.5 * eta * eta * _dot(X[-1], X[-1])
        + (eta - eta * eta) * (F[-1] - 0.0)
    )
    return 0.5 * eta * eta * _dot(X[0], X[0]) - lhs


def defining_slack(schedule: StepSchedule, trace: GDTrace) -> float:
    """Right-minus-left of the class's defining inequality on a trace."""
    return float(_defining_slack_raw(schedule.comp_class, schedule.rate, *_trace_arrays(schedule, trace)))


# ---------------------------------------------------------------------------
# Composite verification.
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    slack: float
    tolerance: float
    instance: str


@dataclass
class VerificationReport:
    schedule: str
    comp_class: str
    n: int
    rate: float
    conjectured: bool
    checks: list = field(default_factory=list)
    proven_tree: bool = False  # the identity entry proved a carried tree; no JSON key

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def certified(self) -> bool:
        """Passed, not conjectured, and with a proof of the rate: the checks
        alone cannot refute a wrong rate of a schedule without a tree."""
        return self.passed and not self.conjectured and self.proven_tree

    def to_dict(self) -> dict:
        d = asdict(self)
        del d["proven_tree"]
        d["passed"] = self.passed
        d["certified"] = self.certified
        return d

    def to_json(self) -> str:
        """Strict JSON (RFC 8259 has no NaN or Infinity): a non-finite number is ``null``."""
        d = self.to_dict()
        for entry in (d, *d["checks"]):
            for key, value in entry.items():
                if isinstance(value, float) and not math.isfinite(value):
                    entry[key] = None
        return json.dumps(d, indent=2, allow_nan=False)

    def summary(self) -> str:
        note = ""
        if self.conjectured:
            note = " (conjectured: inequality checks only)"
        elif self.passed and not self.proven_tree:
            note = " (not certified: no construction tree proves the rate)"
        lines = [f"schedule: {self.schedule}", f"result: {'PASS' if self.passed else 'FAIL'}{note}"]
        for c in self.checks:
            lines.append(
                f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: slack={c.slack:.3e} "
                f"tol={c.tolerance:.1e} ({c.instance})"
            )
        return "\n".join(lines)


def _check_trace_size(n: int, battery: int, rows: int) -> None:
    """Raise ``ResourceCapError`` unless the one GD loop of a schedule of
    length ``n`` over ``battery`` instances and ``rows`` tight rows, n+1
    points of one coordinate each, holds at most ``MAX_TRACE_VALUES``
    values.  From the sizes alone: no instance is drawn."""
    coords = battery + rows
    if (n + 1) * coords > MAX_TRACE_VALUES:
        raise ResourceCapError(
            f"verification trace of {n + 1} points x {coords} coordinates (battery {battery}) "
            f"exceeds cap {MAX_TRACE_VALUES} values"
        )


def battery_instances(config: RunConfig):
    """The deterministic random battery as ``(index, instance, x0)`` triples.

    Every instance is one coordinate (see the module docstring for why).
    They are drawn from numpy's default PCG64 generator seeded with
    ``config.seed``, so any battery index named in a report is reproducible
    with the same config.
    """
    rng = np.random.default_rng(config.seed)
    return [(i, random_instance(rng, 1), random_x0(rng, 1)) for i in range(config.battery)]


class PackedBattery(NamedTuple):
    """Battery instances packed as the coordinates of one GD loop:
    ``is_huber``, ``param`` and ``x0`` have shape ``(battery,)``, and
    instance i is coordinate i."""

    is_huber: np.ndarray
    param: np.ndarray
    x0: np.ndarray


@functools.lru_cache(maxsize=4)
def _battery(battery: int, seed: int) -> PackedBattery:
    """The battery of ``RunConfig(battery=battery, seed=seed)`` as a read-only
    :class:`PackedBattery`; cached, since no other config field changes it.
    Coordinates evolve independently, so packing changes no bit of a trace."""
    triples = battery_instances(RunConfig(battery=battery, seed=seed))
    columns = (
        np.concatenate([inst.is_huber for _, inst, _ in triples]),
        np.concatenate([inst.param for _, inst, _ in triples]),
        np.concatenate([x0 for _, _, x0 in triples]),
    )
    for a in columns:
        a.flags.writeable = False
    return PackedBattery(*columns)


def _tight_rows(schedule: StepSchedule, implied: bool = True) -> list:
    """The class's tight 1-D instances as ``(is_huber, param, label)`` rows, to
    run from ``x0 = 1``: the defining pair (the unit quadratic first, then the
    Huber instance) and, for class S when ``implied``, the Huber instances of
    the implied gap and gradient bounds."""
    cls, eta = schedule.comp_class, schedule.rate
    delta = tight_delta(cls, "defining", eta)
    rows = [(False, 1.0, "tight quadratic"), (True, delta, f"tight huber:delta={delta:.12g}")]
    if implied and cls is CompClass.S:
        rows += [(True, tight_delta(cls, p, eta), p) for p in ("f-line", "g-line")]
    return rows


def _score_tight(schedule: StepSchedule, rows: list, traces, tol: float) -> list:
    """The tightness checks of ``rows`` from the first ``len(rows)`` of
    ``traces``, the rows' traces ``(x, g, f)`` in the same order."""
    eta, checks = schedule.rate, []
    for (_, param, label), (X, G, F) in zip(rows, traces):
        if label in ("f-line", "g-line"):
            f_slack, g_slack, f_resid, g_resid = (float(v) for v in _s_fg_slacks_raw(schedule.steps, eta, X, G, F))
            slack, resid = (f_slack, f_resid) if label == "f-line" else (g_slack, g_resid)
            name, ok = f"implied-{label}", abs(slack) <= tol and abs(resid) <= tol
            text = f"huber delta={param:.12g}, residual={resid:.3e}"
        else:
            slack = float(_defining_slack_raw(schedule.comp_class, eta, X, G, F))
            name, ok, text = label, abs(slack) <= tol, label
        checks.append(CheckResult(f"tightness/{name}", ok, slack, tol, text))
    return checks


def _battery_slacks(schedule: StepSchedule, cert, implied: bool, X, G, F) -> dict:
    """The class's battery slacks on a ``(n+1, B, d)`` trace, keyed by check
    name.  ``cert`` is what the class's certificate needs, made before the
    battery runs, or None if it could not be made: the F weights
    (:class:`CertificateV`; without them the direct gap inequality is
    checked) or the S gradient weight (without it the mixed inequality is
    not checked).  ``implied`` says whether the S-implied gap and gradient
    bounds are checked (their factor, ``schedule._s_fg_ratio``, could be made)."""
    eta = schedule.rate
    if schedule.comp_class is CompClass.F:
        if cert is not None:
            return {"certificate": _f_cert_slack_raw(cert.weights, X, G, F)}
        return {"gap-inequality": _f_direct_slack_raw(eta, X, G, F)}
    if schedule.comp_class is CompClass.G:
        return {"gradient-inequality": _g_slack_raw(eta, X, G, F)}
    slacks = {}
    if implied:
        slacks["implied-gap"], slacks["implied-gradient"], _, _ = _s_fg_slacks_raw(schedule.steps, eta, X, G, F)
    if cert is not None:
        slacks["mixed-inequality"] = _s_slack_raw(schedule.steps, eta, X, G, F)
    return slacks


def _slice_trace(xs, form, start: int, stop: int):
    """``(X, G, F)`` of the coordinates ``start..stop`` of the points ``xs``,
    one instance each: X is an ``(n+1, stop - start, 1)`` view, G and F are
    new contiguous arrays."""
    X = xs[:, start:stop, None]
    part = CoordForm(*(a[start:stop, None] for a in form))
    return X, gradients(X, part), values(X, part)


def _one_loop(battery: PackedBattery, runs):
    """One GD loop over the packed battery followed by the 1-D tight rows of
    ``runs``, a list of ``(schedule, rows)`` with rows as :func:`_tight_rows`
    gives them: the battery and the first run's rows take the first run's
    steps, each later run's rows its own schedule's steps.  Returns the
    battery's ``(X, G, F)``, instances in index order, and the tight traces
    ``(x, g, f)`` in row order, copied contiguous: a strided ``(n+1, 1)``
    view sends the ``np.dot`` of :func:`_weighted_sum` down another BLAS
    path, which changes the last bits."""
    m = stop = battery.x0.size
    segments, rows = [], []
    for h, run_rows in runs:
        stop += len(run_rows)
        segments.append((h.steps, stop))
        rows += run_rows
    is_huber = np.concatenate([battery.is_huber, np.array([row[0] for row in rows], dtype=bool)])
    param = np.concatenate([battery.param, np.array([row[1] for row in rows], dtype=np.float64)])
    form = coord_form(is_huber, param)
    xs = descend(segments, form, np.concatenate([battery.x0, np.ones(stop - m)]))
    tail = _slice_trace(xs, form, m, stop)
    traces = [tuple(np.ascontiguousarray(a[:, j]) for a in tail) for j in range(stop - m)]
    return _slice_trace(xs, form, 0, m), traces


@np.errstate(all="ignore")
def verify_schedule(schedule: StepSchedule, config: "RunConfig | None" = None) -> VerificationReport:
    """Run every class-appropriate check; failures become report entries.

    A PASS needs the closed-form identities, tightness on the class's
    extremal instances, the certificate inequality across the random
    battery, interpolation nonnegativity on every trace, and (for join-built
    schedules) a tree that builds the steps and the rate (in the identity
    entry, by ``schedule.check_tree`` once the closed forms hold) and the
    reversal duality.  Only a tree that the identity entry proved feeds the
    f certificate and the reversal check, and a certified PASS needs that
    tree: without one, no check can refute a wrong rate.  numpy's
    floating-point warnings are off inside: an overflow or invalid value
    reaches its check's slack as an infinity or NaN, and the check fails.
    A run of more than ``MAX_TRACE_VALUES`` values raises
    ``ResourceCapError`` before the battery is drawn.
    """
    config = config or RunConfig()
    report = VerificationReport(
        schedule=schedule.describe(),
        comp_class=schedule.comp_class.value,
        n=schedule.n,
        rate=schedule.rate,
        conjectured=schedule.conjectured,
    )
    checks = report.checks

    def build(name: str, tol: float, make):
        """``make()``; a check that cannot be built instead gets a failing
        entry with NaN slack and the error's text, and the rest runs
        without it."""
        try:
            return make()
        except ScheduleError as err:
            checks.append(CheckResult(name, False, float("nan"), tol, str(err)))

    def reversed_run():
        # reversal duality: the reversed schedule keeps the rate by
        # construction, is of the swapped class (its closed-form identities
        # hold) and meets its own defining pair at equality
        dual = flip(schedule)
        validate_schedule(dual, config.identity_tol)
        return dual, _tight_rows(dual, implied=False)

    def identity():
        # the closed forms, then the tree's one fold, which must build the schedule
        dev = validate_schedule(schedule, config.identity_tol)
        return dev, None if schedule.tree is None else check_tree(schedule, config.identity_tol)

    dev, fold = build("identity", config.identity_tol, identity) or (None, None)
    if dev is not None:
        checks.append(CheckResult("identity", True, dev, config.identity_tol, "closed forms"))
    report.proven_tree = fold is not None
    runs = [(schedule, build("tightness", config.tight_tol, lambda: _tight_rows(schedule)) or [])]
    cert, implied = None, False
    if schedule.comp_class is CompClass.S:
        cert = build("battery/mixed-inequality", config.slack_tol, lambda: _s_gradient_weight(schedule.rate))
        for key in ("gap", "gradient"):
            implied = build(f"battery/implied-{key}", config.slack_tol, lambda: _s_fg_ratio(schedule.rate)) is not None
    # only a tree that the identity entry proved feeds the f certificate and
    # the reversal check
    if fold is not None:
        if schedule.comp_class is CompClass.F:
            cert = build("battery/certificate", config.slack_tol, lambda: build_f_certificate(schedule.tree, fold))
        dual = build("reversal-duality", config.tight_tol, reversed_run)
        if dual is not None:
            runs.append(dual)

    _check_trace_size(schedule.n, config.battery, sum(len(rows) for _, rows in runs))
    # every battery slack and the interpolation minimum keep their worst
    # instance, the first NaN if there is one
    (X, G, F), traces = _one_loop(_battery(config.battery, config.seed), runs)
    scales = np.maximum(1.0, np.maximum(_dot(X[0], X[0]), F[0]))
    slacks = _battery_slacks(schedule, cert, implied, X, G, F)
    scores = {f"battery/{key}": slack / scales for key, slack in slacks.items()}
    scores["interpolation"] = _q_min_batched(X, G, F)
    limits = {"interpolation": (config.q_tol, "min Q over all pairs; at ")}
    battery_limit = (config.slack_tol, f"{config.battery} instances, seed {config.seed:#x}; min at ")
    for name, score in scores.items():
        i = int(score.argmin())
        value = float(score[i])
        tol, text = limits.get(name, battery_limit)
        checks.append(CheckResult(name, value >= -tol, value, tol, f"{text}battery instance #{i}"))

    # each run scores the next len(rows) tight traces; the reversed pair is
    # one entry, with the quadratic's slack if it fails, else the Huber
    # instance's
    for h, rows in runs:
        scored, traces = _score_tight(h, rows, traces, config.tight_tol), traces[len(rows) :]
        if h is schedule:
            checks += scored
        else:
            failed = [c.slack for c in scored if not c.passed]
            text = f"reverse is class {h.comp_class.value} at the same rate and stays tight"
            slack = failed[0] if failed else 0.0
            checks.append(CheckResult("reversal-duality", not failed, slack, config.tight_tol, text))

    checks.sort(key=lambda c: c.name)
    return report
