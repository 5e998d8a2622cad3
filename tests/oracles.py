"""Test-only reference implementations, kept independent of the production code.

``q_min_pairwise`` is the direct pairwise form of the smooth-convex
interpolation check: it builds each term of Q_ij as its own (B, N, N) array.
The production kernel, ``stepweaver.verify._q_min_batched``, checks only the
neighbours in x of 1-D points; the tests compare the two.

``q_min_gathered_reference`` is the neighbour check on a trace's points,
gradients and values: it argsorts the points and gathers x, g and f by that
order.  The production kernel sorts only the points and evaluates g and f on
them from the instances' constants; it must give the same bytes.

``f_cert_slack_reference`` and ``s_slack_reference`` are the F-certificate
and S-inequality slacks with their per-point terms
2(f_i - f_n) + ||g_i||^2 + 2<g_i, x_0 - x_i> built for all points at once.
The production ``stepweaver.verify._f_cert_slack_raw`` and ``_s_slack_raw``
(the terms by blocks of points) must give the same bytes.

``coord_value_reference`` is the two-branch value: the quadratic and the
Huber formula side by side, picked by ``is_huber``.  The production
``stepweaver.gd._coord_value`` (one select over the clip form's constants)
must give the same bytes; only a NaN's sign may differ.

``raw_run_reference`` is the per-step GD loop that evaluates the branchy
Huber/quadratic gradient and the value at every step.  The production
``stepweaver.gd.raw_run`` (one loop that stores only the points, gradients
and values evaluated after it) must reproduce its traces byte for byte.

``descend_reference`` is the GD loop with one multiply per run and step by
the run's step as a Python float, into views of the points made before the
loop.  The production ``stepweaver.gd.descend`` (one multiply per step by a
row of a reused block of step rows) must give the same points byte for byte.

``join_by_join`` evaluates a construction tree by joining upward, one
``join`` per node.  The production ``stepweaver.schedule.fold_tree`` (one
rate fold, then the middle steps laid out in order), and so ``materialize``,
must give the same steps byte for byte and the same rate.

``f_certificate_spine_walk`` is the F certificate's right-spine walk: it
evaluates each left operand join by join and composes the weights from the
leaf up.
The production ``stepweaver.verify.build_f_certificate``, which reads each
left operand as a slice of the tree's one ``fold_tree``, must give the same
weights byte for byte.

``build_tables_reference`` is the plain DP row loop: every split of both
joins, scored by the scalar join formulas, with ``np.argmin`` picking the
first minimum.  The production fill, ``stepweaver.optimizer._extend``, must
give the same rates and splits byte for byte.

``rate_rows_mp`` recomputes the s- and f-rate rows from the two join
formulas alone in 50-digit ``mpmath`` arithmetic, with each row's best
split and its relative lead over the second best.  The float tables of
``stepweaver.optimizer.build_tables`` must stay within a stated relative
drift of it.

``sjoin_rate_reference``, ``sjoin_mu_reference``, ``fgjoin_rate_reference``
and ``fgjoin_mu_reference`` are the scalar join formulas written separately,
each with its own square root.  The production ``stepweaver.schedule`` gives
each join one formula for the middle step and the rate, from one square
root; ``join_step``, ``_sjoin_rate`` and ``_fgjoin_rate`` must give the
same bits on scalars and arrays.

``write_rate_csv_reference`` writes rate tables through ``csv.writer``, one
``format`` per value.  The production ``stepweaver.optimizer.write_rate_csv``
(one ``%`` format per row) must write the same bytes.
"""

import csv

import mpmath
import numpy as np

from stepweaver.gd import CoordForm, gradients
from stepweaver.optimizer import P_EXPONENT, RateTables
from stepweaver.schedule import (
    CompClass,
    JoinOp,
    _fgjoin_rate,
    _sjoin_rate,
    empty_schedule,
    join,
    join_step,
    operand_classes,
    postorder,
)


def f_cert_slack_reference(v, X, G, F):
    terms = 2.0 * (F - F[-1]) + np.sum(G * G, axis=-1) + 2.0 * np.sum(G * (X[0] - X), axis=-1)
    combo = np.tensordot(v, G, axes=(0, 0))
    return np.tensordot(v, terms, axes=(0, 0)) - np.sum(combo * combo, axis=-1)


def s_slack_reference(steps, eta, X, G, F):
    terms = 2.0 * (F[:-1] - F[-1]) + np.sum(G[:-1] * G[:-1], axis=-1) + 2.0 * np.sum(G[:-1] * (X[0] - X[:-1]), axis=-1)
    diff = X[-1] - X[0]
    gn = np.sum(G[-1] * G[-1], axis=-1)
    return np.tensordot(steps, terms, axes=(0, 0)) - np.sum(diff * diff, axis=-1) - (1.0 - eta) / (eta * eta) * gn


def coord_value_reference(x, is_huber, param):
    ax = np.abs(x)
    quad = 0.5 * param * x * x
    hub = np.where(ax <= param, 0.5 * x * x, param * ax - 0.5 * param * param)
    return np.where(is_huber, hub, quad)


def coord_grad(x, is_huber, param):
    # Huber gradient at the kink takes the quadratic branch; both agree there.
    quad = param * x
    hub = np.where(np.abs(x) <= param, x, param * np.sign(x))
    return np.where(is_huber, hub, quad)


def raw_run_reference(steps, is_huber, param, x0):
    """GD traces ``(xs, gs, fs)`` with shapes (n+1, ..., d) twice and (n+1, ...)."""
    x = np.array(x0, dtype=np.float64, copy=True)
    n = len(steps)
    xs = np.empty((n + 1,) + x.shape)
    gs = np.empty_like(xs)
    fs = np.empty((n + 1,) + x.shape[:-1])
    for i in range(n + 1):
        xs[i] = x
        gs[i] = coord_grad(x, is_huber, param)
        fs[i] = coord_value_reference(x, is_huber, param).sum(axis=-1)
        if i < n:
            x = x - steps[i] * gs[i]
    return xs, gs, fs


def descend_reference(runs, form: CoordForm, x0):
    """The points of gradient descent from ``x0``, shaped ``(n+1,) + x0.shape``.

    ``runs`` is a list of ``(steps, stop)``: the coordinates of the last
    axis from the previous run's ``stop`` (0 for the first) up to ``stop``
    take ``steps``; every run has the same length n.  ``form`` broadcasts
    against ``x0``.  Each step takes the gradient into one reused row, so
    the loop keeps no gradient and evaluates no value.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    n = len(runs[0][0])
    xs = np.empty((n + 1,) + x0.shape)
    xs[0] = x0
    g = np.empty(x0.shape)
    # row views and Python-float steps are made once: indexing an array for
    # them on every step costs about as much as a ufunc call's arithmetic
    rows, segments, start = list(xs), [], 0
    for steps, stop in runs:
        steps = np.asarray(steps, dtype=np.float64).tolist()
        segments.append((steps, g[..., start:stop], list(xs[1:, ..., start:stop])))
        start = stop
    for i in range(n):
        x, nxt = rows[i], rows[i + 1]
        gradients(x, form, out=g)
        for steps, g_part, x_parts in segments:
            np.multiply(g_part, steps[i], out=x_parts[i])
        np.subtract(x, nxt, out=nxt)
    return xs


def q_min_pairwise(X, G, F):
    """Minimum over all ordered pairs of the smooth-convex interpolation
    quantity Q_ij = 2f_i - 2f_j - 2<g_j, x_i - x_j> - ||g_i - g_j||^2, over
    the points and the minimizer (x, g, f) = 0 appended to them.

    X, G have shape (N, d) or (N, B, d) and F has shape (N,) or (N, B); the
    result is a float or a (B,) array.
    """
    X = np.concatenate([X, np.zeros_like(X[:1])])
    G = np.concatenate([G, np.zeros_like(G[:1])])
    F = np.concatenate([F, np.zeros_like(F[:1])])
    # batch axes to the front: (N, B, d) -> (B, N, d); add B=1 if unbatched
    squeeze = X.ndim == 2
    if squeeze:
        X, G, F = X[:, None, :], G[:, None, :], F[:, None]
    Xb = np.moveaxis(X, 0, 1)
    Gb = np.moveaxis(G, 0, 1)
    Fb = np.moveaxis(F, 0, 1)
    gx = np.einsum("bjd,bid->bij", Gb, Xb)  # gx[b,i,j] = <g_j, x_i>
    gxd = np.einsum("bjd,bjd->bj", Gb, Xb)  # <g_j, x_j>
    gg = np.einsum("bid,bjd->bij", Gb, Gb)
    gsq = np.einsum("bid,bid->bi", Gb, Gb)
    Q = (
        2.0 * (Fb[:, :, None] - Fb[:, None, :])
        - 2.0 * (gx - gxd[:, None, :])
        - (gsq[:, :, None] + gsq[:, None, :] - 2.0 * gg)
    )
    return Q.min(axis=(1, 2)) if not squeeze else float(Q.min())


def q_min_gathered_reference(X, G, F, block=2**13):
    """The ``(B,)`` neighbour minima of the ``(n+1, B, 1)`` trace ``(X, G,
    F)``: per block of at most ``block`` entries per array, one row of
    (x, g, f) per instance with the minimizer (0, 0, 0) last, argsorted by x
    and gathered; an instance with a non-finite x, g or f gets NaN."""
    points, batch = X.shape[:2]
    x, g, f = (a.reshape(points, batch) for a in (X, G, F))
    per = max(1, block // (points + 1))
    q = np.empty(batch)
    for s in range(0, batch, per):
        q[s : s + per] = _gathered_min(x[:, s : s + per], g[:, s : s + per], f[:, s : s + per])
    return q


def _gathered_min(x, g, f):
    points, m = x.shape
    rows = points + 1
    t = np.zeros((3, m, rows))
    for k, a in enumerate((x, g, f)):
        t[k, :, :points] = a.T
    bad = ~np.isfinite(t).all(axis=(0, 2))
    order = np.argsort(t[0], axis=1) + np.arange(0, m * rows, rows)[:, None]
    t = np.take(t.reshape(3, -1), order, axis=1)
    dx, dg, df = np.diff(t, axis=2)
    sq = dg * dg
    up = 2.0 * (t[1, :, 1:] * dx - df) - sq  # Q(k, k+1)
    down = 2.0 * (df - t[1, :, :-1] * dx) - sq  # Q(k+1, k)
    low = np.minimum(up, down, out=up).min(axis=1, initial=0.0)
    low[bad] = np.nan
    return low


def sjoin_rate_reference(alpha, beta):
    return (2.0 * alpha * beta) / ((alpha + beta) + np.sqrt((alpha * alpha + beta * beta) + 6.0 * (alpha * beta)))


def sjoin_mu_reference(alpha, beta):
    return 1.0 + 2.0 / ((alpha + beta) + np.sqrt((alpha * alpha + beta * beta) + 6.0 * (alpha * beta)))


def fgjoin_rate_reference(alpha, beta):
    return (2.0 * alpha * beta) / ((alpha + 4.0 * beta) + np.sqrt(alpha * alpha + 8.0 * (alpha * beta)))


def fgjoin_mu_reference(alpha, beta):
    return 1.0 + 2.0 / (alpha + np.sqrt(alpha * alpha + 8.0 * (alpha * beta)))


def build_tables_reference(n_max, prefix=None):
    """Rate tables to row ``n_max`` by scanning all ``n - 1`` splits of row
    ``n`` on both sides, after the rows of ``prefix`` (tables of as many s
    as f rows; default: the base row), copied as they are; index 0 is
    unused."""
    s, f = np.full(n_max + 1, np.nan), np.full(n_max + 1, np.nan)
    s_split, f_split = np.zeros(n_max + 1, np.int64), np.zeros(n_max + 1, np.int64)
    s[1] = f[1] = 1.0
    start = 2
    if prefix is not None:
        assert prefix.f_max == prefix.n_max <= n_max
        start = prefix.n_max + 1
        for col, held in ((s, prefix.s_rate), (f, prefix.f_rate), (s_split, prefix.s_split), (f_split, prefix.f_split)):
            col[1:start] = held[1:start]
    for n in range(start, n_max + 1):
        a = s[1:n]
        cand = _sjoin_rate(a, a[::-1])
        i = int(np.argmin(cand))
        s[n], s_split[n] = cand[i], i + 1
        cand = _fgjoin_rate(a, f[n - 1 : 0 : -1])
        j = int(np.argmin(cand))
        f[n], f_split[n] = cand[j], j + 1
    return RateTables(n_max, s, f, s_split, f_split)


def join_by_join(tree, comp_class):
    """The schedule of ``comp_class`` a construction tree builds, one ``join``
    per node: a bare leaf is the empty schedule of the class its parent
    requires (``comp_class`` at the root)."""

    def combine(node, left, right):
        lcls, rcls = operand_classes(node.op)
        left = empty_schedule(lcls) if left is None else left
        right = empty_schedule(rcls) if right is None else right
        return join(node.op, left, right)

    out = postorder(tree, lambda node: None, combine)
    return empty_schedule(comp_class) if out is None else out


def f_certificate_spine_walk(tree):
    """``(weights, eta)`` of an F-class construction tree's certificate."""
    chain = []
    while not tree.is_leaf:
        assert tree.op is JoinOp.FJOIN
        chain.append(tree)
        tree = tree.right
    v, eta = np.array([1.0]), 1.0
    for node in reversed(chain):
        a = join_by_join(node.left, CompClass.S)
        beta = eta
        eta = join_step(JoinOp.FJOIN, a.rate, beta)[1]
        v = np.concatenate([a.steps, [1.0 + 1.0 / a.rate], np.sqrt(beta / eta) * v])
    return v, eta


def rate_rows_mp(n_max, dps=50):
    """Rows 1..``n_max`` of both rate tables as ``{"s": rows, "f": rows}``,
    each row ``(rate, split, lead)``: the least join rate over the splits
    (s: m <= n/2, since the s-join is symmetric; f: m = 1..n-1, joining s row
    m with f row n - m), the first m that attains it, and the relative gap
    to the second best split (infinite with one split)."""
    with mpmath.workdps(dps):
        one, two, four, six, eight = (mpmath.mpf(v) for v in (1, 2, 4, 6, 8))
        rows = {"s": [None, (one, 0, mpmath.inf)], "f": [None, (one, 0, mpmath.inf)]}

        def sjoin(a, b):
            return two * a * b / ((a + b) + mpmath.sqrt(a * a + b * b + six * a * b))

        def fgjoin(a, b):
            return two * a * b / ((a + four * b) + mpmath.sqrt(a * a + eight * a * b))

        for n in range(2, n_max + 1):
            s, f = [row[0] for row in rows["s"][1:]], [row[0] for row in rows["f"][1:]]
            for name, cand in (
                ("s", [sjoin(s[m - 1], s[n - m - 1]) for m in range(1, n // 2 + 1)]),
                ("f", [fgjoin(s[m - 1], f[n - m - 1]) for m in range(1, n)]),
            ):
                order = sorted(range(len(cand)), key=lambda k: (cand[k], k))
                best = cand[order[0]]
                lead = (cand[order[1]] - best) / best if len(cand) > 1 else mpmath.inf
                rows[name].append((best, order[0] + 1, lead))
        return rows


def write_rate_csv_reference(fh, n_rows, columns):
    """Rows ``n = 1..n_rows`` of ``prefix -> table`` columns as CSV."""
    w = csv.writer(fh)
    w.writerow(["n", "length"] + [p + name for p in columns for name in ("rate", "normalized")])
    for n in range(1, n_rows + 1):
        row = [n, n - 1]
        for tab in columns.values():
            rate = float(tab[n])
            row += [format(rate, ".17g"), format(rate * n**P_EXPONENT, ".17g")]
        w.writerow(row)
