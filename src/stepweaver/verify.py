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
minimum of Q_ij over the pairs of the points 0..n and the minimizer is
compared with the absolute ``q_tol``.  Every instance being one coordinate,
only the pairs of neighbours in x are taken; in exact arithmetic some pair
is negative exactly when one of them is (the theorem is in
``_neighbour_min``).  Only the points are sorted, one sort per instance,
and the gradients and values are evaluated on the sorted points from the
instances' constants (``_q_min_batched``).

Every battery instance is one coordinate.  Each battery function is
separable, so the slacks and Q_ij of a d-dimensional instance are sums of
the same 1-D quantities over its coordinates: wider instances would refute
nothing more, and in a sum a failing coordinate can hide behind passing
ones.  One verification runs one GD loop, which stores only the points: the
packed battery and the class's tight 1-D instances (``(is_huber, param,
label)`` rows, run from ``x0 = 1``) take the schedule's steps, and the
reversed schedule's tight pair takes the reversed steps on a trailing
segment of the same coordinates.  Gradients are evaluated after the loop;
values at every point only where a battery certificate sums per-point
terms (the f weights, the s mixed inequality), and otherwise at points 0
and n, all that the other checks read.  The certificate slacks take their
per-point terms by blocks of points, so every class holds at most the
points, the battery's gradients, values and per-point terms and the
interpolation kernel's temporaries.  One scorer turns the tight traces of
either schedule, on the raw arrays, into tightness checks: beside the
cached battery, a verification builds no ``ProblemInstance`` or
``GDTrace``.  A check that cannot be built (say, a reversed schedule that
breaks its identities) fails with NaN slack and the error's text, and the
battery runs without it.

Inner products sum over the coordinates with ``gd.coord_sum`` (the bits of
``np.add.reduce``, by one column add on many 1-D rows).  A carried
construction tree is walked at most once per verification, by the identity
entry's ``schedule.check_tree`` once the closed forms hold.  Only a tree
that this entry proved feeds the F weights (its fold's per-node rates and
lengths; each ``|>`` node's S operand is a slice of its steps) and the
reversal check, which runs the reversed steps at the swapped class and the
same rate (``schedule.flip``) without mirroring the tree.
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
    _coord_value,
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
# The forms that read only f_0 and f_n (all but the f certificate and the s
# inequality) also take F of those two rows, as the battery holds it for them.
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


# The interpolation check takes as many instances at a time as this many
# float64 entries hold (64 KiB per array), so its temporaries stay that small.
_SORT_BLOCK = 2**13


def _q_min_batched(X, form: CoordForm):
    """The ``(B,)`` minima, one per instance of the ``(n+1, B, 1)`` points
    ``X`` of a trace on the instances of ``form`` (constants of B entries,
    as :func:`gd.coord_form` makes them), over all ordered pairs of its
    points and the minimizer (x, g, f) = 0 of the smooth-convex
    interpolation quantity Q_ij = 2f_i - 2f_j - 2g_j(x_i - x_j) - (g_i - g_j)^2.

    Every instance is one coordinate, and in 1-D only neighbours in x need
    checking (:func:`_neighbour_min`), so only the points are sorted: each
    instance's row of points, with the minimizer x = +0.0 appended, is
    sorted in place, and g and f are evaluated on the sorted row by
    ``gd.gradients`` and ``gd.values``' formula.  They are elementwise in x,
    so each sorted point gets the bits that the trace's gradients and values
    hold for it; equal x carries equal g and f, so no order of ties changes
    a difference; and the minimizer's row evaluates to (+0.0, +0.0, +0.0).
    The minima are those of sorting the trace's (x, g, f) together.

    An instance with a non-finite x, g or f gets NaN, and no NaN reaches
    another instance.  A trace with d > 1 raises ``ValueError``.  Instances
    are taken in blocks of at most ``_SORT_BLOCK`` entries per array (one
    instance, if its n+2 points are more).
    """
    points, batch = X.shape[:2]
    x = X.reshape(points, batch)
    consts = [np.reshape(a, (batch, 1)) for a in form]
    per = max(1, _SORT_BLOCK // (points + 1))
    q = np.empty(batch)
    for s in range(0, batch, per):
        block = slice(s, s + per)
        q[block] = _sorted_min(x[:, block], CoordForm(*(a[block] for a in consts)))
    return q


def _sorted_min(x, form: CoordForm):
    """The minima of :func:`_q_min_batched` for the ``(n+1, m)`` points of m
    instances whose constants are shaped ``(m, 1)``: one block, in a
    function of its own so that its temporaries are freed before the next
    block makes its own."""
    points, m = x.shape
    t = np.zeros((m, points + 1))  # one row of points per instance, the minimizer last
    t[:, :points] = x.T
    t.sort(axis=1)
    f = _coord_value(t, form, np.empty_like(t), np.empty_like(t))
    coord_sum(f[..., None], out=f)  # the values of one coordinate, as gd.values sums them
    return _neighbour_min(t, gradients(t, form), f)


def _neighbour_min(x, g, f):
    """min(0, min over k of Q(k, k+1) and Q(k+1, k)) for each row of the
    ``(m, N)`` points ``x``, gradients ``g`` and values ``f`` of m 1-D
    instances, each row sorted by x with the minimizer among its points; the
    0 is Q_ii, and a row with a non-finite x, g or f gets NaN.

    If both directions hold for every neighbour pair, every pair holds:
    Q_ij + Q_ji = 2dg(dx - dg) >= 0 gives 0 <= dg <= dx between neighbours,
    so g and s = x - g both rise along the order.  Q_ji/2 is the gap
    phi_i - phi_j - s_j(g_i - g_j) of the conjugate data (g_k, s_k, phi_k =
    x_k g_k - f_k - g_k^2/2) (a 1-smooth convex f has a 1-strongly convex
    conjugate; Taylor, Hendrickx & Glineur, arXiv 1502.05666), and the gap
    of a pair i < j in the order is the sum of the gaps of the neighbour
    pairs between them plus terms (s_k - s_i)(g_{k+1} - g_k) >= 0, or
    (s_j - s_{k+1})(g_{k+1} - g_k) >= 0 the other way round.  So in exact
    arithmetic the result is below zero exactly when the all-pairs minimum
    is, and it is never below that minimum; it is computed from differences
    of neighbours.
    """
    dx = np.subtract(x[:, 1:], x[:, :-1])
    sq = np.subtract(g[:, 1:], g[:, :-1])
    np.multiply(sq, sq, out=sq)
    df = np.subtract(f[:, 1:], f[:, :-1])
    up = np.multiply(g[:, 1:], dx)  # Q(k, k+1)
    np.subtract(up, df, out=up)
    np.multiply(2.0, up, out=up)
    np.subtract(up, sq, out=up)
    down = np.multiply(g[:, :-1], dx, out=dx)  # Q(k+1, k)
    np.subtract(df, down, out=down)
    np.multiply(2.0, down, out=down)
    np.subtract(down, sq, out=down)
    low = np.minimum(up, down, out=up).min(axis=1, initial=0.0)
    # sorted, a row's non-finite x sit at its ends (a NaN last); a non-finite
    # g or f puts an infinite dg^2 or df in each pair it is in, which makes
    # Q(k, k+1) or Q(k+1, k) -inf or NaN, so only rows whose minimum is
    # not finite are searched for one
    bad = ~(np.isfinite(x[:, 0]) & np.isfinite(x[:, -1]))
    odd = np.flatnonzero(~np.isfinite(low))
    bad[odd] |= ~(np.isfinite(g[odd]).all(axis=1) & np.isfinite(f[odd]).all(axis=1))
    low[bad] = np.nan
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


def _slice_trace(xs, form, start: int, stop: int, every_value: bool = True):
    """``(X, G, F)`` of the coordinates ``start..stop`` of the points ``xs``,
    one instance each, and their :class:`CoordForm`: X is an ``(n+1, stop -
    start, 1)`` view, G and F are new contiguous arrays.  F holds the values
    of every point if ``every_value``, else those of points 0 and n only
    (its rows 0 and -1)."""
    X = xs[:, start:stop, None]
    part = CoordForm(*(a[start:stop, None] for a in form))
    F = values(X if every_value else X[[0, -1]], part)
    return (X, gradients(X, part), F), part


def _one_loop(battery: PackedBattery, runs, every_value: bool):
    """One GD loop over the packed battery followed by the 1-D tight rows of
    ``runs``, a list of ``(schedule, rows)`` with rows as :func:`_tight_rows`
    gives them: the battery and the first run's rows take the first run's
    steps, each later run's rows its own schedule's steps.  Returns the
    battery's ``(X, G, F)``, instances in index order, with the values of
    every point if ``every_value`` and else of points 0 and n only; the
    battery's :class:`CoordForm`; and the tight traces ``(x, g, f)`` in row
    order, copied contiguous: a strided ``(n+1, 1)`` view sends the
    ``np.dot`` of :func:`_weighted_sum` down another BLAS path, which
    changes the last bits."""
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
    tail, _ = _slice_trace(xs, form, m, stop)
    traces = [tuple(np.ascontiguousarray(a[:, j]) for a in tail) for j in range(stop - m)]
    return *_slice_trace(xs, form, 0, m, every_value), traces


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
    # the f weights and the s mixed inequality sum per-point terms over
    # every value; the other slacks and the scales read f_0 and f_n only
    (X, G, F), form, traces = _one_loop(_battery(config.battery, config.seed), runs, cert is not None)
    scales = np.maximum(1.0, np.maximum(_dot(X[0], X[0]), F[0]))
    slacks = _battery_slacks(schedule, cert, implied, X, G, F)
    scores = {f"battery/{key}": slack / scales for key, slack in slacks.items()}
    scores["interpolation"] = _q_min_batched(X, form)
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
