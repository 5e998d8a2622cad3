"""Fixed-step gradient descent on separable 1-smooth convex test instances.

Instances are per-coordinate mixtures of two families, both minimized at the
origin with minimum value 0:

* quadratic with curvature ``a`` in (0, 1]:  a*x^2/2
* Huber with kink ``delta`` > 0:  x^2/2 inside |x| <= delta, affine outside

Separable sums keep exact minimizers and 1-smoothness while letting the
dimension grow for randomized checks.  The iteration is
``x_{i+1} = x_i - h_i * grad f(x_i)``.

Both gradients are one clip, ``grad = clip(curv*x, -cap, cap)``: a Huber
coordinate has curvature 1 and cap ``delta``, a quadratic one has curvature
``a`` and no cap.  The clip is exact, because ``1*x == x`` and
``clip(a*x, -inf, inf) == a*x``; at the kink it returns ``x``, the value of
both branches.  Both values are one select over the same constants,
``((0.5*curv)*x)*x`` where ``|x| <= cap`` and ``delta*|x| - (0.5*delta)*delta``
elsewhere, computed in place over buffers a caller may reuse
(:func:`_coord_value`, the one value formula).  It gives the bits of the
two-branch formulas; only at a NaN, where a quadratic coordinate takes the
line, can the NaN's sign differ.  :class:`CoordForm` holds these
per-coordinate constants.

:func:`descend` is the one GD loop: it stores only the points, takes each
gradient into one reused row, and can drive segments of the coordinates
with step sequences of their own.  A step row holds every coordinate's
step of one iteration; the loop fills a reused block of them (at most
``_STEP_BLOCK`` values) once per block of iterations, so each iteration
multiplies the gradient row by one array row, whatever the number of
segments.  Gradients and values are pure
elementwise functions of the points, so :func:`gradients` and
:func:`values` evaluate them after the loop, over whatever slice of the
points a caller reads: the verifier evaluates the battery's values only at
the points its checks read, and its interpolation check evaluates both on
the points sorted.  A value of one coordinate is the formula's result plus
+0.0 (the :func:`coord_sum` of one entry).  ``raw_run`` is the loop with
one segment plus both evaluators.  A trace is its arrays ``x, g, f`` and nothing else; ``run``
wraps one unbatched ``raw_run`` in a :class:`GDTrace`.

:func:`coord_sum` is the one sum over the coordinate axis, of values here
and of the verifier's inner products.  It keeps the bits of
``np.add.reduce(a, -1)`` but, on many rows of one coordinate (the verifier's
battery), adds the column instead of paying numpy's cost per row.

Each class's tight instances, from ``x0 = 1``, are the unit quadratic and
the Huber function with the kink :func:`tight_delta` gives.

Randomized generators take a ``numpy.random.Generator`` (PCG64 via
``default_rng`` everywhere in this package) so seeded runs reproduce
trace statistics; bit-exactness across platforms is not promised.  The
annotations that name it are quoted, so ``numpy.random`` loads at the first
draw (the verifier's battery, ``run --function random:``), not with this
module.
"""

import csv
import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .schedule import CompClass, ResourceCapError, ScheduleError, StepSchedule, fg_rates_from_s

# Most coordinates a random instance draws or a trace holds, (n+1)*d: 128 MiB per float array.
MAX_COORDS = 2**24


class CoordForm(NamedTuple):
    """Per-coordinate constants of a test function: the gradient is
    ``clip(curv*x, low, high)`` and the value ``(0.5*curv*x)*x`` inside
    ``|x| <= high``, ``param*|x| - 0.5*param*param`` outside."""

    curv: np.ndarray
    low: np.ndarray
    high: np.ndarray
    param: np.ndarray


def coord_form(is_huber, param) -> CoordForm:
    """The :class:`CoordForm` of Huber (kink ``param``) and quadratic
    (curvature ``param``) coordinates; ``high`` is the cap, inf if quadratic."""
    param = np.asarray(param, dtype=np.float64)
    cap = np.where(is_huber, param, np.inf)
    return CoordForm(np.where(is_huber, 1.0, param), -cap, cap, param)


def gradients(x, form: CoordForm, out=None):
    """Gradients at the points ``x``, into ``out`` when given.  Three ufuncs
    with ``out=`` instead of ``np.clip``, whose Python wrapper costs more
    than the arithmetic at battery sizes."""
    g = np.multiply(form.curv, x, out=out)
    np.maximum(g, form.low, out=g)
    return np.minimum(g, form.high, out=g)


def _coord_value(x, form: CoordForm, out=None, work=None):
    """Each coordinate's value at the points ``x``, into ``out`` when given:
    ``((0.5*curv)*x)*x`` where ``|x| <= high``, else ``param*|x| -
    (0.5*param)*param``.  ``work``, when given, is a scratch array of the
    same shape for the quadratic.  The one value formula: :func:`values`,
    :meth:`ProblemInstance.value` and the verifier's interpolation check
    all evaluate it."""
    value = np.abs(x, out=out)
    inside = np.less_equal(value, form.high)  # False at a NaN, which takes the line
    value = np.multiply(form.param, value, out=out)
    np.subtract(value, (0.5 * form.param) * form.param, out=value)
    quad = np.multiply(0.5 * form.curv, x, out=work)
    np.multiply(quad, x, out=quad)
    np.copyto(value, quad, where=inside)
    return value


# Values, and the verifier's per-point certificate terms, are evaluated over
# blocks of rows holding at most this many coordinates, so their temporaries
# stay small beside the points themselves.
_VALUE_BLOCK = 2**15


def coord_sum(a, out=None):
    """``np.add.reduce(a, -1)`` bit for bit, into ``out`` when given.

    numpy sums each row of the last axis alone, at about 25 ns a row, which
    at one coordinate costs more than the addition.  From 64 rows of one
    coordinate on (the verifier's battery, whose instances are 1-D), the
    column is added to +0.0 instead, which turns a -0.0 into +0.0 as the
    reduce's start value does.  Fewer rows, where numpy's per-row cost is
    below the column call's, and wider rows take the reduce.
    """
    if a.shape[-1] != 1 or a.size < 64:
        return np.add.reduce(a, -1, out=out)
    return np.add(a[..., 0], 0.0, out=out)


def values(xs, form: CoordForm):
    """``f`` at each point of ``xs``, shaped ``(N, ..., d)``: the coordinate
    values summed over the last axis (:func:`coord_sum`), as an ``(N, ...)``
    array.  The blocks of rows reuse two buffers for :func:`_coord_value`."""
    fs = np.empty(xs.shape[:-1])
    rows = max(1, _VALUE_BLOCK // max(1, xs[0].size))
    value, work = np.empty((2, min(rows, len(xs))) + xs.shape[1:])  # reused by every block
    for r in range(0, len(xs), rows):
        x = xs[r : r + rows]
        coord_sum(_coord_value(x, form, value[: len(x)], work[: len(x)]), out=fs[r : r + rows])
    return fs


# The loop's step rows are filled in blocks of at most this many values (32
# KiB), or of one row where a row is wider, so its scratch beside the
# points and the gradient row stays small at any battery or scan grid.
_STEP_BLOCK = 2**12


def descend(runs, form: CoordForm, x0):
    """The points of gradient descent from ``x0``, shaped ``(n+1,) + x0.shape``.

    ``runs`` is a list of ``(steps, stop)``: the coordinates of the last
    axis from the previous run's ``stop`` (0 for the first) up to ``stop``
    take ``steps``; every run has the same length n, and the last ``stop``
    is ``x0.shape[-1]``.  ``form`` broadcasts against ``x0``.

    Step i's row holds each coordinate's step i along the last axis, and
    broadcasts over the leading axes of ``x0``.  The rows sit in a reused
    block of ``_STEP_BLOCK // x0.shape[-1]`` rows (at least one; n if that
    is fewer), filled by one slice assignment per run once per block of
    steps.  Each step takes the gradient into one reused row, then makes
    one multiply by its step row and one subtract, however many runs there
    are.  The operand is an array because numpy converts a Python-float
    operand on every call, which makes a call at battery sizes about 1.5
    times as slow; the product is the same IEEE product of the same two
    values, so the points keep their bits.  The loop keeps no gradient and
    evaluates no value.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    n, width = len(runs[0][0]), x0.shape[-1]
    xs = np.empty((n + 1,) + x0.shape)
    xs[0] = x0
    g = np.empty(x0.shape)
    k = max(1, min(n, _STEP_BLOCK // max(1, width)))
    H = np.empty((k, width))
    fills, start = [], 0
    for steps, stop in runs:
        fills.append((H[:, start:stop], np.asarray(steps, dtype=np.float64).reshape(-1, 1)))
        start = stop
    x = xs[0]
    for b in range(0, n, k):
        m = min(k, n - b)
        for block, steps in fills:
            block[:m] = steps[b : b + m]
        # iterating makes each row's view as its step comes: a list of the
        # views of every row would outgrow the block
        for nxt, h in zip(xs[b + 1 : b + m + 1], H):
            gradients(x, form, out=g)
            np.multiply(g, h, nxt)
            np.subtract(x, nxt, nxt)
            x = nxt
    return xs


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Separable test function: per-coordinate quadratic or Huber.

    ``param[i]`` is the curvature for quadratic coordinates and the kink
    location for Huber coordinates.  Minimizer is the origin, f* = 0.
    """

    is_huber: np.ndarray
    param: np.ndarray

    def __post_init__(self):
        hub = np.asarray(self.is_huber, dtype=bool).reshape(-1)
        par = np.asarray(self.param, dtype=np.float64).reshape(-1)
        if hub.shape != par.shape:
            raise ScheduleError("is_huber and param must have matching shapes")
        if not np.all(par > 0.0):
            raise ScheduleError("parameters must be positive")
        if not np.all(par[~hub] <= 1.0):
            raise ScheduleError("quadratic curvatures above 1 break 1-smoothness")
        hub.flags.writeable = False
        par.flags.writeable = False
        object.__setattr__(self, "is_huber", hub)
        object.__setattr__(self, "param", par)

    @property
    def dim(self) -> int:
        return int(self.param.size)

    def value(self, x):
        return coord_sum(_coord_value(x, coord_form(self.is_huber, self.param)))

    def grad(self, x):
        return gradients(x, coord_form(self.is_huber, self.param))

    def describe(self) -> str:
        if self.dim == 1:
            kind = "huber" if self.is_huber[0] else "quad"
            key = "delta" if self.is_huber[0] else "a"
            return f"{kind}:{key}={self.param[0]:.12g}"
        nh = int(self.is_huber.sum())
        return f"separable(d={self.dim}, huber={nh}, quad={self.dim - nh})"


def quad_instance(a: float = 1.0, d: int = 1) -> ProblemInstance:
    return ProblemInstance(np.zeros(d, dtype=bool), np.full(d, float(a)))


def huber_instance(delta: float, d: int = 1) -> ProblemInstance:
    return ProblemInstance(np.ones(d, dtype=bool), np.full(d, float(delta)))


def random_instance(rng: "np.random.Generator", d: int) -> ProblemInstance:
    """Random per-coordinate mixture; deltas log-uniform, curvatures uniform.
    A dimension above ``MAX_COORDS`` raises ``ResourceCapError`` before any draw."""
    if d < 1:
        raise ScheduleError(f"dimension must be a positive integer, got {d}")
    if d > MAX_COORDS:
        raise ResourceCapError(f"dimension {d} exceeds cap {MAX_COORDS}")
    is_huber = rng.random(d) < 0.5
    param = np.where(
        is_huber,
        10.0 ** rng.uniform(-3.0, 0.0, d),
        rng.uniform(0.05, 1.0, d),
    )
    return ProblemInstance(is_huber, param)


def random_x0(rng: "np.random.Generator", d: int) -> np.ndarray:
    """Gaussian start point with a random decade of overall scale."""
    return rng.standard_normal(d) * 10.0 ** rng.uniform(-1.0, 1.0)


@dataclass(frozen=True, eq=False)
class GDTrace:
    """Full history of one run: points, gradients, and values, 0..n.  Only
    the arrays: the caller holds the schedule and the instance that made it."""

    x: np.ndarray  # (n+1, d)
    g: np.ndarray  # (n+1, d)
    f: np.ndarray  # (n+1,)

    @property
    def n(self) -> int:
        return int(self.f.size - 1)

    def objective_gap(self) -> float:
        return float(self.f[-1])  # f* = 0: every instance is minimized at the origin

    def half_grad_sq(self) -> float:
        return float(0.5 * np.sum(self.g[-1] * self.g[-1]))

    def half_dist_sq(self) -> float:
        return float(0.5 * np.sum(self.x[-1] * self.x[-1]))

    def to_csv(self, fileobj=None) -> str:
        """Columns: i, x (semicolon-joined), f_i, grad_norm."""
        out = fileobj or io.StringIO()
        w = csv.writer(out)
        w.writerow(["i", "x", "f_i", "grad_norm"])
        for i in range(self.n + 1):
            x = ";".join(format(v, ".17g") for v in self.x[i])
            w.writerow([i, x, format(self.f[i], ".17g"), format(float(np.linalg.norm(self.g[i])), ".17g")])
        return out.getvalue() if fileobj is None else ""


def raw_run(steps, is_huber, param, x0):
    """Iterate GD returning raw arrays; broadcasts over leading batch axes.

    ``x0`` has shape (..., d) and the instance arrays broadcast against it.
    Returns ``(xs, gs, fs)`` with shapes (n+1, ..., d) twice and (n+1, ...).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    form = coord_form(is_huber, param)
    xs = descend([(steps, x0.shape[-1])], form, x0)
    return xs, gradients(xs, form), values(xs, form)


def run(schedule: StepSchedule, instance: ProblemInstance, x0) -> GDTrace:
    """Run gradient descent with the schedule's steps from ``x0``.  A trace of
    more than ``MAX_COORDS`` coordinates raises ``ResourceCapError`` first."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    if x0.shape != (instance.dim,):
        raise ScheduleError(f"x0 has shape {x0.shape}, instance dimension is {instance.dim}")
    finite = np.isfinite(x0)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ScheduleError(f"x0 must be finite, got {float(x0[i])!r} at coordinate {i}")
    if (schedule.n + 1) * instance.dim > MAX_COORDS:
        raise ResourceCapError(f"trace of {schedule.n + 1} points in dimension {instance.dim} exceeds cap {MAX_COORDS}")
    xs, gs, fs = raw_run(schedule.steps, instance.is_huber, instance.param, x0)
    return GDTrace(xs, gs, fs)


# Which Huber kink makes each certified inequality an equality from x0 = 1.
TIGHT_PURPOSES = ("defining", "f-line", "g-line")


def tight_delta(comp_class: CompClass, purpose: str, rate: float) -> float:
    """The kink of the 1-D Huber instance that meets the class inequality of
    ``purpose`` with equality from ``x0 = 1``; the unit quadratic
    ``quad_instance()`` is tight for every defining inequality as well."""
    if not (0.0 < rate <= 1.0):
        raise ScheduleError(f"rate must lie in (0, 1], got {rate}")
    if purpose not in TIGHT_PURPOSES:
        raise ScheduleError(f"unknown purpose {purpose!r}, expected one of {TIGHT_PURPOSES}")
    if comp_class is not CompClass.S and purpose != "defining":
        raise ScheduleError(f"{comp_class.value}-class schedules only have the defining tight instance")
    if comp_class is CompClass.F:
        return rate
    if comp_class is CompClass.G:
        return 2.0 * rate / (1.0 + rate)
    # class S: the defining inequality is tight for any delta <= rate; take
    # delta = rate.  The implied objective-gap bound needs rate/(2 - rate),
    # the implied gradient bound needs rate itself.
    if purpose == "f-line":
        return rate / (2.0 - rate)
    return rate


class WorstCaseResult(NamedTuple):
    delta_star: float
    worst_value: float
    quad_value: float
    criterion: str


WORST_CASE_CRITERIA = ("objective_gap_per_D2", "gradnorm_per_gap")


def worst_case_scan(
    schedule: StepSchedule, criterion: str, grid_size: int = 256
) -> WorstCaseResult:
    """Empirical worst case over the 1-D Huber family from ``x0 = 1``.

    Scans the kink over a log-uniform grid in (1e-6, 1], plus the unit
    quadratic.  All runs execute as one separable batch since the
    coordinates evolve independently; the quadratic is the last row.  A scan
    of more than ``MAX_COORDS`` points raises ``ResourceCapError`` first.
    """
    if criterion not in WORST_CASE_CRITERIA:
        raise ScheduleError(f"unknown criterion {criterion!r}, expected one of {WORST_CASE_CRITERIA}")
    if grid_size < 100:
        raise ScheduleError(f"grid_size must be at least 100, got {grid_size}")
    if (schedule.n + 1) * (grid_size + 1) > MAX_COORDS:
        raise ResourceCapError(f"scan of {schedule.n + 1} points x {grid_size + 1} runs exceeds cap {MAX_COORDS}")
    deltas = np.geomspace(1e-6, 1.0, grid_size)
    is_huber = np.arange(grid_size + 1).reshape(-1, 1) < grid_size
    param = np.append(deltas, 1.0).reshape(-1, 1)
    x0 = np.ones((grid_size + 1, 1))
    xs, gs, fs = raw_run(schedule.steps, is_huber, param, x0)

    if criterion == "objective_gap_per_D2":
        vals = fs[-1] / 0.5  # D = 1
    else:
        vals = 0.5 * gs[-1, :, 0] ** 2 / fs[0]
    i = int(np.argmax(vals[:grid_size]))
    return WorstCaseResult(float(deltas[i]), float(vals[i]), float(vals[grid_size]), criterion)


def certified_bound(schedule: StepSchedule, criterion: str) -> "float | None":
    """The certified value for a scan criterion, or None when the class
    does not certify it (F certifies gap, G certifies gradient, S both).
    An S rate of 0 or 2 raises ``ScheduleError`` (``fg_rates_from_s``)."""
    if schedule.comp_class is CompClass.S:
        return fg_rates_from_s(schedule)[0]
    if schedule.comp_class is CompClass.F and criterion == "objective_gap_per_D2":
        return schedule.rate
    if schedule.comp_class is CompClass.G and criterion == "gradnorm_per_gap":
        return schedule.rate
    return None
