"""Core algebra of composable stepsize schedules.

A schedule is a finite sequence of positive stepsizes for fixed-step
gradient descent on 1-smooth convex functions, carrying a composability
class and a certified worst-case rate ``eta``:

* class F  --  final objective gap:    f(x_n) - f*  <=  eta/2 * ||x0 - x*||^2
* class G  --  final gradient norm:    ||g_n||^2/2  <=  eta * (f(x0) - f*)
* class S  --  a mixed contraction that yields F- and G-type guarantees
               simultaneously (see :func:`fg_rates_from_s`).

Certified schedules obey closed-form identities tying the rate to the
steps: for F and G, ``eta = 1/(1 + 2*sum(h)) = prod(h_i - 1)^2``; for S,
``eta = 1/(1 + sum(h)) = prod(h_i - 1)``.  The empty schedule belongs to
all three classes with rate exactly 1.

Schedules of compatible classes combine with three join operations.  A
join concatenates its operands around one closed-form middle step ``mu``
and multiplies rates through a closed-form scalar join.  A join-built
schedule carries its construction tree, which is a shape only: each ``mu``
follows from the operand rates and is stored once, in the steps.  All
values here are immutable; every operation is a pure function.
"""

import enum
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DEFAULT_IDENTITY_TOL = 1e-9
# Longest schedule a tree may build (128 MiB of steps): silver(20) and a few
# joins of it fit, while a shared tree doubles its length with each level.
MAX_TREE_STEPS = 2**24
# Longest tree text; a longer one, only a shared tree's, is abbreviated.
MAX_TREE_TEXT = 2**24


class ScheduleError(ValueError):
    """Base class for schedule construction errors."""


class ClassMismatchError(ScheduleError):
    """An operand does not belong to the composability class an operation needs."""


class IdentityError(ScheduleError):
    """A schedule's rate disagrees with its closed-form step identities."""


class UncertifiedScheduleError(ScheduleError):
    """Operation requires a certified (non-conjectured, join-built) schedule."""


class ResourceCapError(RuntimeError):
    """A size guard was exceeded (enumeration length, table size, ...)."""


class CompClass(str, enum.Enum):
    F = "f"
    G = "g"
    S = "s"


class JoinOp(enum.Enum):
    SJOIN = "><"
    FJOIN = "|>"
    GJOIN = "<|"

    @property
    def symbol(self) -> str:
        return self.value


# Concatenation-order operand classes and result class for each join.
_OPERAND_CLASSES = {
    JoinOp.SJOIN: (CompClass.S, CompClass.S),
    JoinOp.FJOIN: (CompClass.S, CompClass.F),
    JoinOp.GJOIN: (CompClass.G, CompClass.S),
}
_RESULT_CLASS = {
    JoinOp.SJOIN: CompClass.S,
    JoinOp.FJOIN: CompClass.F,
    JoinOp.GJOIN: CompClass.G,
}


def operand_classes(op: JoinOp):
    """Required (left, right) classes for a join, in concatenation order."""
    return _OPERAND_CLASSES[op]


def result_class(op: JoinOp) -> CompClass:
    return _RESULT_CLASS[op]


# ---------------------------------------------------------------------------
# Scalar join formulas: one per join, giving the middle step and the rate
# from one square root, on scalars and arrays alike.
#
# ``alpha`` is always the rate of the S-class operand; ``beta`` the rate of
# the other operand (F for |>, G for <|, the second S for ><).  The s-join
# shares the denominator D = (a+b) + sqrt(a^2+6ab+b^2), the f/g-join the
# root r = sqrt(a^2+8ab):
#   s:    mu = 1 + 2/D,        rate = 2ab/D
#   f/g:  mu = 1 + 2/(a+r),    rate = 2ab/((a+4b)+r)
# These middle steps are the rationalized forms of the subtractive
# 1 + (sqrt(a^2+6ab+b^2) - (a+b))/(2ab) and 1 + (r - a)/(4ab), free of
# cancellation when one rate is much smaller than the other.  The symmetric
# grouping (a*a + b*b) + 6*(a*b) makes the s-join exactly commutative in
# floating point; the DP fill relies on it to scan only half of the s-splits.
# ---------------------------------------------------------------------------


def _sjoin(alpha, beta):
    d = (alpha + beta) + np.sqrt((alpha * alpha + beta * beta) + 6.0 * (alpha * beta))
    return 1.0 + 2.0 / d, (2.0 * alpha * beta) / d


def _fgjoin(alpha, beta):
    r = np.sqrt(alpha * alpha + 8.0 * (alpha * beta))
    return 1.0 + 2.0 / (alpha + r), (2.0 * alpha * beta) / ((alpha + 4.0 * beta) + r)


def _sjoin_rate(alpha, beta):
    return _sjoin(alpha, beta)[1]


def _fgjoin_rate(alpha, beta):
    return _fgjoin(alpha, beta)[1]


def join_step(op: JoinOp, left_rate: float, right_rate: float):
    """``(mu, rate)`` of a join node: the middle step it inserts and the
    joined rate, from the operand rates in concatenation order.

    Rates above 1 are accepted: the formulas are defined for all positive
    scalars, which the asymptotic-bound computations rely on.
    """
    if not (left_rate > 0.0 and right_rate > 0.0):
        raise ScheduleError(f"join rates must be positive, got {left_rate} and {right_rate}")
    # the formulas take the S-side rate first: <| has it on the right
    alpha, beta = (right_rate, left_rate) if op is JoinOp.GJOIN else (left_rate, right_rate)
    mu, rate = (_sjoin if op is JoinOp.SJOIN else _fgjoin)(alpha, beta)
    return float(mu), float(rate)


# ---------------------------------------------------------------------------
# Construction trees.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class CompositionTree:
    """Binary construction tree: a shape only, and what ``dsl.parse`` returns.

    ``op is None`` marks the empty-schedule leaf ``e``; an operand may also be
    a foreign leaf with ``is_leaf``, ``==`` and hash (the DSL's macros).  The
    steps of the schedule carrying the tree hold every join's ``mu``, which its
    operands' rates fix.  ``==``, hash and ``repr`` (the canonical expression
    text) are structural :func:`postorder` folds: they never recurse, and
    ``==`` and hash cost time linear in the distinct nodes, however shared.
    """

    op: "JoinOp | None" = None
    left: "CompositionTree | None" = None
    right: "CompositionTree | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    def length(self) -> int:
        """Total schedule length: one step per join node (shared nodes counted per use)."""
        return postorder(self, lambda node: 0, lambda node, left, right: left + right + 1)

    def __eq__(self, other):
        """Both trees fold into ids of one table of node shapes."""
        if not isinstance(other, CompositionTree):
            return NotImplemented
        shapes: dict = {}
        shape = lambda node, *ids: shapes.setdefault(_shape_key(node, *ids), len(shapes))
        return self is other or postorder(self, shape, shape) == postorder(other, shape, shape)

    def __hash__(self):
        shape = lambda node, *hashes: hash(_shape_key(node, *hashes))
        return postorder(self, shape, shape)

    def __repr__(self):
        """The canonical text, or past ``MAX_TREE_TEXT`` characters (sized
        first, per distinct node) an abbreviation."""
        leaf = lambda node: "e" if isinstance(node, CompositionTree) else str(node)
        size = postorder(self, lambda node: len(leaf(node)), lambda node, left, right: left + right + 4 + len(node.op.symbol))
        if size > MAX_TREE_TEXT:
            return f"<CompositionTree of {self.length()} steps: {size} characters of text>"
        return postorder(self, leaf, lambda node, left, right: f"({left} {node.op.symbol} {right})")


def _shape_key(node, *operands):
    """A join's op and operand values, or a leaf's ``==`` key (every ``e`` alike)."""
    return (node.op, *operands) if operands else (None if isinstance(node, CompositionTree) else node)


LEAF = CompositionTree()


def empty_leaf(node) -> None:
    """The one reading of a leaf without a schedule of its own: ``e``, the
    empty schedule (None).  Any other leaf, such as a DSL macro, raises a
    ``ScheduleError`` naming it, so no fold reads it as empty."""
    if not isinstance(node, CompositionTree):
        raise ScheduleError(f"leaf {node} is not e: it needs its leaf schedule")


ALL_CLASSES = frozenset(CompClass)


def postorder(tree, leaf, combine):
    """Fold a tree bottom-up, left subtree first: a leaf node has the value
    ``leaf(node)`` and a join node ``combine(node, left_value, right_value)``.
    The one tree walk (any leaf with ``is_leaf`` folds, the DSL's macros too).
    Iterative, so deep chains cannot overflow the stack.  A node shared by
    several parents (by identity) is folded once, and each value is dropped
    after its last parent used it, so a chain holds O(1) values."""
    order, uses = [], {}  # distinct nodes, children first; parent edges per node
    stack = [tree]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (join,) once both its subtrees are ordered
            order.append(node[0])
            continue
        seen = uses.get(id(node), 0)
        uses[id(node)] = seen + 1
        if seen:
            continue
        if node.is_leaf:
            order.append(node)
        else:
            stack += ((node,), node.right, node.left)
    values = {}
    for node in order:
        if node.is_leaf:
            values[id(node)] = leaf(node)
            continue
        args = []
        for child in (id(node.left), id(node.right)):
            args.append(values[child])
            uses[child] -= 1
            if not uses[child]:
                del values[child]
        values[id(node)] = combine(node, *args)
    return values[id(tree)]


def join_classes(op: JoinOp, left: frozenset, right: frozenset) -> frozenset:
    """The join typing rule: ``op`` on operands that admit the classes
    ``left`` and ``right`` has its result class, or none when an operand
    cannot take the class it needs."""
    lneed, rneed = operand_classes(op)
    return frozenset((result_class(op),)) if lneed in left and rneed in right else frozenset()


# ---------------------------------------------------------------------------
# Schedules.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StepSchedule:
    """A stepsize sequence with its composability class and certified rate.

    ``tree`` records the join construction when there is one; schedules
    without a tree (e.g. optimal constant schedules) are not join-built and
    are excluded from tree-based operations such as reversal.
    ``conjectured`` marks schedules whose class membership is numerically
    supported but unproven; they are barred from joins.
    """

    steps: np.ndarray
    comp_class: CompClass
    rate: float
    tree: "CompositionTree | None" = None
    conjectured: bool = False

    def __post_init__(self):
        arr = np.asarray(self.steps, dtype=np.float64)
        arr = arr.reshape(-1).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "steps", arr)
        object.__setattr__(self, "rate", float(self.rate))

    @property
    def n(self) -> int:
        return int(self.steps.size)

    def describe(self) -> str:
        tag = " (conjectured)" if self.conjectured else ""
        return f"{self.comp_class.value}-schedule n={self.n} rate={self.rate:.10g}{tag}"

    def __repr__(self):  # keep long schedules readable
        head = ", ".join(f"{s:.6g}" for s in self.steps[:6])
        more = ", ..." if self.n > 6 else ""
        return f"StepSchedule([{head}{more}], {self.comp_class.value}, rate={self.rate:.10g}, n={self.n})"


def empty_schedule(comp_class: CompClass) -> StepSchedule:
    """The length-0 schedule; member of every class with rate exactly 1."""
    return StepSchedule(np.empty(0), comp_class, 1.0, tree=LEAF)


def closed_form_rates(steps: np.ndarray, comp_class: CompClass):
    """The two closed-form rate expressions for a step sequence.

    Returns ``(denominator_form, product_form)``: for F/G these are
    ``1/(1+2*sum)`` and ``prod(h-1)^2``, for S ``1/(1+sum)`` and ``prod(h-1)``.
    Empty schedules give ``(1.0, 1.0)``.
    """
    steps = np.asarray(steps, dtype=np.float64)
    if steps.size == 0:
        return 1.0, 1.0
    if comp_class is CompClass.S:
        return 1.0 / (1.0 + steps.sum()), float((steps - 1.0).prod())
    prod = float((steps - 1.0).prod())
    return 1.0 / (1.0 + 2.0 * steps.sum()), prod * prod


def validate_schedule(s: StepSchedule, tol: float = DEFAULT_IDENTITY_TOL) -> float:
    """Check positivity and the closed-form rate identities to relative ``tol``;
    returns the larger relative deviation of the two closed forms."""
    if s.n and not (s.steps > 0.0).all():
        raise IdentityError(f"steps must be positive: {s!r}")
    if not (0.0 < s.rate <= 1.0):
        raise IdentityError(f"rate must lie in (0, 1], got {s.rate}")
    if s.n == 0 and s.rate != 1.0:
        raise IdentityError(f"empty schedule must have rate exactly 1, got {s.rate}")
    denom_form, prod_form = closed_form_rates(s.steps, s.comp_class)
    for name, val in (("1/(1+c*sum h)", denom_form), ("prod(h-1) form", prod_form)):
        if abs(s.rate - val) > tol * s.rate:
            raise IdentityError(
                f"{s.comp_class.value}-identity violated: rate={float(s.rate)!r} but {name}={float(val)!r} "
                f"(relative error {abs(s.rate - val) / s.rate:.3e} > {tol:g})"
            )
    return max(abs(s.rate - denom_form), abs(s.rate - prod_form)) / s.rate


def join(op: JoinOp, a: StepSchedule, b: StepSchedule) -> StepSchedule:
    """Join two certified schedules: concatenate around the middle step.

    Operands are taken in concatenation order: ``|>`` needs (S, F), ``<|``
    needs (G, S), ``><`` needs (S, S).  The result's rate is the scalar join
    of the operand rates and is validated against the closed-form identities.
    """
    lneed, rneed = operand_classes(op)
    if a.comp_class is not lneed or b.comp_class is not rneed:
        raise ClassMismatchError(
            f"{op.symbol} requires (left={lneed.value}, right={rneed.value}), "
            f"got (left={a.comp_class.value}, right={b.comp_class.value})"
        )
    if a.conjectured or b.conjectured:
        raise UncertifiedScheduleError("cannot join conjectured schedules: their class membership is unproven")
    mu, rate = join_step(op, a.rate, b.rate)
    steps = np.concatenate([a.steps, [mu], b.steps])
    tree = None
    if a.tree is not None and b.tree is not None:
        tree = CompositionTree(op, a.tree, b.tree)
    out = StepSchedule(steps, result_class(op), rate, tree)
    validate_schedule(out)
    return out


_REVERSED_CLASS = {CompClass.F: CompClass.G, CompClass.G: CompClass.F, CompClass.S: CompClass.S}
_REVERSED_OP = {JoinOp.FJOIN: JoinOp.GJOIN, JoinOp.GJOIN: JoinOp.FJOIN, JoinOp.SJOIN: JoinOp.SJOIN}


def reverse(h: StepSchedule) -> StepSchedule:
    """Reversal duality: flip the steps, swap F and G, keep the rate.

    Only proven for join-built schedules, so a construction tree is
    required.  The tree is mirrored with ``|>`` and ``<|`` exchanged; its
    leaves must be ``e`` (:func:`empty_leaf`), so a DSL macro leaf raises.
    """
    if h.tree is None:
        raise UncertifiedScheduleError("reversal is certified only for schedules with a construction tree")
    mirrored = postorder(
        h.tree,
        lambda node: empty_leaf(node) or LEAF,
        lambda node, left, right: CompositionTree(_REVERSED_OP[node.op], right, left),
    )
    return flip(h, mirrored)


def flip(h: StepSchedule, tree: "CompositionTree | None" = None) -> StepSchedule:
    """The reversed steps, of the swapped class (F and G exchanged) at the same
    rate, carrying ``tree``: :func:`reverse` without mirroring the tree."""
    return StepSchedule(h.steps[::-1], _REVERSED_CLASS[h.comp_class], h.rate, tree)


def fg_rates_from_s(h: StepSchedule):
    """Objective-gap and gradient-norm rates implied by an S-class schedule.

    Both equal ``1/(1 + 2*sum h) = 1/(2/eta - 1)`` (:func:`_s_fg_ratio`).
    """
    if h.comp_class is not CompClass.S:
        raise ClassMismatchError(f"expected an s-class schedule, got {h.comp_class.value}")
    r = _s_fg_ratio(h.rate)
    return r, r


def _s_fg_ratio(eta: float) -> float:
    """``1/(2/eta - 1)``, the factor of the gap and gradient bounds that
    class S implies.  At rate 0 or 2 it, or the ``g_n/eta`` of the gap
    bound's residual, divides by zero: there it raises a ``ScheduleError``."""
    if eta == 0.0 or eta == 2.0:
        raise ScheduleError(f"the s-implied bounds' factor 1/(2/eta - 1) is not defined at rate {eta!r}")
    return 1.0 / (2.0 / eta - 1.0)


class TreeFold(NamedTuple):
    """What one fold of a construction tree gives (:func:`fold_tree`)."""

    steps: np.ndarray  # the schedule's steps, in order
    rate: float
    classes: frozenset  # the classes the tree admits: leaves all three, joins :func:`join_classes`
    index: dict  # id(node) -> the distinct node's entry in rates and sizes
    rates: array  # each distinct node's rate
    sizes: array  # and its number of steps

    def node(self, node):
        """``(rate, number of steps)`` of a node of the tree."""
        i = self.index[id(node)]
        return self.rates[i], self.sizes[i]


def fold_tree(tree, leaf=empty_leaf) -> TreeFold:
    """The schedule a tree evaluates to, bit for bit that of joining upward,
    with no join per node, and the classes it admits, from one walk.

    One :func:`postorder` fold carries the operand rates up the distinct
    nodes as :func:`join` does, keeping each node's rate, middle step, length
    and classes; an explicit stack then lays the steps out in order, and
    each later use of a shared node copies the segment of its first.  So the
    Python work is O(distinct nodes) plus O(n) array writes: a chain of n
    joins costs O(n), where joining it copies O(n^2) steps.  ``leaf(node)``
    is a leaf's schedule, or None for the empty one (rate 1, no steps); a
    ``ScheduleError`` it raises leaves the fold at that leaf, so no tree
    folds with a refused leaf.  The default, :func:`empty_leaf`, reads ``e``
    alone and refuses any other leaf.  A node of more than
    ``MAX_TREE_STEPS`` steps raises ``ResourceCapError`` before anything of
    its size is made.
    """
    # per distinct node one dict entry and machine numbers in typed arrays,
    # not a float or int object each
    index, rates, sizes, mus, leaves = {}, array("d"), array("q"), array("d"), {}

    def leaf_classes(node):
        h = leaf(node)
        leaves[len(rates)] = h
        index[id(node)] = len(rates)
        rates.append(1.0 if h is None else h.rate)
        sizes.append(0 if h is None else h.n)
        mus.append(0.0)  # a leaf has no middle step
        return ALL_CLASSES

    def combine(node, left, right):
        i, j = index[id(node.left)], index[id(node.right)]
        size = sizes[i] + sizes[j] + 1
        if size > MAX_TREE_STEPS:
            raise ResourceCapError(f"tree builds more than {MAX_TREE_STEPS} steps (cap)")
        mu, rate = join_step(node.op, rates[i], rates[j])
        index[id(node)] = len(rates)
        rates.append(rate)
        sizes.append(size)
        mus.append(mu)
        return join_classes(node.op, left, right)

    classes = postorder(tree, leaf_classes, combine)
    steps = np.empty(sizes[index[id(tree)]])
    first, at_mu, mu, copies = array("q", [-1]) * len(rates), array("q"), array("d"), []
    stack = [(tree, 0)]
    while stack:
        node, at = stack.pop()
        k = index[id(node)]
        size = sizes[k]
        if not size:
            continue
        if first[k] >= 0:  # a later use: copied once every step is in place
            copies.append((at, first[k], size))
            continue
        first[k] = at
        if node.is_leaf:
            steps[at : at + size] = leaves[k].steps
        else:
            mid = at + sizes[index[id(node.left)]]
            at_mu.append(mid)
            mu.append(mus[k])
            stack += ((node.right, mid + 1), (node.left, at))
    steps[np.asarray(at_mu)] = np.asarray(mu)
    # uses are visited in step order: a first use lies wholly before every
    # later use of its node, and the copies inside it come earlier in the list
    for at, src, size in copies:
        steps[at : at + size] = steps[src : src + size]
    root = index[id(tree)]
    return TreeFold(steps, rates[root], classes, index, rates, sizes)


def check_steps(s: StepSchedule, steps, rate: float, tol: float = DEFAULT_IDENTITY_TOL, source: str = "tree") -> None:
    """Raise ``IdentityError`` unless ``steps`` and ``rate``, built by
    ``source``, reproduce the schedule: the same length, every step within
    ``tol`` relative to max(1, h), and the rate within relative ``tol``.  A
    NaN anywhere fails."""
    if steps.size != s.n:
        raise IdentityError(f"{source} has length {steps.size}, schedule has {s.n} steps")
    if s.n:
        dev = np.abs(steps - s.steps) / np.maximum(1.0, s.steps)
        i = int(np.argmax(dev))  # the first NaN, if there is one
        if not dev[i] <= tol:
            raise IdentityError(
                f"{source} steps differ: step {i} is {float(steps[i])!r}, schedule has {float(s.steps[i])!r} "
                f"(relative {dev[i]:.3e} > {tol:g})"
            )
    if not abs(rate - s.rate) <= tol * s.rate:
        raise IdentityError(f"{source} rate {float(rate)!r} differs from the schedule's {s.rate!r} (tol {tol:g})")


def _require_class(classes: frozenset, comp_class: CompClass) -> None:
    if comp_class not in classes:
        raise ClassMismatchError(
            f"tree does not admit class {comp_class.value} "
            f"(admits {{{', '.join(sorted(c.value for c in classes))}}})"
        )


def check_tree(s: StepSchedule, tol: float = DEFAULT_IDENTITY_TOL) -> TreeFold:
    """The schedule's tree's :func:`fold_tree`, once it is proven to build
    the schedule: else a ``ScheduleError``, raised at a leaf that is not
    ``e`` (:func:`empty_leaf`), or because the tree does not admit the class,
    or because its steps and rate do not reproduce the schedule's
    (:func:`check_steps`).

    Linear in the tree.  ``StepSchedule`` does not run it: :func:`join`
    builds one at every node, so a chain of joins would cost O(n^2)."""
    fold = fold_tree(s.tree)
    _require_class(fold.classes, s.comp_class)
    check_steps(s, fold.steps, fold.rate, tol)
    return fold


def materialize(tree: CompositionTree, comp_class: CompClass, leaf=None) -> StepSchedule:
    """The schedule of the given class that a construction tree builds, bit
    for bit as joining upward would, from one :func:`fold_tree` and one
    validated ``StepSchedule``: O(n + distinct nodes).  Raises
    ``ClassMismatchError`` if the tree cannot produce the requested class.

    ``leaf(node)`` is a leaf's schedule, of the class its place requires (the
    DSL typechecks first), or None for ``e``; the default :func:`empty_leaf`
    reads ``e`` alone.  With ``leaf``, a shape walk first builds each leaf
    schedule once, refusing a conjectured one where it would be joined, so
    a DSL expression raises the error of its first offending node in walk
    order; the fold then reads the built leaves.  The result carries the
    tree, with each leaf's own tree in its place when ``leaf`` is given, or
    none when a leaf has none.
    """
    if tree.is_leaf:
        return (leaf or empty_leaf)(tree) or empty_schedule(comp_class)
    shape, leaves = tree, {}
    if leaf is not None:

        def leaf_shape(node):
            h = leaves[id(node)] = leaf(node)
            return getattr(h, "tree", node)  # e (None) keeps its own leaf

        def combine(node, left, right):
            # only a leaf schedule can be conjectured: refuse it where its join would
            if any(getattr(leaves.get(id(child)), "conjectured", False) for child in (node.left, node.right)):
                raise UncertifiedScheduleError("cannot join conjectured schedules: their class membership is unproven")
            return None if left is None or right is None else CompositionTree(node.op, left, right)

        shape = postorder(tree, leaf_shape, combine)
    fold = fold_tree(tree, empty_leaf if leaf is None else lambda node: leaves[id(node)])
    _require_class(fold.classes, comp_class)
    out = StepSchedule(fold.steps, comp_class, fold.rate, shape)
    validate_schedule(out)
    return out
