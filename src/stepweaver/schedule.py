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
and multiplies rates through a closed-form scalar join.  All values here
are immutable; every operation is a pure function.
"""

import enum
from dataclasses import dataclass

import numpy as np

DEFAULT_IDENTITY_TOL = 1e-9


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
# Scalar join formulas.
#
# ``alpha`` is always the rate of the S-class operand; ``beta`` the rate of
# the other operand (F for |>, G for <|, the second S for ><).  The middle
# steps use rationalized forms equivalent to the subtractive ones,
#   s:    mu = 1 + (sqrt(a^2+6ab+b^2) - (a+b)) / (2ab)
#   f/g:  mu = 1 + (sqrt(a^2+8ab) - a) / (4ab)
# but free of cancellation when one rate is much smaller than the other.
# The symmetric grouping (a*a + b*b) + 6*(a*b) makes the s-join exactly
# commutative in floating point; the DP fill relies on it to scan only half
# of the s-splits.
# ---------------------------------------------------------------------------


def _sjoin_rate(alpha, beta):
    return (2.0 * alpha * beta) / (
        (alpha + beta) + np.sqrt((alpha * alpha + beta * beta) + 6.0 * (alpha * beta))
    )


def _fgjoin_rate(alpha, beta):
    return (2.0 * alpha * beta) / (
        (alpha + 4.0 * beta) + np.sqrt(alpha * alpha + 8.0 * (alpha * beta))
    )


def _sjoin_mu(alpha, beta):
    return 1.0 + 2.0 / (
        (alpha + beta) + np.sqrt((alpha * alpha + beta * beta) + 6.0 * (alpha * beta))
    )


def _fgjoin_mu(alpha, beta):
    return 1.0 + 2.0 / (alpha + np.sqrt(alpha * alpha + 8.0 * (alpha * beta)))


def _require_positive(alpha, beta):
    if not (alpha > 0.0 and beta > 0.0):
        raise ScheduleError(f"join rates must be positive, got alpha={alpha}, beta={beta}")


def _s_side_first(op: JoinOp, left_rate: float, right_rate: float):
    """``(alpha, beta)`` from operand rates in concatenation order: S-side rate first."""
    if op is JoinOp.GJOIN:
        return right_rate, left_rate
    return left_rate, right_rate


def join_rate(op: JoinOp, alpha: float, beta: float) -> float:
    """Scalar join of two rates.

    ``alpha`` is the S-side rate, ``beta`` the F/G/second-S side.  Values
    above 1 are accepted: the formulas are defined for all positive scalars,
    which the asymptotic-bound computations rely on.
    """
    _require_positive(alpha, beta)
    if op is JoinOp.SJOIN:
        return float(_sjoin_rate(alpha, beta))
    return float(_fgjoin_rate(alpha, beta))


def middle_step(op: JoinOp, alpha: float, beta: float) -> float:
    """Middle stepsize inserted by a join; always > 1."""
    _require_positive(alpha, beta)
    if op is JoinOp.SJOIN:
        return float(_sjoin_mu(alpha, beta))
    return float(_fgjoin_mu(alpha, beta))


# ---------------------------------------------------------------------------
# Construction trees.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompositionTree:
    """Binary construction tree over empty-schedule leaves.

    ``op is None`` marks a leaf.  ``mu`` is filled when the tree comes from
    a materialized schedule and is left ``None`` on freshly built shapes.
    Equality and hashing are by identity: subtrees are routinely shared, so
    structural comparison would blow up on large balanced trees.
    """

    op: "JoinOp | None" = None
    left: "CompositionTree | None" = None
    right: "CompositionTree | None" = None
    mu: "float | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    def length(self) -> int:
        """Total schedule length: one step per join node (shared nodes counted per use)."""
        return postorder(self, lambda node: 0, lambda node, left, right: left + right + 1)


LEAF = CompositionTree()


ALL_CLASSES = frozenset(CompClass)


def postorder(tree, leaf, combine):
    """Fold a tree bottom-up, left subtree first: a leaf node has the value
    ``leaf(node)`` and a join node ``combine(node, left_value, right_value)``.
    Construction trees and DSL expressions fold alike (``is_leaf``, ``left``,
    ``right``).  Iterative, so deep chains cannot overflow the stack.  A node
    shared by several parents (by identity) is folded once, and each value is
    dropped after its last parent used it, so a chain holds O(1) values."""
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


def admissible_classes(tree: CompositionTree) -> frozenset:
    """Classes a tree can evaluate to: leaves admit all three, joins one."""
    return postorder(tree, lambda node: ALL_CLASSES, lambda node, left, right: join_classes(node.op, left, right))


def trees_equal(a: CompositionTree, b: CompositionTree, check_mu: bool = False) -> bool:
    """Structural tree equality, ignoring mu unless asked: both trees fold into
    ids of one table of node shapes, in time linear in their distinct nodes."""
    shapes: dict = {}

    def combine(node, left, right):
        shape = (node.op, left, right, node.mu) if check_mu else (node.op, left, right)
        return shapes.setdefault(shape, len(shapes))

    return postorder(a, lambda node: -1, combine) == postorder(b, lambda node: -1, combine)


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
        return 1.0 / (1.0 + steps.sum()), float(np.prod(steps - 1.0))
    prod = float(np.prod(steps - 1.0))
    return 1.0 / (1.0 + 2.0 * steps.sum()), prod * prod


def validate_schedule(s: StepSchedule, tol: float = DEFAULT_IDENTITY_TOL) -> None:
    """Check positivity and the closed-form rate identities to relative ``tol``."""
    if s.n and not np.all(s.steps > 0.0):
        raise IdentityError(f"steps must be positive: {s!r}")
    if not (0.0 < s.rate <= 1.0):
        raise IdentityError(f"rate must lie in (0, 1], got {s.rate}")
    if s.n == 0:
        if s.rate != 1.0:
            raise IdentityError(f"empty schedule must have rate exactly 1, got {s.rate}")
        return
    denom_form, prod_form = closed_form_rates(s.steps, s.comp_class)
    for name, val in (("1/(1+c*sum h)", denom_form), ("prod(h-1) form", prod_form)):
        if abs(s.rate - val) > tol * s.rate:
            raise IdentityError(
                f"{s.comp_class.value}-identity violated: rate={s.rate!r} but {name}={val!r} "
                f"(relative error {abs(s.rate - val) / s.rate:.3e} > {tol:g})"
            )


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
        raise UncertifiedScheduleError(
            "cannot join conjectured schedules: their class membership is unproven"
        )
    alpha, beta = _s_side_first(op, a.rate, b.rate)
    mu = middle_step(op, alpha, beta)
    rate = join_rate(op, alpha, beta)
    steps = np.concatenate([a.steps, [mu], b.steps])
    tree = None
    if a.tree is not None and b.tree is not None:
        tree = CompositionTree(op, a.tree, b.tree, mu)
    out = StepSchedule(steps, result_class(op), rate, tree)
    validate_schedule(out)
    return out


_REVERSED_CLASS = {CompClass.F: CompClass.G, CompClass.G: CompClass.F, CompClass.S: CompClass.S}
_REVERSED_OP = {JoinOp.FJOIN: JoinOp.GJOIN, JoinOp.GJOIN: JoinOp.FJOIN, JoinOp.SJOIN: JoinOp.SJOIN}


def reverse(h: StepSchedule) -> StepSchedule:
    """Reversal duality: flip the steps, swap F and G, keep the rate.

    Only proven for join-built schedules, so a construction tree is
    required.  The tree is mirrored with ``|>`` and ``<|`` exchanged.
    """
    if h.tree is None:
        raise UncertifiedScheduleError(
            "reversal is certified only for schedules with a construction tree"
        )
    mirrored = postorder(
        h.tree,
        lambda node: LEAF,
        lambda node, left, right: CompositionTree(_REVERSED_OP[node.op], right, left, node.mu),
    )
    return StepSchedule(h.steps[::-1].copy(), _REVERSED_CLASS[h.comp_class], h.rate, mirrored)


def fg_rates_from_s(h: StepSchedule):
    """Objective-gap and gradient-norm rates implied by an S-class schedule.

    Both equal ``1/(1 + 2*sum h) = 1/(2/eta - 1)``.
    """
    if h.comp_class is not CompClass.S:
        raise ClassMismatchError(f"expected an s-class schedule, got {h.comp_class.value}")
    r = 1.0 / (2.0 / h.rate - 1.0)
    return r, r


def evaluate_tree(tree, comp_class: CompClass, leaf) -> StepSchedule:
    """Fold a well-typed tree into a schedule of ``comp_class`` by joining upward.
    ``leaf(node)`` is a leaf's schedule, or None for a bare leaf, which takes
    the class its parent requires (``comp_class`` at the root)."""

    def combine(node, left, right):
        lcls, rcls = operand_classes(node.op)
        left = empty_schedule(lcls) if left is None else left
        right = empty_schedule(rcls) if right is None else right
        return join(node.op, left, right)

    out = postorder(tree, leaf, combine)
    return empty_schedule(comp_class) if out is None else out


def materialize(tree: CompositionTree, comp_class: CompClass) -> StepSchedule:
    """Evaluate a construction tree bottom-up into a schedule of the given class.

    Shared subtrees are evaluated once.  Raises ``ClassMismatchError`` if the
    tree cannot produce the requested class.
    """
    classes = admissible_classes(tree)
    if comp_class not in classes:
        raise ClassMismatchError(
            f"tree does not admit class {comp_class.value} "
            f"(admits {{{', '.join(sorted(c.value for c in classes))}}})"
        )
    return evaluate_tree(tree, comp_class, lambda node: None)
