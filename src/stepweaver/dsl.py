"""Composition expressions: parse, typecheck, format, evaluate.

Grammar (whitespace-insensitive, every binary application parenthesized
because the joins are not associative; at most ``MAX_NESTING`` parentheses
open at once):

    expr  :=  "e"  |  macro "(" int ")"  |  "(" expr op expr ")"
    op    :=  "><"  |  "|>"  |  "<|"

``e`` is the empty schedule, polymorphic over all three classes.  The
Unicode operators for the three joins are accepted as aliases of the ASCII
spellings.  An expression parses into a construction tree over ``LEAF``
(``e``) and ``ExprMacro`` leaves, evaluated by ``schedule.materialize`` with
each macro's schedule as its leaf schedule; every other fold refuses a macro
leaf.  Macros expand lazily at evaluation time, so parsing and typechecking
stay cheap:

    silver(k)        balanced self-join family        class s
    obss(n)/obsf(n)/obsg(n)   optimized families      class s/f/g
    rheavy(k)/lheavy(k)       heavy recursions        class f/g
    dshort(n)/dshort_sigma(n) short-step extensions   class g
    const_s(n)/const_g(n)     optimal constant steps  class s/g
"""

import re
from dataclasses import dataclass

from . import builders, optimizer
from .schedule import (
    ALL_CLASSES,
    LEAF,
    CompClass,
    CompositionTree,
    JoinOp,
    ScheduleError,
    StepSchedule,
    join,  # not called here; perfbench's traced layer map wraps dsl.join
    join_classes,
    materialize,
    operand_classes,
    postorder,
)


class DslSyntaxError(ScheduleError):
    """A syntax error at ``pos``, the 0-based index of a character (not of
    a UTF-8 byte) in the text."""

    def __init__(self, message: str, pos: int, expected=()):
        self.pos = pos
        self.expected = tuple(expected)
        suffix = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"syntax error at position {pos}: {message}{suffix}")


class DslTypeError(ScheduleError):
    pass


# ---------------------------------------------------------------------------
# Expressions are construction trees whose leaves are ``e`` or macros
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExprMacro:
    name: str
    arg: int
    is_leaf = True

    def __str__(self):
        return f"{self.name}({self.arg})"


_MACROS = {
    "silver": (CompClass.S, builders.silver),
    "obss": (CompClass.S, optimizer.obs_s),
    "obsf": (CompClass.F, optimizer.obs_f),
    "obsg": (CompClass.G, optimizer.obs_g),
    "rheavy": (CompClass.F, builders.right_heavy),
    "lheavy": (CompClass.G, builders.left_heavy),
    "dshort": (CompClass.G, builders.dynamic_short),
    "dshort_sigma": (CompClass.G, lambda n: builders.dynamic_short(n, "sigma")),
    "const_s": (CompClass.S, lambda n: builders.constant_optimal(CompClass.S, n)),
    "const_g": (CompClass.G, lambda n: builders.constant_optimal(CompClass.G, n)),
}

MACRO_NAMES = tuple(sorted(_MACROS))


# ---------------------------------------------------------------------------
# Lexer and parser
# ---------------------------------------------------------------------------

_OP_ALIASES = {
    "><": JoinOp.SJOIN,
    "|>": JoinOp.FJOIN,
    "<|": JoinOp.GJOIN,
    "⋈": JoinOp.SJOIN,  # bowtie
    "▷": JoinOp.FJOIN,  # right triangle
    "◁": JoinOp.GJOIN,  # left triangle
}

# One token after optional whitespace: a join operator, a parenthesis, the leaf, a
# macro name with its ``(int)`` call or any other character; none at the end.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op>" + "|".join(map(re.escape, _OP_ALIASES)) + r")|(?P<paren>[()])|(?P<leaf>e)(?![a-z0-9_])"
    r"|(?P<macro>(?P<name>[a-z_][a-z0-9_]*)(?:\s*\(\s*(?P<arg>[+-]?\d+)\s*\))?)|(?P<char>.))?"
)


def _macro_leaf(name: str, arg: "str | None", pos: int) -> ExprMacro:
    if name not in _MACROS:
        raise DslSyntaxError(f"unknown macro {name!r}", pos, MACRO_NAMES)
    if arg is None:
        raise DslSyntaxError(f"macro {name!r} needs an integer argument", pos, ("macro(int)",))
    value = int(arg)
    if value < 0:
        raise DslSyntaxError(f"negative macro argument {value}", pos)
    return ExprMacro(name, value)


def tokenize(text: str) -> list:
    """Scan the whole text into ``(kind, pos, value)`` tuples, so a lexical
    error anywhere wins over a syntax error.  Kinds are ``"("``, ``")"``,
    ``"op"`` (value a ``JoinOp``), ``"atom"`` (value ``LEAF`` or an
    ``ExprMacro``) and a final ``"end"``."""
    tokens = []
    m = _TOKEN_RE.match(text)
    while m.lastgroup:
        kind, pos = m.lastgroup, m.start(m.lastgroup)
        if kind == "char":
            raise DslSyntaxError(f"unexpected character {m['char']!r}", pos, ("e", "macro", "(", ")"))
        if kind == "op":
            tokens.append(("op", pos, _OP_ALIASES[m["op"]]))
        elif kind == "paren":
            tokens.append((m["paren"], pos, None))
        else:
            tokens.append(("atom", pos, LEAF if kind == "leaf" else _macro_leaf(m["name"], m["arg"], pos)))
        m = _TOKEN_RE.match(text, m.end())
    tokens.append(("end", len(text), None))
    return tokens


MAX_NESTING = 1000  # open parentheses at once


def parse(text: str):
    """Parse an expression into its tree: a join, ``LEAF`` (``e``) or an ``ExprMacro``.

    Shift-reduce over the tokens: each open ``(`` is a frame ``[left, op]`` on
    an explicit stack, so the nesting cap does not depend on the call stack."""
    tokens = iter(tokenize(text))
    frames = []
    while True:
        kind, pos, node = next(tokens)
        if kind == "(":
            if len(frames) == MAX_NESTING:
                raise DslSyntaxError(f"expression nesting deeper than {MAX_NESTING}", pos)
            frames.append([None, None])
            continue
        if kind != "atom":
            raise DslSyntaxError("expected an expression", pos, ("e", "macro", "("))
        # ``node`` is complete: it closes every frame it is the right operand of
        while frames and frames[-1][1] is not None:
            left, op = frames.pop()
            kind, pos, _ = next(tokens)
            if kind != ")":
                raise DslSyntaxError("unbalanced parenthesis", pos, (")",))
            node = CompositionTree(op, left, node)
        if not frames:
            kind, pos, _ = next(tokens)
            if kind != "end":
                raise DslSyntaxError("trailing input after a complete expression", pos, ("end of input",))
            return node
        kind, pos, op = next(tokens)  # ``node`` is the left operand of the innermost frame
        if kind != "op":
            raise DslSyntaxError("expected a join operator", pos, ("><", "|>", "<|"))
        frames[-1][:] = [node, op]


# ---------------------------------------------------------------------------
# Typecheck / format / evaluate: folds over the tree
# ---------------------------------------------------------------------------

def _class_names(classes) -> str:
    return "{" + ", ".join(sorted(c.value for c in classes)) + "}"


def _leaf_classes(node) -> frozenset:
    return frozenset((_MACROS[node.name][0],)) if isinstance(node, ExprMacro) else ALL_CLASSES


def typecheck(expr) -> frozenset:
    """Set of classes the expression can evaluate to; raises on a mismatch."""

    def combine(node, left, right):
        classes = join_classes(node.op, left, right)
        if not classes:
            lneed, rneed = operand_classes(node.op)
            side, have, need, operand = (
                ("left", left, lneed, node.left) if lneed not in left else ("right", right, rneed, node.right)
            )
            raise DslTypeError(
                f"{side} operand of {node.op.symbol} has classes {_class_names(have)}, "
                f"{need.value} required: {format_expr(operand)}"
            )
        return classes

    return postorder(expr, _leaf_classes, combine)


def format_expr(expr) -> str:
    """Canonical text form (a tree's ``repr``); round-trips through :func:`parse`."""
    return str(expr)


def _leaf_schedule(node) -> "StepSchedule | None":
    return _MACROS[node.name][1](node.arg) if isinstance(node, ExprMacro) else None


def evaluate(expr, comp_class: CompClass) -> StepSchedule:
    """Materialize a well-typed expression in the requested class: one
    ``schedule.materialize`` with each macro's schedule as its leaf schedule."""
    classes = typecheck(expr)
    if comp_class not in classes:
        raise DslTypeError(
            f"expression has classes {_class_names(classes)}, cannot evaluate as "
            f"{comp_class.value}: {format_expr(expr)}"
        )
    return materialize(expr, comp_class, _leaf_schedule)


def compile_expression(text: str, comp_class: "CompClass | None" = None):
    """Parse + typecheck + evaluate in one step.

    With ``comp_class=None`` the class is inferred when unambiguous (``e``
    alone is the only ambiguous case).  Returns ``(schedule, tree)``.
    """
    tree = parse(text)
    if comp_class is None:
        classes = typecheck(tree)
        if len(classes) != 1:
            raise DslTypeError(f"expression admits classes {_class_names(classes)}; pass an explicit class")
        (comp_class,) = classes
    return evaluate(tree, comp_class), tree
