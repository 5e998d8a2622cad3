"""Composition expressions: parse, typecheck, format, evaluate.

Grammar (whitespace-insensitive, every binary application parenthesized
because the joins are not associative; at most ``MAX_NESTING`` parentheses
open at once):

    expr  :=  "e"  |  macro "(" int ")"  |  "(" expr op expr ")"
    op    :=  "><"  |  "|>"  |  "<|"

``e`` is the empty schedule, polymorphic over all three classes.  The
Unicode operators for the three joins are accepted as aliases of the ASCII
spellings.  An expression folds through ``schedule.postorder`` like a
construction tree, and evaluates by the same upward join.  Macros expand
lazily at evaluation time, so parsing and typechecking stay cheap:

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
    CompClass,
    JoinOp,
    ScheduleError,
    StepSchedule,
    evaluate_tree,
    join,  # not called here; perfbench's traced layer map wraps dsl.join
    join_classes,
    operand_classes,
    postorder,
)


class DslSyntaxError(ScheduleError):
    def __init__(self, message: str, pos: int, expected=()):
        self.pos = pos
        self.expected = tuple(expected)
        suffix = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"syntax error at byte {pos}: {message}{suffix}")


class DslTypeError(ScheduleError):
    pass


# ---------------------------------------------------------------------------
# AST: folds through ``schedule.postorder`` like a construction tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExprLeaf:
    is_leaf = True


@dataclass(frozen=True)
class ExprMacro:
    name: str
    arg: int
    is_leaf = True


@dataclass(frozen=True, eq=False, repr=False)
class ExprJoin:
    op: JoinOp
    left: object
    right: object
    is_leaf = False

    # ==, hash and repr are folds, not the dataclass's recursive ones
    def __eq__(self, other):
        return isinstance(other, ExprJoin) and format_expr(self) == format_expr(other)

    def __hash__(self):
        return hash(format_expr(self))

    def __repr__(self):
        return postorder(self, repr, lambda node, l, r: f"ExprJoin(op={node.op!r}, left={l}, right={r})")


_MACROS = {
    "silver": (CompClass.S, builders.silver),
    "obss": (CompClass.S, optimizer.obs_s),
    "obsf": (CompClass.F, optimizer.obs_f),
    "obsg": (CompClass.G, optimizer.obs_g),
    "rheavy": (CompClass.F, builders.right_heavy),
    "lheavy": (CompClass.G, builders.left_heavy),
    "dshort": (CompClass.G, lambda n: builders.dynamic_short(n, "empty")),
    "dshort_sigma": (CompClass.G, lambda n: builders.dynamic_short(n, "sigma")),
    "const_s": (CompClass.S, lambda n: builders.constant_optimal(CompClass.S, n)),
    "const_g": (CompClass.G, lambda n: builders.constant_optimal(CompClass.G, n)),
}

MACRO_NAMES = tuple(sorted(_MACROS))


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # LEAF LPAREN RPAREN OP MACRO EOF
    pos: int
    op: "JoinOp | None" = None
    name: "str | None" = None
    arg: "int | None" = None


_OP_ALIASES = {
    "><": JoinOp.SJOIN,
    "|>": JoinOp.FJOIN,
    "<|": JoinOp.GJOIN,
    "⋈": JoinOp.SJOIN,  # bowtie
    "▷": JoinOp.FJOIN,  # right triangle
    "◁": JoinOp.GJOIN,  # left triangle
}

_MACRO_RE = re.compile(r"([a-z_][a-z0-9_]*)\s*\(\s*([+-]?\d+)\s*\)")
_WORD_RE = re.compile(r"[a-z_][a-z0-9_]*")


def tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            tokens.append(Token("LPAREN" if ch == "(" else "RPAREN", i))
            i += 1
            continue
        op = text[i : i + 2] if text[i : i + 2] in _OP_ALIASES else ch
        if op in _OP_ALIASES:
            tokens.append(Token("OP", i, op=_OP_ALIASES[op]))
            i += len(op)
            continue
        word = _WORD_RE.match(text, i)
        if word:
            if word.group(0) == "e":
                tokens.append(Token("LEAF", i))
                i = word.end()
                continue
            name = word.group(0)  # ``_MACRO_RE`` matches the same name
            if name not in _MACROS:
                raise DslSyntaxError(f"unknown macro {name!r}", i, MACRO_NAMES)
            m = _MACRO_RE.match(text, i)
            if not m:
                raise DslSyntaxError(f"macro {name!r} needs an integer argument", i, ("macro(int)",))
            arg = int(m.group(2))
            if arg < 0:
                raise DslSyntaxError(f"negative macro argument {arg}", i)
            tokens.append(Token("MACRO", i, name=name, arg=arg))
            i = m.end()
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", i, ("e", "macro", "(", ")"))
    tokens.append(Token("EOF", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

MAX_NESTING = 1000  # open parentheses at once


def parse(text: str):
    """Parse a composition expression into its AST.

    Shift-reduce over the tokens: each open ``(`` is a frame ``[left, op]`` on
    an explicit stack, so the nesting cap does not depend on the call stack."""
    tokens = iter(tokenize(text))
    frames = []
    while True:
        tok = next(tokens)
        if tok.kind == "LPAREN":
            if len(frames) == MAX_NESTING:
                raise DslSyntaxError(f"expression nesting deeper than {MAX_NESTING}", tok.pos)
            frames.append([None, None])
            continue
        if tok.kind == "LEAF":
            node = ExprLeaf()
        elif tok.kind == "MACRO":
            node = ExprMacro(tok.name, tok.arg)
        else:
            raise DslSyntaxError("expected an expression", tok.pos, ("e", "macro", "("))
        # ``node`` is complete: it closes every frame it is the right operand of
        while frames and frames[-1][1] is not None:
            left, op = frames.pop()
            close = next(tokens)
            if close.kind != "RPAREN":
                raise DslSyntaxError("unbalanced parenthesis", close.pos, (")",))
            node = ExprJoin(op, left, node)
        if not frames:
            tail = next(tokens)
            if tail.kind != "EOF":
                raise DslSyntaxError("trailing input after a complete expression", tail.pos, ("end of input",))
            return node
        op_tok = next(tokens)  # ``node`` is the left operand of the innermost frame
        if op_tok.kind != "OP":
            raise DslSyntaxError("expected a join operator", op_tok.pos, ("><", "|>", "<|"))
        frames[-1][:] = [node, op_tok.op]


# ---------------------------------------------------------------------------
# Typecheck / format / evaluate: folds over the AST
# ---------------------------------------------------------------------------

def _class_names(classes) -> str:
    return "{" + ", ".join(sorted(c.value for c in classes)) + "}"


def _leaf_classes(node) -> frozenset:
    return ALL_CLASSES if isinstance(node, ExprLeaf) else frozenset((_MACROS[node.name][0],))


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


def _leaf_text(node) -> str:
    return "e" if isinstance(node, ExprLeaf) else f"{node.name}({node.arg})"


def format_expr(expr) -> str:
    """Canonical text form; round-trips through :func:`parse`."""
    return postorder(expr, _leaf_text, lambda node, left, right: f"({left} {node.op.symbol} {right})")


def _leaf_schedule(node) -> "StepSchedule | None":
    return None if isinstance(node, ExprLeaf) else _MACROS[node.name][1](node.arg)


def evaluate(expr, comp_class: CompClass) -> StepSchedule:
    """Materialize a well-typed expression in the requested class."""
    classes = typecheck(expr)
    if comp_class not in classes:
        raise DslTypeError(
            f"expression has classes {_class_names(classes)}, cannot evaluate as "
            f"{comp_class.value}: {format_expr(expr)}"
        )
    return evaluate_tree(expr, comp_class, _leaf_schedule)


def compile_expression(text: str, comp_class: "CompClass | None" = None):
    """Parse + typecheck + evaluate in one step.

    With ``comp_class=None`` the class is inferred when unambiguous (the bare
    leaf is the only ambiguous case).  Returns ``(schedule, ast)``.
    """
    ast = parse(text)
    if comp_class is not None:
        return evaluate(ast, comp_class), ast
    classes = typecheck(ast)
    if len(classes) != 1:
        raise DslTypeError(f"expression admits classes {_class_names(classes)}; pass an explicit class")
    (comp_class,) = classes
    return evaluate_tree(ast, comp_class, _leaf_schedule), ast
