"""Composition expressions: parse, typecheck, format, evaluate.

Grammar (whitespace-insensitive, every binary application parenthesized
because the joins are not associative):

    expr  :=  "e"  |  macro "(" int ")"  |  "(" expr op expr ")"
    op    :=  "><"  |  "|>"  |  "<|"

``e`` is the empty schedule, polymorphic over all three classes.  The
Unicode operators for the three joins are accepted as aliases of the ASCII
spellings.  Macros expand lazily at evaluation time, so parsing and
typechecking stay cheap:

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
    empty_schedule,
    join,
    operand_classes,
    result_class,
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
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExprLeaf:
    pass


@dataclass(frozen=True)
class ExprMacro:
    name: str
    arg: int


@dataclass(frozen=True)
class ExprJoin:
    op: JoinOp
    left: object
    right: object


def _optimized(obs):
    """``obs(n)`` on tables from the table cache (``STEPWEAVER_CACHE``) when
    one is configured, else on the in-process shared tables."""
    return lambda n: obs(n, optimizer.load_or_build(n + 1))


_MACROS = {
    "silver": (CompClass.S, builders.silver),
    "obss": (CompClass.S, _optimized(optimizer.obs_s)),
    "obsf": (CompClass.F, _optimized(optimizer.obs_f)),
    "obsg": (CompClass.G, _optimized(optimizer.obs_g)),
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
        if ch == "(":
            tokens.append(Token("LPAREN", i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token("RPAREN", i))
            i += 1
            continue
        two = text[i : i + 2]
        if two in _OP_ALIASES:
            tokens.append(Token("OP", i, op=_OP_ALIASES[two]))
            i += 2
            continue
        if ch in _OP_ALIASES:
            tokens.append(Token("OP", i, op=_OP_ALIASES[ch]))
            i += 1
            continue
        word = _WORD_RE.match(text, i)
        if word:
            if word.group(0) == "e":
                tokens.append(Token("LEAF", i))
                i = word.end()
                continue
            m = _MACRO_RE.match(text, i)
            if not m:
                if word.group(0) not in _MACROS:
                    raise DslSyntaxError(f"unknown macro {word.group(0)!r}", i, MACRO_NAMES)
                raise DslSyntaxError(
                    f"macro {word.group(0)!r} needs an integer argument", i, ("macro(int)",)
                )
            name, arg = m.group(1), int(m.group(2))
            if name not in _MACROS:
                raise DslSyntaxError(f"unknown macro {name!r}", i, MACRO_NAMES)
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


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self):
        tok = self.take()
        if tok.kind == "LEAF":
            return ExprLeaf()
        if tok.kind == "MACRO":
            return ExprMacro(tok.name, tok.arg)
        if tok.kind == "LPAREN":
            left = self.expr()
            op_tok = self.take()
            if op_tok.kind != "OP":
                raise DslSyntaxError("expected a join operator", op_tok.pos, ("><", "|>", "<|"))
            right = self.expr()
            close = self.take()
            if close.kind != "RPAREN":
                raise DslSyntaxError("unbalanced parenthesis", close.pos, (")",))
            return ExprJoin(op_tok.op, left, right)
        raise DslSyntaxError("expected an expression", tok.pos, ("e", "macro", "("))


def parse(text: str):
    """Parse a composition expression into its AST."""
    parser = _Parser(tokenize(text))
    try:
        tree = parser.expr()
    except RecursionError:
        raise DslSyntaxError("expression nesting too deep", 0) from None
    tail = parser.peek()
    if tail.kind != "EOF":
        raise DslSyntaxError("trailing input after a complete expression", tail.pos, ("end of input",))
    return tree


# ---------------------------------------------------------------------------
# Typecheck / format / evaluate
# ---------------------------------------------------------------------------

def _class_names(classes) -> str:
    return "{" + ", ".join(sorted(c.value for c in classes)) + "}"


def typecheck(expr) -> frozenset:
    """Set of classes the expression can evaluate to; raises on a mismatch."""
    if isinstance(expr, ExprLeaf):
        return ALL_CLASSES
    if isinstance(expr, ExprMacro):
        return frozenset((_MACROS[expr.name][0],))
    lcls = typecheck(expr.left)
    rcls = typecheck(expr.right)
    lneed, rneed = operand_classes(expr.op)
    if lneed not in lcls:
        raise DslTypeError(
            f"left operand of {expr.op.symbol} has classes {_class_names(lcls)}, "
            f"{lneed.value} required: {format_expr(expr.left)}"
        )
    if rneed not in rcls:
        raise DslTypeError(
            f"right operand of {expr.op.symbol} has classes {_class_names(rcls)}, "
            f"{rneed.value} required: {format_expr(expr.right)}"
        )
    return frozenset((result_class(expr.op),))


def format_expr(expr) -> str:
    """Canonical text form; round-trips through :func:`parse`."""
    if isinstance(expr, ExprLeaf):
        return "e"
    if isinstance(expr, ExprMacro):
        return f"{expr.name}({expr.arg})"
    return f"({format_expr(expr.left)} {expr.op.symbol} {format_expr(expr.right)})"


def evaluate(expr, comp_class: CompClass) -> StepSchedule:
    """Materialize a well-typed expression in the requested class."""
    classes = typecheck(expr)
    if comp_class not in classes:
        raise DslTypeError(
            f"expression has classes {_class_names(classes)}, cannot evaluate as "
            f"{comp_class.value}: {format_expr(expr)}"
        )

    def _eval(node, cls):
        if isinstance(node, ExprLeaf):
            return empty_schedule(cls)
        if isinstance(node, ExprMacro):
            return _MACROS[node.name][1](node.arg)
        lneed, rneed = operand_classes(node.op)
        return join(node.op, _eval(node.left, lneed), _eval(node.right, rneed))

    return _eval(expr, comp_class)


def compile_expression(text: str, comp_class: "CompClass | None" = None):
    """Parse + typecheck + evaluate in one step.

    With ``comp_class=None`` the class is inferred when unambiguous (the bare
    leaf is the only ambiguous case).  Returns ``(schedule, ast)``.
    """
    ast = parse(text)
    classes = typecheck(ast)
    if comp_class is None:
        if len(classes) != 1:
            raise DslTypeError(
                f"expression admits classes {_class_names(classes)}; pass an explicit class"
            )
        comp_class = next(iter(classes))
    return evaluate(ast, comp_class), ast
