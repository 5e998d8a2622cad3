#!/usr/bin/env python3
"""Construction digest: one sha256 over a fixed set of built schedules.

Builds ``silver(0..16)``, ``right_heavy(0..14)``, ``left_heavy(0..10)``;
``dynamic_short`` from the empty and the sigma seed and ``f_extend`` at
n in {0, 1, 2, 3, 10, 100, 4000}; the ``obs_s``/``obs_f``/``obs_g`` optima
of lengths 0..300 and 2047, read from ``build_tables(8191)``; the
``enumerate_basic`` optima of every class for n <= 8, with their sorted
rate lists; and the construct benchmark's
compose expressions (``perfbench/workloads.py``).  Then a fixed, seeded set
of composition expressions: random ones over ``e`` and small macros, typed
and mistyped, in both operator spellings with random whitespace, a quarter
of them garbled by one or two character edits; a few fixed malformed and
over-cap ones; and chains nested ``MAX_NESTING - 1`` to ``MAX_NESTING + 1``
deep.  Last, the rows of ``build_tables(8191)`` themselves, whose s and f
rows from 2048 on the fill prunes and checks in batches, and those of the
same tables extended through a cache directory from an s-only prefix
(``load_or_build(3001, f_table=False)``, then ``load_or_build(8191)``),
whose s batches start at another row.  It prints the number of constructions,
expressions and tables and the sha256 of, for each construction, its name,
class, steps (as ``float.hex``) and rate (``float.hex``), and for an f-class
one with a tree the weights of its ``build_f_certificate`` (``float.hex``);
for each
expression its text, its canonical form ``format_expr(parse(text))``, its
``typecheck`` classes and what ``compile_expression`` gives with the class
inferred and with each class given; and for the tables their name, the s
and f rates (``float.hex``) and splits (decimal ints).  A construction,
parse, typecheck, compile or certificate that raises contributes its error
type, message and (for a syntax error) position instead.

Only public APIs are used, so two source trees that print the same line on
one machine build the same schedules bit for bit:

    PYTHONPATH=src python3 scripts/construction_digest.py

Bits are not promised across platforms: compare digests made on one machine.
"""

import hashlib
import itertools
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import COMPOSE_EXPRS  # noqa: E402

from stepweaver.builders import dynamic_short, f_extend, left_heavy, right_heavy, silver  # noqa: E402
from stepweaver.dsl import MAX_NESTING, compile_expression, format_expr, parse, typecheck  # noqa: E402
from stepweaver.optimizer import build_tables, enumerate_basic, load_or_build, obs_f, obs_g, obs_s  # noqa: E402
from stepweaver.schedule import CompClass, ResourceCapError, ScheduleError  # noqa: E402
from stepweaver.verify import build_f_certificate  # noqa: E402

EXTEND_LENGTHS = (0, 1, 2, 3, 10, 100, 4000)
OBS_LENGTHS = (*range(301), 2047)
TABLE_ROWS = 8191
PREFIX_ROWS = 3001
ENUM_MAX = 8

DSL_SEED = 20261020
DSL_COUNT = 800
SPELLINGS = {"><": ("><", "⋈"), "|>": ("|>", "▷"), "<|": ("<|", "◁")}
OPERANDS = {"><": ("s", "s"), "|>": ("s", "f"), "<|": ("g", "s")}
JOIN_OF = {"s": "><", "f": "|>", "g": "<|"}
MACROS = {
    "s": ("silver", "obss", "const_s"),
    "f": ("obsf", "rheavy"),
    "g": ("obsg", "lheavy", "dshort", "dshort_sigma", "const_g"),
}
JUNK = "()<>|eE3-+@é \t\u3000,"
FIXED_EXPRESSIONS = (
    "", " ", "e", "E", "(e e)", "(e >< )", "((e >< e)", "(e >< e))", "(e ⋈ e) @", "e(3)",
    "silver", "silver(-1)", "silver ( +3 )", "nosuch(2)", "(e\t⋈\u3000e)",
    "silver(21)", "obss(20001)", "obsf(20001)", "dshort(100001)", "const_s(100001)",
)


def dsl_expressions():
    """The fixed expressions, then ``DSL_COUNT`` seeded random ones, then
    left- and right-nested chains of each join around the nesting cap."""
    rng = random.Random(DSL_SEED)

    def space():
        return rng.choice(("", "", " ", "\t", "\n", "\u3000"))

    def expr(cls, depth):
        """A random expression of class ``cls`` (any shape when None)."""
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.6:
                return "e"
            names = MACROS[cls] if cls else sum(MACROS.values(), ())
            return f"{rng.choice(names)}({rng.randint(0, 6)})"
        op = JOIN_OF[cls] if cls else rng.choice(list(SPELLINGS))
        left, right = (expr(c if cls else None, depth - 1) for c in OPERANDS[op])
        return f"({space()}{left}{space()}{rng.choice(SPELLINGS[op])}{space()}{right}{space()})"

    def garble(text):
        for _ in range(rng.randint(1, 2)):
            at, edit, char = rng.randint(0, len(text)), rng.choice(("insert", "delete", "replace")), rng.choice(JUNK)
            text = text[:at] + ("" if edit == "delete" else char) + text[at + (edit != "insert") :]
        return text

    yield from FIXED_EXPRESSIONS
    for _ in range(DSL_COUNT):
        text = expr(rng.choice((None, "s", "f", "g")), rng.randint(0, 7))
        yield garble(text) if rng.random() < 0.25 else text
    for depth in (MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1):
        for op, (ascii_op, unicode_op) in SPELLINGS.items():
            yield "(" * depth + "e" + f" {ascii_op} e)" * depth
            yield f"(e {unicode_op} " * depth + "e" + ")" * depth


def error_fields(exc):
    return ("error", type(exc).__name__, str(exc), str(getattr(exc, "pos", "")))


def schedule_fields(schedule):
    yield schedule.comp_class.value
    yield " ".join(map(float.hex, schedule.steps.tolist()))
    yield float.hex(schedule.rate)
    if schedule.comp_class is CompClass.F and schedule.tree is not None:
        try:
            yield " ".join(map(float.hex, build_f_certificate(schedule.tree).weights.tolist()))
        except ScheduleError as exc:
            yield from error_fields(exc)


def constructions(tables):
    """``(name, build)`` pairs, each ``build`` a thunk returning the schedule
    and, for the enumeration optima, the rates of every construction; the
    optima of the DP read ``tables``."""
    yield from ((f"silver({k})", lambda k=k: silver(k)) for k in range(17))
    yield from ((f"right_heavy({k})", lambda k=k: right_heavy(k)) for k in range(15))
    yield from ((f"left_heavy({k})", lambda k=k: left_heavy(k)) for k in range(11))
    for n in EXTEND_LENGTHS:
        yield f"dynamic_short({n})", lambda n=n: dynamic_short(n)
        yield f"dynamic_short({n}, sigma)", lambda n=n: dynamic_short(n, "sigma")
        yield f"f_extend({n})", lambda n=n: f_extend(n)
    for name, obs in (("obs_s", obs_s), ("obs_f", obs_f), ("obs_g", obs_g)):
        yield from ((f"{name}({n})", lambda obs=obs, n=n: obs(n, tables)) for n in OBS_LENGTHS)
    for cls in CompClass:
        yield from ((f"enumerate_basic({n}, {cls.value})", lambda n=n, cls=cls: enumerate_basic(n, cls)) for n in range(ENUM_MAX + 1))
    yield from ((f"compose {expr}", lambda expr=expr: compile_expression(expr)[0]) for expr in COMPOSE_EXPRS)


def fields(name, build):
    yield name
    try:
        built = build()
    except ScheduleError as exc:
        yield from error_fields(exc)
        return
    schedule, rates = built if isinstance(built, tuple) else (built, ())
    yield from schedule_fields(schedule)
    yield " ".join(map(float.hex, rates))


def dsl_fields(text):
    yield text
    try:
        tree = parse(text)
    except ScheduleError as exc:
        yield from error_fields(exc)
        return
    yield format_expr(tree)
    try:
        yield " ".join(sorted(c.value for c in typecheck(tree)))
    except ScheduleError as exc:
        yield from error_fields(exc)
    for cls in (None, *CompClass):
        try:
            yield from schedule_fields(compile_expression(text, cls)[0])
        except (ScheduleError, ResourceCapError) as exc:
            yield from error_fields(exc)


def table_fields(name, tables):
    yield name
    for rate, split in ((tables.s_rate, tables.s_split), (tables.f_rate, tables.f_split)):
        yield " ".join(map(float.hex, rate[1:].tolist()))
        yield " ".join(map(str, split[1:].tolist()))


def main() -> int:
    digest, count = hashlib.sha256(), 0
    tables = build_tables(TABLE_ROWS)
    with tempfile.TemporaryDirectory() as cache:
        load_or_build(PREFIX_ROWS, cache, f_table=False)
        extended = load_or_build(TABLE_ROWS, cache)
    items = itertools.chain(
        itertools.starmap(fields, constructions(tables)),
        map(dsl_fields, dsl_expressions()),
        [table_fields(f"build_tables({TABLE_ROWS})", tables)],
        [table_fields(f"load_or_build({PREFIX_ROWS}, f_table=False), load_or_build({TABLE_ROWS})", extended)],
    )
    for item in items:
        for text in item:
            digest.update(text.encode() + b"\0")
        count += 1
    print(f"{count} constructions, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
