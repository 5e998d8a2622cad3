#!/usr/bin/env python3
"""Construction digest: one sha256 over a fixed set of built schedules.

Builds ``silver(0..16)``, ``right_heavy(0..14)``, ``left_heavy(0..10)``;
``dynamic_short`` from the empty and the sigma seed and ``f_extend`` at
n in {0, 1, 2, 3, 10, 100, 4000}; the ``obs_s``/``obs_f``/``obs_g`` optima
of lengths 0..300 and 2047; the ``enumerate_basic`` optima of every class
for n <= 8, with their sorted rate lists; and the construct benchmark's
compose expressions (``perfbench/workloads.py``).  It prints the number of
constructions and the sha256 of, for each, its name, class, steps (as
``float.hex``) and rate (``float.hex``); a construction that raises
contributes its error type and message instead.

Only public APIs are used, so two source trees that print the same line on
one machine build the same schedules bit for bit:

    PYTHONPATH=src python3 scripts/construction_digest.py

Bits are not promised across platforms: compare digests made on one machine.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import COMPOSE_EXPRS  # noqa: E402

from stepweaver.builders import dynamic_short, f_extend, left_heavy, right_heavy, silver  # noqa: E402
from stepweaver.dsl import compile_expression  # noqa: E402
from stepweaver.optimizer import build_tables, enumerate_basic, obs_f, obs_g, obs_s  # noqa: E402
from stepweaver.schedule import CompClass, ScheduleError  # noqa: E402

EXTEND_LENGTHS = (0, 1, 2, 3, 10, 100, 4000)
OBS_LENGTHS = (*range(301), 2047)
ENUM_MAX = 8


def constructions():
    """``(name, build)`` pairs, each ``build`` a thunk returning the schedule
    and, for the enumeration optima, the rates of every construction."""
    yield from ((f"silver({k})", lambda k=k: silver(k)) for k in range(17))
    yield from ((f"right_heavy({k})", lambda k=k: right_heavy(k)) for k in range(15))
    yield from ((f"left_heavy({k})", lambda k=k: left_heavy(k)) for k in range(11))
    for n in EXTEND_LENGTHS:
        yield f"dynamic_short({n})", lambda n=n: dynamic_short(n)
        yield f"dynamic_short({n}, sigma)", lambda n=n: dynamic_short(n, "sigma")
        yield f"f_extend({n})", lambda n=n: f_extend(n)
    tables = build_tables(max(OBS_LENGTHS) + 1)
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
        yield from ("error", type(exc).__name__, str(exc))
        return
    schedule, rates = built if isinstance(built, tuple) else (built, ())
    yield schedule.comp_class.value
    yield " ".join(map(float.hex, schedule.steps.tolist()))
    yield float.hex(schedule.rate)
    yield " ".join(map(float.hex, rates))


def main() -> int:
    digest, count = hashlib.sha256(), 0
    for name, build in constructions():
        for text in fields(name, build):
            digest.update(text.encode() + b"\0")
        count += 1
    print(f"{count} constructions, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
