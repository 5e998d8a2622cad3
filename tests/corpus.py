"""Regression corpus: every join-built schedule family the suite re-verifies.

The short-schedule catalog lists constructions with their exact rates where a
closed form is known (None where only the construction pins the value).
"""

import math

from stepweaver import dsl
from stepweaver.builders import left_heavy, right_heavy, silver
from stepweaver.optimizer import load_or_build, obs_f, obs_g, obs_s
from stepweaver.schedule import CompClass, reverse

SQ2 = math.sqrt(2.0)

# All length-1..3 s-class constructions and their rates.
S_TABLE = [
    ("(e >< e)", SQ2 - 1.0),
    ("(e >< (e >< e))", 2.0 * (SQ2 - 1.0) / (math.sqrt(4.0 * SQ2 - 2.0) + SQ2)),
    ("((e >< e) >< e)", 2.0 * (SQ2 - 1.0) / (math.sqrt(4.0 * SQ2 - 2.0) + SQ2)),
    ("((e >< e) >< (e >< e))", 1.0 / (3.0 + 2.0 * SQ2)),
    ("(e >< (e >< (e >< e)))", None),
    ("(e >< ((e >< e) >< e))", None),
    ("((e >< (e >< e)) >< e)", None),
    ("(((e >< e) >< e) >< e)", None),
]

# All length-1..3 f-class constructions and their rates.  The two-step
# single-chain rate follows the closed-form identity 1/(1 + 2*sum(h)).
F_TABLE = [
    ("(e |> e)", 0.25),
    ("(e |> (e |> e))", 1.0 / (4.0 + 2.0 * math.sqrt(3.0))),
    ("((e >< e) |> e)", 2.0 / (math.sqrt(9.0 + 8.0 * SQ2) + 4.0 * SQ2 + 5.0)),
    ("((e >< e) |> (e |> e))", 1.0 / (6.0 + 4.0 * SQ2)),
    ("(e |> (e |> (e |> e)))", None),
    ("(e |> ((e >< e) |> e))", None),
    ("((e >< (e >< e)) |> e)", None),
    ("(((e >< e) >< e) |> e)", None),
]

SILVER_LEVELS = range(1, 9)
HEAVY_LEVELS = range(1, 5)
OBS_LENGTHS = range(1, 65)


def short_table_schedules():
    """The cataloged length<=3 constructions in all three classes."""
    out = []
    for text, rate in S_TABLE:
        sched, _ = dsl.compile_expression(text, CompClass.S)
        out.append((f"s:{text}", sched, rate))
    for text, rate in F_TABLE:
        sched, _ = dsl.compile_expression(text, CompClass.F)
        out.append((f"f:{text}", sched, rate))
        out.append((f"g:rev({text})", reverse(sched), rate))
    return out


def full_corpus(tables=None):
    """Every corpus schedule as (name, schedule) pairs."""
    tables = tables if tables is not None else load_or_build(max(OBS_LENGTHS) + 1)
    out = [(name, sched) for name, sched, _ in short_table_schedules()]
    out += [(f"silver({k})", silver(k)) for k in SILVER_LEVELS]
    out += [(f"rheavy({k})", right_heavy(k)) for k in HEAVY_LEVELS]
    out += [(f"lheavy({k})", left_heavy(k)) for k in HEAVY_LEVELS]
    for n in OBS_LENGTHS:
        out.append((f"obss({n})", obs_s(n, tables)))
        out.append((f"obsf({n})", obs_f(n, tables)))
        out.append((f"obsg({n})", obs_g(n, tables)))
    return out
