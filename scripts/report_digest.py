#!/usr/bin/env python3
"""Report digest: one sha256 over every field of a fixed set of verification reports.

Verifies the acceptance corpus (``tests/corpus.py``), the benchmark's
verify-long schedules (``perfbench/workloads.py``), two long schedules,
``silver(10)`` and ``obss(2047)`` (n = 1023 and 2047, where the
interpolation check skips the most pairs), and fourteen fixed corrupted
schedules, each under ``RunConfig()`` and under ``RunConfig(battery=40,
seed=0x5EED)``, and prints the number of reports and the sha256 of all
their fields: the schedule's name, ``describe()``, class, n, rate (as
``float.hex``), the conjectured, passed and certified flags; per check its
name, flag, slack and tolerance (``float.hex``) and instance text; then
``summary()`` and ``to_json()``.

Two source trees that print the same digest on one machine produce the same
reports bit for bit, so a change that must not alter any report is checked
by running the script against the old tree and the new one:

    PYTHONPATH=src python3 scripts/report_digest.py

Bits are not promised across platforms: compare digests made on one machine.
"""

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one BLAS thread, as in the benchmark

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import corpus_schedules, long_schedules  # noqa: E402

from stepweaver.builders import constant_optimal, right_heavy, silver  # noqa: E402
from stepweaver.io import RunConfig  # noqa: E402
from stepweaver.optimizer import build_tables, obs_f, obs_g, obs_s  # noqa: E402
from stepweaver.schedule import CompClass, StepSchedule  # noqa: E402
from stepweaver.verify import verify_schedule  # noqa: E402

CONFIGS = (RunConfig(), RunConfig(battery=40, seed=0x5EED))


def _changed(h: StepSchedule, i: int, step: float, tree=True) -> StepSchedule:
    steps = h.steps.copy()
    steps[i] = step
    return StepSchedule(steps, h.comp_class, h.rate, h.tree if tree else None)


def _rated(h: StepSchedule, rate: float) -> StepSchedule:
    return StepSchedule(h.steps, h.comp_class, rate, h.tree)


def corruptions():
    """Fourteen schedules that fail some check, or pass near one's edge:
    perturbed steps or rates, with and without their construction trees, a
    NaN step, mislabeled steps, trees that do not build their steps (of
    another class or length) and an unverified constant schedule."""
    tables = build_tables(13)
    s2, s3, s5, s7 = silver(2), silver(3), obs_s(5, tables), obs_s(7, tables)
    f5, f6, f7 = obs_f(5, tables), obs_f(6, tables), obs_f(7, tables)
    f10, f12 = obs_f(10, tables), obs_f(12, tables)
    g5, g6, g10, r3 = obs_g(5, tables), obs_g(6, tables), obs_g(10, tables), right_heavy(3)
    return [
        ("silver(3) step 0 x(1+1e-7)", _changed(s3, 0, s3.steps[0] * (1 + 1e-7))),
        ("silver(2) step 1 = nan", _changed(s2, 1, float("nan"))),
        ("silver(2) step 0 = 3, no tree", _changed(s2, 0, 3.0, tree=False)),
        ("obsf(10) rate x(1+1e-12)", _rated(f10, f10.rate * (1 + 1e-12))),
        ("obsf(12) step 3 x1.01, no tree", _changed(f12, 3, f12.steps[3] * 1.01, tree=False)),
        ("obsg(10) step 4 x(1+1e-6)", _changed(g10, 4, g10.steps[4] * (1 + 1e-6))),
        ("obss(5) steps labeled f", StepSchedule(s5.steps, CompClass.F, s5.rate)),
        ("obsf(6) steps, obsf(5) tree", StepSchedule(f6.steps, CompClass.F, f6.rate, f5.tree)),
        ("obss(7) steps, obsf(7) tree", StepSchedule(s7.steps, CompClass.S, s7.rate, f7.tree)),
        ("silver(3) steps, silver(2) tree", StepSchedule(s3.steps, CompClass.S, s3.rate, s2.tree)),
        ("obsg(6) steps, obsg(5) tree", StepSchedule(g6.steps, CompClass.G, g6.rate, g5.tree)),
        ("obss(7) rate x0.5", _rated(s7, s7.rate * 0.5)),
        ("rheavy(3) rate x1.5", _rated(r3, r3.rate * 1.5)),
        ("const_f(4) unverified", constant_optimal(CompClass.F, 4, unverified=True)),
    ]


def long_tail():
    """Schedules longer than the benchmark's, kept here so that the
    benchmark's workloads stay as they are."""
    return [("silver(10)", silver(10)), ("obss(2047)", obs_s(2047, build_tables(2048)))]


def report_fields(name: str, report):
    yield from (name, report.schedule, report.comp_class, str(report.n), float.hex(report.rate))
    yield from (str(report.conjectured), str(report.passed), str(report.certified))
    for c in report.checks:
        yield from (c.name, str(c.passed), float.hex(float(c.slack)), float.hex(float(c.tolerance)), c.instance)
    yield report.summary()
    yield report.to_json()


def main() -> int:
    schedules = corpus_schedules() + long_schedules() + long_tail() + corruptions()
    digest, count = hashlib.sha256(), 0
    for config in CONFIGS:
        for name, schedule in schedules:
            for text in report_fields(name, verify_schedule(schedule, config)):
                digest.update(text.encode() + b"\0")
            count += 1
    print(f"{count} reports, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
