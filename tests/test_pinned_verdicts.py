"""Verdicts held as data: the corrupted schedules of ``scripts/report_digest.py``
keep failing every check they failed while the battery cycled through
dimensions 1, 2, 4 and 8, and the benchmark's verify ops reproduce the check
names and flags of ``perfbench/refs.json`` at two battery seeds besides the
references' own, so a flipped verdict or a new check name fails here before
it fails the benchmark.  Both files are only read."""

import importlib.util
import sys
from pathlib import Path

import pytest

from stepweaver.verify import verify_schedule

ROOT = Path(__file__).resolve().parent.parent

def _tight(delta: str) -> set:
    """The names of a class's tight pair, with the Huber kink as printed."""
    return {"tightness/tight quadratic", f"tightness/tight huber:delta={delta}"}


S_BATTERY = {"battery/implied-gap", "battery/implied-gradient", "battery/mixed-inequality"}
S_IMPLIED = {"tightness/implied-f-line", "tightness/implied-g-line"}
SILVER2_BROKEN = {"identity"} | S_BATTERY | S_IMPLIED | _tight("0.171572875254")

# The failing checks of each corrupted schedule under the script's two
# configs, ``RunConfig()`` and ``RunConfig(battery=40, seed=0x5EED)``, as the
# four-width battery reported them.
FAILING_BEFORE = {
    "silver(3) step 0 x(1+1e-7)": (
        {"battery/mixed-inequality", "identity", "tightness/tight quadratic"},
        {"identity", "tightness/tight quadratic"},
    ),
    "silver(2) step 1 = nan": (SILVER2_BROKEN | {"interpolation"},) * 2,
    "silver(2) step 0 = 3, no tree": (SILVER2_BROKEN,) * 2,
    "obsf(10) rate x(1+1e-12)": (set(),) * 2,
    "obsf(12) step 3 x1.01, no tree": ({"battery/gap-inequality", "identity"} | _tight("0.0169856750023"),) * 2,
    "obsg(10) step 4 x(1+1e-6)": ({"identity"} | _tight("0.0416051317951"),) * 2,
    "obss(5) steps labeled f": ({"identity"} | _tight("0.103155073056"),) * 2,
    "obsf(6) steps, obsf(5) tree": ({"identity"},) * 2,
    "obss(7) steps, obsf(7) tree": ({"identity"},) * 2,
    "silver(3) steps, silver(2) tree": ({"identity"},) * 2,
    "obsg(6) steps, obsg(5) tree": ({"identity"},) * 2,
    "obss(7) rate x0.5": ({"identity"} | S_BATTERY | S_IMPLIED | _tight("0.0355339059327"),) * 2,
    "rheavy(3) rate x1.5": ({"identity"} | _tight("0.0491512550996"),) * 2,
    "const_f(4) unverified": (set(),) * 2,
    "f [2, 1.35991], no tree": (set(),) * 2,
}


def _load(name: str, path: Path):
    """Import a script or benchmark module by path, leaving ``sys.path`` as it was."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path[:] = saved


@pytest.fixture(scope="module")
def digest_script():
    return _load("report_digest_script", ROOT / "scripts" / "report_digest.py")


@pytest.fixture(scope="module")
def workloads():
    return _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


def test_corrupted_schedules_fail_at_least_what_they_failed(digest_script):
    corruptions = digest_script.corruptions()
    assert [name for name, _ in corruptions] == list(FAILING_BEFORE)
    assert len(digest_script.CONFIGS) == 2
    for k, config in enumerate(digest_script.CONFIGS):
        for name, h in corruptions:
            report = verify_schedule(h, config)
            failing = {c.name for c in report.checks if not c.passed}
            assert failing >= FAILING_BEFORE[name][k], (name, k, report.summary())


def test_benchmark_verify_ops_match_refs_at_other_seeds(workloads):
    """Every verify-corpus and verify-long op at battery seeds 0xC0FFEE+1 and
    0xC0FFEE+2, checked as the benchmark checks it."""
    schedules = workloads.corpus_schedules() + workloads.long_schedules()
    refs = workloads.load_refs()
    assert len(schedules) == 240
    for seed in (1, 2):
        work = workloads.VerifyWorkload(schedules, refs, 0xC0FFEE + seed)
        wrong = [(seed, op[0], work.check(op, None, work.call(op, None))) for op in work.ops]
        assert [w for w in wrong if w[2] is not None] == []
