"""Smoke tests: the scripts still run against the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv, returncode=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == returncode, proc.stderr
    return proc


def test_worst_case_gallery_runs():
    proc = run_script("worst_case_gallery.py", "--grid", "100")
    assert proc.stdout.splitlines()[0].split()[:2] == ["schedule", "criterion"]
    assert any(line.startswith("silver(3)") for line in proc.stdout.splitlines())


@pytest.mark.parametrize("grid", ["50", "20000000"])
def test_worst_case_gallery_refuses_a_bad_grid_in_one_line(grid):
    """A grid below 100 (``ScheduleError``) or one whose scan passes the
    coordinate cap (``ResourceCapError``) is a usage error, not a traceback."""
    proc = run_script("worst_case_gallery.py", "--grid", grid, returncode=2)
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("worst_case_gallery.py: error: ")


def test_report_digest_prints_count_and_sha256():
    # the digest itself is not pinned: bits are not promised across platforms
    out = run_script("report_digest.py").stdout
    match = re.fullmatch(r"(\d+) reports, sha256 [0-9a-f]{64}\n", out)
    assert match, out
    assert int(match.group(1)) > 0 and int(match.group(1)) % 2 == 0  # every schedule under two configs


def test_construction_digest_prints_count_and_sha256():
    out = run_script("construction_digest.py").stdout
    match = re.fullmatch(r"(\d+) constructions, sha256 [0-9a-f]{64}\n", out)
    assert match, out
    assert int(match.group(1)) > 0
