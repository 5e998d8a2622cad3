"""The benchmark's workloads: their inputs, their ops and the output checks.

* ``verify-corpus``: ``verify_schedule`` on each of the 232 schedules of the
  acceptance corpus that ``tests/corpus.py`` builds (classes s, f, g; lengths
  1..255).  Many short ops, so battery generation and ``raw_run`` weigh
  most.
* ``verify-long``: ``verify_schedule`` on 8 join-built schedules with n in
  255..511, all three classes.  The interpolation check dominates.
* ``construct``: in-process ``stepweaver.cli.main`` calls (optimize, bounds,
  compose).  Table fill, reconstruction, the short-step builders, dsl and io;
  no verification.

An op is prepared (untimed), called (timed), observed and compared with
``refs.json`` (untimed), and cleaned up (untimed).  Verify ops must reproduce
every check name and ``passed``/``certified`` flag; CLI ops must exit 0 and
reproduce a digest of every file they write.  Digests read numbers back as
binary64 values, so they pin DP tables, splits and steps bit for bit while
ignoring number formatting and the provenance text.
"""

import contextlib
import csv
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

from stepweaver import builders, cli, optimizer
from stepweaver.io import RunConfig
from stepweaver.verify import verify_schedule

REFS_PATH = Path(__file__).with_name("refs.json")
TESTS = Path(__file__).resolve().parent.parent / "tests"

# Two cold n=8190 fills per pass make the slowest ops a class of 16 in a run
# of 8 passes, so op_tail_s (10 ops beyond it) falls inside that class
# instead of on the maximum of the next one.
OPTIMIZE_SIZES = [("s", 2047), ("f", 4095), ("g", 6143), ("s", 8190), ("g", 8190)]
BOUNDS_LEVEL = 11
COMPOSE_EXPRS = ["dshort(4000)", "dshort_sigma(3000)", "(silver(10) |> rheavy(8))"]


class SetupError(RuntimeError):
    """The workload could not be set up; the run prints no result."""


def corpus_schedules():
    """The acceptance corpus, as ``tests/corpus.py`` builds it."""
    if str(TESTS) not in sys.path:
        sys.path.append(str(TESTS))
    try:
        import corpus
    except ImportError as err:
        raise SetupError(f"cannot import the acceptance corpus from {TESTS}: {err}") from err
    return corpus.full_corpus(optimizer.build_tables(65))


def long_schedules():
    tables = optimizer.build_tables(512)
    return [
        ("silver(8)", builders.silver(8)),
        ("obsf(255)", optimizer.obs_f(255, tables)),
        ("obsg(255)", optimizer.obs_g(255, tables)),
        ("obsf(383)", optimizer.obs_f(383, tables)),
        ("obsg(383)", optimizer.obs_g(383, tables)),
        ("obss(383)", optimizer.obs_s(383, tables)),
        ("obss(511)", optimizer.obs_s(511, tables)),
        ("rheavy(9)", builders.right_heavy(9)),
    ]


def load_refs(path=REFS_PATH) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise SetupError(f"cannot read references {path}: {err}") from err


def mismatch(expected, observed) -> "str | None":
    """Why an observation differs from its reference, or None if it matches."""
    if expected is None:
        return "no reference output"
    diffs = [
        f"{key}: expected {expected.get(key)!r}, got {observed.get(key)!r}"
        for key in sorted(set(expected) | set(observed))
        if expected.get(key) != observed.get(key)
    ]
    return "; ".join(diffs) or None


class VerifyWorkload:
    """One op verifies one schedule with the run's battery seed."""

    top_span = "verify.verify_schedule"

    def __init__(self, schedules, refs: dict, battery_seed: int):
        self.ops = schedules
        self.refs = refs["verify"]
        self.config = RunConfig(seed=battery_seed)
        verify_schedule(builders.silver(2), self.config)  # warm-up, counted as set-up

    @staticmethod
    def label(op) -> str:
        return op[0]

    def prepare(self, op):
        return None

    def call(self, op, ctx):
        return verify_schedule(op[1], self.config)

    @staticmethod
    def observe(op, ctx, report) -> dict:
        return {
            "checks": {c.name: bool(c.passed) for c in report.checks},
            "passed": report.passed,
            "certified": report.certified,
        }

    def check(self, op, ctx, result) -> "str | None":
        return mismatch(self.refs.get(op[0]), self.observe(op, ctx, result))

    def cleanup(self, op, ctx):
        pass


def _canon(field: str) -> str:
    try:
        return repr(float(field))
    except ValueError:
        return field


def csv_digest(text: str) -> str:
    """Digest of CSV-like text with every number read back as a float."""
    rows = csv.reader(io.StringIO(text))
    canon = "\n".join(",".join(_canon(f) for f in row) for row in rows)
    return hashlib.sha256(canon.encode()).hexdigest()


def schedule_digest(text: str) -> str:
    """Digest of a schedule file's content, provenance excluded."""
    doc = json.loads(text)
    doc.pop("provenance", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def stdout_digest(text: str) -> str:
    """Digest of the printed results; ``wrote <path>`` notices are skipped."""
    return csv_digest("\n".join(ln for ln in text.splitlines() if not ln.startswith("wrote ")))


class CliOp:
    """One ``stepweaver.cli.main`` call; output paths are added per op.

    ``outputs`` maps a flag to (file name, digest).  ``cache`` is None, or
    "cold" for a fresh empty ``--cache`` directory, or "warm" for a fresh copy
    of a cache directory that set-up filled for the same argv.
    """

    def __init__(self, argv, outputs, cache=None):
        self.argv = list(argv)
        self.outputs = outputs
        self.cache = cache
        self.key = " ".join(self.argv)

    @property
    def label(self) -> str:
        return self.key + (f" [{self.cache} cache]" if self.cache else "")


def construct_ops():
    schedule_out = {"--out": ("schedule.json", schedule_digest)}
    ops = []
    for cls, n in OPTIMIZE_SIZES:
        argv = ["optimize", "--class", cls, "--n", str(n)]
        outputs = dict(schedule_out, **{"--table": ("table.csv", csv_digest)})
        ops += [CliOp(argv, outputs, cache) for cache in ("cold", "warm")]
    bounds = ["bounds", "--k", str(BOUNDS_LEVEL)]
    ops += [CliOp(bounds, {"--out": ("rates.csv", csv_digest)}, c) for c in ("cold", "warm")]
    ops += [CliOp(["compose", expr], schedule_out) for expr in COMPOSE_EXPRS]
    return ops


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class ConstructWorkload:
    """One op is one in-process CLI call in a fresh directory of its own."""

    top_span = "cli.main"

    def __init__(self, refs: dict, workdir: Path):
        self.ops = construct_ops()
        self.refs = refs["construct"]
        self.workdir = workdir
        self.templates = {}
        self.digests = {}  # (digest, sha256 of the text) -> digest; ops repeat their outputs
        for op in self.ops:
            if op.cache == "cold":
                template = workdir / "templates" / str(len(self.templates))
                code, _ = _run_cli(op.argv + ["--cache", str(template)])
                if code != 0:
                    raise SetupError(f"filling the table cache for {op.key!r} exited {code}")
                self.templates[op.key] = template

    @staticmethod
    def label(op) -> str:
        return op.label

    @staticmethod
    def _output_args(op, directory: Path):
        return [a for flag, (name, _) in op.outputs.items() for a in (flag, str(directory / name))]

    def prepare(self, op):
        directory = self.workdir / "op"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        argv = op.argv + self._output_args(op, directory)
        if op.cache == "warm":
            shutil.copytree(self.templates[op.key], directory / "cache")
        elif op.cache == "cold":
            (directory / "cache").mkdir()
        if op.cache:
            argv += ["--cache", str(directory / "cache")]
        if hasattr(optimizer, "_SHARED_TABLES"):
            optimizer._SHARED_TABLES = None  # no in-process tables carry over
        return directory, argv

    def call(self, op, ctx):
        return _run_cli(ctx[1])

    def _digest(self, digest, text: str) -> str:
        """``digest(text)``, parsed once per distinct text."""
        key = (digest, hashlib.sha256(text.encode()).digest())
        if key not in self.digests:
            self.digests[key] = digest(text)
        return self.digests[key]

    def observe(self, op, ctx, result) -> dict:
        code, stdout = result
        seen = {"exit": code, "stdout": self._digest(stdout_digest, stdout)}
        for flag, (name, digest) in op.outputs.items():
            path = ctx[0] / name
            seen[flag] = self._digest(digest, path.read_text(encoding="utf-8")) if path.exists() else None
        return seen

    def check(self, op, ctx, result) -> "str | None":
        return mismatch(self.refs.get(op.key), self.observe(op, ctx, result))

    def cleanup(self, op, ctx):
        shutil.rmtree(ctx[0], ignore_errors=True)


def build(name: str, seed: int, workdir: Path, refs=None):
    """Set up a workload: its inputs, its references and any warm state."""
    refs = load_refs() if refs is None else refs
    battery_seed = 0xC0FFEE + seed
    if name == "verify-corpus":
        return VerifyWorkload(corpus_schedules(), refs, battery_seed)
    if name == "verify-long":
        return VerifyWorkload(long_schedules(), refs, battery_seed)
    if name == "construct":
        return ConstructWorkload(refs, workdir)
    raise SetupError(f"unknown workload {name!r}")
