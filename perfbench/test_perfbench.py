"""Tests of the benchmark itself: python -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture
def workdir():
    path = HERE / "out" / "test-work"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_metric_with_its_unit(name, trace):
    done = _bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in declared
    }
    for m in declared:  # the human-readable lines name every metric too
        assert any(ln.split()[:1] == [m["name"]] and m["unit"] in ln for ln in lines[:-1])


def test_without_the_program_the_run_fails_without_a_result(workdir):
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    done = _bench("--workload", "construct", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=workdir)
    assert done.returncode != 0
    assert "{" not in done.stdout


def _flip_one_step(text: str) -> str:
    doc = json.loads(text)
    doc["steps"][0] = doc["steps"][0] * (1.0 + 2.0**-52)
    return json.dumps(doc)


def test_corrupted_schedule_reference_is_a_failed_op(workdir):
    refs = workloads.load_refs()
    work = workloads.build("construct", 1, workdir, refs)
    work.ops = [op for op in work.ops if op.argv[0] == "compose"]
    victim = work.ops[0]
    ctx = work.prepare(victim)
    work.call(victim, ctx)
    text = (ctx[0] / "schedule.json").read_text()
    work.cleanup(victim, ctx)
    refs["construct"][victim.key] = dict(
        refs["construct"][victim.key], **{"--out": workloads.schedule_digest(_flip_one_step(text))}
    )
    latencies, scaled, failures = run.run_passes(work, run.random.Random(1), 1)
    assert len(latencies) == len(scaled) == len(work.ops)
    assert len(failures) == 1 and failures[0].startswith(victim.label)


def test_flipped_verify_flag_and_raising_op_are_failed_ops(workdir):
    refs = workloads.load_refs()
    work = workloads.build("verify-corpus", 1, workdir, refs)
    work.ops = work.ops[:3]
    name = work.ops[0][0]
    refs["verify"][name] = dict(refs["verify"][name], certified=False)
    work.ops.append(("not-a-schedule", None))
    latencies, _, failures = run.run_passes(work, run.random.Random(2), 1)
    assert len(latencies) == 4
    assert len(failures) == 2
    assert any(f.startswith(f"{name}: certified: expected False") for f in failures)
    assert any(f.startswith("not-a-schedule: raised") for f in failures)


def test_digests_read_numbers_as_floats():
    assert workloads.csv_digest("n,rate\n1,0.50\n") == workloads.csv_digest("n,rate\n1.0,5e-1\n")
    assert workloads.csv_digest("1,0.5") != workloads.csv_digest("1,0.5000000000000001")
    with_prov = '{"class": "s", "n": 1, "steps": [1.5], "rate": 0.4, "provenance": "x"}'
    assert workloads.schedule_digest(with_prov) == workloads.schedule_digest(with_prov.replace('"x"', '"y"'))


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(20)])
    assert (value, pct, beyond) == (9.0, 50.0, 10)


def test_latencies_scale_with_the_chunks_near_them():
    ref = run.CAL_REF_S
    chunks = [(0.0, ref), (1.0, ref), (10.0, 2 * ref), (11.0, 2 * ref)]
    assert run.scale([(0.5, 0.75), (10.5, 10.75)], chunks) == [0.25, 0.125]
    # an op far from every chunk still counts the first chunk after it
    assert run.scale([(3.0, 4.0)], chunks) == [0.5]


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.finish(inner)
    tracer.finish(outer)
    tracer.start[outer], tracer.end[outer] = 0.0, 10.0
    tracer.start[inner], tracer.end[inner] = 2.0, 5.0
    totals = tracer.layer_totals()
    assert totals["outer.self_s"] == 7.0 and totals["inner.self_s"] == 3.0


def test_missing_targets_are_absent_and_originals_come_back(monkeypatch):
    import stepweaver.verify as verify

    original = verify._q_min_batched
    monkeypatch.setattr(
        tracing,
        "TARGETS",
        tracing.TARGETS + [("x", "stepweaver.verify", "gone", None), ("x", "stepweaver.gone", "f", None)],
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verify._q_min_batched is not original
    finally:
        tracer.uninstall()
    assert verify._q_min_batched is original
    assert tracer.absent == ["stepweaver.verify.gone", "stepweaver.gone.f"]
