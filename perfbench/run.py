"""stepweaver benchmark: closed-loop workloads over verify, optimizer and cli.

Run one workload (one closed loop, one client, in this process):

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 30 --trace 0

or every workload, each in a fresh process of its own:

    python3 perfbench/run.py --workload all --seconds 30

The seed sets the verification battery seed (``RunConfig.seed`` =
0xC0FFEE + seed) and the order of ops within each pass.  A run is a whole
number of passes over the workload's op list, so runs of the same code do
the same work: the fewest passes that fill ``--seconds`` at the nominal pass
times, which are about what a pass's timed ops take on a 2-core x86-64 VM.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs half the passes untraced and half traced and prints the
per-layer metrics (per op) and ``trace_overhead``, and writes the spans to
``perfbench/out/``.  Every op's output is checked against ``refs.json``; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``op_fail_ratio`` (failed / attempted) is
printed with the end-to-end metrics but is not a BENCHMARK.json metric,
because it is 0 on a correct program.

Tests of the benchmark: ``python3 -m pytest -q perfbench``.  The references
are rewritten by ``python3 perfbench/make_refs.py``.

The BLAS pool is pinned to one thread before numpy loads: with OpenBLAS on
its default two threads, ``verify_schedule(obs_f(383))`` had per-op
IQR/median 0.22-0.26 and two processes gave medians 1.12 s and 1.39 s; on one
thread, 0.11-0.13 and 1.14 s / 1.21 s.

Times are scaled to a machine of fixed speed.  On a shared 2-core VM the
whole machine runs up to 30% slower for seconds to minutes at a time, alike
for interpreter and BLAS work, so raw times of the same code spread by more
than the bounds.  After each op (untimed) the benchmark times a fixed
pure-Python loop, the calibration chunk, for about 5% of the op's time.  Each
op's latency is multiplied by CAL_REF_S / (mean time of the chunks within
CAL_WINDOW_S of the op): the time it would have taken on a machine where one
chunk takes CAL_REF_S.  The machine's speed shifts in steps some seconds
apart, so a window of about a second tracks it better than a whole pass.
Set-up is scaled the same way, by chunks timed right after it.  Over ten
30-s runs of each workload on a 2-core VM, IQR/median of ``ops_per_s`` was
0.07-0.15 raw and 0.01-0.05 scaled, of ``op_p50_s`` 0.09-0.27 raw and
0.04-0.10 scaled; ``op_tail_s`` gains less (0.07-0.16 raw, 0.05-0.10
scaled).  Raw figures are printed beside the scaled ones.
A program that left work running between ops would slow the chunks and so
read faster than it is; stepweaver runs nothing between calls.
"""

import time

START = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse
import bisect
import ctypes
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NOMINAL_PASS_S = {"verify-corpus": 7.5, "verify-long": 12.5, "construct": 3.75}
SETUP_SAMPLES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10
SETUP_TIMEOUT_S = 170
CHILD_SETUP_MARGIN_S = 120  # set-up of a workload child, on top of 3x its nominal passes
CAL_LOOP = 20_000  # iterations of one calibration chunk
CAL_REF_S = 1.7e-3  # a chunk's time on the reference machine (2-core 2.0 GHz Xeon VM) at its usual speed
CAL_SHARE = 0.05  # calibration after an op, as a share of the op's time; at least one chunk
CAL_WINDOW_S = 0.5  # chunks this close to an op scale it
SETUP_CAL_S = 0.25  # calibration right after set-up


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def blas_info() -> dict:
    """OpenBLAS version and live thread count, read from the loaded library."""
    info = {"blas": "unknown", "blas_threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return info
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                    return {"blas": config().decode().strip(), "blas_threads": threads()}
    return info


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def calibration_chunk() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i
    return time.perf_counter() - t0


def calibrate(seconds: float) -> list:
    """(start, duration) of chunks: at least one, and at least ``seconds`` in all."""
    chunks, total = [], 0.0
    while not chunks or total < seconds:
        start = time.perf_counter()
        chunks.append((start, calibration_chunk()))
        total += chunks[-1][1]
    return chunks


def speed_factor(chunks) -> float:
    """Scale from measured time to time on the reference machine."""
    return CAL_REF_S / statistics.fmean(d for _, d in chunks)


def scale(spans, chunks) -> list:
    """Each op's latency times the speed factor of the chunks near it.

    ``spans`` are the ops' (start, end) and ``chunks`` the calibration chunks
    in time order; the first chunk after an op always counts.
    """
    starts = [t for t, _ in chunks]
    scaled = []
    for t0, t1 in spans:
        lo = bisect.bisect_left(starts, t0 - CAL_WINDOW_S)
        hi = max(bisect.bisect_right(starts, t1 + CAL_WINDOW_S), bisect.bisect_right(starts, t1) + 1)
        scaled.append((t1 - t0) * speed_factor(chunks[lo:hi]))
    return scaled


def run_passes(workload, rng, passes, tracer=None):
    """Closed loop: the next op starts when the previous one has been checked.

    Returns the raw op latencies, the same latencies scaled to the reference
    machine, and the failures.
    """
    latencies, spans, chunks, failures = [], [], [], []
    for _ in range(passes):
        order = list(range(len(workload.ops)))
        rng.shuffle(order)
        for i in order:
            op = workload.ops[i]
            ctx = workload.prepare(op)
            gc.collect()  # each op starts from a collected heap
            elapsed = None
            span = tracer.begin(workload.top_span) if tracer else None
            t0 = time.perf_counter()
            try:
                result = workload.call(op, ctx)
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.finish(span)
                problem = workload.check(op, ctx, result)
            except Exception as err:  # a failed op is counted, not fatal
                problem = f"raised {type(err).__name__}: {err}"
            finally:
                if elapsed is None:
                    elapsed = time.perf_counter() - t0
                    if tracer:
                        tracer.finish(span)
                workload.cleanup(op, ctx)
            latencies.append(elapsed)
            spans.append((t0, t0 + elapsed))
            if problem:
                failures.append(f"{workload.label(op)}: {problem}")
            chunks += calibrate(CAL_SHARE * elapsed)
    return latencies, scale(spans, chunks), failures


def traced_passes(workload, rng, half, tracer):
    """Untraced and traced passes in turn, so drift in machine speed hits both.

    Returns the scaled latencies of the untraced and of the traced ops, the
    raw latencies of the traced ops (the time base of the spans) and the
    failures.
    """
    plain, traced, traced_raw, failures = [], [], [], []
    for _ in range(half):
        _, scaled, failed = run_passes(workload, rng, 1)
        plain += scaled
        failures += failed
        tracer.install()
        try:
            raw, scaled, failed = run_passes(workload, rng, 1, tracer)
        finally:
            tracer.uninstall()
        traced += scaled
        traced_raw += raw
        failures += failed
    return plain, traced, traced_raw, failures


def pass_count(name, seconds) -> int:
    """The fewest whole passes that fill ``seconds`` at the nominal pass time."""
    return max(1, math.ceil(seconds / NOMINAL_PASS_S[name]))


def tail(latencies):
    """Highest order statistic with TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def setup_samples(args, first: tuple) -> list:
    """(raw, scaled) set-up times of this process and of fresh processes doing only set-up."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--setup-sample"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(tuple(float(v) for v in done.stdout.strip().splitlines()[-1].split()))
    return samples


def metric_line(name, value, unit, note=""):
    return f"  {name:<34} {value:>14.6g} {unit:<9}{note}"


def run_one(args) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import stepweaver
    except ImportError as err:
        print(f"error: cannot import stepweaver from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(stepweaver.__file__).resolve().parents:
        print(f"error: stepweaver loaded from {stepweaver.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    # numpy loads here, after the thread pin
    import numpy
    import tracing
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        gc.collect()
        gc.freeze()  # set-up objects stay out of the collections ops trigger
        setup_s = time.perf_counter() - START
        setup = (setup_s, setup_s * speed_factor(calibrate(SETUP_CAL_S)))
        if args.setup_sample:
            print(*setup)
            return 0
        spec = load_spec()
        rng = random.Random(args.seed)
        passes = pass_count(args.workload, args.seconds)
        env = {"python": platform.python_version(), "numpy": numpy.__version__, **blas_info()}
        env["nproc"] = len(os.sched_getaffinity(0))
        print(f"workload {args.workload}: closed loop, 1 client, seed {args.seed}, "
              f"{len(workload.ops)} ops per pass")
        print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items())
              + " (BLAS pinned to one thread: verify obs_f(383) had per-op IQR/median"
              " 0.22-0.26 on two threads, 0.11-0.13 on one)")
        if args.trace:
            half = max(1, passes // 2)
            tracer = tracing.Tracer()
            plain, traced, traced_raw, failures = traced_passes(workload, rng, half, tracer)
            attempted = len(plain) + len(traced)
            metrics = layer_metrics(spec, tracer, plain, traced)
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write(str(spans))
            print(f"{half} untraced and {half} traced passes, alternating; spans written to {spans}")
            report_layers(metrics, tracer, traced_raw)
        else:
            latencies, scaled, failures = run_passes(workload, rng, passes)
            attempted = len(latencies)
            samples = setup_samples(args, setup)
            metrics = end_to_end_metrics(spec, scaled, [s for _, s in samples])
            print(f"{passes} passes, {attempted} ops; times scaled to a {CAL_REF_S * 1e3:g} ms calibration chunk")
            raw = end_to_end_metrics(spec, latencies, [r for r, _ in samples])
            report_end_to_end(metrics, raw, scaled, samples, len(failures))
    except (workloads.SetupError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def end_to_end_metrics(spec, latencies, samples) -> dict:
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail(latencies)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(samples),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def report_end_to_end(metrics, raw, latencies, samples, failed):
    attempted = len(latencies)
    _, pct, beyond = tail(latencies)
    notes = {
        "op_tail_s": f"p{pct:.1f}: {beyond} of {len(latencies)} ops beyond",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for _, s in samples),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, m in metrics.items():
        note = notes.get(name, "")
        if name != "peak_rss_mb":
            note = f"raw {raw[name]['value']:.6g}; {note}".rstrip("; ")
        print(metric_line(name, m["value"], m["unit"], note))
    print(metric_line("op_fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} ops failed"))


def layer_metrics(spec, tracer, plain, traced) -> dict:
    totals = tracer.layer_totals()
    values = {m["name"]: totals.get(m["name"], 0.0) / len(traced) for m in spec["per_layer"]}
    values["trace_overhead"] = (len(plain) / sum(plain)) / (len(traced) / sum(traced))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}


def report_layers(metrics, tracer, traced):
    op_s = sum(traced) / len(traced)
    print(f"per op, over {len(traced)} traced ops of mean {op_s:.6g} s; counts are computed")
    for name, m in metrics.items():
        share = f"{100.0 * m['value'] / op_s:.1f}% of op time" if name.endswith(".self_s") else ""
        print(metric_line(name, m["value"], m["unit"], share))
    for target in tracer.absent:
        print(f"  absent: {target} (not in this version of the program)")
    for layer in sorted(tracer.uncounted):
        print(f"  uncounted: {layer} (arguments no longer have the expected shape)")


def run_all(args) -> int:
    """Each workload in a fresh process, so memory and caches stay its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(NOMINAL_PASS_S):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        timeout = 3 * pass_count(name, args.seconds) * NOMINAL_PASS_S[name] + CHILD_SETUP_MARGIN_S
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} did not end within {timeout:.0f} s", file=sys.stderr)
            return 2
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
