"""Span tracer for the traced benchmark run.

The tracer patches names that one stepweaver module looks up in another at
call time (``stepweaver.verify.raw_run``, ``stepweaver.optimizer.join`` ...)
with wrappers that open a span around the original call.  Nothing inside the
program changes; unpatching restores the originals.  A target that a later
version of the program no longer has is reported as absent, never as an error.

Spans stay in memory (flat arrays) until the run writes them out.  A layer's
self time is the sum over its spans of the span duration minus the durations
of its direct child spans.  Counts (pairs, point-steps, candidates, bytes)
are computed from array sizes and arguments at the layer boundary, not
measured inside the program; ``cache_bytes_written`` is the size of the file
``save_tables`` returns.
"""

import functools
import importlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np


def _interp_counts(args, kwargs, result):
    # X is (n+1, B, d); the check appends the minimizer, so N = n + 2 points
    # and B * N^2 ordered pairs, each a float64 entry of the pair matrix.
    n_points = args[0].shape[0] + 1
    pairs = int(np.asarray(result).size) * n_points * n_points
    return {"verify.interp.pairs": pairs, "verify.interp.bytes_computed": 8 * pairs}


def _raw_run_counts(args, kwargs, result):
    xs = result[0]  # (n+1, ..., d): trace points times start points
    return {"gd.raw_run.point_steps": xs.size // xs.shape[-1]}


def _battery_counts(args, kwargs, result):
    return {"verify.battery.instances_built": len(result)}


def _table_counts(args, kwargs, result):
    n_max = int(args[0] if args else kwargs["n_max"])
    return {"optimizer.build_tables.candidates": n_max * (n_max - 1)}  # rows 2..N, n-1 splits, s and f


def _saved_bytes(args, kwargs, result):
    return {"optimizer.cache_bytes_written": os.path.getsize(result)}


# (layer, module, attribute, counter).  Several targets may feed one layer; a
# counter maps the call to {metric name: amount}.
TARGETS = [
    ("verify.interp", "stepweaver.verify", "_q_min_batched", _interp_counts),
    ("verify.battery", "stepweaver.verify", "battery_instances", _battery_counts),
    ("gd.raw_run", "stepweaver.verify", "raw_run", _raw_run_counts),
    ("gd.raw_run", "stepweaver.gd", "raw_run", _raw_run_counts),
    ("gd.run", "stepweaver.verify", "run", None),
    ("verify.cert", "stepweaver.verify", "build_f_certificate", None),
    ("verify.cert", "stepweaver.verify", "_f_cert_slack_raw", None),
    ("verify.cert", "stepweaver.verify", "_f_direct_slack_raw", None),
    ("verify.cert", "stepweaver.verify", "_g_slack_raw", None),
    ("verify.cert", "stepweaver.verify", "_s_slack_raw", None),
    ("verify.cert", "stepweaver.verify", "_s_fg_slacks_raw", None),
    ("verify.cert", "stepweaver.verify", "check_s_implies_fg", None),
    ("verify.cert", "stepweaver.verify", "fg_residuals", None),
    ("verify.cert", "stepweaver.verify", "defining_slack", None),
    ("schedule.reverse", "stepweaver.verify", "reverse", None),
    ("schedule.reverse", "stepweaver.optimizer", "reverse", None),
    ("schedule.validate", "stepweaver.verify", "validate_schedule", None),
    ("schedule.validate", "stepweaver.schedule", "validate_schedule", None),
    ("schedule.validate", "stepweaver.builders", "validate_schedule", None),
    ("schedule.validate", "stepweaver.io", "validate_schedule", None),
    ("schedule.join", "stepweaver.schedule", "join", None),
    ("schedule.join", "stepweaver.optimizer", "join", None),
    ("schedule.join", "stepweaver.builders", "join", None),
    ("schedule.join", "stepweaver.dsl", "join", None),
    ("optimizer.build_tables", "stepweaver.optimizer", "build_tables", _table_counts),
    ("optimizer.reconstruct", "stepweaver.optimizer", "_reconstruct", None),
    ("optimizer.save_tables", "stepweaver.optimizer", "save_tables", _saved_bytes),
    ("optimizer.load_tables", "stepweaver.optimizer", "load_tables", None),
    ("optimizer.c_low", "stepweaver.optimizer", "c_low", None),
    ("builders.dynamic_short", "stepweaver.builders", "dynamic_short", None),
    ("builders.silver", "stepweaver.builders", "silver", None),
    ("dsl.compile_expression", "stepweaver.dsl", "compile_expression", None),
    ("io.dumps_schedule", "stepweaver.io", "dumps_schedule", None),
    ("io.dumps_schedule", "stepweaver.cli", "dumps_schedule", None),
]

# The DSL binds its macros to builder functions when it is imported, so the
# macro table holds its own reference: (layer, module, table, key).
MACRO_TARGETS = [("builders.silver", "stepweaver.dsl", "_MACROS", "silver")]

COUNTER_ERRORS = (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError)


def _module(name: str):
    """The imported module, or None when the program no longer has it."""
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


class Tracer:
    """Records nested spans and boundary counts while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._restore: list = []

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _traced(self, layer, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            self.counts[layer + ".calls"] += 1
            if counter is not None:
                try:
                    for key, value in counter(args, kwargs, result).items():
                        self.counts[key] += value
                except COUNTER_ERRORS:
                    self.uncounted.add(layer)
            return result

        return traced

    def install(self) -> None:
        self.absent = []
        originals = {}
        for layer, module, attr, counter in TARGETS:
            mod = _module(module)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(f"{module}.{attr}")
                continue
            originals[(layer, id(fn))] = mod.__dict__[attr] = self._traced(layer, fn, counter)
            self._restore.append((mod.__dict__, attr, fn))
        for layer, module, table, key in MACRO_TARGETS:
            entries = getattr(_module(module), table, None)
            entry = entries.get(key) if isinstance(entries, dict) else None
            if not isinstance(entry, tuple) or not any(callable(e) for e in entry):
                self.absent.append(f"{module}.{table}[{key!r}]")
                continue
            entries[key] = tuple(
                (originals.get((layer, id(e))) or self._traced(layer, e, None)) if callable(e) else e
                for e in entry
            )
            self._restore.append((entries, key, entry))

    def uninstall(self) -> None:
        while self._restore:
            namespace, key, original = self._restore.pop()
            namespace[key] = original

    def layer_totals(self) -> dict:
        """Self seconds per layer plus every count, summed over the run."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = np.bincount(name, weights=dur - child, minlength=len(self.names))
        out = {f"{n}.self_s": float(self_s[i]) for i, n in enumerate(self.names)}
        out.update(self.counts)
        return out

    def write(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )
