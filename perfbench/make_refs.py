"""Regenerate ``refs.json`` from the program in this checkout.

    python3 perfbench/make_refs.py

The references are what every benchmark op is checked against, so rewrite
them only in a change that is meant to alter outputs.  Verify references use
the default battery seed; their check names and flags must not depend on it.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the source path above)


def main() -> None:
    refs = {"verify": {}, "construct": {}}
    empty = {"verify": {}, "construct": {}}
    for name in ("verify-corpus", "verify-long"):
        work = workloads.build(name, 0, None, empty)
        for op in work.ops:
            refs["verify"][op[0]] = work.observe(op, None, work.call(op, None))
    workdir = HERE / "out" / f"refs-{os.getpid()}"
    try:
        work = workloads.build("construct", 0, workdir, empty)
        for op in work.ops:
            if op.cache != "warm":
                ctx = work.prepare(op)
                refs["construct"][op.key] = work.observe(op, ctx, work.call(op, ctx))
                work.cleanup(op, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
