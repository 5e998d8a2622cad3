#!/usr/bin/env python3
"""Rate-frontier study: optimal rates, normalized envelopes, block constants.

Builds the dynamic-programming tables up to a chosen size, writes the per-n
normalized rates to CSV (ready to plot rate * n^p against n), and prints the
dyadic block constants together with the lower-envelope fixed point.

Example:
    python3 scripts/rate_frontier.py --n 4096 --out rates.csv
"""

import argparse
import sys
import time

from stepweaver.optimizer import P_EXPONENT, build_tables, c_low, r_constant, write_rate_csv
from stepweaver.schedule import CompClass


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4096, help="largest table row")
    ap.add_argument("--out", default=None, help="per-n CSV path")
    args = ap.parse_args()

    t0 = time.perf_counter()
    tables = build_tables(args.n)
    print(f"filled both tables to n={args.n} in {time.perf_counter() - t0:.2f}s")

    k_max = args.n.bit_length() - 2
    print(f"p = {P_EXPONENT:.12f}")
    print(f"c_low = {c_low():.12f}")
    print("k,r_obs_s,r_obs_f")
    for k in range(k_max + 1):
        rs = r_constant(CompClass.S, k, tables)
        rf = r_constant(CompClass.F, k, tables)
        print(f"{k},{rs:.12f},{rf:.12f}")

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            write_rate_csv(fh, args.n, {"s_": tables.s_rate, "f_": tables.f_rate})
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
