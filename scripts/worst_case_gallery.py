#!/usr/bin/env python3
"""Worst-case gallery: empirical extremes for a spread of schedule families.

For each schedule, scans the one-dimensional Huber family (plus the unit
quadratic) for the worst objective-gap and gradient-norm ratios and compares
them against the certified values.  A composable schedule's scan maximum
should sit exactly on its certificate.

Example:
    python3 scripts/worst_case_gallery.py --grid 400
"""

import argparse
import sys

from stepweaver.builders import dynamic_short, left_heavy, right_heavy, silver
from stepweaver.gd import certified_bound, worst_case_scan
from stepweaver.optimizer import obs_f, obs_g, obs_s
from stepweaver.schedule import ResourceCapError, ScheduleError


def gallery():
    return [
        ("silver(3)", silver(3)),
        ("silver(5)", silver(5)),
        ("rheavy(3)", right_heavy(3)),
        ("lheavy(3)", left_heavy(3)),
        ("obss(10)", obs_s(10)),
        ("obsf(10)", obs_f(10)),
        ("obsf(25)", obs_f(25)),
        ("obsg(10)", obs_g(10)),
        ("dshort(20)", dynamic_short(20)),
        ("dshort_sigma(20)", dynamic_short(20, "sigma")),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, default=256, help="Huber-kink grid size")
    args = ap.parse_args()

    header = f"{'schedule':18s} {'criterion':22s} {'worst':>12s} {'certified':>12s} {'slack':>10s} {'kink*':>10s}"
    lines = [header, "-" * len(header)]
    for name, sched in gallery():
        for criterion in ("objective_gap_per_D2", "gradnorm_per_gap"):
            bound = certified_bound(sched, criterion)
            if bound is None:
                continue
            try:
                res = worst_case_scan(sched, criterion, args.grid)
            except (ScheduleError, ResourceCapError) as exc:  # only --grid can make a scan fail
                ap.error(str(exc))
            lines.append(
                f"{name:18s} {criterion:22s} {res.worst_value:12.8f} {bound:12.8f} "
                f"{bound - res.worst_value:10.2e} {res.delta_star:10.6f}"
            )
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
