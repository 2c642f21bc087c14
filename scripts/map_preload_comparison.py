#!/usr/bin/env python3
"""Compliance maps with and without the stop-limit preload.

Writes two CSV lattices (x, y, c_max, c_min, flag) over the workspace
square: the plain manipulator and the stop-limit case (angular stiffness
0.5, activation angle pi/12), whose compliance drops only near the corner
that engages the stop. Each case's model document is written next to its
CSV, which ``kinetostat map`` computes from that document.

Usage:
    python scripts/map_preload_comparison.py [--grid 15] [--out-dir results]
"""

import argparse
import math
import sys
from pathlib import Path

from kinetostat import OrthoglideSpec, SpringLaw, build_planar_orthoglide, serialize_model
from kinetostat.cli import main as kinetostat

CASES = {
    "map_no_preload": SpringLaw(0.0),
    "map_stop_limit": SpringLaw(0.5, math.pi / 12.0, "positive_part"),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=15)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, spring in CASES.items():
        model = out_dir / f"{name}.json"
        model.write_text(serialize_model(build_planar_orthoglide(OrthoglideSpec(spring=spring))))
        csv = out_dir / f"{name}.csv"
        code = kinetostat(["map", "--model", str(model), "--grid", str(args.grid), "--out", str(csv)])
        if code != 0:
            return code
        print(f"{name}: -> {csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
