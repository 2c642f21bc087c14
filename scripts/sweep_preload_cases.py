#!/usr/bin/env python3
"""Force-deflection sweeps from the weak workspace corner, per preload case.

Writes one CSV per preload factor (delta, |F|, F along the diagonal) plus
the detected critical point, sweeping outward from the (+p, +p) corner at
kinetostatically compensated actuator coordinates. Each case's model
document is written next to its CSV, which ``kinetostat sweep
--compensate`` computes from that document.

Usage:
    python scripts/sweep_preload_cases.py [--out-dir results] [--kv 0 0.01 0.1]
                                          [--max-delta 0.3] [--step 0.001]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from kinetostat import OrthoglideSpec, SpringLaw, build_planar_orthoglide, serialize_model, workspace_points
from kinetostat.cli import main as kinetostat

DIAG = np.array([1.0, 1.0]) / np.sqrt(2.0)


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--kv", type=float, nargs="+", default=[0.0, 0.01, 0.1])
    ap.add_argument("--max-delta", type=float, default=0.3)
    ap.add_argument("--step", type=float, default=0.001)
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for kv in args.kv:
        spec = OrthoglideSpec(spring=SpringLaw(kv, 0.0, "linear"))
        model = out_dir / f"sweep_kv{kv:g}.json"
        model.write_text(serialize_model(build_planar_orthoglide(spec)))
        q2 = workspace_points(spec)[2].as_array()
        csv = out_dir / f"sweep_kv{kv:g}.csv"
        code = kinetostat(
            ["sweep", "--model", str(model), "--from", _csv(q2), "--dir", _csv(DIAG),
             "--max-delta", repr(args.max_delta), "--step", repr(args.step),
             "--compensate", "--eps-f", "1e-8", "--out", str(csv)]
        )
        if code != 0:
            return code
        print(f"kv={kv:g}: -> {csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
