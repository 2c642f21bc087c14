"""Workload inputs, the CLI items that run them, and the output checks.

Every workload is a list of ``kinetostat`` CLI argument vectors built from
the workload seed. The benchmark hands the program nothing else: model files
it writes into its work directory, and command-line arguments.

* ``table1``: one ``bench orthoglide --json`` report at the defaults. The
  paper fixes its inputs, so the seed does not change them.
* ``map``: ``map --grid 10`` on the shipped linear-preload model and on the
  stop-limit model (k = 0.5, offset pi/12, ``positive_part``). Seed 0 keeps
  the shipped workspace box; other seeds shrink it by a seeded factor.
* ``sweep``: 80 ``sweep`` commands of 25 samples, alternating the two
  models, from seeded start poses along seeded unit directions.

An operation is a table cell or critical-force entry, a map cell, or a sweep
command. It fails on a non-zero exit, a map cell flagged ``failed``, or a
failed output check.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("table1", "map", "sweep")

GRID = 10
SHRINK_RANGE = (0.85, 1.0)  # map workspace scale for seeds other than 0
SWEEP_ITEMS = 80
SWEEP_STEP = 0.004
SWEEP_MAX_DELTA = 0.096  # 25 samples
SWEEP_START_BOX = 0.35  # start poses in [-0.35, 0.35]^2, so targets stay inside +-0.45
STOP_LIMIT = {"k": 0.5, "offset": math.pi / 12.0, "branch": "positive_part"}

# published table (units of K_theta and L) and the acceptance tolerances
KV = ("0.0", "0.01", "0.05", "0.1")
TABLE = {
    "Q0": {"rho": (1.0, 1.0, 1.0, 1.0), "stiffness": (1.0, 1.01, 1.05, 1.10)},
    "Q1": {"rho": (0.437, 0.433, 0.419, 0.402), "stiffness": (2.276, 2.286, 2.329, 2.382)},
    "Q2": {"rho": (1.345, 1.356, 1.399, 1.453), "stiffness": (0.24, 0.27, 0.39, 0.55)},
}
STIFFNESS_REL = {"Q1": 0.02, "Q2": 0.05}  # Q0 stiffness must match to 1e-6
RHO_REL = 0.02
CRITICAL = {"0.0": 0.020, "0.01": 0.027, "0.05": None, "0.1": None}
CRITICAL_REL = 0.10


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class Workload:
    name: str
    seed: int
    items: list[list[str]]
    model_files: list[str] = field(default_factory=list)

    def operations(self) -> int:
        """Operations one repetition attempts."""
        if self.name == "table1":
            return 3 * len(KV) + len(KV)
        if self.name == "map":
            return len(self.items) * GRID * GRID
        return len(self.items)

    def check(self, outcomes) -> tuple[int, list[str]]:
        """Failed operations of one repetition, with a reason for each.

        ``outcomes`` holds (exit code, stdout, stderr) per item.
        """
        failures = []
        for argv, (code, out, err) in zip(self.items, outcomes):
            label = " ".join(argv[:2])
            if code != 0:
                n = self.operations() // len(self.items)
                failures += [f"{label}: exit {code}: {err.strip()[-200:]}"] * n
                continue
            try:
                if self.name == "table1":
                    failures += check_table1(out)
                elif self.name == "map":
                    failures += check_map(out)
                else:
                    failures += check_sweep(argv, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                n = self.operations() // len(self.items)
                failures += [f"{label}: unreadable output: {exc!r}"] * n
        return len(failures), failures


# -- inputs ----------------------------------------------------------------


def _model_document(shipped: dict, spring: dict | None, scale: float) -> dict:
    doc = json.loads(json.dumps(shipped))
    if spring is not None:
        for chain in doc["chains"]:
            for element in chain["elements"]:
                if element["joint"]["kind"] == "preloaded_passive":
                    element["joint"]["spring"] = dict(spring)
    box = doc["workspace"]
    box["min"] = [scale * v for v in box["min"]]
    box["max"] = [scale * v for v in box["max"]]
    return doc


def write_models(root: Path, work: Path, scale: float) -> list[str]:
    """The shipped linear-preload model and its stop-limit variant."""
    shipped = json.loads((root / "src/kinetostat/models/orthoglide-planar.json").read_text())
    paths = []
    for name, spring in (("linear-preload", None), ("stop-limit", STOP_LIMIT)):
        path = work / f"{name}.json"
        path.write_text(json.dumps(_model_document(shipped, spring, scale), indent=2) + "\n")
        paths.append(str(path))
    return paths


def make(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Inputs of one workload, generated from its seed."""
    rng = random.Random(seed)
    if name == "table1":
        return Workload(name, seed, [["bench", "orthoglide", "--json"]])
    if name == "map":
        scale = 1.0 if seed == 0 else rng.uniform(*SHRINK_RANGE)
        models = write_models(root, work, scale)
        items = [["map", "--model", m, "--grid", str(GRID)] for m in models]
        return Workload(name, seed, items, models)
    if name == "sweep":
        models = write_models(root, work, 1.0)
        items = []
        for i in range(SWEEP_ITEMS):
            x, y = (rng.uniform(-SWEEP_START_BOX, SWEEP_START_BOX) for _ in range(2))
            angle = rng.uniform(0.0, 2.0 * math.pi)
            # "--from=" / "--dir=": argparse reads "--from -0.1,0.2" as an option
            items.append(
                [
                    "sweep",
                    "--model",
                    models[i % 2],
                    f"--from={_fmt(x)},{_fmt(y)}",
                    f"--dir={_fmt(math.cos(angle))},{_fmt(math.sin(angle))}",
                    "--max-delta",
                    _fmt(SWEEP_MAX_DELTA),
                    "--step",
                    _fmt(SWEEP_STEP),
                ]
            )
        return Workload(name, seed, items, models)
    raise ValueError(f"unknown workload {name!r}")


# -- output checks -----------------------------------------------------------


def _close(value, ref, rel) -> bool:
    return abs(value - ref) <= max(rel * abs(ref), 1e-12)


def check_table1(out: str) -> list[str]:
    """Criteria 1-3 of the acceptance suite, one failure per cell or entry."""
    payload = json.loads(out)
    points = payload["points"]
    bad = set()
    for point, ref in TABLE.items():
        for i, kv in enumerate(KV):
            cell = points[point][kv]
            if point == "Q0":
                ok_k = abs(cell["stiffness"] - ref["stiffness"][i]) <= 1e-6
            else:
                ok_k = _close(cell["stiffness"], ref["stiffness"][i], STIFFNESS_REL[point])
            ok_rho = _close(cell["rho"], ref["rho"][i], RHO_REL)
            if not (ok_k and ok_rho and math.isfinite(cell["residual_wrench"])):
                bad.add(f"{point} kv={kv}")
    k = {p: points[p]["0.0"]["stiffness"] for p in TABLE}
    if not 2.0 <= k["Q1"] / k["Q0"] <= 2.4:
        bad.add("Q1 kv=0.0")
    if not 3.6 <= k["Q0"] / k["Q2"] <= 4.6:
        bad.add("Q2 kv=0.0")
    if not 2.1 <= points["Q2"]["0.1"]["stiffness"] / k["Q2"] <= 2.5:
        bad.add("Q2 kv=0.1")
    failures = [f"table cell {c} off the published table" for c in sorted(bad)]
    for kv, ref in CRITICAL.items():
        entry = payload["critical_force"][kv]
        ok = entry is None if ref is None else entry is not None and _close(entry["force"], ref, CRITICAL_REL)
        if not ok:
            failures.append(f"critical force kv={kv}: {entry} against {ref}")
    return failures


def check_map(out: str) -> list[str]:
    lines = out.splitlines()
    if lines[0] != "x,y,c_max,c_min,flag":
        raise ValueError(f"map header {lines[0]!r}")
    rows = lines[1:]
    failures = []
    if len(rows) != GRID * GRID:
        failures += ["map: missing cell"] * max(GRID * GRID - len(rows), 1)
    for row in rows:
        x, y, c_max, c_min, flag = row.split(",")
        values = [float(v) for v in (x, y, c_max, c_min)]
        if flag != "ok" or not all(map(math.isfinite, values)) or not values[2] >= values[3] > 0.0:
            failures.append(f"map cell {row}")
    return failures


def check_sweep(argv: list[str], out: str) -> list[str]:
    lines = out.splitlines()
    if lines[0] != "delta,F_mag,F_dir":
        raise ValueError(f"sweep header {lines[0]!r}")
    rows = [line for line in lines[1:] if not line.startswith("#")]
    notes = [line for line in lines[1:] if line.startswith("#")]
    step = float(argv[argv.index("--step") + 1])
    max_delta = float(argv[argv.index("--max-delta") + 1])
    values = [float(v) for row in rows for v in row.split(",")]
    for note in notes:
        values += [float(kv.split("=")[1]) for kv in note[2:].split() if kv.startswith("critical_")]
    label = " ".join(argv[3:5])
    if not all(map(math.isfinite, values)):
        return [f"sweep {label}: non-finite value"]
    if "# truncated=true" not in notes and len(rows) != round(max_delta / step) + 1:
        return [f"sweep {label}: {len(rows)} samples"]
    return []
