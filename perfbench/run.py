#!/usr/bin/env python3
"""Benchmark of the kinetostat CLI: table1, map and sweep workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {table1,map,sweep,all} --seed N \
        --seconds S --trace {0,1}

Each workload runs in a fresh single-threaded child process (``worker.py``)
that drives the program only through ``kinetostat.cli.main(argv)`` with
inputs generated from the seed, repeats the whole workload for ``--seconds``
and checks every output. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of the outside-in tracer. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the same
figures for people, plus the failed fraction and the output drift against
the recorded seed-0 payload digests. ``--record-digest`` (seed 0 only)
rewrites that record for the workload after an intended output change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

BUDGET_S = 170.0  # one workload, set-up processes included
SETUP_RUNS = 14  # extra set-up-only processes; with the workload's own, 15 samples


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time budget exhausted")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def drift(workload: str, seed: int, digests: list[str]) -> str:
    if len(digests) != 1:
        return f"payloads differ between repetitions ({len(digests)} digests)"
    if seed != 0 and workload != "table1":
        return "no reference for this seed (recorded at seed 0)"
    ref = json.loads(DIGESTS.read_text()).get(workload) if DIGESTS.exists() else None
    if ref is None:
        return "no reference recorded"
    return "identical to the seed-0 reference" if digests[0] == ref else "DIFFERS from the seed-0 reference"


def per_command(reps: list[list[float]]) -> list[float]:
    """Each command's median over the repetitions."""
    return [statistics.median(times) for times in zip(*reps)]


def end_to_end(raw: dict, setups: list[float]) -> tuple[dict, list[str]]:
    per_item = per_command(raw["item_s"])
    metrics = {
        "wall_s": (sum(per_item), "s"),
        "item_p50_ms": (1e3 * statistics.median(per_item), "ms"),
        "item_p90_ms": (1e3 * quantile(per_item, 0.9), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }
    unscaled = sum(per_command(raw["item_raw_s"]))
    notes = [f"unscaled wall {unscaled:.4f} s, unscaled set-up {raw['setup_raw_s']:.4f} s"]
    return metrics, notes


def per_layer(raw: dict) -> tuple[dict, list[str]]:
    t = raw["trace"]
    layers = t["layers"]
    notes = []
    values = dict(layers[0])  # counts repeat exactly; take the first traced repetition
    for name in values:
        if name.endswith(("_ms", "_us")):
            values[name] = statistics.median(rep[name] for rep in layers)
    counts = [{k: v for k, v in rep.items() if not k.endswith(("_ms", "_us"))} for rep in layers]
    if any(c != counts[0] for c in counts):
        notes.append("WARNING: counts differ between traced repetitions")
    traced = sum(per_command(t["item_s"]))
    values["trace.wall_s"] = traced
    values["trace.accounted_frac"] = statistics.median(t["accounted"])
    values["trace.overhead_frac"] = traced / sum(per_command(raw["item_s"])) - 1.0
    units = dict(tracer.per_layer_metric_units())
    metrics = {name: (value, units[name]) for name, value in values.items()}
    if t["absent"]:
        notes.append("absent (no longer in kinetostat): " + ", ".join(t["absent"]))
    notes.append(
        f"{len(layers)} traced / {len(raw['item_s'])} untraced repetitions; "
        f"{t['span_count']} spans of the first traced one in {t['spans_file']}"
    )
    return metrics, notes


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS):
            setups.append(run_worker([*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"])
    raw = run_worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(raw["setup_s"])
    metrics, notes = per_layer(raw) if trace else end_to_end(raw, setups)
    return {
        "raw": raw,
        "metrics": metrics,
        "notes": notes,
        "correct": raw["failed"] == 0 and len(raw["digests"]) == 1,
        "drift": drift(name, seed, raw["digests"]),
    }


def report(name: str, seed: int, res: dict):
    raw = res["raw"]
    frac = raw["failed"] / raw["attempted"]
    reps = len(raw["item_s"]) + len(raw.get("trace", {}).get("item_s", []))
    print(
        f"== {name} seed {seed}: {reps} repetitions of {raw['item_count']} command(s), "
        f"{raw['attempted']} operations, {raw['failed']} failed, failed_frac {frac:g}"
    )
    for metric, (value, unit) in res["metrics"].items():
        print(f"  {metric:<40s} {value:>14.6g} {unit}")
    print(f"  output drift: {res['drift']}")
    for note in res["notes"]:
        print(f"  {note}")
    for reason in raw["failures"]:
        print(f"  failure: {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digest", action="store_true", help="store the payload digest (seed 0)")
    args = ap.parse_args(argv)
    if args.record_digest and args.seed != 0:
        ap.error("--record-digest needs --seed 0")

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + BUDGET_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    for name, res in results.items():
        report(name, args.seed, res)
    if args.record_digest:
        record = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        for name, res in results.items():
            if res["correct"]:
                record[name] = res["raw"]["digests"][0]
        DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    single = len(results) == 1
    metrics = {
        (m if single else f"{name}.{m}"): {"value": value, "unit": unit}
        for name, res in results.items()
        for m, (value, unit) in res["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["raw"]["attempted"] for r in results.values()),
                "failed": sum(r["raw"]["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
