#!/usr/bin/env python3
"""Digests of the CLI's output on a fixed list of commands.

Runs each command in-process and prints ``sha256(exit, stdout, stderr)  argv``,
then one total over all of them, so two trees that print the same total give
the same bytes on every command. The commands:

* ``bench orthoglide``, in text and with ``--json``;
* on the shipped linear-preload model and on its stop-limit variant (k 0.5,
  offset pi/12, ``positive_part``): ``map --grid 10``, one ``sweep`` plain
  and one with ``--compensate``, and ``invkin``, ``equilibrium`` and
  ``stiffness --json`` at four poses.

The model documents are written to a temporary directory; argv prints a
model by its file name.

Usage:
    python scripts/cli_digests.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from importlib import resources
from pathlib import Path

from kinetostat.cli import main as kinetostat

STOP_LIMIT = {"k": 0.5, "offset": math.pi / 12.0, "branch": "positive_part"}
POSES = ("0,0", "0.1,0.2", "-0.2,0.3", "0.3,-0.1")
SWEEP = ["--from=0.1,-0.2", "--dir=0.6,0.8", "--max-delta", "0.096", "--step", "0.004"]


def _write_models(out_dir: Path) -> list[Path]:
    """The shipped model and its stop-limit variant, as documents in ``out_dir``."""
    text = resources.files("kinetostat").joinpath("models/orthoglide-planar.json").read_text()
    stops = json.loads(text)
    for chain in stops["chains"]:
        for element in chain["elements"]:
            if element["joint"]["kind"] == "preloaded_passive":
                element["joint"]["spring"] = dict(STOP_LIMIT)
    paths = [out_dir / "linear-preload.json", out_dir / "stop-limit.json"]
    paths[0].write_text(text)
    paths[1].write_text(json.dumps(stops, indent=2) + "\n")
    return paths


def commands(models: list[Path]) -> list[list[str]]:
    argvs = [["bench", "orthoglide"], ["bench", "orthoglide", "--json"]]
    for model in map(str, models):
        argvs += [["map", "--model", model, "--grid", "10"]]
        argvs += [["sweep", "--model", model, *SWEEP], ["sweep", "--model", model, *SWEEP, "--compensate"]]
        for pose in POSES:
            argvs += [
                ["invkin", "--model", model, "--pose", pose, "--eps-f", "1e-8"],
                ["equilibrium", "--model", model, "--pose", pose],
                ["stiffness", "--model", model, "--pose", pose, "--json"],
            ]
    return argvs


def digest(argv: list[str]) -> str:
    """sha256 of one command's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kinetostat(argv)
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        models = _write_models(Path(tmp))
        for command in commands(models):
            line = f"{digest(command)}  {' '.join(Path(a).name if a.startswith(tmp) else a for a in command)}"
            total.update(line.encode() + b"\n")
            print(line)
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
