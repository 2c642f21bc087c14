"""Command-line surface.

Subcommands: equilibrium, stiffness, sweep, map, invkin, bench. Exit codes:
0 success, 2 usage, 3 model/input error (including unreachable poses),
4 solver non-convergence, 5 singularity. Diagnostics go to stderr; CSV and
JSON payloads go to stdout or --out, with floats at 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

import numpy as np

from .chain import inverse_kinematics_unloaded
from .control import solve_inverse_kinetostatic
from .equilibrium import SolverOptions, force_deflection, split_rho, total_wrench
from .errors import KinetostatError, ModelError
from .modelfile import parse_model
from .orthoglide import OrthoglideSpec, compliance_grid, critical_force, reproduce_table1
from .stiffness import _aggregate_stiffness

EXIT_OK = 0
EXIT_USAGE = 2

# comma-list flags whose value may start with a minus sign
_LIST_FLAGS = ("--pose", "--from", "--dir", "--rho")
_NEGATIVE_LEAD = re.compile(r"-\.?\d")


class _UsageError(Exception):
    pass


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _floats(text: str, label: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as err:
        raise _UsageError(f"cannot parse {label} {text!r}: {err}") from None
    if not np.all(np.isfinite(values)):
        raise _UsageError(f"{label} {text!r} is not finite")
    return values


def _attach_negative_lists(argv: list[str]) -> list[str]:
    """Rewrite ``--pose -0.1,0.2`` as ``--pose=-0.1,0.2``.

    argparse takes a separate value that starts with '-' and is not a plain
    negative number for an option, so such comma lists never reach the flag.
    """
    out = []
    for arg in argv:
        if out and out[-1] in _LIST_FLAGS and _NEGATIVE_LEAD.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _load_model(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_model(fh.read())
    except (OSError, UnicodeDecodeError) as err:
        raise ModelError(f"cannot read model file {path}: {err}") from err


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            Path(out_path).parent.mkdir(parents=True, exist_ok=True)
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as err:
            raise ModelError(f"cannot write {out_path}: {err}") from err
    else:
        sys.stdout.write(text)


def _finish(args, payload, lines) -> int:
    """Write ``payload()`` as JSON under --json, else the text ``lines``, to stdout or --out."""
    if getattr(args, "json", False):  # sweep and map take no --json
        _emit(json.dumps(payload(), indent=2) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _matrix_rows(M) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(M)]


def _options(args) -> SolverOptions:
    return SolverOptions(pose_tol=args.tol, rng_seed=args.seed, max_iterations=args.max_iter)


def _pose_command(args):
    """The model, the checked --pose and the solver options of a single-pose command."""
    model = _load_model(args.model)
    return model, model.pose_array(_floats(args.pose, "--pose")), _options(args)


def _resolve_rho(model, args, target):
    """Actuator values and the chain states to start the solves from.

    Without --rho the rigid IK picks the actuators, and its states are what
    a cold start would solve again, so they seed the solves instead.
    """
    if args.rho is not None:
        return split_rho(model, _floats(args.rho, "--rho")), None
    states = inverse_kinematics_unloaded(model, target)
    return [s.rho for s in states], states


def _cmd_equilibrium(args) -> int:
    model, target, opts = _pose_command(args)
    rho, starts = _resolve_rho(model, args, target)
    F_sigma, results = total_wrench(model, target, rho, opts, starts=starts)
    lines = ["F_sigma: " + " ".join(_fmt(v) for v in F_sigma)]
    for i, r in enumerate(results):
        lines.append(
            f"chain[{i}]: F = {' '.join(_fmt(v) for v in r.F)}  "
            f"residual = {_fmt(r.residual)}  iterations = {r.iterations}"
        )
    return _finish(args, lambda: {
        "command": "equilibrium",
        "pose": [float(v) for v in target],
        "rho": [[float(v) for v in r] for r in rho],
        "F_sigma": [float(v) for v in F_sigma],
        "chains": [
            {
                "F": [float(v) for v in r.F],
                "residual": r.residual,
                "iterations": r.iterations,
                "restarts": r.restarts,
                "active_mask": [bool(b) for b in r.regrouped.active_mask],
            }
            for r in results
        ],
        "units": model.units,
    }, lines)


def _cmd_stiffness(args) -> int:
    model, target, opts = _pose_command(args)
    rho, starts = _resolve_rho(model, args, target)
    _, equilibria = total_wrench(model, target, rho, opts, starts=starts)
    res = _aggregate_stiffness(model, equilibria)
    lines = ["K_sigma:"] + ["  " + " ".join(_fmt(v) for v in row) for row in np.asarray(res.K_sigma)]
    lines.append("eigenvalues: " + " ".join(_fmt(v) for v in res.eigenvalues))
    lines.append("chain ranks: " + " ".join(str(r) for r in res.rank_c))
    return _finish(args, lambda: {
        "command": "stiffness",
        "pose": [float(v) for v in target],
        "K_sigma": _matrix_rows(res.K_sigma),
        "eigenvalues": [float(v) for v in res.eigenvalues],
        "K_c": [_matrix_rows(K) for K in res.K_c],
        "rank_c": res.rank_c,
        "condition": res.condition,
        "indefinite": res.indefinite,
        "units": model.units,
    }, lines)


def _cmd_sweep(args) -> int:
    model = _load_model(args.model)
    start = model.pose_array(_floats(args.start, "--from"))
    direction = _floats(args.dir, "--dir")
    opts = _options(args)
    rho = starts = None
    if args.compensate:
        # the compensation's equilibria at the start pose seed the first sample
        sol = solve_inverse_kinetostatic(model, start, args.eps_f, opts)
        rho, starts = sol.rho, [eq.regrouped.coords for eq in sol.equilibria]
    elif args.rho is not None:
        rho = split_rho(model, _floats(args.rho, "--rho"))
    curve = force_deflection(
        model, start, direction, args.max_delta, args.step, opts, rho_all=rho, starts=starts
    )
    crit = critical_force(curve)
    lines = ["delta,F_mag,F_dir"]
    for d, fm, fd in zip(curve.deltas, curve.force_magnitude, curve.force_along):
        lines.append(f"{_fmt(d)},{_fmt(fm)},{_fmt(fd)}")
    if crit is None:
        # a curve cut short before any interior peak may still have one further on
        lines.append("# critical=unknown" if curve.truncated else "# critical=none")
    else:
        lines.append(f"# critical_delta={_fmt(crit[0])} critical_force={_fmt(crit[1])}")
    if curve.truncated:
        lines.append("# truncated=true")
    _finish(args, None, lines)
    if curve.truncated:
        delta = _fmt(len(curve.deltas) * args.step)
        print(f"sweep: truncated at delta={delta}: {curve.error.describe()}", file=sys.stderr)
    return EXIT_OK


def _cmd_map(args) -> int:
    model = _load_model(args.model)
    opts = _options(args)
    grid = compliance_grid(model, args.grid, opts, eps_f=args.eps_f)
    lines = ["x,y,c_max,c_min,flag"]
    for ix, x in enumerate(grid.xs):
        for iy, y in enumerate(grid.ys):
            flag = "ok" if grid.ok[ix, iy] else "failed"
            lines.append(
                f"{_fmt(x)},{_fmt(y)},{_fmt(grid.c_max[ix, iy])},{_fmt(grid.c_min[ix, iy])},{flag}"
            )
    _finish(args, None, lines)
    for (ix, iy), reason in grid.reasons.items():
        print(f"map: cell x={_fmt(grid.xs[ix])} y={_fmt(grid.ys[iy])} failed: {reason}", file=sys.stderr)
    return EXIT_OK


def _cmd_invkin(args) -> int:
    model, target, opts = _pose_command(args)
    sol = solve_inverse_kinetostatic(model, target, args.eps_f, opts)
    lines = [
        "rho: " + " ".join(_fmt(v) for r in sol.rho for v in r),
        f"residual_wrench: {_fmt(sol.residual_wrench)}",
        f"outer_iterations: {sol.outer_iterations}",
    ]
    return _finish(args, lambda: {
        "command": "invkin",
        "pose": [float(v) for v in target],
        "rho": [[float(v) for v in r] for r in sol.rho],
        "residual_wrench": sol.residual_wrench,
        "outer_iterations": sol.outer_iterations,
        "full_rank": sol.full_rank,
        "units": model.units,
    }, lines)


def _cmd_bench(args) -> int:
    report = reproduce_table1(OrthoglideSpec(p_factor=args.p_factor), _options(args))
    return _finish(args, report.to_json_dict, report.to_text().splitlines())


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="rng seed for solver restarts")
    common.add_argument("--tol", type=float, default=1e-9, help="pose tolerance of the equilibrium solve")
    common.add_argument("--max-iter", type=int, default=50, help="equilibrium iterations per restart")
    common.add_argument("--out", default=None, help="write the payload to a file instead of stdout")
    # sweep and map write CSV only, so they do not take --json
    with_json = argparse.ArgumentParser(add_help=False, parents=[common])
    with_json.add_argument("--json", action="store_true", help="emit a JSON envelope instead of text")

    parser = argparse.ArgumentParser(
        prog="kinetostat",
        description="loaded equilibria, stiffness and kinetostatic control of preloaded parallel manipulators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equilibrium", parents=[with_json], help="total wrench holding a pose")
    p.add_argument("--model", required=True)
    p.add_argument("--pose", required=True, help="comma separated task coordinates")
    p.add_argument("--rho", default=None, help="actuator coordinates, flat comma list")
    p.set_defaults(func=_cmd_equilibrium)

    p = sub.add_parser("stiffness", parents=[with_json], help="aggregated Cartesian stiffness at a pose")
    p.add_argument("--model", required=True)
    p.add_argument("--pose", required=True)
    p.add_argument("--rho", default=None)
    p.set_defaults(func=_cmd_stiffness)

    p = sub.add_parser("sweep", parents=[common], help="force-deflection sweep (CSV)")
    p.add_argument("--model", required=True)
    p.add_argument("--from", dest="start", required=True, help="start pose")
    p.add_argument("--dir", required=True, help="sweep direction (normalized internally)")
    p.add_argument("--max-delta", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--rho", default=None, help="fixed actuators (default: rigid IK at start)")
    p.add_argument("--compensate", action="store_true", help="use kinetostatically compensated actuators")
    p.add_argument("--eps-f", type=float, default=1e-8, help="wrench tolerance for --compensate")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("map", parents=[common], help="compliance map over the model workspace (CSV)")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--eps-f", type=float, default=1e-8)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("invkin", parents=[with_json], help="kinetostatically compensated actuator coordinates")
    p.add_argument("--model", required=True)
    p.add_argument("--pose", required=True)
    p.add_argument("--eps-f", type=float, required=True)
    p.set_defaults(func=_cmd_invkin)

    p = sub.add_parser("bench", parents=[with_json], help="built-in benchmark reports")
    p.add_argument("benchmark", choices=["orthoglide"])
    p.add_argument("--p-factor", type=float, default=0.45)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_negative_lists(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        empty = [name for name, value in vars(args).items() if value == []]
        if empty:  # argparse drops the "--" of "--max-iter=--" and leaves the option an empty list
            raise _UsageError(f"--{empty[0].replace('_', '-')} needs a value")
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except KinetostatError as err:
        print(err.describe(), file=sys.stderr)
        return err.exit_code
    except Exception as err:  # noqa: BLE001 - nothing may escape to the shell
        print(f"internal error: {err!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
