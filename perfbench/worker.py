"""One workload in one fresh process; ``run.py`` starts it.

The worker builds the workload's inputs (that is the set-up), then repeats
the whole workload through ``kinetostat.cli.main`` until the time is up and
prints one JSON line of raw measurements. Each command's time is scaled to
the reference speed by the kernel samples taken in and next to it (see
``calibrate.py``).
With ``--trace 1`` the worker alternates untraced and traced repetitions,
the traced ones under the outside-in tracer, and adds the per-layer tallies.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"


def call(cli, argv):
    """One CLI invocation with its payload and diagnostics captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def repetition(cli, wl, calibrate, tracer=None):
    """Run every command once under the speed sampler.

    Returns the raw seconds of each command, its seconds scaled to the
    reference speed, and its (exit code, stdout, stderr).
    """
    marks, outcomes = [], []
    with calibrate.Ticker() as ticker:
        for i, argv in enumerate(wl.items):
            if tracer is not None:
                tracer.item = i
            start = time.perf_counter()
            outcomes.append(call(cli, argv))
            marks.append((start, time.perf_counter()))
    raw, scaled = [], []
    for i, (start, end) in enumerate(marks):
        net, factor = ticker.correct(start, end)
        raw.append(end - start)
        scaled.append(factor * net)
        if tracer is not None:
            # kernel runs landed inside spans in proportion to their length
            tracer.fold(i, factor * net / (end - start))
    return raw, scaled, outcomes


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for _, out, _ in outcomes:
        h.update(out.encode())
        h.update(b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import kinetostat
    from kinetostat import cli, parse_model

    if not Path(kinetostat.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"kinetostat imported from {kinetostat.__file__}, not from this checkout's src/")
    WORK.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, ROOT, WORK)
    for path in wl.model_files:
        parse_model(Path(path).read_text())  # inputs must parse before timing
    setup_raw = time.perf_counter() - T0

    import calibrate

    setup = {"setup_s": setup_raw * calibrate.scale_now(), "setup_raw_s": setup_raw}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    raw_s, scaled_s, traced_s, digests, failures = [], [], [], [], []
    attempted = failed = 0
    layers, accounted = [], []
    origin = None
    deadline = time.perf_counter() + args.seconds
    while True:
        start = time.perf_counter()
        if tracer is not None and len(scaled_s) > len(traced_s):
            tracer.reset()
            tracer.keep_spans = not traced_s
            origin = origin or time.perf_counter()
            with tracer:
                _, scaled, outcomes = repetition(cli, wl, calibrate, tracer)
            traced_s.append(scaled)
            layers.append(tracer.snapshot())
            accounted.append(tracer.self_total_s() / sum(scaled))
        else:
            raw, scaled, outcomes = repetition(cli, wl, calibrate)
            raw_s.append(raw)
            scaled_s.append(scaled)
        n_failed, reasons = wl.check(outcomes)
        attempted += wl.operations()
        failed += n_failed
        failures += reasons[: max(0, 5 - len(failures))]
        digests.append(digest(outcomes))
        done = scaled_s and (tracer is None or traced_s)
        if done and deadline - time.perf_counter() < time.perf_counter() - start:
            break

    result = {
        "workload": wl.name,
        "seed": wl.seed,
        **setup,
        "item_raw_s": raw_s,
        "item_s": scaled_s,
        "item_count": len(wl.items),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digests": sorted(set(digests)),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        spans = WORK / f"trace-{wl.name}-seed{wl.seed}.jsonl"
        tracer.write_spans(spans, origin)
        result["trace"] = {
            "layers": layers,
            "item_s": traced_s,
            "accounted": accounted,
            "absent": tracer.absent,
            "spans_file": str(spans.relative_to(ROOT)),
            "span_count": len(tracer.spans),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
