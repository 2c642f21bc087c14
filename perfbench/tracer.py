"""Outside-in tracer for the per-layer metrics.

The tracer wraps public functions of the ``kinetostat`` modules from the
benchmark's side: each wrapper replaces the function's name in every
``kinetostat.*`` namespace that binds it (``equilibrium`` imports
``fk_array`` and ``partition`` by name, so patching only their home module
would miss those calls). A wrapper records one span per call -- name,
start, end, parent span and the benchmark item it ran under -- re-raises any
exception unchanged, and feeds a few counters read from arguments and
return values. Nothing inside ``src/`` is touched; ``uninstall`` puts the
originals back. A traced function that no longer exists is reported as
absent rather than failing the run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs under ``kinetostat``, grouped by layer
TRACED = (
    ("chain", "fk_array"),
    ("chain", "regrouped_geometry"),
    ("chain", "jacobians"),
    ("chain", "loaded_hessians"),
    ("chain", "chain_ik_best_effort"),
    ("chain", "inverse_kinematics_unloaded"),
    ("springs", "partition"),
    ("equilibrium", "solve_chain_equilibrium"),
    ("equilibrium", "total_wrench"),
    ("equilibrium", "force_deflection"),
    ("stiffness", "manipulator_stiffness"),
    ("control", "sensitivity_matrix"),
    ("control", "solve_inverse_kinetostatic"),
    ("orthoglide", "critical_force"),
    ("orthoglide", "compliance_grid"),
    ("orthoglide", "reproduce_table1"),
    ("modelfile", "parse_model"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED)

SOLVE = "equilibrium.solve_chain_equilibrium"
PARTITION = "springs.partition"
WRENCH = "equilibrium.total_wrench"
SENSITIVITY = "control.sensitivity_matrix"
COMPENSATE = "control.solve_inverse_kinetostatic"

# counters read from arguments and return values, besides calls and self time
COUNTER_METRICS = (
    ("equilibrium.cold_solves", "count"),
    ("equilibrium.warm_solves", "count"),
    ("equilibrium.cold_p50_us", "us"),
    ("equilibrium.warm_p50_us", "us"),
    ("equilibrium.iterations", "count"),
    ("equilibrium.restarts", "count"),
    ("equilibrium.failures", "count"),
    ("springs.active_set_flips", "count"),
    ("control.outer_iterations", "count"),
    ("control.wrench_evals.sensitivity", "count"),
    ("control.wrench_evals.line_search", "count"),
    ("control.step_accept_ratio", "ratio"),
    ("control.failures", "count"),
)
# whole-run figures of the traced run itself
TRACE_METRICS = (
    ("trace.wall_s", "s"),
    ("trace.accounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_ms", "ms"))
    return out + list(COUNTER_METRICS) + list(TRACE_METRICS)


class _Frame:
    __slots__ = ("name", "span_id", "parent_id", "start", "child", "cold", "mask")

    def __init__(self, name, span_id, parent_id):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = 0.0
        self.child = 0.0
        self.cold = False
        self.mask = None


class Tracer:
    """Span recorder; ``with Tracer() as t:`` installs and removes the wrappers."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.keep_spans = False
        self.spans: list[tuple] = []
        self.item = None
        self.absent: list[str] = []
        self._saved: list[tuple] = []
        self._next_id = 0
        self.reset()

    def reset(self):
        """Clear the per-repetition tallies (spans kept so far stay)."""
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.cold_s: list[float] = []
        self.warm_s: list[float] = []
        self._pending = defaultdict(lambda: (defaultdict(float), [], []))

    def fold(self, item, factor: float):
        """Add a finished command's times, multiplied by ``factor``."""
        self_s, cold, warm = self._pending.pop(item, (defaultdict(float), [], []))
        for name, seconds in self_s.items():
            self.self_s[name] += factor * seconds
        self.cold_s += [factor * d for d in cold]
        self.warm_s += [factor * d for d in warm]

    # -- installation --------------------------------------------------------

    def install(self):
        self.absent = []
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "kinetostat" or n.startswith("kinetostat."))
        ]
        for module_name, func_name in TRACED:
            name = f"{module_name}.{func_name}"
            home = sys.modules.get(f"kinetostat.{module_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._saved.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        enter = _ENTER_HOOKS.get(name)
        leave = _EXIT_HOOKS.get(name)
        fail = _ERROR_HOOKS.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(name, self._next_id, None if parent is None else parent.span_id)
            self._next_id += 1
            if enter is not None:
                enter(self, frame, parent, args, kwargs)
            stack.append(frame)
            frame.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, parent, perf_counter())
                if fail is not None:
                    fail(self, frame, exc)
                raise
            self._close(frame, parent, perf_counter())
            if leave is not None:
                leave(self, frame, result)
            return result

        return wrapper

    def _close(self, frame, parent, end):
        self.stack.pop()
        duration = end - frame.start
        if parent is not None:
            parent.child += duration
        self.calls[frame.name] += 1
        self_s, cold, warm = self._pending[self.item]
        self_s[frame.name] += duration - frame.child
        if frame.name == SOLVE:
            (cold if frame.cold else warm).append(duration)
        if self.keep_spans:
            self.spans.append((frame.span_id, frame.name, frame.start, end, frame.parent_id, self.item))

    def enclosing(self, name):
        for frame in reversed(self.stack):
            if frame.name == name:
                return frame
        return None

    def snapshot(self) -> dict:
        """Per-repetition tallies as metric name -> value."""
        out = {}
        for name in SPAN_NAMES:
            if name in self.absent:
                continue
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = 1e3 * self.self_s[name]
        c = self.counts
        out["equilibrium.cold_solves"] = len(self.cold_s)
        out["equilibrium.warm_solves"] = len(self.warm_s)
        # 0 marks an empty sample (no warm solves on map)
        out["equilibrium.cold_p50_us"] = 1e6 * statistics.median(self.cold_s) if self.cold_s else 0.0
        out["equilibrium.warm_p50_us"] = 1e6 * statistics.median(self.warm_s) if self.warm_s else 0.0
        for key in ("iterations", "restarts", "failures"):
            out[f"equilibrium.{key}"] = c[f"equilibrium.{key}"]
        out["springs.active_set_flips"] = c["springs.active_set_flips"]
        out["control.outer_iterations"] = c["control.outer_iterations"]
        out["control.wrench_evals.sensitivity"] = c["wrench.sensitivity"]
        # every compensation evaluates the wrench once before its first step
        line_search = max(c["wrench.compensation"] - c["control.solves"], 0)
        out["control.wrench_evals.line_search"] = line_search
        out["control.step_accept_ratio"] = (
            c["control.outer_iterations"] / line_search if line_search else 0.0
        )
        out["control.failures"] = c["control.failures"]
        return out

    def self_total_s(self) -> float:
        """Summed self time of every span: the time spent inside traced calls."""
        return sum(self.self_s.values())

    def write_spans(self, path, origin: float):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent_id, item in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_us": round(1e6 * (start - origin), 3),
                            "end_us": round(1e6 * (end - origin), 3),
                            "parent": parent_id,
                            "item": item,
                        }
                    )
                    + "\n"
                )


# -- counters read from arguments and return values ---------------------------


def _solve_enter(tracer, frame, parent, args, kwargs):
    start = kwargs["start"] if "start" in kwargs else (args[4] if len(args) > 4 else None)
    frame.cold = start is None


def _solve_exit(tracer, frame, result):
    tracer.counts["equilibrium.iterations"] += result.iterations
    tracer.counts["equilibrium.restarts"] += result.restarts


def _solve_error(tracer, frame, exc):
    tracer.counts["equilibrium.failures"] += 1


def _partition_exit(tracer, frame, result):
    solve = tracer.enclosing(SOLVE)
    if solve is None:
        return
    mask = tuple(bool(b) for b in result.active_mask)
    if solve.mask is not None and mask != solve.mask:
        tracer.counts["springs.active_set_flips"] += 1
    solve.mask = mask


def _wrench_enter(tracer, frame, parent, args, kwargs):
    if parent is None:
        return
    if parent.name == SENSITIVITY:
        tracer.counts["wrench.sensitivity"] += 1
    elif parent.name == COMPENSATE:
        tracer.counts["wrench.compensation"] += 1


def _compensate_exit(tracer, frame, result):
    tracer.counts["control.solves"] += 1
    tracer.counts["control.outer_iterations"] += result.outer_iterations


def _compensate_error(tracer, frame, exc):
    tracer.counts["control.solves"] += 1
    tracer.counts["control.failures"] += 1


_ENTER_HOOKS = {SOLVE: _solve_enter, WRENCH: _wrench_enter}
_EXIT_HOOKS = {SOLVE: _solve_exit, PARTITION: _partition_exit, COMPENSATE: _compensate_exit}
_ERROR_HOOKS = {SOLVE: _solve_error, COMPENSATE: _compensate_error}
