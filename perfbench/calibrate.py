"""Speed calibration for timing on a shared machine.

On a machine shared with other tenants the CPU's speed drifts by tens of
percent within a second, in CPU time as much as in wall time, so a raw
timing mostly measures the neighbours. The worker therefore samples the
speed while the workload runs: an interval timer interrupts the workload's
own thread every ``INTERVAL_S`` and runs a short fixed kernel: loops of
small numpy calls and Python bookkeeping, and a frozen imitation of one
loaded-equilibrium iteration, the shape of the program's inner loops.
Each command's time, less the kernel time spent inside it, is scaled by
``REFERENCE_S / mean kernel time`` over the samples in and next to it.
Figures are thus seconds at the speed at which the kernel takes
``REFERENCE_S``. The kernel lives here, so no change to ``src/`` moves it.
"""

from __future__ import annotations

import math
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

REFERENCE_S = 0.003  # about the kernel's median on the machine the figures were first taken on
INTERVAL_S = 0.1

_A = np.array(
    [[4.0, 1.0, 0.5, 0.0], [1.0, 3.0, 0.0, 0.2], [0.5, 0.0, 2.0, 0.1], [0.0, 0.2, 0.1, 1.5]]
)
_AXES = (np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0]))
_STIFFNESS = np.array([1.0, 0.1])


@dataclass
class _State:
    q: np.ndarray
    theta: np.ndarray
    residual: float


def _small_algebra(n: int = 50) -> float:
    acc = 0.0
    v = np.array([0.1, 0.2, 0.3])
    R = np.eye(3)
    for i in range(n):
        c, s = np.cos(0.001 * i), np.sin(0.001 * i)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ R
        w = np.cross(R[:, 0], v)
        x = np.linalg.solve(_A, np.concatenate([w, [1.0]]))
        acc += float(np.linalg.norm(x)) + sum(float(t) for t in x)
        record = {"k": i, "v": [acc, c, s]}
        acc += len(record["v"])
    return acc


def _chain_iterations(n: int = 8) -> float:
    """The shape of a loaded-equilibrium iteration on a 3-joint planar chain."""
    acc = 0.0
    x = np.array([1.0, 0.01, 0.2])
    target = np.array([0.1, 0.2])
    for _ in range(n):
        T = np.eye(4)
        frames = []
        for j, axis in enumerate(_AXES):
            M = np.eye(4)
            if j < 2:
                M[:3, 3] = axis * x[j]
            else:
                c, s = math.cos(x[j]), math.sin(x[j])
                M[:2, :2] = [[c, s], [-s, c]]
            T = T @ M
            frames.append((T[:3, :3] @ axis, T[:3, 3].copy()))
        tool = np.eye(4)
        tool[:3, 3] = [-1.0, 0.0, 0.0]
        p_end = (T @ tool)[:3, 3]
        cols = np.zeros((2, 3))
        for j, (a, o) in enumerate(frames):
            cols[:, j] = (a if j < 2 else np.cross(a, p_end - o))[:2]
        J_th, J_q = cols[:, [1, 2]], cols[:, [0]]
        A = np.zeros((3, 3))
        A[:2, :2] = (J_th / _STIFFNESS) @ J_th.T
        A[:2, 2:] = J_q
        A[2:, :2] = J_q.T
        cond = np.linalg.cond(A)
        eps = target - p_end[:2] + J_q @ x[:1]
        sol = np.linalg.solve(A, np.concatenate([eps, np.zeros(1)]))
        state = _State(sol[2:].copy(), (J_th.T @ sol[:2]) / _STIFFNESS, float(np.linalg.norm(eps)))
        mask = np.array([bool(t > 0.0) for t in state.theta], dtype=bool)
        x = x + 1e-3 * np.concatenate([state.q, state.theta]) * mask.any()
        acc += state.residual + 1e-12 * cond
    return acc


def kernel() -> float:
    return _small_algebra() + _chain_iterations()


def timed_kernel() -> tuple[float, float]:
    """(start, seconds) of one kernel call."""
    start = perf_counter()
    kernel()
    return start, perf_counter() - start


def scale_now(samples: int = 5) -> float:
    """Speed factor from a few kernel calls in a row."""
    return REFERENCE_S / statistics.median(timed_kernel()[1] for _ in range(samples))


class Ticker:
    """Kernel samples taken by SIGALRM inside the calling thread.

    ``with Ticker() as t:`` arms the timer; ``t.samples`` collects
    (start, seconds) of each kernel run, one taken on entry and on exit too.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        self.samples.append(timed_kernel())

    def __enter__(self):
        self.samples.append(timed_kernel())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(timed_kernel())
        return False

    def correct(self, start: float, end: float) -> tuple[float, float]:
        """(seconds net of kernel runs, speed factor) of the interval [start, end].

        The factor averages the kernel samples inside the interval and
        within one tick of either end.
        """
        inside = sum(d for s, d in self.samples if start <= s < end)
        near = [d for s, d in self.samples if start - INTERVAL_S <= s < end + INTERVAL_S]
        if not near:  # a tick held back by a long native call
            near = [min(self.samples, key=lambda sample: abs(sample[0] - start))[1]]
        return end - start - inside, REFERENCE_S / statistics.fmean(near)
