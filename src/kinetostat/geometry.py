"""Homogeneous-transform helpers shared by the chain models.

Everything lives in 3-D: planar mechanisms keep z = 0 and rotate about the
z axis. Frames are 4x4 matrices. Orientations are roll-pitch-yaw parameters
(rx, ry, rz) with the composition R = Rz(rz) @ Ry(ry) @ Rx(rx).
"""

from __future__ import annotations

import math

import numpy as np


def wrap_angle(angle: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]."""
    w = math.atan2(math.sin(angle), math.cos(angle))
    return math.pi if w == -math.pi else w


def skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    a = np.asarray(axis, dtype=float)
    c, s = math.cos(angle), math.sin(angle)
    return c * np.eye(3) + s * skew(a) + (1.0 - c) * np.outer(a, a)


def rpy_matrix(rpy) -> np.ndarray:
    rx, ry, rz = rpy
    cx, sx = math.cos(rx), math.sin(rx)
    cy, sy = math.cos(ry), math.sin(ry)
    cz, sz = math.cos(rz), math.sin(rz)
    return np.array(
        [
            [cz * cy, cz * sy * sx - sz * cx, cz * sy * cx + sz * sx],
            [sz * cy, sz * sy * sx + cz * cx, sz * sy * cx - cz * sx],
            [-sy, cy * sx, cy * cx],
        ]
    )


def rpy_from_matrix(R: np.ndarray) -> tuple[float, float, float]:
    """Extract (rx, ry, rz) with R = Rz @ Ry @ Rx.

    Degenerate at ry = +-pi/2 (cos ry = 0); there rx is set to 0 and the
    remaining freedom is pushed into rz.
    """
    sy = -float(R[2, 0])
    sy = min(1.0, max(-1.0, sy))
    ry = math.asin(sy)
    if abs(abs(sy) - 1.0) < 1e-12:
        rx = 0.0
        rz = math.atan2(-float(R[0, 1]), float(R[1, 1]))
    else:
        rx = math.atan2(float(R[2, 1]), float(R[2, 2]))
        rz = math.atan2(float(R[1, 0]), float(R[0, 0]))
    return rx, ry, rz


def euler_rate_matrix(rpy) -> np.ndarray:
    """E mapping (drx, dry, drz) to the angular velocity, singular at cos ry = 0."""
    _, ry, rz = rpy
    cy, sy = math.cos(ry), math.sin(ry)
    cz, sz = math.cos(rz), math.sin(rz)
    return np.array([[cy * cz, -sz, 0.0], [cy * sz, cz, 0.0], [-sy, 0.0, 1.0]])


def homogeneous(rotation: np.ndarray | None = None, translation=None) -> np.ndarray:
    T = np.eye(4)
    if rotation is not None:
        T[:3, :3] = rotation
    if translation is not None:
        T[:3, 3] = np.asarray(translation, dtype=float)
    return T

