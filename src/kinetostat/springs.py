"""Piecewise-linear preload springs and the active/passive regrouping.

A preloaded passive joint carries an auxiliary spring whose torque is
``k * h(x - offset)`` where ``h`` is the identity, its positive part or its
negative part. Coordinates whose spring is currently engaged behave like
elastic (spring) coordinates; the rest behave like perfect passive ones.
``regroup`` performs that split for a whole chain on its joint values in
element order, producing the aggregated ``(q_tilde, theta_tilde)`` view the
solvers work in; ``partition`` does the same for a ``ChainState``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ModelError

if TYPE_CHECKING:  # pragma: no cover
    from .chain import ChainModel, ChainState

LINEAR = "linear"
POSITIVE_PART = "positive_part"
NEGATIVE_PART = "negative_part"
BRANCHES = (LINEAR, POSITIVE_PART, NEGATIVE_PART)


@dataclass(frozen=True)
class SpringLaw:
    """Preload characteristic: stiffness, activation offset and branch."""

    k: float
    preload_offset: float = 0.0
    branch: str = LINEAR

    def __post_init__(self):
        if not (math.isfinite(self.k) and math.isfinite(self.preload_offset)):
            raise ModelError(
                f"spring constants must be finite, got k={self.k}, offset={self.preload_offset}"
            )
        if self.k < 0.0:
            raise ModelError(f"spring stiffness must be >= 0, got {self.k}", field="k")
        if self.branch not in BRANCHES:
            raise ModelError(f"unknown spring branch {self.branch!r}, expected one of {BRANCHES}", field="branch")

    def engaged(self, vartheta: float) -> bool:
        """True when the spring carries torque at this coordinate value.

        A zero-stiffness spring is never engaged, and a one-sided spring
        sitting exactly at its offset counts as disengaged (the torque is
        zero either way, the convention just removes the ambiguity).
        """
        if self.k <= 0.0:
            return False
        d = vartheta - self.preload_offset
        if self.branch == LINEAR:
            return True
        if self.branch == POSITIVE_PART:
            return d > 0.0
        return d < 0.0


def _engaged_rows(branches, k: np.ndarray, offset: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Active masks (M, n) of M configurations: ``SpringLaw.engaged`` of n springs of the given branches,
    each row with its own ``k`` and ``offset`` (M, n), applied to its column of ``values`` (M, n)."""
    engaged, linear = k > 0.0, [b == LINEAR for b in branches]
    if not all(linear):  # a one-sided spring engages on its side of the offset only
        d = values - offset
        engaged &= np.array(linear, dtype=bool) | np.where([b == POSITIVE_PART for b in branches], d > 0.0, d < 0.0)
    return engaged


@dataclass
class RegroupedState:
    """Aggregated view of one chain configuration.

    ``coords`` holds every joint value in chain element order, the vector
    the forward pass reads. ``q_tilde`` gathers from it the perfect-passive
    coordinates followed by the disengaged preloaded ones; ``theta_tilde``
    the virtual-spring coordinates followed by the engaged preloaded ones.
    ``k_tilde`` and ``theta_tilde_0`` are the spring stiffnesses and rest
    offsets aligned with ``theta_tilde`` (rest is exactly zero for virtual
    springs). ``q_elements`` / ``theta_elements`` hold the chain element
    index behind each aggregate coordinate, as index arrays, so Jacobians
    are gathered and new aggregate values written back the same way. These
    four arrays depend only on the active set; ``regroup`` shares them,
    read-only, between all configurations with the same mask.
    """

    coords: np.ndarray
    q_tilde: np.ndarray
    theta_tilde: np.ndarray
    theta_tilde_0: np.ndarray
    k_tilde: np.ndarray
    active_mask: np.ndarray
    q_elements: np.ndarray
    theta_elements: np.ndarray


def regroup(chain: "ChainModel", coords: np.ndarray) -> RegroupedState:
    """Split joint values in chain element order into currently-passive and
    spring-like sets.

    The mask is recomputed from the preloaded coordinate values alone, so
    repeated calls on the same coordinates are idempotent. ``coords`` is
    held, not copied; the solvers hand over a fresh vector per step.
    """
    mask = np.array(
        [spring.engaged(v) for spring, v in zip(chain.preload_springs, coords[chain.preloaded_elements])],
        dtype=bool,
    )
    q_elements, theta_elements, theta_tilde_0, k_tilde = chain.regrouping(mask)
    return RegroupedState(
        coords=coords,
        q_tilde=coords[q_elements],
        theta_tilde=coords[theta_elements],
        theta_tilde_0=theta_tilde_0,
        k_tilde=k_tilde,
        active_mask=mask,
        q_elements=q_elements,
        theta_elements=theta_elements,
    )


def partition(chain: "ChainModel", state: "ChainState") -> RegroupedState:
    """``regroup`` of a validated ChainState."""
    return regroup(chain, chain.element_coordinates(state))
