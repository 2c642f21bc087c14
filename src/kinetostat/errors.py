"""Exception types shared across the package."""

import re


class KinetostatError(Exception):
    """Base class for every error raised by this package.

    Each class carries its outcome: ``label``, which opens its line on
    stderr, and the CLI's ``exit_code``. ``chain_index`` is set when the
    failure happened inside one chain of a multi-chain solve, so callers
    can tell which leg misbehaved.
    """

    label, exit_code = "error", 3  # any remaining domain error is a model problem
    chain_index = None

    def describe(self) -> str:
        """``label``, the chain when the message names none, and the message, on one line."""
        label = self.label
        if self.chain_index is not None and not re.search(r"\bchain ['\"\d]", str(self)):
            label += f" on chain {self.chain_index}"
        return f"{label}: {self}"


class ModelError(KinetostatError):
    """A model, document or argument violates its declared invariants.

    ``field`` names the constructor argument at fault, when there is one, so
    a document parser can report the error under that key's path.
    """

    label = "model error"

    def __init__(self, message, *, field=None):
        super().__init__(message)
        self.field = field


class OutOfWorkspaceError(KinetostatError):
    """Target pose unreachable; carries the closest reachable distance."""

    label = "model error"

    def __init__(self, message, *, distance):
        super().__init__(message)
        self.distance = distance


class SingularityError(KinetostatError):
    """A linear system of the solve became numerically singular."""

    label, exit_code = "singularity", 5

    def __init__(self, message, *, condition=float("inf")):
        super().__init__(message)
        self.condition = condition


class SpringSofteningError(SingularityError):
    """Load-induced softening made the spring block lose invertibility."""


class ControlSingularityError(SingularityError):
    """Force/actuator sensitivity matrix is rank deficient."""


class NonConvergenceError(KinetostatError):
    """Iteration budget exhausted; carries the best residual seen."""

    label, exit_code = "non-convergence", 4

    def __init__(self, message, *, residual, iterations=0, restarts=0):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.restarts = restarts
