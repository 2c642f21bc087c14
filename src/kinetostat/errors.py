"""Exception types shared across the package."""


class KinetostatError(Exception):
    """Base class for every error raised by this package.

    ``chain_index`` is set when the failure happened inside one chain of a
    multi-chain solve, so callers can tell which leg misbehaved.
    """

    def __init__(self, message, *, chain_index=None):
        super().__init__(message)
        self.chain_index = chain_index


class ModelError(KinetostatError):
    """A model, document or argument violates its declared invariants.

    ``field`` names the constructor argument at fault, when there is one, so
    a document parser can report the error under that key's path.
    """

    def __init__(self, message, *, field=None, chain_index=None):
        super().__init__(message, chain_index=chain_index)
        self.field = field


class OutOfWorkspaceError(KinetostatError):
    """Target pose unreachable; carries the closest reachable distance."""

    def __init__(self, message, *, distance, chain_index=None):
        super().__init__(message, chain_index=chain_index)
        self.distance = distance


class SingularityError(KinetostatError):
    """A linear system of the solve became numerically singular."""

    def __init__(self, message, *, condition=float("inf"), chain_index=None):
        super().__init__(message, chain_index=chain_index)
        self.condition = condition


class SpringSofteningError(SingularityError):
    """Load-induced softening made the spring block lose invertibility."""


class ControlSingularityError(SingularityError):
    """Force/actuator sensitivity matrix is rank deficient."""


class NonConvergenceError(KinetostatError):
    """Iteration budget exhausted; carries the best residual seen."""

    def __init__(self, message, *, residual, iterations=0, restarts=0, chain_index=None):
        super().__init__(message, chain_index=chain_index)
        self.residual = residual
        self.iterations = iterations
        self.restarts = restarts
