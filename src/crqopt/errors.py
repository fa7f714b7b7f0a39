"""Exception hierarchy for the crqopt package."""


class CrqError(Exception):
    """Base class for all crqopt errors."""


class RankDeficientError(CrqError):
    """The constraint matrix C has numerical rank < m."""


class InfeasibleError(CrqError):
    """No unit vector satisfies the linear constraints (||n0|| > 1)."""


class ZeroStartError(CrqError):
    """Lanczos start vector is (numerically) zero."""


class NoRootError(CrqError):
    """The secular function has no root left of the smallest pole."""


class MaxIterError(CrqError):
    """An iterative scheme hit its iteration cap without converging."""


class NoRealEigenvalueError(CrqError):
    """Real-eigenvalue classification of the reduced QEP found nothing."""


class EigFailureError(CrqError):
    """An inner eigensolve did not produce a usable eigenpair."""


class NotConvergedError(CrqError):
    """Any answer that missed its tolerance; ``solution`` carries it."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class TooLargeError(CrqError):
    """Problem exceeds the dense-work cap of the reference solver."""


class VerificationError(CrqError):
    """A generated instance failed one of its construction identities."""


class IsolatedPixelError(CrqError):
    """Affinity graph has a zero-degree pixel."""


class EmptySideError(CrqError):
    """A label set is empty (both foreground and background required)."""


class BracketFailureError(CrqError):
    """No interior maximizer found while bracketing the dual objective."""


class SingularHError(CrqError):
    """Instance generator needs H^{-1} but H has a zero eigenvalue."""
