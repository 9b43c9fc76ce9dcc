"""Exception types shared across the package."""


class Dnls3Error(Exception):
    """Base class for all package-specific errors."""


class InadmissibleParameters(Dnls3Error):
    """(omega, c) violates omega > sigma*|c|^2/4, so resolvents lose positivity."""


class DegenerateNonlinearity(Dnls3Error):
    """Coupling term vanishes; the Nehari rescaling 1/N is undefined."""


class ResolutionLoss(Dnls3Error):
    """Spectral rescaling pushed significant mass past the resolvable band."""


class NoConvergence(Dnls3Error):
    """Descent stopped before reaching the residual tolerance.

    ``reason`` says why the (last) descent stopped; it is a key of REASONS.
    ``histories`` and ``terminations`` hold each failed descent's history
    and termination, as a converged result holds its own.
    """

    REASONS = {
        "iteration_cap": "hit the iteration cap",
        "invalid_step": "stalled: halving the step below 1e-10 left no projected trial that is valid and does not raise the action",
        "residual_growth": "stalled: an accepted step without momentum did not lower the residual",
    }

    def __init__(self, iterations: int, residual: float, reason: str = "iteration_cap", histories=(), terminations=()):
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e}): {self.REASONS[reason]}"
        )
        self.iterations = iterations
        self.residual = residual
        self.reason = reason
        self.histories = tuple(histories)
        self.terminations = tuple(terminations)


class DomainTooSmall(Dnls3Error):
    """Converged profile carries too much mass near the box boundary."""


class WrongDimension(Dnls3Error):
    """Operation is only defined for specific spatial dimensions."""


class NonFinite(Dnls3Error):
    """State overflowed or became NaN during time integration."""

    def __init__(self, time: float, trace=None):
        super().__init__(f"non-finite state at t={time:.6g}")
        self.time = time
        self.trace = trace


class FitWindowEmpty(Dnls3Error):
    """No grid points fall inside the requested tail-fit window."""


class FormatError(Dnls3Error):
    """Field snapshot lacks the magic bytes or its header describes no valid grid."""


class LengthMismatch(Dnls3Error):
    """Field snapshot payload is shorter or longer than its header promises."""


class UnsupportedVersion(Dnls3Error):
    """Field snapshot was written by an unknown format version."""


class ParseError(Dnls3Error):
    """Configuration input is syntactically invalid or has unknown keys."""


class ValidationError(Dnls3Error):
    """Configuration value is out of range or inconsistent."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason
