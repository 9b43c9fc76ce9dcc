"""Exception types shared across the package.

An error carries what explains it: the descents a failed solve made
(``histories``), the records of a run up to its divergence (``trace``) and
its one-line ``record``. The command-line driver writes all three into the
run's output directory, whichever subcommand raised it.
"""


class Dnls3Error(Exception):
    """Base class for all package-specific errors.

    ``histories`` holds the DescentHistory of each descent the failed solve
    made, in order, and ``trace`` the records before a divergence; an error
    that has none keeps the class defaults, no descents and no trace.
    """

    histories = ()
    trace = None

    @property
    def record(self) -> dict:
        """The error's name and message, with each descent's termination when it carries descents."""
        termination = {"termination": [h.termination for h in self.histories]} if self.histories else {}
        return {"error": type(self).__name__, "message": str(self), **termination}


class InadmissibleParameters(Dnls3Error):
    """(omega, c) violates omega > sigma*|c|^2/4, so resolvents lose positivity."""


class DegenerateNonlinearity(Dnls3Error):
    """Coupling term vanishes; the Nehari rescaling 1/N is undefined."""


class NoConvergence(Dnls3Error):
    """Every descent stopped before reaching the residual tolerance.

    ``histories`` holds each failed descent's DescentHistory, as a converged
    result holds its own; the rest is read off them. ``iterations`` counts
    the iterations of all descents, ``residual`` is the best residual the
    last descent reached and ``reason``, a key of REASONS, says why it
    stopped: "iteration_cap" only when it made ``max_iter`` iterations.
    """

    REASONS = {
        "iteration_cap": "hit the iteration cap",
        "non_finite": "the descent reached a state whose action or residual is not finite",
        "invalid_step": "stalled: halving the step below 1e-10 left no projected trial that is valid and does not raise the action",
        "residual_growth": "stalled: MEMORY + 1 steps in a row did not lower the best residual",
    }

    def __init__(self, histories):
        self.histories = tuple(histories)
        self.iterations = sum(h.iterations for h in self.histories)
        self.residual = min(self.histories[-1].residual)
        self.reason = self.histories[-1].termination
        super().__init__(
            f"no convergence after {self.iterations} iterations (residual {self.residual:.3e}): "
            f"{self.REASONS[self.reason]}"
        )


class DomainTooSmall(Dnls3Error):
    """Converged profile carries too much mass near the box boundary.

    ``histories`` holds the descents of the solve, the last one converged:
    the guard refuses the profile that descent reached. The mass is there
    when the box is too small for the profile's decay, or when the grid is
    too coarse and its aliased product leaves it there.
    """

    def __init__(self, message: str, histories=()):
        super().__init__(message)
        self.histories = tuple(histories)


class WrongDimension(Dnls3Error):
    """Operation is only defined for specific spatial dimensions."""


class NonFinite(Dnls3Error):
    """State overflowed or became NaN during time integration.

    ``time`` is the divergence time, which the record carries as
    ``divergence_time`` with or without a ``trace``.
    """

    def __init__(self, time: float, trace=None):
        super().__init__(f"non-finite state at t={time:.6g}")
        self.time = time
        self.trace = trace

    @property
    def record(self) -> dict:
        return {**super().record, "divergence_time": self.time}


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
