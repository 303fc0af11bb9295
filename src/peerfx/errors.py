"""Exception types shared across the toolkit.

Every error raised by the library derives from :class:`PeerEffectsError`, so
callers (and the CLI) can distinguish toolkit failures (exit code 1) from
configuration problems (:class:`ConfigError`, exit code 2).
"""

from __future__ import annotations


class PeerEffectsError(Exception):
    """Base class for all toolkit errors."""


class ParseError(PeerEffectsError):
    """Malformed input record; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotFoundError(PeerEffectsError):
    """A requested player id is not part of the network."""


class InvalidParameterError(PeerEffectsError):
    """An argument is outside its documented domain."""


class DivergedError(PeerEffectsError):
    """The Katz system (I - alpha*A) x = 1 is not positive definite: alpha is
    at or beyond 1 / spectral radius, where the Katz series diverges."""


class InsufficientPoolError(PeerEffectsError):
    """An eligibility pool is smaller than the requested sample size."""

    def __init__(self, message: str, pool_sizes: dict[str, int] | None = None):
        self.pool_sizes = dict(pool_sizes or {})
        super().__init__(message)


class RankDeficientError(PeerEffectsError):
    """The regressor matrix is rank deficient; names the collinear columns."""

    def __init__(self, columns: tuple[str, ...]):
        self.columns = tuple(columns)
        super().__init__(f"rank-deficient design; collinear columns: {', '.join(columns)}")


class WeakIdentificationError(PeerEffectsError):
    """|det(Z'X)| is numerically zero; carries the first-stage statistic."""

    def __init__(self, message: str, first_stage_stat: float | None = None):
        self.first_stage_stat = first_stage_stat
        super().__init__(message)


class InsufficientClustersError(PeerEffectsError):
    """Fewer than two clusters — the CR1 sandwich is undefined."""


class GenerationFailedError(PeerEffectsError):
    """The configuration-model wiring could not be completed."""


class ConfigError(PeerEffectsError):
    """A run configuration field is missing, malformed, or inconsistent."""
