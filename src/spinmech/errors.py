"""Exception hierarchy for the spinmech package."""


class SpinmechError(Exception):
    """Base class for all spinmech errors."""


class InvalidBlockError(SpinmechError):
    """A block index or symbol sequence is outside the block space."""


class InvalidChainError(SpinmechError):
    """A spin chain has an unusable length for the requested operation."""


class NumericDomainError(SpinmechError):
    """An input produced non-finite energies or weights."""


class ConvergenceError(SpinmechError):
    """Iterative eigensolver exhausted its budget.

    Carries the last relative residual in ``residual``.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class InversionError(SpinmechError):
    """The recovered transition matrix fails its consistency certification."""

    def __init__(self, message: str, residual: float, triple: tuple[int, int, int]):
        super().__init__(message)
        self.residual = residual
        self.triple = triple


class ReducibleChainError(SpinmechError):
    """Operation requires an irreducible chain or an explicit class choice."""


class PartitionAmbiguityError(SpinmechError):
    """Tolerance clustering of rows is not transitive; no honest partition."""


class EnumerationTooLargeError(SpinmechError):
    """Exhaustive enumeration would exceed the configuration guard."""


class QuadraticSolveError(SpinmechError):
    """The consistency-system solver did not reach its residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class UndersampledError(SpinmechError):
    """A statistical estimator was given too little data."""


class BoundaryTieError(SpinmechError):
    """Ground-state phase energies tie; the point sits on a phase boundary."""

    def __init__(self, message: str, phases: tuple[str, ...]):
        super().__init__(message)
        self.phases = phases


class LimitParameterError(SpinmechError):
    """A probability parameter sits on the boundary of its open interval."""


class ConfigError(SpinmechError):
    """A configuration file or override could not be interpreted."""


def record_failures(errors: list, mask, make) -> None:
    """Store ``make(p)`` for each point p flagged in ``mask`` that has not failed yet.

    Stacked stages record a typed error per point in ``errors`` (None for a
    point still running) instead of raising, so one bad point never fails
    the others evaluated with it.
    """
    for p in mask.nonzero()[0].tolist():
        if errors[p] is None:
            errors[p] = make(p)


def raise_first(errors: list) -> None:
    """Raise the error of a single-point stack, if it failed."""
    if errors[0] is not None:
        raise errors[0]
