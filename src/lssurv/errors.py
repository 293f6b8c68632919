"""Exception types shared across the package."""


class LssurvError(Exception):
    """Base class for all lssurv errors."""


class ValidationError(LssurvError):
    """Input data violates a structural invariant."""


class EmptyTarget(ValidationError):
    """The target sample is empty."""


class ParseError(LssurvError):
    """A file could not be parsed; message carries the line number."""


class SchemaError(LssurvError):
    """A CSV header or a fit document does not match the expected schema."""


class NoEvents(LssurvError):
    """Every observation is censored; the product-limit estimator is undefined."""


class DomainError(LssurvError):
    """A parameter vector lies outside the model's domain, or t <= 0."""


class EmptyTail(LssurvError):
    """No usable source contribution remains after dropping empty-tail records."""


class NumericalUnderflow(LssurvError):
    """A density required by the likelihood fell below the 1e-300 floor."""


class NonConvergence(LssurvError):
    """The optimizer exhausted its iteration budget above the gradient tolerance."""


class DomainEscape(LssurvError):
    """The optimizer left the parameter domain irrecoverably."""


class SingularA(LssurvError):
    """The score-Jacobian ("bread") matrix is numerically singular."""


class QuadratureFailure(LssurvError):
    """Adaptive quadrature failed to reach the requested accuracy."""


class EnvelopeFailure(LssurvError):
    """Rejection sampling and its Metropolis-Hastings fallback both failed."""


class DegenerateBandwidth(LssurvError):
    """A shift-test bandwidth, chosen or given, is not finite and positive."""


class TooManyFailures(LssurvError):
    """More than the tolerated fraction of Monte Carlo replications failed.

    ``report`` is the ``McReport`` of the replications that finished, or
    None where fewer than 2 did.
    """

    report = None
