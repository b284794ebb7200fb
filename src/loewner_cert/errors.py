"""Exception types shared across the package."""


class LoewnerCertError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LoewnerCertError):
    """A scalar argument lies outside a function's domain."""


class InvalidFunction(LoewnerCertError):
    """A scalar function family was constructed with inadmissible parameters."""


class SpectrumOutsideDomain(DomainError):
    """A matrix has eigenvalues outside the domain of the function applied to it."""

    def __init__(self, offending, domain):
        self.offending = list(offending)
        self.domain = domain
        super().__init__(f"eigenvalues {self.offending} outside domain {domain}")


class NonFinite(LoewnerCertError):
    """An operand, a map, a functional-calculus image or a constant is not finite."""


class NotHermitian(LoewnerCertError):
    """A matrix argument failed the Hermitian symmetry check."""


class DimensionMismatch(LoewnerCertError):
    """Operands have incompatible shapes."""


class BadDimensions(LoewnerCertError):
    """A requested construction has inconsistent size parameters."""


class BadInterval(LoewnerCertError):
    """Interval endpoints are degenerate or out of order."""


class BadParameter(LoewnerCertError):
    """A solver or certificate tolerance or iteration cap is out of range."""


class NonPositiveAlpha(LoewnerCertError):
    """A scaling coefficient that must be finite and positive is not."""


class NotUnitalFamily(LoewnerCertError):
    """A map family does not sum the identity to the identity."""


class NotUnitVector(LoewnerCertError):
    """A vector argument is not normalized."""


class HypothesisViolated(LoewnerCertError):
    """Inputs do not satisfy the hypotheses of the requested statement."""


class ParseError(LoewnerCertError):
    """A textual spec (function, interval, or JSON payload) is malformed."""
