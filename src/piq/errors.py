"""Exception hierarchy shared across the package."""


class PiqError(Exception):
    """Base class for all errors raised by this package."""


class InsufficientPrecision(PiqError):
    """A coefficient beyond the tracked precision window was requested."""


class NonRootLeadingCoefficient(PiqError):
    """The leading coefficient has no rational root of the required index."""


class NotInvertible(PiqError):
    """Negative power of a series with no nonzero tracked leading coefficient."""


class LevelMismatch(PiqError):
    """An eta or Pi scale does not divide the requested level."""


class PreconditionViolated(PiqError):
    """A formula was applied to an object outside its hypotheses."""


class NotAnEtaQuotient(PiqError):
    """The expression does not reduce to a single eta quotient."""


class NotPolynomializable(PiqError):
    """The identity cannot be cleared to polynomial form in one squaring round."""


class NotWeightZero(PiqError):
    """A modular-function operation received an expression of nonzero weight."""


class NoFitWithinBounds(PiqError):
    """No rational-function fit exists within the configured degree ceiling."""


class Unbounded(PiqError):
    """The a-priori degree bound does not apply (fewer than three indices)."""


class ParseError(PiqError):
    """DSL syntax error with source position information."""

    def __init__(self, message, line, column, expected=()):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.expected = tuple(expected)


class SemanticError(ParseError):
    """Structurally valid DSL input with out-of-domain arguments, at the
    offending token."""
