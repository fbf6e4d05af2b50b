"""Exception hierarchy shared by all morphcert modules."""


class MorphcertError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MorphcertError):
    """Malformed input document (morphism spec file, CSV, ...)."""


class ValidationError(MorphcertError):
    """Structurally well-formed input that violates a domain invariant."""


class ResourceError(MorphcertError):
    """Computation would exceed a configured memory or size budget."""


class DomainError(MorphcertError):
    """Arguments outside an operation's stated domain."""


class UnknownSource(DomainError):
    """A source kind other than s2, s2nz, s2_nonzero or morphic:<file>."""


class NonConvergence(MorphcertError):
    """Iterative numeric procedure failed to reach tolerance."""


class UnknownSymbol(MorphcertError):
    """Requested output symbol is not in the coding's range."""
