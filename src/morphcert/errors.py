"""Exception hierarchy shared by all morphcert modules, and the one reader of a size."""

import operator


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


def _length(n, name: str, least: int = 0) -> int:
    """n as an int, the one reading of every size, level and count argument:
    operator.index, so numpy ints pass and floats do not, with bools refused;
    DomainError unless n is an integer >= least."""
    try:
        if isinstance(n, bool):
            raise TypeError
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"{name} {n} is not an integer") from None
    if n < least:
        raise DomainError(f"{name} must be >= {least}")
    return n
