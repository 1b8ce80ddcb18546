"""Exception types shared across the package, and the one certificate check."""

from fractions import Fraction


class PermstabError(Exception):
    """Base class for all package errors."""


class SizeMismatchError(PermstabError, ValueError):
    """Two permutations / partial injections live on ground sets of different size."""


class CapacityError(PermstabError, ValueError):
    """A closure or enumeration exceeded its configured cap."""


class NotAHomomorphismError(PermstabError, ValueError):
    """Generator images violate a relator, or an element map is not multiplicative."""


class NotASubgroupError(PermstabError, ValueError):
    """An element set is not closed under multiplication / inversion."""


class NotAnActionError(PermstabError, ValueError):
    """Supplied permutations do not define a group action."""


class NotAbelianError(PermstabError, ValueError):
    """An operation restricted to abelian groups received a non-abelian one."""


class NonGeneratingError(PermstabError, ValueError):
    """The supplied generator set does not generate the group."""


class NotSurjectiveError(PermstabError, ValueError):
    """A homomorphism required to be onto is not."""


class WindowEmptyError(PermstabError, ValueError):
    """No integer cardinality fits inside the requested density window."""


class OutOfRegimeError(PermstabError, ValueError):
    """Measured defect is too large for the certified rounding regime."""


class ConfigError(PermstabError, ValueError):
    """Invalid configuration or input: a config or input-file field, or an argument out of range."""


class CertificateError(PermstabError):
    """A certified bound fails on the computed output."""


def certify(name: str, measured, bound, strict: bool = False) -> None:
    """Raise CertificateError unless measured <= bound (measured < bound if strict).

    Both sides must be ints or Fractions, so the comparison is exact and
    holds under ``python -O`` too; a float on either side raises TypeError.
    A consistency check certifies its count of violations against 0.  The
    error message starts with `name`.
    """
    for value in (measured, bound):
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"{name}: certify compares ints or Fractions, got {value!r}")
    if not (measured < bound if strict else measured <= bound):
        raise CertificateError(f"{name}: {measured} {'<' if strict else '<='} {bound} fails")
