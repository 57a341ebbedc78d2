"""Exception types shared across the package, and the default caps that
raise `CapExceeded`."""

DEFAULT_VOLUME_CAP = 5000
DEFAULT_BLOCK_CAP = 200_000


class CobwebError(Exception):
    """Base class for all domain errors raised by this package."""


class FamilySpecError(CobwebError):
    """A family specification string or parameter set is invalid."""


class TableRangeError(CobwebError):
    """A table-backed sequence was asked for an index outside its table."""


class LambdaRuleError(CobwebError):
    """A splitting rule is missing, or its coefficients contradict the terms."""


class NonIntegralCoefficient(CobwebError):
    """An F-nomial quotient left a remainder.

    This is a verdict, not a bug: it witnesses that the sequence is not
    cobweb admissible at the offending parameters.
    """

    def __init__(self, family: str, n: int, parts: tuple, remainder: int):
        self.family = family
        self.n = n
        self.parts = parts
        self.remainder = remainder
        super().__init__(
            f"F-nomial ({n} over {','.join(map(str, parts))}) is not an "
            f"integer for {family} (remainder {remainder})"
        )


class TilingFormatError(CobwebError):
    """A tiling JSON object lacks a field or has one of the wrong type."""


class CapExceeded(CobwebError):
    """An enumeration refused to start or continue past a configured cap."""


class SearchBudgetExceeded(CobwebError):
    """A search ran out of node budget before reaching a conclusion.

    Raised instead of returning a negative answer, so an interrupted clique
    search is never mistaken for a proof that no clique exists.
    """
