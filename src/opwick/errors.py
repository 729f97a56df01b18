"""Exception hierarchy shared by all opwick modules."""


class OpwickError(Exception):
    """Base class for all errors raised by this package."""


class UnassignedSymbol(OpwickError):
    """A scalar symbol has no numeric assignment in the evaluation context."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"scalar symbol {name!r} has no numeric assignment")


class RegistryMismatch(OpwickError):
    """Two values refer to incompatible symbol registries."""


class MissingEntry(OpwickError):
    """A commutation table has no entry for the requested symbol pair."""

    def __init__(self, a, b, detail=""):
        self.pair = (a, b)
        msg = f"no commutation entry for pair ({a}, {b})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class IncomparableKeys(OpwickError):
    """An ordering comparator cannot rank one of the symbols."""


class SymmetricOnFermions(OpwickError):
    """Symmetric (Weyl) ordering applied to fermionic symbols."""


class SymbolNotInBasis(OpwickError):
    """A word contains a symbol that has no row in the basis change."""


class NotCNumber(OpwickError):
    """A contraction came out with a nonvanishing operator part."""

    def __init__(self, a, b, remainder=None, detail=None):
        self.pair = (a, b)
        self.remainder = remainder
        super().__init__(
            detail
            or f"contraction of ({a}, {b}) is not a c-number; "
               "the ordering pair does not admit a reordering transform"
        )


class NotPermutationOrdering(OpwickError):
    """The step-function contraction form needs permutation orderings."""


class RelationViolated(OpwickError):
    """The linear relation defining a shared operator X does not hold."""


class FamilyAxiomViolated(OpwickError):
    """Annihilation/creation families must anticommute within each family."""


class FlavorMismatch(OpwickError):
    """Derivative flavor does not match the statistics of the symbol."""


class ContractionMismatch(OpwickError):
    """A contraction matrix was produced for a different ordering pair."""


class NotUnivariate(OpwickError):
    """The polynomial cannot be written in powers of the given operator."""


class NotDefinite(OpwickError):
    """The covariance matrix is not (positive or negative) definite."""


class ResultNotDefinite(OpwickError):
    """The transformed covariance fails the validity condition."""


class TruncationTooSmall(OpwickError):
    """Fock truncation too small for the requested computation."""


class IndexOutOfRange(OpwickError):
    """A moment index does not address a row of the covariance matrix."""


class UnmappedSymbol(OpwickError):
    """An operator symbol has no matrix representation in the registry."""


class DimensionTooLarge(OpwickError):
    """Dense matrix computation above the supported dimension cap."""


class ParameterOutOfRange(OpwickError):
    """A numeric parameter lies outside the range its computation accepts."""


class ExprSyntaxError(OpwickError):
    """Expression text failed to parse."""

    def __init__(self, position, expected, found):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"syntax error at position {position}: expected {expected}, found {found!r}"
        )


class UnknownSymbol(OpwickError):
    """Expression references a symbol absent from the registry."""


class StatisticsMismatch(OpwickError):
    """Bracket kind does not match the statistics of its operands."""


class ConfigError(OpwickError):
    """Registry configuration document is malformed."""
