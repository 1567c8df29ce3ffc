"""Exception hierarchy shared by all setbayes modules."""


class SetBayesError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDistribution(SetBayesError):
    """A probability vector is negative, non-finite, or too far from summing to one."""


class AllZeroMass(SetBayesError):
    """Every category receives zero unnormalized mass at 1-based row ``row``,
    so no posterior exists there."""

    def __init__(self, row: int):
        super().__init__(f"every category has zero posterior mass at row {row}")
        self.row = row


class DimensionMismatch(SetBayesError):
    """Two inputs that must share a length or dimension do not."""


class BlockOutOfRange(SetBayesError):
    """A block index lies outside 1..K."""


class OutOfRange(SetBayesError):
    """A size or count argument lies outside its admissible range."""


class SpecSpaceMismatch(SetBayesError):
    """A reward specification is incompatible with the given category space."""


class NotConvex(SetBayesError):
    """A penalty sequence fails the convexity check required by a fast path."""


class TooManyCategories(SetBayesError):
    """Exhaustive subset search was requested for a space that is too large."""


class SingularScatter(SetBayesError):
    """A scatter matrix is not symmetric positive definite."""


class EmptyCategory(SetBayesError):
    """A category has no training observations."""


class CategoryTooSmall(SetBayesError):
    """A category has too few observations for leave-one-out evaluation."""


class MissingRealPrior(SetBayesError):
    """The rarity weighting scheme needs real-world prior frequencies."""


class NoFeasibleB(SetBayesError):
    """No point of the cost grid satisfies the requested error bound."""


class SchemaError(SetBayesError, ValueError):
    """An input file violates its documented format; a ``ValueError`` too,
    as ``json`` and ``float()`` raise for malformed text."""
