"""Exception hierarchy shared across the library."""


class FroblipError(Exception):
    """Base class for all domain errors raised by froblip."""


class DimensionMismatch(FroblipError):
    """Vectors of different lengths were mixed in one computation."""


class NoHalfSpace(FroblipError):
    """The generators are not contained in any open half-space."""


class ResourceLimit(FroblipError):
    """A configured point/word budget was exceeded."""


class QueryOutOfRange(FroblipError):
    """A multiplicity query needs lattice points beyond the table bound."""


class DirectionOutsideCone(FroblipError):
    """A growth-direction query lies outside the generated cone."""


class GcdNotOne(FroblipError):
    """The 1-d Frobenius number requires coprime generators."""


class NotConverged(FroblipError):
    """The growth-rate Newton solve stopped above its residual tolerance."""


class IncompatibleSymbolicBases(FroblipError):
    """Symbolic systems over unrelated formal generators."""


class ParseError(FroblipError):
    """Malformed input file or ratio string."""
