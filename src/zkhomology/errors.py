"""Exception types shared across the package."""


class ZkHomologyError(Exception):
    """Base class for all errors raised by this package."""


class _WitnessedError(ZkHomologyError):
    """An error that may carry a `witness`: the offending data."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidSimplexError(ZkHomologyError):
    """A vertex set does not describe a valid simplex."""


class DimensionError(ZkHomologyError):
    """A dimension argument is outside the valid range."""


class InvalidActionError(_WitnessedError):
    """A claimed cyclic action is not one (not bijective, not simplicial,
    or of order not dividing k).  ``witness`` names an offending vertex or
    simplex when there is one."""


class RegularityError(_WitnessedError):
    """An operation that requires a regular action was given a non-regular
    one.  ``witness`` is the failing `RegularityWitness`."""


class UnknownSimplexError(ZkHomologyError):
    """A simplex argument does not belong to the complex in question."""


class InvalidGeneratorError(ZkHomologyError):
    """An exponent not coprime to k was used as a generator of Z_k."""


class TripleValidationError(_WitnessedError):
    """An isotropy transfer triple violates one of its structural
    invariants.  ``witness`` identifies the offending simplex or pair."""


class AxiomError(_WitnessedError):
    """A complex-of-groups axiom fails; ``witness`` is the offending
    simplex pair or triple."""


class InputFormatError(ZkHomologyError):
    """A JSON input file does not match the documented schema."""
