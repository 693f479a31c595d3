"""Exception types shared across the package, the default cap they report
against, and the type check of values read from JSON input files.

Every error names the contract it violates; the CLI maps them to exit code 2.
`DEFAULT_CAP` lives here, beside `CapExceeded`, so that reading it loads no
layer; `matgroup.DEFAULT_CAP` is the same value.
"""

import json

# The (point, generator) pairs a chain may visit, the image elements a kernel
# walk may store, the order of a group whose elements are built, and the least
# bound on the vectors orbit enumeration may hold, unless a cap is given.
DEFAULT_CAP = 2**24


def json_typed(value, kind: type, where: str):
    """`value` if its type is exactly `kind` (int or bool), else ValueError
    naming `where`: a JSON 1.5 or true is no integer, "false" no boolean."""
    if type(value) is not kind:
        got = json.dumps(value, default=repr)
        name = "boolean" if kind is bool else "integer"
        raise ValueError(f"{where} must be a JSON {name}, got {got}")
    return value


class X1PointsError(Exception):
    """Base class for all package errors."""


class ModulusMismatch(X1PointsError):
    """Operands live over different moduli."""


class NotInvertible(X1PointsError):
    """Determinant is not a unit mod n."""


class NonCoprimeModuli(X1PointsError):
    """CRT or Goursat input moduli share a prime factor."""


class CapExceeded(X1PointsError):
    """A computation grew past the configured cap: a stabilizer chain past
    its (point, generator) pairs, a kernel walk past its image elements, an
    element set past its elements, or vector enumeration past its vectors.

    `partial_count` records how many were found before aborting (for an
    element set and for vectors, the true count, |G| read off the chain or
    the vector count, known before any is built).
    """

    def __init__(self, cap: int, partial_count: int, what: str = "closure", unit: str = "elements"):
        super().__init__(f"{what} exceeded cap of {cap} {unit} ({partial_count} found)")
        self.cap = cap
        self.partial_count = partial_count


class StageTooLow(X1PointsError):
    """Level detection attempted below the minimal stage (1 for odd primes, 2 for 2)."""


class HypothesisFailed(X1PointsError):
    """A per-prime full-preimage hypothesis of level composition failed."""

    def __init__(self, prime: int, detail: str = ""):
        msg = f"full-preimage hypothesis failed at prime {prime}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.prime = prime


class OrderMismatch(X1PointsError):
    """A torsion vector does not have the exact order the operation requires."""


class PreconditionFailed(X1PointsError):
    """Numeric precondition of a certificate constructor does not hold."""


class InconsistentProfile(X1PointsError):
    """A declared Galois-image profile is impossible (e.g. Borel at both 17 and 37)."""
