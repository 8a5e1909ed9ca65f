"""Exception types shared across the package.

The split matters for the CLI exit-code contract: input and construction
problems (schema, parsing, precision, unsupported data) map to exit code 2,
violations of unconditional mathematical identities map to exit code 3.
"""


class EllprymError(Exception):
    """Base class for all package errors."""


class InputError(EllprymError):
    """Bad or unsupported input data (exit code 2 territory)."""


class IdentityError(EllprymError):
    """An unconditional mathematical identity failed (exit code 3 territory).

    These fire only on corrupt or inconsistent input; on valid data the
    checks they guard are theorems.
    """


class DivisionByZero(InputError):
    """Field division by zero."""


class DivisionByZeroSeries(InputError):
    """Series division by the zero series."""


class InsufficientPrecision(InputError):
    """A truncation window is too short for the requested coefficient."""


class NotAnNthPower(InputError):
    """Leading coefficient has no designated n-th root in the field."""


class SingularJacobian(InputError):
    """A local expansion asked for in a function that is not a uniformizer
    at the place: Newton's Jacobian is not a unit there."""


class ValuationError(InputError):
    """Series valuation violates an operation's precondition."""


class SchemaError(InputError):
    """Datum file violates the JSON schema; carries a JSON-pointer location."""

    def __init__(self, pointer, message):
        self.pointer = pointer
        self.message = message
        super().__init__(f"{pointer}: {message}")


class ParseError(InputError):
    """A scalar string failed to parse; carries the offending token."""

    def __init__(self, token, message="cannot parse scalar token"):
        self.token = token
        super().__init__(f"{message}: {token!r}")


class ScalarTooLong(InputError):
    """A computed scalar's string is longer than Scalar.from_string reads."""


class FieldError(InputError):
    """Unsupported field specification or mixed-field arithmetic."""


class FieldTooSmall(InputError):
    """The coefficient field lacks a required root of unity or n-th root."""


class UnsupportedRamification(InputError):
    """Covering function valuations outside the supported shape."""


class UnsupportedOrder(InputError):
    """Cover order must be prime."""


class PointOutsideField(InputError):
    """Divisor points do not have coordinates in the field.

    ``factors`` holds defining polynomials for the unresolved points, so the
    caller can decide to extend the field.
    """

    def __init__(self, factors):
        self.factors = list(factors)
        super().__init__(f"divisor points outside the field: {self.factors}")


class BuilderError(InputError):
    """Internal consistency failure during cover construction."""


class PrecisionUnreachable(InputError):
    """Builder cannot deliver the requested truncation window."""


class ValidationFailed(InputError):
    """A covering datum failed validation checks."""


class DimensionMismatch(IdentityError):
    """Computed space dimension contradicts the expected exact value."""


class IdentityViolated(IdentityError):
    """A theorem-mandated dimension identity failed on validated input."""


class EquivalenceViolated(IdentityError):
    """The two routes of the dual-route quadric check disagree."""


class ConsistencyViolated(IdentityError):
    """Geometric criterion and kernel computation contradict each other."""
