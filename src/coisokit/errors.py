"""Exception types shared across the package."""


class CoisoKitError(Exception):
    """Base class for all errors raised by coiso-kit."""


class ChartMismatchError(CoisoKitError):
    """Operands live on different charts."""


class UnknownCoordinateError(CoisoKitError):
    """A coordinate name is not part of the chart."""


class PeriodicCoordinateError(CoisoKitError):
    """A periodic coordinate was used where a polynomial generator is needed."""


class DimensionMismatchError(CoisoKitError):
    """A point or component list has the wrong length."""


class NonInvertibleScalarError(CoisoKitError):
    """Exact inversion of a scalar or matrix is not representable in the ring."""


class FibreDependenceError(CoisoKitError):
    """A shift entry depends on a fibre coordinate."""


class NotVerticalError(CoisoKitError):
    """A multivector is not a vertical section of the required shape."""


class TruncationCapError(CoisoKitError):
    """An adjoint series did not terminate within the iteration cap."""


class DomainBoundError(CoisoKitError):
    """graph(-alpha) leaves the declared tubular domain."""


class DegenerateBivectorError(CoisoKitError):
    """The bivector matrix is singular where an inverse is required."""


class NotClosedError(CoisoKitError):
    """A closedness precondition (d, d_F or lambda_1) fails."""


class PresymplecticError(CoisoKitError):
    """Invalid presymplectic data (non-closed form or wrong kernel)."""


class PencilError(CoisoKitError):
    """Invalid affine pencil, or its inversion is not exactly representable."""


class NonAffineFibreError(CoisoKitError):
    """A form is not fibrewise affine (not contained in the degree <= 1 part)."""


class JetOrderError(CoisoKitError):
    """A jet does not carry enough fibre order for the requested operation."""


class NotCoisotropicError(CoisoKitError):
    """The zero section is not coisotropic for the given bivector."""


class NotPoissonError(CoisoKitError):
    """A bivector fails the Jacobi identity (exactly, or to its jet order)."""


class FloatOverflowError(CoisoKitError):
    """An exact value is beyond the float range of a numeric evaluation."""


class ScenarioError(CoisoKitError):
    """Scenario text failed to parse; carries a 1-based position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
