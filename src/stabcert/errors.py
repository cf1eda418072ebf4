"""Exception hierarchy for the certificate engine.

All package errors derive from :class:`StabcertError` so callers can
distinguish engine failures from programming errors.  The classes are
deliberately fine grained: a failed positivity check, a frequency outside
the admissible half-plane, and a singular reduced block are different
situations and callers (notably the command line driver) react to them
differently.
"""


class StabcertError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(StabcertError):
    """Matrix or vector shapes are incompatible with the block layout."""


class NotHermitian(StabcertError):
    """A block required to be Hermitian deviates beyond tolerance."""

    def __init__(self, which: str, deviation: float | None = None):
        msg = f"{which} is not Hermitian"
        if deviation is not None:
            msg += f" (relative deviation {deviation:.3e})"
        super().__init__(msg)
        self.which = which
        self.deviation = deviation


class NotCoercive(StabcertError):
    """A coefficient block fails its strict positivity requirement."""

    def __init__(self, which: str, value: float):
        super().__init__(
            f"{which} is not coercive: smallest Hermitian-part eigenvalue is {value:.6g}"
        )
        self.which = which
        self.value = value


class NotPositiveDefinite(StabcertError):
    """Square-root factorization asked of a matrix that is not positive definite."""


class HalfPlaneViolation(StabcertError):
    """A frequency lies outside the half-plane on which the bound is valid."""


class SingularKernelBlock(StabcertError):
    """The shifted kernel block could not be inverted numerically."""


class SingularReducedBlock(StabcertError):
    """The reduced two-by-two block is singular at the requested frequency."""


class ParameterOutOfRange(StabcertError):
    """A scalar parameter violates its documented domain."""


class DegenerateProblem(StabcertError):
    """Certificate constants requested for a problem with no damping margin."""


class ZeroRangeOperator(StabcertError):
    """The coupling operator has trivial range while the second component is present.

    The second-component dynamics then have no damping path: any part of the
    initial state outside the (here empty) admissible set is frozen forever,
    so no exponential decay certificate for the product space exists.
    """


class CertificateFailure(StabcertError):
    """The small-frequency audit could not validate the claimed constants."""


class Singular(StabcertError):
    """The requested frequency is numerically in the spectrum."""


class Underflow(StabcertError):
    """State norms vanished below representable range inside the fit window."""


class TooFewSamples(StabcertError):
    """Not enough samples in the fit window for a meaningful regression."""


class ZeroFrequency(StabcertError):
    """The change of variables is undefined at frequency zero."""


class DegenerateShift(StabcertError):
    """The shift coincides with the negated frequency."""


class NotInvertible(StabcertError):
    """An operation requiring an invertible coupling block got a singular one."""


class SingularBlock(StabcertError):
    """A block that must be invertible for the block-inverse formula is singular."""


class GridTooLarge(StabcertError):
    """A problem exceeds a size guard.

    Raised when a grid's curl would exceed the dense-assembly row limit,
    and when a system's restricted generator is too large for the
    small-frequency audit to finish.
    """
