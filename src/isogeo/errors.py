"""Exception types shared across the package."""


class IsoGeoError(Exception):
    """Base class for every error raised by this package."""


class DomainError(IsoGeoError):
    """Evaluation left the domain of a function (log of a non-positive
    number, division by zero, non-integer power of a negative base, ...)."""


class ExprSyntaxError(IsoGeoError):
    """Expression source could not be parsed.  Carries the offset of the offending
    token, a code-point index into the ``str``, not a byte offset; no error recovery."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class NotAdmissible(IsoGeoError):
    """The tangent plane is isotropic at the requested point: the top-view
    Jacobian minor vanishes, so no Gauss map or curvature exists there."""

    def __init__(self, u: float, v: float, minor: float):
        super().__init__(
            f"surface not admissible at (u={u!r}, v={v!r}): top-view minor {minor!r}"
        )
        self.u = u
        self.v = v
        self.minor = minor


class WrongSpace(IsoGeoError):
    """Operation applied to a surface living in the wrong ambient space."""


class LightlikePoint(IsoGeoError):
    """Pseudo-isotropic point whose background-Lorentzian normal is null;
    the relative connection is singular there."""


class LightlikePointHit(IsoGeoError):
    """A geodesic was started on (or asked to start on) a lightlike point."""


class NonFiniteStart(IsoGeoError):
    """The geodesic equation is not finite at the start point: the start
    velocity, the connection coefficients or the position there are not
    finite."""


class LightlikeDirection(IsoGeoError):
    """Tangent direction with vanishing induced length in pseudo-isotropic
    space; no normal curvature can be assigned to it."""


class LeftDomain(IsoGeoError):
    """Requested start point lies outside the parameter domain."""


class StepNotPositive(IsoGeoError):
    """Integration step and end time must be strictly positive."""


class TooManySteps(IsoGeoError):
    """t_end / step is not finite or exceeds the integrator's step bound."""


class BadParam(IsoGeoError):
    """A patch or catalog constructor received an out-of-range or missing
    parameter, or a domain that is not a finite, non-empty rectangle."""


class DegenerateBranch(IsoGeoError):
    """Plane section degenerates to a pair of straight lines (R = 0), for
    which :func:`isogeo.geodesic.line_pair` gives them, or its parameters
    define none: p = 0, or p, a, b, theta0 or theta_dot0 not finite."""


class SpecError(IsoGeoError):
    """A JSON surface spec is malformed (CLI input validation)."""
