"""Exception types shared across the package."""


class IsoGeoError(Exception):
    """Base class for every error raised by this package."""


class DomainError(IsoGeoError):
    """Evaluation left the domain of a function (log of a non-positive
    number, division by zero, non-integer power of a negative base, ...)."""


class ExprSyntaxError(IsoGeoError):
    """Expression source could not be parsed.  Carries the byte offset of
    the offending token; there is no error recovery."""

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


class LightlikeDirection(IsoGeoError):
    """Tangent direction with vanishing induced length in pseudo-isotropic
    space; no normal curvature can be assigned to it."""


class StencilOutsideDomain(IsoGeoError):
    """A finite-difference stencil point falls outside the parameter domain."""


class StencilOrientationFlip(IsoGeoError):
    """The parameter swap that makes m12 > 0 differs between points of a
    finite-difference stencil: the point is too close to an inadmissible
    locus for the coefficients to be differenced."""


class LeftDomain(IsoGeoError):
    """Requested start point lies outside the parameter domain."""


class StepNotPositive(IsoGeoError):
    """Integration step must be strictly positive."""


class TooManySteps(IsoGeoError):
    """t_end / step is not finite or exceeds the integrator's step bound."""


class BadParam(IsoGeoError):
    """Catalog constructor received an out-of-range or missing parameter."""


class DegenerateBranch(IsoGeoError):
    """Plane section degenerates to a pair of straight lines (R = 0);
    use :func:`isogeo.geodesic.line_pair` to obtain them."""


class SpecError(IsoGeoError):
    """A JSON surface spec is malformed (CLI input validation)."""
