"""Differential geometry of admissible surfaces in simply isotropic and
pseudo-isotropic 3-space: fundamental forms, parabolic Gauss map, shape
operator, Levi-Civita and relative connections with their curvature
tensors, and geodesic integration."""

from .catalog import CATALOG, CurvatureOracles, catalog_names, make, oracles_for
from .connection import (
    CodazziResiduals,
    ConnectionCoeffs,
    CurvatureTensorSample,
    EgregiumResult,
    codazzi_residual,
    coeffs_at,
    curvature_tensors_at,
    egregium_check,
    gauss_equation_rhs,
)
from .expr import Expr, parse, to_source
from .geodesic import (
    GeodesicKind,
    GeodesicTrace,
    PlaneSection,
    SectionBranch,
    SphereGeodesicCheck,
    cross_check_sphere_geodesic,
    induced_speed_profile,
    integrate,
    line_pair,
    make_plane_section,
    plane_section,
)
from .isotropy import (
    Motion,
    SpaceKind,
    Vec3,
    apply_motion,
    codistance,
    compose,
    cross_euclid,
    cross_lorentz,
    dot,
    dot_euclid,
    dot_lorentz,
    norm,
    top_view,
)
from .surface import (
    AdmissibilityReport,
    CurvatureClass,
    CurvatureReport,
    PointFrame,
    SurfacePatch,
    curvatures_at,
    frame_at,
    graph_patch,
    is_admissible,
    lightlike_points,
    normal_curvature,
    parametric_patch,
    transform_patch,
)

__version__ = "0.1.0"
