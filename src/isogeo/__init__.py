"""Differential geometry of admissible surfaces in simply isotropic and
pseudo-isotropic 3-space: fundamental forms, parabolic Gauss map, shape
operator, Levi-Civita and relative connections with their curvature
tensors, and geodesic integration.

Every module loads on first use: ``import isogeo`` loads none, and a
public name read from the package loads the one module that defines
it."""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "catalog": "CATALOG CurvatureOracles catalog_names make oracles_for",
    "connection": "CodazziResiduals ConnectionCoeffs CurvatureTensorSample EgregiumResult "
    "codazzi_residual coeffs_at curvature_tensors_at egregium_check gauss_equation_rhs",
    "expr": "Expr parse to_source",
    "geodesic": "GeodesicKind GeodesicTrace PlaneSection SectionBranch SphereGeodesicCheck "
    "cross_check_sphere_geodesic induced_speed_profile integrate line_pair "
    "make_plane_section plane_section",
    "isotropy": "Motion SpaceKind Vec3 apply_motion codistance compose cross_euclid "
    "cross_lorentz dot dot_euclid dot_lorentz norm top_view",
    "surface": "AdmissibilityReport CurvatureClass CurvatureReport PointFrame SurfacePatch "
    "curvatures_at frame_at graph_patch is_admissible lightlike_points normal_curvature "
    "parametric_patch transform_patch",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# the submodules that resolve as attributes of the package before any import
_SUBMODULES = (*_EXPORTS, "errors")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(importlib.import_module(f".{_HOME[name]}", __name__), name))


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
