"""The templates of ``isogeo.surface`` and ``isogeo.connection`` compiled
over plain names, as functions of a jet or a frame, with a run-time
branch on the space.  The package runs the same templates only over a
patch's jet slots, in its fused point kernels; run over the structural
ZERO and ONE floats of ``jets`` (``jet2ref.frame``), these functions skip
what the kernels skip and give the kernels' bits, zeros' signs included.
"""

from __future__ import annotations

from isogeo import connection as con
from isogeo import surface as srf
from isogeo.connection import ConnectionCoeffs
from isogeo.expr import compile_function, template_lines
from isogeo.isotropy import SpaceKind
from isogeo.surface import FRAME_NAMES, JET_NAMES, CurvatureClass, CurvatureReport, PointFrame


def by_kind(template) -> list[str]:
    """The plain lines of ``template(w, kind)`` for the run-time ``kind``."""
    i3, ip3 = (template_lines(template, kind) for kind in (SpaceKind.SIMPLY_ISOTROPIC, SpaceKind.PSEUDO_ISOTROPIC))
    return ["if kind is SpaceKind.SIMPLY_ISOTROPIC:", *(f"    {x}" for x in i3), "else:", *(f"    {x}" for x in ip3)]


CURVATURE_NAMESPACE = {**srf.CURVATURE_GLOBALS, "CurvatureReport": CurvatureReport, **{c.name: c for c in CurvatureClass}}
CONNECTION_NAMESPACE = {
    **con.RELATIVE_GLOBALS, "SpaceKind": SpaceKind, "ConnectionCoeffs": ConnectionCoeffs,
    "LIGHTLIKE_GUARD_BAND": con.LIGHTLIKE_GUARD_BAND,
}


def of_frame(doc: str, signature: str, *lines: str, namespace=CONNECTION_NAMESPACE):
    """A function of the frame ``f`` that runs ``lines`` on its fields."""
    return compile_function(signature, [repr(doc), f"{FRAME_NAMES} = f", *lines], {**namespace})


frame_of_jet = compile_function(
    "frame_of_jet(kind, u, v, jet)",
    [
        '"""The frame at (u, v) in ``kind``\'s space from the 18 floats of a jet there."""',
        f"{', '.join(JET_NAMES)} = jet", *by_kind(srf.frame_lines), f"return PointFrame({FRAME_NAMES})",
    ],
    {**srf.FRAME_GLOBALS, "SpaceKind": SpaceKind, "PointFrame": PointFrame},
)
gaussian_curvature = of_frame(
    "K = det h / det g.", "gaussian_curvature(f)", *template_lines(srf.gaussian_lines), "return k",
    namespace=CURVATURE_NAMESPACE,
)
curvatures_of_frame = of_frame(
    "K, H, disc and the class at a frame; DomainError where K, H or xi is not finite.",
    f"curvatures_of_frame(f, tol={srf.CURVATURE_TOL!r})", *template_lines(srf.curvature_lines),
    "return CurvatureReport(k, h_mean, disc, label, kappa1, kappa2, umbilic_factor)",
    namespace=CURVATURE_NAMESPACE,
)
denom_gradient_of_frame = of_frame(
    "Exact gradient (d1 denom, d2 denom) along u and v.",
    "denom_gradient_of_frame(f)", *template_lines(con.denom_gradient_lines), "return dd1, dd2",
)
coeffs_of_frame = of_frame(
    "Both connections at a frame; raises LightlikePoint where the relative\n"
    "one is singular (denom vanishes).",
    "coeffs_of_frame(f)", *template_lines(con.gamma_lines), *by_kind(con.relative_lines),
    "return ConnectionCoeffs((ga111, ga112, ga121, ga122, ga221, ga222),"
    " (xi111, xi112, xi121, xi122, xi221, xi222), (r11, r12, r22), denom,"
    " abs(denom) < LIGHTLIKE_GUARD_BAND, f)",
)
gamma6_of_frame = of_frame(
    "Levi-Civita coefficients alone; regular even at lightlike points.",
    "gamma6_of_frame(f)", *template_lines(con.gamma_lines), "return (ga111, ga112, ga121, ga122, ga221, ga222)",
)
