"""Builtin surfaces with known closed-form geometry.

Each entry constructs a :class:`SurfacePatch` and, where the geometry is
known in closed form, exposes curvature oracles used by the test and
verification suites.  Entries:

    parabolic_sphere(p)     z = (u^2 +/- v^2)/2p - p/2, either space;
                            K = 1/p^2, H = 1/p, totally umbilical
    cylindrical_sphere(r)   cylinder over the unit circle/hyperbola;
                            nowhere admissible (isotropic tangent planes)
    plane(a, b, c)          z = a u + b v + c, either space; K = H = 0
    ruled_nondiag(b)        (u, u + b v, u v), pseudo; K = 1/b^2,
                            H = -1/b, shape operator not diagonalizable
    helicoid(c)             (u cosh v, u sinh v, c v), pseudo, u > 0;
                            K = c^2/u^4, H = 0, complex principal
    revolution(z)           (u cosh v, u sinh v, z(u)), pseudo, u > 0;
                            K = z' z''/u, H = z''/2 + z'/2u and
                            H^2 - K = (z''/2 - z'/2u)^2
    minimal_wave(f, g)      z = f(u+v) + g(u-v), pseudo; H = 0
    minimal_harmonic(f)     z = f(u, v) with f harmonic, simply; H = 0
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from . import expr as ex
from .errors import BadParam
from .isotropy import SpaceKind
from .surface import SurfacePatch, checked_domain, graph_patch, grid_values, parametric_patch

BOTH = (SpaceKind.SIMPLY_ISOTROPIC, SpaceKind.PSEUDO_ISOTROPIC)
PSEUDO_ONLY = (SpaceKind.PSEUDO_ISOTROPIC,)
SIMPLY_ONLY = (SpaceKind.SIMPLY_ISOTROPIC,)


class CurvatureOracles(NamedTuple):
    k: Optional[Callable[[float, float], float]]
    h: Optional[Callable[[float, float], float]]
    discriminant: Optional[Callable[[float, float], float]] = None


class CatalogEntry(NamedTuple):
    name: str
    kinds: tuple[SpaceKind, ...]
    required: tuple[str, ...]
    default_domain: Callable[[SpaceKind], tuple[float, float, float, float]]
    build: Callable[[SpaceKind, dict, tuple], SurfacePatch]


def _need(params: dict, key: str, name: str) -> object:
    if key not in params:
        raise BadParam(f"{name} requires parameter {key!r}")
    return params[key]


def _num(params: dict, key: str, name: str) -> float:
    value = _need(params, key, name)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise BadParam(f"{name} parameter {key!r} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        raise BadParam(f"{name} parameter {key!r} is out of range") from None
    if not math.isfinite(number):
        raise BadParam(f"{name} parameter {key!r} must be finite, got {value!r}")
    return number


def _expr_param(params: dict, key: str, name: str) -> ex.Expr:
    value = _need(params, key, name)
    if not isinstance(value, str):
        raise BadParam(f"{name} parameter {key!r} must be an expression string")
    try:
        return ex.parse(value)
    except ex.ExprSyntaxError as err:
        raise BadParam(f"{name} parameter {key!r}: {err}") from err


def _build_parabolic_sphere(kind, params, domain):
    p = _num(params, "p", "parabolic_sphere")
    if p == 0.0:
        raise BadParam("parabolic_sphere needs p != 0")
    pm = "+" if kind is SpaceKind.SIMPLY_ISOTROPIC else "-"
    src = f"(u^2 {pm} v^2)/{2.0 * p!r} - {p / 2.0!r}"
    return graph_patch(kind, src, domain, "parabolic_sphere", {"p": p})


def _build_cylindrical_sphere(kind, params, domain):
    r = _num(params, "r", "cylindrical_sphere")
    if r <= 0.0:
        raise BadParam("cylindrical_sphere needs r > 0")
    if kind is SpaceKind.SIMPLY_ISOTROPIC:
        x, y = f"{r!r} * cos(u)", f"{r!r} * sin(u)"
    else:
        x, y = f"{r!r} * cosh(u)", f"{r!r} * sinh(u)"
    return parametric_patch(kind, x, y, "v", domain, "cylindrical_sphere", {"r": r})


def _build_plane(kind, params, domain):
    a = _num(params, "a", "plane")
    b = _num(params, "b", "plane")
    c = _num(params, "c", "plane")
    src = f"{a!r} * u + {b!r} * v + {c!r}"
    return graph_patch(kind, src, domain, "plane", {"a": a, "b": b, "c": c})


def _build_ruled_nondiag(kind, params, domain):
    b = _num(params, "b", "ruled_nondiag")
    if b <= 0.0:
        raise BadParam("ruled_nondiag needs b > 0")
    return parametric_patch(
        kind, "u", f"u + {b!r} * v", "u * v", domain, "ruled_nondiag", {"b": b}
    )


def _build_helicoid(kind, params, domain):
    c = _num(params, "c", "helicoid")
    if c <= 0.0:
        raise BadParam("helicoid needs c > 0")
    if domain[0] <= 0.0:
        raise BadParam("helicoid needs u > 0 on its domain")
    return parametric_patch(
        kind, "u * cosh(v)", "u * sinh(v)", f"{c!r} * v", domain, "helicoid", {"c": c}
    )


def _build_revolution(kind, params, domain):
    z_expr = _expr_param(params, "z", "revolution")
    if not ex.variables_of(z_expr) <= {"u"}:
        raise BadParam("revolution profile z must depend on u only")
    if domain[0] <= 0.0:
        raise BadParam("revolution needs u > 0 on its domain")
    return parametric_patch(
        kind,
        "u * cosh(v)",
        "u * sinh(v)",
        z_expr,
        domain,
        "revolution",
        {"z": ex.to_source(z_expr)},
    )


def _build_minimal_wave(kind, params, domain):
    f_expr = _expr_param(params, "f", "minimal_wave")
    g_expr = _expr_param(params, "g", "minimal_wave")
    for label, e in (("f", f_expr), ("g", g_expr)):
        if not ex.variables_of(e) <= {"u"}:
            raise BadParam(f"minimal_wave wave profile {label!r} must depend on u only")
    plus = ex.parse("u + v")
    minus = ex.parse("u - v")
    z = ex.Binary(
        "+", ex.substitute(f_expr, {"u": plus}), ex.substitute(g_expr, {"u": minus})
    )
    return graph_patch(
        kind, z, domain, "minimal_wave",
        {"f": ex.to_source(f_expr), "g": ex.to_source(g_expr)},
    )


def _build_minimal_harmonic(kind, params, domain):
    f_expr = _expr_param(params, "f", "minimal_harmonic")
    patch = graph_patch(
        kind, f_expr, domain, "minimal_harmonic", {"f": ex.to_source(f_expr)}
    )
    u0, u1, v0, v1 = domain
    for uu in grid_values(u0, u1, 15):
        for vv in grid_values(v0, v1, 15):
            jet = patch.jet_kernel(uu, vv)
            lap = jet[15] + jet[17]  # f_uu + f_vv
            if not abs(lap) <= 1e-8:  # NaN fails too
                raise BadParam(
                    f"minimal_harmonic profile is not harmonic: laplacian {lap!r} at ({uu!r}, {vv!r})"
                )
    return patch


CATALOG: dict[str, CatalogEntry] = {
    "parabolic_sphere": CatalogEntry(
        "parabolic_sphere", BOTH, ("p",),
        lambda kind: (-8.0, 8.0, -8.0, 8.0), _build_parabolic_sphere,
    ),
    "cylindrical_sphere": CatalogEntry(
        "cylindrical_sphere", BOTH, ("r",),
        lambda kind: (
            (0.0, 6.283185307179586, -1.0, 1.0)
            if kind is SpaceKind.SIMPLY_ISOTROPIC
            else (-2.0, 2.0, -1.0, 1.0)
        ),
        _build_cylindrical_sphere,
    ),
    "plane": CatalogEntry(
        "plane", BOTH, ("a", "b", "c"),
        lambda kind: (-4.0, 4.0, -4.0, 4.0), _build_plane,
    ),
    "ruled_nondiag": CatalogEntry(
        "ruled_nondiag", PSEUDO_ONLY, ("b",),
        lambda kind: (-2.0, 2.0, -2.0, 2.0), _build_ruled_nondiag,
    ),
    "helicoid": CatalogEntry(
        "helicoid", PSEUDO_ONLY, ("c",),
        lambda kind: (0.5, 3.0, -1.5, 1.5), _build_helicoid,
    ),
    "revolution": CatalogEntry(
        "revolution", PSEUDO_ONLY, ("z",),
        lambda kind: (0.5, 4.0, -1.5, 1.5), _build_revolution,
    ),
    "minimal_wave": CatalogEntry(
        "minimal_wave", PSEUDO_ONLY, ("f", "g"),
        lambda kind: (-2.0, 2.0, -2.0, 2.0), _build_minimal_wave,
    ),
    "minimal_harmonic": CatalogEntry(
        "minimal_harmonic", SIMPLY_ONLY, ("f",),
        lambda kind: (-2.0, 2.0, -2.0, 2.0), _build_minimal_harmonic,
    ),
}


def catalog_names() -> list[str]:
    return sorted(CATALOG)


def make(
    name: str,
    kind: SpaceKind,
    params: Optional[dict] = None,
    domain: Optional[tuple[float, float, float, float]] = None,
) -> SurfacePatch:
    if name not in CATALOG:
        raise BadParam(f"unknown catalog surface {name!r}; known: {catalog_names()}")
    entry = CATALOG[name]
    if kind not in entry.kinds:
        raise BadParam(f"{name} is not defined in space {kind.value!r}")
    params = params or {}
    unknown = [key for key in params if key not in entry.required]
    if unknown:
        raise BadParam(f"unknown {name} parameter {unknown[0]!r}; known: {list(entry.required)}")
    return entry.build(kind, params, checked_domain(entry.default_domain(kind) if domain is None else domain))


def oracles_for(patch: SurfacePatch) -> Optional[CurvatureOracles]:
    """Closed-form K/H for a catalog patch, None when the entry has none."""
    p = patch.params
    if patch.name == "parabolic_sphere":
        pp = p["p"]
        return CurvatureOracles(
            k=lambda u, v: 1.0 / (pp * pp), h=lambda u, v: 1.0 / pp
        )
    if patch.name == "plane":
        return CurvatureOracles(k=lambda u, v: 0.0, h=lambda u, v: 0.0)
    if patch.name == "ruled_nondiag":
        b = p["b"]
        return CurvatureOracles(
            k=lambda u, v: 1.0 / (b * b), h=lambda u, v: -1.0 / b
        )
    if patch.name == "helicoid":
        c = p["c"]
        return CurvatureOracles(
            k=lambda u, v: c * c / u**4, h=lambda u, v: 0.0
        )
    if patch.name == "revolution":
        z_jet = ex.compile_jet((ex.parse(p["z"]),), 2)

        def derivs(u: float) -> tuple[float, float]:
            jet = z_jet(u, 0.0)
            return jet[1], jet[3]  # z', z''

        def k_fn(u: float, v: float) -> float:
            z1, z2 = derivs(u)
            return z1 * z2 / u

        def h_fn(u: float, v: float) -> float:
            z1, z2 = derivs(u)
            return 0.5 * z2 + 0.5 * z1 / u

        def disc_fn(u: float, v: float) -> float:
            z1, z2 = derivs(u)
            return (0.5 * z2 - 0.5 * z1 / u) ** 2

        return CurvatureOracles(k=k_fn, h=h_fn, discriminant=disc_fn)
    if patch.name in ("minimal_wave", "minimal_harmonic"):
        return CurvatureOracles(k=None, h=lambda u, v: 0.0)
    return None
