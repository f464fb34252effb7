"""Pointwise extrinsic geometry of admissible surface patches.

Conventions
-----------
For an immersion x(u, v) write x1, x2 for the first derivatives and
m_ij for the 2x2 minors of the Jacobian taken from coordinate columns
i and j, so that

    x1 x x2   = (m23, m31, m12)        (Euclidean product)
    x1 x1 x2  = (m23, m13, m12)        (Lorentzian product)

A point is admissible iff m12 != 0 there.  With A = m23/m12 and
B = m31/m12 (simply isotropic) or B = m13/m12 (pseudo-isotropic), the
normalized normal and the Gauss map are

    n_h = (A, B, 1)
    xi  = (A, B, (1 - (A^2 +/- B^2)) / 2)

xi lands on the unit sphere of parabolic type; it shares its top view
with n_h and differs from it only by the vertical shift that keeps
{x1, x2, xi} a basis at every admissible point.  Exchanging u and v
negates m12, m23 and m31 alike, so A, B, xi, K, H and the class need no
sign convention on m12: every quantity is in the caller's (u, v) order,
and m12 keeps its own sign.  Second-fundamental
coefficients are h_ij = <n_h, x_ij> with the background (Euclidean or
Lorentzian) product.  The shape-operator coefficient matrix ``a_mat``
follows L(x_i) = -a_mat[i, k] x_k, equivalently h = -(a_mat @ g); the
operator acting on coordinate columns is ``-a_mat.T``.
"""

from __future__ import annotations

import functools
import math
import sys
from enum import Enum
from typing import NamedTuple, Optional

from . import expr as ex
from .errors import DomainError, NotAdmissible
from .isotropy import SpaceKind, Vec3

ADMISSIBILITY_RTOL = 1e-12
CURVATURE_TOL = 1e-9  # the class boundaries' width in disc and in h - H g


class _LazyNumpy:
    """Stands in for a module's ``np`` until the first array is built.

    The first attribute read imports numpy and rebinds the owning
    module's global ``np`` to it, so later reads cost what they would
    after a plain ``import numpy as np``.  Commands that compute only
    with floats never pay for the import."""

    def __init__(self, namespace: dict) -> None:
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)


np = _LazyNumpy(globals())


class SurfacePatch:
    """Evaluatable immersion of a rectangle into one of the two spaces.

    Graph patches keep x = u and y = v identically; parametric patches
    carry arbitrary component expressions.  Builtin catalog surfaces are
    parametric patches with a name and parameter dict attached.  The
    fields: ``kind`` (a SpaceKind), the ``ex.Expr`` trees ``x_expr``,
    ``y_expr`` and ``z_expr``, ``domain`` = (u0, u1, v0, v1), ``name`` and
    ``params`` (a dict), set once; the kernels are cached on first use.
    """

    __match_args__ = ("kind", "x_expr", "y_expr", "z_expr", "domain", "name", "params")

    def __init__(self, kind, x_expr, y_expr, z_expr, domain, name="parametric", params=None):
        values = (kind, x_expr, y_expr, z_expr, domain, name, {} if params is None else params)
        self.__dict__.update(zip(self.__match_args__, values))

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"SurfacePatch is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self.__match_args__)

    def __eq__(self, other) -> bool:  # unhashable, as params is a dict
        return type(other) is type(self) and self._values() == other._values()

    def __repr__(self) -> str:
        return f"SurfacePatch{self._values()!r}"

    @functools.cached_property
    def jet_kernel(self):
        """``(u, v) ->`` the 18 floats (val, du, dv, duu, duv, dvv) of x, y
        and z, bit-identical to the reference tree walk of ``expr`` on each
        expression; compiled on first use and kept on this patch."""
        return ex.compile_jet((self.x_expr, self.y_expr, self.z_expr), 2)

    @functools.cached_property
    def jet3_kernel(self):
        """``(u, v) ->`` the 18 floats of ``jet_kernel``, bit for bit,
        followed by the third partials (duuu, duuv, duvv, dvvv) of x, y
        and z; compiled on first use, by the curvature-tensor code only."""
        return ex.compile_jet((self.x_expr, self.y_expr, self.z_expr), 3)

    @functools.cached_property
    def accel_kernels(self) -> dict:
        """The geodesic stage kernels of this patch by connection, which
        ``geodesic`` compiles on first use."""
        return {}

    def __getstate__(self) -> dict:
        # kernels are generated code that pickle cannot name; a copy
        # compiles its own on first use
        kernels = ("jet_kernel", "jet3_kernel", "accel_kernels")
        return {k: v for k, v in self.__dict__.items() if k not in kernels}

    def contains(self, u: float, v: float) -> bool:
        u0, u1, v0, v1 = self.domain
        return u0 <= u <= u1 and v0 <= v <= v1


def _tree(name: str, e) -> ex.Expr:
    """The tree of argument ``name``, parsed where it is text; a TypeError
    that names the argument where it is neither a tree nor text."""
    if isinstance(e, str):
        return ex.parse(e)
    if not isinstance(e, ex.Expr):
        raise TypeError(f"{name} must be an expression or its text, got {e!r}")
    return e


def _checked_kind(kind) -> SpaceKind:
    if not isinstance(kind, SpaceKind):
        raise TypeError(f"kind must be a SpaceKind, got {kind!r}")
    return kind


def graph_patch(
    kind: SpaceKind,
    f: ex.Expr | str,
    domain: tuple[float, float, float, float],
    name: str = "graph",
    params: Optional[dict] = None,
) -> SurfacePatch:
    return SurfacePatch(
        _checked_kind(kind), ex.Var("u"), ex.Var("v"), _tree("f", f), domain, name, params or {}
    )


def parametric_patch(
    kind: SpaceKind,
    x: ex.Expr | str,
    y: ex.Expr | str,
    z: ex.Expr | str,
    domain: tuple[float, float, float, float],
    name: str = "parametric",
    params: Optional[dict] = None,
) -> SurfacePatch:
    kind, x, y, z = _checked_kind(kind), _tree("x", x), _tree("y", y), _tree("z", z)
    return SurfacePatch(kind, x, y, z, domain, name, params or {})


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class PointFrame(NamedTuple):
    """Everything pointwise at one admissible point, as Python floats.

    Vectors are stored as their three components (``x1_x, x1_y, x1_z``
    for x1, and so on), in the caller's (u, v) order; ``position``,
    ``x1``, ``x2``, ``x11``, ``x12``, ``x22``, ``xi`` and ``n_h`` build a
    ``Vec3`` from them on each access.  The metric and the second
    fundamental form are stored as their three independent entries (both
    are symmetric); ``g``, ``g_inv``, ``h`` and ``a_mat`` are read-only
    2x2 arrays built from them on each access.  A NamedTuple of floats
    rather than a frozen dataclass of vectors: building one is a single
    tuple allocation, once per ``frame_at`` call and per point that
    ``verify`` samples."""

    kind: SpaceKind
    u: float
    v: float
    p_x: float  # position
    p_y: float
    p_z: float
    x1_x: float  # first partials
    x1_y: float
    x1_z: float
    x2_x: float
    x2_y: float
    x2_z: float
    x11_x: float  # second partials
    x11_y: float
    x11_z: float
    x12_x: float
    x12_y: float
    x12_z: float
    x22_x: float
    x22_y: float
    x22_z: float
    m12: float
    m23: float
    m31: float
    g11: float  # induced metric
    g12: float
    g22: float
    det_g: float
    xi_x: float  # Gauss map
    xi_y: float
    xi_z: float
    h11: float  # second fundamental form
    h12: float
    h22: float

    @property
    def position(self) -> Vec3:
        return Vec3(self.p_x, self.p_y, self.p_z)

    @property
    def x1(self) -> Vec3:
        return Vec3(self.x1_x, self.x1_y, self.x1_z)

    @property
    def x2(self) -> Vec3:
        return Vec3(self.x2_x, self.x2_y, self.x2_z)

    @property
    def x11(self) -> Vec3:
        return Vec3(self.x11_x, self.x11_y, self.x11_z)

    @property
    def x12(self) -> Vec3:
        return Vec3(self.x12_x, self.x12_y, self.x12_z)

    @property
    def x22(self) -> Vec3:
        return Vec3(self.x22_x, self.x22_y, self.x22_z)

    @property
    def xi(self) -> Vec3:
        return Vec3(self.xi_x, self.xi_y, self.xi_z)

    @property
    def m13(self) -> float:
        return -self.m31

    @property
    def n_h(self) -> Vec3:
        return Vec3(self.xi_x, self.xi_y, 1.0)

    @property
    def g(self) -> np.ndarray:
        return _read_only(np.array([[self.g11, self.g12], [self.g12, self.g22]]))

    @property
    def g_inv(self) -> np.ndarray:
        adj = np.array([[self.g22, -self.g12], [-self.g12, self.g11]])
        return _read_only(adj / self.det_g)

    @property
    def h(self) -> np.ndarray:
        return _read_only(np.array([[self.h11, self.h12], [self.h12, self.h22]]))

    @property
    def a_mat(self) -> np.ndarray:
        """h = -(a_mat @ g)."""
        return _read_only(-(self.h @ self.g_inv))

    def shape_operator(self) -> np.ndarray:
        """Matrix of L on coordinate columns: (L w)^k = M[k, i] w^i."""
        return -self.a_mat.T


class CurvatureClass(Enum):
    DIAGONALIZABLE = "diagonalizable"
    NON_DIAGONALIZABLE_REAL = "non_diagonalizable_real"
    COMPLEX_PRINCIPAL = "complex_principal"
    UMBILIC = "umbilic"


class CurvatureReport(NamedTuple):
    K: float
    H: float
    discriminant: float  # H^2 - K
    label: CurvatureClass
    kappa1: Optional[float] = None
    kappa2: Optional[float] = None
    umbilic_factor: Optional[float] = None


# the patch queries that no command runs, which load on first use, and the
# functions of a jet or frame that run the templates' plain lines, compiled
# on the first read of the module's attribute (frame_at reads it so): the
# commands that run the fused kernels need neither
_QUERIES = ("AdmissibilityReport", "is_admissible", "lightlike_condition", "lightlike_points",
            "normal_curvature", "transform_patch")
_FRAME_FUNCTIONS = ("frame_of_jet", "gaussian_curvature", "curvatures_of_frame")
_module = sys.modules[__name__]


def __getattr__(name: str):
    if name in _FRAME_FUNCTIONS:
        globals().update(_frame_functions())
        return globals()[name]
    if name in _QUERIES:
        from . import queries

        return getattr(queries, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def frame_at(s: SurfacePatch, u: float, v: float) -> PointFrame:
    return _module.frame_of_jet(s.kind, u, v, s.jet_kernel(u, v))


# the 18 floats of ``jet_kernel``, and PointFrame's fields, as the frame
# lines name them
JET_NAMES = "px xu xv xuu xuv xvv py yu yv yuu yuv yvv pz zu zv zuu zuv zvv".split()
FRAME_NAMES = (
    "kind, u, v, px, py, pz, xu, yu, zu, xv, yv, zv, xuu, yuu, zuu, "
    "xuv, yuv, zuv, xvv, yvv, zvv, m12, m23, m31, g11, g12, g22, det_g, a, b, xi_z, h11, h12, h22"
)
FRAME_GLOBALS = {"math": math, "ADMISSIBILITY_RTOL": ADMISSIBILITY_RTOL, "NotAdmissible": NotAdmissible}


def frame_lines(w: ex.Lines, kind: SpaceKind) -> None:
    """The frame's arithmetic in ``kind``'s space, written into ``w`` from
    the ``JET_NAMES`` at (u, v) to the other ``FRAME_NAMES``.  The only
    copy: ``frame_of_jet`` runs its lines over plain names, and the fused
    point kernels over the jet's slots, through ``point_lines``.  Every
    line reads the jet in the caller's (u, v) order, and m12 keeps its sign."""
    simply = kind is SpaceKind.SIMPLY_ISOTROPIC

    def dot(p, q):  # the background product of two top views
        return p[0] * q[0] + p[1] * q[1] if simply else p[0] * q[0] - p[1] * q[1]

    xu, xv, yu, yv, zu, zv = w.get("xu xv yu yv zu zv")
    (m12,) = w.let("m12", xu * yv - xv * yu)
    # m12 is a minor of the top views alone, so it is judged against their
    # lengths; z-derivatives (and isotropic shears z -> z + c1 x) do not
    # enter.  A zero minor fails at any scale, also at the nan scale inf * 0
    # of a top view whose length overflows and a zero one.  Only the top
    # views (1, 0) and (0, 1) of a graph make a test that cannot fire; a
    # structural m12 of 1 does not (x = u, y = v + 1e13 u: scale ~ 1e13)
    if [str(x) for x in (xu, yv, xv, yu)] != ["ONE", "ONE", "ZERO", "ZERO"]:
        w.let("scale", 1.0 + ex._Src(f"math.hypot({xu}, {yu})") * ex._Src(f"math.hypot({xv}, {yv})"))
        w.line(f"if {m12} == 0.0 or abs({m12}) <= ADMISSIBILITY_RTOL * scale:", f"    raise NotAdmissible(u, v, {m12})")
    (m23,) = w.let("m23", yu * zv - zu * yv)
    (m31,) = w.let("m31", zu * xv - xu * zv)
    # A = m23/m12; B = m31/m12 (simply isotropic) or m13/m12
    a, b = w.let("a, b", m23 / m12, (m31 if simply else -m31) / m12)
    w.let("g11, g12, g22", dot((xu, yu), (xu, yu)), dot((xu, yu), (xv, yv)), dot((xv, yv), (xv, yv)))
    # det g = g11 g22 - g12^2 = +/- m12^2 by the Lagrange identity; the
    # square is exact to one rounding where the Gram form cancels, and never
    # 0 at an admissible point (so the pseudo-isotropic metric is timelike
    # by construction)
    w.let("det_g", m12 * m12 if simply else -(m12 * m12))
    w.let("xi_z", 0.5 * (1.0 - dot((a, b), (a, b))))
    # h_ij = <n_h, x_ij>, Euclidean or Lorentzian, with n_h = (a, b, 1)
    for ij, x in (("11", "uu"), ("12", "uv"), ("22", "vv")):
        xij, yij, zij = w.get(f"x{x} y{x} z{x}")
        w.let(f"h{ij}", dot((a, b), (xij, yij)) + zij)


def point_lines(s: SurfacePatch) -> tuple[ex.Lines, dict]:
    """The prelude of the fused point kernels, the ``curvature`` row kernel
    and the geodesic stage kernel: the writer ``w`` of ``s``'s order-2 jet
    lines, which read the float U of u that the kernel defines, with
    ``frame_lines(w, s.kind)`` written into it over the jet's slots; and
    the namespace they read, ``FRAME_GLOBALS`` included.  Each kernel
    writes its own lines into ``w`` and takes its body from
    ``w.statements``, which writes a quantity only where a later line reads it."""
    w, outputs = ex.jet_writer((s.x_expr, s.y_expr, s.z_expr), 2)
    w.slots.update(zip(JET_NAMES, map(ex._Src, outputs), strict=True))
    frame_lines(w, s.kind)
    return w, {**w.namespace, **FRAME_GLOBALS}


def by_kind(template) -> list[str]:
    """The plain lines of ``template(w, kind)`` for the run-time ``kind``."""
    i3, ip3 = (ex.template_lines(template, kind) for kind in (SpaceKind.SIMPLY_ISOTROPIC, SpaceKind.PSEUDO_ISOTROPIC))
    return ["if kind is SpaceKind.SIMPLY_ISOTROPIC:", *(f"    {x}" for x in i3), "else:", *(f"    {x}" for x in ip3)]


def curvatures_at(
    s: SurfacePatch, u: float, v: float, tol: float = CURVATURE_TOL
) -> CurvatureReport:
    """Gaussian and mean curvature plus the diagonalizability trichotomy
    of the shape operator (read off the characteristic polynomial
    lambda^2 - 2H lambda + K)."""
    f = frame_at(s, u, v)
    return _module.curvatures_of_frame(f, tol)


# The curvatures' arithmetic as a template, from the frame lines' names to
# k, h_mean, disc, label, kappa1, kappa2 and umbilic_factor; the only copy,
# run by the two functions below and by the CLI's curvature row kernel.
# ``label`` is bound to the global named after the CurvatureClass member:
# the member itself in ``curvatures_of_frame``, its value where a row is
# written.  K = det h / det g.
def gaussian_lines(w: ex.Lines) -> None:
    h11, h12, h22, det_g = w.get("h11 h12 h22 det_g")
    if str(h12) in ("ZERO", "ONE"):  # its own square
        w.let("h12_sq", h12)
    else:  # libm's pow, which does not always round like h12 * h12
        w.line("try:", f"    h12_sq = {h12}**2", "except OverflowError:", "    h12_sq = math.inf")
    w.let("k", (h11 * h22 - w.get("h12_sq")[0]) / det_g)


def curvature_lines(w: ex.Lines) -> None:
    gaussian_lines(w)
    k, h11, h12, h22, g11, g12, g22, det_g, xi_z = w.get("k h11 h12 h22 g11 g12 g22 det_g xi_z")
    (h,) = w.let("h_mean", (g11 * h22 - 2.0 * g12 * h12 + g22 * h11) / (2.0 * det_g))
    # NaN fails every comparison below and would land in some class;
    # xi.z = (1 - (A^2 +/- B^2)) / 2 is finite only where A and B are
    w.line(
        f"if not (math.isfinite({k}) and math.isfinite({h}) and math.isfinite({xi_z})):",
        f"    raise DomainError(f'K={{{k}!r}}, H={{{h}!r}} or xi not finite at ({{u!r}}, {{v!r}})')",
    )
    (disc,) = w.let("disc", h * h - k)
    w.line(
        f"if {disc} > tol:",
        "    label = DIAGONALIZABLE",
        f"elif {disc} < -tol:",
        "    label = COMPLEX_PRINCIPAL",
        "else:",
        # umbilic iff h = H g up to tol, relative to the size of g; a NaN
        # entry fails every comparison and so is never umbilic
        f"    bound = tol * max(1.0, abs({g11}), abs({g12}), abs({g22}))",
        f"    if (abs({h11 - h * g11}) <= bound and abs({h12 - h * g12}) <= bound",
        f"            and abs({h22 - h * g22}) <= bound):",
        "        label = UMBILIC",
        "    else:",
        "        label = NON_DIAGONALIZABLE_REAL",
    )
    # h +- sqrt(disc) where real and distinct, H at an umbilic, else None:
    # lets, which a kernel that reads none of them does not write
    root, umbilic = ex._Src(f"math.sqrt({disc})"), f"{h} if label is UMBILIC else None"
    kappas = (f"{x} if label is DIAGONALIZABLE else {umbilic}" for x in (h + root, h - root))
    w.let("kappa1, kappa2, umbilic_factor", *kappas, umbilic)


# ``tol`` is the default, which a ``tol`` argument shadows
CURVATURE_GLOBALS = {"math": math, "DomainError": DomainError, "tol": CURVATURE_TOL}


def _frame_functions() -> dict:
    return {
        "frame_of_jet": ex.compile_function(
            "frame_of_jet(kind, u, v, jet)",
            [
                '"""The frame at (u, v) in ``kind``\'s space from the 18 floats of ``jet_kernel`` there."""',
                f"{', '.join(JET_NAMES)} = jet", *by_kind(frame_lines), f"return PointFrame({FRAME_NAMES})",
            ],
            {**FRAME_GLOBALS, "SpaceKind": SpaceKind, "PointFrame": PointFrame},
        ),
        "gaussian_curvature": ex.compile_function(
            "gaussian_curvature(f)",
            ['"""K = det h / det g."""', f"{FRAME_NAMES} = f", *ex.template_lines(gaussian_lines), "return k"],
            {**CURVATURE_GLOBALS},
        ),
        "curvatures_of_frame": ex.compile_function(
            f"curvatures_of_frame(f, tol={CURVATURE_TOL!r})",
            [
                '"""K, H, disc and the class at a frame; DomainError where K, H or xi is not finite."""',
                f"{FRAME_NAMES} = f", *ex.template_lines(curvature_lines),
                "return CurvatureReport(k, h_mean, disc, label, kappa1, kappa2, umbilic_factor)",
            ],
            {**CURVATURE_GLOBALS, "CurvatureReport": CurvatureReport, **{c.name: c for c in CurvatureClass}},
        ),
    }


def grid_values(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced values from lo to hi, the grid of every scan and of
    the CLI's grids; the last value is lo + (hi - lo), which may differ
    from hi in its last bit."""
    return [lo + (hi - lo) * i / max(n - 1, 1) for i in range(n)]
