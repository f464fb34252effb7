"""Levi-Civita and relative connections with their curvature tensors.

Two decompositions of the second derivatives define the two connections:

    x_ij = gamma_ij^k x_k + h_ij * (0, 0, 1)         (Levi-Civita)
    x_ij = xi_ij^k    x_k + rho_ij * xi              (relative)

Because the isotropic normal is vertical, the Levi-Civita coefficients
come from a 2x2 top-view solve.  The relative coefficients follow from

    rho_ij  = h_ij / denom,     denom = |xi_top|^2 + xi_z
    xi_ij^k = gamma_ij^k + g^{kl} (x_l)_z * rho_ij

where |xi_top|^2 is the squared Euclidean (simply isotropic) or signed
Lorentzian (pseudo-isotropic) top-view norm of the Gauss map.  In the
pseudo-isotropic space denom vanishes exactly at lightlike points and
the relative connection is singular there; coefficients computed inside
a guard band |denom| < 1e-6 are flagged unreliable.

Curvature tensors use the pattern

    R^l_ijk = C_ij,k^l - C_ik,j^l + C_ij^s C_ks^l - C_ik^s C_js^l

for either family of coefficients C.  The coefficient derivatives are
exact, from the third partials x_ijk of the patch's order-3 jet kernel;
with M = [x1_top x2_top], w = M^-1 xi_top (so xi_ij = gamma_ij - rho_ij w)
and S = diag(1, +/-1):

    d_k gamma_ij = M^-1 ((x_ijk)_top - gamma_ij^l (x_lk)_top)
    d_k h_ij     = (x_ijk)_z - d_k gamma_ij^l (x_l)_z - gamma_ij^l (x_lk)_z
    d_k rho_ij   = (d_k h_ij - rho_ij d_k denom) / denom
    d_k xi_ij    = d_k gamma_ij - d_k rho_ij w - rho_ij M^-1 (d_k xi_top - w^l (x_lk)_top)
    d_k xi_top   = -S M^-T h_k
    d_k denom    = <S xi_top, d_k xi_top>

These formulas, the tensors, the Codazzi residuals and the Gauss sides
are one numpy call each on arrays with a leading point axis: at the
records (``sample_at``) that ``verify``'s sampler kept, of one patch or
of many in either space (``coeff_derivatives``), or at one point as a
batch of one.  The bits of a point do not depend on the batch around it.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import Callable, Iterable, Iterator, NamedTuple

from . import expr as ex
from . import surface as srf
from .errors import LightlikePoint
from .isotropy import SpaceKind
from .surface import (
    FRAME_NAMES,
    PointFrame,
    SurfacePatch,
    _LazyNumpy,
    _read_only,
    by_kind,
    frame_at,
)

np = _LazyNumpy(globals())
_module = sys.modules[__name__]

LIGHTLIKE_HARD_TOL = 1e-10
LIGHTLIKE_GUARD_BAND = 1e-6


# C_ij^k of a connection, symmetric in i, j, as the six floats
# (C_11^1, C_11^2, C_12^1, C_12^2, C_22^1, C_22^2)
Coeffs6 = tuple[float, float, float, float, float, float]


# position of C_ij^k in a Coeffs6, and of rho_ij in (rho_11, rho_12, rho_22),
# as lists: numpy takes a list as an index array, and a module-level
# array would import numpy with this module
_COEFF_INDEX = [[[0, 1], [2, 3]], [[2, 3], [4, 5]]]
_RHO_INDEX = [[0, 1], [1, 2]]


def coeff_array(c: Coeffs6) -> np.ndarray:
    """[i, j, k] -> C_ij^k as a read-only (2, 2, 2) array."""
    return _read_only(np.array(c)[_COEFF_INDEX])


class ConnectionCoeffs(NamedTuple):
    """Both connections at one point, as Python floats; ``gamma``,
    ``xi_coeffs`` and ``rho`` are read-only arrays built on each access."""

    gamma6: Coeffs6  # Levi-Civita gamma_ij^k
    xi6: Coeffs6  # relative xi_ij^k
    rho3: tuple[float, float, float]  # (rho_11, rho_12, rho_22)
    denom: float
    unreliable: bool  # inside the near-lightlike guard band
    frame: PointFrame

    @property
    def gamma(self) -> np.ndarray:
        return coeff_array(self.gamma6)

    @property
    def xi_coeffs(self) -> np.ndarray:
        return coeff_array(self.xi6)

    @property
    def rho(self) -> np.ndarray:
        return _read_only(np.array(self.rho3)[_RHO_INDEX])


def coeffs_at(s: SurfacePatch, u: float, v: float) -> ConnectionCoeffs:
    return _module.coeffs_of_frame(frame_at(s, u, v))


# The connections' arithmetic as templates over the frame lines' names
# (``surface.frame_lines``); the only copy, run by the functions below and
# by the geodesic stage kernels.  Levi-Civita: the top-view solve
# [x1_top x2_top] @ (ga_ij^1, ga_ij^2) = (x_ij)_top, regular even at
# lightlike points
def gamma_lines(w: ex.Lines) -> None:
    xu, xv, yu, yv, m12 = w.get("xu xv yu yv m12")
    for ij, d in (("11", "uu"), ("12", "uv"), ("22", "vv")):
        xij, yij = w.get(f"x{d} y{d}")
        w.let(f"ga{ij}1, ga{ij}2", (xij * yv - yij * xv) / m12, (xu * yij - yu * xij) / m12)


# d_k denom, for k = 1, 2, from the formulas of the module docstring: with
# S^2 = 1 these are the same lines in both spaces, over the frame's a and b
DENOM_GRADIENT_LINES = (
    "dd1 = -(a * (yv * h11 - yu * h12) + b * (xu * h12 - xv * h11)) / m12",
    "dd2 = -(a * (yv * h12 - yu * h22) + b * (xu * h22 - xv * h12)) / m12",
)
RELATIVE_GLOBALS = {"LIGHTLIKE_HARD_TOL": LIGHTLIKE_HARD_TOL, "LightlikePoint": LightlikePoint}


def relative_lines(w: ex.Lines, kind: SpaceKind) -> None:
    """denom = |xi_top|^2 + xi_z, rho and the relative coefficients
    xi111 ... xi222, after ``gamma_lines``; LightlikePoint where denom
    vanishes."""
    a, b, xi_z = w.get("a b xi_z")
    w.let("denom", (a * a + b * b if kind is SpaceKind.SIMPLY_ISOTROPIC else a * a - b * b) + xi_z)
    denom, h11, h12, h22, g11, g12, g22, det_g, zu, zv = w.get("denom h11 h12 h22 g11 g12 g22 det_g zu zv")
    w.line(
        f"if abs({denom}) <= LIGHTLIKE_HARD_TOL:",
        "    raise LightlikePoint(f'relative connection singular at (u={u!r}, v={v!r})')",
    )
    r11, r12, r22 = w.let("r11, r12, r22", h11 / denom, h12 / denom, h22 / denom)
    # g^{kl} (x_l)_z
    inv11, inv12, inv22 = w.let("inv11, inv12, inv22", g22 / det_g, -g12 / det_g, g11 / det_g)
    (c1,) = w.let("c1", inv11 * zu + inv12 * zv)
    (c2,) = w.let("c2", inv12 * zu + inv22 * zv)
    ga111, ga112, ga121, ga122, ga221, ga222 = w.get("ga111 ga112 ga121 ga122 ga221 ga222")
    w.let("xi111, xi121, xi221", ga111 + c1 * r11, ga121 + c1 * r12, ga221 + c1 * r22)
    w.let("xi112, xi122, xi222", ga112 + c2 * r11, ga122 + c2 * r12, ga222 + c2 * r22)


def _of_frame(doc: str, signature: str, *lines: str) -> Callable:
    """A function of the frame ``f`` that runs ``lines`` on its fields."""
    namespace = {
        **RELATIVE_GLOBALS, "SpaceKind": SpaceKind, "ConnectionCoeffs": ConnectionCoeffs,
        "LIGHTLIKE_GUARD_BAND": LIGHTLIKE_GUARD_BAND,
    }
    return ex.compile_function(signature, [repr(doc), f"{FRAME_NAMES} = f", *lines], namespace)


# compiled on the first read of the module's attribute, as surface's
# frame_of_jet: a geodesic process reads only the templates
def __getattr__(name: str):
    if name not in ("coeffs_of_frame", "denom_gradient_of_frame"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals().update(
        denom_gradient_of_frame=_of_frame(
            "Exact gradient (d1 denom, d2 denom) in the frame's own coordinates.",
            "denom_gradient_of_frame(f)", *DENOM_GRADIENT_LINES, "return dd1, dd2",
        ),
        coeffs_of_frame=_of_frame(
            "Both connections at a frame; raises LightlikePoint where the relative\n"
            "one is singular (denom vanishes).",
            "coeffs_of_frame(f)", *ex.template_lines(gamma_lines), *by_kind(relative_lines),
            "return ConnectionCoeffs((ga111, ga112, ga121, ga122, ga221, ga222),"
            " (xi111, xi112, xi121, xi122, xi221, xi222), (r11, r12, r22), denom,"
            " abs(denom) < LIGHTLIKE_GUARD_BAND, f)",
        ),
    )
    return globals()[name]


# column of each PointFrame field in an array of frames, which drops ``kind``
_COLUMN = {name: i for i, name in enumerate(PointFrame._fields[1:])}


def _frame_arrays(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x_l as [..., l, component] and x_ij as [..., i, j, component], from
    PointFrame fields after ``kind`` along the last axis."""
    x = frames[..., _COLUMN["x1_x"]:_COLUMN["x22_z"] + 1].reshape(*frames.shape[:-1], 5, 3)
    return x[..., :2, :], x[..., [[2, 3], [3, 4]], :]


# the diagonal of S = diag(1, +/-1) in each space
_S = {SpaceKind.SIMPLY_ISOTROPIC: (1.0, 1.0), SpaceKind.PSEUDO_ISOTROPIC: (1.0, -1.0)}

# [i, j, k] -> position of x_ijk among the third partials (uuu, uuv, uvv, vvv)
_THIRD_INDEX = [[[0, 1], [1, 2]], [[1, 2], [2, 3]]]


# Both connections with exact partials in frame coordinates, at one point
# or, behind a leading point axis, at each point of a batch, whose
# ``coeffs`` is a tuple: d_gamma and d_xi are [i, j, k, l] = d_k C_ij^l,
# d_rho and d_h [i, j, k] = d_k F_ij, gamma and xi [i, j, k] = C_ij^k, rho,
# h, g and g_inv [i, j], and det_g and denom have no index.
CoeffDerivatives = namedtuple(
    "CoeffDerivatives", "coeffs d_gamma d_xi d_rho d_h gamma xi rho h g g_inv det_g denom"
)


def sample_at(s: SurfacePatch, u: float, v: float) -> tuple[ConnectionCoeffs, tuple, tuple]:
    """The record at (u, v), each part evaluated once: the coefficients at
    the frame of the order-3 jet, (d1 denom, d2 denom) and the third
    partials (uuu, uuv, uvv, vvv) of x, y and z.  Raises what the jet, the
    frame and the relative connection raise, in that order."""
    jet = s.jet3_kernel(u, v)
    coeffs = _module.coeffs_of_frame(srf.frame_of_jet(s.kind, u, v, jet[:18]))
    return coeffs, _module.denom_gradient_of_frame(coeffs.frame), jet[18:]


def coeff_derivatives(records: Iterable[tuple]) -> CoeffDerivatives:
    """Each formula of the module docstring as one numpy call, at the
    records in their order, which may come from any patches of either
    space; the records are read, not evaluated again."""
    coeffs, grads, thirds = zip(*records)
    frames = np.array([c.frame[1:] for c in coeffs])

    def fields(first: str, last: str) -> np.ndarray:
        return frames[:, _COLUMN[first]:_COLUMN[last] + 1]

    third = np.array(thirds).reshape(-1, 3, 4)  # [point, component, number of v's]
    swapped = [c.frame.swapped for c in coeffs]  # whose first coordinate is v
    third[swapped] = third[swapped, :, ::-1]
    x3 = np.moveaxis(third[..., _THIRD_INDEX], -4, -1)  # [point, i, j, k, component]
    x1, x2 = _frame_arrays(frames)
    g, h = fields("g11", "g22")[:, _RHO_INDEX], fields("h11", "h22")[:, _RHO_INDEX]
    det_g, m12 = frames[:, _COLUMN["det_g"]], frames[:, _COLUMN["m12"]]
    # the adjugates [[x2_y, -x2_x], [-x1_y, x1_x]] and [[g22, -g12], [-g12, g11]]
    m_inv = x1[:, ::-1, 1::-1] * [[1.0, -1.0], [-1.0, 1.0]] / m12[:, None, None]
    g_inv = g[:, ::-1, ::-1] * [[1.0, -1.0], [-1.0, 1.0]] / det_g[:, None, None]
    gamma = np.array([c.gamma6 for c in coeffs])[:, _COEFF_INDEX]
    xi = np.array([c.xi6 for c in coeffs])[:, _COEFF_INDEX]
    rho = np.array([c.rho3 for c in coeffs])[:, _RHO_INDEX]
    denom = np.array([c.denom for c in coeffs])

    d_gamma = np.einsum(
        "...lm,...ijkm->...ijkl",
        m_inv, x3[..., :2] - np.einsum("...ijm,...mkn->...ijkn", gamma, x2[..., :2]),
    )
    d_h = (
        x3[..., 2]
        - np.einsum("...ijkl,...l->...ijk", d_gamma, x1[..., 2])
        - np.einsum("...ijl,...lk->...ijk", gamma, x2[..., 2])
    )
    d_rho = (d_h - rho[..., None] * np.array(grads)[:, None, None]) / denom[:, None, None, None]
    # a stacked matmul, not an einsum: it rounds as the product at one point does
    w = (m_inv @ fields("xi_x", "xi_y")[..., None])[..., 0]
    # (n_h)_k is (d_k xi_top, 0) and <n_h, x_l> = 0, so <(n_h)_k, x_l> = -h_lk
    # times S of each point's space, by 1.0 or -1.0: exact, as at one point
    s_diag = np.array([_S[c.frame.kind] for c in coeffs])[:, None]
    d_xi_top = -np.einsum("...lm,...lk->...km", m_inv, h) * s_diag
    d_w = np.einsum("...lm,...km->...kl", m_inv, d_xi_top - np.einsum("...m,...mkn->...kn", w, x2[..., :2]))
    d_xi = d_gamma - d_rho[..., None] * w[:, None, None, None] - rho[..., None, None] * d_w[:, None, None]
    return CoeffDerivatives(coeffs, d_gamma, d_xi, d_rho, d_h, gamma, xi, rho, h, g, g_inv, det_g, denom)


def coeff_derivatives_at(s: SurfacePatch, u: float, v: float) -> CoeffDerivatives:
    """``coeff_derivatives`` at the one point (u, v)."""
    return CoeffDerivatives(*(field[0] for field in coeff_derivatives([sample_at(s, u, v)])))


def _point_max(a: np.ndarray, rank: int) -> np.ndarray:
    """max |a| over its last ``rank`` axes: one value per point."""
    return np.abs(a).max(axis=tuple(range(-rank, 0)))


def _curvature_tensor(coef: np.ndarray, d_coef: np.ndarray) -> np.ndarray:
    """R[..., l, i, j, k] from coefficients C[..., i, j, l] and d_coef[..., i, j, k, l]."""
    t = np.einsum("...ijkl->...lijk", d_coef) + np.einsum("...ijs,...ksl->...lijk", coef, coef)
    return t - t.swapaxes(-2, -1)


def _relative_tensors(b: CoeffDerivatives) -> tuple[np.ndarray, np.ndarray]:
    """The relative curvature tensor R^e_abc and g_ed R^e_abc, [..., d, a, b, c]."""
    r_rel = _curvature_tensor(b.xi, b.d_xi)
    return r_rel, np.einsum("...ed,...eabc->...dabc", b.g, r_rel)


def flatness_residuals(b: CoeffDerivatives) -> np.ndarray:
    """max |R^l_ijk| of the Levi-Civita curvature tensor at each point."""
    return _point_max(_curvature_tensor(b.gamma, b.d_gamma), 4)


class CurvatureTensorSample(NamedTuple):
    r_lc: np.ndarray  # [l, i, j, k] Levi-Civita curvature tensor
    r_rel: np.ndarray  # [l, i, j, k] relative curvature tensor
    r_lowered: np.ndarray  # [d, a, b, c] = g_ed R^e_abc (relative)
    coeffs: ConnectionCoeffs


def curvature_tensors_at(s: SurfacePatch, u: float, v: float) -> CurvatureTensorSample:
    d = coeff_derivatives_at(s, u, v)
    return CurvatureTensorSample(_curvature_tensor(d.gamma, d.d_gamma), *_relative_tensors(d), d.coeffs)


class EgregiumResult(NamedTuple):
    k_from_tensor: float
    k_extrinsic: float
    rel_err: float
    abs_err: float


def egregium_checks(b: CoeffDerivatives) -> Iterator[EgregiumResult]:
    """Both sides of K = denom * R_2112 / det(g) at each point of the batch
    ``b``: the left uses only the relative connection and Gauss map, the
    right the extrinsic forms."""
    r_lowered = _relative_tensors(b)[1]
    for k_tensor, c in zip((b.denom * r_lowered[:, 1, 0, 0, 1] / b.det_g).tolist(), b.coeffs):
        k_ext = srf.gaussian_curvature(c.frame)
        abs_err = abs(k_tensor - k_ext)
        yield EgregiumResult(k_tensor, k_ext, abs_err / abs(k_ext) if k_ext != 0.0 else math.inf, abs_err)


def egregium_check(s: SurfacePatch, u: float, v: float) -> EgregiumResult:
    return next(egregium_checks(coeff_derivatives([sample_at(s, u, v)])))


class CodazziResiduals(NamedTuple):
    relative: float  # max |rho_ab,c - rho_ac,b + xi_ab^d rho_cd - xi_ac^d rho_bd|
    levi_civita: float  # max |h_ab,c - h_ac,b + gamma_ab^d h_dc - gamma_ac^d h_db|


def codazzi_residuals(b: CoeffDerivatives) -> CodazziResiduals:
    """Both Codazzi residuals at each point of the batch ``b``, as arrays."""

    def residual(d_form: np.ndarray, coef: np.ndarray, form: np.ndarray) -> np.ndarray:
        t = d_form + np.einsum("...abd,...cd->...abc", coef, form)
        return _point_max(t - t.swapaxes(-2, -1), 3)

    return CodazziResiduals(residual(b.d_rho, b.xi, b.rho), residual(b.d_h, b.gamma, b.h))


def codazzi_residual(s: SurfacePatch, u: float, v: float) -> CodazziResiduals:
    return CodazziResiduals(*map(float, codazzi_residuals(coeff_derivatives_at(s, u, v))))


def gauss_rhs(b: CoeffDerivatives) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three equivalent right-hand sides of the Gauss equation for the
    relative connection at each point of the batch ``b``, each indexed
    [..., e, a, b, c]:

        (rho_ab h_cd  - rho_ac h_bd ) g^{ed}
        (h_ab   h_cd  - h_ac   h_bd ) g^{ed} / denom
        (rho_ab rho_cd - rho_ac rho_bd) g^{ed} * denom
    """

    def form(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        t = np.einsum("...ab,...cd,...ed->...eabc", left, right, b.g_inv)
        return t - t.swapaxes(-2, -1)

    denom = b.denom[..., None, None, None, None]
    return form(b.rho, b.h), form(b.h, b.h) / denom, form(b.rho, b.rho) * denom


def gauss_equation_rhs(s: SurfacePatch, u: float, v: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``gauss_rhs`` at the one point (u, v), each side indexed [e, a, b, c]."""
    return gauss_rhs(coeff_derivatives_at(s, u, v))


def gauss_residuals(b: CoeffDerivatives) -> np.ndarray:
    """max |difference| of the Gauss sides (1, 2), (2, 3) and (1, 3), in
    that order along the last axis, at each point of the batch ``b``."""
    rhs1, rhs2, rhs3 = gauss_rhs(b)
    return np.stack([_point_max(x - y, 4) for x, y in ((rhs1, rhs2), (rhs2, rhs3), (rhs1, rhs3))], axis=-1)
