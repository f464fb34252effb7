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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import expr as ex
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
    frame_of_jet,
    gaussian_curvature,
)

np = _LazyNumpy(globals())

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
    f = frame_at(s, u, v)
    return coeffs_of_frame(f)


def denom_at(s: SurfacePatch, u: float, v: float) -> float:
    return denom_of_frame(frame_at(s, u, v))


def denom_gradient_of_frame(f: PointFrame) -> tuple[float, float]:
    """Exact gradient of denom = (1 + A^2 +/- B^2) / 2 in the frame's own
    coordinates.  A = m23/m12 and B = +/-m31/m12, so only the minors'
    derivatives are needed, and the 2-jet gives those."""
    x1, x2 = (f.x1_x, f.x1_y, f.x1_z), (f.x2_x, f.x2_y, f.x2_z)

    def d_minor(i: int, j: int, d1: tuple, d2: tuple) -> float:
        # derivative of x1_i x2_j - x1_j x2_i, given the derivatives d1, d2
        # of x1 and x2 along one coordinate
        return d1[i] * x2[j] + x1[i] * d2[j] - d1[j] * x2[i] - x1[j] * d2[i]

    a = f.m23 / f.m12
    b = f.m31 / f.m12  # B up to sign; denom depends on B^2 only
    sign = 1.0 if f.kind is SpaceKind.SIMPLY_ISOTROPIC else -1.0
    grad = []
    x11, x12 = (f.x11_x, f.x11_y, f.x11_z), (f.x12_x, f.x12_y, f.x12_z)
    x22 = (f.x22_x, f.x22_y, f.x22_z)
    for d1, d2 in ((x11, x12), (x12, x22)):
        dm12 = d_minor(0, 1, d1, d2)
        da = (d_minor(1, 2, d1, d2) - a * dm12) / f.m12
        db = (d_minor(2, 0, d1, d2) - b * dm12) / f.m12
        grad.append(a * da + sign * b * db)
    return grad[0], grad[1]


# The connections' arithmetic as source lines, from the frame lines' names
# (``surface.frame_lines``); the only copy, run by the functions below and
# by the compiled geodesic stages.  Levi-Civita: the top-view solve
# [x1_top x2_top] @ (ga_ij^1, ga_ij^2) = (x_ij)_top, regular even at
# lightlike points
GAMMA_LINES = (
    "ga111, ga112 = (xuu * yv - yuu * xv) / m12, (xu * yuu - yu * xuu) / m12",
    "ga121, ga122 = (xuv * yv - yuv * xv) / m12, (xu * yuv - yu * xuv) / m12",
    "ga221, ga222 = (xvv * yv - yvv * xv) / m12, (xu * yvv - yu * xvv) / m12",
)
RELATIVE_GLOBALS = {"LIGHTLIKE_HARD_TOL": LIGHTLIKE_HARD_TOL, "LightlikePoint": LightlikePoint}


def denom_lines(kind: SpaceKind) -> tuple[str, ...]:
    """denom = |xi_top|^2 + xi_z."""
    return (f"denom = a * a {'+' if kind is SpaceKind.SIMPLY_ISOTROPIC else '-'} b * b + xi_z",)


def relative_lines(kind: SpaceKind) -> tuple[str, ...]:
    """rho, denom and the relative coefficients xi111 ... xi222, after
    ``GAMMA_LINES``; LightlikePoint where denom vanishes."""
    return (
        *denom_lines(kind),
        "if abs(denom) <= LIGHTLIKE_HARD_TOL:",
        "    raise LightlikePoint(f'relative connection singular at (u={u!r}, v={v!r})')",
        "r11, r12, r22 = h11 / denom, h12 / denom, h22 / denom",
        # g^{kl} (x_l)_z
        "inv11, inv12, inv22 = g22 / det_g, -g12 / det_g, g11 / det_g",
        "c1 = inv11 * zu + inv12 * zv",
        "c2 = inv12 * zu + inv22 * zv",
        "xi111, xi121, xi221 = ga111 + c1 * r11, ga121 + c1 * r12, ga221 + c1 * r22",
        "xi112, xi122, xi222 = ga112 + c2 * r11, ga122 + c2 * r12, ga222 + c2 * r22",
    )


def _of_frame(doc: str, signature: str, *lines: str) -> Callable:
    """A function of the frame ``f`` that runs ``lines`` on its fields."""
    namespace = {
        **RELATIVE_GLOBALS, "SpaceKind": SpaceKind, "ConnectionCoeffs": ConnectionCoeffs,
        "LIGHTLIKE_GUARD_BAND": LIGHTLIKE_GUARD_BAND,
    }
    return ex.compile_function(signature, [repr(doc), f"{FRAME_NAMES} = f", *lines], namespace)


denom_of_frame = _of_frame(
    "|xi_top|^2 + xi_z without solving for the coefficients.",
    "denom_of_frame(f)", *by_kind(denom_lines), "return denom",
)
gamma6_of_frame = _of_frame(
    "Levi-Civita coefficients alone; regular even at lightlike points.",
    "gamma6_of_frame(f)", *GAMMA_LINES, "return (ga111, ga112, ga121, ga122, ga221, ga222)",
)
coeffs_of_frame = _of_frame(
    "Both connections at a frame; raises LightlikePoint where the relative\n"
    "one is singular (denom vanishes).",
    "coeffs_of_frame(f)", *GAMMA_LINES, *by_kind(relative_lines),
    "return ConnectionCoeffs((ga111, ga112, ga121, ga122, ga221, ga222),"
    " (xi111, xi112, xi121, xi122, xi221, xi222), (r11, r12, r22), denom,"
    " abs(denom) < LIGHTLIKE_GUARD_BAND, f)",
)


def _frame_arrays(f: PointFrame) -> tuple[np.ndarray, np.ndarray]:
    """x_l as [l, component] and x_ij as [i, j, component]."""
    x12 = (f.x12_x, f.x12_y, f.x12_z)
    x_ij = np.array([[(f.x11_x, f.x11_y, f.x11_z), x12], [x12, (f.x22_x, f.x22_y, f.x22_z)]])
    return np.array([(f.x1_x, f.x1_y, f.x1_z), (f.x2_x, f.x2_y, f.x2_z)]), x_ij


def reassemble_second_derivatives(c: ConnectionCoeffs) -> tuple[float, float]:
    """Max reconstruction error of x_ij from each decomposition; both are
    ~1e-10 at healthy points and validate the coefficient formulas."""
    x1, x2 = _frame_arrays(c.frame)
    lc = np.einsum("ijk,kc->ijc", c.gamma, x1)
    lc[..., 2] += c.rho * c.denom  # h_ij
    rel = np.einsum("ijk,kc->ijc", c.xi_coeffs, x1) + c.rho[..., None] * c.frame.xi.as_tuple()
    return float(np.abs(lc - x2).max()), float(np.abs(rel - x2).max())


# [i, j, k] -> position of x_ijk among the third partials (uuu, uuv, uvv, vvv)
_THIRD_INDEX = [[[0, 1], [1, 2]], [[1, 2], [2, 3]]]


class CoeffDerivatives(NamedTuple):
    """Both connections at one point, with exact partials in frame coordinates."""

    coeffs: ConnectionCoeffs
    d_gamma: np.ndarray  # [i, j, k, l] = d_k gamma_ij^l
    d_xi: np.ndarray  # [i, j, k, l] = d_k xi_ij^l
    d_rho: np.ndarray  # [i, j, k] = d_k rho_ij
    d_h: np.ndarray  # [i, j, k] = d_k h_ij


def coeff_derivatives_at(s: SurfacePatch, u: float, v: float) -> CoeffDerivatives:
    """One order-3 jet at (u, v) and the formulas of the module docstring;
    raises LightlikePoint where ``coeffs_of_frame`` does."""
    jet = s.jet3_kernel(u, v)
    f = frame_of_jet(s.kind, u, v, jet[:18])
    c = coeffs_of_frame(f)
    third = np.array(jet[18:]).reshape(3, 4)  # [component, number of v's]
    if f.swapped:
        third = third[:, ::-1]
    x3 = np.moveaxis(third[:, _THIRD_INDEX], 0, -1)  # [i, j, k, component]
    x1, x2 = _frame_arrays(f)
    m_inv = np.array([[f.x2_y, -f.x2_x], [-f.x1_y, f.x1_x]]) / f.m12
    gamma, rho = c.gamma, c.rho

    d_gamma = np.einsum(
        "lm,ijkm->ijkl", m_inv, x3[..., :2] - np.einsum("ijm,mkn->ijkn", gamma, x2[..., :2])
    )
    d_h = (
        x3[..., 2]
        - np.einsum("ijkl,l->ijk", d_gamma, x1[:, 2])
        - np.einsum("ijl,lk->ijk", gamma, x2[..., 2])
    )
    d_rho = (d_h - rho[:, :, None] * np.array(denom_gradient_of_frame(f))) / c.denom
    w = m_inv @ np.array([f.xi_x, f.xi_y])
    # (n_h)_k is (d_k xi_top, 0) and <n_h, x_l> = 0, so <(n_h)_k, x_l> = -h_lk
    sign = 1.0 if f.kind is SpaceKind.SIMPLY_ISOTROPIC else -1.0
    d_xi_top = -np.einsum("lm,lk->km", m_inv, f.h) * (1.0, sign)
    d_w = np.einsum("lm,km->kl", m_inv, d_xi_top - np.einsum("m,mkn->kn", w, x2[..., :2]))
    d_xi = d_gamma - d_rho[..., None] * w - rho[:, :, None, None] * d_w
    return CoeffDerivatives(c, d_gamma, d_xi, d_rho, d_h)


def _curvature_tensor(coef: np.ndarray, d_coef: np.ndarray) -> np.ndarray:
    """R[l, i, j, k] from coefficients C[i, j, l] and d_coef[i, j, k, l]."""
    t = np.einsum("ijkl->lijk", d_coef) + np.einsum("ijs,ksl->lijk", coef, coef)
    return t - t.swapaxes(2, 3)


@dataclass(frozen=True)
class CurvatureTensorSample:
    r_lc: np.ndarray  # [l, i, j, k] Levi-Civita curvature tensor
    r_rel: np.ndarray  # [l, i, j, k] relative curvature tensor
    r_lowered: np.ndarray  # [d, a, b, c] = g_ed R^e_abc (relative)
    coeffs: ConnectionCoeffs


def curvature_tensors_at(s: SurfacePatch, u: float, v: float) -> CurvatureTensorSample:
    d = coeff_derivatives_at(s, u, v)
    r_lc = _curvature_tensor(d.coeffs.gamma, d.d_gamma)
    r_rel = _curvature_tensor(d.coeffs.xi_coeffs, d.d_xi)
    r_low = np.einsum("ed,eabc->dabc", d.coeffs.frame.g, r_rel)
    return CurvatureTensorSample(r_lc=r_lc, r_rel=r_rel, r_lowered=r_low, coeffs=d.coeffs)


@dataclass(frozen=True)
class EgregiumResult:
    k_from_tensor: float
    k_extrinsic: float
    rel_err: float
    abs_err: float


def egregium_check(s: SurfacePatch, u: float, v: float) -> EgregiumResult:
    """Both sides of K = denom * R_2112 / det(g): the left uses only the
    relative connection and Gauss map, the right the extrinsic forms."""
    sample = curvature_tensors_at(s, u, v)
    f = sample.coeffs.frame
    k_tensor = sample.coeffs.denom * sample.r_lowered[1, 0, 0, 1] / f.det_g
    k_ext = gaussian_curvature(f)
    abs_err = abs(k_tensor - k_ext)
    rel_err = abs_err / abs(k_ext) if k_ext != 0.0 else math.inf
    return EgregiumResult(k_tensor, k_ext, rel_err, abs_err)


@dataclass(frozen=True)
class CodazziResiduals:
    relative: float  # max |rho_ab,c - rho_ac,b + xi_ab^d rho_cd - xi_ac^d rho_bd|
    levi_civita: float  # max |h_ab,c - h_ac,b + gamma_ab^d h_dc - gamma_ac^d h_db|


def _codazzi(d_form: np.ndarray, coef: np.ndarray, form: np.ndarray) -> float:
    """max over a, b, c of |F_ab,c - F_ac,b + C_ab^d F_cd - C_ac^d F_bd|."""
    t = d_form + np.einsum("abd,cd->abc", coef, form)
    return float(np.abs(t - t.swapaxes(1, 2)).max())


def codazzi_residual(s: SurfacePatch, u: float, v: float) -> CodazziResiduals:
    return _codazzi_of_derivatives(coeff_derivatives_at(s, u, v))


def _codazzi_of_derivatives(d: CoeffDerivatives) -> CodazziResiduals:
    c = d.coeffs
    return CodazziResiduals(
        relative=_codazzi(d.d_rho, c.xi_coeffs, c.rho),
        levi_civita=_codazzi(d.d_h, c.gamma, c.frame.h),
    )


def gauss_equation_rhs(
    s: SurfacePatch, u: float, v: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three equivalent right-hand sides of the Gauss equation for the
    relative connection, each indexed [e, a, b, c]:

        (rho_ab h_cd  - rho_ac h_bd ) g^{ed}
        (h_ab   h_cd  - h_ac   h_bd ) g^{ed} / denom
        (rho_ab rho_cd - rho_ac rho_bd) g^{ed} * denom
    """
    return _gauss_rhs_of_coeffs(coeffs_at(s, u, v))


def _gauss_rhs_of_coeffs(c: ConnectionCoeffs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    g_inv, h, rho = c.frame.g_inv, c.frame.h, c.rho

    def form(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        t = np.einsum("ab,cd,ed->eabc", left, right, g_inv)
        return t - t.swapaxes(2, 3)

    return form(rho, h), form(h, h) / c.denom, form(rho, rho) * c.denom
