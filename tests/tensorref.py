"""Per-point reference for the batched tensor code of ``isogeo.connection``.

The same formulas as the module docstring there, evaluated one point at a
time on (2, 2, ...) arrays with no leading point axis, as the package did
before it batched the points of a patch.  The batched code must match
these functions bit for bit, errors (type and message) included.
``denom_gradient_by_minors`` is the gradient of denom as the package
derived it before it read it off the Gauss map's derivative: from the
derivatives of the minors, an independent derivation to compare with.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from isogeo.connection import (
    _THIRD_INDEX,
    CodazziResiduals,
    CurvatureTensorSample,
    EgregiumResult,
    coeffs_at,
    coeffs_of_frame,
    denom_gradient_of_frame,
)
from isogeo.isotropy import SpaceKind
from isogeo.surface import PointFrame, frame_at, frame_of_jet, gaussian_curvature

CoeffDerivatives = namedtuple("CoeffDerivatives", "coeffs d_gamma d_xi d_rho d_h")


def _frame_arrays(f):
    """x_l as [l, component] and x_ij as [i, j, component]."""
    x12 = (f.x12_x, f.x12_y, f.x12_z)
    x_ij = np.array([[(f.x11_x, f.x11_y, f.x11_z), x12], [x12, (f.x22_x, f.x22_y, f.x22_z)]])
    return np.array([(f.x1_x, f.x1_y, f.x1_z), (f.x2_x, f.x2_y, f.x2_z)]), x_ij


def denom_of_frame(f: PointFrame) -> float:
    """|xi_top|^2 + xi_z, as ``connection.relative_lines`` computes it
    before it solves for the coefficients."""
    a, b = f.xi_x, f.xi_y
    return (a * a + b * b if f.kind is SpaceKind.SIMPLY_ISOTROPIC else a * a - b * b) + f.xi_z


def denom_at(s, u: float, v: float) -> float:
    return denom_of_frame(frame_at(s, u, v))


def denom_gradient_by_minors(f: PointFrame) -> tuple[float, float]:
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


def reassemble_second_derivatives(c) -> tuple[float, float]:
    """Max reconstruction error of x_ij from each decomposition of the
    coefficients ``c``; both are ~1e-10 at healthy points and validate the
    coefficient formulas."""
    x1, x2 = _frame_arrays(c.frame)
    lc = np.einsum("ijk,kc->ijc", c.gamma, x1)
    lc[..., 2] += c.rho * c.denom  # h_ij
    rel = np.einsum("ijk,kc->ijc", c.xi_coeffs, x1) + c.rho[..., None] * c.frame.xi.as_tuple()
    return float(np.abs(lc - x2).max()), float(np.abs(rel - x2).max())


def coeff_derivatives_at(s, u: float, v: float) -> CoeffDerivatives:
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
    sign = 1.0 if f.kind is SpaceKind.SIMPLY_ISOTROPIC else -1.0
    d_xi_top = -np.einsum("lm,lk->km", m_inv, f.h) * (1.0, sign)
    d_w = np.einsum("lm,km->kl", m_inv, d_xi_top - np.einsum("m,mkn->kn", w, x2[..., :2]))
    d_xi = d_gamma - d_rho[..., None] * w - rho[:, :, None, None] * d_w
    return CoeffDerivatives(c, d_gamma, d_xi, d_rho, d_h)


def curvature_tensor(coef, d_coef):
    """R[l, i, j, k] from coefficients C[i, j, l] and d_coef[i, j, k, l]."""
    t = np.einsum("ijkl->lijk", d_coef) + np.einsum("ijs,ksl->lijk", coef, coef)
    return t - t.swapaxes(2, 3)


def curvature_tensors_at(s, u: float, v: float) -> CurvatureTensorSample:
    d = coeff_derivatives_at(s, u, v)
    r_lc = curvature_tensor(d.coeffs.gamma, d.d_gamma)
    r_rel = curvature_tensor(d.coeffs.xi_coeffs, d.d_xi)
    r_low = np.einsum("ed,eabc->dabc", d.coeffs.frame.g, r_rel)
    return CurvatureTensorSample(r_lc=r_lc, r_rel=r_rel, r_lowered=r_low, coeffs=d.coeffs)


def egregium_check(s, u: float, v: float) -> EgregiumResult:
    sample = curvature_tensors_at(s, u, v)
    f = sample.coeffs.frame
    k_tensor = sample.coeffs.denom * sample.r_lowered[1, 0, 0, 1] / f.det_g
    k_ext = gaussian_curvature(f)
    abs_err = abs(k_tensor - k_ext)
    rel_err = abs_err / abs(k_ext) if k_ext != 0.0 else math.inf
    return EgregiumResult(k_tensor, k_ext, rel_err, abs_err)


def codazzi(d_form, coef, form) -> float:
    t = d_form + np.einsum("abd,cd->abc", coef, form)
    return float(np.abs(t - t.swapaxes(1, 2)).max())


def codazzi_of_derivatives(d: CoeffDerivatives) -> CodazziResiduals:
    c = d.coeffs
    return CodazziResiduals(
        relative=codazzi(d.d_rho, c.xi_coeffs, c.rho),
        levi_civita=codazzi(d.d_h, c.gamma, c.frame.h),
    )


def codazzi_residual(s, u: float, v: float) -> CodazziResiduals:
    return codazzi_of_derivatives(coeff_derivatives_at(s, u, v))


def gauss_rhs_of_coeffs(c):
    g_inv, h, rho = c.frame.g_inv, c.frame.h, c.rho

    def form(left, right):
        t = np.einsum("ab,cd,ed->eabc", left, right, g_inv)
        return t - t.swapaxes(2, 3)

    return form(rho, h), form(h, h) / c.denom, form(rho, rho) * c.denom


def gauss_equation_rhs(s, u: float, v: float):
    return gauss_rhs_of_coeffs(coeffs_at(s, u, v))
