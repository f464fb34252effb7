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

for either family of coefficients C.  Coefficient derivatives are
fourth-order central differences (a 9-point stencil: steps of h and 2h
along each parameter) with a caller-controlled step h, taken by
re-deriving the coefficients from scratch at the stencil points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LightlikePoint, StencilOrientationFlip, StencilOutsideDomain
from .isotropy import SpaceKind
from .surface import PointFrame, SurfacePatch, frame_at

LIGHTLIKE_HARD_TOL = 1e-10
LIGHTLIKE_GUARD_BAND = 1e-6


def default_fd_step(s: SurfacePatch) -> float:
    """1e-4 of the domain diameter; balances truncation against
    cancellation for 64-bit floats."""
    return 1e-4 * s.domain_diameter()


@dataclass(frozen=True)
class ConnectionCoeffs:
    gamma: np.ndarray  # [i, j, k] -> gamma_ij^k, symmetric in i, j
    xi_coeffs: np.ndarray  # [i, j, k] -> xi_ij^k
    rho: np.ndarray  # [i, j], symmetric
    denom: float
    unreliable: bool  # inside the near-lightlike guard band
    frame: PointFrame


def coeffs_at(s: SurfacePatch, u: float, v: float) -> ConnectionCoeffs:
    f = frame_at(s, u, v)
    return coeffs_of_frame(f)


def denom_of_frame(f: PointFrame) -> float:
    """|xi_top|^2 + xi_z without solving for the coefficients."""
    if f.kind is SpaceKind.SIMPLY_ISOTROPIC:
        return f.xi.x * f.xi.x + f.xi.y * f.xi.y + f.xi.z
    return f.xi.x * f.xi.x - f.xi.y * f.xi.y + f.xi.z


def denom_at(s: SurfacePatch, u: float, v: float) -> float:
    return denom_of_frame(frame_at(s, u, v))


def denom_gradient_of_frame(f: PointFrame) -> tuple[float, float]:
    """Exact gradient of denom = (1 + A^2 +/- B^2) / 2 in the frame's own
    coordinates.  A = m23/m12 and B = +/-m31/m12, so only the minors'
    derivatives are needed, and the 2-jet gives those."""
    x1, x2 = f.x1.as_tuple(), f.x2.as_tuple()

    def d_minor(i: int, j: int, d1: tuple, d2: tuple) -> float:
        # derivative of x1_i x2_j - x1_j x2_i, given the derivatives d1, d2
        # of x1 and x2 along one coordinate
        return d1[i] * x2[j] + x1[i] * d2[j] - d1[j] * x2[i] - x1[j] * d2[i]

    a = f.m23 / f.m12
    b = f.m31 / f.m12  # B up to sign; denom depends on B^2 only
    sign = 1.0 if f.kind is SpaceKind.SIMPLY_ISOTROPIC else -1.0
    grad = []
    for d1, d2 in ((f.x11, f.x12), (f.x12, f.x22)):
        d1, d2 = d1.as_tuple(), d2.as_tuple()
        dm12 = d_minor(0, 1, d1, d2)
        da = (d_minor(1, 2, d1, d2) - a * dm12) / f.m12
        db = (d_minor(2, 0, d1, d2) - b * dm12) / f.m12
        grad.append(a * da + sign * b * db)
    return grad[0], grad[1]


def gamma_of_frame(f: PointFrame) -> np.ndarray:
    """Levi-Civita coefficients alone; regular even at lightlike points."""
    # top-view solve: [x1_top x2_top] @ (gamma_ij^1, gamma_ij^2) = (x_ij)_top
    det = f.m12
    gamma = np.zeros((2, 2, 2))
    second = {(0, 0): f.x11, (0, 1): f.x12, (1, 1): f.x22}
    for (i, j), xij in second.items():
        g1 = (xij.x * f.x2.y - xij.y * f.x2.x) / det
        g2 = (f.x1.x * xij.y - f.x1.y * xij.x) / det
        gamma[i, j, 0] = gamma[j, i, 0] = g1
        gamma[i, j, 1] = gamma[j, i, 1] = g2
    return gamma


def coeffs_of_frame(f: PointFrame) -> ConnectionCoeffs:
    gamma = gamma_of_frame(f)

    denom = denom_of_frame(f)
    if abs(denom) <= LIGHTLIKE_HARD_TOL:
        raise LightlikePoint(
            f"relative connection singular at (u={f.u!r}, v={f.v!r})"
        )

    rho = f.h / denom
    xz = np.array([f.x1.z, f.x2.z])
    correction = f.g_inv @ xz  # g^{kl} (x_l)_z
    xi_coeffs = gamma + correction[np.newaxis, np.newaxis, :] * rho[:, :, np.newaxis]

    return ConnectionCoeffs(
        gamma=gamma,
        xi_coeffs=xi_coeffs,
        rho=rho,
        denom=denom,
        unreliable=abs(denom) < LIGHTLIKE_GUARD_BAND,
        frame=f,
    )


def reassemble_second_derivatives(c: ConnectionCoeffs) -> tuple[float, float]:
    """Max reconstruction error of x_ij from each decomposition; both are
    ~1e-10 at healthy points and validate the coefficient formulas."""
    f = c.frame
    basis = [f.x1, f.x2]
    second = {(0, 0): f.x11, (0, 1): f.x12, (1, 1): f.x22}
    err_lc = 0.0
    err_rel = 0.0
    for (i, j), xij in second.items():
        for comp in range(3):
            x_val = xij.as_tuple()[comp]
            lc = sum(c.gamma[i, j, k] * basis[k].as_tuple()[comp] for k in range(2))
            if comp == 2:
                lc += c.rho[i, j] * c.denom  # h_ij
            rel = sum(
                c.xi_coeffs[i, j, k] * basis[k].as_tuple()[comp] for k in range(2)
            )
            rel += c.rho[i, j] * f.xi.as_tuple()[comp]
            err_lc = max(err_lc, abs(lc - x_val))
            err_rel = max(err_rel, abs(rel - x_val))
    return err_lc, err_rel


@dataclass(frozen=True)
class _Stencil:
    center: ConnectionCoeffs
    # derivative arrays along the frame's own coordinate order
    d_gamma: tuple[np.ndarray, np.ndarray]
    d_xi: tuple[np.ndarray, np.ndarray]
    d_rho: tuple[np.ndarray, np.ndarray]
    d_h: tuple[np.ndarray, np.ndarray]
    fd_step: float


def _stencil(s: SurfacePatch, u: float, v: float, fd_step: float | None) -> _Stencil:
    step = default_fd_step(s) if fd_step is None else fd_step
    # center, then u + h, u - h, u + 2h, u - 2h, then the same along v
    offsets = (step, -step, 2.0 * step, -2.0 * step)
    pts = [(u, v)] + [(u + d, v) for d in offsets] + [(u, v + d) for d in offsets]
    for uu, vv in pts:
        if not s.contains(uu, vv):
            raise StencilOutsideDomain(
                f"stencil point ({uu!r}, {vv!r}) outside domain {s.domain!r}"
            )
    coeffs = [coeffs_at(s, uu, vv) for uu, vv in pts]
    if len({c.frame.swapped for c in coeffs}) != 1:
        raise StencilOrientationFlip(
            f"orientation flips across the stencil at ({u!r}, {v!r}); the point "
            "is too close to an inadmissible locus for finite differencing"
        )
    center = coeffs[0]

    def along(p1, m1, p2, m2):
        """Fourth-order central differences of gamma, xi, rho and h."""
        fields = lambda c: (c.gamma, c.xi_coeffs, c.rho, c.frame.h)
        return tuple(
            (8.0 * (a - b) - (c - d)) / (12.0 * step)
            for a, b, c, d in zip(fields(p1), fields(m1), fields(p2), fields(m2))
        )

    along_u = along(*coeffs[1:5])
    along_v = along(*coeffs[5:9])
    # in a swapped frame the first coordinate is the caller's v
    first, second_ = (along_v, along_u) if center.frame.swapped else (along_u, along_v)
    return _Stencil(
        center=center,
        d_gamma=(first[0], second_[0]),
        d_xi=(first[1], second_[1]),
        d_rho=(first[2], second_[2]),
        d_h=(first[3], second_[3]),
        fd_step=step,
    )


def _curvature_tensor(coef: np.ndarray, dcoef: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """R[l, i, j, k] from coefficients and their partials."""
    r = np.zeros((2, 2, 2, 2))
    for l in range(2):
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    term = dcoef[k][i, j, l] - dcoef[j][i, k, l]
                    for sdx in range(2):
                        term += coef[i, j, sdx] * coef[k, sdx, l]
                        term -= coef[i, k, sdx] * coef[j, sdx, l]
                    r[l, i, j, k] = term
    return r


@dataclass(frozen=True)
class CurvatureTensorSample:
    r_lc: np.ndarray  # [l, i, j, k] Levi-Civita curvature tensor
    r_rel: np.ndarray  # [l, i, j, k] relative curvature tensor
    r_lowered: np.ndarray  # [d, a, b, c] = g_ed R^e_abc (relative)
    fd_step: float
    coeffs: ConnectionCoeffs


def curvature_tensors_at(
    s: SurfacePatch, u: float, v: float, fd_step: float | None = None
) -> CurvatureTensorSample:
    st = _stencil(s, u, v, fd_step)
    r_lc = _curvature_tensor(st.center.gamma, st.d_gamma)
    r_rel = _curvature_tensor(st.center.xi_coeffs, st.d_xi)
    g = st.center.frame.g
    r_low = np.einsum("ed,eabc->dabc", g, r_rel)
    return CurvatureTensorSample(
        r_lc=r_lc, r_rel=r_rel, r_lowered=r_low, fd_step=st.fd_step, coeffs=st.center
    )


@dataclass(frozen=True)
class EgregiumResult:
    k_from_tensor: float
    k_extrinsic: float
    rel_err: float
    abs_err: float


def egregium_check(
    s: SurfacePatch, u: float, v: float, fd_step: float | None = None
) -> EgregiumResult:
    """Both sides of K = denom * R_2112 / det(g): the left uses only the
    relative connection and Gauss map, the right the extrinsic forms."""
    sample = curvature_tensors_at(s, u, v, fd_step)
    f = sample.coeffs.frame
    k_tensor = sample.coeffs.denom * sample.r_lowered[1, 0, 0, 1] / f.det_g
    k_ext = (f.h[0, 0] * f.h[1, 1] - f.h[0, 1] ** 2) / f.det_g
    abs_err = abs(k_tensor - k_ext)
    rel_err = abs_err / abs(k_ext) if k_ext != 0.0 else math.inf
    return EgregiumResult(k_tensor, k_ext, rel_err, abs_err)


@dataclass(frozen=True)
class CodazziResiduals:
    relative: float  # max |rho_ab,c - rho_ac,b + xi_ab^d rho_cd - xi_ac^d rho_bd|
    levi_civita: float  # max |h_ab,c - h_ac,b + gamma_ab^d h_dc - gamma_ac^d h_db|


def codazzi_residual(
    s: SurfacePatch, u: float, v: float, fd_step: float | None = None
) -> CodazziResiduals:
    st = _stencil(s, u, v, fd_step)
    xi_c = st.center.xi_coeffs
    gam = st.center.gamma
    rho = st.center.rho
    h = st.center.frame.h
    worst_rel = 0.0
    worst_lc = 0.0
    for a in range(2):
        for b in range(2):
            for c in range(2):
                res_rel = st.d_rho[c][a, b] - st.d_rho[b][a, c]
                res_lc = st.d_h[c][a, b] - st.d_h[b][a, c]
                for d in range(2):
                    res_rel += xi_c[a, b, d] * rho[c, d] - xi_c[a, c, d] * rho[b, d]
                    res_lc += gam[a, b, d] * h[d, c] - gam[a, c, d] * h[d, b]
                worst_rel = max(worst_rel, abs(res_rel))
                worst_lc = max(worst_lc, abs(res_lc))
    return CodazziResiduals(relative=worst_rel, levi_civita=worst_lc)


def gauss_equation_rhs(
    s: SurfacePatch, u: float, v: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three equivalent right-hand sides of the Gauss equation for the
    relative connection, each indexed [e, a, b, c]:

        (rho_ab h_cd  - rho_ac h_bd ) g^{ed}
        (h_ab   h_cd  - h_ac   h_bd ) g^{ed} / denom
        (rho_ab rho_cd - rho_ac rho_bd) g^{ed} * denom
    """
    c = coeffs_at(s, u, v)
    f = c.frame
    g_inv = f.g_inv
    h = f.h
    rho = c.rho

    def build(left: np.ndarray, right: np.ndarray, scale: float) -> np.ndarray:
        out = np.zeros((2, 2, 2, 2))
        for e in range(2):
            for a in range(2):
                for b in range(2):
                    for cc in range(2):
                        acc = 0.0
                        for d in range(2):
                            acc += (
                                left[a, b] * right[cc, d] - left[a, cc] * right[b, d]
                            ) * g_inv[e, d]
                        out[e, a, b, cc] = scale * acc
        return out

    rhs_rho_h = build(rho, h, 1.0)
    rhs_hh = build(h, h, 1.0 / c.denom)
    rhs_rho_rho = build(rho, rho, c.denom)
    return rhs_rho_h, rhs_hh, rhs_rho_rho
