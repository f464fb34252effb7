"""Finite-difference reference for the exact coefficient partials and
curvature tensors of ``isogeo.connection``.

``stencil_derivatives`` takes fourth-order central differences (9
points: steps h and 2h along each parameter) of the coefficients, each
point computed anew by ``coeffs_at``.  The tensor, Codazzi and
Gauss-equation helpers are written as plain index loops, independent of
the ``einsum`` forms they check.
"""

from __future__ import annotations

import numpy as np

from isogeo import connection as con


def stencil_derivatives(patch, u: float, v: float, h: float):
    """(d_gamma, d_xi, d_rho, d_h) along u and v, laid out as in
    ``connection.CoeffDerivatives``."""
    center = con.coeffs_at(patch, u, v)

    def fields(c):
        return (c.gamma, c.xi_coeffs, c.rho, c.frame.h)

    along = []
    for du, dv in ((h, 0.0), (0.0, h)):
        points = [con.coeffs_at(patch, u + t * du, v + t * dv) for t in (1.0, -1.0, 2.0, -2.0)]
        p1, m1, p2, m2 = (fields(c) for c in points)
        along.append(
            [(8.0 * (a - b) - (c - d)) / (12.0 * h) for a, b, c, d in zip(p1, m1, p2, m2)]
        )
    d_gamma, d_xi, d_rho, d_h = (
        np.stack([first, second], axis=2) for first, second in zip(*along)
    )
    return center, d_gamma, d_xi, d_rho, d_h


def curvature_tensor(coef, d_coef):
    """R[l, i, j, k] = d_k C_ij^l - d_j C_ik^l + C_ij^s C_ks^l - C_ik^s C_js^l."""
    r = np.zeros((2, 2, 2, 2))
    for l in range(2):
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    term = d_coef[i, j, k, l] - d_coef[i, k, j, l]
                    for s in range(2):
                        term += coef[i, j, s] * coef[k, s, l] - coef[i, k, s] * coef[j, s, l]
                    r[l, i, j, k] = term
    return r


def codazzi(d_form, coef, form) -> float:
    """max |F_ab,c - F_ac,b + C_ab^d F_cd - C_ac^d F_bd|."""
    worst = 0.0
    for a in range(2):
        for b in range(2):
            for c in range(2):
                res = d_form[a, b, c] - d_form[a, c, b]
                for d in range(2):
                    res += coef[a, b, d] * form[c, d] - coef[a, c, d] * form[b, d]
                worst = max(worst, abs(res))
    return worst


def gauss_form(left, right, g_inv, scale: float):
    """scale * (left_ab right_cd - left_ac right_bd) g^{ed}, indexed [e, a, b, c]."""
    out = np.zeros((2, 2, 2, 2))
    for e in range(2):
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    acc = 0.0
                    for d in range(2):
                        acc += (left[a, b] * right[c, d] - left[a, c] * right[b, d]) * g_inv[e, d]
                    out[e, a, b, c] = scale * acc
    return out
