"""Rotation-vector maps for frame propagation along the rod, batched.

Every function works on all elements at once: ``psi`` is an ``(n, 3)`` array
of rotation vectors (axis * angle, radians), one row per element, and the
results are ``(n, 3, 3)`` matrices or ``(n, 3)`` vectors row for row.  The
maps take ``coefficients(psi)``, computed once per batch, whose series below
``SMALL_ANGLE`` (``DERIVATIVE_SMALL_ANGLE`` for the derivative terms) keep every
map smooth through psi = 0.
"""

from __future__ import annotations

import numpy as np

SMALL_ANGLE = 1e-4
# d2, d3's closed forms cancel to ~1e-14/w^4 relative; their three-term series
# is off by ~3e-5 w^6, so both hold ~1e-10 at this switch
DERIVATIVE_SMALL_ANGLE = 0.1
_EYE = np.eye(3)
# psi @ _HAT is hat(psi) row by row, flattened: each entry picks one component
# of psi, or none, with its sign
_HAT = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
                 [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
                 [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of ``(..., 3)`` arrays, written out by component."""
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    x = ay * bz - az * by
    out = np.empty(x.shape + (3,))
    out[..., 0] = x
    out[..., 1] = az * bx - ax * bz
    out[..., 2] = ax * by - ay * bx
    return out


def coefficients(psi: np.ndarray):
    """Per-row ``(c1, c2, c3, d2, d3, w2)`` of the rotation vectors ``psi``.

    With w = |psi|: c1 = sin w/w, c2 = (1-cos w)/w^2, c3 = (w-sin w)/w^3,
    d2 = c2'(w)/w, d3 = c3'(w)/w and w2 = w^2, which ``exp_so3`` reads too;
    rows with w < SMALL_ANGLE take the series for c1, c2, c3, and rows with
    w < DERIVATIVE_SMALL_ANGLE take them for d2, d3.  The series stay finite at w = 0, and are evaluated only when
    some row needs them.
    """
    w2 = np.einsum("ij,ij->i", psi, psi)
    omega = np.sqrt(w2)
    small = omega < SMALL_ANGLE
    any_small = np.logical_or.reduce(small)
    w = np.where(small, 1.0, omega) if any_small else omega  # closed forms stay finite
    s, c = np.sin(w), np.cos(w)
    one_c, w_s = 1.0 - c, w - s
    sq = w * w
    cube, fourth = sq * w, sq * sq
    c1, c2, c3 = s / w, one_c / sq, w_s / cube
    d2 = (w * s - 2.0 * one_c) / fourth
    d3 = (w * one_c - 3.0 * w_s) / (fourth * w)
    if any_small:
        c1 = np.where(small, 1.0 - w2 / 6.0 + w2 * w2 / 120.0, c1)
        c2 = np.where(small, 0.5 - w2 / 24.0 + w2 * w2 / 720.0, c2)
        c3 = np.where(small, 1.0 / 6.0 - w2 / 120.0 + w2 * w2 / 5040.0, c3)
    near = omega < DERIVATIVE_SMALL_ANGLE
    if np.logical_or.reduce(near):
        d2 = np.where(near, -1.0 / 12.0 + w2 / 180.0 - w2 * w2 / 6720.0, d2)
        d3 = np.where(near, -1.0 / 60.0 + w2 / 1260.0 - w2 * w2 / 60480.0, d3)
    return c1, c2, c3, d2, d3, w2


def exp_so3(psi: np.ndarray, coeffs) -> np.ndarray:
    """Rodrigues formula: ``(n, 3, 3)`` rotation matrices of the rows of psi."""
    c1, c2 = coeffs[0][:, None, None], coeffs[1][:, None, None]
    k = (psi @ _HAT).reshape(-1, 3, 3)  # hat(psi): row i is e_i x psi
    # hat(psi)^2 = psi psi^T - |psi|^2 I
    kk = psi[:, :, None] * psi[:, None, :] - coeffs[5][:, None, None] * _EYE
    return _EYE + c1 * k + c2 * kk


def left_jacobian_apply(psi: np.ndarray, a: np.ndarray, coeffs) -> np.ndarray:
    """J_l(psi) a = a + c2 psi x a + c3 psi x (psi x a), row by row.

    J_l(psi) is the integral of exp(t hat(psi)) over t in [0, 1].  The right
    Jacobian is its transpose, so J_r(psi)^T v is this map applied to v.
    """
    c2, c3 = coeffs[1][:, None], coeffs[2][:, None]
    pa = cross(psi, a)
    return a + c2 * pa + c3 * cross(psi, pa)


# The rod's material tangent, t = (0, 0, -1): each element's chord is
# J_l(psi) t, so the two maps below are J_l(psi) a and its derivative written
# out by component for a = t, rounding exactly as the generic products do.
# With it, psi x t = (-py, px, 0) and psi x (psi x t) = (-pz px, -pz py, px^2 + py^2).
TANGENT = np.array([0.0, 0.0, -1.0])


def left_jacobian_tangent(psi: np.ndarray, coeffs) -> np.ndarray:
    """J_l(psi) t for the tangent t = (0, 0, -1), row by row."""
    _, c2, c3, _, _, _ = coeffs
    px, py, pz = psi[:, 0], psi[:, 1], psi[:, 2]
    out = np.empty(psi.shape)
    out[:, 0] = -(c2 * py) - c3 * (pz * px)
    out[:, 1] = c2 * px - c3 * (pz * py)
    out[:, 2] = c3 * (px * px + py * py) - 1.0
    return out


def d_left_jacobian_tangent_t(psi: np.ndarray, u: np.ndarray, coeffs) -> np.ndarray:
    """(d(J_l(psi) t)/d(psi))^T u for the tangent t = (0, 0, -1), row by row.

    Differentiating t + c2 (psi x t) + c3 psi x (psi x t) through the
    coefficients (via w = |psi|) and the cross products, then transposing,
    gives c2 (t x u) + c3 ((psi x t) x u - t x (psi x u))
    + psi (d2 (psi x t).u + d3 (psi x (psi x t)).u), with t x v = (vy, -vx, 0)
    and (psi x t) x u = (px uz, py uz, -py uy - px ux).
    """
    _, c2, c3, d2, d3, _ = coeffs
    px, py, pz = psi[:, 0], psi[:, 1], psi[:, 2]
    ux, uy, uz = u[:, 0], u[:, 1], u[:, 2]
    qx = py * uz - pz * uy  # psi x u, whose z is not needed
    qy = pz * ux - px * uz
    along = (d2 * (px * uy - py * ux)
             + d3 * ((px * px + py * py) * uz - ((pz * px) * ux + (pz * py) * uy)))
    out = np.empty(psi.shape)
    out[:, 0] = c2 * uy + c3 * (px * uz - qy) + along * px
    out[:, 1] = c3 * (py * uz + qx) - c2 * ux + along * py
    out[:, 2] = c3 * (-(py * uy) - px * ux) + along * pz
    return out
