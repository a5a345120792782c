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
    """Per-row ``(c1, c2, c3, d2, d3)`` of the rotation vectors ``psi``.

    With w = |psi|: c1 = sin w/w, c2 = (1-cos w)/w^2, c3 = (w-sin w)/w^3,
    d2 = c2'(w)/w and d3 = c3'(w)/w; rows with w < SMALL_ANGLE take the
    series for c1, c2, c3, and rows with w < DERIVATIVE_SMALL_ANGLE take them
    for d2, d3.  The series stay finite at w = 0.
    """
    w2 = np.einsum("ij,ij->i", psi, psi)
    omega = np.sqrt(w2)
    small = omega < SMALL_ANGLE
    switch = (small, small, small) + (omega < DERIVATIVE_SMALL_ANGLE,) * 2
    w = np.where(small, 1.0, omega)  # keeps the closed forms finite on series rows
    s, c = np.sin(w), np.cos(w)
    series = (
        1.0 - w2 / 6.0 + w2 * w2 / 120.0,
        0.5 - w2 / 24.0 + w2 * w2 / 720.0,
        1.0 / 6.0 - w2 / 120.0 + w2 * w2 / 5040.0,
        -1.0 / 12.0 + w2 / 180.0 - w2 * w2 / 6720.0,
        -1.0 / 60.0 + w2 / 1260.0 - w2 * w2 / 60480.0,
    )
    closed = (
        s / w,
        (1.0 - c) / w**2,
        (w - s) / w**3,
        (w * s - 2.0 * (1.0 - c)) / w**4,
        (w * (1.0 - c) - 3.0 * (w - s)) / w**5,
    )
    return tuple(np.where(m, a, b) for m, a, b in zip(switch, series, closed))


def exp_so3(psi: np.ndarray, coeffs) -> np.ndarray:
    """Rodrigues formula: ``(n, 3, 3)`` rotation matrices of the rows of psi."""
    c1, c2 = coeffs[0][:, None, None], coeffs[1][:, None, None]
    k = cross(np.eye(3), psi[:, None, :])  # hat(psi): row i is e_i x psi
    # hat(psi)^2 = psi psi^T - |psi|^2 I
    kk = psi[:, :, None] * psi[:, None, :] - np.einsum("ij,ij->i", psi, psi)[:, None, None] * np.eye(3)
    return np.eye(3) + c1 * k + c2 * kk


def left_jacobian_apply(psi: np.ndarray, a: np.ndarray, coeffs) -> np.ndarray:
    """J_l(psi) a = a + c2 psi x a + c3 psi x (psi x a), row by row.

    J_l(psi) is the integral of exp(t hat(psi)) over t in [0, 1].  The right
    Jacobian is its transpose, so J_r(psi)^T v is this map applied to v.
    """
    c2, c3 = coeffs[1][:, None], coeffs[2][:, None]
    pa = cross(psi, a)
    return a + c2 * pa + c3 * cross(psi, pa)


def d_left_jacobian_apply_t(psi: np.ndarray, a: np.ndarray, u: np.ndarray,
                            coeffs) -> np.ndarray:
    """(d(J_l(psi) a)/d(psi))^T u for a fixed vector a, row by row.

    Differentiating a + c2 (psi x a) + c3 psi x (psi x a) through the
    coefficients (via w = |psi|) and the cross products, then transposing,
    gives c2 (a x u) + c3 ((psi x a) x u - a x (psi x u))
    + psi (d2 (psi x a).u + d3 (psi x (psi x a)).u).
    """
    _, c2, c3, d2, d3 = (c[:, None] for c in coeffs)
    pa = cross(psi, a)
    ppa = cross(psi, pa)
    along = d2 * np.sum(pa * u, axis=1, keepdims=True) + d3 * np.sum(ppa * u, axis=1, keepdims=True)
    return c2 * cross(a, u) + c3 * (cross(pa, u) - cross(a, cross(psi, u))) + along * psi
