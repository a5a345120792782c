"""Property tests of the batched rotation-vector maps.

Every drawn batch holds one row below ``SMALL_ANGLE`` (series coefficients),
one between it and ``DERIVATIVE_SMALL_ANGLE`` (closed forms, except the d2/d3
series) and one above both (closed forms only), plus random rows of any kind.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from diskrod.rotations import (DERIVATIVE_SMALL_ANGLE, SMALL_ANGLE, TANGENT, coefficients,
                               cross, d_left_jacobian_tangent_t, exp_so3,
                               left_jacobian_apply, left_jacobian_tangent)

unit = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v))
small_row = st.builds(lambda u, w: u * w, unit, st.floats(0.0, 0.999 * SMALL_ANGLE))
large_row = st.builds(lambda u, w: u * w, unit, st.floats(SMALL_ANGLE, 3.0))
between_row = st.builds(lambda u, w: u * w, unit,
                        st.floats(SMALL_ANGLE, 0.999 * DERIVATIVE_SMALL_ANGLE))
far_row = st.builds(lambda u, w: u * w, unit, st.floats(DERIVATIVE_SMALL_ANGLE, 3.0))
vector = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array)


@st.composite
def batches(draw):
    """(psi, a, u) with psi rows on both sides of both series switches."""
    rows = [draw(small_row), draw(between_row), draw(far_row)]
    rows += draw(st.lists(st.one_of(small_row, large_row), max_size=4))
    n = len(rows)
    a = np.array([draw(vector) for _ in range(n)])
    u = np.array([draw(vector) for _ in range(n)])
    return np.array(rows), a, u


def vee(m):
    return np.stack([m[:, 2, 1] - m[:, 1, 2], m[:, 0, 2] - m[:, 2, 0],
                     m[:, 1, 0] - m[:, 0, 1]], axis=-1) / 2.0


def apply(psi, a):
    return left_jacobian_apply(psi, a, coefficients(psi))


def rotation(psi):
    return exp_so3(psi, coefficients(psi))


@settings(deadline=None)
@given(batches())
def test_exp_is_a_rotation_fixing_its_axis(batch):
    psi, _, _ = batch
    rot = rotation(psi)
    assert np.abs(rot @ rot.transpose(0, 2, 1) - np.eye(3)).max() <= 1e-14
    assert np.abs(np.linalg.det(rot) - 1.0).max() <= 1e-14
    assert np.abs(np.einsum("kij,kj->ki", rot, psi) - psi).max() <= 1e-14
    np.testing.assert_allclose(rot, Rotation.from_rotvec(psi).as_matrix(), rtol=0, atol=1e-14)


@settings(deadline=None)
@given(batches())
def test_left_jacobian_is_the_derivative_of_exp(batch):
    # exp(psi + t a) = exp(t J_l(psi) a) exp(psi) to first order in t
    psi, a, _ = batch
    h = 1e-6
    d_exp = (rotation(psi + h * a) - rotation(psi - h * a)) / (2.0 * h)
    twist = vee(d_exp @ rotation(psi).transpose(0, 2, 1))
    np.testing.assert_allclose(apply(psi, a), twist, rtol=0, atol=1e-8)


@settings(deadline=None)
@given(batches())
def test_left_jacobian_transpose_is_right_jacobian(batch):
    # J_r(psi) = J_l(-psi) = J_l(psi)^T: the gradient applies J_l for J_r^T
    psi, a, u = batch
    lhs = np.einsum("ki,ki->k", u, apply(psi, a))
    rhs = np.einsum("ki,ki->k", a, apply(-psi, u))
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14)


@settings(deadline=None)
@given(batches())
def test_left_jacobian_is_the_mean_rotation(batch):
    # J_l(psi) a is the integral of exp(t psi) a over t in [0, 1]; c2's closed
    # form carries ~1e-16/|psi| absolute error, 1e-12 at SMALL_ANGLE
    psi, a, _ = batch
    nodes, weights = np.polynomial.legendre.leggauss(24)
    mean = sum(0.5 * w * np.einsum("kij,kj->ki", rotation(0.5 * (t + 1.0) * psi), a)
               for t, w in zip(nodes, weights))
    np.testing.assert_allclose(apply(psi, a), mean, rtol=0, atol=2e-12)


def d_left_jacobian_apply_t(psi, a, u, coeffs):
    """(d(J_l(psi) a)/d(psi))^T u for any a: the generic products that the
    tangent map writes out by component, kept here as its reference."""
    _, c2, c3, d2, d3, _ = (c[:, None] for c in coeffs)
    pa = cross(psi, a)
    ppa = cross(psi, pa)
    along = d2 * np.sum(pa * u, axis=1, keepdims=True) + d3 * np.sum(ppa * u, axis=1, keepdims=True)
    return c2 * cross(a, u) + c3 * (cross(pa, u) - cross(a, cross(psi, u))) + along * psi


@settings(deadline=None)
@given(batches())
def test_tangent_maps_equal_the_generic_maps_bit_for_bit(batch):
    psi, _, u = batch
    coeffs = coefficients(psi)
    np.testing.assert_array_equal(left_jacobian_tangent(psi, coeffs),
                                  left_jacobian_apply(psi, TANGENT, coeffs))
    np.testing.assert_array_equal(d_left_jacobian_tangent_t(psi, u, coeffs),
                                  d_left_jacobian_apply_t(psi, TANGENT, u, coeffs))


@settings(deadline=None)
@given(batches(), vector)
def test_left_jacobian_derivative_matches_central_difference(batch, v):
    psi, _, u = batch
    h = 1e-5
    slope = (apply(psi + h * v, TANGENT) - apply(psi - h * v, TANGENT)) / (2.0 * h)
    expected = np.einsum("ki,ki->k", u, slope)
    got = d_left_jacobian_tangent_t(psi, u, coefficients(psi)) @ v
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-6)


@settings(deadline=None)
@given(batches())
def test_batch_coefficients_are_the_rows_coefficients(batch):
    # a batch takes a series only where a row needs it, whatever its other rows
    psi, _, _ = batch
    rows = [coefficients(row[None, :]) for row in psi]
    for k, got in enumerate(coefficients(psi)):
        np.testing.assert_array_equal(got, np.concatenate([r[k] for r in rows]))


def taylor(w, start, shift):
    """sum over k >= start of (-1)^k w^(2k) / (2k + shift)!, or its w-derivative
    over w for ``start`` = 1 (the d2, d3 series)."""
    total = np.zeros_like(w)
    for k in range(start, 30):
        term = (-1.0) ** k / math.factorial(2 * k + shift)
        total += term * (2 * k * w ** (2 * k - 2) if start else w ** (2 * k))
    return total


# closed-form rows from SMALL_ANGLE up, log-uniform so the switch points are hit
log_row = st.builds(lambda u, t: u * SMALL_ANGLE * (3.0 / SMALL_ANGLE) ** t,
                    unit, st.floats(0.0, 1.0))


@settings(deadline=None)
@given(st.one_of(small_row, log_row))
@example(np.array([1.0001 * SMALL_ANGLE, 0.0, 0.0]))
@example(np.array([0.0, DERIVATIVE_SMALL_ANGLE, 0.0]))
@example(np.array([0.0, 0.0, np.nextafter(DERIVATIVE_SMALL_ANGLE, 0.0)]))
def test_coefficients_match_their_taylor_series(row):
    # every series row below SMALL_ANGLE holds to rounding; c2/c3's closed
    # forms cancel to ~1e-15/w^2 relative (4e-8 just above SMALL_ANGLE), and
    # d2/d3 hold 1.3e-10 on either side of DERIVATIVE_SMALL_ANGLE
    w = np.array([np.linalg.norm(row)])
    series = w[0] < 0.999 * SMALL_ANGLE
    c_rtol = 1e-14 if series else max(1e-14, 2e-15 / w[0] ** 2)
    d_rtol = 1e-14 if series else 5e-10
    rtols = (1e-14, c_rtol, c_rtol, d_rtol, d_rtol)
    expected = (taylor(w, 0, 1), taylor(w, 0, 2), taylor(w, 0, 3),
                taylor(w, 1, 2), taylor(w, 1, 3))
    for got, want, rtol in zip(coefficients(row[None, :]), expected, rtols):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


@settings(max_examples=50, deadline=None)
@given(batches())
def test_cross_matches_numpy(batch):
    psi, a, _ = batch
    np.testing.assert_array_equal(cross(psi, a), np.cross(psi, a))
    np.testing.assert_array_equal(cross(psi, a[0]), np.cross(psi, a[0]))
