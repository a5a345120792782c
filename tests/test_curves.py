import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, make_smoothing_spline
from scipy.spatial.transform import Rotation

from diskrod.curves import (EPS_CROSS, GRID_POINTS, SPLINE_LAM, CrossingDirection, CTProfile,
                            Curve3D, _solve_pentadiagonal, _spline_fit, ct_profile, fd_weights,
                            smooth_profile, torsion_sign_changes)
from diskrod.errors import DegenerateSegment, TooFewPoints, TooFewValidSamples

DISKS_70 = np.arange(9) * 70.0


def helix_points(a=50.0, b=20.0, turns=2.0, n=300):
    t = np.linspace(0.0, 2.0 * np.pi * turns, n)
    return np.column_stack([a * np.cos(t), a * np.sin(t), b * t])


# ---------------------------------------------------------------- arc length

def test_arc_length_collinear():
    c = Curve3D([(0, 0, 0), (0, 0, 10), (0, 0, 20), (0, 0, 30)])
    assert np.allclose(c.s, [0, 10, 20, 30])


def test_arc_length_345_chords():
    c = Curve3D([(0, 0, 0), (3, 4, 0), (3, 4, 5), (6, 8, 5)])
    assert np.allclose(c.s, [0, 5, 10, 15])


def test_arc_length_too_few_points():
    with pytest.raises(TooFewPoints):
        Curve3D([(0, 0, 0), (1, 0, 0), (2, 0, 0)])


def test_arc_length_degenerate_segment():
    with pytest.raises(DegenerateSegment):
        Curve3D([(0, 0, 0), (1, 0, 0), (1, 0, 0), (2, 0, 0)])


def test_resample_at_own_arc_positions_is_exact():
    c = Curve3D(helix_points(n=50))
    assert np.array_equal(c.at(c.s), c.points)


@pytest.mark.parametrize("bad", [np.zeros(12), np.zeros((4, 2)), np.zeros((4, 3, 1))],
                         ids=["flat", "two-columns", "three-dims"])
def test_arc_length_rejects_malformed_arrays(bad):
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        Curve3D(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_curve_rejects_non_finite_points(bad):
    pts = [(0, 0, 0), (1, 0, 0), (2, bad, 0), (3, 0, 0)]
    with pytest.raises(ValueError, match="finite"):
        Curve3D(pts)


# ----------------------------------------------------- finite-difference core

def test_fd_weights_match_uniform_stencils():
    w = fd_weights(np.array([-1.0, 0.0, 1.0]), 0.0, 2)
    assert np.allclose(w[1], [-0.5, 0.0, 0.5])
    assert np.allclose(w[2], [1.0, -2.0, 1.0])
    w5 = fd_weights(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), 0.0, 3)
    assert np.allclose(w5[3], [-0.5, 1.0, 0.0, -1.0, 0.5])


def test_fd_weights_exact_on_polynomials():
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0, 1, 5))
    z = x[2]
    w = fd_weights(x, z, 3)
    coeffs = rng.normal(size=4)  # cubic: exactly differentiated by 5 nodes
    poly = np.polynomial.Polynomial(coeffs)
    for order in range(4):
        assert w[order] @ poly(x) == pytest.approx(poly.deriv(order)(z), abs=1e-8)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 5),
       st.lists(st.integers(1, 4), min_size=0, max_size=2))
def test_fd_weights_batched_equals_stacked_single_stencils(seed, n, max_order, lead):
    max_order = min(max_order, n - 1)
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(1e-3, 10.0, (*lead, n)), axis=-1) + rng.uniform(-100, 100)
    z = x[..., 0] + rng.uniform(-1.0, 1.0, tuple(lead)) * (x[..., -1] - x[..., 0] + 1.0)
    stacked = np.array([fd_weights(xi, zi, max_order)
                        for xi, zi in zip(x.reshape(-1, n), np.ravel(z))])
    batched = fd_weights(x, z, max_order)
    assert batched.shape == (*lead, max_order + 1, n)
    assert np.array_equal(batched.reshape(stacked.shape), stacked)


# ------------------------------------------------------------------- profile

def test_straight_line_profile():
    pts = np.column_stack([np.zeros(20), np.zeros(20), np.linspace(0, 560, 20)])
    prof = ct_profile(Curve3D(pts))
    assert prof.kappa.max() <= 1e-9
    assert np.all(prof.tau == 0.0)
    assert not prof.kappa_valid.any()


def test_circle_curvature_oracle():
    r = 100.0
    t = np.linspace(0.0, 1.5 * np.pi, 200)
    pts = np.column_stack([r * np.cos(t), r * np.sin(t), np.zeros_like(t)])
    prof = ct_profile(Curve3D(pts))
    interior = prof.kappa[2:-2]
    assert np.all(np.abs(interior - 0.01) <= 0.02 * 0.01)
    assert np.abs(prof.tau[prof.kappa_valid]).max() <= 1e-6


def test_helix_curvature_torsion_oracle():
    a, b = 50.0, 20.0
    kappa_true = a / (a * a + b * b)
    tau_true = b / (a * a + b * b)
    prof = ct_profile(Curve3D(helix_points(a, b)))
    interior = slice(2, -2)
    assert np.all(np.abs(prof.kappa[interior] - kappa_true) <= 0.02 * kappa_true)
    assert np.all(np.abs(prof.tau[interior] - tau_true) <= 0.05 * tau_true)


def test_profile_rigid_motion_invariance():
    base = ct_profile(Curve3D(helix_points()))
    angle = 0.7
    rot = np.array([[np.cos(angle), -np.sin(angle), 0.0],
                    [np.sin(angle), np.cos(angle), 0.0],
                    [0.0, 0.0, 1.0]])
    tilt = np.array([[1.0, 0.0, 0.0],
                     [0.0, np.cos(0.3), -np.sin(0.3)],
                     [0.0, np.sin(0.3), np.cos(0.3)]])
    moved = ct_profile(Curve3D(
        helix_points() @ (tilt @ rot).T + np.array([12.0, -5.0, 30.0])))
    scale = np.abs(base.kappa).max()
    assert np.abs(moved.kappa - base.kappa).max() <= 1e-9 * scale
    assert np.abs(moved.tau - base.tau).max() <= 1e-9 * np.abs(base.tau).max()


def test_profile_mirror_antisymmetry():
    base = ct_profile(Curve3D(helix_points()))
    mirrored_pts = helix_points() * np.array([1.0, -1.0, 1.0])
    mirrored = ct_profile(Curve3D(mirrored_pts))
    assert np.abs(mirrored.kappa - base.kappa).max() <= 1e-9 * base.kappa.max()
    assert np.abs(mirrored.tau + base.tau).max() <= 1e-9 * np.abs(base.tau).max()


def test_profile_on_minimal_four_point_curve():
    pts = np.array([[0.0, 0.0, 0.0], [10.0, 1.0, 0.5], [20.0, 4.0, 2.0],
                    [30.0, 9.0, 5.0]])
    prof = ct_profile(Curve3D(pts))
    assert prof.n == 4
    assert np.all(np.isfinite(prof.kappa)) and np.all(np.isfinite(prof.tau))
    assert prof.kappa_valid.any()


def test_planar_curve_torsionless():
    t = np.linspace(0, 1, 80)
    pts = np.column_stack([300 * t, np.zeros_like(t), 500 * t * t - 400 * t])
    prof = ct_profile(Curve3D(pts))
    assert np.abs(prof.tau[prof.kappa_valid]).max() <= 1e-9


def test_profile_scale_covariance():
    c = 2.5
    base = ct_profile(Curve3D(helix_points()))
    scaled = ct_profile(Curve3D(helix_points() * c))
    valid = base.kappa_valid & scaled.kappa_valid
    assert np.allclose(scaled.kappa[valid] * c, base.kappa[valid], rtol=1e-6)
    assert np.allclose(scaled.tau[valid] * c, base.tau[valid], rtol=1e-6)


def ct_profile_per_sample(curve):
    """The one-sample-at-a-time loop that ct_profile batches: the bit oracle."""
    pts, s = curve.points, curve.s
    n = len(pts)
    w5_size = min(5, n)
    kappa, tau, valid = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    for i in range(n):
        lo3 = min(max(i - 1, 0), n - 3)
        lo5 = min(max(i - 2, 0), n - w5_size)
        w3 = fd_weights(s[lo3:lo3 + 3], s[i], 2)
        w5 = fd_weights(s[lo5:lo5 + w5_size], s[i], 3)
        r1 = w3[1] @ pts[lo3:lo3 + 3]
        r2 = w3[2] @ pts[lo3:lo3 + 3]
        r3 = w5[3] @ pts[lo5:lo5 + w5_size]
        cr = np.cross(r1, r2)
        cr2 = float(cr @ cr)
        kappa[i] = np.sqrt(cr2) / np.linalg.norm(r1) ** 3
        if cr2 >= EPS_CROSS:
            valid[i] = True
            tau[i] = float(cr @ r3) / cr2
    return kappa, tau, valid


def random_walk_curve(seed, n, bend):
    """n samples with random step lengths whose direction wanders by ~bend."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(size=(n, 3)) * bend + np.array([0.0, 0.0, 1.0])
    steps *= rng.uniform(0.2, 5.0, (n, 1)) / np.linalg.norm(steps, axis=1, keepdims=True)
    return Curve3D(np.cumsum(steps, axis=0) * 10.0 ** rng.uniform(-1, 2)
                   + rng.uniform(-500.0, 500.0, 3))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 1200),
       st.one_of(st.floats(1e-9, 1e-4), st.floats(0.01, 3.0)))
@example(seed=1, n=4, bend=0.3)
@example(seed=2, n=5, bend=0.3)
@example(seed=3, n=200, bend=1e-6)  # near-straight: mixes valid and EPS_CROSS samples
def test_batched_profile_is_bit_identical_to_per_sample_loop(seed, n, bend):
    curve = random_walk_curve(seed, n, bend)
    kappa, tau, valid = ct_profile_per_sample(curve)
    prof = ct_profile(curve)
    assert np.array_equal(prof.kappa, kappa)
    assert np.array_equal(prof.tau, tau)
    assert np.array_equal(prof.kappa_valid, valid)


@settings(max_examples=30, deadline=None)
@given(st.floats(10.0, 100.0), st.floats(-60.0, 60.0), st.floats(0.5, 3.0),
       st.integers(60, 300), st.integers(0, 2**32 - 1))
def test_helix_profile_under_rigid_motion_and_density(a, b, turns, n, seed):
    # with c = sqrt(kappa^2 + tau^2) and arc step h, interior stencils err by
    # O((hc)^2 c) and the one-sided ends by O(hc c); rounding the point
    # differences adds about eps |p| / h^2 to kappa and that / (h kappa) to tau
    c = 1.0 / np.hypot(a, b)
    kappa_true, tau_true = a * c * c, b * c * c
    rng = np.random.default_rng(seed)
    motion = Rotation.random(random_state=rng).as_matrix()
    shift = rng.uniform(-500.0, 500.0, 3)
    for samples in (n, 2 * n, 4 * n):
        t = np.linspace(0.0, 2.0 * np.pi * turns, samples)
        pts = np.column_stack([a * np.cos(t), a * np.sin(t), b * t])
        moved_pts = pts @ motion.T + shift
        hc = t[1] - t[0]
        h = hc / c
        round_k = 128 * np.finfo(float).eps * np.abs(moved_pts).max() / h**2
        round_t = round_k / (h * kappa_true)
        prof = ct_profile(Curve3D(pts))
        moved = ct_profile(Curve3D(moved_pts))
        assert moved.kappa_valid.all()
        for p in (prof, moved):
            for got, true, noise in ((p.kappa, kappa_true, round_k), (p.tau, tau_true, round_t)):
                assert np.abs(got[2:-2] - true).max() <= 0.5 * hc * hc * c + noise
                assert np.abs(got - true).max() <= hc * c + noise
        assert np.abs(moved.kappa - prof.kappa).max() <= round_k
        assert np.abs(moved.tau - prof.tau).max() <= round_t


# ----------------------------------------------------------------- smoothing

def flat_profile(tau_values, s=None, kappa=0.005):
    tau_values = np.asarray(tau_values, dtype=float)
    if s is None:
        s = np.linspace(0.0, 560.0, len(tau_values))
    return CTProfile(s=s, kappa=np.full_like(tau_values, kappa), tau=tau_values,
                     kappa_valid=np.ones(len(tau_values), dtype=bool))


def test_smoothing_recovers_noisy_constant():
    # the fit is near-interpolating, so it only has to stay inside the noise band
    rng = np.random.default_rng(3)
    tau_true = 0.002
    tau = tau_true * (1.0 + rng.uniform(-0.1, 0.1, 50))
    smoothed = smooth_profile(flat_profile(tau))
    interior = (smoothed.s >= 0.1 * 560) & (smoothed.s <= 0.9 * 560)
    assert np.all(np.abs(smoothed.tau[interior] - tau_true) <= 0.1 * tau_true)


@pytest.mark.parametrize("shape, rel", [
    (lambda u: np.sin(np.pi * u), 1e-4),
    (lambda u: u, 1e-12),  # the spline penalty does not see linear data
], ids=["sine", "linear"])
def test_smoothing_reproduces_smooth_profiles(shape, rel):
    s = np.linspace(0.0, 560.0, 50)
    kappa = 0.01 + 0.005 * shape(s / 560.0)
    tau = 0.002 + 0.001 * shape(s / 560.0)
    prof = CTProfile(s=s, kappa=kappa, tau=tau,
                     kappa_valid=np.ones(len(s), dtype=bool))
    out = smooth_profile(prof)
    assert out.n == GRID_POINTS and out.kappa_valid.all()
    kappa_ref = 0.01 + 0.005 * shape(out.s / 560.0)
    tau_ref = 0.002 + 0.001 * shape(out.s / 560.0)
    assert np.all(np.abs(out.kappa - kappa_ref) <= rel * kappa_ref)
    assert np.all(np.abs(out.tau - tau_ref) <= rel * tau_ref)


def test_smoothing_too_few_valid_samples():
    s = np.linspace(0.0, 100.0, 10)
    valid = np.zeros(10, dtype=bool)
    valid[:3] = True
    tau = np.where(valid, 0.001, 0.0)
    prof = CTProfile(s=s, kappa=np.full(10, 0.01), tau=tau, kappa_valid=valid)
    out = smooth_profile(prof)  # curvature only: tau 0, no valid grid point
    assert out.n == GRID_POINTS
    assert np.allclose(out.kappa, 0.01, rtol=1e-9)
    assert np.all(out.tau == 0.0) and not out.kappa_valid.any()
    with pytest.raises(TooFewValidSamples):
        smooth_profile(CTProfile(s=s[:3], kappa=np.full(3, 0.01), tau=tau[:3],
                                 kappa_valid=valid[:3]))


def test_smoothing_fits_four_valid_torsion_samples():
    s = np.linspace(0.0, 100.0, 10)
    valid = np.zeros(10, dtype=bool)
    valid[3:7] = True
    tau = np.where(valid, 0.001 + 1e-5 * s, 0.0)
    prof = CTProfile(s=s, kappa=np.full(10, 0.01), tau=tau, kappa_valid=valid)
    out = smooth_profile(prof)
    in_range = (out.s >= s[3]) & (out.s <= s[6])
    assert np.array_equal(out.kappa_valid, in_range) and in_range.sum() > 20
    assert np.allclose(out.tau[in_range], 0.001 + 1e-5 * out.s[in_range], rtol=1e-12)
    assert np.all(out.tau[~in_range] == 0.0)


# ------------------------------------------------------- smoothing spline oracles

def near_uniform_arc(n, seed):
    """n increasing arc positions (mm), each moved by up to a quarter spacing."""
    rng = np.random.default_rng(seed)
    step = 560.0 / (n - 1)
    return np.arange(n) * step + rng.uniform(-0.25, 0.25, n) * step


def profile_values(s, seed):
    rng = np.random.default_rng(seed)
    return 0.01 * np.sin(s / 90.0) + 0.004 + rng.normal(0.0, 5e-4, len(s))


@pytest.mark.parametrize("n", [5, 9, 50, 1000])
def test_spline_fit_matches_scipy_smoothing_spline(n):
    # scipy's B-spline system is ill-conditioned on clustered knots, so the
    # oracle is only tight on near-uniform ones
    s = near_uniform_arc(n, seed=n)
    values = profile_values(s, seed=n + 1)
    at = np.linspace(s[0], s[-1], GRID_POINTS)
    span = s[-1] - s[0]
    ref = make_smoothing_spline((s - s[0]) / span, values, lam=SPLINE_LAM)((at - s[0]) / span)
    got = _spline_fit(s, values, at, s)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [3, 4, 5, 9, 50])
def test_spline_fit_matches_dense_penalised_solve(n):
    s = np.sort(np.random.default_rng(n).uniform(0.0, 560.0, n))
    values = profile_values(s, seed=n + 1)
    x = (s - s[0]) / (s[-1] - s[0])
    h = np.diff(x)
    q = np.zeros((n, n - 2))
    r = np.zeros((n - 2, n - 2))
    for j in range(n - 2):
        q[j:j + 3, j] = 1 / h[j], -1 / h[j] - 1 / h[j + 1], 1 / h[j + 1]
        r[j, j] = (h[j] + h[j + 1]) / 3
        if j + 1 < n - 2:
            r[j, j + 1] = r[j + 1, j] = h[j + 1] / 6
    system, rhs = r + SPLINE_LAM * q.T @ q, q.T @ values
    gamma = np.linalg.solve(system, rhs)
    # the banded solve alone, on 1, 2, 3, 7 and 48 unknowns
    bands = np.zeros((3, n - 2))
    bands[0, 2:], bands[1, 1:], bands[2] = np.diag(system, 2), np.diag(system, 1), np.diag(system)
    assert np.abs(_solve_pentadiagonal(bands, rhs) - gamma).max() <= 1e-12 * np.abs(gamma).max()
    knots = values - SPLINE_LAM * q @ gamma
    # the natural cubic through the fitted knot values has g'' = gamma inside
    at = np.linspace(s[0], s[-1], GRID_POINTS)
    ref = CubicSpline(x, knots, bc_type="natural")((at - s[0]) / (s[-1] - s[0]))
    assert np.abs(_spline_fit(s, values, at, s) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [3, 4, 50])
def test_spline_fit_reproduces_linear_data(n):
    s = np.sort(np.random.default_rng(n).uniform(0.0, 560.0, n))
    at = np.linspace(s[0], s[-1], GRID_POINTS)
    got = _spline_fit(s, 0.003 - 2e-6 * s, at, s)
    assert np.allclose(got, 0.003 - 2e-6 * at, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spline_fit_rejects_non_finite_values(bad):
    s = np.linspace(0.0, 560.0, 9)
    values = np.full(9, 0.01)
    values[4] = bad
    with pytest.raises(ValueError):
        _spline_fit(s, values, s, s)


# -------------------------------------------------------------- sign changes

def bump(s, center, width=35.0):
    return np.exp(-(((s - center) / width) ** 2))


def test_sign_changes_zero_torsion():
    prof = flat_profile(np.zeros(100))
    assert torsion_sign_changes(prof, DISKS_70) == []


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -0.5])
def test_sign_changes_reject_bad_threshold_rel(value):
    s = np.linspace(0.0, 560.0, 200)
    torsionless = CTProfile(s=s, kappa=np.zeros_like(s), tau=np.zeros_like(s),
                            kappa_valid=np.zeros(len(s), dtype=bool))
    for prof in (flat_profile(0.01 * (bump(s, 210.0) - bump(s, 350.0)), s), torsionless):
        with pytest.raises(ValueError, match="threshold_rel"):
            torsion_sign_changes(prof, DISKS_70, threshold_rel=value)


def test_sign_change_single_crossing_disk5():
    s = np.linspace(0.0, 560.0, 200)
    tau = 0.01 * (bump(s, 210.0) - bump(s, 350.0))
    changes = torsion_sign_changes(flat_profile(tau, s), DISKS_70)
    assert len(changes) == 1
    (c,) = changes
    assert c.nearest_disk == 5
    assert c.direction is CrossingDirection.POS_TO_NEG
    assert c.s_pos == pytest.approx(280.0, abs=3.0)
    assert c.magnitude > 0


def test_sign_change_two_alternations():
    s = np.linspace(0.0, 560.0, 400)
    tau = 0.01 * (bump(s, 90.0) - bump(s, 190.0) - bump(s, 310.0) + bump(s, 410.0))
    changes = torsion_sign_changes(flat_profile(tau, s), DISKS_70)
    assert [c.nearest_disk for c in changes] == [3, 6]
    assert changes[0].direction is CrossingDirection.POS_TO_NEG
    assert changes[1].direction is CrossingDirection.NEG_TO_POS


@pytest.mark.parametrize("n_pairs", [1, 2, 3])
def test_sign_change_count_on_alternating_bump_pairs(n_pairs):
    s = np.linspace(0.0, 560.0, 800)
    lo, hi = 160.0, 540.0
    centers = np.linspace(lo, hi, 2 * n_pairs)
    tau = np.zeros_like(s)
    amp = 0.01
    for k in range(n_pairs):
        sign = 1.0 if k % 2 == 0 else -1.0
        tau += sign * amp * (bump(s, centers[2 * k], 20.0) - bump(s, centers[2 * k + 1], 20.0))
    prof = flat_profile(tau, s)
    below = torsion_sign_changes(prof, DISKS_70, threshold_rel=0.1)
    above = torsion_sign_changes(prof, DISKS_70, threshold_rel=1.5)
    assert len(below) == n_pairs
    assert len(above) == 0
    # the threshold is relative to the profile's own max |tau|
    scaled = flat_profile(10.0 * tau, s)
    scaled_below = torsion_sign_changes(scaled, DISKS_70, threshold_rel=0.1)
    assert [(c.nearest_disk, c.direction) for c in scaled_below] == [
        (c.nearest_disk, c.direction) for c in below]
    assert [c.s_pos for c in scaled_below] == pytest.approx([c.s_pos for c in below], rel=1e-12)
    assert torsion_sign_changes(scaled, DISKS_70, threshold_rel=1.5) == []


def test_sign_change_default_threshold_is_a_fifth_of_max_tau():
    s = np.linspace(0.0, 560.0, 400)
    for weak, kept in ((0.25, True), (0.15, False)):
        tau = 0.01 * (bump(s, 210.0) - weak * bump(s, 350.0))
        prof = flat_profile(tau, s)
        changes = torsion_sign_changes(prof, DISKS_70)
        assert changes == torsion_sign_changes(prof, DISKS_70, threshold_rel=0.2)
        assert len(changes) == int(kept)


def test_sign_change_base_suppression():
    s = np.linspace(0.0, 560.0, 400)
    tau = 0.01 * (bump(s, 40.0, 20.0) - bump(s, 120.0, 20.0))  # crossing at 80
    changes = torsion_sign_changes(flat_profile(tau, s), DISKS_70)
    assert changes == []  # nearest disk 2: clamp artifact zone
