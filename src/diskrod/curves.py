"""Differential geometry of discrete 3D backbone curves.

Pipeline: raw points -> chord-parameterized curve -> curvature/torsion
profile by nonuniform finite differences -> smoothing-spline profile on a
uniform arc grid -> torsion zero crossings mapped to disk positions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import make_smoothing_spline

from .errors import DegenerateSegment, TooFewPoints, TooFewValidSamples

MIN_POINTS = 4          # third derivatives need at least 4 samples
MIN_CHORD_MM = 1e-6     # consecutive points closer than this are degenerate
ARC_CONSISTENCY_MM = 1e-9
EPS_CROSS = 1e-12       # |r' x r''|^2 below this: torsion undefined, tau := 0
THRESHOLD_REL = 0.2     # sign-change threshold as a fraction of max |tau|


class CrossingDirection(enum.Enum):
    POS_TO_NEG = "pos_to_neg"
    NEG_TO_POS = "neg_to_pos"


@dataclass(frozen=True, eq=False)
class Curve3D:
    """Ordered 3D samples of a backbone with cumulative-chord arc length."""

    points: np.ndarray  # (n, 3), mm
    s: np.ndarray       # (n,), mm, s[0] = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        s = np.asarray(self.s, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "s", s)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must be an (n, 3) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if len(pts) < MIN_POINTS:
            raise TooFewPoints(f"need >= {MIN_POINTS} points, got {len(pts)}")
        if s.shape != (len(pts),):
            raise ValueError("s must have one value per point")
        if s[0] != 0.0:
            raise ValueError("arc length must start at 0")
        chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(chords <= MIN_CHORD_MM):
            raise DegenerateSegment("consecutive points coincide")
        if not np.all(np.abs(np.diff(s) - chords) <= ARC_CONSISTENCY_MM):  # also NaN
            raise ValueError("s increments must equal chord lengths")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def length(self) -> float:
        return float(self.s[-1])

    def at(self, s_values) -> np.ndarray:
        """Points linearly interpolated at arc positions ``s_values`` (mm)."""
        return np.column_stack([np.interp(s_values, self.s, self.points[:, k])
                                for k in range(3)])


@dataclass(frozen=True, eq=False)
class CTProfile:
    """Curvature and torsion sampled along arc length.

    Where ``kappa_valid`` is False the torsion is undefined (near-straight
    segment) and ``tau`` holds the sentinel value 0.
    """

    s: np.ndarray            # (n,), mm
    kappa: np.ndarray        # (n,), 1/mm, >= 0
    tau: np.ndarray          # (n,), 1/mm
    kappa_valid: np.ndarray  # (n,), bool

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        kappa = np.asarray(self.kappa, dtype=float)
        tau = np.asarray(self.tau, dtype=float)
        valid = np.asarray(self.kappa_valid, dtype=bool)
        for name, arr in (("kappa", kappa), ("tau", tau), ("kappa_valid", valid)):
            if arr.shape != s.shape:
                raise ValueError(f"{name} must match s in length")
        if np.any(np.diff(s) <= 0):
            raise ValueError("s must be strictly increasing")
        if np.any(kappa < 0):
            raise ValueError("kappa must be non-negative")
        if np.any(tau[~valid] != 0.0):
            raise ValueError("tau must be 0 where kappa_valid is False")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "kappa_valid", valid)

    @property
    def n(self) -> int:
        return len(self.s)


@dataclass(frozen=True)
class SignChange:
    """A torsion zero crossing attributed to the nearest guide disk."""

    s_pos: float                   # mm
    nearest_disk: int              # 1-based disk index
    direction: CrossingDirection
    magnitude: float               # min flanking |tau| peak, 1/mm


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing-spline settings; lam=None selects lambda by GCV.

    Torsion estimates are ill-conditioned where curvature is small (their
    variance grows like 1/kappa^2), so before fitting the torsion channel,
    samples whose curvature falls below ``tau_reliability_floor`` times the
    profile's 90th-percentile curvature are clamped, sign preserved, to the
    largest |tau| seen on reliable samples.  Set the floor to None to fit
    raw values.
    """

    lam: float | None = None  # penalty on the arc coordinate rescaled to [0, 1]
    grid_points: int = 200
    tau_reliability_floor: float | None = 0.1


def arc_length_parameterize(points) -> Curve3D:
    """Build a Curve3D from ordered samples using cumulative chord length."""
    pts = np.asarray(points, dtype=float)
    chords = np.linalg.norm(np.diff(pts, axis=0), axis=-1)
    return Curve3D(points=pts, s=np.concatenate(([0.0], np.cumsum(chords))))


def fd_weights(x: np.ndarray, z: float | np.ndarray, max_order: int) -> np.ndarray:
    """Finite-difference weights on arbitrary nodes (Fornberg's recursion).

    Broadcasts over stencils: nodes ``x`` (..., n) and points ``z`` (...) give
    weights of shape (..., max_order + 1, n); row k dotted with samples at x
    approximates the k-th derivative at z.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if n < max_order + 1:
        raise ValueError("stencil too small for requested derivative")
    c = np.zeros(x.shape[:-1] + (max_order + 1, n))
    c[..., 0, 0] = 1.0
    c1 = 1.0
    c4 = x[..., 0] - z
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = x[..., i] - z
        for j in range(i):
            c3 = x[..., i] - x[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[..., k, i] = c1 * (k * c[..., k - 1, i - 1] - c5 * c[..., k, i - 1]) / c2
                c[..., 0, i] = -c1 * c5 * c[..., 0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[..., k, j] = (c4 * c[..., k, j] - k * c[..., k - 1, j]) / c3
            c[..., 0, j] = c4 * c[..., 0, j] / c3
        c1 = c2
    return c


def ct_profile(curve: Curve3D) -> CTProfile:
    """Curvature and torsion from chord-parameterized derivatives.

    kappa = |r' x r''| / |r'|^3 and tau = (r' x r'') . r''' / |r' x r''|^2,
    with r', r'' from 3-point and r''' from 5-point nonuniform stencils
    (one-sided at the ends).  Samples with |r' x r''|^2 < EPS_CROSS get
    kappa_valid=False and tau=0.
    """
    pts, s, n = curve.points, curve.s, curve.n
    w5_size = min(5, n)  # a 4-point curve still determines a third derivative
    idx3 = np.clip(np.arange(n) - 1, 0, n - 3)[:, None] + np.arange(3)
    idx5 = np.clip(np.arange(n) - 2, 0, n - w5_size)[:, None] + np.arange(w5_size)
    w3 = fd_weights(s[idx3], s, 2)
    w5 = fd_weights(s[idx5], s, 3)
    # stacked matmuls round like one sample's BLAS dot (einsum and sum do not)
    # and float_power like scalar C pow: each sample keeps its one-at-a-time bits
    r1 = (w3[:, 1, None, :] @ pts[idx3])[:, 0]
    r2 = (w3[:, 2, None, :] @ pts[idx3])[:, 0]
    r3 = (w5[:, 3, None, :] @ pts[idx5])[:, 0]
    cr = np.cross(r1, r2)
    cr2 = (cr[:, None, :] @ cr[:, :, None])[:, 0, 0]
    speed = np.sqrt((r1[:, None, :] @ r1[:, :, None])[:, 0, 0])
    kappa = np.sqrt(cr2) / np.float_power(speed, 3)
    valid = cr2 >= EPS_CROSS
    tau = np.zeros(n)
    tau[valid] = (cr[valid, None, :] @ r3[valid, :, None])[:, 0, 0] / cr2[valid]
    return CTProfile(s=s.copy(), kappa=kappa, tau=tau, kappa_valid=valid)


def smooth_profile(profile: CTProfile, smoothing: SmoothingParams = SmoothingParams()) -> CTProfile:
    """Replace kappa/tau by smoothing-spline fits on a uniform arc grid.

    The curvature channel is fit on all samples; the torsion channel only on
    samples where it is defined (after the reliability clamp described on
    SmoothingParams), and grid points outside the defined range keep the
    tau=0 sentinel.
    """
    if profile.n < 4:
        raise TooFewValidSamples("curvature channel needs >= 4 samples")
    n_valid = int(np.count_nonzero(profile.kappa_valid))
    if n_valid < 4:
        raise TooFewValidSamples(f"torsion channel has {n_valid} valid samples, needs >= 4")
    curvature = smooth_curvature(profile, smoothing)
    grid = curvature.s

    sv = profile.s[profile.kappa_valid]
    tv = profile.tau[profile.kappa_valid].copy()
    if smoothing.tau_reliability_floor is not None:
        kv = profile.kappa[profile.kappa_valid]
        reliable = kv >= smoothing.tau_reliability_floor * np.quantile(kv, 0.9)
        if reliable.any() and not reliable.all():
            ceiling = float(np.abs(tv[reliable]).max())
            tv = np.clip(tv, -ceiling, ceiling)
    in_range = (grid >= sv[0]) & (grid <= sv[-1])
    tau_g = np.zeros_like(grid)
    tau_g[in_range] = _spline_fit(sv, tv, grid[in_range], profile.s, smoothing.lam)
    return CTProfile(s=grid, kappa=curvature.kappa, tau=tau_g, kappa_valid=in_range)


def smooth_curvature(profile: CTProfile,
                     smoothing: SmoothingParams = SmoothingParams()) -> CTProfile:
    """Curvature-only smoothed profile on a uniform arc grid.

    The curvature channel of ``smooth_profile``; tau keeps the 0 sentinel and
    no grid point is valid.
    """
    grid = np.linspace(profile.s[0], profile.s[-1], smoothing.grid_points)
    kappa = np.clip(_spline_fit(profile.s, profile.kappa, grid, profile.s, smoothing.lam),
                    0.0, None)
    return CTProfile(s=grid, kappa=kappa, tau=np.zeros_like(grid),
                     kappa_valid=np.zeros(len(grid), dtype=bool))


def _spline_fit(s, values, at, arc, lam: float | None) -> np.ndarray:
    """Smoothing spline through ``(s, values)``, evaluated at ``at``.

    GCV's lambda selection is sensitive to the abscissa scale, so the fit
    runs on the arc coordinate with ``arc``'s range rescaled to [0, 1].
    """
    s0, span = arc[0], arc[-1] - arc[0]
    fit = make_smoothing_spline((s - s0) / span, values, lam=lam)
    return fit((at - s0) / span)


def _crossings_in_run(s, tau, idx):
    """Zero crossings of tau within one contiguous valid run of indices."""
    crossings = []
    signs = np.sign(tau[idx])
    nz = np.nonzero(signs)[0]
    for a, b in zip(nz[:-1], nz[1:]):
        if signs[a] * signs[b] < 0:
            ia, ib = idx[a], idx[b]
            if b == a + 1:
                # linear interpolation between the bracketing samples
                t0, t1 = tau[ia], tau[ib]
                s_pos = s[ia] + (s[ib] - s[ia]) * (t0 / (t0 - t1))
            else:
                s_pos = 0.5 * (s[ia] + s[ib])  # crossing inside a zero run
            direction = (CrossingDirection.POS_TO_NEG if signs[a] > 0
                         else CrossingDirection.NEG_TO_POS)
            crossings.append((s_pos, ia, ib, direction))
    return crossings


def torsion_sign_changes(profile: CTProfile, disk_s,
                         threshold_rel: float = THRESHOLD_REL) -> list[SignChange]:
    """Threshold-passing torsion zero crossings mapped to nearest disks.

    A crossing qualifies when the |tau| peaks on both flanks (up to the
    neighboring crossing or the end of the valid run) exceed
    ``threshold_rel`` times the profile's largest valid |tau|.  Crossings
    nearest disk 1 or 2 are suppressed: the clamped end produces derivative
    artifacts that far out.
    """
    disk_s = np.asarray(disk_s, dtype=float)
    if len(disk_s) < 2 or np.any(np.diff(disk_s) <= 0):
        raise ValueError("disk_s must be strictly increasing with >= 2 entries")
    tau_abs = np.abs(profile.tau[profile.kappa_valid])
    if tau_abs.size == 0:
        return []
    threshold = threshold_rel * float(tau_abs.max())
    if threshold <= 0.0:
        threshold = np.finfo(float).tiny

    s, tau, valid = profile.s, profile.tau, profile.kappa_valid
    changes: list[SignChange] = []
    # split valid samples into contiguous runs
    vi = np.nonzero(valid)[0]
    if vi.size == 0:
        return []
    run_breaks = np.nonzero(np.diff(vi) > 1)[0]
    runs = np.split(vi, run_breaks + 1)
    for run in runs:
        if len(run) < 2:
            continue
        crossings = _crossings_in_run(s, tau, run)
        for k, (s_pos, ia, ib, direction) in enumerate(crossings):
            left_lo = run[0] if k == 0 else crossings[k - 1][2]
            right_hi = run[-1] if k == len(crossings) - 1 else crossings[k + 1][1]
            left_peak = float(np.max(np.abs(tau[left_lo:ia + 1])))
            right_peak = float(np.max(np.abs(tau[ib:right_hi + 1])))
            if left_peak <= threshold or right_peak <= threshold:
                continue
            nearest = int(np.argmin(np.abs(disk_s - s_pos))) + 1
            if nearest <= 2:
                continue
            changes.append(SignChange(
                s_pos=float(s_pos),
                nearest_disk=nearest,
                direction=direction,
                magnitude=min(left_peak, right_peak),
            ))
    changes.sort(key=lambda c: c.s_pos)
    return changes
