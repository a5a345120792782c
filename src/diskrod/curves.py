"""Differential geometry of discrete 3D backbone curves.

Pipeline: raw points -> chord-parameterized curve -> curvature/torsion
profile by nonuniform finite differences -> smoothing-spline profile on a
uniform arc grid -> torsion zero crossings mapped to disk positions.

The smoothing spline is the natural cubic smoother computed by Reinsch's
algorithm: one pentadiagonal banded solve for its second derivatives at the
knots, so a fit costs O(n), and 4 samples, the fewest a profile can have,
are enough.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSegment, TooFewPoints, TooFewValidSamples

MIN_POINTS = 4          # third derivatives need at least 4 samples
MIN_CHORD_MM = 1e-6     # consecutive points closer than this are degenerate
EPS_CROSS = 1e-12       # |r' x r''|^2 below this: torsion undefined, tau := 0
THRESHOLD_REL = 0.2     # sign-change threshold as a fraction of max |tau|
# Near-interpolating smoothing splines: an analysis profile has one honest
# sample per disk, and a heavier penalty flattens its sign-change lobes.  The
# penalty is defined on the arc coordinate rescaled to [0, 1].
SPLINE_LAM = 1e-6
GRID_POINTS = 200       # uniform arc grid of a smoothed profile
# Torsion estimates are ill-conditioned where curvature is small (their
# variance grows like 1/kappa^2): before the torsion fit, samples whose
# curvature is below this fraction of the profile's 90th-percentile curvature
# are clamped, sign preserved, to the largest |tau| on the other samples.
TAU_RELIABILITY_FLOOR = 0.1


class CrossingDirection(enum.Enum):
    POS_TO_NEG = "pos_to_neg"
    NEG_TO_POS = "neg_to_pos"


@dataclass(frozen=True, eq=False)
class Curve3D:
    """Ordered 3D samples of a backbone with cumulative-chord arc length."""

    points: np.ndarray  # (n, 3), mm
    s: np.ndarray = field(init=False)  # (n,), mm, s[0] = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must be an (n, 3) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if len(pts) < MIN_POINTS:
            raise TooFewPoints(f"need >= {MIN_POINTS} points, got {len(pts)}")
        chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(chords <= MIN_CHORD_MM):
            raise DegenerateSegment("consecutive points coincide")
        object.__setattr__(self, "s", np.concatenate(([0.0], np.cumsum(chords))))

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


def curvature(curve: Curve3D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Curvature channel of ``ct_profile``: kappa = |r' x r''| / |r'|^3 per
    sample, with r', r'' from 3-point nonuniform stencils (one-sided at the
    ends), returned with r' x r'' and |r' x r''|^2, which the torsion reads.
    """
    pts, s, n = curve.points, curve.s, curve.n
    idx3 = np.clip(np.arange(n) - 1, 0, n - 3)[:, None] + np.arange(3)
    w3 = fd_weights(s[idx3], s, 2)
    # stacked matmuls round like one sample's BLAS dot (einsum and sum do not)
    # and float_power like scalar C pow: each sample keeps its one-at-a-time bits
    r1 = (w3[:, 1, None, :] @ pts[idx3])[:, 0]
    r2 = (w3[:, 2, None, :] @ pts[idx3])[:, 0]
    cr = np.cross(r1, r2)
    cr2 = (cr[:, None, :] @ cr[:, :, None])[:, 0, 0]
    speed = np.sqrt((r1[:, None, :] @ r1[:, :, None])[:, 0, 0])
    return np.sqrt(cr2) / np.float_power(speed, 3), cr, cr2


def ct_profile(curve: Curve3D) -> CTProfile:
    """Curvature and torsion from chord-parameterized derivatives.

    kappa from ``curvature``, and tau = (r' x r'') . r''' / |r' x r''|^2 with
    r''' from 5-point nonuniform stencils (one-sided at the ends).  Samples
    with |r' x r''|^2 < EPS_CROSS get kappa_valid=False and tau=0.
    """
    pts, s, n = curve.points, curve.s, curve.n
    kappa, cr, cr2 = curvature(curve)
    w5_size = min(5, n)  # a 4-point curve still determines a third derivative
    idx5 = np.clip(np.arange(n) - 2, 0, n - w5_size)[:, None] + np.arange(w5_size)
    w5 = fd_weights(s[idx5], s, 3)
    r3 = (w5[:, 3, None, :] @ pts[idx5])[:, 0]
    valid = cr2 >= EPS_CROSS
    tau = np.zeros(n)
    tau[valid] = (cr[valid, None, :] @ r3[valid, :, None])[:, 0, 0] / cr2[valid]
    return CTProfile(s=s.copy(), kappa=kappa, tau=tau, kappa_valid=valid)


def smooth_curvature(s: np.ndarray, kappa: np.ndarray) -> CTProfile:
    """Curvature channel of ``smooth_profile``: the smoothing-spline fit of
    the curvature samples ``kappa`` at arc positions ``s`` on a uniform arc
    grid, clipped at 0, as a curvature-only profile (tau 0, no valid grid
    point).  Needs >= 4 samples.
    """
    if len(s) < 4:
        raise TooFewValidSamples("curvature channel needs >= 4 samples")
    grid = np.linspace(s[0], s[-1], GRID_POINTS)
    return CTProfile(s=grid, kappa=np.clip(_spline_fit(s, kappa, grid, s), 0.0, None),
                     tau=np.zeros(GRID_POINTS), kappa_valid=np.zeros(GRID_POINTS, dtype=bool))


def smooth_profile(profile: CTProfile) -> CTProfile:
    """Replace kappa/tau by smoothing-spline fits on a uniform arc grid.

    The curvature channel (``smooth_curvature``) is fit on all samples; the
    torsion channel only on samples where it is defined (after the
    TAU_RELIABILITY_FLOOR clamp), and grid points outside the defined range
    keep the tau=0 sentinel.  A profile with fewer than 4 defined torsion
    samples (a curve too straight to define torsion, such as an unactuated
    hanging backbone) gets the curvature-only result.
    """
    curvature_only = smooth_curvature(profile.s, profile.kappa)
    if np.count_nonzero(profile.kappa_valid) < 4:
        return curvature_only

    grid = curvature_only.s
    tau_g = np.zeros(GRID_POINTS)
    sv = profile.s[profile.kappa_valid]
    tv = profile.tau[profile.kappa_valid].copy()
    kv = profile.kappa[profile.kappa_valid]
    reliable = kv >= TAU_RELIABILITY_FLOOR * np.quantile(kv, 0.9)
    if reliable.any() and not reliable.all():
        ceiling = float(np.abs(tv[reliable]).max())
        tv = np.clip(tv, -ceiling, ceiling)
    in_range = (grid >= sv[0]) & (grid <= sv[-1])
    tau_g[in_range] = _spline_fit(sv, tv, grid[in_range], profile.s)
    return CTProfile(s=grid, kappa=curvature_only.kappa, tau=tau_g, kappa_valid=in_range)


def _solve_pentadiagonal(bands, rhs) -> np.ndarray:
    """Solve ``A x = rhs`` by the LDL^T factorisation of a symmetric positive
    definite pentadiagonal A, in Python floats.  ``bands`` holds A's upper
    bands: the second superdiagonal from column 2, the first from column 1,
    then the diagonal, with the unused leading entries zero.  A NaN or inf
    ``rhs`` raises ValueError.
    """
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side must be finite")
    # row k: m1 = L[k, k-1], m2 = L[k, k-2], d1 = D[k], z1 = (L^-1 rhs)[k];
    # the rows before the first read as d = 1, L = 0
    rows, d1, d2, m1, z1, z2 = [], 1.0, 1.0, 0.0, 0.0, 0.0
    for a2, a1, a0, b in zip(*bands.tolist(), rhs.tolist()):
        m2 = a2 / d2
        m1 = (a1 - m2 * m1 * d2) / d1
        d2, d1 = d1, a0 - m1 * m1 * d1 - m2 * m2 * d2
        z2, z1 = z1, b - m1 * z1 - m2 * z2
        rows.append((z1 / d1, m1, m2))
    # back substitution: x1, x2 = x[k+1], x[k+2]; n1 = L[k+1, k], n2 = L[k+2, k]
    x = []
    x1 = x2 = n1 = n2 = next_m2 = 0.0
    for y, m1, m2 in reversed(rows):
        x2, x1 = x1, y - n1 * x1 - n2 * x2
        x.append(x1)
        n1, n2, next_m2 = m1, next_m2, m2
    return np.array(x[::-1])


def _spline_fit(s, values, at, arc) -> np.ndarray:
    """Smoothing spline through ``(s, values)``, evaluated at ``at``.

    The natural cubic g minimising sum (values - g(s))^2 + SPLINE_LAM * int g''^2,
    by Reinsch's algorithm (Green & Silverman 1994, section 2.3): with Q the
    second divided differences and R the tridiagonal Gram matrix of the hat
    functions, g'' at the interior knots solves the pentadiagonal system
    (R + lam Q^T Q) gamma = Q^T values, and g = values - lam Q gamma at the
    knots.  SPLINE_LAM is defined on a unit arc span, so the fit runs on the
    arc coordinate with ``arc``'s range rescaled to [0, 1].  Needs >= 3
    samples; ``at`` must lie within ``s``'s range.  A NaN or inf value raises
    ValueError.
    """
    s0, span = arc[0], arc[-1] - arc[0]
    x, t = (s - s0) / span, (at - s0) / span
    h = np.diff(x)
    inv_h = 1.0 / h
    q_lo, q_mid, q_hi = inv_h[:-1], -inv_h[:-1] - inv_h[1:], inv_h[1:]  # Q's bands
    bands = np.zeros((3, len(x) - 2))  # upper form: superdiagonals 2, 1, diagonal
    bands[0, 2:] = SPLINE_LAM * q_hi[:-2] * q_lo[2:]
    bands[1, 1:] = h[1:-1] / 6.0 + SPLINE_LAM * (q_mid[:-1] * q_lo[1:] + q_hi[:-1] * q_mid[1:])
    bands[2] = (h[:-1] + h[1:]) / 3.0 + SPLINE_LAM * (q_lo**2 + q_mid**2 + q_hi**2)
    slopes = np.diff(values) * inv_h
    gamma = np.zeros(len(x))  # natural spline: g'' = 0 at both ends
    gamma[1:-1] = _solve_pentadiagonal(bands, np.diff(slopes))
    g = values - SPLINE_LAM * np.diff(np.diff(gamma) * inv_h, prepend=0.0, append=0.0)

    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
    hi = h[i]
    a, b = (x[i + 1] - t) / hi, (t - x[i]) / hi
    return (a * g[i] + b * g[i + 1]
            + ((a**3 - a) * gamma[i] + (b**3 - b) * gamma[i + 1]) * hi**2 / 6.0)


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
    artifacts that far out.  ``threshold_rel`` must be finite and >= 0.
    """
    if not 0.0 <= threshold_rel < np.inf:  # also rejects NaN
        raise ValueError(f"threshold_rel must be finite and >= 0, got {threshold_rel!r}")
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
