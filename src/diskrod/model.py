"""Quasi-static forward model of the disk-rerouted tendon manipulator.

The backbone is an inextensible discrete Kirchhoff rod: three strains per
element (two bending, one twist), frames propagated by rotation exponentials.
Lumped disk masses and distributed backbone weight load it under gravity; the
tendon is a displacement-controlled stiff unilateral spring running through
the guide-disk holes.  Equilibrium is the minimizer of the total energy.

Geometry convention: the base plate is clamped at the origin with identity
frame; the undeformed rod hangs along -z (stable under the default gravity).
Disk 1 sits at the clamp (its rotation only reroutes the tendon), disks are
spaced one segment apart, disk ``n_disks`` is the tip.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass, replace

import numpy as np

from .curves import Curve3D
from .errors import DimensionMismatch, NonFiniteEnergy, SolverNotConverged
from .rotations import (coefficients, cross, d_left_jacobian_tangent_t, exp_so3,
                        left_jacobian_apply, left_jacobian_tangent)

TENDON_MAX_MM = 140.0
DISK_ANGLE_MAX_DEG = 90.0
GRAD_TOL_MJ_PER_RAD = 1e-4
MAX_ITERATIONS = 5000
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9  # strong-Wolfe constants of the BFGS line search
LINE_SEARCH_TRIALS = 30         # energy evaluations one line search may spend
NOISE_FLOOR_ULPS = 64           # spacings of |f0| within which a predicted decrease is rounding
# gravitational energy in mJ = mass[g] * g[m/s^2] * height[mm] * 1e-3
_GRAV_MJ = 1e-3
_EYE = np.eye(3)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ManipulatorConfig:
    """Geometry, material, and mass parameters of the manipulator."""

    backbone_length_mm: float = 560.0
    n_disks: int = 9                      # rotatable disks; base plate extra
    tendon_hole_radius_mm: float = 34.0
    backbone_diameter_mm: float = 1.5
    elastic_modulus_mpa: float = 60000.0  # Nitinol
    shear_modulus_mpa: float = 23000.0
    disk_mass_g: float = 40.0             # servo + disk + bearing
    backbone_linear_density_g_per_mm: float = 0.0114  # Nitinol rod, 1.5 mm
    tendon_stiffness_n_per_mm: float = 50.0
    gravity_m_per_s2: tuple[float, float, float] = (0.0, 0.0, -9.81)
    elements_per_segment: int = 4

    def __post_init__(self):
        positives = {
            "backbone_length_mm": self.backbone_length_mm,
            "tendon_hole_radius_mm": self.tendon_hole_radius_mm,
            "backbone_diameter_mm": self.backbone_diameter_mm,
            "elastic_modulus_mpa": self.elastic_modulus_mpa,
            "shear_modulus_mpa": self.shear_modulus_mpa,
            "disk_mass_g": self.disk_mass_g,
            "backbone_linear_density_g_per_mm": self.backbone_linear_density_g_per_mm,
            "tendon_stiffness_n_per_mm": self.tendon_stiffness_n_per_mm,
        }
        for name, value in positives.items():
            if not (_is_real(value) and value > 0):  # also rejects NaN
                raise ValueError(f"{name} must be a number > 0, got {value!r}")
        for name, least in (("n_disks", 2), ("elements_per_segment", 1)):
            value = getattr(self, name)
            if not (_is_real(value) and isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        g = self.gravity_m_per_s2
        if not (isinstance(g, (tuple, list, np.ndarray)) and len(g) == 3
                and all(_is_real(v) and np.isfinite(v) for v in g)):
            raise ValueError(f"gravity_m_per_s2 must be three finite numbers, got {g!r}")
        if not (np.isfinite(self.bending_stiffness) and self.bending_stiffness > 0):
            raise ValueError("bending stiffness EI must be finite and positive")
        if not (np.isfinite(self.torsion_stiffness) and self.torsion_stiffness > 0):
            raise ValueError("torsional stiffness GJ must be finite and positive")
        object.__setattr__(self, "gravity_m_per_s2", tuple(float(g) for g in self.gravity_m_per_s2))

    @property
    def n_segments(self) -> int:
        return self.n_disks - 1

    @property
    def segment_length_mm(self) -> float:
        return self.backbone_length_mm / self.n_segments

    @property
    def n_elements(self) -> int:
        return self.n_segments * self.elements_per_segment

    @property
    def element_length_mm(self) -> float:
        return self.backbone_length_mm / self.n_elements

    @property
    def bending_stiffness(self) -> float:
        """EI in N mm^2 for the circular cross-section."""
        return self.elastic_modulus_mpa * np.pi * self.backbone_diameter_mm**4 / 64.0

    @property
    def torsion_stiffness(self) -> float:
        """GJ in N mm^2 for the circular cross-section."""
        return self.shear_modulus_mpa * np.pi * self.backbone_diameter_mm**4 / 32.0

    @property
    def disk_arc_positions_mm(self) -> np.ndarray:
        """Arc position of disks 1..n_disks; disk 1 sits at the clamp."""
        return np.arange(self.n_disks) * self.segment_length_mm

    @property
    def disk_node_indices(self) -> np.ndarray:
        return np.arange(self.n_disks) * self.elements_per_segment

    def node_masses_g(self) -> np.ndarray:
        """Lumped masses at element nodes: half-elements plus disk assemblies."""
        n_nodes = self.n_elements + 1
        m = np.full(n_nodes, self.backbone_linear_density_g_per_mm * self.element_length_mm)
        m[0] *= 0.5
        m[-1] *= 0.5
        m[self.disk_node_indices] += self.disk_mass_g
        return m


@dataclass(frozen=True)
class ActuationState:
    """Tendon displacement plus one rotation angle per disk."""

    tendon_mm: float = 0.0
    disk_angles_deg: tuple[float, ...] = (0.0,) * 9

    def __post_init__(self):
        object.__setattr__(self, "disk_angles_deg",
                           tuple(float(a) for a in self.disk_angles_deg))
        if not 0.0 <= self.tendon_mm <= TENDON_MAX_MM:
            raise ValueError(
                f"tendon_mm must be in [0, {TENDON_MAX_MM:g}], got {self.tendon_mm}")
        for i, a in enumerate(self.disk_angles_deg):
            if not abs(a) <= DISK_ANGLE_MAX_DEG:  # also rejects NaN
                raise ValueError(
                    f"disk angle {i + 1} = {a} deg outside +/-{DISK_ANGLE_MAX_DEG:g}")

    def with_angle(self, disk_index: int, angle_deg: float) -> "ActuationState":
        """Copy with the 1-based disk's angle replaced."""
        angles = list(self.disk_angles_deg)
        angles[disk_index - 1] = angle_deg
        return replace(self, disk_angles_deg=tuple(angles))


@dataclass(frozen=True, eq=False)
class Shape:
    """Equilibrium backbone: base plate plus disk centers/frames, dense curve."""

    disk_centers: np.ndarray  # (n_disks + 1, 3), row 0 = base plate
    disk_frames: np.ndarray   # (n_disks + 1, 3, 3)
    dense_curve: Curve3D


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    shape: Shape
    energy_mj: float
    gradient_inf_norm: float
    iterations: int
    evaluations: int  # energy-and-gradient kernel calls the solve made
    converged: bool
    tendon_path_length_mm: float
    dof: np.ndarray  # strains (n_elements, 3), minimizer
    # BFGS inverse Hessian (rad^2/mJ) at the solve's last update; the rank-two
    # update keeps it exactly symmetric, so it can start the next solve as is
    hess_inv: np.ndarray | None = None
    # how the solve began: "cold" from the straight rod, "last" from given
    # strains (``forward``: the cache's last minimizer) and "predicted" from
    # given strains with a carried ``hess_inv`` (``forward``: a path prediction)
    start: str = "cold"


def _propagate(psi: np.ndarray, length: float):
    """Node positions, node frames and the rotation coefficients of the
    per-element rotation vectors ``psi`` (n_elements, 3), elements ``length`` mm."""
    n = len(psi)
    coeffs = coefficients(psi)
    frames = np.empty((n + 1, 3, 3))
    frames[0] = _EYE
    # frame k + 1 is the prefix product R_0 ... R_k of the element rotations,
    # by a doubling scan (Hillis & Steele): after the pass with shift s each
    # entry holds the product of the up to 2s rotations ending at it, so
    # ceil(log2 n) batched matmuls do what n sequential ones would
    prefix = frames[1:]
    prefix[...] = exp_so3(psi, coeffs)
    shift = 1
    while shift < n:
        prefix[shift:] = prefix[:-shift] @ prefix[shift:]
        shift *= 2
    steps = length * left_jacobian_tangent(psi, coeffs)
    positions = np.zeros((n + 1, 3))
    np.add.accumulate(np.einsum("kij,kj->ki", frames[:-1], steps), axis=0, out=positions[1:])
    return positions, frames, coeffs


def _disk_row_indices(config: ManipulatorConfig) -> np.ndarray:
    """Node indices of the base plate and disks 1..n (disk 1 shares node 0)."""
    return np.concatenate(([0], config.disk_node_indices))


def _local_holes(theta_rad, radius: float) -> np.ndarray:
    """Hole offsets in the base-plate and disk frames: the base anchor sits at
    angle zero, disk i's hole at ``theta_rad[i]``."""
    theta = np.concatenate(([0.0], theta_rad))
    return radius * np.column_stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)])


def _tendon_holes(centers, frames, local):
    """Hole positions (base anchor first) and the per-disk radial offsets.

    ``centers``/``frames`` hold the base-plate row plus disks 1..n, ``local``
    the matching ``_local_holes``.
    """
    offsets = np.einsum("kij,kj->ki", frames, local)
    return centers + offsets, offsets[1:]


@functools.lru_cache(maxsize=16)
def _straight_rows(config: ManipulatorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Centers and frames of the base plate and disks 1..n on the straight
    rod, which hangs along -z with identity frames; built once per config."""
    rows = _disk_row_indices(config)
    centers = np.zeros((len(rows), 3))
    centers[:, 2] = -rows * config.element_length_mm
    centers.flags.writeable = False
    return centers, np.broadcast_to(_EYE, (len(rows), 3, 3))


def _slack_path(config: ManipulatorConfig, local_holes: np.ndarray) -> float:
    """Tendon path length through the holes ``local_holes`` on the straight rod."""
    holes, _ = _tendon_holes(*_straight_rows(config), local_holes)
    edges = holes[1:] - holes[:-1]
    return float(np.add.reduce(np.sqrt(np.add.reduce(edges * edges, axis=1))))


def _actuation_holes(config: ManipulatorConfig, actuation: ActuationState) -> np.ndarray:
    """``_local_holes`` of the actuation's disk angles.  Every solve starts
    here, so this is where the disk-angle count is checked."""
    if len(actuation.disk_angles_deg) != config.n_disks:
        raise DimensionMismatch(
            f"{len(actuation.disk_angles_deg)} disk angles for {config.n_disks} disks")
    return _local_holes(np.deg2rad(actuation.disk_angles_deg), config.tendon_hole_radius_mm)


def slack_path_length(config: ManipulatorConfig, actuation: ActuationState) -> float:
    """Tendon path length through the holes with the backbone straight: the
    base plate and disks hang along -z with identity frames."""
    return _slack_path(config, _actuation_holes(config, actuation))


@dataclass(frozen=True, eq=False)
class _Rod:
    """What ``_energy_and_gradient`` needs besides the strains: one config
    under one actuation.  All but ``local_holes`` and ``l_ref`` are the
    config's, built once per config (``_rod_constants``)."""

    n_el: int
    length: float              # element length, mm
    stiff: np.ndarray          # [EI, EI, GJ], N mm^2
    gravity: np.ndarray        # m/s^2
    masses: np.ndarray         # lumped node masses, g
    gravity_force: np.ndarray  # gravity's dE/dq at the nodes, (n_nodes, 3)
    rows: np.ndarray           # node indices of the base plate and disks 1..n
    per_segment: int           # elements per segment: disk i sits at node (i - 1) * per_segment
    local_holes: np.ndarray    # ``_local_holes`` of the actuation's disk angles
    l_ref: float               # tendon rest length, mm
    k_t: float                 # tendon stiffness, N/mm


@functools.lru_cache(maxsize=16)
def _rod_constants(config: ManipulatorConfig) -> dict:
    """The ``_Rod`` fields that depend on the config alone, as read-only
    arrays: built once per config, shared by every rod of it."""
    gravity = np.array(config.gravity_m_per_s2)
    masses = config.node_masses_g()
    stiff = np.array([config.bending_stiffness, config.bending_stiffness,
                      config.torsion_stiffness])
    gravity_force = np.outer(masses, -_GRAV_MJ * gravity)
    rows = _disk_row_indices(config)
    for array in (gravity, masses, stiff, gravity_force, rows):
        array.flags.writeable = False
    return dict(n_el=config.n_elements, length=config.element_length_mm, stiff=stiff,
                gravity=gravity, masses=masses, gravity_force=gravity_force, rows=rows,
                per_segment=config.elements_per_segment,
                k_t=config.tendon_stiffness_n_per_mm)


def _rod(config: ManipulatorConfig, theta_rad: np.ndarray, l_ref: float) -> _Rod:
    """Kernel constants for disk angles ``theta_rad`` and tendon rest length ``l_ref``."""
    return _Rod(**_rod_constants(config), l_ref=l_ref,
                local_holes=_local_holes(theta_rad, config.tendon_hole_radius_mm))


def _actuated_rod(config: ManipulatorConfig, actuation: ActuationState) -> _Rod:
    """Kernel constants for an actuation: its disk angles and tendon rest length."""
    local = _actuation_holes(config, actuation)
    return _Rod(**_rod_constants(config), local_holes=local,
                l_ref=_slack_path(config, local) - actuation.tendon_mm)


def _energy_and_gradient(psi_flat: np.ndarray, rod: _Rod, want_grad: bool = True):
    """Total energy (mJ), its gradient w.r.t. per-element rotation vectors
    (None unless ``want_grad``), the tendon path length (mm), and the node
    positions and frames of ``_propagate`` at ``psi_flat``.

    The gradient treats each element's rotation vector as the coordinate;
    perturbing element k moves everything distal to it rigidly, so the
    gradient is assembled from running force/torque sums over distal nodes
    and tendon holes (one backward sweep of reversed cumulative sums), plus
    the local elastic term and the chain rule through the exponential map
    (right Jacobian) and the translation integral (derivative of the left
    Jacobian), evaluated for all elements at once.
    """
    length = rod.length
    psi = psi_flat.reshape(rod.n_el, 3)

    positions, frames, coeffs = _propagate(psi, length)

    e_elastic = float(np.add.reduce(psi * psi * rod.stiff, axis=None) / (2.0 * length))

    e_gravity = -_GRAV_MJ * float(rod.masses @ (positions @ rod.gravity))

    # tendon path through holes at the current deformation
    holes, radials = _tendon_holes(positions[rod.rows], frames[rod.rows], rod.local_holes)
    edges = holes[1:] - holes[:-1]
    edge_len = np.sqrt(np.add.reduce(edges * edges, axis=1))
    path = float(np.add.reduce(edge_len))
    stretch = path - rod.l_ref
    taut = stretch > 0.0
    e_tendon = 0.5 * rod.k_t * stretch**2 if taut else 0.0

    energy = e_elastic + e_gravity + e_tendon
    if not want_grad:
        return energy, None, path, positions, frames

    # point forces dE/dq at nodes: gravity, and the taut tendon at the disk
    # holes, each pulled back along the edge before it and on along the one
    # after it (the base anchor's reaction does not enter)
    node_force = rod.gravity_force.copy()  # (n_nodes, 3)
    node_torque = np.zeros(node_force.shape)
    if taut:
        unit = np.divide(edges, edge_len[:, None], out=np.zeros(edges.shape),
                         where=edge_len[:, None] > 1e-12)
        hole_force = (rod.k_t * stretch) * unit
        hole_force[:-1] -= hole_force[1:]
        disks = slice(0, None, rod.per_segment)  # disk nodes 0, e, 2e, ...
        node_force[disks] += hole_force
        node_torque[disks] = cross(radials, hole_force)

    # backward sweep: force/torque resultants over nodes >= j, as reversed
    # running sums; the torque about node j steps by (p[j+1] - p[j]) x S[j+1]
    s_force = np.add.accumulate(node_force[::-1], axis=0)[::-1]
    node_torque[:-1] += cross(positions[1:] - positions[:-1], s_force[1:])
    s_torque = np.add.accumulate(node_torque[::-1], axis=0)[::-1]

    # chain rule per element k: the translation integral through
    # d(J_l t)/d(psi_k), the rotation through J_r(psi_k)^T = J_l(psi_k)
    force_k = np.einsum("kji,kj->ki", frames[:-1], s_force[1:])
    torque_k = np.einsum("kji,kj->ki", frames[1:], s_torque[1:])
    grad = (psi * rod.stiff) / length
    grad += length * d_left_jacobian_tangent_t(psi, force_k, coeffs)
    grad += left_jacobian_apply(psi, torque_k, coeffs)
    return energy, grad.reshape(-1), path, positions, frames


def total_energy(dof, config: ManipulatorConfig, actuation: ActuationState) -> float:
    """Total potential energy (mJ) of a strain state under the actuation.

    ``dof`` holds three strains per element (two bending curvatures and one
    twist rate, 1/mm), flat or (n_elements, 3).
    """
    dof = np.asarray(dof, dtype=float)
    n_el = config.n_elements
    if dof.size != 3 * n_el:
        raise DimensionMismatch(f"dof must have {3 * n_el} entries, got {dof.size}")
    psi = dof.reshape(n_el, 3) * config.element_length_mm
    return _energy_and_gradient(psi.reshape(-1), _actuated_rod(config, actuation),
                                want_grad=False)[0]


def _tendon_path_gradient(psi_flat: np.ndarray, rod: _Rod):
    """Tendon path length (mm) at ``psi_flat`` and its gradient J with respect
    to the rotation vectors, from one kernel call on ``rod`` without gravity
    or elastic term and with a unit-stiffness tendon of zero rest length: that
    tendon is taut at any shape, and its gradient is its tension, the path
    length, times J."""
    probe = replace(rod, stiff=np.zeros(3), gravity=np.zeros(3),
                    gravity_force=np.zeros_like(rod.gravity_force), l_ref=0.0, k_t=1.0)
    _, grad, path, _, _ = _energy_and_gradient(psi_flat, probe)
    return path, grad / path


def _start_hess_inv(psi_flat: np.ndarray, rod: _Rod) -> np.ndarray:
    """Inverse Hessian that a solve from ``psi_flat`` starts BFGS with when it
    carries none: ``(D^-1 + k J J^T)^-1``, by Sherman-Morrison
    ``D - k (DJ)(DJ)^T / (1 + k J^T D J)``.

    D is the inverse elastic diagonal, ``L / [EI, EI, GJ]`` per element, and
    ``k J J^T`` the Gauss-Newton term of the tendon energy
    ``k_t (path - l_ref)^2 / 2`` (Nocedal & Wright, Numerical Optimization,
    sec. 10.3): k is ``k_t`` while the tendon is taut at ``psi_flat`` and 0
    otherwise, which leaves D exactly.  Costs one kernel call
    (``_tendon_path_gradient``).
    """
    path, jac = _tendon_path_gradient(psi_flat, rod)
    diag = np.tile(rod.length / rod.stiff, rod.n_el)
    k = rod.k_t if path > rod.l_ref else 0.0
    dj = diag * jac
    h_start = np.diag(diag)
    h_start -= (k / (1.0 + k * (jac @ dj))) * np.outer(dj, dj)
    return h_start


def _make_shape(positions, frames, config: ManipulatorConfig) -> Shape:
    rows = _disk_row_indices(config)
    centers, fr = positions[rows], frames[rows]
    # disk 1 shares the clamp with the base plate, so distance checks start at
    # the disk1-disk2 gap; an inextensible backbone can only shorten chords
    seg = config.segment_length_mm
    chords = centers[2:] - centers[1:-1]
    gaps = np.sqrt(np.add.reduce(chords * chords, axis=1))
    if np.maximum.reduce(gaps) > seg * (1.0 + 1e-9) or np.minimum.reduce(gaps) < 0.5 * seg:
        raise RuntimeError("solver produced an inconsistent disk chain")
    if np.maximum.reduce(np.abs(fr @ fr.transpose(0, 2, 1) - _EYE), axis=None) > 1e-9:
        raise RuntimeError("solver produced a non-orthonormal frame")
    return Shape(disk_centers=centers, disk_frames=fr,
                 dense_curve=Curve3D(positions))


def _line_search(evaluate, x, d, f0, g0, alpha):
    """Step length along ``d`` from ``x`` that meets the strong Wolfe
    conditions, as ``(alpha, f, g, |g|_inf)`` at ``x + alpha d``, where
    ``evaluate(x) -> (energy, gradient, gradient inf norm)``; None when ``d`` is no
    descent direction, when a rejected trial's predicted decrease
    ``alpha |g0 . d|`` is within NOISE_FLOOR_ULPS spacings of ``f0`` (the
    energy cannot tell it from rounding), or when LINE_SEARCH_TRIALS
    evaluations find no such step.

    Nocedal & Wright, Numerical Optimization, Alg. 3.5: the first trial is
    ``alpha``, which doubles while the energy still falls steeply.  Once a
    trial brackets a step, the zoom of Alg. 3.6 tries the minimiser of the
    quadratic through the low end's energy and slope and the high end's
    energy, and bisects when that lies within a tenth of the bracket of
    either end.
    """
    slope0 = g0 @ d
    if not slope0 < 0.0:
        return None
    lo, hi = (0.0, f0, slope0), None  # (step, energy, slope); lo has sufficient decrease
    for _ in range(LINE_SEARCH_TRIALS):
        if hi is not None:
            width = hi[0] - lo[0]
            curve = hi[1] - lo[1] - lo[2] * width
            t = -0.5 * lo[2] * width / curve if curve > 0.0 else 0.5
            alpha = lo[0] + (t if 0.1 <= t <= 0.9 else 0.5) * width
        f, g, g_norm = evaluate(x + alpha * d)
        slope = g @ d
        if f > f0 + WOLFE_C1 * alpha * slope0 or f >= lo[1]:
            if -alpha * slope0 <= NOISE_FLOOR_ULPS * np.spacing(abs(f0)):
                return None
            hi = (alpha, f, slope)
        elif abs(slope) <= -WOLFE_C2 * slope0:
            return alpha, f, g, g_norm
        elif hi is None and slope < 0.0:
            lo, alpha = (alpha, f, slope), 2.0 * alpha
        else:
            if hi is None or slope * (hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = (alpha, f, slope)
    return None


def _bfgs(evaluate, x: np.ndarray, h_start) -> tuple[int, np.ndarray | None]:
    """BFGS on ``evaluate(x) -> (energy, gradient, gradient inf norm)`` from
    ``x``.  ``h_start()`` gives the inverse Hessian to start from, an array
    this updates in place; it is called only once a first step is needed.

    Each iteration steps along ``-H g`` with the strong-Wolfe ``_line_search``,
    whose first trial ``min(1, 2.02 (f - f_prev) / slope)`` would repeat the
    last decrease, and updates ``H`` by ``_bfgs_correction`` in O(n^2), which
    keeps a symmetric ``H`` exactly symmetric.  Stops at a gradient
    infinity norm of 0.3 * GRAD_TOL_MJ_PER_RAD, after MAX_ITERATIONS or when
    no step is found.  Returns the iteration count and the last ``H``, None
    when ``x`` already meets the stop test.
    """
    gtol = 0.3 * GRAD_TOL_MJ_PER_RAD
    f, g, g_norm = evaluate(x)
    if g_norm <= gtol:
        return 0, None
    h_inv = h_start()
    f_prev = f + np.linalg.norm(g) / 2  # the first step guess moves about 1 rad
    iterations = 0
    while iterations < MAX_ITERATIONS:
        direction = -(h_inv @ g)
        slope = g @ direction
        alpha = min(1.0, 2.02 * (f - f_prev) / slope) if slope < 0.0 and f < f_prev else 1.0
        step = _line_search(evaluate, x, direction, f, g, alpha)
        if step is None:
            break
        alpha, f_new, g_new, g_norm = step
        f_prev, f = f, f_new
        s = alpha * direction
        x = x + s
        y = g_new - g
        g = g_new
        iterations += 1
        if g_norm <= gtol or not s.any():  # a zero step cannot move again
            break
        h_inv += _bfgs_correction(h_inv, s, y)
    return iterations, h_inv


def _bfgs_correction(h_inv: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """What the BFGS update (Nocedal & Wright, eq. 6.17) adds to the inverse
    Hessian ``h_inv`` for the step ``s`` and gradient change ``y``.

    ``(I - rho s y^T) H (I - rho y s^T) + rho s s^T - H`` is
    ``a p p^T - (rho^2 / a) Hy Hy^T`` with ``a = rho^2 y^T H y + rho`` and
    ``p = s - (rho / a) Hy``, that is ``u u^T - v v^T`` with ``u = sqrt(a) p``
    and ``v = (rho / sqrt(a)) Hy``.  It is formed as one product of the
    ``n x 2`` matrix ``[u v]`` and the rows ``u, -v``, whose (i, j) and (j, i)
    entries sum the same two products in the same order, so a symmetric
    ``h_inv`` stays exactly symmetric.  ``rho = 1000`` guards ``y.s <= 0``,
    which the strong Wolfe conditions leave only to rounding.
    """
    ys = y @ s
    rho = 1000.0 if ys <= 0.0 else 1.0 / ys
    hy = h_inv @ y
    root_a = math.sqrt(rho * rho * (y @ hy) + rho)
    v = (rho / root_a) * hy
    u = root_a * s - v
    return np.array((u, v)).T @ np.array((u, -v))


def solve_equilibrium(config: ManipulatorConfig, actuation: ActuationState,
                      warm_start: np.ndarray | None = None,
                      warm_hess_inv: np.ndarray | None = None) -> EquilibriumReport:
    """Minimize total energy over the rod strains: one BFGS solve (``_bfgs``)
    on the analytic gradient.  ``warm_start`` (strains) and ``warm_hess_inv``
    (a report's ``hess_inv``, left unmodified) carry a neighbouring solve's
    minimizer and learnt curvature.  Without ``warm_hess_inv`` the inverse
    Hessian starts from ``_start_hess_inv`` at the start strains, the elastic
    diagonal with the taut tendon's stiff direction, formed only once BFGS
    takes a first step; ``evaluations`` counts its kernel call.  A solve whose
    start already meets the stop test reports ``warm_hess_inv`` as its
    ``hess_inv``.  The shape is built from the positions and frames the
    kernel computed at the returned point.

    Converged means the gradient infinity norm (mJ/rad, w.r.t. per-element
    rotation vectors) is at or below GRAD_TOL_MJ_PER_RAD.  Slow convergence
    is reported via converged=False, never raised.
    """
    rod = _actuated_rod(config, actuation)
    n_el, length = rod.n_el, rod.length
    if warm_start is None:
        x = np.zeros(3 * n_el)
    else:
        warm = np.asarray(warm_start, dtype=float)
        if warm.size != 3 * n_el:
            raise DimensionMismatch(f"warm_start must have {3 * n_el} entries")
        x = warm.reshape(-1) * length
    if warm_hess_inv is not None:
        warm_hess_inv = np.asarray(warm_hess_inv, dtype=float)
        if warm_hess_inv.shape != (3 * n_el, 3 * n_el):
            raise DimensionMismatch(f"warm_hess_inv must be {3 * n_el} x {3 * n_el}")
    start = "cold" if warm_start is None else "last" if warm_hess_inv is None else "predicted"
    evaluations = 0

    def h_start():
        nonlocal evaluations
        if warm_hess_inv is not None:
            return warm_hess_inv.copy()
        evaluations += 1  # the kernel call that finds J
        return _start_hess_inv(x, rod)

    # The result is the evaluated point with the smallest gradient, not the last
    # iterate: the energy (~1e2-1e3 mJ) is only good to ~1e-12 mJ, so near a
    # minimizer the line search can reject an already stationary trial point.
    best = None  # (gradient inf norm, point, energy, tendon path, positions, frames)

    def evaluate(p):
        nonlocal evaluations, best
        evaluations += 1
        e, g, path, positions, frames = _energy_and_gradient(p, rod)
        if not np.isfinite(e):
            raise NonFiniteEnergy(f"energy {e} after {evaluations} evaluations")
        g_norm = float(np.maximum.reduce(np.abs(g)))
        if best is None or g_norm < best[0]:
            best = (g_norm, p, e, path, positions, frames)
        return e, g, g_norm

    iterations, hess_inv = _bfgs(evaluate, x, h_start)
    gradient_inf_norm, point, energy, path, positions, frames = best
    return EquilibriumReport(
        shape=_make_shape(positions, frames, config),
        energy_mj=float(energy),
        gradient_inf_norm=gradient_inf_norm,
        iterations=iterations,
        evaluations=evaluations,
        converged=gradient_inf_norm <= GRAD_TOL_MJ_PER_RAD,
        tendon_path_length_mm=float(path),
        dof=(point.reshape(n_el, 3) / length),
        hess_inv=warm_hess_inv if hess_inv is None else hess_inv,
        start=start,
    )


class WarmStartCache:
    """Thread-safe memo of solved actuations plus the most recent report,
    whose ``hess_inv`` starts the next predicted solve.  Only that last slot
    keeps ``hess_inv`` (3n x 3n); the memoised reports drop it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._reports: dict[tuple, EquilibriumReport] = {}
        self._last: EquilibriumReport | None = None

    @staticmethod
    def _key(actuation: ActuationState) -> tuple:
        return (actuation.tendon_mm, *actuation.disk_angles_deg)

    def lookup(self, actuation: ActuationState) -> EquilibriumReport | None:
        with self._lock:
            return self._reports.get(self._key(actuation))

    def start_for(self, actuation: ActuationState) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Start strains and ``hess_inv`` for a solve of ``actuation``.

        A coordinate search probes one-parameter paths of equilibria, so the
        memoised actuations that differ from ``actuation`` in one coordinate
        only (the tendon or one disk angle) are its neighbours on a path.  On
        the coordinate most of them vary, the Lagrange quadratic through the
        minimizers of the three nearest (the line through two) predicts the
        strains at ``actuation``'s value: the predictor step of Allgower &
        Georg, Numerical Continuation Methods, ch. 2, which BFGS corrects,
        starting from the most recent report's ``hess_inv`` (None when that
        solve took no step and was given none).  With fewer than
        two neighbours on it the start is the most recent minimizer, and no
        ``hess_inv`` is carried: that curvature was learnt at another actuation,
        and the solve starts from ``_start_hess_inv`` at the new one.
        """
        key = self._key(actuation)
        with self._lock:
            last = self._last
            solved = list(self._reports.items())
        if last is None:
            return None, None
        paths: dict[int, list[tuple[float, np.ndarray]]] = {}
        for other, report in solved:
            moved = [i for i, (a, b) in enumerate(zip(other, key)) if a != b]
            if len(moved) == 1:
                paths.setdefault(moved[0], []).append((other[moved[0]], report.dof))
        axis = max(paths, key=lambda i: len(paths[i]), default=None)
        if axis is None or len(paths[axis]) < 2:
            return last.dof, None
        x = key[axis]
        near = sorted(paths[axis], key=lambda node: abs(node[0] - x))[:3]
        start = sum(math.prod((x - xj) / (xi - xj) for xj, _ in near if xj != xi) * dof
                    for xi, dof in near)
        return start, last.hess_inv

    def store(self, actuation: ActuationState, report: EquilibriumReport) -> None:
        with self._lock:
            self._reports[self._key(actuation)] = replace(report, hess_inv=None)
            self._last = report


def forward(config: ManipulatorConfig, actuation: ActuationState,
            cache: WarmStartCache | None = None) -> Shape:
    """Equilibrium shape for an actuation; warm-started when a cache is given."""
    cache = WarmStartCache() if cache is None else cache
    hit = cache.lookup(actuation)
    if hit is not None:
        return hit.shape
    warm, hess_inv = cache.start_for(actuation)
    report = solve_equilibrium(config, actuation, warm_start=warm, warm_hess_inv=hess_inv)
    if not report.converged:
        raise SolverNotConverged(
            f"gradient {report.gradient_inf_norm:.3e} mJ/rad after {report.iterations} iterations")
    cache.store(actuation, report)
    return report.shape
