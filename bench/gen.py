"""Seeded inputs for the three workloads.

Operation ``k`` of a run with seed ``s`` draws from its own generator keyed on
``(workload, s, k)``, so its inputs do not depend on how many operations ran
before it.  The program sees only the CSV files written here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from diskrod import ActuationState, ManipulatorConfig, solve_equilibrium
from diskrod.fileio import write_curve_csv

N_DISKS = 9
TIP_DISK = 8
CLOUD_SIZES = (90, 1000, 5000)
OUTLIER_SHARE = 0.01
NOISE_MM = 1.0
DENSE_SAMPLES = 1000
# fractional parts of sqrt(2), sqrt(3), sqrt(5): rationally independent steps
KRONECKER = (2 ** 0.5 - 1, 3 ** 0.5 - 1, 5 ** 0.5 - 2)


def rng_for(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def actuation(tendon_mm: float, disks: dict[int, float]) -> ActuationState:
    angles = [0.0] * N_DISKS
    for disk, deg in disks.items():
        angles[disk - 1] = deg
    return ActuationState(tendon_mm=tendon_mm, disk_angles_deg=tuple(angles))


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi), 1)


def _spread(seed: int, k: int, dim: int) -> float:
    """Element ``k`` of a Kronecker sequence in [0, 1) with a seeded offset.

    Any run of consecutive ``k`` covers [0, 1) nearly evenly, so runs of
    different seeds see the same mix of easy and hard inputs.
    """
    offset = rng_for("offset", seed, dim).random()
    return (offset + k * KRONECKER[dim]) % 1.0


def sweep_actuation(seed: int, k: int) -> ActuationState:
    """Cold-solve input: tendon 40-140 mm and ``k mod 3`` rotated disks
    anywhere in 1-9, each at up to 90 deg either way.

    Rotated disks cost about twice the solver iterations of none, so the
    count cycles; tendon and angle magnitudes follow ``_spread``.
    """
    rng = rng_for("sweep", seed, k)
    disks = rng.sample(range(1, N_DISKS + 1), k % 3)
    angles = {d: round(rng.choice((-1.0, 1.0)) * 90.0 * _spread(seed, k, 1 + i), 1)
              for i, d in enumerate(disks)}
    return actuation(round(40.0 + 100.0 * _spread(seed, k, 0), 1), angles)


@dataclass(frozen=True)
class ShapeDomain:
    """Where a seeded shape's actuation is drawn from."""

    disks: tuple[int, ...]             # one of them is rotated, either way
    angle_deg: tuple[float, float]     # magnitude range of its angle
    tendon_mm: tuple[float, float]
    tip_share: float                   # share of draws with a tip-disk offset of <= 15 deg


# The stylus sessions cover the interior disks.  Match targets stay near
# ROADMAP's va target (disk 5 at -70 deg, 100 mm): drawn across disks 4-6,
# 45-90 deg and 70-140 mm, one target took 26 to 45 s, more than a bound can
# absorb with one target a run; near va the solver iterations per target
# vary by about 6 %.  Every disk-3 target fails besides (README.md).
MEASURE_DOMAIN = ShapeDomain((3, 4, 5, 6), (45.0, 90.0), (70.0, 140.0), 0.3)
MATCH_DOMAIN = ShapeDomain((5,), (60.0, 80.0), (90.0, 110.0), 0.0)


@dataclass(frozen=True)
class Solved:
    """A seeded actuation, its cold equilibrium, and the interior disk it rotates."""

    actuation: ActuationState
    rotated: dict[int, float]      # interior disk -> angle, the ground truth
    disk_centers: np.ndarray       # (n_disks + 1, 3), row 0 = base plate
    dense_points: np.ndarray
    redraws: int                   # draws skipped because their solve did not converge


def solved_shape(workload: str, seed: int, k: int, config: ManipulatorConfig,
                 domain: ShapeDomain) -> Solved:
    """A shape drawn from ``domain`` and solved cold.

    A draw whose own solve does not converge is not a valid target; the next
    draw of the same generator replaces it and the count is reported.
    """
    rng = rng_for(workload, seed, k)
    for redraws in range(100):
        rotated = {rng.choice(domain.disks): _signed(rng, *domain.angle_deg)}
        tendon = round(rng.uniform(*domain.tendon_mm), 1)
        tip = ({TIP_DISK: round(rng.uniform(-15.0, 15.0), 1)}
               if rng.random() < domain.tip_share else {})
        act = actuation(tendon, {**rotated, **tip})
        report = solve_equilibrium(config, act)
        if report.converged:
            return Solved(act, rotated, report.shape.disk_centers,
                          report.shape.dense_curve.points, redraws)
    raise RuntimeError(f"no converged {workload} shape for seed {seed}, op {k}")


def stylus_cloud(rng: np.random.Generator, centers: np.ndarray, n_points: int) -> np.ndarray:
    """Repeated stylus touches: sigma = 1 mm around each disk center, plus a
    few outliers kept at least 30 mm from every center, shuffled."""
    n_out = max(1, round(OUTLIER_SHARE * n_points))
    per_disk = np.full(len(centers), (n_points - n_out) // len(centers))
    per_disk[: (n_points - n_out) % len(centers)] += 1
    touches = np.concatenate([c + rng.normal(0.0, NOISE_MM, (m, 3))
                              for c, m in zip(centers, per_disk)])
    lo, hi = centers.min(axis=0) - 60.0, centers.max(axis=0) + 60.0
    outliers = []
    while len(outliers) < n_out:
        p = rng.uniform(lo, hi)
        if np.linalg.norm(centers - p, axis=1).min() >= 30.0:
            outliers.append(p)
    cloud = np.concatenate([touches, np.array(outliers)])
    return cloud[rng.permutation(len(cloud))]


def smooth_curve(points: np.ndarray, n_samples: int = DENSE_SAMPLES) -> np.ndarray:
    """``n_samples`` arc-uniform points on a cubic spline through a shape's nodes."""
    s = np.concatenate(([0.0], np.cumsum(np.linalg.norm(np.diff(points, axis=0), axis=1))))
    return CubicSpline(s, points)(np.linspace(0.0, s[-1], n_samples))


def write_session(solved: Solved, seed: int, k: int, folder: Path) -> list[Path]:
    """Stylus clouds of every size around the disk centers, then the dense curve."""
    rng = np.random.default_rng([seed, k])
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for n in CLOUD_SIZES:
        path = folder / f"raw_{n}.csv"
        write_curve_csv(path, stylus_cloud(rng, solved.disk_centers[1:], n))
        paths.append(path)
    path = folder / "dense.csv"
    write_curve_csv(path, smooth_curve(solved.dense_points))
    paths.append(path)
    return paths
