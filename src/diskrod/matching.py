"""Four-step sequential actuation matching of a target backbone curve.

Step 1 reads disk indices and rotation directions out of the target's
torsion profile; step 2 finds the tendon displacement that matches the
curvature profile with the identified disks at full deflection; step 3
searches each identified disk's angle against the shape error; step 4
fine-tunes the penultimate disk for the tip region.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .curves import (THRESHOLD_REL, CrossingDirection, CTProfile, Curve3D,
                     SignChange, SmoothingParams, arc_length_parameterize,
                     ct_profile, smooth_curvature, smooth_profile,
                     torsion_sign_changes)
from .errors import SolverNotConverged, TooFewValidSamples
from .model import (TENDON_MAX_MM, ActuationState, ManipulatorConfig, Shape,
                    WarmStartCache, forward)
from .search import (GoldenSearchSpec, SearchTrace, corresponding_centers,
                     golden_section, rmse_curvature, rmse_shape, tip_error)


class Direction(enum.Enum):
    CLOCKWISE = "clockwise"
    COUNTERCLOCKWISE = "counterclockwise"


# Simulator calibration: a positive disk angle produces a neg-to-pos torsion
# crossing, so NegToPos maps to the positive-angle direction (labelled
# clockwise here, matching the sign convention of ActuationState).  Flipping
# this table is the single switch if the geometry convention ever changes.
DIRECTION_FOR_CROSSING = {
    CrossingDirection.NEG_TO_POS: Direction.CLOCKWISE,
    CrossingDirection.POS_TO_NEG: Direction.COUNTERCLOCKWISE,
}
ANGLE_SIGN = {Direction.CLOCKWISE: 1.0, Direction.COUNTERCLOCKWISE: -1.0}

# near-interpolating splines: the analysis profiles have one honest sample per
# disk, and GCV flattens their sign-change lobes
SMOOTHING = SmoothingParams(lam=1e-6)
TENDON_TOL_MM = 1.0
ANGLE_STEP_DEG = 1.0    # step 3/4 search tolerance and angle grid
TIP_BRACKET_DEG = 20.0  # step 4 searches the penultimate disk in +/- this
MAX_EVALS = 60          # per golden-section search


@dataclass(frozen=True)
class DiskHypothesis:
    disk_index: int
    direction: Direction
    source_sign_change: SignChange
    deferred: bool


@dataclass(frozen=True, eq=False)
class MatchStage:
    """Actuation a matching step ended on and the equilibrium solved for it."""

    actuation: ActuationState
    shape: Shape


@dataclass(frozen=True, eq=False)
class MatchResult:
    hypotheses: list[DiskHypothesis]
    step2_trace: SearchTrace
    step3_traces: list[SearchTrace]
    step4_trace: SearchTrace
    stages: dict[str, MatchStage]  # "step2", "step3", "step4", in order
    target_centers: np.ndarray  # the target's corresponding centers, row 0 = base plate
    shape_rmse_cm: float
    curvature_rmse_per_cm: float
    tip_error_mm: float

    @property
    def tendon_mm(self) -> float:
        return self.stages["step4"].actuation.tendon_mm

    @property
    def disk_angles_deg(self) -> tuple[float, ...]:
        return self.stages["step4"].actuation.disk_angles_deg

    @property
    def attained_shape(self) -> Shape:
        return self.stages["step4"].shape

    def to_dict(self) -> dict:
        return {
            "hypotheses": [
                {
                    "disk": h.disk_index,
                    "direction": h.direction.value,
                    "deferred": h.deferred,
                    "s_pos_mm": h.source_sign_change.s_pos,
                    "crossing": h.source_sign_change.direction.value,
                    "magnitude_per_mm": h.source_sign_change.magnitude,
                }
                for h in self.hypotheses
            ],
            "tendon_mm": self.tendon_mm,
            "disk_angles_deg": list(self.disk_angles_deg),
            "metrics": {
                "shape_rmse_cm": self.shape_rmse_cm,
                "curvature_rmse_per_cm": self.curvature_rmse_per_cm,
                "tip_error_mm": self.tip_error_mm,
            },
            "traces": {
                "step2_tendon": self.step2_trace.to_dict(),
                "step3_angles": [t.to_dict() for t in self.step3_traces],
                "step4_tip": self.step4_trace.to_dict(),
            },
        }


def analysis_profile(curve: Curve3D, config: ManipulatorConfig,
                     n_samples: int | None = None) -> CTProfile:
    """Smoothed curvature/torsion profile at disk-center sample density.

    The torsion analysis mirrors the measurement workflow: one sample per
    disk (the default when ``n_samples`` is None).  Denser sampling resolves
    near-inflection points of the bend where the Frenet torsion is
    ill-conditioned, which only adds spikes; pass ``n_samples=0`` to profile
    the curve's own samples (sensible for analytic curves).  A curve too
    straight to define torsion anywhere (an unactuated hanging backbone)
    degrades to a curvature-only profile with no torsion information.
    """
    if n_samples == 0:
        pts = curve.points
    else:
        count = config.n_disks if n_samples is None else n_samples
        pts = curve.at(np.linspace(0.0, curve.length, count))
    raw = ct_profile(arc_length_parameterize(pts))
    try:
        return smooth_profile(raw, SMOOTHING)
    except TooFewValidSamples:
        return smooth_curvature(raw, SMOOTHING)


def _probe(spec: GoldenSearchSpec, seed: float, state_at, score, label,
           config: ManipulatorConfig, cache: WarmStartCache) -> SearchTrace:
    """Golden-section search over one actuation coordinate.

    Each probe ``x`` solves the equilibrium of ``state_at(x)`` and returns
    ``score(shape)``; a solve that fails is re-raised prefixed by
    ``label(x)``.  ``seed`` is evaluated first.
    """

    def objective(x: float) -> float:
        try:
            shape = forward(config, state_at(x), cache)
        except SolverNotConverged as exc:
            raise SolverNotConverged(f"{label(x)}: {exc}") from exc
        return score(shape)

    return golden_section(objective, spec, seed_points=[seed])


def step1_identify(target_profile: CTProfile, config: ManipulatorConfig,
                   threshold_rel: float) -> list[DiskHypothesis]:
    """Disk-rotation hypotheses from torsion sign changes of the target's profile.

    Crossings near the two most distal disks are deferred: the tip region is
    handled by the end-effector fine-tuning step.  An empty list is a valid
    outcome (planar target).
    """
    crossings = torsion_sign_changes(target_profile, config.disk_arc_positions_mm,
                                     threshold_rel)
    deferral_cutoff = config.n_disks - 2
    return [
        DiskHypothesis(
            disk_index=c.nearest_disk,
            direction=DIRECTION_FOR_CROSSING[c.direction],
            source_sign_change=c,
            deferred=c.nearest_disk >= deferral_cutoff,
        )
        for c in crossings
    ]


def _full_deflection_angles(hyps: list[DiskHypothesis], config) -> list[float]:
    angles = [0.0] * config.n_disks
    for h in hyps:
        if not h.deferred:
            angles[h.disk_index - 1] = ANGLE_SIGN[h.direction] * 90.0
    return angles


def step2_tendon(target_profile: CTProfile, hyps: list[DiskHypothesis],
                 config: ManipulatorConfig, cache: WarmStartCache) -> SearchTrace:
    """Tendon displacement minimizing the curvature-profile RMSE.

    The identified disks sit at full deflection in their hypothesized
    directions while the displacement is searched; the curvature profile is
    nearly independent of the eventual rotation magnitudes.
    """
    angles = tuple(_full_deflection_angles(hyps, config))
    spec = GoldenSearchSpec(lo=0.0, hi=TENDON_MAX_MM, tol=TENDON_TOL_MM,
                            max_evals=MAX_EVALS)
    return _probe(
        spec, 0.0,
        lambda delta: ActuationState(tendon_mm=delta, disk_angles_deg=angles),
        lambda shape: rmse_curvature(
            target_profile, analysis_profile(shape.dense_curve, config)),
        lambda delta: f"step2 (tendon {delta:.2f} mm)",
        config, cache)


def step3_angles(target_centers: np.ndarray, hyps: list[DiskHypothesis], tendon_mm: float,
                 config: ManipulatorConfig, cache: WarmStartCache
                 ) -> tuple[list[SearchTrace], list[float]]:
    """Per-disk rotation magnitudes, proximal to distal, against shape RMSE.

    While solving disk i the objective is restricted to disks 1..i+2 (its
    zone of influence) except for the last hypothesis, which matches the
    whole disk chain.  Later hypotheses hold full deflection until their
    turn.  Returns one trace per searched disk and the solved disk angles.
    """
    angles = _full_deflection_angles(hyps, config)
    active = sorted((h for h in hyps if not h.deferred),
                    key=lambda h: h.source_sign_change.s_pos)
    traces: list[SearchTrace] = []
    for k, hyp in enumerate(active):
        last = k == len(active) - 1
        hi_disk = config.n_disks if last else min(hyp.disk_index + 2, config.n_disks)
        index_range = (1, hi_disk)
        sign = ANGLE_SIGN[hyp.direction]
        entry = ActuationState(tendon_mm=tendon_mm, disk_angles_deg=tuple(angles))
        spec = GoldenSearchSpec(lo=0.0, hi=90.0, tol=ANGLE_STEP_DEG,
                                quantize=ANGLE_STEP_DEG, max_evals=MAX_EVALS)
        trace = _probe(
            spec, abs(angles[hyp.disk_index - 1]),
            lambda magnitude: entry.with_angle(hyp.disk_index, sign * magnitude),
            lambda shape: rmse_shape(target_centers, shape.disk_centers, index_range),
            lambda magnitude: f"step3 (disk {hyp.disk_index} at {magnitude:.1f} deg)",
            config, cache)
        angles[hyp.disk_index - 1] = sign * trace.best_x
        traces.append(trace)
    return traces, angles


def step4_tip(target_centers: np.ndarray, state: ActuationState, config: ManipulatorConfig,
              cache: WarmStartCache) -> SearchTrace:
    """Penultimate-disk angle minimizing shape RMSE over the tip region."""
    tip_disk = config.n_disks - 1
    index_range = (config.n_disks - 2, config.n_disks)
    spec = GoldenSearchSpec(lo=-TIP_BRACKET_DEG, hi=TIP_BRACKET_DEG, tol=ANGLE_STEP_DEG,
                            quantize=ANGLE_STEP_DEG, max_evals=MAX_EVALS)
    return _probe(
        spec, state.disk_angles_deg[tip_disk - 1],
        lambda angle: state.with_angle(tip_disk, angle),
        lambda shape: rmse_shape(target_centers, shape.disk_centers, index_range),
        lambda angle: f"step4 (disk {tip_disk} at {angle:.1f} deg)",
        config, cache)


def match_shape(target: Curve3D, config: ManipulatorConfig,
                threshold_rel: float = THRESHOLD_REL) -> MatchResult:
    """Run the four matching steps and assemble the recovered actuation.

    The target's ``analysis_profile`` (read by steps 1 and 2) and its
    corresponding centers (read by steps 3 and 4) are taken once, here.
    """
    if target.n < 10:
        raise ValueError(f"target needs >= 10 samples, got {target.n}")
    span = target.length / config.backbone_length_mm
    if not 0.9 <= span <= 1.05:
        raise ValueError(
            f"target arc length {target.length:.1f} mm does not span the "
            f"{config.backbone_length_mm:.0f} mm backbone")
    cache = WarmStartCache()
    target_profile = analysis_profile(target, config)
    target_centers = corresponding_centers(target, config.n_disks)
    hyps = step1_identify(target_profile, config, threshold_rel)
    trace2 = step2_tendon(target_profile, hyps, config, cache)
    state2 = ActuationState(tendon_mm=float(trace2.best_x),
                            disk_angles_deg=tuple(_full_deflection_angles(hyps, config)))

    traces3, angles = step3_angles(target_centers, hyps, state2.tendon_mm, config, cache)
    state3 = replace(state2, disk_angles_deg=tuple(angles))

    trace4 = step4_tip(target_centers, state3, config, cache)
    state4 = state3.with_angle(config.n_disks - 1, float(trace4.best_x))

    # each step's search evaluated its end state, so these are cache hits
    stages = {name: MatchStage(state, forward(config, state, cache))
              for name, state in (("step2", state2), ("step3", state3), ("step4", state4))}
    attained = stages["step4"].shape
    return MatchResult(
        hypotheses=hyps,
        step2_trace=trace2,
        step3_traces=traces3,
        step4_trace=trace4,
        stages=stages,
        target_centers=target_centers,
        shape_rmse_cm=rmse_shape(target_centers, attained.disk_centers),
        curvature_rmse_per_cm=rmse_curvature(
            target_profile, analysis_profile(attained.dense_curve, config)),
        tip_error_mm=tip_error(target_centers, attained.disk_centers),
    )
