"""diskrod: quasi-static simulator and shape-matching toolkit for a
tendon-driven continuum manipulator with rotatable tendon-guide disks."""

__version__ = "0.1.0"

from .clustering import ClusterResult, RawPointSet, centers_to_curve, dbscan
from .curves import (CrossingDirection, CTProfile, Curve3D, SignChange,
                     SmoothingParams, arc_length_parameterize, ct_profile,
                     smooth_profile, torsion_sign_changes)
from .matching import (Direction, DiskHypothesis, MatchResult,
                       analysis_profile, match_shape, step1_identify,
                       step2_tendon, step3_angles, step4_tip)
from .model import (ActuationState, EquilibriumReport, ManipulatorConfig,
                    Shape, WarmStartCache, forward, slack_path_length,
                    solve_equilibrium, tendon_hole_positions,
                    tendon_path_length, total_energy)
from .search import (GoldenSearchSpec, SearchTrace, corresponding_centers,
                     golden_section, rmse_curvature, rmse_shape, tip_error)

__all__ = [
    "ActuationState", "ClusterResult", "CrossingDirection", "CTProfile",
    "Curve3D", "Direction", "DiskHypothesis", "EquilibriumReport",
    "GoldenSearchSpec", "ManipulatorConfig", "MatchResult",
    "RawPointSet", "SearchTrace", "Shape", "SignChange", "SmoothingParams",
    "WarmStartCache", "analysis_profile", "arc_length_parameterize",
    "centers_to_curve", "corresponding_centers", "ct_profile", "dbscan",
    "forward", "golden_section", "match_shape", "rmse_curvature",
    "rmse_shape", "slack_path_length", "smooth_profile", "solve_equilibrium",
    "step1_identify", "step2_tendon", "step3_angles", "step4_tip",
    "tendon_hole_positions", "tendon_path_length", "tip_error",
    "torsion_sign_changes", "total_energy",
]
