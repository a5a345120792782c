"""Command-line interface: simulate, analyze, cluster, match.

Exit codes: 0 success, 2 input error, 3 solver non-convergence, 4 cluster
count mismatch.  Every failure prints a single machine-greppable line
``ERROR <code>: message`` to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import centers_to_curve, dbscan
from .curves import THRESHOLD_REL, torsion_sign_changes
from .errors import ClusterCountMismatch, DiskrodError, SolverNotConverged
from .fileio import (actuation_to_dict, config_hash, config_to_dict, read_config_json,
                     read_curve_csv, read_raw_points_csv, write_curve_csv, write_json,
                     write_profile_csv)
from .matching import analysis_profile, match_shape
from .model import ActuationState, ManipulatorConfig, solve_equilibrium
from .svgplot import Panel, Series, render_panels

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_CLUSTER = 4


@dataclass
class RunManifest:
    command: str
    inputs: list[str]
    config_hash: str
    overrides: dict
    outputs: list[str] = field(default_factory=list)
    version: str = __version__

    def write(self, out_dir: Path) -> Path:
        path = out_dir / f"{self.command}_manifest.json"
        self.outputs.append(path.name)
        write_json(path, {
            "command": self.command,
            "inputs": self.inputs,
            "config_hash": self.config_hash,
            "overrides": self.overrides,
            "outputs": self.outputs,
            "version": self.version,
        })
        return path


def _load_config(args) -> ManipulatorConfig:
    if args.config:
        return read_config_json(args.config)
    return ManipulatorConfig()


def _parse_disk_flags(pairs, n_disks: int) -> list[float]:
    angles = [0.0] * n_disks
    for pair in pairs or []:
        try:
            idx_s, _, deg_s = pair.partition("=")
            idx, deg = int(idx_s), float(deg_s)
        except ValueError:
            raise ValueError(f"--disk expects i=deg, got {pair!r}") from None
        if not 1 <= idx <= n_disks:
            raise ValueError(f"--disk index {idx} outside 1..{n_disks}")
        angles[idx - 1] = deg
    return angles


def _parse_base_hint(text: str) -> list[float]:
    hint = [float(v) for v in text.split(",")]
    if len(hint) != 3 or not np.all(np.isfinite(hint)):
        raise argparse.ArgumentTypeError(f"expected three finite numbers X,Y,Z, got {text!r}")
    return hint


def _parse_expect(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    config = _load_config(args)
    angles = _parse_disk_flags(args.disk, config.n_disks)
    actuation = ActuationState(tendon_mm=args.tendon_mm,
                               disk_angles_deg=tuple(angles))
    out = _out_dir(args)
    manifest = RunManifest(
        command="simulate",
        inputs=[args.config] if args.config else [],
        config_hash=config_hash(config),
        overrides=actuation_to_dict(actuation),
    )
    report = solve_equilibrium(config, actuation)
    write_curve_csv(out / "disk_centers.csv", report.shape.disk_centers)
    write_curve_csv(out / "dense_curve.csv", report.shape.dense_curve.points)
    write_json(out / "equilibrium_report.json", {
        "energy_mj": report.energy_mj,
        "gradient_inf_norm_mj_per_rad": report.gradient_inf_norm,
        "iterations": report.iterations,
        "start": report.start,
        "converged": report.converged,
        "tendon_path_length_mm": report.tendon_path_length_mm,
        "actuation": actuation_to_dict(actuation),
        "config": config_to_dict(config),
    })
    manifest.outputs += ["disk_centers.csv", "dense_curve.csv", "equilibrium_report.json"]
    manifest.write(out)
    if not report.converged:
        raise SolverNotConverged(
            f"gradient {report.gradient_inf_norm:.3e} mJ/rad after "
            f"{report.iterations} iterations")
    print(f"simulate: wrote {out}/dense_curve.csv (energy {report.energy_mj:.3f} mJ)")
    return EXIT_OK


def _threshold_rel(args) -> float:
    return THRESHOLD_REL if args.threshold_rel is None else args.threshold_rel


def cmd_analyze(args) -> int:
    config = _load_config(args)
    curve = read_curve_csv(args.curve)
    profile = analysis_profile(curve, config, n_samples=args.samples)
    changes = torsion_sign_changes(profile, config.disk_arc_positions_mm,
                                   _threshold_rel(args))
    out = _out_dir(args)
    manifest = RunManifest(
        command="analyze",
        inputs=[args.curve] + ([args.config] if args.config else []),
        config_hash=config_hash(config),
        overrides={"threshold_rel": args.threshold_rel},
    )
    write_profile_csv(out / "profile.csv", profile)
    write_json(out / "sign_changes.json", [
        {
            "s_pos_mm": c.s_pos,
            "nearest_disk": c.nearest_disk,
            "direction": c.direction.value,
            "magnitude_per_mm": c.magnitude,
        }
        for c in changes
    ])
    disks = list(config.disk_arc_positions_mm)
    svg = render_panels([
        Panel(title="curvature", xlabel="arc length (mm)", ylabel="kappa (1/cm)",
              series=[Series(profile.s, profile.kappa * 10.0, label="kappa")],
              vlines=disks),
        Panel(title="torsion", xlabel="arc length (mm)", ylabel="tau (1/cm)",
              series=[Series(profile.s, profile.tau * 10.0, label="tau",
                             color="#d62728")],
              vlines=disks, hlines=[0.0]),
    ])
    (out / "profile.svg").write_text(svg)
    manifest.outputs += ["profile.csv", "sign_changes.json", "profile.svg"]
    manifest.write(out)
    print(f"analyze: {len(changes)} sign change(s); wrote {out}/profile.csv")
    return EXIT_OK


def cmd_cluster(args) -> int:
    raw = read_raw_points_csv(args.points)
    result = dbscan(raw, eps=args.eps, min_pts=args.min_pts)
    if args.expect is not None:
        centroids = centers_to_curve(result, args.expect, args.base_hint).points
    else:
        centroids = result.centroids
    out = _out_dir(args)
    manifest = RunManifest(
        command="cluster",
        inputs=[args.points],
        config_hash="",
        overrides={"eps": args.eps, "min_pts": args.min_pts, "expect": args.expect},
    )
    write_curve_csv(out / "centroids.csv", centroids)
    write_json(out / "cluster_report.json", {
        "n_clusters": len(result.clusters),
        "n_noise": int(len(result.noise)),
        "cluster_sizes": [int(len(c)) for c in result.clusters],
    })
    manifest.outputs += ["centroids.csv", "cluster_report.json"]
    manifest.write(out)
    print(f"cluster: {len(result.clusters)} clusters, {len(result.noise)} noise points")
    return EXIT_OK


def _overlay_panels(target_curve, t_disks, shape, title: str) -> list[Panel]:
    """x-z and y-z views of the target against a stage's attained shape, each
    with its corresponding centers (``t_disks`` for the target)."""
    tc = target_curve.points
    ac = shape.dense_curve.points
    a_disks = shape.disk_centers
    panels = []
    for title_sfx, ix, iy, xl, yl in (("x-z", 0, 2, "x (mm)", "z (mm)"),
                                      ("y-z", 1, 2, "y (mm)", "z (mm)")):
        panels.append(Panel(
            title=f"{title} ({title_sfx})", xlabel=xl, ylabel=yl,
            series=[
                Series(tc[:, ix], tc[:, iy], label="target", color="#333333"),
                Series(ac[:, ix], ac[:, iy], label="attained", color="#d62728",
                       dashed=True),
                Series(t_disks[:, ix], t_disks[:, iy], color="#999999"),
                Series(a_disks[:, ix], a_disks[:, iy], color="#f0a0a0"),
            ],
            equal_aspect=True,
        ))
    return panels


def cmd_match(args) -> int:
    config = _load_config(args)
    target = read_curve_csv(args.target)
    result = match_shape(target, config, _threshold_rel(args))
    out = _out_dir(args)
    manifest = RunManifest(
        command="match",
        inputs=[args.target] + ([args.config] if args.config else []),
        config_hash=config_hash(config),
        overrides={"threshold_rel": args.threshold_rel},
    )
    write_json(out / "match_result.json", result.to_dict())
    manifest.outputs.append("match_result.json")

    # one overlay per pipeline stage, echoing the iterative-overlay figures
    for name, stage in result.stages.items():
        svg = render_panels(_overlay_panels(target, result.target_centers, stage.shape,
                                            f"target vs attained after {name}"))
        (out / f"overlay_{name}.svg").write_text(svg)
        manifest.outputs.append(f"overlay_{name}.svg")
    manifest.write(out)
    print(f"match: tendon {result.tendon_mm:.1f} mm, angles "
          f"{[round(a, 1) for a in result.disk_angles_deg]}, "
          f"rmse {result.shape_rmse_cm:.3f} cm, tip {result.tip_error_mm:.2f} mm")
    return EXIT_OK


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskrod",
        description="Simulator and shape matcher for a disk-rerouted "
                    "tendon-driven continuum manipulator")
    parser.add_argument("--version", action="version", version=f"diskrod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="solve one equilibrium shape")
    p.add_argument("--config", help="manipulator config JSON")
    p.add_argument("--tendon-mm", type=float, default=0.0)
    p.add_argument("--disk", action="append", metavar="I=DEG",
                   help="disk angle, repeatable (e.g. --disk 5=-70)")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="curvature/torsion profile of a curve CSV")
    p.add_argument("curve", help="curve CSV (x_mm,y_mm,z_mm)")
    p.add_argument("--config", help="manipulator config JSON")
    p.add_argument("--threshold-rel", type=float, default=None,
                   help="sign-change threshold as a fraction of max |tau| "
                        f"(default: {THRESHOLD_REL})")
    p.add_argument("--samples", type=int, default=None,
                   help="arc-uniform profile samples (default: one per disk; "
                        "0: the curve's own samples)")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cluster", help="cluster repeated measurements into centroids")
    p.add_argument("points", help="raw points CSV (x_mm,y_mm,z_mm; further columns are ignored)")
    p.add_argument("--eps", type=float, default=8.0)
    p.add_argument("--min-pts", type=int, default=3)
    p.add_argument("--expect", type=_parse_expect, default=None,
                   help="expected cluster count; orders centroids from the base")
    p.add_argument("--base-hint", type=_parse_base_hint,  # a tuple: every parse shares it
                   default=(0.0, 0.0, 0.0), metavar="X,Y,Z")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("match", help="recover actuation matching a target curve")
    p.add_argument("target", help="target curve CSV")
    p.add_argument("--config", help="manipulator config JSON")
    p.add_argument("--threshold-rel", type=float, default=None,
                   help="sign-change threshold as a fraction of max |tau| "
                        f"(default: {THRESHOLD_REL})")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_match)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            print(f"ERROR {EXIT_INPUT}: invalid arguments", file=sys.stderr)
            return EXIT_INPUT
        return 0
    try:
        return args.func(args)
    except ClusterCountMismatch as exc:
        print(f"ERROR {EXIT_CLUSTER}: {exc}", file=sys.stderr)
        return EXIT_CLUSTER
    except SolverNotConverged as exc:
        print(f"ERROR {EXIT_SOLVER}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (DiskrodError, ValueError, OSError) as exc:
        print(f"ERROR {EXIT_INPUT}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
