"""CSV/JSON readers and writers with reproducible float formatting."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .clustering import RawPointSet
from .curves import Curve3D, CTProfile
from .model import ActuationState, ManipulatorConfig

FLOAT_FORMAT = "%.9g"  # fixed 9 significant digits for byte-stable outputs


def format_float(x: float) -> str:
    s = FLOAT_FORMAT % float(x)
    return "0" if s in ("-0", "-0.0") else s


def dumps_canonical(obj) -> str:
    """JSON with deterministic float formatting and stable key order."""

    def render(node, indent: int) -> str:
        pad = "  " * indent
        if isinstance(node, dict):
            if not node:
                return "{}"
            items = ",\n".join(
                f'{pad}  {json.dumps(str(k))}: {render(v, indent + 1)}'
                for k, v in node.items())
            return "{\n" + items + "\n" + pad + "}"
        if isinstance(node, (list, tuple)):
            seq = list(node)
            if not seq:
                return "[]"
            items = ",\n".join(f"{pad}  {render(v, indent + 1)}" for v in seq)
            return "[\n" + items + "\n" + pad + "]"
        if isinstance(node, bool) or node is None:
            return json.dumps(node)
        if isinstance(node, (int, np.integer)):
            return str(int(node))
        if isinstance(node, (float, np.floating)):
            if not np.isfinite(node):
                raise ValueError(f"JSON has no value for the non-finite float {node}")
            return format_float(float(node))
        return json.dumps(node)

    return render(obj, 0) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dumps_canonical(obj))


def write_curve_csv(path, points) -> None:
    """Shape CSV: x_mm,y_mm,z_mm, one row per sample, base first."""
    points = np.asarray(points, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_mm", "y_mm", "z_mm"])
        for row in points:
            writer.writerow([format_float(v) for v in row])


def _read_points(path) -> np.ndarray:
    """The x_mm,y_mm,z_mm columns of a points CSV; further columns are ignored."""
    points = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["x_mm", "y_mm", "z_mm"]:
            raise ValueError(f"{path}: expected header x_mm,y_mm,z_mm")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                points.append([float(v) for v in row[:3]])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not points:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(points)


def read_curve_csv(path) -> Curve3D:
    """Shape CSV, rows in order along the curve."""
    return Curve3D(_read_points(path))


def write_profile_csv(path, profile: CTProfile) -> None:
    """Profile CSV: s_mm,kappa_per_mm,tau_per_mm,valid."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s_mm", "kappa_per_mm", "tau_per_mm", "valid"])
        for s, k, t, v in zip(profile.s, profile.kappa, profile.tau, profile.kappa_valid):
            writer.writerow([format_float(s), format_float(k), format_float(t),
                             "1" if v else "0"])


def read_raw_points_csv(path) -> RawPointSet:
    """Raw-points CSV: unordered x_mm,y_mm,z_mm rows; further columns are ignored."""
    return RawPointSet(points=_read_points(path))


def config_to_dict(config: ManipulatorConfig) -> dict:
    return asdict(config)


def config_from_dict(d: dict) -> ManipulatorConfig:
    if not isinstance(d, dict):
        raise ValueError(f"config JSON must be an object of ManipulatorConfig fields, "
                         f"got {type(d).__name__}")
    known = set(ManipulatorConfig.__dataclass_fields__)
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return ManipulatorConfig(**d)


def read_config_json(path) -> ManipulatorConfig:
    return config_from_dict(json.loads(Path(path).read_text()))


def config_hash(config: ManipulatorConfig) -> str:
    return hashlib.sha256(dumps_canonical(config_to_dict(config)).encode()).hexdigest()[:16]


def actuation_to_dict(actuation: ActuationState) -> dict:
    return {"tendon_mm": actuation.tendon_mm,
            "disk_angles_deg": list(actuation.disk_angles_deg)}
