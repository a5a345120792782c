"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria with runtime budgets do their computations fresh inside the test so
the measured time is honest.  Criterion 5's angle-insensitivity bound is
asserted exactly as stated; see the project notes for the analysis of the
frictionless model's behavior there.
"""

import time

import numpy as np
import pytest

from diskrod.clustering import RawPointSet, dbscan
from diskrod.curves import Curve3D, ct_profile, torsion_sign_changes
from diskrod.matching import Direction, analysis_profile, match_shape
from diskrod.model import ActuationState, ManipulatorConfig, solve_equilibrium
from diskrod.search import GOLDEN_RATIO, GoldenSearchSpec, golden_section
from conftest import actuation
from test_clustering import as_partition, oracle_partition


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def profile_of(config, tendon, angles=(0.0,) * 9):
    shape = solve_equilibrium(config, ActuationState(tendon, tuple(angles))).shape
    return analysis_profile(shape.dense_curve, config)


def test_criterion_1_analytic_geometry_oracle(config):
    t0 = time.perf_counter()
    a, b = 50.0, 20.0
    t = np.linspace(0.0, 4.0 * np.pi, 300)
    helix = ct_profile(Curve3D(
        np.column_stack([a * np.cos(t), a * np.sin(t), b * t])))
    kappa_true = a / (a * a + b * b)
    tau_true = b / (a * a + b * b)
    interior = slice(2, -2)
    helix_ok = (np.all(np.abs(helix.kappa[interior] - kappa_true) <= 0.02 * kappa_true)
                and np.all(np.abs(helix.tau[interior] - tau_true) <= 0.05 * tau_true))

    u = np.linspace(0.0, 1.5 * np.pi, 200)
    circle = ct_profile(Curve3D(
        np.column_stack([100 * np.cos(u), 100 * np.sin(u), np.zeros_like(u)])))
    circle_ok = (np.all(np.abs(circle.kappa[interior] - 0.01) <= 0.0002)
                 and np.abs(circle.tau[circle.kappa_valid]).max() <= 1e-6)
    elapsed = time.perf_counter() - t0
    report(1, helix_ok and circle_ok and elapsed < 1.0,
           f"helix kappa/tau within 2%/5%, circle kappa 0.01 +/- 2%, "
           f"{elapsed:.2f} s")


def test_criterion_2_planar_torsion(config):
    t0 = time.perf_counter()
    worst = 0.0
    for delta in (40.0, 70.0, 100.0, 140.0):
        prof = profile_of(config, delta)
        if prof.kappa_valid.any():
            worst = max(worst, float(np.abs(prof.tau[prof.kappa_valid]).max()))
    elapsed = time.perf_counter() - t0
    report(2, worst <= 1e-6 and elapsed < 30.0,
           f"max smoothed |tau| over planar pulls = {worst:.2e} 1/mm, "
           f"{elapsed:.1f} s")


def test_criterion_3_single_disk_signatures(config):
    t0 = time.perf_counter()
    passed = 0
    details = []
    for disk in (3, 4, 5, 6, 7):
        directions = {}
        for sign in (+1.0, -1.0):
            angles = [0.0] * 9
            angles[disk - 1] = sign * 90.0
            prof = profile_of(config, 100.0, angles)
            crossings = torsion_sign_changes(prof, config.disk_arc_positions_mm)
            in_window = [c for c in crossings if abs(c.nearest_disk - disk) <= 1]
            if len(in_window) == 1:
                directions[sign] = in_window[0].direction
                passed += 1
            else:
                details.append(f"disk {disk} sign {sign:+.0f}: {len(in_window)} in window")
        if len(directions) == 2 and directions[+1.0] is directions[-1.0]:
            details.append(f"disk {disk}: direction did not flip")
            passed -= 2
    elapsed = time.perf_counter() - t0
    report(3, passed == 10 and elapsed < 120.0,
           f"{passed}/10 single-disk cases, direction flips with sign, "
           f"{elapsed:.1f} s {details or ''}")


def test_criterion_4_two_disk_signature(config):
    prof = profile_of(config, 100.0, actuation(100.0, d3=90.0, d6=-90.0).disk_angles_deg)
    crossings = torsion_sign_changes(prof, config.disk_arc_positions_mm)
    ok = (len(crossings) == 2
          and crossings[0].direction is not crossings[1].direction)
    report(4, ok, f"found {[(c.nearest_disk, c.direction.value) for c in crossings]}")


def test_criterion_5_curvature_tendon_relation(config):
    def peak(tendon, angles=(0.0,) * 9):
        return float(profile_of(config, tendon, angles).kappa.max())

    deltas = (40.0, 70.0, 100.0, 140.0)
    rotated = actuation(0.0, d5=90.0).disk_angles_deg
    flat_peaks = [peak(d) for d in deltas]
    rot_peaks = [peak(d, rotated) for d in deltas]
    monotone = (all(x < y for x, y in zip(flat_peaks, flat_peaks[1:]))
                and all(x < y for x, y in zip(rot_peaks, rot_peaks[1:])))

    sweep = [peak(100.0, actuation(0.0, d5=m).disk_angles_deg)
             for m in (30.0, 45.0, 60.0, 75.0, 90.0)]
    ptp = max(sweep) - min(sweep)
    dref = abs(peak(100.0, rotated) - peak(70.0, rotated))
    ratio = ptp / dref
    report(5, monotone and ratio <= 0.25,
           f"peak kappa strictly increasing in tendon pull: {monotone}; "
           f"angle-sweep ptp {ptp:.5f} vs pull-step change {dref:.5f} "
           f"(ratio {ratio:.2f}, bound 0.25)")


def test_criterion_6_single_hypothesis_loop_closure(config):
    t0 = time.perf_counter()
    target = solve_equilibrium(
        config, actuation(100.0, d5=-70.0)).shape.dense_curve
    result = match_shape(target, config)
    elapsed = time.perf_counter() - t0
    active = [h for h in result.hypotheses if not h.deferred]
    checks = {
        "one hypothesis": len(active) == 1,
        "index in 4..6": bool(active) and active[0].disk_index in (4, 5, 6),
        "direction ccw": bool(active) and active[0].direction is Direction.COUNTERCLOCKWISE,
        "tendon within 15": abs(result.tendon_mm - 100.0) <= 15.0,
        "angle within 10": bool(active) and abs(
            abs(result.disk_angles_deg[active[0].disk_index - 1]) - 70.0) <= 10.0,
        "rmse <= 1.0 cm": result.shape_rmse_cm <= 1.0,
        "tip <= 12 mm": result.tip_error_mm <= 12.0,
        "runtime < 10 min": elapsed < 600.0,
    }
    report(6, all(checks.values()),
           f"tendon {result.tendon_mm:.1f} mm, angles "
           f"{[round(a, 1) for a in result.disk_angles_deg]}, "
           f"rmse {result.shape_rmse_cm:.2f} cm, tip {result.tip_error_mm:.1f} mm, "
           f"{elapsed:.0f} s; "
           + ", ".join(k for k, v in checks.items() if not v))


def test_criterion_7_two_hypothesis_loop_closure(vb_match):
    result = vb_match  # no runtime budget: the session's match of this target
    active = sorted((h for h in result.hypotheses if not h.deferred),
                    key=lambda h: h.disk_index)
    trace4 = result.step4_trace
    checks = {
        "two hypotheses": len(active) == 2,
        "indices within 1": (len(active) == 2
                             and abs(active[0].disk_index - 4) <= 1
                             and abs(active[1].disk_index - 6) <= 1),
        "directions exact": (len(active) == 2
                             and active[0].direction is Direction.CLOCKWISE
                             and active[1].direction is Direction.COUNTERCLOCKWISE),
        "tendon within 15": abs(result.tendon_mm - 131.0) <= 15.0,
        "angles within 12": (len(active) == 2 and
                             abs(result.disk_angles_deg[active[0].disk_index - 1] - 87.0) <= 12.0
                             and abs(result.disk_angles_deg[active[1].disk_index - 1] + 55.0) <= 12.0),
        "rmse <= 1.2 cm": result.shape_rmse_cm <= 1.2,
        "tip <= 16 mm": result.tip_error_mm <= 16.0,
        "step4 monotone": trace4.best_f <= trace4.evaluations[0][1] + 1e-12,
    }
    report(7, all(checks.values()),
           f"tendon {result.tendon_mm:.1f} mm, angles "
           f"{[round(a, 1) for a in result.disk_angles_deg]}, "
           f"rmse {result.shape_rmse_cm:.2f} cm, tip {result.tip_error_mm:.1f} mm; "
           + ", ".join(k for k, v in checks.items() if not v))


def test_criterion_8_golden_section_contract():
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(20):
        lo = rng.uniform(-40.0, 0.0)
        hi = lo + rng.uniform(5.0, 120.0)
        c = rng.uniform(lo, hi)
        tol = 10.0 ** rng.uniform(-6.0, -2.0)
        trace = golden_section(lambda x: (x - c) ** 2,
                               GoldenSearchSpec(lo=lo, hi=hi, tol=tol, max_evals=200))
        bound = 2 + int(np.ceil(np.log(tol / (hi - lo)) / np.log(GOLDEN_RATIO)))
        ok &= abs(trace.best_x - c) <= tol
        ok &= len(trace.evaluations) <= bound
    quant_ok = True
    for _ in range(20):
        c = rng.uniform(0.0, 90.0)
        f = lambda x: (x - c) ** 2
        trace = golden_section(f, GoldenSearchSpec(lo=0.0, hi=90.0, tol=1.0, quantize=1.0))
        grid = np.arange(91.0)
        quant_ok &= trace.best_x == grid[np.argmin(f(grid))]
    report(8, ok and quant_ok,
           f"tolerance + evaluation bound on 20 random quadratics: {ok}; "
           f"quantized search matches 91-point brute force: {quant_ok}")


def _dbscan_instance(seed):
    rng = np.random.default_rng(seed)
    n_blobs = 9 + (seed % 2)
    grid = np.array([(i, j, k) for i in range(3) for j in range(3) for k in range(2)])
    picks = grid[rng.choice(len(grid), size=n_blobs, replace=False)]
    centers = picks * 70.0 + rng.uniform(-5.0, 5.0, (n_blobs, 3))
    pts = [c + rng.normal(0.0, 1.0, (20, 3)) for c in centers]
    n_out = int(np.ceil(0.05 * 20 * n_blobs))
    outliers = []
    while len(outliers) < n_out:
        cand = rng.uniform(-60.0, 220.0, 3)
        if np.linalg.norm(centers - cand, axis=1).min() > 12.0:
            outliers.append(cand)
    return np.vstack(pts + [np.asarray(outliers)]), centers


def test_criterion_9_dbscan_oracle():
    count_ok = centroid_ok = member_ok = True
    oracle_checked = 0
    for seed in range(50):
        pts, centers = _dbscan_instance(seed)
        result = dbscan(RawPointSet(points=pts), eps=5.0, min_pts=4)
        count_ok &= len(result.clusters) == len(centers)
        for got in result.centroids:
            nearest = centers[np.argmin(np.linalg.norm(centers - got, axis=1))]
            centroid_ok &= float(np.linalg.norm(got - nearest)) <= 1.0
        if len(pts) <= 200:
            member_ok &= (as_partition(result)
                          == oracle_partition(pts, eps=5.0, min_pts=4))
            oracle_checked += 1
    report(9, count_ok and centroid_ok and member_ok,
           f"50 seeded instances: counts exact {count_ok}, centroids within "
           f"1 mm {centroid_ok}, membership matches reachability oracle on "
           f"{oracle_checked} instances {member_ok}")


def test_criterion_10_determinism_and_roundtrip(va_target, tmp_path):
    from diskrod.cli import main
    from diskrod.fileio import read_curve_csv, write_curve_csv

    # the session's solve of disk 5 at -70 deg, 100 mm
    target_path = tmp_path / "target.csv"
    write_curve_csv(target_path, va_target.points)

    # shape CSV round-trip
    parsed = read_curve_csv(target_path)
    roundtrip_ok = np.abs(parsed.points - va_target.points).max() <= 1e-6

    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["match", str(target_path), "--out-dir", str(out)])
        assert code == 0
        blob = b"".join(sorted(p.read_bytes() for p in out.iterdir()))
        digests.append(blob)
    identical = digests[0] == digests[1]
    report(10, roundtrip_ok and identical,
           f"curve CSV round-trip <= 1e-6 mm: {roundtrip_ok}; repeated "
           f"cmd_match byte-identical: {identical}")
