import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from diskrod.cli import main
from diskrod.fileio import (config_to_dict, dumps_canonical, read_curve_csv,
                            read_raw_points_csv, write_curve_csv, write_json)
from diskrod.model import ActuationState, ManipulatorConfig, solve_equilibrium


@pytest.fixture(scope="module")
def fast_config_path(tmp_path_factory):
    """Coarser discretization: same physics, quicker solves for CLI tests."""
    cfg = ManipulatorConfig(elements_per_segment=2)
    path = tmp_path_factory.mktemp("cfg") / "fast.json"
    write_json(path, config_to_dict(cfg))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def fast_match(tmp_path_factory, fast_config_path):
    """The va target (disk 5 at -70, 100 mm) on the fast config as a CSV, and
    one ``match`` run on it that the module's tests share."""
    cfg = ManipulatorConfig(elements_per_segment=2)
    target = solve_equilibrium(
        cfg, ActuationState(100.0, (0, 0, 0, 0, -70.0, 0, 0, 0, 0))).shape.dense_curve
    folder = tmp_path_factory.mktemp("fast_match")
    target_path = folder / "target.csv"
    write_curve_csv(target_path, target.points)
    out = folder / "m"
    assert run_cli("match", str(target_path), "--config", fast_config_path,
                   "--out-dir", str(out)) == 0
    return target_path, out


def test_simulate_roundtrip(tmp_path, config):
    out = tmp_path / "sim"
    code = run_cli("simulate", "--tendon-mm", "100", "--disk", "5=-70",
                   "--out-dir", str(out))
    assert code == 0
    curve = read_curve_csv(out / "dense_curve.csv")
    reference = solve_equilibrium(
        config, ActuationState(100.0, (0, 0, 0, 0, -70.0, 0, 0, 0, 0)))
    assert np.abs(curve.points - reference.shape.dense_curve.points).max() <= 1e-6
    report = json.loads((out / "equilibrium_report.json").read_text())
    assert report["converged"] is True
    manifest = json.loads((out / "simulate_manifest.json").read_text())
    assert set(manifest["outputs"]) >= {"disk_centers.csv", "dense_curve.csv",
                                        "equilibrium_report.json"}


@pytest.mark.parametrize("disk", ["5=-95", "5=nan"])
def test_simulate_rejects_out_of_bounds_angle(tmp_path, capsys, disk):
    code = run_cli("simulate", "--disk", disk, "--out-dir", str(tmp_path / "x"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR 2:")
    assert "90" in err
    assert not (tmp_path / "x").exists()


def test_simulate_rejects_bad_disk_flag(tmp_path, capsys):
    code = run_cli("simulate", "--disk", "banana", "--out-dir", str(tmp_path / "x"))
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR 2:")


def test_simulate_exit_3_on_nonconvergence(tmp_path, monkeypatch, capsys):
    import diskrod.model as model
    monkeypatch.setattr(model, "MAX_ITERATIONS", 1)
    code = run_cli("simulate", "--tendon-mm", "100", "--out-dir", str(tmp_path / "nc"))
    assert code == 3
    assert capsys.readouterr().err.startswith("ERROR 3:")


def test_analyze_planar_and_rotated(tmp_path):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--tendon-mm", "100", "--out-dir", str(sim)) == 0
    out = tmp_path / "ana"
    assert run_cli("analyze", str(sim / "dense_curve.csv"), "--out-dir", str(out)) == 0
    changes = json.loads((out / "sign_changes.json").read_text())
    assert changes == []
    with open(out / "profile.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(abs(float(r["tau_per_mm"])) <= 1e-9 for r in rows)
    assert (out / "profile.svg").read_text().startswith("<svg")

    sim2 = tmp_path / "sim2"
    assert run_cli("simulate", "--tendon-mm", "100", "--disk", "5=90",
                   "--out-dir", str(sim2)) == 0
    out2 = tmp_path / "ana2"
    assert run_cli("analyze", str(sim2 / "dense_curve.csv"), "--out-dir", str(out2)) == 0
    changes = json.loads((out2 / "sign_changes.json").read_text())
    assert any(abs(c["nearest_disk"] - 5) <= 1 for c in changes)


def test_analyze_helix_constant_bands(tmp_path):
    t = np.linspace(0.0, 4.0 * np.pi, 300)
    helix = np.column_stack([50 * np.cos(t), 50 * np.sin(t), 20 * t])
    path = tmp_path / "helix.csv"
    write_curve_csv(path, helix)
    out = tmp_path / "ana"
    assert run_cli("analyze", str(path), "--samples", "0", "--out-dir", str(out)) == 0
    with open(out / "profile.csv") as fh:
        rows = list(csv.DictReader(fh))
    kappa = np.array([float(r["kappa_per_mm"]) for r in rows])
    tau = np.array([float(r["tau_per_mm"]) for r in rows])
    inner = slice(20, -20)
    assert np.ptp(kappa[inner]) <= 0.1 * kappa[inner].mean()
    assert np.ptp(tau[inner]) <= 0.15 * abs(tau[inner].mean())


def test_analyze_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x_mm,y_mm,z_mm\n1,2\n")
    code = run_cli("analyze", str(bad), "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert "ERROR 2:" in capsys.readouterr().err


def test_analyze_rejects_non_finite_point(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("x_mm,y_mm,z_mm\n0,0,0\n0,0,-10\nnan,0,-20\n0,0,-30\n0,0,-40\n")
    code = run_cli("analyze", str(bad), "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR 2:")
    assert not (tmp_path / "o").exists()


def blob_csv(path, n_blobs=10, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n_blobs)
    centers = np.column_stack([250 * np.sin(1.2 * t), 30 * t,
                               -560 * np.cos(1.2 * t) * 0.9])
    pts = np.vstack([c + rng.normal(0, 1.0, (8, 3)) for c in centers])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_mm", "y_mm", "z_mm"])
        writer.writerows(pts[rng.permutation(len(pts))].tolist())
    return centers


def test_cluster_expected_count(tmp_path):
    path = tmp_path / "raw.csv"
    centers = blob_csv(path)
    out = tmp_path / "cl"
    code = run_cli("cluster", str(path), "--eps", "5", "--min-pts", "4",
                   "--expect", "10",
                   "--base-hint", ",".join(str(v) for v in centers[0]),
                   "--out-dir", str(out))
    assert code == 0
    got = read_curve_csv(out / "centroids.csv")
    assert got.n == 10
    assert np.abs(got.points - centers).max() <= 2.0  # ordered along the arc


def test_cluster_ignores_a_fourth_column(tmp_path):
    plain = tmp_path / "raw.csv"
    blob_csv(plain)
    rows = plain.read_text().splitlines()
    labelled = tmp_path / "labelled.csv"
    labelled.write_text("\n".join([rows[0] + ",disk"]
                                  + [f"{r},{i % 10}" for i, r in enumerate(rows[1:])]) + "\n")
    for path in (plain, labelled):
        assert run_cli("cluster", str(path), "--eps", "5", "--min-pts", "4",
                       "--out-dir", str(tmp_path / path.stem)) == 0
    for name in ("centroids.csv", "cluster_report.json"):
        assert ((tmp_path / "raw" / name).read_bytes()
                == (tmp_path / "labelled" / name).read_bytes())


def test_curve_and_raw_point_readers_agree(tmp_path):
    path = tmp_path / "raw.csv"
    blob_csv(path)
    assert np.array_equal(read_curve_csv(path).points, read_raw_points_csv(path).points)


def test_cluster_mismatch_exit_code(tmp_path, capsys):
    path = tmp_path / "raw.csv"
    blob_csv(path)
    code = run_cli("cluster", str(path), "--eps", "0.5", "--min-pts", "4",
                   "--expect", "10", "--out-dir", str(tmp_path / "cl"))
    assert code == 4
    assert capsys.readouterr().err.startswith("ERROR 4:")
    assert not (tmp_path / "cl").exists()


def test_cluster_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("x_mm,y_mm,z_mm\n")
    code = run_cli("cluster", str(path), "--out-dir", str(tmp_path / "cl"))
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR 2:")


def test_cluster_invalid_params(tmp_path, capsys):
    path = tmp_path / "raw.csv"
    blob_csv(path)
    code = run_cli("cluster", str(path), "--eps", "-1", "--out-dir",
                   str(tmp_path / "cl"))
    assert code == 2


@pytest.mark.parametrize("flags", [
    ["--eps", "nan", "--expect", "10"],
    ["--eps", "inf"],
    ["--eps", "5", "--min-pts", "4", "--expect", "10", "--base-hint", "nan,0,0"],
    ["--eps", "5", "--min-pts", "4", "--expect", "10", "--base-hint", "1,2"],
    ["--eps", "5", "--min-pts", "4", "--expect", "0"],
    ["--eps", "5", "--min-pts", "4", "--expect", "-3"],
], ids=["eps-nan", "eps-inf", "hint-nan", "hint-two-values", "expect-0", "expect-negative"])
def test_cluster_rejects_bad_params_before_writing(tmp_path, capsys, flags):
    path = tmp_path / "raw.csv"
    blob_csv(path)
    code = run_cli("cluster", str(path), *flags, "--out-dir", str(tmp_path / "cl"))
    assert code == 2
    assert "ERROR 2:" in capsys.readouterr().err
    assert not (tmp_path / "cl").exists()


@pytest.mark.parametrize("command", ["analyze", "match"])
@pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
def test_threshold_rel_rejected_before_writing(tmp_path, capsys, command, value):
    curve = tmp_path / "curve.csv"
    write_curve_csv(curve, [(0, 0, -10.0 * k) for k in range(12)])
    code = run_cli(command, str(curve), "--threshold-rel", value,
                   "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert "ERROR 2:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value", [
    ("n_disks", "9"),
    ("elements_per_segment", 2.5),
    ("gravity_m_per_s2", [0.0, -9.81]),
    ("gravity_m_per_s2", [0.0, 0.0, float("nan")]),
])
def test_malformed_config_rejected_before_writing(tmp_path, capsys, field, value):
    cfg = dict(config_to_dict(ManipulatorConfig()), **{field: value})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # json.dumps writes NaN as a bare token
    code = run_cli("simulate", "--config", str(path), "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR 2:")
    assert not (tmp_path / "o").exists()


def test_match_truncated_target(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--tendon-mm", "100", "--out-dir", str(sim)) == 0
    curve = read_curve_csv(sim / "dense_curve.csv")
    short = tmp_path / "short.csv"
    write_curve_csv(short, curve.points[:5])
    code = run_cli("match", str(short), "--out-dir", str(tmp_path / "m"))
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR 2:")
    assert not (tmp_path / "m").exists()
    # a straight 200 mm curve is too short to span the 560 mm backbone
    straight = tmp_path / "straight.csv"
    write_curve_csv(straight, [(0.0, 0.0, -10.0 * k) for k in range(21)])
    code = run_cli("match", str(straight), "--out-dir", str(tmp_path / "m200"))
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR 2:")
    assert not (tmp_path / "m200").exists()


def test_match_deterministic_and_complete(tmp_path, fast_config_path, fast_match):
    target_path, shared = fast_match
    out = tmp_path / "m"
    code = run_cli("match", str(target_path), "--config", fast_config_path,
                   "--out-dir", str(out))
    assert code == 0
    for fname in ("match_result.json", "overlay_step2.svg", "overlay_step3.svg",
                  "overlay_step4.svg", "match_manifest.json"):
        a = (shared / fname).read_bytes()
        b = (out / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"

    result = json.loads((out / "match_result.json").read_text())
    assert result["hypotheses"][0]["disk"] in (4, 5, 6)
    assert result["hypotheses"][0]["direction"] == "counterclockwise"
    manifest = json.loads((out / "match_manifest.json").read_text())
    assert "match_result.json" in manifest["outputs"]


def test_match_overlays_cost_no_solves(tmp_path, fast_config_path, fast_match, monkeypatch):
    import diskrod.model as model
    from diskrod.matching import match_shape
    cfg = ManipulatorConfig(elements_per_segment=2)
    target_path, _ = fast_match

    calls = []
    solve = model.solve_equilibrium
    monkeypatch.setattr(model, "solve_equilibrium",
                        lambda *a, **kw: calls.append(None) or solve(*a, **kw))
    match_shape(read_curve_csv(target_path), cfg)
    direct = len(calls)
    calls.clear()
    assert run_cli("match", str(target_path), "--config", fast_config_path,
                   "--out-dir", str(tmp_path / "m")) == 0
    assert len(calls) == direct


def test_match_profiles_and_samples_the_target_once(tmp_path, fast_config_path, fast_match,
                                                    monkeypatch):
    import diskrod.cli as cli
    import diskrod.matching as matching
    import diskrod.search as search
    from diskrod.curves import Curve3D
    target_path, _ = fast_match
    target_points = read_curve_csv(target_path).points
    profiled, sampled = [], []

    def spy(module, name, record):
        real = getattr(module, name)

        def wrapped(curve, *args, **kwargs):
            if isinstance(curve, Curve3D) and np.array_equal(curve.points, target_points):
                record.append(name)
            return real(curve, *args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    for module in (cli, matching):
        spy(module, "analysis_profile", profiled)
    for module in (cli, matching, search):
        if hasattr(module, "corresponding_centers"):
            spy(module, "corresponding_centers", sampled)
    assert run_cli("match", str(target_path), "--config", fast_config_path,
                   "--threshold-rel", "0.2", "--out-dir", str(tmp_path / "m")) == 0
    assert len(profiled) == 1
    assert len(sampled) == 1  # overlays included: they draw the match's own centers
    assert len(list((tmp_path / "m").glob("overlay_*.svg"))) == 3


@pytest.mark.parametrize("command, files", [
    ("match", ["match_result.json", "overlay_step2.svg", "overlay_step3.svg",
               "overlay_step4.svg"]),
    ("analyze", ["profile.csv", "sign_changes.json", "profile.svg"]),
])
def test_threshold_rel_default_is_0_2(tmp_path, fast_config_path, fast_match, command, files):
    target_path, shared = fast_match

    def run(name, *flag):
        out = tmp_path / name
        assert run_cli(command, str(target_path), "--config", fast_config_path, *flag,
                       "--out-dir", str(out)) == 0
        return out

    default = shared if command == "match" else run("default")
    explicit = run("explicit", "--threshold-rel", "0.2")
    for fname in files:
        assert (default / fname).read_bytes() == (explicit / fname).read_bytes()
    manifests = [json.loads((out / f"{command}_manifest.json").read_text())
                 for out in (default, explicit)]
    assert [m.pop("overrides") for m in manifests] == [{"threshold_rel": None},
                                                       {"threshold_rel": 0.2}]
    assert manifests[0] == manifests[1]


def test_canonical_json_formatting():
    text = dumps_canonical({"a": 0.1234567891234, "b": [1.0, 2.5e-7], "c": True})
    assert "0.123456789" in text
    assert "2.5e-07" in text
    again = dumps_canonical(json.loads(text))
    assert again == text  # stable under reparse
    for bad in (float("nan"), float("inf"), -np.inf):
        with pytest.raises(ValueError):
            dumps_canonical({"a": [1.0, bad]})


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "diskrod.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "diskrod" in proc.stdout
