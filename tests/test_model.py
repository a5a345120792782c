import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize as scipy_minimize

import diskrod.model as model
from diskrod.errors import DimensionMismatch, NonFiniteEnergy, SolverNotConverged
from diskrod.model import (ActuationState, ManipulatorConfig, WarmStartCache,
                           forward, slack_path_length, solve_equilibrium,
                           total_energy)
from diskrod.model import _energy_and_gradient, _line_search, _rod
from diskrod.rotations import SMALL_ANGLE, exp_so3
from conftest import actuation


# ------------------------------------------------------------- configuration

def test_config_derived_quantities(config):
    assert config.n_segments == 8
    assert config.segment_length_mm == pytest.approx(70.0)
    assert config.n_elements == 32
    assert np.allclose(config.disk_arc_positions_mm, np.arange(9) * 70.0)
    d4 = config.backbone_diameter_mm ** 4
    assert config.bending_stiffness == pytest.approx(60000.0 * np.pi * d4 / 64.0)
    assert config.torsion_stiffness == pytest.approx(23000.0 * np.pi * d4 / 32.0)


def test_config_rejects_nonpositive():
    with pytest.raises(ValueError):
        ManipulatorConfig(backbone_length_mm=0.0)
    with pytest.raises(ValueError):
        ManipulatorConfig(n_disks=1)
    with pytest.raises(ValueError):
        ManipulatorConfig(elements_per_segment=0)


@pytest.mark.parametrize("field, value", [
    ("n_disks", "9"),
    ("n_disks", 9.0),
    ("elements_per_segment", 2.5),
    ("elements_per_segment", True),
    ("disk_mass_g", "40"),
    ("disk_mass_g", float("nan")),
    ("gravity_m_per_s2", (0.0, -9.81)),
    ("gravity_m_per_s2", (0.0, 0.0, float("nan"))),
    ("gravity_m_per_s2", (0.0, 0.0, float("inf"))),
    ("gravity_m_per_s2", -9.81),
    ("gravity_m_per_s2", "0,0,-9.81"),
])
def test_config_rejects_malformed_fields(field, value):
    with pytest.raises(ValueError, match=field):
        ManipulatorConfig(**{field: value})


def test_actuation_bounds():
    with pytest.raises(ValueError):
        ActuationState(tendon_mm=141.0)
    with pytest.raises(ValueError):
        ActuationState(tendon_mm=-1.0)
    with pytest.raises(ValueError):
        actuation(0.0, d5=-95.0)
    with pytest.raises(ValueError):
        actuation(0.0, d5=float("nan"))
    ActuationState(tendon_mm=140.0, disk_angles_deg=(90.0,) * 9)  # boundary ok


# ------------------------------------------------------------- hole geometry

def hole_positions(shape, config, act):
    """Tendon holes on a solved shape, base anchor first, as the kernel places them."""
    local = model._local_holes(np.deg2rad(act.disk_angles_deg), config.tendon_hole_radius_mm)
    return model._tendon_holes(shape.disk_centers, shape.disk_frames, local)[0]


def test_hole_positions_straight(config, solve_cached):
    shape = solve_cached(0.0).shape
    holes = hole_positions(shape, config, ActuationState(0.0))
    assert np.allclose(holes[:, 0], 34.0)
    assert np.allclose(holes[:, 1], 0.0)


def test_hole_positions_single_rotation(config, solve_cached):
    shape = solve_cached(0.0).shape
    holes = hole_positions(shape, config, actuation(0.0, d5=90.0))
    assert np.allclose(holes[5], [0.0, 34.0, -280.0], atol=1e-9)
    others = np.delete(np.arange(10), 5)
    assert np.allclose(holes[others][:, 0], 34.0)


def test_hole_positions_mirror(config, solve_cached):
    shape = solve_cached(0.0).shape
    plus = hole_positions(shape, config, actuation(0.0, d5=90.0))
    minus = hole_positions(shape, config, actuation(0.0, d5=-90.0))
    assert np.allclose(plus[5] * np.array([1, -1, 1]), minus[5])


def test_path_length_straight_is_backbone(config):
    assert slack_path_length(config, ActuationState(0.0)) == pytest.approx(560.0)


def test_path_length_single_kink_formula(config):
    got = slack_path_length(config, actuation(0.0, d5=90.0))
    # chord formula on the two affected 70 mm segments
    kink = np.sqrt(70.0 ** 2 + 2.0 * 34.0 ** 2 * (1.0 - np.cos(np.pi / 2)))
    assert got == pytest.approx(560.0 + 2.0 * (kink - 70.0))


def test_path_length_permutation_of_equal_angles(config):
    a = slack_path_length(config, actuation(0.0, d3=45.0, d6=45.0))
    b = slack_path_length(config, actuation(0.0, d3=45.0, d6=45.0))
    assert a == b
    # swapping which of two symmetric disks carries the angle keeps the set
    c = slack_path_length(config, actuation(0.0, d4=30.0, d6=30.0))
    d = slack_path_length(config, actuation(0.0, d6=30.0, d4=30.0))
    assert c == d


# -------------------------------------------------------------------- energy

def test_energy_reference_state(config):
    dof = np.zeros(3 * config.n_elements)
    e0 = total_energy(dof, config, ActuationState(0.0))
    # elastic and tendon terms vanish; what remains is the gravity reference
    masses = config.node_masses_g()
    heights = -np.arange(config.n_elements + 1) * config.element_length_mm
    expected = 1e-3 * 9.81 * float(masses @ heights)
    assert e0 == pytest.approx(expected, rel=1e-12)


def test_energy_taut_tendon_closed_form(config):
    dof = np.zeros(3 * config.n_elements)
    e0 = total_energy(dof, config, ActuationState(0.0))
    e10 = total_energy(dof, config, ActuationState(10.0))
    assert e10 - e0 == pytest.approx(0.5 * config.tendon_stiffness_n_per_mm * 100.0)


def test_energy_uniform_bend_closed_form(config):
    kappa = 0.001
    dof = np.zeros((config.n_elements, 3))
    dof[:, 0] = kappa
    act = ActuationState(0.0)
    e = total_energy(dof, config, act)
    elastic = 0.5 * config.bending_stiffness * kappa ** 2 * 560.0
    # subtract gravity of the reconstructed bent shape and slack-tendon term
    psi = dof * config.element_length_mm
    energy, _, path, _, _ = _energy_and_gradient(
        psi.reshape(-1), _rod(config, np.zeros(9), slack_path_length(config, act)),
        want_grad=False)
    assert e == pytest.approx(energy)
    dof_straight = np.zeros_like(dof)
    gravity_bent = e - elastic - 0.5 * config.tendon_stiffness_n_per_mm * max(
        0.0, path - slack_path_length(config, act)) ** 2
    assert np.isfinite(gravity_bent)
    # elastic part isolated: zero-gravity config makes it exact
    cfg0 = ManipulatorConfig(gravity_m_per_s2=(0.0, 0.0, 0.0))
    e_nograv = total_energy(dof, cfg0, ActuationState(0.0))
    tendon = 0.5 * cfg0.tendon_stiffness_n_per_mm * max(
        0.0, path - slack_path_length(cfg0, act)) ** 2
    assert e_nograv - tendon == pytest.approx(elastic, rel=1e-12)


def test_energy_dimension_mismatch(config):
    with pytest.raises(DimensionMismatch):
        total_energy(np.zeros(5), config, ActuationState(0.0))


def test_gradient_matches_finite_differences(config):
    rng = np.random.default_rng(12)
    act = actuation(80.0, d4=50.0, d7=-30.0)
    rod = _rod(config, np.deg2rad(act.disk_angles_deg),
               slack_path_length(config, act) - act.tendon_mm)
    psi = rng.normal(0.0, 0.04, 3 * config.n_elements)
    _, grad, _, _, _ = _energy_and_gradient(psi, rod)
    h = 1e-6
    for i in rng.choice(len(psi), size=12, replace=False):
        up, dn = psi.copy(), psi.copy()
        up[i] += h
        dn[i] -= h
        eu, _, _, _, _ = _energy_and_gradient(up, rod, want_grad=False)
        ed, _, _, _, _ = _energy_and_gradient(dn, rod, want_grad=False)
        assert grad[i] == pytest.approx((eu - ed) / (2 * h), rel=1e-5, abs=1e-8)


# -------------------------------------------------------------- equilibrium

def test_unloaded_rod_stays_straight():
    cfg = ManipulatorConfig(gravity_m_per_s2=(0.0, 0.0, 0.0))
    report = solve_equilibrium(cfg, ActuationState(0.0))
    assert report.converged
    n_nodes = cfg.n_elements + 1
    expected = np.column_stack([np.zeros(n_nodes), np.zeros(n_nodes),
                                -np.arange(n_nodes) * cfg.element_length_mm])
    assert np.abs(report.shape.dense_curve.points - expected).max() <= 1e-6


def test_symmetric_pull_is_planar(config, solve_cached):
    report = solve_cached(100.0)
    assert report.converged
    assert np.abs(report.shape.dense_curve.points[:, 1]).max() <= 1e-3
    xs = report.shape.dense_curve.points[:, 0]
    assert xs[-1] > 100.0  # bends toward the tendon side


def planar_oracle_centers(config, delta):
    """Independent 2D elastica (angle per element, arc-chord kinematics)."""
    n, length = config.n_elements, config.element_length_mm
    ei = config.bending_stiffness
    kt = config.tendon_stiffness_n_per_mm
    g = abs(config.gravity_m_per_s2[2])
    masses = config.node_masses_g()
    r = config.tendon_hole_radius_mm
    disk_nodes = config.disk_node_indices
    l_ref = config.backbone_length_mm - delta

    def geometry(kappas):
        phi = 0.0
        pts = np.zeros((n + 1, 2))
        phis = np.zeros(n + 1)
        for k in range(n):
            kap = kappas[k]
            if abs(kap) < 1e-12:
                step = np.array([length * np.sin(phi), -length * np.cos(phi)])
            else:
                step = np.array([
                    (np.cos(phi) - np.cos(phi + kap * length)) / kap,
                    -(np.sin(phi + kap * length) - np.sin(phi)) / kap,
                ])
            pts[k + 1] = pts[k] + step
            phi += kap * length
            phis[k + 1] = phi
        return pts, phis

    def energy(kappas):
        pts, phis = geometry(kappas)
        e = 0.5 * length * ei * float(kappas @ kappas)
        e += 1e-3 * g * float(masses @ pts[:, 1])
        holes = [(r, 0.0)]
        for node in disk_nodes:
            holes.append((pts[node, 0] + r * np.cos(phis[node]),
                          pts[node, 1] + r * np.sin(phis[node])))
        holes = np.asarray(holes)
        path = float(np.linalg.norm(np.diff(holes, axis=0), axis=1).sum())
        stretch = path - l_ref
        if stretch > 0:
            e += 0.5 * kt * stretch ** 2
        return e

    res = scipy_minimize(energy, np.zeros(n), method="L-BFGS-B",
                         options=dict(maxiter=20000, ftol=1e-15, gtol=1e-8))
    pts, phis = geometry(res.x)
    centers = pts[np.concatenate(([0], disk_nodes))]
    return centers, phis


def test_planar_oracle_agreement(config, solve_cached):
    centers2d, phis = planar_oracle_centers(config, 100.0)
    report = solve_cached(100.0)
    full = report.shape.disk_centers[:, [0, 2]]
    assert np.abs(full - centers2d).max() <= 1.0
    # monotone tangent-angle progression toward the tendon side
    assert np.all(np.diff(phis) >= -1e-10)


def test_mirror_symmetry(config, solve_cached):
    plus = solve_cached(100.0, actuation(100.0, d4=60.0).disk_angles_deg)
    minus = solve_cached(100.0, actuation(100.0, d4=-60.0).disk_angles_deg)
    mirror = plus.shape.dense_curve.points * np.array([1.0, -1.0, 1.0])
    tol = 10 * max(plus.gradient_inf_norm, model.GRAD_TOL_MJ_PER_RAD)
    assert np.abs(mirror - minus.shape.dense_curve.points).max() <= 1e-3 + tol


def test_energy_consistency_of_report(config, solve_cached):
    act = actuation(100.0, d5=-70.0)
    report = solve_cached(100.0, act.disk_angles_deg)
    assert report.energy_mj == pytest.approx(
        total_energy(report.dof, config, act), abs=1e-9)
    rod = _rod(config, np.deg2rad(act.disk_angles_deg),
               slack_path_length(config, act) - act.tendon_mm)
    psi = report.dof.reshape(-1) * config.element_length_mm
    h = 1e-6
    fd = np.zeros_like(psi)
    for i in range(len(psi)):
        up, dn = psi.copy(), psi.copy()
        up[i] += h
        dn[i] -= h
        eu, _, _, _, _ = _energy_and_gradient(up, rod, want_grad=False)
        ed, _, _, _, _ = _energy_and_gradient(dn, rod, want_grad=False)
        fd[i] = (eu - ed) / (2 * h)
    fd_norm = np.abs(fd).max()
    assert abs(report.gradient_inf_norm - fd_norm) <= 0.1 * max(fd_norm, 1e-4)


def test_inextensibility(config, solve_cached):
    for key in [(100.0, (0.0,) * 9),
                (120.0, actuation(120.0, d5=80.0).disk_angles_deg)]:
        report = solve_cached(*key)
        assert report.shape.dense_curve.length == pytest.approx(560.0, rel=1e-3)


def test_inextensibility_deep_bend_refined():
    # chord sampling undershoots the material arc by (kappa*l)^2/24 per
    # element; the deepest pull needs a finer discretization to stay in bound
    cfg = ManipulatorConfig(elements_per_segment=8)
    report = solve_equilibrium(cfg, actuation(140.0, d5=90.0))
    assert report.converged
    assert report.shape.dense_curve.length == pytest.approx(560.0, rel=1e-3)


def test_repeated_solves_bit_identical(config):
    act = actuation(70.0, d3=20.0)
    a = solve_equilibrium(config, act)
    b = solve_equilibrium(config, act)
    assert np.array_equal(a.shape.dense_curve.points, b.shape.dense_curve.points)
    assert a.energy_mj == b.energy_mj


def test_forward_cache_returns_identical_shape(config):
    cache = WarmStartCache()
    act = actuation(60.0, d6=-40.0)
    s1 = forward(config, act, cache)
    s2 = forward(config, act, cache)
    assert np.array_equal(s1.dense_curve.points, s2.dense_curve.points)


def test_forward_sweep_continuity(config):
    cache = WarmStartCache()
    tips = []
    for deg in np.arange(-90.0, 91.0, 5.0):
        shape = forward(config, actuation(100.0, d4=float(deg)), cache)
        tips.append(shape.disk_centers[-1])
    steps = np.linalg.norm(np.diff(np.asarray(tips), axis=0), axis=1)
    assert steps.max() < 30.0


def test_proximal_disk_behaves_like_base_rotation(config, solve_cached):
    base = solve_cached(100.0).shape.disk_centers
    rot = solve_cached(100.0, actuation(100.0, d2=90.0).disk_angles_deg).shape.disk_centers

    def pair_dists(c, idx):
        return np.array([np.linalg.norm(c[i] - c[j])
                         for k, i in enumerate(idx) for j in idx[k + 1:]])

    distal = [6, 7, 8, 9]
    rel = np.abs(pair_dists(rot, distal) - pair_dists(base, distal)) / pair_dists(base, distal)
    assert rel.max() < 0.15  # distal arm keeps its shape
    assert abs(rot[4][1]) > 10.0  # but its plane swings out


def test_distal_disk_moves_tip_most(config, solve_cached):
    base = solve_cached(100.0).shape.disk_centers
    rot = solve_cached(100.0, actuation(100.0, d8=20.0).disk_angles_deg).shape.disk_centers
    tip_move = np.linalg.norm(rot[9] - base[9])
    assert tip_move > 10.0
    for i in range(1, 7):
        assert np.linalg.norm(rot[i] - base[i]) < 0.35 * tip_move


def test_shape_invariants(config, solve_cached):
    shape = solve_cached(120.0, actuation(120.0, d5=80.0).disk_angles_deg).shape
    assert np.allclose(shape.disk_centers[0], 0.0)
    assert np.allclose(shape.disk_frames[0], np.eye(3))
    gaps = np.linalg.norm(np.diff(shape.disk_centers[1:], axis=0), axis=1)
    assert np.all(gaps <= 70.0 + 1e-9)
    assert np.all(gaps >= 35.0)
    for fr in shape.disk_frames:
        assert np.abs(fr @ fr.T - np.eye(3)).max() <= 1e-9


def test_non_finite_energy_raises():
    # a NaN gravity no longer gets past the config; an overflowing weight does
    cfg = ManipulatorConfig(disk_mass_g=1e308)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteEnergy):
        solve_equilibrium(cfg, ActuationState(0.0))


def test_warm_start_dimension_mismatch(config):
    with pytest.raises(DimensionMismatch):
        solve_equilibrium(config, ActuationState(0.0), warm_start=np.zeros(7))
    five_disks = ActuationState(0.0, (0.0,) * 5)
    for call in (lambda: total_energy(np.zeros(3 * config.n_elements), config, five_disks),
                 lambda: solve_equilibrium(config, five_disks),
                 lambda: slack_path_length(config, five_disks)):
        with pytest.raises(DimensionMismatch, match="5 disk angles for 9 disks"):
            call()


def test_solver_budget_reports_not_converged(config, monkeypatch):
    monkeypatch.setattr(model, "MAX_ITERATIONS", 2)
    report = solve_equilibrium(config, actuation(100.0, d5=-70.0))
    assert not report.converged  # reported, not raised
    with pytest.raises(SolverNotConverged):
        forward(config, actuation(100.0, d5=-70.0))


@pytest.mark.parametrize("tendon_mm, disks, warm_from_mm", [
    (135.2, {}, None),
    (124.5, {"d2": -11.8, "d3": -63.1}, None),
    (101.9, {"d5": -48.7, "d8": -66.1}, None),
    # minimizers on the slack/taut kink, reached from a taut warm start
    (0.0, {"d8": -5.0}, 0.26871302156994825),
    (0.0, {"d2": -45.0}, 2.0),
], ids=["straight-135.2", "124.5-d2-d3", "101.9-d5-d8", "kink-warm-d8", "kink-warm-d2"])
def test_solver_reaches_gradient_tolerance(config, tendon_mm, disks, warm_from_mm):
    warm = None
    if warm_from_mm is not None:
        warm = solve_equilibrium(config, actuation(warm_from_mm, **disks)).dof
    report = solve_equilibrium(config, actuation(tendon_mm, **disks), warm_start=warm)
    assert report.converged
    assert report.gradient_inf_norm <= model.GRAD_TOL_MJ_PER_RAD


def test_concurrent_forward_calls(config):
    cache = WarmStartCache()
    errors = []

    def run(deg):
        try:
            forward(config, actuation(50.0, d5=float(deg)), cache)
        except Exception as exc:  # noqa: BLE001 - collected for the assertion
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(d,)) for d in (10.0, 20.0, 30.0)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


# ------------------------------------------------- carried BFGS curvature

# Warm-started chains from a seeded match (the benchmark's seed-1 match
# targets): target 7's step-2 tendon probes, and target 0's last two step-3
# probes and its step-4 probes.  Returning BFGS's last iterate instead of the
# most stationary evaluated point stalls the last solve of each chain at
# ~2e-4 mJ/rad: the energy is only good to ~1e-12 mJ, and the line search
# rejects an already stationary trial point that reads 1e-13 mJ "higher".
_STEP2_CHAIN = [actuation(t, d5=-90.0) for t in (
    0.0, 53.47524157501471, 86.5247584249853, 106.95048315002944, 119.57427527495585,
    99.14855054991169, 111.77234267483809, 103.97041007472032, 108.79226959952894,
    109.9305562253386, 108.08876977583911, 107.65398297371925)]
_STEP4_TENDON_MM = 112.74455552009783
_STEP4_CHAIN = [actuation(_STEP4_TENDON_MM, d5=76.0), actuation(_STEP4_TENDON_MM, d5=75.0)] + [
    actuation(_STEP4_TENDON_MM, d5=76.0, d8=d) for d in (-5.0, 5.0, -11.0, -1.0, -7.0, -3.0, -6.0)]


@pytest.mark.parametrize("chain", [_STEP2_CHAIN, _STEP4_CHAIN], ids=["step2", "step4"])
def test_warm_chain_converges_below_the_energy_noise_floor(config, chain):
    cache = WarmStartCache()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a solve along the chain warns of nothing
        for act in chain:
            dof, start = cache.start_for(act)
            kept = None if start is None else start.copy()
            forward(config, act, cache)  # raises SolverNotConverged on a stall
            warm = cache.lookup(act)
            assert warm.gradient_inf_norm <= model.GRAD_TOL_MJ_PER_RAD
            # forward solved from the start it was given, predicted or not
            direct = solve_equilibrium(config, act, warm_start=dof, warm_hess_inv=start)
            assert np.array_equal(warm.dof, direct.dof)
            assert abs(warm.energy_mj - solve_equilibrium(config, act).energy_mj) <= 1e-9
            assert warm.start == ("cold" if dof is None
                                  else "last" if start is None else "predicted")
            # the solve left the matrix it started from as it was; the matrix
            # it carries on and the tendon-aware start at its start strains
            # are exactly symmetric and positive definite.  A solve that
            # takes no step (the slack cold start) forms no matrix
            assert kept is None or np.array_equal(start, kept)
            x0 = np.zeros(3 * config.n_elements) if dof is None else dof.reshape(-1)
            h0 = model._start_hess_inv(x0 * config.element_length_mm,
                                       model._actuated_rod(config, act))
            if direct.hess_inv is None:
                assert direct.iterations == 0 and start is None
            for matrix in (h0,) if direct.hess_inv is None else (direct.hess_inv, h0):
                assert np.array_equal(matrix, matrix.T)
                np.linalg.cholesky(matrix)


def test_cache_carries_a_symmetric_positive_definite_hess_inv(config):
    cache = WarmStartCache()
    chain = [actuation(100.0, d5=-70.0), actuation(100.0, d5=-75.0), actuation(103.0, d5=-75.0)]
    for act in chain:
        forward(config, act, cache)
    # chain[-1]'s one memoised neighbour is no path, so the start is the last
    # minimizer, which carries no matrix
    dof, carried = cache.start_for(chain[-1])
    assert np.array_equal(dof, cache.lookup(chain[-1]).dof) and carried is None
    # a path prediction through chain[1:] carries the last report's matrix
    _, hess_inv = cache.start_for(actuation(106.0, d5=-75.0))
    h0 = model._start_hess_inv(dof.reshape(-1) * config.element_length_mm,
                               model._actuated_rod(config, chain[-1]))
    for matrix in (hess_inv, h0):
        assert matrix.shape == (3 * config.n_elements,) * 2
        assert np.array_equal(matrix, matrix.T)  # exactly, not to rounding
        np.linalg.cholesky(matrix)
    assert all(cache.lookup(act).hess_inv is None for act in chain)


def test_cold_solve_starts_from_the_tendon_inverse_hessian_and_warm_from_the_cache(config):
    act = actuation(100.0, d5=-70.0)
    h0 = model._start_hess_inv(np.zeros(3 * config.n_elements), model._actuated_rod(config, act))
    cold = solve_equilibrium(config, act)
    explicit = solve_equilibrium(config, act, warm_hess_inv=h0)
    assert np.array_equal(cold.dof, explicit.dof)
    assert np.array_equal(cold.hess_inv, explicit.hess_inv)
    assert cold.evaluations == explicit.evaluations + 1  # the call that finds J
    assert cold.start == explicit.start == "cold"

    cache = WarmStartCache()
    forward(config, act, cache)
    nxt = actuation(100.0, d5=-72.0)
    dof, hess_inv = cache.start_for(nxt)
    assert hess_inv is None  # one neighbour: the last minimizer, no carried matrix
    forward(config, nxt, cache)
    warm = cache.lookup(nxt)
    direct = solve_equilibrium(config, nxt, warm_start=dof, warm_hess_inv=hess_inv)
    assert np.array_equal(warm.dof, direct.dof)
    assert warm.evaluations == direct.evaluations
    assert warm.start == direct.start == "last"
    # the next probe on the path through both carries nxt's final matrix
    assert np.array_equal(cache.start_for(actuation(100.0, d5=-74.0))[1], direct.hess_inv)


def test_start_hess_inv_is_the_inverse_of_the_tendon_gauss_newton_hessian(config):
    act = actuation(100.0, d5=-70.0)
    rod = model._actuated_rod(config, act)
    psi = np.random.default_rng(8).normal(0.0, 0.03, 3 * config.n_elements)
    path, jac = model._tendon_path_gradient(psi, rod)
    assert path > rod.l_ref  # taut
    h = 1e-5
    for i in range(len(psi)):
        up, dn = psi.copy(), psi.copy()
        up[i] += h
        dn[i] -= h
        fd = (_energy_and_gradient(up, rod, want_grad=False)[2]
              - _energy_and_gradient(dn, rod, want_grad=False)[2]) / (2 * h)
        assert jac[i] == pytest.approx(fd, rel=1e-6, abs=1e-7)
    diag = np.tile(rod.length / rod.stiff, rod.n_el)
    expected = np.linalg.inv(np.diag(1.0 / diag) + rod.k_t * np.outer(jac, jac))
    h0 = model._start_hess_inv(psi, rod)
    assert np.abs(h0 - expected).max() <= 1e-12 * np.abs(expected).max()


def test_start_hess_inv_of_a_slack_tendon_is_the_elastic_diagonal(config, solve_cached):
    # the 100 mm pull's minimizer shortens the hole path below the slack length
    psi = solve_cached(100.0).dof.reshape(-1) * config.element_length_mm
    rod = model._actuated_rod(config, ActuationState(0.0))
    path, _ = model._tendon_path_gradient(psi, rod)
    assert path < rod.l_ref
    diag = np.tile(rod.length / rod.stiff, rod.n_el)
    assert np.array_equal(model._start_hess_inv(psi, rod), np.diag(diag))


def test_cold_solve_takes_fewer_kernel_calls_than_from_the_elastic_diagonal(config):
    act = actuation(100.0, d5=-70.0)
    rod = model._actuated_rod(config, act)
    elastic = solve_equilibrium(config, act,
                                warm_hess_inv=np.diag(np.tile(rod.length / rod.stiff, rod.n_el)))
    cold = solve_equilibrium(config, act)
    assert cold.converged and elastic.converged
    assert cold.evaluations < elastic.evaluations


def test_predicted_starts_take_fewer_kernel_calls_than_the_last_minimizer(config):
    cache = WarmStartCache()
    predicted = 0
    for act in _STEP2_CHAIN:
        forward(config, act, cache)
        predicted += cache.lookup(act).evaluations
    last, from_last = None, 0
    for act in _STEP2_CHAIN:
        last = solve_equilibrium(config, act, warm_start=None if last is None else last.dof,
                                 warm_hess_inv=None if last is None else last.hess_inv)
        assert last.converged
        from_last += last.evaluations
    assert predicted < from_last


# ------------------------------------------------- predicted warm starts

def _stored(dof, hess_inv=None):
    """A report carrying only what ``WarmStartCache.start_for`` reads."""
    return model.EquilibriumReport(shape=None, energy_mj=0.0, gradient_inf_norm=0.0,
                                   iterations=0, evaluations=0, converged=True,
                                   tendon_path_length_mm=0.0, dof=np.asarray(dof, dtype=float),
                                   hess_inv=hess_inv)


def test_start_for_an_empty_cache_is_cold():
    assert WarmStartCache().start_for(actuation(50.0)) == (None, None)


def test_start_for_one_neighbour_is_the_last_minimizer():
    cache = WarmStartCache()
    hess_inv = np.eye(2)
    cache.store(actuation(10.0, d5=30.0), _stored([1.0, 2.0]))
    last = _stored([5.0, 7.0], hess_inv)
    cache.store(actuation(90.0, d2=-10.0), last)  # differs from the query in two coordinates
    dof, carried = cache.start_for(actuation(20.0, d5=30.0))
    assert dof is last.dof and carried is None


def test_start_for_two_neighbours_is_the_line_through_them():
    cache = WarmStartCache()
    cache.store(actuation(40.0, d4=10.0), _stored([1.0, -3.0]))
    cache.store(actuation(40.0, d4=30.0), _stored([2.0, 1.0]))
    for deg, expected in ((20.0, [1.5, -1.0]), (50.0, [3.0, 5.0]), (0.0, [0.5, -5.0])):
        dof, _ = cache.start_for(actuation(40.0, d4=deg))
        np.testing.assert_allclose(dof, expected, rtol=0.0, atol=1e-14)


def test_start_for_three_nearest_neighbours_reproduce_a_quadratic_path():
    rng = np.random.default_rng(3)
    a, b, c = rng.normal(size=(3, 32, 3))

    def path(t):
        return a + b * t + c * t * t

    cache = WarmStartCache()
    for t in (60.0, 75.0, 90.0):
        cache.store(actuation(t, d6=-50.0), _stored(path(t)))
    cache.store(actuation(10.0, d6=-50.0), _stored(path(10.0) + 1.0))  # farthest: unused
    # two neighbours on disk 6 lose to the three on the tendon
    cache.store(actuation(80.0, d6=-40.0), _stored(np.zeros((32, 3))))
    cache.store(actuation(80.0, d6=-30.0), _stored(np.ones((32, 3))))
    for t in (80.0, 66.0, 100.0):
        dof, _ = cache.start_for(actuation(t, d6=-50.0))
        assert np.abs(dof - path(t)).max() <= 1e-13 * np.abs(path(t)).max()


def test_start_for_ignores_neighbours_that_differ_in_two_coordinates():
    cache = WarmStartCache()
    for t, deg in ((10.0, 20.0), (20.0, 30.0), (30.0, 40.0)):
        cache.store(actuation(t, d3=deg), _stored([t, deg]))
    dof, _ = cache.start_for(actuation(40.0, d3=50.0))
    assert np.array_equal(dof, [30.0, 40.0])  # the last minimizer, not an extrapolation


def test_report_counts_every_kernel_call(config, monkeypatch):
    calls = []
    kernel = model._energy_and_gradient

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(model, "_energy_and_gradient", counted)
    act = actuation(100.0, d5=-70.0)
    first = solve_equilibrium(config, act)
    assert first.evaluations == len(calls) > first.iterations
    assert solve_equilibrium(config, act).evaluations == first.evaluations


def _solve_recording_points(config, monkeypatch, act, **start):
    """A solve, and every point its kernel calls evaluated."""
    points = []
    kernel = model._energy_and_gradient

    def recorded(psi_flat, *args, **kwargs):
        points.append(psi_flat)
        return kernel(psi_flat, *args, **kwargs)

    monkeypatch.setattr(model, "_energy_and_gradient", recorded)
    report = solve_equilibrium(config, act, **start)
    monkeypatch.setattr(model, "_energy_and_gradient", kernel)
    return report, points


@pytest.mark.parametrize("tendon_mm, disks, warm", [
    (100.0, dict(d5=-70.0), False), (131.0, dict(d4=87.0, d6=-55.0), False),
    (100.0, dict(d5=-72.0), True)], ids=["va", "vb", "warm"])
def test_shape_is_the_propagated_returned_point(config, solve_cached, monkeypatch,
                                                tendon_mm, disks, warm):
    # the shape comes from the kernel's own positions and frames at the point
    # whose strains the report returns, as a second _propagate would give them
    act = actuation(tendon_mm, **disks)
    start = {}
    if warm:
        va = solve_cached(100.0, actuation(100.0, d5=-70.0).disk_angles_deg)
        start = dict(warm_start=va.dof, warm_hess_inv=va.hess_inv)
    report, points = _solve_recording_points(config, monkeypatch, act, **start)
    length = config.element_length_mm
    returned = [p for p in points
                if np.array_equal(p.reshape(config.n_elements, 3) / length, report.dof)]
    assert returned
    positions, frames, _ = model._propagate(returned[0].reshape(config.n_elements, 3), length)
    rows = np.concatenate(([0], config.disk_node_indices))
    assert np.array_equal(report.shape.dense_curve.points, positions)
    assert np.array_equal(report.shape.disk_centers, positions[rows])
    assert np.array_equal(report.shape.disk_frames, frames[rows])


def test_straight_rod_costs_one_kernel_call(config, monkeypatch):
    # the slack rod hangs at equilibrium from the start: no step, so no J call
    # and no matrix, or the matrix it was given
    act = ActuationState(0.0)
    report, points = _solve_recording_points(config, monkeypatch, act)
    assert len(points) == report.evaluations == 1
    assert report.iterations == 0 and report.converged and report.hess_inv is None
    given = np.eye(3 * config.n_elements)
    warm = solve_equilibrium(config, act, warm_hess_inv=given)
    assert warm.evaluations == 1 and np.array_equal(warm.hess_inv, given)


@pytest.mark.parametrize("other", [dict(disk_mass_g=25.0),
                                   dict(gravity_m_per_s2=(0.0, 5.886, -7.848))],
                         ids=["disk_mass", "gravity"])
def test_each_config_gets_its_own_rod_constants(config, other):
    alt = ManipulatorConfig(**other)
    act = actuation(100.0, d5=-70.0)
    dof = np.random.default_rng(5).normal(0.0, 1e-3, (config.n_elements, 3))
    energies = {}
    for cfg in (config, alt, config, alt):  # interleaved, so each reads its own
        masses = cfg.node_masses_g()
        gravity = np.asarray(cfg.gravity_m_per_s2)
        direct = model._Rod(
            n_el=cfg.n_elements, length=cfg.element_length_mm,
            stiff=np.array([cfg.bending_stiffness, cfg.bending_stiffness,
                            cfg.torsion_stiffness]),
            gravity=gravity, masses=masses, gravity_force=np.outer(masses, -1e-3 * gravity),
            rows=np.concatenate(([0], cfg.disk_node_indices)),
            per_segment=cfg.elements_per_segment,
            local_holes=model._local_holes(np.deg2rad(act.disk_angles_deg),
                                           cfg.tendon_hole_radius_mm),
            l_ref=slack_path_length(cfg, act) - act.tendon_mm,
            k_t=cfg.tendon_stiffness_n_per_mm)
        expected = _energy_and_gradient((dof * cfg.element_length_mm).reshape(-1), direct,
                                        want_grad=False)[0]
        assert total_energy(dof, cfg, act) == expected
        energies[cfg] = expected
    assert energies[config] != energies[alt]


def test_kernel_makes_few_python_level_calls(config, solve_cached):
    # numpy's Python wrappers (norm, cumsum, sum, zeros_like, eye, ...) cost a
    # few microseconds each on a ~150 us call; count every Python and C call
    # that one kernel call makes at va's minimizer
    act = actuation(100.0, d5=-70.0)
    psi = solve_cached(100.0, act.disk_angles_deg).dof.reshape(-1) * config.element_length_mm
    rod = model._actuated_rod(config, act)
    events = []

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            events.append(event)

    sys.setprofile(profile)
    try:
        _energy_and_gradient(psi, rod)
    finally:
        sys.setprofile(None)
    assert len(events) <= 73


# ------------------------------------------------ strong-Wolfe line search

def _counted_quadratic(a, b):
    """``0.5 x^T A x - b^T x`` with its gradient and the gradient's infinity
    norm; records each point asked for."""
    points = []

    def evaluate(x):
        points.append(x.copy())
        g = a @ x - b
        return 0.5 * x @ a @ x - b @ x, g, np.abs(g).max()
    return evaluate, points


def _assert_strong_wolfe(evaluate, x, d, step):
    f0, g0, _ = evaluate(x)
    alpha, f, g, g_norm = step
    f_at, g_at, norm_at = evaluate(x + alpha * d)
    assert f == f_at and np.array_equal(g, g_at) and g_norm == norm_at
    assert alpha > 0.0
    assert f <= f0 + model.WOLFE_C1 * alpha * (g0 @ d)
    assert abs(g @ d) <= model.WOLFE_C2 * abs(g0 @ d)


def _counted_quartic():
    """``sum(x^4 / 4 - x)``, minimal at 1, which a quadratic model overshoots."""
    points = []

    def evaluate(x):
        points.append(x.copy())
        g = x**3 - 1
        return float(np.sum(x**4 / 4 - x)), g, np.abs(g).max()
    return evaluate, points


@pytest.mark.parametrize("problem, start, alpha", [
    # the exact minimiser along d is at 0.021, so alpha = 1 overshoots
    (lambda: _counted_quadratic(np.diag([10.0, 50.0]), np.zeros(2)), [1.0, 1.0], 1.0),
    # a zoom trial lands beyond the minimiser, so the bracket turns round
    (_counted_quartic, [0.0], 3.0),
], ids=["quadratic", "quartic"])
def test_line_search_zooms_back_from_an_overshooting_first_trial(problem, start, alpha):
    evaluate, points = problem()
    x = np.array(start)
    f0, g0, _ = evaluate(x)
    d = -g0
    step = _line_search(evaluate, x, d, f0, g0, alpha)
    assert step is not None and step[0] < alpha
    assert len(points) > 2  # x, the rejected first trial, then the zoom's trials
    _assert_strong_wolfe(evaluate, x, d, step)


def test_line_search_doubles_a_short_first_trial():
    evaluate, points = _counted_quadratic(np.eye(1), np.array([100.0]))
    x = np.zeros(1)
    f0, g0, _ = evaluate(x)
    d = np.ones(1)
    # the slope along d is alpha - 100: it first drops below 0.9 * 100 at 16
    step = _line_search(evaluate, x, d, f0, g0, 1.0)
    assert step is not None and step[0] == 16.0
    assert [p[0] for p in points[1:]] == [1.0, 2.0, 4.0, 8.0, 16.0]
    _assert_strong_wolfe(evaluate, x, d, step)


def test_line_search_refuses_an_ascent_direction():
    evaluate, points = _counted_quadratic(np.eye(2), np.zeros(2))
    x = np.array([1.0, -2.0])
    f0, g0, _ = evaluate(x)
    assert _line_search(evaluate, x, g0, f0, g0, 1.0) is None
    assert len(points) == 1


def test_line_search_stops_at_the_energy_noise_floor():
    # the predicted decrease, 1e-12 mJ, is below the energy's rounding at 700 mJ,
    # so a trial that reads one rounding step higher ends the search at once
    f0 = 700.0
    points = []

    def evaluate(x):
        points.append(x.copy())
        return (f0 if not x.any() else f0 + np.spacing(f0)), np.array([-1e-12]), 1e-12

    x = np.zeros(1)
    assert _line_search(evaluate, x, np.ones(1), f0, np.array([-1e-12]), 1.0) is None
    assert len(points) == 1


# ----------------------------------------- frame scan and BFGS update

@pytest.mark.parametrize("scale", [0.01, 0.1, 1.0])
def test_scanned_frames_match_the_sequential_product(scale):
    psi = np.random.default_rng(21).normal(0.0, scale, (32, 3))
    _, frames, coeffs = model._propagate(psi, 17.5)
    rotations = exp_so3(psi, coeffs)
    sequential = np.empty_like(frames)
    sequential[0] = np.eye(3)
    for k, rot in enumerate(rotations):
        sequential[k + 1] = sequential[k] @ rot
    # each of the n products rounds by about one ulp of entries <= 1
    tol = len(psi) * np.finfo(float).eps
    assert np.abs(frames - sequential).max() <= tol
    assert np.abs(frames @ frames.transpose(0, 2, 1) - np.eye(3)).max() <= tol
    assert frames.flags.c_contiguous and frames[1:].flags.c_contiguous


def test_bfgs_correction_is_the_symmetric_rank_two_update():
    rng = np.random.default_rng(4)
    n = 96
    a = rng.normal(size=(n, n))
    h = a @ a.T / n + np.eye(n)
    h = np.triu(h) + np.triu(h, 1).T  # exactly symmetric
    for _ in range(20):
        s, y = rng.normal(size=(2, n))
        if y @ s < 0.0:
            y = -y
        rho = 1.0 / (y @ s)
        left = np.eye(n) - rho * np.outer(s, y)
        expected = left @ h @ left.T + rho * np.outer(s, s)  # eq. 6.17
        updated = h + model._bfgs_correction(h, s, y)
        assert np.abs(updated - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.array_equal(updated, updated.T)
        h = updated


# ----------------------------------------------- gradient property tests

def _central_difference_gradient(psi, rod):
    h = 1e-6
    fd = np.empty_like(psi)
    for i in range(len(psi)):
        up, dn = psi.copy(), psi.copy()
        up[i] += h
        dn[i] -= h
        eu = _energy_and_gradient(up, rod, want_grad=False)[0]
        ed = _energy_and_gradient(dn, rod, want_grad=False)[0]
        fd[i] = (eu - ed) / (2 * h)
    return fd


_FINE = ManipulatorConfig(elements_per_segment=2)
_ANGLES = st.lists(st.sampled_from([0.0, -75.0, -30.0, 45.0, 90.0]), min_size=9, max_size=9)


def _check_gradient_off_the_kink(psi, angles, taut, margin):
    # the rest length sits ``margin`` mm short of (taut) or past (slack) the
    # tendon path at psi, so no difference step crosses the kink
    theta = np.deg2rad(angles)
    path = _energy_and_gradient(psi, _rod(_FINE, theta, 0.0), want_grad=False)[2]
    rod = _rod(_FINE, theta, path - margin if taut else path + margin)
    _, grad, _, _, _ = _energy_and_gradient(psi, rod)
    fd = _central_difference_gradient(psi, rod)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6 * max(1.0, np.abs(fd).max()))


@pytest.mark.parametrize("taut", [True, False], ids=["taut", "slack"])
@settings(max_examples=10, deadline=None)
@given(psi=arrays(np.float64, 3 * _FINE.n_elements, elements=st.floats(-5e-5, 5e-5)),
       angles=_ANGLES, margin=st.floats(0.05, 20.0))
def test_gradient_below_small_angle_matches_central_difference(psi, angles, taut, margin):
    # every element's rotation vector is below SMALL_ANGLE: all rows take the series
    assert np.linalg.norm(psi.reshape(-1, 3), axis=1).max() < SMALL_ANGLE
    _check_gradient_off_the_kink(psi, angles, taut, margin)


@pytest.mark.parametrize("taut", [True, False], ids=["taut", "slack"])
@settings(max_examples=10, deadline=None)
@given(psi=arrays(np.float64, 3 * _FINE.n_elements, elements=st.floats(-0.15, 0.15)),
       angles=_ANGLES, margin=st.floats(0.05, 20.0))
def test_gradient_matches_central_difference_on_each_side_of_the_kink(psi, angles, taut,
                                                                      margin):
    _check_gradient_off_the_kink(psi, angles, taut, margin)
