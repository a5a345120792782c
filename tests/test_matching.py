import numpy as np
import pytest

from diskrod.curves import THRESHOLD_REL, CrossingDirection, Curve3D
from diskrod.matching import (ANGLE_SIGN, DIRECTION_FOR_CROSSING, Direction,
                              analysis_profile, match_shape, step1_identify,
                              step2_tendon, step3_angles, step4_tip)
from diskrod.model import ActuationState, WarmStartCache, forward
from diskrod.search import corresponding_centers, rmse_curvature, rmse_shape, tip_error
from conftest import actuation


def identify(target, config):
    """Step 1 on a target curve, as ``match_shape`` runs it."""
    return step1_identify(analysis_profile(target, config), config, THRESHOLD_REL)


def test_direction_calibration_constant():
    # the simulator realizes +angle -> neg-to-pos crossing; the table below is
    # the one global switch that encodes it
    assert DIRECTION_FOR_CROSSING[CrossingDirection.NEG_TO_POS] is Direction.CLOCKWISE
    assert ANGLE_SIGN[Direction.CLOCKWISE] == 1.0


# ------------------------------------------------------------------- step 1

def test_step1_planar_target_no_hypotheses(config, solve_cached):
    target = solve_cached(100.0).shape.dense_curve
    assert identify(target, config) == []


def test_step1_single_disk(va_target, config):
    hyps = identify(va_target, config)
    active = [h for h in hyps if not h.deferred]
    assert len(active) == 1
    assert abs(active[0].disk_index - 5) <= 1
    assert active[0].direction is Direction.COUNTERCLOCKWISE


def test_step1_two_disks(vb_target, config):
    hyps = [h for h in identify(vb_target, config) if not h.deferred]
    assert len(hyps) == 2
    assert abs(hyps[0].disk_index - 4) <= 1
    assert abs(hyps[1].disk_index - 6) <= 1
    assert hyps[0].direction is Direction.CLOCKWISE
    assert hyps[1].direction is Direction.COUNTERCLOCKWISE


def test_match_requires_full_span(config, va_target):
    short = Curve3D(va_target.points[:5])
    with pytest.raises(ValueError, match="needs >= 9 samples, got 5"):
        match_shape(short, config)
    straight = Curve3D([(0.0, 0.0, -10.0 * k) for k in range(21)])
    with pytest.raises(ValueError, match="does not span"):
        match_shape(straight, config)


def test_step2_score_is_the_analysis_profile_rmse(config, solve_cached, va_target, vb_target,
                                                  monkeypatch):
    # step 2 computes the curvature channel alone: its score is the full
    # profile's curvature RMSE bit for bit, and its raw kappa the per-sample oracle
    import diskrod.matching as matching
    from test_curves import ct_profile_per_sample
    probes = [solve_cached(106.95, actuation(106.95, d5=-90.0).disk_angles_deg),
              solve_cached(120.0, actuation(120.0, d4=90.0, d6=-90.0).disk_angles_deg),
              solve_cached(0.0)]  # va's and vb's step-2 states, and the straight rod
    raw = []
    curvature = matching.curvature

    def recorded(curve):
        raw.append((curve, curvature(curve)))
        return raw[-1][1]

    monkeypatch.setattr(matching, "curvature", recorded)
    for target in (va_target, vb_target):
        profile = analysis_profile(target, config)
        for probe in probes:
            curve = probe.shape.dense_curve
            score = matching.curvature_rmse(profile, curve, config)
            assert score == rmse_curvature(profile, analysis_profile(curve, config))
            samples, (kappa, _, _) = raw[-1]
            assert samples.n == config.n_disks
            assert np.array_equal(kappa, ct_profile_per_sample(samples)[0])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
def test_match_rejects_bad_threshold_rel_before_solving(config, monkeypatch, value):
    import diskrod.model as model
    monkeypatch.setattr(model, "solve_equilibrium", lambda *a, **kw: pytest.fail("solved"))
    straight = Curve3D([(0.0, 0.0, -56.0 * k) for k in range(11)])
    with pytest.raises(ValueError, match="threshold_rel"):
        match_shape(straight, config, threshold_rel=value)


def test_step1_deferred_distal_crossing(config, solve_cached):
    # a +90 rotation of disk 5 rings once more near disk 7; that crossing is
    # deferred, never searched in step 3
    target = solve_cached(100.0, actuation(100.0, d5=90.0).disk_angles_deg).shape.dense_curve
    hyps = identify(target, config)
    deferred = [h for h in hyps if h.deferred]
    active = [h for h in hyps if not h.deferred]
    assert len(active) == 1 and active[0].disk_index == 5
    assert all(h.disk_index >= 7 for h in deferred)
    # step 2's end state: the tendon found, disk 5 at full deflection
    entry = actuation(100.0, d5=ANGLE_SIGN[active[0].direction] * 90.0)
    traces, state = step3_angles(corresponding_centers(target, config.n_disks), hyps, entry,
                                 config, WarmStartCache())
    assert len(traces) == len(active)
    assert traces[0].evaluations[0][0] == 90.0  # the search starts from the entry state
    assert state.tendon_mm == 100.0
    assert abs(state.disk_angles_deg[4]) == traces[0].best_x
    assert [a for i, a in enumerate(state.disk_angles_deg) if i != 4] == [0.0] * 8


# ------------------------------------------------------------------- step 2

def test_step2_straight_target_zero_tendon(config, solve_cached):
    target = solve_cached(0.0).shape.dense_curve
    trace, state = step2_tendon(analysis_profile(target, config), [], config, WarmStartCache())
    assert trace.converged
    assert abs(trace.best_x - 0.0) <= 1.0
    assert state == ActuationState(tendon_mm=trace.best_x)  # no disk turned
    assert type(state.tendon_mm) is float


def test_steps_chain_reproduces_match(va_target, va_match, config):
    # each step starts from the state the previous one returned, through one
    # shared cache, exactly as match_shape runs them
    cache = WarmStartCache()
    profile = analysis_profile(va_target, config)
    centers = corresponding_centers(va_target, config.n_disks)
    hyps = step1_identify(profile, config, THRESHOLD_REL)
    trace2, state2 = step2_tendon(profile, hyps, config, cache)
    traces3, state3 = step3_angles(centers, hyps, state2, config, cache)
    trace4, state4 = step4_tip(centers, state3, config, cache)
    assert hyps == va_match.hypotheses
    assert (trace2, traces3, trace4) == (va_match.step2_trace, va_match.step3_traces,
                                         va_match.step4_trace)
    for name, state in (("step2", state2), ("step3", state3), ("step4", state4)):
        assert state == va_match.stages[name].actuation
    # every end state is the best point its step's search evaluated
    assert state2.tendon_mm == trace2.best_x
    (hyp,) = [h for h in hyps if not h.deferred]
    assert state3 == state2.with_angle(hyp.disk_index, ANGLE_SIGN[hyp.direction] * traces3[0].best_x)
    assert state4 == state3.with_angle(config.n_disks - 1, trace4.best_x)
    assert np.array_equal(forward(config, state4, cache).disk_centers,
                          va_match.attained_shape.disk_centers)


def test_step2_recovers_tendon(va_target, va_match):
    assert abs(va_match.step2_trace.best_x - 100.0) <= 15.0


# --------------------------------------------------------------- full matches

def test_match_single_hypothesis(va_match):
    active = [h for h in va_match.hypotheses if not h.deferred]
    assert len(active) == 1
    assert active[0].disk_index in (4, 5, 6)
    assert active[0].direction is Direction.COUNTERCLOCKWISE
    assert va_match.disk_angles_deg[active[0].disk_index - 1] == pytest.approx(-70.0, abs=10.0)
    assert va_match.shape_rmse_cm <= 1.0
    assert va_match.tip_error_mm <= 12.0


def test_match_two_hypotheses(vb_match):
    active = [h for h in vb_match.hypotheses if not h.deferred]
    assert [h.direction for h in active] == [Direction.CLOCKWISE,
                                             Direction.COUNTERCLOCKWISE]
    assert abs(vb_match.tendon_mm - 131.0) <= 15.0
    a4 = vb_match.disk_angles_deg[active[0].disk_index - 1]
    a6 = vb_match.disk_angles_deg[active[1].disk_index - 1]
    assert a4 == pytest.approx(87.0, abs=12.0)
    assert a6 == pytest.approx(-55.0, abs=12.0)
    assert vb_match.shape_rmse_cm <= 1.2
    assert vb_match.tip_error_mm <= 16.0


def test_match_straight_target_near_zero_actuation(config, solve_cached):
    target = solve_cached(0.0).shape.dense_curve
    result = match_shape(target, config)
    assert result.hypotheses == []
    assert result.tendon_mm <= 1.0
    assert abs(result.disk_angles_deg[7]) <= 1.0
    assert result.shape_rmse_cm <= 0.05
    assert np.array_equal(
        np.nonzero(result.disk_angles_deg)[0],
        np.nonzero([0.0] * 7 + [result.disk_angles_deg[7]] + [0.0])[0])


def test_step_monotonicity(va_match, vb_match):
    # every golden search saw its entry state first, so the best can never be
    # worse than where the step started
    for result in (va_match, vb_match):
        for trace in ([result.step2_trace] + result.step3_traces
                      + [result.step4_trace]):
            entry_f = trace.evaluations[0][1]
            assert trace.best_f <= entry_f + 1e-12


def test_step4_does_not_worsen_tip_range(vb_target, vb_match, config):
    trace = vb_match.step4_trace
    assert trace.best_f <= trace.evaluations[0][1] + 1e-12
    # and the realized [7,9] RMSE equals the trace's best
    attained = vb_match.attained_shape
    target_centers = corresponding_centers(vb_target, config.n_disks)
    assert rmse_shape(target_centers, attained.disk_centers, (7, 9)) == pytest.approx(
        trace.best_f, abs=1e-9)


def test_match_actuation_bounds(va_match, vb_match):
    for result in (va_match, vb_match):
        assert 0.0 <= result.tendon_mm <= 140.0
        assert all(abs(a) <= 90.0 for a in result.disk_angles_deg)
        for x, _ in result.step2_trace.evaluations:
            assert 0.0 <= x <= 140.0
        for trace in result.step3_traces:
            for x, _ in trace.evaluations:
                assert 0.0 <= x <= 90.0
        for x, _ in result.step4_trace.evaluations:
            assert -20.0 <= x <= 20.0


def test_match_stages_are_step_end_states(vb_target, vb_match, config):
    assert list(vb_match.stages) == ["step2", "step3", "step4"]
    step2, step3, step4 = vb_match.stages.values()
    assert step2.actuation.tendon_mm == step4.actuation.tendon_mm == vb_match.tendon_mm
    assert step4.actuation.disk_angles_deg == vb_match.disk_angles_deg
    assert step3.actuation == step4.actuation.with_angle(8, 0.0)
    active = {h.disk_index - 1 for h in vb_match.hypotheses if not h.deferred}
    assert all(abs(step2.actuation.disk_angles_deg[i]) == 90.0 for i in active)
    # each stage shape is the one its step's search scored best
    profile2 = analysis_profile(step2.shape.dense_curve, config)
    assert rmse_curvature(analysis_profile(vb_target, config), profile2) == pytest.approx(
        vb_match.step2_trace.best_f, abs=1e-12)
    target_centers = corresponding_centers(vb_target, config.n_disks)
    assert rmse_shape(target_centers, step3.shape.disk_centers, (1, 9)) == pytest.approx(
        vb_match.step3_traces[-1].best_f, abs=1e-12)


def test_match_nonzero_angles_only_at_hypotheses_and_tip(va_match):
    allowed = {h.disk_index - 1 for h in va_match.hypotheses if not h.deferred}
    allowed.add(7)  # the tip-tuning disk
    nonzero = {i for i, a in enumerate(va_match.disk_angles_deg) if a != 0.0}
    assert nonzero <= allowed


def test_step4_recovers_injected_tip_rotation(config, solve_cached):
    angles = actuation(100.0, d5=-70.0, d8=-10.0).disk_angles_deg
    target = solve_cached(100.0, angles).shape.dense_curve
    result = match_shape(target, config)
    assert result.disk_angles_deg[7] == pytest.approx(-10.0, abs=5.0)
    # tip error strictly better than before step 4
    state3 = ActuationState(result.tendon_mm, result.disk_angles_deg).with_angle(8, 0.0)
    shape3 = forward(config, state3)
    assert result.tip_error_mm < tip_error(corresponding_centers(target, config.n_disks),
                                           shape3.disk_centers)


def test_hypothesis_grid_recovery(config, solve_cached):
    total = exact = 0
    for disk in (3, 4, 5, 6):
        for magnitude in (45.0, 90.0):
            for tendon in (70.0, 100.0, 140.0):
                angles = [0.0] * 9
                angles[disk - 1] = -magnitude  # counterclockwise ground truth
                target = solve_cached(tendon, tuple(angles)).shape.dense_curve
                active = [h for h in identify(target, config) if not h.deferred]
                total += 1
                assert len(active) >= 1
                best = min(active, key=lambda h: abs(h.disk_index - disk))
                assert abs(best.disk_index - disk) <= 1
                assert best.direction is Direction.COUNTERCLOCKWISE
                if best.disk_index == disk:
                    exact += 1
    assert total == 24
    assert exact >= 0.9 * total


def test_match_deterministic(va_target, config, va_match):
    again = match_shape(va_target, config)
    assert again.tendon_mm == va_match.tendon_mm
    assert again.disk_angles_deg == va_match.disk_angles_deg
    assert np.array_equal(again.attained_shape.dense_curve.points,
                          va_match.attained_shape.dense_curve.points)


def test_match_result_serializes(va_match):
    d = va_match.to_dict()
    assert set(d["metrics"]) == {"shape_rmse_cm", "curvature_rmse_per_cm",
                                 "tip_error_mm"}
    assert len(d["disk_angles_deg"]) == 9
    assert d["traces"]["step2_tendon"]["best_x"] == va_match.tendon_mm
