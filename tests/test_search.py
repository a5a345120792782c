import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskrod.curves import CTProfile
from diskrod.errors import EmptyOverlap, IndexRangeInvalid, InvalidBracket
from diskrod.search import (GOLDEN_RATIO, GoldenSearchSpec, golden_section,
                            rmse_curvature, rmse_shape, tip_error)


def centers(offset=(0.0, 0.0, 0.0)):
    base = np.column_stack([np.zeros(10), np.zeros(10),
                            -np.linspace(0.0, 560.0, 10)])
    return base + np.asarray(offset)


# ------------------------------------------------------------- golden section

def test_quadratic_minimum():
    trace = golden_section(lambda x: (x - 2.0) ** 2,
                           GoldenSearchSpec(lo=0.0, hi=5.0, tol=1e-6))
    assert trace.converged
    assert trace.best_x == pytest.approx(2.0, abs=1e-6)
    assert len(trace.evaluations) <= 2 + int(np.ceil(np.log(1e-6 / 5.0) / np.log(GOLDEN_RATIO)))


def test_quantized_matches_brute_force():
    grid = np.arange(91.0)
    f = lambda x: (x - 78.3) ** 2
    trace = golden_section(f, GoldenSearchSpec(lo=0.0, hi=90.0, tol=1.0, quantize=1.0))
    assert trace.best_x == grid[np.argmin(f(grid))] == 78.0


@pytest.mark.parametrize("seed", range(20))
def test_random_quadratics_contract(seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-50.0, 0.0)
    hi = lo + rng.uniform(10.0, 100.0)
    c = rng.uniform(lo, hi)
    tol = 10.0 ** rng.uniform(-6, -2)
    evals = []

    def f(x):
        evals.append(x)
        return 3.0 * (x - c) ** 2 + 1.0

    trace = golden_section(f, GoldenSearchSpec(lo=lo, hi=hi, tol=tol, max_evals=200))
    assert trace.converged
    assert abs(trace.best_x - c) <= tol
    bound = 2 + int(np.ceil(np.log(tol / (hi - lo)) / np.log(GOLDEN_RATIO)))
    assert len(trace.evaluations) <= bound
    assert len(evals) == len(trace.evaluations)  # every call recorded


@pytest.mark.parametrize("seed", range(20))
def test_quantized_random_brute_force(seed):
    rng = np.random.default_rng(100 + seed)
    c = rng.uniform(0.0, 90.0)
    f = lambda x: np.cosh((x - c) / 30.0)
    trace = golden_section(f, GoldenSearchSpec(lo=0.0, hi=90.0, tol=1.0, quantize=1.0))
    grid = np.arange(91.0)
    assert trace.best_x == grid[np.argmin([f(x) for x in grid])]


@pytest.mark.parametrize("f,argmin", [
    (lambda x: (x - 7.0) ** 2, 7.0),
    (lambda x: abs(x - 3.25), 3.25),
    # softplus step plus a linear ramp: smooth, unimodal, min at 11 + ln 9
    (lambda x: np.logaddexp(0.0, -(x - 11.0)) + 0.1 * x, 11.0 + np.log(9.0)),
])
def test_unimodal_matches_dense_grid(f, argmin):
    spec = GoldenSearchSpec(lo=0.0, hi=20.0, tol=1e-4)
    trace = golden_section(f, spec)
    grid = np.linspace(0.0, 20.0, 200001)
    brute = grid[np.argmin([f(x) for x in grid])]
    assert abs(trace.best_x - brute) <= max(spec.tol, 1e-4)
    assert abs(trace.best_x - argmin) <= 1e-3


def test_constant_objective():
    trace = golden_section(lambda x: 4.25, GoldenSearchSpec(lo=1.0, hi=2.0, tol=1e-3))
    assert trace.converged
    assert 1.0 <= trace.best_x <= 2.0
    assert trace.best_f == 4.25


def test_invalid_bracket():
    nan, inf = float("nan"), float("inf")
    for lo, hi in [(2.0, 2.0), (3.0, 2.0), (nan, 1.0), (0.0, nan), (0.0, inf), (-inf, 1.0)]:
        with pytest.raises(InvalidBracket):
            GoldenSearchSpec(lo=lo, hi=hi, tol=1e-3)


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan"), float("inf")])
def test_invalid_tolerance(tol):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        GoldenSearchSpec(lo=0.0, hi=1.0, tol=tol)


@pytest.mark.parametrize("max_evals", [0, -3, 2.5], ids=["0", "-3", "2.5"])
def test_invalid_max_evals(max_evals):
    with pytest.raises(ValueError, match="max_evals must be an integer >= 1"):
        GoldenSearchSpec(lo=0.0, hi=1.0, tol=1e-3, max_evals=max_evals)


def test_numpy_integer_max_evals_accepted():
    trace = golden_section(lambda x: (x - 0.3) ** 2,
                           GoldenSearchSpec(lo=0.0, hi=1.0, tol=1e-12, max_evals=np.int64(6)))
    assert len(trace.evaluations) == 6


def test_eval_budget_returns_best_so_far():
    trace = golden_section(lambda x: (x - 2.0) ** 2,
                           GoldenSearchSpec(lo=0.0, hi=5.0, tol=1e-12, max_evals=6))
    assert not trace.converged
    assert len(trace.evaluations) == 6
    assert trace.best_f == min(f for _, f in trace.evaluations)


def test_seed_points_evaluated_first():
    calls = []

    def f(x):
        calls.append(x)
        return (x - 1.0) ** 2

    trace = golden_section(f, GoldenSearchSpec(lo=0.0, hi=4.0, tol=1e-3),
                           seed_points=[0.5])
    assert calls[0] == 0.5
    assert trace.best_f <= f(0.5)


def test_memoization_of_quantized_duplicates():
    calls = []

    def f(x):
        calls.append(x)
        return (x - 45.2) ** 2

    golden_section(f, GoldenSearchSpec(lo=0.0, hi=90.0, tol=1.0, quantize=1.0))
    assert len(calls) == len(set(calls))


@settings(max_examples=200, deadline=None)
@given(st.floats(-100.0, 100.0), st.floats(0.5, 200.0), st.floats(1e-6, 1.0),
       st.one_of(st.none(), st.integers(1, 100)),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_never_worse_than_best_seed_point(lo, width, tol, steps, seeds, extra_evals, seed):
    # a multimodal objective, so the bracket may shrink away from the seeds;
    # with a grid, the seeds sit on it so that each is evaluated where given
    rng = np.random.default_rng(seed)
    amp, freq, phase = rng.uniform(0.1, 2.0, 4), rng.uniform(0.1, 5.0, 4), rng.uniform(0, 6.3, 4)

    def f(x):
        return float(np.sum(amp * np.sin(freq * (x - lo) / width * 2.0 * np.pi + phase)))

    hi = lo + width
    quantize = None if steps is None else (hi - lo) / steps
    spec = GoldenSearchSpec(lo=lo, hi=hi, tol=tol, quantize=quantize,
                            max_evals=len(seeds) + extra_evals)
    if quantize is None:
        seed_points = [lo + u * width for u in seeds]
    else:
        seed_points = [lo + round(u * steps) * quantize for u in seeds]
        seed_points = [x for x in seed_points if x <= spec.hi] or [lo]
    trace = golden_section(f, spec, seed_points=seed_points)
    assert trace.best_f <= min(f(x) for x in seed_points)
    assert f(trace.best_x) == trace.best_f
    assert spec.lo <= trace.best_x <= spec.hi


# ------------------------------------------------------------------- metrics

def test_rmse_shape_identical_zero():
    assert rmse_shape(centers(), centers()) == 0.0


def test_rmse_shape_constant_offset():
    assert rmse_shape(centers(), centers(offset=(3.0, 4.0, 0.0))) == pytest.approx(0.5)


def test_rmse_shape_range_exclusion():
    a = centers()
    b = centers()
    b[5] += np.array([10.0, 0.0, 0.0])  # mismatch only at disk 5
    assert rmse_shape(a, b, index_range=(7, 9)) == 0.0
    assert rmse_shape(a, b) > 0.0


def test_rmse_shape_invalid_range():
    with pytest.raises(IndexRangeInvalid):
        rmse_shape(centers(), centers(), index_range=(3, 12))
    with pytest.raises(IndexRangeInvalid):
        rmse_shape(centers(), centers(), index_range=(5, 3))
    # a 6-disk arm: n_disks comes from the arrays, and the default covers all 7 rows
    a, b = centers()[:7], centers()[:7]
    b[6] += np.array([0.0, 0.0, 7.0])
    assert rmse_shape(a, b) == pytest.approx(np.sqrt(49.0 / 7.0) / 10.0)
    with pytest.raises(IndexRangeInvalid):
        rmse_shape(a, b, index_range=(0, 9))
    with pytest.raises(ValueError):
        rmse_shape(centers(), a)


def test_rmse_shape_is_metric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, c = (centers() + rng.normal(0, 5, (10, 3)) for _ in range(3))
        dab = rmse_shape(a, b)
        assert dab == pytest.approx(rmse_shape(b, a))
        assert rmse_shape(a, a) == 0.0
        assert dab <= rmse_shape(a, c) + rmse_shape(c, b) + 1e-12


def profile(s, kappa):
    kappa = np.asarray(kappa, dtype=float)
    return CTProfile(s=np.asarray(s, dtype=float), kappa=kappa,
                     tau=np.zeros_like(kappa),
                     kappa_valid=np.ones(len(kappa), dtype=bool))


def test_rmse_curvature_identical_and_offset():
    s = np.linspace(0.0, 560.0, 100)
    a = profile(s, 0.004 + 0.002 * np.sin(s / 100.0))
    b = profile(s, a.kappa + 0.001)
    assert rmse_curvature(a, a) == 0.0
    assert rmse_curvature(a, b) == pytest.approx(0.01, rel=1e-9)


def test_rmse_curvature_disjoint_ranges():
    a = profile(np.linspace(0.0, 100.0, 20), np.full(20, 0.01))
    b = profile(np.linspace(200.0, 300.0, 20), np.full(20, 0.01))
    with pytest.raises(EmptyOverlap):
        rmse_curvature(a, b)


def test_tip_error_examples():
    assert tip_error(centers(), centers()) == 0.0
    assert tip_error(centers(), centers(offset=(0.0, 0.0, 8.0))) == pytest.approx(8.0)
    assert tip_error(centers(), centers(offset=(6.0, 0.0, 8.0))) == pytest.approx(10.0)
    assert tip_error(centers()[:7], centers(offset=(6.0, 0.0, 8.0))[:7]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        tip_error(centers(), centers()[:7])
