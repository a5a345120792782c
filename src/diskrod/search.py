"""Golden-section search and the error metrics used by the matching pipeline."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .curves import GRID_POINTS, Curve3D, CTProfile
from .errors import EmptyOverlap, IndexRangeInvalid, InvalidBracket

GOLDEN_RATIO = (np.sqrt(5.0) - 1.0) / 2.0  # ~0.618


@dataclass(frozen=True)
class GoldenSearchSpec:
    lo: float
    hi: float
    tol: float
    quantize: float | None = None
    max_evals: int = 100

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise InvalidBracket(f"[{self.lo}, {self.hi}]")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol!r}")
        if not (isinstance(self.max_evals, numbers.Integral) and self.max_evals >= 1):
            raise ValueError(f"max_evals must be an integer >= 1, got {self.max_evals!r}")
        if self.quantize is not None and not (0 < self.quantize <= self.hi - self.lo):
            raise ValueError("quantize must be in (0, hi-lo]")


@dataclass
class SearchTrace:
    evaluations: list[tuple[float, float]] = field(default_factory=list)
    best_x: float = float("nan")
    best_f: float = float("inf")
    converged: bool = False

    def to_dict(self) -> dict:
        return {
            "evals": [{"x": x, "f": f} for x, f in self.evaluations],
            "best_x": self.best_x,
            "best_f": self.best_f,
            "converged": self.converged,
        }


def golden_section(f: Callable[[float], float], spec: GoldenSearchSpec,
                   seed_points: Sequence[float] = ()) -> SearchTrace:
    """Minimize a 1D function by golden-section bracket shrinking.

    With ``quantize`` set, the objective is evaluated at grid-rounded
    arguments, each distinct grid point at most once; after the bracket
    collapses, a downhill walk on the grid pins the discrete minimizer (on a
    unimodal objective this matches brute force).  ``seed_points`` are
    evaluated first so a caller can guarantee the result never falls behind
    its entry state.  Exhausting ``max_evals`` returns the best so far with
    converged=False.
    """
    rho = GOLDEN_RATIO
    trace = SearchTrace()
    memo: dict[float, float] = {}
    budget_hit = False

    def snap(x: float) -> float:
        if spec.quantize is None:
            return x
        k = round((x - spec.lo) / spec.quantize)
        return min(spec.hi, max(spec.lo, spec.lo + k * spec.quantize))

    def evaluate(x: float) -> float:
        nonlocal budget_hit
        x = snap(x)
        if x in memo:
            return memo[x]
        if len(trace.evaluations) >= spec.max_evals:
            budget_hit = True
            return float("inf")
        val = float(f(x))
        memo[x] = val
        trace.evaluations.append((x, val))
        return val

    for x in seed_points:
        evaluate(x)

    a, b = spec.lo, spec.hi
    stop_width = max(spec.tol, spec.quantize or 0.0)
    c = b - rho * (b - a)
    d = a + rho * (b - a)
    fc = evaluate(c)
    fd = evaluate(d)
    while (b - a) > stop_width and not budget_hit:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - rho * (b - a)
            fc = evaluate(c)
        else:
            a, c, fc = c, d, fd
            d = a + rho * (b - a)
            fd = evaluate(d)

    if spec.quantize is not None and trace.evaluations and not budget_hit:
        # downhill walk on the grid: a discrete local minimum of a unimodal
        # objective is its global minimum
        best_x, best_f = min(trace.evaluations, key=lambda e: e[1])
        moved = True
        while moved and not budget_hit:
            moved = False
            for step in (-spec.quantize, spec.quantize):
                x = snap(best_x + step)
                if x == best_x:
                    continue
                val = evaluate(x)
                if val < best_f:
                    best_x, best_f = x, val
                    moved = True

    if trace.evaluations:
        trace.best_x, trace.best_f = min(trace.evaluations, key=lambda e: e[1])
    trace.converged = not budget_hit
    return trace


def corresponding_centers(curve: Curve3D, n_disks: int) -> np.ndarray:
    """The ``n_disks + 1`` corresponding centers (base plate + disks) of a
    curve, linearly interpolated at the disk arc fractions."""
    fractions = np.concatenate(([0.0], np.linspace(0.0, 1.0, n_disks)))
    return curve.at(fractions * curve.length)


def _paired_centers(a, b) -> tuple[np.ndarray, np.ndarray, int]:
    """Two center arrays of one ``(n_disks + 1, 3)`` shape, and ``n_disks``."""
    ca = np.asarray(a, dtype=float)
    cb = np.asarray(b, dtype=float)
    if ca.shape != cb.shape or ca.ndim != 2 or ca.shape[0] < 2 or ca.shape[1] != 3:
        raise ValueError(f"expected two equal (n_disks + 1, 3) center arrays, "
                         f"got {ca.shape} and {cb.shape}")
    return ca, cb, len(ca) - 1


def rmse_shape(a, b, index_range: tuple[int, int] | None = None) -> float:
    """RMSE (cm) between corresponding centers over an inclusive index range.

    Index 0 is the base plate, 1..n_disks the disks (all of them by
    default); both arrays must live in the same clamped base frame.
    """
    ca, cb, n_disks = _paired_centers(a, b)
    i_lo, i_hi = (0, n_disks) if index_range is None else index_range
    if not (0 <= i_lo <= i_hi <= n_disks):
        raise IndexRangeInvalid(f"range [{i_lo}, {i_hi}] outside [0, {n_disks}]")
    d2 = np.sum((ca[i_lo:i_hi + 1] - cb[i_lo:i_hi + 1]) ** 2, axis=1)
    return float(np.sqrt(d2.mean())) / 10.0


def rmse_curvature(a: CTProfile, b: CTProfile) -> float:
    """RMSE (1/cm) of the curvature channels on the common arc grid."""
    lo = max(a.s[0], b.s[0])
    hi = min(a.s[-1], b.s[-1])
    if hi <= lo:
        raise EmptyOverlap(f"profiles share no arc range: [{lo}, {hi}]")
    grid = np.linspace(lo, hi, GRID_POINTS)
    ka = np.interp(grid, a.s, a.kappa)
    kb = np.interp(grid, b.s, b.kappa)
    return float(np.sqrt(np.mean((ka - kb) ** 2))) * 10.0


def tip_error(a, b) -> float:
    """Euclidean distance (mm) between the tip-disk centers of two center arrays."""
    ca, cb, _ = _paired_centers(a, b)
    return float(np.linalg.norm(ca[-1] - cb[-1]))
