"""Per-layer metrics of a traced run.

``WRAPS`` lists the public functions wrapped, at the module a caller looks
each one up in.  A name a later version of diskrod no longer has is skipped,
and the metrics drawn from it read 0.  Counts and times are per operation
(per target, solve or session), as the median over the run's operations,
unless the name says otherwise.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from diskrod import (ActuationState, GoldenSearchSpec, ManipulatorConfig,
                     golden_section, solve_equilibrium, total_energy)
from diskrod.search import GOLDEN_RATIO

from tracing import children_of, descendants, per_span_cost_s, self_times


def _solve_attrs(attrs, args, kwargs, report):
    warm = args[2] if len(args) > 2 else kwargs.get("warm_start")
    attrs.update(warm=warm is not None, iterations=int(report.iterations),
                 converged=bool(report.converged))


def _forward_attrs(attrs, args, kwargs, shape):
    cache = args[2] if len(args) > 2 else kwargs.get("cache")
    attrs["cached"] = cache is not None


def _match_attrs(attrs, args, kwargs, result):
    traces = [getattr(result, "step2_trace", None), *getattr(result, "step3_traces", ()),
              getattr(result, "step4_trace", None)]
    attrs["evals"] = sum(len(t.evaluations) for t in traces if t is not None)


def _points_attrs(attrs, args, kwargs, result):
    attrs["n"] = len(args[0].points)


def _profile_attrs(attrs, args, kwargs, result):
    attrs["n"] = len(args[0].s)


WRAPS = [
    ("diskrod.model", "solve_equilibrium", "model.solve_equilibrium", _solve_attrs),
    ("diskrod.matching", "forward", "matching.forward", _forward_attrs),
    ("diskrod.cli", "forward", "cli.forward", _forward_attrs),
    ("diskrod.cli", "match_shape", "matching.match_shape", _match_attrs),
    ("diskrod.matching", "step1_identify", "matching.step1", None),
    ("diskrod.matching", "step2_tendon", "matching.step2", None),
    ("diskrod.matching", "step3_angles", "matching.step3", None),
    ("diskrod.matching", "step4_tip", "matching.step4", None),
    ("diskrod.matching", "golden_section", "search.golden_section", None),
    ("diskrod.matching", "analysis_profile", "curves.analysis_profile", None),
    ("diskrod.cli", "analysis_profile", "curves.analysis_profile", None),
    ("diskrod.matching", "ct_profile", "curves.ct_profile", _points_attrs),
    ("diskrod.matching", "smooth_profile", "curves.smooth_profile", _profile_attrs),
    ("diskrod.cli", "dbscan", "clustering.dbscan", _points_attrs),
    ("diskrod.cli", "centers_to_curve", "clustering.centers_to_curve", None),
]

PER_LAYER = [
    ("model.solve_calls", "count"), ("model.solve_s", "s"),
    ("model.iterations_per_solve.warm", "count"), ("model.iterations_per_solve.cold", "count"),
    ("model.ms_per_iteration", "ms"), ("model.cold_retries", "count"),
    ("model.nonconverged", "count"), ("model.known_nonconverged", "count"),
    ("model.forward_calls", "count"),
    ("model.cache_hit_ratio", "ratio"), ("model.total_energy_ms", "ms"),
    ("matching.match_shape_s", "s"), ("matching.step1_s", "s"), ("matching.step2_s", "s"),
    ("matching.step3_s", "s"), ("matching.step4_s", "s"),
    ("matching.solves.step2", "count"), ("matching.solves.step3", "count"),
    ("matching.solves.step4", "count"),
    ("matching.shape_rmse_cm", "cm"), ("matching.tip_error_mm", "mm"),
    ("search.evals_per_target", "count"), ("search.golden_section_us", "us"),
    ("curves.analysis_profile_ms", "ms"), ("curves.ct_profile_ms.n1k", "ms"),
    ("curves.smooth_profile_ms.n1k", "ms"),
    ("clustering.dbscan_s.n90", "s"), ("clustering.dbscan_s.n1k", "s"),
    ("clustering.dbscan_s.n5k", "s"), ("clustering.centers_to_curve_ms", "ms"),
    ("cli.match_self_s", "s"), ("cli.overlay_solves", "count"),
    ("cli.cluster_s", "s"), ("cli.analyze_s", "s"),
    ("trace.op_s.p50", "s"), ("trace.spans_per_op", "count"), ("trace.overhead_pct", "%"),
]
CLOUD_N = {"n90": 90, "n1k": 1000, "n5k": 5000}
SOLVE = "model.solve_equilibrium"
FORWARDS = ("matching.forward", "cli.forward")
# Cold solves that stopped short of the gradient tolerance when the benchmark
# was written: step 2's first probe for any disk-3 target, which makes
# `diskrod match` exit 3 on all of them, and a straight rod at high tendon.
KNOWN_NONCONVERGED = [
    ActuationState(140.0 * (1.0 - GOLDEN_RATIO), (0, 0, 90.0, 0, 0, 0, 0, 0, 0)),
    ActuationState(135.2, (0.0,) * 9),
]


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def total_energy_ms(reps: int = 30) -> float:
    """Public ``total_energy`` on the default 32-element rod, median of ``reps``."""
    config = ManipulatorConfig()
    dof = np.random.default_rng(0).normal(0.0, 1e-3, 3 * config.n_elements)
    act = ActuationState(100.0, (0, 0, 0, 0, -70.0, 0, 0, 0, 0))
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        total_energy(dof, config, act)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def known_nonconverged() -> int:
    config = ManipulatorConfig()
    return sum(not solve_equilibrium(config, act).converged for act in KNOWN_NONCONVERGED)


def golden_section_us(reps: int = 300) -> float:
    """``golden_section`` on a quadratic to 1e-6, median of ``reps``."""
    spec = GoldenSearchSpec(lo=0.0, hi=1.0, tol=1e-6)
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        golden_section(lambda x: (x - 0.3) ** 2, spec)
        times.append(perf_counter() - t0)
    return 1e6 * statistics.median(times)


def self_time_table(spans) -> dict[str, dict]:
    """Total self time and call count per span name."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[span.id]
        row["total_s"] += span.duration
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))


def layer_metrics(spans, outcomes) -> dict[str, float]:
    kids = children_of(spans)
    by_op: dict[int, list] = {}
    for span in spans:
        by_op.setdefault(span.op, []).append(span)
    ops = [by_op.get(k, []) for k in range(len(outcomes))]

    def named(items, name):
        return [s for s in items if s.name == name]

    def solves_under(items, name):
        return sum(len(named(descendants(s, kids), SOLVE)) for s in named(items, name))

    def per_op(fn):
        return _median(fn(op) for op in ops)

    solves = named(spans, SOLVE)
    warm = [s.attrs["iterations"] for s in solves if s.attrs.get("warm")]
    cold = [s.attrs["iterations"] for s in solves if "warm" in s.attrs and not s.attrs["warm"]]
    iterations = sum(warm) + sum(cold)

    cached = [s for s in spans if s.name in FORWARDS and s.attrs.get("cached")]
    hits = [s for s in cached if not named(kids.get(s.id, ()), SOLVE)]

    def retries(items):
        """A warm solve that did not converge, then a cold one, in one forward."""
        count = 0
        for fwd in (s for s in items if s.name in FORWARDS):
            seq = named(kids.get(fwd.id, ()), SOLVE)
            count += sum(1 for a, b in zip(seq, seq[1:])
                         if a.attrs.get("warm") and not a.attrs.get("converged")
                         and not b.attrs.get("warm"))
        return count

    def sized(name, n):
        return _median(s.duration for s in named(spans, name) if s.attrs.get("n") == n)

    def cli_time(items, command):
        return sum(s.duration for s in named(items, "cli.main") if s.attrs.get("command") == command)

    def match_self(items):
        total = cli_time(items, "match")
        return total - sum(s.duration for s in named(items, "matching.match_shape")) if total else 0.0

    matched = [o.detail for o in outcomes if "shape_rmse_cm" in o.detail]
    op_spans = [s for s in spans if s.op >= 0]
    op_seconds = sum(o.seconds for o in outcomes)
    overhead = 100.0 * len(op_spans) * per_span_cost_s() / op_seconds if op_seconds else 0.0

    return {
        "model.solve_calls": per_op(lambda op: len(named(op, SOLVE))),
        "model.solve_s": per_op(lambda op: sum(s.duration for s in named(op, SOLVE))),
        "model.iterations_per_solve.warm": float(np.mean(warm)) if warm else 0.0,
        "model.iterations_per_solve.cold": float(np.mean(cold)) if cold else 0.0,
        "model.ms_per_iteration": 1e3 * sum(s.duration for s in solves) / iterations if iterations else 0.0,
        "model.cold_retries": per_op(retries),
        "model.nonconverged": per_op(lambda op: sum(
            1 for s in named(op, SOLVE) if not s.attrs.get("converged", True))),
        "model.known_nonconverged": float(known_nonconverged()),
        "model.forward_calls": per_op(lambda op: sum(1 for s in op if s.name in FORWARDS)),
        "model.cache_hit_ratio": len(hits) / len(cached) if cached else 0.0,
        "model.total_energy_ms": total_energy_ms(),
        "matching.match_shape_s": per_op(lambda op: sum(s.duration for s in named(op, "matching.match_shape"))),
        **{f"matching.step{i}_s": per_op(lambda op, i=i: sum(s.duration for s in named(op, f"matching.step{i}")))
           for i in range(1, 5)},
        **{f"matching.solves.step{i}": per_op(lambda op, i=i: solves_under(op, f"matching.step{i}"))
           for i in range(2, 5)},
        "matching.shape_rmse_cm": _median(d["shape_rmse_cm"] for d in matched),
        "matching.tip_error_mm": _median(d["tip_error_mm"] for d in matched),
        "search.evals_per_target": per_op(lambda op: sum(
            s.attrs.get("evals", 0) for s in named(op, "matching.match_shape"))),
        "search.golden_section_us": golden_section_us(),
        "curves.analysis_profile_ms": 1e3 * _median(s.duration for s in named(spans, "curves.analysis_profile")),
        "curves.ct_profile_ms.n1k": 1e3 * sized("curves.ct_profile", 1000),
        "curves.smooth_profile_ms.n1k": 1e3 * sized("curves.smooth_profile", 1000),
        **{f"clustering.dbscan_s.{tag}": sized("clustering.dbscan", n) for tag, n in CLOUD_N.items()},
        "clustering.centers_to_curve_ms": 1e3 * _median(
            s.duration for s in named(spans, "clustering.centers_to_curve")),
        "cli.match_self_s": per_op(match_self),
        "cli.overlay_solves": per_op(lambda op: solves_under(op, "cli.forward")),
        "cli.cluster_s": per_op(lambda op: cli_time(op, "cluster")),
        "cli.analyze_s": per_op(lambda op: cli_time(op, "analyze")),
        "trace.op_s.p50": _median(o.seconds for o in outcomes),
        "trace.spans_per_op": len(op_spans) / len(outcomes) if outcomes else 0.0,
        "trace.overhead_pct": overhead,
    }
