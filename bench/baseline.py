"""Traced ``diskrod match`` on the two reference targets of ROADMAP.md.

    python3 bench/baseline.py

va: disk 5 at -70 deg, tendon 100 mm.  vb: disk 4 at +87 deg, disk 6 at
-55 deg, tendon 131 mm.  Prints one markdown row per target and writes the
stamped record to ``.bench_results/baseline.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import env

TARGETS = {"va": (100.0, {5: -70.0}), "vb": (131.0, {4: 87.0, 6: -55.0})}
COLUMNS = ["model.solve_calls", "model.iterations_per_solve.warm",
           "model.iterations_per_solve.cold", "model.cold_retries", "model.cache_hit_ratio",
           "matching.match_shape_s", "cli.match_self_s", "cli.overlay_solves",
           "search.evals_per_target", "model.known_nonconverged"]


def main() -> int:
    env.single_threaded_blas()
    try:
        env.use_checkout_sources()
    except env.MissingProgram as exc:
        print(f"baseline: {exc}", file=sys.stderr)
        return 2
    from diskrod import ManipulatorConfig, solve_equilibrium
    import gen
    import layers
    from tracing import Tracer
    from workloads import Match

    class Reference(Match):
        """The match workload on one fixed target."""

        def __init__(self, solved, workdir, tracer):
            super().__init__(0, workdir, tracer)
            self.solved = solved

        def prepare(self, k):
            return self.stage(k, self.solved)

    env.RESULTS_DIR.mkdir(exist_ok=True)
    env.WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="baseline-", dir=env.WORK_DIR))
    records = {}
    try:
        for name, (tendon, disks) in TARGETS.items():
            act = gen.actuation(tendon, disks)
            report = solve_equilibrium(ManipulatorConfig(), act)
            solved = gen.Solved(act, disks, report.shape.disk_centers,
                                report.shape.dense_curve.points, 0)
            tracer = Tracer()
            tracer.wrap_all(layers.WRAPS)
            tracer.op = 0
            try:
                outcome = Reference(solved, work / name, tracer).attempt(0)
            finally:
                tracer.restore()
            records[name] = {"seconds": outcome.seconds, "status": outcome.status,
                             **outcome.detail,
                             "layers": layers.layer_metrics(tracer.spans, [outcome])}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"stamp": env.stamp(), "targets": records}
    (env.RESULTS_DIR / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    print("| target | status | cli match s | tendon mm | rotated disks (deg) | RMSE cm | tip mm | "
          + " | ".join(COLUMNS) + " |")
    for name, r in records.items():
        angles = {i + 1: a for i, a in enumerate(r.get("recovered", [])) if a}
        print(f"| {name} | {r['status']} | {r['seconds']:.1f} | {r.get('tendon_mm', 0):.2f} | "
              f"{angles} | {r.get('shape_rmse_cm', 0):.3f} | {r.get('tip_error_mm', 0):.2f} | "
              + " | ".join(f"{r['layers'][c]:.4g}" for c in COLUMNS) + " |")
    print(f"stamp: {json.dumps(record['stamp'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
