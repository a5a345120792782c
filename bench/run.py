"""diskrod benchmark: one seeded closed-loop workload per run.

    python3 bench/run.py --workload match|sweep|measure [--seed N]
                         [--seconds S] [--trace 0|1]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give the same numbers under each workload's own names.
Every run also writes a stamped record, and a traced run its spans, under
``.bench_results/``.  Exit code 2 means the benchmark could not run; no
result line is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import env

DEFAULT_SEED = 1
HELD_OUT_SEED = 907
SETUP_SAMPLES = 5
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import diskrod
diskrod.ManipulatorConfig()
print(repr(time.perf_counter() - t0))
"""

END_TO_END = {"op_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# what seconds per operation is called under each workload
OP_NAMES = {"match": "match_s", "sweep": "solve_s", "measure": "measure_s"}


def setup_seconds() -> list[float]:
    """``import diskrod`` plus ``ManipulatorConfig()`` in fresh interpreters."""
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(env.SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=env.ROOT, env=environ,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import layers
    from tracing import Tracer
    from workloads import WORKLOADS, WRONG

    setup = setup_seconds()
    env.WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-{seed}-", dir=env.WORK_DIR))
    tracer = Tracer() if trace else None
    try:
        workload = WORKLOADS[workload_name](seed, workdir, tracer)
        missing = tracer.wrap_all(layers.WRAPS) if tracer else []
        outcomes, measured = [], 0.0
        try:
            while not outcomes or measured < seconds:
                k = len(outcomes)
                if tracer:
                    tracer.op = k
                outcome = workload.attempt(k)
                outcomes.append(outcome)
                measured += outcome.seconds
                if not outcome.ok:
                    print(f"{outcome.status.upper()} {workload_name} op {k}: "
                          f"{json.dumps(outcome.detail)}", file=sys.stderr)
        finally:
            if tracer:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not o.ok for o in outcomes)
    times = [o.seconds for o in outcomes if o.ok] or [o.seconds for o in outcomes]
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "stamp": env.stamp(), "setup_samples_s": setup,
        "generation": workload.generation,
        "ops": [{"seconds": o.seconds, "status": o.status, **o.detail} for o in outcomes],
    }
    if trace:
        metrics = layers.layer_metrics(tracer.spans, outcomes)
        units = dict(layers.PER_LAYER)
        record["wrapped_names_missing"] = missing
        record["self_time"] = layers.self_time_table(tracer.spans)
        record["spans"] = [s.to_dict() for s in tracer.spans]
    else:
        metrics = {
            "op_s.p50": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
    record["metrics"] = metrics
    env.RESULTS_DIR.mkdir(exist_ok=True)
    name = f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    (env.RESULTS_DIR / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    op = OP_NAMES[workload_name]
    print(f"# {workload_name} seed {seed}: {len(outcomes)} {workload.unit_name}s, "
          f"{failed} failed; stamp {json.dumps(record['stamp'])}")
    print(f"fail_ratio = {failed / len(outcomes):.6g} ({failed} of {len(outcomes)})")
    for key, value in metrics.items():
        print(f"{key.replace('op_s', op)} = {value:.6g} {units[key]}")
    if not trace:
        # too few samples beyond it to be bounded; printed for the record
        print(f"{op}.p90 = {float(np.percentile(times, 90)):.6g} s (n = {len(times)})")
    else:
        print("# self time by span (s): " + ", ".join(
            f"{k} {v['self_s']:.3f}/{v['calls']}" for k, v in record["self_time"].items()))
    return {
        "correct": not any(o.status == WRONG for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OP_NAMES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is kept "
                             "for checking a change on inputs it was not tuned on)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="operation time to measure; at least one operation runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env.single_threaded_blas()
    try:
        env.use_checkout_sources()
    except env.MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
