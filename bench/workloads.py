"""The three closed-loop workloads.

One client issues one operation at a time and waits for it, as a researcher
waits on a batch CLI.  Inputs for an operation are generated and its outputs
checked outside the timed region; only the call into diskrod is timed.

Every operation ends in one of three states.  ``ok``: it succeeded and its
output passed the check.  ``failed``: the program reported the failure
itself (it raised, exited non-zero, or returned ``converged=False``).
``wrong``: the program reported success but its output failed the check.
Both of the last two count as failed operations and the run goes on; only
``wrong`` makes the run's output incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import diskrod.cli as cli
import diskrod.model as model
from diskrod import ManipulatorConfig
from diskrod.fileio import read_curve_csv, write_curve_csv

from gen import (CLOUD_SIZES, MATCH_DOMAIN, MEASURE_DOMAIN, N_DISKS, NOISE_MM,
                 solved_shape, sweep_actuation, write_session)

# With ten touches a disk the nine-centroid torsion profile lost the rotated
# disk's crossing in 4 of 115 sessions, so the 90-point cloud is checked for
# its centroids only.
SIGN_CHECK_MIN_POINTS = 1000

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Outcome:
    seconds: float
    status: str
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == OK


def run_cli(argv: list[str], tracer=None) -> tuple[int, str]:
    """``diskrod.cli.main`` in-process, its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("cli.main", command=argv[0]) if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        if span is not None:
            tracer.close(span)
    return code, err.getvalue().strip()


class Workload:
    """``prepare`` (untimed) -> ``operate`` (timed) -> ``check`` (untimed)."""

    name = ""
    unit_name = ""   # what one operation is, for the printed summary

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.config = ManipulatorConfig()
        self.generation = {"redraws": 0}

    def prepare(self, k: int):
        raise NotImplementedError

    def operate(self, inputs):
        raise NotImplementedError

    def check(self, inputs, result) -> tuple[str, dict]:
        raise NotImplementedError

    def attempt(self, k: int) -> Outcome:
        inputs = self.prepare(k)
        t0 = perf_counter()
        try:
            result = self.operate(inputs)
        except Exception as exc:  # a failed operation is counted, never fatal
            seconds = perf_counter() - t0
            return Outcome(seconds, FAILED, {"error": "".join(
                traceback.format_exception_only(type(exc), exc)).strip()})
        seconds = perf_counter() - t0
        try:
            status, detail = self.check(inputs, result)
        except Exception as exc:  # e.g. a missing or unparsable output file
            status, detail = WRONG, {"error": f"check raised {exc!r}"}
        return Outcome(seconds, status, detail)


class Match(Workload):
    """Each operation is ``diskrod match`` on one seeded target curve."""

    name = "match"
    unit_name = "target"

    def prepare(self, k):
        solved = solved_shape("match", self.seed, k, self.config, MATCH_DOMAIN)
        self.generation["redraws"] += solved.redraws
        return self.stage(k, solved)

    def stage(self, k, solved):
        folder = self.workdir / f"match_{k}"
        folder.mkdir(parents=True)
        target = folder / "target.csv"
        write_curve_csv(target, solved.dense_points)
        return solved, target, folder / "out"

    def operate(self, inputs):
        _, target, out = inputs
        return run_cli(["match", str(target), "--out-dir", str(out)], self.tracer)

    def check(self, inputs, result):
        solved, _, out = inputs
        code, err = result
        detail = {"truth": solved.actuation.disk_angles_deg,
                  "tendon_truth": solved.actuation.tendon_mm}
        if code != 0:
            return FAILED, {**detail, "exit": code, "stderr": err}
        doc = json.loads((out / "match_result.json").read_text())
        angles = doc["disk_angles_deg"]
        # disks 1..n-2 are the identified ones; the tip region is fine-tuned
        recovered = {d: angles[d - 1] > 0 for d in range(1, N_DISKS - 1) if angles[d - 1] != 0}
        truth = {d: a > 0 for d, a in solved.rotated.items()}
        detail.update(recovered=angles, tendon_mm=doc["tendon_mm"],
                      shape_rmse_cm=doc["metrics"]["shape_rmse_cm"],
                      tip_error_mm=doc["metrics"]["tip_error_mm"])
        return (OK if recovered == truth else WRONG), detail


class Sweep(Workload):
    """Each operation is one cold ``solve_equilibrium``."""

    name = "sweep"
    unit_name = "solve"

    def prepare(self, k):
        return sweep_actuation(self.seed, k)

    def operate(self, actuation):
        # looked up at call time so that a traced run sees its wrapper
        return model.solve_equilibrium(self.config, actuation)

    def check(self, actuation, report):
        detail = {"actuation": actuation.disk_angles_deg, "tendon_mm": actuation.tendon_mm,
                  "iterations": report.iterations,
                  "gradient_inf_norm": report.gradient_inf_norm}
        if not report.converged:
            return FAILED, detail
        return (OK if report.gradient_inf_norm <= model.GRAD_TOL_MJ_PER_RAD else WRONG), detail


class Measure(Workload):
    """Each operation is one stylus session: ``cluster --expect 9`` and
    ``analyze`` per point cloud, then ``analyze --samples 0`` on a dense curve."""

    name = "measure"
    unit_name = "session"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.solved = None

    def prepare(self, k):
        if self.solved is None:
            self.solved = solved_shape("measure", self.seed, 0, self.config, MEASURE_DOMAIN)
            self.generation["redraws"] += self.solved.redraws
        return write_session(self.solved, self.seed, k, self.workdir / f"session_{k}")

    def operate(self, paths):
        *clouds, dense = paths
        codes = []
        for raw in clouds:
            out = raw.with_suffix("")
            code, err = run_cli(["cluster", str(raw), "--expect", str(N_DISKS),
                                 "--out-dir", str(out)], self.tracer)
            codes.append(("cluster", code, err))
            if code == 0:
                codes.append(("analyze", *run_cli(
                    ["analyze", str(out / "centroids.csv"), "--out-dir", str(out / "analyze")],
                    self.tracer)))
        codes.append(("analyze", *run_cli(
            ["analyze", str(dense), "--samples", "0", "--out-dir", str(dense.with_suffix(""))],
            self.tracer)))
        return codes

    def check(self, paths, codes):
        failed = [c for c in codes if c[1] != 0]
        if failed:
            return FAILED, {"failed": failed}
        (disk, angle), = self.solved.rotated.items()
        # a positive disk angle gives a negative-to-positive torsion crossing
        crossing = "neg_to_pos" if angle > 0 else "pos_to_neg"
        truth = self.solved.disk_centers[1:]
        detail = {"rotated_disk": disk, "centroid_error_mm": {}, "sign_changes": {}}
        status = OK
        for raw, n in zip(paths, CLOUD_SIZES):
            out = raw.with_suffix("")
            centroids = read_curve_csv(out / "centroids.csv").points
            error = float(np.linalg.norm(centroids - truth, axis=1).max())
            changes = json.loads((out / "analyze" / "sign_changes.json").read_text())
            detail["centroid_error_mm"][n] = error
            detail["sign_changes"][n] = [(c["nearest_disk"], c["direction"]) for c in changes]
            # six standard errors of the mean of n / 9 touches; measurement noise
            # may add a crossing at another disk, but the rotated one must be there
            if error > 6.0 * NOISE_MM / np.sqrt(n / N_DISKS) or (
                    n >= SIGN_CHECK_MIN_POINTS and (disk, crossing) not in detail["sign_changes"][n]):
                status = WRONG
        return status, detail


WORKLOADS = {w.name: w for w in (Match, Sweep, Measure)}
