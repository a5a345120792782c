"""Tests of the benchmark's own logic; run with ``python3 -m pytest bench``.

They sit outside ``tests/`` so that the package's own suite does not pay for
them.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import layers  # noqa: E402
from diskrod import ManipulatorConfig  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def files_of(folder: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())}


def test_sweep_inputs_follow_the_seed():
    first = [gen.sweep_actuation(1, k) for k in range(30)]
    assert first == [gen.sweep_actuation(1, k) for k in range(30)]
    assert first != [gen.sweep_actuation(2, k) for k in range(30)]


def test_sweep_inputs_cover_the_workspace():
    tendons = sorted(gen.sweep_actuation(5, k).tendon_mm for k in range(20))
    assert 40.0 <= tendons[0] < 50.0 and 130.0 < tendons[-1] <= 140.0
    counts = [sum(a != 0 for a in gen.sweep_actuation(5, k).disk_angles_deg) for k in range(6)]
    assert counts == [0, 1, 2, 0, 1, 2]


@pytest.fixture(scope="module")
def config():
    return ManipulatorConfig()


def write_inputs(config, seed: int, folder: Path) -> dict[str, bytes]:
    solved = gen.solved_shape("measure", seed, 0, config, gen.MEASURE_DOMAIN)
    gen.write_session(solved, seed, 0, folder)
    return files_of(folder)


def test_session_files_byte_identical_for_a_seed(config, tmp_path):
    once = write_inputs(config, 3, tmp_path / "a")
    assert set(once) == {"raw_90.csv", "raw_1000.csv", "raw_5000.csv", "dense.csv"}
    assert once == write_inputs(config, 3, tmp_path / "b")
    other = write_inputs(config, 4, tmp_path / "c")
    assert all(once[name] != other[name] for name in once)


def test_match_target_follows_the_seed(config):
    a, b, c = (gen.solved_shape("match", seed, 0, config, gen.MATCH_DOMAIN) for seed in (3, 3, 4))
    assert a.actuation == b.actuation and (a.dense_points == b.dense_points).all()
    assert a.actuation != c.actuation
    (disk, angle), = a.rotated.items()
    assert disk == 5 and 60.0 <= abs(angle) <= 80.0
    assert 90.0 <= a.actuation.tendon_mm <= 110.0


def test_stylus_cloud_sizes_and_outliers():
    import numpy as np
    centers = np.array([[0.0, 0.0, -70.0 * i] for i in range(9)])
    cloud = gen.stylus_cloud(np.random.default_rng(0), centers, 1000)
    assert cloud.shape == (1000, 3)
    far = np.linalg.norm(cloud[:, None, :] - centers[None], axis=2).min(axis=1) >= 30.0
    assert far.sum() == 10


def span(i, parent, start, end, name="x"):
    return Span(i, parent, 0, name, start, end)


def test_self_time_on_a_synthetic_tree():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 5.0, 6.0),
        span(4, 0, 5.5, 7.0),    # overlaps its sibling: covered once
        span(5, 0, 9.0, 12.0),   # runs past its parent: only 9..10 counts
    ]
    assert self_times(spans) == pytest.approx(
        {0: 10.0 - 3.0 - 2.0 - 1.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.5, 5: 3.0})


def test_wrapper_records_nesting_and_restores():
    class Module:
        @staticmethod
        def outer(x):
            return Module.inner(x) + 1

        @staticmethod
        def inner(x):
            return 2 * x

    original = Module.inner
    tracer = Tracer()
    assert tracer.wrap_all([]) == []
    assert tracer.wrap(Module, "outer", "outer")
    assert tracer.wrap(Module, "inner", "inner",
                       lambda attrs, args, kwargs, result: attrs.update(result=result))
    assert not tracer.wrap(Module, "absent", "absent")
    assert Module.outer(3) == 7
    tracer.restore()
    assert Module.inner is original
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("outer", None, "inner", 0)
    assert inner.attrs == {"result": 6}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_metric_names_match_benchmark_json():
    import run
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _ in layers.PER_LAYER]
    assert [m["unit"] for m in SPEC["per_layer"]] == [u for _, u in layers.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == ["match", "measure"]


def test_no_private_diskrod_names_used():
    diskrod_modules = {"diskrod", "cli", "model"}
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("diskrod"):
                assert not any(part.startswith("_") for part in node.module.split(".")), path
                assert not any(a.name.startswith("_") for a in node.names), (path, node.lineno)
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in diskrod_modules):
                assert node.attr.startswith("__") or not node.attr.startswith("_"), (path, node.lineno)
    for _, attr, _, _ in layers.WRAPS:
        assert not attr.startswith("_")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
