"""Locate the checkout's diskrod sources and describe the machine a result came from."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "diskrod"
RESULTS_DIR = ROOT / ".bench_results"   # stamped records, kept
WORK_DIR = ROOT / ".bench_work"         # generated inputs and CLI outputs, removed
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no diskrod sources to measure."""


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on the path and check diskrod loads from it.

    An installed diskrod elsewhere must never stand in for the code under test.
    """
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingProgram(f"no diskrod package under {SRC}")
    sys.path.insert(0, str(SRC))
    import diskrod
    loaded = Path(diskrod.__file__).resolve().parent
    if loaded != PACKAGE.resolve():
        raise MissingProgram(f"diskrod was imported from {loaded}, not {PACKAGE}")


def single_threaded_blas() -> None:
    """Keep the load to one thread unless the caller's environment says otherwise.

    Left at its default, OpenBLAS starts a second thread that spins on the
    other core during diskrod's small matrix products: three cold solves took
    4.1 s of wall and 7.9 s of CPU time that way, against 3.7 s and 3.7 s with
    one thread (2-vCPU x86_64 VM).  Must run before numpy is imported.
    """
    for name in BLAS_ENV:
        os.environ.setdefault(name, "1")


def src_line_count() -> int:
    """Lines in ``src/diskrod/*.py``, as ``wc -l`` counts them."""
    return sum(len(p.read_bytes().splitlines()) for p in sorted(PACKAGE.glob("*.py")))


def git_commit() -> str:
    """HEAD of the checkout read from ``.git``, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    """Provenance stored with every results record."""
    import numpy
    import scipy
    return {
        "src_lines": src_line_count(),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name, "unset") for name in BLAS_ENV},
        "machine": platform.machine(),
    }
