"""Process set-up shared by the benchmark scripts, and the environment record.

``pin_threads`` must run before numpy is imported: OpenBLAS reads its thread
count once, when the library loads.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One BLAS thread: on a 2-core host the worst kernel-wide case was 2.3x the
# median with two OpenBLAS threads and 1.35x with one.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def source_present() -> bool:
    return (SRC / "vnlab" / "__init__.py").is_file()


def pin_threads() -> None:
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_source_tree() -> None:
    """Import ``vnlab`` from this checkout's ``src`` rather than any install."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _openblas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed=None) -> dict:
    """Versions, BLAS, cores and commit: what a timing depends on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }
