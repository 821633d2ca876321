"""The provenance stamp attached to every benchmark result."""
from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys

__all__ = ["BLAS_THREAD_VARS", "pin_blas_threads", "blas_threads_observed",
           "stamp"]

# Every thread-count variable the common BLAS / OpenMP builds read at load.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads", "MKL_Get_Max_Threads",
            "bli_thread_get_num_threads")


def pin_blas_threads(n: int = 1) -> dict:
    """Set every BLAS thread variable to ``n``; call before numpy loads.

    Forked rank processes inherit both the variables and the already
    initialised library, so each rank also runs ``n`` BLAS threads.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def _loaded_blas_paths() -> list[str]:
    try:
        with open("/proc/self/maps") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    paths = []
    for line in lines:
        path = line.split()[-1] if line.split() else ""
        low = os.path.basename(path).lower()
        if (".so" in low and any(k in low for k in ("blas", "mkl", "blis"))
                and path not in paths):
            paths.append(path)
    return paths


def blas_threads_observed() -> int | None:
    """Thread count the loaded BLAS library reports, or None if unknown."""
    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _GETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _blas_library() -> str:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy: fall back to the loaded .so
        paths = _loaded_blas_paths()
        return os.path.basename(paths[0]) if paths else "unknown"


def _git(root: str, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", root, *args], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def stamp(root: str, seed: int, blas_set: dict) -> dict:
    """Host, cores, versions, BLAS library and threads, source revision."""
    import numpy as np

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_library": _blas_library(),
        "blas_threads_set": blas_set,
        "blas_threads_observed": blas_threads_observed(),
        "git_sha": sha or "unavailable (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }
