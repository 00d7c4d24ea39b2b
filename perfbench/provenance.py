"""Machine and software provenance recorded in every result file."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _getconf(name: str):
    try:
        text = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout
        return int(text.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "redunquant").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def collect(root: Path, args) -> dict:
    import numpy
    import scipy
    from redunquant import stochastic_engine

    nproc = len(os.sched_getaffinity(0))
    blas = _blas()
    fill = stochastic_engine._FILL_WORKERS
    # the worker's own thread, the library's RNG-fill pool and BLAS's pool
    total = 1 + fill + (blas["threads"] or 1)
    warning = None
    if total > nproc:
        warning = (
            f"benchmark thread (1) + RNG-fill threads ({fill}) + BLAS threads "
            f"({blas['threads']}) = {total} > nproc ({nproc}); the worker thread "
            "blocks while either pool runs, so at most "
            f"{max(fill, blas['threads'] or 1)} run at once"
        )
        print(f"warning: {warning}", file=sys.stderr)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "tiny": bool(args.tiny),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "rng_fill_threads": fill,
        "threads_total": total,
        "thread_warning": warning,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }
