"""Environment capture and guard for benchmark runs.

Records the CPU count, interpreter and library versions and the BLAS
libraries with their thread counts, and refuses configurations that
would make the figures incomparable: a process pool (``HSUQ_THREADS`` >
1) or more BLAS threads than usable CPUs.
"""

import ctypes
import os
import platform
from pathlib import Path

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_libraries():
    """[(owner package, library file, thread count or None)]."""
    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for so in sorted(libdir.glob("*openblas*.so*")):
            threads = None
            try:
                lib = ctypes.CDLL(str(so))
            except OSError:
                lib = None
            for sym in _THREAD_SYMBOLS if lib is not None else ():
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
            found.append((pkg.__name__, so.name, threads))
    return found


def _env_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").strip().isdigit():
            return int(os.environ[var])
    return None


def capture(seed):
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    blas = _blas_libraries()
    counts = [t for _, _, t in blas if t is not None]
    blas_threads = max(counts) if counts else _env_threads()
    blas_name = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas_name.get('name')} {blas_name.get('version')}",
        "blas_libraries": [{"package": p, "file": f, "threads": t} for p, f, t in blas],
        "blas_threads": blas_threads,
        "hsuq_threads": os.environ.get("HSUQ_THREADS"),
        "seed": seed,
    }


def problems(env):
    """Reasons the run must not go ahead; empty when it may."""
    out = []
    raw = env["hsuq_threads"]
    if raw is not None:
        try:
            if int(raw) > 1:
                out.append(f"HSUQ_THREADS={raw}: the benchmark runs one process, unset it")
        except ValueError:
            out.append(f"HSUQ_THREADS={raw!r} is not an integer")
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        out.append(f"BLAS uses {env['blas_threads']} threads on {env['nproc']} CPUs; "
                   f"set OPENBLAS_NUM_THREADS to at most {env['nproc']}")
    return out
