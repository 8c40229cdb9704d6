"""Pin, clear and record the environment a benchmark run depends on.

The thread count of the bundled OpenBLAS changes the last bits of every
result and the wall time of every dense solve, so the benchmark pins it
to one thread *before numpy is imported* and then checks, through the
loaded libraries themselves, that the pin took.  ``REPRO_*`` variables
(disk cache directory, worker count, fault injection, resilience policy,
...) would let one run's state or an ambient setting leak into another,
so they are removed before ``repro`` is imported.

Only the standard library is imported at module level: this module runs
first, before numpy exists in the process.
"""

from __future__ import annotations

import ctypes
import os
import platform

#: Environment variables that set the BLAS/OpenMP pool width.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Thread-count query symbols of the OpenBLAS builds numpy/scipy bundle.
_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_GET_CONFIG = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


class PinError(RuntimeError):
    """The environment is not the one the benchmark measures in."""


def pin_threads(threads: int = 1) -> dict[str, str]:
    """Set every BLAS/OpenMP thread variable; call before importing numpy."""
    for name in THREAD_VARS:
        os.environ[name] = str(threads)
    return {name: os.environ[name] for name in THREAD_VARS}


def clear_repro_env() -> list[str]:
    """Remove every ``REPRO_*`` variable; returns the names removed."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    return removed


def _loaded_blas_paths() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    paths: set[str] = set()
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for line in maps:
            parts = line.split(maxsplit=5)
            if len(parts) == 6 and "openblas" in os.path.basename(parts[5]):
                paths.add(parts[5].strip())
    return sorted(paths)


def _symbol(lib: ctypes.CDLL, names: tuple[str, ...]):
    for name in names:
        try:
            return getattr(lib, name)
        except AttributeError:
            continue
    return None


def blas_libraries() -> list[dict[str, object]]:
    """Thread count and build string of each loaded OpenBLAS.

    numpy and scipy each bundle their own copy; both are listed once
    ``scipy.linalg`` has been imported.
    """
    out = []
    for path in _loaded_blas_paths():
        lib = ctypes.CDLL(path)
        get_threads = _symbol(lib, _GET_THREADS)
        get_config = _symbol(lib, _GET_CONFIG)
        entry: dict[str, object] = {"library": os.path.basename(path)}
        if get_threads is not None:
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            entry["threads"] = int(get_threads())
        if get_config is not None:
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            entry["config"] = get_config().decode("ascii", "replace").strip()
        out.append(entry)
    return out


def verify_threads(threads: int = 1) -> list[dict[str, object]]:
    """Check that every loaded OpenBLAS runs ``threads`` threads.

    Raises :class:`PinError` when no OpenBLAS is loaded, when one
    cannot report its thread count, or when any count differs.
    """
    libs = blas_libraries()
    if not libs:
        raise PinError(
            "no OpenBLAS library is loaded; cannot verify the BLAS pin"
        )
    for entry in libs:
        if entry.get("threads") != threads:
            raise PinError(
                f"{entry['library']} runs {entry.get('threads')} BLAS "
                f"threads, expected {threads}"
            )
    return libs


def trim_heap() -> bool:
    """Return freed heap pages to the OS (glibc ``malloc_trim(0)``).

    Called between operations so the process high-water mark measures
    the largest operation's working set, not the heap fragmentation left
    by the operations before it.  Returns False where there is no glibc.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        trim = libc.malloc_trim
    except (OSError, AttributeError):
        return False
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)
    return True


def environment_record(blas: list[dict[str, object]],
                       cleared: list[str], workers: int) -> dict[str, object]:
    """CPU count, thread pins, worker count and library versions."""
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "blas": blas,
        "workers": workers,
        "cleared_env": cleared,
    }
