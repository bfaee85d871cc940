"""Thread counts of the two OpenBLAS builds that numpy and scipy bundle.

numpy and scipy each ship their own OpenBLAS, in ``numpy.libs`` and
``scipy.libs``, and each starts one thread per CPU. On the many small dense
``eigh``/``expm``/``logm`` calls of this package the extra threads burn CPU
without cutting wall time, so every CLI call runs inside ``blas_threads()``,
which puts both builds on one thread and restores the counts it read when
the call ends. ``--workers`` is then the one source of threads.

The libraries are loaded by path with ``ctypes``; scipy's is found through
``importlib.util.find_spec``, so scipy is not imported. A build whose library
or thread-count symbols cannot be found is left alone.
"""

import contextlib
import ctypes
import importlib.util
from functools import cache
from pathlib import Path

#: (package, library glob in ``<package>.libs``, get symbol, set symbol)
BUILDS = (
    (
        "numpy",
        "libscipy_openblas64_*.so",
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_set_num_threads64_",
    ),
    (
        "scipy",
        "libscipy_openblas-*.so",
        "scipy_openblas_get_num_threads",
        "scipy_openblas_set_num_threads",
    ),
)


def _library(package: str, pattern: str) -> Path | None:
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        return None
    libs = Path(next(iter(spec.submodule_search_locations))).parent / f"{package}.libs"
    return min(libs.glob(pattern), default=None)


@cache
def _controls() -> dict:
    """Package name -> (get, set) thread-count functions, for each build found."""
    found = {}
    for package, pattern, get_name, set_name in BUILDS:
        path = _library(package, pattern)
        if path is None:
            continue
        try:
            lib = ctypes.CDLL(str(path))
            get, put = getattr(lib, get_name), getattr(lib, set_name)
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        put.restype, put.argtypes = None, [ctypes.c_int]
        found[package] = (get, put)
    return found


def thread_counts() -> dict[str, int]:
    """The current thread count of each bundled OpenBLAS build found."""
    return {package: get() for package, (get, _) in _controls().items()}


@contextlib.contextmanager
def blas_threads(count: int = 1):
    """Run the block with every bundled OpenBLAS build on ``count`` threads,
    and restore the counts read on entry however the block exits."""
    controls = _controls()
    before = thread_counts()
    for _, put in controls.values():
        put(count)
    try:
        yield
    finally:
        for package, n in before.items():
            controls[package][1](n)
