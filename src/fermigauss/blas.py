"""Thread count of the OpenBLAS build that numpy bundles.

numpy ships its own OpenBLAS, in ``numpy.libs``, and it starts one thread per
CPU. On the many small dense ``eigh``/``eig`` calls of this package the extra
threads burn CPU without cutting wall time, so every CLI call runs inside
``blas_threads()``, which puts the build on one thread and restores the count
it read when the call ends. ``--workers`` is then the one source of threads.

The library is loaded by path with ``ctypes``. When it or its thread-count
symbols cannot be found, the count is left alone.
"""

import contextlib
import ctypes
from functools import cache
from pathlib import Path

import numpy

#: numpy's OpenBLAS, a glob in ``numpy.libs``, and its get and set symbols.
LIBRARY = "libscipy_openblas64_*.so"
GET, SET = "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"


@cache
def _control():
    """The (get, set) thread-count functions of numpy's OpenBLAS, or None."""
    libs = Path(numpy.__file__).parents[1] / "numpy.libs"
    try:
        lib = ctypes.CDLL(str(min(libs.glob(LIBRARY))))
        get, put = getattr(lib, GET), getattr(lib, SET)
    except (ValueError, OSError, AttributeError):  # no library, or no symbol
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    put.restype, put.argtypes = None, [ctypes.c_int]
    return get, put


def thread_count() -> int | None:
    """The current thread count of numpy's OpenBLAS, or None when it is not found."""
    control = _control()
    return None if control is None else control[0]()


@contextlib.contextmanager
def blas_threads(count: int = 1):
    """Run the block with numpy's OpenBLAS on ``count`` threads, and restore
    the count read on entry however the block exits."""
    control = _control()
    if control is None:
        yield
        return
    get, put = control
    before = get()
    put(count)
    try:
        yield
    finally:
        put(before)
