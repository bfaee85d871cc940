"""The numerical environment a result was measured in."""

import os
import platform


def _blas(config: dict) -> dict:
    deps = config.get("Build Dependencies", {})
    return {
        lib: {key: deps.get(lib, {}).get(key) for key in ("name", "version", "openblas configuration")}
        for lib in ("blas", "lapack")
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workers: int) -> dict:
    import numpy
    import scipy

    from fermigauss import reports

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": _blas(numpy.show_config(mode="dicts")),
        "scipy": scipy.__version__,
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "cpu_model": _cpu_model(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "workers": workers,
        "git_describe": reports.git_describe(),
    }
