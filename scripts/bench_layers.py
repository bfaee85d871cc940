#!/usr/bin/env python3
"""Per-layer times of the calls the verification drivers make.

Each row times one real call as one layer named after it (the row name's
first word), and beside it each step that call makes, as a layer named
after the step: every step is wrapped at the module name its callers look
it up by, for the call alone, and summed over its calls within it. No
listed step calls another, so the steps are disjoint parts of the whole
call. The rows, p = 1, and their steps (MC_STEPS, REPORT_STEPS and
QUADRATURE_STEPS):

- ``verify_resolution_mc M=m chunk=4000``, M = 1..6: the resolution
  driver's own worker, on chunk 0's generator and size, taken from the
  driver by a stub of verify._run_chunks, so none of the driver's chunks
  runs.
- ``cli.run <command>``: the one command of the ``mc_m6`` and of the
  ``nc_modified`` benchmark workload, read from benchmark/workloads.py,
  through ``cli.run`` with the CLI's default seed, its stdout captured and
  its report written to a temporary directory; beside the worker steps,
  ``_mc_report`` and the report steps.
- ``verify_resolution_quadrature M=2``: one default call (class D,
  Gaussian weight, quad_order 60).
- ``operator_identity_suite M=3 trials=50``: one call of the identity
  suite as the ``checks`` workload runs it (``identities --modes 3``, seed
  0), with one layer per trial of verify._IDENTITY_TRIALS (named after its
  function), summed over its mode counts.
- ``selberg_consistency_suite M=6``: one call of the closed-form suite as
  the ``checks`` workload runs it (``selberg --consistency``), with the
  closed forms it calls (SELBERG_STEPS) timed at their fermigauss.selberg
  names.

Every row first runs once untimed, to warm the per-M caches. The chunk
rows and the identity suite then run REPEATS times, the others
SMALL_REPEATS times; each layer gives the minimum and the median in
seconds, and each row's whole-call layer also the median count of minor
page faults per timed call (``minor_faults``, the getrusage ru_minflt
delta), which shows where fresh memory is faulted in. Everything runs with
numpy's OpenBLAS on one thread, as inside a CLI call, through this
checkout's ``fermigauss/blas.py`` (so any ``--src`` tree is timed the same
way); the JSON on stdout records that thread count and the numerical
environment (benchmark/environment.py). Run from the
repository root:

    python3 scripts/bench_layers.py
    python3 scripts/bench_layers.py --src ../other-checkout/src

``--src`` names the directory holding the ``fermigauss`` package to time
(default: this checkout's ``src``); the rows call the package's current
functions, so an older tree is timed by its own copy of this script, as
scripts/bench_pairs.py does for the parent, the change and an A/A copy in
alternating fresh processes.
"""

import argparse
import contextlib
import functools
import importlib.util
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHUNK = 4000
REPEATS, SMALL_REPEATS = 5, 50
#: The steps timed at their verify names: those of the Monte Carlo workers
#: and the verdict on their chunks. A row lists only the steps its call makes.
MC_STEPS = ("sample_class_d_batch", "real_form", "real_form_pair_rows", "class_d_pair_values",
            "_haar_column_normals", "_rank_one_pair_rows", "wick_coordinates", "_fock_check", "_mc_report")
#: The report steps of a CLI command, timed at their reports names.
REPORT_STEPS = ("estimator_to_criterion", "build_report", "write_report")
QUADRATURE_STEPS = ("radial_quadrature_nodes", "filling_moments", "moment_wick_coordinates", "_fock_check")
#: The closed forms of selberg_consistency_suite, in the order of their first calls.
SELBERG_STEPS = ("angular_volume_log", "radial_gaussian_integral_log", "cartesian_gaussian_integral_log",
                 "norm_const_gauss_log", "norm_const_det_log", "selberg_integral_log")


def _load(path: Path):
    """The module at ``path``, loaded by path, under its file name."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _command(workload: str) -> tuple[str, ...]:
    """The one command of a benchmark workload, without --seed and --out."""
    (command,) = _load(ROOT / "benchmark" / "workloads.py").WORKLOADS[workload].commands
    return command


@contextlib.contextmanager
def patched(attrs: dict):
    """Each module of ``attrs`` with the attributes it maps replaced by their
    values, every one put back on exit."""
    real = [(module, name, getattr(module, name)) for module, fns in attrs.items() for name in fns]
    for module, fns in attrs.items():
        for name, fn in fns.items():
            setattr(module, name, fn)
    try:
        yield
    finally:
        for module, name, fn in real:
            setattr(module, name, fn)


def steps(timed, module, names) -> dict:
    """Stand-ins, for patched(), that time each step of ``names`` through
    ``timed`` at ``module``'s name for it, where its callers look it up."""
    return {module: {name: functools.partial(timed, name, getattr(module, name)) for name in names}}


def _row(whole: str, call, repeats: int, wrap) -> dict:
    """Min and median seconds of ``call()``, as the layer ``whole``, and of
    each step it makes, over ``repeats`` rounds after one untimed round, and
    the median minor page faults of ``call()``. ``wrap(timed)`` gives the
    stand-ins for the steps (see patched), which time them through
    ``timed(layer, fn, *args)``; a layer called more than once in a round
    counts its sum."""
    times, faults = {}, []
    for i in range(repeats + 1):
        def timed(layer, fn, *args, **kwargs):
            total = times.setdefault(layer, [0.0] * repeats)  # a layer is listed when its first call starts
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            if i:
                total[i - 1] += time.perf_counter() - start
            return out

        with patched(wrap(timed)):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            timed(whole, call)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    out = {layer: {"min_s": min(ts), "median_s": statistics.median(ts)} for layer, ts in times.items()}
    out[whole]["minor_faults"] = statistics.median_low(faults[1:])
    return out


class _Built(Exception):
    """Stops a driver call at verify._run_chunks, carrying what it was handed."""


def chunk_row(modes: int) -> dict:
    from fermigauss import verify
    from fermigauss.ensembles import RngSpec

    def built(worker, n_samples, spec, *rest):
        raise _Built(worker, spec, verify._chunk_layout(n_samples)[1])

    with patched({verify: {"_run_chunks": built}}):
        try:
            verify.verify_resolution_mc(modes, 1.0, CHUNK * verify.MIN_CHUNKS, RngSpec(modes))
        except _Built as stop:
            worker, spec, per = stop.args
    return _row("verify_resolution_mc", lambda: worker(spec.generator(), per, True), REPEATS,
                lambda timed: steps(timed, verify, MC_STEPS))


def command_row(command: tuple[str, ...]) -> dict:
    from fermigauss import cli, reports, verify

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        argv = [*command, "--out", str(Path(tmp) / "report.json")]
        return _row("cli.run", lambda: cli.run(argv), SMALL_REPEATS,
                    lambda timed: steps(timed, verify, MC_STEPS) | steps(timed, reports, REPORT_STEPS))


def quadrature_row() -> dict:
    from fermigauss import verify
    from fermigauss.ensembles import CLASS_D, WeightSpec

    weight = WeightSpec.gaussian(1.0)
    return _row("verify_resolution_quadrature", lambda: verify.verify_resolution_quadrature(2, CLASS_D, weight),
                SMALL_REPEATS, lambda timed: steps(timed, verify, QUADRATURE_STEPS))


def identity_row() -> dict:
    from fermigauss import verify

    def trials(timed):  # each trial of the table, summed over its mode counts
        table = tuple((functools.partial(timed, trial.__name__, trial), schedule)
                      for trial, schedule in verify._IDENTITY_TRIALS)
        return {verify: {"_IDENTITY_TRIALS": table}}

    return _row("operator_identity_suite", lambda: verify.operator_identity_suite(3, 0, 50), REPEATS, trials)


def selberg_row() -> dict:
    from fermigauss import selberg, verify

    return _row("selberg_consistency_suite", lambda: verify.selberg_consistency_suite(6), SMALL_REPEATS,
                lambda timed: steps(timed, selberg, SELBERG_STEPS))


def tables() -> dict:
    """Every row, in the order the docstring lists them."""
    rows = {f"verify_resolution_mc M={m} chunk={CHUNK}": lambda m=m: chunk_row(m) for m in range(1, 7)}
    for workload in ("mc_m6", "nc_modified"):
        command = _command(workload)
        rows["cli.run " + " ".join(command)] = lambda command=command: command_row(command)
    rows["verify_resolution_quadrature M=2"] = quadrature_row
    rows["operator_identity_suite M=3 trials=50"] = identity_row
    rows["selberg_consistency_suite M=6"] = selberg_row
    out = {}
    for name, row in rows.items():
        out[name] = row()
        print(f"{name}: " + ", ".join(f"{k} {v['median_s']:.5f} s" for k, v in out[name].items()), file=sys.stderr)
    return out


def blas_helper():
    """This checkout's fermigauss/blas.py, loaded by path: it imports nothing
    from the package, so it serves whichever tree ``--src`` names."""
    return _load(ROOT / "src" / "fermigauss" / "blas.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the fermigauss package")
    args = parser.parse_args()
    if not (args.src / "fermigauss" / "__init__.py").is_file():
        sys.exit(f"error: no fermigauss package under {args.src}")
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(1, str(ROOT / "benchmark"))
    from environment import environment

    blas = blas_helper()
    with blas.blas_threads():
        doc = {"repeats": [REPEATS, SMALL_REPEATS], "environment": environment(workers=1),
               "blas_threads": blas.thread_count(), "rows": tables()}
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
