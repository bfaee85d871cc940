#!/usr/bin/env python3
"""Per-layer times of the calls the verification drivers make.

Each row times one real call as one layer named after it (the row name's
first word), and beside it each step the call makes, wrapped at the module
name its callers look it up by and summed over its calls. No listed step
runs inside another, so the steps are disjoint parts of the whole call.
There are two kinds of row, p = 1:

- ``verify_resolution_mc M=m chunk=4000``, M = 1..6: the resolution
  driver's own worker on chunk 0's generator and size, taken from the
  driver by a stub of verify._run_chunks, so none of the driver's chunks
  runs; its steps are MC_STEPS.
- ``cli.run <command>``: every command of every BENCHMARK.json workload, in
  that file's order, read from benchmark/workloads.py and run through
  ``cli.run`` with the CLI's default seed, its stdout captured and its
  report written to a temporary directory. Its steps are REPORT_STEPS and
  either the trials of verify._IDENTITY_TRIALS (``identities``, whose
  trials draw through a driver step) or the driver steps (MC_STEPS,
  QUADRATURE_STEPS) and SELBERG_STEPS. A command that exits 2 (a usage or
  input error) stops the script; one that exits 1 (a failed verdict) is
  timed.

Every row first runs once untimed, to warm the per-M and per-law caches
as a repeated call in one process finds them, then REPEATS
(chunk rows) or SMALL_REPEATS (command rows) timed rounds. Each layer gives
its minimum and median seconds and its median minor page faults per round
(``minor_faults``, the getrusage ru_minflt delta). Everything runs with
numpy's OpenBLAS on one thread, as inside a CLI call, through this
checkout's ``fermigauss/blas.py``; the JSON on stdout records that thread
count and the numerical environment (benchmark/environment.py). Run from
the repository root:

    python3 scripts/bench_layers.py
    python3 scripts/bench_layers.py --src ../other-checkout/src

``--src`` names the directory holding the ``fermigauss`` package to time
(default: this checkout's ``src``); the rows call the package's current
functions, so an older tree is timed by its own copy of this script, as
scripts/bench_pairs.py does.
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
            "_normal_parts", "_rank_one_pair_rows", "wick_coordinates", "_fock_check", "_mc_report")
#: The report steps of a CLI command, timed at their reports names.
REPORT_STEPS = ("estimator_to_criterion", "build_report", "write_report")
#: The steps of the quadrature drivers, timed at their verify names. A warm
#: call takes its rules and their moments from the law-table lookup, which
#: builds them (radial_quadrature_nodes, filling_moments) on its first call.
QUADRATURE_STEPS = ("_law_tables", "moment_wick_coordinates", "_fock_check")
#: The closed forms of selberg_consistency_suite, in the order of their first calls,
#: timed at their fermigauss.selberg names.
SELBERG_STEPS = ("angular_volume_log", "radial_gaussian_integral_log", "cartesian_gaussian_integral_log",
                 "norm_const_gauss_log", "norm_const_det_log", "selberg_integral_log")


def _load(path: Path):
    """The module at ``path``, loaded by path, under its file name."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    the median minor page faults of each. ``wrap(timed)`` gives the
    stand-ins for the steps (see patched), which time them through
    ``timed(layer, fn, *args)``; a layer called more than once in a round
    counts its sum."""
    times, faults = {}, {}
    for i in range(repeats + 1):
        def timed(layer, fn, *args, **kwargs):
            total = times.setdefault(layer, [0.0] * repeats)  # a layer is listed when its first call starts
            faulted = faults.setdefault(layer, [0] * repeats)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            if i:
                total[i - 1] += time.perf_counter() - start
                faulted[i - 1] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            return out

        with patched(wrap(timed)):
            timed(whole, call)
    return {layer: {"min_s": min(ts), "median_s": statistics.median(ts),
                    "minor_faults": statistics.median_low(faults[layer])} for layer, ts in times.items()}


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
    from fermigauss import cli, reports, selberg, verify

    def wrap(timed):
        if command[0] == "identities":  # its trials draw through sample_class_d_batch: time each trial instead
            table = tuple((functools.partial(timed, trial.__name__, trial), schedule)
                          for trial, schedule in verify._IDENTITY_TRIALS)
            inner = {verify: {"_IDENTITY_TRIALS": table}}
        else:
            inner = steps(timed, verify, MC_STEPS + QUADRATURE_STEPS) | steps(timed, selberg, SELBERG_STEPS)
        return inner | steps(timed, reports, REPORT_STEPS)

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        argv = [*command, "--out", str(Path(tmp) / "report.json")]

        def call():  # a failed verdict (exit 1) is timed; a usage or input error is not a run
            if cli.run(argv) == 2:
                sys.exit(f"error: cli.run {' '.join(command)} exited 2 (a usage or input error)")

        return _row("cli.run", call, SMALL_REPEATS, wrap)


def tables() -> dict:
    """The chunk rows, then one row per command of each BENCHMARK.json workload."""
    rows = {f"verify_resolution_mc M={m} chunk={CHUNK}": lambda m=m: chunk_row(m) for m in range(1, 7)}
    workloads = _load(ROOT / "benchmark" / "workloads.py").WORKLOADS
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        for command in workloads[workload["name"]].commands:
            rows["cli.run " + " ".join(command)] = lambda command=command: command_row(command)
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
