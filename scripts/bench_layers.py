#!/usr/bin/env python3
"""Per-layer times of the calls the verification drivers make.

Each row mirrors one driver call and is named after it; its layers are the
steps of that call, run one after another on the same draws, p = 1:

- ``verify_resolution_mc M=m chunk=n``: one chunk of the resolution worker,
  at M = 1..6 with n = 4000 (a full chunk) and at M = 6 with n = 25 (the
  chunk of the ``mc_m6`` benchmark workload, 400 samples in 16 chunks).
  Layers: sample_class_d_batch, covariance (real_form, with its one real
  eigh, and real_form_pair_rows, the Wick pair rows of the covariances),
  wick_coordinates (the Wick kernel's one entry, on those rows), scatter
  (the one wick_blocks product over all of a run's chunk columns,
  verify.MIN_CHUNKS copies of this chunk's coordinates, and
  embed_parity_blocks of their first block) and _fock_check on the chunk's
  first verify.FOCK_CHECK_DRAWS draws, with the wick_coordinates of their
  pair rows that the worker hands it.
- ``verify_nc_modified M=2 chunk=1563``: one chunk of the number-conserving
  worker (the ``nc_modified`` workload, 25000 samples in 16 chunks).
  Layers: class_d_pairs (class_d_pair_values at p/2, in closed form from
  the class-D normals, and the random signs), pair_rows (the column-0
  normals of the Haar unitaries and the Wick pair rows built from them in
  real arithmetic, with no QR and no covariance) and wick_coordinates
  (the kernel on those rows: the chunk's mean Wick coordinates).
- ``_cmd_resolution report M=6 samples=400``: the report steps of the CLI's
  ``resolution --mode mc`` on an ``mc_m6``-sized result:
  estimator_to_criterion, build_report (with its ``git describe``) and
  write_report.
- ``verify_resolution_quadrature M=2``: one whole default call (class D,
  Gaussian weight, quad_order 60). Beside the whole call, its steps, each
  summed over its calls within that call: radial_quadrature_nodes (the
  order-60 and order-120 rules), filling_moments (the moments of each rule
  and of the last verify.FOCK_CHECK_DRAWS kept nodes), moment_wick_coordinates
  (the moment map: the two rules and the Fock-checked nodes under the main
  rotation, and the order-120 rule under the second) and _fock_check.
- ``operator_identity_suite M=3 trials=50``: one whole call of the identity
  suite as the ``checks`` benchmark workload runs it (``identities --modes 3``,
  seed 0). Beside the whole call, one layer per trial of
  verify._IDENTITY_TRIALS (named after its function) sums that trial's
  calls, one per mode count, within the same call, so these layers nest
  inside the whole call.

The chunk and report rows of the ``mc_m6`` and ``nc_modified`` workloads
take those workloads' --samples from benchmark/workloads.py.

Every row first runs once untimed, to warm the per-M caches. Rows of full
chunks and the identity suite then run REPEATS times, the small ones
SMALL_REPEATS times; each layer gives the minimum and the median in
seconds. Everything runs with
numpy's OpenBLAS on one thread, as inside a CLI call, through this
checkout's ``fermigauss/blas.py`` (so any ``--src`` tree is timed the same
way); the JSON on stdout records that thread count and the
numerical environment (benchmark/environment.py). Run from the repository
root:

    python3 scripts/bench_layers.py
    python3 scripts/bench_layers.py --src ../other-checkout/src

``--src`` names the directory holding the ``fermigauss`` package to time
(default: this checkout's ``src``); the rows call the package's current
functions, so an older tree is timed by its own copy of this script, as
scripts/bench_pairs.py does for the parent, the change and an A/A copy in
alternating fresh processes.
"""

import argparse
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CHUNK = 4000
REPEATS, SMALL_REPEATS = 5, 50


def _load(path: Path):
    """The module at ``path``, loaded by path, under its file name."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _samples(workload: str) -> int:
    """The --samples of the one command of a benchmark workload."""
    (command,) = _load(ROOT / "benchmark" / "workloads.py").WORKLOADS[workload].commands
    return int(command[command.index("--samples") + 1])


def _row(one_round, repeats: int) -> dict:
    """Min and median seconds of each layer that ``one_round(timed)`` times
    through ``timed(layer, fn, *args)``, over ``repeats`` rounds after one
    untimed round; a layer timed more than once in a round counts its sum."""
    times = {}
    for i in range(repeats + 1):
        def timed(layer, fn, *args):
            total = times.setdefault(layer, [0.0] * repeats)  # a layer is listed when its first call starts
            start = time.perf_counter()
            out = fn(*args)
            if i:
                total[i - 1] += time.perf_counter() - start
            return out

        one_round(timed)
    return {layer: {"min_s": min(ts), "median_s": statistics.median(ts)} for layer, ts in times.items()}


def resolution_row(modes: int, per: int, repeats: int) -> dict:
    from fermigauss import fock, gaussian, verify
    from fermigauss.ensembles import RngSpec, sample_class_d_batch

    gen, k = RngSpec(modes).generator(), verify.FOCK_CHECK_DRAWS

    def covariance(mats):
        return gaussian.real_form_pair_rows(*gaussian.real_form(mats))

    def scatter(coords):
        return fock.embed_parity_blocks(gaussian.wick_blocks(np.stack([coords] * verify.MIN_CHUNKS))[0])

    def fock_check(mats, rows):  # as the worker calls it, with the checked draws' own coordinates
        return verify._fock_check(mats, gaussian.wick_coordinates(rows))

    def one_round(timed):
        mats = timed("sample_class_d_batch", sample_class_d_batch, modes, 1.0, gen, per)
        rows = timed("covariance", covariance, mats)
        timed("scatter", scatter, timed("wick_coordinates", gaussian.wick_coordinates, rows))
        timed("_fock_check", fock_check, mats[:k], rows[:, :k])

    return _row(one_round, repeats)


def nc_modified_row(per: int, repeats: int) -> dict:
    from fermigauss import gaussian
    from fermigauss.ensembles import RngSpec, _haar_column_normals, class_d_pair_values

    gen = RngSpec(2).generator()

    def class_d_pairs():
        pts = class_d_pair_values(2, 0.5, gen, per)
        return pts * gen.choice((-1.0, 1.0), size=(per, 2))

    def pair_rows(pts):
        return gaussian._rank_one_pair_rows(pts, *_haar_column_normals(gen, per))

    def one_round(timed):
        pts = timed("class_d_pairs", class_d_pairs)
        timed("wick_coordinates", gaussian.wick_coordinates, timed("pair_rows", pair_rows, pts))

    return _row(one_round, repeats)


def report_row(samples: int, repeats: int) -> dict:
    from fermigauss import reports
    from fermigauss.ensembles import RngSpec
    from fermigauss.verify import verify_resolution_mc

    spec = RngSpec(0)
    rep = verify_resolution_mc(6, 1.0, samples, spec)
    # the parameters the CLI records for `resolution --mode mc`
    params = {"mode": "mc", "modes": 6, "p": 1.0, "weight": "gaussian", "sym_class": "D",
              "samples": samples, "quad_order": 60, "workers": 1, "seed": 0, "stream": 0}
    with tempfile.TemporaryDirectory() as tmp:
        def one_round(timed):
            crit = timed("estimator_to_criterion", reports.estimator_to_criterion, "resolution of unity (Monte Carlo)", rep)
            doc = timed("build_report", reports.build_report, "resolution", params, spec, [crit])
            timed("write_report", reports.write_report, doc, str(Path(tmp) / "report.json"))

        return _row(one_round, repeats)


def quadrature_row(repeats: int) -> dict:
    from fermigauss import verify
    from fermigauss.ensembles import CLASS_D, WeightSpec

    weight = WeightSpec.gaussian(1.0)
    steps = ("radial_quadrature_nodes", "filling_moments", "moment_wick_coordinates", "_fock_check")

    def one_round(timed):
        # each step is timed inside one real call, at the name the driver looks it up by
        real = {name: getattr(verify, name) for name in steps}
        for name, fn in real.items():
            setattr(verify, name, lambda *args, name=name, fn=fn: timed(name, fn, *args))
        try:
            timed("verify_resolution_quadrature", verify.verify_resolution_quadrature, 2, CLASS_D, weight)
        finally:
            for name, fn in real.items():
                setattr(verify, name, fn)

    return _row(one_round, repeats)


def identity_row(repeats: int) -> dict:
    from fermigauss import verify

    table = verify._IDENTITY_TRIALS

    def one_round(timed):
        # each trial of the table is timed inside one real suite call, summed over its mode counts
        verify._IDENTITY_TRIALS = tuple(
            (lambda gen, m, count, trial=trial: timed(trial.__name__, trial, gen, m, count), schedule)
            for trial, schedule in table
        )
        try:
            timed("operator_identity_suite", verify.operator_identity_suite, 3, 0, 50)
        finally:
            verify._IDENTITY_TRIALS = table

    return _row(one_round, repeats)


def tables() -> dict:
    """Every row, in the order the docstring lists them."""
    from fermigauss.verify import _chunk_layout

    rows = {f"verify_resolution_mc M={m} chunk={CHUNK}": lambda m=m: resolution_row(m, CHUNK, REPEATS)
            for m in range(1, 7)}
    mc_m6 = _samples("mc_m6")
    small, nc = _chunk_layout(mc_m6)[1], _chunk_layout(_samples("nc_modified"))[1]
    rows[f"verify_resolution_mc M=6 chunk={small}"] = lambda: resolution_row(6, small, SMALL_REPEATS)
    rows[f"verify_nc_modified M=2 chunk={nc}"] = lambda: nc_modified_row(nc, SMALL_REPEATS)
    rows[f"_cmd_resolution report M=6 samples={mc_m6}"] = lambda: report_row(mc_m6, SMALL_REPEATS)
    rows["verify_resolution_quadrature M=2"] = lambda: quadrature_row(SMALL_REPEATS)
    rows["operator_identity_suite M=3 trials=50"] = lambda: identity_row(REPEATS)
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
