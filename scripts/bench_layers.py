#!/usr/bin/env python3
"""Per-layer times of the calls the verification drivers make.

Each row mirrors one driver call and is named after it; its layers are the
steps of that call, run one after another on the same draws, p = 1:

- ``verify_resolution_mc M=m chunk=n``: one chunk of the resolution worker,
  at M = 1..6 with n = 4000 (a full chunk) and at M = 6 with n = 25 (the
  chunk of the ``mc_m6`` benchmark workload, 400 samples in 16 chunks).
  Layers: sample_class_d_batch, covariance (real_form, with its one real
  eigh, and covariance_of_real_form), wick_coordinates, scatter (the one
  wick_blocks product over all of a run's chunk columns, verify.MIN_CHUNKS
  copies of this chunk's coordinates, and embed_parity_blocks of their
  first block) and _fock_check on the chunk's first verify.FOCK_CHECK_DRAWS
  draws.
- ``verify_nc_modified M=2 chunk=1563``: one chunk of the number-conserving
  worker (the ``nc_modified`` workload, 25000 samples in 16 chunks).
  Layers: class_d_pairs (the class-D draws at p/2, pair_values and the
  random signs), rank_one_filling (the Haar unitaries' first columns and
  the filling F built from them, with no QR) and wick_mean
  (_filling_covariance and wick_coordinates: the chunk's mean Wick
  coordinates).
- ``_cmd_resolution report M=6 samples=400``: the report steps of the CLI's
  ``resolution --mode mc`` on an ``mc_m6``-sized result:
  estimator_to_criterion, build_report (with its ``git describe``) and
  write_report.
- ``verify_resolution_quadrature M=2``: one whole default call (class D,
  Gaussian weight, quad_order 60).
- ``operator_identity_suite M=3 trials=50``: one whole call of the identity
  suite as the ``checks`` benchmark workload runs it (``identities --modes 3``,
  seed 0). Beside the whole call, one layer per trial of
  verify._IDENTITY_TRIALS (named after its function) sums that trial's
  calls, one per mode count, within the same call, so these layers nest
  inside the whole call.

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
MC_M6_SAMPLES, NC_SAMPLES = 400, 25000  # the benchmark workloads' --samples


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
        return gaussian.covariance_of_real_form(*gaussian.real_form(mats))

    def scatter(coords):
        return fock.embed_parity_blocks(gaussian.wick_blocks(np.stack([coords] * verify.MIN_CHUNKS))[0])

    def one_round(timed):
        mats = timed("sample_class_d_batch", sample_class_d_batch, modes, 1.0, gen, per)
        gamma = timed("covariance", covariance, mats)
        timed("scatter", scatter, timed("wick_coordinates", gaussian.wick_coordinates, gamma))
        timed("_fock_check", verify._fock_check, mats[:k], gamma[:k])

    return _row(one_round, repeats)


def nc_modified_row(per: int, repeats: int) -> dict:
    from fermigauss import gaussian
    from fermigauss.ensembles import RngSpec, _haar_first_columns, sample_class_d_batch

    gen = RngSpec(2).generator()

    def class_d_pairs():
        pts = gaussian.pair_values(sample_class_d_batch(2, 0.5, gen, per))
        return pts * gen.choice((-1.0, 1.0), size=(per, 2))

    def rank_one_filling(pts):
        return gaussian._rank_one_filling(-0.5 * np.tanh(0.5 * pts), _haar_first_columns(gen, per))

    def wick_mean(f):
        return gaussian.wick_coordinates(gaussian._filling_covariance(f))

    def one_round(timed):
        pts = timed("class_d_pairs", class_d_pairs)
        timed("wick_mean", wick_mean, timed("rank_one_filling", rank_one_filling, pts))

    return _row(one_round, repeats)


def report_row(repeats: int) -> dict:
    from fermigauss import reports
    from fermigauss.ensembles import RngSpec
    from fermigauss.verify import verify_resolution_mc

    spec = RngSpec(0)
    rep = verify_resolution_mc(6, 1.0, MC_M6_SAMPLES, spec)
    # the parameters the CLI records for `resolution --mode mc`
    params = {"mode": "mc", "modes": 6, "p": 1.0, "weight": "gaussian", "sym_class": "D",
              "samples": MC_M6_SAMPLES, "quad_order": 60, "workers": 1, "seed": 0, "stream": 0}
    with tempfile.TemporaryDirectory() as tmp:
        def one_round(timed):
            crit = timed("estimator_to_criterion", reports.estimator_to_criterion, "resolution of unity (Monte Carlo)", rep)
            doc = timed("build_report", reports.build_report, "resolution", params, spec, [crit])
            timed("write_report", reports.write_report, doc, str(Path(tmp) / "report.json"))

        return _row(one_round, repeats)


def quadrature_row(repeats: int) -> dict:
    from fermigauss.ensembles import CLASS_D, WeightSpec
    from fermigauss.verify import verify_resolution_quadrature

    weight = WeightSpec.gaussian(1.0)
    return _row(lambda timed: timed("verify_resolution_quadrature", verify_resolution_quadrature, 2, CLASS_D, weight),
                repeats)


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
    small, nc = _chunk_layout(MC_M6_SAMPLES)[1], _chunk_layout(NC_SAMPLES)[1]
    rows[f"verify_resolution_mc M=6 chunk={small}"] = lambda: resolution_row(6, small, SMALL_REPEATS)
    rows[f"verify_nc_modified M=2 chunk={nc}"] = lambda: nc_modified_row(nc, SMALL_REPEATS)
    rows[f"_cmd_resolution report M=6 samples={MC_M6_SAMPLES}"] = lambda: report_row(SMALL_REPEATS)
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
    spec = importlib.util.spec_from_file_location("fermigauss_blas", ROOT / "src" / "fermigauss" / "blas.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
