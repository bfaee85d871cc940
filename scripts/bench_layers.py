#!/usr/bin/env python3
"""Per-layer times of one Monte Carlo chunk, at M = 1..6 modes.

Times one chunk of 4000 class-D draws at p = 1: the draws, the chunk mean
that every resolution-of-unity worker takes through the Wick kernel, and
the chunk-0 Fock cross-check on the same draws, whose three layers are
the Fock construction that only chunk 0 runs:

- sample:   sample_class_d_batch
- wick:     the 2M x 2M eigh, wick_mean_blocks and embed_parity_blocks
- assemble: quadratic_hamiltonian_batch
- kernel:   exp_normalized_fock_batch
- reduce:   the chunk mean as a full 2^M x 2^M matrix, embedded from the
            parity blocks

A second table times both paths at M = 6 on chunks of 25 draws, the chunk
size of the ``mc_m6`` benchmark workload (``fock`` = assemble, kernel and
reduce; ``wick`` as above), 50 repeats each, interleaved.

A ``quad`` table times the weighted mean over the nodes of the two-mode,
order-120 class-D rule (Gaussian weight, p = 1, no rotation; 14400 nodes,
the larger rule of the default ``resolution --mode quad``) both ways, the
Fock cross-check as the driver runs it, and one whole default
verify_resolution_quadrature, interleaved:

- fock:       from_eigenpairs, quadratic_hamiltonian_batch,
              exp_normalized_fock_batch, the weighted mean and the embedding
- wick:       wick_mean_blocks on the nodes' eigenpairs with the log weights
              of the nonzero-weight nodes, and the embedding
- fock_check: the last 4 nonzero-weight nodes of the order-60 rule (the
              rule the driver checks), their weighted Wick mean and the same
              nodes through the fock layers, and the max-entry gap
- verify_resolution_quadrature: the driver, as the package runs it

It then times the three report layers of one M = 6, 400-sample Monte
Carlo report (seed 0, unscaled), the size of report the ``mc_m6``
benchmark workload writes:

- estimator_to_criterion: the estimator as a criterion dict
- build_report:           the report document (with its ``git describe``)
- write_report:           encoding and writing the JSON file

Each layer runs 5 times; the tables give the minimum and the median in
seconds. Every table runs with both bundled OpenBLAS builds on one thread,
as inside a CLI call, through this checkout's ``fermigauss/blas.py`` (so a
``--src`` tree without that module is timed the same way), and the thread
count each build reads there is recorded as ``blas_threads``. The numerical
environment (numpy, scipy and BLAS versions, CPU count, affinity, thread
variables) is recorded beside it, through benchmark/environment.py. Run
from the repository root:

    python3 scripts/bench_layers.py --label change --out BENCH_13.json
    python3 scripts/bench_layers.py --src ../other-checkout/src --label parent --out BENCH_13.json

``--src`` names the directory holding the ``fermigauss`` package to time
(default: this checkout's ``src``). ``--out`` adds the table under
``--label`` to the JSON file, keeping the tables already in it; without
``--out`` the result is printed. ``--src`` needs a tree with the Wick
kernel (``gaussian.wick_mean_blocks``).
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
REPEATS = 5
SMALL_MODES, SMALL_CHUNK, SMALL_REPEATS = 6, 25, 50
QUAD_MODES, QUAD_ORDER = 2, 120
CHECK_NODES = 4  # verify.FOCK_CHECK_DRAWS
REPORT_MODES, REPORT_SAMPLES = 6, 400


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def _min_median(times: dict) -> dict:
    return {layer: {"min_s": min(ts), "median_s": statistics.median(ts)} for layer, ts in times.items()}


def _wick(mats):
    from fermigauss import fock, gaussian

    return fock.embed_parity_blocks(gaussian.wick_mean_blocks(*np.linalg.eigh(mats)))


def _reduce(ops):
    from fermigauss import fock

    return fock.embed_parity_blocks(ops.mean(axis=0))


def layer_table() -> dict:
    from fermigauss import fock, gaussian
    from fermigauss.ensembles import RngSpec, sample_class_d_batch

    table = {}
    for modes in range(1, 7):
        gen = RngSpec(modes).generator()
        warm = sample_class_d_batch(modes, 1.0, gen, 1)  # warm per-M caches
        fock.quadratic_hamiltonian_batch(warm)
        _wick(warm)
        times = {"sample": [], "assemble": [], "kernel": [], "reduce": [], "wick": []}
        for _ in range(REPEATS):
            dt, mats = _timed(sample_class_d_batch, modes, 1.0, gen, CHUNK)
            times["sample"].append(dt)
            dt, wick_mean = _timed(_wick, mats)
            times["wick"].append(dt)
            dt, hams = _timed(fock.quadratic_hamiltonian_batch, mats)
            times["assemble"].append(dt)
            del mats
            dt, ops = _timed(gaussian.exp_normalized_fock_batch, hams)
            times["kernel"].append(dt)
            del hams
            dt, mean = _timed(_reduce, ops)
            times["reduce"].append(dt)
            del ops
            assert np.abs(wick_mean - mean).max() <= 1e-12
        table[str(modes)] = _min_median(times)
        print(f"M = {modes}: " + ", ".join(f"{k} {v['median_s']:.4f} s" for k, v in table[str(modes)].items()),
              file=sys.stderr)
    return table


def small_chunk_table() -> dict:
    """Both paths at M = 6 on 25-draw chunks, interleaved."""
    from fermigauss import fock, gaussian
    from fermigauss.ensembles import RngSpec, sample_class_d_batch

    gen = RngSpec(SMALL_MODES).generator()

    def fock_path(mats):
        return _reduce(gaussian.exp_normalized_fock_batch(fock.quadratic_hamiltonian_batch(mats)))

    times = {"fock": [], "wick": []}
    for i in range(SMALL_REPEATS + 1):
        mats = sample_class_d_batch(SMALL_MODES, 1.0, gen, SMALL_CHUNK)
        dt_f, mean_f = _timed(fock_path, mats)
        dt_w, mean_w = _timed(_wick, mats)
        assert np.abs(mean_w - mean_f).max() <= 1e-12
        if i:  # the first round warms the per-M caches
            times["fock"].append(dt_f)
            times["wick"].append(dt_w)
    table = _min_median(times)
    print(f"M = {SMALL_MODES}, {SMALL_CHUNK} draws: " + ", ".join(f"{k} {v['median_s']:.4f} s" for k, v in table.items()),
          file=sys.stderr)
    return {"modes": SMALL_MODES, "draws": SMALL_CHUNK, "repeats": SMALL_REPEATS, "layers": table}


def quad_table() -> dict:
    """The quadrature mean through the Fock path and the Wick kernel, the
    Fock cross-check of the last CHECK_NODES nodes of the half-order rule,
    and one whole verify_resolution_quadrature, interleaved, each REPEATS
    times. Built from public functions only, so any ``--src`` tree with the
    Wick kernel runs it."""
    from fermigauss import fock, gaussian
    from fermigauss.ensembles import CLASS_D, WeightSpec
    from fermigauss.verify import radial_quadrature_nodes, verify_resolution_quadrature

    weight = WeightSpec.gaussian(1.0)
    pts, wts = radial_quadrature_nodes(CLASS_D, weight, QUAD_MODES, QUAD_ORDER)
    w, v, keep = np.concatenate([pts, -pts], axis=1), np.eye(2 * QUAD_MODES), wts > 0.0

    def fock_path():
        ops = gaussian.exp_normalized_fock_batch(fock.quadratic_hamiltonian_batch(fock.from_eigenpairs(w, v)))
        return fock.embed_parity_blocks(np.einsum("s,spab->pab", wts, ops) / wts.sum())

    def wick_path():
        return fock.embed_parity_blocks(gaussian.wick_mean_blocks(w[keep], v, np.log(wts[keep])))

    lo_pts, lo_wts = radial_quadrature_nodes(CLASS_D, weight, QUAD_MODES, QUAD_ORDER // 2)
    lo_keep = lo_wts > 0.0
    w_last = np.concatenate([lo_pts, -lo_pts], axis=1)[lo_keep][-CHECK_NODES:]
    log_last = np.log(lo_wts[lo_keep])[-CHECK_NODES:]

    def fock_check():
        wick = fock.embed_parity_blocks(gaussian.wick_mean_blocks(w_last, v, log_last))
        ops = gaussian.exp_normalized_fock_batch(fock.quadratic_hamiltonian_batch(fock.from_eigenpairs(w_last, v)))
        node_w = np.exp(log_last - log_last.max())
        fock_mean = fock.embed_parity_blocks(np.einsum("s,spab->pab", node_w / node_w.sum(), ops))
        return float(np.abs(fock_mean - wick).max())

    def whole():
        return verify_resolution_quadrature(QUAD_MODES, CLASS_D, weight)

    times = {"fock": [], "wick": [], "fock_check": [], "verify_resolution_quadrature": []}
    for i in range(REPEATS + 1):
        dt_f, mean_f = _timed(fock_path)
        dt_w, mean_w = _timed(wick_path)
        dt_c, gap = _timed(fock_check)
        dt_v, _ = _timed(whole)
        assert np.abs(mean_w - mean_f).max() <= 1e-13 and gap <= 1e-12
        if i:  # the first round warms the per-M caches
            for layer, dt in zip(times, (dt_f, dt_w, dt_c, dt_v)):
                times[layer].append(dt)
    table = _min_median(times)
    print(f"quad M = {QUAD_MODES}, {len(pts)} nodes: " + ", ".join(f"{k} {v['median_s']:.4f} s" for k, v in table.items()),
          file=sys.stderr)
    return {"modes": QUAD_MODES, "order": QUAD_ORDER, "nodes": len(pts), "layers": table}


def report_table() -> dict:
    from fermigauss import reports
    from fermigauss.ensembles import RngSpec
    from fermigauss.verify import verify_resolution_mc

    spec = RngSpec(0)
    rep = verify_resolution_mc(REPORT_MODES, 1.0, REPORT_SAMPLES, spec)
    # the parameters the CLI records for `resolution --mode mc`
    params = {"mode": "mc", "modes": REPORT_MODES, "p": 1.0, "weight": "gaussian", "sym_class": "D",
              "samples": REPORT_SAMPLES, "quad_order": 60, "workers": 1, "seed": 0, "stream": 0}
    times = {"estimator_to_criterion": [], "build_report": [], "write_report": []}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(REPEATS):
            dt, crit = _timed(reports.estimator_to_criterion, "resolution of unity (Monte Carlo)", rep)
            times["estimator_to_criterion"].append(dt)
            dt, doc = _timed(reports.build_report, "resolution", params, spec, [crit])
            times["build_report"].append(dt)
            dt, path = _timed(reports.write_report, doc, str(Path(tmp) / "report.json"))
            times["write_report"].append(dt)
        size = path.stat().st_size
    table = _min_median(times)
    print("report: " + ", ".join(f"{k} {v['median_s']:.4f} s" for k, v in table.items()) + f", {size} B",
          file=sys.stderr)
    return {"modes": REPORT_MODES, "samples": REPORT_SAMPLES, "bytes": size, "layers": table}


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
    parser.add_argument("--label", default="change", help="name of this table in the output")
    parser.add_argument("--out", type=Path, help="JSON file to add the table to")
    args = parser.parse_args()
    if not (args.src / "fermigauss" / "__init__.py").is_file():
        sys.exit(f"error: no fermigauss package under {args.src}")
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(1, str(ROOT / "benchmark"))
    from environment import environment

    blas = blas_helper()
    with blas.blas_threads():
        entry = {
            "chunk": CHUNK,
            "repeats": REPEATS,
            "p": 1.0,
            "environment": environment(workers=1),
            "blas_threads": blas.thread_counts(),
            "layers": layer_table(),
            "small_chunk": small_chunk_table(),
            "quad": quad_table(),
            "report": report_table(),
        }
    if args.out is None:
        print(json.dumps({args.label: entry}, indent=2))
        return 0
    data = json.loads(args.out.read_text()) if args.out.is_file() else {}
    data.setdefault("tables", {})[args.label] = entry
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
