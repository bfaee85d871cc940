"""Command-line driver: every verification as a reproducible, scriptable run.

Exit codes: 0 all checks passed, 1 a verification failed its criterion,
2 usage or configuration error.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import reports
from .ensembles import RngSpec, WeightSpec, sample_radial_mcmc, symmetry_class
from .errors import FermigaussError
from .verify import (
    class_d_lambda_samples,
    operator_identity_suite,
    radial_quadrature_nodes,
    random_polar_rotation,
    selberg_consistency_suite,
    verify_canonical_triviality,
    verify_nc_failure,
    verify_nc_modified,
    verify_resolution_mc,
    verify_resolution_quadrature,
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="write the structured JSON report to this path")
    sub.add_argument("--csv", help="write a flat eigenvalue/sample dump to this path")
    sub.add_argument("--config", help="key = value file supplying defaults for any flag")
    sub.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    sub.add_argument("--stream", type=int, default=0, help="base substream index (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fermigauss", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("identities", help="operator-level identity suite")
    p.add_argument("--modes", type=int, default=3, help="largest mode count exercised")
    p.add_argument("--trials", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=_cmd_identities)

    p = subs.add_parser("resolution", help="resolution-of-unity verification")
    p.add_argument("--mode", choices=("quad", "mc"), default="mc")
    p.add_argument("--modes", type=int, default=2)
    p.add_argument("-p", "--stiffness", type=float, default=1.0, dest="p")
    p.add_argument("--weight", choices=("gaussian", "determinant"), default="gaussian")
    p.add_argument("--symmetry-class", default="D", dest="sym_class")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--quad-order", type=int, default=60)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_resolution)

    p = subs.add_parser("canonical", help="canonical-mixture triviality sweep")
    p.add_argument("--modes", type=int, default=2)
    p.add_argument("-p", "--stiffness", type=float, default=1.0, dest="p")
    p.add_argument("--betas", default="0,0.3,0.7,1.5", help="comma-separated inverse temperatures")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_canonical)

    p = subs.add_parser("number-conserving", help="even-weight failure / modified-weight success")
    p.add_argument("--variant", choices=("failure", "modified"), required=True)
    p.add_argument("--modes", type=int, default=2)
    p.add_argument("-p", "--stiffness", type=float, default=1.0, dest="p")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--quad-order", type=int, default=60)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_number_conserving)

    p = subs.add_parser("selberg", help="closed-form consistency sweep")
    p.add_argument("--consistency", action="store_true", help="run the consistency suite")
    p.add_argument("--max-modes", type=int, default=6)
    _add_common(p)
    p.set_defaults(func=_cmd_selberg)

    p = subs.add_parser("ensembles", help="radial eigenvalue sampler / dumps")
    p.add_argument("--dump-eigenvalues", action="store_true")
    p.add_argument("--symmetry-class", default="D", dest="sym_class")
    p.add_argument("--weight", choices=WeightSpec.KINDS, default="gaussian")
    p.add_argument("-p", "--stiffness", type=float, default=1.0, dest="p")
    p.add_argument("--modes", type=int, default=2)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--burn-in", type=int, default=10_000)
    p.add_argument("--thin", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=_cmd_ensembles)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file entries in front of the explicit flags (which then win)."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise FermigaussError("--config requires a path")
    path = Path(argv[idx + 1])
    if not path.exists():
        raise FermigaussError(f"config file not found: {path}")
    injected: list[str] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FermigaussError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                injected.append(flag)
        else:
            injected.extend([flag, value])
    head, tail = argv[:1], argv[1:]
    return head + injected + tail


def _print_criteria(criteria: list[dict]) -> None:
    for c in criteria:
        status = "PASS" if c["passed"] else "FAIL"
        measured = c.get("max_abs_deviation", c.get("measured"))
        print(f"[{status}] {c['name']}: measured={measured:.6g}")


def _finish(args, command: str, criteria: list[dict], warnings=None, csv_payload=None) -> int:
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "out", "csv", "config", "command") and not k.startswith("_")
    }
    doc = reports.build_report(command, params, RngSpec(args.seed, args.stream), criteria, warnings)
    _print_criteria(criteria)
    if args.out:
        path = reports.write_report(doc, args.out)
        print(f"report written to {path}")
    if args.csv:
        samples, modes = csv_payload if csv_payload is not None else (np.empty((0, 0)), 0)
        path = reports.write_lambda_csv(args.csv, samples, modes or 1)
        print(f"csv written to {path}")
    return 0 if doc["passed"] else 1


def _cmd_identities(args) -> int:
    results = operator_identity_suite(args.modes, args.seed, args.trials)
    criteria = [reports.result_to_criterion(r) for r in results]
    return _finish(args, "identities", criteria)


def _cmd_resolution(args) -> int:
    spec = RngSpec(args.seed, args.stream)
    sym = symmetry_class(args.sym_class)
    weight = WeightSpec(args.weight, args.p)
    if args.mode == "quad":
        rotation = random_polar_rotation(args.modes, spec)
        rep = verify_resolution_quadrature(args.modes, sym, weight, rotation, args.quad_order)
        rep.details["tolerance"] = 1e-8
        criteria = [reports.estimator_to_criterion("resolution of unity (quadrature)", rep)]
        payload = None
        if args.csv:
            pts, _ = radial_quadrature_nodes(sym, weight, args.modes, 2 * args.quad_order)
            payload = (pts, args.modes)
        return _finish(args, "resolution", criteria, csv_payload=payload)
    if args.weight != "gaussian":
        raise FermigaussError("the Monte Carlo resolution run samples the Gaussian weight only")
    rep = verify_resolution_mc(args.modes, args.p, args.samples, spec, workers=args.workers)
    criteria = [reports.estimator_to_criterion("resolution of unity (Monte Carlo)", rep)]
    payload = None
    if args.csv:
        payload = (class_d_lambda_samples(args.modes, args.p, spec, args.samples), args.modes)
    return _finish(args, "resolution", criteria, csv_payload=payload)


def _cmd_canonical(args) -> int:
    spec = RngSpec(args.seed, args.stream)
    betas = [float(b) for b in args.betas.split(",") if b.strip()]
    reps = verify_canonical_triviality(args.modes, args.p, betas, args.samples, spec, workers=args.workers)
    criteria = [
        reports.estimator_to_criterion(f"canonical mixture at beta={beta:g}", rep)
        for beta, rep in zip(betas, reps)
    ]
    payload = None
    if args.csv:
        payload = (class_d_lambda_samples(args.modes, args.p, spec, args.samples), args.modes)
    return _finish(args, "canonical", criteria, csv_payload=payload)


def _cmd_number_conserving(args) -> int:
    spec = RngSpec(args.seed, args.stream)
    if args.variant == "failure":
        rep = verify_nc_failure(args.modes, args.p, args.quad_order)
        criteria = [reports.estimator_to_criterion("even-weight residual exceeds the golden floor", rep)]
        payload = None
        if args.csv:
            pts, _ = radial_quadrature_nodes(
                symmetry_class("D"), WeightSpec.nc_even(args.p), args.modes, 2 * args.quad_order
            )
            payload = (pts, args.modes)
        return _finish(args, "number-conserving", criteria, csv_payload=payload)
    rep = verify_nc_modified(
        args.modes, args.p, args.samples, spec, workers=args.workers, keep_samples=bool(args.csv)
    )
    lams = rep.details.pop("lambda_samples", None)
    criteria = [reports.estimator_to_criterion("modified-weight mean reaches the identity", rep)]
    payload = (lams, args.modes) if args.csv else None
    return _finish(args, "number-conserving", criteria, csv_payload=payload)


def _cmd_selberg(args) -> int:
    results = selberg_consistency_suite(args.max_modes)
    criteria = [reports.result_to_criterion(r) for r in results]
    return _finish(args, "selberg", criteria)


def _cmd_ensembles(args) -> int:
    spec = RngSpec(args.seed, args.stream)
    sym = symmetry_class(args.sym_class)
    weight = WeightSpec(args.weight, args.p)
    run = sample_radial_mcmc(
        sym, weight, args.modes, args.samples, spec, burn_in=args.burn_in, thin=args.thin
    )
    ok = 0.1 <= run.acceptance_rate <= 0.9
    criteria = [
        {
            "name": "radial sampler acceptance rate in [0.1, 0.9]",
            "target": 0.4,
            "measured": run.acceptance_rate,
            "tolerance_or_se": [0.1, 0.9],
            "passed": ok,
        }
    ]
    warnings = [run.warning] if run.warning else []
    payload = (run.samples, args.modes) if args.csv else None
    return _finish(args, "ensembles", criteria, warnings, csv_payload=payload)


def run(argv=None) -> int:
    """Parse arguments, execute the subcommand, and return the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        args = build_parser().parse_args(argv)
    except FermigaussError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except FermigaussError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
