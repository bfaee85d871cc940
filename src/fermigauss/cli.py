"""Command-line driver: every verification as a reproducible, scriptable run.

Exit codes: 0 all checks passed, 1 a verification failed its criterion,
2 usage or configuration error, or a report, dump or config path that
cannot be written or read.
"""

import argparse
import functools
import sys
from pathlib import Path

from . import reports
from .blas import blas_threads
from .ensembles import (
    CLASS_D,
    MCMC_ACCEPTANCE_BAND,
    MCMC_TARGET_ACCEPTANCE,
    RadialLaw,
    RngSpec,
    WeightSpec,
    sample_radial_mcmc,
    symmetry_class,
)
from .errors import FermigaussError
from .verify import (  # noqa: F401  benchmark/tracing.py wraps class_d_lambda_samples and radial_quadrature_nodes here
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


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it rejects the arguments it does not recognize
    itself, so the error shows the subcommand's usage, not the top level's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


class _Count(argparse.Action):
    """Stores an integer count such as --samples, rejecting one below 1 as a
    usage error, also in a mode that ignores it."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values < 1:
            raise argparse.ArgumentError(self, f"need {self.dest} >= 1, got {values}")
        setattr(namespace, self.dest, values)


def _add_common(sub: argparse.ArgumentParser, dumps: bool = True) -> None:
    """The flags every subcommand takes; ``--csv`` only where there are
    eigenvalue samples or quadrature nodes to dump."""
    sub.add_argument("--out", help="write the structured JSON report to this path")
    if dumps:
        sub.add_argument("--csv", help="write a flat eigenvalue/sample dump to this path")
    sub.add_argument("--config", help="key = value file supplying defaults for any flag")
    sub.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    sub.add_argument("--stream", type=int, default=0, help="base substream index (default 0)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="fermigauss", description=__doc__, allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = subs.add_parser("identities", help="operator-level identity suite", allow_abbrev=False)
    p.add_argument(
        "--modes", type=int, default=3, help="largest mode count of every trial, capped at 3 (4 for the mode algebra)"
    )
    p.add_argument("--trials", type=int, default=50)
    _add_common(p, dumps=False)
    p.set_defaults(func=_cmd_identities)

    p = subs.add_parser("resolution", help="resolution-of-unity verification", allow_abbrev=False)
    p.add_argument("--mode", choices=("quad", "mc"), default="mc")
    p.add_argument("--modes", type=int, default=2)
    p.add_argument("-p", "--stiffness", type=float, default=1.0, dest="p")
    p.add_argument("--weight", choices=("gaussian", "determinant"), default="gaussian")
    p.add_argument("--symmetry-class", default="D", dest="sym_class")
    p.add_argument("--samples", type=int, default=200_000, action=_Count)
    p.add_argument("--quad-order", type=int, default=60, action=_Count)
    p.add_argument("--workers", type=int, default=1, action=_Count)
    _add_common(p)
    p.set_defaults(func=_cmd_resolution)

    p = subs.add_parser("canonical", help="canonical-mixture triviality sweep", allow_abbrev=False)
    p.add_argument("--modes", type=int, default=2)
    p.add_argument("-p", "--stiffness", type=float, default=1.0, dest="p")
    p.add_argument("--betas", default="0,0.3,0.7,1.5", help="comma-separated inverse temperatures")
    p.add_argument("--samples", type=int, default=200_000, action=_Count)
    p.add_argument("--workers", type=int, default=1, action=_Count)
    _add_common(p)
    p.set_defaults(func=_cmd_canonical)

    p = subs.add_parser("number-conserving", help="even-weight failure / modified-weight success", allow_abbrev=False)
    p.add_argument("--variant", choices=("failure", "modified"), required=True)
    p.add_argument("--modes", type=int, default=2)
    p.add_argument("-p", "--stiffness", type=float, default=1.0, dest="p")
    p.add_argument("--samples", type=int, default=100_000, action=_Count)
    p.add_argument("--quad-order", type=int, default=60, action=_Count)
    p.add_argument("--workers", type=int, default=1, action=_Count)
    _add_common(p)
    p.set_defaults(func=_cmd_number_conserving)

    p = subs.add_parser("selberg", help="closed-form consistency sweep", allow_abbrev=False)
    p.add_argument(
        "--consistency",
        action="store_true",
        help="no effect: the suite always runs; kept so existing command lines parse",
    )
    p.add_argument("--max-modes", type=int, default=6, help="largest mode count of every closed-form check")
    _add_common(p, dumps=False)
    p.set_defaults(func=_cmd_selberg)

    p = subs.add_parser("ensembles", help="radial eigenvalue sampler / dumps", allow_abbrev=False)
    p.add_argument("--symmetry-class", default="D", dest="sym_class")
    p.add_argument("--weight", choices=WeightSpec.KINDS, default="gaussian")
    p.add_argument("-p", "--stiffness", type=float, default=1.0, dest="p")
    p.add_argument("--modes", type=int, default=2)
    p.add_argument("--samples", type=int, default=10_000, action=_Count)
    p.add_argument("--burn-in", type=int, default=10_000)
    p.add_argument("--thin", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=_cmd_ensembles)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file entries in front of the explicit flags (which then
    win). The path comes once, as ``--config PATH`` or ``--config=PATH``."""
    argv = [part for tok in argv for part in (tok.split("=", 1) if tok.startswith("--config=") else [tok])]
    if argv.count("--config") > 1:
        raise FermigaussError("--config given more than once; pass one config file")
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv) or not argv[idx + 1]:
        raise FermigaussError("--config requires a path")
    path = Path(argv[idx + 1])
    if not path.exists():
        raise FermigaussError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or not UTF-8 text
        raise FermigaussError(f"cannot read config file {path}: {exc}") from None
    injected: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
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


def _finish(args, command: str, criteria: list[dict], warnings=None, points=None) -> int:
    """Print and write the report; with --csv, dump ``points``, (n, M) chunks."""
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "out", "csv", "config", "command") and not k.startswith("_")
    }
    doc = reports.build_report(command, params, RngSpec(args.seed, args.stream), criteria, warnings)
    _print_criteria(criteria)
    try:
        if args.out:
            path = reports.write_report(doc, args.out)
            print(f"report written to {path}")
        if vars(args).get("csv"):  # only the commands with points to dump take --csv
            path = reports.write_lambda_csv(args.csv, points, args.modes)
            print(f"csv written to {path}")
    except OSError as exc:  # a directory, or a path under a regular file
        raise FermigaussError(f"cannot write {exc.filename}: {exc.strerror}") from None
    return 0 if doc["passed"] else 1


def _cmd_identities(args) -> int:
    results = operator_identity_suite(args.modes, RngSpec(args.seed, args.stream), args.trials)
    criteria = [reports.result_to_criterion(r) for r in results]
    return _finish(args, "identities", criteria)


def _cmd_resolution(args) -> int:
    spec = RngSpec(args.seed, args.stream)
    sym = symmetry_class(args.sym_class)
    weight = WeightSpec(args.weight, args.p)
    if args.mode == "quad":
        rotation = random_polar_rotation(args.modes, spec)
        rep = verify_resolution_quadrature(args.modes, sym, weight, rotation, args.quad_order)
        criteria = [reports.estimator_to_criterion("resolution of unity (quadrature)", rep)]
        return _finish(args, "resolution", criteria, points=rep.point_chunks)
    if args.weight != "gaussian":
        raise FermigaussError("the Monte Carlo resolution run samples the Gaussian weight only")
    if sym is not CLASS_D:
        raise FermigaussError(
            f"the Monte Carlo resolution run samples class D only, got --symmetry-class {sym.label}"
        )
    rep = verify_resolution_mc(args.modes, args.p, args.samples, spec, workers=args.workers, keep_points=bool(args.csv))
    criteria = [reports.estimator_to_criterion("resolution of unity (Monte Carlo)", rep)]
    return _finish(args, "resolution", criteria, points=rep.point_chunks)


def _cmd_canonical(args) -> int:
    spec = RngSpec(args.seed, args.stream)
    betas = []
    for token in filter(None, (b.strip() for b in args.betas.split(","))):
        try:
            betas.append(float(token))
        except ValueError:
            raise FermigaussError(f"--betas takes comma-separated numbers, got {token!r}") from None
    reps = verify_canonical_triviality(
        args.modes, args.p, betas, args.samples, spec, workers=args.workers, keep_points=bool(args.csv)
    )
    criteria = [
        reports.estimator_to_criterion(f"canonical mixture at beta={beta:g}", rep)
        for beta, rep in zip(betas, reps)
    ]
    return _finish(args, "canonical", criteria, points=reps[0].point_chunks)  # every beta's, the same draws


def _cmd_number_conserving(args) -> int:
    spec, keep = RngSpec(args.seed, args.stream), bool(args.csv)
    if args.variant == "failure":
        rep = verify_nc_failure(args.modes, args.p, args.quad_order, args.samples, spec, args.workers, keep)
        name = "even-weight mean reaches its exact target"
    else:
        rep = verify_nc_modified(args.modes, args.p, args.samples, spec, workers=args.workers, keep_points=keep)
        name = "modified-weight mean reaches the identity"
    return _finish(args, "number-conserving", [reports.estimator_to_criterion(name, rep)], points=rep.point_chunks)


def _cmd_selberg(args) -> int:
    results = selberg_consistency_suite(args.max_modes)
    criteria = [reports.result_to_criterion(r) for r in results]
    return _finish(args, "selberg", criteria)


def _cmd_ensembles(args) -> int:
    spec = RngSpec(args.seed, args.stream)
    law = RadialLaw.of(symmetry_class(args.sym_class), WeightSpec(args.weight, args.p))
    run = sample_radial_mcmc(law, args.modes, args.samples, spec, burn_in=args.burn_in, thin=args.thin)
    low, high = MCMC_ACCEPTANCE_BAND
    criteria = [
        {
            "name": f"radial sampler acceptance rate in [{low}, {high}]",
            "target": MCMC_TARGET_ACCEPTANCE,
            "measured": run.acceptance_rate,
            "tolerance_or_se": [low, high],
            "passed": run.warning is None,
        }
    ]
    warnings = [run.warning] if run.warning else []
    return _finish(args, "ensembles", criteria, warnings, points=(run.samples,))


def run(argv=None) -> int:
    """Parse arguments, execute the subcommand, and return the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        args = build_parser().parse_args(argv)
        RngSpec(args.seed, args.stream)  # a bad seed or stream fails before any work
    except FermigaussError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        with blas_threads():
            return args.func(args)
    except FermigaussError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
