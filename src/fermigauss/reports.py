"""Structured run reports (JSON) and flat sample dumps (CSV).

A report is a single self-describing document; complex matrices are serialized
row-major as [re, im] pairs with the mode count and dimension declared. Apart
from the timestamp field, identical invocations produce byte-identical files.
"""

import datetime
import functools
import json
import os
import subprocess
from pathlib import Path

import numpy as np

from .ensembles import RngSpec
from .fock import FockOperator
from .verify import CriterionResult, EstimatorReport

REPORT_DIR_ENV = "FERMIGAUSS_REPORT_DIR"


_INDENT = "  "
_INF = float("inf")


def _encode(obj, level: int) -> str:
    """The standard ``json`` encoding of ``obj`` at ``indent=2``, byte for
    byte, for an object nested ``level`` deep. numpy arrays and scalars go out as their ``tolist()`` and
    ``item()``, an ``RngSpec`` as ``{"seed", "stream"}``; dict keys must be
    strings. A finite float64 array of one or two dimensions is rendered in
    bulk, since json writes each float as its shortest repr: each distinct
    magnitude (bit pattern of its absolute value) is formatted once, and a
    set sign bit prefixes "-", as repr(-x) is "-" + repr(x) (so -0.0 stays
    "-0.0"). Strings, dict keys and scalars of exact type bool, int and
    finite float are written as json itself writes them (by
    encode_basestring_ascii, "true"/"false" and repr). Everything else goes
    through json itself, so NaN, Infinity and int and float subclasses are
    json's own."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, str):
        return json.encoder.encode_basestring_ascii(obj)
    kind = type(obj)
    if (kind is float and -_INF < obj < _INF) or kind is int:
        return repr(obj)
    if kind is bool:
        return "true" if obj else "false"
    pad = "\n" + _INDENT * level
    inner = pad + _INDENT
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
        items = (json.encoder.encode_basestring_ascii(k) + ": " + _encode(v, level + 1) for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(_encode(x, level + 1) for x in obj) + pad + "]"
    if isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim not in (1, 2) or obj.size == 0 or not np.isfinite(obj).all():
            return _encode(obj.tolist(), level)
        flat = obj.ravel()
        mags, inverse = np.unique(np.abs(flat).view(np.uint64), return_inverse=True)
        strs = [repr(x) for x in mags.view(np.float64).tolist()]
        table = np.array(strs + ["-" + t for t in strs], dtype=object)
        texts = table[inverse + len(mags) * np.signbit(flat)].tolist()
        if obj.ndim == 1:
            return "[" + inner + ("," + inner).join(texts) + pad + "]"
        row = inner + _INDENT
        rows, cols = obj.shape
        parts = [""] * (2 * len(texts) - 1)  # the entries, each followed by its separator
        parts[0::2] = texts
        parts[1::2] = ((["," + row] * (cols - 1) + [inner + "]," + inner + "[" + row]) * rows)[:-1]
        return "[" + inner + "[" + row + "".join(parts) + inner + "]" + pad + "]"
    if isinstance(obj, RngSpec):
        return _encode({"seed": obj.seed, "stream": obj.stream}, level)
    return json.dumps(obj)


def fock_to_doc(op: FockOperator) -> dict:
    flat = op.matrix.ravel()
    return {
        "modes": op.modes,
        "dimension": op.dim,
        "layout": "row-major [re, im] pairs",
        "entries": np.column_stack((flat.real, flat.imag)),
    }


def estimator_to_criterion(name: str, report: EstimatorReport) -> dict:
    if report.per_entry_se is not None:
        tol_or_se = {"kind": "standard_error", "matrix": np.asarray(report.per_entry_se, dtype=float)}
    elif "failure_floor" in report.details:  # the residual must exceed it
        tol_or_se = {"kind": "floor", "value": report.details["failure_floor"]}
    else:
        tol_or_se = {"kind": "tolerance", "value": report.details["tolerance"]}
    return {
        "name": name,
        "target": fock_to_doc(report.target),
        "measured": fock_to_doc(report.mean),
        "tolerance_or_se": tol_or_se,
        "max_abs_deviation": report.max_abs_deviation,
        "samples": report.samples,
        "rule": report.criterion,
        "passed": report.passed,
        "details": report.details,
    }


def result_to_criterion(res: CriterionResult) -> dict:
    return {
        "name": res.name,
        "target": 0.0,
        "measured": res.measured,
        "tolerance_or_se": res.tolerance,
        "passed": res.passed,
        "details": "",
    }


@functools.cache
def git_describe() -> str:
    """``git describe`` of the package's checkout, read once per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build_report(command: str, parameters: dict, seed: RngSpec | None, criteria: list, warnings=None) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "git_describe": git_describe(),
        "criteria": criteria,
        "warnings": list(warnings or []),
        "passed": bool(all(c.get("passed", False) for c in criteria)),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def resolve_out_path(path: str) -> Path:
    """Relative paths land in $FERMIGAUSS_REPORT_DIR when that is set."""
    p = Path(path)
    base = os.environ.get(REPORT_DIR_ENV)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def write_report(doc: dict, path: str) -> Path:
    out = resolve_out_path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(_encode(doc, 0) + "\n")
    return out


def write_lambda_csv(path: str, chunks, modes: int) -> Path:
    """Under a lambda_1..lambda_M header, one row per point of the (n, M) ``chunks``, to 17 digits."""
    out = resolve_out_path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    header = ",".join(f"lambda_{j + 1}" for j in range(modes))
    with out.open("w") as fh:
        np.savetxt(fh, np.concatenate(chunks), fmt="%.17g", delimiter=",", header=header, comments="")
    return out
