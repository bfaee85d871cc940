"""Output checks: decides whether one CLI verification failed, and why.

Every verification in the workloads is expected to pass; for the even-weight
number-conserving run, passing means that its failure shows. A verification
fails in one of three kinds:

- ``error``: it raised, exited with 2, or wrote no readable report;
- ``invalid``: its report is wrong in itself: a non-finite entry, a maximum
  deviation that does not match the reported matrices, a Monte Carlo mean
  whose trace is off 1 by more than 1e-12, or a PASS that the report's own
  numbers contradict (a scalar check above its tolerance, a mean outside
  the 5 SE gate);
- ``verdict``: a valid report whose verdict is FAIL, as when the Monte Carlo
  gate raises a false alarm.

Each failure counts; none is retried, skipped or re-seeded.
"""

import math

#: A Monte Carlo mean of normalized operators has trace 1 to rounding.
MC_TRACE_TOL = 1e-12

#: Reported maximum deviations are recomputed from the same doubles.
DEVIATION_TOL = 1e-12

#: The Monte Carlo gate as the README states it.
GATE_SIGMAS, BAND_SIGMAS, ABS_FLOOR = 5.0, 3.0, 1e-12


def check_call(code, error, report, stderr=""):
    """Failure of one CLI verification as (kind, cause), or None when it passed.

    ``code`` is the exit code of ``fermigauss.cli.run``, ``error`` the
    exception it raised (or None) and ``report`` the parsed JSON report (or
    None when none was written).
    """
    if error is not None:
        return "error", f"raised {type(error).__name__}: {error}"
    if code == 2:
        return "error", f"exit 2: {stderr.strip() or 'usage or configuration error'}"
    if report is None:
        return "error", f"exit {code} without a report"
    where = _non_finite(report)
    if where is not None:
        return "invalid", f"non-finite entry at {where}"
    criteria = report.get("criteria", [])
    for crit in criteria:
        cause = _invalid(crit)
        if cause is not None:
            return "invalid", f"{crit.get('name', '?')}: {cause}"
    if report.get("passed") is not all(c.get("passed") is True for c in criteria):
        return "invalid", "report verdict disagrees with its criteria"
    if code != 0 or report.get("passed") is not True:
        failed = [c.get("name", "?") for c in criteria if c.get("passed") is not True]
        return "verdict", f"FAIL with exit {code}, expected PASS: {'; '.join(failed)}"
    return None


def _non_finite(obj, path="$"):
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = ((f"{path}.{k}", v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for where, value in items:
        found = _non_finite(value, where)
        if found is not None:
            return found
    return None


def _matrix(doc) -> list[list[complex]]:
    dim = doc["dimension"]
    flat = [complex(re, im) for re, im in doc["entries"]]
    return [flat[i * dim : (i + 1) * dim] for i in range(dim)]


def _invalid(crit: dict):
    """Why a criterion contradicts its own numbers, or None."""
    measured = crit.get("measured")
    if isinstance(measured, dict):
        return _invalid_estimator(crit)
    tol = crit.get("tolerance_or_se")
    if isinstance(measured, (int, float)) and isinstance(tol, (int, float)):
        if crit.get("passed") != (measured <= tol):
            return f"verdict {crit.get('passed')} contradicts measured {measured:.6g} against tolerance {tol:.6g}"
    return None


def _invalid_estimator(crit: dict):
    mean = _matrix(crit["measured"])
    target = _matrix(crit["target"])
    dev = [[abs(m - t) for m, t in zip(mrow, trow)] for mrow, trow in zip(mean, target)]
    worst = max(max(row) for row in dev)
    reported = crit.get("max_abs_deviation")
    if not isinstance(reported, (int, float)) or abs(worst - reported) > DEVIATION_TOL:
        return f"deviation {worst:.6g} recomputed from the matrices, report says {reported}"
    tol = crit["tolerance_or_se"]
    if tol.get("kind") == "standard_error":
        trace = sum(mean[i][i] for i in range(len(mean)))
        if abs(trace - 1.0) > MC_TRACE_TOL:
            return f"trace of the Monte Carlo mean is off 1 by {abs(trace - 1.0):.3e}"
        gate = _gate(dev, tol["matrix"])
        if gate is not None and crit.get("passed") is True:
            return f"PASS although {gate}"
    return None


def _gate(dev, se):
    """The Monte Carlo gate, recomputed from the report's deviations and SEs."""
    outside, band, entries = 0, 0, 0
    for drow, srow in zip(dev, se):
        for d, s in zip(drow, srow):
            entries += 1
            if d <= ABS_FLOOR:
                continue
            if d > GATE_SIGMAS * s:
                outside += 1
            elif d > BAND_SIGMAS * s:
                band += 1
    allowed = max(1, int(0.01 * entries))
    if outside or band > allowed:
        return f"the gate fails: {outside} entries beyond 5 SE, {band} in the 3-5 SE band (allowed {allowed})"
    return None
