"""fermigauss benchmark: time to verdict on four verification workloads.

Run from the repository root:

    python3 benchmark/run.py --workload mc_m6 --seed 1 --seconds 20 --trace 0

It drives the CLI in-process through ``fermigauss.cli.run`` from the sources
in ``src/``, one closed-loop client, and checks every report it writes. With
``--trace 0`` it reports the end-to-end metrics, with timings scaled to a
nominal machine speed by the gauge in ``speed.py``; with ``--trace 1`` it
alternates untraced and traced runs and reports the per-layer metrics. It
makes as many workload runs as fill ``--seconds`` on the reference machine
(``Workload.run_s``), a count that does not depend on the speed of the
machine it runs on, so a seed always gives the same verifications. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric's quartiles and run count, every failed verification with its cause,
and the environment. Exits 1 without a result when the sources are missing
or a set-up call fails.
"""

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checker
import speed
import tracing
from environment import environment
from workloads import SETUP_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Fresh interpreters timed for setup_s, after one that warms the bytecode
#: and file caches and is not counted.
SETUP_PROBES = 3

UNITS = {
    "wall_s": "s",
    "samples_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_cli():
    if not (SRC / "fermigauss" / "cli.py").is_file():
        sys.exit(f"error: no fermigauss sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from fermigauss import cli

    return cli


def run_once(cli, argvs, seed, out_dir):
    """One workload run: every command in turn. Returns wall, CPU and calls."""
    calls = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for k, argv in enumerate(argvs):
        out = out_dir / f"report-{k}.json"
        argv = [*argv, "--seed", str(seed), "--out", str(out)]
        code = error = None
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.run(argv)
        except Exception as exc:  # a raise is a failed verification: counted, never retried
            error = exc
        calls.append((argv[:-2], code, error, stderr.getvalue(), out))
    return time.perf_counter() - wall0, time.process_time() - cpu0, calls


class Tally:
    """Verifications attempted and failed, with the cause of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # (kind, command, cause)

    def record(self, calls) -> int:
        """Check one run's calls; return the sum of the reports' samples fields."""
        samples = 0
        for argv, code, error, stderr, out in calls:
            self.attempted += 1
            report = None
            if out.exists():
                try:
                    report = json.loads(out.read_text())
                except ValueError:
                    self.failures.append(("error", " ".join(argv), "report is not valid JSON"))
                    out.unlink()
                    continue
                out.unlink()
            failure = checker.check_call(code, error, report, stderr)
            if failure is not None:
                self.failures.append((failure[0], " ".join(argv), failure[1]))
            if report is not None:
                samples += sum(
                    c["samples"] for c in report.get("criteria", []) if isinstance(c.get("samples"), int)
                )
        return samples


def warm_up(cli, workload, out_dir):
    """The set-up calls, in-process: fills the per-mode caches before timing."""
    _, _, calls = run_once(cli, workload.setup, SETUP_SEED, out_dir)
    for argv, code, error, stderr, out in calls:
        out.unlink(missing_ok=True)
        if error is not None or code == 2:
            sys.exit(f"error: set-up call {' '.join(argv)} failed: {error or stderr.strip()}")


def measure_setup(workload, out_dir) -> list[float]:
    """Set-up times of fresh interpreters, scaled to the nominal machine speed."""
    times = []
    gauge = speed.gauge_s()
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(out_dir)],
            capture_output=True,
            text=True,
            timeout=150,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
        before, gauge = gauge, speed.gauge_s()
        if i:
            times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"] * speed.scale(before, gauge))
    return times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def print_metric(name, values, unit):
    q1, med, q3 = quartiles(values)
    print(f"{name:<32} {med:14.6g} {unit:<5}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")


def end_to_end(cli, workload, seeds, seconds, out_dir, tally) -> dict:
    setup = measure_setup(workload, out_dir)
    warm_up(cli, workload, out_dir)
    raw, walls, cpus, rates = [], [], [], []
    gauge = speed.gauge_s()
    for _ in range(workload.runs(seconds)):
        wall, cpu, calls = run_once(cli, workload.commands, next(seeds), out_dir)
        before, gauge = gauge, speed.gauge_s()
        factor = speed.scale(before, gauge)
        samples = tally.record(calls)
        raw.append(wall)
        walls.append(wall * factor)
        cpus.append(cpu * factor)
        rates.append(samples / (wall * factor))
    series = {
        "wall_s": walls,
        "samples_per_s": rates,
        "cpu_s": cpus,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        "setup_s": setup,
    }
    print_metric("unscaled wall_s", raw, "s")
    for name, values in series.items():
        print_metric(name, values, UNITS[name])
    return {name: {"value": statistics.median(v), "unit": UNITS[name]} for name, v in series.items()}


def per_layer(cli, workload, seeds, seconds, out_dir, tally) -> dict:
    warm_up(cli, workload, out_dir)
    plain, traced_walls, traced, absent = [], [], [], set()
    gauge = speed.gauge_s()
    for _ in range(workload.runs(seconds, per_run=2)):
        wall, _, calls = run_once(cli, workload.commands, next(seeds), out_dir)
        before, gauge = gauge, speed.gauge_s()
        plain.append(wall * speed.scale(before, gauge))
        tally.record(calls)
        with tracing.Tracer() as tracer:
            wall, _, calls = run_once(cli, workload.commands, next(seeds), out_dir)
        before, gauge = gauge, speed.gauge_s()
        traced_walls.append(wall * speed.scale(before, gauge))
        tally.record(calls)
        traced.append(tracing.layer_metrics(tracer.spans, wall, tracer.absent, tracer.uncounted))
        absent |= tracer.absent | tracer.uncounted
    series = {
        name: [m[name] for m in traced]
        for name in tracing.METRICS
        if all(name in m for m in traced)
    }
    series["trace.overhead_s"] = [statistics.median(traced_walls) - statistics.median(plain)]
    if absent:
        print(f"absent layers or counts (functions renamed, removed or changed): {', '.join(sorted(absent))}")
    for name, values in series.items():
        print_metric(name, values, tracing.unit(name))
    return {name: {"value": statistics.median(v), "unit": tracing.unit(name)} for name, v in series.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    workload = WORKLOADS[args.workload]
    seeds = workload.run_seeds(args.seed)
    tally = Tally()
    out_dir = Path(tempfile.mkdtemp(prefix=".tmp-", dir=HERE))
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(cli, workload, seeds, args.seconds, out_dir, tally)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = len(tally.failures)
    print(f"fail_ratio {failed / tally.attempted:.6g} ({failed} of {tally.attempted} verifications)")
    for kind, command, cause in tally.failures:
        print(f"FAILED [{kind}] {command}: {cause}")
    print("environment " + json.dumps(environment(workload.workers), sort_keys=True))
    result = {
        "correct": not any(kind == "invalid" for kind, _, _ in tally.failures),
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
