#!/usr/bin/env python3
"""Parent-versus-change timings in alternating fresh processes.

In each pair it runs ``benchmark/run.py`` of the parent tree and of the
change tree on every workload, with one seed per pair, and each tree's own
``scripts/bench_layers.py`` (the calls that tree's drivers make), each run
in a fresh interpreter, the side that runs first alternating from pair to
pair. For each end-to-end metric, and for each layer of each bench_layers
row (its median seconds) that every tree times, it writes both trees'
values, the per-pair ratios change/parent, the number of pairs the change
won, both medians and the parent's interquartile range. A layer that only
some trees time (a step a change adds, removes or renames) is listed under
``unmatched`` with each tree's median.

With ``--aa COPY``, a second copy of the parent joins every pair as a third
run, and the order of the three rotates from pair to pair. Each metric
then also carries the A/A control: the copy's values, the per-pair ratios
copy/parent, their median and interquartile range, and their spread, the
largest distance of an A/A ratio from 1. A change's median ratio that
stands further from 1 than that spread is more than the noise between two
copies of one tree in the same session. An end-to-end metric whose A/A
spread exceeds its ``bound`` in BENCHMARK.json is marked ``unresolved``:
the session cannot tell a change of that size from noise.

It then times ``resolution --mode mc --modes 6 --samples 16000`` at
``--workers 1`` and ``--workers 2`` in fresh processes, in pairs that
alternate which count runs first, in both trees: wall and CPU seconds of
the ``cli.run`` call alone, unscaled, and per worker count the number of
runs that exited non-zero (``failed``), since a failing verification is
timed all the same.

Last, it runs this checkout's ``scripts/report_diff.py`` once, parent
against change, and keeps its exit code and per-command results, so a
speed claim and its accuracy claim sit in one file. It exits with
report_diff.py's code, after writing everything.

Run from the repository root of the change, with the parent checked out
elsewhere:

    python3 scripts/bench_pairs.py --parent ../parent --out BENCH_14.json
    python3 scripts/bench_pairs.py --parent ../parent --aa ../parent-copy --out BENCH_18.json

``--out`` adds the result under ``pairs`` (the layer rows under
``pairs.layers``), ``workers`` and ``report_diff`` to the JSON file, keeping
what is already in it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("checks", "mc_m6", "nc_modified")
LAYERS = "layers"  # the bench_layers.py rows, run in every pair beside the workloads
#: The end-to-end metrics of BENCHMARK.json, by name: which way is better, and the bound.
END_TO_END = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
WORKERS_ARGV = ["resolution", "--mode", "mc", "--modes", "6", "--samples", "16000", "--seed", "1"]
TIME_CALL = """
import json, sys, time
sys.path.insert(0, "src")
from fermigauss import cli
argv = json.loads(sys.argv[1])
wall, cpu = time.perf_counter(), time.process_time()
code = cli.run(argv)
print(json.dumps({"code": code, "wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu}))
"""


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = _last_json(proc.stdout)
    return {"failed": result["failed"]} | {name: m["value"] for name, m in result["metrics"].items()}


def layer_run(tree: Path) -> dict:
    """The median seconds of every layer of every row of ``tree``'s own
    scripts/bench_layers.py, as "row: layer"."""
    proc = subprocess.run(
        [sys.executable, "scripts/bench_layers.py"], cwd=tree, capture_output=True, text=True, check=True,
    )
    rows = json.loads(proc.stdout)["rows"]
    return {f"{row}: {layer}": t["median_s"] for row, layers in rows.items() for layer, t in layers.items()}


def top_level_sum(layers: dict) -> float:
    """Sum of a layer run's medians over its top-level layers. A row that
    times its whole call as a layer named after the call (the row name's
    first word, as the identity suite's row does) counts that layer alone:
    its other layers nest inside it."""
    total = 0.0
    for name, t in layers.items():
        row, layer = name.split(": ", 1)
        whole = row.split()[0]
        if layer == whole or f"{row}: {whole}" not in layers:
            total += t
    return total


def timed_call(tree: Path, argv: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", TIME_CALL, json.dumps(argv + ["--out", "/dev/null"])],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return _last_json(proc.stdout)


def summary(parent: list[float], change: list[float], lower_is_better: bool, aa: list[float] | None = None,
            bound: float | None = None) -> dict:
    ratios = [c / p for p, c in zip(parent, change)]
    q1, _, q3 = statistics.quantiles(parent, n=4)
    med = statistics.median(parent)
    out = {
        "parent": parent,
        "change": change,
        "ratios": ratios,
        "change_won": sum((r < 1.0) if lower_is_better else (r > 1.0) for r in ratios),
        "parent_median": med,
        "change_median": statistics.median(change),
        "parent_iqr_rel": (q3 - q1) / med,
    }
    if aa is not None:
        aa_ratios = [a / p for p, a in zip(parent, aa)]
        aq1, _, aq3 = statistics.quantiles(aa_ratios, n=4)
        out["aa"] = {
            "copy": aa,
            "copy_median": statistics.median(aa),
            "ratios": aa_ratios,
            "median_ratio": statistics.median(aa_ratios),
            "ratio_iqr": aq3 - aq1,
            "spread": max(abs(r - 1.0) for r in aa_ratios),
        }
        if bound is not None:
            out["unresolved"] = out["aa"]["spread"] > bound
    return out


def pairs(parent: Path, change: Path, count: int, seconds: float, aa: Path | None = None) -> dict:
    trees = [("parent", parent), ("change", change)] + ([("aa", aa)] if aa else [])
    runs = {workload: {label: [] for label, _ in trees} for workload in WORKLOADS + (LAYERS,)}
    for seed in range(1, count + 1):
        k = (seed - 1) % len(trees)  # which tree runs first rotates from pair to pair
        for workload, by_tree in runs.items():
            for label, tree in trees[k:] + trees[:k]:
                by_tree[label].append(layer_run(tree) if workload == LAYERS else bench_run(tree, workload, seed, seconds))
            # wall_s of a workload run; the sum of the top-level layer medians of a layer run
            shown = (rs[-1]["wall_s"] if workload != LAYERS else top_level_sum(rs[-1]) for rs in by_tree.values())
            print(f"{workload} pair {seed}: " + " / ".join(f"{x:.4f}" for x in shown), file=sys.stderr)
    out = {}
    for workload, by_tree in runs.items():
        shared = [name for name in by_tree["parent"][0] if all(name in rs[0] for rs in by_tree.values())]
        values = {name: {label: [r[name] for r in rs] for label, rs in by_tree.items()}
                  for name in shared if name != "failed"}
        out[workload] = {"metrics": {}}
        if workload == LAYERS:
            out[workload]["unmatched"] = {label: {name: statistics.median(r[name] for r in rs)
                                                  for name in rs[0] if name not in shared}
                                          for label, rs in by_tree.items()}
        for name, v in values.items():
            metric = END_TO_END.get(name, {"better": "lower", "bound": None})  # a layer: seconds, no bound
            out[workload]["metrics"][name] = summary(v["parent"], v["change"], metric["better"] == "lower",
                                                     v.get("aa"), metric["bound"])
        if workload != LAYERS:
            out[workload]["failed"] = {label: [r["failed"] for r in rs] for label, rs in by_tree.items()}
    return out


def workers(parent: Path, change: Path, count: int) -> dict:
    out = {}
    for label, tree in (("parent", parent), ("change", change)):
        runs = {1: [], 2: []}
        for k in range(count):
            for n in (1, 2) if k % 2 == 0 else (2, 1):
                runs[n].append(timed_call(tree, WORKERS_ARGV + ["--workers", str(n)]))
        one, two = ([r["wall_s"] for r in runs[n]] for n in (1, 2))
        failed = {str(n): sum(r["code"] != 0 for r in runs[n]) for n in (1, 2)}
        out[label] = {
            "workers_1": runs[1],
            "workers_2": runs[2],
            "two_won": sum(b < a for a, b in zip(one, two)),
            "wall_median": {"1": statistics.median(one), "2": statistics.median(two)},
            "failed": failed,  # runs whose verification did not pass (a non-zero exit code)
        }
        print(f"{label} workers: 1 -> {out[label]['wall_median']['1']:.3f} s, "
              f"2 -> {out[label]['wall_median']['2']:.3f} s, 2 won {out[label]['two_won']} of {count}, "
              f"failed {failed['1']} and {failed['2']} of {count}",
              file=sys.stderr)
    return out


def report_diff(parent: Path, change: Path) -> dict:
    """scripts/report_diff.py of this checkout, parent against change: its
    exit code and per-command results (its --out file)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report_diff.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "report_diff.py"), "--parent", str(parent),
             "--change", str(change), "--out", str(out)],
            capture_output=True, text=True,
        )
        if not out.is_file():  # it stopped before comparing
            raise RuntimeError(f"report_diff.py wrote no results (exit {proc.returncode}):\n{proc.stderr}")
        print(proc.stdout, end="", file=sys.stderr)
        return {"exit_code": proc.returncode, "commands": json.loads(out.read_text())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="root of the change checkout (default: this one)")
    parser.add_argument("--aa", type=Path, help="root of a second copy of the parent, run as an A/A control")
    parser.add_argument("--pairs", type=int, default=10, help="benchmark pairs per workload")
    parser.add_argument("--seconds", type=float, default=25.0, help="--seconds of each benchmark run")
    parser.add_argument("--worker-pairs", type=int, default=5, help="--workers 1/2 pairs per tree")
    parser.add_argument("--out", type=Path, help="JSON file to add the result to")
    args = parser.parse_args()
    if args.pairs < 2:  # summary() takes the parent's quartiles over the pairs
        parser.error(f"--pairs needs at least 2 pairs, got {args.pairs}")
    if args.worker_pairs < 1:  # workers() takes the median over the pairs
        parser.error(f"--worker-pairs needs at least 1 pair, got {args.worker_pairs}")
    result = {
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "worker_pairs": args.worker_pairs,
                     "workers_argv": WORKERS_ARGV, "aa": args.aa is not None},
        "pairs": pairs(args.parent, args.change, args.pairs, args.seconds, args.aa),
        "workers": workers(args.parent, args.change, args.worker_pairs),
        "report_diff": report_diff(args.parent, args.change),
    }
    if args.out is None:
        print(json.dumps(result, indent=2))
    else:
        data = json.loads(args.out.read_text()) if args.out.is_file() else {}
        args.out.write_text(json.dumps(data | result, indent=2) + "\n")
    return result["report_diff"]["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
