#!/usr/bin/env python3
"""Parent-versus-change timings in rotating fresh processes.

Every pair runs one table of rows in every tree, each run in a fresh
interpreter, the order of the trees rotating from pair to pair, with one
seed per pair:
- each workload of BENCHMARK.json (``benchmark/run.py``): its end-to-end
  metrics, and ``failed``;
- ``layers``: the tree's own ``scripts/bench_layers.py`` (the calls that
  tree's drivers make), the median seconds of every layer of every row;
- ``workers_1`` and ``workers_2``: ``cli.run`` of WORKERS_ARGV at
  ``--workers 1`` and ``2``, its wall and CPU seconds (unscaled), and
  ``failed`` = 1 when it exits non-zero, since a failing verification is
  timed all the same.

For each metric that every tree reports, it writes both trees' values, the
per-pair ratios change/parent, the number of pairs the change won, both
medians and minima and the parent's interquartile range. A layer that only
some trees time (a step a change adds, removes or renames) is listed under
``unmatched`` with each tree's median.

With ``--aa COPY``, a second copy of the parent is the third tree of every
pair. Each metric then also carries the A/A control: the copy's values, the
per-pair ratios copy/parent, their median and interquartile range, and
their spread, the largest distance of an A/A ratio from 1. A change's
median ratio that stands further from 1 than that spread is more than the
noise between two copies of one tree in the same session. An end-to-end
metric whose A/A spread exceeds its ``bound`` in BENCHMARK.json is marked
``unresolved``: the session cannot tell a change of that size from noise.

Last, it runs this checkout's ``scripts/report_diff.py`` once, parent
against change, and keeps its exit code and per-command results, so a
speed claim and its accuracy claim sit in one file. It exits with
report_diff.py's code, after writing everything.

Run from the repository root of the change, with the parent checked out
elsewhere:

    python3 scripts/bench_pairs.py --parent ../parent --aa ../parent-copy --out BENCH_18.json

Without ``--change``, the change tree is a copy of this checkout's files as
they stand (tracked and untracked, not ignored) in a temporary directory,
with no ``.git``, like a ``git archive`` copy of the parent: inside a
repository ``git describe`` alone takes about 3 ms more per report.

``--out`` adds the result under ``settings``, ``pairs`` (one entry per row)
and ``report_diff`` to the JSON file, keeping what is already in it.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: The workloads of BENCHMARK.json, in its order.
WORKLOADS = tuple(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
#: The end-to-end metrics of BENCHMARK.json, by name: which way is better, and the bound.
END_TO_END = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
#: The command of the workers_1 and workers_2 rows, before its --workers flag.
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
    """Sum of a layer run's medians over its whole-call layers: each row's
    layer named after its call (the row name's first word), inside which the
    row's other layers nest."""
    return sum(t for name, t in layers.items() if name.split(": ", 1)[1] == name.split()[0])


def timed_call(tree: Path, argv: list[str]) -> dict:
    """Wall and CPU seconds of ``cli.run(argv)`` in ``tree``, and failed = 1
    when it exits non-zero."""
    proc = subprocess.run(
        [sys.executable, "-c", TIME_CALL, json.dumps(argv + ["--out", "/dev/null"])],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = _last_json(proc.stdout)
    return {"failed": int(result.pop("code") != 0)} | result


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
        "parent_min": min(parent),
        "change_min": min(change),
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
    rows = {w: lambda tree, seed, w=w: bench_run(tree, w, seed, seconds) for w in WORKLOADS}
    rows["layers"] = lambda tree, seed: layer_run(tree)
    for n in (1, 2):
        rows[f"workers_{n}"] = lambda tree, seed, n=n: timed_call(tree, WORKERS_ARGV + ["--workers", str(n)])
    runs = {row: {label: [] for label, _ in trees} for row in rows}
    for seed in range(1, count + 1):
        k = (seed - 1) % len(trees)  # which tree runs first rotates from pair to pair
        for row, runner in rows.items():
            for label, tree in trees[k:] + trees[:k]:
                runs[row][label].append(runner(tree, seed))
            last = [rs[-1] for rs in runs[row].values()]
            # wall_s of a timed run; the sum of the whole-call layer medians of a layer run
            shown = [r["wall_s"] if "wall_s" in r else top_level_sum(r) for r in last]
            print(f"{row} pair {seed}: " + " / ".join(f"{x:.4f}" for x in shown), file=sys.stderr)
    out = {}
    for row, by_tree in runs.items():
        shared = [name for name in by_tree["parent"][0] if all(name in rs[0] for rs in by_tree.values())]
        out[row] = {"metrics": {}, "unmatched": {label: {name: statistics.median(r[name] for r in rs)
                                                         for name in rs[0] if name not in shared}
                                                 for label, rs in by_tree.items()}}
        for name in shared:
            v = {label: [r[name] for r in rs] for label, rs in by_tree.items()}
            if name == "failed":  # runs whose verification did not pass, per tree
                out[row]["failed"] = v
                continue
            metric = END_TO_END.get(name, {"better": "lower", "bound": None})  # a layer: seconds, no bound
            out[row]["metrics"][name] = summary(v["parent"], v["change"], metric["better"] == "lower",
                                                v.get("aa"), metric["bound"])
    return out


def plain_copy(root: Path, dest: Path) -> Path:
    """The checkout at ``root`` as ``dest``: every file ``git ls-files``
    lists as tracked or untracked and not ignored, as it stands in the
    working tree, without ``.git``. A tracked file deleted there is left out."""
    proc = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                          cwd=root, capture_output=True, text=True, check=True)
    for name in filter(None, proc.stdout.split("\0")):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)
    return dest


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
    parser.add_argument("--change", type=Path,
                        help="root of the change checkout (default: a copy of this one's files, without .git)")
    parser.add_argument("--aa", type=Path, help="root of a second copy of the parent, run as an A/A control")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per row")
    parser.add_argument("--seconds", type=float, default=25.0, help="--seconds of each benchmark run")
    parser.add_argument("--out", type=Path, help="JSON file to add the result to")
    args = parser.parse_args()
    if args.pairs < 2:  # summary() takes the parent's quartiles over the pairs
        parser.error(f"--pairs needs at least 2 pairs, got {args.pairs}")
    with tempfile.TemporaryDirectory() as tmp:
        change = args.change or plain_copy(ROOT, Path(tmp))
        result = {
            "settings": {"pairs": args.pairs, "seconds": args.seconds, "workers_argv": WORKERS_ARGV,
                         "aa": args.aa is not None},
            "pairs": pairs(args.parent, change, args.pairs, args.seconds, args.aa),
            "report_diff": report_diff(args.parent, change),
        }
    if args.out is None:
        print(json.dumps(result, indent=2))
    else:
        data = json.loads(args.out.read_text()) if args.out.is_file() else {}
        args.out.write_text(json.dumps(data | result, indent=2) + "\n")
    return result["report_diff"]["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
