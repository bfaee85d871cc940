#!/usr/bin/env python3
"""Do two trees write the same reports? A parent-versus-change report diff.

It runs every command of COMMANDS once per tree, all of a tree's commands in
one fresh interpreter with ``PYTHONPATH=<tree>/src``, and writes each report,
and the CSV dump of each command that ends in ``--csv``, to a temporary
directory. It drops the two report fields that name the run rather than its
result, ``timestamp`` and ``git_describe``, and then states one of three
results per command, for its report and its dump together:

- ``identical``: the same bytes;
- ``numeric``: the same keys, key order, strings and verdicts (for a dump,
  the same header and row count), with the largest absolute change of a
  number, the path to it (under ``.csv`` for a dump) and the parent's and
  the change's number there, so a gap that moved shows whether it grew;
- ``changed``: the verdicts, keys or names (strings) that differ, or a
  command that wrote no report in one tree (no dump in one tree shows as a
  ``csv`` key on one side only).

It exits 1 when any command is ``changed`` or changes a number by more than
``--tol`` (default 1e-13), and 0 otherwise. Run from any directory:

    python3 scripts/report_diff.py --parent ../parent
    python3 scripts/report_diff.py --parent ../parent --change . --tol 0 --out diff.json

``--change`` defaults to the checkout that holds this script. ``--out``
writes the per-command results as JSON.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = ["--seed", "5"]
#: The CLI commands whose reports are compared, each as its argv; one that
#: ends in --csv also has its dump compared, written to a path the run appends.
COMMANDS = [
    ["identities", "--modes", "3", *SEED],
    ["identities", "--modes", "3", "--seed", "42"],
    ["resolution", "--mode", "quad", "--weight", "determinant", "-p", "2", *SEED, "--csv"],
    ["resolution", "--mode", "quad", *SEED, "--csv"],
    ["resolution", "--mode", "quad", "--symmetry-class", "CI", *SEED, "--csv"],
    ["number-conserving", "--variant", "failure", *SEED, "--csv"],
    ["number-conserving", "--variant", "failure", "-p", "2", *SEED],  # the oracle's floor away from p = 1
    ["number-conserving", "--variant", "failure", "--modes", "1", *SEED],
    ["number-conserving", "--variant", "failure", "--modes", "2", "-p", "0.05", "--quad-order", "150", *SEED],  # nearest the oracle's guard
    ["number-conserving", "--variant", "failure", "--modes", "3", "--samples", "16000", *SEED, "--csv"],
    ["number-conserving", "--variant", "failure", "--modes", "6", "--samples", "4000", *SEED],
    ["selberg", "--consistency", *SEED],
    ["resolution", "--mode", "mc", "--modes", "6", "--samples", "400", *SEED, "--csv"],
    ["number-conserving", "--variant", "modified", "--samples", "25000", *SEED, "--csv"],
    ["canonical", "--modes", "2", "--samples", "4000", *SEED, "--csv"],
    ["canonical", "--modes", "2", "--betas", "0.3,5", "--samples", "400", "--seed", "8"],  # beta = 5: ESS 112 of 400
    ["ensembles", *SEED, "--csv"],
    ["ensembles", "--weight", "nc_even", *SEED, "--csv"],
    ["ensembles", "--weight", "nc_modified", *SEED, "--csv"],
    ["ensembles", "--symmetry-class", "DIII", "--weight", "determinant", "-p", "3", *SEED, "--csv"],
    ["resolution", "--mode", "quad", "--symmetry-class", "DIII", "--weight", "determinant", "-p", "3", *SEED, "--csv"],
]
#: Runs each command of argv[1] (a JSON list of argvs) with --out argv[2]/<k>.json,
#: and a command that ends in --csv with the dump path argv[2]/<k>.csv.
RUN_ALL = """
import json, sys
from fermigauss.cli import run
for k, argv in enumerate(json.loads(sys.argv[1])):
    dump = [f"{sys.argv[2]}/{k}.csv"] if argv[-1] == "--csv" else []
    run([*argv, *dump, "--out", f"{sys.argv[2]}/{k}.json"])
"""
RUN_FIELDS = ("timestamp", "git_describe")
RUN_LINES = re.compile(rf'^  "({"|".join(RUN_FIELDS)})": .*\n', re.MULTILINE)  # their lines in a report file


def reports(tree: Path, commands: list, out_dir: Path) -> list:
    """Each command's report text and CSV dump text from ``tree``, each None
    where the command wrote no such file."""
    env = {k: v for k, v in os.environ.items() if k != "FERMIGAUSS_REPORT_DIR"}
    env["PYTHONPATH"] = str(tree.resolve() / "src")
    subprocess.run(
        [sys.executable, "-c", RUN_ALL, json.dumps(commands), str(out_dir)],
        env=env, cwd=out_dir, capture_output=True, check=True,
    )
    paths = [(out_dir / f"{k}.json", out_dir / f"{k}.csv") for k in range(len(commands))]
    return [tuple(p.read_text() if p.exists() else None for p in pair) for pair in paths]


def document(report: str, dump: str | None) -> dict:
    """A report without its run fields, with its dump, if any, under ``csv``:
    the header's column names and the rows of numbers."""
    doc = json.loads(report)
    for key in RUN_FIELDS:
        doc.pop(key, None)
    if dump is not None:
        header, *rows = dump.splitlines()
        doc["csv"] = {"columns": header.split(","), "rows": [[float(x) for x in row.split(",")] for row in rows]}
    return doc


def _walk(a, b, path: str, found: dict) -> None:
    """Record under ``found`` every difference of ``b`` from ``a``: changed
    verdicts, keys and strings, and the largest numeric change."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            found["keys"].append(f"{path}: {list(a)} -> {list(b)}")
        for key in [k for k in a if k in b]:
            _walk(a[key], b[key], f"{path}.{key}", found)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            found["keys"].append(f"{path}: {len(a)} -> {len(b)} entries")
        for i, (x, y) in enumerate(zip(a, b)):
            name = x.get("name") if isinstance(x, dict) else None
            _walk(x, y, f"{path}[{name!r}]" if name else f"{path}[{i}]", found)
    elif isinstance(a, bool) or isinstance(b, bool):
        if a is not b:
            found["verdicts"].append(f"{path}: {a} -> {b}")
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        same = a == b or (math.isnan(a) and math.isnan(b))
        change = 0.0 if same else abs(a - b) if math.isfinite(a - b) else math.inf
        if change > found["max_change"]:
            found["max_change"], found["where"], found["values"] = change, path, (a, b)
    elif a != b:
        found["names"].append(f"{path}: {a!r} -> {b!r}")


def compare(parent: str | None, change: str | None, dumps=(None, None)) -> dict:
    """The result for one command from its two report texts and its two dump
    texts, ``dumps``; a text is None where the command wrote no such file."""
    if parent is None or change is None:
        return {"result": "changed", "names": [f"report written: {parent is not None} -> {change is not None}"]}
    if RUN_LINES.sub("", parent) == RUN_LINES.sub("", change) and dumps[0] == dumps[1]:
        return {"result": "identical"}
    found = {"verdicts": [], "keys": [], "names": [], "max_change": 0.0, "where": None, "values": (None, None)}
    _walk(document(parent, dumps[0]), document(change, dumps[1]), "", found)
    parent_value, change_value = found.pop("values")
    if found["verdicts"] or found["keys"] or found["names"]:
        return {"result": "changed", **found}
    return {"result": "numeric", "max_change": found["max_change"], "where": found["where"],
            "parent": parent_value, "change": change_value}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent tree (a checkout with src/)")
    parser.add_argument("--change", type=Path, default=ROOT, help="the changed tree (default: this checkout)")
    parser.add_argument("--tol", type=float, default=1e-13, help="largest numeric change that passes")
    parser.add_argument("--out", type=Path, help="write the per-command results to this JSON file")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for name, tree in (("parent", args.parent), ("change", args.change)):
            (Path(tmp) / name).mkdir()
            sides.append(reports(tree, COMMANDS, Path(tmp) / name))
    results, failed = [], False
    for argv_k, (parent, parent_csv), (change, change_csv) in zip(COMMANDS, *sides):
        res = {"command": " ".join(argv_k), **compare(parent, change, (parent_csv, change_csv))}
        failed |= res["result"] == "changed" or (res["result"] == "numeric" and not res["max_change"] <= args.tol)
        results.append(res)
        line = f"{res['command']}: {res['result']}"
        if res.get("where"):
            line += f", largest numeric change {res['max_change']:.3g} at {res['where']}"
            if res["result"] == "numeric":
                line += f": {res['parent']!r} -> {res['change']!r}"
        line += "".join(f"\n  {what}" for key in ("verdicts", "keys", "names") for what in res.get(key, []))
        print(line)
    if args.out:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
