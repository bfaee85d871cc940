"""The README's criteria table against the reports: it must name exactly the
criteria and bounds that the subcommands emit, and state their tolerances."""

import json
import re
from pathlib import Path

import pytest

from fermigauss.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"
#: Every subcommand form at its smallest size; canonical takes beta = 0 for its exactness bound.
FORMS = [
    ["identities", "--modes", "1", "--trials", "1"],
    ["resolution", "--mode", "quad", "--modes", "1", "--quad-order", "8"],
    ["resolution", "--mode", "mc", "--modes", "1", "--samples", "16"],
    ["canonical", "--modes", "1", "--betas", "0,0.3", "--samples", "16"],
    ["number-conserving", "--variant", "failure", "--quad-order", "20"],
    ["number-conserving", "--variant", "failure", "--modes", "1", "--quad-order", "20"],
    ["number-conserving", "--variant", "failure", "--modes", "3", "--samples", "400"],
    ["number-conserving", "--variant", "modified", "--modes", "1", "--samples", "16"],
    ["selberg", "--max-modes", "1"],
    ["ensembles", "--modes", "1", "--samples", "10", "--burn-in", "10", "--thin", "1"],
]
ROW = re.compile(r"^\| `([^`]+)` \| (criterion|bound): [^|]*\| ([^|]*) \|", re.MULTILINE)
PLACEHOLDER = r"(<[a-z_]+>)"  # a name part that the run fills in, such as <beta>


def readme_table(text: str) -> dict:
    """name -> (kind, "passes when" cell) of every row of the criteria table."""
    section = text.split("### Criteria and bounds", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for name, kind, rule in ROW.findall(section):
        assert name not in rows, f"{name!r} has two rows"
        rows[name] = (kind, rule)
    return rows


def emitted(tmp_path: Path) -> tuple[list, list]:
    """(criteria, bounds) of every form's report: each criterion as (name,
    tolerance, the names of its bounds), the tolerance None where it is not
    one number, and each bound as (name, tolerance)."""
    criteria, bounds = [], []
    for k, argv in enumerate(FORMS):
        out = tmp_path / f"{k}.json"
        assert run([*argv, "--out", str(out)]) == 0, argv
        for c in json.loads(out.read_text())["criteria"]:
            tol = c["tolerance_or_se"]
            rule = [bound.split(" <= ") for bound in c["rule"].split("; ")] if "rule" in c else []
            criteria.append((c["name"], tol if isinstance(tol, (int, float)) else None, {name for name, _ in rule}))
            bounds += [(name, float(tol)) for name, tol in rule]
    return criteria, bounds


def _row_for(name: str, rows: dict) -> str:
    """The one row whose name, its placeholders filled in, is ``name``."""
    matches = [
        row for row in rows
        if re.fullmatch("".join(".+" if re.fullmatch(PLACEHOLDER, part) else re.escape(part)
                                for part in re.split(PLACEHOLDER, row)), name)
    ]
    assert len(matches) == 1, f"{name!r} matches the rows {matches}"
    return matches[0]


def check_table(rows: dict, criteria: list, bounds: list) -> None:
    seen, row_bounds = set(), {}
    for name, _, names in criteria:  # a criterion row's cell names the bounds of every report it matches
        row_bounds.setdefault(_row_for(name, rows), set()).update(names)
    for row, names in row_bounds.items():
        cell = set(re.findall(r"`([^`]+)`", rows[row][1]))
        assert cell == names, f"{row!r}: the README names the bounds {sorted(cell)}, the reports {sorted(names)}"
    tolerances = {}  # row -> the numeric tolerances of every report it matches
    for kind, found in (("criterion", [c[:2] for c in criteria]), ("bound", bounds)):
        for name, tol in found:
            row = _row_for(name, rows)
            assert rows[row][0] == kind, f"{name!r} is a {kind}, its row says {rows[row][0]}"
            if tol is not None:
                tolerances.setdefault(row, set()).add(tol)
            seen.add(row)
    for row, tols in tolerances.items():  # a row that states numbers states exactly the reports' ones
        stated = {float(x) for x in re.findall(r"<= ([0-9.e+-]+)(?![\w`])", rows[row][1])}
        assert not stated or stated == tols, f"{row!r}: the README says {sorted(stated)}, the reports {sorted(tols)}"
    assert sorted(rows.keys() - seen) == [], "rows that no report emits"


def test_the_criteria_table_names_exactly_what_the_reports_emit(tmp_path):
    criteria, bounds = emitted(tmp_path)
    check_table(readme_table(README.read_text()), criteria, bounds)


@pytest.mark.parametrize("edit", ["rename", "drop", "retolerance", "extra_bound"])
def test_the_check_sees_a_changed_name_a_missing_row_and_a_changed_tolerance(tmp_path, edit):
    criteria, bounds = emitted(tmp_path)
    rows = readme_table(README.read_text())
    if edit == "rename":
        criteria[0] = (criteria[0][0] + " (renamed)", *criteria[0][1:])
    elif edit == "drop":
        del rows["failure_floor - identity_gap"]
    elif edit == "extra_bound":
        kind, cell = rows["resolution of unity (quadrature)"]
        rows["resolution of unity (quadrature)"] = (kind, cell + ", `failure_floor - identity_gap`")
    else:
        bounds[0] = (bounds[0][0], bounds[0][1] * 10)
    with pytest.raises(AssertionError):
        check_table(rows, criteria, bounds)
