"""Smoke tests of the timing scripts: a rename in src/ breaks these, not the
next timing session."""

import ast
import collections
import functools
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from fermigauss import fock, reports, selberg, verify

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_commands():
    """Every command of every BENCHMARK.json workload, in that file's order,
    read from benchmark/workloads.py."""
    workloads = load("workloads", ROOT / "benchmark").WORKLOADS
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return [command for name in names for command in workloads[name].commands]


def spy_rows(monkeypatch, layers, steps):
    """Wrap each (module, name) of ``steps`` where its callers look it up, and
    each identity trial in verify._IDENTITY_TRIALS, before bench_layers.py
    wraps them in turn, to log their calls: one Counter per row that tables()
    times (rows go through _row once each, in order), and every call made
    while another logged one runs, as (row index, outer, inner)."""
    per_row, nested, running = [], [], []

    def spy(name, fn):
        @functools.wraps(fn)
        def logged(*args, **kwargs):
            per_row[-1][name] += 1
            nested.extend((len(per_row) - 1, outer, name) for outer in running[-1:])
            running.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                running.pop()

        return logged

    for module, name in steps:
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    monkeypatch.setattr(verify, "_IDENTITY_TRIALS", tuple((spy(trial.__name__, trial), schedule)
                                                          for trial, schedule in verify._IDENTITY_TRIALS))

    def row(*args, _real=layers._row, **kwargs):
        per_row.append(collections.Counter())
        return _real(*args, **kwargs)

    monkeypatch.setattr(layers, "_row", row)
    return per_row, nested


@pytest.fixture
def small_layers(monkeypatch):
    """bench_layers.py at the smoke test's sizes: chunks of 8, one round."""
    layers = load("bench_layers")
    monkeypatch.setattr(layers, "CHUNK", 8)
    monkeypatch.setattr(layers, "REPEATS", 1)
    monkeypatch.setattr(layers, "SMALL_REPEATS", 1)
    return layers


class TestBenchLayers:
    def test_every_row_runs_against_src(self, small_layers, monkeypatch):
        layers = small_layers
        steps = [(verify, name) for name in dict.fromkeys(layers.MC_STEPS + layers.QUADRATURE_STEPS)]
        steps += [(reports, name) for name in layers.REPORT_STEPS] + [(selberg, name) for name in layers.SELBERG_STEPS]
        per_row, nested = spy_rows(monkeypatch, layers, steps)
        assembled = []  # (row index, size) of every stack built through the Fock construction
        for module in (fock, verify):
            build = module.quadratic_hamiltonian_batch
            monkeypatch.setattr(module, "quadratic_hamiltonian_batch",
                                lambda mats, build=build: assembled.append((len(per_row) - 1, len(mats))) or build(mats))
        names = {module: dict(vars(module)) for module in (verify, reports, selberg)}
        rows = layers.tables()
        for module, before in names.items():  # every name a row patches is put back: steps, _run_chunks, the trial table
            assert vars(module).keys() == before.keys() and all(vars(module)[name] is fn for name, fn in before.items())
        listed = [set(row) for row in rows.values()]
        assert [call for call in nested if {call[1], call[2]} <= listed[call[0]]] == []  # no listed step runs inside another
        mc_m6, nc, identities, *quadrature, closed_forms = ("cli.run " + " ".join(c) for c in benchmark_commands())
        resolution = ["sample_class_d_batch", "real_form", "real_form_pair_rows", "wick_coordinates", "_fock_check"]
        report = ["build_report", "write_report"]
        mc_report = ["_mc_report", "estimator_to_criterion"] + report
        assert {name: list(row) for name, row in rows.items()} == {
            **{f"verify_resolution_mc M={m} chunk=8": ["verify_resolution_mc"] + resolution for m in range(1, 7)},
            mc_m6: ["cli.run"] + resolution + mc_report,
            nc: ["cli.run", "class_d_pair_values", "_normal_parts", "_rank_one_pair_rows", "wick_coordinates",
                 "_fock_check"] + mc_report,
            identities: ["cli.run"] + [trial.__name__ for trial, _ in verify._IDENTITY_TRIALS] + report,
            # a warm quadrature call looks its rules and moments up: it builds none
            **{name: ["cli.run", "_law_tables", "moment_wick_coordinates", "_fock_check", "estimator_to_criterion"]
               + report for name in quadrature},
            closed_forms: ["cli.run", *layers.SELBERG_STEPS] + report,
        }
        for name, row in rows.items():
            # one whole-call layer, named after the row's first word and listed first
            assert [layer for layer in row if layer == name.split()[0]] == [list(row)[0]]
            for t in row.values():
                assert 0.0 < t["min_s"] <= t["median_s"]
                assert isinstance(t["minor_faults"], int) and t["minor_faults"] >= 0
        # a chunk row's worker draws one chunk: the driver's 16 chunks of 8 never run
        assert [c["sample_class_d_batch"] for c in per_row[:6]] == [2] * 6
        suite = list(rows).index(identities)
        assert max(n for i, n in assembled if i != suite) == verify.FOCK_CHECK_DRAWS
        assert max(n for i, n in assembled if i == suite) == 50  # the suite's largest stack: its 50 composition pairs

    def test_one_row_per_benchmark_command(self, small_layers, monkeypatch):
        # the chunk rows, then every command of every BENCHMARK.json workload, in that file's order
        monkeypatch.setattr(small_layers, "chunk_row", lambda modes: {})
        monkeypatch.setattr(small_layers, "command_row", lambda command: {})
        assert list(small_layers.tables()) == [f"verify_resolution_mc M={m} chunk=8" for m in range(1, 7)] + [
            "cli.run " + " ".join(command) for command in benchmark_commands()]

    def test_the_rows_time_the_code_that_runs(self, small_layers, monkeypatch):
        # a step wrapped at the name its callers look it up by is called by
        # the rows that time it: no row runs a copy of a worker
        spied = [(verify, "real_form_pair_rows"), (verify, "_rank_one_pair_rows"), (selberg, "selberg_integral_log")]
        per_row, _ = spy_rows(monkeypatch, small_layers, spied)
        called = dict(zip(small_layers.tables(), per_row))
        chunks = [c for name, c in called.items() if name.startswith("verify_resolution_mc")]
        assert [bool(c["real_form_pair_rows"]) for c in chunks] == [True] * 6
        rows = ["cli.run " + " ".join(command) for command in benchmark_commands()]
        # the mc_m6 command writes its pair rows through the real form, the
        # nc_modified one through the rank-one rows, and only the closed-form
        # suite calls the closed forms, at their selberg names
        assert [name for name in rows if called[name]["real_form_pair_rows"]] == rows[:1]
        assert [name for name in rows if called[name]["_rank_one_pair_rows"]] == rows[1:2]
        assert [name for name in rows if called[name]["selberg_integral_log"]] == ["cli.run selberg --consistency"]

    def test_a_command_that_exits_2_stops_the_script(self, small_layers):
        with pytest.raises(SystemExit) as exc:
            small_layers.command_row(("resolution", "--mode", "mc", "--modes", "6", "--bogus"))
        assert exc.value.code == "error: cli.run resolution --mode mc --modes 6 --bogus exited 2 (a usage or input error)"

    def test_a_command_that_exits_1_is_timed(self, small_layers, monkeypatch):
        # a failed verdict (such as a known max_sigma false alarm) is timed like a pass
        from fermigauss import cli

        monkeypatch.setattr(cli, "run", lambda argv: 1)
        assert list(small_layers.command_row(("resolution", "--mode", "mc"))) == ["cli.run"]


def unused_package_imports(path: Path) -> set:
    """The names the module at ``path`` imports from the package (by a
    relative import) and never reads."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


class TestBenchmarkFacts:
    # bench_pairs.py runs the workloads of BENCHMARK.json, read here on their
    # own (bench_layers.py's sizes are held to benchmark/workloads.py by the
    # names of its rows, in TestBenchLayers)

    def test_bench_pairs_runs_the_benchmark_workloads(self):
        names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
        assert list(load("bench_pairs").WORKLOADS) == names
        assert set(names) <= set(load("workloads", ROOT / "benchmark").WORKLOADS)

    def test_unused_package_imports_are_tracing_targets(self):
        # a blanket noqa: F401 keeps importable the names benchmark/tracing.py
        # wraps at a module; any other name it imports and never reads is stale
        wrapped = collections.defaultdict(set)
        for module, attr, *_ in load("tracing", ROOT / "benchmark").TARGETS:
            wrapped[module].add(attr)
        for path in (ROOT / "src" / "fermigauss").glob("*.py"):
            if path.name != "__init__.py":  # the package's public names, re-exported
                assert unused_package_imports(path) <= wrapped["fermigauss." + path.stem], path.name


class TestBenchPairsSummary:
    @pytest.fixture(scope="class")
    def pairs(self):
        return load("bench_pairs")

    def test_ratios_wins_and_aa_spread(self, pairs):
        out = pairs.summary([1.0, 2.0, 4.0, 1.0], [0.5, 2.2, 2.0, 0.9], True, [1.1, 1.8, 4.0, 1.05])
        assert out["ratios"] == pytest.approx([0.5, 1.1, 0.5, 0.9])
        assert out["change_won"] == 3
        assert out["parent_median"] == 1.5 and out["change_median"] == pytest.approx(1.45)
        assert out["parent_min"] == 1.0 and out["change_min"] == 0.5
        assert out["aa"]["ratios"] == pytest.approx([1.1, 0.9, 1.0, 1.05])
        assert out["aa"]["copy_median"] == pytest.approx(1.45)
        assert out["aa"]["spread"] == pytest.approx(0.1)
        assert "unresolved" not in out  # no bound given

    def test_higher_is_better_counts_rises_as_wins(self, pairs):
        assert pairs.summary([1.0, 1.0], [1.2, 0.9], False)["change_won"] == 1

    @pytest.mark.parametrize("copy, unresolved", [([1.0, 1.3, 1.0, 1.0], True), ([1.0, 1.2, 1.0, 1.0], False)])
    def test_unresolved_when_the_aa_spread_exceeds_the_bound(self, pairs, copy, unresolved):
        bound = pairs.END_TO_END["setup_s"]["bound"]
        assert bound == 0.25
        out = pairs.summary([1.0] * 4, [1.0] * 4, True, copy, bound)
        assert out["unresolved"] is unresolved

    def test_progress_sums_only_top_level_layers(self, pairs):
        # a row's layer named after its call (its first word) times the whole
        # call, and the row's other layers nest inside it; no other layer counts
        run = {"verify_resolution_mc M=1 chunk=8: verify_resolution_mc": 1.0,
               "verify_resolution_mc M=1 chunk=8: real_form": 0.5,
               "cli.run resolution --mode mc: cli.run": 2.0, "cli.run resolution --mode mc: write_report": 1.0,
               "operator_identity_suite M=3 trials=50: operator_identity_suite": 4.0,
               "operator_identity_suite M=3 trials=50: _composition": 3.0,
               "a row with no whole-call layer: real_form": 8.0}
        assert pairs.top_level_sum(run) == 7.0

    def test_reads_every_end_to_end_metric_of_the_benchmark(self, pairs):
        assert set(pairs.END_TO_END) == {"wall_s", "samples_per_s", "cpu_s", "peak_rss_mb", "setup_s"}
        assert pairs.END_TO_END["samples_per_s"]["better"] == "higher"


class TestBenchPairsArguments:
    @pytest.mark.parametrize("flags", [["--pairs", "1"], ["--pairs", "0"]])
    def test_too_few_pairs_is_a_usage_error_before_any_run(self, flags, monkeypatch, tmp_path):
        pairs = load("bench_pairs")

        def no_run(*args, **kwargs):
            raise AssertionError("a subprocess started before the arguments were checked")

        monkeypatch.setattr(pairs.subprocess, "run", no_run)
        out = tmp_path / "bench.json"
        monkeypatch.setattr(pairs.sys, "argv", ["bench_pairs.py", "--parent", str(tmp_path), "--out", str(out), *flags])
        with pytest.raises(SystemExit) as exc:
            pairs.main()
        assert exc.value.code == 2
        assert not out.exists()


class TestBenchPairsMain:
    def test_report_diff_is_stored_beside_the_timings(self, monkeypatch, tmp_path):
        # every run stubbed: one value per metric, one layer, one timed call
        pairs = load("bench_pairs")
        values = {"failed": 0} | {name: 1.0 for name in pairs.END_TO_END}
        monkeypatch.setattr(pairs, "bench_run", lambda tree, workload, seed, seconds: values)
        monkeypatch.setattr(pairs, "layer_run", lambda tree: {"row: layer": 0.5})
        monkeypatch.setattr(pairs, "timed_call", lambda tree, argv: {"failed": 0, "wall_s": 1.0, "cpu_s": 1.0})
        results = [{"command": "ensembles --seed 5", "result": "changed", "names": ["x"]}]
        diff_calls = []

        def report_diff(argv, **kwargs):
            diff_calls.append(argv)
            Path(argv[argv.index("--out") + 1]).write_text(json.dumps(results))
            return subprocess.CompletedProcess(argv, 1, "ensembles --seed 5: changed\n", "")

        monkeypatch.setattr(pairs.subprocess, "run", report_diff)
        parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "bench.json"
        out.write_text(json.dumps({"kept": True}))
        monkeypatch.setattr(pairs.sys, "argv", ["bench_pairs.py", "--parent", str(parent), "--change", str(change),
                                                "--pairs", "2", "--out", str(out)])
        assert pairs.main() == 1  # report_diff.py's exit code
        doc = json.loads(out.read_text())
        assert list(doc) == ["kept", "settings", "pairs", "report_diff"]
        assert doc["report_diff"] == {"exit_code": 1, "commands": results}
        assert doc["pairs"]["nc_modified"]["metrics"]["wall_s"]["change_won"] == 0
        [argv] = diff_calls
        assert Path(argv[1]) == SCRIPTS / "report_diff.py"
        assert argv[2:6] == ["--parent", str(parent), "--change", str(change)]

    def test_the_default_change_is_a_copy_without_git(self, monkeypatch, tmp_path):
        # without --change every row and report_diff.py run a copy of the
        # checkout's listed files, laid out like the parent's git archive copy
        pairs = load("bench_pairs")
        root = tmp_path / "checkout"
        for name, text in {".git/HEAD": "ref", "src/mod.py": "x = 1\n", "new.txt": "untracked\n"}.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
        monkeypatch.setattr(pairs, "ROOT", root)
        trees, seen = set(), {}

        def tree_of(tree):
            trees.add(tree)
            seen[tree] = sorted(str(p.relative_to(tree)) for p in tree.rglob("*") if p.is_file())

        values = {"failed": 0} | {name: 1.0 for name in pairs.END_TO_END}
        monkeypatch.setattr(pairs, "bench_run", lambda tree, workload, seed, seconds: tree_of(tree) or values)
        monkeypatch.setattr(pairs, "layer_run", lambda tree: tree_of(tree) or {"row: layer": 0.5})
        monkeypatch.setattr(pairs, "timed_call", lambda tree, argv: tree_of(tree)
                            or {"failed": 0, "wall_s": 1.0, "cpu_s": 1.0})
        calls = []

        def run(argv, **kwargs):
            calls.append((argv, kwargs.get("cwd")))
            if argv[0] == "git":  # a tracked file deleted from the working tree is listed too
                return subprocess.CompletedProcess(argv, 0, "src/mod.py\0gone.py\0new.txt\0", "")
            tree_of(Path(argv[argv.index("--change") + 1]))
            Path(argv[argv.index("--out") + 1]).write_text("[]")
            return subprocess.CompletedProcess(argv, 0, "", "")

        monkeypatch.setattr(pairs.subprocess, "run", run)
        parent = tmp_path / "parent"
        monkeypatch.setattr(pairs.sys, "argv", ["bench_pairs.py", "--parent", str(parent), "--pairs", "2",
                                                "--out", str(tmp_path / "bench.json")])
        assert pairs.main() == 0
        assert calls[0] == (["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], root)
        [copy] = trees - {parent}
        assert copy != root and not copy.exists()  # a temporary directory, removed after the session
        assert seen[copy] == ["new.txt", "src/mod.py"]

    def test_a_report_diff_that_writes_no_results_stops_the_session(self, monkeypatch, tmp_path):
        pairs = load("bench_pairs")
        monkeypatch.setattr(pairs.subprocess, "run",
                            lambda argv, **kwargs: subprocess.CompletedProcess(argv, 1, "", "Traceback"))
        with pytest.raises(RuntimeError, match=r"wrote no results \(exit 1\):\nTraceback"):
            pairs.report_diff(tmp_path, tmp_path)


class TestBenchPairsRows:
    def test_every_row_rotates_the_three_trees(self, monkeypatch):
        # with an A/A copy each row runs the parent, the change and the copy
        # in turn, the first of them rotating from pair to pair
        pairs = load("bench_pairs")
        order = []
        values = {"failed": 0} | {name: 1.0 for name in pairs.END_TO_END}
        monkeypatch.setattr(pairs, "bench_run", lambda tree, workload, seed, seconds:
                            order.append((workload, tree)) or values)
        monkeypatch.setattr(pairs, "layer_run", lambda tree: order.append(("layers", tree)) or {"row: row": 0.5})
        monkeypatch.setattr(pairs, "timed_call", lambda tree, argv: order.append((f"workers_{argv[-1]}", tree))
                            or {"failed": 0, "wall_s": 1.0, "cpu_s": 1.0})
        out = pairs.pairs("parent", "change", 4, 1.0, aa="aa")
        rows = [*pairs.WORKLOADS, "layers", "workers_1", "workers_2"]
        trees = ["parent", "change", "aa"]
        assert order == [(row, tree) for k in (0, 1, 2, 0) for row in rows for tree in trees[k:] + trees[:k]]
        assert list(out) == rows
        for row in ("workers_1", "workers_2"):
            assert set(out[row]["metrics"]) == {"wall_s", "cpu_s"}
            for metric in out[row]["metrics"].values():
                assert metric["aa"]["copy"] == [1.0] * 4 and metric["unresolved"] is False
            assert out[row]["failed"] == {tree: [0] * 4 for tree in trees}

    def test_workers_rows_count_non_zero_exits_per_tree(self, monkeypatch):
        pairs = load("bench_pairs")
        monkeypatch.setattr(pairs, "bench_run", lambda tree, workload, seed, seconds:
                            {"failed": 0} | {name: 1.0 for name in pairs.END_TO_END})
        monkeypatch.setattr(pairs, "layer_run", lambda tree: {"row: row": 0.5})
        calls = []

        def run(argv, cwd, **kwargs):
            # the subprocess of timed_call: the parent fails every run, the
            # change only its second one at one worker
            command = json.loads(argv[3])
            calls.append((cwd, command))
            n = command[command.index("--workers") + 1]
            code = 1 if cwd == "parent" or (n == "1" and calls.count((cwd, command)) == 2) else 0
            return subprocess.CompletedProcess(argv, 0, json.dumps({"code": code, "wall_s": 1.0, "cpu_s": 0.5}), "")

        monkeypatch.setattr(pairs.subprocess, "run", run)
        out = pairs.pairs("parent", "change", 2, 1.0)
        assert out["workers_1"]["failed"] == {"parent": [1, 1], "change": [0, 1]}
        assert out["workers_2"]["failed"] == {"parent": [1, 1], "change": [0, 0]}
        assert out["workers_2"]["metrics"]["cpu_s"]["change"] == [0.5, 0.5]
        assert {tuple(command) for _, command in calls} == {
            tuple(pairs.WORKERS_ARGV + ["--workers", n, "--out", "/dev/null"]) for n in ("1", "2")}
        assert pairs.WORKERS_ARGV == ["resolution", "--mode", "mc", "--modes", "6", "--samples", "16000",
                                      "--seed", "1"]


class TestReportDiff:
    @pytest.fixture(scope="class")
    def diff(self):
        return load("report_diff")

    def test_the_checkout_against_itself_is_identical(self, diff, monkeypatch, capsys):
        monkeypatch.setattr(diff, "COMMANDS", [["selberg", "--max-modes", "2"]])
        assert diff.main(["--parent", str(SCRIPTS.parent)]) == 0
        assert capsys.readouterr().out == "selberg --max-modes 2: identical\n"

    def test_numbers_verdicts_and_names(self, diff):
        def text(name="c", measured=1.0, passed=True):
            return json.dumps({"criteria": [{"name": name, "measured": measured, "passed": passed}]}, indent=2)

        assert diff.compare(text(), text()) == {"result": "identical"}
        assert diff.compare(text(), text(measured=1.5)) == {
            "result": "numeric", "max_change": 0.5, "where": ".criteria['c'].measured"
        }
        assert diff.compare(text(), text(passed=False))["verdicts"] == [".criteria['c'].passed: True -> False"]
        assert diff.compare(text(), text(name="d"))["names"] == [".criteria['c'].name: 'c' -> 'd'"]
        assert diff.compare(text(), None)["result"] == "changed"

    def test_a_dump_one_ulp_off_is_numeric(self, diff):
        dump = "lambda_1,lambda_2\n0.5,1\n"
        assert diff.compare("{}", "{}", (dump, dump)) == {"result": "identical"}
        ulp = dump.replace("0.5", "0.50000000000000011")
        assert diff.compare("{}", "{}", (dump, ulp)) == {
            "result": "numeric", "max_change": 2.0**-53, "where": ".csv.rows[0][0]"
        }

    def test_a_missing_dump_is_changed(self, diff):
        res = diff.compare("{}", "{}", ("lambda_1\n0.5\n", None))
        assert (res["result"], res["keys"]) == ("changed", [": ['csv'] -> []"])

    def test_a_dumping_command_compares_its_csv(self, diff, monkeypatch, capsys):
        argv = ["ensembles", "--samples", "20", "--burn-in", "20", "--csv"]
        monkeypatch.setattr(diff, "COMMANDS", [argv])
        assert diff.main(["--parent", str(SCRIPTS.parent)]) == 0
        assert capsys.readouterr().out == " ".join(argv) + ": identical\n"
