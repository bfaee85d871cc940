"""Smoke tests of the timing scripts: a rename in src/ breaks these, not the
next timing session."""

import collections
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


def workload_command(name):
    """The one command of a benchmark workload, read from benchmark/workloads.py."""
    (command,) = load("workloads", ROOT / "benchmark").WORKLOADS[name].commands
    return command


def spy_rows(monkeypatch, layers, steps):
    """Wrap each (module, name) of ``steps`` where its callers look it up,
    before bench_layers.py wraps it in turn, to log its calls: one Counter
    per row that tables() times (rows go through _row once each, in order),
    and every call made while another of ``steps`` runs, as (outer, inner)."""
    per_row, nested, running = [], [], []
    for module, name in steps:
        def spy(*args, name=name, fn=getattr(module, name), **kwargs):
            per_row[-1][name] += 1
            nested.extend((outer, name) for outer in running[-1:])
            running.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                running.pop()

        monkeypatch.setattr(module, name, spy)

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
        assert nested == []  # no listed step runs inside another
        mc_m6, nc = ("cli.run " + " ".join(workload_command(name)) for name in ("mc_m6", "nc_modified"))
        resolution = ["sample_class_d_batch", "real_form", "real_form_pair_rows", "wick_coordinates", "_fock_check"]
        report = ["_mc_report", "estimator_to_criterion", "build_report", "write_report"]
        assert {name: list(row) for name, row in rows.items()} == {
            **{f"verify_resolution_mc M={m} chunk=8": ["verify_resolution_mc"] + resolution for m in range(1, 7)},
            mc_m6: ["cli.run"] + resolution + report,
            nc: ["cli.run", "class_d_pair_values", "_haar_column_normals", "_rank_one_pair_rows", "wick_coordinates",
                 "_fock_check"] + report,
            "verify_resolution_quadrature M=2": ["verify_resolution_quadrature", "radial_quadrature_nodes",
                                                 "filling_moments", "moment_wick_coordinates", "_fock_check"],
            "operator_identity_suite M=3 trials=50": ["operator_identity_suite"]
            + [trial.__name__ for trial, _ in verify._IDENTITY_TRIALS],
            "selberg_consistency_suite M=6": ["selberg_consistency_suite", *layers.SELBERG_STEPS],
        }
        for name, row in rows.items():
            # one whole-call layer, named after the row's first word and listed first
            assert [layer for layer in row if layer == name.split()[0]] == [list(row)[0]]
            faults = row[name.split()[0]]["minor_faults"]
            assert isinstance(faults, int) and faults >= 0
            for t in row.values():
                assert 0.0 < t["min_s"] <= t["median_s"]
        # a chunk row's worker draws one chunk: the driver's 16 chunks of 8 never run
        assert [c["sample_class_d_batch"] for c in per_row[:6]] == [2] * 6
        suite = list(rows).index("operator_identity_suite M=3 trials=50")
        assert max(n for i, n in assembled if i != suite) == verify.FOCK_CHECK_DRAWS
        assert max(n for i, n in assembled if i == suite) == 50  # the suite's largest stack: its 50 composition pairs

    def test_the_rows_time_the_code_that_runs(self, small_layers, monkeypatch):
        # a step wrapped at the name the workers look it up by is called by
        # the rows that time them: no row runs a copy of a worker
        spied = [(verify, "real_form_pair_rows"), (verify, "_rank_one_pair_rows"), (selberg, "selberg_integral_log")]
        per_row, _ = spy_rows(monkeypatch, small_layers, spied)
        called = dict(zip(small_layers.tables(), per_row))
        chunks = [c for name, c in called.items() if name.startswith("verify_resolution_mc")]
        assert [bool(c["real_form_pair_rows"]) for c in chunks] == [True] * 6
        mc_m6, nc = (called["cli.run " + " ".join(workload_command(name))] for name in ("mc_m6", "nc_modified"))
        assert mc_m6["real_form_pair_rows"] and nc["_rank_one_pair_rows"]
        # the closed-form row's suite calls the closed forms at their selberg names
        assert [name for name, c in called.items() if c["selberg_integral_log"]] == ["selberg_consistency_suite M=6"]


class TestBenchmarkFacts:
    # bench_pairs.py runs the workloads of BENCHMARK.json, read here on their
    # own (bench_layers.py's sizes are held to benchmark/workloads.py by the
    # names of its rows, in TestBenchLayers)

    def test_bench_pairs_runs_the_benchmark_workloads(self):
        names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
        assert list(load("bench_pairs").WORKLOADS) == names
        assert set(names) <= set(load("workloads", ROOT / "benchmark").WORKLOADS)


class TestBenchPairsSummary:
    @pytest.fixture(scope="class")
    def pairs(self):
        return load("bench_pairs")

    def test_ratios_wins_and_aa_spread(self, pairs):
        out = pairs.summary([1.0, 2.0, 4.0, 1.0], [0.5, 2.2, 2.0, 0.9], True, [1.1, 1.8, 4.0, 1.05])
        assert out["ratios"] == pytest.approx([0.5, 1.1, 0.5, 0.9])
        assert out["change_won"] == 3
        assert out["parent_median"] == 1.5 and out["change_median"] == pytest.approx(1.45)
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
    @pytest.mark.parametrize("flags", [["--pairs", "1"], ["--pairs", "0"], ["--worker-pairs", "0"]])
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
        monkeypatch.setattr(pairs, "timed_call", lambda tree, argv: {"code": 0, "wall_s": 1.0, "cpu_s": 1.0})
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
                                                "--pairs", "2", "--worker-pairs", "1", "--out", str(out)])
        assert pairs.main() == 1  # report_diff.py's exit code
        doc = json.loads(out.read_text())
        assert list(doc) == ["kept", "settings", "pairs", "workers", "report_diff"]
        assert doc["report_diff"] == {"exit_code": 1, "commands": results}
        assert doc["pairs"]["nc_modified"]["metrics"]["wall_s"]["change_won"] == 0
        [argv] = diff_calls
        assert Path(argv[1]) == SCRIPTS / "report_diff.py"
        assert argv[2:6] == ["--parent", str(parent), "--change", str(change)]

    def test_a_report_diff_that_writes_no_results_stops_the_session(self, monkeypatch, tmp_path):
        pairs = load("bench_pairs")
        monkeypatch.setattr(pairs.subprocess, "run",
                            lambda argv, **kwargs: subprocess.CompletedProcess(argv, 1, "", "Traceback"))
        with pytest.raises(RuntimeError, match=r"wrote no results \(exit 1\):\nTraceback"):
            pairs.report_diff(tmp_path, tmp_path)


class TestBenchPairsWorkers:
    def test_failed_counts_the_non_zero_exit_codes_per_worker_count(self, monkeypatch, capsys):
        pairs = load("bench_pairs")
        calls = []

        def timed_call(tree, argv):
            calls.append((tree, argv))
            n = argv[argv.index("--workers") + 1]
            # the parent fails every run, the change only its second one at one worker
            code = 1 if tree == "parent" or (n == "1" and calls.count((tree, argv)) == 2) else 0
            return {"code": code, "wall_s": 1.0, "cpu_s": 1.0}

        monkeypatch.setattr(pairs, "timed_call", timed_call)
        out = pairs.workers("parent", "change", 2)
        assert out["parent"]["failed"] == {"1": 2, "2": 2}
        assert out["change"]["failed"] == {"1": 1, "2": 0}
        assert all(argv[:-2] == pairs.WORKERS_ARGV for _, argv in calls)
        err = capsys.readouterr().err.splitlines()
        assert err[0].endswith("failed 2 and 2 of 2") and err[1].endswith("failed 1 and 0 of 2")


    def test_the_trees_alternate_within_each_pair(self, monkeypatch):
        # each worker count runs in both trees back to back; which tree and
        # which count go first alternates from pair to pair
        pairs = load("bench_pairs")
        order = []
        monkeypatch.setattr(pairs, "timed_call", lambda tree, argv: order.append((tree, argv[-1]))
                            or {"code": 0, "wall_s": 1.0, "cpu_s": 1.0})
        out = pairs.workers("parent", "change", 3)
        assert order == [
            ("parent", "1"), ("change", "1"), ("parent", "2"), ("change", "2"),
            ("change", "2"), ("parent", "2"), ("change", "1"), ("parent", "1"),
            ("parent", "1"), ("change", "1"), ("parent", "2"), ("change", "2"),
        ]
        assert all(len(out[tree][f"workers_{n}"]) == 3 for tree in ("parent", "change") for n in (1, 2))

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
