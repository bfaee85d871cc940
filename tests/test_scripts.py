"""Smoke tests of the timing scripts: a rename in src/ breaks these, not the
next timing session."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from fermigauss import fock, verify

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchLayers:
    def test_every_row_runs_against_src(self, monkeypatch):
        layers = load("bench_layers")
        monkeypatch.setattr(layers, "CHUNK", 8)
        monkeypatch.setattr(layers, "REPEATS", 1)
        monkeypatch.setattr(layers, "SMALL_REPEATS", 1)
        assembled, row = {}, ["driver rows"]  # the sizes of every stack built through the Fock construction
        for module in (fock, verify):
            build = module.quadratic_hamiltonian_batch
            monkeypatch.setattr(module, "quadratic_hamiltonian_batch",
                                lambda mats, build=build: assembled.setdefault(row[0], []).append(len(mats)) or build(mats))

        def identity_row(repeats, _real=layers.identity_row):
            row[0] = "identity row"
            try:
                return _real(repeats)
            finally:
                row[0] = "driver rows"

        monkeypatch.setattr(layers, "identity_row", identity_row)
        trials = verify._IDENTITY_TRIALS
        rows = layers.tables()
        assert verify._IDENTITY_TRIALS is trials  # the identity row puts the table back
        resolution = ["sample_class_d_batch", "covariance", "wick_coordinates", "scatter", "_fock_check"]
        assert {name: list(row) for name, row in rows.items()} == {
            **{f"verify_resolution_mc M={m} chunk=8": resolution for m in range(1, 7)},
            "verify_resolution_mc M=6 chunk=25": resolution,
            "verify_nc_modified M=2 chunk=1563": ["class_d_pairs", "rank_one_filling", "wick_mean"],
            "_cmd_resolution report M=6 samples=400": ["estimator_to_criterion", "build_report", "write_report"],
            "verify_resolution_quadrature M=2": ["verify_resolution_quadrature"],
            "operator_identity_suite M=3 trials=50": ["operator_identity_suite"]
            + [trial.__name__ for trial, _ in verify._IDENTITY_TRIALS],
        }
        for row in rows.values():
            for t in row.values():
                assert 0.0 < t["min_s"] <= t["median_s"]
        assert max(assembled["driver rows"]) == verify.FOCK_CHECK_DRAWS
        assert max(assembled["identity row"]) == 50  # the suite's largest stack: its 50 composition pairs


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
        # a row's layer named after its call times the whole call; the row's other layers nest inside it
        run = {"verify_resolution_mc M=1 chunk=8: covariance": 1.0, "verify_resolution_mc M=1 chunk=8: scatter": 2.0,
               "operator_identity_suite M=3 trials=50: operator_identity_suite": 4.0,
               "operator_identity_suite M=3 trials=50: _composition": 3.0}
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
            calls.append(argv)
            n = argv[argv.index("--workers") + 1]
            # the parent fails every run, the change only its second one at one worker
            code = 1 if tree == "parent" or (n == "1" and len(calls) == 8) else 0
            return {"code": code, "wall_s": 1.0, "cpu_s": 1.0}

        monkeypatch.setattr(pairs, "timed_call", timed_call)
        out = pairs.workers("parent", "change", 2)
        assert out["parent"]["failed"] == {"1": 2, "2": 2}
        assert out["change"]["failed"] == {"1": 1, "2": 0}
        assert all(argv[:-2] == pairs.WORKERS_ARGV for argv in calls)
        err = capsys.readouterr().err.splitlines()
        assert err[0].endswith("failed 2 and 2 of 2") and err[1].endswith("failed 1 and 0 of 2")


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
