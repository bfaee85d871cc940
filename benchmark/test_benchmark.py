"""Tests of the benchmark itself: the checker's power, the tracer's accounting
and robustness, and agreement with BENCHMARK.json.

    python3 -m pytest benchmark
"""

import copy
import json
import math
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import MIN_RUNS, WORKLOADS  # noqa: E402

from fermigauss import cli  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def cli_report(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = cli.run([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def mc_report(tmp_path_factory):
    code, doc = cli_report(
        tmp_path_factory.mktemp("mc"), "resolution", "--mode", "mc", "--modes", "2", "--samples", "16000"
    )
    assert code == 0
    return doc


@pytest.fixture(scope="module")
def identities_report(tmp_path_factory):
    code, doc = cli_report(tmp_path_factory.mktemp("id"), "identities", "--modes", "2", "--trials", "4")
    assert code == 0
    return doc


def entry(doc, row, col):
    crit = doc["criteria"][0]["measured"]
    return crit["entries"][row * crit["dimension"] + col]


class TestCheckerPower:
    def test_passing_reports_pass(self, mc_report, identities_report):
        assert checker.check_call(0, None, mc_report) is None
        assert checker.check_call(0, None, identities_report) is None

    def test_perturbed_mean_fails(self, mc_report):
        for row, col in ((0, 0), (1, 2)):
            doc = copy.deepcopy(mc_report)
            entry(doc, row, col)[0] += 10 * doc["criteria"][0]["max_abs_deviation"]
            kind, cause = checker.check_call(0, None, doc)
            assert kind == "invalid" and "recomputed from the matrices" in cause

    def test_perturbed_mean_with_consistent_deviation_fails_trace(self, mc_report):
        doc = copy.deepcopy(mc_report)
        entry(doc, 0, 0)[0] += 1e-9
        crit = doc["criteria"][0]
        crit["max_abs_deviation"] = max(crit["max_abs_deviation"], abs(entry(doc, 0, 0)[0] - 0.25))
        kind, cause = checker.check_call(0, None, doc)
        assert kind == "invalid" and "trace" in cause

    def test_mean_outside_gate_fails(self, mc_report):
        doc = copy.deepcopy(mc_report)
        crit = doc["criteria"][0]
        crit["tolerance_or_se"]["matrix"][1][2] = 1e-30
        entry(doc, 1, 2)[0] = crit["max_abs_deviation"] / 2
        crit["max_abs_deviation"] = max(crit["max_abs_deviation"], abs(complex(*entry(doc, 1, 2))))
        kind, cause = checker.check_call(0, None, doc)
        assert kind == "invalid" and "PASS although the gate fails" in cause

    @pytest.mark.parametrize("where", ["measured", "se", "scalar"])
    def test_nan_entry_fails(self, mc_report, identities_report, where):
        doc = copy.deepcopy(identities_report if where == "scalar" else mc_report)
        if where == "measured":
            entry(doc, 0, 1)[1] = math.nan
        elif where == "se":
            doc["criteria"][0]["tolerance_or_se"]["matrix"][0][0] = math.nan
        else:
            doc["criteria"][0]["measured"] = math.nan
        kind, cause = checker.check_call(0, None, doc)
        assert kind == "invalid" and cause.startswith("non-finite")

    def test_flipped_verdict_fails(self, mc_report, identities_report):
        kinds = []
        for report in (mc_report, identities_report):
            doc = copy.deepcopy(report)
            doc["criteria"][-1]["passed"] = False
            doc["passed"] = False
            kinds.append(checker.check_call(1, None, doc)[0])
            doc["passed"] = True
            assert checker.check_call(0, None, doc)[0] == "invalid"
        # an MC FAIL may come from a rule beyond the entry gate, so it is a
        # failed verdict; a scalar FAIL below its tolerance contradicts itself
        assert kinds == ["verdict", "invalid"]

    def test_pass_verdict_against_the_measurement_fails(self, identities_report):
        doc = copy.deepcopy(identities_report)
        crit = doc["criteria"][3]
        crit["measured"] = 10 * crit["tolerance_or_se"] + 1.0
        kind, cause = checker.check_call(0, None, doc)
        assert kind == "invalid" and "contradicts" in cause

    def test_exit_two_and_raise_are_errors(self):
        assert checker.check_call(2, None, None, "error: bad")[0] == "error"
        assert checker.check_call(None, ValueError("boom"), None)[0] == "error"
        assert checker.check_call(0, None, None)[0] == "error"

    def test_tally_lists_each_failure(self, tmp_path, mc_report):
        bad = copy.deepcopy(mc_report)
        entry(bad, 0, 0)[0] = math.nan
        paths = []
        for k, doc in enumerate((mc_report, bad)):
            paths.append(tmp_path / f"{k}.json")
            paths[-1].write_text(json.dumps(doc))
        tally = run.Tally()
        tally.record([(["a"], 0, None, "", paths[0]), (["b"], 0, None, "", paths[1]), (["c"], 2, None, "x", tmp_path / "none")])
        assert tally.attempted == 3
        assert [(kind, cmd) for kind, cmd, _ in tally.failures] == [("invalid", "b"), ("error", "c")]
        assert not any(p.exists() for p in paths)


def fake_layer_module():
    mod = types.ModuleType("fake_layers")
    mod.outer = lambda inner_calls: [mod.inner(n) for n in inner_calls]
    mod.inner = lambda n: list(range(n))
    return mod


class TestTracer:
    def test_missing_function_makes_layer_absent_and_run_survives(self, monkeypatch):
        mod = fake_layer_module()
        monkeypatch.setitem(sys.modules, "fake_layers", mod)
        targets = (
            ("fake_layers", "outer", "verify", None),
            ("fake_layers", "inner", "fock.assemble", tracing._matrices("n")),
            ("fake_layers", "renamed_away", "fock.assemble", None),
            ("no_such_module", "f", "selberg", None),
        )
        original = mod.inner
        with tracing.Tracer(targets) as tracer:
            assert mod.outer([1, 2]) == [[0], [0, 1]]
        assert mod.inner is original
        assert tracer.absent == {"fock.assemble", "selberg"}
        metrics = tracing.layer_metrics(tracer.spans, 1.0, tracer.absent, tracer.uncounted)
        assert not any(name.startswith(("fock.assemble", "selberg")) for name in metrics)
        assert "verify.self_s" in metrics

    def test_counter_error_drops_only_counts(self, monkeypatch):
        mod = fake_layer_module()
        monkeypatch.setitem(sys.modules, "fake_layers", mod)
        targets = (("fake_layers", "inner", "fock.assemble", tracing._matrices("no_such_arg")),)
        with tracing.Tracer(targets) as tracer:
            assert mod.inner(3) == [0, 1, 2]
        metrics = tracing.layer_metrics(tracer.spans, 1.0, tracer.absent, tracer.uncounted)
        assert "fock.assemble.busy_s" in metrics
        assert "fock.assemble.matrices" not in metrics

    def test_self_times_account_for_the_wall_with_threads(self):
        S = tracing.Span
        verifier = S("verify_resolution_mc", "verify", None, 1, 1.0, 9.0, {"workers": 2})
        spans = [
            S("run", "cli", None, 1, 0.5, 9.5),
            verifier,
            S("quadratic_hamiltonian_batch", "fock.assemble", verifier, 2, 2.0, 6.0, {"matrices": 4}),
            S("exp_normalized_fock_batch", "gaussian.expnorm", verifier, 3, 3.0, 8.0, {"matrices": 4}),
        ]
        spans[1].parent = spans[0]
        m = tracing.layer_metrics(spans, 10.0)
        assert m["cli.self_s"] == pytest.approx(1.0)
        assert m["verify.self_s"] == pytest.approx(2.0)
        assert m["fock.assemble.ns_per_matrix"] == pytest.approx(1e9)
        assert m["trace.thread_overlap_s"] == pytest.approx(3.0)
        assert m["verify.worker_util"] == pytest.approx(9.0 / 16.0)
        selfs = sum(v for k, v in m.items() if k.endswith(("busy_s", "self_s")) and k != "reports.git_describe_s")
        assert selfs - m["trace.thread_overlap_s"] + m["trace.remainder_s"] == pytest.approx(10.0)

    def test_worker_thread_spans_attach_to_the_verifier(self, monkeypatch):
        mod = fake_layer_module()

        def outer(n):
            worker = threading.Thread(target=mod.inner, args=(n,))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

        mod.outer = outer
        monkeypatch.setitem(sys.modules, "fake_layers", mod)
        targets = (("fake_layers", "outer", "verify", None), ("fake_layers", "inner", "fock.scalar", None))
        with tracing.Tracer(targets) as tracer:
            mod.outer(5)
        inner = next(s for s in tracer.spans if s.name == "inner")
        assert inner.parent is not None and inner.parent.name == "outer"

    def test_traced_checks_run_gives_every_layer_metric(self, tmp_path):
        with tracing.Tracer() as tracer:
            wall, _, calls = run.run_once(cli, [("selberg", "--consistency")], 0, tmp_path)
        assert not tracer.absent and not tracer.uncounted
        tally = run.Tally()
        tally.record(calls)
        assert tally.failures == []
        metrics = tracing.layer_metrics(tracer.spans, wall)
        assert set(metrics) == set(tracing.METRICS) - {"trace.overhead_s"}
        assert metrics["selberg.calls"] > 0 and metrics["reports.bytes"] > 0


def test_speed_scale_reports_times_at_the_nominal_gauge_time():
    assert speed.gauge_s() > 0
    assert speed.scale(speed.NOMINAL_S, speed.NOMINAL_S) == pytest.approx(1.0)
    assert speed.scale(2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S) == pytest.approx(0.5)


def test_run_count_depends_only_on_seconds():
    workload = WORKLOADS["mc_m6"]
    assert workload.runs(30) == round(30 / workload.run_s)
    assert workload.runs(30, per_run=2) == round(30 / (2 * workload.run_s))
    assert workload.runs(0.1) == workload.runs(0.1, per_run=2) == MIN_RUNS


class TestSpec:
    def test_workloads_match(self):
        # mc_small_w2 stays runnable by hand but is not gated: its scaled
        # wall time spread by 17% across seeds (see README)
        gated = {n: w.why for n, w in WORKLOADS.items() if n != "mc_small_w2"}
        assert {w["name"]: w["why"] for w in SPEC["workloads"]} == gated
        assert all(len(w.why) <= 200 for w in WORKLOADS.values())

    def test_metric_names_and_units_match(self):
        assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {n: tracing.unit(n) for n in tracing.METRICS}
        assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS

    def test_predictions_cover_every_workload_and_name_real_metrics(self):
        predictions = json.loads((HERE / "predictions.json").read_text())
        assert set(predictions["workloads"]) == set(WORKLOADS)
        layers = {layer for _, _, layer, _ in tracing.TARGETS}
        for workload in predictions["workloads"].values():
            assert set(workload["stresses"]) <= layers
            assert set(workload["end_to_end"]) == set(workload["per_layer"]) == set(predictions["items"])
            for item in workload["end_to_end"].values():
                assert set(item) <= set(run.UNITS) | {"fail_ratio"}
                assert set(item.values()) <= {"down", "up"}
            for item in workload["per_layer"].values():
                assert set(item) <= set(tracing.METRICS)
                assert set(item.values()) <= {"down", "up"}
