import ast
import contextlib
import dataclasses
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fermigauss import blas, cli, ensembles, reports, verify
from fermigauss.cli import run
from fermigauss.ensembles import CLASS_D, CLASS_DIII, RadialLaw, WeightSpec
from fermigauss.verify import operator_identity_suite, radial_quadrature_nodes


def read_report(path):
    return json.loads(path.read_text())


def strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


class TestExitCodes:
    def test_identities_pass(self, tmp_path):
        assert run(["identities", "--modes", "3", "--seed", "42", "--trials", "8"]) == 0

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["resolution", "--nope"]) == 2

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_nc_failure_stops_at_the_mode_cap(self, capsys):
        assert run(["number-conserving", "--variant", "failure", "--modes", "7"]) == 2
        assert "modes" in capsys.readouterr().err

    @pytest.mark.parametrize("modes", range(1, 7))
    def test_nc_failure_passes_at_every_mode_count(self, modes, tmp_path):
        # by quadrature at M <= 2, by 16000 GUE draws above, each against its
        # exact target, and every report holds up in the benchmark's checker
        out = tmp_path / "nc.json"
        argv = ["number-conserving", "--variant", "failure", "--modes", str(modes), "--seed", "5", "--out", str(out)]
        assert run(argv + (["--samples", "16000"] if modes > 2 else [])) == 0
        crit = read_report(out)["criteria"][0]
        want = verify.nc_even_target(modes, 1.0)
        assert np.array_equal(np.array(crit["target"]["entries"])[:, 0].reshape(want.shape), want)
        assert CHECKER.check_call(0, None, read_report(out)) is None

    def test_mc_with_determinant_weight_rejected(self):
        assert run(["resolution", "--mode", "mc", "--weight", "determinant"]) == 2

    def test_nc_failure_runs_away_from_unit_stiffness(self):
        assert run(["number-conserving", "--variant", "failure", "--modes", "2", "-p", "2"]) == 0

    def test_nc_failure_rejects_zero_stiffness(self, capsys):
        assert run(["number-conserving", "--variant", "failure", "--modes", "2", "-p", "0"]) == 2
        assert "p > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize("where", ["a directory", "under a file"])
    def test_an_unwritable_path_exits_2_naming_it(self, flag, where, tmp_path, capsys):
        (tmp_path / "file").touch()
        path, named = (tmp_path, tmp_path) if where == "a directory" else (tmp_path / "file" / "x", tmp_path / "file")
        assert run(["resolution", "--mode", "mc", "--modes", "1", "--samples", "16", flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {named}: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["resolution", "--mode", "quad", "--modes", "1"],
            ["resolution", "--mode", "mc", "--modes", "1", "--samples", "16"],
            ["number-conserving", "--variant", "failure"],
            ["number-conserving", "--variant", "modified", "--samples", "16"],
        ],
    )
    def test_a_quadrature_order_is_no_option(self, argv, capsys):
        # every quadrature run reads the one 120-node rule
        assert run(argv + ["--quad-order", "20"]) == 2
        assert "unrecognized arguments: --quad-order 20" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["resolution", "--mode", "mc", "--samples", "16"],
            ["resolution", "--mode", "quad"],
            ["number-conserving", "--variant", "failure"],
            ["number-conserving", "--variant", "modified", "--samples", "16"],
        ],
    )
    def test_non_finite_stiffness_is_domain_error(self, argv, value, capsys):
        assert run(argv + ["-p", value]) == 2
        assert f"got p = {value}" in capsys.readouterr().err

    def test_zero_modes_is_capacity_error_before_any_work(self, capsys):
        assert run(["resolution", "--mode", "mc", "--modes", "0", "--samples", "16"]) == 2
        assert "need modes >= 1, got modes = 0" in capsys.readouterr().err

    def test_radial_sampler_has_no_fock_cap(self):
        assert run(["ensembles", "--modes", "7", "--samples", "50", "--burn-in", "200"]) in (0, 1)

    def test_non_finite_beta_is_domain_error(self, capsys):
        assert run(["canonical", "--betas", "0,nan", "--samples", "16"]) == 2
        assert "got beta = nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["resolution", "--mode", "quad", "--modes", "2", "-p", "1e-300"], "p = 1e-300"),
            (["resolution", "--mode", "quad", "--modes", "2", "-p", "1e300"], "p = 1e+300"),
            (["resolution", "--mode", "quad", "--modes", "2", "--weight", "determinant", "-p", "1e300"], "p = 1e+300"),
            (["number-conserving", "--variant", "failure", "-p", "1e-300"], "p = 1e-300"),
            (["number-conserving", "--variant", "failure", "-p", "1e300"], "p = 1e+300"),
        ],
    )
    def test_extreme_stiffness_is_domain_error_without_warning(self, argv, named, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == 2
        assert caught == []
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["-p", "1e305"],
            ["-p", "1e-320"],
            ["--weight", "nc_even", "-p", "1e-320"],
            ["-p", "1e300"],
            ["-p", "1e-308"],
            ["--symmetry-class", "C", "--weight", "nc_even"],
            ["--symmetry-class", "CI", "--weight", "nc_modified"],
        ],
    )
    def test_ensembles_outside_its_law_is_one_error_line(self, argv, capsys):
        # the walk redrew its start forever at the first three, drew a biased law at the next two,
        # and ran the hermitian law under a class label that its report recorded at the last two
        assert run(["ensembles", "--samples", "50", "--burn-in", "100", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_ensembles_nc_weights_run_under_the_default_class(self, tmp_path):
        for kind in ("nc_even", "nc_modified"):
            argv = ["ensembles", "--weight", kind, "--samples", "50", "--burn-in", "100"]
            assert run([*argv, "--out", str(tmp_path / "r.json")]) in (0, 1)
            assert json.loads((tmp_path / "r.json").read_text())["parameters"]["sym_class"] == "D"

    @pytest.mark.parametrize(
        "argv",
        [
            ["resolution", "--mode", "mc", "--modes", "2", "--samples", "64"],
            ["number-conserving", "--variant", "modified", "--samples", "64"],
            ["canonical", "--betas", "0,0.5", "--samples", "64"],
        ],
    )
    def test_monte_carlo_gate_judging_no_entry_is_domain_error(self, argv, capsys):
        # at p = 1e300 every draw is below rounding and every operator is 2^-M I
        assert run(argv + ["-p", "1e300"]) == 2
        err = capsys.readouterr().err
        assert "p = 1e+300" in err and "judge no entry" in err

    def test_canonical_beta_zero_alone_runs_at_huge_stiffness(self):
        # beta = 0 is exact by construction, so its report means something at any p
        assert run(["canonical", "--betas", "0", "-p", "1e300", "--samples", "16"]) == 0

    @pytest.mark.parametrize("modes, p", [("1", "1e300"), ("2", "1e30")])
    def test_quadrature_that_cannot_fail_is_domain_error(self, modes, p, capsys):
        # every node has |tanh(lam / 2)| <= 5.2e-15, so every operator, and
        # their mean, is within that of 2^-M I
        assert run(["resolution", "--mode", "quad", "--modes", modes, "-p", p]) == 2
        err = capsys.readouterr().err
        assert f"p = {float(p)}" in err and "could not fail" in err

    @pytest.mark.parametrize("p", ["1e15", "1e16", "1e30", "1e60", "1e100"])
    def test_nc_failure_floor_below_rounding_is_domain_error(self, p, capsys):
        # the residual is below the rounding of the 1/4 entries: it failed the
        # floor at 1e16 and 1e30 and passed it on rounding at 1e60 and 1e100
        assert run(["number-conserving", "--variant", "failure", "-p", p]) == 2
        err = capsys.readouterr().err
        assert f"p = {float(p)}" in err and "rounding level" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["resolution", "--mode", "quad", "--modes", "2", "-p", "1e12"],
            ["number-conserving", "--variant", "failure", "-p", "1e10"],
            ["number-conserving", "--variant", "failure", "-p", "1e12"],
        ],
    )
    def test_quadrature_runs_at_large_testable_stiffness(self, argv):
        assert run(argv) == 0

    @pytest.mark.parametrize("label", ["C", "DIII", "CI"])
    def test_mc_with_other_symmetry_class_rejected(self, label, capsys):
        assert run(["resolution", "--mode", "mc", "--symmetry-class", label, "--samples", "16"]) == 2
        assert f"class D only, got --symmetry-class {label}" in capsys.readouterr().err

    def test_large_beta_runs_without_overflow(self):
        assert run(["canonical", "--betas", "0,1000", "--samples", "4000"]) in (0, 1)

    def test_beta_times_energy_past_float_range_is_domain_error(self, capsys):
        assert run(["canonical", "--betas", "0,1e308", "-p", "0.01", "--samples", "64"]) == 2
        assert "beta = 1e+308" in capsys.readouterr().err

    def test_non_numeric_beta_is_usage_error(self, capsys):
        assert run(["canonical", "--betas", "0,abc", "--samples", "16"]) == 2
        assert "got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["identities", "--modes", "0"], "need max_modes >= 1, got max_modes = 0"),
            (["identities", "--trials", "0"], "trials >= 1, got trials = 0"),
            (["resolution", "--mode", "mc", "--samples", "16", "--workers", "0"], "workers >= 1, got 0"),
            (["resolution", "--mode", "mc", "--samples", "16", "--workers", "-1"], "workers >= 1, got -1"),
            (["selberg", "--consistency", "--max-modes", "0"], "max_modes >= 1, got max_modes = 0"),
            (["ensembles", "--samples", "10", "--thin", "0"], "thin = 0"),
            (["ensembles", "--samples", "10", "--burn-in", "-5"], "burn_in = -5"),
            (["ensembles", "--samples", "10", "--modes", "0"], "modes = 0"),
            (["ensembles", "--samples", "10", "--modes", "-1"], "modes = -1"),
            (["identities", "--seed", "-1"], "seed = -1"),
            (["resolution", "--mode", "mc", "--samples", "16", "--seed", "-1"], "seed = -1"),
            (["resolution", "--mode", "quad", "--stream", "-1"], "stream = -1"),
            (["canonical", "--samples", "16", "--stream", "-1"], "stream = -1"),
            (["number-conserving", "--variant", "modified", "--samples", "16", "--seed", "-1"], "seed = -1"),
            (["number-conserving", "--variant", "failure", "--stream", "-1"], "stream = -1"),
            (["selberg", "--consistency", "--seed", "-1"], "seed = -1"),
            (["ensembles", "--samples", "10", "--stream", "-1"], "stream = -1"),
            # counts that the chosen mode ignores are checked all the same
            (["resolution", "--mode", "quad", "--workers", "0", "--samples", "-3"], "workers >= 1, got 0"),
            (["resolution", "--mode", "quad", "--samples", "-3"], "argument --samples: need samples >= 1, got -3"),
            (["number-conserving", "--variant", "failure", "--workers", "-1", "--samples", "0"], "workers >= 1, got -1"),
            (["number-conserving", "--variant", "failure", "--samples", "0"], "samples >= 1, got 0"),
            (["canonical", "--samples", "0"], "samples >= 1, got 0"),
            (["ensembles", "--samples", "0"], "samples >= 1, got 0"),
        ],
    )
    def test_out_of_range_count_is_usage_error(self, argv, message, capsys):
        assert run(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, suite", [("identities", "operator_identity_suite"), ("selberg", "selberg_consistency_suite")]
    )
    def test_bad_stream_fails_before_the_suite_runs(self, command, suite, monkeypatch):
        # a bad stream fails at parse time, before either suite runs
        def ran(*args):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, suite, ran)
        assert run([command, "--stream", "-1"]) == 2


class TestReports:
    def test_quad_report_structure(self, tmp_path):
        out = tmp_path / "quad.json"
        code = run(
            ["resolution", "--mode", "quad", "--modes", "2", "-p", "1", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        doc = read_report(out)
        assert doc["command"] == "resolution"
        assert doc["passed"] is True
        assert doc["seed"] == {"seed": 7, "stream": 0}
        assert "git_describe" in doc and "timestamp" in doc
        crit = doc["criteria"][0]
        assert crit["passed"] is True
        measured = crit["measured"]
        assert measured["modes"] == 2 and measured["dimension"] == 4
        assert len(measured["entries"]) == 16
        assert all(len(pair) == 2 for pair in measured["entries"])

    @pytest.mark.parametrize("band", [None, (0.95, 0.99)])
    def test_ensembles_verdict_is_the_samplers_own(self, band, monkeypatch, tmp_path, capsys):
        # the criterion passes exactly when sample_radial_mcmc gives no warning:
        # a band that the rate misses fails the run, under the README's name
        if band:
            monkeypatch.setattr(ensembles, "MCMC_ACCEPTANCE_BAND", band)
        out = tmp_path / "ensembles.json"
        code = run(["ensembles", "--modes", "2", "--samples", "200", "--burn-in", "400", "--out", str(out)])
        (crit,) = read_report(out)["criteria"]
        assert crit["name"] == "radial sampler acceptance rate in [0.1, 0.9]"
        assert crit["target"] == ensembles.MCMC_TARGET_ACCEPTANCE
        assert crit["tolerance_or_se"] == [0.1, 0.9]
        assert 0.1 <= crit["measured"] <= 0.9
        assert (code, crit["passed"]) == ((1, False) if band else (0, True))

    def test_byte_identical_apart_from_timestamp(self, tmp_path):
        args = [
            "resolution", "--mode", "mc", "--modes", "1", "-p", "1",
            "--samples", "4000", "--seed", "3",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert strip_timestamp(out1.read_text()) == strip_timestamp(out2.read_text())
        assert out1.read_text() != "" and '"timestamp"' in out1.read_text()

    def test_worker_flag_does_not_change_results(self, tmp_path):
        base = ["resolution", "--mode", "mc", "--modes", "2", "--samples", "12000", "--seed", "5"]
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        assert run(base + ["--workers", "1", "--out", str(out1)]) == 0
        assert run(base + ["--workers", "3", "--out", str(out2)]) == 0
        d1, d2 = read_report(out1), read_report(out2)
        assert d1["criteria"][0]["measured"] == d2["criteria"][0]["measured"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["canonical", "--modes", "3", "--samples", "2000"],
            ["number-conserving", "--variant", "modified", "--modes", "3", "--samples", "2000"],
        ],
    )
    def test_worker_flag_leaves_every_criterion_of_the_report(self, argv, tmp_path):
        docs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.json"
            assert run(argv + ["--seed", "5", "--workers", workers, "--out", str(out)]) in (0, 1)
            docs.append(read_report(out))
        assert docs[0]["criteria"] == docs[1]["criteria"]
        assert [d["parameters"]["workers"] for d in docs] == [1, 2]

    @pytest.mark.parametrize(
        "argv",
        [
            ["identities", "--modes", "2", "--trials", "2"],
            ["resolution", "--mode", "quad", "--modes", "2", "-p", "2", "--weight", "determinant"],
            ["resolution", "--mode", "mc", "--modes", "6", "--samples", "16"],
            ["canonical", "--modes", "2", "--samples", "400"],
            ["number-conserving", "--variant", "failure"],
            ["number-conserving", "--variant", "modified", "--samples", "400"],
            ["selberg", "--consistency", "--max-modes", "3"],
            ["ensembles", "--samples", "200", "--burn-in", "200"],
        ],
    )
    def test_report_is_the_stock_indent_2_encoding(self, argv, tmp_path):
        out = tmp_path / "report.json"
        assert run(argv + ["--seed", "1", "--out", str(out)]) in (0, 1)
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["resolution", "--mode", "quad", "--modes", "1"],
            ["number-conserving", "--variant", "failure", "--modes", "1"],
            ["number-conserving", "--variant", "failure", "--modes", "2"],
            ["resolution", "--mode", "mc", "--modes", "1", "--samples", "64"],
            ["number-conserving", "--variant", "modified", "--modes", "1", "--samples", "64"],
            ["number-conserving", "--variant", "failure", "--modes", "3", "--samples", "400"],
        ],
        ids=["resolution_quad", "failure_1", "failure_2", "resolution_mc", "modified", "failure_3"],
    )
    def test_no_report_states_a_quadrature_order(self, argv, tmp_path):
        # a run that reads a rule reads the one 120-node rule, and states its node count as samples
        out = tmp_path / "report.json"
        assert run(argv + ["--seed", "5", "--out", str(out)]) == 0
        params = read_report(out)["parameters"]
        assert "quad_order" not in params and "samples" in params

    def test_identities_draw_from_the_stream(self, tmp_path):
        base = ["identities", "--modes", "3", "--trials", "4", "--seed", "14"]
        docs = []
        for stream in ("0", "7"):
            out = tmp_path / f"stream{stream}.json"
            assert run(base + ["--stream", stream, "--out", str(out)]) == 0
            docs.append({c["name"]: c["measured"] for c in read_report(out)["criteria"]})
        name = "normal-ordered exponential identity"  # random hermitian generators
        assert docs[0][name] != docs[1][name]

    def test_identities_stream_zero_is_the_seed_alone(self, tmp_path):
        out = tmp_path / "stream0.json"
        assert run(["identities", "--modes", "3", "--trials", "4", "--seed", "14", "--out", str(out)]) == 0
        measured = [c["measured"] for c in read_report(out)["criteria"]]
        assert measured == [r.measured for r in operator_identity_suite(3, 14, 4)]

    def test_report_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FERMIGAUSS_REPORT_DIR", str(tmp_path))
        assert run(["selberg", "--consistency", "--max-modes", "3", "--out", "sub/report.json"]) == 0
        assert (tmp_path / "sub" / "report.json").exists()


class TestCsvDumps:
    @pytest.mark.parametrize("argv", [["identities", "--trials", "1"], ["selberg", "--max-modes", "1"]])
    def test_csv_is_a_usage_error_where_nothing_is_dumped(self, argv, tmp_path, capsys):
        csv = tmp_path / "none.csv"
        assert run(argv + ["--csv", str(csv)]) == 2
        assert "--csv" in capsys.readouterr().err
        assert not csv.exists()

    def test_ensembles_dump_format(self, tmp_path):
        csv = tmp_path / "eig.csv"
        code = run(
            [
                "ensembles", "--symmetry-class", "D",
                "--weight", "gaussian", "-p", "1", "--modes", "2",
                "--samples", "500", "--seed", "3", "--csv", str(csv),
            ]
        )
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "lambda_1,lambda_2"
        assert len(lines) == 501
        row = lines[1].split(",")
        assert len(row) == 2
        # 17 significant digits requested
        assert any(len(cell.replace("-", "").replace(".", "").lstrip("0")) >= 16 for cell in row)
        parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.isfinite(parsed).all()
        edge = tmp_path / "edge.csv"
        reports.write_lambda_csv(str(edge), [np.array([[-0.0, 1e-300]]), np.array([[0.1, 2.0]])], 2)
        assert edge.read_text() == "lambda_1,lambda_2\n-0,1e-300\n0.10000000000000001,2\n"

    def test_mc_dump_matches_sampler(self, tmp_path):
        csv = tmp_path / "lams.csv"
        code = run(
            [
                "resolution", "--mode", "mc", "--modes", "1", "-p", "1",
                "--samples", "4000", "--seed", "11", "--csv", str(csv),
            ]
        )
        assert code == 0
        rows = csv.read_text().splitlines()
        assert rows[0] == "lambda_1"
        assert len(rows) == 4001

    def test_nc_failure_monte_carlo_dump(self, tmp_path):
        csv = tmp_path / "even.csv"
        argv = ["number-conserving", "--variant", "failure", "--modes", "3", "--samples", "400", "--csv", str(csv)]
        assert run(argv) in (0, 1)
        rows = csv.read_text().splitlines()
        assert rows[0] == "lambda_1,lambda_2,lambda_3" and len(rows) == 401
        got = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
        assert (np.diff(got, axis=1) >= 0.0).all()  # eigh's ascending eigenvalues, one row per draw

    def test_modified_dump(self, tmp_path):
        csv = tmp_path / "mod.csv"
        code = run(
            [
                "number-conserving", "--variant", "modified", "--modes", "2",
                "-p", "1", "--samples", "8000", "--seed", "2", "--csv", str(csv),
            ]
        )
        assert code == 0
        rows = csv.read_text().splitlines()
        assert rows[0] == "lambda_1,lambda_2"
        assert len(rows) >= 8001

    @pytest.mark.parametrize(
        "argv", [["resolution", "--mode", "mc", "--modes", "3"], ["canonical", "--modes", "2", "--betas", "0,0.5"]]
    )
    def test_dump_draws_each_sample_once(self, argv, tmp_path, monkeypatch):
        calls, draw = [], ensembles._class_d_normals
        monkeypatch.setattr(ensembles, "_class_d_normals", lambda *a: calls.append(a[-1]) or draw(*a))
        argv = argv + ["--samples", "800", "--seed", "4"]
        assert run(argv) == 0
        without = list(calls)
        assert run(argv + ["--csv", str(tmp_path / "d.csv")]) == 0
        assert calls[len(without):] == without and sum(without) == 800

    def test_mc_dump_is_the_eigvalsh_pairs_of_the_runs_own_draws(self, tmp_path, monkeypatch):
        draws, sample = [], verify.sample_class_d_batch
        monkeypatch.setattr(verify, "sample_class_d_batch", lambda *a: draws.append(sample(*a)) or draws[-1])
        csv = tmp_path / "mc.csv"
        argv = ["resolution", "--mode", "mc", "--modes", "3", "--samples", "2000", "--seed", "8", "--csv", str(csv)]
        assert run(argv) == 0
        got = np.loadtxt(csv, delimiter=",", skiprows=1)
        want = np.linalg.eigvalsh(np.concatenate(draws))[:, 3:]
        assert got.shape == want.shape == (2000, 3)
        assert (np.abs(got - want) <= 1e-14 * want.max(axis=1, keepdims=True)).all()

    @pytest.mark.parametrize(
        "argv, sym, weight",
        [
            (
                ["resolution", "--mode", "quad", "--symmetry-class", "DIII", "-p", "1.5"],
                CLASS_DIII,
                WeightSpec.gaussian(1.5),
            ),
            (["number-conserving", "--variant", "failure", "-p", "2"], CLASS_D, WeightSpec.nc_even(2.0)),
        ],
    )
    def test_quadrature_dump_is_the_one_rule(self, argv, sym, weight, tmp_path):
        # each quadrature run keeps its one ORACLE_ORDER rule
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        assert run(argv + ["--csv", str(got)]) == 0
        law = RadialLaw.of(sym, weight)
        reports.write_lambda_csv(str(want), [radial_quadrature_nodes(law, 2)[0]], 2)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize(
        "argv", [["resolution", "--mode", "mc", "--modes", "2"], ["number-conserving", "--variant", "modified"]]
    )
    def test_dump_is_the_same_for_every_worker_count(self, argv, tmp_path):
        dumps = []
        for workers in ("1", "2"):
            csv = tmp_path / f"w{workers}.csv"
            assert run(argv + ["--samples", "2000", "--seed", "6", "--workers", workers, "--csv", str(csv)]) == 0
            dumps.append(csv.read_bytes())
        assert dumps[0] == dumps[1]


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# resolution settings\n"
            "mode = mc\n"
            "modes = 1\n"
            "samples = 4000\n"
            "seed = 9\n"
        )
        out1 = tmp_path / "c1.json"
        assert run(["resolution", "--config", str(cfg), "--out", str(out1)]) == 0
        doc = read_report(out1)
        assert doc["parameters"]["modes"] == 1
        assert doc["parameters"]["samples"] == 4000
        assert doc["seed"]["seed"] == 9

        out2 = tmp_path / "c2.json"
        assert run(["resolution", "--config", str(cfg), "--modes", "2", "--out", str(out2)]) == 0
        assert read_report(out2)["parameters"]["modes"] == 2

    def test_equals_spelling_reads_the_file(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("modes = 1\nsamples = 4000\n")
        out = tmp_path / "eq.json"
        assert run(["resolution", f"--config={cfg}", "--out", str(out)]) == 0
        doc = read_report(out)
        assert (doc["parameters"]["modes"], doc["parameters"]["samples"]) == (1, 4000)

    @pytest.mark.parametrize("second", ["--config", "--config="])
    def test_second_config_is_usage_error(self, tmp_path, second, capsys):
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        a.write_text("modes = 1\nsamples = 4000\n")
        b.write_text("modes = 3\n")
        out = tmp_path / "two.json"
        twice = [second + str(b)] if second.endswith("=") else [second, str(b)]
        assert run(["resolution", "--config", str(a), *twice, "--out", str(out)]) == 2
        assert "--config given more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--config"], ["--config="]])
    def test_config_without_a_path_is_usage_error(self, argv):
        assert run(["resolution", *argv]) == 2

    def test_missing_config_is_usage_error(self):
        assert run(["resolution", "--config", "/nonexistent/x.cfg"]) == 2

    @pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
    def test_an_unreadable_config_is_usage_error_naming_it(self, kind, tmp_path, capsys):
        path = tmp_path if kind == "directory" else tmp_path / "latin.cfg"
        if kind == "not UTF-8":
            path.write_bytes("modes = 1 # f\xfcnf\n".encode("latin-1"))
        assert run(["resolution", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {path}: ") and "Traceback" not in err

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("modes 2\n")
        assert run(["resolution", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["resolution", "--conf", "CFG"],
            ["resolution", "--mode", "mc", "--samp", "16"],
            ["identities", "--mod", "2", "--trials", "1"],
            ["selberg", "--max", "1"],
        ],
    )
    def test_abbreviated_long_flag_is_usage_error(self, tmp_path, argv, capsys, monkeypatch):
        # an abbreviation would bypass the config splice and run on the defaults
        cfg = tmp_path / "a.cfg"
        cfg.write_text("modes = 1\nsamples = 4000\n")
        monkeypatch.setattr(cli, "_finish", lambda *args, **kwargs: pytest.fail("the command ran"))
        assert run([str(cfg) if a == "CFG" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert f"usage: fermigauss {argv[0]} " in err  # the subcommand's own usage


def _load_benchmark(name):
    """benchmark/<name>.py, read from its file and left unchanged."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK = _load_benchmark("workloads")
CHECKER = _load_benchmark("checker")


class TestBenchmarkWorkloads:
    """Every command the benchmark runs still parses and its set-up calls still
    run, so a CLI change breaks these tests, not a benchmark run."""

    @pytest.mark.parametrize("name", sorted(BENCHMARK.WORKLOADS))
    def test_every_command_parses(self, name):
        workload = BENCHMARK.WORKLOADS[name]
        for argv in workload.commands + workload.setup:
            cli.build_parser().parse_args([*argv, "--seed", "0", "--out", "report.json"])

    @pytest.mark.parametrize("name", sorted(BENCHMARK.WORKLOADS))
    def test_setup_commands_run(self, name, tmp_path):
        for k, argv in enumerate(BENCHMARK.WORKLOADS[name].setup):
            out = tmp_path / f"setup-{k}.json"
            assert run([*argv, "--seed", str(BENCHMARK.SETUP_SEED), "--out", str(out)]) in (0, 1), argv
            assert out.exists()

    def test_setup_commands_load_neither_numpy_ma_nor_scipy(self, tmp_path):
        # a fresh process pays for its imports in setup_s and peak_rss_mb:
        # np.unique without return_inverse, for one, imports numpy.ma
        calls = [[*argv, "--seed", str(BENCHMARK.SETUP_SEED), "--out", str(tmp_path / f"{k}.json")]
                 for k, argv in enumerate(a for w in BENCHMARK.WORKLOADS.values() for a in w.setup)]
        script = f"""
import json, sys
from fermigauss import cli
for argv in {calls!r}:
    cli.run(argv)
print(json.dumps(sorted(name for name in sys.modules if name == "numpy.ma" or name.split(".")[0] == "scipy")))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env)
        assert json.loads(proc.stdout.splitlines()[-1]) == []


#: The smallest call of every subcommand.
SMALLEST_CALLS = [
    ["resolution", "--mode", "mc", "--modes", "1", "--samples", "64"],
    ["resolution", "--mode", "quad", "--modes", "1"],
    ["canonical", "--modes", "1", "--samples", "64"],
    ["number-conserving", "--variant", "failure"],
    ["number-conserving", "--variant", "modified", "--modes", "1", "--samples", "64"],
    ["selberg", "--max-modes", "1"],
    ["ensembles", "--modes", "1", "--samples", "10", "--burn-in", "10", "--thin", "1"],
    ["identities", "--modes", "1", "--trials", "1"],
]


@pytest.fixture(scope="module")
def after_every_call():
    """The scipy modules and the shared libraries of a fresh interpreter that
    has made every smallest call."""
    script = f"""
import json, sys
from fermigauss import cli
for argv in {SMALLEST_CALLS!r}:
    assert cli.run(argv) == 0, argv
with open("/proc/self/maps") as fh:
    mapped = sorted({{line.split()[-1].rsplit("/", 1)[-1] for line in fh if "/" in line}})
print(json.dumps({{"scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"), "mapped": mapped}}))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env)
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_subcommand_loads_scipy(after_every_call):
    # every run's start-up cost includes its imports, and the package is numpy alone
    assert after_every_call["scipy"] == []


def test_no_module_calls_the_general_eigensolver():
    # every exponential is eigh's or _expm's Pade: a general eig is exact only
    # for diagonalizable matrices
    calls = [f"{path.name}: {line.strip()}" for path in sorted(Path(cli.__file__).parent.glob("*.py"))
             for line in path.read_text().splitlines() if re.search(r"linalg\.eig(vals)?\(", line)]
    assert calls == []


def test_reports_and_non_convergence_come_from_one_place_each():
    # every EstimatorReport from the Monte Carlo or the quadrature verdict
    # path, and every NonConvergenceError from the one order-doubling rule
    built, raised = [], []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "EstimatorReport":
                    built.append(f"{path.name}: {func.name}")
        raised += [path.name for node in ast.walk(tree)
                   if isinstance(node, ast.Raise) and node.exc and "NonConvergenceError" in ast.dump(node.exc)]
    assert sorted(built) == ["verify.py: _mc_report", "verify.py: _quad_report"]
    assert raised == ["oracle.py"]


def test_the_oracle_imports_no_operator_code():
    # the oracle's values check the operator code, so none of them may come from it
    tree = ast.parse((Path(cli.__file__).parent / "oracle.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
    last = {name.rsplit(".", 1)[-1] for name in modules}
    assert "ensembles" in last and not last & {"fock", "gaussian", "verify", "cli", "reports"}


def test_no_cli_call_maps_scipy_openblas(after_every_call):
    # numpy's own build is libscipy_openblas64_-*.so; scipy's is libscipy_openblas-*.so
    mapped = after_every_call["mapped"]
    assert any(name.startswith("libscipy_openblas64_") for name in mapped)
    assert not [name for name in mapped if name.startswith("libscipy_openblas-")]


@pytest.fixture
def build_at_two():
    """numpy's OpenBLAS on 2 threads for the test, its own count after it."""
    assert blas.thread_count() is not None
    with blas.blas_threads(2):
        yield


def spy_on_selberg(monkeypatch, seen, passed=True):
    """Record the BLAS thread count inside `selberg`; optionally fail every check."""
    real = cli.selberg_consistency_suite

    def spy(max_modes):
        seen.append(blas.thread_count())
        return [dataclasses.replace(r, measured=r.measured if passed else math.inf) for r in real(max_modes)]

    monkeypatch.setattr(cli, "selberg_consistency_suite", spy)


class TestBlasThreads:
    SELBERG = ["selberg", "--consistency", "--max-modes", "2"]

    @pytest.mark.parametrize("passed, code", [(True, 0), (False, 1)])
    def test_pinned_inside_and_restored_after_a_verdict(self, passed, code, build_at_two, monkeypatch):
        seen = []
        spy_on_selberg(monkeypatch, seen, passed)
        assert run(self.SELBERG) == code
        assert seen == [1]
        assert blas.thread_count() == 2

    def test_restored_after_a_usage_error_inside_the_call(self, build_at_two, monkeypatch, capsys):
        def usage_error(max_modes):
            assert blas.thread_count() == 1
            raise cli.FermigaussError("bad input")

        monkeypatch.setattr(cli, "selberg_consistency_suite", usage_error)
        assert run(self.SELBERG) == 2
        assert "bad input" in capsys.readouterr().err
        assert blas.thread_count() == 2

    def test_restored_after_an_exception_from_a_subcommand(self, build_at_two, monkeypatch):
        def crash(max_modes):
            raise RuntimeError("crash")

        monkeypatch.setattr(cli, "selberg_consistency_suite", crash)
        with pytest.raises(RuntimeError, match="crash"):
            run(self.SELBERG)
        assert blas.thread_count() == 2

    def test_restored_after_an_unwritable_report(self, build_at_two, tmp_path, capsys):
        assert run([*self.SELBERG, "--out", str(tmp_path)]) == 2
        assert blas.thread_count() == 2

    def test_parse_error_touches_no_count(self, build_at_two):
        assert run(["selberg", "--nope"]) == 2
        assert blas.thread_count() == 2

    @pytest.mark.parametrize("name", ["LIBRARY", "GET", "SET"])
    def test_missing_library_or_symbol_leaves_the_count_alone(self, name, build_at_two, monkeypatch):
        get = blas._control()[0]
        monkeypatch.setattr(blas, name, "missing")
        blas._control.cache_clear()
        try:
            seen = []
            real_suite = cli.selberg_consistency_suite

            def spy(max_modes):
                seen.append((blas.thread_count(), get()))
                return real_suite(max_modes)

            monkeypatch.setattr(cli, "selberg_consistency_suite", spy)
            assert run(self.SELBERG) == 0
        finally:
            blas._control.cache_clear()
        assert seen == [(None, 2)]
        assert get() == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["resolution", "--mode", "mc", "--modes", "6", "--samples", "400"],
            ["canonical", "--modes", "3", "--samples", "2000"],
            ["number-conserving", "--variant", "modified", "--modes", "3", "--samples", "2000"],
        ],
    )
    def test_reports_byte_identical_at_one_and_two_blas_threads(self, argv, monkeypatch, tmp_path):
        seen = []

        def pinned_at(count):
            @contextlib.contextmanager
            def pin():
                with blas.blas_threads(count):
                    seen.append(blas.thread_count())
                    yield

            return pin

        texts = []
        for count in (1, 2):
            monkeypatch.setattr(cli, "blas_threads", pinned_at(count))
            out = tmp_path / f"threads-{count}.json"
            assert run(argv + ["--seed", "5", "--out", str(out)]) in (0, 1)
            texts.append(strip_timestamp(out.read_text()))
        assert seen == [1, 2]
        assert texts[0] == texts[1]
