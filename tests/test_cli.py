import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fcblab import sdp
from fcblab.cli import main
from fcblab import evaluate_on_witness, verify_bb
from fcblab.fileio import load_polynomial, load_witness, save_bml, save_polynomial
from fcblab.poly import BlockMultilinearPolynomial, Polynomial, restrict, statistics

from conftest import maj3


@pytest.fixture
def maj3_file(tmp_path):
    path = tmp_path / "maj3.json"
    save_polynomial(maj3(), path)
    return str(path)


class TestAnalyze:
    def test_json_report(self, maj3_file, capsys):
        assert main(["analyze", maj3_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["variance"] == pytest.approx(1.0)
        assert report["influences"] == [0.5, 0.5, 0.5]
        assert report["sup_norm"] == 1.0
        assert report["spectral_l1"] == 2.0
        assert report["homogeneous"] is False

    def test_csv_format(self, maj3_file, capsys):
        assert main(["analyze", maj3_file, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "variance,1" in lines
        assert "influence_2,0.5" in lines

    def test_greedy_report(self, maj3_file, capsys):
        assert main(["analyze", maj3_file, "--greedy", "1,1,-1", "--budget", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["greedy"]["queried"] == [1]
        assert report["greedy"]["residual_variance"] > 0.0

    def test_greedy_residual_after_shifted_query(self, tmp_path, capsys):
        # influences 9, 1.25, 4.25: x1 is queried first, then x3, which is
        # variable 2 of the restriction once x1 is gone
        p = Polynomial(3, {(1,): 3.0, (2,): 1.0, (3,): 2.0, (2, 3): 0.5})
        path = tmp_path / "p.json"
        save_polynomial(p, path)
        assert main(["analyze", str(path), "--greedy", "1,-1,-1", "--budget", "2"]) == 0
        greedy = json.loads(capsys.readouterr().out)["greedy"]
        assert greedy["queried"] == [1, 3]
        by_hand = restrict(restrict(p, 1, 1), 2, -1)  # left: -2 + 0.5 x1
        assert greedy["residual_variance"] == statistics(by_hand).variance == 0.25
        assert greedy["estimate"] == by_hand.constant_term

    def test_zero_polynomial(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 2, "coeffs": []}))
        assert main(["analyze", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["variance"] == 0.0
        assert report["influences"] == [0.0, 0.0]

    def test_unsorted_subset_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "coeffs": [{"subset": [2, 1], "value": 1.0}]}))
        assert main(["analyze", str(path)]) == 2
        assert "subset not sorted" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/x.json"]) == 2

    def test_nan_coefficient_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"n": 1, "coeffs": [{"subset": [1], "value": NaN}]}')
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err

    def test_huge_n_fails_at_the_guard(self, tmp_path):
        # statistics ran first: a [0.0] * n list, so n = 10^15 ended in a MemoryError traceback.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 10**15, "coeffs": [{"subset": [1], "value": 1.0}]}))
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "fcblab", "analyze", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: n=1000000000000000 exceeds the dense-sweep guard (20)\n"

    def test_integer_past_float_range_is_parse_error(self, tmp_path, capsys):
        # float() of a 401-digit integer once ended the command in an OverflowError traceback
        path = tmp_path / "big.json"
        path.write_text('{"n": 1, "coeffs": [{"subset": [1], "value": 1' + "0" * 400 + "}]}")
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "a coefficient value is too large for a float" in captured.err

    def test_boolean_entries_are_parse_error(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 2, "coeffs": [{"subset": [True], "value": True}]}))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "coefficient value must be a number" in captured.err


class TestFcb:
    def test_value_and_witness(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps({"n": 2, "coeffs": [{"subset": [1, 2], "value": 1.0}]})
        )
        out_witness = tmp_path / "w.json"
        rc = main(["fcb", str(path), "--d", "2", "--extract-witness", str(out_witness)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert report["value"] == pytest.approx(1.0, abs=1e-3)
        assert 1e-4 <= report["rho"] <= 1e4
        assert isinstance(report["penalty_changes"], int)
        assert out_witness.exists()

    def test_reports_certified_interval(self, tmp_path, capsys):
        # CHSH at d=2: Tsirelson's bound sqrt(2) lies in the reported interval.
        path = tmp_path / "chsh.json"
        save_polynomial(Polynomial(4, {(1, 3): 0.5, (1, 4): 0.5, (2, 3): 0.5, (2, 4): -0.5}), path)
        assert main(["fcb", str(path), "--d", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lower"] <= 2**0.5 <= report["upper"]
        assert report["gap"] == report["upper"] - report["lower"] <= 1e-6
        assert report["value"] == report["lower"]

    def test_unconverged_solve_reports_its_interval(self, maj3_file, capsys):
        assert main(["fcb", maj3_file, "--d", "3", "--max-iters", "3"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is False
        assert report["lower"] <= 1.0 <= report["upper"]
        assert report["gap"] > 1e-6

    def test_residuals_are_the_last_check(self, maj3_file, capsys):
        assert main(["fcb", maj3_file, "--d", "3", "--max-iters", "85"]) == 1
        report = json.loads(capsys.readouterr().out)
        _, primal, dual, _, _ = sdp.solve_sdp(sdp.build_fcb_sdp(maj3(), 3), max_iters=85).history[-1]
        assert (report["primal_residual"], report["dual_residual"]) == (primal, dual)

    def test_capacity_override(self, maj3_file, capsys, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_DIM", 5)
        assert main(["fcb", maj3_file, "--d", "3"]) == 2
        assert "exceeds the guard" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_is_usage_error(self, maj3_file, capsys, tol):
        assert main(["fcb", maj3_file, "--d", "3", "--tol", tol, "--max-iters", "2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol must be positive and finite" in captured.err

    def test_empty_iteration_budget_is_usage_error(self, maj3_file, capsys):
        assert main(["fcb", maj3_file, "--d", "3", "--max-iters", "0"]) == 2
        assert "max_iters must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("d", ["0", "1", "2"])
    def test_constant_without_variables_extracts_a_witness(self, tmp_path, capsys, d):
        # n = 0 once printed a converged report and then exited 2 on the witness.
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 0, "coeffs": [{"subset": [], "value": 0.7}]}))
        assert main(["fcb", str(path), "--d", d, "--extract-witness", str(tmp_path / "w.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        w = load_witness(tmp_path / "w.json")
        assert verify_bb(w, 1e-10)["pass"]
        assert evaluate_on_witness(load_polynomial(path), w) == pytest.approx(report["lower"], abs=1e-9)

    def test_huge_d_fails_at_once(self, tmp_path, capsys):
        # Summing (n+1)^s over every s <= d as exact integers ran for minutes here.
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 2, "coeffs": [{"subset": [1], "value": 1.0}]}))
        assert main(["fcb", str(path), "--d", "200000"]) == 2
        assert "at d=200000 exceeds the guard" in capsys.readouterr().err


class TestWitnessCommand:
    def test_fcb_kind(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 2, "coeffs": [{"subset": [1, 2], "value": 1.0}]}))
        out = tmp_path / "cert.json"
        assert main(["witness", str(path), "--kind", "fcb", "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certified_value"] == pytest.approx(1.0)
        assert report["verify_bb"]["pass"] is True
        assert json.loads(out.read_text())["kind"] == "homogeneous_fcb"

    def test_bml_kinds(self, tmp_path, capsys):
        p = BlockMultilinearPolynomial(
            2, 2, {((1, 1), (2, 1)): 2**-0.5, ((1, 2), (2, 2)): 2**-0.5}
        )
        path = tmp_path / "b.json"
        save_bml(p, path)
        assert main(["witness", str(path), "--kind", "bml-hom", "--s", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certified_value"] == pytest.approx(2**0.5)
        assert report["s_or_D"] == 2
        assert report["max_sigma"] <= 1 + 1e-9

        assert main(["witness", str(path), "--kind", "bml-gen"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "bml_general"

    def test_oversized_fcb_kind_fails_before_building(self, tmp_path, capsys):
        # 1 + sum_{r < 30} C(60, r) basis vectors for 61 letters.
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 60, "coeffs": [{"subset": list(range(1, 31)), "value": 1.0}]}))
        assert main(["witness", str(path), "--kind", "fcb"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "61 matrices of dimension at least" in captured.err

    @pytest.mark.parametrize("kind", ["bml-hom", "bml-gen"])
    def test_oversized_bml_kinds_fail_before_building(self, tmp_path, capsys, kind):
        path = tmp_path / "b.json"
        save_bml(BlockMultilinearPolynomial(12, 9, {tuple((b, 1) for b in range(1, 10)): 1.0}), path)
        assert main(["witness", str(path), "--kind", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "108 matrices of dimension at least" in captured.err
        # Ten million blocks of one variable: refused at once, not after a pass over every degree.
        path.write_text(json.dumps({"n": 1, "d": 10_000_000, "coeffs": [{"pairs": [[1, 1]], "value": 1}]}))
        start = time.perf_counter()
        assert main(["witness", str(path), "--kind", kind]) == 2
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_float_index_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(
            json.dumps({"n": 2, "d": 2, "coeffs": [{"pairs": [[1, 1.7], [2, True]], "value": 1.0}]})
        )
        assert main(["witness", str(path), "--kind", "bml-gen"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be an integer, got 1.7" in captured.err

    def test_witness_file_with_boolean_entry_is_parse_error(self, tmp_path, capsys):
        poly = tmp_path / "p.json"
        poly.write_text(json.dumps({"n": 2, "coeffs": [{"subset": [1, 2], "value": 1.0}]}))
        saved = tmp_path / "w.json"
        assert main(["fcb", str(poly), "--d", "2", "--extract-witness", str(saved)]) == 0
        capsys.readouterr()
        data = json.loads(saved.read_text())
        data["u"][0] = True
        saved.write_text(json.dumps(data))
        assert main(["witness", str(saved), "--kind", "fcb"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestSimulate:
    def test_polynomial_and_report(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        rc = main(
            ["simulate", "--n", "2", "--queries", "1", "--workspace", "1", "--seed", "7",
             "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["degree_ok"] is True
        assert payload["polynomial"]["n"] == 2
        assert out.exists()

    def test_check_flag(self, capsys):
        rc = main(["simulate", "--n", "2", "--queries", "1", "--seed", "3", "--check"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["fcb_ok"] is True

    @pytest.mark.parametrize(
        "sizes, guard",
        [
            (["--n", "2000", "--queries", "3"], "interpolation guard"),
            (["--n", "100000", "--queries", "1"], "interpolation guard"),
            (["--n", "10", "--queries", "1", "--workspace", "1000"], "state dimension 11000"),
            # 2 products of dimension 2200 at 1024 points; it ran 27 s before this guard.
            (["--n", "10", "--queries", "0", "--workspace", "200"], "9912320000 multiply-adds"),
        ],
    )
    def test_oversized_run_fails_before_drawing(self, no_unitary_draws, capsys, sizes, guard):
        assert main(["simulate", *sizes]) == 2
        assert guard in capsys.readouterr().err


    def test_query_count_fails_before_drawing(self, no_unitary_draws, capsys):
        # 200,000 queries at 4 points: 800,004 state applications.
        assert main(["simulate", "--n", "2", "--queries", "200000"]) == 2
        assert "800004 state applications" in capsys.readouterr().err


class TestCheck:
    def test_certificates_suite_and_reproducibility(self, capsys):
        rc = main(["check", "certificates", "--trials", "20"])
        assert rc == 0
        first = capsys.readouterr().out
        assert main(["check", "certificates", "--trials", "20"]) == 0
        assert capsys.readouterr().out == first
        header = first.splitlines()[0]
        assert header == "instance,quantity,lhs,rhs,margin,pass"

    def test_different_seed_changes_rows(self, capsys):
        main(["check", "monotonicity", "--trials", "1"])
        first = capsys.readouterr().out
        main(["check", "monotonicity", "--trials", "1", "--seed", "7"])
        assert capsys.readouterr().out != first

    def test_json_format(self, capsys):
        rc = main(["check", "certificates", "--trials", "3", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert all(row["pass"] for row in payload["rows"])

    def test_monotonicity_small(self, capsys):
        assert main(["check", "monotonicity", "--trials", "1"]) == 0

    def test_hierarchy_alias(self, capsys):
        assert main(["check", "--hierarchy", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "gap_at_top_level_report" in out

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "nonsense"])

    def test_requires_suite(self, capsys):
        assert main(["check"]) == 2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_usage_error(self, capsys, trials):
        # No instance at all would otherwise print no rows and pass.
        assert main(["check", "restriction", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials must be at least 1" in captured.err


def test_module_entry_point_runs_from_source_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-m", "fcblab", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: fcblab")
