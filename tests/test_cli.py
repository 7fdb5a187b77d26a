"""Command-line behavior: exit codes, document fields, renderings.

Commands run in-process through main(argv); stdout is parsed from
capsys.  Exit codes under test: 0 success, 1 rejected, 2 malformed
input, 3 no closed form, 4 no feasible estimate (nonconvergence, an
infeasible assignment), 5 dominance or self-check failure.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from greechie_mle import (
    InfeasibleEstimate,
    NonConvergence,
    cli,
    closed_form,
    diagram,
    shapes,
)
from greechie_mle.cli import main
from tests.conftest import FIXTURES, count_calls


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def fixture_runs():
    """[exit code, stdout] of validate, classify and estimate --format
    json on every fixture, in a fixed order."""
    runs = []
    for path in sorted(FIXTURES.glob("*.json")):
        for command in (["validate"], ["classify"], ["estimate", "--format", "json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([command[0], str(path)] + command[1:])
            runs.append([code, out.getvalue()])
    return runs


def test_same_output_under_optimize():
    # python -O strips assert statements; no result may depend on one.
    script = (
        "import json, sys; from tests.test_cli import fixture_runs; "
        "print(json.dumps([sys.flags.optimize, fixture_runs()]))"
    )
    env = dict(os.environ)
    root = FIXTURES.parent
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    optimize, runs = json.loads(done.stdout)
    assert optimize == 1
    assert runs == fixture_runs()


class TestValidate:
    def test_valid_diagram(self, capsys):
        code, out, _ = run(capsys, "validate", FIXTURES / "tennis.json")
        assert code == 0
        assert "overall: valid" in out

    def test_cycle_violation(self, capsys):
        code, out, _ = run(capsys, "validate", FIXTURES / "triangle.json")
        assert code == 1
        assert "G2-OMP: fail" in out
        assert "cycle of length 3" in out

    def test_separation_violation(self, capsys):
        code, doc, _ = run_json(capsys, "validate", FIXTURES / "g1_violation.json")
        assert code == 1
        assert doc["g1"]["passed"] is False
        assert doc["g2_omp"]["passed"] is True
        assert doc["valid"] is False

    def test_messages_independent_of_hash_seed(self):
        # Operations are shown from their declaration-order tuples, never
        # from sets, whose iteration order varies with PYTHONHASHSEED.
        command = [sys.executable, "-m", "greechie_mle.cli", "validate"]
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = str(FIXTURES.parent / "src")
            done = subprocess.run(
                command + [str(FIXTURES / "g1_violation.json")],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert done.returncode == 1, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert "operation {a,b} minus {a,c} leaves only ['b']" in outputs[0]

    def test_intersection_precondition(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {
                    "outcomes": ["a", "b", "c", "x"],
                    "operations": [["a", "b", "x"], ["a", "b", "c"]],
                }
            )
        )
        code, out, _ = run(capsys, "validate", path)
        assert code == 1
        assert "G2-OMP: not applicable" in out
        assert "intersection precondition: fail" in out


class TestClassify:
    def test_chain(self, capsys):
        code, doc, _ = run_json(capsys, "classify", FIXTURES / "path3_unit.json")
        assert code == 0
        assert doc["verdict"] == "chain-solvable"
        assert doc["decomposition"]["kind"] == "chain"

    def test_numeric_only(self, capsys):
        code, doc, _ = run_json(capsys, "classify", FIXTURES / "parity.json")
        assert code == 0
        assert doc["verdict"] == "numeric-only"

    def test_long_chain_is_numeric_only(self, capsys):
        code, out, _ = run(capsys, "classify", FIXTURES / "path4_unit.json")
        assert code == 0
        assert "verdict: numeric-only" in out
        assert "numeric over operations" in out


class TestEstimate:
    def test_exact_document(self, capsys):
        code, doc, _ = run_json(capsys, "estimate", FIXTURES / "tennis.json")
        assert code == 0
        assert doc["probabilities_exact"]["e"] == "2/7"
        assert doc["probabilities_exact"]["a"] == "5/28"
        assert doc["probabilities"]["e"] == "0.285714285714286"
        assert doc["method"] == "product"
        assert doc["kkt_residual"] == 0.0
        assert doc["input_digest"].startswith("sha256:")
        assert len(doc["input_digest"]) == len("sha256:") + 64
        assert doc["tolerance"] == 1e-10
        assert doc["validation"]["g1"] is True
        assert doc["decomposition"]["kind"] == "product"

    def test_splitting_parameter_rendering(self, capsys):
        code, out, _ = run(capsys, "estimate", FIXTURES / "path3_unit.json")
        assert code == 0
        assert "splitting parameters: [0.4142136, 0.4142136]" in out
        assert "method: chain-closed" in out

    def test_numeric_route(self, capsys):
        code, doc, _ = run_json(capsys, "estimate", FIXTURES / "four_cycle_unit.json")
        assert code == 0
        assert doc["method"] == "numeric"
        assert doc["validation"]["g2_oml"] is False
        assert doc["probabilities_exact"]["k1"] is None

    def test_zeroed_counts(self, capsys):
        code, doc, _ = run_json(capsys, "estimate", FIXTURES / "tennis_zero.json")
        assert code == 0
        assert doc["probabilities_exact"]["e"] == "0/1"
        assert doc["probabilities_exact"]["a"] == "1/4"

    def test_zeroed_order_independent_of_hash_seed(self, tmp_path):
        # Zero-count outcomes are put back after the others in declaration
        # order, never in the iteration order of a set.
        path = tmp_path / "tennis_zeros.json"
        path.write_text(json.dumps({
            "outcomes": ["a", "c", "e", "b", "d"],
            "operations": [["a", "c", "e"], ["b", "d", "e"]],
            "counts": {"a": 5, "c": 0, "e": 0, "b": 0, "d": 7},
        }))
        command = [sys.executable, "-m", "greechie_mle.cli", "estimate", str(path)]
        outputs = []
        for seed in ("1", "2", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = str(FIXTURES.parent / "src")
            done = subprocess.run(
                command + ["--format", "json"],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs == [outputs[0]] * 4
        doc = json.loads(outputs[0])
        for key in ("probabilities", "probabilities_exact"):
            assert list(doc[key]) == ["a", "d", "c", "e", "b"]

    def test_no_closed_form_exit(self, capsys):
        code, _, err = run(
            capsys, "estimate", FIXTURES / "parity.json", "--method", "closed"
        )
        assert code == 3
        assert "no closed form" in err

    def test_long_chain_has_no_closed_form(self, capsys):
        # Four operations in a path: only the numeric solver applies.
        code, _, err = run(
            capsys, "estimate", FIXTURES / "path4_unit.json", "--method", "closed"
        )
        assert code == 3
        assert "no closed form" in err
        code, doc, _ = run_json(capsys, "estimate", FIXTURES / "path4_unit.json")
        assert code == 0
        assert doc["method"] == "numeric"
        assert doc["decomposition"]["kind"] == "numeric"
        assert doc["splitting_parameters"] is None

    def test_infeasible_exit(self, capsys):
        code, _, err = run(capsys, "estimate", FIXTURES / "infeasible.json")
        assert code == 1
        assert "zero counts" in err

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "estimate", FIXTURES / "bad_syntax.json")
        assert code == 2
        assert "line 2" in err

    def test_missing_counts_exit(self, capsys):
        code, _, err = run(capsys, "estimate", FIXTURES / "triangle.json")
        assert code == 2
        assert "counts" in err

    def test_bad_count_values(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(
            json.dumps(
                {
                    "outcomes": ["a", "b"],
                    "operations": [["a", "b"]],
                    "counts": {"a": -1, "b": 2},
                }
            )
        )
        code, _, err = run(capsys, "estimate", path)
        assert code == 2
        assert "nonnegative" in err

    @pytest.mark.parametrize(
        "counts, named",
        [({"a": 1, "b": 2, "z": 3}, "'z'"), ({"a": 1}, "'b'")],
        ids=["extra", "missing"],
    )
    def test_counts_must_cover_the_outcomes(self, capsys, tmp_path, counts, named):
        path = tmp_path / "domain.json"
        doc = {"outcomes": ["a", "b"], "operations": [["a", "b"]], "counts": counts}
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "estimate", path)
        assert code == 2
        assert named in err

    def test_self_check_pass(self, capsys):
        code, _, _ = run(capsys, "estimate", FIXTURES / "tennis.json", "--self-check")
        assert code == 0

    def test_self_check_disagreement_exit(self, capsys, monkeypatch):
        real = cli.estimate
        perturbed = {}

        def fake(diagram, counts, method="auto", tol=1e-10):
            result = real(diagram, counts, method=method, tol=tol)
            if method == "numeric" and not perturbed:
                perturbed["done"] = True
                result.p[diagram.outcomes[0]] = float(result.p[diagram.outcomes[0]]) + 1e-3
            return result

        monkeypatch.setattr(cli, "estimate", fake)
        code, _, err = run(capsys, "estimate", FIXTURES / "tennis.json", "--self-check")
        assert code == 5
        assert "self-check failed" in err

    def test_nonconvergence_exit(self, capsys, monkeypatch):
        def fake(*args, **kwargs):
            raise NonConvergence(7, 0.25)

        monkeypatch.setattr(cli, "estimate", fake)
        code, _, err = run(capsys, "estimate", FIXTURES / "tennis.json")
        assert code == 4
        assert "no convergence" in err

    def test_infeasible_estimate_exit(self, capsys, monkeypatch):
        def fake(*args, **kwargs):
            raise InfeasibleEstimate("chain-closed", 1.7e-10, 1e-10)

        monkeypatch.setattr(cli, "estimate", fake)
        code, _, err = run(capsys, "estimate", FIXTURES / "tennis.json")
        assert code == 4
        assert "infeasible assignment via chain-closed" in err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tolerance_is_a_usage_error(self, capsys, tol):
        with pytest.raises(SystemExit) as info:
            main(["estimate", str(FIXTURES / "tennis.json"), "--tol", tol])
        assert info.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_self_check_reuses_the_verdict(self, capsys, monkeypatch):
        # The command plans nothing itself; each of the two estimate
        # calls reduces the counts once.
        plans = count_calls(monkeypatch, cli, "build_plan")
        reductions = count_calls(monkeypatch, closed_form, "reduce_zero_counts")
        code, _, _ = run(capsys, "estimate", FIXTURES / "tennis.json", "--self-check")
        assert code == 0
        assert plans == [] and len(reductions) == 2

    def test_one_cycle_search(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, diagram, "minimum_cycle_length")
        code, doc, _ = run_json(capsys, "estimate", FIXTURES / "four_cycle_unit.json")
        assert code == 0
        assert doc["validation"]["g2_omp"] is True
        assert doc["validation"]["g2_oml"] is False
        assert len(calls) == 1


class TestSample:
    def test_frozen_counts(self, capsys):
        code, doc, _ = run_json(
            capsys, "sample", FIXTURES / "sample_tennis.json", "--n", "1000",
            "--seed", "123",
        )
        assert code == 0
        assert doc["counts"] == {"a": 76, "c": 270, "e": 299, "b": 127, "d": 228}
        assert doc["trials"] == 1000
        assert doc["seed"] == 123

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sample", str(FIXTURES / "sample_tennis.json"), "--n", "10",
                  "--seed", "-1"])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_zero_seed(self, capsys):
        code, doc, _ = run_json(
            capsys, "sample", FIXTURES / "sample_tennis.json", "--n", "10",
            "--seed", "0",
        )
        assert code == 0
        assert doc["seed"] == 0
        assert sum(doc["counts"].values()) == 10

    def test_output_feeds_estimate(self, capsys, tmp_path):
        code, doc, _ = run_json(
            capsys, "sample", FIXTURES / "sample_tennis.json", "--n", "5000",
            "--seed", "7",
        )
        assert code == 0
        path = tmp_path / "resampled.json"
        path.write_text(json.dumps(doc))
        code, est, _ = run_json(capsys, "estimate", path)
        assert code == 0
        assert abs(float(est["probabilities"]["e"]) - 2 / 7) < 0.03

    def test_missing_policy(self, capsys, tmp_path):
        path = tmp_path / "nopolicy.json"
        doc = json.loads((FIXTURES / "sample_tennis.json").read_text())
        del doc["policy"]
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "sample", path, "--n", "10")
        assert code == 2
        assert "policy" in err

    def test_invalid_policy_rejected(self, capsys, tmp_path):
        path = tmp_path / "badpolicy.json"
        doc = json.loads((FIXTURES / "sample_tennis.json").read_text())
        doc["policy"] = [0.9, 0.9]
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "sample", path, "--n", "10")
        assert code == 1
        assert "policy" in err

    def test_nan_policy_rejected(self, capsys, tmp_path):
        path = tmp_path / "nanpolicy.json"
        doc = json.loads((FIXTURES / "sample_tennis.json").read_text())
        doc["policy"] = [float("nan"), 1.0]
        path.write_text(json.dumps(doc))  # written as the JSON token NaN
        code, _, err = run(capsys, "sample", path, "--n", "10", "--seed", "1")
        assert code == 1
        assert "invalid policy" in err

    def test_bad_fraction_string(self, capsys, tmp_path):
        path = tmp_path / "badprob.json"
        doc = json.loads((FIXTURES / "sample_tennis.json").read_text())
        doc["true_probs"]["a"] = "5/0"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "sample", path, "--n", "10")
        assert code == 2
        assert "bad fraction" in err


class TestOracleCheck:
    def test_dominance_passes(self, capsys):
        code, doc, _ = run_json(
            capsys, "oracle-check", FIXTURES / "path3_unit.json",
            "--samples", "2000", "--seed", "11",
        )
        assert code == 0
        assert doc["dominance"] is True
        assert doc["solver_loglik"] >= doc["oracle_loglik"] - doc["slack"]

    def test_corrupted_solver_fails(self, capsys, monkeypatch):
        # Negative control: a damaged solver answer must fail dominance.
        real = cli.estimate

        def fake(diagram, counts, **kwargs):
            result = real(diagram, counts, **kwargs)
            worst = max(counts, key=counts.__getitem__)
            result.p[worst] = float(result.p[worst]) * 0.5
            return result

        monkeypatch.setattr(cli, "estimate", fake)
        code, out, _ = run(
            capsys, "oracle-check", FIXTURES / "path3_unit.json",
            "--samples", "2000", "--seed", "11",
        )
        assert code == 5
        assert "FAIL" in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_counts_without_warnings(self, capsys, monkeypatch):
        # The oracle walks the caller's diagram, where p(e) may reach 0
        # while n(e) = 0; the unobserved outcome adds nothing.  Only
        # estimate reduces the counts.
        reductions = count_calls(monkeypatch, closed_form, "reduce_zero_counts")
        code, out, _ = run(
            capsys, "oracle-check", FIXTURES / "tennis_zero.json",
            "--samples", "2000", "--seed", "1",
        )
        assert code == 0
        assert "PASS" in out
        assert len(reductions) == 1

    def test_zero_count_reduction_optimal(self, capsys, tmp_path):
        # With n(b) = 0 the best assignment gives b mass 0.31: dropping b
        # would reach only -107.04 against the oracle's -103.87.
        d = shapes.path5()
        counts = {"a1": 8, "a2": 6, "y1": 12, "b": 0, "y2": 7, "c": 15,
                  "y3": 17, "d": 13, "y4": 10, "e1": 13, "e2": 2}
        path = tmp_path / "path5_b0.json"
        path.write_text(json.dumps({
            "outcomes": list(d.outcomes),
            "operations": [list(op) for op in d.operations],
            "counts": counts,
        }))
        code, out, _ = run(capsys, "oracle-check", path, "--samples", "2000")
        assert "PASS" in out
        assert code == 0

    def test_estimation_error_exit(self, capsys, monkeypatch):
        def fake(*args, **kwargs):
            raise InfeasibleEstimate("numeric", 2e-9, 1e-9)

        monkeypatch.setattr(cli, "estimate", fake)
        code, _, err = run(capsys, "oracle-check", FIXTURES / "path3_unit.json")
        assert code == 4
        assert "infeasible assignment" in err


class TestEntrypoint:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate", "x.json"])
        assert info.value.code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/input.json")
        assert code == 2
        assert "cannot read" in err

    def test_log_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GREECHIE_MLE_LOG", "info")
        code, _, _ = run(capsys, "classify", FIXTURES / "tennis.json")
        assert code == 0
