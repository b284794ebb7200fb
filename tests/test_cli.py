import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from loewner_cert import loewner_leq, matrix_to_obj
from loewner_cert.cli import main


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def write_matrix(path, A):
    path.write_text(json.dumps(matrix_to_obj(np.asarray(A, dtype=complex))))
    return str(path)


@pytest.fixture
def diag01(tmp_path):
    return write_matrix(tmp_path / "a.json", np.diag([0.0, 1.0]))


@pytest.fixture
def diag12(tmp_path):
    return write_matrix(tmp_path / "b.json", np.diag([1.0, 2.0]))


@pytest.fixture
def diag123(tmp_path):
    return write_matrix(tmp_path / "b3.json", np.diag([1.0, 2.0, 3.0]))


@pytest.fixture
def n12(tmp_path):
    # does not commute with diag12, so gamma problems pairing them take the
    # k = 2 closed form
    return write_matrix(tmp_path / "n.json", [[0.5, 0.2], [0.2, 1.5]])


@pytest.fixture
def n123(tmp_path):
    # does not commute with diag123, so gamma problems pairing them take the
    # seeded multistart solver
    return write_matrix(tmp_path / "n3.json",
                        [[0.5, 0.2, 0.1], [0.2, 1.5, 0.3], [0.1, 0.3, 1.0]])


def test_kantorovich_text():
    code, out = run_cli(["kantorovich", "--m", "1", "--M", "2", "--p", "2"])
    assert code == 0
    assert out.strip() == "1.125"


def test_kantorovich_json():
    code, out = run_cli(["kantorovich", "--m", "1", "--M", "4", "--p", "2",
                         "--json"])
    assert code == 0
    assert json.loads(out)["K"] == 1.5625


def test_beta_text():
    code, out = run_cli(["beta", "--f", "power:2", "--m", "1", "--M", "3",
                         "--alpha", "1"])
    assert code == 0
    assert out.splitlines()[0].strip() == "1"


def test_gap_json_with_oracle(diag01, diag12):
    code, out = run_cli(["gap", "--kind", "gamma", "--f", "power:2",
                         "--A", diag01, "--B", diag12,
                         "--samples", "3000", "--oracle", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["value"] - 4.0) < 1e-6
    assert rep["agreement"] is True
    x = np.array(rep["maximizer_re"]) + 1j * np.array(rep["maximizer_im"])
    assert abs(np.linalg.norm(x) - 1.0) < 1e-10
    assert rep["solver"]["name"] == "exact-commuting"
    assert rep["inputs"]["A"][0]["sha256"]


def test_gap_json_with_oracle_non_commuting(diag12, n12, n123, diag123):
    code, out = run_cli(["gap", "--kind", "gamma", "--f", "power:2",
                         "--A", n123, "--B", diag123,
                         "--samples", "3000", "--oracle", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["agreement"] is True
    assert rep["solver"]["name"] == "multistart"
    assert rep["solver"]["restarts"] == 8  # the bound closes on the first batch
    assert rep["solver"]["gap"] <= 1e-8 * (1.0 + abs(rep["value"]))
    assert rep["solver"]["upper"] >= rep["value"]
    code, out = run_cli(["gap", "--kind", "gamma", "--f", "power:2",
                         "--A", n12, "--B", diag12,
                         "--samples", "3000", "--oracle", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["agreement"] is True
    assert rep["solver"]["name"] == "exact-dim2"
    assert rep["solver"]["restarts"] == 0


_SOLVER_KEYS = {"name", "restarts", "iterations", "converged", "upper", "gap",
                "eigensolves", "seed", "step_tol", "max_iter"}


def test_gap_and_certify_write_one_solver_record(n123, diag123):
    files = ["--A", n123, "--B", diag123, "--f", "power:2", "--seed", "3", "--json"]
    _, gap = run_cli(["gap", "--kind", "gamma", *files])
    _, cert = run_cli(["certify", "--statement", "gamma-order", *files])
    gap, cert = json.loads(gap), json.loads(cert)
    assert set(gap["solver"]) == set(cert["solver"]) == _SOLVER_KEYS
    # the same problem and seed give the same record
    assert gap["solver"] == cert["solver"] and gap["value"] == cert["constants"]["gamma"]


def test_gap_runs_are_byte_identical(diag01, diag12):
    argv = ["gap", "--kind", "gamma", "--f", "power:2",
            "--A", diag01, "--B", diag12, "--json"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2


@pytest.fixture
def gap_argv(n123, diag123):
    # a non-commuting 3 x 3 pair, so the seed and the restarts reach the report
    return ["gap", "--kind", "gamma", "--f", "power:2", "--A", n123, "--B", diag123,
            "--json"]


def test_gap_after_gap_oracle_has_no_oracle_keys(gap_argv):
    code, first = run_cli(gap_argv + ["--oracle", "--samples", "300"])
    assert code == 0 and "oracle_value" in json.loads(first)
    code, second = run_cli(gap_argv)
    assert code == 0
    rep = json.loads(second)
    assert "oracle_value" not in rep and "agreement" not in rep
    expected = json.loads(first)
    del expected["oracle_value"], expected["agreement"]
    assert rep == expected


def test_gap_after_certify_keeps_its_own_defaults(gap_argv, diag123):
    _, before = run_cli(gap_argv)
    code, _ = run_cli(["certify", "--statement", "gamma-order", "--f", "power:2",
                       "--A", diag123, "--B", gap_argv[gap_argv.index("--A") + 1],
                       "--restarts", "4", "--seed", "7", "--tol", "0.5"])
    assert code == 0
    code, after = run_cli(gap_argv)
    assert code == 0 and after == before
    solver = json.loads(after)["solver"]
    # certify's 4 restarts would cap the run at 4; gap's cap of 64 runs 8
    assert solver["seed"] == 42 and solver["restarts"] == 8
    assert (solver["max_iter"], solver["step_tol"]) == (500, 1e-10)


def test_usage_error_leaves_the_next_call_intact(gap_argv, capsys):
    _, before = run_cli(gap_argv)
    with pytest.raises(SystemExit) as exc:
        main(gap_argv[:2] + ["nope"] + gap_argv[3:] + ["--oracle"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, after = run_cli(gap_argv)
    assert code == 0 and after == before


def test_certify_gamma_order_identity(diag12):
    code, out = run_cli(["certify", "--statement", "gamma-order",
                         "--f", "affine:1,0", "--A", diag12, "--B", diag12])
    assert code == 0
    assert "PASS" in out
    assert "gamma     0" in out


def test_certify_exit_one_on_failed_bound(n123, diag123):
    # for the identity f, gamma = lambda_max(B - A) leaves slack 0; a solve
    # capped at 0 iterations reports F at one random start, below that
    # maximum, so the certificate fails cleanly
    code, out = run_cli(["certify", "--statement", "gamma-order",
                         "--f", "affine:1,0", "--A", n123, "--B", diag123,
                         "--restarts", "1", "--max-iter", "0"])
    assert code == 1
    assert "FAIL" in out


def test_certify_furuta_witness(tmp_path):
    a = write_matrix(tmp_path / "fa.json", [[2.0, 1.0], [1.0, 1.0]])
    b = write_matrix(tmp_path / "fb.json", [[1.0, 1.0], [1.0, 1.0]])
    code, out = run_cli(["certify", "--statement", "furuta",
                         "--A", a, "--B", b, "--p", "3", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["statement"] == "furuta"
    assert rep["constants"]["K"] > 1.0


def test_certify_hypothesis_violation_is_exit_two(tmp_path, diag01, diag12):
    code, _ = run_cli(["certify", "--statement", "furuta",
                       "--A", diag01, "--B", diag12, "--p", "2"])
    assert code == 2


def test_certify_missing_function_is_exit_two(diag01, diag12):
    code, _ = run_cli(["certify", "--statement", "gamma-order",
                       "--A", diag01, "--B", diag12])
    assert code == 2


def test_missing_file_is_exit_two():
    code, _ = run_cli(["gap", "--kind", "chebyshev", "--f", "power:2",
                       "--A", "/nonexistent/x.json"])
    assert code == 2


def test_malformed_matrix_is_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": "nope"}')
    code, _ = run_cli(["gap", "--kind", "chebyshev", "--f", "power:2",
                       "--A", str(bad)])
    assert code == 2


def test_violation_search_json():
    code, out = run_cli(["violation", "--f", "power:3", "--dim", "2",
                         "--trials", "10000", "--seed", "42", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["found"] is True
    assert rep["witness"] < -1e-8
    A = np.array(rep["A"]["re"])
    B = np.array(rep["B"]["re"])
    assert loewner_leq(A, B, tol=1e-12).holds


def test_violation_none_found():
    code, out = run_cli(["violation", "--f", "affine:2,1", "--dim", "2",
                         "--trials", "200", "--json"])
    assert code == 0
    assert json.loads(out)["found"] is False


def test_fuzz_sandwich_small():
    code, out = run_cli(["fuzz", "--suite", "sandwich", "--trials", "10",
                         "--seed", "1"])
    assert code == 0
    assert "pass" in out


def test_run_config_determines_report(diag12, n12, n123, diag123):
    for pair, solver, restarts in (((n123, diag123), "multistart", 8),
                                   ((n12, diag12), "exact-dim2", 0)):
        argv = ["certify", "--statement", "gamma-order", "--f", "power:2",
                "--A", pair[0], "--B", pair[1], "--seed", "5", "--json"]
        code1, out1 = run_cli(argv)
        code2, out2 = run_cli(list(argv))
        assert code1 == code2 == 0
        rep = json.loads(out1)["solver"]
        assert (rep["name"], rep["restarts"]) == (solver, restarts)
        assert out1.encode() == out2.encode()


def test_fuzz_json_structure():
    code, out = run_cli(["fuzz", "--suite", "gradient", "--trials", "50",
                         "--seed", "3", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["suites"]["gradient"]["failures"] == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_certify_non_finite_operand_is_exit_two(tmp_path, diag01, bad, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "re": [[1.0, 0.0], [0.0, bad]]}))
    code, out = run_cli(["certify", "--statement", "gamma-order", "--f", "power:2",
                         "--A", diag01, "--B", str(path)])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "non-finite" in err and str(path) in err


def test_certify_overflowing_image_is_exit_two(tmp_path, diag01):
    # exp(800) overflows f(B); before the image check the solver never returned
    b = write_matrix(tmp_path / "big.json", np.diag([800.0, 1.0]))
    proc = subprocess.run(
        [sys.executable, "-m", "loewner_cert", "certify", "--statement", "gamma-order",
         "--f", "exp", "--A", diag01, "--B", b],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"f({b}) has a non-finite entry" in proc.stderr and "exp" in proc.stderr


def test_huge_operand_is_exit_two(tmp_path, capsys):
    # entries near the float maximum pass the input check; f(A) overflows
    a = write_matrix(tmp_path / "huge.json", np.diag([1e308, 1.0]))
    code, out = run_cli(["gap", "--kind", "chebyshev", "--f", "power:2", "--A", a])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert f"f({a}) has a non-finite entry" in err and "power:2" in err and "nan" not in err


def test_maps_file_with_nan_is_exit_two(tmp_path, diag01, capsys):
    maps = tmp_path / "maps.json"
    maps.write_text(json.dumps([{"variant": "conjugation",
                                 "V_re": [[float("nan"), 0.0], [0.0, 1.0]]}]))
    code, out = run_cli(["certify", "--statement", "eta-choi", "--f", "power:2",
                         "--A", diag01, "--maps", str(maps)])
    assert code == 2 and out == ""
    assert "conjugation map V has a non-finite entry" in capsys.readouterr().err


@pytest.mark.parametrize("obj,field", [
    ([{"variant": "pinch", "dim": 2, "blocks": 5}], "'blocks'"),
    ([{"variant": "diag", "dim": None}], "'dim'"),
    ([{"variant": "diag", "dim": "two"}], "'dim'"),
    ([{"variant": "conjugation", "V_re": [[1.0, 0.0], [0.0]]}], "'V_re'"),
    ([{"variant": "diag", "dim": True}], "'dim'"),
    ([{"variant": "pinch", "dim": 2.5, "blocks": [[0], [1.7]]}], "'blocks'"),
])
def test_malformed_maps_file_is_exit_two(tmp_path, diag01, obj, field, capsys):
    maps = tmp_path / "maps.json"
    maps.write_text(json.dumps(obj))
    code, out = run_cli(["certify", "--statement", "eta-choi", "--f", "power:2",
                         "--A", diag01, "--maps", str(maps)])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {maps}: ") and field in err


@pytest.mark.parametrize("argv,trials", [
    (["fuzz", "--trials", "0"], 0),
    (["fuzz", "--trials", "-1"], -1),
    (["fuzz", "--suite", "sandwich", "--trials", "0", "--json"], 0),
    (["violation", "--f", "power:3", "--trials", "-3"], -3),
])
def test_non_positive_trials_is_exit_two(argv, trials, capsys):
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert f"need at least one trial, got {trials}" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [0, -1])
def test_violation_dimension_below_one_is_exit_two(dim, capsys):
    code, out = run_cli(["violation", "--f", "power:3", "--dim", str(dim)])
    assert code == 2 and out == ""
    assert f"error: need dimension n >= 1, got {dim}" in capsys.readouterr().err


def test_kantorovich_non_finite_p_is_exit_two(capsys):
    code, out = run_cli(["kantorovich", "--m", "1", "--M", "2", "--p", "nan"])
    assert code == 2 and out == ""
    assert "error: need a finite p, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (["--M", "2", "--alpha", "inf"], "alpha must be finite and positive, got inf"),
    (["--M", "inf"], "need a finite M, got inf"),
    (["--M", "2", "--m=-inf"], "need a finite m, got -inf"),
])
def test_beta_non_finite_argument_is_exit_two(args, message, capsys):
    code, out = run_cli(["beta", "--f", "power:2", "--m", "1", *args, "--json"])
    assert code == 2 and out == ""
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (["--p", "2", "--M", "inf"], "need a finite M, got inf"),
    (["--p", "inf"], "need a finite p, got inf"),
])
def test_furuta_non_finite_constant_argument_is_exit_two(args, message, diag01, diag12,
                                                         capsys):
    code, out = run_cli(["certify", "--statement", "furuta", "--A", diag12,
                         "--B", diag01, *args])
    assert code == 2 and out == ""
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,message", [
    (["violation", "--f", "power:3", "--trials", "3", "--lo", "1e200", "--hi", "2e200",
      "--json"], "f(B) has a non-finite entry, f = power:3;dom=[0,inf)"),
    (["violation", "--f", "power:3", "--trials", "5", "--hi", "inf"],
     "need a finite hi, got inf"),
    (["violation", "--f", "power:3", "--trials", "5", "--lo", "nan"],
     "need a finite lo, got nan"),
    (["kantorovich", "--m", "1e300", "--M", "2e300", "--p", "3"],
     "K(1e+300, 2e+300, 3.0) overflows or underflows the float range"),
    (["kantorovich", "--m", "1e-300", "--M", "1", "--p", "-3"],
     "K(1e-300, 1.0, -3.0) overflows or underflows the float range"),
    (["beta", "--f", "exp", "--m", "700", "--M", "800", "--json"],
     "the chord of exp;dom=(-inf,inf) over [700.0, 800.0] overflows"),
    (["beta", "--f", "power:-3", "--m", "1e-80", "--M", "1"],
     "f'(1e-80) is not finite, f = power:-3;dom=(0,inf)"),
], ids=["violation-image", "violation-hi", "violation-lo", "kantorovich-M", "kantorovich-m",
        "beta", "beta-derivative"])
def test_out_of_float_range_is_a_named_exit_two(argv, message, capsys):
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_furuta_power_overflow_names_the_file(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", np.diag([2e300, 1e300]))
    b = write_matrix(tmp_path / "b.json", np.diag([1e300, 1e300]))
    code, out = run_cli(["certify", "--statement", "furuta", "--p", "3", "--A", a, "--B", b])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: f({a}) has a non-finite entry, f = power:3\n"


def test_ragged_matrix_file_is_exit_two(tmp_path, capsys):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"dim": 2, "re": [[1.0, 0.0], [0.0]]}))
    code, out = run_cli(["gap", "--kind", "chebyshev", "--f", "power:2",
                         "--A", str(path)])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert f"{path}: 're' must be 2x2 numbers" in err


def test_overflowing_eigenvalue_is_exit_two(tmp_path, capsys):
    # finite entries whose largest eigenvalue, 2e308, is beyond the float range
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"dim": 2, "re": [[1e308, 1e308], [1e308, 1e308]]}))
    code, out = run_cli(["gap", "--kind", "chebyshev", "--f", "power:2",
                         "--A", str(path)])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    # the error names the file, as parse errors do
    assert f"error: {path} has an eigenvalue that overflows" in err
    assert "outside domain" not in err


def test_classical_errors_name_the_file(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"dim": 2, "re": [[1e308, 1e308], [1e308, 1e308]]}))
    code, out = run_cli(["certify", "--statement", "lowner-heinz", "--A", str(big),
                         "--B", str(big), "--p", "0.5"])
    assert code == 2 and out == ""
    assert f"error: {big} has an eigenvalue that overflows" in capsys.readouterr().err


def test_assembly_errors_name_the_file(tmp_path, capsys):
    ok = write_matrix(tmp_path / "ok.json", np.diag([0.5, 1.0]))
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"dim": 2, "re": [[1e308, 1e308], [1e308, 1e308]]}))
    third = 3.0 ** -0.5
    maps = tmp_path / "maps.json"
    maps.write_text(json.dumps([{"variant": "conjugation",
                                 "V_re": [[third, 0.0], [0.0, third]]}] * 3))
    argv = ["certify", "--statement", "eta-choi", "--f", "power:2", "--maps", str(maps),
            "--A", ok, ok]
    code, out = run_cli(argv + [str(big)])
    assert code == 2 and out == ""
    assert f"error: {big} has an eigenvalue that overflows" in capsys.readouterr().err
    # a file given twice is still two operands
    code, out = run_cli(argv + [ok])
    assert code == 0 and out.strip().endswith("PASS")


def test_non_integral_dim_file_is_exit_two(tmp_path, capsys):
    path = tmp_path / "dim.json"
    path.write_text(json.dumps({"dim": 2.9, "re": [[1.0, 0.0], [0.0, 1.0]]}))
    code, out = run_cli(["gap", "--kind", "chebyshev", "--f", "power:2",
                         "--A", str(path)])
    assert code == 2 and out == ""
    assert f"{path}: 'dim' must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (["--tol", "nan"], "tol must be finite and >= 0, got nan"),
    (["--tol", "inf"], "tol must be finite and >= 0, got inf"),
    (["--tol=-1"], "tol must be finite and >= 0, got -1.0"),
    (["--step-tol", "nan"], "step_tol must be finite and >= 0, got nan"),
    (["--max-iter", "-1"], "max_iter must be an integer >= 0, got -1"),
])
@pytest.mark.parametrize("pair", ["commuting", "dim2", "dim3"])
def test_certify_bad_tolerance_or_solver_argument_is_exit_two(args, message, pair, diag01,
                                                               diag12, n12, n123, diag123,
                                                               capsys):
    # checked before the solve, on both closed forms as on Newton-CG
    a, b = {"commuting": (diag01, diag12), "dim2": (n12, diag12),
            "dim3": (n123, diag123)}[pair]
    code, out = run_cli(["certify", "--statement", "gamma-order", "--f", "power:2",
                         "--A", a, "--B", b, *args])
    assert code == 2 and out == ""
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (["--step-tol", "nan"], "step_tol must be finite and >= 0, got nan"),
    (["--step-tol", "inf"], "step_tol must be finite and >= 0, got inf"),
    (["--max-iter", "-1"], "max_iter must be an integer >= 0, got -1"),
])
def test_gap_bad_solver_argument_is_exit_two(args, message, gap_argv, diag01, diag12, n12,
                                             capsys):
    for a in (None, diag01, n12):  # k = 3, then both closed forms
        argv = gap_argv if a is None else ["gap", "--kind", "gamma", "--f", "power:2",
                                           "--A", a, "--B", diag12]
        code, out = run_cli(argv + args)
        assert code == 2 and out == ""
        assert f"error: {message}" in capsys.readouterr().err


def test_classical_tolerance_and_window_are_checked_first(tmp_path, capsys):
    # B <= A with both spectra in [1, 3], so only the named argument is wrong
    a = write_matrix(tmp_path / "a23.json", np.diag([2.0, 3.0]))
    b = write_matrix(tmp_path / "b12.json", np.diag([1.0, 2.0]))
    argv = ["certify", "--statement", "alpha-beta-increasing", "--f", "power:2",
            "--A", a, "--B", b]
    assert run_cli(argv + ["--m", "1", "--M", "3"])[0] == 0
    for args, message in ((["--m", "1", "--M", "inf"], "need a finite M, got inf"),
                          (["--m", "nan"], "need a finite m, got nan"),
                          (["--tol", "nan"], "tol must be finite and >= 0, got nan")):
        code, out = run_cli(argv + args)
        assert code == 2 and out == ""
        assert f"error: {message}" in capsys.readouterr().err
