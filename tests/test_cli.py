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


def test_gap_json_with_oracle_non_commuting(tmp_path, diag12):
    a = write_matrix(tmp_path / "n.json", [[0.5, 0.2], [0.2, 1.5]])
    code, out = run_cli(["gap", "--kind", "gamma", "--f", "power:2",
                         "--A", a, "--B", diag12,
                         "--samples", "3000", "--oracle", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["agreement"] is True
    assert rep["solver"]["name"] == "multistart"
    assert rep["solver"]["restarts"] == 64


def test_gap_runs_are_byte_identical(diag01, diag12):
    argv = ["gap", "--kind", "gamma", "--f", "power:2",
            "--A", diag01, "--B", diag12, "--json"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2


def test_certify_gamma_order_identity(diag12):
    code, out = run_cli(["certify", "--statement", "gamma-order",
                         "--f", "affine:1,0", "--A", diag12, "--B", diag12])
    assert code == 0
    assert "PASS" in out
    assert "gamma     0" in out


def test_certify_exit_one_on_failed_bound(diag01, diag12):
    # a negative tolerance demands strictly positive slack margin the
    # identity instance cannot provide, so the certificate fails cleanly
    code, out = run_cli(["certify", "--statement", "gamma-order",
                         "--f", "affine:1,0", "--A", diag12, "--B", diag12,
                         "--tol=-1e-3"])
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


def test_run_config_determines_report(tmp_path, diag12):
    # a non-commuting pair, so that the seeded multistart solver runs
    a = write_matrix(tmp_path / "n.json", [[0.5, 0.2], [0.2, 1.5]])
    argv = ["certify", "--statement", "gamma-order", "--f", "power:2",
            "--A", a, "--B", diag12, "--seed", "5", "--json"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(list(argv))
    assert code1 == code2 == 0
    assert json.loads(out1)["solver"]["solver"] == "multistart"
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
    (["--p", "2", "--M", "inf"], "need a finite M, got inf"),
    (["--p", "inf"], "need a finite p, got inf"),
])
def test_furuta_non_finite_constant_argument_is_exit_two(args, message, diag01, diag12,
                                                         capsys):
    code, out = run_cli(["certify", "--statement", "furuta", "--A", diag12,
                         "--B", diag01, *args])
    assert code == 2 and out == ""
    assert f"error: {message}" in capsys.readouterr().err


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
