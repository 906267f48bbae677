"""End-to-end tests of the command line interface."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import DEEP_GAUSS_WORD
from f4decomp import cli
from f4decomp import liegroup as lg
from f4decomp.octonion import Octonion


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_out(out):
    return json.loads(out)


def test_eval_outputs_verified_matrix(capsys):
    code, out, err = run_cli(capsys, "eval", "--word", "A3(0.5;1)")
    assert code == 0 and err == ""
    data = parse_out(out)
    assert len(data["mat"]) == 729
    assert data["residual"] <= 1e-12
    mat = np.array(data["mat"]).reshape(27, 27)
    assert np.array_equal(mat, lg.exp_A(3, 0.5, 1.0).mat)


def test_iwasawa_pinned_example(capsys):
    code, out, _ = run_cli(capsys, "iwasawa", "--word", "A3(0.5;1)")
    assert code == 0
    data = parse_out(out)
    assert data["kind"] == "iwasawa"
    assert abs(data["t"] - 0.5) <= 1e-12
    assert data["residual"] <= 1e-9
    assert len(data["n"]["x"]) == 8 and len(data["n"]["p"]) == 7
    assert "cell" not in data and "m" not in data and "z" not in data


def test_factorizations_reconstruct(capsys):
    word = "A1(0.3;e2)*G1(0.1e1-0.2e3)*Gm2(0.2e5)"
    g = cli._eval(word)
    for kind in ("iwasawa", "keps", "matsuki", "gauss"):
        code, out, _ = run_cli(capsys, kind, "--word", word)
        assert code == 0
        data = parse_out(out)
        n = lg.exp_N(
            1,
            Octonion(np.array(data["n"]["x"])),
            Octonion(np.concatenate([[0.0], data["n"]["p"]])),
        )
        a = lg.exp_A(3, data["t"], 1.0)
        parts = []
        if kind == "gauss":
            parts.append(
                lg.exp_N(
                    -1,
                    Octonion(np.array(data["z"]["x"])),
                    Octonion(np.concatenate([[0.0], data["z"]["p"]])),
                )
            )
        if "k" in data:
            parts.append(lg.GroupElement(np.array(data["k"]["mat"]).reshape(27, 27)))
        if kind == "matsuki" and data["w"]:
            parts.append(cli.decomp.closed_cell_rep())
        if "m" in data:
            parts.append(lg.GroupElement(np.array(data["m"]["mat"]).reshape(27, 27)))
        parts.extend([a, n])
        rebuilt = parts[0]
        for part in parts[1:]:
            rebuilt = rebuilt @ part
        assert np.max(np.abs(rebuilt.mat - g.mat)) <= 1e-7


def test_classify_pinned_example(capsys):
    code, out, _ = run_cli(capsys, "classify", "--word", "S1")
    assert code == 0
    data = parse_out(out)
    assert data["bruhat"] == "closed"
    assert set(data) == {"bruhat", "matsuki", "keps_orbit", "nminus_orbit"}
    assert data["keps_orbit"] in ("P12orbit", "P13orbit")
    assert data["nminus_orbit"] in ("P-orbit", "SigmaP-orbit")


def test_degenerate_exits_2(capsys):
    code, out, err = run_cli(capsys, "gauss", "--word", "S1")
    assert code == 2 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "DegenerateCell"
    code, _, err = run_cli(capsys, "keps", "--word", "A1(-1.5707963267948966;1)")
    assert code == 2
    assert json.loads(err)["error"] == "DegenerateCell"


def test_deep_gauss_word_exits_2(capsys):
    code, out, err = run_cli(capsys, "gauss", "--word", DEEP_GAUSS_WORD)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "DegenerateCell"


def test_huge_rotation_word_evaluates(capsys):
    one = "1" + "0" * 300
    code, out, err = run_cli(capsys, "eval", "--word", f"D4(1,{one},{one}e1)")
    assert code == 0 and err == ""


def test_syntax_error_exits_1(capsys):
    code, out, err = run_cli(capsys, "eval", "--word", "A3(0.5)")
    assert code == 1 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "WordSyntaxError"
    assert "position 6" in msg["message"]


def test_usage_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "nonsense")
    assert code == 1
    assert json.loads(err)["error"] == "_UsageError"


def test_cfunction_gamma(capsys):
    code, out, _ = run_cli(capsys, "cfunction", "--lambda", "2")
    assert code == 0
    data = parse_out(out)
    assert data["method"] == "gamma"
    assert data["lambda_alpha"] == [2.0, 0.0]
    assert abs(data["c"][0] - 21504.0) <= 1e-6 * 21504.0
    assert abs(data["c"][1]) <= 1e-9


def test_cfunction_quad_complex(capsys):
    code, out, _ = run_cli(capsys, "cfunction", "--lambda", "3,1.5", "--method", "quad")
    assert code == 0
    data = parse_out(out)
    from f4decomp.harmonic import c_gamma

    want = c_gamma(3.0 + 1.5j)
    got = complex(*data["c"])
    assert abs(got - want) <= 1e-6 * abs(want)


def test_cfunction_quad_near_imaginary_axis(capsys):
    code, out, _ = run_cli(capsys, "cfunction", "--lambda", "0.5,5", "--method", "quad")
    assert code == 0
    from f4decomp.harmonic import c_gamma

    want = c_gamma(0.5 + 5j)
    assert abs(complex(*parse_out(out)["c"]) - want) <= 1e-10 * abs(want)


def test_cfunction_pole_exits_1(capsys):
    code, _, err = run_cli(capsys, "cfunction", "--lambda", "0")
    assert code == 1
    assert json.loads(err)["error"] == "PoleError"


def test_cfunction_bad_lambda(capsys):
    code, _, err = run_cli(capsys, "cfunction", "--lambda", "2;1")
    assert code == 1


def test_verify_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "eval", "--word", "A2(0.4;e3)*G1(0.2e1)")
    data = parse_out(out)
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"mat": data["mat"]}))
    code, out, _ = run_cli(capsys, "verify", "--matrix", str(path))
    assert code == 0
    assert parse_out(out)["residual"] <= 1e-9
    # bare-list form
    path.write_text(json.dumps(data["mat"]))
    code, out, _ = run_cli(capsys, "verify", "--matrix", str(path))
    assert code == 0 and parse_out(out)["residual"] <= 1e-9


def test_verify_reports_large_residual(tmp_path, capsys):
    mat = np.eye(27)
    mat[0, 1] = 0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(list(mat.ravel())))
    code, out, _ = run_cli(capsys, "verify", "--matrix", str(path))
    assert code == 0
    assert parse_out(out)["residual"] > 1e-3


def test_overflow_is_a_json_error(capsys):
    code, out, err = run_cli(capsys, "eval", "--word", "A2(1000;1)")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "OverflowError"


@pytest.mark.parametrize("word", ["A3(200;1)", "A3(0.5;1)^100000000"])
def test_gate_overflow_is_one_json_error(capsys, word):
    # the automorphism check and the squared norm overflow for these
    # matrices; the gate refuses them without floating-point warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "eval", "--word", word)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "VerificationError"


@pytest.mark.parametrize("cmd", ["iwasawa", "keps", "matsuki", "gauss"])
def test_factorization_overflow_is_one_json_error(capsys, cmd):
    # g^-1 E1 of this nilpotent element overflows its squared norm
    word = "G1(" + "0." + "0" * 91 + "24774129605828915+700e1)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, cmd, "--word", word)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] in ("DegeneratePairing", "DegenerateCell")


@pytest.mark.parametrize("word", ["A3(1e400;1)", "A3(nan;1)", "G1(1e400)"])
def test_non_finite_literal_is_one_json_error(capsys, word):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "eval", "--word", word)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "WordSyntaxError"


@pytest.mark.parametrize("lam", ["1e308", "22,1e300"])
def test_cfunction_overflow_is_one_json_error(capsys, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "cfunction", "--lambda", lam)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "OverflowError"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_verify_rejects_non_finite_matrix(tmp_path, capsys, bad):
    mat = np.eye(27)
    mat[2, 2] = bad
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(list(mat.ravel())))
    code, out, err = run_cli(capsys, "verify", "--matrix", str(path))
    assert code == 1 and out == ""
    assert "finite" in json.loads(err)["message"]


@pytest.mark.parametrize("lam", ["nan", "inf", "2,nan", "1,-inf"])
def test_cfunction_rejects_non_finite_lambda(capsys, lam):
    code, out, err = run_cli(capsys, "cfunction", "--lambda", lam)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_cfunction_refuses_non_finite_value(capsys, monkeypatch):
    monkeypatch.setattr(cli.harmonic, "c_gamma", lambda la: complex("nan+nanj"))
    code, out, err = run_cli(capsys, "cfunction", "--lambda", "300")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "OverflowError"


def test_verify_rejects_wrong_shape(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text("[1, 2, 3]")
    code, _, err = run_cli(capsys, "verify", "--matrix", str(path))
    assert code == 1
    assert "729" in json.loads(err)["message"]


def test_selftest_replays(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    data = parse_out(out)
    assert data["checked"] >= 30
    assert data["failed"] == 0


def test_selftest_bless_custom_path(tmp_path, capsys):
    path = tmp_path / "cases.jsonl"
    code, out, _ = run_cli(capsys, "selftest", "--bless", "--fixtures", str(path))
    assert code == 0
    assert parse_out(out)["written"] >= 30
    code, out, _ = run_cli(capsys, "selftest", "--fixtures", str(path))
    assert code == 0 and parse_out(out)["failed"] == 0


def test_selftest_detects_drift(tmp_path, capsys):
    path = tmp_path / "cases.jsonl"
    rec = {"word": "A3(0.5;1)", "expect": {"iwasawa": {"kind": "iwasawa"}}}
    path.write_text(json.dumps(rec) + "\n")
    code, out, _ = run_cli(capsys, "selftest", "--fixtures", str(path))
    assert code == 1
    assert parse_out(out)["failed"] == 1
    assert parse_out(out)["failures"][0]["max_abs_dev"] is None
    # the same record with one number perturbed reports its deviation
    code, out, _ = run_cli(capsys, "iwasawa", "--word", "A3(0.5;1)")
    expect = parse_out(out)
    expect["t"] += 1e-3
    rec = {"word": "A3(0.5;1)", "expect": {"iwasawa": expect}}
    path.write_text(json.dumps(rec) + "\n")
    code, out, _ = run_cli(capsys, "selftest", "--fixtures", str(path))
    assert code == 1
    (failure,) = parse_out(out)["failures"]
    assert abs(failure["max_abs_dev"] - 1e-3) <= 1e-12
    # the top-level deviation covers every failing record, listed or not
    far = dict(expect, t=expect["t"] + 1.0)
    recs = [rec] * 11 + [{"word": "A3(0.5;1)", "expect": {"iwasawa": far}}]
    path.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
    code, out, _ = run_cli(capsys, "selftest", "--fixtures", str(path))
    assert code == 1
    report = parse_out(out)
    assert (report["failed"], len(report["failures"])) == (12, 10)
    assert abs(report["max_abs_dev"] - 1.001) <= 1e-12


def test_import_loads_no_scipy():
    code = "import sys, f4decomp; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "f4decomp.cli", "classify", "--word", "S1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bruhat"] == "closed"
