"""End-to-end tests of the command line interface."""

import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import DEEP_GAUSS_WORD
from f4decomp import GROUP_TOL, MEMBER_TOL, cli
from f4decomp import liegroup as lg
from f4decomp.octonion import Octonion, format_octonion
from f4decomp.wordlang import eval_word, parse


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


def test_factorization_records_hold_their_fields(capsys):
    word = "A1(0.3;e2)*G1(0.1e1-0.2e3)*Gm2(0.2e5)"
    keys = {
        "iwasawa": {"kind", "k", "t", "n", "residual"},
        "keps": {"kind", "k", "t", "n", "residual"},
        "matsuki": {"kind", "cell", "w", "k", "m", "t", "n", "residual"},
        "gauss": {"kind", "z", "m", "t", "n", "residual"},
    }
    for kind, want in keys.items():
        code, out, _ = run_cli(capsys, kind, "--word", word)
        data = parse_out(out)
        assert code == 0 and set(data) == want and data["kind"] == kind
        for name in {"n", "z"} & want:
            assert set(data[name]) == {"x", "p"}
            assert (len(data[name]["x"]), len(data[name]["p"])) == (8, 7)
        for name in {"k", "m"} & want:
            assert set(data[name]) == {"mat", "residual"}
    code, out, _ = run_cli(capsys, "matsuki", "--word", word)
    data = parse_out(out)
    assert data["cell"] in ("open", "closed") and isinstance(data["w"], bool)


def test_classify_pinned_example(capsys):
    code, out, _ = run_cli(capsys, "classify", "--word", "S1")
    assert code == 0
    data = parse_out(out)
    assert data["bruhat"] == "closed"
    assert set(data) == {"bruhat", "matsuki", "keps_orbit", "nminus_orbit"}
    assert data["keps_orbit"] in ("P12orbit", "P13orbit")
    assert data["nminus_orbit"] in ("P-orbit", "SigmaP-orbit")
    # each cell label and its orbit label are one decision, on every fixture
    # word with a classify record
    checked = 0
    for line in cli._default_fixtures().read_text().splitlines():
        rec = json.loads(line)
        if "classify" not in rec["expect"]:
            continue
        code, out, _ = run_cli(capsys, "classify", "--word", rec["word"])
        assert code == 0
        data = parse_out(out)
        assert (data["bruhat"] == "open") == (data["nminus_orbit"] == "P-orbit")
        assert (data["matsuki"] == "open") == (data["keps_orbit"] == "P12orbit")
        checked += 1
    assert checked >= 8


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


@pytest.mark.parametrize("word", ["D4(4,e1,e1)", "D4(0,2e3,2e3)*A3(0.1;1)", "D4(4,e1,e2)"])
def test_d4_slot_index_exits_1(capsys, word):
    code, out, err = run_cli(capsys, "eval", "--word", word)
    assert code == 1 and out == ""
    data = json.loads(err)
    assert data["error"] == "ValueError" and "slot index" in data["message"]


@pytest.mark.parametrize("scale", [1e-150, 1e-300])
@pytest.mark.parametrize("tail", ["", "*A3(0.1;1)"])
def test_d4_norm_mismatch_exits_1_at_small_scales(capsys, scale, tail):
    u, v = (format_octonion(s * np.eye(8)[1]) for s in (scale, 2 * scale))
    code, out, err = run_cli(capsys, "eval", "--word", f"D4(1,{u},{v}){tail}")
    assert code == 1 and out == ""
    data = json.loads(err)
    assert data["error"] == "ValueError" and "norm mismatch" in data["message"]


@pytest.mark.parametrize(
    "base",
    ["A1(0.3;2)", "G2(1)", "D4(2,e1,2e2)", "D4(7,e1,e2)", "S1*A1(0.3;2)", "(A3(0.5;1)^100000000)"],
)
def test_zeroth_power_keeps_its_base_checks(capsys, base):
    # the factor alone refuses, and so does the zeroth power of a word holding it
    want = run_cli(capsys, "eval", "--word", base.split("*")[-1])
    assert want[0] == 1 and want[1] == ""
    assert run_cli(capsys, "eval", "--word", f"{base}^0") == want


@pytest.mark.parametrize("t", ["8.99e307", "-1e308"])
def test_eval_rotation_past_double_angle_range(capsys, t):
    code, out, err = run_cli(capsys, "eval", "--word", f"A1({t};1)")
    assert code == 0 and err == ""
    assert json.loads(out)["residual"] <= 1e-15


def test_boost_overflow_names_slot_and_t(capsys):
    code, out, err = run_cli(capsys, "eval", "--word", "A2(400;1)")
    assert code == 1 and out == ""
    message = "exp_A slot 2 at t = 400.0 is past double range"
    assert json.loads(err) == {"error": "OverflowError", "message": message}


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


FUZZ_NILPOTENT_WORD = "G1(" + "0." + "0" * 91 + "24774129605828915+700e1)"


@pytest.mark.parametrize("cmd", ["keps", "matsuki", "gauss"])
def test_factorization_overflow_is_one_json_error(capsys, cmd):
    # g^-1 E1 of this nilpotent element overflows its squared norm
    word = FUZZ_NILPOTENT_WORD
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, cmd, "--word", word)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] in ("DegeneratePairing", "DegenerateCell")


@pytest.mark.parametrize(
    "word",
    [FUZZ_NILPOTENT_WORD, "G1(700e1)", "A3(12;1)", "A3(20;1)", "A3(30;1)", "A3(-29.5;1)"],
    ids=["fuzz-nilpotent", "G1(700e1)", "A3(12;1)", "A3(20;1)", "A3(30;1)", "A3(-29.5;1)"],
)
def test_iwasawa_refusal_is_one_json_error(capsys, word):
    # iwasawa is total: where the input has lost the small graded
    # components k depends on, k or the pivot R_00 = e^(2t) fails its gate,
    # which is exit 1, never the exit 2 that marks an input outside an open
    # cell
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "iwasawa", "--word", word)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "VerificationError"


@pytest.mark.parametrize("t", ["-16", "-13.25", "-12.5"])
def test_gauss_zero_pivot_is_one_json_error(capsys, t):
    # the cell value passes its tolerance while the graded pivot g'_00
    # rounds to 0: refused as outside the open cell, without warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "gauss", "--word", f"G1(0.3)*A3({t};1)")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "DegenerateCell"


@pytest.mark.parametrize(
    "cmd,word",
    [
        ("keps", "A3(10;1)"),
        ("matsuki", "A3(11;1)"),
        ("keps", "A3(-11;1)*G1(0.3)*A1(0.2;1)"),
        ("keps", "A3(16;1)"),
        ("keps", "A3(19;1)"),
        ("matsuki", "A3(16;1)"),
    ],
)
def test_keps_conditioning_refusal_is_one_json_error(capsys, cmd, word):
    # deep inside the open cell the a-priori error bound on k_eps,
    # u |g|_2 |n^-1| e^(2|t|), reaches 1e-8: refused as too near the
    # boundary, never returned as factors with a wrong t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, cmd, "--word", word)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "DegenerateCell"


@pytest.mark.parametrize("exponent", [22, 40, 80])
@pytest.mark.parametrize("template", ["{g}({x})*A3(0.3;1)", "{g}({x})*{g}(-{x})", "({g}({x}))^2"])
@pytest.mark.parametrize("g", ["G1", "Gm1"])
def test_overflowing_nilpotent_atom_in_a_product_is_refused(capsys, g, template, exponent):
    # the atom is not verified inside a product, so the product's gate
    # refuses what the atom's own gate refused before
    word = template.format(g=g, x="1" + "0" * exponent)
    with pytest.raises(lg.VerificationError):
        eval_word(parse(word))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "eval", "--word", word)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "VerificationError"


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


def test_cfunction_refuses_lambda_past_its_precision(capsys):
    # the Gamma ratio is 3.0e-117 here, which its logs cannot resolve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "cfunction", "--lambda", "1e17")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "NonConvergent"


@pytest.mark.parametrize(
    ("lam", "error", "message"),
    [
        ("0.001", "NonConvergent", "within 16384 nodes"),
        ("1e-300", "ValueError", "lambda=(1e-300+0j)"),
        ("1,1.7e308", "NonConvergent", "within 16384 nodes"),
    ],
)
def test_cfunction_quad_refusals_are_one_json_error(capsys, lam, error, message):
    # past the quadrature's node cap, and where (lambda+8)/2 rounds Re lambda away
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "cfunction", "--method", "quad", "--lambda", lam)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    data = json.loads(lines[0])
    assert data["error"] == error and message in data["message"]


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


@pytest.mark.parametrize(
    "text",
    ['{"mat": {"a": 1}}', json.dumps(["1.5"] * 729), json.dumps({"mat": [True] * 729}),
     json.dumps([[1.0] * 27] * 26 + [[1.0] * 26])],
    ids=["object", "strings", "booleans", "ragged"],
)
def test_malformed_matrix_json_is_one_error_line(monkeypatch, capsys, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "verify", "--matrix", "-")
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert json.loads(line) == {"error": "ValueError", "message": "matrix entries must be numbers"}


@pytest.mark.parametrize(
    "line",
    ['{"word": "S1"}', "[1,2]", '{"word": 5, "expect": {"eval": 1}}', '{"word": "S1", "expect": [1]}'],
)
def test_malformed_fixture_line_is_one_error_line(tmp_path, capsys, line):
    path = tmp_path / "cases.jsonl"
    path.write_text(f"{line}\n")
    code, out, err = run_cli(capsys, "selftest", "--fixtures", str(path))
    assert (code, out) == (1, "")
    (msg,) = err.splitlines()
    assert json.loads(msg) == {
        "error": "ValueError",
        "message": "fixtures line 1: need an object with a string 'word' and an object 'expect'",
    }


@pytest.mark.parametrize(
    "text,argv,message",
    [
        ('{"matrix": []}', ("verify", "--matrix"),
         "matrix JSON must be a bare list or an object with a 'mat' key"),
        (None, ("selftest", "--fixtures"), "fixtures file not found: {path}"),
        ('{"word": "S1", "expect": {"cartan": {}}}', ("selftest", "--fixtures"),
         "unknown fixture operation 'cartan'"),
    ],
    ids=["verify-without-mat", "missing-fixtures", "unknown-fixture-op"],
)
def test_input_file_refusals_are_one_json_error(tmp_path, capsys, text, argv, message):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text + "\n")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert json.loads(line) == {"error": "ValueError", "message": message.format(path=path)}


@pytest.mark.parametrize(
    "argv,message",
    [(("verify", "--matrix", "-"), "matrix JSON nests too deeply"),
     (("selftest", "--fixtures", "{path}"), "fixtures line 1: JSON nests too deeply")],
    ids=["verify-stdin", "selftest-fixtures"],
)
def test_deeply_nested_json_is_one_json_error(monkeypatch, tmp_path, capsys, argv, message):
    # json's decoder recurses once per bracket; past the interpreter's
    # limit the input is refused as malformed, not as a RecursionError
    deep = "[" * 100000 + "]" * 100000
    path = tmp_path / "deep.json"
    path.write_text(deep + "\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert json.loads(line) == {"error": "ValueError", "message": message}


def test_readme_cfunction_example(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    (example,) = [ln for ln in readme.splitlines() if ln.startswith("f4decomp cfunction --lambda 2 ")]
    code, out, _ = run_cli(capsys, "cfunction", "--lambda", "2")
    assert code == 0
    assert out == example.split("# ", 1)[1] + "\n"


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
    # blessing recomputes the packaged corpus's own lines, bit for bit
    assert path.read_bytes() == cli._default_fixtures().read_bytes()
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
    # a list of another length has no deviation either
    short = dict(expect, n=dict(expect["n"], x=expect["n"]["x"][:-1]))
    path.write_text(json.dumps({"word": "A3(0.5;1)", "expect": {"iwasawa": short}}) + "\n")
    code, out, _ = run_cli(capsys, "selftest", "--fixtures", str(path))
    assert code == 1 and parse_out(out)["failures"][0]["max_abs_dev"] is None
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


def test_selftest_reports_relative_drift(tmp_path, capsys):
    # each number's deviation over max(1, |want|): t near 4 moved by 1e-3 is
    # about 2.5e-4 relative; the residual moved by 1e-20 stays 1e-20
    code, out, _ = run_cli(capsys, "iwasawa", "--word", "A3(4;1)")
    expect = parse_out(out)
    assert code == 0 and abs(expect["t"] - 4.0) <= 1e-12
    path = tmp_path / "cases.jsonl"
    for field, delta in (("t", 1e-3), ("residual", 1e-20)):
        want = expect[field] + delta
        rec = {"word": "A3(4;1)", "expect": {"iwasawa": dict(expect, **{field: want})}}
        path.write_text(json.dumps(rec) + "\n")
        code, out, _ = run_cli(capsys, "selftest", "--fixtures", str(path))
        assert code == 1
        report = parse_out(out)
        (failure,) = report["failures"]
        rel = delta / max(1.0, abs(want))
        assert abs(failure["max_rel_dev"] - rel) <= 1e-6 * rel
        assert report["max_rel_dev"] == failure["max_rel_dev"]
        assert abs(failure["max_abs_dev"] - delta) <= 1e-6 * delta
    rec = {"word": "A3(4;1)", "expect": {"iwasawa": {"kind": "iwasawa"}}}
    path.write_text(json.dumps(rec) + "\n")
    code, out, _ = run_cli(capsys, "selftest", "--fixtures", str(path))
    assert parse_out(out)["failures"][0]["max_rel_dev"] is None


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


def _cli_process(*argv, env):
    """The command line in a fresh process with environment `env`."""
    return subprocess.run(
        [sys.executable, "-m", "f4decomp.cli", *argv], capture_output=True, text=True, env=env
    )


def test_tolerances_are_constants():
    assert (GROUP_TOL, MEMBER_TOL) == (1e-8, 1e-9)
    word = "A3(0.3;1)*G1(0.2e1-0.1e3)*A1(0.2;e2)"
    base = {k: v for k, v in os.environ.items() if k != "F4DECOMP_TOL"}
    # F4DECOMP_TOL is no setting: a NaN or a value below the rounding of the
    # product changes no output byte and no exit code
    for cmd in ("eval", "keps"):
        runs = set()
        for extra in ({}, {"F4DECOMP_TOL": "nan"}, {"F4DECOMP_TOL": "3e-16"}):
            proc = _cli_process(cmd, "--word", word, env={**base, **extra})
            runs.add((proc.stdout, proc.stderr, proc.returncode))
        ((stdout, stderr, code),) = runs
        assert code == 0 and stderr == "" and json.loads(stdout)
