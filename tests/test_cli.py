"""CLI surface: formats, exit codes, determinism, file round-trips."""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from turanlab import Interval, from_zeros, to_payload, turan_ratio
from turanlab.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def linear_poly(tmp_path):
    path = tmp_path / "xm1.json"
    path.write_text(json.dumps(
        {"leading": [1.0, 0.0], "zeros": [[1.0, 0.0]]}))
    return str(path)


def test_ratio_prints_half(capsys, linear_poly):
    code, out, _ = run(capsys, "ratio", "--poly", linear_poly)
    assert code == 0
    assert json.loads(out)["ratio"] == pytest.approx(0.5, abs=1e-12)


def test_ratio_csv_format(capsys, linear_poly):
    code, out, _ = run(capsys, "ratio", "--poly", linear_poly,
                       "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.split(",")[0] == "ratio"
    assert float(row.split(",")[0]) == pytest.approx(0.5)


def test_verdict_csv_columns(capsys, linear_poly):
    code, out, _ = run(capsys, "verdict", "--poly", linear_poly,
                       "--n", "1", "--k", "1", "--pin")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,k,ratio,err,bound_source,bound_value,pass"
    assert any("cor23" in ln for ln in lines[1:])
    assert all(ln.endswith("true") for ln in lines[1:])


def test_sample_round_trip(capsys, tmp_path):
    out_path = tmp_path / "sample.json"
    code, _, _ = run(capsys, "sample", "--n", "4", "--k", "1", "--pin",
                     "--seed", "3", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "ratio", "--poly", str(out_path))
    assert code == 0
    assert json.loads(out)["ratio"] > 0


def test_sample_deterministic_bytes(capsys):
    _, out1, _ = run(capsys, "sample", "--n", "5", "--k", "2", "--seed", "9")
    _, out2, _ = run(capsys, "sample", "--n", "5", "--k", "2", "--seed", "9")
    assert out1 == out2


def test_lemma31_json(capsys, tmp_path):
    path = tmp_path / "mono.json"
    path.write_text(json.dumps(
        {"leading": [1.0, 0.0], "zeros": [[0.0, 0.0]] * 7}))
    code, out, _ = run(capsys, "lemma31", "--poly", str(path),
                       "--delta", "2.0")
    assert code == 0
    rep = json.loads(out)
    assert rep["measure"] == pytest.approx(1.0, abs=1e-9)
    assert rep["satisfied"] is True


def test_lemma32_inline_zeros(capsys):
    code, out, _ = run(capsys, "lemma32", "--zeros", "[[0.0, 0.0]]",
                       "--alpha", "4.0")
    assert code == 0
    assert json.loads(out)["measure"] == pytest.approx(0.5, abs=1e-10)


def test_lemma32_degree_mismatch_is_domain_error(capsys):
    code, _, err = run(capsys, "lemma32", "--zeros", "[[0.0, 0.0]]",
                       "--alpha", "4.0", "--deg", "3")
    assert code == 1
    assert err.startswith("error:")


def test_lemma32_degree_mismatch_from_a_file_is_domain_error(capsys, tmp_path):
    path = tmp_path / "r2.json"
    path.write_text(json.dumps(to_payload(from_zeros(1.0, [0.5, -0.5]))))
    code, _, err = run(capsys, "lemma32", "--poly", str(path),
                       "--alpha", "100", "--deg", "5")
    assert code == 1
    assert err.startswith("error:")
    code, out, _ = run(capsys, "lemma32", "--poly", str(path),
                       "--alpha", "100", "--deg", "2")
    assert code == 0


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "--n", "1", "--k", "0", "--pin",
                       "--budget", "500", "--restarts", "2", "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["ratio"] == pytest.approx(0.5, abs=1e-6)
    assert rep["within_bracket"] is True


def test_sweep_csv_columns_and_determinism(capsys):
    argv = ("sweep", "--n-values", "2,4", "--k-values", "0", "--pin",
            "--budget", "300", "--restarts", "2", "--seed", "7")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    header = out1.split("\n", 1)[0]
    assert header == ("n,k,ratio,err,lower_bound,upper_construction,"
                      "within_bracket,restarts_used,evals")


def test_construct_writes_chain(capsys, tmp_path):
    prefix = str(tmp_path / "chain")
    code, out, _ = run(capsys, "construct", "--n", "2", "--k", "1",
                       "--budget", "400", "--restarts", "2", "--seed", "0",
                       "--out", prefix)
    assert code == 0
    for tag in ("Q", "R", "P"):
        payload = json.loads((tmp_path / f"chain_{tag}.json").read_text())
        assert "leading" in payload and "zeros" in payload


def test_construct_stdout_json_and_csv(capsys):
    argv = ("construct", "--n", "2", "--k", "1", "--budget", "400",
            "--restarts", "2", "--seed", "0")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rep = json.loads(out)
    assert sorted(rep) == ["P", "Q", "R", "details", "err", "member", "ratio"]
    assert rep["member"] is True
    assert rep["ratio"] == pytest.approx(1.539600717839002, rel=1e-9)

    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, row = list(csv.reader(io.StringIO(out)))
    assert header == sorted(rep)
    cells = dict(zip(header, row))
    assert float(cells["ratio"]) == rep["ratio"]
    assert cells["member"] == "true"
    assert json.loads(cells["details"]) == rep["details"]
    assert json.loads(cells["P"]) == rep["P"]


def test_remark_json(capsys):
    code, out, _ = run(capsys, "remark", "--epsilon", "0.3", "--n", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["m"] == 4
    assert rep["ratio"] == pytest.approx(4.0, rel=1e-9)
    assert rep["ratio"] <= rep["bound"]


def test_missing_poly_file_is_domain_error(capsys):
    code, _, err = run(capsys, "ratio", "--poly", "/no/such/file.json")
    assert code == 1
    assert "error:" in err


def test_ratio_without_poly_is_one_line_domain_error(capsys):
    code, out, err = run(capsys, "ratio")
    assert code == 1 and out == ""
    assert err == "error: a polynomial file is required (--poly)\n"


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_non_finite_zero_is_one_line_domain_error(capsys, tmp_path, token):
    path = tmp_path / "bad.json"
    path.write_text('{"leading": [1.0, 0.0], "zeros": [[0.5, 0.0], [%s, 0.0]]}'
                    % token)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "ratio", "--poly", str(path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:"), err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_overflow_is_one_line_domain_error(capsys, tmp_path):
    # (x - 10)^400 reaches 11^400 on [-1, 1]: a true message, and none of
    # numpy's overflow warnings
    path = tmp_path / "big.json"
    path.write_text(json.dumps(to_payload(from_zeros(1.0, [10.0] * 400))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "ratio", "--poly", str(path))
    assert code == 1 and out == ""
    assert err == ("error: the sup norm of P / leading exceeds the "
                   "floating-point range on the interval\n"), err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv, message", [
    (("--interval", "nan", "1"), "error: interval endpoints must be finite\n"),
    (("--interval", "-1", "inf"), "error: interval endpoints must be finite\n"),
    ((), "error: malformed polynomial payload: "),
])
def test_bad_interval_or_payload_is_one_line_domain_error(capsys, tmp_path, argv, message):
    path = tmp_path / "p.json"
    payload = {"leading": [1.0, 0.0], "zeros": [[0.5, 0.0]]}
    path.write_text(json.dumps(payload if argv else {"leading": [1.0]}))
    code, out, err = run(capsys, "ratio", "--poly", str(path), *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith(message), err


@pytest.mark.parametrize("zeros", ['[[1]]', '{"a":1}', '5', '[["a",0]]', '[[1,0,0]]',
                                   '{}', '""'])
def test_malformed_inline_zeros_is_one_line_domain_error(capsys, zeros):
    # --zeros is read as the zero list of a payload, and checked as one
    code, out, err = run(capsys, "lemma32", "--alpha", "3", "--zeros", zeros)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: malformed polynomial payload: "), err


def test_parser_defaults():
    # every other CLI test passes --budget and --restarts, so only this one
    # pins their defaults
    defaults = {"pin": False, "seed": 0, "budget": 4000, "restarts": 8,
                "mode": "incomplete", "out": None, "poly": None,
                "interval": None, "zeros": None, "deg": None}
    seen = set()
    for argv in (["ratio"], ["verdict", "--n", "1", "--k", "0"],
                 ["sample", "--n", "1", "--k", "0"], ["lemma31", "--delta", "1"],
                 ["lemma32", "--alpha", "1"], ["decay", "--n", "1", "--k", "0"],
                 ["search", "--n", "1", "--k", "0"],
                 ["sweep", "--n-values", "1", "--k-values", "0"],
                 ["construct", "--n", "1", "--k", "0"],
                 ["remark", "--n", "1", "--epsilon", "0.5"]):
        args = vars(build_parser().parse_args(argv))
        for name in defaults.keys() & args.keys():
            value = args[name]
            assert type(value) is type(defaults[name]) and value == defaults[name], (argv, name)
            seen.add(name)
    assert seen == defaults.keys()


@pytest.mark.parametrize("argv", [
    ("search", "--n", "2", "--k", "0"),
    ("sample", "--n", "2", "--k", "0"),
    ("construct", "--n", "6", "--k", "2", "--budget", "50", "--restarts", "1"),
    ("sweep", "--n-values", "2", "--k-values", "0", "--budget", "50",
     "--restarts", "1"),
])
@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), str(2 ** 70)])
def test_seed_out_of_range_is_one_line_domain_error(capsys, argv, seed):
    code, out, err = run(capsys, *argv, "--seed", seed)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: seed must be an integer"), err


@pytest.mark.parametrize("command, name", [("lemma31", "delta"), ("lemma32", "alpha")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_level_parameter_is_one_line_domain_error(capsys, tmp_path,
                                                             command, name, value):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"leading": [1.0, 0.0], "zeros": [[0.0, 1.0]]}))
    code, out, err = run(capsys, command, f"--{name}={value}", "--poly", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {name} must be positive and finite\n"


@pytest.mark.parametrize("argv", [
    ("ratio",), ("verdict", "--n", "2", "--k", "0"), ("lemma31", "--delta", "0.1"),
    ("lemma32", "--alpha", "1"), ("decay", "--n", "4", "--k", "1"),
    ("decay", "--n", "4", "--k", "1", "--mode", "flipped"),
])
def test_zero_payload_is_one_line_domain_error(capsys, tmp_path, argv):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"leading": [0.0, 0.0], "zeros": []}))
    code, out, err = run(capsys, *argv, "--poly", str(path))
    assert code == 1 and out == ""
    assert err == "error: leading coefficient must be nonzero\n"


def test_ratio_interval_matches_api(capsys, tmp_path):
    P = from_zeros(1.5 - 0.25j, [0.3 + 0.2j, -0.7, 0.1 + 0.9j, 1.0])
    path = tmp_path / "p.json"
    path.write_text(json.dumps(to_payload(P)))
    code, out, _ = run(capsys, "ratio", "--poly", str(path),
                       "--interval", "0", "0.5")
    assert code == 0
    cv = turan_ratio(P, Interval(0.0, 0.5))
    assert json.loads(out) == {"ratio": cv.value, "err": cv.err,
                               "method": "critical-points"}
    assert cv.value != turan_ratio(P).value


def test_verdict_json(capsys, linear_poly):
    code, out, _ = run(capsys, "verdict", "--poly", linear_poly,
                       "--n", "1", "--k", "1", "--pin", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ratio"] == pytest.approx(0.5, abs=rep["err"] + 1e-15)
    assert rep["brackets"] == [
        {"source": "turan11", "lower": 1.0 / 6.0, "pass": True},
        {"source": "cor23", "lower": 0.5, "pass": True}]


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "--n-values", "2,4", "--k-values", "0,1",
                       "--budget", "200", "--restarts", "2", "--seed", "1",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert [(c["n"], c["k"], c["error"]) for c in rep["cells"]] == [
        (2, 0, None), (2, 1, None), (4, 0, None), (4, 1, None)]
    assert rep["monotone_in_n"] == {"0": "increasing", "1": "increasing"}
    assert rep["monotone_in_k"] == {"2": "decreasing", "4": "decreasing"}
    assert rep["slope"] > 0


def test_decay_incomplete(capsys, tmp_path):
    # S = x^48 R with deg R = 2: compared on [0, 1 - 20/48]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(to_payload(
        from_zeros(1.0, [0.0] * 48 + [0.4 + 0.1j, 0.9 - 0.2j]))))
    code, out, _ = run(capsys, "decay", "--poly", str(path),
                       "--n", "50", "--k", "2", "--mode", "incomplete")
    assert code == 0
    rep = json.loads(out)
    assert rep["interval"] == [0.0, 1.0 - 20.0 / 48.0]
    assert (rep["vacuous"], rep["satisfied"]) == (False, True)
    assert rep["restricted_sup"] < rep["full_sup"]


def test_decay_flipped(capsys, tmp_path):
    # W = (x - 1)^39 (x - 0.2): sqrt(y) |W(y)| peaks near 0, far below
    # y0 = 10 * 3 / 40 = 0.75, and decreases on [0.75, 1]
    zeros = [1.0] * 39 + [0.2]
    path = tmp_path / "w.json"
    path.write_text(json.dumps(to_payload(from_zeros(1.0, zeros))))
    code, out, _ = run(capsys, "decay", "--poly", str(path),
                       "--n", "40", "--k", "1", "--mode", "flipped")
    assert code == 0
    rep = json.loads(out)
    ys = np.linspace(0.0, 1.0, 100_001)
    weighted = np.sqrt(ys) * np.abs(np.prod(ys[None, :] - np.array(zeros)[:, None],
                                            axis=0))
    assert rep["full_sup"] == pytest.approx(float(np.max(weighted)), rel=1e-6)
    assert rep["restricted_sup"] == pytest.approx(
        math.sqrt(0.75) * 0.25 ** 39 * 0.55, rel=1e-9)
    assert (rep["vacuous"], rep["satisfied"]) == (False, True)


def test_decay_flipped_at_a_huge_leading_coefficient(capsys, tmp_path):
    # W^2 would overflow at leading 1e200; the check squares only W / leading
    path = tmp_path / "w.json"
    path.write_text(json.dumps(to_payload(from_zeros(1e200, [1.0] * 39 + [0.2]))))
    code, out, err = run(capsys, "decay", "--poly", str(path),
                         "--n", "40", "--k", "1", "--mode", "flipped")
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["restricted_sup"] == pytest.approx(
        1e200 * math.sqrt(0.75) * 0.25 ** 39 * 0.55, rel=1e-9)
    assert (rep["vacuous"], rep["satisfied"]) == (False, True)


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--k", "0"])
    assert exc.value.code == 2
