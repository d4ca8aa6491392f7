import copy
import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import kornlab
from kornlab import cli, identities
from kornlab.fields import UnderResolvedError


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------------
# serialization


def test_to_json_scalars():
    assert cli.to_json(None) == "null"
    assert cli.to_json(True) == "true"
    assert cli.to_json(False) == "false"
    assert cli.to_json(3) == "3"
    assert cli.to_json(0.5) == "0.5"
    assert cli.to_json("a\"b") == '"a\\"b"'
    # a type with no JSON form is named, also inside a container
    for obj, name in [(object(), "object"), (1j, "complex"), ({1, 2}, "set"), ([{3}], "set")]:
        with pytest.raises(TypeError, match="^cannot serialize <class '%s'>$" % name):
            cli.to_json(obj)


def test_to_json_float_digits():
    assert cli.to_json(1.0 / 3.0) == "0.33333333333333331"
    assert cli.to_json(np.float64(2.0)) == "2"
    txt = cli.to_json({"x": [1.5, 2]})
    assert txt == '{"x":[1.5,2]}'
    assert json.loads(txt) == {"x": [1.5, 2]}


def test_to_json_preserves_key_order():
    assert cli.to_json({"b": 1, "a": 2}) == '{"b":1,"a":2}'


def test_to_json_rejects_non_finite():
    with pytest.raises(ValueError):
        cli.to_json(float("nan"))
    with pytest.raises(ValueError):
        cli.to_json({"x": float("inf")})
    with pytest.raises(ValueError, match="non-finite"):
        cli.to_json(np.array([[0.0, 1.0], [2.0, np.nan]]))


def test_to_json_table_matches_the_walk():
    # a 2-D array is written block by block, 4096 rows at a time, with the
    # bytes of the recursive walk over its rows
    table = np.random.default_rng(5).standard_normal((4097, 4))
    table[:, :3] = np.round(8.0 * table[:, :3])
    assert cli.to_json(table) == cli.to_json(table.tolist())
    assert cli.to_json(np.zeros((0, 4))) == "[]"
    # each distinct value of a column is formatted once per block: repeated
    # values, and -0.0 beside 0.0 in one column, which must keep their signs
    # (a renderer that told values apart by ==, not by bits, would print one
    # of them with the other's sign); either sign may come first in a block
    rng = np.random.default_rng(6)
    table = rng.choice([-0.0, 0.0, 0.25, -1.5, 3.0], size=(4100, 4))
    table[:2, 3], table[4096:4098, 3] = (-0.0, 0.0), (0.0, -0.0)
    assert cli.to_json(table) == cli.to_json(table.tolist())
    assert "-0]" in cli.to_json(table) and ",0]" in cli.to_json(table)
    lists = [[int(k1), int(k2), int(k3), lam] for k1, k2, k3, lam in table.tolist()]
    assert cli.to_csv("korn", {"entries": table}) == cli.to_csv("korn", {"entries": lists})


def test_to_csv_korn_layout():
    text = cli.to_csv("korn", {"entries": [[0, 0, 1, 0.25], [0, 1, 0, 0.5]]})
    lines = text.strip().split("\n")
    assert lines[0] == "k1,k2,k3,lambda_min"
    assert lines[1] == "0,0,1,0.25"
    assert len(lines) == 3


# ----------------------------------------------------------------------------
# configuration


def test_parse_box():
    assert cli._parse_box("0,0,0,1,2,3") == (0.0, 0.0, 0.0, 1.0, 2.0, 3.0)
    # a plain ValueError: resolve_config's loop adds the "box: " prefix
    with pytest.raises(ValueError, match="^wants x0,y0,z0,x1,y1,z1"):
        cli._parse_box("1,2,3")
    with pytest.raises(ValueError, match="^could not convert"):
        cli._parse_box("a,b,c,d,e,f")


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kmax": 1, "seed": 9}))
    code, out, _ = run_cli(capsys, ["korn", "--config", str(cfg), "--seed", "3"])
    report = json.loads(out)
    assert report["config"]["kmax"] == 1       # from the file
    assert report["config"]["seed"] == 3       # flag wins over the file


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kmax": 1, "turbo": True}))
    code, out, err = run_cli(capsys, ["korn", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert "turbo" in err


def test_config_file_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, ["korn", "--config", str(cfg)])
    assert code == 2


@pytest.mark.parametrize("data", [
    {"box": ["a", 1, 1, 2, 2, 2]},
    {"seed": "x"},
    {"p": "two"},
    {"samples": None},
    {"kmax": 2.5},
    {"out": 5},
    {"seed": -1},
])
def test_config_file_wrong_types(tmp_path, capsys, data):
    # a value of the wrong type is a usage error, not a traceback, and a
    # non-integral count is rejected rather than truncated
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, ["korn", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err.startswith("kornlab: ")
    assert next(iter(data)) in err


def test_config_file_integral_float(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kmax": 2.0}))
    code, out, _ = run_cli(capsys, ["korn", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["config"]["kmax"] == 2


@pytest.mark.parametrize("data", [
    {"p": "two"},
    {"p": 10 ** 400},
    {"box": [True, 0, 0, 2, 1, 1]},
    {"box": "1,2,3"},
    {"box": [0, 0, 0, 1, 1, "1"]},
    {"seed": "x"},
    {"samples": None},
    {"kmax": 2.5},
    {"grid_n": 12},
    {"grid_n": 8.5},
    {"out": 5},
    {"format": "xml"},
], ids=["p-str", "p-huge-int", "box-bool", "box-short", "box-str", "seed-str", "samples-null",
        "kmax-float", "grid-not-power", "grid-float", "out-int", "format-xml"])
def test_config_usage_error_starts_with_its_key(tmp_path, capsys, data):
    # each value is read once, by the library's reader, and its error is
    # prefixed with the config key it came from
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, ["counterexample", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err.startswith("kornlab: %s: " % next(iter(data)))


def test_config_values_are_the_library_readers_values(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kmax": 3.0, "grid_n": 8.0, "p": 2, "box": [-1, -1, -1, 1, 1, 1]}))
    got = cli.resolve_config(cli.build_parser().parse_args(["counterexample", "--config", str(cfg)]))
    assert type(got["kmax"]) is int and type(got["grid_n"]) is int and type(got["p"]) is float
    assert got["box"] == (-1.0, -1.0, -1.0, 1.0, 1.0, 1.0)
    assert all(type(v) is float for v in got["box"])


def test_bad_flag_values(capsys):
    code, out, err = run_cli(capsys, ["korn", "--kmax", "0"])
    assert code == 2 and out == ""
    code, out, err = run_cli(capsys, ["counterexample", "--box", "1,2,3"])
    assert code == 2 and err.startswith("kornlab: box: wants x0,y0,z0,x1,y1,z1")
    # values the library validators reject are usage errors, not tracebacks
    for argv in (["identities", "--grid-n", "12"],
                 ["symbol", "--seed", "-1"],
                 ["kernel", "--seed", "-1"],
                 ["identities", "--seed", "-1"],
                 ["counterexample", "--p", "0.5"],
                 ["counterexample", "--box", "1,1,1,0,0,0"],
                 ["counterexample", "--box", "nan,0,0,1,1,1"],
                 ["counterexample", "--box", "0,0,0,1,1,inf"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("kornlab: ")


@pytest.mark.parametrize("key, text", [
    ("kmax", "2.0"), ("seed", "1e3"), ("kmax", "x"), ("p", "two"), ("p", "3"),
    ("samples", "0"), ("grid_n", "12"), ("format", "xml"),
    # a value that starts with "-" is a value, not a flag
    ("p", "-1e3"), ("seed", "-x"), ("box", "-2,-1,-1,1,1,1")])
def test_flag_and_config_value_meet_one_reader(tmp_path, capsys, key, text):
    # a flag's text and the JSON value it denotes in a config file (the text
    # itself when it is no JSON number) give the same run or the same refusal
    try:
        value = json.loads(text)
    except ValueError:
        value = text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    flag = run_cli(capsys, ["korn", "--" + key.replace("_", "-"), text])
    config = run_cli(capsys, ["korn", "--config", str(cfg)])
    assert flag[0] == config[0]
    if flag[0] == 2:
        first = flag[2].splitlines()[0]
        assert first.startswith("kornlab: %s: " % key) and flag[1] == ""
        assert first == config[2].splitlines()[0]
    else:
        assert json.loads(flag[1])["config"] == json.loads(config[1])["config"]


def test_a_flag_name_is_not_taken_as_a_value(capsys):
    # "--p --kmax 2" leaves --p without a value: argparse's usage error, not p's reader
    with pytest.raises(SystemExit) as exc:
        cli.main(["korn", "--p", "--kmax", "2"])
    assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, ["counterexample", "--kmax", "2", "--box", "-2,-1,-1,1,1,1"])
    assert code == 0 and json.loads(out)["config"]["box"] == [-2, -1, -1, 1, 1, 1]


@pytest.mark.parametrize("value", ["2", "-1e3"])
def test_an_abbreviated_flag_is_refused(capsys, value):
    # each flag is spelled in full: "--kma" is no "--kmax", whatever its value
    with pytest.raises(SystemExit) as exc:
        cli.main(["korn", "--kma", value])
    assert exc.value.code == 2 and "unrecognized arguments: --kma" in capsys.readouterr().err


def test_values_are_read_in_row_order(capsys):
    # kmax's row comes before format's, so kmax's refusal is the one printed
    code, out, err = run_cli(capsys, ["korn", "--format", "xml", "--kmax", "0"])
    assert code == 2 and out == "" and err.startswith("kornlab: kmax: ")


def test_config_file_non_finite_box(tmp_path, capsys):
    # JSON reads 1e999 as an infinite float
    path = tmp_path / "cfg.json"
    path.write_text('{"box": [0, 0, 0, 1, 1, 1e999]}')
    code, out, err = run_cli(capsys, ["counterexample", "--config", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("kornlab: ") and "finite" in err


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit):
        cli.main(["transmogrify"])


# ----------------------------------------------------------------------------
# subcommands end to end


def test_korn_command_report(capsys):
    code, out, err = run_cli(capsys, ["korn", "--kmax", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == "kornlab/1"
    assert report["command"] == "korn"
    assert list(report) == ["schema_version", "command", "config", "results",
                            "errors", "timings_ms"]
    assert report["errors"] == []
    assert report["timings_ms"] == {}
    assert report["results"]["c_estimate"] == pytest.approx(2.2882456112707374)
    assert len(report["results"]["entries"]) == 125
    assert "finished" in err


def test_korn_kmax_one_reports_truncation(capsys):
    # with kmax = 1 the outermost shell carries the minimum: named error,
    # exit status 1, report still written
    code, out, _ = run_cli(capsys, ["korn", "--kmax", "1"])
    assert code == 1
    report = json.loads(out)
    assert report["results"]["non_monotone_tail"] is True
    assert len(report["errors"]) == 1


def test_korn_names_entries_off_the_closed_form(monkeypatch, capsys):
    # the orbit representative (1, 0, 0) is corrupted by 1e-9: still inside
    # (0, 1], so only the closed-form check can name its six cube entries
    from kornlab import korn_estimator
    lambda_min = korn_estimator.lambda_min

    def corrupted(k):
        w, v = lambda_min(k)
        return w + 1e-9 * (np.asarray(k) == (1, 0, 0)).all(axis=-1), v

    monkeypatch.setattr(korn_estimator, "lambda_min", corrupted)
    code, out, _ = run_cli(capsys, ["korn", "--kmax", "2"])
    assert code == 1
    (error,) = json.loads(out)["errors"]
    assert error.startswith("6 per-frequency minima differ from the closed form")
    assert "worst at k = (-1, 0, 0)" in error


@pytest.mark.filterwarnings("error")
def test_korn_reports_a_zero_minimum(monkeypatch, capsys):
    # a per-frequency minimum of 0 gives no finite constant: c_estimate is
    # null, the (0, 1] check names it, exit 1, and no numpy warning is raised
    from kornlab import korn_estimator
    lambda_min = korn_estimator.lambda_min

    def zeroed(k):
        w, v = lambda_min(k)
        return np.where((np.asarray(k) == (2, 1, 0)).all(axis=-1), 0.0, w), v

    monkeypatch.setattr(korn_estimator, "lambda_min", zeroed)
    code, out, err = run_cli(capsys, ["korn", "--kmax", "3"])
    assert code == 1
    report = json.loads(out)
    assert report["results"]["c_estimate"] is None
    assert report["results"]["lambda_min"] == 0.0
    assert "per-frequency minimum left the interval (0, 1]" in report["errors"]
    assert _stderr_errors(err) == report["errors"]
    code, out, err = run_cli(capsys, ["korn", "--kmax", "3", "--format", "csv"])
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1 + 7 ** 3
    assert "2,1,0,0" in lines and "-1,0,2,0" in lines
    assert _stderr_errors(err) == report["errors"]


@pytest.mark.filterwarnings("error")
def test_korn_reports_a_nan_minimum(monkeypatch, capsys):
    # a NaN per-frequency minimum fails the (0, 1] and closed-form checks;
    # every non-finite value is written as null in both formats, exit 1
    from kornlab import korn_estimator
    lambda_min = korn_estimator.lambda_min

    def nanned(k):
        w, v = lambda_min(k)
        return np.where((np.asarray(k) == (2, 1, 0)).all(axis=-1), np.nan, w), v

    monkeypatch.setattr(korn_estimator, "lambda_min", nanned)
    code, out, err = run_cli(capsys, ["korn", "--kmax", "3"])
    assert code == 1
    report = json.loads(out)
    res = report["results"]
    assert res["lambda_min"] is None and res["c_estimate"] is None
    nulls = [e[:3] for e in res["entries"] if e[3] is None]
    assert len(nulls) == 24                 # the signed permutations of (2, 1, 0)
    assert sorted(sorted(map(abs, k)) for k in nulls) == [[0, 1, 2]] * 24
    errors = report["errors"]
    assert "per-frequency minimum left the interval (0, 1]" in errors
    assert any(e.startswith("24 per-frequency minima differ from the closed form")
               and ": nan against " in e for e in errors)
    assert "25 non-finite values in the results are written as null" in errors
    assert _stderr_errors(err) == errors
    code, out, err = run_cli(capsys, ["korn", "--kmax", "3", "--format", "csv"])
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1 + 7 ** 3
    assert "2,1,0,null" in lines and "-1,0,2,null" in lines
    assert sum(line.endswith(",null") for line in lines) == 24
    assert _stderr_errors(err) == errors


def test_korn_report_bytes_match_the_generic_walk(capsys):
    # the row renderer writes what to_json writes for [int, int, int, float] lists
    code, out, _ = run_cli(capsys, ["korn", "--kmax", "4"])
    assert code == 0
    cfg = cli.resolve_config(cli.build_parser().parse_args(["korn", "--kmax", "4"]))
    results, checks = cli.run_korn(cfg)
    assert isinstance(results["entries"], np.ndarray)
    results["entries"] = [[int(k1), int(k2), int(k3), lam]
                          for k1, k2, k3, lam in results["entries"]]
    assert len(results["entries"]) == 729
    assert all(holds for _, holds in checks)
    assert out == cli._render("korn", cfg, results, [])


def test_korn_csv_format(capsys):
    code, out, _ = run_cli(capsys, ["korn", "--kmax", "1", "--format", "csv"])
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[0] == "k1,k2,k3,lambda_min"
    assert len(lines) == 1 + 27


def test_identities_command(capsys):
    code, out, _ = run_cli(capsys, ["identities", "--samples", "100",
                                    "--grid-n", "8"])
    assert code == 0
    report = json.loads(out)
    suite = report["results"]["suite"]
    assert len(suite) >= 40
    assert all(row["passed"] for row in suite)


def test_symbol_command(capsys):
    code, out, _ = run_cli(capsys, ["symbol", "--samples", "30"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["kernel_dimension_min"] == 4
    assert res["kernel_dimension_max"] == 4
    assert res["kernel_gap_min"] > 1e6
    assert res["sharp_ratio_e3"] == pytest.approx(np.sqrt(3.0), abs=1e-11)
    assert res["equivalence_constant"] == pytest.approx(np.sqrt(3.0), abs=1e-11)
    assert res["witness_devsym_residual"] == 0.0
    assert res["witness_sym_residual"] == 0.0


def test_symbol_reports_the_witness_residuals(monkeypatch, capsys):
    # run_symbol reads the residuals the KernelWitness constructor keeps;
    # a pair perturbed below the gate makes them nonzero
    from kornlab import symbol
    p = symbol.KernelWitness().p_hat.copy()
    p[0, 0] += 2e-16
    p[1, 2] += 1e-16
    witness = symbol.KernelWitness(p_hat=p)
    monkeypatch.setattr(symbol, "KernelWitness", lambda: witness)
    code, out, _ = run_cli(capsys, ["symbol", "--samples", "30"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["witness_devsym_residual"] == witness.devsym_residual > 0.0
    assert res["witness_sym_residual"] == witness.sym_residual > 0.0


def _failing_equivalence(samples, seed):
    raise RuntimeError("direction-dependent ratio (spread 1.000e-03)")


def test_symbol_names_a_failed_equivalence_constant(monkeypatch, capsys):
    # a failed value is written as null and named in the errors, exit 1
    from kornlab import korn_estimator
    monkeypatch.setattr(korn_estimator, "equivalence_constant", _failing_equivalence)
    code, out, _ = run_cli(capsys, ["symbol", "--samples", "30"])
    assert code == 1
    report = json.loads(out)
    assert report["results"]["equivalence_constant"] is None
    assert report["errors"] == ["equivalence_constant: direction-dependent ratio "
                                "(spread 1.000e-03)"]


def test_symbol_names_a_nan_direction(monkeypatch, capsys):
    # one NaN ratio in the sphere sample is a failed equivalence check, not
    # only a null in the results
    from kornlab import korn_estimator
    real = korn_estimator.sharp_ratio
    monkeypatch.setattr(korn_estimator, "sharp_ratio",
                        lambda xi: np.where(np.arange(len(xi)) == 0, np.nan, real(xi)))
    code, out, _ = run_cli(capsys, ["symbol", "--samples", "30"])
    assert code == 1
    errors = json.loads(out)["errors"]
    assert any(e.startswith("equivalence_constant: direction-dependent ratio") for e in errors), \
        errors


def _stderr_errors(err):
    prefix = "kornlab: error: "
    return [line[len(prefix):] for line in err.splitlines() if line.startswith(prefix)]


def test_errors_go_to_stderr_in_every_format(monkeypatch, capsys):
    # a CSV report has no "errors" array, so stderr is where it names them
    from kornlab import korn_estimator
    monkeypatch.setattr(korn_estimator, "equivalence_constant", _failing_equivalence)
    code, out, err = run_cli(capsys, ["symbol", "--samples", "30", "--format", "csv"])
    assert code == 1
    assert "equivalence_constant,null" in out.splitlines()
    assert _stderr_errors(err) == ["equivalence_constant: direction-dependent ratio "
                                   "(spread 1.000e-03)"]
    _, out, err = run_cli(capsys, ["korn", "--kmax", "1"])
    (error,) = json.loads(out)["errors"]
    assert _stderr_errors(err) == [error]
    code, _, csv_err = run_cli(capsys, ["korn", "--kmax", "1", "--format", "csv"])
    assert code == 1 and _stderr_errors(csv_err) == [error]
    code, _, err = run_cli(capsys, ["korn", "--kmax", "2", "--format", "csv"])
    assert code == 0 and _stderr_errors(err) == []


# ----------------------------------------------------------------------------
# one corruption case per check: each patches the call its row guards


def _raising(exc):
    def fake(*args, **kwargs):
        raise exc
    return lambda real: fake


def _returning(value):
    return lambda real: lambda *args, **kwargs: value


def _replacing(**changes):
    """The real call with fields of its dataclass result replaced."""
    return lambda real: lambda *args, **kwargs: dataclasses.replace(real(*args, **kwargs),
                                                                    **changes)


def _replacing_on_call(call, **changes):
    """The real calls, with fields of the dataclass result of one of them replaced."""
    def wrap(real):
        calls = itertools.count(1)
        def fake(*args, **kwargs):
            got = real(*args, **kwargs)
            return dataclasses.replace(got, **changes) if next(calls) == call else got
        return fake
    return wrap


def _one_identity(residual):
    return _returning([identities.IdentityResult("planted", 10, residual,
                                                 identities.ALGEBRA_TOL)])


def _nan_on_draw(draw):
    """The real suite, with its first spectral identity NaN on one draw only."""
    def wrap(real):
        def fake(*args, **kwargs):
            name, check = identities.SPECTRAL[0]
            calls = itertools.count(1)
            identities.SPECTRAL[0] = (name, lambda d: _NAN if next(calls) == draw else check(d))
            try:
                return real(*args, **kwargs)
            finally:
                identities.SPECTRAL[0] = (name, check)
        return fake
    return wrap


def _fitted(**changes):
    """The real projection with fields of its fitted kernel element replaced, past the
    KernelElement constructor (which refuses a non-finite parameter)."""
    def wrap(real):
        def fake(*args, **kwargs):
            fit = real(*args, **kwargs)
            element = copy.copy(fit.element)
            for name, value in changes.items():
                object.__setattr__(element, name, value)
            return dataclasses.replace(fit, element=element)
        return fake
    return wrap


def _scaled_multiplier(factor):
    """M(xi) times factor(|xi|): the identity sees |xi| = 1, the homogeneity |xi| = 2 too."""
    return lambda real: lambda xi: real(xi) * factor(np.linalg.norm(xi, axis=-1))[..., None, None]


def _last_korn_entry(update):
    """The scan with the lambda of its last entry, k = (kmax, kmax, kmax), updated."""
    def wrap(real):
        def fake(kmax):
            report = real(kmax)
            entries = report.entries.copy()
            entries[-1, 3] = update(entries[-1, 3])
            return dataclasses.replace(report, entries=entries)
        return fake
    return wrap


_IDENTITY = "identity %s exceeded tolerance (%.3e >= %.3e)"
_DIMENSION = "kernel dimension of the devsym curl symbol left 4"
_MULTIPLIER = "multiplier identity M(xi) A(xi) = A_sym(xi) violated"
_HOMOGENEITY = "multiplier homogeneity violated"
_EQUIVALENCE = "equivalence_constant: %s"
_SQRT3 = "sharp ratio or equivalence constant differs from sqrt(3) by more than 1e-12 relative"
_INTERVAL = "per-frequency minimum left the interval (0, 1]"
_CLOSED_FORM = ("%d per-frequency minima differ from the closed form "
                "(2 + t - sqrt(t^2 + 4))/4, t = |k|^2, by more than 1e-12 + 16 eps t; "
                "worst at k = (%d, %d, %d): %.17g against %.17g")
_TAIL = "outermost frequency shell attains the minimum (scan radius too small)"
_GROWTH = "growth ratio k=%d: %s"
_HALFSPACE = "halfspace ratio k=%d: %s"
_SPHERE = "random spherical 12-point cloud is not rigid (rank != 10)"
_DEGENERATE = "degenerate configuration (circle/line) reported as rigid"
_RECOVERY = "exact kernel sample was not recovered by projection"
_NON_FINITE = "%d non-finite values in the results are written as null"

# rows that a clean run at the defaults does not return: the three raised
# on an exception and main's count of non-finite values
_NOT_RETURNED_WHEN_CLEAN = {_EQUIVALENCE, _GROWTH, _HALFSPACE, _NON_FINITE}

_SYMBOL = ["symbol", "--samples", "30"]
_NAN = float("nan")

CHECK_CASES = [
    pytest.param(["identities"], _IDENTITY, "identities.run_all",
                 _one_identity(identities.ALGEBRA_TOL), id="identity"),
    pytest.param(["identities"], _IDENTITY, "identities.run_all", _one_identity(_NAN),
                 id="identity-nan"),
    pytest.param(["identities", "--grid-n", "8"], _IDENTITY, "identities.run_all",
                 _nan_on_draw(2), id="identity-nan-on-draw-2"),
    pytest.param(_SYMBOL, _DIMENSION, "symbol.kernel_basis", _replacing(dimension=5),
                 id="dimension"),
    # NaN singular values on the second of the 100 directions: the gap minimum keeps the NaN
    pytest.param(_SYMBOL, _NON_FINITE, "symbol.kernel_basis",
                 _replacing_on_call(2, singular_values=np.full(9, _NAN)), id="gap-nan-on-call-2"),
    pytest.param(_SYMBOL, _MULTIPLIER, "symbol.build_multiplier",
                 _scaled_multiplier(lambda r: np.full_like(r, 1.0 + 1e-9)), id="multiplier"),
    pytest.param(_SYMBOL, _MULTIPLIER, "symbol.build_multiplier",
                 _scaled_multiplier(lambda r: np.full_like(r, _NAN)), id="multiplier-nan"),
    pytest.param(_SYMBOL, _HOMOGENEITY, "symbol.build_multiplier",
                 _scaled_multiplier(lambda r: np.where(r > 1.5, 1.0 + 1e-9, 1.0)),
                 id="homogeneity"),
    pytest.param(_SYMBOL, _HOMOGENEITY, "symbol.build_multiplier",
                 _scaled_multiplier(lambda r: np.where(r > 1.5, _NAN, 1.0)),
                 id="homogeneity-nan"),
    pytest.param(_SYMBOL, _EQUIVALENCE, "korn_estimator.equivalence_constant",
                 _raising(RuntimeError("direction-dependent ratio")), id="equivalence"),
    # the norm of M with sym(u u^T) in place of dev(u u^T): M A = A_sym still holds
    pytest.param(_SYMBOL, _SQRT3, "symbol.sharp_ratio", _returning(1.9318516525781362),
                 id="sqrt3"),
    pytest.param(_SYMBOL, _SQRT3, "korn_estimator.equivalence_constant", _returning(_NAN),
                 id="sqrt3-nan"),
    pytest.param(["korn"], _INTERVAL, "korn_estimator.korn_constant",
                 _last_korn_entry(lambda lam: 1.5), id="interval"),
    pytest.param(["korn"], _INTERVAL, "korn_estimator.korn_constant",
                 _last_korn_entry(lambda lam: _NAN), id="interval-nan"),
    pytest.param(["korn"], _CLOSED_FORM, "korn_estimator.korn_constant",
                 _last_korn_entry(lambda lam: lam + 1e-9), id="closed-form"),
    pytest.param(["korn"], _CLOSED_FORM, "korn_estimator.korn_constant",
                 _last_korn_entry(lambda lam: _NAN), id="closed-form-nan"),
    pytest.param(["korn"], _TAIL, "korn_estimator.korn_constant",
                 _replacing(non_monotone_tail=True), id="tail"),
    pytest.param(["counterexample"], _GROWTH, "growth_ratio",
                 _raising(UnderResolvedError("planted")), id="growth"),
    pytest.param(["counterexample"], _HALFSPACE, "halfspace_ratio",
                 _raising(UnderResolvedError("planted")), id="halfspace"),
    pytest.param(["kernel"], _SPHERE, "kernels.boundary_rank", _returning(9), id="sphere"),
    pytest.param(["kernel"], _DEGENERATE, "kernels.boundary_rank", _returning(10),
                 id="degenerate"),
    pytest.param(["kernel"], _RECOVERY, "kernels.project_kernel", _replacing(residual=1e-7),
                 id="recovery"),
    pytest.param(["kernel"], _RECOVERY, "kernels.project_kernel", _replacing(residual=_NAN),
                 id="recovery-nan"),
    # NaN in the last part of the recovery error only
    pytest.param(["kernel"], _RECOVERY, "kernels.project_kernel",
                 _fitted(d=np.array([0.0, _NAN, 0.0])), id="recovery-element-nan"),
    pytest.param(["kernel"], _NON_FINITE, "kernels.project_kernel", _replacing(cond=_NAN),
                 id="non-finite"),
]


def _pattern(template):
    """The messages a %-template formats, as a regular expression."""
    return re.compile("(.+)".join(map(re.escape, re.split(r"%[.\d]*[sdeg]", template))))


def _patch_cli_view(monkeypatch, target, fake):
    """Replace what cli calls as target ("module.name" or a name of cli itself).

    A module is replaced by a copy of its namespace, so library code that
    calls the real name (sharp_ratio calls build_multiplier) is unaffected.
    """
    owner, _, name = target.rpartition(".")
    if not owner:
        monkeypatch.setattr(cli, name, fake(getattr(cli, name)))
        return
    module = getattr(cli, owner)
    view = types.SimpleNamespace(**vars(module))
    setattr(view, name, fake(getattr(module, name)))
    monkeypatch.setattr(cli, owner, view)


@pytest.mark.parametrize("argv, template, target, fake", CHECK_CASES)
def test_each_check_names_its_corruption(monkeypatch, capsys, argv, template, target, fake):
    _patch_cli_view(monkeypatch, target, fake)
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    errors = json.loads(out)["errors"]
    assert any(_pattern(template).fullmatch(e) for e in errors), errors
    assert _stderr_errors(err) == errors


def test_every_check_has_a_corruption_case():
    # a clean run at the defaults returns each command's rows, all holding;
    # a row whose message matches no template of the table has no case
    templates = {case.values[1] for case in CHECK_CASES}
    seen = set(_NOT_RETURNED_WHEN_CLEAN)
    for command, run in cli.COMMANDS.items():
        _, checks = run(cli.resolve_config(cli.build_parser().parse_args([command])))
        for message, holds in checks:
            assert holds, message
            matched = [t for t in templates if _pattern(t).fullmatch(message)]
            assert len(matched) == 1, "no corruption case for %r" % message
            seen.add(matched[0])
    assert seen == templates


def test_counterexample_command(capsys):
    code, out, _ = run_cli(capsys, ["counterexample", "--kmax", "6"])
    assert code == 0
    res = json.loads(out)["results"]
    growth = dict((int(k), r) for k, r in res["growth"])
    assert sorted(growth) == [1, 2, 3, 4, 5, 6]
    assert growth[1] == pytest.approx(np.sqrt(1.5), rel=1e-10)
    halfspace = dict((int(k), r) for k, r in res["halfspace"])
    assert sorted(halfspace) == [2, 4]
    assert res["monotone_from"] == 1


def test_monotone_from_follows_the_last_dip(monkeypatch, capsys):
    # growth ratios k + 1 with a dip at k = 3: monotone from k = 4 on
    _patch_cli_view(monkeypatch, "growth_ratio",
                    lambda _: lambda k, p, box: 1.0 if k == 3 else k + 1.0)
    code, out, _ = run_cli(capsys, ["counterexample", "--kmax", "6"])
    assert code == 0
    res = json.loads(out)["results"]
    assert [r for _, r in res["growth"]] == [2.0, 3.0, 1.0, 5.0, 6.0, 7.0]
    assert res["monotone_from"] == 4


def test_box_with_a_negative_first_coordinate(capsys):
    # the "=" form: as a separate value, "-2,..." would be read as a flag
    code, out, _ = run_cli(capsys, ["counterexample", "--kmax", "2", "--box=-2,-1,-1,1,1,1"])
    assert code == 0
    report = json.loads(out)
    assert report["config"]["box"] == report["results"]["box"] == [-2, -1, -1, 1, 1, 1]


@pytest.mark.parametrize("failing, first, other, kept", [
    ("growth", 1, "halfspace", [2, 4]),
    ("halfspace", 2, "growth", [1, 2, 3, 4]),
])
def test_a_failing_family_does_not_stop_the_other(monkeypatch, capsys, failing, first, other,
                                                  kept):
    # each family breaks out of its own loop only
    _patch_cli_view(monkeypatch, failing + "_ratio", _raising(UnderResolvedError("planted")))
    code, out, _ = run_cli(capsys, ["counterexample"])
    assert code == 1
    report = json.loads(out)
    assert report["errors"] == ["%s ratio k=%d: planted" % (failing, first)]
    assert report["results"][failing] == []
    assert [k for k, _ in report["results"][other]] == kept


def test_counterexample_overflow_prints_no_raw_warning():
    # |z|^2 overflows on a huge finite box: the quadrature's NaN is named in
    # the errors, and numpy's own RuntimeWarning lines stay off stderr
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kornlab.__file__)))
    proc = subprocess.run([sys.executable, "-m", "kornlab.cli", "counterexample",
                           "--box=-1e308,-1e308,-1e308,1e308,1e308,1e308", "--kmax", "2"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert ("kornlab: error: growth ratio k=1: quadrature gave nan"
            in proc.stderr.splitlines()[0])
    assert json.loads(proc.stdout)["errors"][0].startswith(
        "growth ratio k=1: quadrature gave nan")


def test_kernel_command(capsys):
    code, out, _ = run_cli(capsys, ["kernel"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["sphere_ranks"] == [10] * 20
    assert res["circle_rank"] == 9
    assert res["line_rank"] == 9
    assert res["recovery_error"] < 1e-8
    assert res["projection_residual"] < 1e-8


def test_import_and_light_commands_load_no_scipy():
    # no kornlab code path needs scipy; a fresh process that imports kornlab,
    # runs `kernel` and `symbol` and the grid crosscheck must not load any scipy module
    script = (
        "import contextlib, io, json, sys\n"
        "import kornlab, kornlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [kornlab.cli.main(['kernel']), kornlab.cli.main(['symbol'])]\n"
        "gap = kornlab.korn_estimator.grid_crosscheck(8)\n"
        "print(json.dumps([codes, gap, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kornlab.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, gap, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0] and gap < 1e-8
    assert scipy_modules == []


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["korn", "--kmax", "2", "--out", str(target)])
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["command"] == "korn"


def test_unwritable_out_file_is_usage_error(tmp_path, capsys, monkeypatch):
    # refused before the command runs
    monkeypatch.setitem(cli.COMMANDS, "korn", lambda cfg: pytest.fail("command ran"))
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, ["korn", "--out", str(target)])
    assert code == 2 and out == ""
    assert err == "kornlab: cannot write %s: No such file or directory\n" % target
    code, out, err = run_cli(capsys, ["korn", "--out", str(tmp_path)])
    assert code == 2 and err.startswith("kornlab: cannot write %s: " % tmp_path)


@pytest.mark.parametrize("form", ["flag", "config"])
def test_empty_out_path_is_usage_error(tmp_path, capsys, monkeypatch, form):
    # an empty path is a path that cannot be written, not a request for stdout
    monkeypatch.setitem(cli.COMMANDS, "kernel", lambda cfg: pytest.fail("command ran"))
    argv = ["kernel", "--out", ""]
    if form == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": ""}))
        argv = ["kernel", "--config", str(config)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("kornlab: cannot write : ")


def test_repeat_runs_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, ["korn", "--kmax", "2", "--seed", "1"])
    _, out2, _ = run_cli(capsys, ["korn", "--kmax", "2", "--seed", "1"])
    assert out1 == out2
    _, csv1, _ = run_cli(capsys, ["identities", "--samples", "50",
                                  "--grid-n", "8", "--format", "csv"])
    _, csv2, _ = run_cli(capsys, ["identities", "--samples", "50",
                                  "--grid-n", "8", "--format", "csv"])
    assert csv1 == csv2
