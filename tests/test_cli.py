"""Command-line interface: output contracts, exit codes, config layering."""

import hashlib
import json
import re

import pytest

from conftest import RJ4_BIGRADED
from pfaffcalc import cli
from pfaffcalc.textio import parse_cas
from pfaffcalc import verify
from pfaffcalc.verify import ERROR, FAIL, CheckResult, SuiteReport


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- gen ---------------------------------------------------------------------

def test_gen_smallest_case_exact_lines(capsys):
    code, out, _ = run(["gen", "--ideal", "J", "--f", "2"], capsys)
    assert code == 0
    assert out == "t_1*x_(1,2)\nt_2*x_(1,2)\n"


def test_gen_pfaffian_f4(capsys):
    code, out, _ = run(["gen", "--ideal", "I", "--f", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert set("".join(lines)) <= set("x_(),*+-0123456789 ")


def test_gen_cas_roundtrip(capsys):
    code, out, _ = run(["gen", "--ideal", "J", "--f", "4",
                        "--format", "cas"], capsys)
    assert code == 0
    ring, gens = parse_cas(out)
    assert len(gens) == 5
    assert ring.field.char == 0


def test_gen_lambda_count(capsys):
    code, out, _ = run(["gen", "--ideal", "Ilambda", "--f", "5",
                        "--lambda", "3", "--char", "2"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 5 + 3


def test_gen_lambda_required(capsys):
    code, _, err = run(["gen", "--ideal", "Ilambda", "--f", "5"], capsys)
    assert code == 64


# -- codim ---------------------------------------------------------------------

def test_codim_json_contract(capsys):
    code, out, _ = run(["codim", "--ideal", "J", "--f", "4"], capsys)
    assert code == 0
    assert json.loads(out) == {"dim": 7, "codim": 3,
                               "hilbert_numerator": [1, 0, -5, 5, 0, -1]}


def test_codim_over_prime_field(capsys):
    code, out, _ = run(["codim", "--ideal", "J", "--f", "3",
                        "--char", "32003"], capsys)
    assert code == 0
    assert json.loads(out)["codim"] == 2


# -- resolve ---------------------------------------------------------------------

def test_resolve_text_table(capsys):
    code, out, _ = run(["resolve", "--module", "N", "--f", "4"], capsys)
    assert code == 0
    assert out.endswith("\n")
    assert any(ln.startswith("total:") for ln in out.splitlines())


def test_resolve_bigraded_json(capsys):
    code, out, _ = run(["resolve", "--module", "RJ", "--f", "4",
                        "--bigraded", "--format", "json"], capsys)
    assert code == 0
    got = {(e["i"], (e["jx"], e["jt"])): e["count"]
           for e in json.loads(out)["betti"]}
    assert got == RJ4_BIGRADED


def test_resolve_total_json(capsys):
    code, out, _ = run(["resolve", "--module", "A", "--f", "4",
                        "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["betti"] == [
        {"i": 0, "j": 0, "count": 1}, {"i": 1, "j": 2, "count": 1}]


# -- frozen output bytes ---------------------------------------------------------

# sha256 of the complete stdout; any change in rendering, term order,
# generator order or JSON layout shows here.
FROZEN_STDOUT = [
    (["resolve", "--module", "RJ", "--f", "4", "--format", "json"],
     "3fb08876e28b1f73f5f83d92719ac24076c089702bce5c52f6520f937e71cffe"),
    (["resolve", "--module", "N", "--f", "5", "--bigraded",
      "--format", "json"],
     "8e30fc00f8311db9ad92b30c38f0aa798e9d636ff97e521f35871a37f55f0d59"),
    (["codim", "--ideal", "J", "--f", "5"],
     "bd3789d60ed8d5417e28796721ffc391b04c71aa298971047ac9a55a9019e8dc"),
    (["gen", "--ideal", "J", "--f", "4", "--format", "cas"],
     "d73de21e0b5ac85301eb2da6f55cbfa26dd917cb2bb78c2024654471e0e8ceb3"),
]


@pytest.mark.parametrize("argv,digest", FROZEN_STDOUT,
                         ids=[" ".join(a) for a, _ in FROZEN_STDOUT])
def test_stdout_bytes_are_frozen(argv, digest, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- verify ---------------------------------------------------------------------

def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(["verify", "--suite", "grades", "--f", "2",
                        "--char", "0"], capsys)
    assert code == 0
    assert "status: pass" in out


def test_verify_json_format(capsys):
    code, out, _ = run(["verify", "--suite", "grades", "--f", "2",
                        "--char", "0", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_zero_budget_exit_two(capsys):
    code, out, _ = run(["verify", "--suite", "resolutions", "--f", "4",
                        "--budget-seconds", "0"], capsys)
    assert code == 2
    assert "skipped (budget)" in out


@pytest.mark.parametrize("value", ["nan", "-1", "-0.5"])
def test_verify_rejects_nan_or_negative_budget(value, tmp_path, capsys):
    argv = ["verify", "--suite", "grades", "--f", "2", "--char", "0"]
    code, _, err = run(argv + ["--budget-seconds", value], capsys)
    assert code == 64
    assert "budget-seconds must be a number >= 0" in err
    conf = tmp_path / "run.conf"
    conf.write_text("budget-seconds = %s\n" % value)
    code, _, err = run(argv + ["--config", str(conf)], capsys)
    assert code == 64
    assert "budget-seconds must be a number >= 0" in err


def test_verify_failure_exit_one(monkeypatch, capsys):
    fake = SuiteReport("grades", [4], [0], 0,
                       [CheckResult("x", "c", FAIL, "boom", 0.0)])
    monkeypatch.setattr(cli, "run_suite",
                        lambda *a, **kw: fake)
    code, out, _ = run(["verify", "--suite", "grades"], capsys)
    assert code == 1
    assert "fail" in out


def test_verify_error_exit_three(monkeypatch, capsys):
    fake = SuiteReport("grades", [4], [0], 0,
                       [CheckResult("x", "c", ERROR, "KeyError: 3", 0.0)])
    monkeypatch.setattr(cli, "run_suite",
                        lambda *a, **kw: fake)
    code, out, _ = run(["verify", "--suite", "grades"], capsys)
    assert code == 3
    assert "[error] x" in out


def test_internal_error_outside_a_check_exits_70(monkeypatch, capsys):
    def boom(*a, **kw):
        raise RuntimeError("suite builder broke")

    monkeypatch.setattr(cli, "run_suite", boom)
    code, out, err = run(["verify", "--suite", "grades"], capsys)
    assert code == 70
    assert out == ""
    assert err == ("pfaffcalc: internal error: RuntimeError: "
                   "suite builder broke\n")


def test_internal_error_under_resolve_exits_70(monkeypatch, capsys):
    def boom(*a, **kw):
        raise ZeroDivisionError("pivot vanished")

    monkeypatch.setattr(cli, "free_resolution", boom)
    code, out, err = run(["resolve", "--module", "A", "--f", "4"], capsys)
    assert code == 70
    assert out == ""
    assert err == ("pfaffcalc: internal error: ZeroDivisionError: "
                   "pivot vanished\n")


def test_verify_failure_beats_error(monkeypatch, capsys):
    fake = SuiteReport("grades", [4], [0], 0,
                       [CheckResult("x", "c", ERROR, "KeyError: 3", 0.0),
                        CheckResult("y", "c", FAIL, "boom", 0.0)])
    monkeypatch.setattr(cli, "run_suite",
                        lambda *a, **kw: fake)
    code, _, _ = run(["verify", "--suite", "grades"], capsys)
    assert code == 1


def test_verify_crashing_check_exit_three(monkeypatch, capsys):
    def crash():
        raise AssertionError("leading term grew")

    monkeypatch.setitem(
        verify._SUITE_BUILDERS, "grades",
        (lambda fs, chars, seed: [verify._Check("crash", "c", crash)],
         (4,), (0,)))
    code, out, _ = run(["verify", "--suite", "grades", "--format", "json"],
                       capsys)
    assert code == 3
    obj = json.loads(out)
    assert obj["status"] == "error"
    assert obj["checks"][0]["detail"] == "AssertionError: leading term grew"


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run(["verify", "--suite", "bogus"], capsys)
    assert code == 64


# -- export ---------------------------------------------------------------------

def test_export_writes_cas_files(tmp_path, capsys):
    code, out, _ = run(["export", "--f", "4", "--char", "0",
                        "--outdir", str(tmp_path)], capsys)
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["I_f4_QQ.cas", "J_f4_QQ.cas", "K_f4_QQ.cas"]
    for p in tmp_path.iterdir():
        ring, gens = parse_cas(p.read_text())
        assert gens
    assert str(tmp_path) in out


def test_export_outdir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PFAFFCALC_OUTDIR", str(tmp_path))
    code, _, _ = run(["export", "--f", "2", "--char", "2"], capsys)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["I_f2_GF2.cas", "J_f2_GF2.cas", "K_f2_GF2.cas"]


def test_export_flag_beats_environment(tmp_path, monkeypatch, capsys):
    used = tmp_path / "used"
    ignored = tmp_path / "ignored"
    used.mkdir(), ignored.mkdir()
    monkeypatch.setenv("PFAFFCALC_OUTDIR", str(ignored))
    code, _, _ = run(["export", "--f", "2", "--outdir", str(used)], capsys)
    assert code == 0
    assert list(ignored.iterdir()) == []
    assert len(list(used.iterdir())) == 3


@pytest.mark.parametrize("grid", [
    pytest.param(["--f", "4,4"], id="f-repeats"),
    pytest.param(["--f", ""], id="f-empty"),
    pytest.param(["--char", "0,0"], id="char-repeats"),
    pytest.param(["--char", ""], id="char-empty"),
])
def test_export_refuses_an_empty_or_repeating_list(grid, tmp_path, capsys):
    outdir = tmp_path / "out"
    code, out, err = run(["export", "--outdir", str(outdir)] + grid, capsys)
    assert (code, out) == (64, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("pfaffcalc export: error: %s must list one or "
                          "more distinct values" % grid[0])
    assert not outdir.exists()


def test_export_empty_outdir_is_the_working_directory(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(["export", "--f", "2", "--outdir", ""], capsys)
    assert (code, err) == (0, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["I_f2_QQ.cas", "J_f2_QQ.cas", "K_f2_QQ.cas"]


def test_export_environment_beats_config(tmp_path, monkeypatch, capsys):
    used = tmp_path / "used"
    ignored = tmp_path / "ignored"
    conf = tmp_path / "run.conf"
    conf.write_text("outdir = %s\n" % ignored)
    monkeypatch.setenv("PFAFFCALC_OUTDIR", str(used))
    code, _, _ = run(["export", "--f", "2", "--config", str(conf)], capsys)
    assert code == 0
    assert not ignored.exists()
    assert len(list(used.iterdir())) == 3


# -- config file ---------------------------------------------------------------------

def test_config_file_supplies_defaults(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("# settings\nf = 3\nchar = 32003\n")
    code, out, _ = run(["codim", "--ideal", "J", "--config", str(conf)],
                       capsys)
    assert code == 0
    assert json.loads(out)["codim"] == 2


def test_flag_overrides_config(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("f = 3\n")
    code, out, _ = run(["codim", "--ideal", "J", "--config", str(conf),
                        "--f", "2"], capsys)
    assert code == 0
    assert json.loads(out)["codim"] == 1


def test_config_rejects_unknown_key(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("frobnicate = 9\n")
    code, _, _ = run(["codim", "--ideal", "J", "--config", str(conf)],
                     capsys)
    assert code == 64


def test_a_key_the_command_does_not_take_is_left_unread(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("seed = x\nformat = yaml\nbudget-seconds = nan\n")
    argv = ["codim", "--ideal", "J", "--f", "3"]
    code, out, err = run(argv + ["--config", str(conf)], capsys)
    assert (code, err) == (0, "")
    assert (code, out) == run(argv, capsys)[:2]


# Each setting with a bad value, and a good value for the config file
# that the good flag value overrides; the text reports tell them apart.
SETTINGS = [
    ("f", "1", "3", "2"),
    ("char", "6", "32003", "0"),
    ("seed", "x", "5", "0"),
    ("budget-seconds", "nan", "0", "1000"),
    ("format", "yaml", "json", "text"),
]


def _grades_argv(key):
    """verify on the grades suite at f = 2 over QQ, leaving out the flag
    of the setting under test."""
    argv = ["verify", "--suite", "grades"]
    for k, v in (("f", "2"), ("char", "0")):
        if k != key:
            argv += ["--" + k, v]
    return argv


def _untimed(out):
    return re.sub(r" \(\d+\.\d+s\)", "", out)


@pytest.mark.parametrize("key,bad", [s[:2] for s in SETTINGS],
                         ids=[s[0] for s in SETTINGS])
def test_a_bad_value_exits_64_from_a_flag_or_the_config(key, bad, tmp_path,
                                                        capsys):
    argv = _grades_argv(key)
    code, out, err = run(argv + ["--%s=%s" % (key, bad)], capsys)
    assert (code, out) == (64, "")
    conf = tmp_path / "run.conf"
    conf.write_text("%s = %s\n" % (key, bad))
    code, out, conf_err = run(argv + ["--config", str(conf)], capsys)
    assert (code, out) == (64, "")
    # one parser: the same complaint, whichever place the value came from
    assert conf_err.splitlines()[-1] == err.splitlines()[-1]


@pytest.mark.parametrize("key,bad", [s[:2] for s in SETTINGS],
                         ids=[s[0] for s in SETTINGS])
def test_a_bad_config_value_names_where_the_settings_came_from(
        key, bad, tmp_path, capsys, monkeypatch):
    conf = tmp_path / "run.conf"
    conf.write_text("%s = %s\n" % (key, bad))
    argv = _grades_argv(key) + ["--config", str(conf)]
    note = "pfaffcalc verify: settings were read from config file %r" \
        % str(conf)
    monkeypatch.delenv("PFAFFCALC_OUTDIR", raising=False)
    _, _, err = run(argv, capsys)
    assert err.splitlines()[-2] == note
    monkeypatch.setenv("PFAFFCALC_OUTDIR", str(tmp_path))
    _, _, err = run(argv, capsys)
    assert err.splitlines()[-2] == note + " and PFAFFCALC_OUTDIR"
    # a bad flag fails before any setting is read
    _, _, err = run(_grades_argv(key) + ["--%s=%s" % (key, bad)], capsys)
    assert "settings were read" not in err


@pytest.mark.parametrize("key,from_config,from_flag",
                         [(s[0],) + s[2:] for s in SETTINGS],
                         ids=[s[0] for s in SETTINGS])
def test_a_flag_overrides_the_config_value(key, from_config, from_flag,
                                           tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("%s = %s\n" % (key, from_config))
    config = ["--config", str(conf)]
    flag = ["--%s=%s" % (key, from_flag)]

    def outcome(extra):
        code, out, err = run(_grades_argv(key) + extra, capsys)
        assert err == ""
        return code, _untimed(out)

    assert outcome(config + flag) == outcome(flag) != outcome(config)


def test_config_file_missing(capsys):
    code, _, _ = run(["codim", "--ideal", "J", "--config",
                      "/nonexistent/x.conf"], capsys)
    assert code == 64


# -- usage errors ---------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["gen", "--ideal", "J", "--f", "1"],
    ["gen", "--ideal", "Q", "--f", "4"],
    ["codim", "--ideal", "J", "--f", "4", "--char", "6"],
    ["codim", "--ideal", "J", "--f", "4", "--bogus"],
    ["resolve", "--module", "X", "--f", "4"],
    ["resolve", "--module", "RJ", "--f", "4", "--format", "yaml"],
    ["frobnicate"],
    [],
    # --lambda belongs to Ilambda alone
    ["gen", "--ideal", "J", "--f", "4", "--lambda", "3"],
    ["codim", "--ideal", "I", "--f", "4", "--lambda", "2"],
    ["resolve", "--module", "RJ", "--f", "4", "--lambda", "9"],
    ["resolve", "--module", "N", "--f", "4", "--lambda", "2"],
])
def test_usage_errors_exit_64(argv, capsys):
    code, _, _ = run(argv, capsys)
    assert code == 64


def test_multi_f_rejected_for_single_f_commands(capsys):
    code, _, _ = run(["codim", "--ideal", "J", "--f", "4,5"], capsys)
    assert code == 64


@pytest.mark.parametrize("grid", [
    pytest.param(["--suite", "grades", "--f", "9"], id="f-out-of-range"),
    pytest.param(["--suite", "grades", "--f", ""], id="f-empty"),
    pytest.param(["--suite", "char-anomaly", "--f", "4"], id="char-anomaly"),
])
def test_verify_refuses_a_grid_that_selects_no_check(grid, capsys):
    code, out, err = run(["verify"] + grid, capsys)
    assert (code, out) == (64, "")
    assert len(err.splitlines()) == 1 and "selects no check" in err


def test_verify_refuses_a_grid_that_repeats_a_value(capsys):
    code, out, err = run(["verify", "--suite", "grades", "--f", "4,4"],
                         capsys)
    assert (code, out) == (64, "")
    assert err == "pfaffcalc verify: error: the grid repeats a value of " \
        "f: 4,4\n"


def test_verify_accepts_multi_f(capsys):
    code, out, _ = run(["verify", "--suite", "grades", "--f", "2,3",
                        "--char", "0"], capsys)
    assert code == 0
    assert "f=2,3" in out
