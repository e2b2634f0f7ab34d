"""CLI contract: JSON in and out, exit codes, byte-identical reruns."""

import json
import os
import subprocess
import sys

import pytest

from util import strict_json

MVFA = [sys.executable, "-m", "mvfa"]


def run(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("MVFA_TOL", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(MVFA + list(args), capture_output=True, text=True, env=env)


def run_json(*args, **kw):
    proc = run(*args, **kw)
    return proc.returncode, json.loads(proc.stdout)


# --- eval ---

def test_eval_pow():
    code, out = run_json("eval", "pow(x,y)", "--at", "x=2,y=10")
    assert code == 0 and out == {"value": 1024.0}


def test_eval_log():
    code, out = run_json("eval", "log(x,y)", "--at", "x=8,y=2")
    assert code == 0 and abs(out["value"] - 3.0) < 1e-9


def test_eval_division_by_zero():
    code, out = run_json("eval", "div(x,y)", "--at", "x=1,y=0")
    assert code == 1
    assert out["error"]["kind"] == "domain"


def test_eval_overflow_is_evaluation_error():
    # the product is infinite, which strict JSON cannot carry
    proc = run("eval", "mul(x,y)", "--at", "x=1e200,y=1e200")
    assert proc.returncode == 1
    assert strict_json(proc.stdout)["error"]["kind"] == "evaluation"


def test_eval_parse_error_has_location():
    code, out = run_json("eval", "pow(x")
    assert code == 1
    assert out["error"]["kind"] == "parse"
    assert out["error"]["location"]["line"] == 1


def test_eval_missing_at_value_is_usage_error():
    proc = run("eval", "add(x,y)", "--at", "x=1")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["kind"] == "usage"


# --- solve ---

def test_solve_two_branch_equation():
    code, out = run_json(
        "solve", "pow(add(x,a),mul(x,b)) = c",
        "--param", "a=1", "--param", "b=1", "--param", "c=9",
        "--domain", "0.5:5")
    assert code == 0
    assert out["status"] == "ok"
    assert len(out["roots"]) == 1 and abs(out["roots"][0] - 2.0) < 1e-6
    assert all(r <= out["tolerance"] for r in out["residuals"])
    assert out["trace"][0] == "C4_{1,3}"


def test_solve_x_to_x():
    code, out = run_json("solve", "pow(x,x) = c", "--param", "c=27",
                         "--domain", "1:4")
    assert code == 0
    assert len(out["roots"]) == 1 and abs(out["roots"][0] - 3.0) < 1e-6


def test_solve_linear_names_inverse():
    code, out = run_json("solve", "add(x,a) = c", "--param", "a=2",
                         "--param", "c=5", "--domain", "0:10")
    assert code == 0
    assert len(out["roots"]) == 1 and abs(out["roots"][0] - 3.0) < 1e-6
    assert out["formula"].startswith("I_{1}(")


def test_solve_no_solution_exits_zero():
    code, out = run_json("solve", "pow(x,2) = c", "--param", "c=9",
                         "--domain", "0:1")
    assert code == 0
    assert out["status"] == "no-solution" and out["roots"] == []


def test_solve_missing_domain_usage_error():
    proc = run("solve", "pow(x,x) = c", "--param", "c=27")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["kind"] == "usage"


def test_solve_missing_param_usage_error():
    proc = run("solve", "pow(x,x) = c", "--domain", "1:4")
    assert proc.returncode == 2


def test_solve_reruns_byte_identical():
    args = ("solve", "pow(add(x,a),mul(x,b)) = c", "--param", "a=1",
            "--param", "b=1", "--param", "c=9", "--domain", "0.5:5")
    first = run(*args)
    second = run(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_tol_env_override():
    code, out = run_json("solve", "add(x,a) = c", "--param", "a=2",
                         "--param", "c=5", "--domain", "0:10",
                         env_extra={"MVFA_TOL": "1e-6"})
    assert code == 0 and out["tolerance"] == 1e-6
    # explicit flag wins over the environment
    code, out = run_json("solve", "add(x,a) = c", "--param", "a=2",
                         "--param", "c=5", "--domain", "0:10", "--tol", "1e-8",
                         env_extra={"MVFA_TOL": "1e-6"})
    assert out["tolerance"] == 1e-8


@pytest.mark.parametrize("argv", [
    ["eval", "mul(x,y)", "--at", "x=nan,y=1"],
    ["solve", "add(x,a) = c", "--param", "a=nan", "--param", "c=5", "--domain", "0:10"],
    ["solve", "add(x,a) = c", "--param", "a=2", "--param", "c=5", "--domain", "0:inf"],
    ["invert", "pow", "1", "--target", "nan", "--fixed", "2=2", "--domain", "0:5,2:2"],
    ["invert", "pow", "1", "--target", "9", "--fixed", "2=-inf", "--domain", "0:5,2:2"],
    ["solve", "add(x,a) = c", "--param", "a=2", "--param", "c=5", "--domain", "0:10",
     "--tol", "nan"],
], ids=["at", "param", "interval", "target", "fixed", "tol"])
def test_non_finite_input_is_usage_error(argv, capsys):
    from mvfa import cli

    assert cli.main(argv) == 2
    assert strict_json(capsys.readouterr().out)["error"]["kind"] == "usage"


@pytest.mark.parametrize("argv", [
    ["solve", "add(x,a) = c", "--param", "a=1", "--param", "c=0"],
    ["invert", "pow", "1", "--target", "9", "--fixed", "2=2"],
], ids=["solve", "invert"])
def test_negative_low_bound_in_either_spelling(argv, capsys):
    from mvfa import cli

    domain = "-3:-0.5" if argv[0] == "solve" else "-1:5,2:2"
    assert cli.main(argv + ["--domain", domain]) == 0
    two_words = capsys.readouterr().out
    assert cli.main(argv + [f"--domain={domain}"]) == 0
    assert capsys.readouterr().out == two_words
    assert strict_json(two_words)["roots"] == pytest.approx([-1.0 if argv[0] == "solve" else 3.0],
                                                            abs=1e-8)


@pytest.mark.parametrize("tol, env", [("-1e-3", None), ("0", None), (None, "-1e-3")],
                         ids=["negative", "zero", "env"])
def test_non_positive_tolerance_is_usage_error(tol, env, monkeypatch, capsys):
    from mvfa import cli

    argv = ["solve", "add(x,a) = c", "--param", "a=1", "--param", "c=0", "--domain=-3:0"]
    if tol is not None:
        argv += ["--tol", tol]
    monkeypatch.delenv("MVFA_TOL", raising=False)
    if env is not None:
        monkeypatch.setenv("MVFA_TOL", env)
    assert cli.main(argv) == 2
    assert strict_json(capsys.readouterr().out)["error"]["kind"] == "usage"


# --- structural plumbing commands ---

def test_lift_command():
    code, out = run_json("lift", "add", "4", "--positions", "1,2")
    assert code == 0
    assert out == {"expr": "A4_{1,2}(add)", "arity": 4, "used_slots": [1, 2]}


def test_compose_command():
    code, out = run_json("compose", "A4_{1,3}(pow)", "1", "A4_{1,2}(add)")
    assert code == 0
    assert out["expr"] == "C4_{1}(A4_{1,3}(pow),A4_{1,2}(add))"
    assert out["arity"] == 4


def test_diag_command():
    code, out = run_json("diag", "pow", "1", "2")
    assert code == 0
    assert out == {"expr": "C2_{1,2}(pow)", "arity": 1, "used_slots": [1]}


def test_invert_command():
    code, out = run_json("invert", "pow", "1", "--target", "9",
                         "--fixed", "2=2", "--domain", "0:5,2:2")
    assert code == 0
    assert len(out["roots"]) == 1 and abs(out["roots"][0] - 3.0) < 1e-6


def test_structure_error_exit_code():
    code, out = run_json("lift", "add", "4", "--positions", "1,1")
    assert code == 1 and out["error"]["kind"] == "structure"


# --- kst ---

def test_kst_decompose_and_reconstruct(tmp_path):
    rep = tmp_path / "rep.json"
    code, out = run_json("kst", "decompose", "add(x,y)", "--grid", "17",
                         "--iters", "10", "-o", str(rep))
    assert code == 0
    assert out["dimension"] == 2 and out["iterations"] == 10
    assert rep.exists()
    assert out["final_residual"] <= out["history_tail"][0]

    code, out = run_json("kst", "reconstruct", str(rep), "--at", "0.5,0.5")
    assert code == 0
    assert abs(out["value"] - 1.0) <= json.loads(rep.read_text())["history"][-1] + 1e-9


def test_kst_zero_iters_residual_is_max(tmp_path):
    rep = tmp_path / "rep.json"
    code, out = run_json("kst", "decompose", "add(x,y)", "--grid", "9",
                         "--iters", "0", "-o", str(rep))
    assert code == 0 and out["final_residual"] == 2.0


def test_kst_reconstruct_non_finite_point_is_usage_error(tmp_path, capsys):
    from mvfa import cli

    rep = tmp_path / "rep.json"
    assert cli.main(["kst", "decompose", "add(x,y)", "--grid", "9", "--iters", "0",
                     "-o", str(rep)]) == 0
    capsys.readouterr()
    assert cli.main(["kst", "reconstruct", str(rep), "--at", "nan,0.5"]) == 2
    assert strict_json(capsys.readouterr().out)["error"]["kind"] == "usage"


def test_kst_decompose_non_finite_target_writes_nothing(tmp_path, capsys):
    from mvfa import cli

    rep = tmp_path / "rep.json"
    assert cli.main(["kst", "decompose", "mul(mul(x,1e300),mul(y,1e10))", "--grid", "9",
                     "--iters", "3", "-o", str(rep)]) == 1
    error = strict_json(capsys.readouterr().out)["error"]
    assert error["kind"] == "evaluation"
    assert error["message"] == "target is not finite at (0.125, 0.25): inf"
    assert not rep.exists()


def test_kst_decompose_file_is_byte_identical_across_runs(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    outs = [run("kst", "decompose", "mul(x,add(y,1.9))", "--grid", "17", "--iters", "10",
                "-o", str(path)) for path in paths]
    assert all(proc.returncode == 0 for proc in outs)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_kst_reconstruct_bad_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": 42}")
    code, out = run_json("kst", "reconstruct", str(bad), "--at", "0.5,0.5")
    assert code == 1 and out["error"]["kind"] == "format"


def test_kst_decompose_needs_output(tmp_path):
    proc = run("kst", "decompose", "add(x,y)")
    assert proc.returncode == 2


def test_unknown_flag_is_json_usage_error():
    proc = run("eval", "x", "--at", "x=1", "--bogus")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["kind"] == "usage"


def test_pretty_flag():
    proc = run("eval", "pow(x,y)", "--at", "x=2,y=3", "--pretty")
    assert proc.returncode == 0
    assert proc.stdout.startswith("{\n")
    assert json.loads(proc.stdout) == {"value": 8.0}


def test_in_process_argv_alone_decides_pretty(monkeypatch, capsys):
    from mvfa import cli

    monkeypatch.setattr(sys, "argv", ["mvfa", "eval", "x", "--pretty"])
    assert cli.main(["eval", "x", "--bogus"]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and not out.startswith("{\n")
    assert json.loads(out)["error"]["kind"] == "usage"
