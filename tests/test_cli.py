"""CLI contract: JSON in and out, exit codes, byte-identical reruns."""

import json
import os
import subprocess
import sys

import pytest

from util import needs_numpy, strict_json

MVFA = [sys.executable, "-m", "mvfa"]


def run(*args):
    return subprocess.run(MVFA + list(args), capture_output=True, text=True)


def run_python(source, *args):
    return subprocess.run([sys.executable, "-c", source, *args], capture_output=True, text=True)


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


@pytest.mark.parametrize("text", ["mul(1e300,1e300)", "mul(mul(1e300,1e300),0)"])
def test_eval_non_finite_constant_is_evaluation_error(text):
    # the tower folds to inf or nan, which a constant node cannot hold
    proc = run("eval", text)
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


@pytest.mark.parametrize("argv, domain, root", [
    (["solve", "add(x,a) = c", "--param", "a=1", "--param", "c=0"], "-3:-0.5", -1.0),
    (["invert", "pow", "1", "--target", "9", "--fixed", "2=2"], "-1:5,2:2", 3.0),
    # log is undefined on [-1, 0]: that stretch is skipped, not an error
    (["solve", "log(x,a) = c", "--param", "a=2", "--param", "c=1"], "-1:5", 2.0),
], ids=["solve", "invert", "log"])
def test_negative_low_bound_in_either_spelling(argv, domain, root, capsys):
    from mvfa import cli

    assert cli.main(argv + ["--domain", domain]) == 0
    two_words = capsys.readouterr().out
    assert cli.main(argv + [f"--domain={domain}"]) == 0
    assert capsys.readouterr().out == two_words
    assert strict_json(two_words)["roots"] == pytest.approx([root], abs=1e-8)


@pytest.mark.parametrize("tol", ["-1e-3", "0"], ids=["negative", "zero"])
def test_non_positive_tolerance_is_usage_error(tol, capsys):
    from mvfa import cli

    argv = ["solve", "add(x,a) = c", "--param", "a=1", "--param", "c=0", "--domain=-3:0",
            "--tol", tol]
    assert cli.main(argv) == 2
    assert strict_json(capsys.readouterr().out)["error"]["kind"] == "usage"


# One valid invocation of each command; "rep.json" is the file the
# kst-decompose line writes.
COMMANDS = {
    "eval": ["eval", "mul(x,y)", "--at", "x=2,y=3"],
    "solve": ["solve", "add(x,a) = c", "--param", "a=2", "--param", "c=5", "--domain", "0:10"],
    "lift": ["lift", "add", "4", "--positions", "1,2"],
    "compose": ["compose", "A4_{1,3}(pow)", "1", "A4_{1,2}(add)"],
    "diag": ["diag", "pow", "1", "2"],
    "invert": ["invert", "pow", "1", "--target", "9", "--fixed", "2=2", "--domain", "0:5,2:2"],
    "kst-decompose": ["kst", "decompose", "add(x,y)", "--grid", "5", "--iters", "1",
                      "-o", "rep.json"],
    "kst-reconstruct": ["kst", "reconstruct", "rep.json", "--at", "0.5,0.5"],
}


@pytest.mark.parametrize("option", [["--seed", "1"], ["--tol", "1e-9"]], ids=["seed", "tol"])
@pytest.mark.parametrize("command", [pytest.param(c, marks=needs_numpy) if c.startswith("kst")
                                     else c for c in COMMANDS])
def test_option_a_command_does_not_read_is_usage_error(command, option, tmp_path,
                                                       monkeypatch, capsys):
    # --tol belongs to solve and invert; no command takes --seed
    from mvfa import cli

    monkeypatch.chdir(tmp_path)
    if command.startswith("kst"):
        assert cli.main(COMMANDS["kst-decompose"]) == 0
    assert cli.main(COMMANDS[command]) == 0
    capsys.readouterr()
    code = cli.main(COMMANDS[command] + option)
    out = strict_json(capsys.readouterr().out)
    if option[0] == "--tol" and command in ("solve", "invert"):
        assert code == 0 and "error" not in out
    else:
        assert code == 2 and out["error"]["kind"] == "usage"


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


@pytest.mark.parametrize("g, positions, code, kind", [
    ("add", "2,1", 1, "structure"),
    ("3", "2", 1, "structure"),
    ("add", "", 2, "usage"),
], ids=["same-arity", "constant", "empty"])
def test_compose_positions_that_lift_nothing_are_refused(g, positions, code, kind, capsys):
    from mvfa import cli

    assert cli.main(["compose", "add", "1", g, "--positions", positions]) == code
    error = strict_json(capsys.readouterr().out)["error"]
    assert error["kind"] == kind and "positions" in error["message"]


@pytest.mark.parametrize("fixed", ["2=1,3=4", "1=0,2=1"], ids=["no-such-slot", "inverted-slot"])
def test_invert_fixed_value_for_no_other_slot_is_usage_error(fixed, capsys):
    from mvfa import cli

    argv = ["invert", "add", "1", "--target", "1", "--fixed", fixed, "--domain", "0:2,0:2"]
    assert cli.main(argv) == 2
    error = strict_json(capsys.readouterr().out)["error"]
    assert error["kind"] == "usage" and "--fixed" in error["message"]


@pytest.mark.parametrize("argv", [
    ["solve", "add(x,0) = 1"],
    ["solve", "mul(x,x) = 1"],
    ["invert", "add", "1", "--target", "1", "--fixed", "2=1"],
], ids=["solve-add", "solve-mul", "invert"])
def test_axis_wider_than_the_largest_float_is_structure_error(argv, capsys):
    # both ends are finite, but hi - lo overflows: the scan points would be
    # NaN and inf, so no root could be found
    from mvfa import cli

    domain = "-1e308:1e308" + (",0:2" if argv[0] == "invert" else "")
    assert cli.main(argv + [f"--domain={domain}"]) == 1
    error = strict_json(capsys.readouterr().out)["error"]
    assert error["kind"] == "structure" and "finite width" in error["message"]


# --- kst ---

@needs_numpy
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


@needs_numpy
def test_kst_zero_iters_residual_is_max(tmp_path):
    rep = tmp_path / "rep.json"
    code, out = run_json("kst", "decompose", "add(x,y)", "--grid", "9",
                         "--iters", "0", "-o", str(rep))
    assert code == 0 and out["final_residual"] == 2.0


@needs_numpy
def test_kst_reconstruct_non_finite_point_is_usage_error(tmp_path, capsys):
    from mvfa import cli

    rep = tmp_path / "rep.json"
    assert cli.main(["kst", "decompose", "add(x,y)", "--grid", "9", "--iters", "0",
                     "-o", str(rep)]) == 0
    capsys.readouterr()
    assert cli.main(["kst", "reconstruct", str(rep), "--at", "nan,0.5"]) == 2
    assert strict_json(capsys.readouterr().out)["error"]["kind"] == "usage"


@needs_numpy
@pytest.mark.parametrize("at", ["0.5", "0.5,0.5,0.5"])
def test_kst_reconstruct_wrong_coordinate_count_is_usage_error(at, tmp_path, capsys):
    from mvfa import cli

    rep = tmp_path / "rep.json"
    assert cli.main(["kst", "decompose", "add(x,y)", "--grid", "9", "--iters", "0",
                     "-o", str(rep)]) == 0
    capsys.readouterr()
    assert cli.main(["kst", "reconstruct", str(rep), "--at", at]) == 2
    error = strict_json(capsys.readouterr().out)["error"]
    assert error["kind"] == "usage" and "takes 2 coordinates" in error["message"]


@needs_numpy
def test_kst_decompose_non_finite_target_writes_nothing(tmp_path, capsys):
    from mvfa import cli

    rep = tmp_path / "rep.json"
    assert cli.main(["kst", "decompose", "mul(mul(x,1e300),mul(y,1e10))", "--grid", "9",
                     "--iters", "3", "-o", str(rep)]) == 1
    error = strict_json(capsys.readouterr().out)["error"]
    assert error["kind"] == "evaluation"
    assert error["message"] == "target is not finite at (0.125, 0.25): inf"
    assert not rep.exists()


@needs_numpy
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


@needs_numpy
def test_kst_decompose_unwritable_output_is_format_error(tmp_path):
    path = tmp_path / "no-such-dir" / "rep.json"
    proc = run("kst", "decompose", "add(x,y)", "--grid", "9", "--iters", "1", "-o", str(path))
    assert proc.returncode == 1
    error = strict_json(proc.stdout)["error"]
    assert error["kind"] == "format"
    assert error["message"].startswith("cannot write representation file: ")
    assert not path.exists()


def test_kst_decompose_needs_output(tmp_path):
    proc = run("kst", "decompose", "add(x,y)")
    assert proc.returncode == 2


# Run with numpy blocked: `import numpy` raises ImportError.  argv[1] is the
# golden-output file, argv[2] a representation file.  Prints what differs
# from the recorded goldens, the value `kst reconstruct` reads, and the
# error of `kst decompose`, the one command that needs numpy.
WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from mvfa import cli

with open(sys.argv[1], encoding="utf-8") as fh:
    golden = json.load(fh)
bad = []
for case in golden["solve"] + golden["invert"]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(case["argv"])
    if (code, out.getvalue()) != (case["exit"], case["stdout"]):
        bad.append(case["argv"])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["kst", "reconstruct", sys.argv[2], "--at", "0.3,0.6"])
value = json.loads(out.getvalue())["value"]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    fit = cli.main(["kst", "decompose", "add(x,y)", "-o", sys.argv[2] + ".new"])
print(json.dumps({"bad": bad, "code": code, "value": value,
                  "fit": [fit, json.loads(out.getvalue())["error"]["kind"]]}))
"""


@needs_numpy
def test_solve_invert_and_reconstruct_run_without_numpy(tmp_path):
    from mvfa import decompose, parse, reconstruct, to_structural

    proc = run_python("import sys, mvfa.cli; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
    rep = decompose(to_structural(parse("mul(x,add(y,1.9))")).expr, grid=17, iters=10)
    path = tmp_path / "rep.json"
    rep.save(path)
    golden = os.path.join(os.path.dirname(__file__), "golden_solve.json")
    proc = run_python(WITHOUT_NUMPY, golden, str(path))
    assert proc.returncode == 0, proc.stderr
    assert strict_json(proc.stdout) == {
        "bad": [], "code": 0, "value": reconstruct(rep, [0.3, 0.6]), "fit": [1, "config"]}
    assert not (tmp_path / "rep.json.new").exists()


DEEP = 1200  # nesting levels, past the interpreter's default recursion limit


@pytest.mark.parametrize("argv", [
    ["eval", "add(" * DEEP + "x" + ",1)" * DEEP, "--at", "x=1"],
    ["solve", "add(" * DEEP + "x" + ",1)" * DEEP + " = 3", "--domain", "0:2"],
    ["lift", "A2_{1,2}(" * DEEP + "add" + ")" * DEEP, "3", "--positions", "1,2"],
], ids=["eval", "solve", "lift"])
def test_deep_nesting_is_structure_error(argv):
    proc = run(*argv)
    assert proc.returncode == 1
    assert strict_json(proc.stdout) == {"error": {
        "kind": "structure", "message": "expression nests too deeply", "location": None}}


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


# --- one argv pass: the texts argparse prints stay as they were ---

# Usage errors as `main` prints them, each from the parser that meets it:
# the top-level parser where argv names no command, else the command's own.
USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'eval', 'solve', "
                "'lift', 'compose', 'diag', 'invert', 'kst')"),
    (["solve"], "the following arguments are required: equation"),
    (["eval", "x", "--at", "x=1", "--bogus"], "unrecognized arguments: --bogus"),
    (["lift", "add", "four", "--positions", "1,2"], "argument arity: invalid int value: 'four'"),
    (["invert", "pow", "1"], "the following arguments are required: --target"),
    (["kst"], "the following arguments are required: kst_command"),
    (["kst", "bogus"], "argument kst_command: invalid choice: 'bogus' "
                       "(choose from 'decompose', 'reconstruct')"),
    (["--pretty", "solve", "add(x,a) = c"], "unrecognized arguments: --pretty"),
    (["solve", "add(x,a) = c", "--domain"], "argument --domain: expected one argument"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_error_texts(argv, message, capsys):
    from mvfa import cli

    assert cli.main(argv) == 2
    error = {"error": {"kind": "usage", "message": message, "location": None}}
    indent = 2 if "--pretty" in argv else None
    assert capsys.readouterr().out == json.dumps(error, indent=indent) + "\n"


HELP_TEXTS = {
    "mvfa": """\
usage: mvfa [-h] {eval,solve,lift,compose,diag,invert,kst} ...

Command-line surface. Every command prints one JSON document on stdout, on
success and on failure alike, and is fully deterministic: identical
invocations are byte-identical. Exit codes: 0 success (including a solve with
no roots), 1 computation error, 2 usage error. The `eval`, `solve` and `kst
decompose` commands take pointful DSL text (see the frontend grammar); `lift`,
`compose`, `diag` and `invert` speak the canonical operator notation that
`format`/solve output, e.g. "A4_{1,2}(add)".

positional arguments:
  {eval,solve,lift,compose,diag,invert,kst}
    eval                evaluate a pointful expression
    solve               solve lhs = rhs for its unknown
    lift                embed a function at a larger arity
    compose             replace one slot by another function
    diag                oblique projection: slot j replaces slot i
    invert              numeric partial inverse about one slot
    kst                 superposition decomposition

options:
  -h, --help            show this help message and exit
""",
    "mvfa solve": """\
usage: mvfa solve [-h] [--param PARAM] [--domain DOMAIN] [--tol TOL]
                  [--pretty]
                  equation

positional arguments:
  equation

options:
  -h, --help       show this help message and exit
  --param PARAM    name=value (repeatable)
  --domain DOMAIN  search interval lo:hi for the unknown
  --tol TOL        tolerance (default 1e-9)
  --pretty         indent the JSON output
""",
    # argparse 3.13 lists an option's value once for all its spellings
    "mvfa kst decompose": """\
usage: mvfa kst decompose [-h] [--grid GRID] [--iters ITERS] [-o OUTPUT]
                          [--pretty]
                          expr

positional arguments:
  expr

options:
""" + ("""\
  -h, --help           show this help message and exit
  --grid GRID
  --iters ITERS
  -o, --output OUTPUT
  --pretty             indent the JSON output
""" if sys.version_info >= (3, 13) else """\
  -h, --help            show this help message and exit
  --grid GRID
  --iters ITERS
  -o OUTPUT, --output OUTPUT
  --pretty              indent the JSON output
"""),
}


@pytest.mark.parametrize("command", HELP_TEXTS)
def test_help_texts(command, monkeypatch, capsys):
    from mvfa import cli

    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as info:
        cli.main(command.split()[1:] + ["-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out == HELP_TEXTS[command]


def test_a_command_argv_is_parsed_by_the_command_parser_alone(monkeypatch, capsys):
    from mvfa import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a command's argv")

    monkeypatch.setattr(cli.build_parser(), "parse_args", refuse)
    for argv in COMMANDS.values():
        if argv[0] != "kst":
            assert cli.main(argv) == 0
    assert cli.main(["kst", "decompose", "add(x,y)"]) == 2   # needs -o, before any fit
    capsys.readouterr()
    with pytest.raises(AssertionError, match="top-level parser"):
        cli.main(["bogus"])


def test_an_option_abbreviation_still_names_its_option(capsys):
    from mvfa import cli

    assert cli.main(["solve", "add(x,a) = c", "--param", "a=2", "--param", "c=5",
                     "--dom", "0:10"]) == 0
    out = strict_json(capsys.readouterr().out)
    assert out["domain"] == [0.0, 10.0] and out["roots"] == [3.0]
