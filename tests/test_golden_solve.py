"""Recorded solve outputs, byte for byte.

`golden_solve.json` holds the exact stdout and exit code of 35 `mvfa solve`
invocations, first recorded before a solve's branch check and root scan
began to reuse the split's values: one-branch and several-branch solves,
roots next to a gap, no-solution, `degenerate` and usage errors, a log
requested partly outside its domain, and 22 requests of the benchmark's
seeded solve-distinct stream (seed 1).  It also holds the roots of one
arity-2 partial inverse scanned at a grid other than its split's, which
keeps evaluating every scan point.  Its `invert` section holds the stdout
and exit code of 11 `mvfa invert` invocations, first recorded while
`invert_at` still evaluated all 1 024 points of its grid: a log gap,
several roots, a root on a grid point, no root, `div` with its pole in
range (an enclosure that cannot bound the scan), a nested Inverse, a 2-D
`pow` with `--fixed`, `--tol`, and a scan in which no block of the grid can
be dropped.  The roots (and residuals) of 28 solves, 7 inverts and 4 of the
6 inverse_fn calls were recorded again when root brackets came to be
refined by Illinois steps instead of bisection; `repin_goldens.py` checks
such a re-recording: exit codes, root counts, warnings and every other
field unchanged, and each moved root within tol of a root by an
independent evaluator and close to its old value.  When branch cuts came to
be refined as roots of a central difference of the section, the roots of 4
solves, the `degenerate` message of a fifth (it names a branch), the 2-D
branches and the roots of 2 of its calls were recorded again; the script
checks each moved branch end as well, and it runs here on the committed
goldens.
"""

import json
import os

import pytest

from mvfa import BoxDomain, cli, inverse_fn, parse, to_structural

import repin_goldens

HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(HERE, "golden_solve.json")
TEST_INVERSE_PATH = os.path.join(HERE, "test_inverse.py")

with open(GOLDEN_PATH, encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("case", GOLDEN["solve"], ids=range(len(GOLDEN["solve"])))
def test_solve_output_is_unchanged(case, capsys):
    assert cli.main(case["argv"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize("case", GOLDEN["invert"], ids=range(len(GOLDEN["invert"])))
def test_invert_output_is_unchanged(case, capsys):
    assert cli.main(case["argv"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


def test_two_dimensional_inverse_fn_is_unchanged():
    spec = GOLDEN["inverse_fn"]
    assert spec["grid"] != spec["split_grid"]
    fn = inverse_fn(to_structural(parse(spec["expr"])).expr, spec["slot"],
                    BoxDomain(tuple(map(tuple, spec["domain"]))), tol=spec["tol"],
                    grid=spec["grid"], split_grid=spec["split_grid"])
    assert [[*b.interval] for b in fn.pieces.branches] == spec["branches"]
    for call in spec["calls"]:
        assert fn(*call["args"]) == call["roots"]


def test_repin_script_passes_the_committed_goldens(capsys):
    assert repin_goldens.main([GOLDEN_PATH, TEST_INVERSE_PATH]) == 0
    assert capsys.readouterr().out == "0 failed checks\n"


@pytest.mark.parametrize("record, offset, failed", [
    ("inverse_fn", 5e-7, 0),
    ("inverse_fn", 2e-6, 1),
    ("three-branch-split", 5e-7, 0),
    ("three-branch-split", 2e-6, 1),
])
def test_repin_script_bounds_a_moved_cut(tmp_path, capsys, record, offset, failed):
    # an old record whose first cut lay `offset` away from today's
    golden, path = GOLDEN_PATH, TEST_INVERSE_PATH
    if record == "inverse_fn":
        old = json.loads(json.dumps(GOLDEN))
        branches = old["inverse_fn"]["branches"]
        branches[0][1] = branches[1][0] = branches[0][1] + offset
        golden = tmp_path / "golden_solve.json"
        golden.write_text(json.dumps(old), encoding="utf-8")
    else:
        with open(TEST_INVERSE_PATH, encoding="utf-8") as fh:
            text = fh.read()
        cut = "-0.5773502691832202"
        assert text.count(cut) == 2
        path = tmp_path / "test_inverse.py"
        path.write_text(text.replace(cut, repr(float(cut) + offset)), encoding="utf-8")
    assert repin_goldens.main([str(golden), str(path)]) == failed
    out = capsys.readouterr().out
    assert f"moved {offset:.3g} (bound 1e-06)" in out
    assert out.endswith(f"{failed} failed checks\n")
