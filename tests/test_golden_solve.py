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
independent evaluator and close to its old value.
"""

import json
import os

import pytest

from mvfa import BoxDomain, cli, inverse_fn, parse, to_structural

with open(os.path.join(os.path.dirname(__file__), "golden_solve.json"), encoding="utf-8") as fh:
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
