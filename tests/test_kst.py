"""Inner-map family, decomposition fitting, reconstruction, rescaling, IO."""

import base64
import hashlib
import json
import math
import random

import numpy as np
import pytest

from mvfa import cli, kst
from mvfa.expr_core import BoxDomain, EvalDomainError, EvalError, StructureError, evaluate
from mvfa.frontend import parse, to_structural
from mvfa.kst import (
    ClampCounter,
    FormatError,
    KstRep,
    decompose,
    inner_params,
    inner_psi,
    reconstruct,
    rescale,
)

from util import assert_matches_fn, strict_json


def expr_of(text):
    return to_structural(parse(text)).expr


ADD_XY = expr_of("add(x,y)")
MUL_XY = expr_of("mul(x,y)")
CONST_7 = expr_of("add(mul(x,0),add(mul(y,0),7))")  # constant 7 of arity 2


# --- inner maps ---

def test_inner_psi_monotone():
    rng = random.Random(3)
    for q in range(5):
        for p in (1, 2):
            for _ in range(200):
                a, b = sorted((rng.random(), rng.random()))
                if a == b:
                    continue
                assert inner_psi(q, p, a) < inner_psi(q, p, b)


def test_inner_psi_series_value():
    # independent summation of the truncated series at x=0, q=0, p=1
    # (shift contributes nothing at q=0): psi(0) = sum 2^-k * 0^(k/(k+1)) = 0
    assert inner_psi(0, 1, 0.0) == 0.0
    # and at a generic argument the independently summed series must match
    x, q, p, n = 0.37, 2, 2, 2
    t = x + q * (1.0 / (2 * n + 2))
    expected = math.sqrt(2) * sum(2.0 ** -k * t ** (k / (k + 1)) for k in range(1, 11))
    assert inner_psi(q, p, x) == pytest.approx(expected, abs=0.0)


def test_inner_psi_deterministic():
    assert inner_psi(3, 1, 0.625) == inner_psi(3, 1, 0.625)


def test_inner_psi_domain():
    with pytest.raises(EvalDomainError):
        inner_psi(0, 1, 1.5)
    with pytest.raises(StructureError):
        inner_psi(7, 1, 0.5)
    with pytest.raises(StructureError):
        inner_psi(0, 3, 0.5)


# --- decompose ---

def test_outer_count_is_2n_plus_1():
    rep = decompose(ADD_XY, grid=9, iters=1)
    assert len(rep.outer) == 5


def test_inner_params_function_independent():
    rep1 = decompose(ADD_XY, grid=9, iters=2)
    rep2 = decompose(MUL_XY, grid=17, iters=3)
    assert rep1.inner == rep2.inner == inner_params(2)
    # bytewise: identical serialized form
    assert json.dumps(rep1.inner) == json.dumps(rep2.inner)


def test_constant_absorbed_in_one_iteration():
    rep = decompose(CONST_7, grid=9, iters=1)
    assert rep.history[-1] <= 1e-9
    # each outer function holds the constant's equal share
    for fn in rep.outer:
        assert np.allclose(fn.values, 7.0 / 5.0)
    assert abs(reconstruct(rep, [0.3, 0.8]) - 7.0) <= 1e-9


def test_additive_target_residual_decreases():
    rep = decompose(ADD_XY, grid=33, iters=50)
    assert len(rep.history) == 51
    assert rep.history[50] < rep.history[1]


def test_history_non_increasing():
    for f in (ADD_XY, MUL_XY):
        rep = decompose(f, grid=33, iters=50)
        for a, b in zip(rep.history, rep.history[1:]):
            assert b <= a


def test_zero_iterations():
    rep = decompose(ADD_XY, grid=9, iters=0)
    assert rep.iterations == 0
    assert rep.history == [2.0]  # max|x+y| on the unit square
    for fn in rep.outer:
        assert np.all(fn.values == 0.0)
    assert reconstruct(rep, [0.5, 0.5]) == 0.0


def test_product_held_out_rmse():
    rep = decompose(MUL_XY, grid=65, iters=100)
    off = (np.arange(64) + 0.5) / 64.0
    errs = [reconstruct(rep, [a, b]) - a * b for a in off for b in off]
    rmse = math.sqrt(sum(e * e for e in errs) / len(errs))
    assert rmse <= 0.05  # of the range (which is 1.0 for x*y on the unit square)


def test_training_reconstruction_consistency():
    grid = 17
    rep = decompose(ADD_XY, grid=grid, iters=25)
    axis = np.linspace(0.0, 1.0, grid)
    # slack: interpolation error of the knot grids on a Lipschitz target
    worst = 0.0
    for a in axis:
        for b in axis:
            worst = max(worst, abs(reconstruct(rep, [a, b]) - (a + b)))
    assert worst <= rep.residual + 1e-6


def v1_text(rep):
    """The version-1 document of `rep`: outer values as decimal lists."""
    return json.dumps(dict(rep.to_dict(), version=1, outer=[
        {"lo": fn.lo, "hi": fn.hi, "values": fn.values.tolist()} for fn in rep.outer]))


# SHA-256 of v1_text(decompose(f, grid, iters)), recorded with the fit that
# called np.interp on every step-halving trial; the planned fit must
# reproduce it bit for bit.  The first five are the benchmark's kst-fit
# families with one fixed coefficient each.
GOLDEN_FITS = [
    ("add(pow(x,1.37),y)", 33, 50,
     "e705fa8207f8867c04b1724aaa87f11a6d2f8adee4a794719652681e547d1b64"),
    ("add(mul(x,0.62),mul(y,0.62))", 33, 50,
     "5e22a5a7012d1c40d760b140ca0c03a0e5e762188262f05fa10978e12d06d357"),
    ("mul(mul(x,1.25),y)", 33, 50,
     "528316cabbbf047f6bfe7a8abe5ff4b254c7d028df1782ffec05848ba1ae7fd2"),
    ("mul(x,add(y,1.9))", 33, 50,
     "193f709767a040e000f793461be0f32d3334da19330cdb268115ecb43cfeefc0"),
    ("add(mul(x,y),0.85)", 65, 100,
     "bd6e2ff41c8e0bfb3d67100f75c551ccf82c045452ed4b6e7880f7f79b19ef77"),
    ("add(x,y)", 9, 0,
     "ab5e4f3afca38ff236adf82b32aa584e0707d929b73e20fbac1c07c9cedaf177"),
    ("add(x,y)", 17, 25,
     "824399590acf3e8b957c1980c62ea53bd80b1c57628e0bd7c58596c9353187e4"),
    ("mul(x,y)", 65, 100,
     "7270d254d690e5913851fa94249e56e1756a726e548322c5074cdccc4a0909dc"),
]


@pytest.mark.parametrize("text,grid,iters,digest", GOLDEN_FITS)
def test_golden_fit(text, grid, iters, digest):
    rep = decompose(expr_of(text), grid=grid, iters=iters)
    assert hashlib.sha256(v1_text(rep).encode()).hexdigest() == digest


def test_interp_plan_reproduces_np_interp():
    rng = np.random.default_rng(5)
    xp = np.sort(rng.uniform(0.0, 3.0, (3, 17)), axis=1)
    s = rng.uniform(-0.5, 3.5, (3, 200))
    s[:, :3] = xp[:, [0, 5, -1]]  # samples on a knot, the last knot included
    fp = rng.normal(size=(3, 17))
    cell, dx, h, ends = kst._interp_plan(s, xp)
    got = kst._interp_cells(fp.take(cell), fp.take(cell + 1), dx, h, ends)
    want = [np.interp(s[q], xp[q], fp[q]) for q in range(3)]
    assert np.array_equal(got, want)


def test_inner_maps_evaluated_per_axis_not_per_point(monkeypatch):
    # the training grid is a product grid: 2 coordinates x 5 outer functions
    # x 65 axis values, plus slack for the box corners
    calls = []
    psi_base = kst._psi_base
    monkeypatch.setattr(kst, "_psi_base", lambda *a: calls.append(a) or psi_base(*a))
    decompose(MUL_XY, grid=65, iters=2)
    assert 0 < len(calls) <= 2 * 5 * 65 + 20


def test_decompose_requires_bivariate():
    with pytest.raises(StructureError):
        decompose(expr_of("x"), grid=9, iters=1)


def test_decompose_rejects_non_finite_target(monkeypatch):
    # 0.125e300 * 0.25e10 overflows: the first infinite training value
    fitted = []
    monkeypatch.setattr(kst, "_interp_plan", lambda *a: fitted.append(a))
    with pytest.raises(EvalError, match=r"not finite at \(0.125, 0.25\): inf") as info:
        decompose(expr_of("mul(mul(x,1e300),mul(y,1e10))"), grid=9, iters=3)
    assert info.value.point == (0.125, 0.25) and not fitted


# --- reconstruct ---

def test_reconstruct_zero_rep():
    rep = decompose(ADD_XY, grid=9, iters=0)
    for pt in ([0, 0], [1, 1], [0.25, 0.75]):
        assert reconstruct(rep, pt) == 0.0


def test_reconstruct_midpoint_within_recorded_residual():
    rep = decompose(ADD_XY, grid=33, iters=50)
    # (0.5, 0.5) is a training point: its error is bounded by the recorded
    # max-norm residual up to interpolation noise
    assert abs(reconstruct(rep, [0.5, 0.5]) - 1.0) <= rep.residual + 1e-9


def test_reconstruct_clamp_warning():
    rep = decompose(ADD_XY, grid=9, iters=1)
    # shrink one outer range artificially so an interior point clamps
    rep.outer[0].hi = rep.outer[0].lo + 1e-9
    rep.outer[0].knots = np.linspace(rep.outer[0].lo, rep.outer[0].hi,
                                     len(rep.outer[0].values))
    counter = ClampCounter()
    reconstruct(rep, [0.9, 0.9], counter)
    assert counter.count >= 1


def test_reconstruct_point_validation():
    rep = decompose(ADD_XY, grid=9, iters=0)
    with pytest.raises(EvalDomainError):
        reconstruct(rep, [1.5, 0.5])
    with pytest.raises(StructureError):
        reconstruct(rep, [0.5])


# --- rescale ---

def test_rescale_unit_box_identity_action():
    f = expr_of("add(x,y)")
    g = rescale(f, BoxDomain.unit(2))
    assert_matches_fn(g, lambda a, b: a + b, BoxDomain.unit(2), tol=1e-12)


def test_rescale_interval():
    f = expr_of("x")
    g = rescale(f, BoxDomain(((2.0, 4.0),)))
    assert evaluate(g, [0.5]) == pytest.approx(3.0, abs=1e-12)
    assert evaluate(g, [0.0]) == pytest.approx(2.0, abs=1e-12)
    assert evaluate(g, [1.0]) == pytest.approx(4.0, abs=1e-12)


def test_rescale_corners():
    a, b = -1.5, 2.5
    f = expr_of("add(x,y)")
    g = rescale(f, BoxDomain(((a, b), (a, b))))
    for u in (0.0, 1.0):
        for v in (0.0, 1.0):
            want = (a + (b - a) * u) + (a + (b - a) * v)
            assert evaluate(g, [u, v]) == pytest.approx(want, abs=1e-12)


def test_rescale_zero_width_axis():
    with pytest.raises(StructureError):
        rescale(expr_of("x"), BoxDomain(((2.0, 2.0),)))


# --- serialization ---

def test_rep_round_trip(tmp_path):
    # bitwise, -0.0 and subnormals included
    rep = decompose(ADD_XY, grid=17, iters=5)
    rep.outer[1].values[:3] = (-0.0, 5e-324, -2.2250738585072e-309)
    path = tmp_path / "rep.json"
    rep.save(path)
    back = KstRep.load(path)
    assert back.dimension == rep.dimension
    assert back.inner == rep.inner
    assert np.array(back.history).tobytes() == np.array(rep.history).tobytes()
    assert back.iterations == rep.iterations
    for f1, f2 in zip(rep.outer, back.outer):
        assert f1.lo == f2.lo and f1.hi == f2.hi
        assert f2.values.tobytes() == f1.values.tobytes()
    assert math.copysign(1.0, back.outer[1].values[0]) == -1.0
    assert reconstruct(back, [0.3, 0.6]) == reconstruct(rep, [0.3, 0.6])


def test_rep_file_is_the_json_document(tmp_path):
    rep = decompose(MUL_XY, grid=9, iters=3)
    path = tmp_path / "rep.json"
    rep.save(path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(rep.to_dict())
    doc = strict_json(text)
    assert doc["version"] == kst.KST_FORMAT_VERSION == 2
    assert doc["history"] == rep.history
    for entry, fn in zip(doc["outer"], rep.outer):
        assert (entry["lo"], entry["hi"]) == (fn.lo, fn.hi)
        # one base64 string of little-endian float64s, 8 bytes per knot
        raw = base64.b64decode(entry["values"], validate=True)
        assert raw == fn.values.astype("<f8").tobytes()
        assert len(raw) == 8 * kst.DEFAULT_KNOTS


def test_rep_version_guard(tmp_path, capsys):
    rep = decompose(ADD_XY, grid=9, iters=1)
    doc = rep.to_dict()
    doc["version"] = 99
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        KstRep.load(path)
    # a version-1 file (decimal value lists) is refused by name, not read
    path.write_text(v1_text(rep))
    with pytest.raises(FormatError, match="version 1, expected 2"):
        KstRep.load(path)
    assert cli.main(["kst", "reconstruct", str(path), "--at", "0.5,0.5"]) == 1
    error = strict_json(capsys.readouterr().out)["error"]
    assert error["kind"] == "format" and "version 1" in error["message"]


def test_rep_rejects_foreign_inner_family(tmp_path):
    rep = decompose(ADD_XY, grid=9, iters=1)
    doc = rep.to_dict()
    doc["inner_params"]["weights"] = [1.0, 2.0]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        KstRep.load(path)


def test_rep_malformed_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        KstRep.load(path)
    path.write_bytes(b"\xff\xfe{}")   # not UTF-8
    with pytest.raises(FormatError, match="cannot read"):
        KstRep.load(path)
    path.write_text(json.dumps({"version": 1, "dimension": 2}))
    with pytest.raises(FormatError):
        KstRep.load(path)


def packed(*values):
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode("ascii")


# Each edit of a valid document, as (where, new value, expected message).
# `where` is the last history entry, a top-level key, or a field of the third
# outer function; the value is JSON text, put into the file as is.
BAD_DOCUMENTS = [
    ("history", "NaN", "holds NaN"),
    ("history", "Infinity", "holds Infinity"),
    ("lo", "-Infinity", "holds -Infinity"),
    ("lo", "-1e999", "not finite"),   # overflows to -inf without a constant
    ("hi", "1e999", "not finite"),
    ("history", "1e999", "history holds a value that is not finite"),
    ("values", json.dumps(packed(0.0, float("nan"), 1.0)), "not finite"),
    ("values", json.dumps(packed(0.0, float("inf"))), "not finite"),
    ("values", json.dumps(packed(0.0, 1.0)[:8] + "!" + packed(0.0, 1.0)[8:]),
     "not valid base64"),                               # a character outside the alphabet
    ("values", '"AAAAAAA"', "not valid base64"),          # bad padding
    ("values", '"\u00e9AAA"', "not valid base64"),        # not ASCII
    ("values", json.dumps(packed(0.0, 1.0)[:16]), "12 bytes"),
    ("values", json.dumps(packed(1.0)), "8 bytes"),
    ("values", '""', "0 bytes"),
    ("lo", "1e3", "knot range .* is empty"),   # above hi: every sum would clamp
    ("iterations", "7", "one entry per iteration"),
]


@pytest.mark.parametrize("where,value,message", BAD_DOCUMENTS)
def test_rep_strict_loader(tmp_path, capsys, where, value, message):
    doc = decompose(ADD_XY, grid=9, iters=1).to_dict()
    if where == "history":
        doc["history"][-1] = "@"
    elif where in doc:
        doc[where] = "@"
    else:
        doc["outer"][2][where] = "@"
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc).replace('"@"', value))
    with pytest.raises(FormatError, match=message):
        KstRep.load(path)
    assert cli.main(["kst", "reconstruct", str(path), "--at", "0.5,0.5"]) == 1
    assert strict_json(capsys.readouterr().out)["error"]["kind"] == "format"
