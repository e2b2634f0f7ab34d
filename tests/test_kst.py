"""Inner-map family, decomposition fitting, reconstruction, IO."""

import base64
import dataclasses
import hashlib
import json
import math
import random

import pytest

from mvfa import cli, kst
from mvfa.expr_core import EvalDomainError, EvalError, StructureError, evaluate
from mvfa.frontend import parse, to_structural
from mvfa.kst import (
    FormatError,
    KstRep,
    decompose,
    inner_params,
    inner_psi,
    reconstruct,
)

from util import psi_base_reference, reconstruct_reference, strict_json

# the fits and most reference computations here need numpy
np = pytest.importorskip("numpy")


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
    # (added left to right, the same float on every Python version)
    x, q, p, n = 0.37, 2, 2, 2
    t = x + q * (1.0 / (2 * n + 2))
    series = 0.0
    for k in range(1, 11):
        series += 2.0 ** -k * t ** (k / (k + 1))
    assert inner_psi(q, p, x) == pytest.approx(math.sqrt(2) * series, abs=0.0)


def test_psi_series_is_added_left_to_right():
    # the arguments of the golden fits (the 9-, 17-, 33- and 65-point axes)
    # and of the reconstruction tests (the 64 x 64 cell centres), each
    # shifted by q/6, and the ends of the range, t = 0 and 1 + 4/6
    axes = [np.linspace(0.0, 1.0, g).tolist() for g in (9, 17, 33, 65)]
    axes.append(((np.arange(64) + 0.5) / 64.0).tolist())
    ts = [x + q * kst._SHIFT for axis in axes for x in axis for q in range(5)]
    for t in ts + [0.0, 1.0 + 4.0 / 6]:
        assert kst._psi_base(t).hex() == psi_base_reference(t).hex(), t


# psi at a few arguments, as the sum() of its terms gave on Python 3.11; the
# sum() of 3.12 and later, which is compensated, differs at six of them
PSI_HEX = [
    (0.0, "0x0.0p+0"),
    (1.0 / 6, "0x1.5cea876679907p-2"),
    (0.25, "0x1.bb51a4d6b06b3p-2"),
    (0.5, "0x1.4f8c1fdcd95a0p-1"),
    (2.0 / 3, "0x1.8f5cfb0dcc3f8p-1"),
    (1.0, "0x1.ff80000000000p-1"),
    (0.37 + 2 / 6, "0x1.9c92447992a9bp-1"),
    (0.0078125 + 3 / 6, "0x1.52b345815239dp-1"),
    (0.9921875 + 4 / 6, "0x1.5d8ab7cf8c6c7p+0"),
    (1 + 4 / 6, "0x1.5e904999155c4p+0"),
    (0.123456, "0x1.24a7eac52a412p-2"),
    (0.8125 + 1 / 6, "0x1.f8f043a3b3d20p-1"),
]


@pytest.mark.parametrize("t,want", PSI_HEX)
def test_psi_series_matches_recorded_values(t, want):
    assert kst._psi_base(t).hex() == want


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
    assert rep1.inner == rep2.inner == inner_params()
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
        assert fn.values == (0.0,) * kst.DEFAULT_BINS
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


def storage_knots(fn):
    """`fn`'s values resampled onto the 4096 knots that versions 1 and 2 stored."""
    return np.interp(np.linspace(fn.lo, fn.hi, 4096), fn.knots, fn.values)


def v1_text(rep):
    """The version-1 document of `rep`: 4096 knot values as decimal lists."""
    return json.dumps(dict(rep.to_dict(), version=1, outer=[
        {"lo": fn.lo, "hi": fn.hi, "values": storage_knots(fn).tolist()}
        for fn in rep.outer]))


def v2_text(rep):
    """The version-2 document of `rep`: 4096 knot values, packed."""
    return json.dumps(dict(rep.to_dict(), version=2, outer=[
        {"lo": fn.lo, "hi": fn.hi, "values": kst._pack(storage_knots(fn))}
        for fn in rep.outer]))


# SHA-256 of v1_text(decompose(f, grid, iters)), recorded with the fit on
# the correction nodes when it stored their resample onto 4096 knots; any
# change to the fit's floats shows here.
# GOLDEN_PINS below ties these fits to the earlier one on the storage knots
# up to rounding.  The first five are the benchmark's kst-fit families with
# one fixed coefficient each.
GOLDEN_FITS = [
    ("add(pow(x,1.37),y)", 33, 50,
     "2800a10aa3ed2535c418be9ec4afeab256ba84ea2feafaf13f22cf67373169f0"),
    ("add(mul(x,0.62),mul(y,0.62))", 33, 50,
     "fdb20d57925785c91ed51e489adf20471e3631afe01b98f74a082a3c8c213427"),
    ("mul(mul(x,1.25),y)", 33, 50,
     "e108ca0aa44a44ebb2a28c37674892d525b9cc921b15f07bc3b4bc8d9765a8ad"),
    ("mul(x,add(y,1.9))", 33, 50,
     "43af6edd74fb8dd746ee6f0ed84c412bfa88c7bda1284d8d30caab60a11a841d"),
    ("add(mul(x,y),0.85)", 65, 100,
     "49eda7a47c2f52a8c5c876a680df2aac642148a9f3bdc166988fa90730d4bd20"),
    ("add(x,y)", 9, 0,
     "ab5e4f3afca38ff236adf82b32aa584e0707d929b73e20fbac1c07c9cedaf177"),
    ("add(x,y)", 17, 25,
     "f4b36255941409f3fddf0cc60f561284f34eb102ac95a47eb3fc3644ce18e344"),
    ("mul(x,y)", 65, 100,
     "772bf1b7c7b300bf720ec396dacbe23f97345d0e193bcfa5af983e88f81b012c"),
]


@pytest.mark.parametrize("text,grid,iters,digest", GOLDEN_FITS)
def test_golden_fit(text, grid, iters, digest):
    rep = decompose(expr_of(text), grid=grid, iters=iters)
    assert hashlib.sha256(v1_text(rep).encode()).hexdigest() == digest
    for fn in rep.outer:   # the knots are numpy's, bitwise
        assert len(fn.knots) == len(fn.values) == kst.DEFAULT_BINS
        assert np.array(fn.knots).tobytes() == np.linspace(fn.lo, fn.hi, kst.DEFAULT_BINS).tobytes()


# history[-1], sum(history) and each outer function's storage_knots(fn).sum()
# of every GOLDEN_FITS case, recorded with the fit that resampled each
# correction onto the storage knots and interpolated every step-halving
# trial from them.
# The fit on the correction nodes takes the same halving decisions, so it
# reproduces these up to rounding.
GOLDEN_PINS = [
    (0.2797635924182881, 16.754591441998723,
     (696.747841913637, 686.6146777840715, 692.4204831654727, 696.6265710600263,
      699.8003662929509)),
    (0.13363733747362017, 8.268708852965412,
     (465.7869999534677, 460.0453984964882, 464.4340890348821, 467.5141273492249,
      469.81502052398343)),
    (0.22952319494141332, 12.894875687841441,
     (201.75152245320396, 266.7461878302994, 279.3394974174036, 285.7746879241922,
      289.8252620496143)),
    (1.0252785746139927, 54.35241849396696,
     (867.8389700815239, 927.9931193638288, 945.3251676957462, 955.0801787218796,
      961.7212228945784)),
    (0.1785496418789303, 20.27397193961989,
     (820.6907025101232, 914.2495596879913, 927.7708406439681, 933.6129532248756,
      936.8116447232485)),
    (2.0, 2.0, (0.0, 0.0, 0.0, 0.0, 0.0)),
    (0.20517584010710288, 7.227720741002941,
     (673.5593099954672, 750.7852008240346, 767.2455445445994, 775.3709864886754,
      782.0682115656912)),
    (0.17854964187893047, 19.42397193961988,
     (124.37070251012314, 217.92955968799131, 231.45084064396792, 237.2929532248756,
      240.49164472324856)),
]


@pytest.mark.parametrize("case,pins", zip(GOLDEN_FITS, GOLDEN_PINS),
                         ids=[f"{t}-{g}-{i}" for t, g, i, _ in GOLDEN_FITS])
def test_golden_fit_matches_recorded_fit(case, pins):
    text, grid, iters, _ = case
    last, total, sums = pins
    rep = decompose(expr_of(text), grid=grid, iters=iters)
    assert rep.history[-1] == pytest.approx(last, rel=1e-12, abs=0.0)
    assert sum(rep.history) == pytest.approx(total, rel=1e-12, abs=0.0)
    assert [float(storage_knots(fn).sum()) for fn in rep.outer] == pytest.approx(
        sums, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("text,grid,iters,digest", GOLDEN_FITS[:5])
def test_nodes_reconstruct_as_their_storage_knots(text, grid, iters, digest):
    # the 64 stored nodes and their 4096-knot resample are one piecewise-
    # linear function, so reconstruction differs only by rounding: a few ulps
    # of the target's largest value, history[0]
    rep = decompose(expr_of(text), grid=grid, iters=iters)
    resampled = dataclasses.replace(rep, outer=[
        kst.OuterFunction(fn.lo, fn.hi, storage_knots(fn)) for fn in rep.outer])
    off = ((np.arange(64) + 0.5) / 64.0).tolist()
    worst = max(abs(reconstruct(rep, [a, b]) - reconstruct(resampled, [a, b]))
                for a in off for b in off)
    assert worst <= 4 * math.ulp(rep.history[0])


@pytest.mark.parametrize("text,grid,iters,digest", GOLDEN_FITS[:5])
def test_fit_holds_off_the_training_grid(text, grid, iters, digest):
    # the 64 x 64 cell centres (k + 0.5)/64 lie on no 17-, 33- or 65-point grid
    f = expr_of(text)
    rep = decompose(f, grid=grid, iters=iters)
    off = ((np.arange(64) + 0.5) / 64.0).tolist()
    errs = [reconstruct(rep, [a, b]) - evaluate(f, [a, b]) for a in off for b in off]
    rmse = math.sqrt(sum(e * e for e in errs) / len(errs))
    assert rmse <= rep.residual


@pytest.mark.parametrize("text,grid,iters,digest", GOLDEN_FITS)
def test_shorter_fit_is_a_prefix_of_a_longer_one(text, grid, iters, digest):
    # a fit that ends early pads its history with what the remaining
    # iterations would have recorded
    f = expr_of(text)
    assert decompose(f, grid=grid, iters=10).history == decompose(f, grid=grid, iters=50).history[:11]


# --- work counts: a fit ends at its first stalled iteration ---

def test_fit_ends_at_its_first_stalled_iteration(monkeypatch):
    # this fit accepts its last step at iteration 9; each of the 41
    # iterations after it would reject the same 24 halvings (996 trials).
    # numpy.max records each max the fit takes: max|F| for history[0], then
    # one per step-halving trial
    maxima, real_max = [], np.max

    def recording_max(a):
        maxima.append(float(real_max(a)))
        return maxima[-1]

    monkeypatch.setattr(np, "max", recording_max)
    rep = decompose(expr_of("mul(x,add(y,1.9))"), grid=33, iters=50)
    monkeypatch.undo()
    best, *trials = maxima
    accepted, since = [best], 0   # history entries, trials since the last one
    for m in trials:
        if m <= accepted[-1]:
            accepted.append(m)
            since = 0
        else:
            since += 1
    assert since == 24 and len(trials) == 36
    assert len(rep.history) == 51
    assert rep.history == accepted + [accepted[-1]] * (51 - len(accepted))


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
    # the fit starts from the inner sums: no inner map may be evaluated
    fitted = []
    monkeypatch.setattr(kst, "inner_psi", lambda *a: fitted.append(a))
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
    fn = rep.outer[0]
    rep.outer[0] = kst.OuterFunction(fn.lo, fn.lo + 1e-9, fn.values)
    warnings = []
    reconstruct(rep, [0.9, 0.9], warnings)
    assert len(warnings) >= 1


@pytest.mark.parametrize("text,grid,iters,digest", GOLDEN_FITS)
def test_reconstruct_is_its_reference_bitwise(text, grid, iters, digest):
    # at the 64 x 64 cell centres, the benchmark's 8 x 8 held-out points and
    # the corners, where the inner sums are the knot range's own ends
    rep = decompose(expr_of(text), grid=grid, iters=iters)
    cells = ((np.arange(64) + 0.5) / 64.0).tolist()
    heldout = ((np.arange(8) + 0.5) / 8.0).tolist()
    points = ([(a, b) for a in cells for b in cells] + [(a, b) for a in heldout for b in heldout]
              + [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
    got = [reconstruct(rep, pt).hex() for pt in points]
    assert got == [reconstruct_reference(rep, pt).hex() for pt in points]


def interp_hex(fn, s):
    return float(np.interp(s, fn.knots, fn.values)).hex()


@pytest.mark.parametrize("text,grid,iters,digest", GOLDEN_FITS)
def test_outer_function_is_np_interp_bitwise(text, grid, iters, digest):
    rng = random.Random(18)
    for fn in decompose(expr_of(text), grid=grid, iters=iters).outer:
        lo, hi, width = fn.lo, fn.hi, fn.hi - fn.lo
        ends = [lo, hi, math.nextafter(lo, hi), math.nextafter(hi, lo),
                math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
        drawn = [rng.uniform(lo - 0.1 * width, hi + 0.1 * width) for _ in range(500)]
        for s in list(fn.knots) + ends + drawn:
            assert fn(s).hex() == interp_hex(fn, s), s


def test_outer_function_is_immutable():
    # calls read the knot and value tuples made at construction, so neither
    # an assignment nor an in-place write may change what they interpolate
    fn = decompose(ADD_XY, grid=9, iters=1).outer[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        fn.lo = 0.0
    with pytest.raises(TypeError):
        fn.values[0] = 1.0


@pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0), (-1e308, 1e308),
                                   (0.0, math.inf), (math.nan, 1.0)])
def test_outer_function_needs_a_knot_range_of_finite_width(lo, hi):
    with pytest.raises(StructureError, match="on lo < hi of finite width"):
        kst.OuterFunction(lo, hi, [0.0, 1.0])


def test_outer_function_follows_np_interp_where_a_cell_gives_nan():
    # numpy's fallbacks: the line from the cell's right end (cells 1 and 4),
    # and the knots' common value where both lines give NaN (cell 0)
    fn = kst.OuterFunction(0.0, 5.0, [math.inf, math.inf, 1.0, 2.0, -math.inf, 1e308])
    for s in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0, math.nan):
        assert fn(s).hex() == interp_hex(fn, s), s


def test_reconstruct_point_validation():
    rep = decompose(ADD_XY, grid=9, iters=0)
    with pytest.raises(EvalDomainError):
        reconstruct(rep, [1.5, 0.5])
    with pytest.raises(StructureError):
        reconstruct(rep, [0.5])


# --- serialization ---

def test_rep_round_trip(tmp_path):
    # bitwise, -0.0 and subnormals included
    rep = decompose(ADD_XY, grid=17, iters=5)
    fn = rep.outer[1]
    values = (-0.0, 5e-324, -2.2250738585072e-309) + fn.values[3:]
    rep.outer[1] = kst.OuterFunction(fn.lo, fn.hi, values)
    path = tmp_path / "rep.json"
    rep.save(path)
    back = KstRep.load(path)
    assert back.dimension == rep.dimension
    assert back.inner == rep.inner
    assert np.array(back.history).tobytes() == np.array(rep.history).tobytes()
    assert back.iterations == rep.iterations
    for f1, f2 in zip(rep.outer, back.outer):
        assert f1.lo == f2.lo and f1.hi == f2.hi
        assert np.array(f2.values, "<f8").tobytes() == np.array(f1.values, "<f8").tobytes()
    assert math.copysign(1.0, back.outer[1].values[0]) == -1.0
    assert reconstruct(back, [0.3, 0.6]) == reconstruct(rep, [0.3, 0.6])


def test_rep_file_is_the_json_document(tmp_path):
    rep = decompose(MUL_XY, grid=9, iters=3)
    path = tmp_path / "rep.json"
    rep.save(path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(rep.to_dict())
    doc = strict_json(text)
    assert doc["version"] == kst.KST_FORMAT_VERSION == 3
    assert doc["history"] == rep.history
    for entry, fn in zip(doc["outer"], rep.outer):
        assert (entry["lo"], entry["hi"]) == (fn.lo, fn.hi)
        # one base64 string of little-endian float64s, 8 bytes per knot
        raw = base64.b64decode(entry["values"], validate=True)
        assert raw == np.array(fn.values, "<f8").tobytes()
        assert len(raw) == 8 * kst.DEFAULT_BINS


def test_rep_version_guard(tmp_path, capsys):
    rep = decompose(ADD_XY, grid=9, iters=1)
    doc = rep.to_dict()
    doc["version"] = 99
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        KstRep.load(path)
    # a version-1 file (decimal value lists) or a version-2 file (4096 knots)
    # is refused by name, not read
    for version, text in ((1, v1_text(rep)), (2, v2_text(rep))):
        path.write_text(text)
        with pytest.raises(FormatError, match=f"version {version}, expected 3"):
            KstRep.load(path)
        assert cli.main(["kst", "reconstruct", str(path), "--at", "0.5,0.5"]) == 1
        error = strict_json(capsys.readouterr().out)["error"]
        assert error["kind"] == "format" and f"version {version}" in error["message"]


def test_rep_document_is_a_copy(tmp_path):
    # editing the document, or the one a representation was read from,
    # leaves the representation as it was
    rep = decompose(ADD_XY, grid=9, iters=1)
    doc = rep.to_dict()
    doc["inner_params"]["depth"] = 3
    doc["inner_params"]["weights"].append(2.0)
    assert rep.inner == kst.inner_params()
    doc = rep.to_dict()
    back = KstRep.from_dict(doc)
    doc["inner_params"]["weights"][0] = 2.0
    assert back.inner == kst.inner_params()
    path = tmp_path / "rep.json"
    rep.save(path)
    assert KstRep.load(path).inner == rep.inner


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
    # a JSON integer beyond float range, which float() cannot convert
    pytest.param("history", "1" + "0" * 400, "malformed .*too large to convert to float",
                 id="history-401-digit-integer"),
    pytest.param("lo", "-1" + "0" * 400, "malformed .*too large to convert to float",
                 id="lo-401-digit-integer"),
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
    ("iterations", "true", "iterations must be an integer of at least 0, got True"),
    ("iterations", "-1", "iterations must be an integer of at least 0"),
    ("grid", "3.7", "grid must be an integer of at least 2, got 3.7"),
    ("grid", "-4", "grid must be an integer of at least 2, got -4"),
    ("dimension", "2.5", "dimension must be an integer of at least 1, got 2.5"),
    ("history", '"2.0"', "history entry must be a number, got '2.0'"),
    ("history", "true", "history entry must be a number, got True"),
    ("lo", "false", "lo must be a number, got False"),
    ("inner_params", json.dumps(list(inner_params().items())),
     "inner_params must be a JSON object"),
]


def three_dimensional(doc):
    doc["dimension"] = doc["inner_params"]["dimension"] = 3
    doc["inner_params"].update(shift=1.0 / 8, weights=[1.0, math.sqrt(2), math.sqrt(3)])
    doc["outer"] += doc["outer"][:2]   # 2n+1 = 7 outer functions


def wide_range(doc):
    # finite ends, but hi - lo overflows
    doc["outer"][2].update(lo=-1e308, hi=1e308)


def two_knots(doc):
    for o in doc["outer"]:
        o["values"] = packed(0.0, 1.0)


# Well-formed documents that `decompose` cannot write, as (edit, expected
# message): it fits bivariate functions with one inner family and records
# its training grid.
FOREIGN_DOCUMENTS = [
    (three_dimensional, "dimension 3, not 2"),
    (lambda doc: doc["inner_params"].update(depth=3), "do not match the fixed family"),
    (lambda doc: doc.pop("grid"), "malformed .*'grid'"),
    (two_knots, "has 2 knots, not 64"),
    (wide_range, "knot range width that is not finite"),
]


@pytest.mark.parametrize("edit,message", FOREIGN_DOCUMENTS,
                         ids=["dimension-3", "depth-3", "no-grid", "two-knots", "wide-range"])
def test_rep_refuses_documents_decompose_cannot_write(tmp_path, capsys, edit, message):
    doc = decompose(ADD_XY, grid=9, iters=1).to_dict()
    edit(doc)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=message):
        KstRep.load(path)
    point = ",".join(["0.5"] * doc["dimension"])   # a point the document would take
    assert cli.main(["kst", "reconstruct", str(path), "--at", point]) == 1
    assert strict_json(capsys.readouterr().out)["error"]["kind"] == "format"


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
