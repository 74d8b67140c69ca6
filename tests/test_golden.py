"""The engine against committed mpmath references (tests/data/golden_pfq.json).

tests/data/make_golden_pfq.py wrote the table; these tests only read it.
The error of a jet is max_k |got_k - ref_k| / max(1, max_k |ref_k|).
A row passes only with a value within its tolerance: a silent miss
fails, and so does a typed SeriesError.  The circle and ring rows
marked `raises` are beyond the engine's reach; they pass only with a
typed SeriesError.  The appell rows, single values of Appell's F1 and
F2, and the limits rows, leading coefficients at -oo, are checked
relative to the reference.  The disk rows, jets summed directly at
|z| <= 0.9, pass within 10 tol.
"""

import json
from pathlib import Path

import pytest

from hypint import hypseries
from hypint.hypseries import (
    PFQSpec,
    SeriesError,
    eval_at_one,
    eval_series,
    limit_at_minus_infinity,
)
from hypint.jets import eps
from hypint.multivar import DoubleSeriesSpec, eval_double
from hypint.numkernel import _gamma_jet_product, reciprocal_gamma_jet

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_pfq.json").read_text()
)


def _jet_params(row):
    ups = [complex(*u) for u in row["upper"]]
    lows = [complex(*c) for c in row["lower"]]
    order = 0
    if row["jet"]:
        side, idx, order = row["jet"]
        params = ups if side == "upper" else lows
        # a row's `nil` moves the parameters by nil[0] eps + nil[1] eps^2 ...
        e = eps(order)
        move, power = 0, 1
        for c in row.get("nil") or [1.0]:
            power = power * e
            move = move + c * power
        for i in idx if isinstance(idx, list) else [idx]:
            params[i] = params[i] + move
    return PFQSpec(tuple(ups), tuple(lows), order=order)


def _error(got, ref) -> float:
    want = [complex(*c) for c in ref]
    gap = max(abs(g - w) for g, w in zip(got.coeffs, want))
    return gap / max([1.0] + [abs(w) for w in want])


@pytest.mark.parametrize(
    "row", GOLDEN["at_one"], ids=[r["label"] for r in GOLDEN["at_one"]]
)
def test_at_one_golden(row):
    got = eval_at_one(_jet_params(row))
    assert _error(got, row["value"]) <= row["tol"]


def test_at_one_wide_series_skip_wynn(monkeypatch):
    # p >= 3 at z = 1 is extrapolated with known exponents only
    def refuse(*args):
        raise AssertionError("Wynn acceleration reached from z = 1")

    monkeypatch.setattr(hypseries, "_accelerated_sum", refuse)
    monkeypatch.setattr(hypseries, "_wynn_epsilon", refuse)
    row = GOLDEN["at_one"][0]
    assert _error(eval_at_one(_jet_params(row)), row["value"]) <= row["tol"]


def test_at_one_reads_term_blocks_only(monkeypatch):
    # z = 1 reads its checkpoints 64*2^j straight from _Terms blocks: no
    # per-term head, and no more terms than the 1 + 1023 summed to the
    # checkpoint 1024, where the Thomae-range rows settle
    def refuse(*args, **kwargs):
        raise AssertionError("the per-term head reached from z = 1")

    asked = []
    block = hypseries._Terms.block

    def counted(self, k0, m):
        asked.append(m)
        return block(self, k0, m)

    monkeypatch.setattr(hypseries, "_partials", refuse)
    monkeypatch.setattr(hypseries._Terms, "block", counted)
    row = GOLDEN["at_one"][0]
    assert _error(eval_at_one(_jet_params(row)), row["value"]) <= row["tol"]
    assert sum(asked) <= 1023


@pytest.mark.parametrize(
    "row", GOLDEN["reciprocal_gamma"],
    ids=[repr(r["base"]) for r in GOLDEN["reciprocal_gamma"]],
)
def test_reciprocal_gamma_near_poles(row):
    got = reciprocal_gamma_jet(row["base"] + eps(4))
    assert _error(got, row["value"]) <= row["tol"]


@pytest.mark.parametrize(
    "row", GOLDEN["reciprocal_gamma"],
    ids=[repr(r["base"]) for r in GOLDEN["reciprocal_gamma"]],
)
def test_gamma_jet_product_near_poles(row):
    # Gamma(3.5 + eps) cancels against its reciprocal inside the summed
    # exponent, and the reflected 1/Gamma keeps the accuracy of its sine
    e = eps(4)
    got = _gamma_jet_product(
        ((3.5 + e, 1), (row["base"] + e, -1), (3.5 + e, -1)), 4
    )
    assert _error(got, row["value"]) <= row["tol"]


@pytest.mark.parametrize(
    "row", GOLDEN["near_one"], ids=[r["label"] for r in GOLDEN["near_one"]]
)
def test_near_one_golden(row):
    got = eval_series(_jet_params(row), row["z"])
    assert _error(got, row["value"]) <= row["tol"]


@pytest.mark.parametrize(
    "row", GOLDEN["disk"], ids=[r["label"] for r in GOLDEN["disk"]]
)
def test_disk_golden(row):
    # the direct sum's contract: each coefficient within 10 tol of its
    # reference, relative to the reference's largest coefficient
    spec, z = _jet_params(row), complex(*row["z"])
    assert hypseries.route(spec, z) == "direct"
    assert _error(eval_series(spec, z, tol=row["tol"]), row["value"]) <= 10 * row["tol"]


def test_near_one_rows_take_the_connection(monkeypatch):
    # every near_one row, the Pfaff-moved ones included, is summed by
    # the near-one connection
    seen = []
    connect = hypseries.gauss_near_one

    def recording(spec, *args, **kwargs):
        seen.append(spec)
        return connect(spec, *args, **kwargs)

    monkeypatch.setattr(hypseries, "gauss_near_one", recording)
    for row in GOLDEN["near_one"]:
        del seen[:]
        eval_series(_jet_params(row), row["z"])
        assert len(seen) == 1, row["label"]


def _check_row(row):
    spec, z = _jet_params(row), complex(*row["z"])
    if row["raises"]:
        with pytest.raises(SeriesError):
            eval_series(spec, z)
    else:
        assert _error(eval_series(spec, z), row["value"]) <= row["tol"]


def _refuse_head(*args, **kwargs):
    raise AssertionError("the per-term head reached from |z| near 1")


def _ring_row(label):
    return next(r for r in GOLDEN["ring"] if r["label"] == label)


def test_rows_lie_on_their_section_radii():
    # z is rounded to doubles: a ring row that rounds below 0.95 would be
    # summed by the direct route, not the ring's
    for row in GOLDEN["ring"]:
        assert 0.95 <= abs(complex(*row["z"])) < 1.0, row["label"]
    for row in GOLDEN["circle"]:
        assert abs(abs(complex(*row["z"])) - 1.0) <= 1e-14, row["label"]


@pytest.mark.parametrize(
    "row", GOLDEN["circle"], ids=[r["label"] for r in GOLDEN["circle"]]
)
def test_circle_golden(row):
    _check_row(row)


@pytest.mark.parametrize(
    "row", GOLDEN["ring"], ids=[r["label"] for r in GOLDEN["ring"]]
)
def test_ring_golden(row):
    _check_row(row)


@pytest.mark.parametrize(
    "row", GOLDEN["ring"], ids=[r["label"] for r in GOLDEN["ring"]]
)
def test_ring_work_is_bounded(row, monkeypatch):
    # every term a ring call asks for lies within the first 65,536, the
    # last checkpoint of the cap, and is asked for once; block(k0, m)
    # gives the terms k0+1 .. k0+m.  From |z| = 0.95 on, the near-one
    # fallback at integer c-a-b included, it reads term blocks only
    monkeypatch.setattr(hypseries, "_partials", _refuse_head)
    asked = []
    block = hypseries._Terms.block

    def counting(self, k0, m):
        asked.append((k0, m))
        return block(self, k0, m)

    monkeypatch.setattr(hypseries._Terms, "block", counting)
    try:
        eval_series(_jet_params(row), complex(*row["z"]))
    except SeriesError:
        pass
    assert max((k0 + m for k0, m in asked), default=0) < 65_536
    assert sum(m for _, m in asked) < 65_536


def test_small_angle_circle_reads_term_blocks_only(monkeypatch):
    # |z| = 1 below 0.6 rad sums by Wynn on checkpoints from term blocks
    monkeypatch.setattr(hypseries, "_partials", _refuse_head)
    _check_row(next(r for r in GOLDEN["circle"] if r["label"] == "2F1 wynn 0.1"))


def test_ring_plain_sum_skips_wynn(monkeypatch):
    # below 0.6 rad the ring is summed plainly, with no Levin first
    def refuse(*args):
        raise AssertionError("Wynn's epsilon reached where the plain sum settles")

    monkeypatch.setattr(hypseries, "_wynn_epsilon", refuse)
    _check_row(_ring_row("4F3 0.99 e^0.4i"))


def _recording_blocks(monkeypatch):
    asked = []
    block = hypseries._Terms.block

    def counting(self, k0, m):
        asked.append((k0, m))
        return block(self, k0, m)

    monkeypatch.setattr(hypseries._Terms, "block", counting)
    return asked


def test_off_axis_ring_settles_on_levins_terms(monkeypatch):
    # Levin's transform of t_0 .. t_40 settles: one block of 40 terms
    # past the first, and no checkpoint or Wynn table
    def refuse(*args, **kwargs):
        raise AssertionError("the ring's plain sum reached where Levin settles")

    monkeypatch.setattr(hypseries, "_checkpoints", refuse)
    monkeypatch.setattr(hypseries, "_wynn_epsilon", refuse)
    asked = _recording_blocks(monkeypatch)
    _check_row(_ring_row("2F1 0.97 e^0.7i"))
    assert asked == [(0, 40)]


@pytest.mark.parametrize(
    "label", ["2F1 levin fallback 0.974 e^-0.78i", "3F2 levin fallback 0.957 e^0.72i"]
)
def test_off_axis_ring_goes_on_from_levins_terms(label, monkeypatch):
    # Levin's 41 terms do not settle; the plain sum or Wynn goes on from
    # a fresh source, its first block ending at 64, and its blocks tile
    # the terms from 1 on
    asked = _recording_blocks(monkeypatch)
    _check_row(_ring_row(label))
    assert asked[:2] == [(0, 40), (0, 63)]
    rest = asked[1:]
    assert all(k0 == a + m for (a, m), (k0, _) in zip(rest, rest[1:]))


def test_cancelled_ring_sum_goes_on_by_wynn(monkeypatch):
    calls = []
    wynn = hypseries._wynn_epsilon

    def counting(seq):
        calls.append(len(seq))
        return wynn(seq)

    monkeypatch.setattr(hypseries, "_wynn_epsilon", counting)
    _check_row(_ring_row("raises cancelled"))
    assert calls


@pytest.mark.parametrize(
    "row", GOLDEN["appell"], ids=[r["label"] for r in GOLDEN["appell"]]
)
def test_appell_golden(row):
    params = [
        tuple(complex(*p) for p in row[k]) for k in ("outer", "inner_x", "inner_y")
    ]
    args = tuple(complex(*v) for v in row["args"])
    want = complex(*row["value"][0])
    got = eval_double(DoubleSeriesSpec(row["kind"], *params, args))
    assert abs(got - want) <= row["tol"] * abs(want)


@pytest.mark.parametrize(
    "row", GOLDEN["limits"], ids=[r["label"] for r in GOLDEN["limits"]]
)
def test_limit_golden(row):
    # (-z)^alpha pFq(z) -> C along the negative axis, alpha the smallest
    # upper parameter, also where other uppers lie an integer above it
    ups, lows = (tuple(complex(*v) for v in row[k]) for k in ("upper", "lower"))
    spec = PFQSpec(ups, lows, order=0)
    term = limit_at_minus_infinity(spec)
    assert term.exponent.value == spec.upper[0].value
    want = complex(*row["value"][0])
    assert abs(term.coefficient.value - want) <= row["tol"] * abs(want)
