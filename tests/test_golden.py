"""The engine against committed mpmath references (tests/data/golden_pfq.json).

tests/data/make_golden_pfq.py wrote the table; these tests only read it.
The error of a jet is max_k |got_k - ref_k| / max(1, max_k |ref_k|).
A row passes only with a value within its tolerance: a silent miss
fails, and so does a typed SeriesError.  The circle rows marked
`raises` are beyond the engine's reach; they pass only with a typed
SeriesError.
"""

import json
from pathlib import Path

import pytest

from hypint import hypseries
from hypint.hypseries import PFQSpec, SeriesError, eval_at_one, eval_series
from hypint.jets import eps
from hypint.numkernel import reciprocal_gamma_jet

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
        for i in idx if isinstance(idx, list) else [idx]:
            params[i] = params[i] + eps(order)
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


@pytest.mark.parametrize(
    "row", GOLDEN["reciprocal_gamma"],
    ids=[repr(r["base"]) for r in GOLDEN["reciprocal_gamma"]],
)
def test_reciprocal_gamma_near_poles(row):
    got = reciprocal_gamma_jet(row["base"] + eps(4))
    assert _error(got, row["value"]) <= row["tol"]


@pytest.mark.parametrize(
    "row", GOLDEN["near_one"], ids=[r["label"] for r in GOLDEN["near_one"]]
)
def test_near_one_golden(row):
    got = eval_series(_jet_params(row), row["z"])
    assert _error(got, row["value"]) <= row["tol"]


@pytest.mark.parametrize(
    "row", GOLDEN["circle"], ids=[r["label"] for r in GOLDEN["circle"]]
)
def test_circle_golden(row):
    spec, z = _jet_params(row), complex(*row["z"])
    if row["raises"]:
        with pytest.raises(SeriesError):
            eval_series(spec, z)
    else:
        assert _error(eval_series(spec, z), row["value"]) <= row["tol"]
