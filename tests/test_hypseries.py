"""Series construction, classification, evaluation, and limits."""

import cmath
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from hypint import hypseries
from hypint.jets import Jet, as_jet, eps, extract
from hypint.hypseries import (
    TERM_CAP,
    AsymptoticTerm,
    ConvergenceError,
    DivergentError,
    LimitConditionError,
    PFQSpec,
    PrecisionLossError,
    SeriesError,
    TermOverflowError,
    _accelerated_sum,
    _direct_sum,
    _extrapolate_at_one,
    _partials,
    cancel_parameters,
    eval_at_one,
    eval_series,
    limit_at_minus_infinity,
    route,
    value_at_zero,
)

CATALAN = 0.915965594177219
ZETA3 = 1.2020569031595943


# -- construction -----------------------------------------------------------


def test_power_zero_rejected():
    with pytest.raises(ValueError, match="power"):
        PFQSpec((1.0,), (2.0,), power=0)


def test_too_many_upper_rejected():
    with pytest.raises(ValueError, match="p <= q"):
        PFQSpec((1.0, 1.0, 1.0), (2.0,))


@pytest.mark.parametrize("bad", [0.0, -1.0, -7.0])
def test_lower_pole_rejected(bad):
    with pytest.raises(ValueError, match="pole"):
        PFQSpec((0.5,), (bad,))


def test_jet_order_inferred_from_parameters():
    spec = PFQSpec((0.5 + eps(2),), (1.5,))
    assert spec.order == 2
    assert all(p.order == 2 for p in spec.upper + spec.lower)


def test_mixed_jet_orders_rejected():
    with pytest.raises(ValueError):
        PFQSpec((0.5 + eps(2), eps(3)), (1.5,))


def test_argument_applies_scale_and_power():
    spec = PFQSpec((0.5,), (1.5,), scale=-1.0, power=2)
    assert spec.argument(0.5) == -0.25


def test_argument_fractional_power_uses_principal_branch():
    from fractions import Fraction

    spec = PFQSpec((0.5,), (1.5,), power=Fraction(1, 2))
    got = spec.argument(-4.0)
    assert got == pytest.approx(2.0j)


# -- classification: the route chooser ---------------------------------------


def test_polynomial_takes_precedence_over_disk():
    spec = PFQSpec((-3.0, 2.0), (4.0,))
    assert route(spec, 0.5) == route(spec, 3.0) == "terminating"
    assert spec.terminating_degree() == 3


def test_entire_when_p_at_most_q():
    assert route(PFQSpec((1.0,), (2.0, 3.0)), 50.0) == "direct"


def test_unit_disk_when_p_exceeds_q_by_one():
    spec = PFQSpec((1.0, 1.0), (2.0,))
    assert route(spec, 0.5) == "direct"
    assert route(spec, 1.0) == "at_one"
    with pytest.raises(DivergentError, match=r"\|argument\| > 1"):
        route(spec, 2.0j)
    assert spec.sigma.value == pytest.approx(0.0)


def test_jet_upper_with_nonpositive_integer_base_does_not_terminate():
    # a genuine perturbation keeps every Pochhammer factor nonzero
    spec = PFQSpec((-2.0 + eps(1), 1.0), (2.0,))
    assert route(spec, 0.5) == "direct"


_F21 = ((0.3, 0.7), (1.4,))
_ROUTES = [
    ("zero", _F21, 0j),
    ("terminating", ((-3.0, 2.0), (4.0,)), 0.5),
    ("exp", ((), ()), -30.0),
    ("kummer", ((0.5,), (1.5,)), -3.0 + 1j),
    ("direct", ((0.5,), (1.5,)), 3.0),
    ("direct", ((), (1.5,)), -400.0),
    ("direct", _F21, 0.6 + 0.7j),
    ("binomial", ((0.5,), ()), 3.0j),
    ("binomial", ((2.0,), ()), 3.0),
    ("at_one", ((-0.5,), ()), 1.0),
    ("at_one", _F21, 1.0),
    ("at_one", ((1.0, 1.0, 0.5), (1.5, 2.0)), 1.0),
    ("pfaff", _F21, -0.9),
    ("pfaff", _F21, -5.0),
    ("near_one", _F21, 0.97),
    ("near_one", _F21, 1.0 - 1e-15),
    ("wynn", _F21, cmath.exp(0.3j)),
    ("levin", _F21, cmath.exp(1j)),
    ("wynn", _F21, 0.97 * cmath.exp(0.3j)),
    ("levin", _F21, 0.97 * cmath.exp(0.7j)),
    ("wynn", ((1.0, 1.0, 1.0), (2.0, 1.5)), 0.97),
    ("levin", ((1.0, 1.0, 1.0), (2.0, 1.5)), -0.97),
]
_NO_ROUTE = [
    (_F21, 1.5j, r"\|argument\| > 1"),
    (((1.0, 1.0), (2.0,)), cmath.exp(1j), "positive parameter excess"),
    (((0.5,), ()), 2.0, "cut along"),
    (((0.5,), ()), 1.0, "cut along"),
]


def _route_table():
    for name, (up, lo), z in _ROUTES:
        assert route(PFQSpec(up, lo), complex(z)) == name, (name, up, lo, z)
    for (up, lo), z, message in _NO_ROUTE:
        with pytest.raises(DivergentError, match=message):
            route(PFQSpec(up, lo), complex(z))


def test_route_names_one_argument_per_region():
    _route_table()


def test_route_makes_no_terms_and_calls_no_transformation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("route ran a summation step")

    monkeypatch.setattr(hypseries._Terms, "block", refuse)
    for name in ("pfaff", "gauss_near_one"):
        monkeypatch.setattr(hypseries, name, refuse)
    _route_table()


def test_value_at_zero_is_one():
    assert value_at_zero(PFQSpec((0.5,), (1.5,))).value == 1.0
    j = value_at_zero(PFQSpec((0.5 + eps(2),), (1.5,)))
    assert j.coeffs == (1.0, 0.0, 0.0)


# -- evaluation: closed-form anchors ---------------------------------------


def test_geometric_series():
    spec = PFQSpec((1.0,), ())
    assert eval_series(spec, 0.5).value == pytest.approx(2.0, abs=1e-12)


def test_exponential_negative_argument():
    spec = PFQSpec((), ())
    got = eval_series(spec, -5.0).value
    assert got == pytest.approx(math.exp(-5.0), abs=1e-12)


def test_kummer_ratio_function_deep_cancellation():
    # 1F1(1;2;-20): terms reach ~2e6 while the sum is 0.05, so about
    # eight digits are gone before summation; the rest must survive
    spec = PFQSpec((1.0,), (2.0,))
    got = eval_series(spec, -20.0).value
    want = (math.exp(-20.0) - 1.0) / -20.0
    assert got == pytest.approx(want, rel=1e-7)


def test_cosine_route():
    spec = PFQSpec((), (0.5,), scale=-0.25, power=2)
    assert eval_series(spec, math.pi).value == pytest.approx(-1.0, abs=1e-12)


def test_arcsin_route():
    spec = PFQSpec((0.5, 0.5), (1.5,), power=2)
    got = 0.5 * eval_series(spec, 0.5).value
    assert got == pytest.approx(math.asin(0.5), abs=1e-13)


@given(
    n=st.integers(min_value=0, max_value=8),
    b=st.floats(min_value=0.1, max_value=3.0),
    c=st.floats(min_value=0.3, max_value=3.0),
    z=st.floats(min_value=-8.0, max_value=8.0),
)
# cancellation ratios 6.4e4 and 2.9e4: the float sum alone misses
@example(8, 2.25, 0.5, 1.4375)
@example(8, 2.5113036661342525, 0.631312024720055, 1.497129437855211)
def test_terminating_sum_is_exact(n, b, c, z):
    spec = PFQSpec((-float(n), b), (c,))
    got = eval_series(spec, z).value
    # every double is a rational, so the exact sum is a fair reference
    b, c, z = Fraction(b), Fraction(c), Fraction(z)
    term = total = Fraction(1)
    for k in range(n):
        term *= (-n + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
    assert got == pytest.approx(float(total), rel=1e-12, abs=1e-12)


def test_terminating_complex_cancellation_is_summed_exactly():
    # Chu-Vandermonde, DLMF 15.4.24: 2F1(-n, b; c; 1) = (c-b)_n / (c)_n.
    # The terms reach 5e17 for a sum of 4e-10, past what floats can
    # cancel, so the sum is taken again in Gaussian rationals
    n, b, c = 30, 20.5 + 0.25j, 1.5 - 0.5j
    want = 1.0
    for k in range(n):
        want *= (c - b + k) / (c + k)
    got = eval_series(PFQSpec((-float(n), b), (c,), order=0), 1.0).value
    assert abs(got - want) <= 1e-12 * abs(want)


def test_terminating_cancellation_past_the_exact_degree_raises():
    # the Laguerre L_1500(30) = 1F1(-1500; 1; 30) is -76837.088 (scipy's
    # eval_laguerre); its float sum is 9.2e158, with sum|t_k| = 1.6e176
    with pytest.raises(PrecisionLossError):
        eval_series(PFQSpec((-1500.0,), (1.0,), order=0), 30.0)
    # the same degree without cancellation keeps its float sum
    got = eval_series(PFQSpec((-1500.0,), (1.0,), order=0), 0.01).value
    assert got.real == pytest.approx(special.eval_laguerre(1500, 0.01), rel=1e-13)


def test_terminating_exact_resum_keeps_its_bits():
    # sum|t_k| comes from the summation kernel; the exact re-sum it
    # calls for rounds the exact sum once, as with the old recurrence
    got = eval_series(PFQSpec((-60.0, 20.0), (1.5,), order=0), 0.9).value
    assert got == -1.6439580737279615e-17


def test_divergent_outside_disk():
    with pytest.raises(DivergentError):
        eval_series(PFQSpec((1.0, 1.0), (2.0,)), 1.5)


def test_boundary_needs_positive_excess():
    # 3F2 with sigma = -1/2 on the unit circle
    with pytest.raises(DivergentError):
        eval_series(PFQSpec((1.0, 1.0, 1.0), (1.25, 1.25)), -1.0)


def test_boundary_alternating_sum():
    # eta(2) through the 3F2 of ones at -1
    got = eval_series(PFQSpec((1.0, 1.0, 1.0), (2.0, 2.0)), -1.0).value
    assert got == pytest.approx(math.pi**2 / 12.0, abs=1e-12)


def test_boundary_complex_argument():
    got = eval_series(PFQSpec((1.0, 1.0, 1.0), (2.0, 2.0)), 1j).value
    assert got.real == pytest.approx(CATALAN, abs=1e-12)


def test_pfaff_reroute_deep_negative():
    # 2F1(1/2,1;3/2;-t^2) = arctan(t)/t survives far outside |x|<1
    spec = PFQSpec((0.5, 1.0), (1.5,))
    got = eval_series(spec, -1.0e6).value
    want = math.atan(1.0e3) / 1.0e3
    assert got == pytest.approx(want, rel=1e-9)


def test_pfaff_reroute_at_minus_one():
    got = eval_series(PFQSpec((1.0, 0.5), (1.5,)), -1.0).value
    assert got == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_near_one_connection_matches_scipy():
    spec = PFQSpec((0.3, 0.4), (1.9,))
    via_connection = eval_series(spec, 0.99).value
    assert via_connection == pytest.approx(special.hyp2f1(0.3, 0.4, 1.9, 0.99), abs=1e-9)


@pytest.mark.parametrize("c", [100.3, 150.3, 172.3])
@pytest.mark.parametrize("z", [0.97, 0.99])
def test_near_one_with_large_c_falls_back_to_the_sum(c, z):
    # Gamma(c) Gamma(c-a-b) leaves the double range (Gamma(c) alone past
    # c = 171.6): the connection refuses and the plain sum takes over
    got = eval_series(PFQSpec((0.5, 0.5), (c,), order=0), z).value
    assert got == pytest.approx(special.hyp2f1(0.5, 0.5, c, z), rel=1e-12, abs=1e-12)


def test_pfaff_near_one_with_large_c_raises_typed_error():
    with pytest.raises(SeriesError, match="double range"):
        eval_series(PFQSpec((1.5, 0.7), (200.3,), order=0), -60.0)


@pytest.mark.parametrize("a", [0.8, 0.99])
@pytest.mark.parametrize("z", [1.0 - 1e-15, 1.0 - 4e-15, 1.0 - 1e-14])
def test_near_one_within_1e14_of_one_is_not_f_at_one(a, z):
    # 2F1(a,a;a+1;z) = a z^-a B(a,1-a) I_z(a,1-a); F(1) would be off by
    # about |1-z|^(1-a), 2.4 times the value at a = 0.99
    want = a * z**-a * special.beta(a, 1 - a) * special.betainc(a, 1 - a, z)
    got = eval_series(PFQSpec((a, a), (a + 1,)), z).value
    assert abs(got - want) <= 1e-13 * want


def test_near_one_window_with_integer_excess_keeps_f_at_one():
    # the connection refuses c-a-b = 1 and 0; within 1e-14 of 1 the
    # value is F(1) and the excess 0 diverges there, as before
    spec = PFQSpec((1.0, 1.0), (3.0,))
    assert eval_series(spec, 1.0 - 1e-15).value == eval_at_one(spec).value
    with pytest.raises(DivergentError, match="divergent at 1"):
        eval_series(PFQSpec((1.0, 1.0), (2.0,)), 1.0 - 1e-15)


@pytest.mark.parametrize("spec, z", [
    # F(1) is 50.698 where mpmath's F(z) is 15.295
    (PFQSpec((1.0, 1.0, 0.5), (1.5, 1.01)), 1.0 - 1e-15),
    # F(1) is 5.3e-7 off
    (PFQSpec((0.3, 0.7), (1.4,)), 1.0 + 1e-15j),
])
def test_at_one_snap_raises_where_f_at_one_misses_tol(spec, z):
    with pytest.raises(DivergentError, match=re.escape(repr(complex(z)))):
        eval_series(spec, z)


def test_at_one_snap_keeps_a_dilogarithm_within_tol():
    # 3F2(1,1,1;2,2;z) = Li2(z)/z, and Li2(1-x) = spence(x)
    z = 1.0 - 1e-15
    got = eval_series(PFQSpec((1.0, 1.0, 1.0), (2.0, 2.0)), z).value
    assert abs(got - special.spence(1e-15) / z) <= 1e-13


# -- evaluation: argument one ----------------------------------------------


def test_lemniscate_constant():
    spec = PFQSpec((0.5, 0.25), (1.25,))
    got = 4.0 * math.sqrt(2.0) * eval_at_one(spec).value
    want = math.gamma(0.25) ** 2 / math.sqrt(math.pi)
    assert got == pytest.approx(want, rel=1e-13)


def test_zeta_two():
    got = eval_at_one(PFQSpec((1.0, 1.0, 1.0), (2.0, 2.0))).value
    assert got == pytest.approx(math.pi**2 / 6.0, abs=1e-12)


def test_zeta_three():
    got = eval_at_one(PFQSpec((1.0,) * 4, (2.0,) * 3)).value
    assert got == pytest.approx(ZETA3, abs=1e-12)


def test_at_one_requires_saturated_shape():
    with pytest.raises(SeriesError):
        eval_at_one(PFQSpec((1.0,), (2.0, 3.0)))


def test_at_one_requires_positive_excess():
    with pytest.raises(DivergentError, match="1"):
        eval_at_one(PFQSpec((1.0, 1.0), (2.0,)))


def test_at_one_sums_a_polynomial_whatever_its_excess():
    # Chu-Vandermonde: 2F1(-2, 3; 1/2; 1) = (c-b)_2/(c)_2 = 5, with
    # Re(excess) = -1/2
    assert eval_at_one(PFQSpec((-2.0, 3.0), (0.5,))).value == pytest.approx(5.0)


def test_at_one_of_1f0_with_nonnegative_a_names_the_pole():
    with pytest.raises(DivergentError, match="pole or branch point"):
        eval_at_one(PFQSpec((0.5,), ()))


def test_at_one_terminating_shortcut():
    spec = PFQSpec((-2.0, 0.7), (1.9,))
    want = 1.0 + (-2.0 * 0.7) / 1.9 + ((-2.0) * (-1.0) * 0.7 * 1.7) / (1.9 * 2.9 * 2.0)
    assert eval_at_one(spec).value == pytest.approx(want, rel=1e-14)


def test_gauss_product_past_the_double_range():
    # Gamma(172) alone is beyond the double range; the value is mpmath's
    got = eval_at_one(PFQSpec((0.5, 0.5), (172.0,), order=0)).value
    assert got == pytest.approx(1.00146305544372406, rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=0.05, max_value=1.2),
    b=st.floats(min_value=0.05, max_value=1.2),
    excess=st.floats(min_value=0.35, max_value=1.5),
)
# Wynn's hardest case found: it settles only 1.1e-12 from Gauss, about
# its tol
@example(0.8977469295514937, 0.8977469295514937, 0.35)
def test_gauss_form_matches_acceleration(a, b, excess):
    # Gauss: 2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))
    c = a + b + excess
    want = math.gamma(c) * math.gamma(excess) / (math.gamma(c - a) * math.gamma(c - b))
    spec = PFQSpec((a, b), (c,))
    gamma_form = eval_at_one(spec).value
    assert gamma_form == pytest.approx(want, abs=1e-9)
    wynn = _accelerated_sum(spec, 1.0 + 0j, 1e-12, 100_000).value
    assert wynn == pytest.approx(want, abs=1e-9)
    richardson = _extrapolate_at_one(spec, 1e-12, 100_000).value
    assert richardson == pytest.approx(want, abs=1e-9)


def _first_term_past_double_range(upper, lower, z=1.0) -> int:
    """The first k with log |t_k| above log(DBL_MAX), t_k summed in logs."""
    top, log_t, k = math.log(sys.float_info.max), 0.0, 0
    while log_t <= top:
        k += 1
        log_t += (sum(math.log(a + k - 1) for a in upper) - math.log(k)
                  - sum(math.log(b + k - 1) for b in lower) + math.log(abs(z)))
    return k


@pytest.mark.parametrize("upper, lower", [
    # past the double range within the first 64 terms, and after them
    ((1e5, 1e5, 1e5), (1.5, 3e5)),
    ((300.0, 300.0, 300.0), (1.5, 900.0)),
])
@pytest.mark.parametrize("jet", [False, True])
def test_at_one_overflow_index(upper, lower, jet):
    k = _first_term_past_double_range(upper, lower)
    spec = (PFQSpec((upper[0] + eps(1),) + upper[1:], lower) if jet
            else PFQSpec(upper, lower, order=0))
    with pytest.raises(TermOverflowError) as err:
        eval_at_one(spec)
    assert err.value.k == k


@pytest.mark.parametrize("z", [0.5, 0.9, 0.97 * cmath.exp(1j), 0.99])
def test_overflow_index_off_one(z):
    # 0.5 and 0.9 run the direct route's per-term head, where t * num
    # leaves the double range two terms before t * num / den does;
    # 0.97e^i and 0.99 sum on the ring, from term blocks
    upper, lower = (1e5, 1e5, 1e5), (1.5, 3e5)
    k = _first_term_past_double_range(upper, lower, z)
    with pytest.raises(TermOverflowError) as err:
        eval_series(PFQSpec(upper, lower, order=0), z)
    assert err.value.k == k


def test_gelfond_constant():
    first = eval_at_one(PFQSpec((1j, -1j), (0.5,))).value
    second = eval_at_one(PFQSpec((0.5 + 1j, 0.5 - 1j), (1.5,))).value
    assert first + 2.0 * second == pytest.approx(math.exp(math.pi), rel=1e-9)


# -- summation kernel: block tail, seam, caps, overflow -------------------


@pytest.mark.parametrize("z", [0.9, 0.97 * cmath.exp(0.7j), 0.93 * cmath.exp(2.5j)])
def test_gauss_series_across_blocks_matches_scipy(z):
    # a few hundred to tens of thousands of terms: several numpy blocks
    for a, b, c in [(0.3, 0.7, 1.4), (1.2, 0.45, 2.9)]:
        got = eval_series(PFQSpec((a, b), (c,), order=0), z).value
        want = special.hyp2f1(a, b, c, z)
        assert abs(got - want) <= 1e-10 * abs(want)


def _exp_stop(x: Fraction, tol: Fraction):
    """Exact partial sum of exp(x) where the direct route's rule stops:
    after two consecutive terms past the first, each at most
    tol * max(1, |partial sum|)."""
    term = total = Fraction(1)
    small, k = False, 0
    while True:
        k += 1
        term = term * x / k
        total += term
        if abs(term) <= tol * max(1, abs(total)):
            if small:
                return k, total
            small = True
        else:
            small = False


def _pfq_stop(upper, lower, x: Fraction, tol: Fraction):
    """Exact term count where the direct rule stops on pFq(upper; lower; x)."""
    term = total = Fraction(1)
    small, k = False, 0
    while True:
        k += 1
        ratio = x / k
        for a in upper:
            ratio *= a + k - 1
        for c in lower:
            ratio /= c + k - 1
        term *= ratio
        total += term
        if abs(term) <= tol * max(1, abs(total)):
            if small:
                return k + 1, total
            small = True
        else:
            small = False


def _complex_head(upper, lower, z: complex, tol: float):
    """(count, sum) of the head recurrence in complex arithmetic, the
    stop test on the plain running sum and each part of the terms summed
    once with math.fsum: the reference that real series, summed in
    float, must match bit for bit."""
    t = total = 1.0 + 0j
    terms = [t]
    small = False
    for k in range(1, 64):
        num, den = z, float(k)
        for a in upper:
            num *= complex(a) + (k - 1)
        for c in lower:
            den *= complex(c) + (k - 1)
        t = t * num / den
        terms.append(t)
        total += t
        if abs(t) <= tol * max(1.0, abs(total)):
            if small:
                return k + 1, complex(math.fsum(x.real for x in terms),
                                      math.fsum(x.imag for x in terms))
            small = True
        else:
            small = False
    raise AssertionError("no stop in the head")


@pytest.mark.parametrize(
    "upper, lower, x",
    [((0.3, 0.7), (1.4,), 0.5), ((), (1.5,), -20.0), ((1.25,), (0.5, 2.75), 6.5)],
)
@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_real_head_stops_where_the_exact_sum_does(upper, lower, x, tol):
    # real series run the head recurrence in float; the stop index and
    # the sum must be those of the exact rational terms
    count, total = _pfq_stop(
        [Fraction(a) for a in upper], [Fraction(c) for c in lower],
        Fraction(x), Fraction(tol),
    )
    assert count < 64  # the head route
    *_, (n, sums, _, stopped) = _partials(
        PFQSpec(upper, lower, order=0), complex(x), TERM_CAP + 1, tol
    )
    assert stopped and n == count
    assert sums[0].real == pytest.approx(float(total), rel=1e-13)
    assert (n, sums[0]) == _complex_head(upper, lower, complex(x), tol)


def test_real_head_sum_is_exactly_rounded_where_it_cancels():
    # 0F1(;b;-322.4) stops inside the head after terms up to 5.5e11
    # cancel down to 5e-4; a running compensated sum read
    # 0.000500335858031492 there, 1 ulp from the exactly rounded sum of
    # the same float terms
    b, x = 2.5308252165727496, -322.4207263973143
    *_, (n, sums, _, stopped) = _partials(
        PFQSpec((), (b,), order=0), complex(x), TERM_CAP + 1, 1e-12
    )
    assert stopped and n < 64
    assert (n, sums[0]) == _complex_head((), (b,), complex(x), 1e-12)
    assert sums[0].real == 0.0005003358580314921


@pytest.mark.parametrize("x", [1e30, -1e30])
def test_real_head_overflow_names_the_first_bad_term(x):
    # 0F1(;3/2;x): log10 |t_k| is 286.3 at k = 10 and 314.2 at k = 11,
    # far from the top of the range on both sides, so the index is exact
    top = math.log(sys.float_info.max)
    lt, k = 0.0, 0
    while lt <= top:
        k += 1
        lt += math.log(abs(x) / (k * (0.5 + k)))
    assert k == 11
    with pytest.raises(TermOverflowError) as err:
        eval_series(PFQSpec((), (1.5,), order=0), x)
    assert err.value.k == k


@pytest.mark.parametrize("z", [1.0, complex(1.0, 1e-300)])
def test_head_partial_sum_overflow_names_its_index(z):
    # 1F1(2; 2e-308; z): t_1 = 1e308 and t_2 = 1.5e308 are doubles, but
    # 1 + t_1 + t_2 is not; the complex z runs the complex head
    with pytest.raises(TermOverflowError) as err:
        eval_series(PFQSpec((2.0,), (2e-308,), order=0), z)
    assert err.value.k == 2


def test_block_sum_overflow_without_tol_names_the_first_partial_sum():
    # the binomial sum of 1F0(-1026;;-1) = 2^1026 has its largest term at
    # 1.8e307; in exact arithmetic S_501 is 0.945 and S_502 1.02 DBL_MAX,
    # while the block of terms 256 .. 511 overflows as a whole
    with pytest.raises(TermOverflowError) as err:
        eval_series(PFQSpec((-1026.0,), (), order=0), -1.0)
    assert err.value.k == 502


def test_scalar_block_overflow_names_the_first_bad_term():
    # the terminating 2F1(-400, 1; 1; 1000) has no stop rule, and its
    # terms leave the range past the 64-term head, inside a block
    top = math.log(sys.float_info.max)
    lt, k = 0.0, 0
    while lt <= top:
        k += 1
        lt += math.log((400 - k + 1) * 1000.0 / k)
    assert k > 64
    with pytest.raises(TermOverflowError) as err:
        eval_series(PFQSpec((-400.0, 1.0), (1.0,), order=0), 1000.0)
    assert abs(err.value.k - k) <= 1


@pytest.mark.parametrize("x, last", [(31.5, 63), (32.5, 64), (33.25, 65)])
def test_direct_stop_at_the_head_tail_seam(x, last):
    # a loose tol makes the truncation visible: stopping one term early
    # or late moves the sum by ~1e-6 relative
    tol = 1e-6
    k, partial = _exp_stop(Fraction(x), Fraction(tol))
    assert k == last
    got = _direct_sum(PFQSpec((), (), order=0), complex(x), tol, TERM_CAP).value
    assert got == pytest.approx(float(partial), rel=1e-13)


@pytest.mark.parametrize("n", [63, 64, 65, 300])
def test_long_terminating_sum_is_exact(n):
    # all terms positive, so the exact rational sum is a fair reference;
    # degree 300 runs through blocks of 64, 128 and a clipped 44
    b, c, z = Fraction(3, 4), Fraction(5, 2), Fraction(-1, 4)
    term = total = Fraction(1)
    for k in range(n):
        term *= (-n + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
    got = eval_series(PFQSpec((-float(n), float(b)), (float(c),), order=0), float(z))
    assert got.value.real == pytest.approx(float(total), rel=1e-13)


@pytest.mark.parametrize("a, b, c", [(0.6, 1.3, 2.7), (1.5, 0.4, 1.9)])
def test_three_f_two_at_one_by_wynn(a, b, c):
    # sum (a)_k (b)_k / ((c)_k (k+1)!) is (2F1(a-1,b-1;c-1;1) - 1)
    # * (c-1)/((a-1)(b-1)), and Gauss sums the 2F1
    got = eval_at_one(PFQSpec((a, b, 1.0), (c, 2.0), order=0)).value
    gauss = (
        math.gamma(c - 1.0)
        * math.gamma(c - a - b + 1.0)
        / (math.gamma(c - a) * math.gamma(c - b))
    )
    want = (c - 1.0) / ((a - 1.0) * (b - 1.0)) * (gauss - 1.0)
    assert got.real == pytest.approx(want, rel=1e-10)


def test_slow_boundary_tail_still_hits_the_cap():
    # sigma = 0.4 on |z| = 1 off the axis, where Wynn never settled and
    # Levin's transform does; the value is mpmath's hyp2f1
    got = eval_series(PFQSpec((0.3, 0.7), (1.4,), order=0), cmath.exp(1j)).value
    assert abs(got - (1.01358413141931514 + 0.16257211063871020j)) <= 1e-12
    with pytest.raises(ConvergenceError, match="300 terms"):
        _direct_sum(PFQSpec((0.3, 0.7), (1.4,), order=0), 0.99 + 0j, 1e-12, 300)


@pytest.mark.parametrize(
    "upper, lower, z",
    [
        ((0.3, 0.7), (1.4,), cmath.exp(1j)),
        ((1.0, 1.0, 1.0), (2.0, 2.0), -1.0),
        ((0.3 + eps(2), 0.7), (1.4,), cmath.exp(2j)),
        ((eps(2), eps(2)), (1.0,), 1j),
        ((0.5, 0.7), (1.22,), cmath.exp(0.6j)),
        # these two raise: parameters up to 40
        ((38.0, 35.0), (73.5,), cmath.exp(2.5j)),
        ((30.0, 36.0, 8.0), (40.0, 34.5), cmath.exp(-1.2j)),
    ],
    ids=["2F1 e^i", "3F2 -1", "jet 2 e^2i", "dilog i", "at the cut", "raises 2F1",
         "raises 3F2"],
)
def test_unit_circle_asks_for_at_most_64_terms(monkeypatch, upper, lower, z):
    # no loop grinds up to a term cap on |z| = 1 with |arg z| >= 0.6,
    # whether the call returns or raises
    asked = []
    block = hypseries._Terms.block

    def record(self, k0, m):
        asked.append((k0, m))
        return block(self, k0, m)

    monkeypatch.setattr(hypseries._Terms, "block", record)
    try:
        eval_series(PFQSpec(upper, lower), z)
    except SeriesError:
        pass
    assert asked and sum(m for _, m in asked) <= 64


def test_circle_terms_that_underflow_end_the_sum():
    # t_1 = 1e-19 z and each later term is about 1e-15 times the one
    # before: zero in floats long before term 40, and the terms past t_1
    # add less than 1e-33
    z = cmath.exp(2j)
    got = eval_series(PFQSpec((0.1,) * 4, (1e5,) * 3, order=0), z).value
    assert got.real == 1.0
    assert got.imag == pytest.approx(1e-19 * z.imag, rel=1e-14)


def test_exp_up_to_the_overflow_threshold():
    # each term is a running product of ~700 ratios, ~k ulp off at term k
    got = eval_series(PFQSpec((), (), order=0), 709.0).value
    assert got.real == pytest.approx(math.exp(709.0), rel=1e-11)
    # every term is finite, the sum is not
    with pytest.raises(TermOverflowError):
        eval_series(PFQSpec((), (), order=0), 710.0)


@pytest.mark.parametrize("x", [-20.0, -50.0, -100.0, -745.0, 3.5, 700.0])
def test_exp_is_closed_form_on_the_real_axis(x):
    # the alternating series cancels away past x = -20: it returned
    # 6.4e-9 at -20, -1399 at -50 and 2.3e26 at -100
    got = eval_series(PFQSpec((), (), order=0), x)
    assert got.value.real == pytest.approx(math.exp(x), rel=1e-15, abs=0.0)
    assert got.value.imag == 0.0


@pytest.mark.parametrize("z", [-60.0 + 2.0j, 1.0 + 2.0j, -3.0 - 40.0j, 650.0 + 0.5j])
def test_exp_is_closed_form_off_the_axis(z):
    got = eval_series(PFQSpec((), (), order=0), z).value
    assert abs(got - cmath.exp(z)) <= 1e-15 * abs(cmath.exp(z))


def test_exp_jet_is_constant():
    # 0F0 has no parameter for the perturbation to move
    got = eval_series(PFQSpec((), (), scale=-1.0, power=2, order=3), 7.0)
    assert got.value.real == pytest.approx(math.exp(-49.0), rel=1e-15)
    assert got.coeffs[1:] == (0j, 0j, 0j)


def test_exp_past_the_double_range_is_a_term_overflow():
    with pytest.raises(TermOverflowError):
        eval_series(PFQSpec((), (), order=2), 709.9 + 3.0j)


@pytest.mark.parametrize(
    "a, z, want",
    [
        (1.0, 0.5, 2.0),
        (1.0, 2.0 + 1.0j, -0.5 + 0.5j),
        (2.0, -3.0, 0.0625),
        (0.5, -3.0, 0.5),
        (1.5, -3.0, 0.125),
        (-0.5, -3.0, 2.0),
        # 1 - z = (3+4i)^2, whose principal square root is 3+4i
        (-0.5, 8.0 - 24.0j, 3.0 + 4.0j),
        (0.5, 8.0 - 24.0j, (3.0 - 4.0j) / 25.0),
    ],
)
def test_binomial_is_exact_where_the_power_is(a, z, want):
    # 1F0(a;;z) = (1-z)^(-a), inside the unit disk and beyond it
    got = eval_series(PFQSpec((a,), (), order=0), z).value
    assert abs(got - want) <= 4e-16 * abs(want)


@pytest.mark.parametrize(
    "z", [0.5, -3.0, -1e6, 0.99, 2.0 + 1.0j, -0.2 + 0.9j, 3.0 - 0.5j, 1e-3j]
)
def test_binomial_is_closed_form_on_the_cut_plane(z):
    # the reference exp(-a log(1-z)) rounds |a log(1-z)| (below 10 here)
    # times over
    got = eval_series(PFQSpec((0.7,), (), order=0), z).value
    want = cmath.exp(-0.7 * cmath.log(1.0 - z))
    assert abs(got - want) <= 4e-15 * abs(want)


@pytest.mark.parametrize("z", [0.5, -3.0, 2.0 + 1.0j, -0.2 + 0.9j])
def test_binomial_jet_in_its_parameter(z):
    # d/da (1-z)^(-a) = -log(1-z) (1-z)^(-a)
    got = eval_series(PFQSpec((0.7 + eps(2),), (), order=2), z)
    lg = -cmath.log(1.0 - z)
    want = cmath.exp(0.7 * lg)
    slope = lg * want
    assert abs(got.coeffs[0] - want) <= 4e-15 * abs(want)
    assert abs(got.coeffs[1] - slope) <= 4e-15 * abs(slope)
    assert abs(got.coeffs[2] - slope * lg / 2) <= 4e-15 * abs(slope)


def test_binomial_at_its_pole_and_on_its_cut_diverges():
    with pytest.raises(DivergentError, match="pole"):
        eval_series(PFQSpec((0.7,), (), order=0), 1.0)
    with pytest.raises(DivergentError, match=r"cut along \(1, oo\)"):
        eval_series(PFQSpec((0.7,), (), order=0), 2.5)
    # a jet in a moves off the integer, onto the cut
    with pytest.raises(DivergentError, match=r"cut along \(1, oo\)"):
        eval_series(PFQSpec((2.0 + eps(1),), ()), 2.5)


def test_binomial_where_it_has_no_pole_or_cut():
    # (1-z)^(1/2) is 0 at z = 1, and (1-z)^(-2) is single-valued past it
    assert abs(eval_series(PFQSpec((-0.5,), (), order=0), 1.0).value) <= 1e-12
    got = eval_series(PFQSpec((2.0,), (), order=0), 2.5).value
    assert abs(got - 1.0 / 2.25) <= 4e-16 / 2.25


@pytest.mark.parametrize("order", [0, 2])
def test_binomial_at_one_is_exactly_zero(order):
    # (1-z)^(-a) and each of its a-derivatives vanish at z = 1 for Re a < 0
    spec = PFQSpec((-0.5 + eps(order) if order else -0.5,), (), order=order)
    for got in (eval_series(spec, 1.0), eval_at_one(spec)):
        assert got.order == order and all(c == 0 for c in got.coeffs)


def test_binomial_past_the_double_range_is_a_term_overflow():
    # 1e10^300.5 is not a double
    with pytest.raises(TermOverflowError):
        eval_series(PFQSpec((-300.5,), (), order=0), -1e10)
    # 1096.63^100.9 = 5.5e306 is, and so is its jet's log^2 / 2 multiple,
    # 1.4e308, but its log^3 / 6 multiple is not
    assert eval_series(PFQSpec((-100.9 + eps(2),), ()), -1095.63).coeffs[2]
    with pytest.raises(TermOverflowError):
        eval_series(PFQSpec((-100.9 + eps(3),), ()), -1095.63)


@pytest.mark.parametrize("order", [0, 1])
def test_overflowing_terms_raise_at_once(order):
    a = 2.5 + eps(1) if order else 2.5
    with pytest.raises(TermOverflowError) as err:
        eval_series(PFQSpec((a,), (1.0,), order=order), -728.0)
    assert 0 < err.value.k < 2000


def test_jet_partial_sum_overflow_raises():
    # the value stays below 4e307; every term of the derivative is
    # finite, but their sum, about -2.3e308, is not
    with pytest.raises(TermOverflowError):
        eval_series(PFQSpec((), (1.5 + eps(1),)), 128000.0)


def test_jet_terms_near_the_top_of_the_range():
    # 1F1(a;1;x) at a = 1 is e^x = 1.4e307, and its a-derivative
    # sum H_k x^k / k! = e^x (ln x + gamma + E1(x)) is 9.7e307; E1(707)
    # is below 1e-300
    x = 707.2
    jet = eval_series(PFQSpec((1.0 + eps(1),), (1.0,)), x)
    slope = math.exp(x) * (math.log(x) + 0.5772156649015329)
    assert extract(0, jet).real == pytest.approx(math.exp(x), rel=1e-10)
    assert extract(1, jet).real == pytest.approx(slope, rel=1e-10)


# -- jet kernel: zero bases, seams, Wynn ------------------------------------


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("w", [0.5, 0.9, 0.97 * cmath.exp(0.7j)])
@pytest.mark.parametrize("a0", [0.0, -3.0 + 1e-6, 0.5])
def test_binomial_jet_matches_logarithm_powers(a0, w, order):
    # 1F0(a0+eps;;w) = (1-w)^(-a0) (1-w)^(-eps), so coefficient m is
    # (1-w)^(-a0) (-log(1-w))^m / m!.  Base 0 makes the first ratio
    # factor purely nilpotent, base -3 + 1e-6 puts a factor 1e-6 from
    # zero at j = 3; w = 0.9 runs a few hundred terms over several
    # blocks, and 0.97e^{0.7i} goes through Wynn.  eval_series takes
    # 1F0 in closed form, so the series goes to the kernels it would
    # reach by |w|.
    spec = PFQSpec((a0 + eps(order),), ())
    tol = hypseries.DEFAULT_TOL
    if abs(w) < 0.95:
        jet = _direct_sum(spec, w, tol * min(1.0, (1 - abs(w)) / abs(w)), TERM_CAP)
    else:
        jet = _accelerated_sum(spec, w, tol, hypseries.AT_ONE_CAP)
    lg = -cmath.log(1.0 - w)
    head = cmath.exp(-a0 * cmath.log(1.0 - w))
    for m in range(order + 1):
        want = head * lg**m / math.factorial(m)
        assert abs(extract(m, jet) - want) <= 1e-10 * max(1.0, abs(want))


def test_jet_overflow_names_the_first_bad_term_or_sum():
    # references in log space: the largest coefficient of a jet term, or
    # of the running sum, against log(DBL_MAX); +-1 for rounding
    top = math.log(sys.float_info.max)
    # 0F1(;b+eps;-x) alternates, so a term leaves the range first; the
    # eps coefficient of term k is -t_k sum_{j<k} 1/(b+j)
    b, x = 1.5, 2e5
    lt = harm = 0.0
    k = 0
    while lt + max(0.0, math.log(harm or 1.0)) <= top:
        k += 1
        lt += math.log(x / (k * (b + k - 1)))
        harm += 1.0 / (b + k - 1)
    with pytest.raises(TermOverflowError) as err:
        eval_series(PFQSpec((), (b + eps(1),)), -x)
    assert abs(err.value.k - k) <= 1
    # the terminating 2F1(-400, 1+eps; 1; 1000) alternates too and has
    # no stop rule; the eps coefficient of term k is t_k H_k
    lt = harm = 0.0
    k = 0
    while lt + max(0.0, math.log(harm or 1.0)) <= top:
        k += 1
        lt += math.log((400 - k + 1) * 1000.0 / k)
        harm += 1.0 / k
    with pytest.raises(TermOverflowError) as err:
        eval_series(PFQSpec((-400.0, 1.0 + eps(1)), (1.0,)), 1000.0)
    assert abs(err.value.k - k) <= 1
    # 1F1(1+eps;1;x) has positive terms H_k x^k / k!, whose sum leaves
    # the range about ten terms before any term does
    x = 720.0
    lt = harm = 0.0
    log_sum = -math.inf
    k = 0
    while log_sum <= top:
        k += 1
        lt += math.log(x / k)
        harm += 1.0 / k
        log_sum = max(log_sum, lt + math.log(harm)) + math.log1p(
            math.exp(-abs(log_sum - lt - math.log(harm)))
        )
    with pytest.raises(TermOverflowError) as err:
        eval_series(PFQSpec((1.0 + eps(1),), (1.0,)), x)
    assert abs(err.value.k - k) <= 1


@pytest.mark.parametrize("order", [2, 4])
def test_dilogarithm_from_two_zero_bases(order):
    # 2F1(eps,eps;1;z) = 1 + eps^2 Li2(z) + O(eps^3): z = i runs Wynn,
    # where Li2(i) = -pi^2/48 + i G; z = 1/2 runs the direct sum, where
    # Li2(1/2) = pi^2/12 - ln(2)^2/2
    e = eps(order)
    spec = PFQSpec((e, e), (1.0,))
    at_i = eval_series(spec, 1j)
    assert extract(0, at_i) == pytest.approx(1.0, abs=1e-14)
    assert abs(extract(1, at_i)) <= 1e-14
    li2_i = complex(-math.pi**2 / 48.0, CATALAN)
    assert extract(2, at_i) == pytest.approx(li2_i, abs=1e-11)
    li2_half = math.pi**2 / 12.0 - math.log(2.0) ** 2 / 2.0
    assert extract(2, eval_series(spec, 0.5)) == pytest.approx(li2_half, abs=1e-11)


def _jet_mul_exact(p, q):
    return [sum(p[i] * q[m - i] for i in range(m + 1)) for m in range(len(p))]


@pytest.mark.parametrize("n", [63, 64, 65, 300])
def test_long_terminating_jet_sum_is_exact(n):
    # 2F1(-n, b+eps; c; z) as an exact polynomial in eps over the
    # rationals; every coefficient of every term is positive at z < 0
    b, c, z = Fraction(3, 4), Fraction(5, 2), Fraction(-1, 4)
    term = [Fraction(1), Fraction(0), Fraction(0)]
    total = list(term)
    for k in range(n):
        r = (-n + k) * z / ((c + k) * (k + 1))
        term = _jet_mul_exact(term, [r * (b + k), r, Fraction(0)])
        total = [s + t for s, t in zip(total, term)]
    got = eval_series(PFQSpec((-float(n), float(b) + eps(2)), (float(c),)), float(z))
    for m in range(3):
        assert extract(m, got).real == pytest.approx(float(total[m]), rel=1e-13)


@pytest.mark.parametrize("x, last", [(31.75, 63), (32.5, 64), (33.0, 65)])
def test_jet_direct_stop_at_a_block_seam(x, last):
    # 1F1(1+eps;1;x) = sum (1 + eps H_k) x^k / k!, which tends to
    # e^x (1 + eps (ln x + gamma + E1(x))).  The exact partial sum where
    # the direct rule stops (two consecutive terms whose largest
    # coefficient is at most tol * max(1, largest coefficient of the
    # sum)) is the reference; the first jet block ends at term 63.
    tol, xf = 1e-6, Fraction(x)
    term = [Fraction(1), Fraction(0)]
    total = list(term)
    small, k = False, 0
    while True:
        term = _jet_mul_exact(term, [xf / (k + 1), xf / (k + 1) ** 2])
        k += 1
        total = [s + t for s, t in zip(total, term)]
        if max(map(abs, term)) <= Fraction(tol) * max(1, *map(abs, total)):
            if small:
                break
            small = True
        else:
            small = False
    assert k == last
    got = _direct_sum(PFQSpec((1.0 + eps(1),), (1.0,)), complex(x), tol, TERM_CAP)
    for m in range(2):
        assert extract(m, got).real == pytest.approx(float(total[m]), rel=1e-13)
    # and the sum is the closed form to about tol
    slope = math.exp(x) * (math.log(x) + 0.5772156649015329 + special.exp1(x))
    assert extract(1, got).real == pytest.approx(slope, rel=1e-5)


# -- Kummer's transformation for 1F1 at Re z < 0 ---------------------------


@pytest.mark.parametrize("x", [50.0, 400.0, 700.0])
def test_kummer_error_function(x):
    # 1F1(1/2; 3/2; -x) = sqrt(pi) erf(sqrt(x)) / (2 sqrt(x))
    got = eval_series(PFQSpec((0.5,), (1.5,), order=0), -x).value
    want = math.sqrt(math.pi) * math.erf(math.sqrt(x)) / (2.0 * math.sqrt(x))
    assert got.real == pytest.approx(want, rel=1e-10)


def test_kummer_generic_parameters():
    for a, b in [(1.3, 2.7), (3.3, 0.7)]:
        got = eval_series(PFQSpec((a,), (b,), order=0), -30.0).value
        assert got.real == pytest.approx(special.hyp1f1(a, b, -30.0), rel=1e-10)


def test_kummer_jet_matches_scipy_difference():
    # the plain series at -50 loses every digit of the a-derivative
    h = 1e-5
    jet = eval_series(PFQSpec((0.5 + eps(1),), (1.5,)), -50.0)
    up = special.hyp1f1(0.5 + h, 1.5, -50.0)
    down = special.hyp1f1(0.5 - h, 1.5, -50.0)
    want = special.hyp1f1(0.5, 1.5, -50.0)
    assert extract(0, jet).real == pytest.approx(want, rel=1e-10)
    assert extract(1, jet).real == pytest.approx((up - down) / (2.0 * h), rel=1e-7)


# -- jets -------------------------------------------------------------------


def test_jet_eval_matches_parameter_finite_difference():
    h = 1e-5
    for a, b, c, x in [(0.7, 1.1, 1.9, 0.45), (0.3, 0.6, 1.4, -0.8)]:
        jet = eval_series(PFQSpec((a + eps(1), b), (c,)), x)
        up = eval_series(PFQSpec((a + h, b), (c,), order=0), x).value
        dn = eval_series(PFQSpec((a - h, b), (c,), order=0), x).value
        fd = (up - dn) / (2.0 * h)
        assert extract(1, jet) == pytest.approx(fd, abs=1e-6)


def test_zeta_two_by_second_derivative():
    # [eps^2] of 2F1(eps,-eps;1;1) is -zeta(2)
    e = eps(2)
    got = extract(2, eval_at_one(PFQSpec((e, -e), (1.0,))))
    assert got == pytest.approx(-math.pi**2 / 6.0, abs=1e-12)


def test_cancel_parameters_strips_equal_pairs():
    spec = cancel_parameters(PFQSpec((0.5, 1.0), (0.5, 1.5)))
    assert spec.p == 1 and spec.q == 1
    assert spec.lower[0].value == 1.5


# -- limits -----------------------------------------------------------------


def test_limit_arctan_family():
    term = limit_at_minus_infinity(PFQSpec((1.0, 0.5), (1.5,)))
    assert isinstance(term, AsymptoticTerm)
    assert term.exponent.value == pytest.approx(0.5)
    assert term.coefficient.value == pytest.approx(math.pi / 2.0, abs=1e-12)
    # empirical trend: the finite-t gap closes like 1/t
    t = 1.0e6
    seen = (t**2) ** 0.5 * eval_series(PFQSpec((1.0, 0.5), (1.5,)), -(t**2)).value
    assert seen == pytest.approx(math.pi / 2.0, abs=2.0 / t)


def test_limit_gamma_product():
    term = limit_at_minus_infinity(PFQSpec((1.0, 1.0 / 3.0), (4.0 / 3.0,)))
    want = math.gamma(2.0 / 3.0) * math.gamma(4.0 / 3.0)
    assert term.exponent.value == pytest.approx(1.0 / 3.0)
    assert term.coefficient.value == pytest.approx(want, rel=1e-13)


def test_limit_gamma_product_past_the_double_range():
    # Gamma(3/2) Gamma(199.5) / Gamma(200), by mpmath; both large Gammas
    # are beyond the double range
    term = limit_at_minus_infinity(PFQSpec((200.0, 0.5), (1.5,)))
    assert term.coefficient.value == pytest.approx(0.0627835118562431, rel=1e-12)


@pytest.mark.parametrize(
    "upper, lower",
    [((1.0, 1.0 / 3.0), (4.0 / 3.0,)), ((0.3, 0.7, 1.9), (1.3, 2.6))],
)
def test_limit_gamma_arguments_give_the_coefficient(upper, lower):
    term = limit_at_minus_infinity(PFQSpec(upper, lower))
    want = 1.0
    for g in term.gamma_numerator:
        want *= math.gamma(g.value.real)
    for g in term.gamma_denominator:
        want /= math.gamma(g.value.real)
    assert term.coefficient.value == pytest.approx(want, rel=1e-13)


def test_limit_polynomial_case():
    b, c = 0.8, 1.7
    term = limit_at_minus_infinity(PFQSpec((-2.0, b), (c,)))
    assert term.exponent.value == -2.0
    want = (b * (b + 1.0)) / (c * (c + 1.0))
    assert term.coefficient.value == pytest.approx(want, rel=1e-14)
    assert term.gamma_numerator is None and term.gamma_denominator is None


def test_limit_rejects_too_few_upper():
    with pytest.raises(LimitConditionError) as err:
        limit_at_minus_infinity(PFQSpec((), (0.5, 1.5)))
    assert err.value.clause == "width"


def test_limit_rejects_no_upper_parameter():
    # 0F1 has only its oscillating exponential part at -oo
    with pytest.raises(LimitConditionError) as err:
        limit_at_minus_infinity(PFQSpec((), (1.5,)))
    assert err.value.clause == "algebraic"


def test_limit_gate_for_narrow_shape_is_half_the_excess_bound():
    # 1F2(a; 1, 7/4): Re(sigma) - 1/2 = 2.25 - a, so the bound is
    # a < 0.75, where the old gate took a < 1.125
    with pytest.raises(LimitConditionError) as err:
        limit_at_minus_infinity(PFQSpec((0.75,), (1.0, 1.75)))
    assert err.value.clause == "excess"
    assert "(Re(excess) - 1/2)/2" in str(err.value)
    term = limit_at_minus_infinity(PFQSpec((0.7,), (1.0, 1.75)))
    assert term.exponent.value == pytest.approx(0.7)


def test_limit_rejects_congruent_parameters():
    # uppers an integer apart leave the pole at -alpha simple:
    # Gamma(2.5)Gamma(1)/(Gamma(1.5)Gamma(2)) = 1.5
    term = limit_at_minus_infinity(PFQSpec((0.5, 1.5), (2.5,)))
    assert term.exponent.value == 0.5
    assert term.coefficient.value == pytest.approx(1.5, rel=1e-14)
    # only the exact tie, a double pole, is rejected
    with pytest.raises(LimitConditionError) as err:
        limit_at_minus_infinity(PFQSpec((0.5, 0.5), (1.5,)))
    assert err.value.clause == "tie"


def test_limit_rejects_two_terminating_uppers():
    with pytest.raises(LimitConditionError):
        limit_at_minus_infinity(PFQSpec((-1.0, -3.0), (1.5,)))


def test_limit_sigma_gate_for_narrow_shape():
    # p = q-1 demands min(a) < (Re(sigma) - 1/2)/2: here 1 against 0.5,
    # then 0.3 against 0.85
    with pytest.raises(LimitConditionError) as err:
        limit_at_minus_infinity(PFQSpec((1.0,), (1.2, 1.3)))
    assert err.value.clause == "excess"
    term = limit_at_minus_infinity(PFQSpec((0.3,), (1.2, 1.3)))
    assert term.exponent.value == pytest.approx(0.3)
