"""Argument transforms, summation identities, and the representation catalog."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from hypint.jets import as_jet, eps, extract, jet_pow
from hypint.hypseries import (
    PFQSpec,
    SeriesError,
    cancel_parameters,
    eval_at_one,
    eval_series,
)
from hypint import transforms as tr

CATALAN = 0.915965594177219

EXPECTED_ROWS = {
    "binet_sqrt",
    "clausen_square",
    "dlmf_15_4_27",
    "dlmf_15_8_24_derived",
    "gauss_from_pfaff",
    "gelfond",
    "kummer_minus1",
    "log_multiplier",
    "parity_split",
    "pfaff",
    "product_0f1",
    "real_part_rep",
    "rogers_dougall",
    "sum_at_half",
    "thomae_shift",
    "trinomial_root",
}


def test_registry_rows_present():
    assert set(tr.REGISTRY) == EXPECTED_ROWS


@pytest.mark.parametrize("name", sorted(EXPECTED_ROWS))
def test_registry_hundred_draws(name):
    # each row carries its own tolerance; all but the asymptotic
    # comparison sit at 1e-9
    rng = random.Random(20260816)
    tr.verify_identity(name, rng, draws=100)


# -- pfaff ------------------------------------------------------------------


def test_pfaff_moves_argument_and_prefactor():
    spec = PFQSpec((0.4, 0.9), (1.3,), order=0)
    moved = tr.pfaff(spec, -0.35)
    assert moved.argument == pytest.approx(-0.35 / -1.35)
    direct = eval_series(spec, -0.35).value
    routed = moved.prefactor.value * eval_series(moved.spec, moved.argument).value
    assert routed == pytest.approx(direct, abs=1e-13)


def test_pfaff_keep_selects_survivor():
    spec = PFQSpec((0.4, 0.9), (1.3,), order=0)
    a_kept = tr.pfaff(spec, 0.3, keep=0)
    b_kept = tr.pfaff(spec, 0.3, keep=1)
    assert a_kept.spec.upper[0].value == pytest.approx(0.4)
    assert b_kept.spec.upper[1].value == pytest.approx(0.9)
    va = a_kept.prefactor.value * eval_series(a_kept.spec, a_kept.argument).value
    vb = b_kept.prefactor.value * eval_series(b_kept.spec, b_kept.argument).value
    assert va == pytest.approx(vb, abs=1e-13)


def test_pfaff_twice_restores_parameters():
    spec = PFQSpec((0.4, 0.9), (1.3,), order=0)
    once = tr.pfaff(spec, -0.6)
    twice = tr.pfaff(once.spec, once.argument)
    assert twice.argument == pytest.approx(-0.6)
    for got, want in zip(twice.spec.upper, spec.upper):
        assert got.value == pytest.approx(want.value, abs=1e-14)
    net = once.prefactor.value * twice.prefactor.value
    assert net == pytest.approx(1.0, abs=1e-14)


def test_pfaff_rejects_wrong_shape_and_unit_argument():
    with pytest.raises(SeriesError):
        tr.pfaff(PFQSpec((1.0,), ()), 0.5)
    with pytest.raises(SeriesError):
        tr.pfaff(PFQSpec((1.0, 2.0), (3.0,)), 1.0)


# -- near-one connection ----------------------------------------------------


def test_near_one_connection_rejects_integer_excess():
    with pytest.raises(SeriesError, match="non-integer"):
        tr.gauss_near_one(PFQSpec((0.5, 1.0), (1.5,), order=0), 0.97)


def test_near_one_connection_value():
    spec = PFQSpec((0.3, 0.4), (1.9,), order=0)
    got = tr.gauss_near_one(spec, 0.97).value
    assert got == pytest.approx(special.hyp2f1(0.3, 0.4, 1.9, 0.97), abs=1e-10)


@pytest.mark.parametrize("a, b, c", [(0.3, 0.7, 1.6), (1.25, 0.5, 2.4), (-0.4, 0.9, 0.85)])
def test_near_one_connection_at_one_is_gauss_sum(a, b, c):
    # at w = 1 the second branch carries u^(c-a-b) = 0, and the first is
    # Gauss's sum Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b))
    want = math.gamma(c) * math.gamma(c - a - b) / (
        math.gamma(c - a) * math.gamma(c - b)
    )
    got = tr.gauss_near_one(PFQSpec((a, b), (c,), order=0), 1.0).value
    assert got.real == pytest.approx(want, rel=1e-13)
    assert got.imag == 0.0


def test_near_one_connection_at_one_rejects_negative_excess():
    with pytest.raises(SeriesError, match="diverges at argument 1"):
        tr.gauss_near_one(PFQSpec((0.5, 0.7), (1.1,), order=0), 1.0)


@pytest.mark.parametrize(
    "upper, lower",
    [
        # 1/Gamma(a) reflects, a = 0.3 < 1/2
        ((0.3 + eps(4), 1.3), (1.2,)),
        # 1/Gamma(c-a) and 1/Gamma(c-b) reflect
        ((2.2, 0.9), (1.25 + eps(4),)),
    ],
)
def test_near_one_takes_one_exp_per_lead(monkeypatch, upper, lower):
    # each lead's Gamma factors share one jet_exp of their summed
    # log-Gamma series; the third is u^s's jet_pow.  A product of single
    # Gamma jets took 5 or 6
    from hypint import jets, numkernel

    calls = []

    def counting(f):
        def wrapped(a):
            calls.append(a)
            return f(a)

        return wrapped

    for mod in (jets, numkernel):
        monkeypatch.setattr(mod, "jet_exp", counting(mod.jet_exp))
    tr.gauss_near_one(PFQSpec(upper, lower, order=4), 0.97)
    assert 0 < len(calls) <= 3


def test_gauss_from_pfaff_limit_instance():
    a, b, c = 0.3, 0.7, 2.3
    x = -1.0e6
    series = eval_series(PFQSpec((a, b), (c,), order=0), x / (x - 1.0)).value
    lhs = (-x) ** a * (1.0 - x) ** -a * series
    rhs = math.gamma(c) * math.gamma(c - a - b) / (
        math.gamma(c - a) * math.gamma(c - b)
    )
    assert lhs == pytest.approx(rhs, abs=1e-5)


# -- closed-form sums -------------------------------------------------------


def test_kummer_denominator_choice():
    # a=1, b=1/2: the series sums to pi/4; pairing the Gamma arguments
    # as ((1+a)/2, 1+a/2-b) reproduces it, shifting both by b does not
    got = tr.kummer_at_minus1(1.0, 0.5).value
    assert got == pytest.approx(math.pi / 4.0, abs=1e-14)
    wrong = (
        2.0**-1.0
        * math.gamma(1.5)
        * math.sqrt(math.pi)
        / (math.gamma((1.0 + 1.0 - 0.5) / 2.0) * math.gamma(1.0 + 0.5 - 0.5))
    )
    assert abs(wrong - math.pi / 4.0) > 1e-2


def test_kummer_with_jets_matches_series():
    e = eps(2)
    got = tr.kummer_at_minus1(0.9 + e, 0.3 - e)
    spec = PFQSpec((0.9 + e, 0.3 - e), (1.0 + (0.9 + e) - (0.3 - e),), order=2)
    want = eval_series(spec, -1.0)
    for u, v in zip(got.coeffs, want.coeffs):
        assert u == pytest.approx(v, abs=1e-10)


def test_sum_at_half_example():
    got = tr.sum_at_half(1.0, 0.5).value
    want = eval_series(PFQSpec((1.0, 1.0), (1.5,), order=0), 0.5).value
    assert got == pytest.approx(want, abs=1e-12)


def test_clausen_square_instance():
    a, b, x = 0.3, 0.45, 0.5
    base = eval_series(PFQSpec((a, b), (a + b + 0.5,), order=0), x).value
    squared = eval_series(tr.clausen_square(a, b), x).value
    assert squared == pytest.approx(base**2, abs=1e-12)


def test_dlmf_15_4_27_scalar_values():
    assert tr.special_sum_15_4_27(1.0).value == pytest.approx(math.log(2.0))
    a = 2.0 / 3.0
    by_series = eval_series(PFQSpec((1.0, a), (a + 1.0,), order=0), -1.0).value
    assert tr.special_sum_15_4_27(a).value == pytest.approx(by_series, abs=1e-10)


def test_dlmf_15_4_27_jet_extraction():
    # [eps] at a=(1+eps)/2 reaches pi/4 - Catalan
    s = tr.special_sum_15_4_27((1 + eps(1)) * 0.5)
    assert extract(1, s) == pytest.approx(math.pi / 4.0 - CATALAN, abs=1e-12)


def test_dlmf_15_8_24_scalar_value():
    got = tr.special_sum_15_8_24_derived(as_jet(0.0, 0)).value
    want = eval_series(PFQSpec((0.5, 0.5), (2.0,), order=0), -1.0).value
    assert got == pytest.approx(want, abs=1e-9)


def test_dlmf_15_8_24_jet_against_series():
    e = eps(1)
    closed = tr.special_sum_15_8_24_derived(e)
    series = eval_series(PFQSpec((0.5 + e, 0.5 + e), (2.0,), order=1), -1.0)
    for u, v in zip(closed.coeffs, series.coeffs):
        assert u == pytest.approx(v, abs=1e-10)


def test_dlmf_15_8_24_truncation_invariant():
    # coefficients must not move when the jet order grows
    lo = tr.special_sum_15_8_24_derived(eps(2))
    hi = tr.special_sum_15_8_24_derived(eps(3))
    for k in range(3):
        assert lo.coeffs[k] == pytest.approx(hi.coeffs[k], abs=1e-12)


# -- structural transforms --------------------------------------------------


def test_parity_split_eta_two():
    spec = PFQSpec((1.0, 1.0, 1.0), (2.0, 2.0), order=0)
    split = tr.parity_split(spec)
    even_at_one = eval_series(split.even, 1.0).value
    assert even_at_one == pytest.approx(math.pi**2 / 8.0, abs=1e-12)
    eta2 = split.combined(-1.0).value
    assert eta2 == pytest.approx(math.pi**2 / 12.0, abs=1e-12)


def test_parity_split_cancels_even_half():
    spec = PFQSpec((1.0, 1.0, 1.0), (2.0, 2.0), order=0)
    even = tr.parity_split(spec).even
    assert even.p == 3 and even.q == 2
    bases = sorted(p.value.real for p in even.upper)
    assert bases == pytest.approx([0.5, 0.5, 1.0])


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(min_value=0.2, max_value=1.4),
    b=st.floats(min_value=0.2, max_value=1.4),
    c=st.floats(min_value=0.7, max_value=2.0),
    x=st.floats(min_value=-0.8, max_value=0.8),
)
def test_parity_split_recombines(a, b, c, x):
    spec = PFQSpec((a, b), (c,), order=0)
    split = tr.parity_split(spec)
    whole = eval_series(spec, x).value
    assert split.combined(x).value == pytest.approx(whole, abs=1e-11)


def test_real_part_rep_fixed_point():
    spec = tr.real_part_rep(0.5, 2.0)
    got = eval_series(spec, 1.0).value
    want = eval_series(PFQSpec((1.0, 0.5), (2.0,), order=0), 1j).value.real
    assert got == pytest.approx(want, abs=1e-11)


def test_thomae_shift_quarter_pi_prefactor():
    e = eps(2)
    spec = PFQSpec((0.5 - e, 0.5 + e, -0.5), (1.5, 0.5), order=2)
    pref, shifted = tr.thomae_shift(spec, upper_pivot=2, lower_pivot=1)
    assert pref.value == pytest.approx(math.pi / 4.0, abs=1e-14)
    bases = [p.value for p in shifted.upper]
    assert bases[0] == pytest.approx(-0.5)
    assert bases[1] == pytest.approx(0.0)
    assert bases[2] == pytest.approx(0.0)
    lowers = [p.value for p in shifted.lower]
    assert lowers == pytest.approx([0.5, 1.0])


def test_thomae_shift_prefactor_past_the_double_range():
    # Gamma(180.25) and Gamma(178.75) overflow alone; the prefactor
    # Gamma(c2) Gamma(s) / (Gamma(s + a3) Gamma(c2 - a3)) does not
    spec = PFQSpec((0.5, 1.5, 2.0), (2.5, 180.25), order=0)
    pref, _ = tr.thomae_shift(spec, upper_pivot=2, lower_pivot=0)
    s = 2.5 + 180.25 - 4.0
    want = math.exp(
        math.lgamma(180.25) + math.lgamma(s) - math.lgamma(s + 2.0)
        - math.lgamma(178.25)
    )
    assert pref.value.real == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_thomae_shift_demands_positive_excess():
    with pytest.raises(SeriesError, match="excess"):
        tr.thomae_shift(PFQSpec((1.0, 1.0, 1.0), (1.2, 1.3), order=0))


def test_log_multiplier_fixed_instances():
    assert tr.log_multiplier(0.5, 0.5, 0.25).check().residual <= 1e-10
    # the arctan instance: lower 3/2 = 1 + 1/2, argument -1
    assert tr.log_multiplier(1.0, 0.5, -1.0).check().residual <= 1e-10


def test_log_multiplier_rejects_cut():
    with pytest.raises(SeriesError):
        tr.log_multiplier(0.5, 0.5, 1.0)


def test_log_multiplier_jet_against_finite_difference():
    a, b, x = 0.7, 0.9, 0.35
    e = eps(1)
    jet = eval_series(PFQSpec((a + e, b + e), (a + b,), order=1), x)
    h = 1e-5
    up = eval_series(PFQSpec((a + h, b + h), (a + b,), order=0), x).value
    dn = eval_series(PFQSpec((a - h, b - h), (a + b,), order=0), x).value
    assert extract(1, jet) == pytest.approx((up - dn) / (2 * h), abs=1e-6)


def test_binet_sqrt_rep_value():
    beta, x = 0.5, 0.6
    got = 2.0**-beta * eval_series(tr.binet_sqrt_rep(beta), x).value
    want = ((math.sqrt(1.0 + x) - 1.0) / x) ** beta
    assert got == pytest.approx(want, abs=1e-13)


def test_binet_jet_form_matches_elementary_log():
    # ((1+sqrt(1-x))/2)^(-2 eps) as a jet equals the 2F1(eps,1/2+eps;1+2eps;x) jet
    x = 0.4
    e = eps(2)
    spec = PFQSpec((e, 0.5 + e), (1 + 2 * e,), order=2)
    series = eval_series(spec, x)
    base = (1.0 + math.sqrt(1.0 - x)) / 2.0
    elementary = jet_pow(as_jet(base, 2), -2 * e)
    for u, v in zip(series.coeffs, elementary.coeffs):
        assert u == pytest.approx(v, abs=1e-12)


def test_rogers_dougall_full_grid():
    a, b = 0.21, 0.33
    for j in range(9):
        spec = PFQSpec(
            (-float(j), a, b, 0.5 - a - b - j),
            (1 - a - j, 1 - b - j, a + b + 0.5),
            order=0,
        )
        lhs = eval_series(spec, 1.0).value
        rhs = tr._rogers_rhs({"j": j, "a": a, "b": b})
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_product_0f1_instance():
    a, b, x = 0.8, 1.7, 0.3
    fa = eval_series(PFQSpec((), (a,), order=0), x).value
    fb = eval_series(PFQSpec((), (b,), order=0), x).value
    spec = PFQSpec(((a + b - 1) / 2, (a + b) / 2), (a, b, a + b - 1), order=0)
    assert fa * fb == pytest.approx(eval_series(spec, 4 * x).value, rel=1e-10)


# -- trinomial roots --------------------------------------------------------


def test_trinomial_quintic_residual():
    y = tr.trinomial_root(5, 0.1, 0.3)
    assert abs(0.1 * y**5 + y - 0.3) <= 1e-12


def test_trinomial_quadratic_against_formula():
    y = tr.trinomial_root(2, 0.2, 0.5)
    want = (-1.0 + math.sqrt(1.0 + 4.0 * 0.2 * 0.5)) / (2.0 * 0.2)
    assert y == pytest.approx(want, abs=1e-12)


def test_trinomial_zero_alpha_returns_a():
    assert tr.trinomial_root(3, 0.0, 0.37) == pytest.approx(0.37)


def test_trinomial_rejects_big_argument():
    with pytest.raises(SeriesError):
        tr.trinomial_root(5, 10.0, 0.9)
    with pytest.raises(ValueError):
        tr.trinomial_root(1, 0.1, 0.1)


# -- catalog ----------------------------------------------------------------


def test_catalog_names_and_unknown():
    assert set(tr.catalog_names()) == {
        "zeta",
        "eta",
        "ln_pow",
        "half_sqrt_log",
        "arcsin_even",
        "arcsin_odd",
        "harmonic_egf",
        "polylog",
        "catalan_3F2",
        "lemniscate",
        "apery",
        "gelfond",
        "arcsin_cubed",
        "ti",
    }
    with pytest.raises(KeyError, match="zeta"):
        tr.catalog("riemann")


def test_catalog_constants():
    assert tr.catalog("zeta", k=2).evaluate() == pytest.approx(
        math.pi**2 / 6.0, abs=1e-12
    )
    assert tr.catalog("eta", k=2).evaluate() == pytest.approx(
        math.pi**2 / 12.0, abs=1e-12
    )
    assert tr.catalog("apery").evaluate() == pytest.approx(
        1.2020569031595943, abs=1e-12
    )
    assert tr.catalog("catalan_3F2").evaluate() == pytest.approx(
        CATALAN, abs=1e-12
    )
    assert tr.catalog("lemniscate").evaluate() == pytest.approx(
        math.gamma(0.25) ** 2 / math.sqrt(math.pi), rel=1e-13
    )
    assert tr.catalog("gelfond").evaluate() == pytest.approx(
        math.exp(math.pi), rel=1e-12
    )


def test_catalog_eta_one_needs_the_reroute():
    # sigma vanishes for the 2F1 row, so this exercises the Pfaff path
    assert tr.catalog("eta", k=1).evaluate() == pytest.approx(
        math.log(2.0), abs=1e-12
    )


def test_catalog_log_powers():
    row = tr.catalog("ln_pow", k=1, a=0.0)
    assert row.evaluate(0.5) == pytest.approx(math.log(2.0), abs=1e-10)
    row = tr.catalog("ln_pow", k=3, a=0.0)
    assert row.evaluate(0.5) == pytest.approx(math.log(2.0) ** 3, abs=1e-10)
    assert "k!" in row.note
    row = tr.catalog("ln_pow", k=2, a=0.3)
    x = 0.45
    want = (1 - x) ** -0.3 * math.log(1.0 / (1 - x)) ** 2
    assert row.evaluate(x) == pytest.approx(want, abs=1e-10)


def test_catalog_half_sqrt_log():
    row = tr.catalog("half_sqrt_log", k=2)
    x = 0.6
    want = math.log((1.0 + math.sqrt(1.0 - x)) / 2.0) ** 2
    assert row.evaluate(x) == pytest.approx(want, abs=1e-10)


def test_catalog_arcsin_family():
    x = 0.5
    assert tr.catalog("arcsin_even", k=1).evaluate(x) == pytest.approx(
        math.asin(x) ** 2, abs=1e-10
    )
    assert tr.catalog("arcsin_odd", k=1).evaluate(x) == pytest.approx(
        math.asin(x) ** 3, abs=1e-10
    )
    assert tr.catalog("arcsin_odd", k=0).evaluate(x) == pytest.approx(
        math.asin(x), abs=1e-12
    )
    cubed = tr.catalog("arcsin_cubed").evaluate(x)
    assert cubed == pytest.approx(math.asin(x) ** 3, abs=1e-12)


def test_catalog_harmonic_generating_function():
    x = 0.5
    want = sum(
        sum(1.0 / j for j in range(1, k + 1)) * x**k / math.factorial(k)
        for k in range(1, 40)
    )
    assert tr.catalog("harmonic_egf").evaluate(x) == pytest.approx(
        want, abs=1e-12
    )


def test_catalog_polylog():
    want = math.pi**2 / 12.0 - math.log(2.0) ** 2 / 2.0
    assert tr.catalog("polylog", n=2).evaluate(0.5) == pytest.approx(
        want, abs=1e-10
    )
    li3 = sum(0.5**k / k**3 for k in range(1, 60))
    assert tr.catalog("polylog", n=3).evaluate(0.5) == pytest.approx(
        li3, abs=1e-10
    )


def test_catalog_ti_row_is_flagged_and_correct():
    row = tr.catalog("ti")
    assert row.note  # transcription hazard stays documented
    x = 0.7
    want = sum((-1) ** k * x ** (2 * k + 1) / (2 * k + 1) ** 2 for k in range(80))
    assert row.evaluate(x) == pytest.approx(want, abs=1e-12)
    si_shape = eval_series(
        PFQSpec((0.5,), (1.5, 1.5), scale=-0.25, power=2, order=0), x
    ).value
    assert abs(row.evaluate(x) - x * si_shape) > 1e-3
