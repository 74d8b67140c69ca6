"""Stream reweighting: hypize/undo, power splits, remainders, Euler kernels."""

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from hypint.hyperize import (
    CoeffStream,
    PowerSplit,
    derivative_rule,
    euler_rep_check,
    hypize,
    power_split,
    repeated_derivative_rule,
    taylor_remainder,
    undo,
)
from hypint.hypseries import PFQSpec, eval_series
from hypint.jets import Jet, eps, extract
from hypint.numkernel import pochhammer


def _exp_coeff(k):
    # 1/k! overflows the int-to-float conversion past 170
    if k < 170:
        return 1.0 / math.factorial(k)
    return math.exp(-math.lgamma(k + 1.0))


def exp_stream():
    return CoeffStream(_exp_coeff, math.inf, "exp", closed_form=math.exp)


def geometric_stream():
    return CoeffStream(lambda k: 1.0, 1.0, "geometric", closed_form=lambda t: 1.0 / (1.0 - t))


def inv_sqrt_stream():
    def c(k):
        out = 1.0
        for j in range(k):
            out *= (0.5 + j) / (1.0 + j)
        return out

    return CoeffStream(c, 1.0, "inv-sqrt", closed_form=lambda t: (1.0 - t) ** -0.5)


def sqrt_stream():
    def c(k):
        out = 1.0
        for j in range(k):
            out *= (0.5 - j) / (1.0 + j)
        return out * (-1.0) ** k

    return CoeffStream(c, 1.0, "sqrt", closed_form=lambda t: math.sqrt(1.0 - t))


def arctan_stream():
    def c(k):
        return (-1.0) ** ((k - 1) // 2) / k if k % 2 else 0.0

    return CoeffStream(c, 1.0, "arctan", closed_form=math.atan)


def even_geometric_stream():
    # 1/(1+x^2) read as g(x^2) with g the alternating geometric series
    def c(k):
        return (-1.0) ** (k // 2) if k % 2 == 0 else 0.0

    return CoeffStream(c, 1.0, "inv-1px2")


# -- basic reweighting -------------------------------------------------


def test_exp_shift_gives_expm1_over_x():
    h = hypize(exp_stream(), 1, 2)
    for x in (0.3, 0.7, 2.5, -1.2):
        assert h.evaluate(x).real == pytest.approx((math.exp(x) - 1.0) / x, abs=1e-13)


def test_equal_parameters_return_the_same_stream():
    f = exp_stream()
    assert hypize(f, 1.5, 1.5) is f
    e = 2 + eps(2)
    assert hypize(f, e, e) is f
    assert hypize(f, 2, 2.0) is f


def test_geometric_reweight_is_binomial_series():
    b = 0.6
    h = hypize(geometric_stream(), b, 1.0)
    for x in (0.2, 0.55, -0.8):
        assert h.evaluate(x).real == pytest.approx((1.0 - x) ** -b, rel=1e-13)


def test_reweighted_geometric_matches_gauss_series():
    a, b, c = 0.8, 0.6, 1.9
    binom = hypize(geometric_stream(), b, 1.0)
    h = hypize(binom, a, c)
    spec = PFQSpec((a, b), (c,))
    for x in (0.3, -0.5, 0.85):
        got = h.evaluate(x, tol=1e-15).real
        assert got == pytest.approx(eval_series(spec, x, tol=1e-15).value.real, abs=1e-12)


def test_lower_pole_rejected():
    f = exp_stream()
    with pytest.raises(ValueError, match="pole"):
        hypize(f, 0.5, 0)
    with pytest.raises(ValueError, match="pole"):
        hypize(f, 1.0, -3.0)
    # undo swaps the roles, so the pole check moves to the first slot
    with pytest.raises(ValueError, match="pole"):
        undo(f, -2, 1.5)


def test_radius_metadata_survives_reweighting():
    for f in (geometric_stream(), arctan_stream(), exp_stream()):
        assert hypize(f, 0.4, 2.2).radius == f.radius


@pytest.mark.parametrize(
    "stream",
    [
        geometric_stream(),
        inv_sqrt_stream(),
        arctan_stream(),
        hypize(inv_sqrt_stream(), 0.4, 2.2),
        hypize(arctan_stream(), 3.1, 0.4),
    ],
    ids=["geometric", "inv-sqrt", "arctan", "hyp-inv-sqrt", "hyp-arctan"],
)
def test_ratio_estimate_agrees_with_unit_radius(stream):
    assert abs(stream.estimate_radius(200) - 1.0) <= 0.05


def test_ratio_estimate_flags_entire_streams():
    assert math.isinf(exp_stream().estimate_radius(200))
    assert math.isinf(hypize(exp_stream(), 1.2, 0.7).estimate_radius(200))


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.1, 3.0),
    c=st.floats(0.1, 3.0),
    k=st.integers(0, 100),
)
def test_undo_inverts_reweighting(a, c, k):
    f = inv_sqrt_stream()
    back = undo(hypize(f, a, c), a, c)
    assert back.coeff(k) == pytest.approx(f.coeff(k), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.2, 2.5),
    b=st.floats(0.2, 2.5),
    c=st.floats(0.2, 2.5),
    d=st.floats(0.2, 2.5),
    k=st.integers(0, 100),
)
def test_reweighting_order_does_not_matter(a, b, c, d, k):
    f = geometric_stream()
    one = hypize(hypize(f, a, c), b, d)
    two = hypize(hypize(f, b, c), a, d)
    # coefficients can grow polynomially in k, so bound the scaled error too
    assert one.coeff(k) == pytest.approx(two.coeff(k), rel=1e-12, abs=1e-12)


def test_zeroth_coefficient_never_changes():
    f = arctan_stream()
    assert hypize(f, 0.17, 2.9).coeff(0) == f.coeff(0)


def test_weight_ratio_is_exact_pochhammer_quotient():
    # Against the unit stream the quotient suffers no extra rounding.
    f = geometric_stream()
    h = hypize(f, 0.35, 1.65)
    for k in range(51):
        assert h.coeff(k) == pochhammer(0.35, k) / pochhammer(1.65, k)


def _lgamma_weight(a, c, k):
    # (a)_k/(c)_k from log-Gamma, with no Pochhammer product formed
    return math.exp(
        math.lgamma(a + k) - math.lgamma(a) - math.lgamma(c + k) + math.lgamma(c)
    )


def test_weights_stay_finite_past_pochhammer_overflow():
    # (0.6)_k and (1.3)_k each leave the double range near k = 171
    h = hypize(geometric_stream(), 0.6, 1.3)
    for k in range(170, 1001):
        want = _lgamma_weight(0.6, 1.3, k)
        assert h.coeff(k).imag == 0.0
        assert h.coeff(k).real == pytest.approx(want, rel=1e-10)


def test_evaluate_near_the_radius_with_long_weights():
    # 2F1(0.6, 1; 1.3; 0.99) needs about 3000 terms
    x = 0.99
    want = math.fsum(_lgamma_weight(0.6, 1.3, k) * x**k for k in range(20000))
    got = hypize(geometric_stream(), 0.6, 1.3).evaluate(x)
    assert got.real == pytest.approx(want, rel=1e-9)


def test_jet_weight_past_overflow_carries_digamma_difference():
    # d/da (a)_k/(c)_k = (a)_k/(c)_k * (psi(a+k) - psi(a))
    k = 200
    h = hypize(geometric_stream(), 0.6 + eps(1), 1.3)
    w = _lgamma_weight(0.6, 1.3, k)
    got = h.coeff(k)
    assert extract(0, got).real == pytest.approx(w, rel=1e-10)
    assert extract(1, got).real == pytest.approx(
        w * (digamma(0.6 + k) - digamma(0.6)), rel=1e-10
    )


def test_jet_parameters_reach_the_coefficients():
    # (1+eps)_k/(1)_k carries the harmonic numbers in its eps slot
    h = hypize(geometric_stream(), 1 + eps(1), 1.0)
    x = 0.4
    val = h.evaluate(x)
    assert isinstance(val, Jet)
    assert extract(0, val).real == pytest.approx(1.0 / (1.0 - x), abs=1e-13)
    assert extract(1, val).real == pytest.approx(-math.log(1.0 - x) / (1.0 - x), abs=1e-12)


# -- evaluation and caching --------------------------------------------


def test_evaluate_outside_radius_raises():
    with pytest.raises(ValueError, match="radius"):
        geometric_stream().evaluate(1.2)


def test_evaluate_survives_interior_zero_coefficients():
    f = arctan_stream()
    assert f.evaluate(0.5, tol=1e-15).real == pytest.approx(math.atan(0.5), abs=1e-13)


def test_concurrent_first_access_fills_once():
    calls = []

    def counted(k):
        calls.append(k)
        return 1.0 / (k + 1.0)

    f = CoeffStream(counted, 1.0, "counted")
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: f.coeff(300), range(8)))
    assert all(r == results[0] for r in results)
    assert sorted(calls) == list(range(301))


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        geometric_stream().coeff(-1)


# -- power splits -------------------------------------------------------


def test_power_split_halves_the_parameters():
    ps = power_split(even_geometric_stream(), 1.0, 1.5, 2)
    assert ps.upper[0] == pytest.approx(0.5)
    assert ps.upper[1] == pytest.approx(1.0)
    assert ps.lower[0] == pytest.approx(0.75)
    assert ps.lower[1] == pytest.approx(1.25)
    assert ps.power == 2
    assert ps.scale == 1.0


def test_power_split_identity_at_n_one():
    ps = power_split(exp_stream(), 0.7, 1.9, 1)
    assert ps.upper == ((0.7 + 0j),)
    assert ps.lower == ((1.9 + 0j),)


@pytest.mark.parametrize("n", [2, 3])
def test_split_weights_reproduce_the_composite(n):
    def c(k, _n=n):
        return (-0.7) ** (k // _n) if k % _n == 0 else 0.0

    f = CoeffStream(c, 1.0, "g-of-x%d" % n)
    a, c_ = 0.8, 1.9
    direct = hypize(f, a, c_).evaluate(0.6)
    ps = power_split(f, a, c_, n)
    acc = complex(0.0)
    w = complex(1.0)
    for m in range(80):
        acc += (-0.7) ** m * w * 0.6 ** (n * m)
        for u in ps.upper:
            w *= u + m
        for low in ps.lower:
            w /= low + m
    assert direct.real == pytest.approx(acc.real, abs=1e-12)


def test_split_matches_arctan_derivative_series():
    # 1/(1+x^2) reweighted by (a; b) is 3F2(1, a/2, (a+1)/2; b/2, (b+1)/2; -x^2)
    a, b = 0.9, 2.3
    f = even_geometric_stream()
    ps = power_split(f, a, b, 2)
    spec = PFQSpec((1.0,) + ps.upper, ps.lower, scale=-1.0, power=2)
    h = hypize(f, a, b)
    for x in (0.25, 0.6):
        assert h.evaluate(x).real == pytest.approx(eval_series(spec, x).value.real, abs=1e-12)


def test_power_split_rejects_bad_input():
    with pytest.raises(ValueError, match="n >= 1"):
        power_split(exp_stream(), 1.0, 2.0, 0)
    with pytest.raises(ValueError, match="not a function"):
        power_split(exp_stream(), 1.0, 2.0, 2)


# -- Taylor remainders ---------------------------------------------------


def test_remainder_of_exp_at_one_term():
    t = taylor_remainder(exp_stream(), 1)
    for x in (0.4, 1.3):
        assert t.evaluate(x).real == pytest.approx((math.exp(x) - 1.0) / x, abs=1e-13)


def test_remainder_order_zero_is_the_stream_itself():
    f = arctan_stream()
    assert taylor_remainder(f, 0) is f
    with pytest.raises(ValueError):
        taylor_remainder(f, -1)


@pytest.mark.parametrize(
    "stream",
    [exp_stream(), inv_sqrt_stream(), arctan_stream()],
    ids=["exp", "inv-sqrt", "arctan"],
)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_remainder_reconstructs_the_function(stream, n):
    x = 0.3
    head = sum(complex(stream.coeff(k)).real * x**k for k in range(n))
    tail = x**n / math.factorial(n) * taylor_remainder(stream, n).evaluate(x).real
    assert head + tail == pytest.approx(stream.closed_form(x), abs=1e-12)


def test_sqrt_remainder_is_a_gauss_series():
    # sqrt(1-x) - 1 + x/2 = -(x^2/8) 2F1(1, 3/2; 3; x)
    t = taylor_remainder(sqrt_stream(), 2)
    assert t.coeff(0).real == pytest.approx(-0.25, abs=1e-15)
    spec = PFQSpec((1.0, 1.5), (3.0,))
    for x in (0.3, 0.7):
        direct = math.sqrt(1.0 - x) - 1.0 + x / 2.0
        series = eval_series(spec, x, tol=1e-15).value.real
        assert -(x**2) / 8.0 * series == pytest.approx(direct, abs=1e-13)
        assert x**2 / 2.0 * t.evaluate(x, tol=1e-15).real == pytest.approx(direct, abs=1e-13)


# -- derivative rules ----------------------------------------------------


def test_derivative_rule_on_x_exp():
    pref, g = derivative_rule(1, 1, exp_stream())
    assert pref == 1
    for k in range(20):
        assert g.coeff(k).real == pytest.approx((k + 1.0) / math.factorial(k), rel=1e-14)
    x = 0.8
    assert (pref * g.evaluate(x)).real == pytest.approx((x + 1.0) * math.exp(x), abs=1e-12)


def test_derivative_rule_with_square_argument():
    # d/dx x^2 f(x^2) = 2x f([2;1] x^2); with f = exp that is 2x (1+x^2) e^(x^2)
    pref, g = derivative_rule(2, 2, exp_stream())
    assert pref == 2
    x = 0.9
    got = pref * x * g.evaluate(x * x).real
    assert got == pytest.approx(2.0 * x * (1.0 + x * x) * math.exp(x * x), abs=1e-12)


def test_derivative_rule_rejects_degenerate_exponents():
    with pytest.raises(ValueError, match="beta"):
        derivative_rule(0, 1, exp_stream())
    with pytest.raises(ValueError, match="alpha"):
        derivative_rule(1, 0, exp_stream())


def test_repeated_rule_collapses_to_single_at_n_one():
    f = exp_stream()
    p1, g1 = derivative_rule(Fraction(3, 4), 1, f)
    p2, g2 = repeated_derivative_rule(Fraction(3, 4), 1, f)
    assert p1 == p2
    for k in range(30):
        assert g1.coeff(k) == pytest.approx(g2.coeff(k), rel=1e-14)


def test_repeated_rule_second_derivative_of_sqrt_exp():
    beta = Fraction(1, 2)
    pref, g = repeated_derivative_rule(beta, 2, exp_stream())
    assert pref == Fraction(-1, 8)
    x = 0.8
    h = 1e-4
    fun = lambda t: math.sqrt(t) * math.exp(t)
    second = (fun(x + h) - 2.0 * fun(x) + fun(x - h)) / h**2
    rhs = 2.0 * float(pref) * x ** (0.5 - 2.0) * g.evaluate(x).real
    assert second == pytest.approx(rhs, abs=1e-6)


def test_repeated_rule_refuses_integer_beta_below_n():
    with pytest.raises(ValueError, match="pole"):
        repeated_derivative_rule(1, 3, exp_stream())


def test_repeated_rule_identity_at_n_zero():
    f = exp_stream()
    pref, g = repeated_derivative_rule(2.5, 0, f)
    assert pref == 1 and g is f


# -- Euler kernels -------------------------------------------------------


def test_euler_kernel_exp_instance():
    assert euler_rep_check(exp_stream(), 1.0, 2.0, 1.0) <= 1e-10


def test_euler_kernel_constant_is_a_beta_integral():
    one = CoeffStream(lambda k: 1.0 if k == 0 else 0.0, math.inf, "one",
                      closed_form=lambda t: 1.0)
    assert euler_rep_check(one, 0.7, 2.1, 0.5) <= 1e-10


def test_euler_kernel_arctan_instance():
    assert euler_rep_check(arctan_stream(), 1.2, 2.6, 0.7) <= 1e-9


def test_squared_kernel_trivial_instance():
    one = CoeffStream(lambda k: 1.0 if k == 0 else 0.0, math.inf, "one",
                      closed_form=lambda t: 1.0)
    assert euler_rep_check(one, 1.0, 1.0, 0.3, alpha=1.0) <= 1e-12


def test_squared_kernel_exp_instance():
    assert euler_rep_check(exp_stream(), 1.3, 0.9, 0.6, alpha=1.7) <= 1e-9


def test_euler_kernel_preconditions():
    f = exp_stream()
    with pytest.raises(ValueError, match="c > a > 0"):
        euler_rep_check(f, 2.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="> 0"):
        euler_rep_check(f, 1.0, 2.0, 0.5, alpha=-1.0)
