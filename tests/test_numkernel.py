import cmath
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypint.jets import Jet, as_jet, eps, extract, jet_mul
from hypint.numkernel import (
    PoleError,
    _gamma_jet_product,
    _polygammas,
    digamma,
    digamma_jet,
    gamma,
    gamma_jet,
    gamma_product,
    pochhammer,
    polygamma,
    reciprocal_gamma_jet,
    sinpi,
    trigamma,
)
from hypint.oracle import quad_finite, quad_halfline


def euler_gamma_constant() -> float:
    # Euler-Maclaurin corrected harmonic limit; independent of numkernel
    n = 100000
    h = sum(1.0 / k for k in range(1, n + 1))
    return h - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n * n)


class TestGamma:
    def test_factorial(self):
        assert abs(gamma(5) - 24) < 24 * 1e-14

    def test_half(self):
        assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-14

    def test_quarter_vs_euler_integral(self):
        # independent route: quadrature of the Euler integral
        ref = quad_halfline(lambda t: t**-0.75 * math.exp(-t), 1e-12).value
        assert abs(gamma(0.25) - ref) < 1e-11 * ref

    def test_squared_half_is_pi(self):
        assert abs(gamma(0.5) ** 2 - math.pi) < 1e-12

    def test_poles(self):
        for z in (0, -1, -2, -7):
            with pytest.raises(PoleError):
                gamma(z)

    def test_modulus_on_critical_line(self):
        # |Gamma(1/2 + iy)|^2 = pi / cosh(pi y), an independent closed form
        for y in (0.5, 3.0, 10.0, 30.0):
            got = abs(gamma(complex(0.5, y))) ** 2
            want = math.pi / math.cosh(math.pi * y)
            assert abs(got - want) < 1e-12 * want

    def test_large_factorial(self):
        assert abs(gamma(50) - math.factorial(49)) < 1e-12 * math.factorial(49)

    def test_functional_equation_panel(self):
        rng = random.Random(20260816)
        for _ in range(200):
            z = complex(rng.uniform(-49, 49), rng.uniform(-49, 49))
            if abs(z - round(z.real)) < 0.05 or abs(z) > 49:
                continue
            lhs = gamma(z + 1)
            rhs = z * gamma(z)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@given(
    st.complex_numbers(max_magnitude=20.0, allow_nan=False, allow_infinity=False)
)
@settings(max_examples=150, deadline=None)
# math.pi * z rounded to 1.8e-12 of sin(pi z) here
@example(17.998964162895405 + 0j)
def test_gamma_reflection(z):
    if abs(z - complex(round(z.real), 0.0)) < 1e-3:
        return  # reflection is ill-conditioned within eps-distance of integers
    if abs(z.imag) > 15:
        return  # sin(pi z) overflow territory is out of contract
    # sin(pi z) = (-1)^n sin(pi (z - n)): math.pi * z itself is off by up
    # to 20 ulp of pi, 2e-12 relative to sin(pi z) at 1e-3 from an integer
    n = round(z.real)
    sin_pi_z = (-1) ** n * cmath.sin(math.pi * (z - n))
    val = gamma(z) * gamma(1 - z) * sin_pi_z / math.pi
    assert abs(val - 1) < 1e-12 * max(1.0, abs(val))


@given(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    st.integers(0, 30),
)
@settings(max_examples=150, deadline=None)
def test_pochhammer_recurrence(a, k):
    lhs = pochhammer(a, k + 1)
    rhs = pochhammer(a, k) * (a + k)
    assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs), abs(rhs))


def test_pochhammer_duplication():
    rng = random.Random(7)
    for _ in range(100):
        a = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        k = rng.randrange(0, 21)
        lhs = pochhammer(a, 2 * k)
        rhs = pochhammer(a / 2, k) * pochhammer((a + 1) / 2, k) * 4.0**k
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_pochhammer_edges():
    assert pochhammer(3.7 + 2j, 0) == 1
    assert pochhammer(1, 4) == 24
    j = pochhammer(eps(3), 3)
    assert j == Jet((0, 2, 3, 1))
    assert extract(1, j) == 2


class TestPolygamma:
    def test_digamma_one_vs_harmonic_limit(self):
        assert abs(digamma(1).real + euler_gamma_constant()) < 1e-12

    def test_digamma_ratio_for_k_integral(self):
        got = (digamma(1.5) - digamma(1)).real
        assert abs(got - (2 - 2 * math.log(2))) < 1e-13

    def test_trigamma_quarter_vs_catalan_quadrature(self):
        cat = quad_finite(
            lambda x: math.atan(x) / x if x else 1.0, 0.0, 1.0, 1e-12
        ).value
        want = math.pi**2 + 8 * cat
        assert abs(trigamma(0.25).real - want) < 1e-10 * want

    def test_trigamma_one(self):
        assert abs(trigamma(1).real - math.pi**2 / 6) < 1e-13

    def test_reflection_formulas(self):
        rng = random.Random(123)
        for _ in range(120):
            x = rng.uniform(0.02, 0.98)
            d = (digamma(1 - x) - digamma(x)).real
            want = math.pi / math.tan(math.pi * x)
            assert abs(d - want) <= 1e-11 * max(1.0, abs(want))
            t = (trigamma(1 - x) + trigamma(x)).real
            want2 = (math.pi / math.sin(math.pi * x)) ** 2
            assert abs(t - want2) <= 1e-11 * want2

    def test_quadgamma_series(self):
        # psi''(1) = -2 zeta(3)
        zeta3 = sum(1.0 / k**3 for k in range(1, 200000))
        zeta3 += 1.0 / (2 * 200000.0**2)  # tail correction
        assert abs(polygamma(2, 1).real + 2 * zeta3) < 1e-9

    def test_poles(self):
        with pytest.raises(PoleError):
            digamma(0)
        with pytest.raises(PoleError):
            polygamma(3, -5)

    def test_complex_argument_recurrence(self):
        z = complex(-8.3, 2.1)
        lhs = polygamma(1, z + 1)
        rhs = polygamma(1, z) - 1.0 / z**2
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("z", [0.3, 2.5, 17.25, 40.0, -3.7, 2.5 - 1.5j])
    def test_one_sweep_equals_each_order_alone(self, z):
        # Gamma jets take every order from one sweep of the recurrence;
        # each order must get exactly the arithmetic of its own call
        assert _polygammas(complex(z), range(7)) == [
            polygamma(n, z) for n in range(7)
        ]

    @pytest.mark.parametrize("z0", [0.3, 17.25, -3.7, 2.5 - 1.5j])
    def test_digamma_jet_coefficients_are_scaled_polygammas(self, z0):
        j = digamma_jet(z0 + eps(5))
        for m in range(6):
            assert extract(m, j) == polygamma(m, z0) / math.factorial(m)


class TestGammaJet:
    def test_gamma_one_plus_eps(self):
        j = gamma_jet(1 + eps(3))
        assert abs(extract(0, j) - 1) < 1e-14
        assert abs(extract(1, j) + euler_gamma_constant()) < 1e-12

    def test_scalar_jet_reduces(self):
        j = gamma_jet(as_jet(2))
        assert j.is_scalar
        assert abs(extract(0, j) - 1) < 1e-14

    def test_k_integral_ratio_coefficient(self):
        # [e] of Gamma(1-2e)/Gamma(3/2-e)^2 relates to 2psi(3/2)-2psi(1)
        num = gamma_jet(1 - 2 * eps(3))
        den = gamma_jet(1.5 - eps(3))
        r = num / (den * den)
        want = (2 * digamma(1.5) - 2 * digamma(1)).real / abs(gamma(1.5)) ** 2
        assert abs(extract(1, r) - want) < 1e-12 * abs(want)

    def test_base_pole_raises(self):
        with pytest.raises(PoleError):
            gamma_jet(-2 + eps(3))

    def test_vs_finite_differences(self):
        h = 1e-5
        for z0 in (0.7, 1.9, 3.3, -0.4, 2.5 + 1.5j):
            j = gamma_jet(as_jet(z0) + eps(3))
            fd = (gamma(z0 + h) - gamma(z0 - h)) / (2 * h)
            assert abs(extract(1, j) - fd) <= 1e-7 * max(1.0, abs(fd))

    def test_digamma_jet_vs_finite_differences(self):
        h = 1e-5
        j = digamma_jet(as_jet(0.75) + eps(3))
        fd = (digamma(0.75 + h) - digamma(0.75 - h)) / (2 * h)
        assert abs(extract(1, j) - fd) <= 1e-7 * max(1.0, abs(fd))

    def test_reciprocal_at_pole(self):
        # 1/Gamma(z) ~ -(z+1) near z = -1
        j = reciprocal_gamma_jet(-1 + eps(3))
        assert abs(extract(0, j)) < 1e-14
        assert abs(extract(1, j) + 1) < 1e-13

    def test_reciprocal_matches_inverse_off_pole(self):
        a = 0.3 + eps(3)
        lhs = reciprocal_gamma_jet(a)
        rhs = gamma_jet(a) ** -1
        for k in range(4):
            assert abs(extract(k, lhs) - extract(k, rhs)) < 1e-12


# -- sinpi and the edges of Gamma ------------------------------------------


def test_sinpi_next_to_integers():
    # pi (n + d) rounds by about 4e-16 absolute; sinpi keeps d exact
    for n in (-5, -1, 0, 1, 2, 40):
        for d in (1e-9, -2.4e-4, 0.3):
            want = (-1) ** (n % 2) * math.sin(math.pi * d)
            assert sinpi(n + d) == pytest.approx(want, rel=1e-15)
    assert sinpi(-3.0) == 0 and sinpi(0.5) == 1 and sinpi(-0.5) == -1
    z = 0.3 + 0.7j
    assert sinpi(z) == pytest.approx(cmath.sin(math.pi * z), rel=1e-15)


def test_gamma_next_to_poles():
    # math.gamma is an independent real reference
    for x in (-1 + 1e-9, -0.99976, -2.5, -5.00001):
        assert gamma(x).real == pytest.approx(math.gamma(x), rel=1e-14)


def test_gamma_up_to_the_double_limit():
    for x in (143.0, 143.5, 160.25, 171.5):
        assert gamma(x).real == pytest.approx(math.gamma(x), rel=1e-13)
    assert gamma(143.5).real == pytest.approx(3.2203704817308e246, rel=1e-12)
    with pytest.raises(OverflowError):
        gamma(171.7)
    with pytest.raises(OverflowError):
        gamma(200.0)


def test_gamma_product_past_the_double_range():
    # Gamma(180.5) Gamma(3.25) / (Gamma(179.75) Gamma(2)): the first two
    # factors overflow alone, the product does not; math.lgamma is an
    # independent reference
    factors = ((180.5, 1), (179.75, -1), (3.25, 1), (2.0, -1))
    want = math.exp(
        math.lgamma(180.5) - math.lgamma(179.75) + math.lgamma(3.25)
        - math.lgamma(2.0)
    )
    assert gamma_product(factors, 0).value == pytest.approx(want, rel=1e-12)
    # an order-1 jet in the first argument: d/de log Gamma(180.5 + e) is
    # psi(180.5), so the eps coefficient is psi(180.5) times the value
    jet = gamma_product(((180.5 + eps(1), 1),) + factors[1:], 1)
    assert jet.coeffs[0] == pytest.approx(want, rel=1e-12)
    psi = math.log(180.5) - 1 / 361.0 - 1 / (12 * 180.5**2)
    assert jet.coeffs[1] == pytest.approx(want * psi, rel=1e-10)


def test_gamma_product_empty_and_in_range():
    assert gamma_product((), 2) == as_jet(1, 2)
    got = gamma_product(((5.0, 1), (0.5, -1)), 0).value
    assert got == pytest.approx(24.0 / math.sqrt(math.pi), rel=1e-14)


# (g0, k, s): the factor Gamma(g0 + k eps)^s.  1/Gamma(0.3 + eps)
# reflects; Gamma(0.45 - eps/2) does not
_JET_FACTORS = [(2.3, 1.0, 1), (0.3, 1.0, -1), (1.7, -1.0, -1), (0.45, -0.5, 1),
                (4.1, 2.0, -1)]


@pytest.mark.parametrize("order", [1, 2, 4])
def test_gamma_jet_product_against_polygamma_series(order):
    # the product's log is sum s log Gamma(g0 + k eps), whose eps^m
    # coefficient is sum s k^m psi^(m-1)(g0) / m!; scipy's gamma and
    # polygamma are independent references, and exp of a series with
    # zero constant term obeys n b_n = sum_j j a_j b_(n-j)
    from scipy import special

    logs = [0.0] * (order + 1)
    value = 1.0
    for g0, k, s in _JET_FACTORS:
        value *= float(special.gamma(g0)) ** s
        for m in range(1, order + 1):
            psi = float(special.polygamma(m - 1, g0))
            logs[m] += s * k**m * psi / math.factorial(m)
    want = [1.0]
    for n in range(1, order + 1):
        want.append(sum(j * logs[j] * want[n - j] for j in range(1, n + 1)) / n)
    factors = [(g0 + k * eps(order), s) for g0, k, s in _JET_FACTORS]
    got = _gamma_jet_product(factors, order)
    for u, v in zip(got.coeffs, want):
        assert u == pytest.approx(value * v, rel=1e-13)
    # a lead multiplies the product; order 0 is the plain chain of values
    lead = 0.7 - eps(order)
    with_lead = _gamma_jet_product(factors, order, lead=lead)
    for u, v in zip(with_lead.coeffs, jet_mul(lead, got).coeffs):
        assert u == pytest.approx(v, rel=1e-14, abs=1e-14 * abs(value))
    plain = _gamma_jet_product([(g0, s) for g0, _, s in _JET_FACTORS], 0)
    assert plain.value == pytest.approx(value, rel=1e-14)
