import cmath
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypint.jets import (
    Jet,
    as_jet,
    eps,
    extract,
    jet_exp,
    jet_inverse,
    jet_log,
    jet_mul,
    jet_pow,
)


def jets_close(a: Jet, b: Jet, tol: float) -> bool:
    scale = max(1.0, *(abs(c) for c in a.coeffs), *(abs(c) for c in b.coeffs))
    return all(abs(x - y) <= tol * scale for x, y in zip(a.coeffs, b.coeffs))


class TestBasics:
    def test_product_of_conjugate_units(self):
        e = eps(3)
        assert (1 + e) * (1 - e) == Jet((1, 0, -1, 0))

    def test_scalar_scaling(self):
        e = eps(3)
        assert 2 * (3 + e) == Jet((6, 2, 0, 0))

    def test_order_two_convolution(self):
        a = Jet((1, 1, 1))
        b = Jet((1, 1, 0))
        assert a * b == Jet((1, 2, 2))

    def test_scalar_embedding(self):
        j = as_jet(2.5 + 1j)
        assert j.coeffs == (2.5 + 1j, 0, 0, 0)
        assert j.is_scalar

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError, match="mixed jet orders"):
            jet_mul(eps(3), eps(2))
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ValueError, match="mixed jet orders"):
                op(1 + eps(3), 1 + eps(4))

    def test_public_constructor_coerces_and_validates(self):
        j = Jet((1, 2))
        assert j.coeffs == (1 + 0j, 2 + 0j)
        assert all(type(c) is complex for c in j.coeffs)
        with pytest.raises(ValueError, match="at least the constant"):
            Jet(())


class TestPow:
    def test_sqrt_of_one_plus_eps(self):
        got = jet_pow(1 + eps(3), 0.5)
        want = Jet((1, 0.5, -0.125, 0.0625))
        assert jets_close(got, want, 1e-15)

    def test_scalar_square_root(self):
        assert jet_pow(as_jet(4), 0.5) == as_jet(2)

    def test_log_power_prefactor_at_half(self):
        # (1-x)^(-2e) at x = 1/2 is exp(2e ln 2)
        got = jet_pow(as_jet(0.5), -2 * eps(3))
        l2 = math.log(2)
        assert abs(extract(0, got) - 1) < 1e-15
        assert abs(extract(1, got) - 2 * l2) < 1e-14
        assert abs(extract(2, got) - 2 * l2 * l2) < 1e-14

    def test_negative_integer_power_is_inverse(self):
        a = 2 + eps(3) + eps(3) * eps(3)
        assert jets_close(jet_pow(a, -2) * a * a, as_jet(1), 1e-14)

    def test_nilpotent_base_integer_power(self):
        e = eps(3)
        assert e**2 == Jet((0, 0, 1, 0))
        assert e**4 == Jet((0, 0, 0, 0))
        with pytest.raises(ValueError):
            jet_pow(e, 0.5)


class TestLogExp:
    def test_mercator(self):
        got = jet_log(1 + eps(2))
        assert jets_close(got, Jet((0, 1, -0.5)), 1e-15)

    def test_exp_zero(self):
        assert jet_exp(as_jet(0)) == as_jet(1)

    def test_roundtrip(self):
        a = 2 + eps(3)
        assert jets_close(jet_exp(jet_log(a)), a, 1e-14)

    def test_branch_cut_rejected(self):
        with pytest.raises(ValueError):
            jet_log(-1 + eps(3))
        with pytest.raises(ValueError):
            jet_log(eps(3))

    def test_complex_base_log(self):
        a = as_jet(1j) + eps(3)
        back = jet_exp(jet_log(a))
        assert jets_close(back, a, 1e-14)


class TestExtract:
    def test_derivative_of_two_to_minus_two_eps(self):
        j = jet_pow(as_jet(2), -2 * eps(3))
        assert abs(extract(1, j) + 2 * math.log(2)) < 1e-14

    def test_base_value(self):
        assert extract(0, Jet((7, 1, 2, 3))) == 7

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            extract(4, eps(3))


finite_complex = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def jet3(draw_label="jet"):
    return st.tuples(
        finite_complex, finite_complex, finite_complex, finite_complex
    ).map(Jet)


@given(jet3(), jet3(), jet3())
@settings(max_examples=200, deadline=None)
def test_mul_associative(a, b, c):
    assert jets_close((a * b) * c, a * (b * c), 1e-13)


@given(jet3(), jet3(), jet3())
@settings(max_examples=200, deadline=None)
def test_mul_distributes_over_add(a, b, c):
    assert jets_close(a * (b + c), a * b + a * c, 1e-13)


@given(
    st.lists(st.integers(-100, 100), min_size=4, max_size=4),
    st.lists(st.integers(-100, 100), min_size=4, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_mul_matches_polynomial_convolution_exactly(ac, bc):
    # independent truncated polynomial product; integer coefficients keep
    # the float arithmetic exact, so equality is exact too
    K = 3
    conv = [0] * (K + 1)
    for i in range(K + 1):
        for j in range(K + 1 - i):
            conv[i + j] += ac[i] * bc[j]
    got = jet_mul(Jet(tuple(ac)), Jet(tuple(bc)))
    assert got == Jet(tuple(conv))


# zero or at least 1e-3 in modulus, so that inverses stay finite
moderate = st.floats(-100.0, 100.0).filter(lambda v: v == 0 or abs(v) >= 1e-3)
small_complex = st.builds(complex, moderate, moderate)
plain_or_not = st.one_of(
    st.integers(-1000, 1000),
    moderate,
    small_complex,
    st.booleans(),
    moderate.map(np.float64),
)


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(small_complex, min_size=n, max_size=n)
    ),
    plain_or_not,
    st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]),
)
@settings(max_examples=500, deadline=None)
def test_scalar_operand_matches_the_promoted_jet(coeffs, s, op):
    # int/float/complex operands skip promotion; the result must be the
    # promoted computation op(j, as_jet(s)) on either side
    j = Jet(tuple(coeffs))
    promoted = as_jet(s, j.order)
    for got, want in ((lambda: op(j, s), lambda: op(j, promoted)),
                      (lambda: op(s, j), lambda: op(promoted, j))):
        try:
            expected = want()
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                got()
            continue
        result = got()
        assert result == expected
        assert all(type(c) is complex for c in result.coeffs)


@given(st.integers(-50, 50).filter(lambda k: k != 0))
@settings(max_examples=100, deadline=None)
def test_inverse_roundtrip(k):
    a = Jet((k, 1, -2, 0.5))
    assert jets_close(jet_inverse(a) * a, as_jet(1), 1e-13)


def _f_jet(x: float) -> Jet:
    u = x + eps(3)
    return jet_exp(u) * jet_pow(1 + u * u, 0.5) / (2 + u)


def _f_scalar(x: float) -> float:
    return math.exp(x) * math.sqrt(1 + x * x) / (2 + x)


@pytest.mark.parametrize("x", [0.0, 0.3, 1.1, -0.7])
def test_extract_matches_finite_differences(x):
    h = 1e-5
    j = _f_jet(x)
    d1 = (_f_scalar(x + h) - _f_scalar(x - h)) / (2 * h)
    d2 = (_f_scalar(x + h) - 2 * _f_scalar(x) + _f_scalar(x - h)) / (h * h)
    assert abs(extract(1, j) - d1) <= 1e-7 * max(1.0, abs(d1))
    assert abs(extract(2, j) - d2 / 2) <= 1e-4 * max(1.0, abs(d2 / 2))


def test_exp_of_imaginary_scalar_part():
    j = jet_exp(as_jet(1j * math.pi / 2) + eps(3))
    assert abs(extract(0, j) - cmath.exp(1j * math.pi / 2)) < 1e-15
