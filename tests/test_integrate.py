"""Antiderivative augmentation and the two definite-integral drivers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypint.hyperize import CoeffStream
from hypint.hypseries import DivergentError, LimitConditionError, PFQSpec
from hypint.integrate import (
    AntiderivativeForm,
    IntegrandSpec,
    antiderivative,
    antiderivative_log,
    definite_0_to_1,
    definite_0_to_inf,
    verify_ftc,
)
from hypint.jets import extract, as_jet, eps
from hypint.oracle import quad_halfline, trinomial_root_newton

CATALAN = 0.9159655941772190  # Sum (-1)^k / (2k+1)^2


def arctan_over_x_body():
    # arctan(x)/x = 2F1(1/2, 1; 3/2; -x^2)
    return PFQSpec((0.5, 1.0), (1.5,), scale=-1, power=2, order=0)


def exp_stream():
    def coeff(k):
        if k < 170:
            return 1.0 / math.factorial(k)
        return math.exp(-math.lgamma(k + 1.0))

    return CoeffStream(coeff, radius=float("inf"), label="exp",
                       closed_form=lambda z: complex(math.exp(z.real)))


# ---------------------------------------------------------------------------
# integrand specs


def test_alpha_coerced_exactly():
    spec = IntegrandSpec(0.25, arctan_over_x_body())
    assert spec.alpha == Fraction(1, 4)
    assert IntegrandSpec(1, arctan_over_x_body()).alpha == Fraction(1)


def test_rejects_non_series_body():
    with pytest.raises(TypeError, match="PFQSpec or a CoeffStream"):
        IntegrandSpec(Fraction(0), lambda x: x)


def test_rejects_non_finite_alpha():
    with pytest.raises(ValueError, match="finite"):
        IntegrandSpec(float("nan"), arctan_over_x_body())


# ---------------------------------------------------------------------------
# antiderivative: parameter bookkeeping


def test_augmented_pair_appended():
    """alpha=0 over a power-2 body appends (1/2; 3/2) with nothing to cancel."""
    form = antiderivative(IntegrandSpec(Fraction(0), arctan_over_x_body()))
    uppers = sorted(u.value.real for u in form.body.upper)
    lowers = sorted(c.value.real for c in form.body.lower)
    assert uppers == [0.5, 0.5, 1.0]
    assert lowers == [1.5, 1.5]
    assert form.prefactor_exponent == Fraction(1)
    assert form.prefactor_coeff == Fraction(1)


def test_added_lower_cancels_matching_upper():
    # d/dx [x (1+x^2)^(-1/2)] = (1+x^2)^(-3/2): the added 3/2 downstairs
    # eats the body's 3/2 upstairs and a bare 1F0(1/2) remains.
    body = PFQSpec((1.5,), (), scale=-1, power=2, order=0)
    form = antiderivative(IntegrandSpec(Fraction(0), body))
    assert form.body.p == 1 and form.body.q == 0
    assert form.body.upper[0].value.real == pytest.approx(0.5, abs=0)
    x = 0.7
    got = form.evaluate(x, tol=1e-15).value.real
    assert got == pytest.approx(x / math.sqrt(1 + x * x), rel=1e-13)


def test_sine_antiderivative_is_one_minus_cos():
    # sin x = x 0F1(; 3/2; -x^2/4), so alpha = 1 here
    body = PFQSpec((), (1.5,), scale=-0.25, power=2, order=0)
    form = antiderivative(IntegrandSpec(Fraction(1), body))
    assert form.prefactor_exponent == Fraction(2)
    assert form.prefactor_coeff == Fraction(1, 2)
    for x in (0.3, 1.0, 2.5):
        got = form.evaluate(x).value.real
        assert got == pytest.approx(1.0 - math.cos(x), rel=1e-12, abs=1e-14)


def test_alpha_minus_one_is_rerouted():
    with pytest.raises(ValueError, match="antiderivative_log"):
        antiderivative(IntegrandSpec(Fraction(-1), arctan_over_x_body()))


def test_nonpositive_integer_augmentation_rejected():
    body = PFQSpec((0.5,), (1.5,), scale=-1, power=-2, order=0)
    with pytest.raises(ValueError, match="nonpositive integer"):
        antiderivative(IntegrandSpec(Fraction(1), body))


def test_form_at_zero():
    form = antiderivative(IntegrandSpec(Fraction(0), arctan_over_x_body()))
    assert form.evaluate(0.0).value == 0

    singular = antiderivative(
        IntegrandSpec(Fraction(-3, 2), arctan_over_x_body())
    )
    assert singular.prefactor_exponent == Fraction(-1, 2)
    with pytest.raises(ZeroDivisionError):
        singular.evaluate(0.0)
    with pytest.raises(ValueError, match="nonnegative axis"):
        singular.evaluate(-1.0)


def test_stream_body_antiderivative():
    """Streams go through the Pochhammer reweighting instead of the append."""
    form = antiderivative(IntegrandSpec(Fraction(1, 2), exp_stream()))
    assert isinstance(form.body, CoeffStream)
    # d/dx [x^(3/2) * (2/3) g(x)] = sqrt(x) e^x
    x, h = 0.6, 1e-5
    hi = form.evaluate(x + h).value.real
    lo = form.evaluate(x - h).value.real
    assert (hi - lo) / (2 * h) == pytest.approx(
        math.sqrt(x) * math.exp(x), rel=1e-9
    )


# ---------------------------------------------------------------------------
# derivative check against the integrand


def test_ftc_residual_arctan():
    form = antiderivative(IntegrandSpec(Fraction(0), arctan_over_x_body()))
    assert verify_ftc(form, (0.1, 0.5, 0.9)) < 1e-8


def test_ftc_residual_nested_radical_body():
    body = PFQSpec((0.25, 0.75), (1.5,), scale=-1, power=1, order=0)
    form = antiderivative(IntegrandSpec(Fraction(-7, 8), body))
    assert verify_ftc(form, (0.5,)) < 1e-7


@settings(max_examples=15, deadline=None)
@given(
    a=st.floats(0.2, 2.5),
    c=st.floats(0.7, 3.0),
    num=st.integers(-4, 16).filter(lambda n: n != -8),
)
def test_ftc_residual_confluent_family(a, c, num):
    body = PFQSpec((a,), (c,), scale=-1, power=1, order=0)
    form = antiderivative(IntegrandSpec(Fraction(num, 8), body))
    assert verify_ftc(form, (0.7,)) < 1e-7


# ---------------------------------------------------------------------------
# [0, 1]


def test_catalan_constant():
    res = definite_0_to_1(IntegrandSpec(Fraction(0), arctan_over_x_body()))
    assert res.value.value.real == pytest.approx(CATALAN, rel=1e-11)
    assert res.discrepancy is not None and res.discrepancy < 1e-8
    assert "augment" in res.steps[0]


def test_beta_function_row():
    # x^(-1/3) (1-x)^(1/4) integrates to B(2/3, 5/4)
    body = PFQSpec((-0.25,), (), scale=1, power=1, order=0)
    res = definite_0_to_1(IntegrandSpec(Fraction(-1, 3), body))
    want = math.gamma(2 / 3) * math.gamma(5 / 4) / math.gamma(2 / 3 + 5 / 4)
    assert res.value.value.real == pytest.approx(want, rel=1e-10)
    assert res.discrepancy < 1e-8


def test_sqrt_exp_stream_row():
    res = definite_0_to_1(IntegrandSpec(Fraction(1, 2), exp_stream()))
    # quadrature oracle, frozen
    assert res.value.value.real == pytest.approx(1.2556300825518636, rel=1e-11)
    assert res.discrepancy < 1e-8


def test_elliptic_jet_row():
    """Jet parameters ride through augmentation untouched.

    The scalar slot of the result is 2F1(1/2,1/2;2;1) = 4/pi and the
    first-order slot differentiates both upper parameters at once.  The
    slot value 1.5627885764982277 equals (16/pi)(1 - ln 2), checked by
    quadrature offline; quadrature here would need nodes at the log
    singularity, so verification is turned off.
    """
    e = eps(1)
    body = PFQSpec(
        (as_jet(0.5, 1) + e, as_jet(0.5, 1) + e),
        (as_jet(1.0, 1),),
        order=1,
    )
    res = definite_0_to_1(IntegrandSpec(Fraction(0), body), verify=False)
    assert res.oracle_value is None and res.discrepancy is None
    assert res.value.value.real == pytest.approx(4 / math.pi, rel=1e-12)
    slot = extract(1, res.value).real
    assert slot == pytest.approx(1.5627885764982277, rel=1e-12)
    assert slot * math.pi / 4 == pytest.approx(4 * (1 - math.log(2)), rel=1e-12)


def test_unit_interval_needs_integrable_weight():
    with pytest.raises(ValueError, match="alpha > -1"):
        definite_0_to_1(IntegrandSpec(Fraction(-3, 2), arctan_over_x_body()))


# ---------------------------------------------------------------------------
# logarithmic route


def test_log_route_constant_stream():
    const = CoeffStream(lambda k: 3.0 if k == 0 else 0.0,
                        radius=float("inf"), label="3")
    form = antiderivative_log(Fraction(1), const)
    assert form.log_coefficient == 3.0
    assert form.evaluate(math.e).real == pytest.approx(3.0, rel=1e-15)
    assert form.series_term(0.5) == 0


def test_log_route_derivative():
    # f(x) = arctan(x)/x, so the integrand f(x)/x has a genuine log part
    f = CoeffStream(
        lambda k: (-1.0) ** (k // 2) / (k + 1) if k % 2 == 0 else 0.0,
        radius=1.0, label="arctan(x)/x",
    )
    form = antiderivative_log(Fraction(1), f)
    assert form.log_coefficient == 1.0
    x, h = 0.5, 1e-5
    num = (form.evaluate(x + h).real - form.evaluate(x - h).real) / (2 * h)
    assert num == pytest.approx(math.atan(x) / x ** 2, rel=1e-8)


def test_log_route_inner_power():
    # same integrand pulled back through x^2: d/dx G(x) = f(x^2)/x
    f = CoeffStream(
        lambda k: (-1.0) ** (k // 2) / (k + 1) if k % 2 == 0 else 0.0,
        radius=1.0, label="arctan(x)/x",
    )
    form = antiderivative_log(Fraction(2), f)
    x, h = 0.6, 1e-5
    num = (form.evaluate(x + h).real - form.evaluate(x - h).real) / (2 * h)
    want = (math.atan(x * x) / (x * x)) / x
    assert num == pytest.approx(want, rel=1e-8)


def test_log_route_rejects_zero_power():
    const = CoeffStream(lambda k: 1.0 if k == 0 else 0.0,
                        radius=float("inf"), label="1")
    with pytest.raises(ValueError, match="nonzero"):
        antiderivative_log(Fraction(0), const)
    with pytest.raises(ValueError, match="x > 0"):
        antiderivative_log(Fraction(1), const).evaluate(0.0)


# ---------------------------------------------------------------------------
# [0, oo)


def test_halfline_cauchy():
    # 1/(1+x^2) on the half line
    body = PFQSpec((1.0,), (), scale=-1, power=2, order=0)
    res = definite_0_to_inf(IntegrandSpec(Fraction(0), body))
    assert res.value.value.real == pytest.approx(math.pi / 2, rel=1e-12)
    assert res.discrepancy < 1e-8


def test_halfline_cauchy_with_weight():
    # x^(-1/2)/(1+x^2) integrates to (pi/2)/sin(3pi/4)
    body = PFQSpec((1.0,), (), scale=-1, power=2, order=0)
    res = definite_0_to_inf(IntegrandSpec(Fraction(-1, 2), body))
    assert res.value.value.real == pytest.approx(math.pi / math.sqrt(2),
                                                 rel=1e-12)
    assert res.discrepancy < 1e-8


def test_halfline_cubic_pole():
    body = PFQSpec((1.0,), (), scale=-1, power=3, order=0)
    res = definite_0_to_inf(IntegrandSpec(Fraction(0), body))
    assert res.value.value.real == pytest.approx(
        2 * math.pi / (3 * math.sqrt(3)), rel=1e-12
    )
    assert res.discrepancy < 1e-8


def test_nested_radical_halfline():
    """sqrt(sqrt(1+x) - 1) / x^(11/8) over [0, oo).

    The integrand splits as 2^(-1/2) x^(-7/8) 2F1(1/4, 3/4; 3/2; -x) and
    the closed value is 4 Gamma(1/4)^2 / (3 sqrt(2 - sqrt 2) sqrt(pi)).
    """
    body = PFQSpec((0.25, 0.75), (1.5,), scale=-1, power=1, order=0)
    res = definite_0_to_inf(IntegrandSpec(Fraction(-7, 8), body))
    got = res.value.value.real / math.sqrt(2)
    want = 4 * math.gamma(0.25) ** 2 / (
        3 * math.sqrt(2 - math.sqrt(2)) * math.sqrt(math.pi)
    )
    assert want == pytest.approx(12.919814973211158, rel=1e-15)
    assert got == pytest.approx(want, rel=1e-12)
    assert res.discrepancy < 1e-8


@pytest.mark.parametrize("alpha,beta", [(-0.6, 1.0), (-0.35, 0.5)])
def test_nested_radical_power_law(alpha, beta):
    # int_0^inf x^(alpha-1) (sqrt(1+x) - 1)^beta dx
    #   = beta Gamma(-beta-2alpha) Gamma(alpha+beta) 2^(2alpha+beta)
    #     / Gamma(1-alpha)   for -beta < alpha < -beta/2
    from hypint.transforms import binet_sqrt_rep

    rep = binet_sqrt_rep(beta)
    a_drv = (
        Fraction(alpha).limit_denominator(10**6)
        - 1
        + Fraction(beta).limit_denominator(10**6)
    )
    res = definite_0_to_inf(IntegrandSpec(a_drv, rep))
    got = res.value.value.real * 2.0 ** (-beta)
    want = (
        beta
        * math.gamma(-beta - 2 * alpha)
        * math.gamma(alpha + beta)
        * 2.0 ** (2 * alpha + beta)
        / math.gamma(1 - alpha)
    )
    assert got == pytest.approx(want, rel=1e-12)
    assert res.discrepancy < 1e-8


def test_trinomial_root_moment():
    """x^(-2/5) times the small branch of 2 y^5 + y = x, integrated."""
    beta, alpha = Fraction(-7, 5), 2.0
    body = PFQSpec(
        (0.2, 0.4, 0.6, 0.8),
        (0.5, 0.75, 1.25),
        scale=-alpha * 3125.0 / 256.0,
        power=4,
        order=0,
    )
    res = definite_0_to_inf(IntegrandSpec(beta + 1, body), verify=False)
    got = res.value.value.real
    b = float(beta)
    want = (
        alpha ** (-(b + 2) / 4)
        * math.gamma((b + 2) / 4)
        * math.gamma(-5 * b / 4 - 1.5)
        / (4 * math.gamma(-b))
    )
    assert got == pytest.approx(want, rel=1e-12)
    # independent root-solving oracle, since the 4F3 body is out of reach
    # for quadrature beyond the unit disk
    q = quad_halfline(
        lambda x: x ** b * trinomial_root_newton(5, alpha, x), tol=1e-11
    )
    assert got == pytest.approx(q.value, rel=1e-10)


def test_trinomial_oracle_skip_is_announced():
    body = PFQSpec(
        (0.2, 0.4, 0.6, 0.8),
        (0.5, 0.75, 1.25),
        scale=-2 * 3125.0 / 256.0,
        power=4,
        order=0,
    )
    res = definite_0_to_inf(IntegrandSpec(Fraction(-2, 5), body))
    assert "oracle skipped" in res.steps[-1]
    assert res.oracle_value is None


def test_halfline_input_gates():
    good = PFQSpec((1.0,), (), scale=-1, power=2, order=0)
    with pytest.raises(TypeError, match="series body"):
        definite_0_to_inf(IntegrandSpec(Fraction(0), exp_stream()))
    with pytest.raises(ValueError, match="alpha > -1"):
        definite_0_to_inf(IntegrandSpec(Fraction(-2), good))
    with pytest.raises(ValueError, match="negative real scale"):
        definite_0_to_inf(
            IntegrandSpec(Fraction(0), PFQSpec((1.0,), (), scale=1, power=2))
        )
    with pytest.raises(ValueError, match="power > 0"):
        definite_0_to_inf(
            IntegrandSpec(Fraction(3), PFQSpec((1.0,), (), scale=-1, power=-2))
        )


def test_halfline_divergence_when_added_parameter_not_smallest():
    # x^(1/2) against a body decaying like x^(-1/4): diverges at infinity
    body = PFQSpec((0.25, 0.75), (1.5,), scale=-1, power=1, order=0)
    with pytest.raises(DivergentError, match="smallest upper"):
        definite_0_to_inf(IntegrandSpec(Fraction(1, 2), body))


def test_halfline_propagates_limit_clauses():
    congruent = PFQSpec((0.25, 1.25), (1.5,), scale=-1, power=1, order=0)
    with pytest.raises(LimitConditionError) as exc:
        definite_0_to_inf(IntegrandSpec(Fraction(-1, 2), congruent))
    assert exc.value.clause == "congruence"

    wide = PFQSpec((0.5,), (0.7, 0.9, 1.1), scale=-1, power=1, order=0)
    with pytest.raises(LimitConditionError) as exc:
        definite_0_to_inf(IntegrandSpec(Fraction(0), wide))
    assert exc.value.clause == "width"
