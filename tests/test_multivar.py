"""Double-series evaluation and the phi-weight integral family."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from hypint.hypseries import PFQSpec, eval_series
from hypint.multivar import (
    DoubleSeriesSpec,
    PhiIntegrand,
    eval_double,
    eval_3F2_example_closed,
    ialpha_closed,
    ialpha_series_rep,
    ialpha_value,
)
from hypint.oracle import quad_finite, quad_halfline

SQRT3 = math.sqrt(3.0)


def iquad(alpha, tol=1e-11):
    """Quadrature reference for the family, on the pulled-back [0,1] form."""
    p = PhiIntegrand(1 / SQRT3, -alpha)
    return quad_finite(p.substituted, 0.0, 1.0, tol).value


# ---------------------------------------------------------------------------
# spec validation and series reductions


def test_kind_and_shape_validation():
    with pytest.raises(ValueError, match="kind"):
        DoubleSeriesSpec("F3", (1.0,), (1.0,), (1.0,), (0.1, 0.1))
    with pytest.raises(ValueError, match="lengths"):
        DoubleSeriesSpec("F1", (1.0,), (1.0,), (1.0,), (0.1, 0.1))
    with pytest.raises(ValueError, match="pair"):
        DoubleSeriesSpec("F1", (1.0, 2.0), (1.0,), (1.0,), (0.1,))


def test_domain_gates():
    f1 = DoubleSeriesSpec("F1", (1.0, 2.0), (0.5,), (0.5,), (1.1, 0.0))
    with pytest.raises(ValueError, match="domain"):
        eval_double(f1)
    f2 = DoubleSeriesSpec("F2", (1.0,), (0.5, 1.5), (0.5, 1.5), (0.6, 0.5))
    with pytest.raises(ValueError, match="domain"):
        eval_double(f2)


def test_f2_inner_product_shields_the_overflowed_outer_weight():
    # (1.5)_{j+k} overflows past j+k = 170; at (0.3, 0.3) the inner
    # factor x^j y^k / (j! k!)-like has underflowed to zero there.
    # Reference: mpmath appellf2(1.5, 0.5, 0.7, 1.2, 1.3, 0.3, 0.3).
    spec = DoubleSeriesSpec("F2", (1.5,), (0.5, 1.2), (0.7, 1.3), (0.3, 0.3))
    assert eval_double(spec).real == pytest.approx(1.79854681541142856635, rel=1e-14)


def test_shells_match_a_plain_double_sum():
    # reference: every cell of a 60 x 60 square, built term by term and
    # added with math.fsum; the cells past it are below 1e-25
    a, c, b1, b2, x, y = 0.7, 1.9, 0.4, 2.2, 0.3 + 0.2j, -0.25
    cells = []
    for j in range(60):
        for k in range(60):
            w = x**j * y**k
            for i in range(j + k):
                w *= (a + i) / (c + i)
            for i in range(j):
                w *= (b1 + i) / (i + 1)
            for i in range(k):
                w *= (b2 + i) / (i + 1)
            cells.append(w)
    want = complex(math.fsum(w.real for w in cells), math.fsum(w.imag for w in cells))
    got = eval_double(DoubleSeriesSpec("F1", (a, c), (b1,), (b2,), (x, y)))
    assert abs(got - want) <= 1e-14 * abs(want)


def test_overflowed_shell_raises():
    # at (0.45, 0.45) live inner factors meet the overflowed outer weight
    spec = DoubleSeriesSpec("F2", (1.5,), (0.5, 1.2), (0.7, 1.3), (0.45, 0.45))
    with pytest.raises(ValueError, match="double range"):
        eval_double(spec)


def test_f1_collapses_to_gauss_on_axis():
    spec = DoubleSeriesSpec("F1", (0.7, 1.9), (0.4,), (2.2,), (0.3, 0.0))
    want = eval_series(
        PFQSpec((0.7, 0.4), (1.9,), order=0), 0.3
    ).value
    assert abs(eval_double(spec) - want) < 1e-12


def test_f2_collapses_to_gauss_on_axis():
    spec = DoubleSeriesSpec("F2", (1.3,), (0.6, 1.1), (0.8, 2.0), (0.25, 0.0))
    want = eval_series(
        PFQSpec((1.3, 0.6), (1.1,), order=0), 0.25
    ).value
    assert abs(eval_double(spec) - want) < 1e-12


def test_f1tilde_collapses_to_4f3_when_y_weight_terminates():
    spec = DoubleSeriesSpec(
        "F1tilde", (1.0, 0.5, 0.75, 1.25), (0.3, 0.9, 1.4), (0.0,),
        (-1 / 3, -1 / 3),
    )
    want = eval_series(
        PFQSpec((1.0, 0.5, 0.3, 0.9), (0.75, 1.25, 1.4), order=0), -1 / 3
    ).value
    assert abs(eval_double(spec) - want) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(0.3, 2.0),
    c=st.floats(0.8, 3.0),
    b1=st.floats(0.2, 1.5),
    b2=st.floats(0.2, 1.5),
    x=st.floats(-0.4, 0.4),
    y=st.floats(-0.4, 0.4),
)
def test_f1_argument_symmetry(a, c, b1, b2, x, y):
    """Swapping (x, b1) with (y, b2) leaves F1 unchanged."""
    one = eval_double(DoubleSeriesSpec("F1", (a, c), (b1,), (b2,), (x, y)))
    two = eval_double(DoubleSeriesSpec("F1", (a, c), (b2,), (b1,), (y, x)))
    assert abs(one - two) < 1e-12 * max(1.0, abs(one))


# ---------------------------------------------------------------------------
# the integral family through the double series


def test_series_rep_at_zero_is_one():
    assert ialpha_value(0.0) == 1.0
    assert ialpha_value(0.0, variant=1) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("alpha", [-1.0, 0.5, 1.0, 2.0])
def test_series_rep_variants_agree(alpha):
    v0 = ialpha_value(alpha)
    v1 = ialpha_value(alpha, variant=1)
    assert v0 == pytest.approx(v1, rel=1e-9, abs=1e-9)


def test_series_rep_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        ialpha_series_rep(0.5, variant=2)


def test_series_rep_at_minus_one_matches_closed_form():
    # the x-block pair ((alpha+1)/2; alpha+1) degenerates to 0/0 here and
    # is resolved by the stored slopes
    got = ialpha_value(-1.0)
    assert got == pytest.approx(ialpha_closed("Iminus1"), rel=1e-8)


@pytest.mark.parametrize("alpha", [-1.0, 0.5, 1.0, 2.0])
def test_series_rep_against_quadrature(alpha):
    assert ialpha_value(alpha) == pytest.approx(iquad(alpha), abs=1e-7)


# ---------------------------------------------------------------------------
# closed forms


def test_closed_i0():
    assert ialpha_closed("I0") == 1.0


@pytest.mark.parametrize(
    "case,alpha",
    [("I1", 1.0), ("Iminus1", -1.0), ("I2", 2.0)],
)
def test_closed_cases_match_quadrature(case, alpha):
    assert ialpha_closed(case) == pytest.approx(iquad(alpha), abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_negative_integers(n):
    got = ialpha_closed("Iminus_n", n)
    assert got == pytest.approx(iquad(-float(n)), abs=1e-9)


def test_closed_minus_n_equals_minus_one_case():
    assert ialpha_closed("Iminus_n", 1) == pytest.approx(
        ialpha_closed("Iminus1"), rel=1e-12
    )


def test_closed_derivative_at_zero():
    h = 1e-4
    central = (iquad(h, tol=1e-12) - iquad(-h, tol=1e-12)) / (2 * h)
    assert ialpha_closed("dIdalpha_at_0") == pytest.approx(central, abs=1e-5)


def test_closed_true_weight():
    want = math.pi / (2 * math.sqrt(6))
    assert ialpha_closed("Itrue") == pytest.approx(want, rel=0, abs=0)
    p = PhiIntegrand(1 / SQRT3, -0.5)
    q = quad_halfline(p.integrand_cubed, 1e-11)
    assert want == pytest.approx(q.value, abs=1e-10)


@pytest.mark.parametrize("a", [0.3, 1 / SQRT3, 2.0])
def test_closed_true_family(a):
    got = ialpha_closed("Ialpha_true", a)
    assert got == pytest.approx(math.atan(a) / (math.sqrt(2) * a), rel=1e-15)
    q = quad_halfline(PhiIntegrand(a, -0.5).integrand_cubed, 1e-11)
    assert got == pytest.approx(q.value, abs=1e-10)


def test_closed_true_family_special_point():
    assert ialpha_closed("Ialpha_true", 1 / SQRT3) == pytest.approx(
        ialpha_closed("Itrue"), rel=1e-15
    )


def test_closed_rejects_unknown_case():
    with pytest.raises(ValueError, match="unknown case"):
        ialpha_closed("I3")
    with pytest.raises(ValueError, match="positive integer"):
        ialpha_closed("Iminus_n", 0)


# ---------------------------------------------------------------------------
# integrand identities


def test_phi_weight_needs_positive_parameter():
    with pytest.raises(ValueError, match="positive"):
        PhiIntegrand(0.0, -0.5)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_substitution_identity(alpha):
    """t = x/sqrt(1+x^2) turns the half-line form into the [0,1] form."""
    p = PhiIntegrand(1 / SQRT3, -alpha)
    lhs = quad_halfline(p.integrand, 1e-11).value
    rhs = quad_finite(p.substituted, 0.0, 1.0, 1e-11).value
    assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_pfaff_twice_pointwise(alpha):
    # the two prefactor/series splittings of (1 + sqrt(1+w))^(-alpha) agree
    a = alpha
    first = PFQSpec((a / 2, (a + 1) / 2), (a + 1,), order=0)
    second = PFQSpec((1 + a / 2, (a + 1) / 2), (a + 1,), order=0)
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        w = 4.0 / 3.0 * t * t * (1 - t * t)
        one = (1 + w) ** (-a / 2) * eval_series(first, -w).value.real
        two = (1 + w) ** (-(a - 1) / 2) * eval_series(second, -w).value.real
        assert one == pytest.approx(two, rel=1e-12)


# ---------------------------------------------------------------------------
# the elementary 3F2 value


def test_elementary_3f2_at_target_argument():
    x = 3.0 ** -0.25
    want = eval_series(
        PFQSpec((2.0, 0.75, 1.25), (1.75, 2.25), order=0), -1 / 3
    ).value.real
    assert eval_3F2_example_closed(x) == pytest.approx(want, abs=1e-10)


def test_elementary_3f2_small_argument():
    # the printed form cancels to O(x^5), so double rounding caps the
    # usable accuracy near 0 at about 1e-16/x^4
    assert eval_3F2_example_closed(0.01) == pytest.approx(1.0, abs=1e-6)
    want = eval_series(
        PFQSpec((2.0, 0.75, 1.25), (1.75, 2.25), order=0), -0.2 ** 4
    ).value.real
    assert eval_3F2_example_closed(0.2) == pytest.approx(want, rel=1e-10)


def test_elementary_3f2_boundary():
    # series argument -1 sits on the boundary with zero parameter excess;
    # value frozen from a 30-digit summation of the alternating series
    got = eval_3F2_example_closed(1.0)
    assert got == pytest.approx(0.70645267473706779, rel=1e-12)
    assert got == pytest.approx(eval_3F2_example_closed(1 - 1e-7), abs=1e-5)


def test_elementary_3f2_domain():
    with pytest.raises(ValueError):
        eval_3F2_example_closed(0.0)
    with pytest.raises(ValueError):
        eval_3F2_example_closed(1.2)
