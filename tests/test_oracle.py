"""Quadrature oracle: known integrals, substitution cross-checks, honesty."""

import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypint.oracle import (
    OracleError,
    _Counted,
    _tanh_sinh,
    agm,
    ellipk_agm,
    ellipk_imag_agm,
    quad_finite,
    quad_halfline,
    sqrt1p_minus1,
    trinomial_root_newton,
)

CATALAN = 0.9159655941772190


def test_catalan_literal_against_alternating_series():
    # the frozen literal is only trusted because this independent sum
    # reproduces it; the half-term correction upgrades O(1/N^2) partial
    # sums to O(1/N^3)
    n = 20_000
    s = sum((-1.0) ** k / (2 * k + 1) ** 2 for k in range(n))
    s += (-1.0) ** n / (2 * n + 1) ** 2 / 2.0
    assert abs(s - CATALAN) < 5e-13


@pytest.mark.parametrize(
    "f, want",
    [(lambda x: x**-0.5, 2.0), (math.log, -1.0), (lambda x: x**-0.9, 10.0)],
)
def test_tanh_sinh_resolves_singularities_at_zero(f, want):
    val, _ = _tanh_sinh(_Counted(f), 0.0, 1.0, 1e-12)
    assert val == pytest.approx(want, rel=1e-13)


def test_tanh_sinh_refuses_a_singularity_at_the_right_endpoint():
    # nodes near 1 are rounded, so only an endpoint at 0 keeps full
    # resolution: the levels never settle, and no number comes back
    with pytest.raises(OracleError):
        _tanh_sinh(_Counted(lambda x: 1.0 / math.sqrt(1.0 - x * x)), 0.0, 1.0, 1e-12)


def test_import_leaves_scipy_integrate_unloaded(src_env):
    # quad_finite imports it on first use; a fresh interpreter shows
    # whether `import hypint` pulled it in
    code = "import sys, hypint; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=src_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_inverse_sqrt_endpoint_singularity():
    q = quad_finite(lambda x: x**-0.5, 0.0, 1.0)
    assert abs(q.value - 2.0) < 1e-11


def test_arctan_over_x_is_catalan():
    q = quad_finite(lambda x: math.atan(x) / x if x else 1.0, 0.0, 1.0, 1e-12)
    assert abs(q.value - CATALAN) < 1e-12


def test_elliptic_log_moment():
    def f(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return x * math.log(1.0 / (1.0 - x * x)) * ellipk_agm(x)

    q = quad_finite(f, 0.0, 1.0, 1e-12)
    assert abs(q.value - 4.0 * (1.0 - math.log(2.0))) < 1e-11


def test_halfline_cauchy():
    q = quad_halfline(lambda x: 1.0 / (1.0 + x * x))
    assert abs(q.value - math.pi / 2.0) < 1e-11


def test_halfline_cubic():
    q = quad_halfline(lambda x: 1.0 / (1.0 + x**3))
    assert abs(q.value - 2.0 * math.pi / (3.0 * math.sqrt(3.0))) < 1e-11
    assert abs(q.value - 1.2091995761561452) < 1e-11


def test_halfline_gaussian():
    q = quad_halfline(lambda x: math.exp(-x * x))
    assert abs(q.value - math.sqrt(math.pi) / 2.0) < 1e-11


@pytest.mark.parametrize(
    "f",
    [
        lambda x: 1.0 / (1.0 + x * x),
        lambda x: 1.0 / (1.0 + x**3),
        lambda x: math.exp(-x),
    ],
    ids=["cauchy", "cubic", "exp"],
)
def test_substitutions_agree(f):
    a = quad_halfline(f, substitution="rational")
    b = quad_halfline(f, substitution="tan")
    assert abs(a.value - b.value) <= 1e-10 * max(1.0, abs(a.value))


def test_halfline_rejects_slow_decay():
    with pytest.raises(OracleError, match="decay"):
        quad_halfline(lambda x: 1.0 / (1.0 + x))


def test_unknown_substitution():
    with pytest.raises(ValueError, match="substitution"):
        quad_halfline(lambda x: math.exp(-x), substitution="exp")


# (label, quadrature thunk, exact value)
_KNOWNS = [
    ("sqrt-sing", lambda: quad_finite(lambda x: x**-0.5, 0, 1), 2.0),
    (
        "arctan/x",
        lambda: quad_finite(lambda x: math.atan(x) / x if x else 1.0, 0, 1),
        CATALAN,
    ),
    ("log", lambda: quad_finite(lambda x: math.log(1.0 / x), 1e-300, 1), 1.0),
    (
        "circle",
        lambda: quad_finite(lambda x: (1.0 - x * x) ** -0.5, 0, 1),
        math.pi / 2.0,
    ),
    (
        "beta",
        lambda: quad_finite(lambda x: x**3 * (1 - x) ** 5, 0, 1),
        1.0 / 504.0,
    ),
    (
        "cauchy",
        lambda: quad_halfline(lambda x: 1.0 / (1.0 + x * x)),
        math.pi / 2.0,
    ),
    (
        "cubic",
        lambda: quad_halfline(lambda x: 1.0 / (1.0 + x**3)),
        2.0 * math.pi / (3.0 * math.sqrt(3.0)),
    ),
    (
        "gauss",
        lambda: quad_halfline(lambda x: math.exp(-x * x)),
        math.sqrt(math.pi) / 2.0,
    ),
    ("gamma2", lambda: quad_halfline(lambda x: x * math.exp(-x)), 1.0),
    (
        "arctan-tail",
        lambda: quad_halfline(lambda x: math.atan(x) / (1.0 + x * x) ** 2),
        # u = arctan x turns this into int_0^{pi/2} u cos^2 u du
        math.pi**2 / 16.0 - 0.25,
    ),
]


def test_error_estimates_honest():
    """True error at most 5x the reported estimate on the knowns panel."""
    for label, thunk, truth in _KNOWNS:
        q = thunk()
        assert abs(q.value - truth) <= 5.0 * q.error_estimate, label
        assert q.error_estimate >= 0.0
        assert q.evaluations > 0


def test_arctan_tail_truth_is_right():
    # independent route for the panel literal: int u cos^2 u over
    # [0, pi/2] by parts is pi^2/16 - 1/4
    import scipy.integrate as si

    val, _ = si.quad(lambda u: u * math.cos(u) ** 2, 0.0, math.pi / 2.0)
    assert abs(val - (math.pi**2 / 16.0 - 0.25)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-3.0, max_value=3.0),
        min_size=1,
        max_size=6,
    )
)
def test_polynomial_exact(coeffs):
    q = quad_finite(
        lambda x: sum(c * x**k for k, c in enumerate(coeffs)), 0.0, 1.0
    )
    want = sum(c / (k + 1.0) for k, c in enumerate(coeffs))
    assert abs(q.value - want) <= 1e-10 * max(1.0, abs(want))


def test_agm_against_elliptic_classic():
    # K(1/sqrt 2) = Gamma(1/4)^2 / (4 sqrt pi)
    want = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi))
    assert abs(ellipk_agm(1.0 / math.sqrt(2.0)) - want) < 1e-14


def test_agm_rejects_nonpositive():
    with pytest.raises(ValueError):
        agm(0.0, 1.0)


def test_ellipk_domain():
    with pytest.raises(ValueError):
        ellipk_agm(1.0)


def test_imaginary_modulus_matches_quadrature():
    # K(ix) = int_0^{pi/2} (1 + x^2 sin^2 t)^(-1/2) dt
    for x in (0.5, 1.0, 2.0):
        q = quad_finite(
            lambda t, x=x: (1.0 + x * x * math.sin(t) ** 2) ** -0.5,
            0.0,
            math.pi / 2.0,
        )
        assert abs(q.value - ellipk_imag_agm(x)) < 5e-11


def test_imaginary_modulus_at_zero():
    assert abs(ellipk_imag_agm(0.0) - math.pi / 2.0) < 1e-15


def test_sqrt1p_minus1_small_argument():
    # (1+s)^2 must reproduce 1+x to full precision even where the naive
    # subtraction would lose every digit
    for x in (1e-18, 1e-12, 1e-6, 0.5, 3.0):
        s = sqrt1p_minus1(x)
        assert abs((1.0 + s) ** 2 - (1.0 + x)) <= 4e-16 * (1.0 + x)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=7),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_trinomial_root_solves_equation(n, alpha, x):
    y = trinomial_root_newton(n, alpha, x)
    assert 0.0 <= y <= x or x == 0.0
    assert abs(alpha * y**n + y - x) <= 1e-12 * max(1.0, x)


def test_trinomial_quadratic_closed_form():
    # n = 2 has an explicit root: y = 2x / (1 + sqrt(1 + 4 alpha x))
    for alpha, x in ((0.7, 2.0), (2.0, 0.3)):
        want = 2.0 * x / (1.0 + math.sqrt(1.0 + 4.0 * alpha * x))
        assert abs(trinomial_root_newton(2, alpha, x) - want) < 1e-14


def test_trinomial_validation():
    with pytest.raises(ValueError):
        trinomial_root_newton(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        trinomial_root_newton(3, -1.0, 1.0)
