"""The expression layer as a library, without the command line."""

import cmath
import math
import subprocess
import sys

import pytest

from hypint import expr
from hypint.integrate import IntegrandSpec, definite_0_to_1, definite_0_to_inf
from hypint.jets import extract

PROBE = (
    "import sys, hypint; "
    "print(sorted(m for m in ('hypint.expr', 'hypint.cli') if m in sys.modules))"
)


def test_import_hypint_leaves_the_expression_layer_unloaded(src_env):
    # the parser and the CLI cost import time that the library does not need
    out = subprocess.run([sys.executable, "-c", PROBE], env=src_env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_text_to_integral_without_the_cli():
    st = expr.integrand(expr.parse("x/(1+x^2)^3"), 0)
    assert (st.coeff, st.alpha, st.extract_k) == (1, 1, 0)
    body = st.body
    assert (body.p, body.q) == (1, 0) and body.upper[0].value == 3
    assert (body.scale, body.power) == (-1, 2)
    res = definite_0_to_inf(IntegrandSpec(st.alpha, body), verify=False)
    # B(1, 2)/2: upper parameters 1 and 3 of the augmented 2F1 are congruent
    assert abs(res.value.value - 0.25) <= 1e-15


def test_one_binomial_match_for_every_position():
    # B^r in a numerator, 1/B^(-r) and sqrt(B) all fold to the same body
    bodies = [expr.integrand(expr.parse(text), 0).body
              for text in ("(1+2*x^3)^(1/2)", "1/(1+2*x^3)^(-1/2)", "sqrt(1+2*x^3)")]
    assert bodies[0] == bodies[1] == bodies[2]
    assert bodies[0].upper[0].value == -0.5 and bodies[0].scale == -2


def test_functions_share_one_series_table():
    # the evaluator and the recognizer read the same odd 2F1 forms
    for fn, (upper, sign) in expr._ODD_SERIES.items():
        if fn not in expr._FUNCTIONS:
            continue
        st = expr.integrand(expr.parse("%s(x/2)" % fn), 0)
        assert tuple(p.value for p in st.body.upper) == upper
        assert st.body.scale == sign / 4 and st.coeff == 0.5
        # the evaluator sums to its default tol of 1e-12
        got = expr._Evaluator(0.5, 0).run(expr.parse("%s(x)" % fn))
        want = {"arctan": math.atan, "arcsin": math.asin}[fn](0.5)
        assert abs(got - want) <= 1e-12


def _eval(text):
    return complex(expr._Evaluator(None, 0).run(expr.parse(text)))


@pytest.mark.parametrize("u", ["0.3", "2", "3", "1e6", "1e-6", "0.6i", "-1+i",
                               "-0.5-2i"])
@pytest.mark.parametrize("fn, ref", [("sqrt", cmath.sqrt), ("ln", cmath.log)])
def test_sqrt_and_ln_are_one_1f0_on_the_cut_plane(fn, ref, u):
    # sqrt(u) = 1F0(-1/2;;1-u) and ln(u) = -[eps] 1F0(eps;;1-u)
    want = ref(_eval(u))
    got = _eval("%s(%s)" % (fn, u))
    assert abs(got - want) <= 4 * math.ulp(abs(want))


def test_sqrt_is_exact_where_the_root_is():
    assert _eval("sqrt(4)") == 2 and _eval("sqrt(1/4)") == 0.5
    assert _eval("sqrt(0)") == 0


def _arctan(x: float) -> complex:
    return complex(expr._Evaluator(complex(x), 0).run(expr.parse("arctan(x)")))


@pytest.mark.parametrize("x", [1.0, -1.0, 0.99, -0.99, 1.01, -1.01])
def test_arctan_next_to_the_unit_circle(x):
    # the odd series runs at -u^2, next to its circle here; summed at the
    # half angle it is within 2e-14 (it was 3.2e-13 at 1, 4.4e-13 at 0.99)
    got, want = _arctan(x), math.atan(x)
    assert got.imag == 0.0
    assert abs(got.real - want) <= 2e-14 * abs(want)


def test_arctan_on_a_grid():
    for i in range(-200, 201):
        if i:
            x = i / 100
            assert abs(_arctan(x).real - math.atan(x)) <= 5e-14 * abs(math.atan(x)), x


@pytest.mark.parametrize("text", ["sqrt(-4)", "sqrt(-1e-300)", "ln(0)", "ln(-2)"])
def test_sqrt_and_ln_reject_their_cut(text):
    with pytest.raises(expr.ComputationError, match=text[:text.index("(")]):
        _eval(text)


@pytest.mark.parametrize(
    "text, want",
    [
        # constant factors of every kind, folded as `hypint eval` folds them
        ("sqrt(2)/(1+x^2)", math.pi * math.sqrt(2.0) / 2),
        ("2^(1/2)/(1+x^2)", math.pi * math.sqrt(2.0) / 2),
        ("arctan(1)/(1+x^2)", math.pi ** 2 / 8),
        ("2F1(1,1;2;1/2)/(1+x^2)^2", math.log(2.0) * math.pi / 2),
    ],
)
def test_constant_function_factors_on_the_half_line(text, want):
    st = expr.integrand(expr.parse(text), 0)
    res = definite_0_to_inf(IntegrandSpec(st.alpha, st.body), verify=False)
    assert abs(st.coeff * res.value.value - want) <= 1e-10


@pytest.mark.parametrize(
    "text, want",
    [
        ("ln(2)*x", math.log(2.0) / 2),
        ("2F1(1,1;2;1/2)*x", math.log(2.0)),
        # ln(B^r) = r ln(B), the body of ln(B) with coefficient -r
        ("ln((1+x)^2)", 2 * (2 * math.log(2.0) - 1)),
        ("ln(sqrt(1+x))", math.log(2.0) - 0.5),
        ("ln(1/(1+x^2)^(1/2))", 1 - math.log(2.0) / 2 - math.pi / 4),
    ],
)
def test_constant_factors_and_ln_powers_on_the_unit_interval(text, want):
    e = expr.parse(text)
    st = expr.integrand(e, expr._tree_order(e))
    if st.body is None:
        got = st.coeff / (float(st.alpha) + 1)
    else:
        res = definite_0_to_1(IntegrandSpec(st.alpha, st.body), verify=False)
        got = st.coeff * extract(st.extract_k, res.value)
    assert abs(got - want) <= 1e-10


def test_the_oracle_compiles_every_function():
    assert set(expr._FUNCTIONS) <= set(expr._LIBM)
