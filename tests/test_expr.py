"""The expression layer as a library, without the command line."""

import math
import subprocess
import sys

from hypint import expr
from hypint.integrate import IntegrandSpec, definite_0_to_inf

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
