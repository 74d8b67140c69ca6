"""Parser round trips, command plumbing, and exit codes."""

import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from hypint import cli, integrate
from hypint.cli import (
    Add,
    Call,
    Dec,
    EpsVar,
    Extract,
    Imag,
    Mul,
    Neg,
    ParseError,
    PFq,
    Pow,
    Rat,
    Sub,
    Var,
    parse,
    render,
)
from hypint.hypseries import PFQSpec, eval_series


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parsing


def test_parse_gauss_series_node():
    e = parse("2F1(1,1/2;3/2;-x^2)")
    assert isinstance(e, PFq)
    assert len(e.upper) == 2 and len(e.lower) == 1
    assert e.upper[0] == Rat(Fraction(1))
    assert e.upper[1] == Rat(Fraction(1, 2))
    assert isinstance(e.arg, Neg) and isinstance(e.arg.u, Pow)


def test_parse_prefactor_product():
    e = parse("x^(-7/8) * 2F1(1/4,3/4;3/2;-x)")
    assert isinstance(e, Mul)
    assert isinstance(e.u, Pow) and e.u.exponent == Rat(Fraction(-7, 8))
    assert isinstance(e.v, PFq)


def test_parse_extraction_node():
    e = parse("[eps^2] 2F1(1/2-eps,1/2+eps;3/2;x^2)")
    assert isinstance(e, Extract) and e.k == 2
    body = e.u
    assert isinstance(body, PFq)
    assert isinstance(body.upper[0], Sub) and isinstance(body.upper[0].v, EpsVar)
    assert isinstance(body.upper[1], Add)


def test_parse_folds_rational_literals():
    assert parse("3/4") == Rat(Fraction(3, 4))
    assert parse("-3/4") == Rat(Fraction(-3, 4))
    assert parse("-0.5") == Dec("-0.5")
    assert parse("2i") == Imag(Fraction(2))
    assert parse("-i") == Imag(Fraction(-1))


def test_unknown_identifier_is_positioned():
    with pytest.raises(ParseError) as err:
        parse("1 + frob(x)")
    assert err.value.pos == 4


def test_unknown_function_rejected_at_parse_time():
    with pytest.raises(ParseError):
        parse("sin(x)")


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError, match="parameters"):
        parse("2F1(1;2;x)")


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse("1 2")


def test_bare_slash_after_power_is_division():
    # fraction exponents need parentheses: x^1/2 is (x^1)/2
    e = parse("x^1/2")
    assert isinstance(e, cli.Div)
    assert render(e) == "x^1/2"


def test_zero_denominator_exponent_is_a_parse_error():
    with pytest.raises(ParseError, match="denominator"):
        parse("x^(0/0)")


CANONICAL = [
    "2F1(1,1/2;3/2;-x^2)",
    "x^(-7/8) * 2F1(1/4,3/4;3/2;-x)",
    "[eps^2] 2F1(1/2-eps,1/2+eps;3/2;x^2)",
    "1/(1+x^3)",
    "arctan(x)/x",
    "3F2(2,3/4,5/4;7/4,9/4;-1/3)",
    "sqrt(1+x)-1",
    "ln(1/(1-x^2)) * x",
    "0F1(;1;x)",
    "eps+x * eps",
    "-x^2",
    "(1+x)^(-1/2)",
    "2i-1/2/x",
    "0.5 * 1e2",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_print_after_parse_is_identity(text):
    assert render(parse(text)) == text


_leaf = st_.one_of(
    st_.integers(-9, 9).map(lambda n: Rat(Fraction(n))),
    st_.tuples(st_.integers(-9, 9), st_.integers(1, 9)).map(
        lambda t: Rat(Fraction(t[0], t[1]))
    ),
    st_.sampled_from(["0.5", "1.25", "2e-3", "3.0"]).map(Dec),
    st_.integers(-3, 3).filter(bool).map(lambda n: Imag(Fraction(n))),
    st_.just(Var()),
    st_.just(EpsVar()),
)

_exponent = st_.one_of(
    st_.integers(-6, 6).map(lambda n: Rat(Fraction(n))),
    st_.tuples(st_.integers(-9, 9), st_.integers(2, 8)).map(
        lambda t: Rat(Fraction(t[0], t[1]))
    ),
    st_.just(Dec("0.5")),
)


def _neg(e):
    # the parser folds negated literals, so canonical trees never hold them
    folded = cli._negate_literal(e)
    return folded if folded is not None else Neg(e)


def _div(u, v):
    # rational/rational likewise folds to a single literal at parse time
    return cli._Parser._fold_div(u, v)


def _compound(children):
    return st_.one_of(
        st_.tuples(children, children).map(lambda t: Add(*t)),
        st_.tuples(children, children).map(lambda t: Sub(*t)),
        st_.tuples(children, children).map(lambda t: Mul(*t)),
        st_.tuples(children, children).map(lambda t: _div(*t)),
        children.map(_neg),
        st_.tuples(children, _exponent).map(lambda t: Pow(*t)),
        st_.tuples(st_.sampled_from(cli._FUNCTIONS), children).map(
            lambda t: Call(*t)
        ),
        st_.tuples(
            st_.lists(children, min_size=0, max_size=2),
            st_.lists(children, min_size=0, max_size=2),
            children,
        ).map(lambda t: PFq(tuple(t[0]), tuple(t[1]), t[2])),
        st_.tuples(st_.integers(1, 3), children).map(lambda t: Extract(*t)),
    )


_ast = st_.recursive(_leaf, _compound, max_leaves=12)


@given(_ast)
@settings(max_examples=150, deadline=None)
def test_printed_form_is_a_fixpoint(e):
    text = render(e)
    assert render(parse(text)) == text


# ---------------------------------------------------------------------------
# eval command


def test_eval_constant_series(capsys):
    code, out, _ = run_cli(["eval", "3F2(2,3/4,5/4;7/4,9/4;-1/3)"], capsys)
    assert code == 0
    want = eval_series(
        PFQSpec((2.0, 0.75, 1.25), (1.75, 2.25), order=0), -1.0 / 3.0
    ).value.real
    got = float(out.split("\n")[0].split("=")[1])
    assert got == pytest.approx(want, abs=1e-14)


def test_eval_at_point_matches_arctan(capsys):
    code, out, _ = run_cli(["eval", "2F1(1,1/2;3/2;-x^2)", "--at", "1/2"], capsys)
    assert code == 0
    got = float(out.split("\n")[0].split("=")[1])
    assert got == pytest.approx(math.atan(0.5) / 0.5, abs=1e-11)


def test_eval_at_accepts_expressions(capsys):
    code, out, _ = run_cli(
        ["eval", "x^2", "--at", "3^(-1/4)", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"]["re"] == pytest.approx(3.0 ** -0.5, abs=1e-15)


def test_eval_jet_output(capsys):
    code, out, _ = run_cli(
        ["eval", "2F1(eps,-eps;1;1)", "--jet", "2", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    jet = payload["jet"]
    assert len(jet) == 3
    assert jet[0]["re"] == pytest.approx(1.0, abs=1e-12)
    assert jet[2]["re"] == pytest.approx(-math.pi**2 / 6.0, abs=1e-10)


def test_eval_jet_flag_pads_scalars(capsys):
    code, out, _ = run_cli(["eval", "1/2", "--jet", "2", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [c["re"] for c in payload["jet"]] == [0.5, 0.0, 0.0]


def test_eval_extraction(capsys):
    code, out, _ = run_cli(
        ["eval", "[eps^2] 2F1(1/2-eps,1/2+eps;3/2;x^2)", "--at", "1/2", "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["jet"] is None
    assert payload["value"]["re"] != 0.0
    assert any("extract" in line for line in payload["trace"])


# ---------------------------------------------------------------------------
# integrate command


def test_integrate_cubic_halfline(capsys):
    code, out, _ = run_cli(
        ["integrate", "1/(1+x^3)", "--from", "0", "--to", "inf", "--oracle",
         "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"]["re"] == pytest.approx(
        2.0 * math.pi / (3.0 * math.sqrt(3.0)), abs=1e-12
    )
    assert payload["closed_form"] == "Gamma(4/3)Gamma(2/3)"
    assert payload["discrepancy"] < 1e-10
    assert payload["oracle"] is not None


def test_closed_form_carries_the_constant_coefficient(capsys):
    code, out, _ = run_cli(["integrate", "2/(1+x^3)", "--to", "inf", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"]["re"] == pytest.approx(
        4.0 * math.pi / (3.0 * math.sqrt(3.0)), rel=1e-12
    )
    assert payload["closed_form"] == "2 * Gamma(4/3)Gamma(2/3)"


def test_constant_sum_is_a_constant_factor(capsys):
    folded = run_cli(["integrate", "(1+1)*x/(1+x^2)^2", "--to", "inf"], capsys)
    plain = run_cli(["integrate", "2*x/(1+x^2)^2", "--to", "inf"], capsys)
    assert folded[0] == 0
    assert folded == plain


def test_integrate_monomial_unit_interval(capsys):
    code, out, _ = run_cli(["integrate", "x^2", "--to", "1", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"]["re"] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_integrate_arctan_over_x_is_catalan(capsys):
    code, out, _ = run_cli(
        ["integrate", "arctan(x)/x", "--to", "1", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"]["re"] == pytest.approx(0.9159655941772190, abs=1e-10)


def test_integrate_log_moment(capsys):
    # int_0^1 x ln(1/(1-x^2)) dx = 1/2
    code, out, _ = run_cli(
        ["integrate", "ln(1/(1-x^2)) * x", "--to", "1", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"]["re"] == pytest.approx(0.5, abs=1e-10)


def test_integrate_gaussian_like_power(capsys):
    code, out, _ = run_cli(
        ["integrate", "(1+x^2)^(-1)", "--to", "inf", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"]["re"] == pytest.approx(math.pi / 2.0, abs=1e-12)


@pytest.mark.parametrize(
    "expr, to, want",
    [
        ("x/(1+x^2)^2", "inf", "1/2"),
        ("1/(1+x)^2", "inf", "1"),
        ("1/(1+2*x)^2", "inf", "2^(-1)"),
        # the integrand's constant coefficient leads the product
        ("i*x/(1+x^2)^2", "inf", "i * 1/2"),
        ("1/(2+2*x)^2", "inf", "1/4"),
    ],
)
def test_closed_form_without_gamma_factors(expr, to, want, capsys):
    # the augmented pair cancels and leaves no Gamma quotient
    code, out, _ = run_cli(["integrate", expr, "--to", to, "--json"], capsys)
    assert code == 0
    assert json.loads(out)["closed_form"] == want


# ---------------------------------------------------------------------------
# the oracle integrates the expression as typed


def _oracle_payload(expr, to, capsys):
    code, out, err = run_cli(
        ["integrate", expr, "--to", to, "--oracle", "--json"], capsys
    )
    assert code == 0, err
    return json.loads(out)


_BETA_HALF_QUARTER = math.gamma(0.5) * math.gamma(0.25) / math.gamma(0.75)


@pytest.mark.parametrize(
    "expr, to, want, rel",
    [
        ("arcsin(x)", "1", math.pi / 2 - 1, 1e-10),
        ("x*arctan(x)", "1", math.pi / 4 - 0.5, 1e-10),
        ("sqrt(1+x)", "1", (2.0 / 3.0) * (2.0 * math.sqrt(2.0) - 1.0), 1e-10),
        ("1/(1+x^2)", "1", math.pi / 4, 1e-10),
        ("x*sqrt(1-x^2)", "1", 1.0 / 3.0, 1e-10),
        ("(-x)/(1+x^2)^2", "inf", -0.5, 1e-10),
        ("0.5*x^2/(1+x^3)^2", "inf", 1.0 / 6.0, 1e-10),
        ("1/(1+x^3)", "inf", 2 * math.pi / (3 * math.sqrt(3.0)), 1e-10),
        ("x^(-1/2)/(1+3*x)^(3/4)", "inf", _BETA_HALF_QUARTER / math.sqrt(3.0),
         1e-10),
        # the engine's integrand is weakest at the branch point x^2 = 1
        ("x*2F1(1/2,1/2;3/2;x^2)", "1", math.pi / 2 - 1, 1e-9),
    ],
)
def test_oracle_matches_closed_form(expr, to, want, rel, capsys):
    payload = _oracle_payload(expr, to, capsys)
    assert payload["oracle"] == pytest.approx(want, rel=rel)
    assert payload["discrepancy"] == pytest.approx(
        abs(payload["value"]["re"] - payload["oracle"]), abs=1e-15
    )


def test_oracle_is_independent_of_integrand_folding(monkeypatch, capsys):
    fold = cli._compile_integrand

    def doubled(e, order):
        st = fold(e, order)
        st.coeff *= 2.0
        return st

    monkeypatch.setattr(cli, "_compile_integrand", doubled)
    payload = _oracle_payload("1/(1+x^3)", "inf", capsys)
    assert payload["discrepancy"] > 0.1


def _count_calls(monkeypatch, modules, name):
    calls = []
    for mod in modules:
        real = getattr(mod, name)

        def counted(*a, _real=real, **kw):
            calls.append(a)
            return _real(*a, **kw)

        monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize(
    "expr, to",
    [("arcsin(x)", "1"), ("x^(1/2)*arctan((1/2)*x^2)", "1"),
     ("x*sqrt(1-(1/2)*x^3)", "1"), ("1/(1+x^3)", "inf")],
)
def test_elementary_oracle_runs_no_series(expr, to, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, (cli, integrate), "eval_series")
    _oracle_payload(expr, to, capsys)
    # at most the boundary value F(1); no quadrature node sums a series
    assert len(calls) <= 1


def test_series_node_runs_the_engine_per_node(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, (cli, integrate), "eval_series")
    _oracle_payload("x*2F1(1/2,1/2;3/2;x^2)", "1", capsys)
    assert len(calls) > 20


def test_halfline_integral_is_computed_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, (cli,), "definite_0_to_inf")
    payload = _oracle_payload("x^(-1/2)/(1+3*x)^(3/4)", "inf", capsys)
    assert payload["closed_form"] is not None
    assert len(calls) == 1


def test_oracle_refuses_imaginary_literal(capsys):
    argv = ["integrate", "i*x/(1+x^2)^2", "--to", "inf"]
    code, out, _ = run_cli(argv + ["--json"], capsys)
    assert code == 0
    assert json.loads(out)["value"]["im"] == pytest.approx(0.5, abs=1e-12)
    code, _, err = run_cli(argv + ["--oracle"], capsys)
    assert code == 1
    assert "imaginary" in err


def test_oracle_trace_and_halfline_skip_unchanged(capsys):
    payload = _oracle_payload("1/(1+x^2)", "1", capsys)
    assert payload["trace"][-1] == "oracle: quadrature on [0, 1]"
    payload = _oracle_payload("1/(1+x^3)", "inf", capsys)
    assert payload["trace"][-1] == "oracle: quadrature on [0, oo)"
    # a 4F3 body has no continuation past the unit disk for quadrature
    payload = _oracle_payload(
        "x^(-2/5)*4F3(1/5,2/5,3/5,4/5;1/2,3/4,5/4;-3125/128*x^4)", "inf", capsys
    )
    assert payload["trace"][-1] == (
        "oracle skipped: series body not evaluable beyond the unit disk"
    )
    assert payload["oracle"] is None and payload["discrepancy"] is None


# ---------------------------------------------------------------------------
# verify and catalog commands


def test_verify_identities_deterministic(capsys):
    code1, out1, _ = run_cli(["verify", "--suite", "identities"], capsys)
    code2, out2, _ = run_cli(["verify", "--suite", "identities"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip().endswith("all passed")


def test_verify_rejects_unknown_suite(capsys):
    code, _, _ = run_cli(["verify", "--suite", "nope"], capsys)
    assert code == 2


def test_catalog_lists_rows(capsys):
    code, out, _ = run_cli(["catalog"], capsys)
    assert code == 0
    names = out.split()
    assert "polylog" in names and "zeta" in names
    assert names == sorted(names)


def test_catalog_row_detail(capsys):
    code, out, _ = run_cli(["catalog", "polylog", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    # Li2(1/2) = pi^2/12 - ln(2)^2/2
    want = math.pi**2 / 12.0 - math.log(2.0) ** 2 / 2.0
    assert payload["value"]["re"] == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# exit codes and schema


def test_exit_2_on_parse_error(capsys):
    code, _, err = run_cli(["eval", "frob(x)"], capsys)
    assert code == 2
    assert "column 1" in err


def test_exit_2_on_missing_at(capsys):
    code, _, err = run_cli(["eval", "2F1(1,1/2;3/2;-x^2)"], capsys)
    assert code == 2
    assert "--at" in err


def test_exit_1_on_nonintegrable_power(capsys):
    code, _, err = run_cli(["integrate", "x^(-2)", "--to", "1"], capsys)
    assert code == 1
    assert "alpha" in err


def test_exit_1_on_jet_body_with_oracle(capsys):
    code, _, err = run_cli(
        ["integrate", "ln(1+x)", "--to", "1", "--oracle"], capsys
    )
    assert code == 1
    assert "jet" in err


def test_exit_1_on_two_series_bodies(capsys):
    code, _, err = run_cli(
        ["integrate", "arctan(x) * arcsin(x)", "--to", "1"], capsys
    )
    assert code == 1
    assert "two" in err or "single" in err


_SCHEMA_KEYS = {
    "input", "value", "jet", "closed_form", "oracle", "discrepancy", "trace",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "arctan(1)", "--json"],
        ["eval", "eps + 1", "--json"],
        ["integrate", "1/(1+x^2)", "--to", "inf", "--oracle", "--json"],
        ["verify", "--suite", "identities", "--json"],
        ["catalog", "zeta", "--json"],
    ],
    ids=["eval", "eval-jet", "integrate", "verify", "catalog"],
)
def test_json_schema_is_uniform(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == _SCHEMA_KEYS
    assert set(payload["value"]) == {"re", "im"}
    assert isinstance(payload["trace"], list)
    if payload["jet"] is not None:
        for item in payload["jet"]:
            assert set(item) == {"re", "im"}


def test_module_entry_point_runs(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "hypint", "eval", "sqrt(4)"],
        capture_output=True,
        text=True,
        timeout=120,
        env=src_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("value = 2")
