"""Antiderivatives by parameter augmentation; definite integrals on [0,1] and [0,oo).

Integrating x^a F(g x^b) term by term multiplies coefficient k of F by
(u)_k/(1+u)_k with u = (a+1)/b, so the antiderivative is again a series
of the same family with one more upper and one more lower parameter.
Definite integrals follow from boundary values: the series value at the
argument of x = 1, or the algebraic limit along the negative real axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Union

from .hyperize import CoeffStream, hypize
from .hypseries import (
    AsymptoticTerm,
    DivergentError,
    LimitConditionError,
    PFQSpec,
    SeriesError,
    cancel_parameters,
    eval_series,
    limit_at_minus_infinity,
)
from .jets import Jet, as_jet, eps, extract
from .oracle import OracleError, quad_finite, quad_halfline

__all__ = [
    "IntegrandSpec",
    "AntiderivativeForm",
    "LogAntiderivative",
    "IntegralResult",
    "antiderivative",
    "antiderivative_log",
    "definite_0_to_1",
    "definite_0_to_inf",
    "verify_ftc",
]

DRIVER_TOL = 1e-10

Rational = Union[int, float, Fraction]
Body = Union[PFQSpec, CoeffStream]


def _fraction(x: Rational, name: str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("%s must be finite" % name)
        return Fraction(x)
    raise TypeError("%s must be rational, got %r" % (name, type(x).__name__))


@dataclass(frozen=True)
class IntegrandSpec:
    """The integrand x^alpha * body(x).

    A PFQSpec body carries its own scale and power; a CoeffStream body is
    read as f(x) plain.  alpha > -1 is required for integrability at 0
    and is enforced by the definite drivers, not here.
    """

    alpha: Fraction
    body: Body

    def __post_init__(self):
        object.__setattr__(self, "alpha", _fraction(self.alpha, "alpha"))
        if not isinstance(self.body, (PFQSpec, CoeffStream)):
            raise TypeError("body must be a PFQSpec or a CoeffStream")


@dataclass(frozen=True)
class AntiderivativeForm:
    """F(x) = prefactor_coeff * x^prefactor_exponent * body(x).

    The body is the source body with (alpha+1)/beta appended upstairs
    and 1 + (alpha+1)/beta downstairs, after exact cancellation; the
    appended pair differs by exactly 1.  `source` keeps the original
    integrand so the form can be differentiated back against it.
    """

    prefactor_exponent: Fraction
    prefactor_coeff: Fraction
    body: Body
    source: IntegrandSpec

    def evaluate(self, x: float, tol: float = DRIVER_TOL) -> Jet:
        """Value of the antiderivative at real x >= 0 (jet-valued)."""
        x = float(x)
        if x == 0.0:
            if self.prefactor_exponent > 0:
                return as_jet(0.0, _body_order(self.body))
            raise ZeroDivisionError("form is singular at 0")
        if x < 0.0:
            raise ValueError("form is defined on the nonnegative axis")
        val = _body_value(self.body, x, tol)
        return float(self.prefactor_coeff) * x ** float(self.prefactor_exponent) * val


@dataclass(frozen=True)
class IntegralResult:
    """`closed_form`: the Gamma product of a scalar integral on [0, oo)."""

    value: Jet
    steps: tuple[str, ...]
    oracle_value: Optional[float] = None
    discrepancy: Optional[float] = None
    closed_form: Optional[str] = None


def _body_order(body: Body) -> int:
    return body.order if isinstance(body, PFQSpec) else 0


def _body_value(body: Body, x: float, tol: float) -> Jet:
    if isinstance(body, PFQSpec):
        return eval_series(body, x, tol=tol)
    v = body.evaluate(x, tol=tol)
    return v if isinstance(v, Jet) else as_jet(v, 0)


def antiderivative(spec: IntegrandSpec) -> AntiderivativeForm:
    """Append ((alpha+1)/beta; 1+(alpha+1)/beta) to the body's parameters.

    The two new parameters differ by exactly 1, which is all the
    fundamental-theorem bookkeeping there is.  Exactly-equal upper/lower
    pairs are cancelled afterwards, so integrating a cosine-type series
    collapses back down instead of carrying a spurious pair.
    """
    alpha = spec.alpha
    if alpha == -1:
        raise ValueError(
            "alpha = -1 integrates to a logarithm; use antiderivative_log"
        )
    body = spec.body
    if isinstance(body, CoeffStream):
        u = alpha + 1
        if u.denominator == 1 and u <= 0:
            raise ValueError("augmented upper parameter %s is a nonpositive integer" % u)
        aug: Body = hypize(body, float(u), float(u + 1))
    else:
        u = (alpha + 1) / body.power
        if u.denominator == 1 and u <= 0:
            raise ValueError("augmented upper parameter %s is a nonpositive integer" % u)
        raw = PFQSpec(
            body.upper + (as_jet(float(u), body.order),),
            body.lower + (as_jet(float(u + 1), body.order),),
            body.scale,
            body.power,
            body.order,
        )
        aug = cancel_parameters(raw)
    return AntiderivativeForm(alpha + 1, Fraction(1) / (alpha + 1), aug, spec)


@dataclass(frozen=True)
class LogAntiderivative:
    """Antiderivative of f(x^alpha)/x, split into three closed-form pieces.

    evaluate(x) = f(0) ln x + (f(x^alpha) - f(0))/alpha
                  - (x^alpha/alpha) [eps] f'([1+eps; 2+eps] x^alpha).

    The series piece needs |x^alpha| strictly inside the disk of f', and
    the coefficient stream raises past it.
    """

    log_coefficient: complex
    alpha: Fraction
    source: CoeffStream
    tail: CoeffStream  # f' reweighted by (1+eps; 2+eps)

    def log_term(self, x: float) -> complex:
        return self.log_coefficient * math.log(x)

    def algebraic_term(self, x: float, tol: float = DRIVER_TOL) -> complex:
        y = x ** float(self.alpha)
        if self.source.closed_form is not None:
            fy = complex(self.source.closed_form(y))
        else:
            v = self.source.evaluate(y, tol=tol)
            fy = v.value if isinstance(v, Jet) else complex(v)
        return (fy - self.log_coefficient) / float(self.alpha)

    def series_term(self, x: float, tol: float = DRIVER_TOL) -> complex:
        y = x ** float(self.alpha)
        g = self.tail.evaluate(y, tol=tol)
        return -(y / float(self.alpha)) * extract(1, g)

    def evaluate(self, x: float, tol: float = DRIVER_TOL) -> complex:
        if x <= 0:
            raise ValueError("logarithmic form needs x > 0")
        return (
            self.log_term(x)
            + self.algebraic_term(x, tol)
            + self.series_term(x, tol)
        )


def antiderivative_log(alpha_inner: Rational, f: CoeffStream) -> LogAntiderivative:
    """Integrate f(x^alpha)/x, the alpha = -1 case of the main rule.

    Per partes moves everything onto the derivative of f, whose k-th
    coefficient picks up the square (k+1+eps)^-1-type weight realized as
    the (1+eps; 2+eps) reweighting; only the first eps slot survives.
    """
    alpha = _fraction(alpha_inner, "alpha")
    if alpha == 0:
        raise ValueError("alpha must be nonzero")

    def dcoeff(k: int, _f=f):
        return (k + 1.0) * _f.coeff(k + 1)

    fprime = CoeffStream(dcoeff, f.radius, "%s'" % f.label)
    tail = hypize(fprime, 1 + eps(1), 2 + eps(1))
    c0 = f.coeff(0)
    c0 = c0.value if isinstance(c0, Jet) else complex(c0)
    return LogAntiderivative(c0, alpha, f, tail)


def _scalar_body_spec(body: PFQSpec) -> PFQSpec:
    return PFQSpec(
        tuple(a.value for a in body.upper),
        tuple(c.value for c in body.lower),
        body.scale,
        body.power,
        order=0,
    )


def _scalar_integrand(spec: IntegrandSpec, tol: float) -> Callable[[float], float]:
    """Real integrand x^alpha * body(x) at the parameters' base point."""
    a = float(spec.alpha)
    body = spec.body
    if isinstance(body, CoeffStream):
        if body.closed_form is not None:
            fn = body.closed_form
            return lambda x: x**a * complex(fn(x)).real
        return lambda x: x**a * _body_value(body, x, tol).value.real
    base = _scalar_body_spec(body)
    if base.p == 1 and base.q == 0:
        # binomial series: its sum (1-z)^(-a) by libm, not through
        # eval_series, so the check of these bodies stays engine-free
        a0 = base.upper[0].value

        def g(x: float) -> float:
            z = base.argument(x)
            return x**a * complex((1.0 - z) ** (-a0)).real

        return g

    def g(x: float) -> float:
        return x**a * eval_series(base, x, tol=tol).value.real

    return g


def _halfline_oracle_skip(body: Body) -> Optional[str]:
    # The series engine reaches arbitrarily negative arguments only for
    # the binomial 1F0 and 2F1 (argument reflection); an entire series'
    # terms cancel or overflow at the decay probe's large arguments.
    if isinstance(body, PFQSpec):
        if body.p <= body.q:
            return "oracle skipped: entire series body not evaluable at large arguments"
        if (body.p, body.q) in ((1, 0), (2, 1)):
            return None
    return "oracle skipped: series body not evaluable beyond the unit disk"


def _oracle_check(
    integrand: Callable[[float], float],
    body: Body,
    halfline: bool,
    value: complex,
    tol: float,
) -> tuple[Optional[float], Optional[float], str]:
    """Quadrature of a real integrand on [0, 1] or [0, oo).

    Returns the oracle's number, its distance from `value` and the step
    text; both numbers are None when the body cannot be evaluated far
    enough out for the half-line quadrature.
    """
    if not halfline:
        q, step = quad_finite(integrand, 0.0, 1.0, tol), "oracle: quadrature on [0, 1]"
    else:
        skip = _halfline_oracle_skip(body)
        if skip is not None:
            return None, None, skip
        q, step = quad_halfline(integrand, tol), "oracle: quadrature on [0, oo)"
    return q.value, abs(value - q.value), step


def definite_0_to_1(
    spec: IntegrandSpec, tol: float = DRIVER_TOL, verify: bool = True
) -> IntegralResult:
    """Integral over [0, 1] as the antiderivative's boundary value at 1."""
    if spec.alpha <= -1:
        raise ValueError("needs alpha > -1 for integrability at 0")
    form = antiderivative(spec)
    steps = [_augment_note(spec, form)]
    value = form.evaluate(1.0, tol)
    steps.append("boundary value F(1) - F(0) with F(0) = 0")
    return _checked(spec, value, steps, False, tol, verify)


def definite_0_to_inf(
    spec: IntegrandSpec, tol: float = DRIVER_TOL, verify: bool = True
) -> IntegralResult:
    """Integral over [0, oo) from the limit along the negative real axis.

    The boundary term at infinity is x^(alpha+1) times the body, whose
    argument runs to -oo; it settles to a finite number exactly when the
    added parameter (alpha+1)/beta is the strictly smallest upper one,
    leaving prefactor_coeff * C * |scale|^(-(alpha+1)/beta).  For a
    scalar body the Gamma arguments of C give `closed_form`.
    """
    body = spec.body
    if not isinstance(body, PFQSpec):
        raise TypeError("half-line driver needs a series body")
    if spec.alpha <= -1:
        raise ValueError("needs alpha > -1 for integrability at 0")
    if body.power <= 0:
        raise ValueError("needs power > 0 so the argument runs to -infinity")
    if body.scale.imag != 0.0 or body.scale.real >= 0.0:
        raise ValueError("needs a negative real scale, got %s" % body.scale)
    form = antiderivative(spec)
    u = (spec.alpha + 1) / body.power
    term = limit_at_minus_infinity(form.body)
    if abs(term.exponent.value - float(u)) > 1e-12:
        raise DivergentError(
            "boundary term at infinity diverges: added parameter %s is not "
            "the smallest upper parameter" % u
        )
    gam = abs(body.scale.real)
    value = float(form.prefactor_coeff) * term.coefficient * gam ** (-float(u))
    steps = [
        _augment_note(spec, form),
        "limit along the negative axis, exponent %s" % u,
        "scale factor |%g|^(-%s)" % (body.scale.real, u),
    ]
    closed = None if body.order else _closed_form(term, form.prefactor_coeff, gam, u)
    return _checked(spec, value, steps, True, tol, verify, closed)


def _checked(
    spec: IntegrandSpec,
    value: Jet,
    steps: List[str],
    halfline: bool,
    tol: float,
    verify: bool,
    closed: Optional[str] = None,
) -> IntegralResult:
    """The driver's result, with the oracle's check when `verify`."""
    oracle_value = discrepancy = None
    if verify:
        oracle_value, discrepancy, step = _oracle_check(
            _scalar_integrand(spec, tol), spec.body, halfline, value.value, tol
        )
        steps.append(step)
    return IntegralResult(value, tuple(steps), oracle_value, discrepancy, closed)


def _closed_form(
    term: AsymptoticTerm, prefactor: Fraction, scale: float, u: Fraction
) -> str:
    """prefactor * Gamma quotient * scale^(-u) as text, unit factors left out."""
    num = "".join("Gamma(%s)" % _fmt_gamma_arg(g.value) for g in term.gamma_numerator)
    den = "".join("Gamma(%s)" % _fmt_gamma_arg(g.value) for g in term.gamma_denominator)
    den = den.replace("Gamma(1)", "")
    factors = []
    if prefactor != 1:
        factors.append(str(prefactor))
    if num:
        factors.append(num if not den else "%s/(%s)" % (num, den))
    if scale != 1.0:
        factors.append("%s^(-%s)" % (_fmt_scale(scale), u))
    return " * ".join(factors) or "1"


def _fmt_scale(s: float) -> str:
    """A positive scale exactly: %g when that reads back as s, else a
    parenthesized rational, else 17 digits."""
    text = "%g" % s
    if float(text) == s:
        return text
    text = _fmt_gamma_arg(s)
    if float(Fraction(text)) == s:
        return "(%s)" % text if "/" in text else text
    return "%.17g" % s


def _fmt_gamma_arg(z: Union[float, complex]) -> str:
    """A number as a short rational when it is one to 1e-12."""
    if abs(z.imag) > 1e-12:
        return _fmt_complex(z)
    f = Fraction(z.real).limit_denominator(10**6)
    if abs(float(f) - z.real) < 1e-12:
        return str(f)
    return "%.12g" % z.real


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return "%.17g" % z.real
    if z.real == 0.0:
        return "%.17gi" % z.imag
    return "%.17g %s %.17gi" % (z.real, "+" if z.imag >= 0 else "-", abs(z.imag))


def _augment_note(spec: IntegrandSpec, form: AntiderivativeForm) -> str:
    u = (
        (spec.alpha + 1) / spec.body.power
        if isinstance(spec.body, PFQSpec)
        else spec.alpha + 1
    )
    note = "augment with (%s; %s)" % (u, u + 1)
    if isinstance(spec.body, PFQSpec) and isinstance(form.body, PFQSpec):
        dropped = spec.body.p + 1 - form.body.p
        if dropped:
            note += ", %d pair(s) cancelled" % dropped
    return note


def verify_ftc(form: AntiderivativeForm, points: List[float]) -> float:
    """Max residual of d/dx F against the integrand at the given points.

    Central differences with h = 1e-5; jets are compared slotwise, so a
    perturbed parameter must differentiate correctly in every slot.
    """
    h = 1e-5
    worst = 0.0
    src = form.source
    for x in points:
        x = float(x)
        d = (form.evaluate(x + h) - form.evaluate(x - h)) / (2.0 * h)
        direct = x ** float(src.alpha) * _body_value(src.body, x, DRIVER_TOL)
        diff = d - direct
        worst = max(worst, max(abs(c) for c in diff.coeffs))
    return worst
