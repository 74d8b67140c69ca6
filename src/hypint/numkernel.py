"""Scalar special-function kernel: Gamma, polygamma, Pochhammer, jet Gamma.

Complex double precision throughout.  Everything downstream (summation
formulas, boundary values, limit coefficients) reduces to these.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from typing import Union

from .jets import DEFAULT_ORDER, Jet, _jet, as_jet, jet_exp, jet_mul

__all__ = [
    "PoleError",
    "sinpi",
    "gamma",
    "digamma",
    "trigamma",
    "polygamma",
    "gamma_jet",
    "log_gamma",
    "log_gamma_jet",
    "digamma_jet",
    "pochhammer",
    "reciprocal_gamma_jet",
    "gamma_product",
]

Scalar = Union[int, float, complex]

# Lanczos approximation, g = 607/128, 15 terms (Godfrey's coefficient
# set; see Pugh's thesis for the error analysis).  Relative error around
# 1e-15 on the half-plane handled directly.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

# B_{2k} for k = 1..13, used by the polygamma asymptotic series.
_BERN2K = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
    43867.0 / 798,
    -174611.0 / 330,
    854513.0 / 138,
    -236364091.0 / 2730,
    8553103.0 / 6,
)

_ASYMPTOTIC_RE = 16.0


class PoleError(ArithmeticError):
    """Gamma or polygamma requested exactly at a non-positive integer."""

    def __init__(self, location: complex, context: str = ""):
        self.location = location
        self.context = context
        where = "%g" % location.real if location.imag == 0 else repr(location)
        super().__init__(
            "pole at %s%s" % (where, " (%s)" % context if context else "")
        )


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real)


def sinpi(z: Scalar) -> complex:
    """sin(pi z), accurate next to the integers where it vanishes.

    The nearest integer r comes off first, which is exact in floating
    point, so pi (z - r) carries no rounding of pi z: sin(pi z) is
    (-1)^r sin(pi (z - r)).
    """
    z = complex(z)
    r = round(z.real)
    s = cmath.sin(math.pi * (z - r))
    return -s if r % 2 else s


def _lanczos(z: complex) -> tuple:
    """(t, a) with Gamma(z) = sqrt(2 pi) t^(z - 1/2) e^(-t) a, Re z >= 1/2."""
    a = _LANCZOS_C[0]
    for k in range(1, 15):
        a += _LANCZOS_C[k] / (z - 1.0 + k)
    return z + (_LANCZOS_G - 0.5), a


def gamma(z: Scalar) -> complex:
    """Complex Gamma function; raises PoleError at 0, -1, -2, ...

    Raises OverflowError where |Gamma(z)| is beyond the double range,
    past about z = 171.6 on the real axis.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(z, "gamma")
    if z.real < 0.5:
        # reflection keeps the Lanczos sum on its accurate half-plane
        return math.pi / (sinpi(z) * gamma(1.0 - z))
    t, a = _lanczos(z)
    try:
        out = math.sqrt(2.0 * math.pi) * t ** (z - 0.5) * cmath.exp(-t) * a
    except OverflowError:
        # t^(z - 1/2) alone leaves the double range from z = 143 on, where
        # Gamma itself is still finite: half of the power on each side of
        # e^(-t) keeps every partial product in range.  Only this
        # fallback splits, so values below 143 keep their rounding
        half = t ** ((z - 0.5) * 0.5)
        out = math.sqrt(2.0 * math.pi) * half * cmath.exp(-t) * half * a
    if not cmath.isfinite(out):
        raise OverflowError("Gamma at %r is beyond the double range" % z)
    return out


def polygamma(n: int, z: Scalar) -> complex:
    """psi^(n)(z): digamma and its derivatives.

    Upward recurrence pushes Re(z) beyond 16, then the divergent-but-
    asymptotic Bernoulli series finishes; truncated at B_26 the floor is
    well under 1e-14 relative there.
    """
    if n < 0:
        raise ValueError("polygamma order must be >= 0")
    if n > 30:
        raise ValueError("polygamma order capped at 30")
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(z, "polygamma(%d)" % n)
    return _polygammas(z, (n,))[0]


def _polygammas(z: complex, orders) -> list:
    """[psi^(n)(z) for n in orders] from one sweep of the recurrence.

    z is off the poles and the orders ascend from 0 or more; every order
    gets the same arithmetic as a sweep of its own.
    """
    orders = tuple(orders)
    if orders and orders[-1] > 30:
        # the Bernoulli tail truncated at B_26 is not accurate beyond
        raise ValueError("polygamma order capped at 30")
    acc = [0j] * len(orders)
    # sign * n!, the numerator of each recurrence step
    lead = [(-1.0) ** (n + 1) * math.factorial(n) for n in orders]
    while z.real < _ASYMPTOTIC_RE:
        acc = [s + c / z ** (n + 1) for s, c, n in zip(acc, lead, orders)]
        z += 1.0
    return [s + _polygamma_tail(n, z) for s, n in zip(acc, orders)]


def _polygamma_tail(n: int, z: complex) -> complex:
    """The Bernoulli series for psi^(n)(z), for Re z >= _ASYMPTOTIC_RE."""
    coefs = _tail_coefficients(n)
    if n == 0:
        s = cmath.log(z) - 0.5 / z
        zpow = 1.0 / (z * z)
        term = zpow
        for c in coefs:
            s -= c * term
            term *= zpow
        return s
    nfact = math.factorial(n)
    w = 1.0 / z
    s = math.factorial(n - 1) * w**n + nfact / 2.0 * w ** (n + 1)
    term = w ** (n + 2)
    for c in coefs:
        s += c * term
        term *= w * w
    s *= (-1.0) ** (n - 1)
    return s


@functools.cache
def _tail_coefficients(n: int) -> tuple:
    """The 13 Bernoulli coefficients of psi^(n)'s tail, made on first use.

    B_2k / (2k) for the digamma, B_2k (2k+n-1)! / (2k)! above it.
    """
    if n == 0:
        return tuple(_BERN2K[k - 1] / (2 * k) for k in range(1, 14))
    return tuple(
        _BERN2K[k - 1] * math.factorial(2 * k + n - 1) / math.factorial(2 * k)
        for k in range(1, 14)
    )


def digamma(z: Scalar) -> complex:
    return polygamma(0, z)


def trigamma(z: Scalar) -> complex:
    return polygamma(1, z)


def gamma_jet(z: Jet | Scalar, order: int = DEFAULT_ORDER) -> Jet:
    """Gamma of a jet: Gamma(z0) * exp(sum psi^(m-1)(z0) d^m / m!).

    The exponent is the truncated log-Gamma Taylor series around the
    base value z0, with d the nilpotent part of z.
    """
    if not isinstance(z, Jet):
        z = as_jet(z, order)
    return _gamma_jet_product(((z, 1),), z.order)


def _taylor(z: Jet, derivs) -> list:
    """Coefficients of f(z) = sum of derivs[m] d^m / m!, m = 0 .. order.

    derivs[m] is f^(m)(z0) and d the nilpotent part of z.  The lists
    carry the jet ring's arithmetic: d^m is the Cauchy product of
    d^(m-1) and d, as jet_mul forms it.
    """
    c = z.coeffs
    n = len(c) - 1
    rdelta = c[:0:-1] + (0j,)  # d = (0, c1, ..., cn), reversed
    mul = operator.mul
    out = [complex(derivs[0])] + [0j] * n
    dpow = [1 + 0j] + [0j] * n
    fact = 1.0
    for m in range(1, n + 1):
        dpow = [sum(map(mul, dpow[: k + 1], rdelta[n - k :])) for k in range(n + 1)]
        fact *= m
        s = derivs[m] / fact
        out = [o + (x * s + 0j) for o, x in zip(out, dpow)]
    return out


def log_gamma(z: Scalar) -> complex:
    """A logarithm of Gamma(z), finite far past Gamma's double range.

    The branch is unspecified: it serves quotients of Gammas formed as
    exp of sums of logarithms, where multiples of 2 pi i drop out.
    Raises PoleError at 0, -1, -2, ...
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(z, "log_gamma")
    if z.real < 0.5:
        return math.log(math.pi) - cmath.log(sinpi(z)) - log_gamma(1.0 - z)
    t, a = _lanczos(z)
    return 0.5 * math.log(2.0 * math.pi) + (z - 0.5) * cmath.log(t) - t + cmath.log(a)


def log_gamma_jet(z: Jet | Scalar, order: int = DEFAULT_ORDER) -> Jet:
    """log Gamma of a jet, on log_gamma's branch at the base value.

    Its Taylor terms are sum psi^(m-1)(z0) d^m / m!, m >= 1, with d the
    nilpotent part of z.
    """
    if not isinstance(z, Jet):
        z = as_jet(z, order)
    z0 = z.coeffs[0]
    terms = _taylor(z, [0j] + _polygammas(z0, range(z.order)))
    return _jet(tuple(terms)) + log_gamma(z0)


def digamma_jet(z: Jet | Scalar, order: int = DEFAULT_ORDER) -> Jet:
    """psi of a jet, via its own Taylor series in the nilpotent part."""
    if not isinstance(z, Jet):
        z = as_jet(z, order)
    z0 = z.coeffs[0]
    if _is_nonpositive_integer(z0):
        raise PoleError(z0, "digamma_jet")
    return _jet(tuple(_taylor(z, _polygammas(z0, range(z.order + 1)))))


def reciprocal_gamma_jet(z: Jet | Scalar, order: int = DEFAULT_ORDER) -> Jet:
    """1/Gamma as a jet; finite even when the base value sits on a pole.

    A jet with Re z0 < 1/2, and any jet on a pole, is built from the
    reflection 1/Gamma(z) = sin(pi z) Gamma(1 - z) / pi, whose factors
    are regular at the poles z0 = -m, where the reciprocal has a simple
    zero.  Next to a pole the exponent of gamma_jet holds polygammas of
    size n!/d^(n+1) that its exp would have to cancel; the reflection
    has none.  A constant jet off the poles has no Taylor terms to lose:
    the scalar gamma reflects accurately by itself.
    """
    if not isinstance(z, Jet):
        z = as_jet(z, order)
    return _gamma_jet_product(((z, -1),), z.order)


def _gamma_jet_product(factors, order: int, lead: Jet | None = None) -> Jet:
    """lead * prod Gamma(g)^s over the (g, s) pairs, s = +1 or -1.

    Gamma(g) is Gamma(g0) exp(L(g)), with L(g) the sum of
    psi^(m-1)(g0) d^m / m!, m >= 1, over the nilpotent part d of g: the
    log-Gamma Taylor series, with no constant term (DLMF 5.15).  So the
    product is one exp of the signed sum of the L, scaled by the values
    Gamma(g0)^s one at a time in the given order: a product of constant
    jets rounds as the chain lead * Gamma * ... of jet_mul does.  lead
    None is the jet 1.  Factors whose nilpotent parts d agree up to sign
    sum their polygammas first and share one Taylor series in d.  A
    1/Gamma reflected as reciprocal_gamma_jet describes keeps its
    sin(pi g) jet, and its Gamma(1 - g) joins the sum, so a base next to
    a pole loses nothing.  Raises PoleError at a pole of a Gamma factor
    and OverflowError where a value leaves the double range; a product
    that leaves it comes back non-finite.
    """
    derivs = {}  # nilpotent part d -> summed s psi^(m-1), m = 0 .. order
    sines = []
    values = []
    for g, s in factors:
        g = as_jet(g, order)
        z0 = g.coeffs[0]
        pole = _is_nonpositive_integer(z0)
        if s < 0 and z0.real < 0.5 and (pole or not g.is_scalar):
            # the sin(pi g) jet; cos(pi z0) = sin(pi (z0 + 1/2))
            s0, c0 = sinpi(z0), sinpi(z0 + 0.5)
            cycle = (s0, c0, -s0, -c0)
            sin_pi = [cycle[m % 4] * math.pi**m for m in range(order + 1)]
            sines.append(_jet(tuple(_taylor(g, sin_pi))))
            g, s = 1 - g, 1
            values += (gamma(g.coeffs[0]), 1.0 / math.pi)
        elif pole:
            raise PoleError(z0, "gamma_jet")
        else:
            values.append(gamma(z0) if s > 0 else 1.0 / gamma(z0))
        if g.is_scalar:
            continue
        d = g.coeffs[1:]
        flip = tuple([-x for x in d])
        # (-d)^m = (-1)^m d^m
        d, r = (d, 1) if d in derivs or flip not in derivs else (flip, -1)
        acc = derivs.setdefault(d, [0j] * (order + 1))
        for m, psi in enumerate(_polygammas(g.coeffs[0], range(order)), 1):
            acc[m] += s * r**m * psi
    out = as_jet(1, order) if lead is None else lead
    if derivs:
        expo = None
        for d, acc in derivs.items():
            terms = _taylor(_jet((0j,) + d), acc)
            expo = terms if expo is None else list(map(operator.add, expo, terms))
        exp_sum = jet_exp(_jet(tuple(expo)))
        out = exp_sum if lead is None else jet_mul(lead, exp_sum)
    for sine in sines:
        out = jet_mul(out, sine)
    for v in values:
        out = out * v
    return out


def gamma_product(factors, order: int = DEFAULT_ORDER) -> Jet:
    """prod Gamma(g)^s over the (g, s) pairs of `factors`, s = +1 or -1.

    _gamma_jet_product forms it from the jet 1, so the empty product is
    1.  Where a Gamma value or the product leaves the double range, the
    product is exp(sum of s log Gamma(g)) instead; a finite product
    keeps its rounding.
    """
    factors = tuple(factors)
    try:
        out = _gamma_jet_product(factors, order)
        if all(map(cmath.isfinite, out.coeffs)):
            return out
    except OverflowError:
        pass
    logs = as_jet(0, order)
    for g, s in factors:
        lg = log_gamma_jet(g, order)
        logs = logs + lg if s > 0 else logs - lg
    return jet_exp(logs)


def pochhammer(a: Jet | Scalar, k: int) -> Jet | complex:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); (a)_0 = 1."""
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    if isinstance(a, Jet):
        out = as_jet(1, a.order)
        for j in range(k):
            out = jet_mul(out, a + j)
        return out
    out = complex(1.0)
    a = complex(a)
    for j in range(k):
        out *= a + j
    return out
