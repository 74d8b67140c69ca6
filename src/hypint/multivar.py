"""Appell-type double series and the one-parameter integral family they sum.

Three kinds of double series share one summation engine here: Appell's F1
and F2, plus a generalization of F1 whose x-block is a full 2F1 rather
than a binomial.  The integral family

    I(a) = int_0^oo (1+x^2)^(-3/2) (phi(x) + sqrt(phi(x)))^(-a) dx,
    phi(x) = 1 + (4/3) x^2 / (1+x^2)^2,

is representable through that generalized series at arguments (-1/3, -1/3),
and several members have closed forms in ordinary pFq values; both routes
live here with the quadrature forms needed to cross-check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypseries import _ULP, PFQSpec, _block_partials, eval_series
from .jets import Jet, eps

__all__ = [
    "DoubleSeriesSpec",
    "PhiIntegrand",
    "eval_double",
    "ialpha_series_rep",
    "ialpha_value",
    "ialpha_closed",
    "eval_3F2_example_closed",
]

# the most diagonals a double series may take to settle
DIAGONAL_CAP = 4096

_KINDS = ("F1", "F2", "F1tilde")


@dataclass(frozen=True)
class DoubleSeriesSpec:
    """A double series sum O(j+k) X(j) Y(k) x^j y^k in one of three shapes.

    kind "F1": outer (a, c), inner_x (b1,), inner_y (b2,);
        weights (a)_{j+k}/(c)_{j+k} * (b1)_j/j! * (b2)_k/k!.
    kind "F2": outer (a,), inner_x (b1, c1), inner_y (b2, c2);
        weights (a)_{j+k} * (b1)_j/((c1)_j j!) * (b2)_k/((c2)_k k!).
    kind "F1tilde": outer (a1, a2, g1, g2), inner_x (b1, b2, c), inner_y (b,);
        weights (a1)_{j+k}(a2)_{j+k}/((g1)_{j+k}(g2)_{j+k})
                * (b1)_j (b2)_j/((c)_j j!) * (b)_k/k!.

    The outer weight depends on n = j+k alone, so eval_double sums the
    series in n, each term a Cauchy product of the two inner factors.
    The second upper and the lower of an F1tilde x-block may be first-order
    jets; a 0/0 Pochhammer factor is then resolved by the slope quotient,
    which is the limit the printed series means when both parameters vanish
    together along a line.
    """

    kind: str
    outer: tuple
    inner_x: tuple
    inner_y: tuple
    args: tuple

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError("kind must be one of %s" % (_KINDS,))
        want = {"F1": (2, 1, 1), "F2": (1, 2, 2), "F1tilde": (4, 3, 1)}[self.kind]
        got = (len(self.outer), len(self.inner_x), len(self.inner_y))
        if got != want:
            raise ValueError(
                "%s takes lists of lengths %s, got %s" % (self.kind, want, got)
            )
        if len(self.args) != 2:
            raise ValueError("args is an (x, y) pair")

    def in_domain(self) -> bool:
        x, y = (abs(complex(a)) for a in self.args)
        if self.kind == "F2":
            return x + y < 1.0
        return x < 1.0 and y < 1.0


def _value(p) -> complex:
    return p.value if isinstance(p, Jet) else complex(p)


def _slope(p) -> complex:
    return p.coeffs[1] if isinstance(p, Jet) else 0.0


def _pair_ratio(num, den, m: int) -> complex:
    """(num+m)/(den+m) with 0/0 resolved by slopes when both are jets."""
    n = _value(num) + m
    d = _value(den) + m
    if d == 0:
        if n == 0 and _slope(den) != 0:
            return _slope(num) / _slope(den)
        raise ZeroDivisionError(
            "lower parameter %r hits a nonpositive integer" % (den,)
        )
    return n / d


def _plain_ratio(den, m: int) -> complex:
    d = _value(den) + m
    if d == 0:
        raise ZeroDivisionError(
            "lower parameter %r hits a nonpositive integer" % (den,)
        )
    return d


class _Weights:
    """Incrementally extended weight sequence Prod ratios, zero-persistent."""

    def __init__(self, ratio) -> None:
        self._ratio = ratio
        self._vals = [1.0 + 0j]

    def upto(self, n: int) -> list:
        vals = self._vals
        while len(vals) <= n:
            m = len(vals) - 1
            prev = vals[-1]
            # a zero numerator factor terminates the product for good and
            # shields any later lower-parameter zero
            vals.append(prev * self._ratio(m) if prev != 0 else 0.0)
        return vals


def _weight_trio(spec: DoubleSeriesSpec):
    if spec.kind == "F1":
        a, c = spec.outer
        (b1,) = spec.inner_x
        (b2,) = spec.inner_y
        outer = _Weights(lambda m: (_value(a) + m) / _plain_ratio(c, m))
        wx = _Weights(lambda m: (_value(b1) + m) / (m + 1))
        wy = _Weights(lambda m: (_value(b2) + m) / (m + 1))
    elif spec.kind == "F2":
        (a,) = spec.outer
        b1, c1 = spec.inner_x
        b2, c2 = spec.inner_y
        outer = _Weights(lambda m: _value(a) + m)
        wx = _Weights(lambda m: (_value(b1) + m) / (_plain_ratio(c1, m) * (m + 1)))
        wy = _Weights(lambda m: (_value(b2) + m) / (_plain_ratio(c2, m) * (m + 1)))
    else:
        a1, a2, g1, g2 = spec.outer
        b1, b2, c = spec.inner_x
        (b,) = spec.inner_y
        outer = _Weights(
            lambda m: (_value(a1) + m)
            * (_value(a2) + m)
            / (_plain_ratio(g1, m) * _plain_ratio(g2, m))
        )
        wx = _Weights(
            lambda m: (_value(b1) + m) * _pair_ratio(b2, c, m) / (m + 1)
        )
        wy = _Weights(lambda m: (_value(b) + m) / (m + 1))
    return outer, wx, wy


def eval_double(spec: DoubleSeriesSpec) -> complex:
    """Sum the double series to double precision as one series in n = j+k.

    The terms are the diagonal sums T_n of _Diagonals.  They are summed
    on the pFq block kernel, hypseries._block_partials, until 4
    successive terms have |T_n| <= 2^-53 max(1, |S_n|).  The first block
    holds T_0 = 1 too, so a series that settles inside it is one exactly
    rounded math.fsum of its terms.  A series still running after
    DIAGONAL_CAP diagonals, or a non-finite term or partial sum, raises
    ValueError.
    """
    if not spec.in_domain():
        raise ValueError(
            "arguments %r outside the convergence domain of %s"
            % (spec.args, spec.kind)
        )
    where = "double series %s at %r" % (spec.kind, spec.args)
    for _, s, _, stopped in _block_partials(
        _Diagonals(spec), (0.0,), 0, DIAGONAL_CAP, _ULP, 4, 0,
        lambda n: ValueError(
            "%s: diagonal %d or its partial sum left the double range" % (where, n)
        ),
    ):
        if stopped:
            return s[0]
    raise ValueError("%s did not settle within %d diagonals" % (where, DIAGONAL_CAP))


class _Diagonals:
    """Terms T_n = O(n) D_n, D_n = sum over j of X(j) x^j Y(n-j) y^(n-j).

    Each block's D_n come from one np.convolve of the inner factors'
    prefixes.  Where D_n vanishes the outer weight, which may have
    overflowed, is left out.
    """

    running = False  # a term may be non-finite on its own

    def __init__(self, spec: DoubleSeriesSpec) -> None:
        x, y = (complex(a) for a in spec.args)
        self.outer, wx, wy = _weight_trio(spec)
        self.inner = ((wx, x), (wy, y))

    def block(self, k0: int, m: int) -> np.ndarray:
        """Terms k0+1 .. k0+m as the rows of an (m, 1) array."""
        last = k0 + m
        # X(j) x^j and Y(k) y^k up to j, k = last, the powers a running product
        fx, fy = (np.array(w.upto(last)[: last + 1]) * np.cumprod([1.0] + [z] * last)
                  for w, z in self.inner)
        d = np.convolve(fx, fy)[k0 + 1 : last + 1]
        o = np.array(self.outer.upto(last)[k0 + 1 : last + 1])
        return np.where(d != 0, o * d, 0.0)[:, None]


# ---------------------------------------------------------------------------
# the integral family


@dataclass(frozen=True)
class PhiIntegrand:
    """Integrand builders for the weight phi(x) = 1 + 4 a^2 x^2/(1+x^2)^2.

    exponent is the outer power applied to (phi + sqrt(phi)); the family's
    definite integrals over [0, oo) carry the measure (1+x^2)^(-3/2) dx.
    """

    alpha_phi: float
    exponent: float

    def __post_init__(self) -> None:
        if not self.alpha_phi > 0:
            raise ValueError("alpha_phi must be positive")

    def phi(self, x: float) -> float:
        r = x / (1.0 + x * x)
        return 1.0 + 4.0 * self.alpha_phi**2 * r * r

    def integrand(self, x: float) -> float:
        p = self.phi(x)
        return (1.0 + x * x) ** -1.5 * (p + math.sqrt(p)) ** self.exponent

    def integrand_cubed(self, x: float) -> float:
        # sqrt(phi^3) rather than sqrt(phi) under the outer power
        p = self.phi(x)
        return (1.0 + x * x) ** -1.5 * (p + math.sqrt(p**3)) ** self.exponent

    def substituted(self, t: float) -> float:
        """Pullback of integrand through t = x/sqrt(1+x^2), on [0, 1]."""
        p = 1.0 + 4.0 * self.alpha_phi**2 * t * t * (1.0 - t * t)
        return (p + math.sqrt(p)) ** self.exponent


def ialpha_series_rep(alpha, variant: int = 0) -> DoubleSeriesSpec:
    """The generalized-F1 representation of I(alpha), without the 2^(-alpha).

    Two printings exist, differing by one Pfaff move on the x-block:
    variant 0 carries the 2F1(alpha/2, (alpha+1)/2; alpha+1) block with
    binomial weight alpha/2, variant 1 the 2F1(1+alpha/2, (alpha+1)/2;
    alpha+1) block with weight (alpha-1)/2.  At alpha = -1 the x-block's
    pair ((alpha+1)/2; alpha+1) vanishes together; the pair is stored as
    jets so eval_double resolves the 0/0 factor by its slope quotient.
    """
    if variant not in (0, 1):
        raise ValueError("variant is 0 or 1")
    a = float(alpha)
    half_up = 0.5 * (a + 1.0)
    low = a + 1.0
    if low == 0.0:
        pair_up: object = eps(1, 0.5)
        pair_low: object = eps(1, 1.0)
    else:
        pair_up, pair_low = half_up, low
    if variant == 0:
        inner_x = (0.5 * a, pair_up, pair_low)
        inner_y = (0.5 * a,)
    else:
        inner_x = (1.0 + 0.5 * a, pair_up, pair_low)
        inner_y = (0.5 * (a - 1.0),)
    return DoubleSeriesSpec(
        kind="F1tilde",
        outer=(1.0, 0.5, 0.75, 1.25),
        inner_x=inner_x,
        inner_y=inner_y,
        args=(-1.0 / 3.0, -1.0 / 3.0),
    )


def ialpha_value(alpha, variant: int = 0) -> float:
    """I(alpha) through the double series, prefactor included."""
    s = eval_double(ialpha_series_rep(alpha, variant))
    return (2.0 ** -float(alpha)) * s.real


def _pfq(upper, lower, z) -> complex:
    return eval_series(PFQSpec(tuple(upper), tuple(lower), order=0), z).value


_SQRT2 = math.sqrt(2.0)
_SQRT6 = math.sqrt(6.0)


def ialpha_closed(case: str, arg=None):
    """Closed forms for distinguished members of the family.

    Cases: I0, I1, Iminus1, Iminus_n (arg = n), I2, dIdalpha_at_0 (the
    derivative of I(alpha) in alpha at 0), Itrue, Ialpha_true (arg = the
    phi parameter).
    """
    if case == "I0":
        return 1.0
    if case == "I1":
        return 0.5 * _pfq((1, 0.5, 1.5, 1), (2, 0.75, 1.25), -1 / 3).real
    if case == "Iminus1":
        return _pfq((1, 0.5, -0.5), (0.75, 1.25), -1 / 3).real + 53.0 / 45.0
    if case == "Iminus_n":
        n = int(arg)
        if n < 1 or n != arg:
            raise ValueError("Iminus_n needs a positive integer")
        return sum(
            math.comb(n, k)
            * _pfq((-0.5 * (n + k), 1, 0.5), (0.75, 1.25), -1 / 3).real
            for k in range(n + 1)
        )
    if case == "I2":
        return (
            3 * _SQRT2 / 8 * math.atan(_SQRT2)
            + _SQRT6 / 16 * math.log(5 + 2 * _SQRT6)
            - 0.75 * _pfq((1, 1, 0.5, 2.5), (0.75, 1.25, 3), -1 / 3).real
        )
    if case == "dIdalpha_at_0":
        return (
            math.log(0.5)
            + 2.0
            - _SQRT2 / 2 * math.atan(_SQRT2)
            - _SQRT6 / 4 * math.log(5 + 2 * _SQRT6)
            - 2.0 / 45.0 * _pfq((1, 1, 1.5, 1.5), (2, 1.75, 2.25), -1 / 3).real
        )
    if case == "Itrue":
        return math.pi / (2 * _SQRT6)
    if case == "Ialpha_true":
        a = float(arg)
        if a == 0.0:
            return 1.0 / _SQRT2
        return math.atan(a) / (_SQRT2 * a)
    raise ValueError("unknown case %r" % (case,))


def eval_3F2_example_closed(x: float) -> float:
    """Elementary value of 3F2(2, 3/4, 5/4; 7/4, 9/4; -x^4) via x^5/15.

    Two parameter ladders of step 1 mean the series is an iterated
    antiderivative of x^2 (1+x^4)^(-2); integrating twice in elementary
    terms and dividing by x^5/15 gives the value.  The arctan term's
    coefficient vanishes at x = 1, where its argument blows up, so the
    limit is taken by dropping that term.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError("defined for 0 < x <= 1")
    acc = x / 8.0
    if x != 1.0:
        acc += (
            _SQRT2 / 32.0 * (x * x - 1.0)
            * math.atan(x * _SQRT2 / (1.0 - x * x))
        )
    acc += (
        _SQRT2 / 64.0 * (x * x + 1.0)
        * math.log((x * x - x * _SQRT2 + 1.0) / (x * x + x * _SQRT2 + 1.0))
    )
    return acc / (x**5 / 15.0)
