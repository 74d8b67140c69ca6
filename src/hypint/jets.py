"""Truncated Taylor arithmetic in a formal perturbation.

A Jet of order K is the polynomial c0 + c1*e + ... + cK*e^K with complex
coefficients, where e is formal and e^(K+1) = 0.  Extracting coefficient
k of a jet-valued computation differentiates the computation k times (up
to k!) with respect to the perturbed quantity, which is how parameter
derivatives of series are taken everywhere downstream.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Union

__all__ = [
    "Jet",
    "as_jet",
    "eps",
    "jet_mul",
    "jet_pow",
    "jet_log",
    "jet_exp",
    "jet_inverse",
    "extract",
    "DEFAULT_ORDER",
]

DEFAULT_ORDER = 3

Scalar = Union[int, float, complex]


@dataclass(frozen=True, slots=True)
class Jet:
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a jet needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self) -> complex:
        """The constant coefficient c0."""
        return self.coeffs[0]

    @property
    def is_scalar(self) -> bool:
        """True when every perturbation coefficient vanishes."""
        return all(c == 0 for c in self.coeffs[1:])

    def __repr__(self) -> str:
        return "Jet(%s)" % ", ".join(_fmt(c) for c in self.coeffs)

    # -- ring operations ------------------------------------------------
    #
    # A plain int/float/complex operand is not promoted to a jet: each
    # fast path does the promoted arithmetic with its zero products left
    # out.  The "+ 0j" keeps the promoted sum's sign of zero.

    def __add__(self, other) -> "Jet":
        c = self.coeffs
        if type(other) in _PLAIN:
            return _jet((c[0] + other,) + tuple([x + 0j for x in c[1:]]))
        o = _coerce(other, self.order)
        if o is NotImplemented:
            return NotImplemented
        return _jet(tuple(map(operator.add, c, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return _jet(tuple([-a for a in self.coeffs]))

    def __sub__(self, other) -> "Jet":
        c = self.coeffs
        if type(other) in _PLAIN:
            return _jet((c[0] - other,) + c[1:])
        o = _coerce(other, self.order)
        if o is NotImplemented:
            return NotImplemented
        return _jet(tuple(map(operator.sub, c, o.coeffs)))

    def __rsub__(self, other) -> "Jet":
        c = self.coeffs
        if type(other) in _PLAIN:
            return _jet((other - c[0],) + tuple([0j - x for x in c[1:]]))
        o = _coerce(other, self.order)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "Jet":
        if type(other) in _PLAIN:
            return _scaled(self.coeffs, other)
        o = _coerce(other, self.order)
        if o is NotImplemented:
            return NotImplemented
        return jet_mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if type(other) in _PLAIN:
            if other == 0:
                raise ZeroDivisionError(_NO_INVERSE)
            # the promoted route multiplies by the inverse jet
            return _scaled(self.coeffs, 1.0 / complex(other))
        o = _coerce(other, self.order)
        if o is NotImplemented:
            return NotImplemented
        return jet_mul(self, jet_inverse(o))

    def __rtruediv__(self, other) -> "Jet":
        if type(other) in _PLAIN:
            return _scaled(jet_inverse(self).coeffs, other)
        o = _coerce(other, self.order)
        if o is NotImplemented:
            return NotImplemented
        return jet_mul(o, jet_inverse(self))

    def __pow__(self, p) -> "Jet":
        return jet_pow(self, p)

    def __rpow__(self, base) -> "Jet":
        return jet_pow(as_jet(base, self.order), self)

    def __eq__(self, other) -> bool:
        if isinstance(other, Jet):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, float, complex)):
            return self.is_scalar and self.coeffs[0] == complex(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)


_PLAIN = frozenset((int, float, complex))
_NO_INVERSE = "jet with zero constant part has no inverse"
_new = object.__new__
_set_coeffs = Jet.__dict__["coeffs"].__set__


def _jet(coeffs: tuple) -> Jet:
    """Trusted construction: `coeffs` is a non-empty tuple of complex."""
    j = _new(Jet)
    _set_coeffs(j, coeffs)
    return j


def _scaled(coeffs: tuple, s: Scalar) -> Jet:
    return _jet(tuple([x * s + 0j for x in coeffs]))


def _fmt(c: complex) -> str:
    if c.imag == 0:
        r = c.real
        return "%g" % r if r == int(r) or abs(r) > 1e-4 else repr(r)
    return repr(c)


def _coerce(x, order: int):
    if isinstance(x, Jet):
        if x.order != order:
            raise ValueError(
                "mixed jet orders %d and %d; promote explicitly" % (x.order, order)
            )
        return x
    if isinstance(x, (int, float, complex)):
        return as_jet(x, order)
    return NotImplemented


def as_jet(x: Scalar | Jet, order: int = DEFAULT_ORDER) -> Jet:
    """Embed a scalar as the constant jet (x, 0, ..., 0)."""
    if isinstance(x, Jet):
        if x.order != order:
            raise ValueError("jet already has order %d, wanted %d" % (x.order, order))
        return x
    return _jet((complex(x),) + (0j,) * order)


def eps(order: int = DEFAULT_ORDER, scale: Scalar = 1) -> Jet:
    """The perturbation itself (optionally scaled): scale * e."""
    if order < 1:
        raise ValueError("order must be >= 1 to carry a perturbation")
    return _jet((0j, complex(scale)) + (0j,) * (order - 1))


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Cauchy product truncated at the common order."""
    ac, bc = a.coeffs, b.coeffs
    n = len(ac)
    if n != len(bc):
        raise ValueError("mixed jet orders %d and %d" % (a.order, b.order))
    if n == 1:
        return _jet((ac[0] * bc[0] + 0j,))
    # coefficient m is sum(ac[i] * bc[m - i]), summed in order of i
    rb = bc[::-1]
    mul = operator.mul
    return _jet(
        tuple([sum(map(mul, ac[: m + 1], rb[n - 1 - m :])) for m in range(n)])
    )


def jet_inverse(a: Jet) -> Jet:
    """Multiplicative inverse; needs an invertible constant part."""
    ac = a.coeffs
    a0 = ac[0]
    if a0 == 0:
        raise ZeroDivisionError(_NO_INVERSE)
    out = [1.0 / a0]
    mul = operator.mul
    for m in range(1, len(ac)):
        # sum over j = 1..m of ac[j] * out[m - j]
        out.append(-sum(map(mul, ac[1 : m + 1], out[::-1])) / a0)
    return _jet(tuple(out))


def jet_log(a: Jet) -> Jet:
    """log(a) truncated; branch cut on the closed negative real axis."""
    a0 = a.coeffs[0]
    if a0 == 0 or (a0.imag == 0 and a0.real < 0):
        raise ValueError("jet_log needs a constant part off (-oo, 0]")
    n = a.order + 1
    u = [c / a0 for c in a.coeffs]  # 1 + nilpotent
    u[0] = 0j
    out = [complex(math.log(abs(a0)), math.atan2(a0.imag, a0.real))] + [0j] * (n - 1)
    upow = [0j] * n
    upow[0] = 1.0 + 0j
    sign = 1.0
    for m in range(1, n):
        upow = _nilpotent_mul(upow, u)
        for i in range(m, n):
            out[i] += sign * upow[i] / m
        sign = -sign
    return _jet(tuple(out))


def jet_exp(a: Jet) -> Jet:
    """exp(a) truncated."""
    n = a.order + 1
    u = list(a.coeffs)
    u[0] = 0j
    scale = _cexp(a.coeffs[0])
    out = [0j] * n
    out[0] = 1.0 + 0j
    upow = [0j] * n
    upow[0] = 1.0 + 0j
    fact = 1.0
    for m in range(1, n):
        upow = _nilpotent_mul(upow, u)
        fact *= m
        for i in range(m, n):
            out[i] += upow[i] / fact
    return _jet(tuple([scale * c for c in out]))


def jet_pow(a: Jet, p: Scalar | Jet) -> Jet:
    """a**p as exp(p log a); integer p by repeated product.

    The repeated-product route also covers nilpotent bases (zero constant
    part), which the log route cannot.  Jet-valued exponents (used for
    prefactors whose power carries the perturbation) always go through
    exp/log.
    """
    if isinstance(p, Jet):
        return jet_exp(jet_mul(jet_log(a), p))
    pc = complex(p)
    if pc.imag == 0 and float(pc.real).is_integer():
        k = int(pc.real)
        if k < 0:
            return jet_inverse(jet_pow(a, -k))
        result = as_jet(1, a.order)
        base = a
        while k:
            if k & 1:
                result = jet_mul(result, base)
            k >>= 1
            if k:
                base = jet_mul(base, base)
        return result
    if a.coeffs[0] == 0:
        raise ValueError("jet_pow with non-integer exponent needs a nonzero base")
    return jet_exp(jet_log(a) * pc)


def extract(k: int, a: Jet) -> complex:
    """Coefficient of e^k; raises beyond the jet's order."""
    if not 0 <= k <= a.order:
        raise IndexError("coefficient %d beyond jet order %d" % (k, a.order))
    return a.coeffs[k]


def _nilpotent_mul(acc: list[complex], u: list[complex]) -> list[complex]:
    # acc * u where u has zero constant part; plain truncated convolution.
    mul = operator.mul
    # out[m] is sum over i < m of acc[i] * u[m - i]
    return [0j] + [sum(map(mul, acc[:m], u[m:0:-1])) for m in range(1, len(acc))]


def _cexp(z: complex) -> complex:
    r = math.exp(z.real)
    return complex(r * math.cos(z.imag), r * math.sin(z.imag))
