"""Taylor coefficient streams and their Pochhammer reweightings.

A function enters this module as the stream of its Taylor coefficients
f^(k)(0)/k!.  Multiplying coefficient k by (a)_k/(c)_k turns partial
sums of f into partial sums of a related hypergeometric-style series
without ever leaving coefficient space; every operator here is a small
algebraic rewrite on such streams.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

from .hypseries import _ScalarSum, _block_partials, _overflow
from .jets import Jet, _jet, _magnitude, as_jet
from .numkernel import _is_nonpositive_integer
from .oracle import quad_finite

__all__ = [
    "CoeffStream",
    "PowerSplit",
    "hypize",
    "undo",
    "power_split",
    "taylor_remainder",
    "derivative_rule",
    "repeated_derivative_rule",
    "euler_rep_check",
]

Scalar = Union[int, float, complex]
ParamLike = Union[Scalar, Jet]

STREAM_CAP = 100_000

# hypize rescales its running Pochhammer products by an exact power of two
_RESCALE_AT = 2.0**512
_RESCALE = 2.0**-512


class CoeffStream:
    """Lazy, memoized stream of Taylor coefficients f^(k)(0)/k!.

    `coeff(k)` is computed once and cached; the fill is idempotent, so
    concurrent first access is safe (a lock serializes cache growth).
    `radius` is the radius of convergence as an extended real, `label`
    a short human-readable tag.  `closed_form`, when present, evaluates
    f directly and is used by checks that want a series-free reference.
    """

    __slots__ = ("_fn", "_cache", "_lock", "radius", "label", "closed_form")

    def __init__(
        self,
        coeff: Callable[[int], ParamLike],
        radius: float,
        label: str,
        closed_form: Optional[Callable] = None,
    ):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self._fn = coeff
        self._cache: list = []
        self._lock = threading.Lock()
        self.radius = float(radius)
        self.label = label
        self.closed_form = closed_form

    def __repr__(self) -> str:
        r = "inf" if math.isinf(self.radius) else "%g" % self.radius
        return "CoeffStream(%s, radius=%s)" % (self.label, r)

    def coeff(self, k: int) -> ParamLike:
        if k < 0:
            raise ValueError("coefficient index must be >= 0")
        if k < len(self._cache):
            return self._cache[k]
        with self._lock:
            while len(self._cache) <= k:
                self._cache.append(self._fn(len(self._cache)))
        return self._cache[k]

    def evaluate(self, z: Scalar, tol: float = 1e-12):
        """Sum the series at z inside the open disk of convergence.

        Sums on the pFq block kernel, hypseries._block_partials.  Stops
        only after 4 successive terms fall below tol relative to the
        running sum: streams supported on every n-th index interleave
        runs of exact zeros, and a single small term must not end the
        sum early, so strides up to 4 are tolerated.  A non-finite term
        or partial sum raises TermOverflowError.
        """
        z = complex(z)
        if abs(z) >= self.radius:
            raise ValueError(
                "argument %s outside the open disk of radius %g" % (z, self.radius)
            )
        first = self.coeff(0)
        if z == 0:
            return first
        jet = isinstance(first, Jet)
        terms = _StreamTerms(self, z, first.order if jet else None)
        acc = [_ScalarSum(c.real, 0.0, c.imag, 0.0)
               for c in (first.coeffs if jet else (complex(first),))]
        for _, s, stopped in _block_partials(
            terms, acc, 1, STREAM_CAP, tol, 4, 0,
            lambda k: _overflow(self.label, z, k),
        ):
            if stopped:
                return _jet(s) if jet else s[0]
        raise ValueError(
            "series at %s did not settle within %d terms" % (z, STREAM_CAP)
        )

    def estimate_radius(self, count: int = 200) -> float:
        """Ratio-test estimate of the radius from the first `count` coefficients.

        Works stride-aware so streams supported on an arithmetic
        progression (odd-only, every n-th) still yield ratios.  Returns
        inf when the ratios are still climbing at the tail, as they do
        for entire functions.
        """
        mags = [_magnitude(self.coeff(k)) for k in range(count)]
        nonzero = [k for k, m in enumerate(mags) if m > 0.0]
        if len(nonzero) < 8:
            return math.inf
        stride = 0
        for i in range(1, len(nonzero)):
            stride = math.gcd(stride, nonzero[i] - nonzero[i - 1])
        stride = stride or 1
        ratios = []
        for k in nonzero[len(nonzero) // 2 :]:
            if k + stride < count and mags[k + stride] > 0.0:
                ratios.append((mags[k] / mags[k + stride]) ** (1.0 / stride))
        if len(ratios) < 4:
            return math.inf
        quarter = max(1, len(ratios) // 4)
        tail = _median(ratios[-quarter:])
        mid = _median(ratios[quarter : 2 * quarter])
        # Gamma-ratio weights drift by O(1/k); still climbing by 20%
        # across the window means the terms decay faster than geometric.
        if tail > 1.2 * mid:
            return math.inf
        return tail


class _StreamTerms:
    """The terms coeff(k) * z^k of a stream in complex numpy blocks.

    The powers of z are one running product across blocks.  A jet
    stream, of the order `order`, has one column per jet coefficient.
    """

    running = False  # a coefficient may be non-finite on its own

    def __init__(self, f: CoeffStream, z: complex, order: Optional[int]):
        self.f, self.z, self.power, self.order = f, z, 1.0 + 0j, order

    def block(self, k0: int, m: int) -> np.ndarray:
        """Terms k0+1 .. k0+m as the rows of an (m, columns) array."""
        self.f.coeff(k0 + m)  # fills the cache up to the block's end
        cs = self.f._cache[k0 + 1 : k0 + m + 1]
        if self.order is None:
            rows = np.array(cs, complex)[:, None]
        else:
            rows = np.array([as_jet(c, self.order).coeffs for c in cs])
        w = np.full(m, self.z)
        w[0] = self.power * self.z
        powers = np.cumprod(w)
        self.power = powers[-1]
        return rows * powers[:, None]


def _median(xs: list) -> float:
    ordered = sorted(xs)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def _plabel(x: ParamLike) -> str:
    if isinstance(x, Jet):
        v = x.value
        base = "%g" % v.real if v.imag == 0 else str(v)
        return base + "~" if not x.is_scalar else base
    z = complex(x)
    return "%g" % z.real if z.imag == 0 else str(z)


def hypize(f: CoeffStream, a: ParamLike, c: ParamLike) -> CoeffStream:
    """Reweight coefficient k of f by (a)_k/(c)_k.

    The lower parameter must stay off the Pochhammer poles: its base may
    not be a nonpositive integer.  Equal parameters cancel exactly and
    the input stream is returned unchanged; no other cancellation is
    attempted.  The radius is untouched because (a)_k/(c)_k grows only
    polynomially in k.
    """
    if a == c:
        return f
    c_base = c.value if isinstance(c, Jet) else complex(c)
    if _is_nonpositive_integer(c_base):
        raise ValueError("lower parameter with base %s sits on a pole" % c_base)
    a, c = (p if isinstance(p, Jet) else complex(p) for p in (a, c))
    orders = {p.order for p in (a, c) if isinstance(p, Jet)}
    if len(orders) > 1:
        raise ValueError("parameters mix jet orders %s" % sorted(orders))
    one = as_jet(1, orders.pop()) if orders else complex(1.0)
    # (a)_k and (c)_k as running products, extended by one factor per new
    # k in the order `pochhammer` multiplies.  Both carry the same power
    # of two, so their quotient is bitwise the unscaled one wherever both
    # unscaled products are finite, and stays finite past their overflow.
    run = [0, one, one]

    def weighted(k: int, _f=f, _a=a, _c=c):
        j, pa, pc = run if k >= run[0] else (0, one, one)
        while j < k:
            pa, pc = pa * (_a + j), pc * (_c + j)
            j += 1
            if max(_magnitude(pa), _magnitude(pc)) > _RESCALE_AT:
                pa, pc = pa * _RESCALE, pc * _RESCALE
        run[:] = j, pa, pc
        return _f.coeff(k) * (pa / pc)

    return CoeffStream(
        weighted,
        f.radius,
        "%s[%s;%s]" % (f.label, _plabel(a), _plabel(c)),
    )


def undo(f: CoeffStream, a: ParamLike, c: ParamLike) -> CoeffStream:
    """Invert hypize(., a, c) by dividing coefficient k by (a)_k/(c)_k.

    Same operation with the roles swapped, so now it is `a` that must
    avoid the nonpositive integers.
    """
    return hypize(f, c, a)


@dataclass(frozen=True)
class PowerSplit:
    """Parameter lists produced by splitting (a)_{nk}/(c)_{nk}.

    `upper` over `lower` act on the inner function with argument x**n.
    The n**(nk) rescaling from each split cancels between the paired
    upper and lower lists, so `scale` stays 1.
    """

    upper: tuple
    lower: tuple
    power: int
    scale: float = 1.0


def power_split(f: CoeffStream, a: ParamLike, c: ParamLike, n: int) -> PowerSplit:
    """Split the weights of hypize(f, a, c) for a stream f = g(x**n).

    Coefficient nm of f picks up (a)_{nm}/(c)_{nm}; in terms of g that
    is the product of ((a+j)/n)_m over ((c+j)/n)_m for j = 0..n-1, read
    against the argument x**n.  Probes a few off-grid coefficients of f
    and refuses if any is nonzero.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("power split needs an integer n >= 1, got %s" % (n,))
    for k in range(2 * n + 1):
        if k % n != 0 and _magnitude(f.coeff(k)) != 0.0:
            raise ValueError(
                "stream %s has a nonzero coefficient at k=%d, not a function of x**%d"
                % (f.label, k, n)
            )
    upper = tuple((a + j) / n for j in range(n))
    lower = tuple((c + j) / n for j in range(n))
    return PowerSplit(upper=upper, lower=lower, power=n)


def taylor_remainder(f: CoeffStream, n: int) -> CoeffStream:
    """Stream R with f(x) = sum_{k<n} f_k x^k + (x**n/n!) R(x).

    R has coefficients n! * f_{n+k}: it is the Taylor stream of the
    n-th derivative reweighted by an upper 1 against a lower n+1, which
    collapses to that single factorial.  n = 0 returns f itself.
    """
    if n < 0:
        raise ValueError("remainder order must be >= 0")
    if n == 0:
        return f
    nfact = float(math.factorial(n))

    def shifted(k: int, _f=f, _n=n, _w=nfact):
        return _f.coeff(_n + k) * _w

    return CoeffStream(shifted, f.radius, "%s tail[%d]" % (f.label, n))


Rational = Union[int, float, Fraction]


def derivative_rule(beta: Rational, alpha: Rational, f: CoeffStream):
    """Differentiate x**beta * f(x**alpha) in coefficient space.

    d/dx x^b f(x^a) = b x^(b-1) * g(x^a) with g = hypize(f, 1+b/a, b/a).
    Returns (beta, g); the x^(beta-1) power and the x^alpha composition
    stay with the caller.  beta = 0 kills the rewrite (the lower
    parameter lands on the pole at zero) and is rejected, as is
    alpha = 0.
    """
    if beta == 0:
        raise ValueError("beta must be nonzero")
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    u = _as_ratio(beta) / _as_ratio(alpha)
    return beta, hypize(f, 1 + u, u)


def repeated_derivative_rule(beta: Rational, n: int, f: CoeffStream):
    """Apply (1/n!) d^n/dx^n to x**beta * f(x).

    Equals binom(beta, n) x^(beta-n) * hypize(f, 1+beta, 1+beta-n)(x);
    returns (binom(beta, n), stream).  n = 1 reduces to derivative_rule
    with alpha = 1.  Integer beta below n puts 1+beta-n on a pole, and
    the rewrite honestly refuses.
    """
    if n < 0:
        raise ValueError("derivative count must be >= 0")
    if n == 0:
        return 1, f
    b = _as_ratio(beta)
    prefactor = _as_ratio(1)
    for j in range(n):
        prefactor *= b - j
    prefactor /= math.factorial(n)
    return _unratio(prefactor, beta), hypize(f, 1 + b, 1 + b - n)


def _as_ratio(x: Rational):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return float(x)


def _unratio(x, like: Rational):
    # Keep exactness only when the input was exact.
    if isinstance(x, Fraction) and isinstance(like, float):
        return float(x)
    return x


def euler_rep_check(
    f: CoeffStream,
    a: float,
    c: float,
    x: float,
    alpha: Optional[float] = None,
    quad_tol: float = 1e-11,
) -> float:
    """Residual of a beta-kernel integral against its reweighted series.

    With alpha omitted, checks for c > a > 0 that

        int_0^1 s^(a-1) (1-s)^(c-a-1) f(s x) ds
          = Gamma(a) Gamma(c-a) / Gamma(c) * hypize(f, a, c)(x).

    With alpha given, checks for a, c, alpha > 0 the squared-kernel form

        int_0^1 s^(a-1) (1-s^alpha)^(c-1) f(x s^alpha (1-s^alpha)) ds
          = Gamma(a/alpha) Gamma(c) / (alpha Gamma(c + a/alpha))
            * hypize(hypize(f, a/alpha, c/2 + a/(2 alpha)),
                     c, (1+c)/2 + a/(2 alpha))(x/4).

    The left side is numerical quadrature, the right a partial sum; the
    return value is the absolute difference.  Real parameters only.
    """
    fval = f.closed_form
    if fval is None:
        fval = lambda t, _f=f: _real_value(_f.evaluate(t))

    if alpha is None:
        if not (c > a > 0):
            raise ValueError("first representation needs c > a > 0")

        def integrand(s: float) -> float:
            return s ** (a - 1.0) * (1.0 - s) ** (c - a - 1.0) * fval(s * x)

        lhs = quad_finite(integrand, 0.0, 1.0, quad_tol).value
        gamma_factor = math.gamma(a) * math.gamma(c - a) / math.gamma(c)
        rhs = gamma_factor * _real_value(hypize(f, a, c).evaluate(x))
        return abs(lhs - rhs)

    if not (a > 0 and c > 0 and alpha > 0):
        raise ValueError("second representation needs a, c, alpha > 0")

    def integrand2(s: float) -> float:
        w = s**alpha
        return s ** (a - 1.0) * (1.0 - w) ** (c - 1.0) * fval(x * w * (1.0 - w))

    lhs = quad_finite(integrand2, 0.0, 1.0, quad_tol).value
    u = a / alpha
    inner = hypize(f, u, c / 2.0 + u / 2.0)
    outer = hypize(inner, c, (1.0 + c) / 2.0 + u / 2.0)
    gamma_factor = math.gamma(u) * math.gamma(c) / (alpha * math.gamma(c + u))
    rhs = gamma_factor * _real_value(outer.evaluate(x / 4.0))
    return abs(lhs - rhs)


def _real_value(v) -> float:
    z = v.value if isinstance(v, Jet) else complex(v)
    return z.real
