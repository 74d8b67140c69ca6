"""Independent quadrature oracle.

Everything in this module is built from elementary operations and
scipy's Gauss-Kronrod routine.  Nothing here touches the series engine:
the whole point of the oracle is that its numbers come from a different
computational route than the closed forms they are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "OracleError",
    "QuadratureResult",
    "quad_finite",
    "quad_halfline",
    "agm",
    "ellipk_agm",
    "ellipk_imag_agm",
    "sqrt1p_minus1",
    "trinomial_root_newton",
]

DEFAULT_TOL = 1e-11

# Reported error estimates are floored here so "converged" never claims
# better than roundoff-limited accuracy.
_EST_FLOOR = 1e-15


class OracleError(Exception):
    """Raised when quadrature cannot converge or the integrand is unusable."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _tanh_sinh(
    g: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float, int]:
    """Double-exponential quadrature on (a, b).

    Trapezoid rule in t after the x = tanh((pi/2) sinh t) substitution of
    Takahasi & Mori (1974).  Node positions are built from the exact
    distance to the nearer endpoint, 1 - tanh s = 2/(e^{2s}+1), so an
    endpoint at 0 keeps full relative resolution arbitrarily deep into an
    algebraic singularity.  Returns the value, its error estimate and
    the number of evaluations of g.
    """
    half = 0.5 * (b - a)
    prev = math.nan
    calls = 0
    for level in range(4, 13):
        n = 2**level
        h = 6.1 / n  # cosh((pi/2) sinh 6.1) ~ 1e150; weights vanish past this
        terms = []
        try:
            for i in range(n + 1):
                t = i * h
                s = (math.pi / 2) * math.sinh(t)
                ch = math.cosh(s)
                w = (math.pi / 2) * math.cosh(t) / (ch * ch)
                if w < 1e-290:
                    break
                q = half * 2.0 / (math.exp(2.0 * s) + 1.0)  # half*(1 - tanh s)
                xl = a + q
                xr = b - q
                if a < xl < b:
                    terms.append(w * g(xl))
                if i > 0 and a < xr < b and xr != xl:
                    terms.append(w * g(xr))
            calls += len(terms)  # one evaluation per term
            val = half * h * math.fsum(terms)
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            # the integrand failed at a node, or the level sum left the
            # double range (inf - inf)
            raise OracleError(
                "tanh-sinh level on [%g, %g] raised %s: %s"
                % (a, b, type(exc).__name__, exc)
            ) from None
        if prev == prev:  # not NaN
            err = abs(val - prev)
            if err <= tol * max(1.0, abs(val)):
                return val, max(err, _EST_FLOOR * max(1.0, abs(val))), calls
        prev = val
    raise OracleError("tanh-sinh failed to converge on [%g, %g]" % (a, b))


def quad_finite(
    f: Callable[[float], float], a: float, b: float, tol: float = DEFAULT_TOL
) -> QuadratureResult:
    """Integrate f over the finite interval [a, b] to roughly tol.

    Adaptive Gauss-Kronrod first; if that stalls (endpoint algebraic
    singularity, slow refinement) the tanh-sinh pass takes over.
    Raises OracleError instead of returning an unconverged number.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise OracleError("quad_finite endpoints must be finite")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    # imported here: scipy.integrate costs about half a second, and
    # `import hypint` should not pay it for callers that never integrate
    import scipy.integrate as _si

    val = math.nan
    err = math.inf
    evals = 0
    try:
        out = _si.quad(f, a, b, epsabs=tol, epsrel=tol, limit=400, full_output=1)
        evals = out[2]["neval"]
        if len(out) == 3:
            val, err = out[0], out[1]
    except Exception:
        # the integrand raised; the evaluations QUADPACK made are lost
        pass
    if math.isfinite(val) and err <= 50.0 * tol * max(1.0, abs(val)):
        return QuadratureResult(val, max(err, _EST_FLOOR * max(1.0, abs(val))), evals)
    val, err, calls = _tanh_sinh(f, a, b, tol)
    return QuadratureResult(val, err, evals + calls)


def _decays(f: Callable[[float], float]) -> Optional[int]:
    """How many calls of f it took to see algebraic decay faster than 1/x,
    or None if the probes saw none.

    That decay is required for the half-line substitution to produce an
    integrable image near t = 1.
    """
    probes = ((1e4, 1e6), (1e6, 1e8))
    for i, (x0, x1) in enumerate(probes, 1):
        try:
            f0, f1 = abs(f(x0)), abs(f(x1))
        except (OverflowError, ValueError, ZeroDivisionError):
            return None
        if f0 == 0.0 and f1 == 0.0:
            return 2 * i
        if f0 > 0.0 and f1 == 0.0:
            return 2 * i
        if f0 > 0.0 and f1 > 0.0:
            slope = math.log(f1 / f0) / math.log(x1 / x0)
            if slope < -1.0001:
                return 2 * i
    return None


def quad_halfline(
    f: Callable[[float], float],
    tol: float = DEFAULT_TOL,
    substitution: str = "rational",
) -> QuadratureResult:
    """Integrate f over [0, oo).

    `substitution` chooses the map onto (0, 1): "rational" is
    x = t/(1-t); "tan" is x = tan(pi t / 2) and exists so results can be
    cross-checked against a second, unrelated change of variable.

    Each map is integrated as two pieces meeting at its image of x = 1,
    with the upper piece reflected (t -> 1-t) so that both possible
    singular ends, x = 0 and x = oo, land at the coordinate origin where
    floating point keeps full relative resolution.
    """
    probed = _decays(f)
    if probed is None:
        raise OracleError("integrand shows no algebraic decay faster than 1/x")
    if substitution == "rational":

        def g_lo(t: float) -> float:  # t in (0, 1/2], x = t/(1-t) in (0, 1]
            u = 1.0 - t
            return f(t / u) / (u * u)

        def g_hi(v: float) -> float:  # v in (0, 1/2], x = (1-v)/v in [1, oo)
            if v < 1e-150:
                # past double resolution; the decay precheck bounds the
                # discarded tail and 1/v^2 would overflow
                return 0.0
            return f((1.0 - v) / v) / (v * v)

    elif substitution == "tan":

        def g_lo(t: float) -> float:  # x = tan(pi t/2), x in (0, 1]
            c = math.cos(math.pi * t / 2.0)
            return f(math.tan(math.pi * t / 2.0)) * (math.pi / 2.0) / (c * c)

        def g_hi(v: float) -> float:  # x = cot(pi v/2), x in [1, oo)
            if v < 1e-150:
                return 0.0
            s = math.sin(math.pi * v / 2.0)
            return f(1.0 / math.tan(math.pi * v / 2.0)) * (math.pi / 2.0) / (s * s)

    else:
        raise ValueError("unknown substitution %r" % substitution)
    lo = quad_finite(g_lo, 0.0, 0.5, tol)
    hi = quad_finite(g_hi, 0.0, 0.5, tol)
    return QuadratureResult(
        lo.value + hi.value,
        lo.error_estimate + hi.error_estimate,
        lo.evaluations + hi.evaluations + probed,
    )


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of positive reals."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("agm needs positive arguments")
    for _ in range(60):
        if abs(a - b) <= 4e-16 * max(a, b):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def ellipk_agm(k: float) -> float:
    """Complete elliptic integral K with real modulus k, 0 <= k < 1."""
    if not 0.0 <= k < 1.0:
        raise ValueError("modulus must lie in [0, 1)")
    return math.pi / (2.0 * agm(1.0, math.sqrt(1.0 - k * k)))


def ellipk_imag_agm(x: float) -> float:
    """K(ix) for real x: modulus on the imaginary axis.

    Follows from the imaginary-modulus transformation plus the
    homogeneity agm(s, s*y) = s*agm(1, y).
    """
    return math.pi / (2.0 * agm(1.0, math.sqrt(1.0 + x * x)))


def sqrt1p_minus1(x: float) -> float:
    """sqrt(1+x) - 1 without cancellation near x = 0."""
    if x < -1.0:
        raise ValueError("needs x >= -1")
    return x / (1.0 + math.sqrt(1.0 + x))


def trinomial_root_newton(n: int, alpha: float, x: float) -> float:
    """The branch through 0 of  alpha*y^n + y = x,  for alpha > 0, x >= 0.

    Newton from above: the root lies below both x and (x/alpha)^(1/n),
    and f(y) = alpha*y^n + y - x is convex and increasing on y >= 0, so
    from the smaller of the two the iterates descend to the root.  A
    step that rounding takes out of the bracket [lo, hi] bisects it.
    Returns once a step is within 4 ulp, and raises OracleError if no
    step is within 100.
    """
    if n < 2:
        raise ValueError("trinomial degree must be >= 2")
    if alpha <= 0.0 or x < 0.0:
        raise ValueError("needs alpha > 0 and x >= 0")
    if x == 0.0:
        return 0.0
    lo, hi = 0.0, x
    # (x/alpha)^(1/n) through logs: x/alpha may leave the double range
    y = min(x, math.exp((math.log(x) - math.log(alpha)) / n))
    for _ in range(100):
        # alpha*y^(n-1) stays below x/y, where alpha*y^n alone may overflow
        p = alpha * y ** (n - 1)
        fy = (p + 1.0) * y - x
        if fy > 0.0:
            hi = y
        else:
            lo = y
        y_new = y - fy / (n * p + 1.0)
        if not lo <= y_new <= hi:
            y_new = 0.5 * (lo + hi)
        if abs(y_new - y) <= 4.0 * math.ulp(y_new):
            return y_new
        y = y_new
    raise OracleError(
        "Newton did not settle on the root of %g*y^%d + y = %r" % (alpha, n, x)
    )
