"""Series rewrites: argument moves, summation formulas, representations.

Everything here is either an argument transform (Thomae's shift; Pfaff
and the near-one connection are hypseries' own, re-exported), a
closed-form summation, or a catalog row expressing a concrete function
through a jet-parameterized series.  Summation formulas are registered
as Identity rows and gated by a numeric cross-check the moment they are
registered, so a transcription slip cannot survive import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional

from .jets import Jet, as_jet, eps, extract, jet_pow
from .numkernel import (
    _gamma_jet_product,
    digamma_jet,
    gamma_product,
    pochhammer,
)
from .hypseries import (
    DEFAULT_TOL,
    Moved,
    PFQSpec,
    SeriesError,
    cancel_parameters,
    eval_at_one,
    eval_series,
    gauss_near_one,
    pfaff,
)

__all__ = [
    "Moved",
    "ParitySplit",
    "Identity",
    "IdentityCheck",
    "REGISTRY",
    "pfaff",
    "gauss_near_one",
    "kummer_at_minus1",
    "sum_at_half",
    "clausen_square",
    "binet_sqrt_rep",
    "parity_split",
    "real_part_rep",
    "thomae_shift",
    "log_multiplier",
    "special_sum_15_4_27",
    "special_sum_15_8_24_derived",
    "trinomial_root",
    "Representation",
    "catalog",
    "catalog_names",
    "verify_identity",
]


def _jets(*vals) -> tuple:
    orders = {v.order for v in vals if isinstance(v, Jet)}
    if len(orders) > 1:
        raise ValueError("mixed jet orders %s" % sorted(orders))
    order = orders.pop() if orders else None
    if order is None:
        return tuple(as_jet(v) for v in vals)
    return tuple(as_jet(v, order) for v in vals)


# ---------------------------------------------------------------------------
# summation formulas


def kummer_at_minus1(a, b) -> Jet:
    """2F1(a, b; 1+a-b; -1) in closed form.

    The denominator is Gamma((1+a)/2) Gamma(1+a/2-b), the pairing the
    duplication-formula derivation produces; the tempting variant with
    b subtracted from both arguments fails the a=1, b=1/2 spot check
    (it gives sqrt(pi)/4 where the series sums to pi/4).
    """
    a, b = _jets(a, b)
    order = a.order
    return _gamma_jet_product(
        ((1 + a - b, 1), ((1 + a) * 0.5, -1), (1 + a * 0.5 - b, -1)),
        order,
        lead=jet_pow(as_jet(2.0, order), -a) * math.sqrt(math.pi),
    )


def sum_at_half(a, b) -> Jet:
    """2F1(a, 1+a-2b; 1+a-b; 1/2), assembled as Pfaff then Kummer."""
    a, b = _jets(a, b)
    spec = PFQSpec((a, 1 + a - 2 * b), (1 + a - b,), order=a.order)
    moved = pfaff(spec, 0.5, keep=0)
    ka, kb = moved.spec.upper
    drift = max(
        abs(u - v) for u, v in zip(kb.coeffs, as_jet(b, a.order).coeffs)
    )
    if not drift <= 1e-12 or moved.argument != -1.0:
        raise SeriesError("Pfaff did not produce the Kummer pattern")
    return moved.prefactor * kummer_at_minus1(ka, kb)


def clausen_square(a, b) -> PFQSpec:
    """The 3F2 equal to 2F1(a, b; a+b+1/2; x) squared."""
    a, b = _jets(a, b)
    return PFQSpec(
        (2 * a, a + b, 2 * b),
        (a + b + 0.5, 2 * a + 2 * b),
        order=a.order,
    )


def binet_sqrt_rep(beta) -> PFQSpec:
    """((sqrt(1+x)-1)/x)^beta as 2^(-beta) * 2F1(b/2,(b+1)/2;b+1;-x).

    The constant 2^(-beta) is the caller's to apply; the spec covers
    the series factor only.
    """
    (beta,) = _jets(beta)
    return PFQSpec(
        (beta * 0.5, (beta + 1) * 0.5),
        (beta + 1,),
        scale=-1.0,
        power=Fraction(1),
        order=beta.order,
    )


@dataclass(frozen=True)
class ParitySplit:
    """Even/odd decomposition of a series in its argument.

    full(x) = even(x) + odd_coefficient * (scale x^power) * odd(x),
    where scale/power are the original spec's inner argument data.
    """

    even: PFQSpec
    odd: PFQSpec
    odd_coefficient: Jet
    inner_scale: complex
    inner_power: Fraction

    def combined(self, x: complex, tol: float = DEFAULT_TOL) -> Jet:
        ev = eval_series(self.even, x, tol=tol)
        od = eval_series(self.odd, x, tol=tol)
        mono = self.inner_scale * complex(x) ** float(self.inner_power)
        return ev + self.odd_coefficient * mono * od


def parity_split(spec: PFQSpec) -> ParitySplit:
    """Split pFq(scale x^power) into even and odd parts in x^power.

    Both halves are series in 4^(p-q-1) scale^2 x^(2 power); the odd
    half carries the product-of-parameters coefficient and one factor
    of the inner argument.
    """
    half = 0.5
    even_up = []
    odd_up = []
    for a in spec.upper:
        even_up += [a * half, (a + 1) * half]
        odd_up += [(a + 1) * half, a * half + 1]
    even_lo = []
    odd_lo = []
    for c in spec.lower:
        even_lo += [c * half, (c + 1) * half]
        odd_lo += [(c + 1) * half, c * half + 1]
    even_lo.append(as_jet(0.5, spec.order))
    odd_lo.append(as_jet(1.5, spec.order))
    squared = 4.0 ** (spec.p - spec.q - 1) * spec.scale**2
    power2 = 2 * spec.power
    even = cancel_parameters(
        PFQSpec(tuple(even_up), tuple(even_lo), squared, power2, spec.order)
    )
    odd = cancel_parameters(
        PFQSpec(tuple(odd_up), tuple(odd_lo), squared, power2, spec.order)
    )
    coeff = as_jet(1, spec.order)
    for a in spec.upper:
        coeff = coeff * a
    for c in spec.lower:
        coeff = coeff / c
    return ParitySplit(even, odd, coeff, spec.scale, spec.power)


def real_part_rep(a, c) -> PFQSpec:
    """Re 2F1(1, a; c; ix) as a 3F2 of -x^2 (spec maps x to that value)."""
    a, c = _jets(a, c)
    return PFQSpec(
        (as_jet(1, a.order), a * 0.5, (a + 1) * 0.5),
        (c * 0.5, (c + 1) * 0.5),
        scale=-1.0,
        power=Fraction(2),
        order=a.order,
    )


def thomae_shift(
    spec: PFQSpec, upper_pivot: int = 2, lower_pivot: int = 0
):
    """Rewrite a 3F2 at 1 as Gamma-prefactor times another 3F2 at 1.

    The pivoted upper parameter a3 survives; the pivoted lower c1 hosts
    the reflections.  Returns (prefactor, spec') with
    value = prefactor * spec'(1).
    """
    if spec.p != 3 or spec.q != 2:
        raise SeriesError("Thomae shift needs a 3F2")
    ups = list(spec.upper)
    lows = list(spec.lower)
    a3 = ups.pop(upper_pivot)
    c1 = lows.pop(lower_pivot)
    c2 = lows[0]
    a1, a2 = ups
    sigma = spec.sigma
    if sigma.value.real <= 0:
        raise SeriesError("Thomae shift needs positive excess on the left")
    if (c2 - a3).value.real <= 0:
        raise SeriesError("Thomae shift needs positive excess on the right")
    prefactor = gamma_product(
        ((c2, 1), (sigma, 1), (sigma + a3, -1), (c2 - a3, -1)), spec.order
    )
    shifted = PFQSpec(
        (a3, c1 - a1, c1 - a2),
        (c1, sigma + a3),
        order=spec.order,
    )
    return prefactor, shifted


def special_sum_15_4_27(a) -> Jet:
    """2F1(1, a; a+1; -1) = (a/2)(psi((a+1)/2) - psi(a/2)), jet-valued."""
    (a,) = _jets(a)
    return (a * 0.5) * (digamma_jet((a + 1) * 0.5) - digamma_jet(a * 0.5))


def special_sum_15_8_24_derived(e) -> Jet:
    """2F1(1/2+e, 1/2+e; 2; -1) in Gamma form, e a jet.

    Derived by differentiating the quadratic transform behind the
    classical value; feeds the imaginary-modulus K integral.
    """
    (e,) = _jets(e)
    order = e.order
    half = as_jet(0.5, order)
    em = e - half
    lead = math.sqrt(math.pi) * jet_pow(em, -2) * jet_pow(
        as_jet(2.0, order), -(half + e)
    )
    t1 = _gamma_jet_product(
        ((0.25 + e * 0.5, -1), (1.25 - e * 0.5, -1)), order, lead=em
    )
    t2 = _gamma_jet_product(
        ((-0.25 + e * 0.5, -1), (0.75 - e * 0.5, -1)),
        order,
        lead=as_jet(2.0, order),
    )
    return lead * (t1 - t2)


def trinomial_root(n: int, alpha: complex, a: complex) -> complex:
    """The root y of alpha y^n + y = a that is analytic in a at 0.

    Upper parameters are j/n for j < n plus a unit slot that cancels
    against nothing here; the lower list j/(n-1) for 2 <= j <= n comes
    straight from the Lagrange-inversion coefficients (some tables run
    it one entry long).  The residual is checked by the tests.
    """
    if n < 2:
        raise ValueError("trinomial needs n >= 2")
    alpha = complex(alpha)
    a = complex(a)
    w = -alpha * n**n * a ** (n - 1) / (n - 1) ** (n - 1)
    if abs(w) >= 1.0:
        raise SeriesError(
            "trinomial series argument %r outside the unit disk" % w
        )
    upper = [Fraction(j, n) for j in range(1, n)] + [Fraction(1)]
    lower = [Fraction(j, n - 1) for j in range(2, n + 1)]
    spec = cancel_parameters(
        PFQSpec(
            tuple(float(u) for u in upper),
            tuple(float(c) for c in lower),
            order=0,
        )
    )
    return a * eval_series(spec, w).value


# ---------------------------------------------------------------------------
# identity registry


@dataclass(frozen=True)
class IdentityCheck:
    lhs: complex
    rhs: complex

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


@dataclass(frozen=True)
class Identity:
    """A registered equality with a sampler over its stated domain.

    `tol` is the scaled residual the identity is expected to meet; most
    rows are exact and keep the 1e-9 default, asymptotic ones are
    looser.
    """

    name: str
    domain: str
    sample: Callable
    lhs: Callable
    rhs: Callable
    note: str = ""
    tol: float = 1e-9

    def check(self, params: Optional[dict] = None, rng=None) -> IdentityCheck:
        # fixed-instance rows ignore rng; random rows fail loudly without one
        if params is None:
            params = self.sample(rng)
        return IdentityCheck(complex(self.lhs(params)), complex(self.rhs(params)))


REGISTRY: Dict[str, Identity] = {}

_GATE_TOL = 1e-8


def _register(identity: Identity, probe: dict) -> None:
    got = identity.check(probe)
    scale = max(1.0, abs(got.rhs))
    if not got.residual <= max(_GATE_TOL, identity.tol) * scale:
        raise RuntimeError(
            "identity %r failed its registration gate: lhs=%r rhs=%r"
            % (identity.name, got.lhs, got.rhs)
        )
    REGISTRY[identity.name] = identity


def verify_identity(
    name: str, rng, draws: int = 100, tol: Optional[float] = None
) -> float:
    """Randomized residual sweep; returns the worst scaled residual."""
    ident = REGISTRY[name]
    if tol is None:
        tol = ident.tol
    worst = 0.0
    for _ in range(draws):
        got = ident.check(rng=rng)
        scaled = got.residual / max(1.0, abs(got.rhs))
        worst = max(worst, scaled)
        if not scaled <= tol:
            raise AssertionError(
                "identity %r residual %.3e exceeds %.1e at lhs=%r rhs=%r"
                % (name, scaled, tol, got.lhs, got.rhs)
            )
    return worst


def _sc(spec: PFQSpec, x: complex) -> complex:
    return eval_series(spec, x).value


def _u(rng, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


# --- registry rows ---------------------------------------------------------


def _pfaff_lhs(p):
    return _sc(PFQSpec((p["a"], p["b"]), (p["c"],), order=0), p["x"])


def _pfaff_rhs(p):
    moved = pfaff(PFQSpec((p["a"], p["b"]), (p["c"],), order=0), p["x"])
    return (
        moved.prefactor.value
        * eval_series(moved.spec, moved.argument).value
    )


def _pfaff_sample(rng):
    return {
        "a": _u(rng, 0.1, 1.5),
        "b": _u(rng, 0.1, 1.5),
        "c": _u(rng, 0.6, 2.2),
        "x": _u(rng, -0.6, 0.6),
    }


def _clausen_lhs(p):
    return _sc(
        PFQSpec((p["a"], p["b"]), (p["a"] + p["b"] + 0.5,), order=0), p["x"]
    ) ** 2


def _clausen_rhs(p):
    return _sc(clausen_square(p["a"], p["b"]), p["x"])


def _clausen_sample(rng):
    return {"a": _u(rng, 0.05, 0.8), "b": _u(rng, 0.05, 0.8), "x": _u(rng, -0.7, 0.7)}


def _kummer_lhs(p):
    a, b = p["a"], p["b"]
    return _sc(PFQSpec((a, b), (1 + a - b,), order=0), -1.0)


def _kummer_rhs(p):
    return kummer_at_minus1(as_jet(p["a"], 0), as_jet(p["b"], 0)).value


def _kummer_sample(rng):
    return {"a": _u(rng, 0.2, 1.4), "b": _u(rng, -0.7, 0.4)}


def _half_lhs(p):
    a, b = p["a"], p["b"]
    return _sc(PFQSpec((a, 1 + a - 2 * b), (1 + a - b,), order=0), 0.5)


def _half_rhs(p):
    return sum_at_half(as_jet(p["a"], 0), as_jet(p["b"], 0)).value


def _parity_lhs(p):
    spec = PFQSpec((p["a"], p["b"]), (p["c"],), order=0)
    return _sc(spec, p["x"])


def _parity_rhs(p):
    spec = PFQSpec((p["a"], p["b"]), (p["c"],), order=0)
    return parity_split(spec).combined(p["x"]).value


def _parity_sample(rng):
    return {
        "a": _u(rng, 0.2, 1.4),
        "b": _u(rng, 0.2, 1.4),
        "c": _u(rng, 0.7, 2.0),
        "x": _u(rng, -0.8, 0.8),
    }


def _logmul_lhs(p):
    e = eps(1)
    spec = PFQSpec(
        (p["a"] + e, p["b"] + e), (p["a"] + p["b"],), order=1
    )
    return extract(1, eval_series(spec, p["x"]))


def _logmul_rhs(p):
    base = PFQSpec((p["a"], p["b"]), (p["a"] + p["b"],), order=0)
    return math.log(1.0 / (1.0 - p["x"])) * _sc(base, p["x"])


def _logmul_sample(rng):
    return {"a": _u(rng, 0.2, 1.2), "b": _u(rng, 0.2, 1.2), "x": _u(rng, -0.8, 0.8)}


def _rogers_lhs(p):
    j, a, b = p["j"], p["a"], p["b"]
    spec = PFQSpec(
        (-j, a, b, 0.5 - a - b - j),
        (1 - a - j, 1 - b - j, a + b + 0.5),
        order=0,
    )
    return _sc(spec, 1.0)


def _rogers_rhs(p):
    j, a, b = p["j"], p["a"], p["b"]
    return (
        pochhammer(2 * a, j)
        * pochhammer(a + b, j)
        * pochhammer(2 * b, j)
        / (
            pochhammer(2 * a + 2 * b, j)
            * pochhammer(a, j)
            * pochhammer(b, j)
        )
    )


def _rogers_sample(rng):
    # keep the shifted lowers away from integers
    return {
        "j": rng.randrange(0, 9),
        "a": _u(rng, 0.07, 0.43),
        "b": _u(rng, 0.07, 0.43),
    }


def _prod0f1_lhs(p):
    a, b, x = p["a"], p["b"], p["x"]
    fa = _sc(PFQSpec((), (a,), order=0), x)
    fb = _sc(PFQSpec((), (b,), order=0), x)
    return fa * fb


def _prod0f1_rhs(p):
    a, b, x = p["a"], p["b"], p["x"]
    spec = PFQSpec(
        ((a + b - 1) * 0.5, (a + b) * 0.5), (a, b, a + b - 1), order=0
    )
    return _sc(spec, 4.0 * x)


def _prod0f1_sample(rng):
    while True:
        a = _u(rng, 0.3, 2.0)
        b = _u(rng, 0.3, 2.0)
        if abs(a + b - 1.0) > 0.05:
            return {"a": a, "b": b, "x": _u(rng, -0.5, 0.5)}


def _thomae_lhs(p):
    spec = PFQSpec(
        (p["a1"], p["a2"], p["a3"]), (p["c1"], p["c2"]), order=0
    )
    return eval_at_one(spec).value


def _thomae_rhs(p):
    spec = PFQSpec(
        (p["a1"], p["a2"], p["a3"]), (p["c1"], p["c2"]), order=0
    )
    pref, shifted = thomae_shift(spec, upper_pivot=2, lower_pivot=0)
    return pref.value * eval_at_one(shifted).value


def _thomae_sample(rng):
    a1 = _u(rng, 0.1, 0.8)
    a2 = _u(rng, 0.1, 0.8)
    a3 = _u(rng, 0.1, 0.8)
    c1 = _u(rng, 1.0, 1.8)
    sigma = _u(rng, 0.8, 1.6)
    c2 = a1 + a2 + a3 + sigma - c1
    while c2 - a3 < 0.6:
        # the shifted series has excess c2 - a3; keep it summable
        c2 += 1.0
    return {"a1": a1, "a2": a2, "a3": a3, "c1": c1, "c2": c2}


def _dlmf_lhs(p):
    a = p["a"]
    return _sc(PFQSpec((1.0, a), (a + 1,), order=0), -1.0)


def _dlmf_rhs(p):
    return special_sum_15_4_27(as_jet(p["a"], 0)).value


def _gelfond_lhs(p):
    t = p["t"]
    first = eval_at_one(PFQSpec((1j * t, -1j * t), (0.5,), order=0)).value
    second = eval_at_one(
        PFQSpec((0.5 + 1j * t, 0.5 - 1j * t), (1.5,), order=0)
    ).value
    return first + 2.0 * t * second


def _gelfond_rhs(p):
    return math.exp(math.pi * p["t"])


def _binet_lhs(p):
    b, x = p["beta"], p["x"]
    return ((math.sqrt(1.0 + x) - 1.0) / x) ** b


def _binet_rhs(p):
    b, x = p["beta"], p["x"]
    return 2.0**-b * eval_series(binet_sqrt_rep(b), x).value


def _binet_sample(rng):
    beta = _u(rng, -1.4, 1.9)
    if abs(beta) < 0.05 or abs(beta + 1.0) < 0.05:
        beta += 0.11
    return {"beta": beta, "x": _u(rng, 0.05, 0.9)}


def _realpart_lhs(p):
    return eval_series(real_part_rep(p["a"], p["c"]), p["x"]).value


def _realpart_rhs(p):
    spec = PFQSpec((1.0, p["a"]), (p["c"],), order=0)
    return eval_series(spec, 1j * p["x"]).value.real


def _realpart_sample(rng):
    return {"a": _u(rng, 0.3, 2.0), "c": _u(rng, 0.6, 2.4), "x": _u(rng, 0.05, 0.8)}


def _deriv1524_lhs(p):
    s = p["s"]
    return _sc(PFQSpec((0.5 + s, 0.5 + s), (2.0,), order=0), -1.0)


def _deriv1524_rhs(p):
    return special_sum_15_8_24_derived(as_jet(p["s"], 0)).value


def _gfp_lhs(p):
    a, b, c = p["a"], p["b"], p["c"]
    x = -1.0e6
    w = x / (x - 1.0)
    series = eval_series(PFQSpec((a, b), (c,), order=0), w).value
    return (-x) ** a * (1.0 - x) ** -a * series


def _gfp_rhs(p):
    a, b, c = p["a"], p["b"], p["c"]
    return (
        math.gamma(c)
        * math.gamma(c - a - b)
        / (math.gamma(c - a) * math.gamma(c - b))
    )


def _gfp_sample(rng):
    # the value at w = 1 - 1e-6 differs from the w -> 1 limit by
    # O(u^excess); excess in (1.2, 1.45) keeps that below the row
    # tolerance and away from the integer degeneracy
    a = _u(rng, 0.1, 0.6)
    b = _u(rng, 0.2, 1.0)
    c = a + b + _u(rng, 1.2, 1.45)
    return {"a": a, "b": b, "c": c}


def _trinomial_lhs(p):
    y = trinomial_root(p["n"], p["alpha"], p["a"])
    return p["alpha"] * y ** p["n"] + y


def _trinomial_rhs(p):
    return p["a"]


def _trinomial_sample(rng):
    n = rng.choice([2, 3, 5])
    return {"n": n, "alpha": _u(rng, 0.02, 0.4), "a": _u(rng, 0.05, 0.5)}


def _build_registry() -> None:
    rows = [
        (
            Identity(
                "pfaff",
                "a,b in (0.1,1.5), c in (0.6,2.2), x in (-0.6,0.6)",
                _pfaff_sample,
                _pfaff_lhs,
                _pfaff_rhs,
            ),
            {"a": 0.4, "b": 0.9, "c": 1.3, "x": -0.35},
        ),
        (
            Identity(
                "clausen_square",
                "a,b in (0.05,0.8), x in (-0.7,0.7)",
                _clausen_sample,
                _clausen_lhs,
                _clausen_rhs,
            ),
            {"a": 0.3, "b": 0.45, "x": 0.5},
        ),
        (
            Identity(
                "kummer_minus1",
                "a in (0.2,1.4), b in (-0.7,0.4)",
                _kummer_sample,
                _kummer_lhs,
                _kummer_rhs,
                note="denominator Gamma((1+a)/2)Gamma(1+a/2-b)",
            ),
            {"a": 1.0, "b": 0.5},
        ),
        (
            Identity(
                "sum_at_half",
                "a in (0.2,1.4), b in (-0.7,0.4)",
                _kummer_sample,
                _half_lhs,
                _half_rhs,
            ),
            {"a": 1.0, "b": 0.5},
        ),
        (
            Identity(
                "parity_split",
                "2F1 params in (0.2,2.0), x in (-0.8,0.8)",
                _parity_sample,
                _parity_lhs,
                _parity_rhs,
            ),
            {"a": 0.7, "b": 1.1, "c": 1.6, "x": 0.55},
        ),
        (
            Identity(
                "log_multiplier",
                "a,b in (0.2,1.2), lower a+b, x in (-0.8,0.8)",
                _logmul_sample,
                _logmul_lhs,
                _logmul_rhs,
            ),
            {"a": 0.5, "b": 0.5, "x": 0.25},
        ),
        (
            Identity(
                "rogers_dougall",
                "j <= 8, a,b in (0.07,0.43)",
                _rogers_sample,
                _rogers_lhs,
                _rogers_rhs,
            ),
            {"j": 4, "a": 0.21, "b": 0.33},
        ),
        (
            Identity(
                "product_0f1",
                "a,b in (0.3,2.0) with a+b-1 nonzero, x in (-0.5,0.5)",
                _prod0f1_sample,
                _prod0f1_lhs,
                _prod0f1_rhs,
            ),
            {"a": 0.8, "b": 1.7, "x": 0.3},
        ),
        (
            Identity(
                "thomae_shift",
                "uppers in (0.1,0.8), c1 in (1,1.8), excess in (0.8,1.6)",
                _thomae_sample,
                _thomae_lhs,
                _thomae_rhs,
            ),
            {"a1": 0.3, "a2": 0.5, "a3": 0.4, "c1": 1.2, "c2": 1.1},
        ),
        (
            Identity(
                "dlmf_15_4_27",
                "a in (0.2,2.0)",
                lambda rng: {"a": _u(rng, 0.2, 2.0)},
                _dlmf_lhs,
                _dlmf_rhs,
            ),
            {"a": 2.0 / 3.0},
        ),
        (
            Identity(
                "gelfond",
                "t in (0.1,1.5)",
                lambda rng: {"t": _u(rng, 0.1, 1.5)},
                _gelfond_lhs,
                _gelfond_rhs,
                note="t=1 is the e^pi row",
            ),
            {"t": 1.0},
        ),
        (
            Identity(
                "binet_sqrt",
                "beta in (-1.4,1.9) away from 0,-1; x in (0.05,0.9)",
                _binet_sample,
                _binet_lhs,
                _binet_rhs,
            ),
            {"beta": 0.5, "x": 0.6},
        ),
        (
            Identity(
                "real_part_rep",
                "a in (0.3,2.0), c in (0.6,2.4), x in (0.05,0.8)",
                _realpart_sample,
                _realpart_lhs,
                _realpart_rhs,
            ),
            {"a": 1.0, "c": 1.5, "x": 0.5},
        ),
        (
            Identity(
                "dlmf_15_8_24_derived",
                "shift s in (-0.3,0.3)",
                lambda rng: {"s": _u(rng, -0.3, 0.3)},
                _deriv1524_lhs,
                _deriv1524_rhs,
            ),
            {"s": 0.0},
        ),
        (
            Identity(
                "gauss_from_pfaff",
                "a in (0.1,0.4), b-a in (1.1,1.4), excess in (0.25,0.85), x=-1e6",
                _gfp_sample,
                _gfp_lhs,
                _gfp_rhs,
                note="limit comparison, truncated at finite x",
                tol=1e-5,
            ),
            {"a": 0.3, "b": 0.7, "c": 2.3},
        ),
        (
            Identity(
                "trinomial_root",
                "n in {2,3,5}, alpha in (0.02,0.4), a in (0.05,0.5)",
                _trinomial_sample,
                _trinomial_lhs,
                _trinomial_rhs,
            ),
            {"n": 5, "alpha": 0.1, "a": 0.3},
        ),
    ]
    for identity, probe in rows:
        _register(identity, probe)


def log_multiplier(a: float, b: float, x: float) -> Identity:
    """The ln(1/(1-x)) multiplier rule pinned at given parameters."""
    x = float(x)
    if x >= 1.0:
        raise SeriesError("log multiplier needs x below 1")
    fixed = {"a": a, "b": b, "x": x}
    return Identity(
        "log_multiplier@%r,%r,%r" % (a, b, x),
        "fixed parameters",
        lambda rng: fixed,
        _logmul_lhs,
        _logmul_rhs,
    )


# ---------------------------------------------------------------------------
# representation catalog


@dataclass(frozen=True)
class Representation:
    """prefactor * x^monomial * [eps^extract_order] spec(x), or a sum of
    such parts for the rows that need two series."""

    name: str
    kind: str  # "function" or "constant"
    spec: Optional[PFQSpec]
    extract_order: int = 0
    prefactor: complex = 1.0
    monomial: int = 0
    note: str = ""
    reference: Optional[Callable] = None
    parts: Optional[tuple] = None  # ((prefactor, spec), ...) summed at x

    def evaluate(self, x: float = 1.0, tol: float = DEFAULT_TOL) -> complex:
        if self.parts is not None:
            return sum(
                pref * eval_series(spec, x, tol=tol).value
                for pref, spec in self.parts
            )
        val = eval_series(self.spec, x, tol=tol)
        out = self.prefactor * extract(self.extract_order, val)
        if self.monomial:
            out *= complex(x) ** self.monomial
        return out


def _ones_spec(k: int, scale: complex) -> PFQSpec:
    return PFQSpec((1.0,) * (k + 1), (2.0,) * k, scale=scale, order=0)


def _catalog_zeta(k: int = 2) -> Representation:
    if k < 2:
        raise ValueError("zeta row needs k >= 2")
    return Representation("zeta", "constant", _ones_spec(k, 1.0))


def _catalog_eta(k: int = 2) -> Representation:
    if k < 1:
        raise ValueError("eta row needs k >= 1")
    return Representation("eta", "constant", _ones_spec(k, -1.0))


def _catalog_ln_pow(k: int = 1, a: complex = 0.0) -> Representation:
    e = eps(k)
    return Representation(
        "ln_pow",
        "function",
        PFQSpec((a + e,), (), order=k),
        extract_order=k,
        prefactor=float(math.factorial(k)),
        note="the k! factor is required for k >= 2; tables sometimes omit it",
    )


def _catalog_half_sqrt_log(k: int = 1) -> Representation:
    e = eps(k)
    return Representation(
        "half_sqrt_log",
        "function",
        PFQSpec((e, 0.5 + e), (1 + 2 * e,), order=k),
        extract_order=k,
        prefactor=math.factorial(k) / (-2.0) ** k,
    )


def _catalog_arcsin_even(k: int = 1) -> Representation:
    if k < 1:
        raise ValueError("even arcsin powers start at k = 1")
    e = eps(2 * k)
    return Representation(
        "arcsin_even",
        "function",
        PFQSpec((-e, e), (0.5,), power=Fraction(2), order=2 * k),
        extract_order=2 * k,
        prefactor=math.factorial(2 * k) / (-4.0) ** k,
    )


def _catalog_arcsin_odd(k: int = 1) -> Representation:
    if k < 0:
        raise ValueError("odd arcsin powers need k >= 0")
    e = eps(2 * k) if k else 0.0
    return Representation(
        "arcsin_odd",
        "function",
        PFQSpec((0.5 + e, 0.5 - e), (1.5,), power=Fraction(2), order=2 * k),
        extract_order=2 * k,
        prefactor=math.factorial(2 * k + 1) / (-4.0) ** k,
        monomial=1,
    )


def _catalog_harmonic_egf() -> Representation:
    e = eps(1)
    return Representation(
        "harmonic_egf",
        "function",
        PFQSpec((1.0,), (1 - e,), order=1),
        extract_order=1,
    )


def _catalog_polylog(n: int = 2) -> Representation:
    if n < 1:
        raise ValueError("polylog row needs n >= 1")
    e = eps(n)
    return Representation(
        "polylog",
        "function",
        PFQSpec((e,) * n, (1.0,) * (n - 1), order=n),
        extract_order=n,
    )


def _catalog_catalan() -> Representation:
    return Representation(
        "catalan_3F2",
        "constant",
        PFQSpec((0.5, 0.5, 1.0), (1.5, 1.5), scale=-1.0, order=0),
    )


def _catalog_lemniscate() -> Representation:
    return Representation(
        "lemniscate",
        "constant",
        PFQSpec((0.5, 0.25), (1.25,), order=0),
        prefactor=4.0 * math.sqrt(2.0),
    )


def _catalog_apery() -> Representation:
    return Representation("apery", "constant", _ones_spec(3, 1.0))


def _catalog_gelfond() -> Representation:
    return Representation(
        "gelfond",
        "constant",
        None,
        parts=(
            (1.0, PFQSpec((1j, -1j), (0.5,), order=0)),
            (2.0, PFQSpec((0.5 + 1j, 0.5 - 1j), (1.5,), order=0)),
        ),
    )


def _catalog_arcsin_cubed() -> Representation:
    e = eps(2)
    return Representation(
        "arcsin_cubed",
        "function",
        PFQSpec((0.5 - e, 0.5 + e), (1.5,), power=Fraction(2), order=2),
        extract_order=2,
        prefactor=-1.5,
        monomial=1,
    )


def _catalog_ti() -> Representation:
    return Representation(
        "ti",
        "function",
        PFQSpec((1.0, 0.5, 0.5), (1.5, 1.5), scale=-1.0, power=Fraction(2), order=0),
        monomial=1,
        note=(
            "inverse-tangent integral; easily confused with the "
            "sine-integral row, which has different lower parameters"
        ),
    )


_CATALOG: Dict[str, Callable] = {
    "zeta": _catalog_zeta,
    "eta": _catalog_eta,
    "ln_pow": _catalog_ln_pow,
    "half_sqrt_log": _catalog_half_sqrt_log,
    "arcsin_even": _catalog_arcsin_even,
    "arcsin_odd": _catalog_arcsin_odd,
    "harmonic_egf": _catalog_harmonic_egf,
    "polylog": _catalog_polylog,
    "catalan_3F2": _catalog_catalan,
    "lemniscate": _catalog_lemniscate,
    "apery": _catalog_apery,
    "gelfond": _catalog_gelfond,
    "arcsin_cubed": _catalog_arcsin_cubed,
    "ti": _catalog_ti,
}


def catalog_names() -> list:
    return sorted(_CATALOG)


def catalog(name: str, **kwargs) -> Representation:
    """Fetch a catalog row by bare name; k/a/n arrive as keywords."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise KeyError(
            "unknown catalog row %r; available: %s"
            % (name, ", ".join(catalog_names()))
        ) from None
    return builder(**kwargs)


_build_registry()
