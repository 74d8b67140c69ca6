"""End-to-end result checks shared by the test suite and the CLI.

Each numbered group compares independent routes to the same number: a
closed form against the engine, the engine against quadrature, or two
engine routes against each other.  Every group is deterministic (fixed
seeds, fixed evaluation order), so two runs of the same suite produce
byte-identical report lines.

Comparison scale: "rel" rows divide the gap by |target| and are used
where a closed-form value is the reference; "abs" rows report the plain
gap and are used for route-vs-route agreement, where the shared value
would make relative scaling circular.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .hyperize import CoeffStream, hypize, undo
from .hypseries import PFQSpec, eval_at_one, eval_series
from .integrate import (
    IntegrandSpec,
    antiderivative,
    definite_0_to_1,
    definite_0_to_inf,
    verify_ftc,
)
from .jets import _magnitude, eps, extract
from .multivar import (
    PhiIntegrand,
    eval_3F2_example_closed,
    ialpha_closed,
    ialpha_value,
)
from .numkernel import digamma, trigamma
from .oracle import (
    ellipk_agm,
    ellipk_imag_agm,
    quad_finite,
    quad_halfline,
    sqrt1p_minus1,
    trinomial_root_newton,
)
from .transforms import (
    binet_sqrt_rep,
    catalog,
    parity_split,
    thomae_shift,
    verify_identity,
)

__all__ = [
    "CheckRow",
    "GROUPS",
    "SUITES",
    "group_rows",
    "run_suite",
    "report_lines",
]

_SEED = 1249


@dataclass(frozen=True)
class CheckRow:
    group: int
    name: str
    value: float
    target: float
    tolerance: float
    scale: str = "abs"  # "abs" or "rel"
    detail: str = ""

    @property
    def error(self) -> float:
        gap = abs(self.value - self.target)
        if self.scale == "rel":
            return gap / abs(self.target)
        return gap

    @property
    def passed(self) -> bool:
        return self.error <= self.tolerance

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return "%s  %2d %-40s err=%.3e tol=%.0e (%s)" % (
            verdict,
            self.group,
            self.name,
            self.error,
            self.tolerance,
            self.scale,
        )


# ---------------------------------------------------------------------------
# 1-4: half-line integrals


def _group_1() -> List[CheckRow]:
    body = PFQSpec((1.0,), (), scale=-1, power=2)
    res = definite_0_to_inf(IntegrandSpec(0, body))
    v = res.value.value.real
    return [
        CheckRow(
            1,
            "cauchy half-line",
            v,
            math.pi / 2.0,
            1e-10,
            "rel",
            "1F0(1;;-x^2) with the arctan pair appended, limit at -oo",
        ),
        CheckRow(
            1,
            "half-integer gamma square",
            2.0 * v,
            math.pi,
            1e-12,
            "rel",
            "doubling the integral isolates Gamma(1/2)^2",
        ),
    ]


def _group_2() -> List[CheckRow]:
    body = PFQSpec((1.0,), (), scale=-1, power=3)
    res = definite_0_to_inf(IntegrandSpec(0, body))
    v = res.value.value.real
    return [
        CheckRow(
            2,
            "cubic half-line",
            v,
            2.0 * math.pi / (3.0 * math.sqrt(3.0)),
            1e-10,
            "rel",
        ),
        CheckRow(
            2,
            "cubic oracle gap",
            res.discrepancy,
            0.0,
            1e-9,
            "abs",
            "engine vs quadrature through the rational substitution",
        ),
    ]


def _group_3() -> List[CheckRow]:
    # sqrt(sqrt(1+x) - 1) / x^(11/8); the series form carries a 2^(-1/2)
    body = PFQSpec((0.25, 0.75), (1.5,), scale=-1, power=1)
    res = definite_0_to_inf(IntegrandSpec(Fraction(-7, 8), body), verify=False)
    v = res.value.value.real / math.sqrt(2.0)
    want = (
        4.0
        * math.gamma(0.25) ** 2
        / (3.0 * math.sqrt(2.0 - math.sqrt(2.0)) * math.sqrt(math.pi))
    )
    q = quad_halfline(
        lambda x: x ** (-11.0 / 8.0) * math.sqrt(sqrt1p_minus1(x))
    )
    return [
        CheckRow(3, "nested radical closed form", v, want, 1e-10, "rel"),
        CheckRow(
            3,
            "nested radical oracle gap",
            v,
            q.value,
            1e-8,
            "abs",
            "elementary sqrt(1+x)-1 evaluator, no series involved",
        ),
    ]


def _power_law(alpha: Fraction, beta: Fraction) -> Tuple[float, float, float]:
    rep = binet_sqrt_rep(beta)
    res = definite_0_to_inf(
        IntegrandSpec(alpha - 1 + beta, rep), verify=False
    )
    got = res.value.value.real * 2.0 ** float(-beta)
    a, b = float(alpha), float(beta)
    law = (
        b
        * math.gamma(-b - 2.0 * a)
        * math.gamma(a + b)
        * 2.0 ** (2.0 * a + b)
        / math.gamma(1.0 - a)
    )
    q = quad_halfline(lambda x: x ** (a - 1.0) * sqrt1p_minus1(x) ** b)
    return got, law, q.value


def _group_4() -> List[CheckRow]:
    rows: List[CheckRow] = []
    for alpha, beta in ((Fraction(-3, 5), Fraction(1)), (Fraction(-7, 20), Fraction(1, 2))):
        got, law, oracle = _power_law(alpha, beta)
        tag = "(%s, %s)" % (float(alpha), float(beta))
        rows.append(
            CheckRow(4, "power law %s vs formula" % tag, got, law, 1e-9, "rel")
        )
        rows.append(
            CheckRow(4, "power law %s vs oracle" % tag, law, oracle, 1e-7, "abs")
        )
    # x^(-2/5) times the increasing branch of 2 y^5 + y = x
    beta = Fraction(-7, 5)
    body = PFQSpec(
        (0.2, 0.4, 0.6, 0.8),
        (0.5, 0.75, 1.25),
        scale=-2.0 * 3125.0 / 256.0,
        power=4,
    )
    res = definite_0_to_inf(IntegrandSpec(beta + 1, body), verify=False)
    got = res.value.value.real
    b = float(beta)
    law = (
        2.0 ** (-(b + 2.0) / 4.0)
        * math.gamma((b + 2.0) / 4.0)
        * math.gamma(-5.0 * b / 4.0 - 1.5)
        / (4.0 * math.gamma(-b))
    )
    q = quad_halfline(lambda x: x**b * trinomial_root_newton(5, 2.0, x))
    rows.append(CheckRow(4, "trinomial moment vs formula", got, law, 1e-9, "rel"))
    rows.append(CheckRow(4, "trinomial moment vs oracle", got, q.value, 1e-6, "abs"))
    return rows


# ---------------------------------------------------------------------------
# 5-9: jet-extraction integrals


def _group_5() -> List[CheckRow]:
    # (arcsin x / x)^3 = -3/2 [eps^2] x^(-2) 2F1(1/2-eps,1/2+eps;3/2;x^2)
    e = eps(2)
    body = PFQSpec((0.5 - e, 0.5 + e), (1.5,), power=2, order=2)
    form = antiderivative(IntegrandSpec(Fraction(-2), body))
    direct = -1.5 * extract(2, form.evaluate(1.0, tol=1e-14)).real
    pref, shifted = thomae_shift(form.body, upper_pivot=2, lower_pivot=1)
    reflected = (
        -1.5
        * float(form.prefactor_coeff)
        * extract(2, pref * eval_at_one(shifted, tol=1e-14)).real
    )
    want = 1.5 * math.pi * math.log(2.0) - math.pi**3 / 16.0

    def cube(x: float) -> float:
        return (math.asin(x) / x) ** 3 if x > 0.0 else 1.0

    q = quad_finite(cube, 0.0, 1.0, 1e-12)
    return [
        CheckRow(
            5,
            "arcsin cube moment",
            reflected,
            want,
            1e-8,
            "rel",
            "antiderivative boundary value, summed after the 3F2 rewrite "
            "that raises the parameter excess from 3/2 to 2",
        ),
        CheckRow(5, "arcsin cube route agreement", direct, reflected, 1e-8, "abs"),
        CheckRow(5, "arcsin cube oracle gap", reflected, q.value, 1e-8, "abs"),
    ]


def _zeta3_reference() -> float:
    # partial sum with the standard integral-plus-curvature tail; the
    # truncation error at n = 2000 sits near 1e-21
    n = 2000
    s = sum(1.0 / (k * k * k) for k in range(1, n))
    return s + 1.0 / (2.0 * n * n) + 1.0 / (2.0 * n**3) + 1.0 / (4.0 * n**4)


def _group_6() -> List[CheckRow]:
    e = eps(2)
    squares = PFQSpec((e, -e), (1.0,), order=2)
    z2_jet = -extract(2, eval_at_one(squares)).real
    ones = PFQSpec((1.0, 1.0, 1.0), (2.0, 2.0))
    z2_series = eval_at_one(ones).value.real
    eta2 = parity_split(ones).combined(-1.0).value.real
    z3 = eval_at_one(PFQSpec((1.0,) * 4, (2.0,) * 3)).value.real
    return [
        CheckRow(
            6,
            "zeta(2) by square jet",
            z2_jet,
            math.pi**2 / 6.0,
            1e-8,
            "rel",
            "[eps^2] of the (eps, -eps) pair at argument 1",
        ),
        CheckRow(6, "zeta(2) by unit series", z2_series, math.pi**2 / 6.0, 1e-8, "rel"),
        CheckRow(6, "eta(2) by parity split", eta2, math.pi**2 / 12.0, 1e-8, "rel"),
        CheckRow(
            6,
            "zeta(3) vs independent sum",
            z3,
            _zeta3_reference(),
            1e-8,
            "rel",
        ),
    ]


def _group_7() -> List[CheckRow]:
    ones = PFQSpec((1.0, 1.0, 1.0), (2.0, 2.0))
    a = eval_series(ones, 1j).value.real
    e = eps(2)
    b = extract(2, eval_series(PFQSpec((e, e), (1.0,), order=2), 1j)).imag
    c = (trigamma(0.25) - math.pi**2).real / 8.0
    d = quad_finite(
        lambda x: math.atan(x) / x if x else 1.0, 0.0, 1.0, 1e-12
    ).value
    return [
        CheckRow(7, "catalan: dilog vs square jet", a, b, 1e-8, "abs"),
        CheckRow(7, "catalan: dilog vs trigamma", a, c, 1e-8, "abs"),
        CheckRow(7, "catalan: dilog vs quadrature", a, d, 1e-8, "abs"),
    ]


def _elliptic_moment(sign: float) -> float:
    e = eps(1)
    body = PFQSpec((0.5 + e, 0.5 + e), (1.0,), scale=sign, power=2, order=1)
    res = definite_0_to_1(IntegrandSpec(1, body), verify=False)
    return math.pi / 2.0 * extract(1, res.value).real


def _group_8() -> List[CheckRow]:
    k1 = _elliptic_moment(1.0)
    k2 = _elliptic_moment(-1.0)
    want1 = 4.0 * (1.0 - math.log(2.0))
    want2 = (1.0 / (4.0 * math.sqrt(2.0 * math.pi))) * (
        (2.0 - math.log(2.0)) * math.gamma(0.25) ** 2
        + 4.0 * (math.log(2.0) - 4.0) * math.gamma(0.75) ** 2
    )

    def f1(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return x * math.log(1.0 / (1.0 - x * x)) * ellipk_agm(x)

    def f2(x: float) -> float:
        return x * math.log(1.0 / (1.0 + x * x)) * ellipk_imag_agm(x)

    q1 = quad_finite(f1, 0.0, 1.0, 1e-12)
    q2 = quad_finite(f2, 0.0, 1.0, 1e-12)
    return [
        CheckRow(
            8,
            "elliptic log moment",
            k1,
            want1,
            1e-8,
            "rel",
            "x K(x) against the squared-modulus log weight",
        ),
        CheckRow(8, "elliptic log moment oracle gap", k1, q1.value, 1e-8, "abs"),
        CheckRow(
            8,
            "imaginary-modulus log moment",
            k2,
            want2,
            1e-8,
            "rel",
            "boundary series at -1 summed under the jet parameters",
        ),
        CheckRow(8, "imaginary-modulus oracle gap", k2, q2.value, 1e-8, "abs"),
    ]


def _group_9() -> List[CheckRow]:
    alpha = 0.25
    e = eps(1)
    body = PFQSpec((1.0 + e, 0.5 + e), (1.5,), scale=-1, power=2, order=1)
    res = definite_0_to_inf(IntegrandSpec(Fraction(-1, 2), body), verify=False)
    got = extract(1, res.value).real
    dsum = (
        digamma(0.5 + alpha)
        + digamma(alpha)
        - digamma(1.0)
        - digamma(0.5)
    ).real
    want = math.pi / (4.0 * alpha * math.cos(math.pi * alpha)) * dsum

    def f(x: float) -> float:
        return math.atan(x) * math.log(1.0 / (1.0 + x * x)) * x ** (-1.5)

    q = quad_halfline(f)
    return [
        CheckRow(
            9,
            "arctan log moment vs digamma form",
            got,
            want,
            1e-7,
            "rel",
            "quarter-order moment of arctan under the squared-argument log",
        ),
        CheckRow(9, "arctan log moment oracle gap", got, q.value, 1e-7, "abs"),
    ]


# ---------------------------------------------------------------------------
# 10-11: the phi family


_PHI_A = 1.0 / math.sqrt(3.0)


def _iquad(alpha: float) -> float:
    p = PhiIntegrand(_PHI_A, -alpha)
    return quad_finite(p.substituted, 0.0, 1.0, 1e-11).value


def _group_10() -> List[CheckRow]:
    rows = [
        CheckRow(
            10,
            "cubed-weight value",
            ialpha_closed("Itrue"),
            quad_halfline(PhiIntegrand(_PHI_A, -0.5).integrand_cubed, 1e-11).value,
            1e-9,
            "abs",
        )
    ]
    for a in (0.3, _PHI_A, 2.0):
        rows.append(
            CheckRow(
                10,
                "cubed-weight family a=%.6f" % a,
                ialpha_closed("Ialpha_true", a),
                quad_halfline(PhiIntegrand(a, -0.5).integrand_cubed, 1e-11).value,
                1e-9,
                "abs",
            )
        )
    return rows


def _group_11() -> List[CheckRow]:
    rows = [
        CheckRow(11, "weight exponent 0", ialpha_closed("I0"), _iquad(0.0), 1e-7, "abs"),
        CheckRow(11, "weight exponent 1", ialpha_closed("I1"), _iquad(1.0), 1e-7, "abs"),
        CheckRow(
            11, "weight exponent -1", ialpha_closed("Iminus1"), _iquad(-1.0), 1e-7, "abs"
        ),
        CheckRow(
            11,
            "weight exponent -2",
            ialpha_closed("Iminus_n", 2),
            _iquad(-2.0),
            1e-7,
            "abs",
        ),
        CheckRow(11, "weight exponent 2", ialpha_closed("I2"), _iquad(2.0), 1e-7, "abs"),
    ]
    h = 1e-4
    slope = (_iquad(h) - _iquad(-h)) / (2.0 * h)
    rows.append(
        CheckRow(
            11,
            "weight derivative at 0",
            ialpha_closed("dIdalpha_at_0"),
            slope,
            1e-5,
            "abs",
            "central difference of the quadrature family, h=1e-4",
        )
    )
    for a in (-1.0, 0.5, 1.0, 2.0):
        rows.append(
            CheckRow(
                11,
                "double series a=%g" % a,
                ialpha_value(a),
                _iquad(a),
                1e-7,
                "abs",
            )
        )
    return rows


def _group_12() -> List[CheckRow]:
    x = 3.0 ** (-0.25)
    closed = eval_3F2_example_closed(x).real
    series = eval_series(
        PFQSpec((2.0, 0.75, 1.25), (1.75, 2.25)), -1.0 / 3.0
    ).value.real
    return [
        CheckRow(
            12,
            "elementary 3F2 point",
            closed,
            series,
            1e-10,
            "abs",
            "arctan/log combination against the direct series at -1/3",
        )
    ]


# ---------------------------------------------------------------------------
# 13-14: properties


_IDENTITIES = (
    "pfaff",
    "clausen_square",
    "kummer_minus1",
    "sum_at_half",
    "parity_split",
    "log_multiplier",
    "rogers_dougall",
    "product_0f1",
    "thomae_shift",
    "dlmf_15_4_27",
    "gelfond",
)


def _group_13() -> List[CheckRow]:
    rows = []
    for i, name in enumerate(_IDENTITIES):
        worst = verify_identity(name, random.Random(_SEED + i), draws=100)
        rows.append(
            CheckRow(13, "identity %s" % name, worst, 0.0, 1e-9, "abs")
        )
    return rows


_CATALOG_INTEGRANDS = (
    "arcsin_cubed",
    "arcsin_even",
    "arcsin_odd",
    "half_sqrt_log",
    "harmonic_egf",
    "ln_pow",
    "polylog",
    "ti",
)


def _stream(label: str, coeff: Callable[[int], float]) -> CoeffStream:
    return CoeffStream(coeff, radius=1.0, label=label)


def _worst_coeff_gap(f: CoeffStream, g: CoeffStream, upto: int) -> float:
    return max(_magnitude(f.coeff(k) - g.coeff(k)) for k in range(upto + 1))


def _group_14() -> List[CheckRow]:
    rows = []
    for name in _CATALOG_INTEGRANDS:
        spec = catalog(name).spec
        form = antiderivative(IntegrandSpec(Fraction(1), spec))
        rows.append(
            CheckRow(
                14,
                "ftc residual %s" % name,
                verify_ftc(form, (0.2, 0.5, 0.8)),
                0.0,
                1e-7,
                "abs",
            )
        )
    f = _stream("h", lambda k: 1.0 / (k + 1.0))
    rows.append(
        CheckRow(
            14,
            "reweighting undo",
            _worst_coeff_gap(undo(hypize(f, 0.6, 1.3), 0.6, 1.3), f, 100),
            0.0,
            1e-12,
            "abs",
        )
    )
    e = eps(2)
    jetted = undo(hypize(f, 0.6 + e, 1.3), 0.6 + e, 1.3)
    rows.append(
        CheckRow(
            14,
            "reweighting undo under jets",
            _worst_coeff_gap(jetted, f, 100),
            0.0,
            1e-12,
            "abs",
        )
    )
    ab = hypize(hypize(f, 0.6, 1.3), 0.9, 1.7)
    ba = hypize(hypize(f, 0.9, 1.7), 0.6, 1.3)
    rows.append(
        CheckRow(
            14,
            "reweighting commutes",
            _worst_coeff_gap(ab, ba, 100),
            0.0,
            1e-12,
            "abs",
        )
    )
    return rows


# ---------------------------------------------------------------------------
# suites

GROUPS: Tuple[Tuple[int, str, Callable[[], List[CheckRow]]], ...] = (
    (1, "half-line Cauchy law", _group_1),
    (2, "half-line cubic law", _group_2),
    (3, "nested radical", _group_3),
    (4, "power laws and trinomial root", _group_4),
    (5, "arcsin cube moment", _group_5),
    (6, "zeta values", _group_6),
    (7, "Catalan routes", _group_7),
    (8, "elliptic log moments", _group_8),
    (9, "arctan log moment", _group_9),
    (10, "closed weight family", _group_10),
    (11, "weight family series and derivative", _group_11),
    (12, "elementary 3F2 point", _group_12),
    (13, "identity sweep", _group_13),
    (14, "calculus properties", _group_14),
)

SUITES = {
    "paper": tuple(range(1, 13)),
    "identities": (13, 14),
    "all": tuple(range(1, 15)),
}


def group_rows(gid: int) -> List[CheckRow]:
    for g, _, builder in GROUPS:
        if g == gid:
            return builder()
    raise KeyError("no check group %r" % gid)


def run_suite(suite: str = "all", timings: Optional[dict] = None) -> List[CheckRow]:
    """The rows of every group in `suite`, in group order.

    With a `timings` dict, each group's wall time in ms is stored under
    its number.
    """
    if suite not in SUITES:
        raise KeyError("unknown suite %r; choose from %s" % (suite, sorted(SUITES)))
    rows: List[CheckRow] = []
    for gid in SUITES[suite]:
        start = time.perf_counter()
        rows.extend(group_rows(gid))
        if timings is not None:
            timings[gid] = 1e3 * (time.perf_counter() - start)
    return rows


def report_lines(
    rows: Sequence[CheckRow], timings: Optional[dict] = None
) -> List[str]:
    """One line per row and a summary line.

    With `timings` from run_suite, each row line also gives its margin
    err/tol and each group ends with a line of its wall time in ms.
    """
    out = []
    for i, row in enumerate(rows):
        if timings is None:
            out.append(row.line())
            continue
        out.append("%s margin=%.1e" % (row.line(), row.error / row.tolerance))
        if i + 1 == len(rows) or rows[i + 1].group != row.group:
            out.append("TIME  %2d %.1f ms" % (row.group, timings[row.group]))
    failed = sum(1 for r in rows if not r.passed)
    out.append(
        "%d checks, %d failed" % (len(rows), failed)
        if failed
        else "%d checks, all passed" % len(rows)
    )
    return out
