"""Seeded inputs and independent references for the hypint benchmark.

This module never imports hypint: every reference value comes from
scipy.special, closed forms, or exact rational arithmetic, so an engine
defect cannot hide in a shared routine.  `run.py` checks that hypint is
not loaded while references are computed, and `selftest.py` checks the
imports of this file.

An operation is a plain dict of floats and strings, so the set can be
hashed and so hypint receives only the generated numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import scipy.special as sp

# Order-0 operations per tag, then jet operations per tag and order.
# Order 0 is 59% of the set.  Jets on the accelerated routes cost
# 0.2-15 s an operation at the seed and vary 20x with the parameters, so
# one of them would set the workload's throughput: `wynn` and `boundary`
# run at order 0 only, and `at_one` jets use the 2F1 Gauss route.  The
# defect strata sit among the order-0 operations, because a jet
# operation that grinds to the term cap costs seconds where a scalar one
# costs ~0.1 s.
SCALAR_PER_TAG = 104
JET_ORDERS = (1, 2, 4)
TAGS = (
    "direct",
    "entire",
    "terminating",
    "near_one",
    "pfaff",
    "wynn",
    "boundary",
    "at_one",
)
JETS_PER_ORDER = {
    "direct": 32,
    "entire": 32,
    "terminating": 32,
    "near_one": 32,
    "pfaff": 32,
    "wynn": 0,
    "boundary": 0,
    "at_one": 32,
}
# Number of order-0 operations per tag drawn from a region that ROADMAP
# items 3 and 4 list as defective.  They stay in the set and count in
# `failed`; a fixed count keeps that count steady from seed to seed.
DEFECT_SCALARS = {
    "direct": 0,
    "entire": 24,
    "terminating": 24,
    "near_one": 24,
    "pfaff": 16,
    "wynn": 8,
    "boundary": 16,
    "at_one": 0,
}

# Of the `entire` defect ops, these many overflow instead of cancelling.
OVERFLOW_OPS = 2

# Tolerance against the reference (see series_error), by tag, for
# order 0 and for jets.  Jet references come from finite differences (or polygamma
# closed forms), which carry their own error, hence the looser values.
SERIES_TOL = {
    "direct": (1e-10, 1e-7),
    "entire": (1e-10, 1e-7),
    "terminating": (1e-10, 1e-9),
    "near_one": (1e-9, 1e-7),
    "pfaff": (1e-9, 1e-7),
    "wynn": (1e-8, 1e-6),
    "boundary": (1e-8, 1e-6),
    "at_one": (1e-8, 1e-6),
}
INTEGRAL_TOL = 1e-8

# The near-one connection (direct for `near_one`, after Pfaff for
# `pfaff` beyond z = -19) divides by Gamma(s) Gamma(-s) terms that blow
# up as its exponent s nears an integer, and jet coefficients of order
# k by (s - n)^(k+1).  Within LOG_CASE_GAP of an integer an op is
# flagged "log_case", with ROADMAP item 4's integer case itself.
LOG_CASE_GAP = 0.05

# A series is flagged "cancellation" when sum|t_k| / |sum t_k| of the
# series its route sums exceeds this (ROADMAP item 3: silent
# catastrophic cancellation); beyond it double precision may not meet
# the tolerances above.
KAPPA_FLAG = 1e4

# Finite-difference stencil for jet references: 2*FD_HALF + 1 points
# spaced h apart in the perturbed parameter, fitted exactly.  h is
# FD_SPAN / L, where L bounds d/da log F (it grows like log|z| and
# |log(1-z)|), so the stencil spans a region where F changes by a
# bounded factor.  A second fit at FD_ALT * h estimates the reference's
# own error; a check never asks for less than REF_MARGIN times that.
FD_HALF = 8
FD_SPAN = 0.2
FD_MAX_STEP = 0.1
FD_ALT = 0.7
REF_MARGIN = 10.0

SERIES_SIZE = len(TAGS) * SCALAR_PER_TAG + len(JET_ORDERS) * sum(JETS_PER_ORDER.values())
INTEGRAL_SIZE = 400
# Requests drawn from the engine's failure classes (see
# _binomial_defect): of the 200 [0, oo) requests, and of the 50 [0, 1]
# binomials.  Drawn at random about 5% and 3% fall there; a fixed count
# keeps `failed` steady from seed to seed.
DEFECT_HALFLINE = 10
DEFECT_UNIT = 2


def input_hash(ops) -> str:
    """Fingerprint of the generated inputs (references excluded)."""
    keys = ("tag", "order", "call", "family", "upper", "lower", "z", "jet",
            "argv", "to", "expr")
    canon = [{k: op[k] for k in keys if k in op} for op in ops]
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# small helpers


def _u(rng, lo, hi):
    return lo + (hi - lo) * rng.random()


def _strata(rng, n):
    """n pairs (s, alt): s in [0, 1), one in each of n equal slices;
    alt alternates 0/1 and picks between two families.

    Stratifying the cost-driving draw (|z|, excess) and balancing the
    families keeps the total work of a set nearly the same from seed to
    seed.
    """
    vals = [((i + rng.random()) / n, i % 2) for i in range(n)]
    rng.shuffle(vals)
    return vals


def _away_from_one(rng):
    # parameters that a closed form divides by (x - 1)
    return _u(rng, 0.15, 0.6) if rng.random() < 0.5 else _u(rng, 1.9, 2.8)


def _unit(theta):
    return complex(math.cos(theta), math.sin(theta))


def _pair(z):
    return [float(z.real), float(z.imag)]


def _cplx(p):
    return complex(p[0], p[1])


def _series_mul(u, v):
    n = len(u)
    return [sum(u[i] * v[m - i] for i in range(m + 1)) for m in range(n)]


def _series_exp(c0, logs):
    """exp of (log c0 + sum_k logs[k] e^k), truncated; logs[0] unused."""
    n = len(logs)
    out = [0j] * n
    out[0] = complex(c0)
    # f' = f * L'  =>  m f_m = sum_{k=1..m} k L_k f_{m-k}
    for m in range(1, n):
        out[m] = sum(k * logs[k] * out[m - k] for k in range(1, m + 1)) / m
    return out


def _taylor_fd(f, order, rate):
    """Taylor coefficients of f at 0 from an exact polynomial fit, and
    the largest change between fits at steps h and FD_ALT * h."""
    if order == 0:
        return [complex(f(0.0))], 0.0
    j = np.arange(-FD_HALF, FD_HALF + 1, dtype=float)
    vander = np.vander(j, 2 * FD_HALF + 1, increasing=True)
    step = min(FD_MAX_STEP, FD_SPAN / rate)
    fits = []
    for h in (step, FD_ALT * step):
        coef = np.linalg.solve(vander, np.array([complex(f(h * t)) for t in j]))
        fits.append([complex(coef[k]) / h**k for k in range(order + 1)])
    return fits[0], max(abs(u - v) for u, v in zip(*fits))


# ---------------------------------------------------------------------------
# scalar references


def ref_2f1(a, b, c, z):
    """scipy hyp2f1, moved by Pfaff when that shrinks the argument.

    scipy loses accuracy near |z| = 1 off the real axis; the Pfaff image
    z/(z-1) is well inside the disk there.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real < 1.0:
        return complex(sp.hyp2f1(a, b, c, z.real))
    w = z / (z - 1.0)
    if abs(w) < abs(z):
        return (1.0 - z) ** (-b) * complex(sp.hyp2f1(c - a, b, c, w))
    return complex(sp.hyp2f1(a, b, c, z))


def ref_3f2(a, b, c, z):
    """3F2(a, b, 1; c, 2; z) = (c-1)/((a-1)(b-1)z) (2F1(a-1, b-1; c-1; z) - 1)."""
    z = complex(z)
    return (c - 1.0) / ((a - 1.0) * (b - 1.0) * z) * (ref_2f1(a - 1, b - 1, c - 1, z) - 1.0)


def _gauss_log(a, b, c):
    # log of Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b)), real arguments
    return (sp.gammaln(c) + sp.gammaln(c - a - b) - sp.gammaln(c - a) - sp.gammaln(c - b),
            sp.gammasgn(c) * sp.gammasgn(c - a - b) * sp.gammasgn(c - a) * sp.gammasgn(c - b))


def ref_gauss_jet(a, b, c, order):
    """2F1(a+e, b; c; 1) in e through polygamma: d/da log = psi(c-a) - psi(c-a-b)."""
    lg, sgn = _gauss_log(a, b, c)
    logs = [0j] * (order + 1)
    for k in range(1, order + 1):
        # d^k/da^k log F = (-1)^k (psi^(k-1)(c-a-b) - psi^(k-1)(c-a))
        d = (-1) ** k * (sp.polygamma(k - 1, c - a - b) - sp.polygamma(k - 1, c - a))
        logs[k] = complex(d) / math.factorial(k)
    return _series_exp(sgn * math.exp(lg), logs)


def ref_3f2_one_jet(a, b, c, order):
    """3F2(a+e, b, 1; c, 2; 1) from the Gauss sum of 2F1(a-1+e, b-1; c-1; 1)."""
    g = ref_gauss_jet(a - 1, b - 1, c - 1, order)
    g[0] -= 1.0
    inv = [(-1) ** k / (a - 1.0) ** (k + 1) for k in range(order + 1)]
    pref = (c - 1.0) / (b - 1.0)
    return [pref * t for t in _series_mul(g, inv)]


def _scalar_ref(op, shift=0.0):
    """Value of the op's series with its jet parameter moved by `shift`."""
    up = list(op["upper"])
    lo = list(op["lower"])
    side, idx = op["jet"]
    (up if side == "upper" else lo)[idx] += shift
    z = _cplx(op["z"])
    fam = op["family"]
    if fam == "2F1":
        return ref_2f1(up[0], up[1], lo[0], z)
    if fam == "3F2":
        return ref_3f2(up[0], up[1], lo[0], z)
    arg = z.real if z.imag == 0.0 else z
    if fam == "1F1":
        return complex(sp.hyp1f1(up[0], lo[0], arg))
    if fam == "0F1":
        return complex(sp.hyp0f1(lo[0], arg))
    raise ValueError(fam)


def _terminating_exact(op):
    """Exact jet of 2F1(-n, b+e; c; z) and its condition sum|t|/|sum t|."""
    n = -int(op["upper"][0])
    b = Fraction(op["upper"][1])
    c = Fraction(op["lower"][0])
    z = Fraction(op["z"][0])
    width = op["order"] + 1
    term = [Fraction(1)] + [Fraction(0)] * (width - 1)
    total = list(term)
    absum = Fraction(1)
    for k in range(n):
        # t_{k+1} = t_k (-n+k)(b+k+e) z / ((c+k)(k+1))
        lin = [b + k, Fraction(1)] + [Fraction(0)] * (width - 2)
        term = _series_mul(term, lin[:width])
        s = Fraction(-n + k) * z / ((c + k) * (k + 1))
        term = [t * s for t in term]
        total = [t + u for t, u in zip(total, term)]
        absum += abs(term[0])
    kappa = float(absum / abs(total[0])) if total[0] != 0 else math.inf
    return [complex(float(t)) for t in total], kappa


def _abs_sum(upper, lower, z, cap=20000):
    """sum_k |t_k| of pFq(upper; lower; z), by the term ratio."""
    t, total, k = 1.0, 1.0, 0
    while k < cap:
        r = abs(z) / (k + 1.0)
        for a in upper:
            r *= abs(a + k)
        for c in lower:
            r /= abs(c + k)
        t *= r
        total += t
        k += 1
        if t <= 1e-18 * total or not math.isfinite(total):
            break
    return total


def _kappa(op, value):
    """sum|t_k| / |sum t_k| of the series the op's route sums, or None.

    For `pfaff` that is the moved series 2F1(c-a, b; c; z/(z-1)) while
    its argument stays in the directly summed range.
    """
    up, lo, z = op["upper"], op["lower"], _cplx(op["z"])
    if op["tag"] in ("direct", "entire", "wynn"):
        return _abs_sum(up, lo, z) / abs(value) if value else math.inf
    if op["tag"] == "pfaff":
        (a, b), c = up, lo[0]
        w = z / (z - 1.0)
        if abs(w) >= 0.95:
            return None
        moved = abs(value) * abs(1.0 - z) ** b
        return _abs_sum((c - a, b), (c,), w) / moved if moved else math.inf
    return None


def _connection_exponent(op):
    z = _cplx(op["z"])
    if op["family"] != "2F1" or z.imag != 0.0:
        return None
    (a, b), c = op["upper"], op["lower"][0]
    if z.real > 0.95:
        return c - a - b
    if z.real < -19.0:
        # Pfaff keeps b: 2F1(c-a, b; c; w) has c - (c-a) - b = a - b
        return a - b
    return None


def series_reference(op):
    """Reference jet coefficients and defect flag for one series op."""
    order = op["order"]
    fam = op["family"]
    kappa = None
    fd_err = 0.0
    if fam == "term":
        coeffs, kappa = _terminating_exact(op)
    elif op["call"] == "eval_at_one" and fam == "2F1":
        a, b = op["upper"]
        coeffs = ref_gauss_jet(a, b, op["lower"][0], order)
    elif op["call"] == "eval_at_one":
        a, b = op["upper"][:2]
        coeffs = ref_3f2_one_jet(a, b, op["lower"][0], order)
    else:
        z = _cplx(op["z"])
        rate = 1.0 + max(math.log1p(abs(z)), abs(math.log(abs(1.0 - z) or 1.0)))
        coeffs, fd_err = _taylor_fd(lambda s: _scalar_ref(op, s), order, rate)
        kappa = _kappa(op, coeffs[0])
    flag = op.get("defect")
    s = _connection_exponent(op)
    if flag is None and kappa is not None and kappa > KAPPA_FLAG:
        flag = "cancellation"
    elif flag is None and s is not None and abs(s - round(s)) < LOG_CASE_GAP:
        flag = "log_case"
    scale = max(1.0, max(abs(c) for c in coeffs))
    tol = SERIES_TOL[op["tag"]][min(order, 1)]
    return {"coeffs": [_pair(c) for c in coeffs], "kappa": kappa, "flag": flag,
            "tol": max(tol, REF_MARGIN * fd_err / scale)}


def series_error(got, ref) -> float:
    """Largest coefficient gap over max(1, largest reference coefficient).

    Relative above 1 and absolute below, as hypint's own stopping rules
    and `verify_identity` scale their residuals.
    """
    want = [_cplx(p) for p in ref["coeffs"]]
    scale = max(1.0, max(abs(w) for w in want))
    if len(got) != len(want):
        return math.inf
    gap = max(abs(complex(g) - w) for g, w in zip(got, want))
    return gap / scale if math.isfinite(gap) else math.inf


# ---------------------------------------------------------------------------
# series workload


def _op(tag, order, call, family, upper, lower, z, jet=("upper", 0), defect=None):
    return {
        "tag": tag,
        "order": order,
        "call": call,
        "family": family,
        "upper": [float(u) for u in upper],
        "lower": [float(c) for c in lower],
        "z": _pair(complex(z)),
        "jet": list(jet),
        "defect": defect,
    }


def _gen_direct(rng, order, s, alt, bad):
    r = 0.1 + 0.8 * s
    z = r * (_unit(_u(rng, -math.pi, math.pi)) if rng.random() < 0.5
             else rng.choice((1.0, -1.0)))
    if alt:
        return _op("direct", order, "eval_series", "2F1",
                   (_u(rng, 0.1, 2.5), _u(rng, 0.1, 2.5)), (_u(rng, 0.5, 4.0),), z)
    return _op("direct", order, "eval_series", "3F2",
               (_u(rng, 1.9, 2.8), _away_from_one(rng), 1.0),
               (_u(rng, 1.3, 4.0), 2.0), z)


def _gen_entire(rng, order, s, alt, bad):
    if bad and s < OVERFLOW_OPS / DEFECT_SCALARS["entire"]:
        # ROADMAP item 3: past z = -700 the terms of 1F1 (a >= b) overflow
        # and the loop grinds to its 10^6-term cap, ~1.5 s.  A fixed
        # number of such ops per set, so their cost does not vary with
        # the seed.
        return _op("entire", order, "eval_series", "1F1", (_u(rng, 2.0, 3.0),),
                   (_u(rng, 0.6, 2.0),), -_u(rng, 720.0, 745.0), defect="overflow")
    if bad:
        # ROADMAP item 3: 0F1(;1;-400), 1F1(1/2;3/2;-50)
        x = -(40.0 + 360.0 * s)
        defect = "cancellation"
    else:
        x = 10 ** (-1.0 + 2.5 * s) * rng.choice((1.0, -1.0))  # |z| from 0.1 to ~32
        defect = None
    if alt or order:
        # scipy's hyp1f1 is accurate on the real axis only; jets go on a
        return _op("entire", order, "eval_series", "1F1",
                   (_u(rng, 0.1, 3.0),), (_u(rng, 0.6, 3.5),), x, defect=defect)
    z = x if bad or rng.random() < 0.5 else abs(x) * _unit(_u(rng, -math.pi, math.pi))
    return _op("entire", order, "eval_series", "0F1", (), (_u(rng, 1.5, 4.0),), z,
               jet=("lower", 0), defect=defect)


def _gen_terminating(rng, order, s, alt, bad):
    # exact binary fractions so the rational reference sees the same inputs
    if bad:
        # ROADMAP item 3: 2F1(-60, 20; 3/2; 0.9)
        n = 30 + int(31 * s)
        b = rng.randint(160, 400) / 16
        z = rng.randint(32, 61) / 64
    else:
        n = 1 + int(12 * s)
        b = rng.randint(1, 40) / 16
        z = rng.randint(-128, 128) / 64
    c = rng.randint(8, 64) / 16
    return _op("terminating", order, "eval_series", "term", (-n, b), (c,), z,
               jet=("upper", 1), defect="cancellation" if bad else None)


def _gen_near_one(rng, order, s, alt, bad):
    a, b = _u(rng, 0.1, 2.5), _u(rng, 0.1, 2.5)
    if bad:
        # ROADMAP item 4: integer c-a-b, the logarithmic connection case
        c = a + b + rng.choice((0, 1))
        z = 0.95 + 0.049 * s
        return _op("near_one", order, "eval_series", "2F1", (a, b), (c,), z,
                   defect="log_case")
    c = a + b + _u(rng, -1.5, 2.5)
    if c < 0.3:
        c += 2.0
    z = 0.951 + 0.048 * s
    return _op("near_one", order, "eval_series", "2F1", (a, b), (c,), z)


def _gen_pfaff(rng, order, s, alt, bad):
    if bad:
        # ROADMAP item 4: 2F1(1,1;2;-1e8); integer a-b beyond z = -19
        b = _u(rng, 0.2, 2.0)
        a = b + rng.choice((0, 1))
        z = -(10 ** (1.5 + 6.5 * s))
        return _op("pfaff", order, "eval_series", "2F1", (a, b), (_u(rng, 0.5, 4.0),),
                   z, defect="log_case")
    z = -(0.9 * 10 ** (3.0 * s))
    return _op("pfaff", order, "eval_series", "2F1",
               (_u(rng, 0.1, 2.5), _u(rng, 0.1, 2.5)), (_u(rng, 0.5, 4.0),), z)


def _gen_wynn(rng, order, s, alt, bad):
    if bad:
        # ROADMAP item 4: 3F2 near 1 on the real axis (Li2(0.999) kind)
        z = 0.99 + 0.009 * s
        return _op("wynn", order, "eval_series", "3F2",
                   (_u(rng, 1.9, 2.8), _away_from_one(rng), 1.0),
                   (_u(rng, 1.3, 4.0), 2.0), z, defect="slow_tail")
    r = 0.95 + 0.04 * s
    if alt:
        z = r * _unit(_u(rng, -math.pi, math.pi))
        return _op("wynn", order, "eval_series", "3F2",
                   (_u(rng, 1.9, 2.8), _away_from_one(rng), 1.0),
                   (_u(rng, 1.3, 4.0), 2.0), z)
    theta = _u(rng, 0.15, math.pi - 0.15) * rng.choice((1.0, -1.0))
    return _op("wynn", order, "eval_series", "2F1",
               (_u(rng, 0.1, 2.5), _u(rng, 0.1, 2.5)), (_u(rng, 0.5, 4.0),),
               r * _unit(theta))


def _gen_boundary(rng, order, s, alt, bad):
    # |z| = 1 off the real axis is ROADMAP item 4's gap: Wynn does not
    # settle on the oscillating algebraic tail for most parameters, and
    # each such op fails after 1e5 terms.  Theta stays in [pi/3, pi),
    # where the Pfaff image lies inside the disk and the scipy reference
    # is accurate.  On the real axis z = -1 is Pfaff's route for a 2F1,
    # so the unflagged ops are 3F2 at z = -1.
    a, b = _u(rng, 1.9, 2.8), _away_from_one(rng)
    if bad:
        sigma = 0.25 + 0.5 * s
        z = _unit(_u(rng, math.pi / 3, math.pi - 0.05) * rng.choice((1.0, -1.0)))
        if alt:
            a, b = _u(rng, 0.1, 2.5), _u(rng, 0.1, 2.5)
            return _op("boundary", order, "eval_series", "2F1", (a, b),
                       (a + b + sigma,), z, defect="slow_tail")
        return _op("boundary", order, "eval_series", "3F2", (a, b, 1.0),
                   (a + b - 1.0 + sigma, 2.0), z, defect="slow_tail")
    sigma = 1.0 + 2.5 * s
    return _op("boundary", order, "eval_series", "3F2", (a, b, 1.0),
               (a + b - 1.0 + sigma, 2.0), -1.0)


def _gen_at_one(rng, order, s, alt, bad):
    if order == 0 and alt:
        # 3F2(a, b, 1; c, 2; 1) has excess c + 1 - a - b; Wynn route
        a, b = _u(rng, 1.9, 2.8), _away_from_one(rng)
        sigma = 1.0 + 2.0 * s
        return _op("at_one", order, "eval_at_one", "3F2", (a, b, 1.0),
                   (a + b - 1.0 + sigma, 2.0), 1.0)
    a, b = _u(rng, 0.1, 2.5), _u(rng, 0.1, 2.5)
    sigma = 0.2 + 2.8 * s
    return _op("at_one", order, "eval_at_one", "2F1", (a, b), (a + b + sigma,), 1.0)


_GEN = {
    "direct": _gen_direct,
    "entire": _gen_entire,
    "terminating": _gen_terminating,
    "near_one": _gen_near_one,
    "pfaff": _gen_pfaff,
    "wynn": _gen_wynn,
    "boundary": _gen_boundary,
    "at_one": _gen_at_one,
}


def series_ops(seed: int):
    """The `series` set: SERIES_SIZE ops, stratified by tag and jet order."""
    rng = random.Random("series:%d" % seed)
    ops = []
    for tag in TAGS:
        gen = _GEN[tag]
        nbad = DEFECT_SCALARS[tag]
        good = SCALAR_PER_TAG - nbad
        for s, alt in _strata(rng, nbad):
            ops.append(gen(rng, 0, s, alt, True))
        for s, alt in _strata(rng, good):
            ops.append(gen(rng, 0, s, alt, False))
        for order in JET_ORDERS:
            for s, alt in _strata(rng, JETS_PER_ORDER[tag]):
                ops.append(gen(rng, order, s, alt, False))
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


# ---------------------------------------------------------------------------
# integrals workload

class _Deck:
    """Seeded draws that use every value once before any repeats, so
    each value's share of a set is fixed to within one draw.  The
    integrands' cost depends mostly on the exponents; dealing them keeps
    the set's total work nearly the same from seed to seed."""

    def __init__(self, rng, values):
        self.rng = rng
        self.values = list(values)
        self.pool = []

    def draw(self):
        if not self.pool:
            self.pool = list(self.values)
            self.rng.shuffle(self.pool)
        return self.pool.pop()


_A = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
      Fraction(-1, 2), Fraction(-1, 3))
_P = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4))
_SMALL = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
          Fraction(3, 4), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2),
          Fraction(3))


def _q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else "(%d/%d)" % (x.numerator, x.denominator)


def _mono(a: Fraction) -> str:
    return "1" if a == 0 else "x" if a == 1 else "x^%s" % _q(a)


def _scaled_mono(c: Fraction, p: Fraction) -> str:
    return _mono(p) if c == 1 else "%s*%s" % (_q(c), _mono(p))


def _binomial_defect(a, p, b, c, to_inf):
    """The engine's known failure class for this request, or None.

    The antiderivative body is 2F1(b, u; u+1; -c x^p) with u = (a+1)/p;
    when b = u+1 the pair cancels to 1F0(u;; -c x^p).
    - [0, oo): upper parameters b and u differing by an integer >= 2
      make the limit at -oo logarithmic (LimitConditionError).
    - [0, 1]: the collapsed 1F0 has no continuation past |z| = 1, so
      c >= 1 is rejected as divergent.
    """
    d = b - (a + 1) / p
    if to_inf:
        return "congruence" if d.denominator == 1 and d >= 2 else None
    return "collapsed_1f0" if d == 1 and c >= 1 else None


def _binomial_case(rng, to_inf: bool, defect: bool, deck=None):
    """x^a / (1 + c x^p)^b, or its sqrt forms, with rational parameters,
    drawn inside (defect=True) or outside the engine's failure class.
    (a, p) comes from `deck` when given, else at random."""
    a, p = deck.draw() if deck else (rng.choice(_A), rng.choice(_P))
    while True:
        if not deck:
            a, p = rng.choice(_A), rng.choice(_P)
        b = rng.choice(_SMALL)
        c = rng.choice(_SMALL)
        u = (a + 1) / p
        if to_inf:
            # convergence at oo needs b > u
            if b <= u:
                continue
        elif rng.random() < 0.3 and not defect:
            c = -rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))
        if (_binomial_defect(a, p, b, c, to_inf) is not None) == defect:
            break
    base = "(1%s%s)" % ("+" if c > 0 else "-", _scaled_mono(abs(c), p))
    if b == Fraction(1, 2) and rng.random() < 0.5:
        den = "sqrt%s" % base
    elif b == 1:
        den = base
    else:
        den = "%s^%s" % (base, _q(b))
    if a == 0:
        expr = "1/%s" % den
    else:
        expr = "%s/%s" % (_mono(a), den)
    return expr, {"a": a, "p": p, "b": b, "c": c}


def _binomial_ref(a, p, b, c, to_inf):
    u = (a + 1) / p
    uf, bf, cf = float(u), float(b), float(c)
    if to_inf:
        # int_0^oo x^a (1 + c x^p)^-b dx = c^-u B(u, b-u) / p
        lb = sp.gammaln(uf) + sp.gammaln(bf - uf) - sp.gammaln(bf)
        return math.exp(lb) * cf ** (-uf) / float(p)
    # int_0^1 x^a (1 + c x^p)^-b dx = 2F1(b, u; u+1; -c) / (a+1)
    return float(sp.hyp2f1(bf, uf, uf + 1.0, -cf)) / float(a + 1)


def _sqrt_case(rng, deck):
    a, p = deck.draw()
    c = rng.choice(_SMALL + (Fraction(-1, 2), Fraction(-3, 4)))
    base = "1%s%s" % ("+" if c > 0 else "-", _scaled_mono(abs(c), p))
    mono = _mono(a)
    expr = "sqrt(%s)" % base if a == 0 else "%s*sqrt(%s)" % (mono, base)
    u = float((a + 1) / p)
    # int_0^1 x^a (1 + c x^p)^(1/2) dx = 2F1(-1/2, u; u+1; -c) / (a+1)
    ref = float(sp.hyp2f1(-0.5, u, u + 1.0, -float(c))) / float(a + 1)
    return expr, ref


def _arc_case(fn, deck, g_deck):
    a, m = deck.draw()
    g = g_deck.draw()
    inner = _scaled_mono(g, m)
    mono = _mono(a)
    expr = "%s(%s)" % (fn, inner) if a == 0 else "%s*%s(%s)" % (mono, fn, inner)
    af, mf, gf = float(a), float(m), float(g)
    v = (af + mf + 1.0) / (2.0 * mf)
    if fn == "arctan":
        # by parts: atan(g)/(a+1) - g m/(a+1) int_0^1 x^(a+m)/(1+g^2 x^2m)
        tail = sp.hyp2f1(1.0, v, v + 1.0, -gf * gf) / (af + mf + 1.0)
        ref = math.atan(gf) / (af + 1.0) - gf * mf / (af + 1.0) * tail
    else:
        # by parts, with the remaining integral an incomplete Beta function
        g2 = gf * gf
        tail = g2 ** (-v) / (2.0 * mf) * math.exp(sp.betaln(v, 0.5)) * sp.betainc(v, 0.5, g2)
        ref = math.asin(gf) / (af + 1.0) - gf * mf / (af + 1.0) * tail
    return expr, float(ref)


def integral_ops(seed: int):
    """The `integrals` set: INTEGRAL_SIZE CLI requests, half to [0, 1]."""
    rng = random.Random("integrals:%d" % seed)

    def deck(xs, ys, keep=lambda x, y: True):
        return _Deck(rng, [(x, y) for x in xs for y in ys if keep(x, y)])

    # [0, oo) needs some b in _SMALL above u = (a+1)/p
    halfline = deck(_A, _P, lambda a, p: (a + 1) / p < 2)
    unit = deck(_A, _P)
    sqrt = deck((Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(1, 3)),
                (Fraction(1), Fraction(2), Fraction(3)))
    arc = {fn: deck((Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)),
                    (Fraction(1), Fraction(2), Fraction(3)))
           for fn in ("arctan", "arcsin")}
    g_deck = _Deck(rng, (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
                         Fraction(3, 4), Fraction(9, 10)))
    ops = []
    half = INTEGRAL_SIZE // 2
    for i in range(half):
        bad = i < DEFECT_HALFLINE
        expr, prm = _binomial_case(rng, True, bad, None if bad else halfline)
        ops.append({"to": "inf", "expr": expr, "family": "binomial",
                    "ref": _binomial_ref(prm["a"], prm["p"], prm["b"], prm["c"], True),
                    "defect": _binomial_defect(prm["a"], prm["p"], prm["b"], prm["c"], True)})
    kinds = ("binomial", "sqrt", "arctan", "arcsin")
    for i in range(half):
        kind = kinds[i % len(kinds)]
        defect = None
        if kind == "binomial":
            bad = i < len(kinds) * DEFECT_UNIT
            expr, prm = _binomial_case(rng, False, bad, None if bad else unit)
            ref = _binomial_ref(prm["a"], prm["p"], prm["b"], prm["c"], False)
            defect = _binomial_defect(prm["a"], prm["p"], prm["b"], prm["c"], False)
        elif kind == "sqrt":
            expr, ref = _sqrt_case(rng, sqrt)
        else:
            expr, ref = _arc_case(kind, arc[kind], g_deck)
        ops.append({"to": "1", "expr": expr, "family": kind, "ref": ref, "defect": defect})
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
        op["argv"] = ["integrate", op["expr"], "--from", "0", "--to", op["to"],
                      "--oracle", "--json"]
    return ops


def integral_error(value, ref) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)
