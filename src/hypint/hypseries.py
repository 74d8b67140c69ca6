"""Generalized hypergeometric series with jet parameters.

A PFQSpec describes the function x -> pFq(a; c; scale * x^power).
Parameters are jets, so a single evaluation carries all requested
parameter derivatives; coefficient extraction afterwards is the
bracket-operator differentiation used by the representation catalog and
the integration drivers.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .jets import DEFAULT_ORDER, Jet, _jet, _magnitude, as_jet, jet_exp, jet_pow
from .numkernel import _gamma_jet_product
from .numkernel import _is_nonpositive_integer, gamma_product, pochhammer

__all__ = [
    "SeriesError",
    "DivergentError",
    "ConvergenceError",
    "TermOverflowError",
    "PrecisionLossError",
    "LimitConditionError",
    "AsymptoticTerm",
    "PFQSpec",
    "Moved",
    "pfaff",
    "gauss_near_one",
    "route",
    "eval_series",
    "value_at_zero",
    "eval_at_one",
    "limit_at_minus_infinity",
    "cancel_parameters",
]

DEFAULT_TOL = 1e-12
TERM_CAP = 1_000_000
AT_ONE_CAP = 100_000
_FIRST_CHECKPOINT = 64
_BLOCK_CAP = 4096
# |arg z| from which a sum at 0.95 <= |z| <= 1 goes to Levin's transform
# first; closer to z = 1 its weights amplify rounding past what Wynn's
# epsilon loses
_LEVIN_MIN_ANGLE = 0.6
# Levin's transform reads the terms t_0 .. t_40 and starts at s_10
_LEVIN_START, _LEVIN_LAST = 10, 40
# the longest terminating sum that a cancellation sends to exact rationals
_EXACT_MAX_DEGREE = 1000
# the rounding of a float sum: up to this times sum|t_k|
_ULP = 2.0**-53


class SeriesError(Exception):
    """Base class for evaluation failures."""


class DivergentError(SeriesError):
    """Argument outside the convergence domain (no transform applies)."""


class ConvergenceError(SeriesError):
    """Term cap or acceleration budget exhausted before reaching tol."""


class TermOverflowError(SeriesError):
    """A term or partial sum left the double range; `k` is its index."""

    def __init__(self, k: int, message: str):
        self.k = k
        super().__init__(message)


class PrecisionLossError(SeriesError):
    """The float sum cancels past double precision and no exact re-sum applies."""


class LimitConditionError(SeriesError):
    """A precondition of the minus-infinity limit lemma failed."""

    def __init__(self, clause: str, message: str):
        self.clause = clause
        super().__init__("%s: %s" % (clause, message))


@dataclass(frozen=True)
class AsymptoticTerm:
    """Leading behavior at -oo: (-z)^exponent * F(z) -> coefficient.

    For a nonterminating series the coefficient is the Gamma quotient
    prod Gamma(gamma_numerator) / prod Gamma(gamma_denominator).  A
    terminating series has a Pochhammer ratio instead and leaves both
    tuples None.
    """

    exponent: Jet
    coefficient: Jet
    gamma_numerator: Optional[tuple] = None
    gamma_denominator: Optional[tuple] = None


ParamLike = Union[int, float, complex, Jet]


@dataclass(frozen=True)
class PFQSpec:
    upper: tuple
    lower: tuple
    scale: complex = 1.0 + 0j
    power: Fraction = Fraction(1)
    order: Optional[int] = None

    def __post_init__(self):
        params = (*self.upper, *self.lower)
        jets = [p for p in params if isinstance(p, Jet)]
        order = self.order
        if jets:
            inferred = jets[0].order
            if any(j.order != inferred for j in jets):
                raise ValueError(
                    "parameters mix jet orders %s" % sorted({j.order for j in jets})
                )
            if order is None:
                order = inferred
            elif inferred != order:
                raise ValueError(
                    "declared order %d but jets have %d" % (order, inferred)
                )
        elif order is None:
            order = DEFAULT_ORDER
        if len(jets) < len(params):
            # a plain parameter becomes the constant jet as_jet builds
            zeros = (0j,) * order
            params = tuple([
                p if isinstance(p, Jet) else _jet((complex(p),) + zeros)
                for p in params
            ])
        ups, lows = params[: len(self.upper)], params[len(self.upper) :]
        if len(ups) > len(lows) + 1:
            raise ValueError(
                "series needs p <= q+1, got p=%d q=%d" % (len(ups), len(lows))
            )
        for c in lows:
            if _is_nonpositive_integer(c.coeffs[0]):
                raise ValueError(
                    "lower parameter with base %s sits on a pole" % c.coeffs[0]
                )
        power = self.power if isinstance(self.power, Fraction) else Fraction(self.power)
        if power == 0:
            raise ValueError("power must be nonzero")
        # the frozen fields, normalized in one write past __setattr__
        self.__dict__.update(
            upper=ups, lower=lows, scale=complex(self.scale), power=power,
            order=order,
        )

    @property
    def p(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)

    @property
    def sigma(self) -> Jet:
        """Parameter excess sum(lower) - sum(upper), as a jet."""
        s = as_jet(0, self.order)
        for c in self.lower:
            s = s + c
        for a in self.upper:
            s = s - a
        return s

    @property
    def all_scalar(self) -> bool:
        return all(p.is_scalar for p in (*self.upper, *self.lower))

    def argument(self, x: complex) -> complex:
        """The series argument scale * x^power."""
        x = complex(x)
        if x == 0:
            if self.power > 0:
                return 0j
            raise ZeroDivisionError("x = 0 with negative power")
        b = self.power
        if b.denominator == 1:
            xp = x ** int(b)
        elif x.imag == 0.0 and x.real > 0.0:
            xp = complex(x.real ** float(b))
        else:
            xp = cmath.exp(float(b) * cmath.log(x))
        return self.scale * xp

    def terminating_degree(self) -> Optional[int]:
        degs = [
            -int(a.value.real)
            for a in self.upper
            if _is_nonpositive_integer(a.value) and a.is_scalar
        ]
        return min(degs) if degs else None

    def describe(self) -> str:
        def one(j: Jet) -> str:
            if j.is_scalar:
                v = j.value
                return "%g" % v.real if v.imag == 0 else repr(v)
            return repr(j)

        return "%dF%d(%s; %s)" % (
            self.p,
            self.q,
            ", ".join(one(a) for a in self.upper),
            ", ".join(one(c) for c in self.lower),
        )


def value_at_zero(spec: PFQSpec) -> Jet:
    """Every pFq equals 1 at the origin."""
    return as_jet(1, spec.order)


def cancel_parameters(spec: PFQSpec) -> PFQSpec:
    """Remove upper/lower pairs that are exactly equal jets.

    Applied after parameter augmentation so that integrands whose new
    parameter collides with an existing one collapse to the smaller
    series they print as.
    """
    lows = list(spec.lower)
    ups = []
    for a in spec.upper:
        if a in lows:
            lows.remove(a)
        else:
            ups.append(a)
    if len(ups) == len(spec.upper):
        return spec
    return PFQSpec(tuple(ups), tuple(lows), spec.scale, spec.power, spec.order)


# ---------------------------------------------------------------------------
# summation cores


def _overflow(name: str, z: complex, k: int) -> TermOverflowError:
    return TermOverflowError(
        k, "term or partial sum %d of %s at %r left the double range" % (k, name, z)
    )


def _mul_matrix(c: np.ndarray) -> np.ndarray:
    """The matrix T with x @ T = x * c, for rows x of truncated jets."""
    w = len(c)
    t = np.zeros((w, w), dtype=c.dtype)
    for i in range(w):
        t[i, i:] = c[: w - i]
    return t


def _nilpotent_exp(logs: np.ndarray) -> np.ndarray:
    """exp of each row of `logs`, a truncated jet with zero constant part.

    From E' = L'E: e * E_e = sum over i = 1..e of i * L_i * E_(e-i).
    """
    width = logs.shape[1]
    dl = logs * np.arange(width)
    out = np.empty_like(logs)
    out[:, 0] = 1.0
    for e in range(1, width):
        out[:, e] = sum(dl[:, i] * out[:, e - i] for i in range(1, e + 1)) / e
    return out


class _Terms:
    """The terms of one series in numpy blocks, from a running state.

    A term is t_k = T_k * exp(L_k) * M_k.  T_k is the running product of
    the scalar term ratios.  L_k is the running sum of the jet logs
    log(1 + delta/(b + j)) of the ratio factors b + j + delta, upper
    ones added and lower ones subtracted.  M_k is the product of the
    factors taken whole: each jet parameter's factor at the one j, if
    any, where b + j lies within 1/2 of zero.  There the log would cancel
    catastrophically, and at a zero base, as in 2F1(eps, eps; 1; z), it
    does not exist.  With scalar parameters only, L and M stay trivial
    and a block is t * cumprod(ratio); `scalar` says so up front.  Each
    of T_n's n ratios adds a few roundings, so it drifts by about
    sqrt(n) ulp: 2e-14 by term 65536.
    """

    # each term is the one before times a finite ratio
    running = True

    def __init__(self, spec: PFQSpec, z: complex, t: complex, real: bool,
                 scalar: bool):
        dtype = float if real else complex
        cast = (lambda v: v.real) if real else complex
        width = spec.order + 1
        self.z, self.t = cast(z), cast(t)
        self.log, self.mult, self.powers = 0.0, None, np.arange(1, width)
        # (base, +1 upper / -1 lower, log coefficients or None, j taken whole)
        self.factors = []
        whole: dict = {}
        for sign, params in ((1, spec.upper), (-1, spec.lower)):
            for p in params:
                b = cast(p.value)
                logs = j0 = None
                if not (scalar or p.is_scalar):
                    jet = np.array([cast(c) for c in p.coeffs], dtype)
                    nil = jet.copy()
                    nil[0] = 0.0
                    step = _mul_matrix(nil)
                    power, rows = np.eye(width, dtype=dtype)[0], []
                    for m in range(1, width):
                        # log(1 + delta*w) = sum of (-1)^(m+1) delta^m w^m / m
                        power = power @ step
                        rows.append(sign * (-1) ** (m + 1) / m * power)
                    logs = np.array(rows)
                    near = round(-b.real)
                    if near >= 0 and abs(b + near) < 0.5:
                        j0 = near
                        jet[0] = b + near
                        factor = _mul_matrix(jet)
                        if sign < 0:
                            factor = np.linalg.inv(factor)
                        whole.setdefault(j0, []).append(factor)
                self.factors.append((b, sign, logs, j0))
        # (j, the scalar ratio at j without the factors taken whole, their product)
        self.events = []
        for j0, mats in sorted(whole.items()):
            ratio = self.z / (j0 + 1.0)
            for b, sign, _, at in self.factors:
                if at != j0:
                    ratio = ratio * (b + j0) if sign > 0 else ratio / (b + j0)
            self.events.append((j0, ratio, functools.reduce(np.matmul, mats)))

    def block(self, k0: int, m: int) -> np.ndarray:
        """Terms k0+1 .. k0+m as the rows of an (m, columns) array."""
        k = np.arange(k0, k0 + m, dtype=float)
        r = self.z / (k + 1.0)
        logs = None
        for b, sign, coeffs, j0 in self.factors:
            d = k + b
            if sign > 0:
                r *= d
            else:
                r /= d
            if coeffs is not None:
                w = 1.0 / d
                if j0 is not None and k0 <= j0 < k0 + m:
                    w[j0 - k0] = 0.0
                part = (w[:, None] ** self.powers) @ coeffs
                logs = part if logs is None else logs + part
        hits = [(j0 - k0, ratio, step) for j0, ratio, step in self.events
                if k0 <= j0 < k0 + m] if self.events else ()
        for i, ratio, _ in hits:
            r[i] = ratio
        t = self.t * np.cumprod(r)
        self.t = t[-1]
        if logs is None:
            return t[:, None]
        logs = self.log + np.cumsum(logs, axis=0)
        self.log = logs[-1]
        blk = t[:, None] * _nilpotent_exp(logs)
        if self.mult is not None:
            blk = blk @ self.mult
        for i, _, step in hits:
            blk[i:] = blk[i:] @ step
            self.mult = step if self.mult is None else self.mult @ step
        return blk


def _row_norm(x: np.ndarray) -> np.ndarray:
    """The largest coefficient modulus of each row."""
    mag = np.abs(x)
    # one column is the scalar case, where a reduction only costs time
    return mag[:, 0] if mag.shape[1] == 1 else mag.max(axis=1)


def _fsum(parts: list, real: bool, overflow, k: int) -> complex:
    """math.fsum of `parts`, by real and imaginary part unless `real`; a
    sum past the double range raises overflow(k)."""
    try:
        s = complex(math.fsum(parts)) if real else complex(
            math.fsum([x.real for x in parts]), math.fsum([x.imag for x in parts]))
    except OverflowError:
        raise overflow(k) from None
    if not cmath.isfinite(s):
        raise overflow(k)
    return s


def _is_real(spec: PFQSpec, z: complex) -> bool:
    """True when z and every parameter coefficient are real."""
    return z.imag == 0.0 and all(
        x.imag == 0.0 for p in (*spec.upper, *spec.lower) for x in p.coeffs
    )


def _partials(spec: PFQSpec, z: complex, limit: int, tol=None):
    """Partial sums of a direct or terminating series, up to `limit` terms.

    Yields (n, S_n, mag, stopped), with n the number of terms summed,
    S_n the order+1 jet coefficients of the partial sum and mag the sum
    of |t_k| over those terms, |.| the largest coefficient modulus.
    With scalar parameters the first _FIRST_CHECKPOINT terms run
    through the per-term recurrence, so a short series never touches
    numpy, and are summed once by math.fsum; a jet series starts from
    its first term alone.
    _block_partials sums the rest from _Terms blocks.  With `tol`, the
    sum stops after two consecutive tiny terms past the first, tiny as
    _block_partials says.  Sums at |z| near or at 1 have no per-term
    head: they read _checkpoints.
    """

    def overflow(k: int) -> TermOverflowError:
        return _overflow(spec.describe(), z, k)

    small = stopped = False
    n, mag = 1, 1.0
    scalar = spec.all_scalar
    # real inputs keep the terms in float, at a fraction of the cost of
    # complex: with zero imaginary parts complex * and / give the same
    # real parts, so the sums, the stop index and the overflow index agree
    real = _is_real(spec, z)
    t = 1.0 if real else 1.0 + 0j
    # the stop test reads the plain running sum
    head, total = [t], t
    if scalar:
        a = [p.value for p in spec.upper]
        c = [p.value for p in spec.lower]
        w, isfinite = z, cmath.isfinite
        if real:
            a = [v.real for v in a]
            c = [v.real for v in c]
            w, isfinite = z.real, math.isfinite
        n = min(_FIRST_CHECKPOINT, limit)
        for k in range(1, n):
            j = k - 1
            num = w
            for ai in a:
                num *= ai + j
            den = float(k)
            for cj in c:
                den *= cj + j
            prev, t = t, t * num / den
            if not isfinite(t):
                # t * num can leave the double range where the term does not
                t = prev * (num / den)
                if not isfinite(t):
                    raise overflow(k)
            at = abs(t)
            mag += at
            head.append(t)
            total += t
            if tol is not None:
                if at <= tol * max(1.0, abs(total)):
                    if not isfinite(total):
                        # an overflowed sum, not a scale that makes t tiny
                        raise overflow(k)
                    if small:
                        n, stopped = k + 1, True
                        break
                    small = True
                else:
                    small = False
    sums = (_fsum(head, real, overflow, n - 1),) + (0j,) * spec.order
    yield n, sums, mag, stopped
    if not stopped and n < limit:
        terms = _Terms(spec, z, t, real, scalar)
        yield from _block_partials(terms, sums, n, limit, tol, 2, int(small),
                                   overflow, mag)


def _running_norms(sums: tuple, blk: np.ndarray, real: bool) -> np.ndarray:
    """_row_norm of each partial sum through the rows of `blk`, from `sums`."""
    now = np.array(sums[: blk.shape[1]])
    return _row_norm((now.real if real else now) + np.cumsum(blk, axis=0))


def _tail_tiny(size, scale, k, bound):
    """Whether |t_k| r_k / (1 - r_k) <= scale, r_k = |z| (1 + g/k).

    `bound` is (|z|, g); numbers or numpy arrays alike.
    """
    r = bound[0] * (1.0 + bound[1] / k)
    return size * r <= scale * (1.0 - r)


def _block_partials(terms, first, n: int, limit: int, tol, run: int,
                    small: int, overflow, mag: Optional[float] = None,
                    bound=None):
    """Partial sums over the blocks of a term source, up to `limit` terms.

    `terms.block(k0, m)` gives terms k0+1 .. k0+m as the rows of an
    array with one column per jet coefficient; a float array promises
    that every term so far was real.  `first` holds the sums of the
    first n terms, a number per column, and `mag` the sum of their
    |t_k|, |.| the largest coefficient modulus, or None to leave it
    untracked.  Blocks end at 64 terms, then double in length up to
    _BLOCK_CAP, so every power-of-two count from 64 on ends a block.
    S_n is math.fsum of the first sum and each block's math.fsum.
    Yields (n, S_n, mag, stopped) after each block.

    With `tol`, the sum stops after `run` consecutive tiny terms, the
    first `small` of them carried in, and yields stopped=True.  A term
    t_k is tiny when |t_k| <= tol * max(1, |S_k|).  With `bound` =
    (|z|, g) the geometric tail it starts, |t_k| r_k / (1 - r_k) with
    the term ratio bound r_k = |z| (1 + g/k), must be that small too,
    and the sum stops only where its rounding, 2^-53 sum|t_k|, is that
    small as well; a stop that fails this last test ends the stopping
    for the rest of the sum.  A non-finite term or partial sum raises
    overflow(k), k its index.
    """
    sums = tuple(map(complex, first))
    # per column: the first sum, then each block's math.fsum
    parts = [[s] for s in sums]
    carry = np.ones(small, bool)
    while n < limit:
        if n < _FIRST_CHECKPOINT:
            m = _FIRST_CHECKPOINT - n
        else:
            m = min(n, _BLOCK_CAP)
        m = min(m, limit - n)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            blk = terms.block(n - 1, m)
            real = blk.dtype.kind == "f"
            bad = None
            if terms.running and blk.shape[1] == 1:
                # a running product of finite ratios keeps a non-finite
                # term non-finite: the last term tells
                if not cmath.isfinite(blk[-1, 0]):
                    bad = int(np.argmin(np.isfinite(blk[:, 0])))
                    blk = blk[:bad]
            elif not np.isfinite(blk).all():
                bad = int(np.argmin(np.isfinite(blk).all(axis=1)))
                blk = blk[:bad]
            norms = None if tol is None and mag is None else _row_norm(blk)
            stop = None
            if tol is not None:
                size = _running_norms(sums, blk, real)
                # a partial sum past the double range is an overflow, not
                # a scale that makes every term look small
                if size.size and not np.isfinite(size[-1]):
                    bad = int(np.argmin(np.isfinite(size)))
                    blk, size, norms = blk[:bad], size[:bad], norms[:bad]
                scale = tol * np.maximum(1.0, size)
                tiny = norms <= scale
                if bound is not None and tiny.any():
                    tiny &= _tail_tiny(norms, scale, np.arange(n, n + len(blk)), bound)
                if tiny.any():
                    # ANDed shifted copies: hit[i] says entries i ..
                    # i+run-1 of the carried and new flags are all tiny
                    ext = np.concatenate((carry, tiny))
                    hit = ext[run - 1 :]
                    for d in range(1, run):
                        hit = hit & ext[run - 1 - d :][: len(hit)]
                    if hit.any():
                        stop = int(np.argmax(hit)) + run - 1 - len(carry)
                        if (bound is not None
                                and (mag + norms[: stop + 1].sum()) * _ULP
                                > scale[stop]):
                            # the terms cancel past double precision
                            tol = stop = None
                    carry = ext[1 - run :]
                else:
                    carry = tiny[:0]
        if stop is not None:
            blk, norms = blk[: stop + 1], norms[: stop + 1]
        elif bad is not None:
            raise overflow(n + bad)
        try:
            if real:
                for col, p in zip(blk.T.tolist(), parts):
                    p.append(math.fsum(col))
            else:
                for col, p in zip(blk.T, parts):
                    p.append(complex(math.fsum(col.real.tolist()),
                                     math.fsum(col.imag.tolist())))
            sums = tuple([_fsum(p, False, overflow, n + len(blk) - 1)
                          for p in parts])
        except (OverflowError, TermOverflowError):
            # neither sum tells which partial sum left the range first;
            # `sums` still holds the sums before this block
            with np.errstate(over="ignore", invalid="ignore"):
                past = np.flatnonzero(~np.isfinite(_running_norms(sums, blk, real)))
            raise overflow(n + (int(past[0]) if past.size else len(blk) - 1)) from None
        n += len(blk)
        if mag is not None:
            mag += float(norms.sum())
        yield n, sums, mag, stop is not None
        if stop is not None:
            return


def _direct_sum(spec: PFQSpec, z: complex, tol: float, cap: int) -> Jet:
    for _, s, _, stopped in _partials(spec, z, cap + 1, tol):
        if stopped:
            return _jet(s)
    raise ConvergenceError(
        "no convergence in %d terms for %s at %r" % (cap, spec.describe(), z)
    )


def _sum_terminating(spec: PFQSpec, z: complex, tol: float) -> Jet:
    """The polynomial's n+1 terms summed in floats.

    A scalar sum whose cancellation ratio sum|t_k| / |sum t_k| leaves
    less than tol of its 53 bits is summed again exactly
    (`_exact_terminating`, whose cost grows like n^2: 0.2 s at degree
    1000) up to degree _EXACT_MAX_DEGREE, and raises PrecisionLossError
    beyond it; jets keep the float sum.
    """
    n = spec.terminating_degree()
    for _, s, mag, _ in _partials(spec, z, n + 1):
        pass
    if n > 0 and spec.all_scalar and mag * _ULP > tol * abs(s[0]):
        if n > _EXACT_MAX_DEGREE:
            raise PrecisionLossError(
                "the %d terms of %s at %r cancel past double precision "
                "(sum |t_k| = %.3g, sum = %.3g)"
                % (n + 1, spec.describe(), z, mag, abs(s[0]))
            )
        return as_jet(_exact_terminating(spec, z, n), spec.order)
    return _jet(s)


def _gaussian(x: complex) -> tuple:
    """x as (re, im, d): Gaussian integer re + i im over d > 0, exactly.

    A double is a dyadic rational, so Fraction(x) loses nothing.
    """
    re, im = Fraction(x.real), Fraction(x.imag)
    d = math.lcm(re.denominator, im.denominator)
    return (re.numerator * (d // re.denominator),
            im.numerator * (d // im.denominator), d)


def _exact_terminating(spec: PFQSpec, z: complex, n: int) -> complex:
    """The sum of terms 0 .. n in exact rational arithmetic, rounded once.

    The term ratio at k is r_k = u_k / v_k with Gaussian integers u_k
    and v_k.  Nested from the inside, 1 + r_0 (1 + r_1 (... r_(n-1))),
    the sum stays one quotient P/Q of Gaussian integers, with no gcd
    until the last division.
    """

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    zg = _gaussian(z)
    ups = [_gaussian(a.value) for a in spec.upper]
    lows = [_gaussian(c.value) for c in spec.lower]
    p, q = (1, 0), (1, 0)
    for k in range(n - 1, -1, -1):
        u, v = (zg[0], zg[1]), (zg[2] * (k + 1), 0)
        for re, im, d in ups:
            u = mul(u, (re + k * d, im))
            v = (v[0] * d, v[1] * d)
        for re, im, d in lows:
            u = (u[0] * d, u[1] * d)
            v = mul(v, (re + k * d, im))
        # P/Q <- 1 + (u/v)(P/Q) = (vQ + uP) / (vQ)
        vq = mul(v, q)
        up = mul(u, p)
        p, q = (vq[0] + up[0], vq[1] + up[1]), vq
    # P/Q = P conj(Q) / |Q|^2
    norm = q[0] * q[0] + q[1] * q[1]
    return complex(Fraction(p[0] * q[0] + p[1] * q[1], norm),
                   Fraction(p[1] * q[0] - p[0] * q[1], norm))


def _wynn_epsilon(seq: Sequence[complex]) -> complex:
    """Last entry of the highest even column of the epsilon table."""
    for j in range(len(seq) - 1):
        if seq[j + 1] == seq[j]:
            return seq[j]
    prev = [0j] * (len(seq) + 1)
    cur = list(seq)
    best = cur[-1]
    col = 0
    while len(cur) >= 2:
        nxt = []
        ok = True
        for j in range(len(cur) - 1):
            d = cur[j + 1] - cur[j]
            if d == 0 or not (abs(d) < math.inf):
                ok = False
                break
            nxt.append(prev[j + 1] + 1.0 / d)
        if not ok:
            break
        prev, cur = cur, nxt
        col += 1
        if col % 2 == 0 and cur:
            b = cur[-1]
            if abs(b) < math.inf:
                best = b
    return best


def _checkpoints(spec: PFQSpec, z: complex, cap: int, tol=None, bound=None):
    """The partial sums at the term counts 64*2^j within `cap`.

    Yields (S_n, False) at each checkpoint, S_n a plain number for a
    spec with scalar parameters and a jet otherwise.  Boundary tails
    decay algebraically, like n^(-sigma), and the geometric spacing
    turns them into linearly convergent sequences.  The sums come
    straight from _block_partials over one _Terms source, from the first
    term on, with no per-term head.  With `tol` the plain sum may stop
    first, as _block_partials says with `tol` and `bound`; it then
    yields (S_n, True) and ends.
    """

    def overflow(k: int) -> TermOverflowError:
        return _overflow(spec.describe(), z, k)

    scalar = spec.all_scalar
    terms = _Terms(spec, z, 1.0, _is_real(spec, z), scalar)
    # the first term, 1, and zeros for a jet's other coefficients
    first = (1.0,) + (0.0,) * (0 if scalar else spec.order)
    # the last checkpoint within `cap` terms past the first: terms past
    # it could never reach another
    limit = _FIRST_CHECKPOINT
    while 2 * limit <= cap + 1:
        limit *= 2
    # sum|t_k| is read only by the floor of the stop with `bound`
    mag = None if bound is None else 1.0
    for n, s, _, stopped in _block_partials(terms, first, 1, limit, tol, 2, 0,
                                            overflow, mag, bound):
        if stopped or not n & (n - 1):
            yield (s[0] if scalar else _jet(s)), stopped


def _accelerated_sum(spec: PFQSpec, z: complex, tol: float, cap: int) -> Jet:
    """The sum for |z| near or at 1, by the plain sum or by Wynn's epsilon.

    One pass over the checkpoints carries two stops and returns at
    whichever settles first.  Inside the disk the plain sum stops where
    the geometric tail after its last term is below tol * max(1, |S|),
    with the term ratio bounded near the stopping index k by
    r_k = |z| (1 + g/k), g = max(0, Re sum(a) - Re sum(b) - 1), and only
    where the rounding 2^-53 sum|t_k| is below it too; a sum that fails
    that floor cancels past double precision and runs on by Wynn alone
    (F. Johansson, ACM TOMS 45, 2019, arXiv:1606.06977).  On |z| = 1
    there is no such stop.

    Wynn's epsilon extrapolates the checkpoints, per jet coefficient,
    and stops when two consecutive estimates agree within
    tol * max(1, |.|).  The table amplifies the rounding of the
    checkpoints a hundredfold and more.
    """

    def estimate(snaps: list):
        if isinstance(snaps[0], Jet):
            return _jet(tuple(map(_wynn_epsilon, zip(*(s.coeffs for s in snaps)))))
        return _wynn_epsilon(snaps)

    az = abs(z)
    bound = None
    if abs(az - 1.0) > 1e-14:
        excess = (sum(a.value.real for a in spec.upper)
                  - sum(c.value.real for c in spec.lower))
        bound = (az, max(0.0, excess - 1.0))
    snapshots: list = []
    prev_est = None
    for snap, stopped in _checkpoints(spec, z, cap, tol if bound else None, bound):
        if stopped:
            return as_jet(snap, spec.order)
        snapshots.append(snap)
        # estimates start from 4 checkpoints; the first is formed when a
        # second can be compared with it, so a plain sum that stops
        # before the fifth checkpoint never runs the table
        if len(snapshots) >= 5:
            if prev_est is None:
                prev_est = estimate(snapshots[:-1])
            est = estimate(snapshots)
            if _magnitude(est - prev_est) / max(1.0, _magnitude(est)) <= tol:
                return as_jet(est, spec.order)
            prev_est = est
    raise ConvergenceError(
        "acceleration did not stabilize within %d terms for %s at %r"
        % (cap, spec.describe(), z)
    )


@functools.cache
def _levin_weights() -> np.ndarray:
    """Row k: (-1)^j C(k,j) ((n0+1+j)/(n0+1+k))^(k-1) for j <= k, else 0."""
    size = _LEVIN_LAST - _LEVIN_START + 1
    out = np.zeros((size, size))
    for k in range(size):
        for j in range(k + 1):
            out[k, j] = (-1) ** j * math.comb(k, j) * (
                (_LEVIN_START + 1 + j) / (_LEVIN_START + 1 + k)
            ) ** (k - 1)
    out.setflags(write=False)
    return out


def _levin_sum(spec: PFQSpec, z: complex, tol: float) -> Jet:
    """The sum on or just inside |z| = 1, z != 1, by Levin's u-transform
    of the 41 terms t_0 .. t_40.

    Off z = 1 the term ratio tends to z and the tail after n terms is
    z^n n^(-sigma) times a series in 1/n, the remainder the u-transform
    models with omega_n = (n+1) t_n (D. Levin, Int. J. Comput. Math. B3,
    1973; E. J. Weniger, Comput. Phys. Rep. 10, 1989, eq. 7.1-7).  Over
    the window of partial sums s_n0 .. s_40, n0 = 10,

        L_k = sum_j (-1)^j C(k,j) w_jk s_(n0+j) / omega_(n0+j)
              / sum_j (-1)^j C(k,j) w_jk / omega_(n0+j),

    w_jk = ((n0+1+j)/(n0+1+k))^(k-1).  Each jet coefficient is a series
    of its own with its own omega; one whose last term is zero is
    constant from there on, and its partial sum is its value.  Stops at
    the first k >= 3 with |L_k - L_(k-1)| <= tol * max(1, |L_k|), |.|
    the largest coefficient modulus, and raises ConvergenceError when no
    k does or when the 41 terms cancel past double precision.  The
    weights amplify rounding by about (2/|1-z|)^k, so near z = 1 the
    caller sums by Wynn instead.
    """
    terms = _Terms(spec, z, 1.0, _is_real(spec, z), spec.all_scalar)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        blk = terms.block(0, _LEVIN_LAST)
    t = np.concatenate((np.eye(1, blk.shape[1], dtype=blk.dtype), blk))
    finite = np.isfinite(t).all(axis=1)
    if not finite.all():
        raise _overflow(spec.describe(), z, int(np.argmin(finite)))
    # L_k moves with a constant added to every s_n, so the window holds
    # s_n - s_40 = -(t_(n+1) + ... + t_40): rounding then scales with
    # the tail, not with the sum
    after = np.cumsum(t[::-1], axis=0)[::-1]
    last = after[0]
    dev = -np.concatenate((after[_LEVIN_START + 1 :], np.zeros_like(t[:1])))
    omega = t[_LEVIN_START:] * np.arange(_LEVIN_START + 1, _LEVIN_LAST + 2)[:, None]
    # a column that ends the window on a zero term stays zero: all its
    # terms past the first vanish (a nilpotent coefficient) or have
    # underflowed
    live = omega[-1] != 0
    if not (omega[:, live] != 0).all():
        raise ConvergenceError(
            "a zero term in the Levin window of %s at %r" % (spec.describe(), z)
        )
    # row k is L_k
    est = np.repeat(last[None, :], len(dev), axis=0)
    weights = _levin_weights()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        inv = 1.0 / omega[:, live]
        est[:, live] += (weights @ (dev[:, live] * inv)) / (weights @ inv)
    size = _row_norm(est)
    diff = _row_norm(est[1:] - est[:-1])
    for k in range(3, len(est)):
        if diff[k - 1] <= tol * max(1.0, size[k]):
            # the rounding of s_40 and of every s_n - s_40 is up to
            # 2^-53 sum|t_i|; where the terms cancel that far, L_k can
            # settle on a wrong value
            if _ULP * np.abs(t).sum(axis=0).max() > tol * max(1.0, size[k]):
                raise ConvergenceError(
                    "the first %d terms of %s at %r cancel past double "
                    "precision" % (_LEVIN_LAST + 1, spec.describe(), z)
                )
            return _jet(tuple(complex(c) for c in est[k]))
    raise ConvergenceError(
        "Levin's u-transform did not settle within %d terms for %s at %r"
        % (_LEVIN_LAST + 1, spec.describe(), z)
    )


def _extrapolate_at_one(spec: PFQSpec, tol: float, cap: int) -> Jet:
    """The sum at z = 1 by Richardson extrapolation with known exponents.

    At z = 1 the term of a p = q+1 series behaves like k^(-sigma-1)
    times a series in 1/k, so the tail after n terms is
    n^(-sigma) (d0 + d1/n + ...), sigma the parameter excess.  On the
    checkpoints n = 64*2^j level i removes the mode n^(-sigma-i) with
    f_i = 2^(sigma+i): T_j^(i+1) = (f_i T_(j+1)^i - T_j^i) / (f_i - 1)
    (A. Sidi, Practical Extrapolation Methods, 2003, ch. 1-2).  Stops
    when the last two entries of the newest diagonal agree within
    tol * max(1, |.|), from the third checkpoint on.

    The table reads _checkpoints, on plain numbers for a scalar spec and
    in jet arithmetic otherwise, so a jet excess is removed exactly.
    """
    sigma = spec.sigma
    if sigma.is_scalar:
        # a plain number, which jet arithmetic applies without promotion
        sigma = sigma.value
    # per level: f_i and 1 / (f_i - 1)
    levels: list = []
    # diag[i] = T_(j-i)^i for the newest checkpoint j
    diag: list = []
    for s, _ in _checkpoints(spec, 1.0 + 0j, cap):
        new = [s]
        for i, old in enumerate(diag):
            if i == len(levels):
                f = 2.0 ** (sigma + i)
                levels.append((f, 1.0 / (f - 1.0)))
            f, inv = levels[i]
            new.append((new[i] * f - old) * inv)
        diag = new
        if len(diag) >= 3:
            est = diag[-1]
            if _magnitude(est - diag[-2]) <= tol * max(1.0, _magnitude(est)):
                return as_jet(est, spec.order)
    raise ConvergenceError(
        "extrapolation did not stabilize within %d terms for %s at 1"
        % (cap, spec.describe())
    )


# ---------------------------------------------------------------------------
# public evaluation


@dataclass(frozen=True)
class Moved:
    """A series rewritten at a new argument: prefactor * F'(argument).

    The classical statements return only the new parameter tuple, but
    the prefactor is part of the value, so it rides along as a jet.
    """

    prefactor: Jet
    spec: PFQSpec
    argument: complex


def pfaff(spec: PFQSpec, x: complex, keep: int = 1) -> Moved:
    """2F1(a,b;c;x) = (1-x)^(-b) 2F1(c-a, b; c; x/(x-1)).

    `keep` selects which upper parameter survives untouched (the b
    above); the other is reflected through c.
    """
    if spec.p != 2 or spec.q != 1:
        raise SeriesError("Pfaff transform needs a 2F1")
    if keep not in (0, 1):
        raise ValueError("keep must be 0 or 1")
    x = complex(x)
    if x == 1.0:
        raise SeriesError("Pfaff transform undefined at x = 1")
    survivor = spec.upper[keep]
    other = spec.upper[1 - keep]
    c = spec.lower[0]
    new_upper = (c - other, survivor) if keep == 1 else (survivor, c - other)
    moved_spec = PFQSpec(new_upper, (c,), order=spec.order)
    prefactor = jet_pow(as_jet(1.0 - x, spec.order), -survivor)
    return Moved(prefactor, moved_spec, x / (x - 1.0))


def gauss_near_one(
    spec: PFQSpec,
    w: complex,
    tol: float = DEFAULT_TOL,
    complement: complex | None = None,
) -> Jet:
    """2F1 near argument 1 through the two-series connection at 1-w.

    Needs c-a-b away from the integers; the logarithmic degenerate case
    is out of scope and rejected.  Callers that know 1-w more precisely
    than the subtraction gives (Pfaff reroutes from large negative z,
    where w itself rounds to 1) pass it as ``complement``.
    """
    if spec.p != 2 or spec.q != 1:
        raise SeriesError("near-one connection needs a 2F1")
    a, b = spec.upper
    c = spec.lower[0]
    s = c - a - b
    s0 = s.value
    if abs(s0.imag) < 1e-8 and abs(s0.real - round(s0.real)) < 1e-8:
        raise SeriesError(
            "near-one connection needs non-integer c-a-b, got %r" % s0
        )
    w = complex(w)
    u = 1.0 - w if complement is None else complex(complement)
    first = PFQSpec((a, b), (a + b - c + 1,), order=spec.order)
    second = PFQSpec((c - a, c - b), (s + 1,), order=spec.order)
    # each lead is one exp of summed log-Gamma series, but without
    # gamma_product's log-Gamma fallback: the two terms cancel, so that
    # route's rounding would show in the sum
    try:
        leads = [
            _gamma_jet_product(
                ((c, 1), (s, 1), (c - a, -1), (c - b, -1)), spec.order
            )
        ]
        if u != 0:
            leads.append(
                _gamma_jet_product(
                    ((c, 1), (-s, 1), (a, -1), (b, -1)),
                    spec.order,
                    lead=jet_pow(as_jet(u, spec.order), s),
                )
            )
        finite = all(cmath.isfinite(x) for lead in leads for x in lead.coeffs)
    except OverflowError:
        finite = False
    if not finite:
        raise SeriesError(
            "near-one connection coefficients of %s leave the double range"
            % spec.describe()
        )
    t1 = leads[0] * eval_series(first, u, tol=tol)
    if u == 0:
        if s0.real > 0:
            # u^s kills the second branch.
            return t1
        raise SeriesError(
            "2F1 diverges at argument 1 for c-a-b = %r" % s0
        )
    return t1 + leads[1] * eval_series(second, u, tol=tol)


def eval_series(spec: PFQSpec, x: complex, tol: float = DEFAULT_TOL) -> Jet:
    """Evaluate pFq(a; c; scale*x^power) as a jet."""
    return _eval_argument(spec, spec.argument(x), tol)


def route(spec: PFQSpec, z: complex) -> str:
    """The route that sums spec's series at the argument z: zero,
    terminating, exp, kummer, direct, binomial, pfaff, at_one, near_one,
    wynn or levin, each a runner in _eval_argument.  Builds no term and
    calls no transformation; raises DivergentError where none applies."""
    if z == 0:
        return "zero"
    if spec.terminating_degree() is not None:
        return "terminating"
    if spec.p <= spec.q:
        if spec.p == 0 and spec.q == 0:
            return "exp"
        if spec.p == 1 and spec.q == 1 and z.real < 0.0:
            return "kummer"
        return "direct"
    if spec.p == 1:
        # 1F0(a;;z) = (1-z)^(-a): the value 0 at z = 1 for Re a < 0, and
        # cut along (1, oo) unless a is an integer
        a = spec.upper[0]
        if z == 1.0 and a.value.real < 0.0:
            return "at_one"
        whole = a.is_scalar and a.value.imag == 0.0 and a.value.real.is_integer()
        if z.imag == 0.0 and z.real >= 1.0 and (z == 1.0 or not whole):
            raise DivergentError(
                "%s at %r: (1-z)^(-a) has its pole or branch point at 1 and "
                "is cut along (1, oo) for non-integer a" % (spec.describe(), z)
            )
        return "binomial"
    if spec.p == 2 and z.imag == 0.0:
        if z.real <= -0.9:
            return "pfaff"
        if 0.95 < z.real < 1.0:
            # too close to 1 for plain acceleration, and too far for F(1),
            # off by about |1-z|^(c-a-b), even within 1e-14 of 1
            return "near_one"
    az = abs(z)
    if az > 1.0 + 1e-14:
        raise DivergentError(
            "%s diverges at %r (|argument| > 1)" % (spec.describe(), z)
        )
    if abs(az - 1.0) <= 1e-14:
        if abs(z - 1.0) <= 1e-14:
            return "at_one"
        sigma = spec.sigma.value
        if not sigma.real > 0:
            raise DivergentError(
                "boundary argument %r needs positive parameter excess, have %r"
                % (z, sigma)
            )
    elif az < 0.95:
        return "direct"
    return "levin" if abs(cmath.phase(z)) >= _LEVIN_MIN_ANGLE else "wynn"


def _eval_argument(spec: PFQSpec, z: complex, tol: float) -> Jet:
    """Sum spec's series at the argument z by the runner that `route` names."""
    name = route(spec, z)
    if name == "direct":
        if spec.p > spec.q:
            # a unit-disk tail after the last term t is about |t| |z| / (1 - |z|):
            # past |z| = 1/2 the stop test on single terms has to be that
            # much stricter for the tail to stay below tol
            tol *= min(1.0, (1.0 - abs(z)) / abs(z))
        return _direct_sum(spec, z, tol, TERM_CAP)
    if name == "zero":
        return value_at_zero(spec)
    if name == "terminating":
        return _sum_terminating(spec, z, tol)
    if name == "exp":
        # 0F0(;;z) = e^z, which the alternating series past z = -20
        # cancels away
        try:
            return as_jet(cmath.exp(z), spec.order)
        except OverflowError:
            raise TermOverflowError(
                0, "0F0 at %r: e^z leaves the double range" % z
            ) from None
    if name == "kummer":
        # Kummer, DLMF 13.2.39: 1F1(a;b;z) = e^z 1F1(b-a;b;-z).  Past
        # k = a - b the series at -z keeps one sign, so it does not
        # cancel the way the alternating one does.  Two factors
        # e^(z/2) stay normal doubles where e^z alone would underflow.
        (a,), (b,) = spec.upper, spec.lower
        inner = _eval_argument(PFQSpec((b - a,), (b,), order=spec.order), -z, tol)
        half = cmath.exp(z / 2.0)
        return _jet(tuple([c * half * half for c in inner.coeffs]))
    if name == "binomial":
        # the value by libm's pow, which exp(-a log(1-z)) would round
        # |a log(1-z)| times; the jet part is exp of a nilpotent
        a, w = spec.upper[0], 1.0 - z
        try:
            jet = w ** -a.value * jet_exp((a.value - a) * cmath.log(w))
            if all(map(cmath.isfinite, jet.coeffs)):
                return jet
        except OverflowError:
            pass
        raise TermOverflowError(0, "1F0 at %r leaves the double range" % z)
    if name == "wynn":
        return _accelerated_sum(spec, z, tol, AT_ONE_CAP)
    if name == "levin":
        try:
            return _levin_sum(spec, z, tol)
        except ConvergenceError:
            if abs(abs(z) - 1.0) <= 1e-14:
                raise
            # on the ring the plain sum or Wynn goes on
            return _accelerated_sum(spec, z, tol, AT_ONE_CAP)
    if name == "pfaff":
        moved = pfaff(spec, z.real)
        w = moved.argument
        if w.real > 0.95:
            # 1 - w cancels catastrophically once |z| nears 1/eps (w rounds
            # to 1 outright beyond that); 1/(1-z) is the same quantity with
            # no subtraction.
            inner = gauss_near_one(
                moved.spec, w, tol, complement=1.0 / (1.0 - z.real)
            )
        else:
            inner = _eval_argument(moved.spec, w, tol)
        return moved.prefactor * inner
    if name == "near_one":
        try:
            return gauss_near_one(spec, z.real, tol)
        except SeriesError:
            # refused: integer c-a-b, or a lead past the double range;
            # within 1e-14 of 1 the value is F(1), as at_one takes it
            if abs(z - 1.0) > 1e-14:
                return _accelerated_sum(spec, z, tol, AT_ONE_CAP)
    # at_one: F(1) of a p = q+1 series with positive parameter excess,
    # for z within 1e-14 of 1 where |1-z|^min(Re sigma, 1), about
    # |F(z) - F(1)|, is within tol.  1F0 is 0 there with every
    # a-derivative, 2F1 Gauss's closed form in jets; wider series are
    # summed directly and extrapolated by Richardson on the known
    # exponents sigma, sigma+1, ... (`_extrapolate_at_one`).
    sigma = spec.sigma.value
    if sigma.real <= 0:
        raise DivergentError(
            "%s divergent at 1: Re(excess) = %g <= 0"
            % (spec.describe(), sigma.real)
        )
    gap = abs(1.0 - z) ** min(sigma.real, 1.0)
    if gap > tol:
        raise DivergentError(
            "%s at %r: F(1) is off by about |1-z|^min(Re(excess), 1) = %.3g "
            "> tol %.3g" % (spec.describe(), z, gap, tol)
        )
    if spec.p == 1:
        return as_jet(0, spec.order)
    if spec.p == 2:
        (a, b), (c,) = spec.upper, spec.lower
        return gamma_product(
            ((c, 1), (c - a - b, 1), (c - a, -1), (c - b, -1)), spec.order
        )
    return _extrapolate_at_one(spec, tol, AT_ONE_CAP)


def eval_at_one(spec: PFQSpec, tol: float = DEFAULT_TOL) -> Jet:
    """Value at argument 1 of a p = q+1 series, by the runner `route` names."""
    if spec.p != spec.q + 1:
        raise SeriesError("argument 1 handling is for p = q+1 series")
    return _eval_argument(spec, 1.0 + 0j, tol)


def limit_at_minus_infinity(spec: PFQSpec) -> AsymptoticTerm:
    """Leading coefficient of F along the negative real axis.

    Returns (alpha, C) with (-z)^alpha * F(z) -> C as z -> -oo.  alpha is
    the minimal upper parameter; C the Gamma product over the others.
    The terminating case returns the leading-coefficient pair instead.
    """
    ups = spec.upper
    poly = [
        i
        for i, a in enumerate(ups)
        if _is_nonpositive_integer(a.value) and a.is_scalar
    ]
    if len(poly) > 1:
        raise LimitConditionError(
            "terminating", "more than one non-positive integer upper parameter"
        )
    if len(poly) == 1:
        n = -int(ups[poly[0]].value.real)
        coeff = as_jet(1, spec.order)
        for i, a in enumerate(ups):
            if i != poly[0]:
                coeff = coeff * pochhammer(a, n)
        for c in spec.lower:
            coeff = coeff / pochhammer(c, n)
        return AsymptoticTerm(as_jet(-n, spec.order), coeff)
    if spec.p < spec.q - 1:
        raise LimitConditionError(
            "width", "needs p >= q-1, got p=%d q=%d" % (spec.p, spec.q)
        )
    if not ups:
        raise LimitConditionError("algebraic", "no upper parameter, no algebraic part")
    # The rightmost pole of the Barnes integral (DLMF 16.5.1), at -alpha, is
    # simple when alpha has the strictly smallest real part, whatever the
    # other differences; its residue is the Gamma product below.  Upper
    # parameters that differ by an integer add only log terms of lower order.
    bases = [a.value for a in ups]
    min_re = min(b.real for b in bases)
    candidates = [i for i, b in enumerate(bases) if b.real - min_re <= 1e-12]
    if len(candidates) > 1:
        raise LimitConditionError(
            "tie",
            "minimal real part shared by more than one upper parameter "
            "(a double pole where they are equal)",
        )
    im = candidates[0]
    if spec.p == spec.q - 1:
        # DLMF 16.11: kappa = 2, and the exponential part oscillates with
        # amplitude |z|^nu, nu = (1/2 - Re(excess))/2
        bound = (spec.sigma.value.real - 0.5) / 2.0
        if not bases[im].real < bound:
            raise LimitConditionError(
                "excess",
                "p = q-1 needs min(a) < (Re(excess) - 1/2)/2, have %g vs %g"
                % (bases[im].real, bound),
            )
    alpha = ups[im]
    rest = tuple(a for i, a in enumerate(ups) if i != im)
    num = spec.lower + tuple(a - alpha for a in rest)
    den = rest + tuple(c - alpha for c in spec.lower)
    # Gamma(a - alpha)/Gamma(a) per other upper a, then Gamma(c)/Gamma(c - alpha)
    factors = [
        f for g, r in zip(num[spec.q :] + num[: spec.q], den)
        for f in ((g, 1), (r, -1))
    ]
    return AsymptoticTerm(alpha, gamma_product(factors, spec.order), num, den)
