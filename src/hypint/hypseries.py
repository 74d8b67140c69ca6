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
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .jets import DEFAULT_ORDER, Jet, _jet, _magnitude, as_jet
from .numkernel import (
    _is_nonpositive_integer,
    gamma_jet,
    pochhammer,
    reciprocal_gamma_jet,
)

__all__ = [
    "SeriesError",
    "DivergentError",
    "ConvergenceError",
    "TermOverflowError",
    "LimitConditionError",
    "Kind",
    "ConvergenceClass",
    "AsymptoticTerm",
    "PFQSpec",
    "classify",
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


class LimitConditionError(SeriesError):
    """A precondition of the minus-infinity limit lemma failed."""

    def __init__(self, clause: str, message: str):
        self.clause = clause
        super().__init__("%s: %s" % (clause, message))


class Kind(Enum):
    ENTIRE = "Entire"
    UNIT_DISK = "UnitDisk"
    POLYNOMIAL = "Polynomial"


@dataclass(frozen=True)
class ConvergenceClass:
    kind: Kind
    sigma: complex


@dataclass(frozen=True)
class AsymptoticTerm:
    """Leading behavior at -oo: (-z)^(-exponent) * coefficient... i.e.
    (-z)^exponent * F(z) -> coefficient."""

    exponent: Jet
    coefficient: Jet


ParamLike = Union[int, float, complex, Jet]


@dataclass(frozen=True)
class PFQSpec:
    upper: tuple
    lower: tuple
    scale: complex = 1.0 + 0j
    power: Fraction = Fraction(1)
    order: Optional[int] = None

    def __post_init__(self):
        ups = tuple(self.upper)
        lows = tuple(self.lower)
        jet_orders = {p.order for p in (*ups, *lows) if isinstance(p, Jet)}
        if len(jet_orders) > 1:
            raise ValueError("parameters mix jet orders %s" % sorted(jet_orders))
        inferred = next(iter(jet_orders)) if jet_orders else None
        order = self.order
        if order is None:
            order = inferred if inferred is not None else DEFAULT_ORDER
        elif inferred is not None and inferred != order:
            raise ValueError("declared order %d but jets have %d" % (order, inferred))
        ups = tuple(as_jet(p, order) for p in ups)
        lows = tuple(as_jet(p, order) for p in lows)
        if len(ups) > len(lows) + 1:
            raise ValueError(
                "series needs p <= q+1, got p=%d q=%d" % (len(ups), len(lows))
            )
        for c in lows:
            if _is_nonpositive_integer(c.value):
                raise ValueError(
                    "lower parameter with base %s sits on a pole" % c.value
                )
        power = self.power if isinstance(self.power, Fraction) else Fraction(self.power)
        if power == 0:
            raise ValueError("power must be nonzero")
        object.__setattr__(self, "upper", ups)
        object.__setattr__(self, "lower", lows)
        object.__setattr__(self, "scale", complex(self.scale))
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "order", order)

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


def _kind(spec: PFQSpec) -> Kind:
    if spec.terminating_degree() is not None:
        return Kind.POLYNOMIAL
    if spec.p == spec.q + 1:
        return Kind.UNIT_DISK
    return Kind.ENTIRE


def classify(spec: PFQSpec) -> ConvergenceClass:
    return ConvergenceClass(_kind(spec), spec.sigma.value)


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


class _ScalarSum:
    """Neumaier-compensated complex sum."""

    __slots__ = ("re", "cre", "im", "cim")

    def __init__(self, re=0.0, cre=0.0, im=0.0, cim=0.0):
        self.re, self.cre, self.im, self.cim = re, cre, im, cim

    def add(self, z: complex):
        # the compensation step inlined for both parts: this runs once per
        # term on every short series
        x, s = z.real, self.re
        t = s + x
        self.cre += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        self.re = t
        x, s = z.imag, self.im
        t = s + x
        self.cim += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        self.im = t

    def value(self) -> complex:
        return complex(self.re + self.cre, self.im + self.cim)


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
    and a block is t * cumprod(ratio); `scalar` says so up front.
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


def _sums(acc: list, overflow, k: int) -> tuple:
    s = tuple(a.value() for a in acc)
    if not all(map(cmath.isfinite, s)):
        raise overflow(k)
    return s


def _partials(spec: PFQSpec, z: complex, limit: int, tol=None):
    """Partial sums of the series, up to `limit` terms.

    Yields (n, S_n, stopped), with n the number of terms summed and S_n
    the order+1 jet coefficients of the partial sum.  With scalar
    parameters the first _FIRST_CHECKPOINT terms run through the
    per-term recurrence, so a short series never touches numpy; a jet
    series starts from its first term alone.  _block_partials sums the
    rest from _Terms blocks.  With `tol`, the sum stops after two
    consecutive tiny terms past the first.
    """

    def overflow(k: int) -> TermOverflowError:
        return _overflow(spec.describe(), z, k)

    acc = [_ScalarSum() for _ in range(spec.order + 1)]
    acc[0].re = 1.0  # the first term
    small = False
    t = 1.0 + 0j
    n = 1
    scalar = spec.all_scalar
    # real inputs keep the terms in float, at a fraction of the cost of
    # complex: with zero imaginary parts complex * and / give the same
    # real parts, so the sums, the stop index and the overflow index agree
    real = z.imag == 0.0 and all(
        x.imag == 0.0 for p in (*spec.upper, *spec.lower) for x in p.coeffs
    )
    if scalar:
        a = [p.value for p in spec.upper]
        c = [p.value for p in spec.lower]
        w, isfinite = z, cmath.isfinite
        if real:
            a = [v.real for v in a]
            c = [v.real for v in c]
            w, isfinite, t = z.real, math.isfinite, 1.0
        n = min(_FIRST_CHECKPOINT, limit)
        # the Neumaier state of acc[0], inlined: this runs once per term
        # on every short series
        re, cre, im, cim = 1.0, 0.0, 0.0, 0.0
        for k in range(1, n):
            j = k - 1
            num = w
            for ai in a:
                num *= ai + j
            den = float(k)
            for cj in c:
                den *= cj + j
            t = t * num / den
            if not isfinite(t):
                raise overflow(k)
            x = t.real
            u = re + x
            cre += (re - u) + x if abs(re) >= abs(x) else (x - u) + re
            re = u
            if not real:
                x = t.imag
                u = im + x
                cim += (im - u) + x if abs(im) >= abs(x) else (x - u) + im
                im = u
            if tol is not None:
                size = abs(re + cre) if real else abs(complex(re + cre, im + cim))
                if abs(t) <= tol * max(1.0, size):
                    if small:
                        acc[0] = _ScalarSum(re, cre, im, cim)
                        yield k + 1, _sums(acc, overflow, k), True
                        return
                    small = True
                else:
                    small = False
        acc[0] = _ScalarSum(re, cre, im, cim)
    yield n, _sums(acc, overflow, n - 1), False
    if n < limit:
        terms = _Terms(spec, z, t, real, scalar)
        yield from _block_partials(terms, acc, n, limit, tol, 2, int(small), overflow)


def _block_partials(terms, acc: list, n: int, limit: int, tol, run: int,
                    small: int, overflow):
    """Partial sums over the blocks of a term source, up to `limit` terms.

    `terms.block(k0, m)` gives terms k0+1 .. k0+m as the rows of an
    array with one column per jet coefficient; a float array promises
    that every term so far was real.  `acc` holds the compensated sums
    of the first n terms.  Blocks end at 64 terms, then double in length
    up to _BLOCK_CAP, so every power-of-two count from 64 on ends a
    block.  Each coefficient of each block is added exactly with
    math.fsum, and the block sums are compensated across blocks.  Yields
    (n, S_n, stopped) after each block.

    With `tol`, the sum stops after `run` consecutive terms, the first
    `small` of them carried in, each at most tol * max(1, |partial sum|),
    |.| the largest coefficient modulus, and yields stopped=True.  A
    non-finite term or partial sum raises overflow(k), k its index.
    """
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
            stop = None
            if tol is not None:
                now = np.array([s.value() for s in acc[: blk.shape[1]]])
                part = (now.real if real else now) + np.cumsum(blk, axis=0)
                size = _row_norm(part)
                # a partial sum past the double range is an overflow, not
                # a scale that makes every term look small
                if size.size and not np.isfinite(size[-1]):
                    bad = int(np.argmin(np.isfinite(size)))
                    blk, size = blk[:bad], size[:bad]
                tiny = _row_norm(blk) <= tol * np.maximum(1.0, size)
                if tiny.any():
                    # ANDed shifted copies: hit[i] says entries i ..
                    # i+run-1 of the carried and new flags are all tiny
                    ext = np.concatenate((carry, tiny))
                    hit = ext[run - 1 :]
                    for d in range(1, run):
                        hit = hit & ext[run - 1 - d :][: len(hit)]
                    if hit.any():
                        stop = int(np.argmax(hit)) + run - 1 - len(carry)
                    carry = ext[1 - run :]
                else:
                    carry = tiny[:0]
        if stop is not None:
            blk = blk[: stop + 1]
        elif bad is not None:
            raise overflow(n + bad)
        try:
            if real:
                for col, s in zip(blk.T.tolist(), acc):
                    s.add(complex(math.fsum(col)))
            else:
                for col, s in zip(blk.T, acc):
                    s.add(complex(math.fsum(col.real.tolist()),
                                  math.fsum(col.imag.tolist())))
        except OverflowError:
            raise overflow(n + len(blk) - 1) from None
        n += len(blk)
        yield n, _sums(acc, overflow, n - 1), stop is not None
        if stop is not None:
            return


def _direct_sum(spec: PFQSpec, z: complex, tol: float, cap: int) -> Jet:
    for _, s, stopped in _partials(spec, z, cap + 1, tol):
        if stopped:
            return _jet(s)
    raise ConvergenceError(
        "no convergence in %d terms for %s at %r" % (cap, spec.describe(), z)
    )


def _sum_terminating(spec: PFQSpec, z: complex) -> Jet:
    for _, s, _ in _partials(spec, z, spec.terminating_degree() + 1):
        pass
    return _jet(s)


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


def _accelerated_sum(spec: PFQSpec, z: complex, tol: float, cap: int) -> Jet:
    """Checkpointed partial sums + Wynn extrapolation, per jet coefficient.

    Checkpoints sit at geometrically spaced term counts: boundary tails
    decay algebraically (k^(-sigma-ish)), and geometric spacing turns
    them into linearly convergent sequences the epsilon algorithm
    handles well.
    """
    # the last checkpoint 64*2^j within the cap; terms past it could
    # never reach another one
    limit = _FIRST_CHECKPOINT
    while 2 * limit <= cap + 1:
        limit *= 2
    partials = (
        _jet(s)
        for n, s, _ in _partials(spec, z, limit)
        # 64 * 2^j: a checkpoint
        if n >= _FIRST_CHECKPOINT and not n & (n - 1)
    )
    width = spec.order + 1
    snapshots: list[Jet] = []
    prev_est: Optional[Jet] = None
    for snap in partials:
        snapshots.append(snap)
        if len(snapshots) >= 4:
            cols = [
                _wynn_epsilon([s.coeffs[m] for s in snapshots])
                for m in range(width)
            ]
            est = _jet(tuple(cols))
            if prev_est is not None:
                scale = max(1.0, _magnitude(est))
                if _magnitude(est - prev_est) <= tol * scale:
                    return est
            prev_est = est
    raise ConvergenceError(
        "acceleration did not stabilize within %d terms for %s at %r"
        % (cap, spec.describe(), z)
    )


# ---------------------------------------------------------------------------
# public evaluation


def eval_series(spec: PFQSpec, x: complex, tol: float = DEFAULT_TOL) -> Jet:
    """Evaluate pFq(a; c; scale*x^power) as a jet."""
    return _eval_argument(spec, spec.argument(x), tol)


def _eval_argument(spec: PFQSpec, z: complex, tol: float) -> Jet:
    if z == 0:
        return value_at_zero(spec)
    kind = _kind(spec)
    if kind is Kind.POLYNOMIAL:
        return _sum_terminating(spec, z)
    if kind is Kind.ENTIRE:
        if spec.p == 1 and spec.q == 1 and z.real < 0.0:
            # Kummer, DLMF 13.2.39: 1F1(a;b;z) = e^z 1F1(b-a;b;-z).  Past
            # k = a - b the series at -z keeps one sign, so it does not
            # cancel the way the alternating one does.  Two factors
            # e^(z/2) stay normal doubles where e^z alone would underflow.
            (a,), (b,) = spec.upper, spec.lower
            moved = PFQSpec((b - a,), (b,), order=spec.order)
            inner = _eval_argument(moved, -z, tol)
            half = cmath.exp(z / 2.0)
            return _jet(tuple([c * half * half for c in inner.coeffs]))
        return _direct_sum(spec, z, tol, TERM_CAP)
    # unit disk
    az = abs(z)
    if spec.p == 2 and z.imag == 0.0 and z.real <= -0.9:
        from .transforms import gauss_near_one, pfaff

        plain = PFQSpec(spec.upper, spec.lower, order=spec.order)
        moved = pfaff(plain, z.real)
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
    if az > 1.0 + 1e-14:
        raise DivergentError(
            "%s diverges at %r (|argument| > 1)" % (spec.describe(), z)
        )
    if abs(az - 1.0) <= 1e-14:
        if abs(z - 1.0) <= 1e-14:
            return eval_at_one(spec, tol)
        sigma = spec.sigma.value
        if sigma.real > 0:
            return _accelerated_sum(spec, z, tol, AT_ONE_CAP)
        raise DivergentError(
            "boundary argument %r needs positive parameter excess, have %r"
            % (z, sigma)
        )
    if spec.p == 2 and z.imag == 0.0 and z.real > 0.95:
        # too close to the branch point for plain acceleration
        from .transforms import gauss_near_one

        plain = PFQSpec(spec.upper, spec.lower, order=spec.order)
        try:
            return gauss_near_one(plain, z.real, tol)
        except SeriesError:
            return _accelerated_sum(spec, z, tol, AT_ONE_CAP)
    if az >= 0.95:
        return _accelerated_sum(spec, z, tol, AT_ONE_CAP)
    # the term ratio of a unit-disk series tends to z, so the tail left
    # after the last summed term t is about |t| |z| / (1 - |z|): past
    # |z| = 1/2 the stop test on single terms has to be that much
    # stricter for the tail to stay below tol
    return _direct_sum(spec, z, tol * min(1.0, (1.0 - az) / az), TERM_CAP)


def eval_at_one(spec: PFQSpec, tol: float = DEFAULT_TOL) -> Jet:
    """Value at argument 1 for p = q+1 with positive parameter excess.

    2F1 goes through the Gauss closed form in jets; everything wider is
    summed directly under Wynn extrapolation.
    """
    if spec.p != spec.q + 1:
        raise SeriesError("argument 1 handling is for p = q+1 series")
    sigma = spec.sigma
    if sigma.value.real <= 0:
        raise DivergentError(
            "%s divergent at 1: Re(excess) = %g <= 0"
            % (spec.describe(), sigma.value.real)
        )
    if spec.terminating_degree() is not None:
        return _sum_terminating(spec, 1.0 + 0j)
    if spec.p == 2:
        a, b = spec.upper
        c = spec.lower[0]
        return (
            gamma_jet(c)
            * gamma_jet(c - a - b)
            * reciprocal_gamma_jet(c - a)
            * reciprocal_gamma_jet(c - b)
        )
    return _accelerated_sum(spec, 1.0 + 0j, tol, AT_ONE_CAP)


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
    bases = [a.value for a in ups]
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            d = bases[i] - bases[j]
            if abs(d.imag) < 1e-12 and abs(d.real - round(d.real)) < 1e-12:
                raise LimitConditionError(
                    "congruence",
                    "upper parameters %r and %r differ by an integer"
                    % (bases[i], bases[j]),
                )
    min_re = min(b.real for b in bases)
    candidates = [i for i, b in enumerate(bases) if b.real - min_re <= 1e-12]
    if len(candidates) > 1:
        raise LimitConditionError(
            "tie",
            "minimal real part shared by parameters with different "
            "imaginary parts",
        )
    im = candidates[0]
    if spec.p == spec.q - 1:
        sig = spec.sigma.value
        if not bases[im].real < sig.real - 0.5:
            raise LimitConditionError(
                "excess",
                "p = q-1 needs min(a) < Re(excess) - 1/2, have %g vs %g"
                % (bases[im].real, sig.real - 0.5),
            )
    alpha = ups[im]
    coeff = as_jet(1, spec.order)
    for i, a in enumerate(ups):
        if i != im:
            coeff = coeff * gamma_jet(a - alpha) * reciprocal_gamma_jet(a)
    for c in spec.lower:
        coeff = coeff * gamma_jet(c) * reciprocal_gamma_jet(c - alpha)
    return AsymptoticTerm(alpha, coeff)
