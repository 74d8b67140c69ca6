"""Command-line front end.

Four subcommands: eval, integrate, verify, catalog.  Expressions come in
through a recursive-descent parser over a small grammar: rational,
decimal and imaginary literals, x, eps, nFm(uppers;lowers;argument)
series nodes, [eps^k] coefficient extraction, + - * / ^, and the
functions sqrt, ln, arctan, arcsin, which are rewritten to series
representations rather than calling libm.  Unknown names are rejected
at parse time with a column number.  The one exception is the integrate
oracle: it compiles the typed expression into a float closure over
math, so its quadrature is independent of the series rewrite.

Exit codes: 0 on success, 1 when a computation is rejected (the message
names the failed clause), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .hypseries import PFQSpec, SeriesError, eval_series
from .integrate import (
    DRIVER_TOL,
    IntegrandSpec,
    _halfline_oracle_ready,
    antiderivative,
    definite_0_to_1,
    definite_0_to_inf,
)
from .jets import Jet, eps, extract
from .oracle import OracleError, quad_finite, quad_halfline
from .transforms import catalog, catalog_names
from .verification import report_lines, run_suite

__all__ = ["main", "parse", "render", "ParseError", "ComputationError"]


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.pos = pos


class ComputationError(Exception):
    """Well-formed request the engine cannot honor; exit code 1."""


class UsageError(Exception):
    """Incomplete or contradictory flags; exit code 2."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Rat:
    value: Fraction


@dataclass(frozen=True)
class Dec:
    text: str  # lexeme kept verbatim so printing round-trips


@dataclass(frozen=True)
class Imag:
    value: Fraction  # magnitude; 2i, -1/2 i


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class EpsVar:
    pass


@dataclass(frozen=True)
class PFq:
    upper: Tuple["Expr", ...]
    lower: Tuple["Expr", ...]
    arg: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


@dataclass(frozen=True)
class Neg:
    u: "Expr"


@dataclass(frozen=True)
class Add:
    u: "Expr"
    v: "Expr"


@dataclass(frozen=True)
class Sub:
    u: "Expr"
    v: "Expr"


@dataclass(frozen=True)
class Mul:
    u: "Expr"
    v: "Expr"


@dataclass(frozen=True)
class Div:
    u: "Expr"
    v: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: Union[Rat, Dec]


@dataclass(frozen=True)
class Extract:
    k: int
    u: "Expr"


Expr = Union[
    Rat, Dec, Imag, Var, EpsVar, PFq, Call, Neg, Add, Sub, Mul, Div, Pow, Extract
]

_FUNCTIONS = ("sqrt", "ln", "arctan", "arcsin")


# ---------------------------------------------------------------------------
# lexer

_PUNCT = "()[],;+-*/^"


@dataclass(frozen=True)
class _Tok:
    kind: str  # NFQ NUM IMAG IDENT or a punct char
    text: str
    pos: int
    p: int = 0
    q: int = 0


def _lex(src: str) -> List[_Tok]:
    if len(src.encode()) > 65536:
        raise ParseError("input longer than 64 KiB", 0)
    toks: List[_Tok] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            # 2F1 is one token: digits, F, digits
            if j < n and src[j] == "F" and j + 1 < n and src[j + 1].isdigit():
                k = j + 1
                while k < n and src[k].isdigit():
                    k += 1
                toks.append(
                    _Tok("NFQ", src[i:k], i, p=int(src[i:j]), q=int(src[j + 1 : k]))
                )
                i = k
                continue
            if j < n and src[j] == ".":
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    while k < n and src[k].isdigit():
                        k += 1
                    j = k
            text = src[i:j]
            if j < n and src[j] == "i" and (j + 1 >= n or not _is_word(src[j + 1])):
                toks.append(_Tok("IMAG", text, i))
                i = j + 1
            else:
                toks.append(_Tok("NUM", text, i))
                i = j
            continue
        if _is_word_start(ch):
            j = i
            while j < n and _is_word(src[j]):
                j += 1
            toks.append(_Tok("IDENT", src[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    toks.append(_Tok("EOF", "", n))
    return toks


def _is_word_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_word(c: str) -> bool:
    return c.isalnum() or c == "_"


# ---------------------------------------------------------------------------
# parser: precedence climbing over the token list


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _lex(src)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def take(self, kind: Optional[str] = None) -> _Tok:
        t = self.toks[self.i]
        if kind is not None and t.kind != kind:
            raise ParseError(
                "expected %s, found %s" % (kind, t.text or "end of input"), t.pos
            )
        self.i += 1
        return t

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError("trailing input starting at %r" % t.text, t.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        if self.peek().kind == "[":
            return self.extraction()
        e = self.unary()
        while self.peek().kind in "*/":
            op = self.take().kind
            rhs = self.unary()
            if op == "/":
                e = self._fold_div(e, rhs)
            else:
                e = Mul(e, rhs)
        return e

    def extraction(self) -> Expr:
        self.take("[")
        t = self.take("IDENT")
        if t.text != "eps":
            raise ParseError("only eps may be extracted", t.pos)
        k = 1
        if self.peek().kind == "^":
            self.take()
            num = self.take("NUM")
            if not num.text.isdigit():
                raise ParseError("extraction order must be an integer", num.pos)
            k = int(num.text)
        self.take("]")
        # the marker binds the rest of the multiplicative chain
        return Extract(k, self.term())

    def unary(self) -> Expr:
        if self.peek().kind == "-":
            t = self.take()
            u = self.unary()
            folded = _negate_literal(u)
            if folded is not None:
                return folded
            return Neg(u)
        if self.peek().kind == "+":
            self.take()
            return self.unary()
        return self.postfix()

    def postfix(self) -> Expr:
        e = self.primary()
        if self.peek().kind == "^":
            self.take()
            e = Pow(e, self.exponent_literal())
        return e

    def exponent_literal(self, parenthesized: bool = False) -> Union[Rat, Dec]:
        """Exponents are literal rationals or decimals: 2, -2, 0.5,
        (1/2), (-7/8).  Fractions need the parentheses; a bare x^1/2
        reads as (x^1)/2."""
        if self.peek().kind == "(":
            self.take()
            lit = self.exponent_literal(parenthesized=True)
            self.take(")")
            return lit
        sign = 1
        if self.peek().kind == "-":
            self.take()
            sign = -1
        t = self.take("NUM")
        num = _literal_of(t)
        if parenthesized and self.peek().kind == "/" and isinstance(num, Rat):
            save = self.i
            self.take()
            if self.peek().kind == "NUM":
                d = self.take("NUM")
                den = _literal_of(d)
                if isinstance(den, Rat):
                    if den.value == 0:
                        raise ParseError("zero denominator in exponent", d.pos)
                    num = Rat(num.value / den.value)
                else:
                    self.i = save
            else:
                self.i = save
        if sign < 0:
            neg = _negate_literal(num)
            assert neg is not None
            return neg
        return num

    def primary(self) -> Expr:
        t = self.peek()
        if t.kind == "NUM":
            self.take()
            return _literal_of(t)
        if t.kind == "IMAG":
            self.take()
            lit = _literal_of(t)
            if isinstance(lit, Dec):
                return Imag(Fraction(t.text))
            return Imag(lit.value)
        if t.kind == "NFQ":
            return self.pfq()
        if t.kind == "IDENT":
            self.take()
            if t.text == "x":
                return Var()
            if t.text == "eps":
                return EpsVar()
            if t.text == "i":
                return Imag(Fraction(1))
            if t.text in _FUNCTIONS:
                self.take("(")
                arg = self.expr()
                self.take(")")
                return Call(t.text, arg)
            raise ParseError("unknown identifier %r" % t.text, t.pos)
        if t.kind == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        raise ParseError(
            "expected a value, found %s" % (t.text or "end of input"), t.pos
        )

    def pfq(self) -> Expr:
        t = self.take("NFQ")
        self.take("(")
        upper = self.param_list()
        self.take(";")
        lower = self.param_list()
        self.take(";")
        arg = self.expr()
        self.take(")")
        if len(upper) != t.p or len(lower) != t.q:
            raise ParseError(
                "%s expects %d;%d parameters, found %d;%d"
                % (t.text, t.p, t.q, len(upper), len(lower)),
                t.pos,
            )
        return PFq(tuple(upper), tuple(lower), arg)

    def param_list(self) -> List[Expr]:
        if self.peek().kind == ";":
            return []
        out = [self.expr()]
        while self.peek().kind == ",":
            self.take()
            out.append(self.expr())
        return out

    @staticmethod
    def _fold_div(a: Expr, b: Expr) -> Expr:
        # integer/integer is a rational literal, not a division node
        if isinstance(a, Rat) and isinstance(b, Rat):
            if b.value == 0:
                return Div(a, b)
            return Rat(a.value / b.value)
        return Div(a, b)


def _literal_of(t: _Tok) -> Union[Rat, Dec]:
    if "." in t.text or "e" in t.text or "E" in t.text:
        return Dec(t.text)
    return Rat(Fraction(int(t.text)))


def _negate_literal(e: Expr) -> Optional[Expr]:
    if isinstance(e, Rat):
        return Rat(-e.value)
    if isinstance(e, Dec):
        return Dec(e.text[1:]) if e.text.startswith("-") else Dec("-" + e.text)
    if isinstance(e, Imag):
        return Imag(-e.value)
    return None


def parse(text: str) -> Expr:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printer; parse(render(e)) == e on the canonical forms the parser builds

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def render(e: Expr) -> str:
    return _render(e, 0)


def _render(e: Expr, ctx: int) -> str:
    text, prec = _render_prec(e)
    if prec < ctx:
        return "(" + text + ")"
    return text


def _render_prec(e: Expr) -> Tuple[str, int]:
    if isinstance(e, Rat):
        if e.value.denominator == 1:
            return str(e.value.numerator), _PREC_ATOM if e.value >= 0 else _PREC_NEG
        return (
            "%d/%d" % (e.value.numerator, e.value.denominator),
            _PREC_MUL if e.value >= 0 else _PREC_NEG,
        )
    if isinstance(e, Dec):
        return e.text, _PREC_ATOM if not e.text.startswith("-") else _PREC_NEG
    if isinstance(e, Imag):
        if e.value == 1:
            return "i", _PREC_ATOM
        if e.value == -1:
            return "-i", _PREC_NEG
        if e.value.denominator == 1:
            return "%di" % e.value.numerator, (
                _PREC_ATOM if e.value > 0 else _PREC_NEG
            )
        # "1/2i" would lex as 1/(2i); spell the product out instead
        text, _ = _render_prec(Rat(e.value))
        return "%s * i" % text, _PREC_MUL
    if isinstance(e, Var):
        return "x", _PREC_ATOM
    if isinstance(e, EpsVar):
        return "eps", _PREC_ATOM
    if isinstance(e, PFq):
        return (
            "%dF%d(%s;%s;%s)"
            % (
                len(e.upper),
                len(e.lower),
                ",".join(render(p) for p in e.upper),
                ",".join(render(p) for p in e.lower),
                render(e.arg),
            ),
            _PREC_ATOM,
        )
    if isinstance(e, Call):
        return "%s(%s)" % (e.fn, render(e.arg)), _PREC_ATOM
    if isinstance(e, Neg):
        return "-" + _render(e.u, _PREC_NEG + 1), _PREC_NEG
    if isinstance(e, Add):
        return (
            "%s+%s" % (_render(e.u, _PREC_ADD), _render(e.v, _PREC_ADD + 1)),
            _PREC_ADD,
        )
    if isinstance(e, Sub):
        return (
            "%s-%s" % (_render(e.u, _PREC_ADD), _render(e.v, _PREC_ADD + 1)),
            _PREC_ADD,
        )
    if isinstance(e, Mul):
        return (
            "%s * %s" % (_render(e.u, _PREC_MUL), _render(e.v, _PREC_MUL + 1)),
            _PREC_MUL,
        )
    if isinstance(e, Div):
        return (
            "%s/%s" % (_render(e.u, _PREC_MUL), _render(e.v, _PREC_MUL + 1)),
            _PREC_MUL,
        )
    if isinstance(e, Pow):
        txt, prec = _render_prec(e.exponent)
        if prec < _PREC_ATOM or not _is_plain_integer(e.exponent):
            exp_text = "(" + txt + ")"
        else:
            exp_text = txt
        return "%s^%s" % (_render(e.base, _PREC_POW + 1), exp_text), _PREC_POW
    if isinstance(e, Extract):
        # legal only at the head of a product; parenthesized anywhere else
        inner = _render(e.u, _PREC_MUL)
        marker = "[eps]" if e.k == 1 else "[eps^%d]" % e.k
        return "%s %s" % (marker, inner), 0
    raise TypeError("unprintable node %r" % (e,))


def _is_plain_integer(lit: Union[Rat, Dec]) -> bool:
    return isinstance(lit, Rat) and lit.value.denominator == 1 and lit.value >= 0


# ---------------------------------------------------------------------------
# evaluation at a point

Value = Union[complex, Jet]


def _tree_order(e: Expr) -> int:
    if isinstance(e, Extract):
        return max(e.k, _tree_order(e.u))
    if isinstance(e, EpsVar):
        return 1
    if isinstance(e, Pow):
        base = _tree_order(e.base)
        if isinstance(e.base, EpsVar) and isinstance(e.exponent, Rat):
            r = e.exponent.value
            if r.denominator == 1 and r >= 1:
                return int(r)
        return base
    if isinstance(e, (Add, Sub, Mul, Div)):
        return max(_tree_order(e.u), _tree_order(e.v))
    if isinstance(e, Neg):
        return _tree_order(e.u)
    if isinstance(e, Call):
        return _tree_order(e.arg)
    if isinstance(e, PFq):
        parts = [_tree_order(p) for p in e.upper + e.lower]
        parts.append(_tree_order(e.arg))
        return max(parts) if parts else 0
    return 0


def _unwrap(v: Value) -> Value:
    if isinstance(v, Jet) and v.is_scalar:
        return v.value
    return v


def _lit_fraction(lit: Union[Rat, Dec]) -> Fraction:
    if isinstance(lit, Rat):
        return lit.value
    return Fraction(lit.text)


class _Evaluator:
    def __init__(self, x: Optional[complex], order: int, tol: float = 1e-12):
        self.x = x
        self.order = order
        self.tol = tol
        self.trace: List[str] = []

    def run(self, e: Expr) -> Value:
        return _unwrap(self.eval(e))

    def eval(self, e: Expr) -> Value:
        if isinstance(e, Rat):
            return complex(e.value)
        if isinstance(e, Dec):
            return complex(float(e.text))
        if isinstance(e, Imag):
            return complex(0.0, float(e.value))
        if isinstance(e, Var):
            if self.x is None:
                raise UsageError("expression depends on x; pass --at")
            return self.x
        if isinstance(e, EpsVar):
            return eps(self.order)
        if isinstance(e, Neg):
            return -self.eval(e.u)
        if isinstance(e, Add):
            return self.eval(e.u) + self.eval(e.v)
        if isinstance(e, Sub):
            return self.eval(e.u) - self.eval(e.v)
        if isinstance(e, Mul):
            return self.eval(e.u) * self.eval(e.v)
        if isinstance(e, Div):
            den = self.eval(e.v)
            if den == 0:
                raise ComputationError("division by zero")
            return self.eval(e.u) / den
        if isinstance(e, Pow):
            return self._power(e)
        if isinstance(e, Extract):
            v = self.eval(e.u)
            if not isinstance(v, Jet) or v.order < e.k:
                raise ComputationError(
                    "[eps^%d] needs a jet of at least that order" % e.k
                )
            self.trace.append("extract eps^%d" % e.k)
            return extract(e.k, v)
        if isinstance(e, PFq):
            return self._series(e)
        if isinstance(e, Call):
            return self._call(e)
        raise TypeError("unexpected node %r" % (e,))

    def _power(self, e: Pow) -> Value:
        base = self.eval(e.base)
        r = _lit_fraction(e.exponent)
        if isinstance(base, Jet):
            if r.denominator == 1 and r >= 0:
                acc: Value = complex(1.0)
                for _ in range(int(r)):
                    acc = base * acc
                return acc
            raise ComputationError("jet base needs a nonnegative integer power")
        if base == 0 and r < 0:
            raise ComputationError("zero base with negative power")
        return complex(base) ** float(r)

    def _series(self, e: PFq) -> Value:
        upper = tuple(self.eval(p) for p in e.upper)
        lower = tuple(self.eval(p) for p in e.lower)
        z = _unwrap(self.eval(e.arg))
        if isinstance(z, Jet):
            raise ComputationError("series argument cannot carry eps")
        jetted = any(isinstance(p, Jet) for p in upper + lower)
        spec = PFQSpec(upper, lower, order=self.order if jetted else 0)
        self.trace.append(
            "%dF%d series at %s" % (len(upper), len(lower), _fmt_complex(z))
        )
        out = eval_series(spec, z, tol=self.tol)
        return out if jetted else _unwrap(out)

    def _call(self, e: Call) -> Value:
        u = _unwrap(self.eval(e.arg))
        if isinstance(u, Jet):
            raise ComputationError("%s of a jet is not supported" % e.fn)
        u = complex(u)
        if e.fn == "arctan":
            if abs(u) <= 1.0:
                self.trace.append("arctan as odd 2F1 series")
                return u * self._2f1((0.5, 1.0), 1.5, -u * u)
            if u.imag == 0.0:
                self.trace.append("arctan reflected to 1/x")
                w = 1.0 / u.real
                half = math.copysign(math.pi / 2.0, u.real)
                return half - w * self._2f1((0.5, 1.0), 1.5, -w * w)
            raise ComputationError("arctan outside the unit disk")
        if e.fn == "arcsin":
            if abs(u) <= 1.0:
                self.trace.append("arcsin as odd 2F1 series")
                return u * self._2f1((0.5, 0.5), 1.5, u * u)
            raise ComputationError("arcsin outside [-1, 1]")
        if e.fn == "ln":
            w = (u - 1.0) / (u + 1.0) if u != -1.0 else None
            if w is None or abs(w) >= 1.0:
                raise ComputationError("ln needs an argument with positive real part")
            self.trace.append("ln as artanh series")
            return 2.0 * w * self._2f1((0.5, 1.0), 1.5, w * w)
        if e.fn == "sqrt":
            if abs(1.0 - u) < 1.0:
                self.trace.append("sqrt as binomial series")
                return self._1f0(-0.5, 1.0 - u)
            if u != 0 and abs(1.0 - 1.0 / u) < 1.0:
                self.trace.append("sqrt as rescaled binomial series")
                return u * self._1f0(-0.5, 1.0 - 1.0 / u)
            raise ComputationError("sqrt argument out of series range")
        raise ComputationError("unknown function %r" % e.fn)

    def _2f1(self, upper: Tuple[float, float], lower: float, z: complex) -> complex:
        spec = PFQSpec(upper, (lower,), order=0)
        return _unwrap(eval_series(spec, z, tol=self.tol))

    def _1f0(self, a: float, z: complex) -> complex:
        return _unwrap(eval_series(PFQSpec((a,), (), order=0), z, tol=self.tol))


# ---------------------------------------------------------------------------
# the oracle's integrand: the typed expression as one real closure over math

_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
_LIBM = {"sqrt": math.sqrt, "arcsin": math.asin, "arctan": math.atan}

# a compiled node is a float constant or a float function of x
Node = Union[float, Callable[[float], float]]


def _real_closure(e: Expr) -> Callable[[float], float]:
    """Compile an integrand once into a float function of x.

    The oracle integrates this instead of the folded _Integrand, so a
    folding mistake shows up as a discrepancy.  Elementary nodes run on
    float arithmetic and libm; a pFq node is the only one that runs the
    series engine.
    """
    f = _real_node(e)
    return f if callable(f) else (lambda x: f)


def _real_node(e: Expr) -> Node:
    if isinstance(e, (Rat, Dec)):
        return float(_lit_fraction(e))
    if isinstance(e, Imag):
        raise ComputationError(
            "oracle quadrature does not run on complex-valued integrands "
            "(imaginary literal %s)" % render(e)
        )
    if isinstance(e, Var):
        return _identity
    if isinstance(e, Neg):
        return _apply(operator.neg, _real_node(e.u))
    if type(e) in _BINARY:
        op = _BINARY[type(e)]
        u, v = _real_node(e.u), _real_node(e.v)
        if not callable(v):
            return _apply(lambda t: op(t, v), u)
        if not callable(u):
            return lambda x: op(u, v(x))
        return lambda x: op(u(x), v(x))
    if isinstance(e, Pow):
        r = float(_lit_fraction(e.exponent))
        return _apply(lambda t: math.pow(t, r), _real_node(e.base))
    if isinstance(e, Call) and e.fn in _LIBM:
        return _apply(_LIBM[e.fn], _real_node(e.arg))
    if isinstance(e, PFq):
        params = [_real_node(p) for p in e.upper + e.lower]
        if any(callable(p) for p in params):
            raise ComputationError("series parameters cannot depend on x")
        spec = PFQSpec(tuple(params[: len(e.upper)]), tuple(params[len(e.upper) :]),
                       order=0)
        return _apply(lambda z: eval_series(spec, z, tol=DRIVER_TOL).value.real,
                      _real_node(e.arg))
    raise ComputationError("oracle quadrature needs a real integrand without eps")


def _identity(x: float) -> float:
    return x


def _apply(fn: Callable[[float], float], u: Node) -> Node:
    """fn of a compiled node, folded now when the node is a constant."""
    if not callable(u):
        return fn(u)
    if u is _identity:
        return fn
    return lambda x: fn(u(x))


# ---------------------------------------------------------------------------
# integrand compilation: coeff * x^alpha * [eps^k] body(scale * x^power)


@dataclass
class _Integrand:
    coeff: complex = 1.0
    alpha: Fraction = Fraction(0)
    body: Optional[PFQSpec] = None
    extract_k: int = 0


def _compile_integrand(e: Expr, order: int) -> _Integrand:
    st = _Integrand()
    _collect(e, st, order)
    return st


def _collect(e: Expr, st: _Integrand, order: int) -> None:
    if isinstance(e, Extract):
        if st.extract_k:
            raise ComputationError("only one [eps^k] marker is supported")
        st.extract_k = e.k
        _collect(e.u, st, order)
        return
    if isinstance(e, Mul):
        _collect(e.u, st, order)
        _collect(e.v, st, order)
        return
    if isinstance(e, Neg):
        st.coeff = -st.coeff
        _collect(e.u, st, order)
        return
    if isinstance(e, (Rat, Dec, Imag)):
        st.coeff *= complex(_Evaluator(None, 0).eval(e))
        return
    if isinstance(e, Var):
        st.alpha += 1
        return
    if isinstance(e, Pow) and isinstance(e.base, Var):
        st.alpha += _lit_fraction(e.exponent)
        return
    if isinstance(e, Div):
        _collect(e.u, st, order)
        _divide(e.v, st, order)
        return
    if isinstance(e, PFq):
        _attach_series(e, st, order)
        return
    if isinstance(e, Call):
        _attach_call(e, st, order)
        return
    if isinstance(e, (Add, Sub)):
        binom = _binomial_of(e)
        if binom is not None:
            _attach_binomial(binom, Fraction(-1), st)
            return
        if _tree_order(e) == 0:
            # a sum free of x and eps is a constant factor, folded the way
            # `hypint eval` folds it
            try:
                st.coeff *= complex(_Evaluator(None, 0).eval(e))
                return
            except UsageError:  # the sum depends on x
                pass
        raise ComputationError(
            "sums of terms cannot be integrated as one series; "
            "integrate the terms separately"
        )
    if isinstance(e, Pow):
        binom = _binomial_of(e.base)
        if binom is not None:
            _attach_binomial(binom, -_lit_fraction(e.exponent), st)
            return
        raise ComputationError("power base is neither x nor 1 + c x^p")
    raise ComputationError("cannot integrate this expression shape")


def _divide(e: Expr, st: _Integrand, order: int) -> None:
    """Fold a denominator into the integrand state."""
    mono = _try_monomial(e)
    if mono is not None:
        c, a = mono
        if c == 0:
            raise ComputationError("division by zero")
        st.coeff /= c
        st.alpha -= a
        return
    binom = _binomial_of(e)
    if binom is not None:
        _attach_binomial(binom, Fraction(1), st)
        return
    if isinstance(e, Pow):
        binom = _binomial_of(e.base)
        if binom is not None:
            _attach_binomial(binom, _lit_fraction(e.exponent), st)
            return
    if isinstance(e, Call) and e.fn == "sqrt":
        binom = _binomial_of(e.arg)
        if binom is not None:
            _attach_binomial(binom, Fraction(1, 2), st)
            return
    raise ComputationError(
        "denominator is neither a monomial nor a power of 1 + c x^p"
    )


def _try_monomial(e: Expr) -> Optional[Tuple[complex, Fraction]]:
    try:
        st = _Integrand()
        _collect(e, st, 0)
    except ComputationError:
        return None
    if st.body is not None or st.extract_k:
        return None
    return st.coeff, st.alpha


def _binomial_of(e: Expr) -> Optional[Tuple[complex, complex, Fraction]]:
    """Match c + d*x^p with constant c != 0 and p > 0."""
    if isinstance(e, Add):
        pairs = ((e.u, e.v, 1.0), (e.v, e.u, 1.0))
    elif isinstance(e, Sub):
        pairs = ((e.u, e.v, -1.0), (e.v, e.u, None))
    else:
        return None
    for const_part, mono_part, sign in pairs:
        if sign is None:
            continue
        cm = _try_monomial(const_part)
        mm = _try_monomial(mono_part)
        if cm is None or mm is None:
            continue
        c, ca = cm
        d, p = mm
        if ca != 0 or p <= 0 or c == 0:
            continue
        return c, sign * d, p
    return None


def _attach_binomial(
    binom: Tuple[complex, complex, Fraction],
    a: Fraction,
    st: _Integrand,
) -> None:
    """Fold (c + d x^p)^(-a) into the state as a 1F0(a;;-(d/c) x^p) body."""
    c, d, p = binom
    body = PFQSpec((complex(a),), (), scale=-d / c, power=p, order=0)
    _merge_body(st, body)
    st.coeff *= complex(c) ** float(-a)


def _attach_series(e: PFq, st: _Integrand, order: int) -> None:
    ev = _Evaluator(None, order)
    try:
        upper = tuple(_unwrap(ev.eval(p)) for p in e.upper)
        lower = tuple(_unwrap(ev.eval(p)) for p in e.lower)
    except UsageError:
        raise ComputationError("series parameters cannot depend on x")
    mono = _try_monomial(e.arg)
    if mono is None:
        raise ComputationError("series argument must be c * x^p")
    gamma, beta = mono
    if beta == 0:
        raise ComputationError("series argument must depend on x")
    jetted = any(isinstance(v, Jet) for v in upper + lower)
    spec = PFQSpec(
        upper, lower, scale=gamma, power=beta, order=order if jetted else 0
    )
    _merge_body(st, spec)


def _attach_call(e: Call, st: _Integrand, order: int) -> None:
    if e.fn in ("arctan", "arcsin"):
        mono = _try_monomial(e.arg)
        if mono is None:
            raise ComputationError("%s argument must be c * x^p" % e.fn)
        g, m = mono
        if m <= 0:
            raise ComputationError("%s argument must grow from 0" % e.fn)
        sign = -1.0 if e.fn == "arctan" else 1.0
        body = PFQSpec((0.5, 1.0 if e.fn == "arctan" else 0.5), (1.5,),
                       scale=sign * g * g, power=2 * m, order=0)
        st.coeff *= g
        st.alpha += m
        _merge_body(st, body)
        return
    if e.fn == "sqrt":
        binom = _binomial_of(e.arg)
        if binom is None:
            raise ComputationError("sqrt supports 1 + c x^p arguments")
        _attach_binomial(binom, Fraction(-1, 2), st)
        return
    if e.fn == "ln":
        inner = e.arg
        flip = 1.0
        if isinstance(inner, Div):
            num = _try_monomial(inner.u)
            if num is None or num != (1.0 + 0.0j, Fraction(0)):
                raise ComputationError("ln supports 1/(1 + c x^p) and 1 + c x^p")
            inner = inner.v
            flip = -1.0
        binom = _binomial_of(inner)
        if binom is None:
            raise ComputationError("ln supports 1/(1 + c x^p) and 1 + c x^p")
        c, d, p = binom
        if c != 1.0:
            raise ComputationError("ln body must start at 1, got %s" % c)
        # ln(1/(1-w)) = [eps] 1F0(eps;; w), here w = -(d/c) x^p
        e1 = eps(1)
        body = PFQSpec((e1,), (), scale=-d, power=p, order=1)
        if st.extract_k:
            raise ComputationError("ln cannot combine with an explicit [eps^k]")
        st.extract_k = 1
        st.coeff *= -flip
        _merge_body(st, body)
        return
    raise ComputationError("unknown function %r" % e.fn)


def _merge_body(st: _Integrand, body: PFQSpec) -> None:
    if st.body is not None:
        raise ComputationError(
            "a single series body is required; this integrand has two"
        )
    st.body = body


# ---------------------------------------------------------------------------
# gamma-product rendering for the half-line closed form


def _halfline_closed_form(
    spec: IntegrandSpec, value: float, coeff: complex
) -> Optional[str]:
    """coeff times the integral `value` of `spec`, as a Gamma product.

    None when the product does not match `value`.
    """
    body = spec.body
    if not isinstance(body, PFQSpec) or body.order:
        return None
    form = antiderivative(spec)
    aug = form.body
    u = (spec.alpha + 1) / body.power
    ups = [p.value if isinstance(p, Jet) else complex(p) for p in aug.upper]
    lows = [p.value if isinstance(p, Jet) else complex(p) for p in aug.lower]
    m = None
    for i, a in enumerate(ups):
        if abs(a - complex(float(u))) < 1e-12:
            m = i
            break
    if m is None:
        return None
    rest = [a for i, a in enumerate(ups) if i != m]
    num = [("%s" % _fmt_gamma_arg(c)) for c in lows]
    num += [_fmt_gamma_arg(a - float(u)) for a in rest]
    den = [_fmt_gamma_arg(a) for a in rest]
    den += [_fmt_gamma_arg(c - float(u)) for c in lows]
    try:
        val = 1.0
        for c in lows:
            val *= math.gamma(c.real)
        for a in rest:
            val *= math.gamma(a.real - float(u))
        for a in rest:
            val /= math.gamma(a.real)
        for c in lows:
            val /= math.gamma(c.real - float(u))
    except (ValueError, OverflowError):
        return None
    scale_mag = abs(complex(body.scale))
    val *= float(form.prefactor_coeff) * scale_mag ** float(-u)
    if not math.isclose(val, value, rel_tol=1e-10):
        return None
    pieces = "".join("Gamma(%s)" % s for s in num)
    denom = "".join("Gamma(%s)" % s for s in den if s != "1")
    factors = []
    if coeff != 1:
        factors.append(_fmt_coeff(coeff))
    if form.prefactor_coeff != 1:
        factors.append(str(form.prefactor_coeff))
    if pieces:
        factors.append(pieces if not denom else "%s/(%s)" % (pieces, denom))
    if scale_mag != 1.0:
        factors.append("%g^(-%s)" % (scale_mag, u))
    return " * ".join(factors) or "1"


def _fmt_coeff(c: complex) -> str:
    """A constant factor: rational when real, i-suffixed when imaginary."""
    if c.imag == 0.0:
        return _fmt_gamma_arg(c)
    if c.real == 0.0:
        mag = _fmt_gamma_arg(complex(c.imag))
        return {"1": "i", "-1": "-i"}.get(mag, mag + "*i")
    return "(%s)" % _fmt_complex(c)


def _fmt_gamma_arg(z: complex) -> str:
    if abs(z.imag) > 1e-12:
        return _fmt_complex(z)
    f = Fraction(z.real).limit_denominator(10**6)
    if abs(float(f) - z.real) < 1e-12:
        return str(f.numerator) if f.denominator == 1 else "%d/%d" % (
            f.numerator,
            f.denominator,
        )
    return "%.12g" % z.real


# ---------------------------------------------------------------------------
# output plumbing


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return "%.17g" % z.real
    if z.real == 0.0:
        return "%.17gi" % z.imag
    return "%.17g %s %.17gi" % (z.real, "+" if z.imag >= 0 else "-", abs(z.imag))


def _pair(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _emit(payload: dict, as_json: bool, stream=None) -> None:
    stream = stream or sys.stdout
    if as_json:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
        return
    stream.write("value = %s\n" % _fmt_complex(complex(payload["value"]["re"],
                                                       payload["value"]["im"])))
    if payload["jet"] is not None:
        for k, item in enumerate(payload["jet"]):
            stream.write(
                "jet[%d] = %s\n" % (k, _fmt_complex(complex(item["re"], item["im"])))
            )
    if payload["closed_form"] is not None:
        stream.write("closed form = %s\n" % payload["closed_form"])
    if payload["oracle"] is not None:
        stream.write("oracle = %.17g\n" % payload["oracle"])
    if payload["discrepancy"] is not None:
        stream.write("discrepancy = %.3e\n" % payload["discrepancy"])
    for line in payload["trace"]:
        stream.write("  %s\n" % line)


def _payload(
    input_text: str,
    value: complex,
    jet: Optional[Sequence[complex]] = None,
    closed_form: Optional[str] = None,
    oracle: Optional[float] = None,
    discrepancy: Optional[float] = None,
    trace: Sequence[str] = (),
) -> dict:
    return {
        "input": input_text,
        "value": _pair(value),
        "jet": None if jet is None else [_pair(c) for c in jet],
        "closed_form": closed_form,
        "oracle": oracle,
        "discrepancy": discrepancy,
        "trace": list(trace),
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args) -> int:
    expr = parse(args.expr)
    x = None
    if args.at is not None:
        try:
            at_expr = parse(args.at)
        except ParseError as pe:
            raise ParseError("--at: %s" % pe, pe.pos)
        at_val = _Evaluator(None, 0).run(at_expr)
        if isinstance(at_val, Jet):
            raise ComputationError("--at must be a constant")
        x = complex(at_val)
    needed = _tree_order(expr)
    order = max(needed, args.jet or 0)
    ev = _Evaluator(x, order)
    out = ev.run(expr)
    if isinstance(out, Jet):
        value = out.value
        jet = list(out.coeffs)
    else:
        value = complex(out)
        jet = None
        if args.jet:
            jet = [value] + [0j] * args.jet
    if order and not ev.trace:
        ev.trace.append("jet order %d" % order)
    _emit(_payload(args.expr, value, jet=jet, trace=ev.trace), args.json)
    return 0


def _cmd_integrate(args) -> int:
    expr = parse(args.expr)
    order = _tree_order(expr)
    st = _compile_integrand(expr, order)
    trace: List[str] = []
    if st.body is None:
        if args.to != "1":
            raise ComputationError("a bare power of x diverges on [0, oo)")
        if st.alpha <= -1:
            raise ComputationError("needs alpha > -1 for integrability at 0")
        value = st.coeff / (float(st.alpha) + 1.0)
        _emit(
            _payload(args.expr, value, trace=["monomial integrated exactly"]),
            args.json,
        )
        return 0
    spec = IntegrandSpec(st.alpha, st.body)
    jet_output = st.body.order > 0 and st.extract_k == 0
    integrand = None
    if args.oracle:
        if st.body.order > 0:
            raise ComputationError(
                "oracle quadrature does not run on jet-valued integrands"
            )
        integrand = _real_closure(expr)
    if args.to == "1":
        res = definite_0_to_1(spec, verify=False)
        closed = None
    else:
        res = definite_0_to_inf(spec, verify=False)
        closed = _halfline_closed_form(spec, res.value.value.real, st.coeff)
    trace.extend(res.steps)
    raw = res.value
    if st.extract_k:
        out_value = st.coeff * extract(st.extract_k, raw)
        jet = None
    elif jet_output:
        out_value = st.coeff * raw.value
        jet = [st.coeff * c for c in raw.coeffs]
    else:
        out_value = st.coeff * raw.value
        jet = None
    oracle_value = None
    discrepancy = None
    if integrand is not None:
        if args.to == "1":
            oracle_value = quad_finite(integrand, 0.0, 1.0, DRIVER_TOL).value
            trace.append("oracle: quadrature on [0, 1]")
        elif _halfline_oracle_ready(st.body):
            oracle_value = quad_halfline(integrand, DRIVER_TOL).value
            trace.append("oracle: quadrature on [0, oo)")
        else:
            trace.append(
                "oracle skipped: series body not evaluable beyond the unit disk"
            )
        if oracle_value is not None:
            discrepancy = abs(out_value - oracle_value)
    _emit(
        _payload(
            args.expr,
            out_value,
            jet=jet,
            closed_form=closed,
            oracle=oracle_value,
            discrepancy=discrepancy,
            trace=trace,
        ),
        args.json,
    )
    return 0


def _cmd_verify(args) -> int:
    rows = run_suite(args.suite)
    lines = report_lines(rows)
    failed = sum(1 for r in rows if not r.passed)
    if args.json:
        payload = _payload(
            "verify --suite %s" % args.suite, complex(failed), trace=lines
        )
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in lines:
            print(line)
    return 0 if failed == 0 else 1


def _cmd_catalog(args) -> int:
    if args.name is None:
        names = catalog_names()
        if args.json:
            payload = _payload("catalog", complex(len(names)), trace=names)
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            for n in names:
                print(n)
        return 0
    try:
        row = catalog(args.name)
    except KeyError:
        raise ComputationError("no catalog row named %r" % args.name)
    sample_x = 1.0 if row.kind == "constant" else 0.5
    sampled = row.evaluate(sample_x)
    value = complex(sampled.value if isinstance(sampled, Jet) else sampled)
    trace = [
        "kind: %s" % row.kind,
        "sampled at x = %s" % _fmt_complex(sample_x),
    ]
    if row.note:
        trace.append(row.note)
    closed = None
    if row.spec is not None:
        closed = _spec_text(row)
    _emit(
        _payload(args.name, value, closed_form=closed, trace=trace),
        args.json,
    )
    return 0


def _spec_text(row) -> str:
    spec = row.spec
    ups = ",".join(_fmt_param(p) for p in spec.upper)
    lows = ",".join(_fmt_param(p) for p in spec.lower)
    core = "%dF%d(%s;%s;...)" % (len(spec.upper), len(spec.lower), ups, lows)
    if row.extract_order:
        core = "[eps^%d] %s" % (row.extract_order, core)
    if row.monomial:
        core = "x^%s * %s" % (row.monomial, core)
    if row.prefactor != 1.0:
        core = "%s * %s" % (_fmt_complex(row.prefactor), core)
    return core


def _fmt_param(p) -> str:
    if isinstance(p, Jet):
        if p.is_scalar:
            return _fmt_gamma_arg(p.value)
        slope = p.coeffs[1] if p.order >= 1 else 0.0
        base = _fmt_gamma_arg(p.value)
        if slope == 0:
            return base
        if slope == 1:
            return "%s+eps" % base if p.value != 0 else "eps"
        if slope == -1:
            return "%s-eps" % base if p.value != 0 else "-eps"
        return "%s%+geps" % (base, slope.real)
    return _fmt_gamma_arg(complex(p))


# ---------------------------------------------------------------------------
# entry point


# built once per process: in-process callers run main() many times, and
# parse_args leaves the parser unchanged
@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hypint",
        description="series engine for parameterized hypergeometric integrals",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression at a point")
    p_eval.add_argument("expr")
    p_eval.add_argument("--at", help="value of x (an expression; constants allowed)")
    p_eval.add_argument("--jet", type=int, default=0, help="jet order of the output")
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(fn=_cmd_eval)

    p_int = sub.add_parser("integrate", help="definite integral of an expression")
    p_int.add_argument("expr")
    p_int.add_argument("--from", dest="frm", choices=["0"], default="0")
    p_int.add_argument("--to", choices=["1", "inf"], required=True)
    p_int.add_argument("--oracle", action="store_true",
                       help="also run quadrature and report the gap")
    p_int.add_argument("--json", action="store_true")
    p_int.set_defaults(fn=_cmd_integrate)

    p_ver = sub.add_parser("verify", help="run the result-table checks")
    p_ver.add_argument(
        "--suite", choices=["paper", "identities", "all"], default="all"
    )
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(fn=_cmd_verify)

    p_cat = sub.add_parser("catalog", help="list series representations")
    p_cat.add_argument("name", nargs="?")
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(fn=_cmd_catalog)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as ex:
        src = getattr(args, "expr", "")
        sys.stderr.write("syntax error at column %d: %s\n" % (ex.pos + 1, ex))
        if src and not str(ex).startswith("--at:") and ex.pos <= len(src):
            sys.stderr.write("  %s\n  %s^\n" % (src, " " * ex.pos))
        return 2
    except UsageError as ex:
        sys.stderr.write("usage error: %s\n" % ex)
        return 2
    except (ComputationError, SeriesError, OracleError, ValueError,
            TypeError, ZeroDivisionError) as ex:
        sys.stderr.write("rejected: %s\n" % ex)
        return 1


if __name__ == "__main__":
    sys.exit(main())
