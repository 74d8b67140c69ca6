"""Typed expressions: parser, printer, evaluator and integrand recognizer.

The grammar: rational, decimal and imaginary literals, x, eps,
nFm(uppers;lowers;argument) series, [eps^k] coefficient extraction,
+ - * / ^, and sqrt, ln, arctan, arcsin, which are read as their 1F0 and
2F1 forms, one per function; unknown names are parse errors with a column.
`integrand` folds an expression into coeff * x^alpha * [eps^k] body for
the `integrate` drivers.  The oracle's `_real_closure` alone compiles
the typed expression over math, independent of the series rewrite.
`import hypint` does not load this module; `hypint.cli` does.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple, Union

from .hypseries import PFQSpec, eval_series, route
from .integrate import DRIVER_TOL, _fmt_complex
from .jets import Jet, as_jet, eps, extract

__all__ = ["parse", "render", "integrand", "Integrand", "ParseError",
           "ComputationError", "UsageError"]

class ParseError(Exception):
    """A syntax error at index `pos` of the text `src`."""

    def __init__(self, message: str, pos: int, src: str = ""):
        super().__init__(message)
        self.pos = pos
        self.src = src


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

# the odd series u * 2F1(a; 3/2; s u^2) of the functions, name -> (a, s),
# read by both the evaluator and the recognizer
_ODD_SERIES = {
    "arctan": ((0.5, 1.0), -1.0),
    "arcsin": ((0.5, 0.5), 1.0),
}


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
            return Imag(Fraction(_in_range(t)))
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


def _in_range(t: _Tok) -> str:
    """t's text, whose nearest double must be finite, and nonzero unless t is 0."""
    x = float(t.text)
    if math.isinf(x) or (x == 0.0 and t.text.lower().split("e")[0].strip("0.")):
        raise ParseError("number %s lies outside the double range" % t.text, t.pos)
    return t.text


def _literal_of(t: _Tok) -> Union[Rat, Dec]:
    text = _in_range(t)
    if "." in text or "e" in text or "E" in text:
        return Dec(text)
    return Rat(Fraction(int(text)))


def _negate_literal(e: Expr) -> Optional[Expr]:
    if isinstance(e, Rat):
        return Rat(-e.value)
    if isinstance(e, Dec):
        return Dec(e.text[1:]) if e.text.startswith("-") else Dec("-" + e.text)
    if isinstance(e, Imag):
        return Imag(-e.value)
    return None


def parse(text: str) -> Expr:
    try:
        return _Parser(text).parse()
    except ParseError as ex:
        ex.src = text
        raise


# ---------------------------------------------------------------------------
# printer; parse(render(e)) == e on the canonical forms the parser builds

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
_INFIX = {Add: ("+", _PREC_ADD), Sub: ("-", _PREC_ADD),
          Mul: (" * ", _PREC_MUL), Div: ("/", _PREC_MUL)}


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
            return "%di" % e.value.numerator, _PREC_ATOM if e.value > 0 else _PREC_NEG
        # "1/2i" would lex as 1/(2i); spell the product out instead
        text, _ = _render_prec(Rat(e.value))
        return "%s * i" % text, _PREC_MUL
    if isinstance(e, Var):
        return "x", _PREC_ATOM
    if isinstance(e, EpsVar):
        return "eps", _PREC_ATOM
    if isinstance(e, PFq):
        ups, lows = (",".join(render(p) for p in ps) for ps in (e.upper, e.lower))
        p, q = len(e.upper), len(e.lower)
        return "%dF%d(%s;%s;%s)" % (p, q, ups, lows, render(e.arg)), _PREC_ATOM
    if isinstance(e, Call):
        return "%s(%s)" % (e.fn, render(e.arg)), _PREC_ATOM
    if isinstance(e, Neg):
        return "-" + _render(e.u, _PREC_NEG + 1), _PREC_NEG
    if type(e) in _INFIX:
        op, prec = _INFIX[type(e)]
        return op.join((_render(e.u, prec), _render(e.v, prec + 1))), prec
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


def _quarter_powers(u: complex) -> tuple:
    """(k, m) with u = 4^k m and 1/2 <= |m| < 2, exactly.

    A 1F0 form at 1 - m then rounds m within an ulp of |m|, where
    1 - (1 - u) would lose the low bits of a small u.
    """
    k = math.frexp(abs(u))[1] // 2
    return k, complex(math.ldexp(u.real, -2 * k), math.ldexp(u.imag, -2 * k))


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
        if isinstance(e, Div):
            den = self.eval(e.v)
            if den == 0:
                raise ComputationError("division by zero")
            return self.eval(e.u) / den
        if type(e) in _BINARY:
            return _BINARY[type(e)](self.eval(e.u), self.eval(e.v))
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
        name = route(spec, spec.argument(z))
        via = "series" if name == "direct" else "by " + name
        self.trace.append("%dF%d %s at %s" % (spec.p, spec.q, via, _fmt_complex(z)))
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
                return self._arctan(u)
            if u.imag == 0.0:
                self.trace.append("arctan reflected to 1/x")
                half = math.copysign(math.pi / 2.0, u.real)
                return half - self._arctan(1.0 / u.real)
            raise ComputationError("arctan outside the unit disk")
        if e.fn == "arcsin":
            if abs(u) <= 1.0:
                self.trace.append("arcsin as odd 2F1 series")
                return self._odd("arcsin", u)
            raise ComputationError("arcsin outside [-1, 1]")
        if u.imag == 0.0 and (u.real < 0.0 or u.real == 0.0 and e.fn == "ln"):
            raise ComputationError("%s is cut along (-oo, 0]: %g" % (e.fn, u.real))
        if e.fn == "sqrt":
            self.trace.append("sqrt as 1F0(-1/2;;1-u)")
            return self._sqrt(u)
        if e.fn == "ln":
            self.trace.append("ln as -[eps] 1F0(eps;;1-u)")
            k, m = _quarter_powers(u)
            ln_m, ln_4 = (-extract(1, self._1f0(eps(1), v)) for v in (m, 4.0))
            return ln_m + k * ln_4
        raise ComputationError("unknown function %r" % e.fn)

    def _sqrt(self, u: complex) -> complex:
        """sqrt(u) = 2^k 1F0(-1/2;;1-m), u = 4^k m off the cut (-oo, 0)."""
        k, m = _quarter_powers(u)
        return math.ldexp(1.0, k) * self._1f0(as_jet(-0.5, 0), m).value

    def _arctan(self, u: complex) -> complex:
        """arctan(u) for |u| <= 1, u != +-i, by its odd 2F1 series.

        The series runs at -u^2, next to its circle as |u| nears 1, so
        past |u| = 1/2 it takes the half angle
        arctan(u) = 2 arctan(u / (1 + sqrt(1 + u^2))), whose argument has
        modulus at most 1/(1 + sqrt 2) on the real line.
        """
        if abs(u) <= 0.5:
            return self._odd("arctan", u)
        return 2.0 * self._odd("arctan", u / (1.0 + self._sqrt(1.0 + u * u)))

    def _odd(self, fn: str, u: Value) -> complex:
        """u * 2F1(a; 3/2; s u^2), with (a, s) from _ODD_SERIES."""
        upper, sign = _ODD_SERIES[fn]
        spec = PFQSpec(upper, (1.5,), order=0)
        return u * _unwrap(eval_series(spec, sign * u * u, tol=self.tol))

    def _1f0(self, a: Jet, u: complex) -> Jet:
        """1F0(a;;1-u) = u^(-a), in closed form off u in (-oo, 0]."""
        return eval_series(PFQSpec((a,), ()), 1.0 - u, tol=self.tol)


# ---------------------------------------------------------------------------
# the oracle's integrand: the typed expression as one real closure over math

_LIBM = {"sqrt": math.sqrt, "ln": math.log, "arcsin": math.asin, "arctan": math.atan}

# a compiled node is a float constant or a float function of x
Node = Union[float, Callable[[float], float]]


def _real_closure(e: Expr) -> Callable[[float], float]:
    """Compile an integrand once into a float function of x.

    The oracle integrates this instead of the folded Integrand, so a
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

        def power(t: float) -> float:
            try:
                return math.pow(t, r)
            except OverflowError:
                # past the double range: the signed infinity, so that a
                # quotient by it is 0 (t < 0 has an integer r here)
                return -math.inf if t < 0.0 and r % 2.0 == 1.0 else math.inf

        return _apply(power, _real_node(e.base))
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
# integrand recognition: coeff * x^alpha * [eps^k] body(scale * x^power)


@dataclass
class Integrand:
    coeff: complex = 1.0
    alpha: Fraction = Fraction(0)
    body: Optional[PFQSpec] = None
    extract_k: int = 0


def integrand(e: Expr, order: int) -> Integrand:
    """Fold a typed integrand into coeff * x^alpha * [eps^k] body.

    `order` is the jet order of eps in series parameters (`_tree_order`).
    Raises ComputationError, naming the shape, when e has no such form.
    """
    st = Integrand()
    _collect(e, st, order)
    return st


def _collect(e: Expr, st: Integrand, order: int) -> None:
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
    match = _binomial_power(e)
    if match is not None:
        _attach_binomial(match[0], -match[1], st)
        return
    if _tree_order(e) == 0:
        # a factor free of x and eps is a constant, folded as `hypint eval` does
        try:
            st.coeff *= complex(_Evaluator(None, 0).eval(e))
            return
        except UsageError:  # the factor holds x
            pass
    if isinstance(e, PFq):
        _attach_series(e, st, order)
        return
    if isinstance(e, Call):
        _attach_call(e, st, order)
        return
    if isinstance(e, (Add, Sub)):
        raise ComputationError(
            "sums of terms cannot be integrated as one series; "
            "integrate the terms separately"
        )
    if isinstance(e, Pow):
        raise ComputationError("power base is neither x nor 1 + c x^p")
    raise ComputationError("cannot integrate this expression shape")


def _divide(e: Expr, st: Integrand, order: int) -> None:
    """Fold a denominator into the integrand state."""
    mono = _try_monomial(e)
    if mono is not None:
        c, a = mono
        if c == 0:
            raise ComputationError("division by zero")
        st.coeff /= c
        st.alpha -= a
        return
    match = _binomial_power(e)
    if match is not None:
        _attach_binomial(match[0], match[1], st)
        return
    raise ComputationError(
        "denominator is neither a monomial nor a power of 1 + c x^p"
    )


def _try_monomial(e: Expr) -> Optional[Tuple[complex, Fraction]]:
    try:
        st = Integrand()
        _collect(e, st, 0)
    except ComputationError:
        return None
    if st.body is not None or st.extract_k:
        return None
    return st.coeff, st.alpha


Binomial = Tuple[complex, complex, Fraction]


def _binomial_power(e: Expr) -> Optional[Tuple[Binomial, Fraction]]:
    """Match B, B^r or sqrt(B) with B = c + d*x^p; returns (B, r)."""
    if isinstance(e, Pow):
        base, r = e.base, _lit_fraction(e.exponent)
    elif isinstance(e, Call) and e.fn == "sqrt":
        base, r = e.arg, Fraction(1, 2)
    else:
        base, r = e, Fraction(1)
    binom = _binomial_of(base)
    return None if binom is None else (binom, r)


def _binomial_of(e: Expr) -> Optional[Binomial]:
    """Match c + d*x^p with constant c != 0 and p > 0."""
    if isinstance(e, Add):
        pairs = ((e.u, e.v, 1.0), (e.v, e.u, 1.0))
    elif isinstance(e, Sub):
        pairs = ((e.u, e.v, -1.0),)
    else:
        return None
    for const_part, mono_part, sign in pairs:
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


def _attach_binomial(binom: Binomial, a: Fraction, st: Integrand) -> None:
    """Fold (c + d x^p)^(-a) into the state as a 1F0(a;;-(d/c) x^p) body."""
    c, d, p = binom
    body = PFQSpec((complex(a),), (), scale=-d / c, power=p, order=0)
    _merge_body(st, body)
    st.coeff *= complex(c) ** float(-a)


def _attach_series(e: PFq, st: Integrand, order: int) -> None:
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
    _merge_body(st, PFQSpec(upper, lower, scale=gamma, power=beta,
                            order=order if jetted else 0))


def _attach_call(e: Call, st: Integrand, order: int) -> None:
    if e.fn in _ODD_SERIES:
        mono = _try_monomial(e.arg)
        if mono is None:
            raise ComputationError("%s argument must be c * x^p" % e.fn)
        g, m = mono
        if m <= 0:
            raise ComputationError("%s argument must grow from 0" % e.fn)
        upper, sign = _ODD_SERIES[e.fn]
        body = PFQSpec(upper, (1.5,), scale=sign * g * g, power=2 * m, order=0)
        st.coeff *= g
        st.alpha += m
        _merge_body(st, body)
        return
    if e.fn == "sqrt":
        # sqrt(1 + c x^p) itself is matched by _binomial_power
        raise ComputationError("sqrt supports 1 + c x^p arguments")
    if e.fn == "ln":
        arg, sign = e.arg, 1
        if isinstance(arg, Div):
            if _try_monomial(arg.u) != (1.0 + 0.0j, Fraction(0)):
                raise ComputationError("ln supports 1/(1 + c x^p) and 1 + c x^p")
            arg, sign = arg.v, -1
        match = _binomial_power(arg)
        if match is None:
            raise ComputationError("ln supports 1/(1 + c x^p) and 1 + c x^p")
        (c, d, p), r = match
        if c != 1.0:
            raise ComputationError("ln body must start at 1, got %s" % c)
        if st.extract_k:
            raise ComputationError("ln cannot combine with an explicit [eps^k]")
        # ln(B^r) = r ln(B) = -r [eps] 1F0(eps;; -d x^p) for B = 1 + d x^p
        st.extract_k = 1
        st.coeff *= -sign * float(r)
        _merge_body(st, PFQSpec((eps(1),), (), scale=-d, power=p, order=1))
        return
    raise ComputationError("unknown function %r" % e.fn)


def _merge_body(st: Integrand, body: PFQSpec) -> None:
    if st.body is not None:
        raise ComputationError(
            "a single series body is required; this integrand has two"
        )
    st.body = body
