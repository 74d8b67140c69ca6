"""Command-line front end.

Four subcommands: eval, integrate, verify, catalog.  Expressions are
read, evaluated and folded into integrands by `hypint.expr`; this module
holds argparse, the commands and their output.

Exit codes: 0 on success, 1 when a computation is rejected (the message
names the failed clause) or stdout is closed before the output is
written, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .expr import (
    ComputationError,
    ParseError,
    UsageError,
    _Evaluator,
    _real_closure,
    _tree_order,
    integrand,
    parse,
)
from .hypseries import SeriesError
from .integrate import (
    DRIVER_TOL,
    IntegrandSpec,
    _fmt_complex,
    _fmt_gamma_arg,
    _oracle_check,
    definite_0_to_1,
    definite_0_to_inf,
)
from .jets import Jet, extract
from .oracle import OracleError
from .transforms import catalog, catalog_names
from .verification import report_lines, run_suite

__all__ = ["main"]


# ---------------------------------------------------------------------------
# output plumbing


def _fmt_coeff(c: complex) -> str:
    """A constant factor: real or i-suffixed when imaginary, rational
    where that reads back as the same double, else 17 digits."""
    if c.imag == 0.0:
        return _fmt_real(c.real)
    if c.real == 0.0:
        mag = _fmt_real(c.imag)
        return {"1": "i", "-1": "-i"}.get(mag, mag + "*i")
    return "(%s)" % _fmt_complex(c)


def _fmt_real(v: float) -> str:
    text = _fmt_gamma_arg(v)
    return text if float(Fraction(text)) == v else "%.17g" % v


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
            raise ParseError("--at: %s" % pe, pe.pos, pe.src)
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
    st = integrand(expr, order)
    if st.body is None:
        if args.to != "1":
            raise ComputationError("a bare power of x diverges on [0, oo)")
        if st.alpha <= -1:
            raise ComputationError("needs alpha > -1 for integrability at 0")
        value = st.coeff / (float(st.alpha) + 1.0)
        _emit(_payload(args.expr, value, trace=["monomial integrated exactly"]),
              args.json)
        return 0
    spec = IntegrandSpec(st.alpha, st.body)
    jet_output = st.body.order > 0 and st.extract_k == 0
    closure = None
    if args.oracle:
        if order > 0:
            raise ComputationError(
                "oracle quadrature does not run on jet-valued integrands"
            )
        closure = _real_closure(expr)
    if args.to == "1":
        res = definite_0_to_1(spec, verify=False)
    else:
        res = definite_0_to_inf(spec, verify=False)
    closed = res.closed_form
    if closed is not None and st.coeff != 1:
        coeff = _fmt_coeff(st.coeff)
        closed = coeff if closed == "1" else "%s * %s" % (coeff, closed)
    trace = list(res.steps)
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
    oracle_value = discrepancy = None
    if closure is not None:
        oracle_value, discrepancy, step = _oracle_check(
            closure, st.body, args.to != "1", out_value, DRIVER_TOL
        )
        trace.append(step)
    _emit(_payload(args.expr, out_value, jet=jet, closed_form=closed,
                   oracle=oracle_value, discrepancy=discrepancy, trace=trace),
          args.json)
    return 0


def _cmd_verify(args) -> int:
    timings = {} if args.timings else None
    rows = run_suite(args.suite, timings)
    lines = report_lines(rows, timings)
    failed = sum(1 for r in rows if not r.passed)
    if args.json:
        _emit(
            _payload("verify --suite %s" % args.suite, complex(failed), trace=lines),
            True,
        )
    else:
        for line in lines:
            print(line)
    return 0 if failed == 0 else 1


def _cmd_catalog(args) -> int:
    if args.name is None:
        names = catalog_names()
        if args.json:
            _emit(_payload("catalog", complex(len(names)), trace=names), True)
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
    _emit(_payload(args.name, value, closed_form=closed, trace=trace), args.json)
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


def _jet_order(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError("jet order must be >= 0, got %s" % text)
    return int(text)


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
    p_eval.add_argument("--jet", type=_jet_order, default=0, help="output jet order")
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
    p_ver.add_argument("--timings", action="store_true",
                       help="add each row's margin err/tol and each group's ms")
    p_ver.set_defaults(fn=_cmd_verify)

    p_cat = sub.add_parser("catalog", help="list series representations")
    p_cat.add_argument("name", nargs="?")
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(fn=_cmd_catalog)
    return ap


def _bind_at(argv: Sequence[str]) -> list:
    """Each `--at V` as `--at=V`: argparse reads a V that starts with '-'
    and is not a plain negative number, such as -1+i, as an option.  A
    trailing `--at` stays, for argparse to report."""
    out: list = []
    for arg in argv:
        if out and out[-1] == "--at":
            out[-1] = "--at=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        code = _main(argv)
        # a closed pipe raises here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: exit 1 without a traceback, and point
        # stdout at the null device so that the flush at exit cannot
        # raise again (the Python docs' note on SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _main(argv: Optional[Sequence[str]]) -> int:
    ap = _build_argparser()
    try:
        args = ap.parse_args(_bind_at(sys.argv[1:] if argv is None else argv))
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as ex:
        sys.stderr.write("syntax error at column %d: %s\n" % (ex.pos + 1, ex))
        if ex.src:
            sys.stderr.write("  %s\n  %s^\n" % (ex.src, " " * ex.pos))
        return 2
    except UsageError as ex:
        sys.stderr.write("usage error: %s\n" % ex)
        return 2
    except (ComputationError, SeriesError, OracleError, ValueError,
            TypeError, ZeroDivisionError, OverflowError) as ex:
        sys.stderr.write("rejected: %s\n" % ex)
        return 1


if __name__ == "__main__":
    sys.exit(main())
