"""Self-test of the benchmark's own machinery; needs no hypint run.

    python3 bench/selftest.py

Checks that the reference module imports nothing from hypint (by its
source and at run time), that a seed fixes the inputs and another seed
changes them, that the references agree with closed forms they do not
use, and that the tag audit accepts and rejects the right call sets.
Exits 1 on the first failed check.
"""

import ast
import cmath
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import tracer  # noqa: E402

UNDECLARED = ("hypint", "mpmath", "pytest_benchmark")


def check(cond, what):
    if not cond:
        sys.stderr.write("FAIL: %s\n" % what)
        sys.exit(1)
    print("ok   %s" % what)


def imported_roots(path):
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def main():
    roots = imported_roots(HERE / "cases.py")
    check(not roots & set(UNDECLARED), "cases.py imports none of %s" % ", ".join(UNDECLARED))

    series = cases.series_ops(7)
    integrals = cases.integral_ops(7)
    refs = [cases.series_reference(op) for op in series]
    check(not any(m.split(".")[0] in UNDECLARED for m in sys.modules),
          "references computed with no hypint, mpmath or pytest_benchmark loaded")

    check(len(series) == cases.SERIES_SIZE and len(integrals) == cases.INTEGRAL_SIZE,
          "set sizes %d and %d" % (cases.SERIES_SIZE, cases.INTEGRAL_SIZE))
    check(cases.input_hash(series) == cases.input_hash(cases.series_ops(7)),
          "series: same seed, same input hash")
    check(cases.input_hash(integrals) == cases.input_hash(cases.integral_ops(7)),
          "integrals: same seed, same input hash")
    check(cases.input_hash(series) != cases.input_hash(cases.series_ops(8)),
          "series: another seed, other inputs")
    check(cases.input_hash(integrals) != cases.input_hash(cases.integral_ops(8)),
          "integrals: another seed, other inputs")
    check(all(r["tol"] >= cases.SERIES_TOL[op["tag"]][min(op["order"], 1)]
              for op, r in zip(series, refs)), "no check tighter than its tag tolerance")

    # references against closed forms they do not use
    z = cmath.exp(2.0j)
    got = cases.ref_2f1(1.0, 1.0, 2.0, z)
    check(abs(got + cmath.log(1 - z) / z) < 1e-13, "2F1(1,1;2;z) = -log(1-z)/z on |z| = 1")
    got = cases.ref_3f2(2.5, 0.5, 3.0, 0.5)
    want = sum(math.gamma(2.5 + k) / math.gamma(2.5) * math.gamma(0.5 + k) / math.gamma(0.5)
               / (math.gamma(3.0 + k) / math.gamma(3.0)) / math.factorial(k + 1) * 0.5**k
               for k in range(80))
    check(abs(got - want) < 1e-13, "3F2(a,b,1;c,2;z) closed form against its series")
    jet = cases.ref_gauss_jet(0.3, 0.4, 1.9, 2)
    h = 1e-4

    def gauss(a):
        return math.gamma(1.9) * math.gamma(1.5 - a) / (math.gamma(1.9 - a) * math.gamma(1.5))

    fd1 = (gauss(0.3 + h) - gauss(0.3 - h)) / (2 * h)
    check(abs(jet[1] - fd1) < 1e-7, "Gauss-sum jet slope against a central difference")
    op = {"upper": [-3.0, 0.5], "lower": [1.5], "z": [0.25, 0.0], "order": 1}
    coeffs, kappa = cases._terminating_exact(op)
    want = 1 + (-3 * 0.5 / 1.5) * 0.25 + (-3 * -2 * 0.5 * 1.5 / (1.5 * 2.5 * 2)) * 0.0625 \
        + (-3 * -2 * -1 * 0.5 * 1.5 * 2.5 / (1.5 * 2.5 * 3.5 * 6)) * 0.015625
    check(abs(coeffs[0] - want) < 1e-15 and kappa >= 1.0, "exact terminating sum")

    check(tracer.audit("pfaff", {"transforms.pfaff", "transforms.gauss_near_one"}),
          "audit: pfaff may continue through the near-one connection")
    check(not tracer.audit("pfaff", {"hypseries.eval_series"}), "audit: pfaff must call pfaff")
    check(not tracer.audit("direct", {"transforms.pfaff"}), "audit: direct calls no route")
    check(tracer.audit("at_one", {"hypseries.eval_at_one", "jets.jet_mul"}),
          "audit: at_one calls eval_at_one")
    print("all checks passed")


if __name__ == "__main__":
    main()
