"""Write golden_pfq.json: reference values made with mpmath.

Run from the repository root with mpmath installed:

    python tests/data/make_golden_pfq.py
    python tests/data/make_golden_pfq.py --section near_one

A full run takes about 24 minutes.  `--section NAME` rebuilds that one
section and copies every other one from the committed JSON unchanged.
mpmath is only needed here.  The tests read the JSON and never import
it.  Every number is a jet: the list of Taylor coefficients c_0 .. c_n
in the perturbation eps of one parameter, each as [re, im].

Sections:
- at_one: pFq at z = 1 for p = q+1.  Values come from mpmath's hyper.
  Rows whose value has a closed form (zeta(2), zeta(3)) use that
  instead.  A jet row perturbs one parameter.  Its Taylor coefficients
  come from Cauchy's formula on a circle of radius r around the base,
  c_k = mean over j of f(x0 + r w^j) (r w^j)^(-k) with w = e^(2 pi i/N),
  which is exact up to (r/R)^N, R the distance to the nearest
  singularity in that parameter (R >= 1 in every row here).
- reciprocal_gamma: 1/Gamma(z0 + eps) to eps^4 next to the poles, by
  mp.taylor (numerical differentiation at raised precision).
- near_one: 2F1 jets at orders 1, 2 and 4 where the engine takes the
  near-one connection: real z in (0.95, 1), and z = -30 and -500, which
  Pfaff moves there.  By mp.taylor.
- circle: 2F1, 3F2 and 4F3 on |z| = 1 off z = 1, by mpmath's hyper;
  jets by Cauchy's formula as for at_one.  Rows marked `raises` are
  beyond the engine's reach and must end in a typed SeriesError.
- ring: 2F1, 3F2 and 4F3 at 0.95 <= |z| < 1, where the engine sums by
  Levin's transform, plainly or by Wynn's epsilon, as for circle.
  Where mpmath's Euler-Maclaurin tail does not converge, its series is
  summed directly.
- disk: 2F1, 3F2, 1F1 and 0F1 jets at orders 1, 2, 4 and 8 at
  |z| <= 0.9, real and complex, where the engine sums the series
  directly: zero bases, a base of -3 + 1e-6 and a lower base of
  0.2 + eps (ratio factors taken whole), two parameters taken whole at
  one j, complex parameters, and parameters moved by eps + eps^2/2 in
  place of eps (`nil` lists the coefficients of eps, eps^2, ...).  By
  mp.taylor, as for near_one.  Every row's tol is the engine's default
  1e-12.
- appell: Appell's F1 and F2 by mpmath's appellf1 and appellf2, for
  multivar.eval_double.  F1 at moduli 1/3, 0.6 and 0.75 with arguments
  of one sign, of opposite signs (the diagonal sums cancel) and complex;
  F2 at |x| + |y| up to 0.6.  Parameters are in DoubleSeriesSpec order:
  F1 outer (a, c), inner_x (b1,), inner_y (b2,); F2 outer (a,),
  inner_x (b1, c1), inner_y (b2, c2).
- limits: the leading coefficient C of (-z)^alpha pFq(z) -> C as
  z -> -oo, alpha the smallest upper parameter, for
  hypseries.limit_at_minus_infinity: (-z)^alpha times mpmath's hyper at
  z = -1e30, computed at 30 and 45 digits.  The first rows have upper
  parameters an integer apart; in every row the next power of -z lies
  at least 0.6 below alpha, so the value at -1e30 is the limit to 1e-18.

Each reference is computed twice, at 20 and 30 digits, or for Cauchy's
formula at 30 digits on two circles (r, N) = (0.15, 24) and (0.2, 28).
The script stops if the two differ by more than 1e-17 relative.
"""

import argparse
import cmath
import json
import math
import sys
import time
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).with_name("golden_pfq.json")

# (label, upper, lower, jet (side, index, order) or None, tol)
AT_ONE = [
    # Thomae-range 3F2s: excess 0.6-1.6
    ("thomae 1", [0.31, 0.55, 0.72], [1.21, 1.47], None, 1e-11),
    ("thomae 2", [0.12, 0.38, 0.66], [1.04, 0.92], None, 1e-11),
    ("thomae 3", [0.77, 0.24, 0.49], [1.63, 0.61], None, 1e-11),
    ("thomae 4", [0.45, 0.45, 0.45], [1.5, 1.25], None, 1e-11),
    ("thomae 5", [0.18, 0.71, 0.33], [1.33, 1.49], None, 1e-11),
    ("thomae 6", [0.62, 0.58, 0.11], [1.79, 0.65], None, 1e-11),
    ("thomae 7", [0.25, 0.5, 0.75], [1.1, 1.4], None, 1e-11),
    ("thomae 8", [0.8, 0.8, 0.1], [1.7, 1.1], None, 1e-11),
    # the Wynn route raised ConvergenceError on this one
    ("wide 3F2", [2.4532, 1.6766, 1.7589], [1.9611, 4.2259], None, 1e-11),
    ("excess 3", [0.5, 1.5, 2.5], [3.0, 4.5], None, 1e-11),
    # excess 0.2-0.3
    ("excess 0.2", [0.3, 0.5, 0.7], [1.1, 0.6], None, 1e-10),
    ("excess 0.25", [0.6, 0.9, 1.2], [1.3, 1.65], None, 1e-10),
    ("excess 0.3", [1.0, 1.0, 0.5], [1.4, 1.4], None, 1e-10),
    ("excess 0.2 4F3", [0.3, 0.4, 0.5, 0.6], [1.0, 0.9, 0.1], None, 1e-10),
    ("excess 0.25 complex", [0.4 + 0.3j, 0.6, 0.7 - 0.3j], [1.2, 0.75], None, 1e-10),
    # integer excess
    ("zeta(2)", [1.0, 1.0, 1.0], [2.0, 2.0], None, 1e-11),
    ("zeta(3)", [1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0], None, 1e-11),
    ("excess 2", [1.0, 1.0, 1.0], [2.0, 3.0], None, 1e-11),
    ("excess 1 half", [0.5, 0.5, 0.5], [1.0, 1.0], None, 1e-11),
    # complex parameters
    ("complex 1", [0.3 + 0.5j, 0.3 - 0.5j, 0.8], [1.2, 1.5], None, 1e-11),
    ("complex 2", [0.5j, 0.7, 0.9], [1.1 + 0.2j, 1.6], None, 1e-11),
    ("complex 3", [0.2 + 1j, 0.4, 0.6], [1.3, 1.2 + 1j], None, 1e-11),
    ("complex excess", [0.5, 0.5, 0.5], [1.2 + 0.7j, 1.3 - 0.2j], None, 1e-11),
    # 4F3 and 5F4
    ("4F3 1", [0.2, 0.4, 0.6, 0.8], [1.1, 1.3, 1.5], None, 1e-11),
    ("4F3 2", [0.5, 0.5, 0.5, 0.5], [1.0, 1.0, 1.5], None, 1e-11),
    ("4F3 3", [1.5, 0.3, 0.9, 0.25], [2.0, 1.1, 1.2], None, 1e-11),
    ("5F4 1", [0.1, 0.3, 0.5, 0.7, 0.9], [1.0, 1.2, 1.4, 1.6], None, 1e-11),
    ("5F4 2", [0.5, 0.5, 0.5, 0.5, 0.5], [1.0, 1.0, 1.0, 1.5], None, 1e-11),
    ("5F4 3", [1.2, 0.6, 0.4, 0.3, 0.2], [1.5, 1.3, 0.8, 0.9], None, 1e-11),
    # jets; the order-2 one raised ConvergenceError on the Wynn route
    ("jet 2 upper", [0.4, 0.5, 0.6], [1.3, 1.4], ("upper", 0, 2), 1e-10),
    ("jet 1 lower", [0.3, 0.7, 1.0], [1.5, 2.0], ("lower", 0, 1), 1e-10),
    ("jet 1 4F3", [0.2, 0.4, 0.6, 0.8], [1.1, 1.3, 1.5], ("upper", 0, 1), 1e-10),
    ("jet 2 zeta(2)", [1.0, 1.0, 1.0], [2.0, 2.0], ("upper", 0, 2), 1e-10),
    ("jet 4 upper", [0.6, 0.7, 0.8], [1.5, 1.9], ("upper", 1, 4), 1e-9),
    ("jet 4 lower", [0.5, 0.5, 0.5], [1.25, 1.5], ("lower", 1, 4), 1e-9),
    ("jet 2 thomae", [0.31, 0.55, 0.72], [1.21, 1.47], ("lower", 0, 2), 1e-10),
    ("jet 1 complex", [0.3 + 0.5j, 0.3 - 0.5j, 0.8], [1.2, 1.5], ("upper", 2, 1), 1e-10),
    ("jet 1 5F4", [0.1, 0.3, 0.5, 0.7, 0.9], [1.0, 1.2, 1.4, 1.6], ("upper", 4, 1), 1e-10),
    # at the engine's default tol: checkpoints started at 8*2^j in place
    # of 64*2^j return both 1e-12 or more off
    ("early checkpoints 1",
     [0.5445645461433958, 0.3566841719136765, 0.5864854742257818],
     [1.033554925410245, 1.8848177186051176], None, 1e-12),
    ("early checkpoints 2", [9.50466765499725, 9.67975199355979, 2.9016235208364205],
     [3.810814988570245, 20.953510438910037], None, 1e-12),
]

CLOSED = {
    "zeta(2)": lambda: mp.zeta(2),
    "zeta(3)": lambda: mp.zeta(3),
}

RGAMMA_BASES = [-0.99976, -2.5, -0.3, 0.2, -5.00001, -1.0 + 1e-9]

# (label, upper, lower, z, jet, tol)
NEAR_ONE = [
    # series seed 58, op 1339 of the benchmark: order-4 jet in a
    ("near-one jet 4", [2.2341790188461954, 0.13939992765864434],
     [1.2344192842244488], 0.9893562395294302, ("upper", 0, 4), 1e-12),
    # c-a-b across -1.4 .. 2.4, at least 0.05 from an integer
    ("c-a-b -1.4 jet 1", [1.3, 0.9], [0.8], 0.97, ("upper", 0, 1), 1e-12),
    ("c-a-b -0.55 jet 4", [1.05, 0.7], [1.2], 0.99, ("upper", 1, 4), 1e-12),
    # the two terms of its eps^2 coefficient, about 112 each, cancel to
    # 0.18, and their rounding leaves the row 8e-13 off
    ("c-a-b 0.95 jet 2", [0.65, 0.4], [2.0], 0.96, ("lower", 0, 2), 1e-11),
    ("c-a-b 2.4 jet 2", [0.6, 0.75], [3.75], 0.98, ("lower", 0, 2), 1e-12),
    # 1/Gamma jets by reflection: a < 1/2, then c-a < 1/2 (and c-b)
    ("reflected a jet 4", [0.3, 1.3], [1.2], 0.97, ("upper", 0, 4), 1e-12),
    ("reflected c-a jet 2", [1.1, 0.45], [1.4], 0.985, ("upper", 0, 2), 1e-12),
    ("reflected c-a, c-b jet 4", [0.9, 1.2], [1.25], 0.975, ("lower", 0, 4), 1e-12),
    # Pfaff moves these to z/(z-1) = 30/31 and 500/501
    ("pfaff -30 jet 4", [0.7, 0.3], [1.6], -30.0, ("upper", 1, 4), 1e-12),
    ("pfaff -500 jet 1", [1.2, 0.8], [2.3], -500.0, ("lower", 0, 1), 1e-12),
]


# (label, upper, lower, z, jet, nil or None); a jet's index may be a
# list, as for CIRCLE.  nil [1, 0.5] moves each named parameter by
# eps + eps^2/2; None is eps alone.
DISK = [
    ("2F1 0.5 jet 1", [0.3, 0.7], [1.4], 0.5, ("upper", 0, 1), None),
    ("2F1 -0.6 jet 2", [0.3, 0.7], [1.4], -0.6, ("upper", 1, 2), None),
    ("2F1 0.9 jet 4", [0.3, 0.7], [1.4], 0.9, ("lower", 0, 4), None),
    ("2F1 0.03 jet 4", [1.25, 0.6], [2.1], 0.03, ("upper", 0, 4), None),
    ("2F1 0.2+0.3i jet 2", [1.2, 0.45], [2.9], 0.2 + 0.3j, ("upper", 0, 2), None),
    ("2F1 0.9 e^2i jet 1", [0.5, 0.8], [1.3], cmath.rect(0.9, 2.0), ("lower", 0, 1), None),
    ("2F1 0.7 e^-i jet 8", [0.6, 0.7], [1.4], cmath.rect(0.7, -1.0), ("upper", 0, 8), None),
    ("2F1 0.4 jet 8", [1.1, 0.6], [2.3], 0.4, ("lower", 0, 8), None),
    ("3F2 0.5 jet 1", [0.4, 0.9, 1.3], [1.7, 2.2], 0.5, ("upper", 1, 1), None),
    ("3F2 -0.8 jet 2", [0.4, 0.9, 1.3], [1.7, 2.2], -0.8, ("lower", 1, 2), None),
    ("3F2 0.85 e^1.2i jet 4", [0.6, 1.3, 1.0], [2.7, 2.0], cmath.rect(0.85, 1.2),
     ("upper", 0, 4), None),
    ("3F2 0.05 jet 4", [1.5, 2.5, 0.5], [3.5, 1.5], 0.05, ("lower", 0, 4), None),
    ("1F1 0.9 jet 1", [0.7], [1.9], 0.9, ("upper", 0, 1), None),
    ("1F1 0.5i jet 2", [1.3], [0.6], 0.5j, ("lower", 0, 2), None),
    ("1F1 0.3 jet 4", [2.5], [3.5], 0.3, ("upper", 0, 4), None),
    ("1F1 0.6 e^1.4i jet 8", [0.9], [1.6], cmath.rect(0.6, 1.4), ("upper", 0, 8), None),
    ("0F1 0.9 jet 1", [], [1.5], 0.9, ("lower", 0, 1), None),
    ("0F1 -0.9 jet 2", [], [0.75], -0.9, ("lower", 0, 2), None),
    ("0F1 0.8i jet 4", [], [2.5], 0.8j, ("lower", 0, 4), None),
    ("0F1 0.1 jet 8", [], [1.2], 0.1, ("lower", 0, 8), None),
    # zero bases: the first ratio factor of each is eps alone
    ("2F1 zero bases 0.5 jet 2", [0.0, 0.0], [1.0], 0.5, ("upper", [0, 1], 2), None),
    ("2F1 zero base 0.8 e^0.5i jet 4", [0.0, 0.7], [1.4], cmath.rect(0.8, 0.5),
     ("upper", 0, 4), None),
    ("1F1 zero base 0.9 jet 2", [0.0], [1.3], 0.9, ("upper", 0, 2), None),
    ("3F2 zero base -0.5 jet 1", [0.0, 0.5, 1.5], [2.0, 1.2], -0.5, ("upper", 0, 1), None),
    # a ratio factor 1e-6 + eps at j = 3
    ("2F1 base -3+1e-6 0.6 jet 2", [-3.0 + 1e-6, 0.7], [1.4], 0.6, ("upper", 0, 2), None),
    ("2F1 base -3+1e-6 0.5i jet 1", [-3.0 + 1e-6, 0.7], [1.4], 0.5j, ("upper", 0, 1), None),
    ("1F1 base -3+1e-6 0.9 jet 4", [-3.0 + 1e-6], [1.5], 0.9, ("upper", 0, 4), None),
    # a lower factor 0.2 + eps at j = 0, divided whole
    ("2F1 lower 0.2 0.5 jet 1", [0.3, 0.7], [0.2], 0.5, ("lower", 0, 1), None),
    ("2F1 lower 0.2 0.3 e^2i jet 4", [1.3, 0.4], [0.2], cmath.rect(0.3, 2.0),
     ("lower", 0, 4), None),
    ("0F1 lower 0.2 0.9 jet 2", [], [0.2], 0.9, ("lower", 0, 2), None),
    # two upper factors taken whole at one j: 2F1(a+eps, b+eps; a+b; z)
    # at j = 0, as verify's log multiplier draws it, and two at j = 2
    ("2F1 two whole 0.5 jet 1", [0.3, 0.15], [0.45], 0.5, ("upper", [0, 1], 1), None),
    ("2F1 two whole 0.9 jet 2", [0.3, 0.15], [0.45], 0.9, ("upper", [0, 1], 2), None),
    ("2F1 two whole -0.7 jet 4", [0.2, 0.4], [0.6], -0.7, ("upper", [0, 1], 4), None),
    ("2F1 two whole at 2 0.4 jet 2", [-2.2, -1.9], [1.5], 0.4, ("upper", [0, 1], 2), None),
    # complex parameters
    ("2F1 complex 0.6 jet 2", [0.5 + 0.5j, 0.7], [1.4], 0.6, ("upper", 0, 2), None),
    ("3F2 complex 0.8 e^-2i jet 1", [0.4 + 0.3j, 0.6, 0.7 - 0.3j], [1.2, 1.1],
     cmath.rect(0.8, -2.0), ("upper", 0, 1), None),
    ("1F1 complex 0.9i jet 4", [1.1], [1.5 - 0.7j], 0.9j, ("lower", 0, 4), None),
    ("2F1 complex whole 0.7 jet 2", [0.1 + 0.2j, 0.8], [1.3], 0.7, ("upper", 0, 2), None),
    # a nilpotent part with an eps^2 coefficient
    ("2F1 eps + eps^2/2 0.6 jet 4", [0.3, 0.7], [1.4], 0.6, ("upper", 0, 4), [1.0, 0.5]),
    ("1F1 eps + eps^2/2 0.8i jet 4", [0.7], [1.9], 0.8j, ("lower", 0, 4), [1.0, 0.5]),
]
DISK_TOL = 1e-12


# pFq on |z| = 1 off z = 1, at z = e^(i theta) rounded to doubles; theta
# None is z = -1.  (label, upper, lower, theta, jet or None, tol, raises).
# A jet's index may be a list: the same eps is added to each of those
# parameters.  `raises` rows are beyond the engine's reach and must end
# in a typed SeriesError.
CIRCLE = [
    # the scalar and its jets in a; order 2 at e^(2i) as well
    ("2F1 e^i", [0.3, 0.7], [1.4], 1.0, None, 1e-10, False),
    ("2F1 e^i jet 1", [0.3, 0.7], [1.4], 1.0, ("upper", 0, 1), 1e-9, False),
    ("2F1 e^i jet 2", [0.3, 0.7], [1.4], 1.0, ("upper", 0, 2), 1e-9, False),
    ("2F1 e^i jet 4", [0.3, 0.7], [1.4], 1.0, ("upper", 0, 4), 1e-9, False),
    ("2F1 e^2i jet 2", [0.3, 0.7], [1.4], 2.0, ("upper", 0, 2), 1e-9, False),
    # 2F1(eps, eps; 1; i) = 1 + Li2(i) eps^2 + ...: every term past the
    # first has zero constant and eps parts
    ("dilog i", [0.0, 0.0], [1.0], math.pi / 2, ("upper", [0, 1], 2), 1e-9, False),
    # 2F1, excess 0.02-4
    ("2F1 excess 0.02", [0.5, 0.7], [1.22], 1.2, None, 1e-10, False),
    ("2F1 excess 0.02 at the cut", [0.5, 0.7], [1.22], 0.6, None, 1e-10, False),
    ("2F1 excess 0.02 lower half", [1.3, 0.4], [1.72], -2.0, None, 1e-10, False),
    ("2F1 excess 0.4", [2.1, 0.6], [3.1], 2.5, None, 1e-10, False),
    ("2F1 excess 1", [0.25, 1.75], [3.0], -0.8, None, 1e-10, False),
    ("2F1 excess 4", [2.1, 1.3], [7.4], 2.9, None, 1e-10, False),
    # 3F2, excess 0.02-4
    ("3F2 -1 excess 0.02", [0.5, 0.5, 0.5], [1.0, 0.52], None, None, 1e-10, False),
    ("3F2 -1 excess 0.5", [1.2, 0.8, 0.6], [1.4, 1.7], None, None, 1e-10, False),
    ("3F2 excess 0.3", [0.5, 0.7, 1.2], [1.3, 1.4], 0.6, None, 1e-10, False),
    ("3F2 excess 0.75", [2.3, 1.6, 1.0], [3.65, 2.0], -2.5, None, 1e-10, False),
    ("3F2 excess 2", [1.1, 0.9, 1.7], [2.2, 3.5], 1.5, None, 1e-10, False),
    ("3F2 excess 4", [0.4, 1.9, 2.2], [3.5, 5.0], -3.0, None, 1e-10, False),
    ("3F2 catalan", [1.0, 1.0, 1.0], [2.0, 2.0], math.pi / 2, None, 1e-10, False),
    ("3F2 -1 jet 2", [1.0, 1.0, 1.0], [2.0, 2.0], None, ("upper", 2, 2), 1e-9, False),
    # 4F3
    ("4F3 excess 0.02", [0.3, 0.5, 0.7, 0.9], [1.1, 1.2, 0.12], -2.2, None, 1e-10, False),
    ("4F3 excess 0.1", [0.3, 0.5, 0.7, 0.9], [1.1, 1.2, 0.2], 1.0, None, 1e-10, False),
    ("4F3 -1 excess 3", [0.5, 1.5, 1.0, 2.0], [2.5, 3.0, 2.5], None, None, 1e-10, False),
    # complex parameters
    ("2F1 complex", [0.3 + 0.5j, 0.7], [1.4 - 0.2j], 1.2, None, 1e-10, False),
    ("3F2 complex", [0.4 + 0.3j, 0.6, 0.7 - 0.3j], [1.2, 1.1], -2.0, None, 1e-10, False),
    ("4F3 complex", [0.2 + 1.0j, 0.4, 0.6, 0.8], [1.3, 1.2 + 1.0j, 0.9], 3.0, None, 1e-10, False),
    # parameters up to 40
    ("2F1 large", [20.0, 6.0], [30.0], 2.4, None, 1e-9, False),
    ("2F1 large upper", [40.0, 3.0], [45.0], -1.5, None, 1e-9, False),
    ("2F1 large lower", [3.5, 7.0], [40.0], -1.0, None, 1e-9, False),
    ("3F2 large", [25.0, 10.0, 5.0], [20.0, 21.0], -2.7, None, 1e-9, False),
    ("3F2 large 2", [33.0, 0.5, 7.0], [38.0, 4.0], 2.2, None, 1e-9, False),
    ("4F3 large", [4.0, 9.0, 16.0, 3.0], [30.0, 4.5, 3.0], 1.8, None, 1e-9, False),
    # |arg z| < 0.6 and excess >= 2, where Wynn's epsilon sums
    ("2F1 wynn 0.1", [0.8, 1.1], [4.9], 0.1, None, 1e-10, False),
    ("3F2 wynn 0.2", [1.2, 0.7, 1.0], [3.4, 2.0], 0.2, None, 1e-10, False),
    ("3F2 wynn -0.4", [0.6, 1.4, 0.9], [4.4, 2.0], -0.4, None, 1e-10, False),
    ("4F3 wynn 0.3", [0.5, 0.5, 1.0, 1.5], [2.0, 1.5, 2.0], 0.3, None, 1e-10, False),
    # beyond reach: Levin's 41 terms with parameters up to 40, and
    # Wynn's epsilon on a slow tail close to z = 1
    ("raises 2F1 large", [38.0, 35.0], [73.5], 2.5, None, 1e-9, True),
    ("raises 3F2 large", [30.0, 36.0, 8.0], [40.0, 34.5], -1.2, None, 1e-9, True),
    ("raises 2F1 wynn", [0.3, 0.7], [1.4], 0.3, None, 1e-10, True),
]


# pFq at 0.95 <= |z| < 1, z = r e^(i theta) rounded to doubles.
# (label, upper, lower, r, theta, jet or None, tol, raises), as for CIRCLE.
RING = [
    # 2F1 at all angles
    ("2F1 0.97 e^0.7i", [0.3, 0.7], [1.4], 0.97, 0.7, None, 1e-11, False),
    ("2F1 0.95 e^2.5i", [1.2, 0.45], [2.9], 0.95, 2.5, None, 1e-11, False),
    ("2F1 0.99 e^-1.3i", [2.1, 0.6], [3.1], 0.99, -1.3, None, 1e-11, False),
    ("2F1 0.999 e^0.2i", [0.5, 0.7], [1.22], 0.999, 0.2, None, 1e-11, False),
    ("2F1 0.999 e^3i", [0.25, 1.75], [3.0], 0.999, 3.0, None, 1e-11, False),
    # terms below 1e-13 from the first on: the plain sum stops at k = 3,
    # inside the first block of 64 terms
    ("2F1 a = 1e-13 0.97 e^0.7i", [1e-13, 0.7], [1.4], 0.97, 0.7, None, 1e-12, False),
    # 3F2, excess -1.25 to 1.3
    ("3F2 0.97 e^2i", [0.6, 1.3, 1.0], [2.7, 2.0], 0.97, 2.0, None, 1e-11, False),
    ("3F2 0.96 e^-3i", [1.2, 0.8, 0.6], [1.4, 1.7], 0.96, -3.0, None, 1e-11, False),
    ("3F2 0.995 e^-0.5i", [0.5, 0.7, 1.2], [1.3, 1.4], 0.995, -0.5, None, 1e-11, False),
    ("3F2 0.99 e^1.5i", [2.3, 1.6, 1.0], [1.65, 2.0], 0.99, 1.5, None, 1e-11, False),
    # 4F3
    ("4F3 0.97 e^i", [0.3, 0.5, 0.7, 0.9], [1.1, 1.2, 0.2], 0.97, 1.0, None, 1e-11, False),
    ("4F3 0.951 e^-2.2i", [0.5, 1.5, 1.0, 2.0], [2.5, 3.0, 2.5], 0.951, -2.2, None, 1e-11, False),
    ("4F3 0.99 e^0.4i", [0.2, 0.4, 0.6, 0.8], [1.1, 1.3, 1.5], 0.99, 0.4, None, 1e-11, False),
    # complex parameters
    ("2F1 complex 0.97", [0.3 + 0.5j, 0.7], [1.4 - 0.2j], 0.97, 1.2, None, 1e-11, False),
    ("3F2 complex 0.98", [0.4 + 0.3j, 0.6, 0.7 - 0.3j], [1.2, 1.1], 0.98, -2.0, None, 1e-11, False),
    ("4F3 complex 0.96", [0.2 + 1.0j, 0.4, 0.6, 0.8], [1.3, 1.2 + 1.0j, 0.9], 0.96, 3.0, None, 1e-11, False),
    # jets
    ("2F1 0.97 e^0.7i jet 2", [0.3, 0.7], [1.4], 0.97, 0.7, ("upper", 0, 2), 1e-10, False),
    ("2F1 0.95 e^-2i jet 1", [1.2, 0.45], [2.9], 0.95, -2.0, ("lower", 0, 1), 1e-10, False),
    ("3F2 0.98 e^2i jet 4", [0.6, 1.3, 1.0], [2.7, 2.0], 0.98, 2.0, ("upper", 0, 4), 1e-9, False),
    ("4F3 0.97 e^-i jet 1", [0.2, 0.4, 0.6, 0.8], [1.1, 1.3, 1.5], 0.97, -1.0, ("lower", 0, 1), 1e-10, False),
    ("2F1 c-a-b = 0 at 0.999 jet 1", [0.3, 0.7], [1.0], 0.999, 0.0, ("upper", 0, 1), 1e-10, False),
    ("3F2 at 0.999 jet 2", [1.0, 1.0, 1.0], [2.0, 2.0], 0.999, 0.0, ("upper", 0, 2), 1e-10, False),
    # integer c-a-b at real z, where the near-one connection does not apply
    ("2F1 c-a-b = 0 at 0.96", [0.3, 0.7], [1.0], 0.96, 0.0, None, 1e-11, False),
    ("2F1 c-a-b = 1 at 0.98", [1.2, 0.8], [3.0], 0.98, 0.0, None, 1e-11, False),
    ("2F1 c-a-b = 0 at 0.999", [0.3, 0.7], [1.0], 0.999, 0.0, None, 1e-11, False),
    ("2F1 c-a-b = 0 at 0.999 b", [1.5, 2.5], [4.0], 0.999, 0.0, None, 1e-11, False),
    ("3F2 at 0.999", [1.0, 1.0, 1.0], [2.0, 2.0], 0.999, 0.0, None, 1e-11, False),
    # terms that grow for ~1000 terms before they decay: the tail after
    # a stop is bounded by a ratio above |z|; checked at the engine's tol
    ("growth 2F1 at 0.99", [6.0, 5.0], [1.0], 0.99, 0.0, None, 1e-12, False),
    ("growth 3F2 at 0.96", [2.9, 2.9, 2.9], [0.5, 0.5], 0.96, 0.0, None, 1e-12, False),
    # Levin's 41 terms do not settle, and the sum goes on from them
    ("2F1 levin fallback 0.974 e^-0.78i", [1.31, 1.41], [0.52], 0.974, -0.78, None, 1e-11, False),
    ("3F2 levin fallback 0.957 e^0.72i", [2.23, 2.48, 1.0], [2.09, 2.0], 0.957, 0.72, None, 1e-11, False),
    # 1 - |z| = 1e-5 at |arg z| >= 0.6, where Levin's 41 terms settle
    ("2F1 deep e^0.7i", [0.3, 0.7], [1.4], 1.0 - 1e-5, 0.7, None, 1e-11, False),
    ("2F1 deep e^i", [0.3, 0.7], [1.4], 1.0 - 1e-5, 1.0, None, 1e-11, False),
    # beyond reach: 1 - |z| = 1e-5 on the real axis, and terms that
    # cancel past double precision (sum |t_k| / |sum| = 1.3e17)
    ("raises 2F1 deep real", [0.3, 0.7], [1.0], 1.0 - 1e-5, 0.0, None, 1e-11, True),
    ("raises cancelled", [6.0, 5.0], [1.0], 0.998, 0.3, None, 1e-11, True),
]

# (label, kind, outer, inner_x, inner_y, (x, y), tol relative)
APPELL = [
    ("F1 1/3 same sign", "F1", [0.7, 1.9], [0.4], [2.2], (1 / 3, 1 / 3), 1e-13),
    ("F1 1/3 opposite", "F1", [0.7, 1.9], [0.4], [2.2], (1 / 3, -1 / 3), 1e-13),
    ("F1 1/3 complex", "F1", [1.2, 2.5], [0.5], [0.8],
     (cmath.rect(1 / 3, 1.0), cmath.rect(1 / 3, -2.5)), 1e-13),
    ("F1 0.6 same sign", "F1", [0.5, 2.0], [1.5], [0.75], (0.6, 0.45), 1e-13),
    ("F1 0.6 opposite", "F1", [1.3, 2.4], [0.9], [1.1], (0.6, -0.6), 1e-13),
    ("F1 0.6 complex", "F1", [0.8, 1.6], [0.3], [1.7],
     (0.6j, cmath.rect(0.6, 2.5)), 1e-13),
    ("F1 0.75 same sign", "F1", [0.7, 1.9], [0.4], [2.2], (0.75, 0.6), 1e-13),
    ("F1 0.75 negative", "F1", [0.7, 1.9], [0.4], [2.2], (-0.75, -0.375), 1e-13),
    ("F1 0.75 opposite", "F1", [0.7, 1.9], [0.4], [2.2], (0.75, -0.6), 1e-13),
    ("F1 0.75 complex", "F1", [1.1, 2.3], [0.6], [0.9],
     (cmath.rect(0.75, 2.0), cmath.rect(0.75, -0.7)), 1e-13),
    # F1(1; b1, b2; u+1; x/(x-1), y/(y-1)), the Pfaff image of the
    # integral of (1+x^3/4)^(-1/2) (1+3x^3)^(-5/2) on [0, 1], u = 1/3
    ("F1 Pfaff image", "F1", [1.0, 4 / 3], [0.5], [2.5], (0.2, 0.75), 1e-13),
    ("F2 0.3 0.3", "F2", [1.5], [0.5, 1.2], [0.7, 1.3], (0.3, 0.3), 1e-13),
    ("F2 opposite", "F2", [0.8], [1.1, 1.7], [0.6, 2.1], (0.35, -0.25), 1e-13),
    ("F2 negative", "F2", [2.5], [1.5, 3.0], [0.5, 1.5], (-0.1, -0.45), 1e-13),
    ("F2 complex", "F2", [1.2], [0.4, 1.5], [0.9, 0.8],
     (cmath.rect(0.3, 1.0), cmath.rect(0.3, -2.0)), 1e-13),
]

# (label, upper, lower, tol relative); the smallest upper parameter first
LIMITS = [
    ("2F1 congruent", [0.5, 1.5], [2.5], 1e-13),
    ("3F2 congruent 2", [0.3, 2.3, 1.7], [1.1, 2.9], 1e-13),
    ("3F2 congruent 1, 3", [0.3, 1.3, 3.3], [0.8, 2.2], 1e-13),
    ("4F3 congruent", [0.5, 1.5, 2.5, 3.1], [1.2, 1.7, 4.4], 1e-13),
    ("2F1 cubic binomial", [1 / 3, 1.0], [4 / 3], 1e-13),
    ("3F2 spread", [0.2, 0.9, 1.75], [1.3, 2.4], 1e-13),
    ("4F3 spread", [0.15, 0.85, 1.6, 2.45], [1.1, 1.9, 3.2], 1e-13),
    ("2F1 complex", [0.4 + 0.3j, 1.2], [2.1], 1e-13),
]
LIMIT_Z = -1e30


def pair(x):
    x = mp.mpc(x)
    return [float(x.real), float(x.imag)]


def cauchy_taylor(f, x0, order, radius, points, real):
    """Taylor coefficients 0..order of f at x0 by the trapezoid rule.

    `real` says f is real on the real axis, so f(conj x) = conj f(x).
    """
    x0 = mp.mpmathify(x0)
    vals = {}
    for j in range(points):
        if real and j > points // 2:
            vals[j] = mp.conj(vals[points - j])
        else:
            vals[j] = f(x0 + radius * mp.expjpi(mp.mpf(2 * j) / points))
    out = []
    for k in range(order + 1):
        acc = mp.fsum(
            vals[j] * mp.expjpi(mp.mpf(-2 * j * k) / points) for j in range(points)
        )
        out.append(acc / points / mp.mpf(radius) ** k)
    return out


def checked(make_lo, make_hi):
    """Two computations of one reference; they must agree to 1e-17."""
    lo = [mp.mpc(c) for c in make_lo()]
    hi = [mp.mpc(c) for c in make_hi()]
    scale = max([mp.mpf(1)] + [abs(c) for c in hi])
    gap = max(abs(a - b) for a, b in zip(lo, hi)) / scale
    if gap > mp.mpf(10) ** -17:
        sys.exit("references disagree by %s" % mp.nstr(gap, 3))
    return [pair(c) for c in hi]


def at_two_precisions(make, digits=(20, 30)):
    def at(dps):
        with mp.workdps(dps):
            return [mp.mpc(c) for c in make()]

    return checked(lambda: at(digits[0]), lambda: at(digits[1]))


def hyper(upper, lower, z):
    """mp.hyper, or its series summed directly where the
    Euler-Maclaurin tail that mpmath takes near |z| = 1 does not converge."""
    try:
        return mp.hyper(upper, lower, z)
    except mp.libmp.NoConvergence:
        return mp.hyper(upper, lower, z, force_series=True, maxterms=10**6)


def hyper_ref(upper, lower, z, jet, real):
    """mp.hyper at z, or with a jet its Taylor coefficients in eps.

    The eps of the jet is added to each parameter it names.  `real` says
    the function is real on the real eps axis (cauchy_taylor).
    """
    if jet is None:
        return at_two_precisions(lambda: [hyper(upper, lower, z)])
    side, idx, order = jet
    idx = idx if isinstance(idx, list) else [idx]

    def f(x):
        ups = [mp.mpmathify(u) for u in upper]
        lows = [mp.mpmathify(c) for c in lower]
        for i in idx:
            (ups if side == "upper" else lows)[i] = x
        return hyper(ups, lows, z)

    x0 = (upper if side == "upper" else lower)[idx[0]]

    def on_circle(radius, points):
        with mp.workdps(30):
            coeffs = cauchy_taylor(f, x0, order, radius, points, real)
            return [mp.mpc(c) for c in coeffs]

    return checked(lambda: on_circle(0.15, 24), lambda: on_circle(0.2, 28))


def at_one_ref(label, upper, lower, jet):
    if jet is None and label in CLOSED:
        return at_two_precisions(lambda: [CLOSED[label]()])
    real = all(complex(v).imag == 0 for v in upper + lower)
    return hyper_ref(upper, lower, 1, jet, real)


def near_one_ref(upper, lower, z, jet):
    side, idx, order = jet

    def f(x):
        ups = [mp.mpmathify(u) for u in upper]
        lows = [mp.mpmathify(c) for c in lower]
        (ups if side == "upper" else lows)[idx] = x
        return mp.hyp2f1(ups[0], ups[1], lows[0], mp.mpf(z))

    x0 = mp.mpmathify((upper if side == "upper" else lower)[idx])
    return at_two_precisions(lambda: mp.taylor(f, x0, order))


def disk_ref(upper, lower, z, jet, nil):
    side, idx, order = jet
    idx = idx if isinstance(idx, list) else [idx]
    nil = nil or [1.0]

    def f(x):
        # x is the base of the first named parameter plus eps
        ups = [mp.mpmathify(u) for u in upper]
        lows = [mp.mpmathify(c) for c in lower]
        params = ups if side == "upper" else lows
        e = x - params[idx[0]]
        move = sum(c * e ** (m + 1) for m, c in enumerate(nil))
        for i in idx:
            params[i] = params[i] + move
        return mp.hyper(ups, lows, mp.mpmathify(z))

    x0 = mp.mpmathify((upper if side == "upper" else lower)[idx[0]])
    return at_two_precisions(lambda: mp.taylor(f, x0, order))


def build_disk():
    rows = []
    for label, upper, lower, z, jet, nil in DISK:
        start = time.time()
        rows.append({
            "label": label,
            "upper": [pair(u) for u in upper],
            "lower": [pair(c) for c in lower],
            "z": pair(z),
            "jet": list(jet),
            "nil": nil,
            "value": disk_ref(upper, lower, z, jet, nil),
            "tol": DISK_TOL,
        })
        print("%-30s %6.1f s" % (label, time.time() - start), flush=True)
    return rows


def build_at_one():
    rows = []
    for label, upper, lower, jet, tol in AT_ONE:
        start = time.time()
        value = at_one_ref(label, upper, lower, jet)
        rows.append({
            "label": label,
            "upper": [pair(u) for u in upper],
            "lower": [pair(c) for c in lower],
            "jet": list(jet) if jet else None,
            "value": value,
            "tol": tol,
        })
        print("%-22s %6.1f s" % (label, time.time() - start), flush=True)
    return rows


def build_reciprocal_gamma():
    rgamma = []
    for b in RGAMMA_BASES:
        rgamma.append({
            "base": b,
            "value": at_two_precisions(
                lambda: mp.taylor(mp.rgamma, mp.mpf(b), 4)
            ),
            "tol": 1e-14,
        })
    return rgamma


def build_near_one():
    near = []
    for label, upper, lower, z, jet, tol in NEAR_ONE:
        start = time.time()
        near.append({
            "label": label,
            "upper": [pair(u) for u in upper],
            "lower": [pair(c) for c in lower],
            "z": z,
            "jet": list(jet),
            "value": near_one_ref(upper, lower, z, jet),
            "tol": tol,
        })
        print("%-22s %6.1f s" % (label, time.time() - start), flush=True)
    return near


def build_circle():
    circle = []
    for label, upper, lower, theta, jet, tol, raises in CIRCLE:
        start = time.time()
        z = -1.0 + 0j if theta is None else complex(math.cos(theta), math.sin(theta))
        circle.append({
            "label": label,
            "upper": [pair(u) for u in upper],
            "lower": [pair(c) for c in lower],
            "z": pair(z),
            "jet": list(jet) if jet else None,
            "value": hyper_ref(upper, lower, mp.mpc(z), jet, False),
            "tol": tol,
            "raises": raises,
        })
        print("%-22s %6.1f s" % (label, time.time() - start), flush=True)
    return circle


def build_ring():
    ring = []
    for label, upper, lower, r, theta, jet, tol, raises in RING:
        start = time.time()
        z = cmath.rect(r, theta)
        real = z.imag == 0 and all(complex(v).imag == 0 for v in upper + lower)
        ring.append({
            "label": label,
            "upper": [pair(u) for u in upper],
            "lower": [pair(c) for c in lower],
            "z": pair(z),
            "jet": list(jet) if jet else None,
            "value": hyper_ref(upper, lower, mp.mpc(z), jet, real),
            "tol": tol,
            "raises": raises,
        })
        print("%-22s %6.1f s" % (label, time.time() - start), flush=True)
    return ring


def appell_ref(kind, outer, inner_x, inner_y, args):
    x, y = (mp.mpc(v) for v in args)
    if kind == "F1":
        (a, c), (b1,), (b2,) = outer, inner_x, inner_y
        return at_two_precisions(lambda: [mp.appellf1(a, b1, b2, c, x, y)])
    (a,), (b1, c1), (b2, c2) = outer, inner_x, inner_y
    return at_two_precisions(lambda: [mp.appellf2(a, b1, b2, c1, c2, x, y)])


def build_appell():
    rows = []
    for label, kind, outer, inner_x, inner_y, args, tol in APPELL:
        start = time.time()
        rows.append({
            "label": label,
            "kind": kind,
            "outer": [pair(p) for p in outer],
            "inner_x": [pair(p) for p in inner_x],
            "inner_y": [pair(p) for p in inner_y],
            "args": [pair(v) for v in args],
            "value": appell_ref(kind, outer, inner_x, inner_y, args),
            "tol": tol,
        })
        print("%-22s %6.1f s" % (label, time.time() - start), flush=True)
    return rows


def build_limits():
    rows = []
    for label, upper, lower, tol in LIMITS:
        start = time.time()

        def make(upper=upper, lower=lower):
            ups = [mp.mpmathify(u) for u in upper]
            z = mp.mpf(LIMIT_Z)
            return [(-z) ** ups[0] * mp.hyper(ups, [mp.mpmathify(c) for c in lower], z)]

        rows.append({
            "label": label,
            "upper": [pair(u) for u in upper],
            "lower": [pair(c) for c in lower],
            "value": at_two_precisions(make, (30, 45)),
            "tol": tol,
        })
        print("%-22s %6.1f s" % (label, time.time() - start), flush=True)
    return rows


SECTIONS = {
    "at_one": build_at_one,
    "reciprocal_gamma": build_reciprocal_gamma,
    "near_one": build_near_one,
    "disk": build_disk,
    "circle": build_circle,
    "ring": build_ring,
    "appell": build_appell,
    "limits": build_limits,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--section", choices=sorted(SECTIONS),
        help="rebuild this section only; the others are copied unchanged",
    )
    args = parser.parse_args(argv)
    if args.section:
        doc = json.loads(OUT.read_text())
        doc[args.section] = SECTIONS[args.section]()
    else:
        doc = {
            "source": "mpmath %s, tests/data/make_golden_pfq.py" % mp.__version__,
            "error": "max_k |got_k - ref_k| / max(1, max_k |ref_k|)",
        }
        for name, build in SECTIONS.items():
            doc[name] = build()
    OUT.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
