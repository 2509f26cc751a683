#!/usr/bin/env python3
"""Fit the two polynomials behind polyasum.expint.e1_inverse, or check
the committed ones.

y > 1: with w = e^(-gamma - y), the root of E1(x) = y is x = w e^d,
where d = E1(x) + gamma + ln x.  d is smooth in w on [0, w1],
w1 = e^(-gamma - 1), and d/w -> 1 as w -> 0, so ``_D_COEFFS`` are d/w
as a polynomial in s = w / w1 and d(0) = 0 holds exactly.

y <= 1: with t = -ln y, ``_SEED_COEFFS`` are the root x itself as a
polynomial in t / T for 0 <= t <= T = 8, from which one Halley step
finishes the root.

Both are interpolants at the Chebyshev extreme points of [0, 1],
computed at 50 digits with mpmath and printed, highest degree first, as
the tuples to paste into src/polyasum/expint.py.  ``--check`` instead
evaluates the committed tuples the way the library does, in double
precision, at 200 points each, against 50-digit values, and exits 1
when d is off by more than 2e-15 or the seed by more than 1e-6
relative.

Usage: PYTHONPATH=src python scripts/fit_e1_inverse.py [--check]
"""

import argparse
import sys

import mpmath as mp
import numpy as np

from polyasum import expint

mp.mp.dps = 50

D_DEGREE = 14      # of d/w, so d is of degree 15 in w
SEED_DEGREE = 13
SEED_T = 8
D_BOUND = 2e-15    # absolute, in d
SEED_BOUND = 1e-6  # relative, in x
CHECK_POINTS = 200


def delta(x):
    """E1(x) + gamma + ln x = sum_{k>=1} (-1)^(k+1) x^k / (k k!),
    summed term by term so that nothing cancels."""
    total, term, k = mp.mpf(0), mp.mpf(1), 0
    while True:
        k += 1
        term *= -x / k
        total -= term / k
        if abs(term) < mp.eps * abs(total):
            return total


def d_of_w(w):
    """d with d = delta(w e^d), by Newton: the derivative of
    d - delta(w e^d) in d is e^(-x)."""
    if w == 0:
        return mp.mpf(0)
    d = mp.mpf(w)
    for _ in range(100):
        x = w * mp.exp(d)
        step = (d - delta(x)) * mp.exp(x)
        d -= step
        if abs(step) < mp.eps * abs(d):
            return d
    raise RuntimeError(f"no convergence at w = {w}")


def x_of_t(t):
    """The root of E1(x) = e^-t, by Newton in u = ln x (A&S 5.1)."""
    y = mp.exp(-t)
    u = mp.log(max(t - mp.log(1 + t), mp.mpf("0.2")))
    for _ in range(100):
        step = (mp.e1(mp.exp(u)) - y) * mp.exp(mp.exp(u))
        u += step
        if abs(step) < mp.eps:
            return mp.exp(u)
    raise RuntimeError(f"no convergence at t = {t}")


def fit(f, degree):
    """Monomial coefficients in s, highest first, of the interpolant of
    f at the Chebyshev extreme points of [0, 1]."""
    nodes = [(1 - mp.cos(mp.pi * k / degree)) / 2 for k in range(degree + 1)]
    vandermonde = mp.matrix([[s ** j for j in range(degree + 1)]
                             for s in nodes])
    c = mp.lu_solve(vandermonde, mp.matrix([f(s) for s in nodes]))
    return tuple(float(c[j]) for j in range(degree, -1, -1))


def d_error(coeffs, w1):
    """Largest |d - d_ref| over s = k / 200, k = 1..200, with d from
    w * P(w / w1) in double precision, as the library forms it."""
    w = np.arange(1, CHECK_POINTS + 1) / CHECK_POINTS * w1
    d = w * expint._horner(coeffs, w / w1)
    return max(abs(mp.mpf(float(di)) - d_of_w(mp.mpf(float(wi))))
               for wi, di in zip(w, d))


def seed_error(coeffs):
    """Largest |x0 / x - 1| over t = 8 k / 200, k = 0..200."""
    t = np.arange(CHECK_POINTS + 1) / CHECK_POINTS * SEED_T
    x0 = expint._horner(coeffs, t / SEED_T)
    return max(abs(mp.mpf(float(xi)) / x_of_t(mp.mpf(float(ti))) - 1)
               for ti, xi in zip(t, x0))


def _print_tuple(name, coeffs):
    print(f"{name} = (")
    for c in coeffs:
        print(f"    {c!r},")
    print(")")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="check the committed coefficients; exit 1 past "
                         "the bounds")
    args = ap.parse_args()

    if args.check:
        coeffs = expint._D_COEFFS, expint._SEED_COEFFS
        w1 = expint._W1
        if expint._SEED_T != SEED_T:
            print(f"expint._SEED_T is {expint._SEED_T}, not {SEED_T}")
            return 1
    else:
        w1 = mp.exp(-mp.euler - 1)
        coeffs = (fit(lambda s: 1 if s == 0 else d_of_w(s * w1) / (s * w1),
                      D_DEGREE),
                  fit(lambda s: x_of_t(s * SEED_T), SEED_DEGREE))
        w1 = float(w1)
        print(f"_W1 = {w1!r}")
        _print_tuple("_D_COEFFS", coeffs[0])
        _print_tuple("_SEED_COEFFS", coeffs[1])

    errors = d_error(coeffs[0], w1), seed_error(coeffs[1])
    ok = errors[0] <= D_BOUND and errors[1] <= SEED_BOUND
    print(f"d: max abs error {float(errors[0]):.3g} (bound {D_BOUND:g}); "
          f"seed: max rel error {float(errors[1]):.3g} "
          f"(bound {SEED_BOUND:g}): {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
