"""Exponential integral E1 and its inverse.

The inverse-Levy sampler for Gamma random measures needs the tail mass
function of the Levy density r^-1 e^(-a r), which is E1 up to scaling,
and its inverse to map Poisson arrival times to jump sizes.  E1 is
evaluated by the classical power series for small arguments and by a
continued fraction (modified Lentz) for large ones.  The inverse has no
closed form; it is found by Newton iteration in u = ln x, where
dE1(e^u)/du = -e^(-x) (A&S 5.1), with one branch for y > 1 (an
inline series for E1 + gamma + ln x) and one for y <= 1 (Newton on E1
itself).
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.57721566490153286060651209008240243

# Crossover between the alternating series and the continued fraction.
# The series needs ~26 terms at x=2; the continued fraction reaches
# ~2e-14 relative accuracy there after 40 Lentz iterations.
_SERIES_CUTOFF = 2.0
_SERIES_TERMS = 26
_LENTZ_ITERS = 40
_TINY = 1e-300

# Coefficients (-1)^(k+1) / (k k!), k = 10..1, of the series for
# delta(x) = E1(x) + gamma + ln x; 10 terms are exact to ~1e-15
# absolute for x below E1^-1(1) ~ 0.2647.
_DELTA_COEFFS = tuple((-1.0) ** (k + 1) / (k * math.factorial(k))
                      for k in range(10, 0, -1))
# Fixed Newton iteration counts: from the starting points below, 4
# steps bring y > 1 to full double precision (3 leave 5e-12), and the
# y <= 1 branch settles by the 5th of its 8.
_BIG_ITERS = 4
_LOW_ITERS = 8


def _e1_series(x: np.ndarray, terms: int = _SERIES_TERMS) -> np.ndarray:
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k / (k * k!)
    total = np.zeros_like(x)
    term = np.ones_like(x)  # holds (-x)^k / k!
    for k in range(1, terms + 1):
        term *= -x
        term /= k
        total -= term / k
    return total - EULER_GAMMA - np.log(x)


def _e1_contfrac(x: np.ndarray, iters: int = _LENTZ_ITERS) -> np.ndarray:
    # E1(x) = e^-x * CF, CF = 1/(x+1-) 1^2/(x+3-) 2^2/(x+5-) ...
    b = x + 1.0
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, iters + 1):
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        h = h * c * d
    return h * np.exp(-x)


def _e1(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    small = x <= _SERIES_CUTOFF
    if small.any():
        out[small] = _e1_series(x[small])
    if (~small).any():
        out[~small] = _e1_contfrac(x[~small])
    return out


def e1(x):
    """Exponential integral E1(x) = int_x^inf e^(-t)/t dt, x > 0.

    Accepts scalars or arrays; fully vectorized.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr <= 0.0):
        raise ValueError("e1 requires strictly positive arguments")
    out = _e1(x_arr)
    return float(out[0]) if np.ndim(x) == 0 else out


def _invert_big(y: np.ndarray) -> np.ndarray:
    # y > 1: the root lies below E1^-1(1) ~ 0.2647.  With
    # u = ln x = d - (y + gamma), E1(e^u) = y reads delta(e^u) = d, and
    # Newton in u moves d by (delta(x) - d) e^x.  d = 0 starts left of
    # the root (delta > 0), so the iterates rise monotonically.  For
    # y >= 745 x underflows to exactly 0, and y = inf gives 0, not NaN.
    rhs = y + EULER_GAMMA
    d = np.zeros_like(y)
    for _ in range(_BIG_ITERS):
        x = np.exp(d - rhs)
        delta = np.full_like(x, _DELTA_COEFFS[0])
        for c in _DELTA_COEFFS[1:]:
            delta *= x
            delta += c
        delta *= x
        d += (delta - d) * np.exp(x)
    return np.exp(d - rhs)


def _invert_low(y: np.ndarray) -> np.ndarray:
    # y <= 1: E1(e^u) - y is decreasing and convex in u, so Newton
    # converges monotonically from any start.  x0 = t - ln(1 + t), with
    # t = -ln y, lies left of the root because E1(x) > e^-x/(1 + x),
    # and the floor 0.2 lies left of E1^-1(1).  The step in u,
    # (E1(x) - y) e^x, is taken as (E1(x)/y - 1) e^(x - t), which
    # cannot overflow even for subnormal y, and applied as x *= e^step:
    # rounding u = ln x instead would cost x about |u| ulps, a relative
    # residual in E1 of up to 3e-13 at roots near 700.
    t = -np.log(y)
    x = np.maximum(t - np.log1p(t), 0.2)
    for _ in range(_LOW_ITERS):
        x *= np.exp((_e1(x) / y - 1.0) * np.exp(x - t))
    return x


def e1_inverse(y):
    """Solve E1(x) = y for x > 0 by Newton iteration in u = ln x.

    E1 is strictly decreasing, so the root is unique.  For y > 1 the
    root lies below 0.2647 and Newton runs 4 steps on
    E1(x) + gamma + ln x, a 10-term series, from x = e^(-gamma - y);
    for y <= 1 it runs 8 steps on E1 itself (series or continued
    fraction) from x = max(t - ln(1 + t), 0.2), t = -ln y.  Both reach
    ~1e-13 relative accuracy in x; the result underflows to exactly 0
    for y >= 745.
    """
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(y_arr <= 0.0):
        raise ValueError("e1_inverse requires strictly positive arguments")
    out = np.empty_like(y_arr)
    big = y_arr > 1.0
    out[big] = _invert_big(y_arr[big])
    out[~big] = _invert_low(y_arr[~big])
    return float(out[0]) if np.ndim(y) == 0 else out
