"""Exponential integral E1 and its inverse.

The inverse-Levy sampler for Gamma random measures needs the tail mass
function of the Levy density r^-1 e^(-a r), which is E1 up to scaling,
and its inverse to map Poisson arrival times to jump sizes.  E1 is
evaluated by the classical power series for small arguments and by a
continued fraction (modified Lentz) for large ones.  The inverse has no
closed form.  For y > 1 the root is x = w e^d with w = e^(-gamma - y)
and d = E1(x) + gamma + ln x, and d is a smooth function of w that a
fitted polynomial gives to double precision, so the root costs two
exponentials and no iteration.  For y <= 1 Halley steps in u = ln x,
where dE1(e^u)/du = -e^(-x) (A&S 5.1), finish a seed: one step from a
fitted polynomial in t = -ln y for t <= 8, five from t - ln(1 + t)
beyond.  scripts/fit_e1_inverse.py fits both polynomials at 50 digits
and checks the committed coefficients.
"""

from __future__ import annotations

import numpy as np

EULER_GAMMA = 0.57721566490153286060651209008240243

# Crossover between the alternating series and the continued fraction.
# The series needs ~26 terms at x=2; the continued fraction reaches
# ~2e-14 relative accuracy there after 40 Lentz iterations.
_SERIES_CUTOFF = 2.0
_SERIES_TERMS = 26
_LENTZ_ITERS = 40
_TINY = 1e-300

# e1_inverse for y > 1: with w = e^(-gamma - y), the root of E1(x) = y
# is x = w e^d, d = E1(x) + gamma + ln x.  _D_COEFFS give d/w as a
# polynomial of degree 14 in w / _W1, _W1 = e^(-gamma - 1), highest
# degree first, so d(0) = 0 exactly: d is off by < 2e-16 at 200 points
# of 0 < w <= _W1 (y >= 1), and that is the relative error of x.
_W1 = 0.2065494010549923
_D_COEFFS = (
    5.856748384392329e-07,
    -2.6890020549169505e-06,
    6.987927986376477e-06,
    -9.203772738518738e-06,
    1.2178404324061258e-05,
    3.50373076035701e-07,
    2.520065464060609e-05,
    6.780662825302792e-05,
    0.0002208969230386844,
    0.0007249257914649277,
    0.0024677590339656093,
    0.008842542673554882,
    0.03436713881687298,
    0.15491205079120207,
    1.0,
)
# y <= 1, t = -ln y <= _SEED_T: _SEED_COEFFS give the root x as a
# polynomial of degree 13 in t / _SEED_T, off by < 1e-7 relative at
# 200 points, so one Halley step finishes it.  Beyond, x = t - ln(1 + t)
# starts _TAIL_STEPS Halley steps; three already reach the accuracy of
# E1 itself at every t > 8, the other two are margin.  Both tuples are
# generated, and checked against 50-digit values, by
# scripts/fit_e1_inverse.py.
_SEED_T = 8.0
_SEED_COEFFS = (
    8.398275955948641,
    -62.827988430286425,
    212.57832455923182,
    -430.8427393161993,
    584.0574194710285,
    -559.7723438938026,
    389.83388308757145,
    -197.42545898734295,
    68.39380907200834,
    -10.323853677832075,
    -6.186465536015908,
    7.154363735812071,
    2.7598029288668293,
    0.2647370104515432,
)
_TAIL_STEPS = 5


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
    if not np.all(x_arr > 0.0):
        raise ValueError("e1 requires strictly positive arguments")
    out = _e1(x_arr)
    return float(out[0]) if np.ndim(x) == 0 else out


def _horner(coeffs, s: np.ndarray) -> np.ndarray:
    out = np.full_like(s, coeffs[0])
    for c in coeffs[1:]:
        out *= s
        out += c
    return out


def _halley(x: np.ndarray, y: np.ndarray, t: np.ndarray,
            steps: int) -> np.ndarray:
    # Halley on f(u) = E1(e^u) - y, u = ln x, with f' = -e^(-x) and
    # f'' = x e^(-x): from the Newton step g = (E1(x) - y) e^x, u moves
    # by g / (1 - x g / 2); x g < x E1(x) e^x < 1 keeps the denominator
    # above 1/2.  g is formed as (E1(x)/y - 1) e^(x - t), which cannot
    # overflow even for subnormal y, and applied as x *= e^step:
    # rounding u = ln x instead would cost x about |u| ulps, a relative
    # residual in E1 of up to 3e-13 at roots near 700.
    for _ in range(steps):
        g = (_e1(x) / y - 1.0) * np.exp(x - t)
        x = x * np.exp(g / (1.0 - 0.5 * x * g))
    return x


def _invert_low(y: np.ndarray) -> np.ndarray:
    # y <= 1: one Halley step from the fitted seed for t <= _SEED_T;
    # beyond, _TAIL_STEPS from t - ln(1 + t), which lies left of the
    # root because E1(x) > e^-x/(1 + x).
    t = -np.log(y)
    fit = t <= _SEED_T
    x = np.empty_like(y)
    x[fit] = _halley(_horner(_SEED_COEFFS, t[fit] / _SEED_T), y[fit],
                     t[fit], 1)
    tail = ~fit
    if tail.any():
        x[tail] = _halley(t[tail] - np.log1p(t[tail]), y[tail], t[tail],
                          _TAIL_STEPS)
    return x


def e1_inverse(y):
    """Solve E1(x) = y for x > 0.

    E1 is strictly decreasing, so the root is unique.  For y > 1 it is
    x = w e^d with w = e^(-gamma - y), and d = E1(x) + gamma + ln x is
    evaluated directly as w times a fitted polynomial in w, to ~2e-16.
    For y <= 1, with t = -ln y, a fitted polynomial in t gives x to
    1e-7 for t <= 8 and one Halley step in ln x finishes it; for t > 8,
    5 Halley steps start from x = t - ln(1 + t).  The relative residual
    in E1 is at most ~1e-13 wherever the root is a normal double
    (y < 708); beyond, the root is subnormal, and it underflows to
    exactly 0 for y >= 745.
    """
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.all(y_arr > 0.0):
        raise ValueError("e1_inverse requires strictly positive arguments")
    out = np.empty_like(y_arr)
    big = y_arr > 1.0
    # x = w e^d = e^(d - gamma - y); for y >= 745 w underflows to 0, d
    # is 0 and so is x, also for y = inf
    rhs = y_arr[big] + EULER_GAMMA
    w = np.exp(-rhs)
    out[big] = np.exp(w * _horner(_D_COEFFS, w / _W1) - rhs)
    low = ~big
    if low.any():
        out[low] = _invert_low(y_arr[low])
    return float(out[0]) if np.ndim(y) == 0 else out
