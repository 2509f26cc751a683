"""Closed-form Laplace functionals and derived count distributions.

These are the analytic oracles every statistical check is measured
against.  A Gamma random measure with parameters (z, rho) has Laplace
functional exp[-int log(1 + z h/(1-z)) drho]; the point process it
directs has exp[-int log(1 + z(1-e^-g)/(1-z)) drho].  Per-window counts
follow a negative binomial law and cluster multiplicities a logarithmic
series law.  Everything is computed in log space: cell masses up to 1e4
would underflow plain products.  Only closed forms live here; the
Monte Carlo estimates they are compared with are verify's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .state_space import (ReferenceMeasure, TestFunction,
                          _integrate_cellwise, _json_float, _json_int,
                          _require_same_window)


class ParameterError(ValueError):
    """Raised when a process parameter is outside its admissible range."""


def _check_z_open(z: float) -> float:
    z = _json_float(z, "z")
    if not 0.0 < z < 1.0:
        raise ParameterError(f"z must lie in (0, 1), got {z}")
    return z


def _check_z_half_open(z: float) -> float:
    z = _json_float(z, "z")
    if not 0.0 <= z < 1.0:
        raise ParameterError(f"z must lie in [0, 1), got {z}")
    return z


def _check_m(m: float) -> float:
    """A region's reference mass: finite and > 0."""
    m = _json_float(m, "m")
    if not (math.isfinite(m) and m > 0):
        raise ParameterError(f"m must be finite and > 0, got {m}")
    return m


@dataclass(frozen=True)
class TransformResult:
    """A Laplace-functional value carried in log space."""

    log_value: float
    value: float

    @classmethod
    def from_log(cls, log_value: float) -> "TransformResult":
        return cls(log_value=float(log_value), value=float(np.exp(log_value)))


# The integrands of the three log transforms, on value arrays of any
# shape: z broadcasts against them, so a (rows, 1) column of z evaluates
# one parameter per row.  Each is the Gamma integrand log(1 + z x/(1-z))
# at x = h, 1 - e^-g or 1 - e^-g + h, with the same float operations for
# a scalar z as for a column.

def _gp_integrand(h: np.ndarray, z) -> np.ndarray:
    return np.log1p(z * h / (1.0 - z))


def _polya_integrand(g: np.ndarray, z) -> np.ndarray:
    return _gp_integrand(-np.expm1(-g), z)


def _joint_integrand(g: np.ndarray, h: np.ndarray, z) -> np.ndarray:
    return _gp_integrand(-np.expm1(-g) + h, z)


def laplace_gp(h: TestFunction, z: float, rho: ReferenceMeasure) -> TransformResult:
    """Laplace functional of the Gamma random measure at h.

    exp[-int log(1 + z h(x)/(1-z)) rho(dx)], evaluated exactly as a
    finite sum over cells and atoms.
    """
    z = _check_z_open(z)
    _require_same_window(h, rho)
    return TransformResult.from_log(
        -_integrate_cellwise(rho, _gp_integrand(h.values, z)))


def laplace_polya(g: TestFunction, z: float, rho: ReferenceMeasure) -> TransformResult:
    """Laplace functional of the Polya sum process at g.

    exp[-int log(1 + z(1-e^-g(x))/(1-z)) rho(dx)].  z = 0 gives the
    empty process, so the transform is identically 1.
    """
    z = _check_z_half_open(z)
    _require_same_window(g, rho)
    if z == 0.0:
        return TransformResult.from_log(0.0)
    return TransformResult.from_log(
        -_integrate_cellwise(rho, _polya_integrand(g.values, z)))


def joint_laplace(g: TestFunction, h: TestFunction, z: float,
                  rho: ReferenceMeasure) -> TransformResult:
    """Joint Laplace functional of (point process, directing measure).

    exp[-int log(1 + z(1 - e^-g + h)/(1-z)) drho]: the closed form of
    E[e^(-zeta_g(mu) - zeta_h(kappa))] shared by the forward
    (kappa then mu ~ Poisson(kappa)) and backward (mu then kappa from
    the posterior) decompositions.
    """
    z = _check_z_open(z)
    _require_same_window(g, h)
    _require_same_window(g, rho)
    return TransformResult.from_log(
        -_integrate_cellwise(rho, _joint_integrand(g.values, h.values, z)))


_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(n: float) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n) for real n > 0, within 1e-14
    of it: by log-gamma up to 15, and past 15 by the first five terms of
    the Stirling series."""
    if n <= 15.0:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LN_SQRT_2PI
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn)
                                 / nn) / nn) / nn) / n


def _bd0(x: float, mean: float) -> float:
    """x log(x/mean) + mean - x, the deviance term, without its
    cancellation near x = mean: where x/mean lies in (1/3, 3) it is
    summed as the series (x - mean) v + 2x sum_j v^(2j+1)/(2j+1), with
    v = (x - mean)/(x + mean).  Loader switches at (9/11, 11/9); the
    wider range cuts the far-tail error of the pmf at m = 5000, z = 0.5
    from 1.3e-12 to 2.8e-13 against 50-digit values."""
    if abs(x - mean) < 0.5 * (x + mean):
        v = (x - mean) / (x + mean)
        s = (x - mean) * v
        term, v2 = 2.0 * x * v, v * v
        for odd in itertools.count(3, 2):
            term *= v2
            nxt = s + term / odd
            if nxt == s:
                return s
            s = nxt
    return x * math.log(x / mean) + mean - x


def _log_nb(k: int, m: float, z: float) -> float:
    """log of the negative binomial pmf at k >= 0, size m > 0 and z in
    (0, 1), in Loader's saddle-point form (C. Loader, "Fast and accurate
    computation of binomial probabilities", 2000): the pmf is m/(m+k)
    times the binomial probability of m successes in m + k trials of
    success probability 1 - z, whose Stirling remainders and deviances
    are each formed without cancellation, so no term is a difference of
    log-gammas of size log((m+k)!)."""
    if k == 0:
        return m * math.log1p(-z)
    n = m + k
    return (_stirlerr(n) - _stirlerr(m) - _stirlerr(k)
            - _bd0(m, n * (1.0 - z)) - _bd0(k, n * z)
            + 0.5 * (math.log(m / n) - math.log(k)) - _LN_SQRT_2PI)


def nb_pmf(k: int, m: float, z: float) -> float:
    """Negative binomial pmf: Gamma(m+k)/(Gamma(m) k!) (1-z)^m z^k.

    The count law of the Polya sum process on a region of reference
    mass m.  Computed in log space by :func:`_log_nb`.
    """
    m = _check_m(m)
    z = _check_z_open(z)
    k = _json_int(k, "k")
    if k < 0:
        raise ParameterError(f"k must be >= 0, got {k}")
    return math.exp(_log_nb(k, m, z))


def nb_pmf_table(m: float, z: float, tol: float = 1e-15) -> np.ndarray:
    """pmf values for k = 0, 1, ... until the geometric tail bound drops
    below ``tol``.

    Built outward from the mode with the ratio recurrence
    p(k+1)/p(k) = z(m+k)/(k+1), seeded by :func:`nb_pmf` at the mode, so
    no entry underflows before its own value does, and normalised by its
    sum, which cancels the rounding of the seed.  Past k ~ 2mz/(1-z) the
    ratio stays below (1+z)/2, so the loop ends for every tol > 0.
    """
    if not tol > 0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    z = _check_z_open(z)
    m = _check_m(m)
    mode = int(max(m - 1.0, 0.0) * z / (1.0 - z))
    seed = nb_pmf(mode, m, z)
    below = [seed]
    for k in range(mode, 0, -1):
        p = below[-1] * k / (z * (m + k - 1))
        if p == 0.0:
            break
        below.append(p)
    above = []
    k, p = mode, seed
    while True:
        # the ratios fall towards z from above (m >= 1) or rise towards
        # it from below (m < 1); either way max(ratio, z) bounds the
        # rest of them, so the tail beyond k is below p r / (1 - r)
        ratio = z * (m + k) / (k + 1)
        r = max(ratio, z)
        if r < 1 and p * r / (1 - r) < tol:
            break
        k += 1
        p *= ratio
        above.append(p)
    table = np.concatenate([np.zeros(mode + 1 - len(below)), below[::-1],
                            above])
    return table / table.sum()


def logseries_pmf(k: int, z: float) -> float:
    """Logarithmic series pmf z^k/(k (-log(1-z))), k >= 1.

    The multiplicity law of a single cluster of the distinct-atom
    construction.
    """
    z = _check_z_open(z)
    k = _json_int(k, "k")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    log_p = k * math.log(z) - math.log(k) - math.log(-math.log1p(-z))
    return math.exp(log_p)


def logseries_mean(z: float) -> float:
    """Mean of the logarithmic series law: z/((1-z)(-log(1-z)))."""
    z = _check_z_open(z)
    return z / ((1.0 - z) * (-math.log1p(-z)))


def polya_campbell_exact(f: TestFunction, g: TestFunction, z: float,
                         rho: ReferenceMeasure) -> float:
    """Exact Campbell functional E[zeta_f(mu) e^(-zeta_g(mu))].

    Differentiating the Laplace functional along g + t f at t = 0
    gives L(g) * int z f e^-g / (1 - z e^-g) drho.
    """
    z = _check_z_half_open(z)
    _require_same_window(f, g)
    _require_same_window(f, rho)
    if z == 0.0:
        return 0.0
    lap = laplace_polya(g, z, rho)
    decay = np.exp(-g.values)
    integrand = np.where(decay > 0,
                         z * f.values * decay / (1.0 - z * decay), 0.0)
    return lap.value * _integrate_cellwise(rho, integrand)

