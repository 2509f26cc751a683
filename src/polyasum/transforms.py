"""Closed-form Laplace functionals and derived count distributions.

These are the analytic oracles every statistical check is measured
against.  A Gamma random measure with parameters (z, rho) has Laplace
functional exp[-int log(1 + z h/(1-z)) drho]; the point process it
directs has exp[-int log(1 + z(1-e^-g)/(1-z)) drho].  Per-window counts
follow a negative binomial law and cluster multiplicities a logarithmic
series law.  Everything is computed in log space: cell masses up to 1e4
would underflow plain products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state_space import (ReferenceMeasure, TestFunction,
                          _integrate_cellwise, _json_float, _json_int,
                          _require_same_window, zeta)


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


def laplace_gp(h: TestFunction, z: float, rho: ReferenceMeasure) -> TransformResult:
    """Laplace functional of the Gamma random measure at h.

    exp[-int log(1 + z h(x)/(1-z)) rho(dx)], evaluated exactly as a
    finite sum over cells and atoms.
    """
    z = _check_z_open(z)
    _require_same_window(h, rho)
    integrand = np.log1p(z * h.values / (1.0 - z))
    return TransformResult.from_log(-_integrate_cellwise(rho, integrand))


def laplace_polya(g: TestFunction, z: float, rho: ReferenceMeasure) -> TransformResult:
    """Laplace functional of the Polya sum process at g.

    exp[-int log(1 + z(1-e^-g(x))/(1-z)) rho(dx)].  z = 0 gives the
    empty process, so the transform is identically 1.
    """
    z = _check_z_half_open(z)
    _require_same_window(g, rho)
    if z == 0.0:
        return TransformResult.from_log(0.0)
    integrand = np.log1p(z * (-np.expm1(-g.values)) / (1.0 - z))
    return TransformResult.from_log(-_integrate_cellwise(rho, integrand))


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
    effective = -np.expm1(-g.values) + h.values
    integrand = np.log1p(z * effective / (1.0 - z))
    return TransformResult.from_log(-_integrate_cellwise(rho, integrand))


def nb_pmf(k: int, m: float, z: float) -> float:
    """Negative binomial pmf: Gamma(m+k)/(Gamma(m) k!) (1-z)^m z^k.

    The count law of the Polya sum process on a region of reference
    mass m.  Computed in log space.
    """
    m = _check_m(m)
    z = _check_z_open(z)
    k = _json_int(k, "k")
    if k < 0:
        raise ParameterError(f"k must be >= 0, got {k}")
    log_p = (math.lgamma(m + k) - math.lgamma(m) - math.lgamma(k + 1)
             + m * math.log1p(-z) + k * math.log(z))
    return math.exp(log_p)


def nb_pmf_table(m: float, z: float, tol: float = 1e-15) -> np.ndarray:
    """pmf values for k = 0, 1, ... until the geometric tail bound drops
    below ``tol``.

    Built outward from the mode with the ratio recurrence
    p(k+1)/p(k) = z(m+k)/(k+1), seeded by :func:`nb_pmf` at the mode, so
    no entry underflows before its own value does, and normalised by its
    sum, which cancels the rounding of the seed's log-gamma terms at
    large m.  Past k ~ 2mz/(1-z) the ratio stays below (1+z)/2, so the
    loop ends for every tol > 0.
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


def _mean_se(values):
    """Sample mean and standard error of per-replica values."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least 2 replicas")
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def empirical_laplace(samples, f: TestFunction):
    """Sample mean and standard error of e^(-zeta(., f)).

    Accepts point configurations or atomic measures.
    """
    return _mean_se([math.exp(-zeta(s, f)) for s in samples])


def empirical_laplace_from_values(zeta_values: np.ndarray):
    """Same as :func:`empirical_laplace`, from precomputed zeta values."""
    return _mean_se(np.exp(-np.asarray(zeta_values, dtype=float)))
