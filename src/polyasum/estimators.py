"""Parameter recovery for the doubly stochastic model.

Per unit of reference mass, a Polya sum process with parameters
(z, w rho0) has point density u = w z/(1-z) (with multiplicity) and
distinct-point density v = -w log(1-z).  Observing (u, v) therefore
pins (z, w) down uniquely: the ratio u/v determines z through the
strictly increasing map R(z) = [z/(1-z)]/(-log(1-z)), and v then
yields w.  The plug-in kernel z_hat (w_hat rho0 + mu) is the Bayes
estimator of the intensity under a mixing prior only as the reference
mass grows (ROADMAP.md, the exact Bayes kernel for mixing priors).

These are finite-window estimates of almost-sure limiting densities;
their sampling error shrinks as the window mass grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state_space import ConfigurationBatch, ReferenceMeasure, _json_float
from .transforms import ParameterError

_Z_TOL = 1e-13
_Z_LO = 1e-15
_Z_HI = 1.0 - 1e-15


class InfeasibleDensitiesError(ValueError):
    """Raised when (u, v) lies outside the model's range.

    u <= v (with u > 0) or v = 0 < u cannot come from any (z, w); the
    raw values are reported rather than projected onto the feasible
    set, since silent clamping would mask model misfit.
    """

    def __init__(self, u: float, v: float):
        self.u = u
        self.v = v
        ratio = u / v if v > 0 else math.inf
        super().__init__(
            f"densities (u={u}, v={v}) admit no (z, w): need u > v > 0 "
            f"or u = v = 0 (ratio u/v = {ratio})")


@dataclass(frozen=True)
class ZWEstimate:
    """Solution of the density equations w z/(1-z) = u, -w log(1-z) = v."""

    z_hat: float
    w_hat: float
    converged: bool
    residual: float


def density_batch(batch: ConfigurationBatch, rho0: ReferenceMeasure):
    """Both empirical densities of every replica over the window:
    ``(u, v, mass)`` with u = (points, with multiplicity) / mass,
    v = (distinct points) / mass, shape (n,) each, and
    mass = ``rho0.total_mass``."""
    mass = rho0.total_mass
    if mass <= 0:
        raise ParameterError("estimation window has zero reference mass")
    return batch.counts() / mass, batch.distinct_counts() / mass, mass


def density_ratio(z) -> np.ndarray:
    """R(z) = [z/(1-z)] / (-log(1-z)), strictly increasing on (0, 1)
    with R(0+) = 1 and R(1-) = +inf."""
    z = np.asarray(z, dtype=float)
    return (z / (1.0 - z)) / (-np.log1p(-z))


def _solve_ratio(c: np.ndarray) -> np.ndarray:
    """Solve R(z) = c for arrays of ratios c > 1 by monotone bisection."""
    lo = np.full_like(c, _Z_LO)
    hi = np.full_like(c, _Z_HI)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        too_big = density_ratio(mid) > c
        hi = np.where(too_big, mid, hi)
        lo = np.where(too_big, lo, mid)
        if float(np.max(hi - lo)) < _Z_TOL:
            break
    return 0.5 * (lo + hi)


def solve_zw_batch(u: np.ndarray, v: np.ndarray):
    """Vectorized (z, w) recovery.

    Returns (z, w, feasible): infeasible entries get z = w = nan and
    feasible = False; (0, 0) maps to the degenerate solution (0, 0).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    z = np.full_like(u, np.nan)
    w = np.full_like(u, np.nan)
    zero = (u == 0) & (v == 0)
    z[zero] = 0.0
    w[zero] = 0.0
    solvable = (v > 0) & (u > v)
    if solvable.any():
        zs = _solve_ratio(u[solvable] / v[solvable])
        z[solvable] = zs
        w[solvable] = v[solvable] / (-np.log1p(-zs))
    return z, w, zero | solvable


def solve_zw(u: float, v: float) -> ZWEstimate:
    """Recover (z, w) from the densities (u, v): the one pair's
    :func:`solve_zw_batch` with its residual and a typed error.

    (0, 0) maps to the degenerate pair (0, 0); u > v > 0 has a unique
    solution found by bisecting the strictly increasing ratio map;
    anything else is outside the model and raises
    :class:`InfeasibleDensitiesError`.  A density that is not a number
    (a string, a bool) raises ``InvalidMeasureError``, and NaN or a
    negative one ``ValueError``.
    """
    u = _json_float(u, "u")
    v = _json_float(v, "v")
    if not (u >= 0 and v >= 0):
        raise ValueError(f"densities must be >= 0, got u={u}, v={v}")
    z, w, feasible = solve_zw_batch([u], [v])
    if not feasible[0]:
        raise InfeasibleDensitiesError(u, v)
    z, w = float(z[0]), float(w[0])
    residual = max(abs(w * z / (1.0 - z) - u), abs(-w * math.log1p(-z) - v))
    converged = residual <= 1e-9 * max(1.0, u, v)
    return ZWEstimate(z_hat=z, w_hat=w, converged=converged, residual=residual)

