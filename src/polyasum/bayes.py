"""Conjugate posterior update and the kernels b (c rho0 + mu).

Observing a configuration mu updates a Gamma random measure prior with
parameters (z, rho) to one with parameters (z/(1+z), rho + mu); in the
rate parametrization a = (1-z)/z this is the classical a -> a + 1 step.
The posterior is itself a :class:`~polyasum.samplers.PolyaParams`, so
every sampler and transform of that pair takes it as it is.  The Bayes
estimator of the directing intensity is z (rho + mu).
"""

from __future__ import annotations

import numpy as np

from .estimators import (InfeasibleDensitiesError, density_batch,
                         solve_zw_batch)
from .samplers import PolyaParams
from .state_space import (ConfigurationBatch, PointConfiguration,
                          ReferenceMeasure, _one_replica, superpose)
from .transforms import _check_z_open


def posterior_params(z: float, rho: ReferenceMeasure,
                     mu: PointConfiguration) -> PolyaParams:
    """Posterior of a (z, rho) Gamma-measure prior given observation mu.

    Returns (z/(1+z), rho + mu), whose rate ``a`` is the prior a + 1.
    An empty observation still updates the parameters: seeing zero
    points is evidence too.
    """
    z = _check_z_open(z)
    return PolyaParams(z / (1.0 + z), superpose(rho, mu))


def posterior_intensity(params: PolyaParams) -> ReferenceMeasure:
    """First-moment measure of a Gamma measure: (z/(1-z)) rho.

    For the posterior (z/(1+z), rho + mu) the scale factor equals the
    prior z, which is how the estimator z (rho + mu) drops out of the
    posterior's Campbell measure.
    """
    factor = params.z / (1.0 - params.z)
    return params.rho.scale(factor)


def kernel(batch: ConfigurationBatch, rho0: ReferenceMeasure,
           pair: tuple | None = None):
    """Coefficients (b, c), shape (n,) each, of the kernel b (c rho0 + mu)
    of every replica mu of ``batch``: the given ``pair`` ((z, 1.0) is the
    Polya sum kernel), or else the plug-in (z_hat, w_hat) that each
    replica's densities over ``rho0`` solve, NaN where they admit none."""
    if pair is not None:
        return np.full(batch.n, pair[0]), np.full(batch.n, pair[1])
    u, v, _ = density_batch(batch, rho0)
    return solve_zw_batch(u, v)[:2]


def papangelou_kernel(mu: PointConfiguration,
                      rho0: ReferenceMeasure) -> ReferenceMeasure:
    """Plug-in conditional intensity z_hat (w_hat rho0 + mu), built from
    :func:`kernel`'s answer for the one configuration mu.  It is the
    mixture's Bayes estimator only as the reference mass grows."""
    one = _one_replica(mu)
    (b,), (c,) = kernel(one, rho0)
    if np.isnan(b):
        u, v, _ = density_batch(one, rho0)
        raise InfeasibleDensitiesError(float(u[0]), float(v[0]))
    if b == 0.0:
        return rho0.scale(0.0)
    return superpose(rho0.scale(c), mu).scale(b)
