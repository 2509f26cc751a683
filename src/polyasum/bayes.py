"""Conjugate posterior update and Bayes estimator.

Observing a configuration mu updates a Gamma random measure prior with
parameters (z, rho) to one with parameters (z/(1+z), rho + mu); in the
rate parametrization a = (1-z)/z this is the classical a -> a + 1 step.
The posterior is itself a :class:`~polyasum.samplers.PolyaParams`, so
every sampler and transform of that pair takes it as it is.  The Bayes
estimator of the directing intensity is z (rho + mu).
"""

from __future__ import annotations

from .samplers import PolyaParams
from .state_space import PointConfiguration, ReferenceMeasure, superpose
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


def bayes_estimator(z: float, rho: ReferenceMeasure,
                    mu: PointConfiguration) -> ReferenceMeasure:
    """The posterior-mean intensity measure z (rho + mu)."""
    z = _check_z_open(z)
    return superpose(rho, mu).scale(z)


def posterior_intensity(params: PolyaParams) -> ReferenceMeasure:
    """First-moment measure of a Gamma measure: (z/(1-z)) rho.

    For the posterior (z/(1+z), rho + mu) the scale factor equals the
    prior z, which is how the estimator z (rho + mu) drops out of the
    posterior's Campbell measure.
    """
    factor = params.z / (1.0 - params.z)
    return params.rho.scale(factor)
