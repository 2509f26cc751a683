"""Conjugate posterior update and Bayes estimator.

Observing a configuration mu updates a Gamma random measure prior with
parameters (z, rho) to one with parameters (z/(1+z), rho + mu); in the
rate parametrization a = (1-z)/z this is the classical a -> a + 1 step.
The Bayes estimator of the directing intensity is z (rho + mu), and the
posterior factorizes as a convolution of independent Gamma measures
over rho and over mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state_space import (InvalidMeasureError, PointConfiguration,
                          ReferenceMeasure, superpose)
from .transforms import _check_z_open


class DecompositionError(ValueError):
    """Raised when a posterior base cannot be split as rho + mu."""


@dataclass(frozen=True)
class PosteriorSpec:
    """Posterior parameters: z_post and the base measure rho + mu."""

    z_post: float
    base: ReferenceMeasure

    def __post_init__(self):
        _check_z_open(self.z_post)

    @property
    def a_post(self) -> float:
        """The posterior rate a = (1 - z_post)/z_post, the prior a + 1."""
        return (1.0 - self.z_post) / self.z_post


def posterior_params(z: float, rho: ReferenceMeasure,
                     mu: PointConfiguration) -> PosteriorSpec:
    """Posterior of a (z, rho) Gamma-measure prior given observation mu.

    Returns (z/(1+z), rho + mu), whose rate is a + 1.  An empty
    observation still updates the parameters: seeing zero points is
    evidence too.
    """
    z = _check_z_open(z)
    return PosteriorSpec(z_post=z / (1.0 + z), base=superpose(rho, mu))


def bayes_estimator(z: float, rho: ReferenceMeasure,
                    mu: PointConfiguration) -> ReferenceMeasure:
    """The posterior-mean intensity measure z (rho + mu)."""
    z = _check_z_open(z)
    return superpose(rho, mu).scale(z)


def posterior_intensity(spec: PosteriorSpec) -> ReferenceMeasure:
    """First-moment measure of the posterior: (z_post/(1-z_post)) base.

    The scale factor equals the prior z, which is how the estimator
    z (rho + mu) drops out of the posterior's Campbell measure.
    """
    factor = spec.z_post / (1.0 - spec.z_post)
    return spec.base.scale(factor)


def convolution_split(spec: PosteriorSpec, mu: PointConfiguration):
    """Split a posterior over rho + mu into independent components.

    Returns two specs with the same z_post whose bases are rho and mu;
    their independent superposition has the posterior's law.  Fails
    loudly when the base does not contain mu (the split only applies
    to genuine rho + mu composites).
    """
    if spec.base.window != mu.window:
        raise InvalidMeasureError("posterior base and mu share no window")
    window = spec.base.window
    remaining = {loc: w for loc, w in spec.base.atoms}
    for loc, mult in mu.points:
        have = remaining.get(loc)
        if have is None or have < mult - 1e-9:
            raise DecompositionError(
                f"base atom at {loc!r} has weight {have}, cannot remove "
                f"multiplicity {mult}")
        left = have - mult
        if left <= 1e-9:
            del remaining[loc]
        else:
            remaining[loc] = left
    rho_part = ReferenceMeasure(
        window, spec.base.cell_masses,
        tuple(sorted(remaining.items(), key=lambda kv: repr(kv[0]))))
    mu_part = ReferenceMeasure(
        window, np.zeros(window.n_cells),
        tuple((loc, float(k)) for loc, k in mu.points))
    return (PosteriorSpec(spec.z_post, rho_part),
            PosteriorSpec(spec.z_post, mu_part))
