"""Conjugate update: parameter algebra and estimator identities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from polyasum import (PointConfiguration, PolyaParams, ReferenceMeasure,
                      RngSeed, TestFunction, Window, posterior_intensity,
                      posterior_params, sample_gamma_measure_batch,
                      sample_posterior_batch, superpose, zeta)
from polyasum.transforms import ParameterError


def random_inputs(rng, n_cells=4):
    w = Window.interval(0.0, 1.0, n_cells)
    rho = ReferenceMeasure(w, rng.uniform(0.0, 3.0, n_cells))
    z = float(rng.uniform(0.05, 0.95))
    pts = []
    for _ in range(int(rng.integers(0, 4))):
        pts.append(((float(rng.uniform(0, 1)),), int(rng.integers(1, 5))))
    return z, rho, PointConfiguration(w, tuple(dict(pts).items()))


class TestPosteriorParams:
    def test_half_updates_to_third(self, window4, rho_mass2):
        mu = PointConfiguration(window4, (((0.1,), 1),))
        post = posterior_params(0.5, rho_mass2, mu)
        assert post.z == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert post.a == pytest.approx(2.0, rel=1e-15)

    def test_empty_observation_still_updates(self, window4, rho_mass2):
        post = posterior_params(0.5, rho_mass2, PointConfiguration(window4))
        assert post.rho == rho_mass2
        assert post.z < 0.5

    def test_iterated_empty_observations_add_to_rate(self, window4,
                                                     rho_mass2):
        z = 0.5
        a0 = (1 - z) / z
        empty = PointConfiguration(window4)
        for n in range(1, 6):
            post = posterior_params(z, rho_mass2, empty)
            assert post.a == pytest.approx(a0 + n, rel=1e-13)
            z = post.z

    def test_rejects_boundary_z(self, window4, rho_mass2):
        mu = PointConfiguration(window4)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ParameterError):
                posterior_params(bad, rho_mass2, mu)


class TestConjugacyClosure:
    def test_n_fold_update_closed_form(self, window4, rho_mass2):
        # updating with mu_1..mu_n must give z/(1+nz) and rho + sum mu_i;
        # the z-recursion is mirrored in exact rational arithmetic
        rng = np.random.default_rng(17)
        z_float = 0.5
        z_exact = Fraction(1, 2)
        rho = rho_mass2
        all_points = {}
        for n in range(1, 6):
            mu = PointConfiguration(
                window4, (((float(rng.uniform(0, 1)),),
                           int(rng.integers(1, 4))),))
            post = posterior_params(z_float, rho, mu)
            z_exact = z_exact / (1 + z_exact)
            assert z_exact == Fraction(1, 2 + n)  # z/(1+nz) with z = 1/2
            assert post.z == pytest.approx(float(z_exact), rel=1e-14)
            for loc, k in mu.points:
                all_points[loc] = all_points.get(loc, 0) + k
            expected_base = superpose(
                rho_mass2,
                PointConfiguration(window4, tuple(all_points.items())))
            assert post.rho == expected_base
            z_float = post.z
            rho = post.rho


class TestBayesEstimator:
    """The Bayes estimator z (rho + mu) is the posterior route's
    intensity, posterior_intensity(posterior_params(z, rho, mu))."""

    def test_direct_substitution(self, window4):
        rho = ReferenceMeasure.uniform(window4, 2.0)
        mu = PointConfiguration(window4, (((0.3,), 3),))
        b = posterior_intensity(posterior_params(0.5, rho, mu))
        assert b.total_mass == pytest.approx(2.5, rel=1e-14)

    def test_empty_observation_scales_prior(self, window4, rho_mass2):
        b = posterior_intensity(posterior_params(
            0.5, rho_mass2, PointConfiguration(window4)))
        assert np.allclose(b.cell_masses, 0.5 * rho_mass2.cell_masses)
        assert b.atoms == ()

    def test_equals_posterior_intensity_of_update(self):
        # the posterior route gives z (rho + mu) up to float rounding
        rng = np.random.default_rng(99)
        for _ in range(100):
            z, rho, mu = random_inputs(rng)
            direct = superpose(rho, mu).scale(z)
            via_posterior = posterior_intensity(posterior_params(z, rho, mu))
            assert np.allclose(direct.cell_masses, via_posterior.cell_masses,
                               rtol=1e-13, atol=0.0)
            assert len(direct.atoms) == len(via_posterior.atoms)
            for (la, wa), (lb, wb) in zip(direct.atoms, via_posterior.atoms):
                assert la == lb
                assert wa == pytest.approx(wb, rel=1e-13)


class TestPosteriorIntensity:
    def test_scale_factor_recovers_prior_z(self, window4, rho_mass2):
        mu = PointConfiguration(window4)
        post = posterior_params(0.5, rho_mass2, mu)
        out = posterior_intensity(post)
        assert out.total_mass == pytest.approx(0.5 * rho_mass2.total_mass,
                                               rel=1e-14)

    def test_mass_scaling(self, window4):
        base = ReferenceMeasure.uniform(window4, 5.0)
        post = PolyaParams(1.0 / 3.0, base)
        assert posterior_intensity(post).total_mass == pytest.approx(
            2.5, rel=1e-14)

    def test_monte_carlo_posterior_mean(self, window4, rho_mass2):
        params = PolyaParams(0.5, rho_mass2)
        mu = PointConfiguration(window4, (((0.6,), 2),))
        batch = sample_posterior_batch(mu, params, 1e-6, 30_000, RngSeed(5))
        intensity = posterior_intensity(posterior_params(0.5, rho_mass2, mu))
        for cell in range(4):
            f = TestFunction.indicator(window4, [cell])
            masses = batch.zeta(f)
            se = masses.std(ddof=1) / math.sqrt(masses.size)
            assert abs(masses.mean() - zeta(intensity, f)) < 3 * se + 1e-5


class TestPosteriorFeedsSamplers:
    def test_gamma_draws_equal_those_of_the_update(self, window4,
                                                   rho_mass2):
        # the posterior is the pair (z/(1+z), rho + mu) itself, so a
        # sampler takes it as it is and draws what it draws for that pair
        mu = PointConfiguration(window4, (((0.2,), 2), ((0.9,), 1)))
        post = posterior_params(0.5, rho_mass2, mu)
        pair = PolyaParams(0.5 / 1.5, superpose(rho_mass2, mu))
        got = sample_gamma_measure_batch(post, 1e-4, 50, RngSeed(8))
        want = sample_gamma_measure_batch(pair, 1e-4, 50, RngSeed(8))
        assert got.n == want.n
        for col in ("rep", "cell", "weight", "coords"):
            assert np.array_equal(getattr(got, col), getattr(want, col))
