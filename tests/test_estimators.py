"""Density statistics and the (z, w) solver: round trips, consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyasum import (InfeasibleDensitiesError, InvalidMeasureError,
                      MixingMeasure, PointConfiguration, PolyaParams,
                      ReferenceMeasure, RngSeed, Window, density_batch,
                      density_ratio, kernel, papangelou_kernel,
                      sample_mixed_batch, sample_polya_direct_batch,
                      solve_zw, solve_zw_batch, superpose)
from polyasum.state_space import _one_replica


def forward(z, w):
    """The density equations evaluated at (z, w)."""
    return w * z / (1.0 - z), -w * math.log1p(-z)


def densities(mu, rho0):
    """(u, v, mass) of the one configuration mu: density_batch of its
    one-replica batch."""
    u, v, mass = density_batch(_one_replica(mu), rho0)
    assert u.shape == v.shape == (1,)
    return u[0], v[0], mass


class TestDensityStats:
    def test_u_direct(self, window4):
        rho0 = ReferenceMeasure.uniform(window4, 100.0)
        mu = PointConfiguration(window4, (((0.1,), 60), ((0.6,), 40)))
        assert densities(mu, rho0)[0] == pytest.approx(1.0)

    def test_empty_configuration(self, window4, rho_mass2):
        mu = PointConfiguration(window4)
        assert densities(mu, rho_mass2)[:2] == (0.0, 0.0)

    def test_v_counts_without_multiplicity(self):
        w = Window.interval(0.0, 1.0, 1)
        rho0 = ReferenceMeasure.uniform(w, 1.0)
        mu = PointConfiguration(w, (((0.5,), 5),))
        u, v, _ = densities(mu, rho0)
        assert v == pytest.approx(1.0)
        assert u == pytest.approx(5.0)

    def test_zero_mass_region_rejected(self, window4):
        rho0 = ReferenceMeasure(window4, np.zeros(4))
        mu = PointConfiguration(window4)
        with pytest.raises(ValueError):
            densities(mu, rho0)

    def test_bundled_stats(self, window4):
        rho0 = ReferenceMeasure.uniform(window4, 4.0)
        mu = PointConfiguration(window4, (((0.1,), 3), ((0.6,), 1)))
        u, v, mass = densities(mu, rho0)
        assert u == pytest.approx(1.0)
        assert v == pytest.approx(0.5)
        assert mass == pytest.approx(4.0)

    def test_sample_means(self, window4):
        rho0 = ReferenceMeasure.uniform(window4, 2.0)
        batch = sample_polya_direct_batch(PolyaParams(0.5, rho0), 50_000,
                                          RngSeed(3))
        u = batch.counts() / 2.0
        v = batch.distinct_counts() / 2.0
        se_u = u.std(ddof=1) / math.sqrt(u.size)
        se_v = v.std(ddof=1) / math.sqrt(v.size)
        assert abs(u.mean() - 1.0) < 3 * se_u          # z/(1-z)
        assert abs(v.mean() + math.log(0.5)) < 3 * se_v  # -log(1-z)
        assert np.all(v <= u + 1e-12)


class TestRatioMap:
    def test_strictly_increasing(self):
        zs = np.linspace(1e-6, 1 - 1e-9, 20000)
        r = density_ratio(zs)
        assert np.all(np.diff(r) > 0)

    def test_limit_at_zero(self):
        assert density_ratio(1e-6) == pytest.approx(1.0, abs=1e-4)

    def test_diverges_near_one(self):
        assert density_ratio(1 - 1e-12) > 1e10


class TestSolveZW:
    def test_worked_pair(self):
        est = solve_zw(1.0, -math.log(0.5))
        assert est.z_hat == pytest.approx(0.5, abs=1e-12)
        assert est.w_hat == pytest.approx(1.0, abs=1e-11)
        assert est.converged

    def test_w_scaling(self):
        est = solve_zw(2.0, -2.0 * math.log(0.5))
        assert est.z_hat == pytest.approx(0.5, abs=1e-12)
        assert est.w_hat == pytest.approx(2.0, abs=1e-11)

    def test_degenerate_pair(self):
        est = solve_zw(0.0, 0.0)
        assert (est.z_hat, est.w_hat) == (0.0, 0.0)
        assert est.converged and est.residual == 0.0

    def test_round_trip_grid(self):
        for z in np.arange(0.1, 0.95, 0.1):
            for w in (0.5, 1.0, 2.0, 5.0):
                u, v = forward(z, w)
                est = solve_zw(u, v)
                assert abs(est.z_hat - z) < 1e-10
                assert abs(est.w_hat - w) < 1e-10 * max(1.0, w)

    def test_infeasible_ratios(self):
        with pytest.raises(InfeasibleDensitiesError):
            solve_zw(1.0, 1.0)     # u == v > 0
        with pytest.raises(InfeasibleDensitiesError):
            solve_zw(0.5, 0.8)     # u < v
        with pytest.raises(InfeasibleDensitiesError):
            solve_zw(1.0, 0.0)     # points but no distinct points
        with pytest.raises(ValueError):
            solve_zw(-1.0, 0.0)

    def test_batch_flags_infeasible_rows(self):
        u = np.array([1.0, 0.0, 0.7])
        v = np.array([-math.log(0.5), 0.0, 0.9])
        z, w, ok = solve_zw_batch(u, v)
        assert ok.tolist() == [True, True, False]
        assert z[0] == pytest.approx(0.5, abs=1e-12)
        assert (z[1], w[1]) == (0.0, 0.0)
        assert np.isnan(z[2])

    @given(z=st.floats(min_value=0.01, max_value=0.99),
           w=st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, z, w):
        u, v = forward(z, w)
        est = solve_zw(u, v)
        assert est.z_hat == pytest.approx(z, abs=1e-9)
        assert est.w_hat == pytest.approx(w, rel=1e-8)


class TestConsistency:
    def test_errors_shrink_with_window_mass(self, window4):
        # single-sample estimation error must decrease as the window
        # grows: medians over 100 replicas at masses 1e2, 1e3, 1e4
        z_true, w_true = 0.5, 1.0
        med_z, med_w = [], []
        for i, mass in enumerate((1e2, 1e3, 1e4)):
            rho0 = ReferenceMeasure.uniform(window4, mass)
            batch = sample_polya_direct_batch(
                PolyaParams(z_true, rho0.scale(w_true)), 100, RngSeed(60 + i))
            u = batch.counts() / mass
            v = batch.distinct_counts() / mass
            z_hat, w_hat, ok = solve_zw_batch(u, v)
            assert ok.all()
            med_z.append(np.median(np.abs(z_hat - z_true)))
            med_w.append(np.median(np.abs(w_hat - w_true)))
        assert med_z[0] > med_z[1] > med_z[2]
        assert med_w[0] > med_w[1] > med_w[2]

    def test_mixture_identifiability(self, window4):
        # a single observation pins down its mixture component: the
        # parameter posterior is degenerate at desk scale
        rho0 = ReferenceMeasure.uniform(window4, 1e4)
        mixing = MixingMeasure(rho0, ((0.3, 1.0, 0.5), (0.7, 1.0, 0.5)))
        batch, z_lat, w_lat = sample_mixed_batch(mixing, "direct", 1e-6,
                                                 200, RngSeed(61))
        u = batch.counts() / 1e4
        v = batch.distinct_counts() / 1e4
        z_hat, w_hat, ok = solve_zw_batch(u, v)
        assert ok.all()
        d0 = (z_hat - 0.3) ** 2 + (w_hat - 1.0) ** 2
        d1 = (z_hat - 0.7) ** 2 + (w_hat - 1.0) ** 2
        assigned = np.where(d0 < d1, 0.3, 0.7)
        accuracy = (assigned == z_lat).mean()
        assert accuracy > 0.95


class TestPapangelouKernel:
    def test_empty_configuration_gives_zero_measure(self, window4,
                                                    rho_mass2):
        out = papangelou_kernel(PointConfiguration(window4), rho_mass2)
        assert out.total_mass == 0.0

    def test_observed_atom_weight(self, window4):
        rho0 = ReferenceMeasure.uniform(window4, 50.0)
        batch = sample_polya_direct_batch(PolyaParams(0.5, rho0), 1,
                                          RngSeed(62))
        mu = batch.to_configurations()[0]
        u, v, _ = density_batch(batch, rho0)
        est = solve_zw(u[0], v[0])
        out = papangelou_kernel(mu, rho0)
        atom_weights = dict(out.atoms)
        for loc, k in mu.points:
            assert atom_weights[loc] == pytest.approx(est.z_hat * k,
                                                      rel=1e-12)

    def test_diffuse_scale_recovers_parameters(self, window4):
        # on a mass-1e4 window the plug-in kernel's diffuse scale
        # z_hat w_hat sits within a few percent of z w
        rho0 = ReferenceMeasure.uniform(window4, 1e4)
        batch = sample_polya_direct_batch(PolyaParams(0.5, rho0), 20,
                                          RngSeed(63))
        scales = []
        for mu in batch.to_configurations():
            out = papangelou_kernel(mu, rho0)
            scales.append(out.cell_masses.sum() / 1e4)
        assert abs(np.median(scales) - 0.5) < 0.05 * 0.5


class TestOneCopy:
    """The pair solver and the one-replica densities are the batch
    routines applied to one replica."""

    def test_pair_solver_equals_batch_bit_for_bit(self):
        gen = np.random.default_rng(14)
        v = np.concatenate([np.ones(1000), gen.uniform(0.01, 10.0, 1000)])
        u = np.concatenate([gen.uniform(1.1, 50.0, 1000),
                            v[1000:] * gen.uniform(1.001, 50.0, 1000)])
        z, w, ok = solve_zw_batch(u, v)
        assert ok.all()
        for i in range(u.size):
            est = solve_zw(u[i], v[i])
            assert (est.z_hat, est.w_hat) == (z[i], w[i]), (u[i], v[i])

    def test_nan_density_rejected(self):
        with pytest.raises(ValueError):
            solve_zw(math.nan, 1.0)

    def test_densities_must_be_numbers(self):
        # float() would cast "2" and True; these are not densities
        for u, v in (("2", "1"), (True, 0.5), (2.0, "1"), (2.0, False)):
            with pytest.raises(InvalidMeasureError):
                solve_zw(u, v)

    @pytest.mark.parametrize("kind", ["box", "sites"])
    def test_batch_kernel_equals_per_replica_kernel(self, kind):
        # replica i's plug-in (z_hat, w_hat) in the batch is, bit for
        # bit, the pair papangelou_kernel builds replica i's measure from
        if kind == "sites":
            window = Window.discrete(["a", "b", "c"])
            rho0 = ReferenceMeasure(window, [1.0, 0.5, 0.0], (("c", 2.0),))
        else:
            window = Window.interval(0.0, 1.0, 4)
            rho0 = ReferenceMeasure.uniform(window, 3.0)
        mixing = MixingMeasure(rho0, ((0.3, 1.0, 0.3), (0.6, 2.0, 0.4),
                                      (0.0, 0.0, 0.3)))
        batch, _, _ = sample_mixed_batch(mixing, "direct", 1e-6, 200,
                                         RngSeed(70))
        b, c = kernel(batch, rho0)
        assert b.shape == c.shape == (200,)
        outcomes = set()
        for i, mu in enumerate(batch.to_configurations()):
            one = kernel(_one_replica(mu), rho0)
            assert (one[0].tobytes(), one[1].tobytes()) == (
                b[i:i + 1].tobytes(), c[i:i + 1].tobytes())
            if np.isnan(b[i]):
                assert np.isnan(c[i])
                with pytest.raises(InfeasibleDensitiesError):
                    papangelou_kernel(mu, rho0)
                outcomes.add("infeasible")
            elif b[i] == 0.0:
                assert papangelou_kernel(mu, rho0) == rho0.scale(0.0)
                outcomes.add("zero")
            else:
                assert papangelou_kernel(mu, rho0) == superpose(
                    rho0.scale(c[i]), mu).scale(b[i])
                outcomes.add("solved")
        assert outcomes == {"infeasible", "zero", "solved"}

    def test_zero_mass_region_rejected(self, window4):
        rho0 = ReferenceMeasure(window4, np.zeros(4))
        batch = sample_polya_direct_batch(PolyaParams(0.5, rho0), 3,
                                          RngSeed(71))
        with pytest.raises(ValueError):
            density_batch(batch, rho0)
