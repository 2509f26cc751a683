"""Sampler laws against their closed-form oracles.

Monte Carlo assertions use 3-sigma bands around exact moments and
transforms; Gamma-measure routes get an additional linear allowance
for the documented truncation threshold eps.
"""

import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from polyasum import (AtomicBatch, AtomicMeasure, MixingMeasure,
                      PointConfiguration,
                      PolyaParams, ReferenceMeasure, RngSeed, TestFunction,
                      Window, laplace_polya, logseries_mean, nb_pmf_table,
                      sample_gamma_measure_batch, sample_mixed_batch,
                      sample_poisson_batch, sample_polya_cox_batch,
                      sample_polya_direct_batch, sample_posterior_batch,
                      samplers, state_space)
from polyasum.expint import e1_inverse
from polyasum.state_space import _merge, zeta
from polyasum.transforms import ParameterError
from polyasum.verify import _mean_se

EPS = 1e-6
EPS_SLACK = 10 * EPS


@pytest.fixture(scope="module")
def gamma_batch_large():
    """One shared 1e5-replica Gamma-measure batch (m=2, z=0.5)."""
    w = Window.interval(0.0, 1.0, 4)
    params = PolyaParams(0.5, ReferenceMeasure.uniform(w, 2.0))
    batch = sample_gamma_measure_batch(params, EPS, 100_000, RngSeed(1001))
    return params, batch


class TestPoisson:
    def test_zero_intensity_always_empty(self, window4):
        rho = ReferenceMeasure(window4, np.zeros(4))
        for seed in range(5):
            mu = sample_poisson_batch(rho, 1, RngSeed(seed))
            assert mu.to_configurations()[0].points == ()

    def test_atom_multiplicity_mean(self, window4):
        intensity = ReferenceMeasure(window4, None, (((0.5,), 2.0),))
        batch = sample_poisson_batch(intensity, 100_000, RngSeed(2))
        counts = batch.counts()
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - 2.0) < 3 * se

    def test_diffuse_moments(self, window4):
        rho = ReferenceMeasure.uniform(window4, 3.0)
        batch = sample_poisson_batch(rho, 100_000, RngSeed(3))
        counts = batch.counts()
        n = counts.size
        se_mean = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - 3.0) < 3 * se_mean
        # Poisson variance equals the mean; 3-sigma band via the
        # large-sample variance of the sample variance
        var = counts.var(ddof=1)
        se_var = math.sqrt((stats.moment(counts, 4)
                            - (n - 3) / (n - 1) * var**2) / n)
        assert abs(var - 3.0) < 3 * se_var

    def test_diffuse_points_are_simple(self, window4):
        rho = ReferenceMeasure.uniform(window4, 3.0)
        batch = sample_poisson_batch(rho, 2000, RngSeed(4))
        assert np.all(batch.mult == 1)

    def test_rejects_wrong_type(self, window4):
        # an atomic measure is a ReferenceMeasure(window, None, atoms)
        for intensity in (3.0, AtomicMeasure(window4, (((0.5,), 2.0),))):
            with pytest.raises(TypeError):
                sample_poisson_batch(intensity, 1, RngSeed(0))

    def test_sites_window_with_atoms(self):
        # site c carries only a zero-weight atom, so it must stay empty
        w = Window.discrete(["a", "b", "c"])
        rho = ReferenceMeasure(w, np.array([0.5, 0.0, 0.0]),
                               (("b", 1.2), ("c", 0.0)))
        batch = sample_poisson_batch(rho, 50_000, RngSeed(5))
        assert np.array_equal(batch.coords, batch.cell)
        assert not np.any(batch.cell == 2)
        for cell, mean in ((0, 0.5), (1, 1.2)):
            counts = batch.zeta(TestFunction.indicator(w, [cell]))
            se = counts.std(ddof=1) / math.sqrt(counts.size)
            assert abs(counts.mean() - mean) < 3 * se
        configs = batch.to_configurations()
        assert {loc for mu in configs for loc, _ in mu.points} <= {"a", "b"}
        assert [mu.total_count for mu in configs] == batch.counts().tolist()


class TestGammaMeasure:
    def test_mass_mean(self, gamma_batch_large):
        params, batch = gamma_batch_large
        masses = batch.masses()
        se = masses.std(ddof=1) / math.sqrt(masses.size)
        target = 2.0 * 0.5 / 0.5  # m z/(1-z)
        assert abs(masses.mean() - target) < 3 * se + EPS

    def test_mass_distribution_is_gamma(self, gamma_batch_large):
        # window mass m with rate a = (1-z)/z: total mass ~ Gamma(m, a)
        params, batch = gamma_batch_large
        ks = stats.kstest(batch.masses(), "gamma", args=(2.0, 0.0, 1.0))
        assert ks.statistic < 0.01

    def test_huge_eps_single_remainder_atom(self, window4):
        params = PolyaParams(0.5, ReferenceMeasure.uniform(window4, 2.0))
        mean_total = 2.0  # m/a
        for seed in range(5):
            kappa = sample_gamma_measure_batch(
                params, 10.0, 1, RngSeed(seed)).to_measures()[0]
            assert len(kappa.atoms) == 1
            assert kappa.total_mass <= mean_total + 1e-12

    def test_z_zero_gives_zero_measure(self, window4, rho_mass2):
        kappa = sample_gamma_measure_batch(PolyaParams(0.0, rho_mass2), EPS,
                                           1, RngSeed(0))
        assert kappa.to_measures()[0].atoms == ()

    def test_underflowing_mean_mass_gives_zero_measure(self, window4):
        # m/a = 1e-300 * 1e-300 underflows to 0: the remainder-only
        # branch used to emit atoms of weight 0.0
        params = PolyaParams(1e-300, ReferenceMeasure.uniform(window4,
                                                              1e-300))
        one = sample_gamma_measure_batch(params, EPS, 1, RngSeed(1))
        assert one.to_measures()[0].atoms == ()
        batch = sample_gamma_measure_batch(params, EPS, 3, RngSeed(1))
        assert [m.atoms for m in batch.to_measures()] == [()] * 3

    def test_eps_must_be_positive(self, rho_mass2):
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(ParameterError, match="truncation threshold"):
                sample_gamma_measure_batch(PolyaParams(0.5, rho_mass2), eps,
                                           1, RngSeed(0))

    def test_atomic_reference_mass_handled_proportionally(self):
        w = Window.interval(0.0, 1.0, 2)
        rho = ReferenceMeasure(w, np.array([0.5, 0.0]), (((0.75,), 1.5),))
        params = PolyaParams(0.5, rho)
        batch = sample_gamma_measure_batch(params, EPS, 20_000, RngSeed(9))
        masses = batch.masses()
        se = masses.std(ddof=1) / math.sqrt(masses.size)
        assert abs(masses.mean() - 2.0) < 3 * se + EPS
        # mass at the reference atom's cell carries its share
        f = TestFunction.indicator(w, [1])
        at_atom = batch.zeta(f)
        se_atom = at_atom.std(ddof=1) / math.sqrt(at_atom.size)
        assert abs(at_atom.mean() - 1.5) < 3 * se_atom + EPS

    def test_small_reference_mass_gives_valid_measures(self, window4):
        # late arrivals at mass 1e-3 make e1_inverse underflow to 0;
        # zero-weight atoms used to reach to_measures and 0 * inf
        params = PolyaParams(0.5, ReferenceMeasure.uniform(window4, 1e-3))
        batch = sample_gamma_measure_batch(params, 1e-9, 2000, RngSeed(1))
        assert np.all(batch.weight > 0)
        measures = batch.to_measures()
        assert len(measures) == 2000
        assert np.all(np.isfinite(batch.zeta(TestFunction.constant(
            window4, 1.0))))
        void = batch.zeta(TestFunction.constant(window4, np.inf))
        assert not np.any(np.isnan(void))
        assert np.array_equal(np.exp(-void),
                              [float(not m.atoms) for m in measures])


class TestPolyaDirect:
    def test_z_zero_always_empty(self, rho_mass2):
        for seed in range(5):
            mu = sample_polya_direct_batch(PolyaParams(0.0, rho_mass2), 1,
                                           RngSeed(seed))
            assert mu.to_configurations()[0].points == ()

    def test_void_probability(self, window4):
        params = PolyaParams(0.5, ReferenceMeasure.uniform(window4, 1.0))
        batch = sample_polya_direct_batch(params, 100_000, RngSeed(11))
        empty = (batch.counts() == 0).astype(float)
        se = empty.std(ddof=1) / math.sqrt(empty.size)
        assert abs(empty.mean() - 0.5) < 3 * se

    def test_distinct_count_is_poisson(self, window4):
        # the cluster count is exactly Poisson(-log(1-z) m): chi-square
        # goodness of fit on 1e5 replicas
        params = PolyaParams(0.5, ReferenceMeasure.uniform(window4, 2.0))
        batch = sample_polya_direct_batch(params, 100_000, RngSeed(12))
        distinct = batch.distinct_counts()
        lam = -math.log1p(-0.5) * 2.0
        kmax = int(stats.poisson.ppf(1 - 1e-6, lam))
        observed = np.bincount(np.minimum(distinct, kmax),
                               minlength=kmax + 1).astype(float)
        expected = stats.poisson.pmf(np.arange(kmax + 1), lam)
        expected[-1] = 1.0 - expected[:-1].sum()
        expected *= distinct.size
        keep = expected >= 5
        gof = stats.chisquare(observed[keep],
                              expected[keep] * observed[keep].sum()
                              / expected[keep].sum())
        assert gof.pvalue > 0.001

    def test_multiplicity_law_mean(self, window4):
        params = PolyaParams(0.5, ReferenceMeasure.uniform(window4, 2.0))
        batch = sample_polya_direct_batch(params, 50_000, RngSeed(13))
        mult = batch.mult.astype(float)
        se = mult.std(ddof=1) / math.sqrt(mult.size)
        assert abs(mult.mean() - logseries_mean(0.5)) < 3 * se

    def test_independent_increments(self, window4):
        params = PolyaParams(0.5, ReferenceMeasure.uniform(window4, 2.0))
        batch = sample_polya_direct_batch(params, 50_000, RngSeed(14))
        left = batch.zeta(TestFunction.indicator(window4, [0, 1]))
        right = batch.zeta(TestFunction.indicator(window4, [2, 3]))
        corr = np.corrcoef(left, right)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(left.size)

    def test_atomic_reference_merges_multiplicities(self):
        w = Window.interval(0.0, 1.0, 1)
        rho = ReferenceMeasure(w, np.array([0.1]), (((0.5,), 5.0),))
        mu = sample_polya_direct_batch(PolyaParams(0.8, rho), 1,
                                       RngSeed(15)).to_configurations()[0]
        # clusters landing on the reference atom must merge into one
        # located point; the invariant is simply a valid configuration
        assert len({loc for loc, _ in mu.points}) == len(mu.points)


class TestPolyaCox:
    def test_count_mean(self, window4):
        params = PolyaParams(0.5, ReferenceMeasure.uniform(window4, 2.0))
        batch = sample_polya_cox_batch(params, EPS, 30_000, RngSeed(21))
        counts = batch.counts()
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - 2.0) < 3 * se + EPS_SLACK

    def test_distinct_mean_matches_thinned_jump_intensity(self, window4):
        # jumps of size r are hit at all with probability 1 - e^-r;
        # integrating against the Levy density gives -log(1-z) m
        params = PolyaParams(0.5, ReferenceMeasure.uniform(window4, 2.0))
        batch = sample_polya_cox_batch(params, EPS, 30_000, RngSeed(22))
        distinct = batch.distinct_counts().astype(float)
        se = distinct.std(ddof=1) / math.sqrt(distinct.size)
        target = -math.log1p(-0.5) * 2.0
        assert abs(distinct.mean() - target) < 3 * se + EPS_SLACK

    def test_empirical_laplace_matches_closed_form(self, window4):
        params = PolyaParams(0.5, ReferenceMeasure.uniform(window4, 2.0))
        batch = sample_polya_cox_batch(params, EPS, 30_000, RngSeed(23))
        rng = np.random.default_rng(77)
        for _ in range(20):
            g = TestFunction(window4, rng.uniform(0.0, 2.5, 4))
            est, se = _mean_se(np.exp(-batch.zeta(g)))
            exact = laplace_polya(g, 0.5, params.rho).value
            assert abs(est - exact) < 3 * se + EPS_SLACK

    def test_requires_z_in_open_interval(self, rho_mass2):
        with pytest.raises(ParameterError):
            sample_polya_cox_batch(PolyaParams(0.0, rho_mass2), EPS, 1,
                                   RngSeed(0))
        with pytest.raises(ParameterError, match="undefined at z = 0"):
            PolyaParams(0.0, rho_mass2).a


class TestDirectRouteLaplace:
    def test_twenty_random_test_functions(self, window4):
        params = PolyaParams(0.5, ReferenceMeasure.uniform(window4, 2.0))
        batch = sample_polya_direct_batch(params, 50_000, RngSeed(31))
        rng = np.random.default_rng(88)
        for _ in range(20):
            g = TestFunction(window4, rng.uniform(0.0, 2.5, 4))
            est, se = _mean_se(np.exp(-batch.zeta(g)))
            exact = laplace_polya(g, 0.5, params.rho).value
            assert abs(est - exact) < 3 * se

    def test_void_probability_through_object_samples(self, window4):
        # e^-zeta with an infinite test function is the void indicator
        params = PolyaParams(0.5, ReferenceMeasure.uniform(window4, 1.0))
        samples = sample_polya_direct_batch(
            params, 10_000, RngSeed(32)).to_configurations()
        f_inf = TestFunction.constant(window4, np.inf)
        est, se = _mean_se([math.exp(-zeta(mu, f_inf)) for mu in samples])
        assert abs(est - 0.5) < 3 * se


class TestPosterior:
    def test_empty_observation_is_plain_gamma_draw(self, window4, rho_mass2):
        params = PolyaParams(0.5, rho_mass2)
        mu = PointConfiguration(window4, ())
        a = sample_posterior_batch(mu, params, EPS, 1, RngSeed(41))
        z_post = 0.5 / 1.5
        b = sample_gamma_measure_batch(PolyaParams(z_post, rho_mass2), EPS,
                                       1, RngSeed(41))
        assert a.to_measures() == b.to_measures()

    def test_observed_point_weight_mean(self, window4, rho_mass2):
        # weight at an observed point of multiplicity k has mean
        # k/(a+1) = z k
        params = PolyaParams(0.5, rho_mass2)
        loc = (0.375,)
        mu = PointConfiguration(window4, ((loc, 3),))
        batch = sample_posterior_batch(mu, params, EPS, 100_000, RngSeed(42))
        at_point = np.isclose(batch.coords[:, 0], loc[0], rtol=0, atol=0)
        weights = batch.weight[at_point]
        assert weights.size == 100_000
        se = weights.std(ddof=1) / math.sqrt(weights.size)
        assert abs(weights.mean() - 1.5) < 3 * se

    def test_observed_points_on_atoms_of_rho(self):
        # a point of mu on an atom of rho is one atom of rho + mu: its
        # weight is the prior's jump there plus its own Gamma weight,
        # also where mu writes 0.0 and the atom -0.0
        rho = _atom_heavy_rho(2)
        params = PolyaParams(0.6, rho)
        mu = _on_atoms_mu(rho)
        batch = sample_posterior_batch(mu, params, 1e-3, 50, RngSeed(44))
        rng = RngSeed(44).generator()
        prior = sample_gamma_measure_batch(PolyaParams(0.6 / 1.6, rho), 1e-3,
                                           50, rng).to_measures()
        mults = np.array([k for _, k in mu.points] * 50, dtype=float)
        own = rng.gamma(shape=mults, scale=1.0 / (params.a + 1.0))
        shared = 0
        for i, post in enumerate(batch.to_measures()):
            weights, jumps = dict(post.atoms), dict(prior[i].atoms)
            assert len(weights) == len(set(jumps) | dict(mu.points).keys())
            for (loc, _), g in zip(mu.points, own[4 * i:4 * i + 4]):
                assert weights[loc] == jumps.get(loc, 0.0) + g
                shared += loc in jumps
            assert all(weights[loc] == w for loc, w in jumps.items()
                       if loc not in dict(mu.points))
        assert shared > 50

    def test_diffuse_cell_mean(self, window4, rho_mass2):
        params = PolyaParams(0.5, rho_mass2)
        mu = PointConfiguration(window4, ())
        batch = sample_posterior_batch(mu, params, EPS, 50_000, RngSeed(43))
        cell_mass = batch.zeta(TestFunction.indicator(window4, [2]))
        se = cell_mass.std(ddof=1) / math.sqrt(cell_mass.size)
        assert abs(cell_mass.mean() - 0.5 * 0.5) < 3 * se + EPS_SLACK


    def test_sites_window(self):
        # posterior mean of each site's mass is z (rho + mu) there
        w = Window.discrete(["a", "b", "c"])
        rho = ReferenceMeasure(w, np.array([0.5, 1.0, 0.25]))
        params = PolyaParams(0.5, rho)
        mu = PointConfiguration(w, (("a", 2), ("c", 1)))
        batch = sample_posterior_batch(mu, params, EPS, 50_000, RngSeed(44))
        assert np.array_equal(batch.coords, batch.cell)
        for cell, target in ((0, 1.25), (1, 0.5), (2, 0.625)):
            mass = batch.zeta(TestFunction.indicator(w, [cell]))
            se = mass.std(ddof=1) / math.sqrt(mass.size)
            assert abs(mass.mean() - target) < 3 * se + EPS_SLACK
        one = sample_posterior_batch(mu, params, EPS, 1,
                                     RngSeed(45)).to_measures()[0]
        assert {loc for loc, _ in one.atoms} >= {"a", "c"}


class TestMixed:
    def test_degenerate_mixture_matches_plain_polya(self, window4):
        rho0 = ReferenceMeasure.uniform(window4, 2.0)
        mixing = MixingMeasure(rho0, ((0.5, 1.0, 1.0),))
        batch, z_lat, w_lat = sample_mixed_batch(mixing, "direct", EPS,
                                                 50_000, RngSeed(51))
        assert np.all(z_lat == 0.5) and np.all(w_lat == 1.0)
        table = nb_pmf_table(2.0, 0.5)
        counts = batch.counts()
        emp = np.bincount(counts, minlength=len(table)).astype(float)
        emp /= counts.size
        kmax = min(len(table), emp.size)
        tv = 0.5 * np.abs(emp[:kmax] - table[:kmax]).sum()
        assert tv < 0.01

    def test_two_atom_mixture_laplace(self, window4):
        rho0 = ReferenceMeasure.uniform(window4, 2.0)
        mixing = MixingMeasure(rho0, ((0.3, 1.0, 0.5), (0.6, 1.0, 0.5)))
        batch, _, _ = sample_mixed_batch(mixing, "direct", EPS, 50_000,
                                         RngSeed(52))
        rng = np.random.default_rng(5)
        for _ in range(5):
            g = TestFunction(window4, rng.uniform(0.0, 2.0, 4))
            est, se = _mean_se(np.exp(-batch.zeta(g)))
            exact = 0.5 * laplace_polya(g, 0.3, rho0).value \
                + 0.5 * laplace_polya(g, 0.6, rho0).value
            assert abs(est - exact) < 3 * se

    def test_degenerate_zero_atom_gives_empty(self, window4):
        rho0 = ReferenceMeasure.uniform(window4, 2.0)
        mixing = MixingMeasure(rho0, ((0.0, 0.0, 1.0),))
        batch, z, w = sample_mixed_batch(mixing, "direct", EPS, 1,
                                         RngSeed(53))
        assert batch.to_configurations()[0].points == ()
        assert z.tolist() == [0.0] and w.tolist() == [0.0]

    def test_latents_reported_per_replica(self, window4):
        rho0 = ReferenceMeasure.uniform(window4, 1.0)
        mixing = MixingMeasure(rho0, ((0.3, 1.0, 0.5), (0.7, 2.0, 0.5)))
        _, z_lat, w_lat = sample_mixed_batch(mixing, "direct", EPS, 1000,
                                             RngSeed(54))
        assert set(zip(z_lat.tolist(), w_lat.tolist())) \
            <= {(0.3, 1.0), (0.7, 2.0)}

    def test_probabilities_must_sum_to_one(self, window4, rho_mass2):
        with pytest.raises(ParameterError):
            MixingMeasure(rho_mass2, ((0.3, 1.0, 0.6), (0.6, 1.0, 0.6)))


def _atom_heavy_rho(dim):
    """4000 atoms over a diffuse part, five of them heavy, one at a -0.0
    coordinate and one at a 0.0 coordinate."""
    gen = np.random.default_rng(2024 + dim)
    if dim == 1:
        window = Window.interval(0.0, 1.0, 8)
        locs = gen.uniform(0.0, 1.0, (4000, 1))
        locs[:2] = [[-0.0], [0.5]]
    else:
        window = Window.box([(0.0, 1.0), (-1.0, 1.0)], [2, 3])
        locs = np.column_stack([gen.uniform(0.0, 1.0, 4000),
                                gen.uniform(-1.0, 1.0, 4000)])
        locs[:2] = [[-0.0, 0.5], [0.25, 0.0]]
    weights = gen.permutation(np.geomspace(1e-4, 1.0, 4000))
    weights *= 6.0 / weights.sum()
    weights[:5] = 0.5
    atoms = tuple(zip(map(tuple, locs.tolist()), weights.tolist()))
    return ReferenceMeasure(window, np.full(window.n_cells,
                                            2.0 / window.n_cells), atoms)


def _on_atoms_mu(rho):
    """Observed points on rho's heavy atoms (the first written with 0.0
    where the atom has -0.0) and one off them."""
    flip = tuple(0.0 if v == 0.0 else v for v in rho.atoms[0][0])
    off = tuple(0.123456789 for _ in flip)
    return PointConfiguration(rho.window, (
        (flip, 2), (rho.atoms[1][0], 1), (rho.atoms[3][0], 3), (off, 1)))


_ATOM_HEAVY = {
    "direct": lambda p, rng: sample_polya_direct_batch(p, 40, rng),
    "poisson": lambda p, rng: sample_poisson_batch(p.rho, 40, rng),
    "gamma": lambda p, rng: sample_gamma_measure_batch(p, 1e-3, 10, rng),
    "posterior": lambda p, rng: sample_posterior_batch(
        _on_atoms_mu(p.rho), p, 1e-3, 10, rng),
    "cox": lambda p, rng: sample_polya_cox_batch(p, 1e-3, 10, rng),
    "mixed": lambda p, rng: sample_mixed_batch(
        MixingMeasure(p.rho, ((0.6, 1.0, 0.7), (0.3, 2.0, 0.3))), "direct",
        1e-3, 40, rng)[0],
}

_ATOM_HEAVY_DIGESTS = {
    1: {
        "cox":
            "4fdbe31a4d3c5793c1e4c988db8e08c6807851d72322d6bf417ba24562395400",
        "direct":
            "773b7fafd2e8a9a1bd04ba1a200440be90aa88419c235c791f5e5665f2b18782",
        "gamma":
            "e2540b0e30b67f6b7f16ff413f3c604c252bbc9fa4328eab94a81d350a17b93c",
        "mixed":
            "0f5230dff2dc8871411d4dedcd69c7311f15b3de0554f6d7d5aeb48e4e410ab6",
        "poisson":
            "392673ab78a2da6a93c86ee7531ea44fb404ff902d0259d53e552d76003dfa63",
        "posterior":
            "5be1cd8bfc65d943fae8e4023c46b9f1ae838a5231a867f1bdd284800f796672",
    },
    2: {
        "cox":
            "eac0f7b80dd51da62bad5fa26df5129049cfe5e182ef054a3f91a68565ae081e",
        "direct":
            "927aef89505bd8a71449ebef0ec0eebfe1b515a16fdb7c53067fca8ed07804ea",
        "gamma":
            "cc0c4000ef93111e98459297ca5633a95451a8653459d7ca77a90f76379313ca",
        "mixed":
            "db5e508fcad896eb10dc10c6b79ddc3196ab6ca99ef6220542d4c98e294093a8",
        "poisson":
            "8a8ab0afb3ea1d1fe8b4d355ea04d7139f13133ffe3b71068fbed67eb215ad26",
        "posterior":
            "fc8fb6692ad7a146e011147fdb530020e2f318f49c7a12919b05fd5f9221be9c",
    },
}


class TestReproducibility:
    def test_same_seed_same_samples(self, window4, rho_mass2):
        params = PolyaParams(0.5, rho_mass2)
        a, b = (sample_polya_direct_batch(params, 1, RngSeed(7, stream=3))
                for _ in range(2))
        assert a.to_configurations() == b.to_configurations()
        ka, kb = (sample_gamma_measure_batch(params, EPS, 1,
                                             RngSeed(7, stream=3))
                  for _ in range(2))
        assert ka.to_measures() == kb.to_measures()

    def test_same_seed_same_batches(self, window4, rho_mass2):
        params = PolyaParams(0.5, rho_mass2)
        b1 = sample_polya_cox_batch(params, EPS, 500, RngSeed(8))
        b2 = sample_polya_cox_batch(params, EPS, 500, RngSeed(8))
        assert np.array_equal(b1.rep, b2.rep)
        assert np.array_equal(b1.mult, b2.mult)
        assert np.array_equal(b1.coords, b2.coords)

    def test_location_draws_keep_their_bits(self):
        # every sampler draws its locations through sample_locations;
        # these digests were recorded when it called rng.choice, with
        # numpy 2.4, and those of box3x5 and sites gamma and posterior
        # again when those samplers began to merge records at one
        # location (the merge of the old arrays gave the new ones bit
        # for bit).  A 3x5 box decodes cells on two axes, the sites
        # window has an atom, and 1000 cells make a long cdf.  Gamma
        # weights pass through e1_inverse, whose last bits may depend on
        # the platform's exp and log, so only locations are digested.
        fine = np.geomspace(1e-4, 1.0, 1000)
        fine[3::10] = 0.0
        rhos = {
            "box3x5": ReferenceMeasure(
                Window.box([(0.0, 1.0), (-1.0, 2.0)], [3, 5]),
                np.linspace(0.05, 0.75, 15), (((0.5, 0.25), 0.4),)),
            "sites": ReferenceMeasure(
                Window.discrete(["a", "b", "c", "d"]),
                np.array([0.5, 0.0, 1.0, 0.25]), (("b", 0.75),)),
            "fine1000": ReferenceMeasure(
                Window.interval(0.0, 1.0, 1000), fine * (3.0 / fine.sum())),
        }
        digests = {}
        for name, rho in rhos.items():
            params = PolyaParams(0.6, rho)
            mu = sample_polya_direct_batch(params, 1,
                                           RngSeed(5)).to_configurations()[0]
            for route, batch in (
                    ("direct", sample_polya_direct_batch(params, 300,
                                                         RngSeed(11))),
                    ("poisson", sample_poisson_batch(rho, 300, RngSeed(12))),
                    ("gamma", sample_gamma_measure_batch(params, 1e-3, 100,
                                                         RngSeed(13))),
                    ("posterior", sample_posterior_batch(
                        mu, params, 1e-3, 100, RngSeed(14)))):
                h = hashlib.sha256()
                values = ([batch.mult] if route in ("direct", "poisson")
                          else [])
                for arr in [batch.rep, batch.cell, *values, batch.coords]:
                    arr = np.ascontiguousarray(arr)
                    h.update(f"{arr.dtype.str}{arr.shape}".encode())
                    h.update(arr.tobytes())
                digests[f"{name}/{route}"] = h.hexdigest()
        assert digests == {
            "box3x5/direct":
                "f78cfebe3db0cd57371aad63777725d04cf967d34e9a1e9c18529a7a6163b6f1",
            "box3x5/poisson":
                "83894a6bdc05fcba6e1ef7c3eb1a48b8ffdd5c2f0fe4596cbae589e74b14553b",
            "box3x5/gamma":
                "dbcbccbc29c5af91f9ec8b2a3b14206e01973cd7dd7d853907dbc16eaec5066a",
            "box3x5/posterior":
                "63eb31cfd54f3943d67e8adbb5996bba5850797ab2883a915ea862925e88176b",
            "sites/direct":
                "bddc1006a41781ea33292a1b3d3bca3569a2e69aaddc9aa89d8760640039ae37",
            "sites/poisson":
                "d6bebac5194c3070fe72615237e4a6a181f2381322c63b4f752fa39fe1e9c808",
            "sites/gamma":
                "05b3f6e070b89eeeee4ba074bd672152e0da57ce2d15a30e51b333c9667db0ea",
            "sites/posterior":
                "78d1f0cfb94622fd1cd6b2cd834d5dabd8e269697a16992f37f9993ee1bc15e9",
            "fine1000/direct":
                "9b8b1f27916373fd7ad1a84609f2472e45860388a49e21cdb824c26723200958",
            "fine1000/poisson":
                "1d84cba9f0209bf06ac57ed3f1d052d9223aadc9e6a5d039907ee1ac2c6f3916",
            "fine1000/gamma":
                "5900e7587a5e633f2a961122cc39ebd963fd63e92e9617d7a1b2a06e85a72af9",
            "fine1000/posterior":
                "8ac8cf382ca353590487f8934dfaf3b661eb3ced163611fc8319343b859d56fc",
        }

    @pytest.mark.parametrize("dim", [1, 2])
    def test_atom_heavy_draws_keep_their_bits(self, dim):
        # 4000 atoms, recorded when every record was compared with every
        # atom; gamma-driven routes digest locations only, as above
        params = PolyaParams(0.6, _atom_heavy_rho(dim))
        digests = {}
        for seed, (route, draw) in enumerate(sorted(_ATOM_HEAVY.items())):
            batch = draw(params, RngSeed(40 + seed))
            h = hashlib.sha256()
            cols = [batch.rep, batch.cell, batch.coords]
            if route in ("direct", "poisson", "mixed"):
                cols.insert(2, batch.mult)
            for arr in cols:
                arr = np.ascontiguousarray(arr)
                h.update(f"{arr.dtype.str}{arr.shape}".encode())
                h.update(arr.tobytes())
            digests[route] = h.hexdigest()
        assert digests == _ATOM_HEAVY_DIGESTS[dim]

    def test_multi_block_draws_keep_their_bits(self, monkeypatch):
        # batches of 50k records and more, so every draw crosses blocks
        # of 16384 doubles; recorded with numpy 2.4 when the samplers
        # still concatenated their columns after drawing.  The last
        # mixture draws past the columns sized for its expected count,
        # so they grow while holding records.
        grown = []
        grow = state_space._BatchWriter._grow

        def counting_grow(self, need):
            grown.append(self.size)
            grow(self, need)

        monkeypatch.setattr(state_space._BatchWriter, "_grow", counting_grow)
        box = ReferenceMeasure(
            Window.box([(0.0, 1.0), (-1.0, 2.0)], [3, 5]),
            np.linspace(0.05, 0.75, 15), (((0.5, 0.25), 0.4),))
        sites = ReferenceMeasure(
            Window.discrete(["a", "b", "c", "d"]),
            np.array([0.5, 0.0, 1.0, 0.25]), (("b", 0.75),))
        mix = MixingMeasure(box, ((0.6, 1.0, 0.7), (0.3, 2.0, 0.3)))
        growing = MixingMeasure(
            ReferenceMeasure.uniform(Window.interval(0.0, 1.0, 8), 850.0),
            ((0.3, 0.05, 0.5), (0.7, 1.0, 0.5)))
        draws = {
            "box3x5/direct": lambda: sample_polya_direct_batch(
                PolyaParams(0.6, box), 10000, RngSeed(21)),
            "sites/direct": lambda: sample_polya_direct_batch(
                PolyaParams(0.6, sites), 32000, RngSeed(22)),
            "mixed-direct": lambda: sample_mixed_batch(
                mix, "direct", 1e-2, 10000, RngSeed(23))[0],
            "mixed-cox": lambda: sample_mixed_batch(
                mix, "cox", 1e-2, 10000, RngSeed(24))[0],
            "mixed-growth": lambda: sample_mixed_batch(
                growing, "direct", 1e-3, 100, RngSeed(124))[0],
        }
        digests, grew = {}, {}
        for name, draw in draws.items():
            grown.clear()
            batch = draw()
            assert batch.rep.size >= 50_000
            grew[name] = any(size > 0 for size in grown)
            h = hashlib.sha256()
            cols = [batch.rep, batch.cell, batch.coords]
            if name != "mixed-cox":  # locations only, as above
                cols.insert(2, batch.mult)
            for arr in cols:
                arr = np.ascontiguousarray(arr)
                h.update(f"{arr.dtype.str}{arr.shape}".encode())
                h.update(arr.tobytes())
            digests[name] = h.hexdigest()
        assert grew == {name: name == "mixed-growth" for name in draws}
        assert digests == {
            "box3x5/direct":
                "b71b864d855f14602427ca40e52ff9eb80c0f578439f39346cc4d23c9648f639",
            "sites/direct":
                "fcc7ad65e929f241cf641bc727c9d7ac600a037c53b4a6440b9cab200d853b32",
            "mixed-direct":
                "51a790e41047859a156578f9cfe60026095cf5d22b3032b1fa1d93fd6f7c8db6",
            "mixed-cox":
                "9993d6a39ab4579f164b0905233618d1a2b5863977de9c2f64a5340849ca9a77",
            "mixed-growth":
                "196677c7debc32d380cb70aca2d477cb12307f4c2bf10ba9844bf00758ebc9f5",
        }

    def test_streams_are_independent(self, window4, rho_mass2):
        params = PolyaParams(0.5, rho_mass2)
        a = sample_polya_direct_batch(params, 200, RngSeed(7, stream=0))
        b = sample_polya_direct_batch(params, 200, RngSeed(7, stream=1))
        assert not (a.rep.size == b.rep.size
                    and np.array_equal(a.coords, b.coords))

    @pytest.mark.parametrize("seed", [True, False])
    def test_a_bool_is_not_a_seed(self, seed):
        with pytest.raises(TypeError):
            samplers.as_generator(seed)

    def test_an_int_seed_is_its_rng_seed(self):
        assert np.array_equal(samplers.as_generator(7).random(8),
                              RngSeed(7).generator().random(8))


def _assert_valid_batch(batch, objects, cls):
    window = batch.window
    assert len(objects) == batch.n
    one = batch.zeta(TestFunction.constant(window, 1.0))
    assert np.all(np.isfinite(one))
    void = batch.zeta(TestFunction.constant(window, np.inf))
    assert not np.any(np.isnan(void))
    empty = [not (o.atoms if cls is AtomicMeasure else o.points)
             for o in objects]
    assert np.array_equal(np.exp(-void), np.asarray(empty, dtype=float))
    for obj in objects:
        doc = json.loads(json.dumps(obj.to_dict()))
        assert cls.from_dict(doc) == obj


@given(z=st.floats(min_value=1e-3, max_value=0.99),
       log_m=st.floats(min_value=-6.0, max_value=4.0),
       log_frac=st.floats(min_value=-12.0, max_value=0.3),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_fk_routes_valid_at_any_mass(z, log_m, log_frac, seed):
    # eps is a fraction of the mean total mass m/a (above 1 only the
    # remainder atom is left), raised where needed so that the expected
    # atom count m E1(a r_eps) stays below 2000 per replica
    window = Window.interval(0.0, 1.0, 4)
    rho = ReferenceMeasure(window, np.full(4, 10.0 ** log_m / 4))
    params = PolyaParams(z, rho)
    m, a = rho.total_mass, params.a
    eps = max(10.0 ** log_frac,
              -math.expm1(-e1_inverse(2000.0 / m))) * m / a
    gamma = sample_gamma_measure_batch(params, eps, 2, RngSeed(seed, 0))
    assert np.all(gamma.weight > 0) and np.all(np.isfinite(gamma.weight))
    _assert_valid_batch(gamma, gamma.to_measures(), AtomicMeasure)
    cox = sample_polya_cox_batch(params, eps, 2, RngSeed(seed, 1))
    configs = cox.to_configurations()
    _assert_valid_batch(cox, configs, PointConfiguration)
    post = sample_posterior_batch(configs[0], params, eps, 2,
                                  RngSeed(seed, 2))
    assert np.all(post.weight > 0) and np.all(np.isfinite(post.weight))
    _assert_valid_batch(post, post.to_measures(), AtomicMeasure)


def _invariant_rho(kind):
    if kind.startswith("box"):
        window = Window.box([(0.0, 1.0), (0.0, 2.0)], [2, 2])
        atoms = (((0.25, 1.5), 1.5), ((0.75, 0.5), 0.0))
    else:
        window = Window.discrete(["a", "b", "c"])
        atoms = (("b", 1.5), ("c", 0.0))
    masses = np.full(window.n_cells, 0.75)
    if kind.endswith("diffuse"):
        return ReferenceMeasure(window, masses)
    return ReferenceMeasure(window, masses, atoms)


def _invariant_mu(window):
    """Observed points on both atoms of ``_invariant_rho`` and off them."""
    if window.mode == "box":
        points = (((0.25, 1.5), 2), ((0.75, 0.5), 1), ((0.6, 0.3), 1))
    else:
        points = (("b", 2), ("c", 1), ("a", 1))
    return PointConfiguration(window, points)


_INVARIANT_ROUTES = {
    "poisson": lambda rho, rng: sample_poisson_batch(rho, 40, rng),
    "gamma": lambda rho, rng: sample_gamma_measure_batch(
        PolyaParams(0.6, rho), 1e-3, 40, rng),
    "posterior": lambda rho, rng: sample_posterior_batch(
        _invariant_mu(rho.window), PolyaParams(0.6, rho), 1e-3, 40, rng),
    "direct": lambda rho, rng: sample_polya_direct_batch(
        PolyaParams(0.6, rho), 40, rng),
    "cox": lambda rho, rng: sample_polya_cox_batch(
        PolyaParams(0.6, rho), 1e-3, 40, rng),
    "mixed-direct": lambda rho, rng: sample_mixed_batch(
        MixingMeasure(rho, ((0.6, 1.0, 0.7), (0.3, 2.0, 0.3))), "direct",
        1e-3, 40, rng)[0],
    "mixed-cox": lambda rho, rng: sample_mixed_batch(
        MixingMeasure(rho, ((0.6, 1.0, 0.7), (0.3, 2.0, 0.3))), "cox",
        1e-3, 40, rng)[0],
}


@pytest.mark.parametrize("kind", ["box-diffuse", "box-atoms",
                                  "sites-diffuse", "sites-atoms"])
@pytest.mark.parametrize("route", sorted(_INVARIANT_ROUTES))
def test_sampled_batch_holds_each_location_once(route, kind, monkeypatch):
    merged = []

    def counting_merge(batch, *keys):
        out = _merge(batch, *keys)
        merged.append(batch.rep.size - out.rep.size)
        return out

    monkeypatch.setattr(state_space, "_merge", counting_merge)
    rho = _invariant_rho(kind)
    batch = _INVARIANT_ROUTES[route](rho, RngSeed(31))
    f = TestFunction(rho.window, np.arange(1.0, rho.window.n_cells + 1))
    if isinstance(batch, AtomicBatch):
        # to_measures raises on a replica that repeats a location
        measures = batch.to_measures()
        assert np.array_equal(np.bincount(batch.rep, minlength=batch.n),
                              [len(m.atoms) for m in measures])
        assert np.array_equal(batch.masses(),
                              [m.total_mass for m in measures])
        objects = measures
    else:
        configs = batch.to_configurations()
        assert np.array_equal(batch.distinct_counts(),
                              [mu.n_distinct for mu in configs])
        assert np.array_equal(batch.counts(),
                              [mu.total_count for mu in configs])
        objects = configs
    assert np.array_equal(batch.zeta(f), [zeta(m, f) for m in objects])
    # on a box only draws on an atom can coincide, and the Poisson
    # sampler hits each atom at most once per replica
    can_repeat = kind.startswith("sites") or (
        kind == "box-atoms" and route != "poisson")
    assert (sum(merged) > 0) == can_repeat


class TestBlocks:
    """Batches the samplers write into preallocated columns, block by
    block, against the one-shot construction they replace."""

    def test_direct_batch_equals_one_shot_construction(self):
        rho = ReferenceMeasure(Window.box([(0.0, 1.0), (-1.0, 2.0)], [3, 5]),
                               np.linspace(0.05, 0.75, 15))
        ours, numpys = RngSeed(9).generator(), RngSeed(9).generator()
        batch = sample_polya_direct_batch(PolyaParams(0.7, rho), 8000, ours)
        lam = -math.log1p(-0.7) * rho.total_mass
        rep = np.repeat(np.arange(8000), numpys.poisson(lam, 8000))
        p = rho.cell_masses / rho.cell_masses.sum()
        cells = numpys.choice(p.size, rep.size, p=p)
        rows, cols = np.divmod(cells, 5)
        y = (cols + numpys.random(rep.size)) * (3.0 / 5) + -1.0
        x = (rows + numpys.random(rep.size)) * (1.0 / 3) + 0.0
        mult = numpys.logseries(0.7, rep.size)
        assert rep.size > 2 * 16384
        for got, want in ((batch.rep, rep), (batch.cell, cells),
                          (batch.mult, mult),
                          (batch.coords, np.column_stack([x, y]))):
            assert np.array_equal(got, want)
        assert ours.random() == numpys.random()

    def test_gamma_keeps_live_atoms_in_order(self):
        # at mass 1e-3 e1_inverse underflows to 0 for some arrivals;
        # the writer drops those rows before the locations are drawn
        rho = ReferenceMeasure.uniform(Window.interval(0.0, 1.0, 4), 1e-3)
        params, n, eps = PolyaParams(0.3, rho), 300, 1e-6
        ours, numpys = RngSeed(12).generator(), RngSeed(12).generator()
        batch = sample_gamma_measure_batch(params, eps, n, ours)
        m, a = rho.total_mass, params.a
        lam = m * samplers.e1(a * (-math.log1p(-eps * a / m) / a))
        n_jumps = numpys.poisson(lam, size=n)
        below = (1.0 - numpys.random(size=n_jumps.sum())) * lam
        last = e1_inverse((lam + numpys.exponential(size=n)) / m) / a
        rep = np.concatenate([np.repeat(np.arange(n), n_jumps),
                              np.arange(n), np.arange(n)])
        weight = np.concatenate([e1_inverse(below / m) / a, last,
                                 (m / a) * -np.expm1(-a * last)])
        live = weight > 0
        assert 0 < live.sum() < live.size
        cells, coords, _, _ = rho.sample_locations(live.sum(), numpys)
        for got, want in ((batch.rep, rep[live]), (batch.weight, weight[live]),
                          (batch.cell, cells), (batch.coords, coords)):
            assert np.array_equal(got, want)
        assert ours.random() == numpys.random()

    @pytest.mark.parametrize("capacity", [None, 1])
    @pytest.mark.parametrize("route", ["direct", "cox"])
    def test_mixed_batch_equals_concatenated_components(
            self, route, capacity, monkeypatch):
        # capacity 1: every component's records go past the columns, so
        # they grow while holding the earlier components' records
        grown = []
        if capacity is not None:
            writer = state_space._BatchWriter

            def small_writer(cls, window, n, _capacity=0):
                out = writer(cls, window, n, capacity)
                grown.append(out)
                return out
            monkeypatch.setattr(samplers, "_BatchWriter", small_writer)
        rho = _invariant_rho("box-atoms")
        mixing = MixingMeasure(rho, ((0.6, 1.0, 0.5), (0.3, 2.0, 0.2),
                                     (0.8, 0.5, 0.3)))
        ours, numpys = RngSeed(10).generator(), RngSeed(10).generator()
        batch, z_lat, w_lat = sample_mixed_batch(mixing, route, 1e-3, 6000,
                                                 ours)
        z_atom, w_atom, probs = np.array(mixing.atoms).T
        comp = numpys.choice(3, 6000, p=probs / probs.sum())
        parts = []
        for c, (z, w, _) in enumerate(mixing.atoms):
            members = np.flatnonzero(comp == c)
            sub = samplers._route_sampler(route)(
                PolyaParams(z, rho.scale(w)), 1e-3, members.size, numpys)
            parts.append((members[sub.rep], sub.cell, sub.mult, sub.coords))
        assert batch.rep.size > 16384
        for got, want in zip((batch.rep, batch.cell, batch.mult,
                              batch.coords), zip(*parts)):
            assert np.array_equal(got, np.concatenate(want))
        assert np.array_equal(z_lat, z_atom[comp])
        assert np.array_equal(w_lat, w_atom[comp])
        assert ours.random() == numpys.random()
        if capacity is not None:
            assert grown[0].batch().rep.size == batch.rep.size


@pytest.mark.parametrize("route", ["direct", "gamma", "poisson", "mixed"])
def test_poisson_rate_past_numpy_is_a_parameter_error(route):
    # numpy's Generator.poisson raises a bare "lam value too large";
    # the check comes before any draw
    rho = ReferenceMeasure.uniform(Window.interval(0.0, 1.0, 4), 1e20)
    draw = {
        "direct": lambda rng: sample_polya_direct_batch(
            PolyaParams(0.5, rho), 3, rng),
        "gamma": lambda rng: sample_gamma_measure_batch(
            PolyaParams(0.5, rho), 1e-6, 3, rng),
        "poisson": lambda rng: sample_poisson_batch(rho, 3, rng),
        "mixed": lambda rng: sample_mixed_batch(
            MixingMeasure(rho, ((0.5, 1.0, 1.0),)), "direct", 1e-6, 3, rng),
    }[route]
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError, match="Poisson rate .* past"):
        draw(rng)
    assert rng.bit_generator.state == state
    # below numpy's limit the rate passes (no replica draws a cluster)
    rho = ReferenceMeasure.uniform(Window.interval(0.0, 1.0, 4), 1e18)
    assert sample_polya_direct_batch(
        PolyaParams(0.5, rho), 0, rng).rep.size == 0


# a cluster rate -log(1-z) m of 0.9 times numpy's Poisson limit at z = 0.5
HUGE_MASS = 0.9 * samplers._POISSON_MAX / math.log(2.0)


@pytest.mark.parametrize("route, mass, n", [
    # numpy raised "array is too big" here
    ("direct", HUGE_MASS, 1),
    # and "Maximum allowed dimension exceeded" here
    ("mixed", HUGE_MASS, 3),
    ("mixed-cox", HUGE_MASS, 3),
    # just past the ceiling: 3 * log(2) * 6e8 expected clusters
    ("direct", 0.6 * samplers._MAX_RECORDS, 3),
    ("mixed", 0.6 * samplers._MAX_RECORDS, 3),
    ("poisson", 0.6 * samplers._MAX_RECORDS, 2),
    ("gamma", samplers._MAX_RECORDS, 1),
])
def test_records_past_the_ceiling_are_a_parameter_error(route, mass, n):
    # every rate here is below numpy's Poisson limit and past the
    # expected record count one call may hold, so nothing is allocated
    rho = ReferenceMeasure.uniform(Window.interval(0.0, 1.0, 4), mass)
    mixing = MixingMeasure(rho, ((0.5, 1.0, 1.0),))
    draw = {
        "direct": lambda rng: sample_polya_direct_batch(
            PolyaParams(0.5, rho), n, rng),
        "mixed": lambda rng: sample_mixed_batch(
            mixing, "direct", 1e-3, n, rng),
        "mixed-cox": lambda rng: sample_mixed_batch(
            mixing, "cox", 1e-3, n, rng),
        "poisson": lambda rng: sample_poisson_batch(rho, n, rng),
        "gamma": lambda rng: sample_gamma_measure_batch(
            PolyaParams(0.5, rho), 1e-3, n, rng),
    }[route]
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError,
                       match="records, past the ceiling") as err:
        draw(rng)
    assert rng.bit_generator.state == state
    msg = str(err.value)
    assert ("rho0" if route.startswith("mixed") else "of rho") in msg
    assert route == "poisson" or re.search(r"\bz\b", msg)


_EDGE_ROUTES = {
    "direct": lambda params, n, rng: sample_polya_direct_batch(
        params, n, rng),
    "cox": lambda params, n, rng: sample_polya_cox_batch(
        params, EPS, n, rng),
    "gamma": lambda params, n, rng: sample_gamma_measure_batch(
        params, EPS, n, rng),
    "posterior": lambda params, n, rng: sample_posterior_batch(
        PointConfiguration(params.window, (
            (params.window.sites[0] if params.window.sites else (0.3,), 2),)),
        params, EPS, n, rng),
    "mixed-direct": lambda params, n, rng: sample_mixed_batch(
        MixingMeasure(params.rho, ((params.z, 1.0, 1.0),)), "direct", EPS,
        n, rng)[0],
}


# a 4-cell box, where no record merges, and two windows where records
# merge: 4 sites, and a 4-cell box whose one atom holds half the mass
_EDGE_WINDOWS = {
    "box": lambda mass: ReferenceMeasure.uniform(
        Window.interval(0.0, 1.0, 4), mass),
    "sites": lambda mass: ReferenceMeasure.uniform(
        Window.discrete(["a", "b", "c", "d"]), mass),
    "box-atom": lambda mass: ReferenceMeasure(
        Window.interval(0.0, 1.0, 4), np.full(4, mass / 8),
        (((0.3,), mass / 2),)),
}


@pytest.mark.parametrize("window", sorted(_EDGE_WINDOWS))
@pytest.mark.parametrize("route", sorted(_EDGE_ROUTES))
@pytest.mark.parametrize("mass", [1e-300, 1e-6, 1e4])
@pytest.mark.parametrize("z", [1e-300, 1e-12, 0.5, 1.0 - 1e-12,
                               np.nextafter(1.0, 0.0)])
def test_edge_grid_gives_valid_batches_or_typed_errors(z, mass, route,
                                                       window):
    # at every admissible (z, mass) a route gives a valid batch or a
    # typed error, and no floating-point warning on the way; near z = 1
    # at mass 1e4 the counts of direct, Cox and mixed draws pass int64,
    # and on sites and at an atom so do the merged multiplicities
    params = PolyaParams(z, _EDGE_WINDOWS[window](mass))
    n = 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            batch = _EDGE_ROUTES[route](params, n, RngSeed(5))
            assert np.all((batch.rep >= 0) & (batch.rep < n))
            if window == "sites":
                assert np.array_equal(batch.coords, batch.cell)
                assert np.all((batch.cell >= 0) & (batch.cell < 4))
            else:
                assert np.all((batch.coords >= 0.0)
                              & (batch.coords <= 1.0))
            if isinstance(batch, AtomicBatch):
                assert np.all(np.isfinite(batch.weight))
                assert np.all(batch.weight > 0)
                return
            assert np.all(batch.mult >= 1)
            exact = [sum(batch.mult[batch.rep == i].tolist())
                     for i in range(n)]
            assert batch.counts().tolist() == exact
        except (ParameterError, state_space.InvalidMeasureError):
            pass


@pytest.mark.parametrize("atoms", [
    # NaN passes both p <= 0 and the sum-to-1 check
    ((0.5, 1.0, math.nan), (0.3, 1.0, 0.5)),
    ((0.5, math.nan, 1.0),),
    ((0.5, math.inf, 1.0),),
    ((0.5, 1.0, math.inf),),
    (("0.3", 1.0, 1.0),),
    ((0.3, True, 1.0),),
    ((0.3, 1.0, "1"),),
    (("0.3", True, 1),),
])
def test_mixing_atoms_are_numbers_in_range(rho_mass2, atoms):
    with pytest.raises(ValueError):
        MixingMeasure(rho_mass2, atoms)


def test_mixing_atoms_stored_as_floats(rho_mass2):
    mixing = MixingMeasure(rho_mass2, ((0, 1, 1),))
    assert mixing.atoms == ((0.0, 1.0, 1.0),)
    assert all(type(x) is float for x in mixing.atoms[0])


_N_RULE_RHO = _invariant_rho("box-atoms")
_N_RULE_MIXING = MixingMeasure(_N_RULE_RHO, ((0.6, 1.0, 0.7), (0.3, 2.0, 0.3)))
_N_RULE_ROUTES = {
    "poisson": lambda n, rng, eps: sample_poisson_batch(_N_RULE_RHO, n, rng),
    "gamma": lambda n, rng, eps: sample_gamma_measure_batch(
        PolyaParams(0.6, _N_RULE_RHO), eps, n, rng),
    "direct": lambda n, rng, eps: sample_polya_direct_batch(
        PolyaParams(0.6, _N_RULE_RHO), n, rng),
    "cox": lambda n, rng, eps: sample_polya_cox_batch(
        PolyaParams(0.6, _N_RULE_RHO), eps, n, rng),
    "posterior": lambda n, rng, eps: sample_posterior_batch(
        _invariant_mu(_N_RULE_RHO.window), PolyaParams(0.6, _N_RULE_RHO),
        eps, n, rng),
    "mixed-direct": lambda n, rng, eps: sample_mixed_batch(
        _N_RULE_MIXING, "direct", eps, n, rng),
    "mixed-cox": lambda n, rng, eps: sample_mixed_batch(
        _N_RULE_MIXING, "cox", eps, n, rng),
}


def _columns_of(draw):
    """The columns of a sampler's batch, and a mixture's latents."""
    batch, *latents = draw if isinstance(draw, tuple) else (draw,)
    return batch, [*state_space._columns(batch), *latents]


@pytest.mark.parametrize("n, error", [
    (-1, ParameterError), (2.5, state_space.InvalidMeasureError),
    (True, state_space.InvalidMeasureError),
    ("3", state_space.InvalidMeasureError)])
@pytest.mark.parametrize("route", sorted(_N_RULE_ROUTES))
def test_replica_count_follows_the_number_rule(route, n, error):
    # numpy used to take -1 and 2.5 as they were, or fail untyped
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(error, match="replica"):
        _N_RULE_ROUTES[route](n, rng, 1e-3)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n", [2.0, np.int64(2)],
                         ids=["float", "int64"])
@pytest.mark.parametrize("route", sorted(_N_RULE_ROUTES))
def test_integral_replica_counts_draw_as_ints(route, n):
    batch, got = _columns_of(_N_RULE_ROUTES[route](n, RngSeed(6), 1e-3))
    _, want = _columns_of(_N_RULE_ROUTES[route](2, RngSeed(6), 1e-3))
    assert type(batch.n) is int and batch.n == 2
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("route", ["gamma", "cox", "posterior"])
def test_truncation_threshold_follows_the_number_rule(route):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    for eps in ("1e-3", True, None):
        with pytest.raises(state_space.InvalidMeasureError, match="eps"):
            _N_RULE_ROUTES[route](2, rng, eps)
    assert rng.bit_generator.state == state


class _UnwalkableAtoms(tuple):
    def __iter__(self):
        raise AssertionError("the atom tuple was walked")


@pytest.mark.parametrize("rho", [
    _atom_heavy_rho(2), _invariant_rho("box-atoms"),
    _invariant_rho("sites-atoms")], ids=["atom-heavy", "box-atoms",
                                         "sites-atoms"])
def test_poisson_reads_the_atom_columns(rho):
    # the atoms were decoded into columns once, when rho was built
    want = sample_poisson_batch(rho, 40, RngSeed(8))
    object.__setattr__(rho, "atoms", _UnwalkableAtoms(rho.atoms))
    got = sample_poisson_batch(rho, 40, RngSeed(8))
    assert got.n == want.n
    for a, b in zip(state_space._columns(got), state_space._columns(want)):
        assert np.array_equal(a, b)


def _mixing_atoms(k):
    """k mixing atoms (z, w, p) of distinct z and w."""
    z = np.linspace(0.8, 0.1, k)
    w = np.linspace(2.0, 0.3, k)
    p = np.arange(1.0, k + 1)
    return tuple(zip(z.tolist(), w.tolist(), (p / p.sum()).tolist()))


_REDUCE_ROUTES = {
    **{route: _INVARIANT_ROUTES[route] for route in (
        "poisson", "gamma", "direct", "cox", "posterior")},
    **{f"mixed-{route}-{k}": (
        lambda rho, rng, route=route, k=k: sample_mixed_batch(
            MixingMeasure(rho, _mixing_atoms(k)), route, 1e-3, 300, rng)[0])
       for route in ("direct", "cox") for k in (1, 2, 40)},
}


def _as_configurations(batch):
    """``batch``, or an atomic batch's records as simple points."""
    if isinstance(batch, AtomicBatch):
        return state_space.ConfigurationBatch(
            batch.window, batch.n, batch.rep, batch.cell,
            np.ones_like(batch.rep), batch.coords)
    return batch


def _assert_reductions_equal_bincount(batch):
    want_counts = np.bincount(batch.rep, weights=batch.mult,
                              minlength=batch.n)
    want_distinct = np.bincount(batch.rep, minlength=batch.n)
    counts, distinct = batch.counts(), batch.distinct_counts()
    assert counts.dtype == distinct.dtype == np.int64
    assert counts.shape == distinct.shape == (batch.n,)
    assert np.array_equal(counts, want_counts)
    assert np.array_equal(distinct, want_distinct)


class TestReductions:
    """counts and distinct_counts reduce runs of records that share a
    replica; every route and every record order gives bincount's sums."""

    @pytest.mark.parametrize("kind", ["box-atoms", "sites-atoms"])
    @pytest.mark.parametrize("route", sorted(_REDUCE_ROUTES))
    def test_counts_equal_bincount_on_every_route(self, route, kind):
        batch = _as_configurations(
            _REDUCE_ROUTES[route](_invariant_rho(kind), RngSeed(23)))
        assert batch.rep.size > batch.n
        _assert_reductions_equal_bincount(batch)

    @pytest.mark.parametrize("case", ["random-order", "empty-replicas",
                                      "no-replicas", "one-record"])
    def test_counts_equal_bincount_on_hand_built_batches(self, case):
        window = Window.interval(0.0, 1.0, 4)
        rng = np.random.default_rng(3)
        n, rep = {
            "random-order": (50, rng.integers(0, 50, 5000)),
            # replicas 0, 2, 3, 6, 7 and 8 hold nothing
            "empty-replicas": (9, np.sort(rng.choice([1, 4, 5], 40))),
            "no-replicas": (0, np.zeros(0, dtype=np.int64)),
            "one-record": (3, np.array([2]))}[case]
        size = rep.size
        coords = rng.random((size, 1))
        batch = state_space.ConfigurationBatch(
            window, n, rep, window.cells_of(coords),
            rng.integers(1, 10**6, size), coords)
        _assert_reductions_equal_bincount(batch)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(
            st.integers(0, max(n - 1, 0)), st.integers(1, 2**62)),
            max_size=30 if n else 0))))
    def test_counts_are_exact_sums(self, case):
        # large multiplicities take the exact loop, and its typed error
        # past int64; the rest the int64 runs
        n, records = case
        window = Window.interval(0.0, 1.0, 4)
        rep = np.array([r for r, _ in records], dtype=np.int64)
        mult = np.array([m for _, m in records], dtype=np.int64)
        batch = state_space.ConfigurationBatch(
            window, n, rep, np.zeros(rep.size, dtype=np.int64), mult,
            np.zeros((rep.size, 1)))
        want = [sum(m for r, m in records if r == i) for i in range(n)]
        assert batch.distinct_counts().tolist() == [
            sum(r == i for r, _ in records) for i in range(n)]
        if max(want, default=0) >= 2**63:
            with pytest.raises(state_space.InvalidMeasureError,
                               match="past int64"):
                batch.counts()
        else:
            assert batch.counts().tolist() == want


def _buffer(column):
    """The array that owns a column's memory."""
    while column.base is not None:
        column = column.base
    return column


def _assert_one_buffer(batch):
    columns = state_space._columns(batch)
    owner = _buffer(columns[0])
    assert all(_buffer(col) is owner for col in columns)
    value_dtype = np.int64 if isinstance(
        batch, state_space.ConfigurationBatch) else np.float64
    coords_dtype = np.int64 if batch.window.mode == "sites" else np.float64
    assert [col.dtype for col in columns] == [
        np.int64, np.int64, value_dtype, coords_dtype]
    assert all(col.flags.c_contiguous and col.flags.writeable
               for col in columns)


class TestOneBuffer:
    """The batch writer keeps a batch's four columns in one buffer."""

    @pytest.mark.parametrize("kind", ["box-atoms", "sites-atoms"])
    @pytest.mark.parametrize("route", ["poisson", "gamma", "direct",
                                       "posterior", "mixed-direct",
                                       "mixed-cox"])
    def test_written_batch_is_one_buffer(self, route, kind):
        _assert_one_buffer(_INVARIANT_ROUTES[route](_invariant_rho(kind),
                                                    RngSeed(24)))

    @pytest.mark.parametrize("cls", [state_space.ConfigurationBatch,
                                     AtomicBatch])
    @pytest.mark.parametrize("window", [
        Window.box([(0.0, 1.0), (0.0, 2.0), (-1.0, 1.0)], [1, 2, 3]),
        Window.discrete(["a", "b", "c"])], ids=["box-3d", "sites"])
    def test_columns_hold_after_growing(self, cls, window):
        # capacity 1: every put past it grows the buffer, which must
        # keep the rows written so far and stay one buffer
        out = state_space._BatchWriter(cls, window, 4, 1)
        rng = np.random.default_rng(5)
        parts = []
        for k in (1, 3, 0, 17, 2):
            value = (rng.random(k) if cls is AtomicBatch
                     else rng.integers(1, 99, k))
            coords = (rng.integers(0, 3, k) if window.mode == "sites"
                      else rng.random((k, 3)))
            part = (rng.integers(0, 4, k), rng.integers(0, 6, k), value,
                    coords)
            out.put(*part)
            parts.append(part)
        batch = out.batch()
        _assert_one_buffer(batch)
        for got, want in zip(state_space._columns(batch), zip(*parts)):
            assert np.array_equal(got, np.concatenate(want))
