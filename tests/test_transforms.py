"""Closed-form transforms: worked values, identities, and cross-checks.

The derived expectations here were computed by hand from the closed
forms (single-cell evaluations reduce to scalar arithmetic) and are
frozen; Monte Carlo agreement is exercised separately in the sampler
and harness tests.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyasum import (ConfigurationBatch, InvalidMeasureError, PolyaParams,
                      ReferenceMeasure, TestFunction, Window, joint_laplace,
                      laplace_gp, laplace_polya, logseries_mean,
                      logseries_pmf, nb_pmf, nb_pmf_table,
                      polya_campbell_exact)
from polyasum.state_space import _tile
from polyasum.transforms import ParameterError
from polyasum.verify import _mean_se

INF = float("inf")


def single_cell(mass):
    w = Window.interval(0.0, 1.0, 1)
    return w, ReferenceMeasure.uniform(w, mass)


class TestLaplaceGP:
    def test_zero_function_gives_one(self, window4, rho_mass2):
        f = TestFunction.constant(window4, 0.0)
        assert laplace_gp(f, 0.5, rho_mass2).value == 1.0

    def test_unit_mass_unit_function(self):
        w, rho = single_cell(1.0)
        assert laplace_gp(TestFunction.constant(w, 1.0), 0.5, rho).value \
            == pytest.approx(0.5, rel=1e-14)

    def test_exponent_scales_with_mass(self):
        w, rho = single_cell(2.0)
        assert laplace_gp(TestFunction.constant(w, 1.0), 0.5, rho).value \
            == pytest.approx(0.25, rel=1e-14)

    def test_parameter_validation(self, window4, rho_mass2):
        f = TestFunction.constant(window4, 1.0)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                laplace_gp(f, bad, rho_mass2)

    def test_monotone_in_h_z_and_mass(self):
        w, rho = single_cell(1.5)
        f1 = TestFunction.constant(w, 0.5)
        f2 = TestFunction.constant(w, 0.9)
        assert laplace_gp(f2, 0.5, rho).value < laplace_gp(f1, 0.5, rho).value
        assert laplace_gp(f1, 0.7, rho).value < laplace_gp(f1, 0.5, rho).value
        _, heavier = single_cell(2.5)
        assert laplace_gp(f1, 0.5, heavier).value \
            < laplace_gp(f1, 0.5, rho).value


class TestLaplacePolya:
    def test_zero_function_gives_one(self, window4, rho_mass2):
        g = TestFunction.constant(window4, 0.0)
        assert laplace_polya(g, 0.5, rho_mass2).value == 1.0

    def test_z_zero_is_empty_process(self, window4, rho_mass2):
        g = TestFunction(window4, np.array([3.0, INF, 0.1, 7.0]))
        assert laplace_polya(g, 0.0, rho_mass2).value == 1.0

    def test_void_probability(self):
        w, rho = single_cell(1.0)
        g = TestFunction.constant(w, INF)
        assert laplace_polya(g, 0.5, rho).value == pytest.approx(0.5, rel=1e-14)

    def test_rejects_z_one(self, window4, rho_mass2):
        with pytest.raises(ParameterError):
            laplace_polya(TestFunction.constant(window4, 1.0), 1.0, rho_mass2)


class TestJointLaplace:
    def test_marginal_consistency_g_zero(self, window4, rho_mass2):
        rng = np.random.default_rng(5)
        h = TestFunction(window4, rng.uniform(0, 2, 4))
        zero = TestFunction.constant(window4, 0.0)
        assert joint_laplace(zero, h, 0.4, rho_mass2).value \
            == pytest.approx(laplace_gp(h, 0.4, rho_mass2).value, rel=1e-14)

    def test_marginal_consistency_h_zero(self, window4, rho_mass2):
        rng = np.random.default_rng(6)
        g = TestFunction(window4, rng.uniform(0, 2, 4))
        zero = TestFunction.constant(window4, 0.0)
        assert joint_laplace(g, zero, 0.4, rho_mass2).value \
            == pytest.approx(laplace_polya(g, 0.4, rho_mass2).value, rel=1e-14)

    def test_void_and_unit_observation(self):
        w, rho = single_cell(1.0)
        g = TestFunction.constant(w, INF)
        h = TestFunction.constant(w, 1.0)
        assert joint_laplace(g, h, 0.5, rho).value \
            == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_matches_gamma_transform_at_effective_argument(self):
        # the central identity: the joint transform is the Gamma
        # measure's transform at 1 - e^-g + h
        rng = np.random.default_rng(123)
        for _ in range(200):
            n_cells = int(rng.integers(1, 9))
            w = Window.interval(0.0, 1.0, n_cells)
            rho = ReferenceMeasure(w, rng.uniform(0.0, 3.0, n_cells))
            z = float(rng.uniform(0.05, 0.95))
            g = TestFunction(w, rng.uniform(0.0, 4.0, n_cells))
            h = TestFunction(w, rng.uniform(0.0, 4.0, n_cells))
            joint = joint_laplace(g, h, z, rho)
            eff = TestFunction(w, -np.expm1(-g.values) + h.values)
            via_gp = laplace_gp(eff, z, rho)
            assert abs(via_gp.log_value - joint.log_value) \
                <= 1e-12 * max(1.0, abs(joint.log_value))

    def test_factorizes_over_reference_measures(self):
        rng = np.random.default_rng(321)
        w = Window.interval(0.0, 1.0, 6)
        for _ in range(50):
            m1 = rng.uniform(0, 2, 6)
            m2 = rng.uniform(0, 2, 6)
            rho1 = ReferenceMeasure(w, m1)
            rho2 = ReferenceMeasure(w, m2, (((0.25,), 0.7),))
            total = ReferenceMeasure(w, m1 + m2, (((0.25,), 0.7),))
            z = float(rng.uniform(0.1, 0.9))
            g = TestFunction(w, rng.uniform(0, 3, 6))
            h = TestFunction(w, rng.uniform(0, 3, 6))
            lhs = joint_laplace(g, h, z, total).log_value
            rhs = joint_laplace(g, h, z, rho1).log_value \
                + joint_laplace(g, h, z, rho2).log_value
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestCountLaws:
    def test_nb_void_matches_laplace_limit(self):
        assert nb_pmf(0, 1.0, 0.5) == pytest.approx(0.5, rel=1e-14)

    def test_nb_geometric_case(self):
        assert nb_pmf(1, 1.0, 0.5) == pytest.approx(0.25, rel=1e-14)
        for k in range(6):
            assert nb_pmf(k, 1.0, 0.5) == pytest.approx(
                0.5 * 0.5**k, rel=1e-13)

    def test_nb_normalization(self):
        total = sum(nb_pmf(k, 2.0, 0.5) for k in range(201))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_nb_table_matches_pmf_and_is_normalized(self):
        table = nb_pmf_table(2.0, 0.5)
        for k in (0, 1, 5, 20):
            assert table[k] == pytest.approx(nb_pmf(k, 2.0, 0.5), rel=1e-12)
        assert table.sum() == pytest.approx(1.0, abs=1e-12)

    def test_nb_generating_function_identity(self):
        # the count law on a region B of mass m is the one implied by
        # the process transform at t * 1_B
        w = Window.interval(0.0, 1.0, 2)
        rho = ReferenceMeasure(w, np.array([1.25, 0.75]))
        m, z = 1.25, 0.6
        table = nb_pmf_table(m, z, tol=1e-18)
        ks = np.arange(len(table))
        for t in np.linspace(0.0, 5.0, 20):
            g = TestFunction(w, np.array([t, 0.0]))
            lhs = laplace_polya(g, z, rho).value
            rhs = float(np.dot(table, np.exp(-t * ks)))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_logseries_examples(self):
        assert logseries_pmf(1, 0.5) == pytest.approx(
            0.5 / math.log(2.0), rel=1e-13)
        with pytest.raises(ParameterError):
            logseries_pmf(0, 0.5)

    def test_logseries_normalization(self):
        total = sum(logseries_pmf(k, 0.5) for k in range(1, 201))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_logseries_mean_balances_cluster_rate(self):
        # Poisson(-log(1-z) m) clusters times the mean multiplicity
        # must reproduce the negative binomial mean m z/(1-z)
        for z in (0.3, 0.5, 0.8):
            m = 2.0
            clusters = -math.log1p(-z) * m
            assert clusters * logseries_mean(z) == pytest.approx(
                m * z / (1 - z), rel=1e-12)
        assert logseries_mean(0.5) == pytest.approx(1.442695, abs=1e-6)


class TestCampbellExact:
    def test_mean_count(self):
        w, rho = single_cell(2.0)
        f = TestFunction.constant(w, 1.0)
        g = TestFunction.constant(w, 0.0)
        assert polya_campbell_exact(f, g, 0.5, rho) == pytest.approx(2.0)

    def test_zero_f(self, window4, rho_mass2):
        f = TestFunction.constant(window4, 0.0)
        g = TestFunction.constant(window4, 0.7)
        assert polya_campbell_exact(f, g, 0.5, rho_mass2) == 0.0

    def test_damped_case(self):
        w, rho = single_cell(1.0)
        f = TestFunction.constant(w, 1.0)
        g = TestFunction.constant(w, math.log(2.0))
        assert polya_campbell_exact(f, g, 0.5, rho) == pytest.approx(
            2.0 / 9.0, rel=1e-13)

    def test_matches_derivative_of_laplace(self):
        # independent oracle: C(f x e^-zeta_g) = -d/dt L(g + t f)|_0,
        # approximated by a central difference
        rng = np.random.default_rng(77)
        w = Window.interval(0.0, 1.0, 5)
        for _ in range(25):
            rho = ReferenceMeasure(w, rng.uniform(0.0, 2.0, 5))
            z = float(rng.uniform(0.1, 0.85))
            f = TestFunction(w, rng.uniform(0.0, 2.0, 5))
            g = TestFunction(w, rng.uniform(0.0, 2.0, 5))
            t = 1e-6
            up = laplace_polya(TestFunction(w, g.values + t * f.values),
                               z, rho).value
            dn = laplace_polya(TestFunction(w, g.values - t * f.values),
                               z, rho).value
            fd = -(up - dn) / (2.0 * t)
            assert polya_campbell_exact(f, g, z, rho) == pytest.approx(
                fd, rel=1e-7)


class TestEmpiricalLaplace:
    """The mean and standard error of e^-zeta_f over a batch."""

    @staticmethod
    def _repeated(window, points, n, f):
        batch = ConfigurationBatch(window, n, *_tile(window, points, n))
        return _mean_se(np.exp(-batch.zeta(f)))

    def test_empty_samples(self, window4):
        est, se = self._repeated(window4, (), 10,
                                 TestFunction.constant(window4, 2.0))
        assert est == 1.0 and se == 0.0

    def test_repeated_sample_has_zero_stderr(self, window4):
        est, se = self._repeated(window4, (((0.2,), 2),), 3,
                                 TestFunction.constant(window4, 1.0))
        assert est == pytest.approx(math.exp(-2.0))
        assert se == 0.0

    def test_needs_two_samples(self):
        for values in ([], [1.0]):
            with pytest.raises(ValueError):
                _mean_se(values)


@given(z=st.floats(min_value=0.01, max_value=0.99),
       m=st.floats(min_value=0.1, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_nb_table_always_normalizes(z, m):
    assert nb_pmf_table(m, z).sum() == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("m,z", [(800.0, 0.9), (5000.0, 0.5), (5e4, 0.9)])
def test_nb_table_at_large_mass(m, z):
    # the k = 0 seed (1-z)^m underflowed to an all-zero table for the
    # first two, and the third ran into a hard cap of 1e5 terms
    mpmath = pytest.importorskip("mpmath")
    table = nb_pmf_table(m, z)
    assert table.sum() == pytest.approx(1.0, abs=1e-11)
    pmf = np.array([nb_pmf(k, m, z) for k in range(table.size)])
    live = np.flatnonzero(pmf > 1e-300)
    assert live.size and live[-1] == table.size - 1
    # nb_pmf's log-gamma differences lose ~ulp(lgamma(m + k)), 2e-9
    # relative at m = 5e4, so it is matched at that level; 50-digit
    # mpmath is the 1e-12 reference
    assert np.allclose(table[live], pmf[live], rtol=5e-9, atol=0.0)
    with mpmath.workdps(50):
        for k in np.unique(np.concatenate([live[::live.size // 40],
                                           live[[0, -1]]])):
            k = int(k)
            exact = mpmath.exp(
                mpmath.loggamma(mpmath.mpf(m) + k) - mpmath.loggamma(m)
                - mpmath.loggamma(k + 1) + m * mpmath.log1p(-z)
                + k * mpmath.log(z))
            assert table[k] == pytest.approx(float(exact), rel=1e-12)


class TestNumberRule:
    """Process parameters are numbers: strings and bools are refused,
    not cast, and a count is an integer (2.0 counts as 2)."""

    @pytest.mark.parametrize("z", ["0.5", True])
    def test_z_is_a_number(self, z):
        _, rho = single_cell(1.0)
        with pytest.raises(InvalidMeasureError):
            PolyaParams(z, rho)
        with pytest.raises(InvalidMeasureError):
            logseries_mean(z)

    @pytest.mark.parametrize("k, m", [(2.7, 1.0), (True, 1.0), ("2", 1.0),
                                      (1, math.nan), (1, INF), (1, "1.0"),
                                      (-1, 1.0)])
    def test_nb_pmf_refuses(self, k, m):
        with pytest.raises(ValueError):
            nb_pmf(k, m, 0.5)

    @pytest.mark.parametrize("m, error", [("3", InvalidMeasureError),
                                          (INF, ParameterError),
                                          (math.nan, ParameterError)])
    def test_nb_pmf_table_refuses_m(self, m, error):
        # checked before the mode m z/(1-z) is computed from it
        with pytest.raises(error, match="'3'|m must be finite"):
            nb_pmf_table(m, 0.5)

    @pytest.mark.parametrize("tol", [0.0, -1e-15, math.nan])
    def test_nb_pmf_table_refuses_tol(self, tol):
        # the table's loop ends only for tol > 0
        with pytest.raises(ParameterError, match="tol must be > 0"):
            nb_pmf_table(2.0, 0.5, tol=tol)

    @pytest.mark.parametrize("k", [2.7, True, "2"])
    def test_logseries_pmf_refuses(self, k):
        with pytest.raises(ValueError):
            logseries_pmf(k, 0.5)

    def test_integral_float_counts(self):
        assert nb_pmf(2.0, 1.5, 0.5) == nb_pmf(2, 1.5, 0.5)
        assert nb_pmf(np.int64(2), 1.5, 0.5) == nb_pmf(2, 1.5, 0.5)
        assert logseries_pmf(2.0, 0.5) == logseries_pmf(2, 0.5)
