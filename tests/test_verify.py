"""The verification harness: validity on true identities, power on
corrupted ones."""

import math
from unittest import mock

import numpy as np
import pytest

from polyasum import (InvalidMeasureError, MixingMeasure, ParameterError,
                      PolyaParams, ReferenceMeasure, RngSeed, TestFunction,
                      Window, check_conjugacy, check_transform_identity,
                      check_mecke, check_mixed_ibp, check_polya_ibp,
                      laplace_polya, sample_mixed_batch,
                      sample_polya_cox_batch, sample_polya_direct_batch)
from polyasum.state_space import (ConfigurationBatch, _integrate_cellwise,
                                  _tile)
from polyasum.verify import EPS_ALLOWANCE, _campbell_sides, _mean_se

INF = float("inf")
EPS = 1e-6


def campbell_mean_se(batch, f, g):
    """Mean and standard error of zeta_f e^-zeta_g over ``batch``."""
    rho = ReferenceMeasure.uniform(batch.window, 1.0)
    return _mean_se(_campbell_sides(batch, rho, f, g)[1])


class TestCampbellEstimate:
    def test_zero_f(self, window4):
        batch = ConfigurationBatch(window4, 5,
                                   *_tile(window4, (((0.2,), 2),), 5))
        est, se = campbell_mean_se(batch,
                                   TestFunction.constant(window4, 0.0),
                                   TestFunction.constant(window4, 1.0))
        assert est == 0.0 and se == 0.0

    def test_g_zero_reduces_to_mean_count(self, window4, rho_mass2):
        batch = sample_polya_direct_batch(PolyaParams(0.5, rho_mass2), 500,
                                          RngSeed(1))
        est, se = campbell_mean_se(batch,
                                   TestFunction.constant(window4, 1.0),
                                   TestFunction.constant(window4, 0.0))
        assert est == pytest.approx(batch.counts().mean())

    def test_against_exact_campbell(self, window4):
        rho = ReferenceMeasure.uniform(window4, 1.0)
        batch = sample_polya_direct_batch(PolyaParams(0.5, rho), 20_000,
                                          RngSeed(2))
        est, se = campbell_mean_se(
            batch, TestFunction.constant(window4, 1.0),
            TestFunction.constant(window4, math.log(2.0)))
        assert abs(est - 2.0 / 9.0) < 3 * se


class TestMecke:
    def test_zero_f_degenerate_pass(self, window4, rho_mass2):
        report = check_mecke(rho_mass2, TestFunction.constant(window4, 0.0),
                             TestFunction.constant(window4, 0.5), 200,
                             RngSeed(3))
        assert report.passed
        assert report.lhs == 0.0 and report.rhs == 0.0

    def test_mean_count_identity(self, window4, rho_mass2):
        report = check_mecke(rho_mass2, TestFunction.constant(window4, 1.0),
                             TestFunction.constant(window4, 0.0), 100_000,
                             RngSeed(4))
        assert report.passed
        assert report.exact == pytest.approx(2.0)
        assert abs(report.lhs - 2.0) < 3 * report.lhs_stderr

    def test_annihilating_g(self, window4, rho_mass2):
        report = check_mecke(rho_mass2, TestFunction.constant(window4, 1.0),
                             TestFunction.constant(window4, INF), 500,
                             RngSeed(5))
        assert report.passed
        assert report.lhs == 0.0 and report.rhs == 0.0 and report.exact == 0.0

    def test_requires_enough_replicas(self, window4, rho_mass2, ones, zeros):
        with pytest.raises(ValueError):
            check_mecke(rho_mass2, ones, zeros, 10, RngSeed(0))


class TestPolyaIBP:
    def test_z_zero_all_sides_vanish(self, window4, rho_mass2, ones, zeros):
        report = check_polya_ibp(PolyaParams(0.0, rho_mass2), "direct",
                                 ones, zeros, 200, RngSeed(6))
        assert report.passed
        assert report.lhs == report.rhs == report.exact == 0.0

    def test_mean_count_case(self, window4, rho_mass2, ones, zeros):
        report = check_polya_ibp(PolyaParams(0.5, rho_mass2), "direct",
                                 ones, zeros, 20_000, RngSeed(7))
        assert report.passed
        assert report.exact == pytest.approx(2.0)

    def test_damped_case_both_routes(self, window4, ones):
        rho1 = ReferenceMeasure.uniform(window4, 1.0)
        g = TestFunction.constant(window4, math.log(2.0))
        for route in ("direct", "cox"):
            report = check_polya_ibp(PolyaParams(0.5, rho1), route, ones, g,
                                     100_000, RngSeed(8), eps=EPS)
            assert report.passed, report.summary_line()
            assert report.exact == pytest.approx(2.0 / 9.0)

    def test_corrupted_kernel_fails_loudly(self, window4, rho_mass2, ones,
                                           zeros):
        report = check_polya_ibp(PolyaParams(0.5, rho_mass2), "direct",
                                 ones, zeros, 20_000, RngSeed(9),
                                 kernel_z_factor=0.5)
        assert not report.passed
        assert abs(report.z_score) > 5.0


class TestConjugacy:
    def test_zero_functions_give_one(self, window4, rho_mass2, zeros):
        report = check_conjugacy(PolyaParams(0.5, rho_mass2), zeros, zeros,
                                 EPS, 200, RngSeed(10))
        assert report.passed
        assert report.lhs == report.rhs == report.exact == 1.0

    def test_void_observation_case(self, window4):
        rho1 = ReferenceMeasure.uniform(window4, 1.0)
        g = TestFunction.constant(window4, INF)
        h = TestFunction.constant(window4, 1.0)
        report = check_conjugacy(PolyaParams(0.5, rho1), g, h, EPS, 20_000,
                                 RngSeed(11))
        assert report.passed
        assert report.exact == pytest.approx(1.0 / 3.0)

    def test_h_zero_reduces_to_process_transform(self, window4, rho_mass2,
                                                 zeros):
        from polyasum import laplace_polya
        g = TestFunction(window4, np.array([0.4, 0.8, 0.0, 1.5]))
        report = check_conjugacy(PolyaParams(0.5, rho_mass2), g, zeros, EPS,
                                 20_000, RngSeed(12))
        assert report.passed
        assert report.exact == pytest.approx(
            laplace_polya(g, 0.5, rho_mass2).value)


class TestMixedIBP:
    @pytest.fixture
    def mixing(self):
        w = Window.interval(0.0, 1.0, 4)
        rho0 = ReferenceMeasure.uniform(w, 300.0)
        return MixingMeasure(rho0, ((0.3, 1.0, 0.5), (0.7, 1.0, 0.5)))

    def test_plug_in_kernel_passes(self, mixing):
        w = mixing.window
        report = check_mixed_ibp(mixing, TestFunction.constant(w, 1.0),
                                 TestFunction.constant(w, 0.0), 2000,
                                 RngSeed(13))
        assert report.passed, report.summary_line()
        assert report.details["solver_failure_fraction"] == 0.0
        assert len(report.details["branches"]) == 2

    def test_plug_in_kernel_is_pointwise_exact_for_counts(self, mixing):
        # with f = 1 and g = 0 the density equations make the plug-in
        # side reproduce the count identically, replica by replica
        w = mixing.window
        report = check_mixed_ibp(mixing, TestFunction.constant(w, 1.0),
                                 TestFunction.constant(w, 0.0), 500,
                                 RngSeed(14))
        assert report.lhs == pytest.approx(report.rhs, rel=1e-12)

    def test_fixed_global_kernel_fails(self, mixing):
        # the mixture mean (z, w) is not an admissible kernel: the
        # coefficients must be measurable with respect to the sample
        w = mixing.window
        report = check_mixed_ibp(mixing, TestFunction.constant(w, 1.0),
                                 TestFunction.constant(w, 0.0), 2000,
                                 RngSeed(15), fixed_zw=(0.5, 1.0))
        assert not report.passed
        assert abs(report.z_score) > 5.0

    @pytest.mark.parametrize("fixed_zw, error", [
        (("0.5", True), InvalidMeasureError),
        ((0.5, True), InvalidMeasureError),
        ((math.nan, 1.0), ParameterError),
        ((0.5, math.nan), ParameterError),
        ((1.0, 1.0), ParameterError),
        ((0.5, -1.0), ParameterError)])
    def test_fixed_pair_checked_before_any_draw(self, mixing, fixed_zw,
                                                error):
        # the rules of a mixing atom's (z, w); NaN would reach the report
        rng = np.random.default_rng(15)
        state = rng.bit_generator.state
        w = mixing.window
        with pytest.raises(error):
            check_mixed_ibp(mixing, TestFunction.constant(w, 1.0),
                            TestFunction.constant(w, 0.0), 2000, rng,
                            fixed_zw=fixed_zw)
        assert rng.bit_generator.state == state

    def test_degenerate_mixture_matches_single_branch(self, window4):
        rho0 = ReferenceMeasure.uniform(window4, 300.0)
        mixing = MixingMeasure(rho0, ((0.5, 1.0, 1.0),))
        report = check_mixed_ibp(mixing,
                                 TestFunction.constant(window4, 1.0),
                                 TestFunction.constant(window4, 0.0), 1000,
                                 RngSeed(16))
        assert report.passed
        assert len(report.details["branches"]) == 1

    def test_zero_atom_only(self, window4, rho_mass2):
        mixing = MixingMeasure(rho_mass2, ((0.0, 0.0, 1.0),))
        report = check_mixed_ibp(mixing,
                                 TestFunction.constant(window4, 1.0),
                                 TestFunction.constant(window4, 0.0), 500,
                                 RngSeed(17))
        assert report.passed
        assert report.lhs == 0.0 and report.rhs == 0.0


class TestTransformIdentity:
    def test_closed_forms_agree(self):
        report = check_transform_identity(200, RngSeed(18))
        assert report.passed
        assert report.lhs < 1e-12 and report.rhs < 1e-12

    @pytest.mark.parametrize("n_tuples", [0, -3])
    def test_needs_one_tuple(self, n_tuples):
        with pytest.raises(ValueError, match="n_tuples"):
            check_transform_identity(n_tuples, RngSeed(18))


class TestCalibration:
    def test_pass_rate_across_seeds(self, window4, rho_mass2):
        # a true identity must pass at the 3-sigma level in at least
        # 19 of 20 independent replications
        g = TestFunction(window4, np.array([0.2, 0.6, 0.0, 1.0]))
        f = TestFunction.constant(window4, 1.0)
        params = PolyaParams(0.5, rho_mass2)
        passes = sum(
            check_polya_ibp(params, "direct", f, g, 2000,
                            RngSeed(seed)).passed
            for seed in range(20))
        assert passes >= 19

    @pytest.mark.parametrize("eps", [0.1, 0.03, 0.01])
    def test_cox_truncation_bias_within_allowance(self, window4, eps):
        # the measurement behind EPS_ALLOWANCE: the Cox-route bias of
        # E[e^-zeta_g] against the exact transform, at a small mass and
        # a large g, where truncation matters most; n = 20000 keeps the
        # standard error below eps / 3
        rho = ReferenceMeasure.uniform(window4, 0.5)
        g = TestFunction.constant(window4, 3.0)
        batch = sample_polya_cox_batch(PolyaParams(0.5, rho), eps, 20_000,
                                       RngSeed(23))
        mean, se = _mean_se(np.exp(-batch.zeta(g)))
        assert se <= eps / 3
        bias = mean - laplace_polya(g, 0.5, rho).value
        assert abs(bias) <= EPS_ALLOWANCE * eps + 3 * se


class TestReportShape:
    def test_fields_and_serialization(self, window4, rho_mass2, ones, zeros):
        report = check_polya_ibp(PolyaParams(0.5, rho_mass2), "direct",
                                 ones, zeros, 500, RngSeed(19))
        doc = report.to_dict()
        assert "runtime" not in doc
        assert doc["name"] == "polya-ibp"
        assert report.runtime > 0
        assert report.lhs_stderr > 0  # non-degenerate statistic
        with_runtime = report.to_dict(include_runtime=True)
        assert "runtime" in with_runtime
        assert "PASS" in report.summary_line() or \
            "FAIL" in report.summary_line()


def test_bad_route_rejected_before_any_draw(window4, rho_mass2, ones, zeros):
    # the only atom (0, 0) skips every component, so only the route
    # check stands between sample_mixed_batch and its draws
    mixing = MixingMeasure(rho_mass2, ((0.0, 0.0, 1.0),))
    rng = np.random.default_rng(18)
    state = rng.bit_generator.state
    for call in (
            lambda: check_polya_ibp(PolyaParams(0.5, rho_mass2), "gamma",
                                    ones, zeros, 100, rng),
            lambda: check_mixed_ibp(mixing, ones, zeros, 100, rng,
                                    route="gamma"),
            lambda: sample_mixed_batch(mixing, "gamma", EPS, 100, rng)):
        with pytest.raises(ParameterError, match="route"):
            call()
        assert rng.bit_generator.state == state


def three_pass_sides(batch, rho, f, g):
    """``_campbell_sides`` as three zeta passes, one per function."""
    weight = np.exp(-batch.zeta(g))
    lhs = batch.zeta(f) * weight
    decay = np.exp(-g.values)
    fe_g = np.where(decay > 0, f.values * decay, 0.0)
    return (weight, lhs, _integrate_cellwise(rho, fe_g),
            batch.zeta(TestFunction(rho.window, fe_g)))


@pytest.mark.parametrize("f, g, passes", [
    ((1.0, 0.2, 2.0, 0.7), (0.0, 0.0, 0.0, 0.0), 1),
    ((1.0, -0.0, INF, 0.0), (-0.0, 0.0, -0.0, 0.0), 1),
    # f e^-g has f's bits where f vanishes on g's support
    ((1.0, 0.0, 2.0, 0.0), (0.0, 3.0, 0.0, INF), 2),
    ((1.0, 0.2, 2.0, 0.7), (0.5, 0.0, INF, 1.0), 3),
    ((-0.0, 0.2, 2.0, 0.7), (INF, 0.0, 0.0, 0.0), 3),
])
def test_campbell_sides_integrate_each_function_once(window4, f, g, passes):
    rho = ReferenceMeasure.uniform(window4, 2.0)
    f, g = TestFunction(window4, f), TestFunction(window4, g)
    batch = sample_polya_direct_batch(PolyaParams(0.5, rho), 300,
                                      RngSeed(4))
    calls = []
    zeta = ConfigurationBatch.zeta

    def counted(self, h):
        calls.append(h)
        return zeta(self, h)
    with mock.patch.object(ConfigurationBatch, "zeta", counted):
        got = _campbell_sides(batch, rho, f, g)
    assert len(calls) == passes
    want = three_pass_sides(batch, rho, f, g)
    assert [np.asarray(v).tobytes() for v in got] == [
        np.asarray(v).tobytes() for v in want]


@pytest.fixture
def mixing_half(rho_mass2):
    return MixingMeasure(rho_mass2, ((0.5, 1.0, 1.0),))


@pytest.mark.parametrize("case, error", [
    ("mixed-direct-eps", InvalidMeasureError),
    ("mixed-direct-negative-eps", ParameterError),
    ("mixed-cox-eps", InvalidMeasureError),
    ("mixed-cox-negative-eps", ParameterError),
    ("mixed-ibp-direct-eps", InvalidMeasureError),
    ("mixed-ibp-cox-negative-eps", ParameterError),
    ("polya-ibp-direct-eps", InvalidMeasureError),
    ("polya-ibp-cox-negative-eps", ParameterError),
    ("polya-ibp-factor", InvalidMeasureError),
    ("mecke-n-string", InvalidMeasureError),
    ("mecke-n-fraction", InvalidMeasureError),
    ("conjugacy-n-bool", InvalidMeasureError),
    ("conjugacy-eps", InvalidMeasureError),
])
def test_bad_inputs_rejected_before_any_draw(case, error, rho_mass2,
                                             mixing_half, ones, zeros):
    # each used to draw first, or to fail with a bare TypeError
    params = PolyaParams(0.5, rho_mass2)
    call = {
        "mixed-direct-eps": lambda rng: sample_mixed_batch(
            mixing_half, "direct", "nonsense", 2, rng),
        "mixed-direct-negative-eps": lambda rng: sample_mixed_batch(
            mixing_half, "direct", -1.0, 2, rng),
        "mixed-cox-eps": lambda rng: sample_mixed_batch(
            mixing_half, "cox", "1e-3", 2, rng),
        "mixed-cox-negative-eps": lambda rng: sample_mixed_batch(
            mixing_half, "cox", -1.0, 2, rng),
        "mixed-ibp-direct-eps": lambda rng: check_mixed_ibp(
            mixing_half, ones, zeros, 200, rng, eps="x", route="direct"),
        "mixed-ibp-cox-negative-eps": lambda rng: check_mixed_ibp(
            mixing_half, ones, zeros, 200, rng, eps=-1.0, route="cox"),
        "polya-ibp-direct-eps": lambda rng: check_polya_ibp(
            params, "direct", ones, zeros, 200, rng, eps="x"),
        "polya-ibp-cox-negative-eps": lambda rng: check_polya_ibp(
            params, "cox", ones, zeros, 200, rng, eps=-1.0),
        "polya-ibp-factor": lambda rng: check_polya_ibp(
            params, "direct", ones, zeros, 200, rng, kernel_z_factor="2"),
        "mecke-n-string": lambda rng: check_mecke(
            rho_mass2, ones, zeros, "200", rng),
        "mecke-n-fraction": lambda rng: check_mecke(
            rho_mass2, ones, zeros, 200.5, rng),
        "conjugacy-n-bool": lambda rng: check_conjugacy(
            params, zeros, zeros, EPS, True, rng),
        "conjugacy-eps": lambda rng: check_conjugacy(
            params, zeros, zeros, "1e-3", 200, rng),
    }[case]
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(error):
        call(rng)
    assert rng.bit_generator.state == state


def test_integral_float_n_reports_an_int(rho_mass2, ones, zeros):
    got = check_mecke(rho_mass2, ones, zeros, 200.0, RngSeed(3))
    want = check_mecke(rho_mass2, ones, zeros, 200, RngSeed(3))
    assert type(got.n) is int
    assert got.to_dict() == want.to_dict()
