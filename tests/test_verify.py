"""The verification harness: validity on true identities, power on
corrupted ones."""

import hashlib
import inspect
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import polyasum
from polyasum import (InvalidMeasureError, MixingMeasure, ParameterError,
                      PointConfiguration, PolyaParams, ReferenceMeasure,
                      RngSeed, TestFunction, Window, WindowMismatchError,
                      check_conjugacy, check_transform_identity,
                      check_mecke, check_mixed_ibp, check_polya_ibp,
                      joint_laplace, laplace_gp, laplace_polya,
                      sample_mixed_batch, sample_polya_cox_batch,
                      sample_polya_direct_batch, sample_posterior_batch,
                      transforms)
from polyasum.cli import main
from polyasum.state_space import (ConfigurationBatch, _BatchWriter,
                                  _integrate_cellwise, _tile)
from polyasum.samplers import as_generator
from polyasum.verify import (_DEGENERATE_ATOL, EPS_ALLOWANCE, IDENTITY_BLOCK,
                             IDENTITY_MAX_CELLS, IDENTITY_TOL,
                             _campbell_sides, _ibp_report, _mean_se)

INF = float("inf")
EPS = 1e-6


def campbell_mean_se(batch, f, g):
    """Mean and standard error of zeta_f e^-zeta_g over ``batch``."""
    rho = ReferenceMeasure.uniform(batch.window, 1.0)
    return _mean_se(_campbell_sides(batch, rho, f, g)[0])


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
        with pytest.raises(ParameterError, match="n >= 100"):
            check_mecke(rho_mass2, ones, zeros, 10, RngSeed(0))

    @pytest.mark.parametrize("atom", [False, True])
    def test_constant_side_at_g_zero_passes_across_seeds(self, atom):
        # at g = 0 the rhs is rho(f) in every replica; its summed mean
        # used to sit an ulp from the exact value, read as many sigma,
        # and the check failed at all 100 seeds
        window = Window.box([(0.0, 1.0), (0.0, 1.0)], [2, 3])
        atoms = (((0.3, 0.5), 0.7),) if atom else ()
        rho = ReferenceMeasure(window, np.full(6, 0.4), atoms)
        f = TestFunction(window, [1.0, 0.2, 2.0, 0.7, 0.3, 1.1])
        g = TestFunction.constant(window, 0.0)
        reports = [check_mecke(rho, f, g, 200, RngSeed(seed))
                   for seed in range(100)]
        assert sum(r.passed for r in reports) >= 97
        assert all(r.rhs_stderr == 0.0 for r in reports)

    def test_constant_side_off_the_exact_value_fails(self):
        lhs = np.linspace(1.4, 3.4, 200)
        rhs = np.full(200, 2.4)
        for exact, passed in ((2.4 + 1e-9, False),
                              (2.4 + 0.5 * _DEGENERATE_ATOL, True)):
            report = _ibp_report("t", lhs, rhs, exact, 0.0, 200, 0.0, {})
            assert (report.rhs, report.rhs_stderr) == (2.4, 0.0)
            assert report.details["z_rhs_exact"] == (
                0.0 if passed else INF)
            assert report.passed is passed


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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_too_few_plug_in_pairs_raise_typed_error(self, window4, seed):
        # at z = 0.001 on mass 1e4 nearly every replica holds only simple
        # points (u == v), which admit no (z, w)
        mixing = MixingMeasure(ReferenceMeasure.uniform(window4, 1e4),
                               ((0.001, 1.0, 1.0),))
        with pytest.raises(ParameterError, match=(
                r"only [01] of the n=100 replicas admit a plug-in \(z, w\)")):
            check_mixed_ibp(mixing, TestFunction.constant(window4, 1.0),
                            TestFunction.constant(window4, 0.0), 100,
                            RngSeed(seed))

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
        with pytest.raises(ParameterError, match="n_tuples"):
            check_transform_identity(n_tuples, RngSeed(18))

    @staticmethod
    def public_deviations(n_tuples, rng):
        """The check's two worst deviations, from one window, measure and
        set of test functions per tuple through the public closed forms,
        with the check's draws in the check's order."""
        worst_gp = worst_composition = 0.0
        for _ in range(n_tuples):
            n_cells = int(rng.integers(1, IDENTITY_MAX_CELLS + 1))
            window = Window.interval(0.0, 1.0, n_cells)
            rho = ReferenceMeasure(window, rng.uniform(0.0, 3.0, n_cells))
            z = float(rng.uniform(0.05, 0.95))
            g = TestFunction(window, rng.uniform(0.0, 4.0, n_cells))
            h = TestFunction(window, rng.uniform(0.0, 4.0, n_cells))
            joint = joint_laplace(g, h, z, rho).log_value
            via_gp = laplace_gp(TestFunction(
                window, -np.expm1(-g.values) + h.values), z, rho).log_value
            tilted = TestFunction(window, g.values + np.log1p(z * h.values))
            composition = laplace_gp(h, z / (1.0 + z), rho).log_value \
                + laplace_polya(tilted, z, rho).log_value
            scale = max(abs(joint), 1e-300)
            worst_gp = max(worst_gp, abs(via_gp - joint) / scale)
            worst_composition = max(worst_composition,
                                    abs(composition - joint) / scale)
        return worst_gp, worst_composition

    @pytest.mark.parametrize("seed", range(10))
    def test_block_evaluation_matches_the_public_forms(self, seed):
        # 150 tuples: two full blocks and part of a third
        report = check_transform_identity(150, RngSeed(seed))
        lhs, rhs = self.public_deviations(150, as_generator(RngSeed(seed)))
        assert (report.lhs, report.rhs) == (lhs, rhs)
        assert report.lhs == 0.0 and report.exact == 0.0

    @pytest.mark.parametrize("helper", ["_polya_integrand", "_gp_integrand"])
    def test_fails_when_a_shared_integrand_is_corrupted(self, helper,
                                                        monkeypatch):
        original = getattr(transforms, helper)
        monkeypatch.setattr(transforms, helper,
                            lambda *args: original(*args[:-1], 0.99 * args[-1]))
        report = check_transform_identity(50, RngSeed(1))
        assert not report.passed and report.rhs > IDENTITY_TOL

    @pytest.mark.numpy_bits
    def test_memory_follows_the_block(self):
        # tracemalloc's peak over the check rests on numpy's temporaries;
        # the block's arrays, not n_tuples, must bound it
        def peak(n_tuples):
            tracemalloc.start()
            try:
                check_transform_identity(n_tuples, RngSeed(3))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        check_transform_identity(IDENTITY_BLOCK, RngSeed(3))
        assert peak(8 * IDENTITY_BLOCK) <= 2 * peak(IDENTITY_BLOCK)


class TestTransformIdentityBits:
    """``check_transform_identity`` and the command that runs it, pinned
    bit for bit: sha256 digests of the report's ``to_dict()`` and of the
    command's json (provenance timestamp removed) and csv output, recorded
    with numpy 2.4 on x86-64.  (63, 2), (64, 2) and (65, 2) sit one tuple
    either side of the check's block of 64, and the command's 150 tuples
    fill two blocks and part of a third."""

    REPORTS = {
        (1, 0):
            "ea84bb078e2fbbcc7ad8425f0ad0db9bbcdda145807d04f575783a7bdae1798a",
        (50, 1):
            "8cfe616fdee331c24e7470348383ef02e2a8b801a0a50d0a9a781801a69d83d8",
        (200, 18):
            "949b7a1d0efdbb53aaed3c4e1adce38bdbdca43580a8954efdb334a294f73920",
        (63, 2):
            "323ad211fede5ce16ee43ce4c72f47b2d7b8bce169db35e124cb0238c1a4439f",
        (64, 2):
            "60c398ed299114c599384b3d5a3bb9f6b6b001d1245e4ec3163433c04a9f2a9c",
        (65, 2):
            "a1524f07a945df18785e2d0e899b797c60618df3f66daefd82d40c1dda0fbcf4",
    }
    COMMAND = {
        "json":
            "8c34f1d84f096ba5787bd0d88fd114ce2ccdf2fc3a7b47f5d90f1d544713f3fc",
        "csv":
            "18640ac95ce596984535dfa68e468b70f0549f021e195411501d766ce961fd82",
    }

    @pytest.mark.parametrize("n_tuples, seed", sorted(REPORTS))
    def test_reports_keep_their_bits(self, n_tuples, seed):
        report = check_transform_identity(n_tuples, RngSeed(seed))
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            self.REPORTS[n_tuples, seed]

    @pytest.mark.parametrize("fmt", sorted(COMMAND))
    def test_command_bytes_keep_their_bits(self, tmp_path, fmt):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "window": {"mode": "box", "bounds": [[0.0, 1.0]], "cells": [4]},
            "rho": {"uniform_mass": 2.0}, "z": 0.5}))
        out = tmp_path / f"rep.{fmt}"
        assert main(["verify", "transform-identity", "--config", str(cfg),
                     "--n", "150", "--seed", "4", "--format", fmt,
                     "--out", str(out)]) == 0
        if fmt == "json":
            text = out.read_text()
            data = re.sub(r'\n *"timestamp": "[^"]*",?', "", text)
            assert data != text
            data = data.encode()
        else:
            # the bytes as written: csv rows end in "\r\n"
            data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.COMMAND[fmt]


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


def three_pass_sides(batch, rho, f, g, b, c):
    """``_campbell_sides`` as three zeta passes, one per function."""
    weight = np.exp(-batch.zeta(g))
    lhs = batch.zeta(f) * weight
    decay = np.exp(-g.values)
    fe_g = np.where(decay > 0, f.values * decay, 0.0)
    rho_feg = _integrate_cellwise(rho, fe_g)
    zeta_feg = batch.zeta(TestFunction(rho.window, fe_g))
    return lhs, b * (c * rho_feg + zeta_feg) * weight, rho_feg


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
        got = _campbell_sides(batch, rho, f, g, (0.5, 1.5))
    assert len(calls) == passes
    want = three_pass_sides(batch, rho, f, g, 0.5, 1.5)
    assert [np.asarray(v).tobytes() for v in got] == [
        np.asarray(v).tobytes() for v in want]


def test_mecke_integrates_g_and_f_only(window4):
    # the Poisson kernel has no mu term, so f e^-g is not integrated
    # against the batch: two passes at g != 0
    rho = ReferenceMeasure.uniform(window4, 2.0)
    f = TestFunction(window4, np.array([1.0, 0.2, 2.0, 0.7]))
    g = TestFunction(window4, np.array([0.5, 0.0, 1.0, 0.3]))
    calls = []
    zeta = ConfigurationBatch.zeta

    def counted(self, h):
        calls.append(h)
        return zeta(self, h)
    with mock.patch.object(ConfigurationBatch, "zeta", counted):
        check_mecke(rho, f, g, 300, RngSeed(4))
    assert calls == [g, f]


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
    ("mecke-infinite-f", ParameterError),
    ("polya-ibp-infinite-f", ParameterError),
    ("mixed-ibp-infinite-f", ParameterError),
    ("mixed-ibp-zero-mass", ParameterError),
    *((f"{target}-window-{other}", WindowMismatchError)
      for target in ("mecke", "polya-ibp-direct", "polya-ibp-cox",
                     "conjugacy", "mixed-ibp", "posterior")
      for other in ("bounds", "cells")),
])
def test_bad_inputs_rejected_before_any_draw(case, error, rho_mass2,
                                             mixing_half, ones, zeros):
    # each used to draw first, or to fail with a bare TypeError; the
    # window rows put f and g, or mu, on other bounds with the same cell
    # count or on another cell count, where a check could pass, raise an
    # IndexError, or raise only after its draws; an infinite f gave
    # NaN in the report, and the plug-in kernel on a zero-mass rho0 a
    # bare ValueError after the draws
    params = PolyaParams(0.5, rho_mass2)
    inf_f = TestFunction(rho_mass2.window, (1.0, INF, 0.5, 0.2))
    massless = MixingMeasure(ReferenceMeasure.uniform(rho_mass2.window, 0.0),
                             ((0.3, 1.0, 0.5), (0.7, 2.0, 0.5)))
    other = (Window.interval(0.0, 2.0, 4) if case.endswith("-bounds")
             else Window.interval(0.0, 1.0, 8))
    f, g = TestFunction.constant(other, 1.0), TestFunction.constant(other, 0.5)
    mu = PointConfiguration(other, (((0.1,), 2),))
    call = {
        "mecke-window": lambda rng: check_mecke(rho_mass2, f, g, 200, rng),
        "polya-ibp-direct-window": lambda rng: check_polya_ibp(
            params, "direct", f, g, 200, rng),
        "polya-ibp-cox-window": lambda rng: check_polya_ibp(
            params, "cox", f, g, 200, rng),
        "conjugacy-window": lambda rng: check_conjugacy(
            params, f, g, EPS, 200, rng),
        "mixed-ibp-window": lambda rng: check_mixed_ibp(
            mixing_half, f, g, 200, rng),
        "posterior-window": lambda rng: sample_posterior_batch(
            mu, params, EPS, 3, rng),
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
        "mecke-infinite-f": lambda rng: check_mecke(
            rho_mass2, inf_f, zeros, 200, rng),
        "polya-ibp-infinite-f": lambda rng: check_polya_ibp(
            params, "direct", inf_f, zeros, 200, rng),
        "mixed-ibp-infinite-f": lambda rng: check_mixed_ibp(
            mixing_half, inf_f, zeros, 200, rng),
        "mixed-ibp-zero-mass": lambda rng: check_mixed_ibp(
            massless, ones, zeros, 200, rng),
    }[case.removesuffix("-bounds").removesuffix("-cells")]
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


def test_equal_doubles_have_their_value_and_no_spread():
    values = np.full(300, 0.1)
    assert values.mean() != 0.1  # the summed mean strays by ulps
    assert _mean_se(values) == (0.1, 0.0)
    assert _mean_se([0.1, 0.1 + 2**-56]) != (0.1, 0.0)


# valid arguments of every public function that takes an rng, keyed by
# name; the numeric ones are replaced one at a time by bad values
_W4 = Window.interval(0.0, 1.0, 4)
_RHO = ReferenceMeasure.uniform(_W4, 2.0)
_ONES = TestFunction.constant(_W4, 1.0)
_ZEROS = TestFunction.constant(_W4, 0.0)
_PARAMS = PolyaParams(0.5, _RHO)
_MIXING = MixingMeasure(_RHO, ((0.5, 1.0, 1.0),))
_VALID_CALLS = {
    "sample_poisson_batch": dict(rho=_RHO, n=3),
    "sample_gamma_measure_batch": dict(params=_PARAMS, eps=1e-3, n=3),
    "sample_polya_direct_batch": dict(params=_PARAMS, n=3),
    "sample_polya_cox_batch": dict(params=_PARAMS, eps=1e-3, n=3),
    "sample_posterior_batch": dict(
        mu=polyasum.PointConfiguration(_W4, (((0.1,), 2),)),
        params=_PARAMS, eps=1e-3, n=3),
    "sample_mixed_batch": dict(mixing=_MIXING, route="cox", eps=1e-3, n=3),
    "check_mecke": dict(rho=_RHO, f=_ONES, g=_ZEROS, n=100),
    "check_polya_ibp": dict(params=_PARAMS, route="cox", f=_ONES, g=_ZEROS,
                            n=100, eps=1e-3, kernel_z_factor=1.0),
    "check_conjugacy": dict(params=_PARAMS, g=_ZEROS, h=_ZEROS, eps=1e-3,
                            n=100),
    "check_mixed_ibp": dict(mixing=_MIXING, f=_ONES, g=_ZEROS, n=100,
                            eps=1e-3, route="cox"),
    "check_transform_identity": dict(n_tuples=1),
}
_NUMERIC = ("n", "eps", "n_tuples", "kernel_z_factor")


def _bad_values(name, param):
    bad = ["3", True, None, math.nan, INF, -INF]
    if param in ("n", "n_tuples"):
        bad += [-1, 1.5]
        if param == "n_tuples" or name.startswith("check_"):
            bad.append(0 if param == "n_tuples" else 99)  # below the least
    if param == "eps":
        # at 5e-324 the jump threshold a r_eps underflows to 0, where
        # the jump rate m E1(a r_eps) is infinite
        bad += [0.0, -1e-3, 5e-324]
    return bad


def _rng_functions():
    """The public functions that take an rng and a numeric parameter."""
    out = {}
    for name in polyasum.__all__:
        obj = getattr(polyasum, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters
            if "rng" in params and set(params) & set(_NUMERIC):
                out[name] = [p for p in params if p in _NUMERIC]
    return out


def test_every_rng_function_has_a_valid_call():
    assert set(_rng_functions()) == set(_VALID_CALLS)
    for name, kwargs in _VALID_CALLS.items():
        getattr(polyasum, name)(rng=RngSeed(2), **kwargs)


@pytest.mark.parametrize("name, param, value", [
    (name, param, value)
    for name, params in sorted(_rng_functions().items())
    for param in params for value in _bad_values(name, param)])
def test_bad_numbers_raise_typed_errors_before_any_draw(name, param, value):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    kwargs = {**_VALID_CALLS[name], param: value}
    with pytest.raises((ParameterError, InvalidMeasureError)):
        getattr(polyasum, name)(rng=rng, **kwargs)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("name", sorted(
    name for name, params in _rng_functions().items() if "eps" in params))
def test_infinite_jump_rate_raises_before_any_draw(name):
    # an admissible eps that a mass of 1e308 makes underflow: eps a / m
    # and with it a r_eps are 0, so the jump rate is infinite.  The
    # mixed entry points refuse the mass first, by its cluster rate
    rho = ReferenceMeasure.uniform(_W4, 1e308)
    kwargs = {**_VALID_CALLS[name], "eps": 1e-20}
    if "params" in kwargs:
        kwargs["params"] = PolyaParams(0.5, rho)
    if "mixing" in kwargs:
        kwargs["mixing"] = MixingMeasure(rho, ((0.5, 1.0, 1.0),))
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError) as err:
        getattr(polyasum, name)(rng=rng, **kwargs)
    assert rng.bit_generator.state == state
    assert ("cluster rate" if "mixed" in name else "eps") in str(err.value)


# the bound on each FK check's tracemalloc peak over its largest
# batch buffer must hold on the oldest numpy too
@pytest.mark.numpy_bits
@pytest.mark.parametrize("check, bound", [("conjugacy", 2.25),
                                          ("polya-ibp-cox", 1.75)])
def test_fk_checks_keep_few_batches_alive(check, bound, monkeypatch):
    # tracemalloc's peak over a check at the benchmark's verify-fk
    # setting, against the largest batch buffer it allocates (about
    # 1 MB), on a second call, so that first-use set-up (the logseries
    # replay's probe) is not counted.  Measured over seeds 0-4 and z in
    # (0.3, 0.5, 0.7): 2.01-2.04 for the conjugacy check, whose
    # posterior copies its Gamma batch, and 1.50-1.54 on the Cox route
    # (2.03 and 1.50 here); when the conjugacy check held its forward
    # batches while the backward half drew, and e1_inverse's
    # temporaries spanned its whole input, they were 3.18-3.25 and
    # 2.20-2.24 (3.21 and 2.20 here)
    window = Window.interval(0.0, 1.0, 4)
    params = PolyaParams(0.7, ReferenceMeasure.uniform(window, 2.0))
    f = TestFunction(window, np.array([1.2, 0.5, 0.9, 1.4]))
    g = TestFunction(window, np.array([0.3, 1.1, 0.0, 0.7]))
    buffers = []
    empty = _BatchWriter._empty

    def spy(self, capacity):
        cols = empty(self, capacity)
        buffers.append(cols[0].base.nbytes)
        return cols

    def run():
        if check == "conjugacy":
            check_conjugacy(params, g, g, 1e-6, 1000, RngSeed(5))
        else:
            check_polya_ibp(params, "cox", f, g, 1000, RngSeed(5), eps=1e-6)

    run()
    monkeypatch.setattr(_BatchWriter, "_empty", spy)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * max(buffers)


class TestKernelBits:
    """The reports of the kernel-based checks and the bytes of the
    commands that build kernels, pinned bit for bit: sha256 digests of
    each check's ``to_dict()`` and of each command's output with its
    provenance timestamp removed, recorded with numpy 2.4 on x86-64."""

    WINDOW = Window.interval(0.0, 1.0, 4)
    F = TestFunction(WINDOW, np.array([1.0, 0.2, 2.0, 0.7]))
    G = TestFunction(WINDOW, np.array([0.5, 0.0, 1.0, 0.3]))
    POLYA = {
        1.0:
            "203d5f4c65000193b52f252a473a6decc4630433e2ebc5f2afd567caecea9861",
        0.5:
            "311dd9bc7c05b3a3abdd7a338646eb304b49b46cdd73c2320e3919bf17c29a91",
    }
    MIXED = {
        ("plug-in", "direct", "f1-g0"):
            "adeac70b9bc8edd1e74d8306bbbdd206c11197a1666d8cf5378f008d346b28e7",
        ("plug-in", "direct", "fg"):
            "7f3798ab1f015cbc80e4179420e856e433fb01796347b137bc99580cb08473c7",
        ("plug-in", "cox", "f1-g0"):
            "00d03837b01e4b97eedd9033e2cf04f4192667228fd4fbba16c16043420e71c6",
        ("plug-in", "cox", "fg"):
            "c83c716e0c23244ecd4f5e214db8df06f1af5dda590d2d582a03536784b46abd",
        ("fixed", "direct", "f1-g0"):
            "2f4cd9725a7c59094e1cf3280656b69318d07a1b4ac025a4a7e69b30d7366420",
        ("fixed", "direct", "fg"):
            "1354df09ec9455192c6cfa6ab0693ce16be36cbbf3d1090f86af267b592b3401",
        ("fixed", "cox", "f1-g0"):
            "885228015a379112727cae8b035253dbb4ff591fd6207ede2953655f7d9ee00d",
        ("fixed", "cox", "fg"):
            "7e3d5960eb58bdf779462434d5b93812466f2b2687a58160c15abc2fe7548b9d",
    }
    COMMANDS = {
        ("posterior", "box-atoms"):
            "aaef5baf0e103143189182571a1f2a7ee0d2d53c143cad3824f16101d6d6ec27",
        ("posterior", "sites"):
            "c84e7c0711b11159de07eff3cf8e04f160c99ff4eb06eca9c72404bf6fd64830",
        ("estimate-zw", "box-atoms"):
            "ce5cb6550c1c2db48c99629973978b2ee91b05aaabf8fb5fbc441e44b995ad3d",
        ("estimate-zw", "sites"):
            "baecf54959ea47c4cf0005a20f3ca929b5478ce5bc8d5afcd2ab2d2b72d529d6",
        ("estimate-zw", "infeasible"):
            "8d6ffee74edf1e62f116b59de7204205df864b947646eb8edd333bf6d7af4349",
    }

    @staticmethod
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def report_digest(self, report):
        return self.digest(json.dumps(report.to_dict(), sort_keys=True))

    @pytest.mark.parametrize("factor", [1.0, 0.5])
    def test_polya_reports_keep_their_bits(self, factor):
        params = PolyaParams(0.6, ReferenceMeasure.uniform(self.WINDOW, 2.0))
        report = check_polya_ibp(params, "direct", self.F, self.G, 400,
                                 RngSeed(64), kernel_z_factor=factor)
        assert self.report_digest(report) == self.POLYA[factor]

    @pytest.mark.parametrize("kernel", ["plug-in", "fixed"])
    @pytest.mark.parametrize("route", ["direct", "cox"])
    @pytest.mark.parametrize("functions", ["f1-g0", "fg"])
    def test_mixed_reports_keep_their_bits(self, kernel, route, functions):
        mixing = MixingMeasure(ReferenceMeasure.uniform(self.WINDOW, 2.0),
                               ((0.3, 1.0, 0.5), (0.7, 2.0, 0.5)))
        if functions == "fg":
            f, g = self.F, self.G
        else:
            f = TestFunction.constant(self.WINDOW, 1.0)
            g = TestFunction.constant(self.WINDOW, 0.0)
        report = check_mixed_ibp(
            mixing, f, g, 400, RngSeed(65), eps=1e-6, route=route,
            fixed_zw=(0.5, 1.5) if kernel == "fixed" else None)
        assert self.report_digest(report) == \
            self.MIXED[kernel, route, functions]

    @pytest.mark.parametrize("command, case", sorted(COMMANDS))
    def test_command_bytes_keep_their_bits(self, tmp_path, command, case):
        box = {"mode": "box", "bounds": [[0.0, 1.0]], "cells": [4]}
        box_rho = {"masses": [0.5, 0.0, 1.0, 0.5],
                   "atoms": [{"loc": [0.3], "weight": 1.5},
                             {"loc": [0.8], "weight": 0.7}]}
        box_mu = {"points": [{"loc": [0.3], "mult": 3},
                             {"loc": [0.05], "mult": 1},
                             {"loc": [0.6], "mult": 2},
                             {"loc": [0.61], "mult": 1}]}
        docs = {
            "box-atoms": {"window": box, "rho": box_rho, "rho0": box_rho,
                          "z": 0.35, "mu": box_mu},
            "sites": {"window": {"mode": "sites", "sites": ["a", "b", "c"]},
                      "rho": {"masses": [1.0, 0.5, 0.0],
                              "atoms": [{"loc": "c", "weight": 2.0}]},
                      "rho0": {"uniform_mass": 3.0}, "z": 0.7,
                      "mu": {"points": [{"loc": "a", "mult": 4},
                                        {"loc": "c", "mult": 1}]}},
            "infeasible": {"window": box, "rho0": {"uniform_mass": 10.0},
                           "mu": {"points": [{"loc": [0.5], "mult": 1}]}},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(docs[case]))
        out = tmp_path / "out.json"
        main([command, "--config", str(cfg), "--out", str(out)])
        text = out.read_text()
        stripped = re.sub(r'\n *"timestamp": "[^"]*",?', "", text)
        assert stripped != text
        assert self.digest(stripped) == self.COMMANDS[command, case]
