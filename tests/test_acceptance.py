"""Acceptance battery.

One test per criterion, each printing a single pass/fail line; run

    pytest tests/test_acceptance.py -v -s

to see the lines as they complete.  Tolerances are fixed here and
mirror the closed-form oracles: 3-sigma Monte Carlo bands with a
linear allowance (10 eps) on Gamma-measure routes, and hard relative
bounds on deterministic identities.
"""

import math
import time

import numpy as np

from polyasum import (MixingMeasure, PointConfiguration, PolyaParams,
                      ReferenceMeasure, RngSeed, TestFunction, Window,
                      check_conjugacy, check_mixed_ibp, check_polya_ibp,
                      joint_laplace, laplace_gp, laplace_polya, nb_pmf_table,
                      posterior_intensity, posterior_params,
                      sample_gamma_measure_batch, sample_mixed_batch,
                      sample_polya_cox_batch, sample_polya_direct_batch,
                      sample_posterior_batch, solve_zw, solve_zw_batch,
                      superpose, zeta)
from polyasum.samplers import (_poisson_from_atomic_batch,
                               _posterior_from_config_batch)

EPS = 1e-6
EPS_SLACK = 10 * EPS

WINDOW = Window.interval(0.0, 1.0, 4)
RHO2 = ReferenceMeasure.uniform(WINDOW, 2.0)


def report(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return ok


def test_criterion_1_transform_identity():
    """Three closed forms of the joint transform agree to 1e-12."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n_cells = int(rng.integers(1, 9))
        w = Window.interval(0.0, 1.0, n_cells)
        rho = ReferenceMeasure(w, rng.uniform(0.0, 3.0, n_cells))
        z = float(rng.uniform(0.05, 0.95))
        g = TestFunction(w, rng.uniform(0.0, 4.0, n_cells))
        h = TestFunction(w, rng.uniform(0.0, 4.0, n_cells))

        joint = joint_laplace(g, h, z, rho).log_value
        eff = TestFunction(w, -np.expm1(-g.values) + h.values)
        via_gp = laplace_gp(eff, z, rho).log_value
        z_post = z / (1.0 + z)
        tilted = TestFunction(w, g.values + np.log1p(z * h.values))
        composition = laplace_gp(h, z_post, rho).log_value \
            + laplace_polya(tilted, z, rho).log_value

        scale = max(1.0, abs(joint))
        worst = max(worst, abs(via_gp - joint) / scale,
                    abs(composition - joint) / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    assert report(1, ok, f"transform identity: worst rel err {worst:.2e} over "
                         f"200 tuples in {elapsed:.2f}s (< 1e-12, < 1s)")


def _three_way_conjugacy(params, g, h, fwd_mu, fwd_kappa, bwd_mu, bwd_kappa):
    """Pairwise z-scores of forward MC, backward MC, and the closed form."""
    fwd = np.exp(-fwd_mu.zeta(g) - fwd_kappa.zeta(h))
    bwd = np.exp(-bwd_mu.zeta(g) - bwd_kappa.zeta(h))
    exact = joint_laplace(g, h, params.z, params.rho).value
    fm, fs = fwd.mean(), fwd.std(ddof=1) / math.sqrt(fwd.size)
    bm, bs = bwd.mean(), bwd.std(ddof=1) / math.sqrt(bwd.size)
    ok = (abs(fm - exact) <= 3 * fs + EPS_SLACK
          and abs(bm - exact) <= 3 * bs + EPS_SLACK
          and abs(fm - bm) <= 3 * math.hypot(fs, bs) + EPS_SLACK)
    worst_z = max(abs(fm - exact) / fs, abs(bm - exact) / bs,
                  abs(fm - bm) / math.hypot(fs, bs))
    return ok, worst_z


def test_criterion_2_conjugacy():
    """Forward MC, backward MC and the exact joint transform agree
    pairwise on the z-grid x four random (g, h) pairs at n = 1e5."""
    n = 100_000
    rng_fns = np.random.default_rng(555)
    all_ok = True
    worst = 0.0
    for iz, z in enumerate((0.3, 0.5, 0.7)):
        params = PolyaParams(z, RHO2)
        pairs = [(TestFunction(WINDOW, rng_fns.uniform(0.0, 2.5, 4)),
                  TestFunction(WINDOW, rng_fns.uniform(0.0, 2.5, 4)))
                 for _ in range(4)]
        # first pair through the full check API
        rep = check_conjugacy(params, pairs[0][0], pairs[0][1], EPS, n,
                              RngSeed(3000 + iz))
        all_ok &= rep.passed
        worst = max(worst, abs(rep.z_score),
                    abs(rep.details["z_forward_exact"]),
                    abs(rep.details["z_backward_exact"]))
        # remaining pairs share one forward and one backward batch
        rng = RngSeed(3100 + iz).generator()
        fwd_kappa = sample_gamma_measure_batch(params, EPS, n, rng)
        fwd_mu = _poisson_from_atomic_batch(fwd_kappa, rng)
        bwd_mu = sample_polya_direct_batch(params, n, rng)
        bwd_kappa = _posterior_from_config_batch(bwd_mu, params, EPS, rng)
        for g, h in pairs[1:]:
            ok, z_worst = _three_way_conjugacy(
                params, g, h, fwd_mu, fwd_kappa, bwd_mu, bwd_kappa)
            all_ok &= ok
            worst = max(worst, z_worst)
    assert report(2, all_ok, f"conjugacy on z-grid x 4 (g,h) at n=1e5: "
                             f"worst |z| = {worst:.2f} (< 3 + eps slack)")


def test_criterion_3_count_law():
    """Window counts follow NB(2, 0.5): TV < 0.01 direct, < 0.015 cox."""
    n = 100_000
    params = PolyaParams(0.5, RHO2)
    table = nb_pmf_table(2.0, 0.5)

    def tv(counts):
        kmax = max(int(counts.max()), len(table) - 1)
        emp = np.bincount(counts, minlength=kmax + 1) / counts.size
        pmf = np.zeros(kmax + 1)
        pmf[:len(table)] = table[:kmax + 1]
        return 0.5 * np.abs(emp - pmf).sum() + 0.5 * max(
            0.0, 1.0 - pmf.sum())

    direct = sample_polya_direct_batch(params, n, RngSeed(41)).counts()
    cox = sample_polya_cox_batch(params, EPS, n, RngSeed(42)).counts()
    tv_direct = tv(direct)
    tv_cox = tv(cox)
    kmax = max(direct.max(), cox.max()) + 1
    tv_pair = 0.5 * np.abs(
        np.bincount(direct, minlength=kmax) / n
        - np.bincount(cox, minlength=kmax) / n).sum()
    mean, var = direct.mean(), direct.var(ddof=1)
    ok = (tv_direct < 0.01 and tv_cox < 0.015 and tv_pair < 0.015
          and abs(mean - 2.0) < 0.05 and abs(var - 4.0) < 0.2)
    assert report(3, ok, f"count law: TV(direct, NB) = {tv_direct:.4f} "
                         f"(< 0.01), TV(cox, NB) = {tv_cox:.4f} (< 0.015), "
                         f"TV(direct, cox) = {tv_pair:.4f}; "
                         f"mean {mean:.3f}, var {var:.3f}")


def test_criterion_4_bayes_estimator():
    """Posterior sample means match the estimator, the intensity of the
    updated parameters; that intensity equals z (rho + mu) exactly."""
    z = 0.5
    mu = PointConfiguration(WINDOW, (((0.15,), 3), ((0.65,), 1)))
    params = PolyaParams(z, RHO2)
    batch = sample_posterior_batch(mu, params, EPS, 100_000, RngSeed(43))
    target = posterior_intensity(posterior_params(z, RHO2, mu))
    mc_ok = True
    worst = 0.0
    for cell in range(WINDOW.n_cells):
        f = TestFunction.indicator(WINDOW, [cell])
        masses = batch.zeta(f)
        se = masses.std(ddof=1) / math.sqrt(masses.size)
        dev = abs(masses.mean() - zeta(target, f))
        mc_ok &= dev < 3 * se + EPS_SLACK
        worst = max(worst, dev / se)
    for loc, k in mu.points:
        at = np.isclose(batch.coords[:, 0], loc[0], rtol=0, atol=0)
        weights = batch.weight[at]
        se = weights.std(ddof=1) / math.sqrt(weights.size)
        dev = abs(weights.mean() - z * k)
        mc_ok &= dev < 3 * se + EPS_SLACK
        worst = max(worst, dev / se)

    rng = np.random.default_rng(99)
    ident_ok = True
    for _ in range(100):
        n_cells = int(rng.integers(1, 6))
        w = Window.interval(0.0, 1.0, n_cells)
        rho = ReferenceMeasure(w, rng.uniform(0.0, 3.0, n_cells))
        zz = float(rng.uniform(0.05, 0.95))
        pts = {}
        for _ in range(int(rng.integers(0, 4))):
            pts[(float(rng.uniform(0, 1)),)] = int(rng.integers(1, 5))
        obs = PointConfiguration(w, tuple(pts.items()))
        direct = superpose(rho, obs).scale(zz)
        via = posterior_intensity(posterior_params(zz, rho, obs))
        ident_ok &= np.allclose(direct.cell_masses, via.cell_masses,
                                rtol=1e-13, atol=0.0)
        ident_ok &= all(
            la == lb and abs(wa - wb) <= 1e-13 * wa
            for (la, wa), (lb, wb) in zip(direct.atoms, via.atoms))
    ok = mc_ok and ident_ok
    assert report(4, ok, f"Bayes estimator: posterior means within 3 sigma "
                         f"(worst {worst:.2f} sigma), estimator identity "
                         f"exact on 100 random inputs: {ident_ok}")


def test_criterion_5_rate_update():
    """a' = a + 1 across a 99-point z grid, relative error < 1e-14."""
    worst = 0.0
    for z in np.linspace(0.01, 0.99, 99):
        a_prior = (1.0 - z) / z
        z_post = z / (1.0 + z)
        a_post = (1.0 - z_post) / z_post
        worst = max(worst, abs(a_post - (a_prior + 1.0)) / (a_prior + 1.0))
    ok = worst < 1e-14
    assert report(5, ok, f"rate update a -> a+1: worst rel err {worst:.2e} "
                         f"on 99-point z grid (< 1e-14)")


def test_criterion_6_integration_by_parts():
    """Campbell identity: 10 random (f, g) pass at n = 1e5; the
    corrupted kernel (z -> z/2) fails with |z-score| > 5."""
    n = 100_000
    params = PolyaParams(0.5, RHO2)
    rng_fns = np.random.default_rng(77)
    all_ok = True
    worst = 0.0
    for i in range(10):
        f = TestFunction(WINDOW, rng_fns.uniform(0.0, 2.0, 4))
        g = TestFunction(WINDOW, rng_fns.uniform(0.0, 2.0, 4))
        rep = check_polya_ibp(params, "direct", f, g, n, RngSeed(900 + i))
        all_ok &= rep.passed
        worst = max(worst, abs(rep.z_score),
                    abs(rep.details["z_lhs_exact"]),
                    abs(rep.details["z_rhs_exact"]))
    corrupted = check_polya_ibp(
        params, "direct", TestFunction.constant(WINDOW, 1.0),
        TestFunction.constant(WINDOW, 0.0), n, RngSeed(910),
        kernel_z_factor=0.5)
    power_ok = (not corrupted.passed) and abs(corrupted.z_score) > 5.0
    ok = all_ok and power_ok
    assert report(6, ok, f"integration by parts: 10 random (f,g) pass "
                         f"(worst |z| = {worst:.2f}); corrupted kernel "
                         f"|z| = {abs(corrupted.z_score):.0f} (> 5)")


def test_criterion_7_zw_solver():
    """Deterministic round trip to 1e-10 on the 36-point grid;
    single-sample recovery on mass-1e4 windows."""
    grid_ok = True
    worst_rt = 0.0
    for z in np.arange(0.1, 0.95, 0.1):
        for w in (0.5, 1.0, 2.0, 5.0):
            u = w * z / (1.0 - z)
            v = -w * math.log1p(-z)
            est = solve_zw(u, v)
            err = max(abs(est.z_hat - z), abs(est.w_hat - w))
            worst_rt = max(worst_rt, err)
            grid_ok &= err < 1e-10

    mass = 1e4
    rho0 = ReferenceMeasure.uniform(WINDOW, mass)
    batch = sample_polya_direct_batch(PolyaParams(0.5, rho0), 100,
                                      RngSeed(44))
    z_hat, w_hat, feasible = solve_zw_batch(batch.counts() / mass,
                                            batch.distinct_counts() / mass)
    med_z = float(np.median(np.abs(z_hat - 0.5)))
    med_w = float(np.median(np.abs(w_hat - 1.0)))
    sample_ok = feasible.all() and med_z < 0.02 and med_w < 0.05
    ok = grid_ok and sample_ok
    assert report(7, ok, f"(z,w) solver: grid round trip worst err "
                         f"{worst_rt:.2e} (< 1e-10); single-sample medians "
                         f"|dz| = {med_z:.4f} (< 0.02), "
                         f"|dw| = {med_w:.4f} (< 0.05)")


def test_criterion_8_mixed_papangelou():
    """Plug-in kernel solves the mixed identity at mass 1e3, n = 1e4;
    a fixed global kernel does not."""
    rho0 = ReferenceMeasure.uniform(WINDOW, 1e3)
    mixing = MixingMeasure(rho0, ((0.3, 1.0, 0.5), (0.7, 1.0, 0.5)))
    f = TestFunction.constant(WINDOW, 1.0)
    g = TestFunction.constant(WINDOW, 0.0)
    plug = check_mixed_ibp(mixing, f, g, 10_000, RngSeed(45))
    fixed = check_mixed_ibp(mixing, f, g, 10_000, RngSeed(46),
                            fixed_zw=(0.5, 1.0))
    ok = (plug.passed
          and plug.details["solver_failure_fraction"] < 0.01
          and not fixed.passed and abs(fixed.z_score) > 5.0)
    assert report(8, ok, f"mixed Papangelou: plug-in |z| = "
                         f"{abs(plug.z_score):.2f} (pass), fixed global "
                         f"kernel |z| = {abs(fixed.z_score):.0f} (fail > 5); "
                         f"solver failures "
                         f"{plug.details['solver_failure_fraction']:.1%}")


def test_criterion_9_ergodic_decomposability():
    """A single observation identifies its mixture component > 95% of
    the time at desk scale."""
    mass = 1e4
    rho0 = ReferenceMeasure.uniform(WINDOW, mass)
    mixing = MixingMeasure(rho0, ((0.3, 1.0, 0.5), (0.7, 1.0, 0.5)))
    batch, z_lat, _ = sample_mixed_batch(mixing, "direct", EPS, 200,
                                         RngSeed(47))
    z_hat, w_hat, feasible = solve_zw_batch(batch.counts() / mass,
                                            batch.distinct_counts() / mass)
    d0 = (z_hat - 0.3) ** 2 + (w_hat - 1.0) ** 2
    d1 = (z_hat - 0.7) ** 2 + (w_hat - 1.0) ** 2
    assigned = np.where(d0 < d1, 0.3, 0.7)
    accuracy = float((assigned == z_lat)[feasible].mean())
    ok = feasible.all() and accuracy > 0.95
    assert report(9, ok, f"ergodic decomposability proxy: classification "
                         f"accuracy {accuracy:.1%} over 200 replicas "
                         f"(> 95%)")
