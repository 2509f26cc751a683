"""Statistical verification harness.

Every functional identity satisfied by the processes is checked by
Monte Carlo: both sides of a Campbell-measure identity are estimated
on the *same* samples (pairing cancels the common variance and makes
the checks orders of magnitude tighter at equal n), and exact
closed-form values are attached wherever a transform provides one.
A check passes when every comparison is within 3 standard errors plus
a linear truncation allowance for Gamma-measure routes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bayes import kernel
from .samplers import (MixingMeasure, PolyaParams, _check_eps, _check_n,
                       _check_zw, _poisson_from_atomic_batch,
                       _posterior_from_config_batch, _route_sampler,
                       as_generator, sample_gamma_measure_batch,
                       sample_mixed_batch, sample_poisson_batch,
                       sample_polya_direct_batch)
from .state_space import (ConfigurationBatch, ReferenceMeasure, TestFunction,
                          Window, _integrate_cellwise, _json_float,
                          _json_int, _require_same_window)
from .transforms import (ParameterError, joint_laplace, laplace_gp,
                         laplace_polya, polya_campbell_exact)

# Truncation bias enters the tolerance linearly.  Measured against the
# exact transform at mass 0.5, z = 0.5, g = 3 (test_verify.py,
# test_cox_truncation_bias_within_allowance), the Cox-route bias of
# E[e^-zeta_g] stays within 3 standard errors of 0 for eps in
# {0.1, 0.03, 0.01} (|bias| <= 7e-4 at 1e6 replicas), far inside
# 10 eps.
EPS_ALLOWANCE = 10.0

_DEGENERATE_ATOL = 1e-12

# check_transform_identity: windows of 1 to IDENTITY_MAX_CELLS cells,
# and the largest relative deviation of the log transforms it passes
IDENTITY_MAX_CELLS = 8
IDENTITY_TOL = 1e-12


@dataclass
class CheckReport:
    """Outcome of one verification check.

    lhs/rhs carry the two estimated sides with standard errors, exact
    the closed-form value when one exists.  ``z_score`` is the primary
    lhs-vs-rhs comparison; per-comparison scores live in ``details``.
    """

    name: str
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float
    exact: float | None
    z_score: float
    passed: bool
    n: int
    runtime: float
    details: dict = field(default_factory=dict)

    def to_dict(self, include_runtime: bool = False) -> dict:
        out = {
            "name": self.name,
            "lhs": self.lhs, "lhs_stderr": self.lhs_stderr,
            "rhs": self.rhs, "rhs_stderr": self.rhs_stderr,
            "exact": self.exact,
            "z_score": self.z_score,
            "passed": bool(self.passed),
            "n": self.n,
            "details": self.details,
        }
        if include_runtime:
            out["runtime"] = self.runtime
        return out

    def summary_line(self) -> str:
        exact = "n/a" if self.exact is None else f"{self.exact:.6g}"
        flag = "PASS" if self.passed else "FAIL"
        return (f"{flag} {self.name}: lhs={self.lhs:.6g}±{self.lhs_stderr:.2g} "
                f"rhs={self.rhs:.6g}±{self.rhs_stderr:.2g} exact={exact} "
                f"|z|={abs(self.z_score):.2f} n={self.n}")


def _mean_se(values):
    """Sample mean and standard error of per-replica values.  When every
    replica gave the same double, that double with standard error 0: a
    summed mean would stray from it by a few ulps and give it a spread
    that ``_exact_z`` reads as many standard errors."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least 2 replicas")
    if values.min() == values.max():
        return float(values[0]), 0.0
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def _exact_z(mean: float, se: float, exact: float, slack: float = 0.0):
    """z-score and pass flag of an estimate against a target value.
    Degenerate (zero-variance) estimates pass on exact agreement."""
    if se == 0.0:
        passed = abs(mean - exact) <= _DEGENERATE_ATOL + slack
        return (0.0 if passed else math.inf), passed
    z = (mean - exact) / se
    return z, abs(mean - exact) <= 3.0 * se + slack


def _ibp_report(name: str, lhs: np.ndarray, rhs: np.ndarray,
                exact: float | None, slack: float, n: int, t0: float,
                details: dict) -> CheckReport:
    """Report of two per-replica statistics estimated on the same samples.

    The paired difference must be within 3 standard errors plus
    ``slack`` of 0; when ``exact`` is given, so must each side's mean
    be of it, and both z-scores join ``details``.
    """
    z_pair, passed = _exact_z(*_mean_se(lhs - rhs), 0.0, slack)
    lm, ls = _mean_se(lhs)
    rm, rs = _mean_se(rhs)
    if exact is not None:
        z_le, ok_le = _exact_z(lm, ls, exact, slack)
        z_re, ok_re = _exact_z(rm, rs, exact, slack)
        passed = passed and ok_le and ok_re
        details = {**details, "z_lhs_exact": z_le, "z_rhs_exact": z_re}
    return CheckReport(
        name=name, lhs=lm, lhs_stderr=ls, rhs=rm, rhs_stderr=rs,
        exact=exact, z_score=z_pair, passed=passed, n=n,
        runtime=time.perf_counter() - t0, details=details)


def _slack(route: str, eps: float) -> float:
    """Truncation allowance of a Polya route; the direct route is exact."""
    return EPS_ALLOWANCE * eps if route == "cox" else 0.0


def _start(n: int, rng, measure, *functions):
    """The start time, replica count and generator of a Monte Carlo
    check of n replicas, n judged by the samplers' number rule first,
    and each of ``functions`` required on ``measure``'s window."""
    n = _check_n(n)
    if n < 100:
        raise ParameterError(f"need n >= 100 replicas, got n={n}")
    for function in functions:
        _require_same_window(measure, function)
    return time.perf_counter(), n, as_generator(rng)


def _campbell_sides(batch: ConfigurationBatch, rho: ReferenceMeasure,
                    f: TestFunction, g: TestFunction, mu_term: bool = True):
    """Every part of a Campbell identity on ``batch`` but its kernel: per
    replica e^-zeta_g and zeta_f e^-zeta_g, then rho(f e^-g) and per
    replica zeta_{f e^-g}, with f e^-g = 0 where g = +inf; None for
    the last when the kernel has no mu term (``mu_term`` false).

    Each distinct function is integrated once: at g = 0 zeta_g is +0.0
    in every replica, which is what a pass would sum to, and where
    f e^-g has the bits of f, zeta_f serves for it."""
    zeta_g = batch.zeta(g) if g.values.any() else np.zeros(batch.n)
    weight = np.exp(-zeta_g)
    zeta_f = batch.zeta(f)
    lhs = zeta_f * weight
    decay = np.exp(-g.values)
    fe_g = np.where(decay > 0, f.values * decay, 0.0)
    zeta_feg = (None if not mu_term
                else zeta_f if fe_g.tobytes() == f.values.tobytes()
                else batch.zeta(TestFunction(rho.window, fe_g)))
    return weight, lhs, _integrate_cellwise(rho, fe_g), zeta_feg


def check_mecke(rho: ReferenceMeasure, f: TestFunction, g: TestFunction,
                n: int, rng, name: str = "mecke") -> CheckReport:
    """Campbell identity of the Poisson process.

    LHS estimates E[zeta_f e^-zeta_g]; the RHS moves one point: adding
    a point at x multiplies e^-zeta_g by e^-g(x), so the identity reads
    E[zeta_f e^-zeta_g] = rho(f e^-g) E[e^-zeta_g].  Both sides are
    evaluated on the same samples; the exact value
    rho(f e^-g) exp(-rho(1 - e^-g)) is attached.
    """
    t0, n, rng = _start(n, rng, rho, f, g)
    batch = sample_poisson_batch(rho, n, rng)
    weight, lhs, rho_feg, _ = _campbell_sides(batch, rho, f, g,
                                              mu_term=False)
    rhs = rho_feg * weight
    exact = rho_feg * math.exp(-_integrate_cellwise(
        rho, -np.expm1(-g.values)))

    return _ibp_report(name, lhs, rhs, exact, 0.0, n, t0, {})


def check_polya_ibp(params: PolyaParams, route: str, f: TestFunction,
                    g: TestFunction, n: int, rng, eps: float = 1e-6,
                    kernel_z_factor: float = 1.0,
                    name: str = "polya-ibp") -> CheckReport:
    """Integration-by-parts identity of the Polya sum process.

    LHS estimates E[zeta_f e^-zeta_g].  The kernel rewards observed
    points: adding a point at x contributes z (rho + mu)(dx), so the
    RHS is E[z (rho(f e^-g) + zeta_{f e^-g}(mu)) e^-zeta_g], estimated
    on the same samples, with the exact closed form attached.

    ``kernel_z_factor`` deliberately corrupts the kernel (z -> factor
    * z) for power studies: the check must then fail.  eps and the
    factor are checked as finite numbers before any draw, on both
    routes.
    """
    eps = _check_eps(eps)
    kernel_z_factor = _json_float(kernel_z_factor, "kernel_z_factor")
    if not math.isfinite(kernel_z_factor):
        raise ParameterError(
            f"kernel_z_factor must be finite, got {kernel_z_factor}")
    t0, n, rng = _start(n, rng, params, f, g)
    batch = _route_sampler(route)(params, eps, n, rng)
    b, c = kernel(batch, params.rho, (params.z * kernel_z_factor, 1.0))
    weight, lhs, rho_feg, zeta_feg = _campbell_sides(batch, params.rho, f, g)
    rhs = b * (c * rho_feg + zeta_feg) * weight
    exact = polya_campbell_exact(f, g, params.z, params.rho)

    report = _ibp_report(name, lhs, rhs, exact, _slack(route, eps), n, t0,
                         {"route": route})
    report.details["kernel_z_factor"] = kernel_z_factor
    return report


def check_conjugacy(params: PolyaParams, g: TestFunction, h: TestFunction,
                    eps: float, n: int, rng,
                    name: str = "conjugacy") -> CheckReport:
    """Forward/backward agreement of the joint Laplace functional.

    Forward: kappa from the Gamma measure, mu ~ Poisson(kappa).
    Backward: mu from the Polya process (direct route), kappa from the
    posterior given mu.  Both estimate E[e^(-zeta_g(mu) - zeta_h(kappa))],
    whose exact value is the joint closed form.  lhs carries the
    forward estimate, rhs the backward one.
    """
    eps = _check_eps(eps)
    t0, n, rng = _start(n, rng, params, g, h)
    slack = _slack("cox", eps)

    # the forward half is reduced to its per-replica values, and its
    # batches dropped, before the backward half draws
    kappa = sample_gamma_measure_batch(params, eps, n, rng)
    fwd = np.exp(-_poisson_from_atomic_batch(kappa, rng).zeta(g)
                 - kappa.zeta(h))
    del kappa
    mu = sample_polya_direct_batch(params, n, rng)
    bwd = np.exp(-mu.zeta(g)
                 - _posterior_from_config_batch(mu, params, eps, rng).zeta(h))

    exact = joint_laplace(g, h, params.z, params.rho).value
    fm, fs = _mean_se(fwd)
    bm, bs = _mean_se(bwd)
    z_fb, ok_fb = _exact_z(fm, math.hypot(fs, bs), bm, slack)
    z_fe, ok_fe = _exact_z(fm, fs, exact, slack)
    z_be, ok_be = _exact_z(bm, bs, exact, slack)
    return CheckReport(
        name=name, lhs=fm, lhs_stderr=fs, rhs=bm, rhs_stderr=bs,
        exact=exact, z_score=z_fb, passed=ok_fb and ok_fe and ok_be,
        n=n, runtime=time.perf_counter() - t0,
        details={"z_forward_exact": z_fe, "z_backward_exact": z_be,
                 "forward": "gamma-then-poisson",
                 "backward": "polya-then-posterior"})


def check_mixed_ibp(mixing: MixingMeasure, f: TestFunction, g: TestFunction,
                    n: int, rng, eps: float = 1e-6, route: str = "direct",
                    fixed_zw: tuple | None = None,
                    name: str = "mixed-ibp") -> CheckReport:
    """Integration-by-parts for the doubly stochastic process.

    The kernel coefficients are estimated from each sample itself:
    (z_hat, w_hat) solve the density equations for that replica, and
    the RHS uses the plug-in kernel z_hat (w_hat rho0 + mu), the Bayes
    estimator only as the reference mass grows: at finite mass and
    g != 0 a true model can fail.  Replicas where the densities are
    infeasible are dropped and their fraction reported; fewer than 2
    left raise ``ParameterError``.  Passing ``fixed_zw`` replaces the
    per-sample estimates with one global pair, which must break the
    identity for genuinely mixed priors; it is checked as a mixing
    atom's (z, w) before any draw, as eps is on both routes.
    """
    eps = _check_eps(eps)
    if fixed_zw is not None:
        fixed_zw = _check_zw(*fixed_zw)
    t0, n, rng = _start(n, rng, mixing, f, g)
    batch, z_lat, w_lat = sample_mixed_batch(mixing, route, eps, n, rng)
    b, c = kernel(batch, mixing.rho0, fixed_zw)
    weight, lhs, rho_feg, zeta_feg = _campbell_sides(batch, mixing.rho0, f, g)
    rhs = b * (c * rho_feg + zeta_feg) * weight
    feasible = ~np.isnan(b)
    if feasible.sum() < 2:
        raise ParameterError(f"only {feasible.sum()} of the n={n} replicas "
                             f"admit a plug-in (z, w); need at least 2")

    branches = []
    for zc, wc, pc in mixing.atoms:
        members = feasible & (z_lat == zc) & (w_lat == wc)
        if members.sum() >= 2:
            bm, _ = _mean_se(lhs[members])
            br, _ = _mean_se(rhs[members])
            branches.append({"z": zc, "w": wc, "p": pc,
                             "n": int(members.sum()),
                             "lhs_mean": bm, "rhs_mean": br})
    return _ibp_report(
        name, lhs[feasible], rhs[feasible], None, _slack(route, eps), n, t0,
        {"kernel": "plug-in" if fixed_zw is None else "fixed", "route": route,
         "solver_failure_fraction": float(1.0 - feasible.mean()),
         "branches": branches})


def check_transform_identity(n_tuples: int, rng,
                             name: str = "transform-identity") -> CheckReport:
    """Deterministic identity between three closed forms of the joint
    Laplace functional.

    For random (g, h, z, rho) the joint transform must equal (i) the
    Gamma-measure transform at 1 - e^-g + h and (ii) the composition
    that mirrors the posterior factorization: the Gamma transform of h
    at z/(1+z) times the point-process transform at g + log(1 + z h).
    lhs/rhs report the worst relative deviations of (i)/(ii).
    """
    n_tuples = _json_int(n_tuples, "n_tuples")
    if n_tuples < 1:
        raise ParameterError(f"need n_tuples >= 1, got {n_tuples}")
    t0 = time.perf_counter()
    rng = as_generator(rng)
    worst_gp = 0.0
    worst_composition = 0.0
    for _ in range(n_tuples):
        n_cells = int(rng.integers(1, IDENTITY_MAX_CELLS + 1))
        window = Window.interval(0.0, 1.0, n_cells)
        rho = ReferenceMeasure(window, rng.uniform(0.0, 3.0, n_cells))
        z = float(rng.uniform(0.05, 0.95))
        g = TestFunction(window, rng.uniform(0.0, 4.0, n_cells))
        h = TestFunction(window, rng.uniform(0.0, 4.0, n_cells))

        joint = joint_laplace(g, h, z, rho)
        effective = TestFunction(window, -np.expm1(-g.values) + h.values)
        via_gp = laplace_gp(effective, z, rho)
        z_post = z / (1.0 + z)
        prior_factor = laplace_gp(h, z_post, rho)
        tilted = TestFunction(window, g.values + np.log1p(z * h.values))
        composition = prior_factor.log_value + \
            laplace_polya(tilted, z, rho).log_value
        worst_gp = max(worst_gp, abs(via_gp.log_value - joint.log_value)
                       / max(abs(joint.log_value), 1e-300))
        worst_composition = max(
            worst_composition,
            abs(composition - joint.log_value)
            / max(abs(joint.log_value), 1e-300))
    passed = worst_gp < IDENTITY_TOL and worst_composition < IDENTITY_TOL
    return CheckReport(
        name=name, lhs=worst_gp, lhs_stderr=0.0, rhs=worst_composition,
        rhs_stderr=0.0, exact=0.0, z_score=0.0 if passed else math.inf,
        passed=passed, n=n_tuples, runtime=time.perf_counter() - t0,
        details={"tolerance": IDENTITY_TOL, "comparison": "max relative "
                 "deviation of log transforms"})
