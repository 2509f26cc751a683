"""The benchmark's three workloads: inputs, operations and output gates.

A workload turns the benchmark seed into library inputs (configs,
parameters, test functions and RNG streams); the library sees nothing
else. ``ops()`` lists the operations of one pass. Each operation's
``run`` calls into the library and returns its raw output; its
``judge`` checks that output after the pass, outside any timing or
tracing, and returns a ``Result``: a digest of the output, exact counts
taken from it, and the list of gate errors (empty when correct).

Parameters are fixed and only the RNG streams and test functions
follow the seed, so every seed does the same amount of work in
expectation and a pass repeats exactly under the same seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from polyasum import cli, estimators, samplers, verify
from polyasum.samplers import MixingMeasure, PolyaParams, RngSeed
from polyasum.state_space import (AtomicMeasure, ReferenceMeasure,
                                  TestFunction, Window)

EPS = 1e-6
# The library's slack for truncated Gamma-measure routes (EPS_ALLOWANCE).
TRUNCATION_SLACK = 10.0 * EPS
# The checks' own verdict is 3 sigma, which a correct library fails on
# about 0.3% of comparisons at a random seed; those verdicts are counted
# (verify.checks_failed), not treated as wrong output.  The gate asks
# for 5 sigma (about 6e-7 per comparison), which a broken sampler still
# fails at these replica counts.
GATE_SIGMA = 5.0
CLOSED_FORM_RTOL = 1e-12
# Gamma-route jump sizes must reproduce their arrival times to this
# relative accuracy: far above the rounding of the sampler (about 1e-13
# in a jump size), far below any error in e1_inverse that matters.
GAMMA_RTOL = 1e-9
WARM_N = 100  # smallest n the checks accept


@dataclass
class Result:
    digest: str = ""
    counts: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


@dataclass
class Op:
    name: str
    replicas: int
    run: object    # () -> raw output
    judge: object  # raw output -> Result


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _arrays_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _input_rng(seed: int, workload: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload])


# ---------------------------------------------------------------------------
# Closed forms, written out here so the gate does not trust transforms.py
# ---------------------------------------------------------------------------

def _joint_laplace(g, h, z, masses) -> float:
    effective = -np.expm1(-g) + h
    return math.exp(-float(np.dot(masses, np.log1p(z * effective / (1 - z)))))


def _polya_campbell(f, g, z, masses) -> float:
    lap = math.exp(-float(np.dot(
        masses, np.log1p(z * -np.expm1(-g) / (1 - z)))))
    decay = np.exp(-g)
    return lap * float(np.dot(masses, z * f * decay / (1 - z * decay)))


def judge_report(report, exact, slack) -> Result:
    """Gate for a Monte Carlo CheckReport.

    ``passed`` must be a bool, no number may be NaN or infinite,
    ``exact`` must equal the closed form (None where there is none),
    and both sides must lie within GATE_SIGMA standard errors of the
    closed form and of each other.
    """
    errors = []
    if not isinstance(report.passed, (bool, np.bool_)):
        errors.append(f"passed is {report.passed!r}, not a bool")
    values = (report.lhs, report.lhs_stderr, report.rhs, report.rhs_stderr,
              report.z_score)
    if not all(math.isfinite(v) for v in values):
        errors.append(f"non-finite estimate in {values}")
    if exact is None:
        if report.exact is not None:
            errors.append(f"exact is {report.exact}, expected None")
    else:
        if report.exact is None or not math.isclose(
                report.exact, exact, rel_tol=CLOSED_FORM_RTOL, abs_tol=0.0):
            errors.append(f"exact {report.exact!r} != closed form {exact!r}")
        for side, est, se in (("lhs", report.lhs, report.lhs_stderr),
                              ("rhs", report.rhs, report.rhs_stderr)):
            if not abs(est - exact) <= GATE_SIGMA * se + slack:
                errors.append(f"{side} {est} is more than {GATE_SIGMA} se "
                              f"({se}) from the closed form {exact}")
    if not abs(report.z_score) <= GATE_SIGMA:
        errors.append(f"|z_score| {abs(report.z_score)} > {GATE_SIGMA}")
    return _report_result(report, errors)


def _report_result(report, errors) -> Result:
    doc = json.dumps(report.to_dict(include_runtime=False), sort_keys=True)
    return Result(_sha(doc.encode()),
                  {"checks_failed": int(not report.passed)}, errors)


# ---------------------------------------------------------------------------
# verify-fk
# ---------------------------------------------------------------------------

class VerifyFK:
    """Conjugacy and Cox-route Polya IBP checks over three z values.

    Both checks draw Ferguson-Klass Gamma measures, so nearly all of
    their time goes to ``e1_inverse``.
    """

    name = "verify-fk"
    zs = (0.3, 0.5, 0.7)
    n = 1000
    n_tuples = 50

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        gen = _input_rng(seed, 1)
        window = Window.interval(0.0, 1.0, 4)
        self.rho = ReferenceMeasure.uniform(window, 2.0)
        self.f = TestFunction(window, gen.uniform(0.5, 1.5, 4))
        self.g = TestFunction(window, gen.uniform(0.0, 1.5, 4))
        self.h = TestFunction(window, gen.uniform(0.0, 1.5, 4))

    def ops(self, n=None, n_tuples=None):
        n = n or self.n
        masses = self.rho.cell_masses
        f, g, h = self.f.values, self.g.values, self.h.values
        out = []
        for k, z in enumerate(self.zs):
            params = PolyaParams(z, self.rho)
            conj = RngSeed(self.seed, stream=2 * k)
            cox = RngSeed(self.seed, stream=2 * k + 1)
            out.append(Op(
                f"conjugacy-z{z}", n,
                lambda p=params, r=conj: verify.check_conjugacy(
                    p, self.g, self.h, EPS, n, r),
                lambda rep, e=_joint_laplace(g, h, z, masses): judge_report(
                    rep, e, TRUNCATION_SLACK)))
            out.append(Op(
                f"polya-ibp-cox-z{z}", n,
                lambda p=params, r=cox: verify.check_polya_ibp(
                    p, "cox", self.f, self.g, n, r, eps=EPS),
                lambda rep, e=_polya_campbell(f, g, z, masses): judge_report(
                    rep, e, TRUNCATION_SLACK)))
        tuples = n_tuples or self.n_tuples
        out.append(Op(
            "transform-identity", 0,
            lambda: verify.check_transform_identity(
                tuples, RngSeed(self.seed, stream=6)),
            self._judge_identity))
        return out

    @staticmethod
    def _judge_identity(report) -> Result:
        # deterministic closed forms: the check's own verdict is the gate
        errors = []
        if report.passed is not True or report.exact != 0.0 or not (
                0.0 <= report.lhs < 1e-12 and 0.0 <= report.rhs < 1e-12):
            errors.append(f"transform identity failed: passed "
                          f"{report.passed!r}, exact {report.exact!r}, "
                          f"deviations {report.lhs}, {report.rhs}")
        return _report_result(report, errors)

    def warm_ops(self):
        return self.ops(n=WARM_N, n_tuples=2)

    def prepare(self):
        pass


# ---------------------------------------------------------------------------
# simulate-cli
# ---------------------------------------------------------------------------

WINDOW_DOC = {"schema_version": 1, "mode": "box", "bounds": [[0.0, 1.0]],
              "cells": [4]}


def reference_direct(seed: int, z: float, mass: float, n_cells: int, n: int):
    """Bytes of ``polyasum simulate`` (route direct, uniform rho on the
    unit interval) as the seed commit writes them, rebuilt with numpy
    and json alone.  Returns (jsonl bytes, csv bytes)."""
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    masses = np.full(n_cells, mass / n_cells)
    lam = -math.log1p(-z) * float(masses.sum())
    clusters = rng.poisson(lam, size=n)
    total = int(clusters.sum())
    rep = np.repeat(np.arange(n), clusters)
    cells = rng.choice(n_cells, size=total, p=masses / masses.sum())
    # lo + (cell index + U) * width, as Window.uniform_in_cells computes it
    x = 0.0 + (cells % n_cells + rng.random(total)) * (1.0 / n_cells)
    mult = rng.logseries(z, size=total)
    bounds = np.searchsorted(rep, np.arange(n + 1))
    window = {"bounds": [[0.0, 1.0]], "cells": [n_cells], "mode": "box",
              "schema_version": 1}
    lines, counts = [], []
    for i in range(n):
        merged = {}
        for r in range(bounds[i], bounds[i + 1]):
            merged[float(x[r])] = merged.get(float(x[r]), 0) + int(mult[r])
        counts.append(sum(merged.values()))
        lines.append(json.dumps({
            "points": [{"loc": [loc], "mult": k} for loc, k in merged.items()],
            "schema_version": 1, "window": window}, sort_keys=True) + "\n")
    ks, freq = np.unique(np.asarray(counts), return_counts=True)
    csv_text = "count,frequency\r\n" + "".join(
        f"{int(k)},{int(c)}\r\n" for k, c in zip(ks, freq))
    return "".join(lines).encode(), csv_text.encode()


class SimulateCLI:
    """In-process ``polyasum simulate`` writing files: direct jsonl,
    direct csv and gamma jsonl.  Time goes to batch-to-object
    conversion, ``to_dict``, JSON encoding and the write."""

    name = "simulate-cli"
    z = 0.5
    mass = 2.0
    n_direct_jsonl = 40000
    n_direct_csv = 20000
    n_gamma = 400

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.configs = {}
        for route in ("direct", "gamma"):
            path = os.path.join(workdir, f"{route}.json")
            with open(path, "w") as fh:
                json.dump({"command": "simulate", "window": WINDOW_DOC,
                           "rho": {"uniform_mass": self.mass}, "z": self.z,
                           "route": route, "eps": EPS}, fh)
            self.configs[route] = path
        self.expected = None

    def prepare(self):
        """Reference digests for the direct-route outputs (not timed)."""
        self.expected = {}
        for fmt, n in (("jsonl", self.n_direct_jsonl),
                       ("csv", self.n_direct_csv)):
            jsonl, csv_bytes = reference_direct(self.seed, self.z, self.mass,
                                                4, n)
            self.expected[fmt] = _sha(jsonl if fmt == "jsonl" else csv_bytes)

    def _simulate(self, route, fmt, n, tag):
        out = os.path.join(self.dir, f"{tag}.{fmt}")
        rc = cli.main(["simulate", "--config", self.configs[route],
                       "--seed", str(self.seed), "--n", str(n),
                       "--format", fmt, "--out", out])
        return rc, out

    def ops(self, scale=1.0):
        specs = (("direct-jsonl", "direct", "jsonl", self.n_direct_jsonl),
                 ("direct-csv", "direct", "csv", self.n_direct_csv),
                 ("gamma-jsonl", "gamma", "jsonl", self.n_gamma))
        ops = []
        for tag, route, fmt, n in specs:
            n = max(int(n * scale), 1)
            ops.append(Op(
                tag, n,
                lambda r=route, f=fmt, n=n, t=tag: self._simulate(r, f, n, t),
                lambda raw, r=route, f=fmt, n=n: self._judge(raw, r, f, n)))
        return ops

    def warm_ops(self):
        return self.ops(scale=0.001)

    def _judge(self, raw, route, fmt, n) -> Result:
        rc, path = raw
        with open(path, "rb") as fh:
            data = fh.read()
        lines = data.splitlines()
        records = len(lines) - 1 if fmt == "csv" else len(lines)
        result = Result(_sha(data), {"cli.records_emitted": records,
                                     "cli.bytes_written": len(data)})
        if rc != 0:
            result.errors.append(f"simulate exited {rc}")
        if route == "direct":
            expected = self.expected[fmt]
            if result.digest != expected:
                result.errors.append(f"direct {fmt} sha256 {result.digest} "
                                     f"!= reference {expected}")
        else:
            errors, weights = _gamma_structure(lines, n)
            result.errors.extend(errors or _gamma_values(
                weights, self.seed, self.z, self.mass))
        return result


def _gamma_structure(lines, n):
    """One record per replica, finite positive weights, and a lossless
    ``from_dict``/``to_dict`` round trip.  Returns (errors, the weights
    of each record in file order)."""
    errors, weights = [], []
    if len(lines) != n:
        errors.append(f"{len(lines)} records for {n} replicas")
    for i, line in enumerate(lines):
        doc = json.loads(line)
        w = [a["weight"] for a in doc.get("atoms", ())]
        weights.append(w)
        if not w or not all(isinstance(v, float) and math.isfinite(v)
                            and v > 0 for v in w):
            errors.append(f"record {i}: weights must be finite and > 0")
        elif AtomicMeasure.from_dict(doc).to_dict() != doc:
            errors.append(f"record {i}: from_dict round trip is lossy")
        if errors:
            break
    return errors, weights


def e1_reference(x):
    """Exponential integral E1(x) for x > 0, written here so that the
    gamma gate does not trust expint.py: the power series (39 terms)
    up to x = 1, and above it the continued fraction (modified Lentz),
    iterated until a step changes nothing at double precision."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= 1.0
    xs = x[small]
    total, term = np.zeros_like(xs), np.ones_like(xs)
    for k in range(1, 40):
        term *= -xs / k
        total -= term / k
    out[small] = total - 0.5772156649015329 - np.log(xs)
    xl = x[~small]
    b = xl + 1.0
    c = np.full_like(xl, 1e300)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, 1000):
        b = b + 2.0
        d = 1.0 / (-i * i * d + b)
        c = b - i * i / c
        step = c * d
        h *= step
        if np.all(np.abs(step - 1.0) < 1e-16):
            break
    out[~small] = h * np.exp(-xl)
    return out


REFERENCE_REPLICAS = 2000
REFERENCE_E1_ARGS = np.geomspace(1e-3, 30.0, 10000)
REFERENCE_CLUSTERS = 125.0  # mean records per replica of the array part


def reference_work():
    """The benchmark's yardstick for the host's speed: a fixed amount of
    work that calls no polyasum code, so no change to the library moves
    it. It does the three kinds of work the workloads spend their time
    in: dict building and JSON encoding (``reference_direct`` at a fixed
    seed), numpy loops over small arrays (``e1_reference``), and
    sampling, sorting and counting over arrays of a few hundred thousand
    records, as the direct route does at a large reference mass."""
    reference_direct(0, 0.5, 2.0, 4, REFERENCE_REPLICAS)
    e1_reference(REFERENCE_E1_ARGS)
    rng = np.random.default_rng(0)
    rep = np.repeat(np.arange(1000), rng.poisson(REFERENCE_CLUSTERS, 1000))
    cell = rng.choice(8, size=rep.size)
    mult = rng.logseries(0.5, size=rep.size)
    _, inverse = np.unique(rep * 8 + cell, return_inverse=True)
    np.bincount(inverse, weights=mult)
    np.bincount(rep, weights=mult, minlength=1000)


def reference_arrivals(seed: int, z: float, mass: float, n: int):
    """Poisson arrival times of the Ferguson-Klass draws of ``polyasum
    simulate`` (route gamma, uniform rho, eps = EPS), rebuilt from the
    same RNG stream with numpy alone.  Returns (jumps per replica,
    arrivals below the truncation level in replica order, the first
    arrival beyond it per replica)."""
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    a = (1.0 - z) / z
    r_eps = -math.log1p(-EPS * a / mass) / a
    lam_eps = mass * float(e1_reference([a * r_eps])[0])
    jumps = rng.poisson(lam_eps, size=n)
    below = (1.0 - rng.random(size=int(jumps.sum()))) * lam_eps
    last = lam_eps + rng.exponential(size=n)
    return jumps, below, last


def _gamma_values(weights, seed, z, mass):
    """Each record holds its jump sizes r_k in arrival order (the last
    one beyond the truncation level), then the remainder atom.  With
    a = (1-z)/z the jumps must solve m E1(a r_k) = Gamma_k for the
    rebuilt arrival times, and the remainder must equal
    (m/a)(1 - e^(-a r)) of the last jump, both to GAMMA_RTOL."""
    jumps, below, last = reference_arrivals(seed, z, mass, len(weights))
    sizes = np.array([len(w) for w in weights])
    if not np.array_equal(sizes, jumps + 2):
        return ["atom counts differ from the rebuilt Poisson jump counts"]
    flat = np.array([v for w in weights for v in w])
    remainder = np.zeros(flat.size, dtype=bool)
    remainder[np.cumsum(sizes) - 1] = True
    radii, rem = flat[~remainder], flat[remainder]
    gammas = np.empty(radii.size)
    is_last = np.zeros(radii.size, dtype=bool)
    is_last[np.cumsum(jumps + 1) - 1] = True
    gammas[is_last], gammas[~is_last] = last, below
    a = (1.0 - z) / z
    errors = []
    dev = np.abs(mass * e1_reference(a * radii) - gammas) / gammas
    if not dev.max() <= GAMMA_RTOL:
        errors.append(f"jump sizes miss m E1(a r) = Gamma by up to "
                      f"{dev.max():.3g} relative")
    expected = (mass / a) * -np.expm1(-a * radii[is_last])
    dev = np.abs(rem - expected) / expected
    if not dev.max() <= GAMMA_RTOL:
        errors.append(f"remainder atoms miss (m/a)(1 - e^(-a r)) by up to "
                      f"{dev.max():.3g} relative")
    return errors


# ---------------------------------------------------------------------------
# mixture-estimate
# ---------------------------------------------------------------------------

class MixtureEstimate:
    """Two-atom mixture at large reference mass: direct-route sampling,
    (z, w) recovery and the plug-in mixed IBP check.  Few replicas carry
    thousands of records each; no Gamma measure and no serialization."""

    name = "mixture-estimate"
    atoms = ((0.3, 1.0, 0.5), (0.7, 1.0, 0.5))
    sizes = ((1e3, 1000), (1e4, 100))  # (rho0 mass, replicas)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        window = Window.interval(0.0, 1.0, 8)
        self.f = TestFunction.constant(window, 1.0)
        self.g = TestFunction.constant(window, 0.0)
        self.mixings = [MixingMeasure(ReferenceMeasure.uniform(window, m),
                                      self.atoms) for m, _ in self.sizes]

    def _sample_solve(self, mixing, mass, n, rng):
        batch, z_lat, w_lat = samplers.sample_mixed_batch(
            mixing, "direct", EPS, n, rng)
        u = batch.counts() / mass
        v = batch.distinct_counts() / mass
        z, w, feasible = estimators.solve_zw_batch(u, v)
        return batch, z_lat, w_lat, u, v, z, w, feasible

    def ops(self, scale=1.0):
        out = []
        for k, ((mass, n), mixing) in enumerate(zip(self.sizes,
                                                    self.mixings)):
            n = max(int(n * scale), WARM_N)
            out.append(Op(
                f"sample-solve-m{mass:g}", n,
                lambda m=mixing, s=mass, n=n, r=RngSeed(self.seed, 2 * k):
                    self._sample_solve(m, s, n, r),
                self._judge_solve))
            out.append(Op(
                f"mixed-ibp-m{mass:g}", n,
                lambda m=mixing, n=n, r=RngSeed(self.seed, 2 * k + 1):
                    verify.check_mixed_ibp(m, self.f, self.g, n, r),
                self._judge_mixed))
        return out

    def warm_ops(self):
        return self.ops(scale=0.0)

    def prepare(self):
        pass

    def _judge_solve(self, raw) -> Result:
        batch, z_lat, w_lat, u, v, z, w, feasible = raw
        errors = []
        if not set(np.unique(z_lat)) <= {a[0] for a in self.atoms} or \
                not np.all(w_lat == 1.0):
            errors.append("latent (z, w) outside the mixing atoms")
        if not np.all(u >= v):
            errors.append("a replica has fewer points than distinct points")
        zero = (u == 0) & (v == 0)
        solvable = (v > 0) & (u > v)
        if not np.array_equal(feasible, zero | solvable):
            errors.append("feasible flags disagree with u > v > 0")
        zs, ws = z[solvable], w[solvable]
        if not (np.all((zs > 0) & (zs < 1)) and np.all(ws > 0)):
            errors.append("feasible estimates outside 0 < z < 1, w > 0")
        else:
            scale = np.maximum(1.0, u[solvable])
            res_u = np.abs(ws * zs / (1 - zs) - u[solvable]) / scale
            res_v = np.abs(-ws * np.log1p(-zs) - v[solvable]) / scale
            if max(res_u.max(initial=0.0), res_v.max(initial=0.0)) > 1e-9:
                errors.append("estimates do not solve the density equations")
        if np.any(np.isnan(z[feasible])) or \
                not np.all(np.isnan(z[~feasible])):
            errors.append("NaN marking disagrees with the feasible flags")
        digest = _arrays_digest(batch.rep, batch.cell, batch.mult,
                                batch.coords, z_lat, w_lat, z, w, feasible)
        return Result(digest, {
            "records": int(batch.rep.size),
            "infeasible": int(feasible.size - feasible.sum())}, errors)

    @staticmethod
    def _judge_mixed(report) -> Result:
        result = judge_report(report, None, 0.0)
        frac = report.details.get("solver_failure_fraction")
        if not (isinstance(frac, float) and 0.0 <= frac <= 1.0):
            result.errors.append(f"solver_failure_fraction {frac!r}")
        return result


WORKLOADS = {w.name: w for w in (VerifyFK, SimulateCLI, MixtureEstimate)}
