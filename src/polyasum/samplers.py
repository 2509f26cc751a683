"""Random generation of Poisson processes, Gamma random measures, and
Polya sum processes.

Three routes produce Polya samples:

* ``direct`` -- a Poisson number of clusters placed i.i.d. from the
  normalized reference measure, each carrying an independent
  logarithmic-series multiplicity: numpy's ``logseries`` draws bit for
  bit, replayed over buffers of doubles for large requests
  (``state_space._logseries``).  Exact; validated against the
  closed-form Laplace functional.
* ``cox`` -- draw a Gamma random measure by truncated inverse-Levy
  (Ferguson-Klass) and then a Poisson process with that atomic
  intensity.  Exact up to the documented O(eps) truncation.
* posterior draws combine a Gamma measure over the prior reference
  measure with independent Gamma weights at the observed points.

Every sampler has a single-draw form returning state_space objects and
a ``*_batch`` form returning flat record arrays (one row per located
point or atom) for Monte Carlo at scale.  The samplers here only draw
columns: state_space builds the batches and merges the records of
each location where they are drawn, so each location of a sampled
configuration or measure is one record; the Cox and mixed samplers
inherit that from the samplers they call.  Samplers are
deterministic functions of (inputs, rng state); parallel use should
give each replica stream its own :class:`RngSeed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expint import e1, e1_inverse
from .state_space import (AtomicBatch, AtomicMeasure, ConfigurationBatch,
                          InvalidMeasureError, PointConfiguration,
                          ReferenceMeasure, Window, _categorical,
                          _json_float, _logseries, _merge, _records, _tile)
from .transforms import ParameterError, _check_z_half_open, _check_z_open


@dataclass(frozen=True)
class PolyaParams:
    """The parameter pair (z, rho); carries a = (1-z)/z for z > 0."""

    z: float
    rho: ReferenceMeasure

    def __post_init__(self):
        object.__setattr__(self, "z", _check_z_half_open(self.z))

    @property
    def a(self) -> float:
        if self.z == 0.0:
            raise ParameterError("a = (1-z)/z is undefined at z = 0")
        return (1.0 - self.z) / self.z

    @property
    def window(self) -> Window:
        return self.rho.window


def _check_zw(z, w) -> tuple:
    """A mixing atom's (z, w) as floats: z in [0, 1) and w finite and
    >= 0, or :class:`ParameterError` (``InvalidMeasureError`` for a
    string or a bool)."""
    z, w = _check_z_half_open(z), _json_float(w, "w")
    if not (math.isfinite(w) and w >= 0):
        raise ParameterError(f"need w finite >= 0, got w={w}")
    return z, w


@dataclass(frozen=True)
class MixingMeasure:
    """A discrete prior over (z, w) pairs scaling a base measure rho0.

    Atoms are (z, w, p) with probabilities summing to 1; (0, 0) is the
    admissible degenerate atom producing empty configurations.
    """

    rho0: ReferenceMeasure
    atoms: tuple  # ((z, w, p), ...)

    def __post_init__(self):
        cleaned = []
        for z, w, p in self.atoms:
            z, w = _check_zw(z, w)
            p = _json_float(p, "p")
            if not (math.isfinite(p) and p > 0):
                raise ParameterError(f"need p finite > 0, got p={p}")
            cleaned.append((z, w, p))
        if abs(sum(p for _, _, p in cleaned) - 1.0) > 1e-12:
            raise ParameterError("mixing probabilities must sum to 1")
        object.__setattr__(self, "atoms", tuple(cleaned))

    @property
    def window(self) -> Window:
        return self.rho0.window


@dataclass(frozen=True)
class RngSeed:
    """Reproducible RNG root: same (seed, stream) -> same sample path."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


def as_generator(rng) -> np.random.Generator:
    """Accept an RngSeed, an integer seed, or a ready Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngSeed):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return RngSeed(int(rng)).generator()
    raise TypeError(f"cannot build a Generator from {rng!r}")


# ---------------------------------------------------------------------------
# Poisson processes
# ---------------------------------------------------------------------------

def sample_poisson_batch(intensity, n: int, rng) -> ConfigurationBatch:
    """n independent Poisson configurations driven by ``intensity``.

    Diffuse mass produces simple points uniform within their cells;
    each atom (x, w) receives a Poisson(w) multiplicity at exactly x.
    """
    rng = as_generator(rng)
    if not isinstance(intensity, (AtomicMeasure, ReferenceMeasure)):
        raise TypeError("intensity must be a ReferenceMeasure or AtomicMeasure")
    window, atoms = intensity.window, intensity.atoms
    diffuse = (intensity.cell_masses if isinstance(intensity, ReferenceMeasure)
               else np.zeros(window.n_cells))

    parts = []
    if diffuse.sum() > 0:
        counts = rng.poisson(lam=diffuse, size=(n, diffuse.size))
        rep_idx, cell_idx = np.nonzero(counts)
        k = counts[rep_idx, cell_idx]
        rep = np.repeat(rep_idx, k)
        cell = np.repeat(cell_idx, k)
        coords = (cell.copy() if window.mode == "sites"
                  else window.uniform_in_cells(cell, rng))
        parts.append((rep, cell, np.ones(rep.size, dtype=np.int64), coords))
    live = tuple((loc, w) for loc, w in atoms if w > 0)
    if live:
        hits = _poisson_from_atomic_batch(
            AtomicBatch(window, n, *_tile(window, live, n)), rng)
        parts.append((hits.rep, hits.cell, hits.mult, hits.coords))
    # on a box each atom is hit at most once per replica
    return _merge(_records(ConfigurationBatch, window, n, parts))


def sample_poisson(intensity, rng) -> PointConfiguration:
    """One Poisson configuration; see :func:`sample_poisson_batch`."""
    return sample_poisson_batch(intensity, 1, rng).to_configurations()[0]


def _poisson_from_atomic_batch(kappa: AtomicBatch, rng) -> ConfigurationBatch:
    """Poisson configurations directed by a batch of atomic intensities."""
    rng = as_generator(rng)
    k = rng.poisson(lam=kappa.weight)
    hit = k > 0
    return ConfigurationBatch(
        kappa.window, kappa.n, kappa.rep[hit], kappa.cell[hit],
        k[hit].astype(np.int64), kappa.coords[hit])


# ---------------------------------------------------------------------------
# Gamma random measures (truncated inverse-Levy)
# ---------------------------------------------------------------------------

def sample_gamma_measure_batch(params: PolyaParams, eps: float, n: int,
                               rng) -> AtomicBatch:
    """n truncated Ferguson-Klass draws of the Gamma random measure.

    With a = (1-z)/z and m the total reference mass, jump sizes solve
    m E1(a r_k) = Gamma_k for unit-rate Poisson arrival times Gamma_k,
    which is the inverse of the Levy tail m int_r^inf s^-1 e^-as ds.
    Generation stops at the first jump whose expected remaining mass
    (m/a)(1 - e^(-a r)) falls below eps, and that expected remainder is
    added as one extra atom, so the total mass is unbiased while the
    atom count is truncated.  Locations are i.i.d. rho/m, atoms of rho
    included in proportion.
    """
    if not eps > 0:
        raise ParameterError(f"truncation threshold must be > 0, got {eps}")
    rng = as_generator(rng)
    window = params.window
    m = params.rho.total_mass
    if params.z == 0.0 or m == 0.0:
        return _records(AtomicBatch, window, n)
    a = params.a
    mean_total = m / a

    if eps >= mean_total:
        # even the full process has expected mass below the threshold:
        # emit only the remainder atom
        weights = np.full(n, mean_total)
        reps = np.arange(n, dtype=np.int64)
        cells, coords, _, _ = params.rho.sample_locations(n, rng)
        return AtomicBatch(window, n, reps, cells, weights, coords)

    r_eps = -math.log1p(-eps * a / m) / a
    lam_eps = m * e1(a * r_eps)
    n_jumps = rng.poisson(lam_eps, size=n)
    total = int(n_jumps.sum())
    # arrival times below lam_eps are i.i.d. uniforms; the first
    # arrival beyond is lam_eps + Exp(1) by memorylessness.  The
    # (0, 1] form keeps arrival times strictly positive.
    gammas_below = (1.0 - rng.random(size=total)) * lam_eps
    gamma_last = lam_eps + rng.exponential(size=n)
    rep_below = np.repeat(np.arange(n, dtype=np.int64), n_jumps)

    radii_below = e1_inverse(gammas_below / m) / a
    radii_last = e1_inverse(gamma_last / m) / a
    remainder = (m / a) * (-np.expm1(-a * radii_last))

    reps = np.concatenate([rep_below, np.arange(n, dtype=np.int64),
                           np.arange(n, dtype=np.int64)])
    weights = np.concatenate([radii_below, radii_last, remainder])
    # at small reference mass e1_inverse underflows to 0 for late
    # arrivals; such atoms carry no mass, so dropping them leaves the
    # law unchanged and keeps every replica a valid measure
    live = weights > 0
    reps, weights = reps[live], weights[live]
    cells, coords, hit, atom = params.rho.sample_locations(weights.size, rng)
    return _merge(AtomicBatch(window, n, reps, cells, weights, coords),
                  hit, atom)


def sample_gamma_measure(params: PolyaParams, eps: float, rng) -> AtomicMeasure:
    """One truncated Gamma-measure draw; see the batch form for the
    algorithm.  z = 0 yields the zero measure."""
    return sample_gamma_measure_batch(params, eps, 1, rng).to_measures()[0]


# ---------------------------------------------------------------------------
# Polya sum process samplers
# ---------------------------------------------------------------------------

def sample_polya_direct_batch(params: PolyaParams, n: int,
                              rng) -> ConfigurationBatch:
    """n Polya configurations by the distinct-atom construction.

    A Poisson(-log(1-z) * m) number of cluster locations is drawn
    i.i.d. from rho/m and each receives an independent
    logarithmic-series(z) multiplicity, ``rng.logseries(z, size)``'s
    draws bit for bit, the generator left in the same state
    (``state_space._logseries``).  This reproduces the process's
    Laplace functional exactly (verified in the test suite, since it is
    a construction rather than a definition).
    """
    rng = as_generator(rng)
    window = params.window
    z = params.z
    m = params.rho.total_mass
    if z == 0.0 or m == 0.0:
        return _records(ConfigurationBatch, window, n)
    lam = -math.log1p(-z) * m
    n_clusters = rng.poisson(lam, size=n)
    rep = np.repeat(np.arange(n, dtype=np.int64), n_clusters)
    cells, coords, hit, atom = params.rho.sample_locations(rep.size, rng)
    mult = _logseries(z, rep.size, rng)
    return _merge(ConfigurationBatch(window, n, rep, cells, mult, coords),
                  hit, atom)


def sample_polya_direct(params: PolyaParams, rng) -> PointConfiguration:
    """One Polya configuration by the distinct-atom construction."""
    return sample_polya_direct_batch(params, 1, rng).to_configurations()[0]


def sample_polya_cox_batch(params: PolyaParams, eps: float, n: int,
                           rng) -> ConfigurationBatch:
    """n Polya configurations via the Cox representation: draw a Gamma
    random measure, then a Poisson process with that intensity, whose
    hits are as unique per replica as the measure's merged atoms."""
    _check_z_open(params.z)
    rng = as_generator(rng)
    kappa = sample_gamma_measure_batch(params, eps, n, rng)
    return _poisson_from_atomic_batch(kappa, rng)


def sample_polya_cox(params: PolyaParams, eps: float, rng) -> PointConfiguration:
    """One Polya configuration via the Cox route."""
    return sample_polya_cox_batch(params, eps, 1, rng).to_configurations()[0]


ROUTES = ("direct", "cox")  # the Polya routes of the checks and mixed draws


def _route_sampler(route: str):
    """The batch sampler ``(params, eps, n, rng)`` of a route in ROUTES;
    any other route raises :class:`ParameterError`, drawing nothing."""
    if route == "direct":
        return lambda params, eps, n, rng: sample_polya_direct_batch(
            params, n, rng)
    if route == "cox":
        return sample_polya_cox_batch
    raise ParameterError(f"route must be 'direct' or 'cox', got {route!r}")


# ---------------------------------------------------------------------------
# Posterior sampling
# ---------------------------------------------------------------------------

def sample_posterior_batch(mu: PointConfiguration, params: PolyaParams,
                           eps: float, n: int, rng) -> AtomicBatch:
    """n draws from the posterior law of the directing measure given mu.

    The posterior is a Gamma random measure with z' = z/(1+z) over
    rho + mu, realized as a convolution: an independent Gamma measure
    over rho plus, at each observed point (x, k), an independent
    Gamma(k, a+1) weight.
    """
    mus = ConfigurationBatch(mu.window, n, *_tile(mu.window, mu.points, n))
    return _posterior_from_config_batch(mus, params, eps, rng)


def sample_posterior(mu: PointConfiguration, params: PolyaParams, eps: float,
                     rng) -> AtomicMeasure:
    """One posterior draw; see the batch form."""
    return sample_posterior_batch(mu, params, eps, 1, rng).to_measures()[0]


def _posterior_from_config_batch(mus: ConfigurationBatch, params: PolyaParams,
                                 eps: float, rng) -> AtomicBatch:
    """Per-replica posterior draws for a whole batch of observations.

    Used by the conjugacy checks: replica i of the output is a draw
    from the posterior given replica i of ``mus``.
    """
    _check_z_open(params.z)
    rng = as_generator(rng)
    if mus.window != params.window:
        raise InvalidMeasureError("observation and parameters share no window")
    z_post = params.z / (1.0 + params.z)
    a_post = params.a + 1.0
    diffuse = sample_gamma_measure_batch(
        PolyaParams(z_post, params.rho), eps, mus.n, rng)
    weights = rng.gamma(shape=mus.mult.astype(float), scale=1.0 / a_post)
    batch = _records(AtomicBatch, mus.window, mus.n, [
        (diffuse.rep, diffuse.cell, diffuse.weight, diffuse.coords),
        (mus.rep, mus.cell, weights, mus.coords)])
    # an observed point on an atom of rho is one atom of rho + mu
    return _merge(batch, *params.rho._atoms_at(batch.coords))


# ---------------------------------------------------------------------------
# Doubly stochastic mixtures
# ---------------------------------------------------------------------------

def sample_mixed_batch(mixing: MixingMeasure, route: str, eps: float, n: int,
                       rng):
    """n draws from the mixed Polya sum process.

    Each replica first draws latent parameters (z_i, w_i) from the
    mixing measure, then a Polya configuration with (z_i, w_i rho0) by
    the requested route.  Returns (batch, z_latent, w_latent) so
    estimator validation can see the truth.
    """
    sample = _route_sampler(route)
    rng = as_generator(rng)
    z_atom, w_atom, probs = np.array(mixing.atoms).T
    comp = _categorical(probs / probs.sum(), n, rng)
    z_lat, w_lat = z_atom[comp], w_atom[comp]

    parts = []
    for c, (z, w, _) in enumerate(mixing.atoms):
        members = np.flatnonzero(comp == c)
        if members.size == 0 or z == 0.0 or w == 0.0:
            continue
        sub = sample(PolyaParams(z, mixing.rho0.scale(w)), eps,
                     members.size, rng)
        parts.append((members[sub.rep], sub.cell, sub.mult, sub.coords))
    batch = _records(ConfigurationBatch, mixing.window, n, parts)
    return batch, z_lat, w_lat


def sample_mixed(mixing: MixingMeasure, route: str, eps: float, rng):
    """One mixed draw: (configuration, (z, w)) with the latent pair."""
    batch, z_lat, w_lat = sample_mixed_batch(mixing, route, eps, 1, rng)
    return batch.to_configurations()[0], (float(z_lat[0]), float(w_lat[0]))
