"""Random generation of Poisson processes, Gamma random measures, and
Polya sum processes.

Three routes produce Polya samples:

* ``direct`` -- a Poisson number of clusters placed i.i.d. from the
  normalized reference measure, each carrying an independent
  logarithmic-series multiplicity: numpy's ``logseries`` draws bit for
  bit, replayed over buffers of doubles for large requests
  (``replay._logseries``).  Exact; validated against the
  closed-form Laplace functional.
* ``cox`` -- draw a Gamma random measure by truncated inverse-Levy
  (Ferguson-Klass) and then a Poisson process with that atomic
  intensity.  Exact up to the documented O(eps) truncation.
* posterior draws combine a Gamma measure over the prior reference
  measure with independent Gamma weights at the observed points.

Every sampler returns a batch of n replicas as flat record arrays (one
row per located point or atom); a batch converts to state_space
objects with ``to_configurations`` or ``to_measures``.  Each sampler
checks n by the number rule before any draw: an integral float counts,
a bool or a string raises :class:`InvalidMeasureError`, and n < 0
:class:`ParameterError`.  The samplers here only draw columns,
straight into the rows a ``state_space._BatchWriter`` hands out, which
merges the records of each location where they are drawn, so each
location of a sampled configuration or measure is one record; the Cox
and mixed samplers inherit that from the samplers they call.  The
mixture's direct route draws every component into one writer, sized
from the expected record count; the Cox route copies each component's
batch in once.  A Poisson rate past the largest that numpy draws, or a
call that expects more than ``_MAX_RECORDS`` = 1e9 records (at least
32 GB of columns), raises :class:`ParameterError` before any draw,
leaving the generator as it was.  Samplers are deterministic functions
of (inputs, rng state); parallel use should give each replica stream
its own :class:`RngSeed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expint import e1, e1_inverse
from .replay import _categorical, _logseries
from .state_space import (AtomicBatch, ConfigurationBatch,
                          PointConfiguration, ReferenceMeasure, Window,
                          _BatchWriter, _json_float, _json_int,
                          _require_same_window, _tile)
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
    """Accept an RngSeed, an integer seed, or a ready Generator; a bool
    is not a seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngSeed):
        return rng.generator()
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return RngSeed(int(rng)).generator()
    raise TypeError(f"cannot build a Generator from {rng!r}")


def _check_n(n) -> int:
    """The replica count n as an int >= 0 by the number rule, checked
    before a sampler draws."""
    n = _json_int(n, "replica count n")
    if n < 0:
        raise ParameterError(f"need n >= 0 replicas, got n={n}")
    return n


def _check_eps(eps) -> float:
    """The truncation threshold eps as a finite float > 0 by the number
    rule, checked before a sampler or check draws; an infinite eps
    would make every truncation allowance infinite."""
    eps = _json_float(eps, "truncation threshold eps")
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError(
            f"truncation threshold must be finite and > 0, got {eps}")
    return eps


# ---------------------------------------------------------------------------
# Poisson processes
# ---------------------------------------------------------------------------

# Generator.poisson refuses a rate above this with a bare ValueError
_POISSON_MAX = float(np.iinfo(np.int64).max
                     - np.sqrt(np.iinfo(np.int64).max) * 10)
# the most records one call may expect; numpy's allocators fail far
# below the Poisson limit with untyped errors
_MAX_RECORDS = 1e9


def _check_rate(lam, what: str, n: int = 0):
    """``lam``, or :class:`ParameterError` naming ``what`` when a Poisson
    rate in it is past the largest that numpy draws, or when n replicas
    at the sum of its rates expect more than ``_MAX_RECORDS`` records."""
    top = float(np.max(lam, initial=0.0))
    if top > _POISSON_MAX:
        raise ParameterError(
            f"{what} gives a Poisson rate of {top:.6g}, past the largest "
            f"numpy draws ({_POISSON_MAX:.6g})")
    per_replica = float(np.sum(lam))
    if n * per_replica > _MAX_RECORDS:
        raise ParameterError(
            f"{what} gives a Poisson rate of {per_replica:.6g}, so {n} "
            f"replicas expect {n * per_replica:.6g} records, past the "
            f"ceiling of {_MAX_RECORDS:.0e} per call")
    return lam


def sample_poisson_batch(rho: ReferenceMeasure, n: int,
                         rng) -> ConfigurationBatch:
    """n independent Poisson configurations with intensity ``rho``.

    Diffuse mass produces simple points uniform within their cells;
    each atom (x, w) receives a Poisson(w) multiplicity at exactly x,
    read from rho's atom columns.  n times the diffuse mass may be at
    most ``_MAX_RECORDS``.
    """
    if not isinstance(rho, ReferenceMeasure):
        raise TypeError("the intensity rho must be a ReferenceMeasure")
    n = _check_n(n)
    rng = as_generator(rng)
    window, diffuse = rho.window, rho.cell_masses
    live = np.flatnonzero(rho._atom_weight > 0)
    _check_rate(diffuse, "the cell masses of rho", n)
    _check_rate(rho._atom_weight[live], "an atom weight of rho")
    counts = (rng.poisson(lam=diffuse, size=(n, diffuse.size))
              if diffuse.sum() > 0 else np.zeros((n, 0), dtype=np.int64))
    rep_idx, cell_idx = np.nonzero(counts)
    k = counts[rep_idx, cell_idx]
    # room for every diffuse point and one hit per atom and replica
    out = _BatchWriter(ConfigurationBatch, window, n,
                       int(k.sum()) + n * live.size)
    rows = out.rows(int(k.sum()))
    rows.rep[:] = np.repeat(rep_idx, k)
    rows.cell[:] = np.repeat(cell_idx, k)
    rows.mult.fill(1)
    window._uniform_into(rows.cell, rows.coords, rng)
    if live.size:
        atom = np.tile(live, n)  # replica-major, every live atom each
        hits = _poisson_from_atomic_batch(AtomicBatch(
            window, n, np.repeat(np.arange(n, dtype=np.int64), live.size),
            rho._atom_cell[atom], rho._atom_weight[atom],
            rho._atom_coords[atom]), rng)
        out.put(hits.rep, hits.cell, hits.mult, hits.coords)
    # on a box each atom is hit at most once per replica
    out.merge(out.batch())
    return out.batch()


def _poisson_from_atomic_batch(kappa: AtomicBatch, rng) -> ConfigurationBatch:
    """Poisson configurations directed by a batch of atomic intensities;
    a weight past numpy's Poisson limit raises :class:`ParameterError`."""
    rng = as_generator(rng)
    k = rng.poisson(lam=_check_rate(kappa.weight, "an atom weight of the "
                                    "directing measure"))  # int64
    hit = np.flatnonzero(k)
    return ConfigurationBatch(
        kappa.window, kappa.n, kappa.rep.take(hit), kappa.cell.take(hit),
        k.take(hit), kappa.coords.take(hit, axis=0))


# ---------------------------------------------------------------------------
# Gamma random measures (truncated inverse-Levy)
# ---------------------------------------------------------------------------

def _jump_rate(params: PolyaParams, eps: float, n: int):
    """``(a, m/a, lam_eps)`` of a Ferguson-Klass draw at ``eps``: the
    rate lam_eps = m E1(a r_eps) of the jumps above r_eps, checked by
    :func:`_check_rate` for n replicas, or None when no jump is drawn
    (m/a is 0 or at most eps).  Where a r_eps underflows to 0 the rate
    is infinite, a :class:`ParameterError` naming eps."""
    m = params.rho.total_mass
    a = params.a if params.z > 0.0 else math.inf
    mean_total = m / a
    if eps >= mean_total:
        return a, mean_total, None
    r_eps = -math.log1p(-eps * a / m) / a
    x_eps = a * r_eps
    return a, mean_total, _check_rate(
        m * e1(x_eps) if x_eps > 0.0 else math.inf,
        "the jump rate m E1(a r_eps) of z, eps and the mass m of rho", n)


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
    included in proportion.  n times the jump rate m E1(a r_eps) may be
    at most ``_MAX_RECORDS``.  z = 0, m = 0, or a mean mass m/a that
    underflows to 0 gives the zero measure, drawing nothing; an eps so
    small that a r_eps underflows to 0 makes the jump rate infinite and
    raises :class:`ParameterError`, drawing nothing.

    The batch is drawn in place: the arrival times go straight into the
    rows' weight column, the jumps below the threshold then the n last
    ones, one ``e1_inverse`` call over all of them gives the jump sizes,
    divided by a there, and the n remainder atoms follow from the last
    jumps.  Besides the batch only ``e1_inverse``'s result, one double
    per jump, and a few blocks of its temporaries are held at a time.
    """
    eps = _check_eps(eps)
    n = _check_n(n)
    rng = as_generator(rng)
    out = _BatchWriter(AtomicBatch, params.window, n)
    a, mean_total, lam_eps = _jump_rate(params, eps, n)
    if mean_total == 0.0:  # z = 0, m = 0, or m/a underflows
        return out.batch()

    if lam_eps is None:
        # even the full process has expected mass below the threshold:
        # emit only the remainder atom
        rows = out.rows(n)
        rows.rep[:] = np.arange(n)
        rows.weight.fill(mean_total)
        params.rho._locations_into(rows.cell, rows.coords, rng)
        return out.batch()

    m = params.rho.total_mass
    n_jumps = rng.poisson(lam_eps, size=n)
    total = int(n_jumps.sum())
    rows = out.rows(total + 2 * n)
    every = np.arange(n, dtype=np.int64)
    np.concatenate([np.repeat(every, n_jumps), every, every], out=rows.rep)
    # arrival times below lam_eps are i.i.d. uniforms; the first
    # arrival beyond is lam_eps + Exp(1) by memorylessness.  The
    # (0, 1] form keeps arrival times strictly positive.  Each jump
    # solves E1(a r) = y, y = (1 - U) lam_eps / m below and
    # (lam_eps + E) / m for the last, drawn and formed in its row's
    # weight
    y = rows.weight[:total + n]
    below, last = y[:total], y[total:]
    rng.random(out=below)
    np.subtract(1.0, below, out=below)
    below *= lam_eps
    below /= m
    rng.standard_exponential(out=last)  # rng.exponential's draws
    last += lam_eps
    last /= m
    np.divide(e1_inverse(y), a, out=y)
    remainder = rows.weight[total + n:]
    np.multiply(last, -a, out=remainder)
    np.expm1(remainder, out=remainder)
    remainder *= -mean_total  # mean_total (1 - e^(-a r_last))
    # at small reference mass e1_inverse underflows to 0 for late
    # arrivals; such atoms carry no mass, so dropping them leaves the
    # law unchanged and keeps every replica a valid measure
    live = rows.weight > 0
    if not live.all():
        rows = out.keep(rows, live)
    out.merge(rows, *params.rho._locations_into(rows.cell, rows.coords, rng))
    return out.batch()


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
    (``replay._logseries``).  This reproduces the process's
    Laplace functional exactly (verified in the test suite, since it is
    a construction rather than a definition).  n times the cluster rate,
    the expected record count of a call, may be at most ``_MAX_RECORDS``.
    """
    n = _check_n(n)
    rng = as_generator(rng)
    out = _BatchWriter(ConfigurationBatch, params.window, n)
    _direct_into(out, np.arange(n, dtype=np.int64), params, rng)
    return out.batch()


def _direct_into(out: _BatchWriter, labels: np.ndarray, params: PolyaParams,
                 rng: np.random.Generator) -> None:
    """The direct construction for the replicas ``labels`` of ``out``,
    drawn straight into its next rows and merged there."""
    z, m = params.z, params.rho.total_mass
    if z == 0.0 or m == 0.0:
        return
    lam = _check_rate(-math.log1p(-z) * m, "the cluster rate -log(1-z) m "
                      "of z and the mass m of rho", labels.size)
    n_clusters = rng.poisson(lam, size=labels.size)
    rows = out.rows(int(n_clusters.sum()))
    rows.rep[:] = np.repeat(labels, n_clusters)
    hit, atom = params.rho._locations_into(rows.cell, rows.coords, rng)
    _logseries(z, rows.mult.size, rng, out=rows.mult)
    out.merge(rows, hit, atom)


def sample_polya_cox_batch(params: PolyaParams, eps: float, n: int,
                           rng) -> ConfigurationBatch:
    """n Polya configurations via the Cox representation: draw a Gamma
    random measure, then a Poisson process with that intensity, whose
    hits are as unique per replica as the measure's merged atoms."""
    _check_z_open(params.z)
    rng = as_generator(rng)
    kappa = sample_gamma_measure_batch(params, eps, n, rng)
    return _poisson_from_atomic_batch(kappa, rng)


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
    n = _check_n(n)
    mus = ConfigurationBatch(mu.window, n, *_tile(mu.window, mu.points, n))
    return _posterior_from_config_batch(mus, params, eps, rng)


def _posterior_from_config_batch(mus: ConfigurationBatch, params: PolyaParams,
                                 eps: float, rng) -> AtomicBatch:
    """Per-replica posterior draws for a whole batch of observations.

    Used by the conjugacy checks: replica i of the output is a draw
    from the posterior given replica i of ``mus``.
    """
    _check_z_open(params.z)
    rng = as_generator(rng)
    _require_same_window(mus, params)
    z_post = params.z / (1.0 + params.z)
    a_post = params.a + 1.0
    diffuse = sample_gamma_measure_batch(
        PolyaParams(z_post, params.rho), eps, mus.n, rng)
    weights = rng.gamma(shape=mus.mult.astype(float), scale=1.0 / a_post)
    out = _BatchWriter(AtomicBatch, mus.window, mus.n,
                       diffuse.rep.size + mus.rep.size)
    out.put(diffuse.rep, diffuse.cell, diffuse.weight, diffuse.coords)
    out.put(mus.rep, mus.cell, weights, mus.coords)
    # an observed point on an atom of rho is one atom of rho + mu
    batch = out.batch()
    out.merge(batch, *params.rho._atoms_at(batch.coords))
    return out.batch()


# ---------------------------------------------------------------------------
# Doubly stochastic mixtures
# ---------------------------------------------------------------------------

def sample_mixed_batch(mixing: MixingMeasure, route: str, eps: float, n: int,
                       rng):
    """n draws from the mixed Polya sum process.

    Each replica first draws latent parameters (z_i, w_i) from the
    mixing measure, then a Polya configuration with (z_i, w_i rho0) by
    the requested route.  Returns (batch, z_latent, w_latent) so
    estimator validation can see the truth.  n times the largest cluster
    rate -log(1-z) w m0 of an atom bounds the expected record count, and
    may be at most ``_MAX_RECORDS``.  eps is checked on both routes.
    """
    eps = _check_eps(eps)
    sample = _route_sampler(route)
    n = _check_n(n)
    rng = as_generator(rng)
    z_atom, w_atom, probs = np.array(mixing.atoms).T
    m0 = mixing.rho0.total_mass
    rates = -np.log1p(-z_atom) * w_atom * m0
    _check_rate(rates.max(), "the cluster rate -log(1-z) w m0 of a mixing "
                "atom's z and w and the mass m0 of rho0", n)
    if route == "cox":  # each component's jump rate, before any draw
        for z, w, _ in mixing.atoms:
            if z > 0.0 and w > 0.0:
                _jump_rate(PolyaParams(z, mixing.rho0.scale(w)), eps, 0)
    comp = _categorical(probs / probs.sum(), n, rng)
    z_lat, w_lat = z_atom[comp], w_atom[comp]

    members = [np.flatnonzero(comp == c) for c in range(len(mixing.atoms))]
    # the expected count of the direct route's clusters, plus four of
    # its Poisson standard deviations: the columns grow only past that
    expected = sum(labels.size * rate for labels, rate in zip(members, rates))
    out = _BatchWriter(ConfigurationBatch, mixing.window, n,
                       math.ceil(expected + 4.0 * math.sqrt(expected)))
    for (z, w, _), labels in zip(mixing.atoms, members):
        if labels.size == 0 or z == 0.0 or w == 0.0:
            continue
        params = PolyaParams(z, mixing.rho0.scale(w))
        if route == "direct":
            _direct_into(out, labels, params, rng)
        else:  # the Cox route copies its sub-batch in once
            sub = sample(params, eps, labels.size, rng)
            out.put(labels[sub.rep], sub.cell, sub.mult, sub.coords)
    return out.batch(), z_lat, w_lat
