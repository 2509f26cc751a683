"""Batch front-end: seeded experiment runs driven by JSON configs.

Subcommands::

    polyasum simulate     --config cfg.json [--out samples.json]
    polyasum posterior    --config cfg.json [--out posterior.json]
    polyasum estimate-zw  --config cfg.json [--out estimate.json]
    polyasum verify CHECK [CHECK ...] --config cfg.json [--n N] [--seed S]

Configs are single JSON documents so experiments stay archivable;
command-line flags override config fields.  Outputs are deterministic
given (config, seed): result files embed a provenance header (config
hash, seed, package version, timestamp) and the timestamp is the only
varying byte between identical runs.

``simulate`` writes json and jsonl through one columnar writer that
formats the sampled batch's records straight to text, byte-identical
to ``json.dumps`` of the ``to_dict()`` of each object the batch
converts to: it renders one layout per distinct record count, then
fills and writes one %-template per chunk of about ``_CHUNK`` records,
so its memory follows the chunk and not the replica count.  csv is a
count histogram of point configurations.

Exit codes: 0 success / all checks pass, 1 check or estimation
failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .bayes import posterior_intensity, posterior_params
from .estimators import InfeasibleDensitiesError, density_batch, solve_zw
from .samplers import (ROUTES, MixingMeasure, PolyaParams, RngSeed,
                       _check_zw, _route_sampler, sample_gamma_measure_batch,
                       sample_mixed_batch, sample_poisson_batch)
from .state_space import (ConfigurationBatch, PointConfiguration,
                          ReferenceMeasure, TestFunction, Window, _by_replica,
                          _doc, _items, _json_float, _json_int, _one_replica)
from .verify import (check_conjugacy, check_transform_identity, check_mecke,
                     check_mixed_ibp, check_polya_ibp)

CHECK_NAMES = ("mecke", "polya-ibp", "conjugacy", "mixed-ibp",
               "transform-identity")
# the formats each subcommand writes, its default first
FORMATS = {"simulate": ("json", "jsonl", "csv"), "verify": ("json", "csv"),
           "posterior": ("json",), "estimate-zw": ("json",)}
_REQUIRED = object()  # no default: the field must be given


class ConfigError(ValueError):
    """A malformed or incomplete experiment configuration."""


@dataclass
class ExperimentConfig:
    """Validated run parameters; ``raw`` keeps the merged JSON document
    that the provenance hash covers; :func:`load_config` sets the rest."""

    command: str
    raw: dict = field(default_factory=dict)
    seed: int = field(init=False)
    n: int = field(init=False)
    eps: float = field(init=False)
    out: str | None = field(init=False)
    fmt: str = field(init=False)

    def read(self, key: str, parse, default=_REQUIRED):
        """Config field ``key``, or ``default`` when it is absent, passed
        through ``parse``.  The one place a field is judged: a KeyError,
        TypeError or ValueError from ``parse`` (the typed errors of the
        measure types among them) becomes a :class:`ConfigError` that
        names the field."""
        value = self.raw.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"config field '{key}' is required for "
                              f"command '{self.command}'")
        try:
            return parse(value)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"config field '{key}' is invalid: {exc}")

    def window(self) -> Window:
        return self.read("window", lambda data: Window.from_dict(
            _object(data)))

    def reference_measure(self, key: str, window: Window) -> ReferenceMeasure:
        def parse(data):
            if "uniform_mass" in _object(data):
                return ReferenceMeasure.uniform(window, data["uniform_mass"])
            return ReferenceMeasure.from_dict(data, window=window)
        return self.read(key, parse)

    def configuration(self, key: str, window: Window) -> PointConfiguration:
        return self.read(key, lambda data: PointConfiguration.from_dict(
            _object(data), window=window), {})

    def test_function(self, key: str, window: Window,
                      default: float) -> TestFunction:
        def parse(data):
            if "const" in _object(data):
                return TestFunction.constant(window, _inf(data["const"]))
            return TestFunction(window, [_inf(v) for v in data["values"]])
        return self.read(key, parse, {"const": default})

    def z(self) -> float:
        return self.read("z", _json_float)

    def mixing(self, window: Window) -> MixingMeasure:
        rho0 = self.reference_measure("rho0", window)
        return self.read("mixing", lambda data: MixingMeasure(rho0, tuple(
            tuple(a[k] for k in "zwp") for a in _object(data)["atoms"])))

    def fixed_zw(self) -> tuple | None:
        def parse(data):
            if data is None:
                return None
            z, w = data
            return _check_zw(z, w)
        return self.read("fixed_zw", parse, None)

    def choice(self, key: str, choices: tuple) -> str:
        """One of ``choices``; the first when the field is absent."""
        def parse(value):
            if value not in choices:
                raise ValueError(f"must be one of {', '.join(choices)}; "
                                 f"got {value!r}")
            return value
        return self.read(key, parse, choices[0])


def _object(data) -> dict:
    """A config section, which must be a JSON object."""
    if not isinstance(data, dict):
        raise TypeError(f"must be a JSON object; got {data!r}")
    return data


def _inf(v):
    """A test-function value with the spellings of infinity mapped."""
    if isinstance(v, str) and v.lower() in ("inf", "infinity", "+inf"):
        return float("inf")
    return v


def provenance(config: ExperimentConfig) -> dict:
    payload = {**config.raw, "_seed": config.seed, "_n": config.n,
               "_eps": config.eps}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": config.seed,
        "version": __version__,
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
    }


@contextlib.contextmanager
def _output(path: str | None):
    """The output stream: stdout when ``path`` is None, else the file
    at ``path``, opened for writing; an OSError on opening or writing
    it becomes a :class:`ConfigError`."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}")


def _emit_json(doc: dict, config: ExperimentConfig) -> None:
    with _output(config.out) as out:
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# the records in one chunk of ``simulate`` text, each replica counted
# as one record more; picked from the table in README
_CHUNK = 1024


def _write_records(batch, out, latents=None, header=None) -> None:
    """Write the ``simulate`` text of a sampled batch to the stream
    ``out``: one JSON line per replica, or under a provenance
    ``header`` one indented document.

    Byte for byte ``json.dumps(..., sort_keys=True)`` of the
    ``to_dict()`` of each object of ``to_configurations()`` or
    ``to_measures()`` (``indent=2`` under a header), each with a
    ``latent`` object from the per-replica arrays in ``latents``, by
    construction: the layout is rendered from a document of
    ``state_space._doc`` holding items of ``_items``, the helpers every
    ``to_dict`` builds its document with.  A sampled batch holds each
    location once per replica, so, grouped by replica
    (``_by_replica``), a replica's text depends only on its values and
    its record count.  Each level of that layout, the document's and a
    sample's, comes from one split of a rendering of two equal marks,
    which json renders as head + mark + separator + mark + tail; one
    record and the empty sample are renderings trimmed of those heads
    and tails.  Values render as sentinel slots, and the pieces,
    %-escaped, make one layout per distinct record count.  The text is
    then written chunk by chunk: a chunk is a run of whole replicas
    holding about ``_CHUNK`` records, whose layouts make one template
    that one ``%`` fills from a flat tuple of the chunk's latents and
    record columns, in text order.  Each chunk is written before the
    next is formatted, so memory follows the chunk and not the batch.
    """
    window = batch.window
    configs = isinstance(batch, ConfigurationBatch)
    list_key, value_key = (("points", "mult") if configs
                           else ("atoms", "weight"))
    # longer than any string in the fixed parts, so that its rendering
    # occurs only where it was put
    slot = "\0" * (len(json.dumps([window.to_dict(), header])) + 1)
    mark = slot + "\1"

    def sample(items):
        doc = _doc(window, list_key, items)
        if latents is not None:
            doc["latent"] = dict.fromkeys(latents, slot)
        return doc

    def render(samples):
        # the text of the object path for these sample documents
        if header is None:
            return "\n".join(json.dumps(s, sort_keys=True) for s in samples)
        return json.dumps({"provenance": header, "samples": samples},
                          sort_keys=True, indent=2)

    if not batch.n:  # no replica to lay out
        out.write("" if header is None else render([]) + "\n")
        return

    def fmt(text):
        return text.replace("%", "%%").replace(json.dumps(slot), "%s")

    # the document's head, sample separator and tail hold no slot and
    # are written as they are
    marker = json.dumps(mark)
    doc_head, sample_sep, doc_tail = render([mark, mark]).split(marker)
    head, rec_sep, tail = render([sample([mark, mark])]).split(marker)
    empty = render([sample([])]).removeprefix(doc_head).removesuffix(doc_tail)
    sites = window.mode == "sites"
    loc = slot if sites else (slot,) * window.dimension
    rec = render([sample(_items([(loc, slot)], value_key))]).removeprefix(
        head).removesuffix(tail)
    head, tail = head.removeprefix(doc_head), tail.removesuffix(doc_tail)
    # the latent object sorts before "points" but after "atoms"
    latents_first = json.dumps(slot) in head
    # sep is sample_sep as a piece of a chunk's template
    head, rec, rec_sep, tail, empty, sep = map(
        fmt, (head, rec, rec_sep, tail, empty, sample_sep))
    order, bounds = _by_replica(batch)
    counts = np.diff(bounds)
    layouts = {k: head + rec_sep.join([rec] * k) + tail if k else empty
               for k in set(counts.tolist())}
    values = batch.mult if configs else batch.weight
    labels = [json.dumps(site) for site in window.sites] if sites else None
    lat_cols = ([latents[k] for k in sorted(latents)]
                if latents is not None else [])
    width = 2 if sites else window.dimension + 1

    def chunk_args(start, stop):
        # the latents and record columns of replicas start:stop, in
        # text order
        a = bounds[start]
        rows = order[a:bounds[stop]]
        coords = batch.coords[rows]
        cols = ([[labels[c] for c in coords.tolist()]] if sites
                else coords.T.tolist())
        cols.append(values[rows].tolist())
        args = [None] * (width * rows.size)
        for i, col in enumerate(cols):
            args[i::width] = col
        if not lat_cols:
            return tuple(args)
        lats = zip(*(col[start:stop].tolist() for col in lat_cols))
        flat = []
        for lat, p, q in zip(lats, ((bounds[start:stop] - a) * width).tolist(),
                             ((bounds[start + 1:stop + 1] - a)
                              * width).tolist()):
            flat += (*lat, *args[p:q]) if latents_first else (*args[p:q], *lat)
        return tuple(flat)

    # a chunk ends at the first replica edge at or past _CHUNK records
    # from its start, each replica counted one record more, so that a
    # run of empty replicas is cut too
    ends = bounds + np.arange(batch.n + 1)
    out.write(doc_head)
    start = 0
    while start < batch.n:
        stop = min(int(np.searchsorted(ends, ends[start] + _CHUNK)),
                   batch.n)
        if start:
            out.write(sample_sep)
        template = sep.join(map(layouts.__getitem__,
                                counts[start:stop].tolist()))
        out.write(template % chunk_args(start, stop))
        start = stop
    out.write(doc_tail + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def run_simulate(config: ExperimentConfig) -> int:
    window = config.window()
    route = config.choice("route", (*ROUTES, "poisson", "gamma", "mixed"))
    rng = RngSeed(config.seed).generator()
    n = config.n
    latents = None
    if route != "mixed":
        rho = config.reference_measure("rho", window)
        if route == "poisson":
            batch = sample_poisson_batch(rho, n, rng)
        else:
            params = PolyaParams(config.z(), rho)
            sample = (sample_gamma_measure_batch if route == "gamma"
                      else _route_sampler(route))
            batch = sample(params, config.eps, n, rng)
    else:
        mixing = config.mixing(window)
        batch, z_lat, w_lat = sample_mixed_batch(
            mixing, config.choice("mixed_route", ROUTES), config.eps, n, rng)
        latents = {"z": z_lat, "w": w_lat}

    if config.fmt == "csv":
        # flat count histogram; measures stay JSON-only
        if route == "gamma":
            raise ConfigError("csv output is only defined for point "
                              "configurations (field 'route')")
        ks, freq = np.unique(batch.counts(), return_counts=True)
        with _output(config.out) as out:
            writer = csv.writer(out)
            writer.writerow(["count", "frequency"])
            writer.writerows(zip(ks.tolist(), freq.tolist()))
        return 0

    header = provenance(config) if config.fmt == "json" else None
    with _output(config.out) as out:
        _write_records(batch, out, latents, header)
    return 0


def run_posterior(config: ExperimentConfig) -> int:
    window = config.window()
    rho = config.reference_measure("rho", window)
    mu = config.configuration("mu", window)
    post = posterior_params(config.z(), rho, mu)
    estimator = posterior_intensity(post)
    _emit_json({
        "provenance": provenance(config),
        "posterior": {
            "z_post": post.z,
            "a_post": post.a,
            "base": post.rho.to_dict(),
        },
        "estimator": estimator.to_dict(),
    }, config)
    return 0


def run_estimate_zw(config: ExperimentConfig) -> int:
    window = config.window()
    rho0 = config.reference_measure("rho0", window)
    mu = config.configuration("mu", window)
    (u,), (v,), _ = density_batch(_one_replica(mu), rho0)
    try:
        est = solve_zw(u, v)
    except InfeasibleDensitiesError as exc:
        _emit_json({"provenance": provenance(config),
                    "error": str(exc), "u": u, "v": v}, config)
        return 1
    _emit_json({"provenance": provenance(config),
                "estimate": {"u": u, "v": v, **asdict(est)}}, config)
    return 0


def _run_one_check(check: str, config: ExperimentConfig, stream: int):
    rng = RngSeed(config.seed, stream=stream)
    n = config.n
    if check == "transform-identity":
        return check_transform_identity(n, rng)
    window = config.window()
    if check == "mecke":
        rho = config.reference_measure("rho", window)
        return check_mecke(rho, config.test_function("f", window, 1.0),
                           config.test_function("g", window, 0.0), n, rng)
    if check == "polya-ibp":
        params = PolyaParams(config.z(),
                             config.reference_measure("rho", window))
        return check_polya_ibp(
            params, config.choice("route", ROUTES),
            config.test_function("f", window, 1.0),
            config.test_function("g", window, 0.0), n, rng, eps=config.eps,
            kernel_z_factor=config.read("kernel_z_factor", _json_float, 1.0))
    if check == "conjugacy":
        params = PolyaParams(config.z(),
                             config.reference_measure("rho", window))
        return check_conjugacy(
            params, config.test_function("g", window, 0.0),
            config.test_function("h", window, 0.0), config.eps, n, rng)
    if check == "mixed-ibp":
        mixing = config.mixing(window)
        return check_mixed_ibp(
            mixing, config.test_function("f", window, 1.0),
            config.test_function("g", window, 0.0), n, rng, eps=config.eps,
            route=config.choice("route", ROUTES),
            fixed_zw=config.fixed_zw())
    raise ConfigError(f"unknown check {check!r}; choose from "
                      f"{', '.join(CHECK_NAMES)}")


def run_verify(config: ExperimentConfig, checks) -> int:
    reports = []
    for stream, check in enumerate(checks):
        report = _run_one_check(check, config, stream)
        reports.append(report)
        print(report.summary_line())
    doc = {"provenance": provenance(config),
           "reports": [r.to_dict(include_runtime=False) for r in reports]}
    if config.fmt == "csv":
        columns = [k for k in doc["reports"][0] if k != "details"]
        with _output(config.out) as out:
            writer = csv.DictWriter(out, columns, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(doc["reports"])
    elif config.out is not None:
        _emit_json(doc, config)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyasum",
        description="Simulation and conjugate Bayesian inference for Polya "
                    "sum processes and the Gamma random measures directing "
                    "them.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (
            ("simulate", "draw seeded samples"),
            ("posterior", "conjugate update and Bayes estimator"),
            ("estimate-zw", "recover (z, w) from a configuration"),
            ("verify", "run verification checks")):
        p = sub.add_parser(command, help=text)
        if command == "verify":
            p.add_argument("checks", nargs="+", metavar="CHECK",
                           help=f"one or more of: {', '.join(CHECK_NAMES)}")
        p.add_argument("--config", help="JSON experiment configuration")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument("--n", type=int, help="replica count (overrides config)")
        p.add_argument("--eps", type=float,
                       help="Gamma-measure truncation threshold")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", dest="fmt", choices=FORMATS[command],
                       help="output format (measures are always JSON)")
    return parser


def load_config(args) -> ExperimentConfig:
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
    declared = raw.get("command")
    if declared is not None and declared != args.command:
        raise ConfigError(f"config field 'command' says {declared!r} but the "
                          f"{args.command!r} subcommand was invoked")
    config = ExperimentConfig(command=args.command, raw=raw)
    config.seed = args.seed if args.seed is not None else config.read(
        "seed", _json_int, 0)
    config.n = args.n if args.n is not None else config.read(
        "n", _json_int, 100)
    config.eps = args.eps if args.eps is not None else config.read(
        "eps", _json_float, 1e-6)
    config.out = args.out if args.out is not None else raw.get("out")
    if config.out is not None and not isinstance(config.out, str):
        raise ConfigError(f"config field 'out' must be a path; "
                          f"got {config.out!r}")
    config.fmt = args.fmt if args.fmt is not None else config.choice(
        "format", FORMATS[args.command])
    if config.n < 1:
        raise ConfigError("config field 'n' must be >= 1")
    if config.seed < 0:
        raise ConfigError("config field 'seed' must be >= 0")
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
        if args.command == "simulate":
            return run_simulate(config)
        if args.command == "posterior":
            return run_posterior(config)
        if args.command == "estimate-zw":
            return run_estimate_zw(config)
        if args.command == "verify":
            return run_verify(config, args.checks)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
