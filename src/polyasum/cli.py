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
converts to: it builds one %-template for the whole output, one
layout per distinct record count, and applies it once to a flat tuple
of the batch's values.  csv is a count histogram of point
configurations.

Exit codes: 0 success / all checks pass, 1 check or estimation
failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bayes import posterior_intensity, posterior_params
from .estimators import InfeasibleDensitiesError, density_stats, solve_zw
from .samplers import (MixingMeasure, PolyaParams, RngSeed,
                       sample_gamma_measure_batch, sample_mixed_batch,
                       sample_poisson_batch, sample_polya_cox_batch,
                       sample_polya_direct_batch)
from .state_space import (SCHEMA_VERSION, ConfigurationBatch,
                          InvalidMeasureError, PointConfiguration,
                          ReferenceMeasure, TestFunction, Window, _by_replica,
                          _json_float, _json_int)
from .transforms import ParameterError
from .verify import (check_conjugacy, check_transform_identity, check_mecke,
                     check_mixed_ibp, check_polya_ibp)

CHECK_NAMES = ("mecke", "polya-ibp", "conjugacy", "mixed-ibp",
               "transform-identity")


class ConfigError(ValueError):
    """A malformed or incomplete experiment configuration."""


@dataclass
class ExperimentConfig:
    """Validated run parameters; ``raw`` keeps the merged JSON document
    that the provenance hash covers."""

    command: str
    raw: dict = field(default_factory=dict)
    seed: int = 0
    n: int = 100
    eps: float = 1e-6
    out: str | None = None
    fmt: str = "json"

    def require(self, key: str):
        if key not in self.raw:
            raise ConfigError(f"config field '{key}' is required for "
                              f"command '{self.command}'")
        return self.raw[key]

    def section(self, key: str, default=None) -> dict:
        """A config field that must be a JSON object."""
        data = self.require(key) if default is None else self.raw.get(
            key, default)
        if not isinstance(data, dict):
            raise ConfigError(f"config field '{key}' must be a JSON object; "
                              f"got {data!r}")
        return data

    def window(self) -> Window:
        try:
            return Window.from_dict(self.section("window"))
        except (InvalidMeasureError, KeyError, TypeError) as exc:
            raise ConfigError(f"config field 'window' is invalid: {exc}")

    def reference_measure(self, key: str, window: Window) -> ReferenceMeasure:
        data = self.section(key)
        try:
            if "uniform_mass" in data:
                return ReferenceMeasure.uniform(window, _json_float(
                    data["uniform_mass"], "uniform_mass"))
            doc = {"atoms": data.get("atoms", [])}
            if "masses" in data:
                doc["masses"] = data["masses"]
            return ReferenceMeasure.from_dict(doc, window=window)
        except (InvalidMeasureError, ValueError, TypeError) as exc:
            raise ConfigError(f"config field '{key}' is invalid: {exc}")

    def configuration(self, key: str, window: Window) -> PointConfiguration:
        data = self.section(key, {"points": []})
        try:
            return PointConfiguration.from_dict({"points": data.get(
                "points", [])}, window=window)
        except (InvalidMeasureError, ValueError, TypeError) as exc:
            raise ConfigError(f"config field '{key}' is invalid: {exc}")

    def test_function(self, key: str, window: Window,
                      default=None) -> TestFunction:
        data = self.raw.get(key)
        if data is None:
            if default is not None:
                return TestFunction.constant(window, default)
            raise ConfigError(f"config field '{key}' is required for "
                              f"command '{self.command}'")
        try:
            if "const" in data:
                return TestFunction.constant(window, _parse_value(
                    data["const"]))
            values = [_parse_value(v) for v in data["values"]]
            return TestFunction(window, np.asarray(values))
        except (InvalidMeasureError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"config field '{key}' is invalid: {exc}")

    def z(self) -> float:
        try:
            return _json_float(self.require("z"), "z")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config field 'z' is invalid: {exc}")

    def mixing(self, window: Window) -> MixingMeasure:
        rho0 = self.reference_measure("rho0", window)
        data = self.section("mixing")
        try:
            atoms = tuple(tuple(_json_float(a[k], f"atom {k}") for k in "zwp")
                          for a in data["atoms"])
            return MixingMeasure(rho0, atoms)
        except (ParameterError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"config field 'mixing' is invalid: {exc}")

    def fixed_zw(self) -> tuple | None:
        data = self.raw.get("fixed_zw")
        if data is None:
            return None
        try:
            z, w = (_json_float(v, "entry") for v in data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config field 'fixed_zw' must be a [z, w] "
                              f"pair; got {data!r} ({exc})")
        return z, w


def _int_field(raw: dict, key: str, default: int) -> int:
    value = _json_int(raw.get(key, default))
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config field '{key}' must be an integer; "
                          f"got {value!r}")
    return value


def _float_field(raw: dict, key: str, default: float) -> float:
    try:
        return _json_float(raw.get(key, default), key)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field '{key}' is invalid: {exc}")


def _parse_value(v) -> float:
    if isinstance(v, str) and v.lower() in ("inf", "infinity", "+inf"):
        return float("inf")
    return float(v)


def _canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def provenance(config: ExperimentConfig) -> dict:
    payload = dict(config.raw)
    payload["_seed"] = config.seed
    payload["_n"] = config.n
    payload["_eps"] = config.eps
    return {
        "config_hash": hashlib.sha256(
            _canonical_json(payload).encode()).hexdigest(),
        "seed": config.seed,
        "version": __version__,
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
    }


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}")


def _emit_json(doc: dict, config: ExperimentConfig) -> None:
    _write_output(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                  config.out)


def _write_records(batch, latents=None, header=None) -> str:
    """The ``simulate`` text of a sampled batch: one JSON line per
    replica, or under a provenance ``header`` one indented document.

    Byte for byte ``json.dumps(..., sort_keys=True)`` of the
    ``to_dict()`` of each object of ``to_configurations()`` or
    ``to_measures()`` (``indent=2`` under a header), each with a
    ``latent`` object from the per-replica arrays in ``latents``.
    A sampled batch holds each location once per replica, so, grouped
    by replica (``_by_replica``), a replica's text depends only on its
    values and its record count.  json renders each piece of that
    layout once, around sentinel slots; the pieces, %-escaped, make one
    template for the whole output, with one layout per distinct record
    count, and one ``%`` fills it from a flat tuple of every replica's
    latents and record columns, in text order.
    """
    window = batch.window
    configs = isinstance(batch, ConfigurationBatch)
    list_key, value_key = (("points", "mult") if configs
                           else ("atoms", "weight"))
    order, bounds = _by_replica(batch)
    values = (batch.mult if configs else batch.weight)[order]
    wdoc = window.to_dict()
    # longer than any string in the fixed parts, so that its rendering
    # occurs only where it was put
    slot = "\0" * (len(json.dumps([wdoc, header])) + 1)
    mark = slot + "\1"

    def sample(items):
        doc = {"schema_version": SCHEMA_VERSION, "window": wdoc,
               list_key: items}
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
        return "" if header is None else render([]) + "\n"

    def pieces(render_list, item):
        # render_list([item]) is head + body + tail and
        # render_list([item, item]) is head + body + sep + body + tail
        head, tail = render_list([mark]).split(json.dumps(mark))

        def body(items):
            text = render_list(items)
            return text[len(head):len(text) - len(tail)]
        one = body([item])
        return head, one, body([item, item])[len(one):-len(one)], tail

    def fmt(text):
        return text.replace("%", "%%").replace(json.dumps(slot), "%s")

    doc_head, empty, sample_sep, doc_tail = pieces(render, sample([]))
    loc = slot if window.mode == "sites" else [slot] * window.dimension
    head, rec, rec_sep, tail = pieces(
        lambda items: render([sample(items)]), {"loc": loc, value_key: slot})
    head = head[len(doc_head):]
    tail = tail[:len(tail) - len(doc_tail)]
    # the latent object sorts before "points" but after "atoms"
    latents_first = json.dumps(slot) in head
    head, rec, rec_sep, tail, empty = map(fmt, (head, rec, rec_sep, tail,
                                                empty))
    counts = np.diff(bounds).tolist()
    layouts = {k: head + rec_sep.join([rec] * k) + tail if k else empty
               for k in set(counts)}
    template = (fmt(doc_head) + fmt(sample_sep).join(
        [layouts[k] for k in counts]) + fmt(doc_tail) + "\n")

    coords = batch.coords[order]
    if window.mode == "sites":
        labels = [json.dumps(site) for site in window.sites]
        cols = [[labels[c] for c in coords.tolist()]]
    else:
        cols = coords.T.tolist()
    cols.append(values.tolist())
    width = len(cols)
    args = [None] * (width * len(values))
    for i, col in enumerate(cols):
        args[i::width] = col
    if latents is not None:
        lats = zip(*(latents[k].tolist() for k in sorted(latents)))
        flat = []
        for lat, a, b in zip(lats, (bounds[:-1] * width).tolist(),
                             (bounds[1:] * width).tolist()):
            flat += ((*lat, *args[a:b]) if latents_first
                     else (*args[a:b], *lat))
        args = flat
    return template % tuple(args)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def run_simulate(config: ExperimentConfig) -> int:
    window = config.window()
    route = config.raw.get("route", "direct")
    rng = RngSeed(config.seed).generator()
    n = config.n
    latents = None
    if route in ("direct", "cox", "poisson", "gamma"):
        rho = config.reference_measure("rho", window)
        if route == "poisson":
            batch = sample_poisson_batch(rho, n, rng)
        else:
            params = PolyaParams(config.z(), rho)
            if route == "gamma":
                batch = sample_gamma_measure_batch(params, config.eps, n, rng)
            elif route == "direct":
                batch = sample_polya_direct_batch(params, n, rng)
            else:
                batch = sample_polya_cox_batch(params, config.eps, n, rng)
    elif route == "mixed":
        mixing = config.mixing(window)
        batch, z_lat, w_lat = sample_mixed_batch(
            mixing, config.raw.get("mixed_route", "direct"), config.eps, n,
            rng)
        latents = {"z": z_lat, "w": w_lat}
    else:
        raise ConfigError(f"config field 'route' must be one of direct, cox, "
                          f"poisson, gamma, mixed; got {route!r}")

    if config.fmt == "csv":
        # flat count histogram; measures stay JSON-only
        if route == "gamma":
            raise ConfigError("csv output is only defined for point "
                              "configurations (field 'route')")
        ks, freq = np.unique(batch.counts(), return_counts=True)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["count", "frequency"])
        for k, c in zip(ks, freq):
            writer.writerow([int(k), int(c)])
        _write_output(buf.getvalue(), config.out)
        return 0

    header = provenance(config) if config.fmt == "json" else None
    _write_output(_write_records(batch, latents, header), config.out)
    return 0


def run_posterior(config: ExperimentConfig) -> int:
    window = config.window()
    rho = config.reference_measure("rho", window)
    mu = config.configuration("mu", window)
    spec = posterior_params(config.z(), rho, mu)
    estimator = posterior_intensity(spec)
    _emit_json({
        "provenance": provenance(config),
        "posterior": {
            "z_post": spec.z_post,
            "a_post": spec.a_post,
            "base": spec.base.to_dict(),
        },
        "estimator": estimator.to_dict(),
    }, config)
    return 0


def run_estimate_zw(config: ExperimentConfig) -> int:
    window = config.window()
    rho0 = config.reference_measure("rho0", window)
    mu = config.configuration("mu", window)
    stats = density_stats(mu, rho0)
    try:
        est = solve_zw(stats.u, stats.v)
    except InfeasibleDensitiesError as exc:
        _emit_json({"provenance": provenance(config),
                    "error": str(exc), "u": stats.u, "v": stats.v}, config)
        return 1
    _emit_json({
        "provenance": provenance(config),
        "estimate": {"u": stats.u, "v": stats.v, "z_hat": est.z_hat,
                     "w_hat": est.w_hat, "residual": est.residual,
                     "converged": est.converged},
    }, config)
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
            params, config.raw.get("route", "direct"),
            config.test_function("f", window, 1.0),
            config.test_function("g", window, 0.0), n, rng, eps=config.eps,
            kernel_z_factor=_float_field(config.raw, "kernel_z_factor", 1.0))
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
            route=config.raw.get("route", "direct"),
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
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "lhs", "lhs_stderr", "rhs", "rhs_stderr",
                         "exact", "z_score", "passed", "n"])
        for r in reports:
            writer.writerow([r.name, r.lhs, r.lhs_stderr, r.rhs,
                             r.rhs_stderr, r.exact, r.z_score, r.passed,
                             r.n])
        _write_output(buf.getvalue(), config.out)
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

    def common(p):
        p.add_argument("--config", help="JSON experiment configuration")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument("--n", type=int, help="replica count (overrides config)")
        p.add_argument("--eps", type=float,
                       help="Gamma-measure truncation threshold")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", dest="fmt",
                       choices=("json", "jsonl", "csv"), default=None,
                       help="output format (measures are always JSON)")

    common(sub.add_parser("simulate", help="draw seeded samples"))
    common(sub.add_parser("posterior",
                          help="conjugate update and Bayes estimator"))
    common(sub.add_parser("estimate-zw",
                          help="recover (z, w) from a configuration"))
    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument("checks", nargs="+", metavar="CHECK",
                          help=f"one or more of: {', '.join(CHECK_NAMES)}")
    common(p_verify)
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
    config.seed = args.seed if args.seed is not None else _int_field(
        raw, "seed", 0)
    config.n = args.n if args.n is not None else _int_field(raw, "n", 100)
    config.eps = args.eps if args.eps is not None else _float_field(
        raw, "eps", 1e-6)
    config.out = args.out if args.out is not None else raw.get("out")
    if config.out is not None and not isinstance(config.out, str):
        raise ConfigError(f"config field 'out' must be a path; "
                          f"got {config.out!r}")
    config.fmt = args.fmt if args.fmt is not None else raw.get(
        "format", "json")
    if config.fmt not in ("json", "jsonl", "csv"):
        raise ConfigError(f"config field 'format' must be json, jsonl or "
                          f"csv; got {config.fmt!r}")
    if config.n < 1:
        raise ConfigError("config field 'n' must be >= 1")
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
        parser.error(f"unknown command {args.command!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
