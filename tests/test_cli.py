"""The command-line front end: determinism, schemas, exit codes."""

import hashlib
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyasum import cli, samplers
from polyasum.cli import _write_records, main
from polyasum.samplers import (MixingMeasure, PolyaParams, RngSeed,
                               sample_gamma_measure_batch, sample_mixed_batch,
                               sample_poisson_batch, sample_polya_cox_batch,
                               sample_polya_direct_batch)
from polyasum.state_space import (AtomicBatch, ConfigurationBatch,
                                  ReferenceMeasure, Window)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def strip_timestamp(path):
    doc = json.loads(path.read_text())
    doc.get("provenance", {}).pop("timestamp", None)
    return json.dumps(doc, sort_keys=True)


def without_timestamp(path):
    """The file's text with the provenance timestamp line removed."""
    text = path.read_text()
    stripped = re.sub(r'\n *"timestamp": "[^"]*",?', "", text)
    assert stripped != text
    return stripped


BASE_WINDOW = {"mode": "box", "bounds": [[0.0, 1.0]], "cells": [4]}

# window, rho and mixing fields of the writer cases: a 1-d box, a 2-d
# box, a box whose rho has atoms (one of zero weight), and sites with
# a non-ASCII label and one holding "%"
WRITER_WINDOWS = {
    "box-1d": (BASE_WINDOW, {"uniform_mass": 3.0}),
    "box-2d": ({"mode": "box", "bounds": [[0.0, 1.0], [-1.0, 2.0]],
                "cells": [2, 3]}, {"uniform_mass": 3.0}),
    "box-atoms": (BASE_WINDOW, {
        "masses": [0.5, 0.0, 1.0, 0.5],
        "atoms": [{"loc": [0.3], "weight": 1.5},
                  {"loc": [0.0], "weight": 0.0},
                  {"loc": [0.8], "weight": 0.7}]}),
    "sites": ({"mode": "sites", "sites": ["a", "b\u00e9", "c%s"]},
              {"masses": [1.0, 0.5, 0.0],
               "atoms": [{"loc": "c%s", "weight": 2.0}]}),
}
# the (0, 0) atom gives empty replicas among the others
WRITER_MIXING = [(0.3, 1.0, 0.5), (0.7, 2.0, 0.3), (0.0, 0.0, 0.2)]
WRITER_ROUTES = ["poisson", "direct", "cox", "gamma", "mixed-direct",
                 "mixed-cox"]


def object_text(batch, latents, header):
    """The simulate text built through objects and ``to_dict``."""
    objects = (batch.to_measures() if isinstance(batch, AtomicBatch)
               else batch.to_configurations())
    docs = [obj.to_dict() for obj in objects]
    if latents is not None:
        for i, doc in enumerate(docs):
            doc["latent"] = {k: float(v[i]) for k, v in latents.items()}
    if header is None:
        return "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs)
    return json.dumps({"provenance": header, "samples": docs}, indent=2,
                      sort_keys=True) + "\n"


class WriteLog:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def written(batch, latents=None, header=None):
    """The text ``_write_records`` writes for ``batch``."""
    log = WriteLog()
    _write_records(batch, log, latents, header)
    return "".join(log.writes)


def sample_route(route, window_doc, rho_doc, z, eps, n, seed):
    """The batch and latents ``simulate`` draws for ``route``."""
    window = Window.from_dict(window_doc)
    rho = (ReferenceMeasure.uniform(window, rho_doc["uniform_mass"])
           if "uniform_mass" in rho_doc
           else ReferenceMeasure.from_dict(rho_doc, window=window))
    rng = RngSeed(seed).generator()
    if route == "poisson":
        return sample_poisson_batch(rho, n, rng), None
    if route.startswith("mixed"):
        batch, z_lat, w_lat = sample_mixed_batch(
            MixingMeasure(rho, WRITER_MIXING), route.split("-")[1], eps, n,
            rng)
        return batch, {"z": z_lat, "w": w_lat}
    params = PolyaParams(z, rho)
    if route == "gamma":
        return sample_gamma_measure_batch(params, eps, n, rng), None
    if route == "direct":
        return sample_polya_direct_batch(params, n, rng), None
    return sample_polya_cox_batch(params, eps, n, rng), None


# doubles whose text is easy to get wrong, and any other finite one
EDGE_DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1,
                     1 / 3, 1e16, 1e-5]),
    st.floats(min_value=-1e300, max_value=1e300))
HAND_WINDOWS = [
    Window.box([(-1e300, 1e300)], [3]),
    Window.box([(-1e300, 1e300), (-1e300, 1e300)], [2, 3]),
    Window.discrete(["a", "b\u00e9", "c%s", "100%"]),
]


@st.composite
def hand_built_batch(draw):
    """A batch of 1-5 replicas, each holding 0-4 distinct locations,
    with its records in any order."""
    window = draw(st.sampled_from(HAND_WINDOWS))
    measures = draw(st.booleans())
    n = draw(st.integers(1, 5))
    if window.mode == "sites":
        locs = st.integers(0, len(window.sites) - 1)
    else:
        locs = st.tuples(*[EDGE_DOUBLES] * window.dimension)
    values = (st.one_of(st.sampled_from([5e-324, 1e300]),
                        st.floats(min_value=5e-324, max_value=1e300))
              if measures else st.integers(1, 10**6))
    records = [(r, loc, draw(values)) for r in range(n)
               for loc in draw(st.lists(locs, max_size=4, unique=True))]
    records = draw(st.permutations(records))
    rep = np.array([r for r, _, _ in records], dtype=np.int64)
    value = np.array([v for _, _, v in records],
                     dtype=float if measures else np.int64)
    if window.mode == "sites":
        coords = np.array([loc for _, loc, _ in records], dtype=np.int64)
        cell = coords.copy()
    else:
        coords = np.array([loc for _, loc, _ in records],
                          dtype=float).reshape(-1, window.dimension)
        cell = window.cells_of(coords)
    cls = AtomicBatch if measures else ConfigurationBatch
    return cls(window, n, rep, cell, value, coords)


@st.composite
def writer_case(draw):
    batch = draw(hand_built_batch())
    latents = draw(st.none() | st.fixed_dictionaries({
        k: st.lists(EDGE_DOUBLES, min_size=batch.n, max_size=batch.n).map(
            np.array) for k in ("z", "w")}))
    header = draw(st.none() | st.dictionaries(
        st.sampled_from(["config_hash", "seed", "100%", "%s"]),
        st.sampled_from(["100%", "%s", "%%d", "\0"]) | st.integers()
        | st.text(max_size=6)))
    return batch, latents, header


def simulate_equals_object_path(tmp_path, route, window, fmt):
    """``simulate`` of 30 replicas on a writer window writes the text of
    the object path."""
    window_doc, rho_doc = WRITER_WINDOWS[window]
    route_field, _, mixed_route = route.partition("-")
    cfg = write_config(tmp_path, {
        "window": window_doc, "rho": rho_doc, "rho0": rho_doc, "z": 0.6,
        "route": route_field, "mixed_route": mixed_route or "direct",
        "mixing": {"atoms": [{"z": z, "w": w, "p": p}
                             for z, w, p in WRITER_MIXING]},
        "n": 30, "seed": 11, "eps": 1e-3,
    })
    out = tmp_path / f"out.{fmt}"
    assert main(["simulate", "--config", cfg, "--format", fmt,
                 "--out", str(out)]) == 0
    text = out.read_text()
    header = json.loads(text)["provenance"] if fmt == "json" else None
    batch, latents = sample_route(route, window_doc, rho_doc, 0.6, 1e-3,
                                  30, 11)
    assert text == object_text(batch, latents, header)


class TestSimulate:
    def test_z_zero_gives_empty_configurations(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0},
            "z": 0.0, "route": "direct", "n": 10, "seed": 1,
        })
        out = tmp_path / "out.json"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["samples"]) == 10
        assert all(s["points"] == [] for s in doc["samples"])

    def test_deterministic_given_seed(self, tmp_path):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0},
            "z": 0.5, "route": "cox", "n": 20, "seed": 7,
        })
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert strip_timestamp(out1) == strip_timestamp(out2)
        assert without_timestamp(out1) == without_timestamp(out2)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0},
            "z": 0.5, "n": 20, "seed": 7,
        })
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2),
                     "--seed", "8"]) == 0
        assert strip_timestamp(out1) != strip_timestamp(out2)

    def test_jsonl_streams_one_configuration_per_line(self, tmp_path):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0},
            "z": 0.5, "n": 5, "seed": 3,
        })
        out = tmp_path / "out.jsonl"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--format", "jsonl"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            doc = json.loads(line)
            assert doc["schema_version"] == 1
            assert "points" in doc and "window" in doc

    def test_csv_count_histogram(self, tmp_path):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0},
            "z": 0.5, "n": 50, "seed": 3,
        })
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--format", "csv"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "count,frequency"
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == 50

    @pytest.mark.parametrize("route", ["direct", "cox", "poisson", "mixed"])
    def test_csv_histogram_matches_configurations(self, tmp_path, route):
        rho = {"masses": [0.5, 0.0, 1.0, 0.5],
               "atoms": [{"loc": [0.3], "weight": 1.0}]}
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": rho, "rho0": rho, "z": 0.5,
            "route": route, "n": 200, "seed": 9, "eps": 1e-4,
            "mixing": {"atoms": [{"z": 0.3, "w": 1.0, "p": 0.5},
                                 {"z": 0.7, "w": 2.0, "p": 0.5}]},
        })
        csv_out, jsonl_out = tmp_path / "out.csv", tmp_path / "out.jsonl"
        assert main(["simulate", "--config", cfg, "--out", str(csv_out),
                     "--format", "csv"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(jsonl_out),
                     "--format", "jsonl"]) == 0
        totals = [sum(p["mult"] for p in json.loads(line)["points"])
                  for line in jsonl_out.read_text().splitlines()]
        expected = ["count,frequency"] + [
            f"{k},{totals.count(k)}" for k in sorted(set(totals))]
        assert csv_out.read_text().splitlines() == expected

    def test_gamma_route_rejects_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0},
            "z": 0.5, "route": "gamma", "n": 3, "seed": 3,
        })
        assert main(["simulate", "--config", cfg, "--format", "csv"]) == 2
        assert "csv output is only defined for point configurations" \
            in capsys.readouterr().err

    def test_eps_error_precedes_csv_rejection(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0},
            "z": 0.5, "route": "gamma", "n": 3, "seed": 3, "eps": -1,
        })
        assert main(["simulate", "--config", cfg, "--format", "csv"]) == 2
        err = capsys.readouterr().err
        assert "truncation threshold" in err and "csv" not in err

    def test_infinite_jump_rate_exits_two(self, tmp_path, capsys):
        # at eps = 5e-324 the jump threshold a r_eps underflows to 0, so
        # the jump rate is infinite; E1 refused its argument 0 with a
        # bare ValueError
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0},
            "z": 0.5, "route": "gamma", "n": 3, "seed": 3, "eps": 5e-324,
        })
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "jump rate" in err and "eps" in err
        assert "strictly positive" not in err

    @pytest.mark.parametrize("route", ["direct", "gamma", "poisson",
                                       "mixed"])
    def test_poisson_rate_past_numpy_exits_two(self, tmp_path, capsys,
                                                route):
        # numpy's Generator.poisson refuses such a rate with a bare
        # "lam value too large", which named no field
        doc = {"window": BASE_WINDOW, "z": 0.5, "route": route, "n": 3,
               "seed": 3, "rho": {"uniform_mass": 1e20},
               "rho0": {"uniform_mass": 1e20},
               "mixing": {"atoms": [{"z": 0.5, "w": 1.0, "p": 1.0}]}}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "lam value too large" not in err
        assert "Poisson rate" in err and "rho" in err

    @pytest.mark.parametrize("route, n", [("direct", 1), ("mixed", 3)])
    def test_records_past_the_ceiling_exit_two(self, tmp_path, capsys,
                                               route, n):
        # a cluster rate of 0.9 times numpy's Poisson limit; numpy's
        # allocators raised "array is too big" (direct) and "Maximum
        # allowed dimension exceeded" (mixed), naming no field
        mass = 0.9 * samplers._POISSON_MAX / math.log(2.0)
        doc = {"window": BASE_WINDOW, "z": 0.5, "route": route, "n": n,
               "seed": 3, "rho": {"uniform_mass": mass},
               "rho0": {"uniform_mass": mass},
               "mixing": {"atoms": [{"z": 0.5, "w": 1.0, "p": 1.0}]}}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "too big" not in err and "Maximum allowed" not in err
        assert "past the ceiling" in err
        assert ("rho0" if route == "mixed" else "of rho") in err
        assert re.search(r"\bz\b", err)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_merged_multiplicity_past_int64_exits_two(self, tmp_path, capsys,
                                                      fmt):
        # one site draws about 1e19 points: its merged multiplicity is
        # past int64
        cfg = write_config(tmp_path, {
            "window": {"mode": "sites", "sites": ["a"]},
            "rho": {"uniform_mass": 1e4}, "z": 0.999999999999999,
            "route": "direct", "n": 1, "seed": 1})
        out = tmp_path / f"out.{fmt}"
        assert main(["simulate", "--config", cfg, "--format", fmt,
                     "--out", str(out)]) == 2
        assert "past int64" in capsys.readouterr().err
        assert not out.exists()

    def test_gamma_route_emits_atomic_measures(self, tmp_path):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0},
            "z": 0.5, "route": "gamma", "n": 3, "seed": 3, "eps": 1e-4,
        })
        out = tmp_path / "out.json"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert all("atoms" in s and s["atoms"] for s in doc["samples"])


class TestWriter:
    """``simulate`` json/jsonl bytes equal the object path's."""

    @pytest.mark.parametrize("fmt", ["json", "jsonl"])
    @pytest.mark.parametrize("window", sorted(WRITER_WINDOWS))
    @pytest.mark.parametrize("route", WRITER_ROUTES)
    def test_bytes_equal_object_path(self, tmp_path, route, window, fmt):
        simulate_equals_object_path(tmp_path, route, window, fmt)

    @pytest.mark.parametrize("fmt", ["json", "jsonl"])
    @pytest.mark.parametrize("window", sorted(WRITER_WINDOWS))
    @pytest.mark.parametrize("route", WRITER_ROUTES)
    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_small_chunks_equal_object_path(self, tmp_path, monkeypatch,
                                            chunk, route, window, fmt):
        # chunk edges fall inside and between replicas and on empty
        # ones, with latents on the mixed routes
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        simulate_equals_object_path(tmp_path, route, window, fmt)

    @pytest.mark.parametrize("route, key", [("direct", "points"),
                                            ("gamma", "atoms")])
    def test_zero_z_gives_empty_replicas(self, route, key):
        window_doc, rho_doc = WRITER_WINDOWS["box-atoms"]
        batch, _ = sample_route(route, window_doc, rho_doc, 0.0, 1e-3, 5, 1)
        for header in (None, {"seed": 1}):
            text = written(batch, None, header)
            assert text == object_text(batch, None, header)
            assert text.count(f'"{key}": []') == 5

    @pytest.mark.parametrize("cls", [ConfigurationBatch, AtomicBatch])
    @pytest.mark.parametrize("window", sorted(WRITER_WINDOWS))
    def test_no_replicas_render_as_object_path(self, cls, window):
        window = Window.from_dict(WRITER_WINDOWS[window][0])
        none = np.empty(0, dtype=np.int64)
        coords = (none if window.mode == "sites"
                  else np.empty((0, window.dimension)))
        batch = cls(window, 0, none, none, none, coords)
        assert written(batch) == object_text(batch, None, None) == ""
        header = {"seed": 1}
        text = written(batch, None, header)
        assert text == object_text(batch, None, header)
        assert json.loads(text)["samples"] == []
        assert '"samples": []' in text

    @pytest.mark.parametrize("window", ["box-atoms", "sites"])
    def test_gamma_merges_repeated_locations(self, window):
        # replicas here draw several jumps at one location; the sampler
        # merges them, so each record is one atom of its measure
        window_doc, rho_doc = WRITER_WINDOWS[window]
        batch, _ = sample_route("gamma", window_doc, rho_doc, 0.6, 1e-3, 30,
                                11)
        measures = batch.to_measures()
        assert batch.rep.size == sum(len(m.atoms) for m in measures)
        for head in (None, {"seed": 11}):
            assert written(batch, None, head) == object_text(
                batch, None, head)

    @given(writer_case())
    @settings(max_examples=300, deadline=None)
    def test_hand_built_batches_equal_object_path(self, case):
        # every literal piece of the one template is %-escaped: site
        # labels and header strings hold "%", and latents sort after
        # "atoms" but before "points"
        batch, latents, header = case
        assert written(batch, latents, header) == object_text(
            batch, latents, header)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @given(case=writer_case())
    @settings(max_examples=100, deadline=None)
    def test_hand_built_batches_in_small_chunks(self, chunk, case):
        batch, latents, header = case
        with mock.patch.object(cli, "_CHUNK", chunk):
            assert written(batch, latents, header) == object_text(
                batch, latents, header)

    @pytest.mark.parametrize("latents", [False, True])
    @pytest.mark.parametrize("header", [None, {"seed": "100%"}])
    def test_replica_longer_than_a_chunk(self, monkeypatch, latents, header):
        # replica 1 holds 10 records, past a chunk of 3; replica 2 is
        # empty and replica 0 holds one record
        monkeypatch.setattr(cli, "_CHUNK", 3)
        window = Window.interval(0.0, 1.0, 4)
        rep = np.array([1] * 10 + [0])
        coords = np.linspace(0.0, 1.0, 11).reshape(-1, 1)
        batch = AtomicBatch(window, 3, rep, window.cells_of(coords),
                            np.arange(1.0, 12.0), coords)
        lat = ({"z": np.array([0.1, 0.2, 0.3]), "w": np.array([1.0, 2.0,
                                                               3.0])}
               if latents else None)
        stream = WriteLog()
        _write_records(batch, stream, lat, header)
        assert "".join(stream.writes) == object_text(batch, lat, header)
        # one write per chunk, the chunk {0, 1} and the chunk {2}, with
        # the document's head, separator and tail written between
        samples = [w for w in stream.writes if '"window"' in w]
        assert [w.count('"window"') for w in samples] == [2, 1]

    @pytest.mark.parametrize("fmt", ["json", "jsonl"])
    @pytest.mark.parametrize("route", ["direct", "mixed"])
    def test_stdout_equals_out(self, tmp_path, capsys, monkeypatch, route,
                               fmt):
        monkeypatch.setattr(cli, "_CHUNK", 5)
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 3.0},
            "rho0": {"uniform_mass": 3.0}, "z": 0.6, "route": route,
            "mixing": {"atoms": [{"z": z, "w": w, "p": p}
                                 for z, w, p in WRITER_MIXING]},
            "n": 40, "seed": 11})
        out = tmp_path / "out.txt"
        assert main(["simulate", "--config", cfg, "--format", fmt,
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--format", fmt]) == 0
        printed = capsys.readouterr().out
        file_text = out.read_bytes().decode()
        if fmt == "json":
            stamp = r'"timestamp": "[^"]*"'
            printed = re.sub(stamp, "", printed)
            file_text = re.sub(stamp, "", file_text)
        assert printed == file_text and printed.count('"window"') == 40

    @pytest.mark.parametrize("case", ["gamma-csv", "records-past-ceiling"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_exit_two_writes_no_output(self, tmp_path, capsys, case,
                                       existing):
        # the output is opened only after the batch is drawn and the
        # format judged
        mass = (0.9 * samplers._POISSON_MAX / math.log(2.0)
                if case == "records-past-ceiling" else 2.0)
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": mass}, "z": 0.5,
            "route": "gamma" if case == "gamma-csv" else "direct", "n": 3,
            "seed": 3})
        out = tmp_path / "out.csv"
        if existing:
            out.write_text("kept\n")
        assert main(["simulate", "--config", cfg, "--format", "csv",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        if existing:
            assert out.read_text() == "kept\n"
        else:
            assert not out.exists()

    def test_traced_peak_below_output_size(self, tmp_path):
        # the text is written chunk by chunk: a whole-output template
        # and its result peak at about three times the file's size
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0}, "z": 0.5,
            "route": "direct", "n": 40000, "seed": 1})
        out = tmp_path / "out.jsonl"
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", cfg, "--format", "jsonl",
                         "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size

    def test_signed_zero_renders_as_object_path(self):
        window = Window.interval(-1.0, 1.0, 2)
        batch = AtomicBatch(window, 2, np.array([1, 0, 1]),
                            np.array([1, 1, 0]), np.array([1.0, 2.0, 3.0]),
                            np.array([[0.0], [-0.0], [-0.5]]))
        text = written(batch)
        assert text == object_text(batch, None, None)
        assert json.loads(text.splitlines()[0])["atoms"] == [
            {"loc": [-0.0], "weight": 2.0}]
        assert '"loc": [-0.0]' in text


class TestOutputBits:
    """The files ``simulate`` and ``verify`` write, pinned bit for bit:
    sha256 digests of each output with its provenance timestamp
    removed, recorded with numpy 2.4 on x86-64."""

    SIMULATE = {
        ("direct", "box", "json"):
            "677d4633392a76788b77eec1c7ebcd30551525e136fcf7bd132e4a547a606fda",
        ("direct", "box", "jsonl"):
            "2d87e16f6276d3b45269fde4357caef70748d93578b182868566041186ac828d",
        ("direct", "box", "csv"):
            "9e0db6df342ab71b948f03fcc48c0f7eb8a5e8ed3d58841c020aa873556d5fb3",
        ("direct", "sites", "json"):
            "0417fb57cc1738465f5d7594612b1706ae7bc204c5c3cfa78c81be61e02d025c",
        ("direct", "sites", "jsonl"):
            "0e351fc3a3678b945d7172d0976565f3eb991f55ae90ed5bfeb4ee004d984f03",
        ("direct", "sites", "csv"):
            "d1b6e14396ca82c46e6916f6b63f43bca33e0e2e806a221c48cad5b180746eb1",
        ("cox", "box", "jsonl"):
            "762d753dd97c2e83328f2aa84090effc42f249abcf714fec2e217fefe2eb1520",
        ("cox", "box", "csv"):
            "9ca15acf4e63ab4343cd12c328ea593d00a86b0700b07afd01207d1fa6f4c416",
        ("poisson", "box", "jsonl"):
            "98f33cff274aa0470f6196f5897038f4c64d48eb2c431bcbd26c37de113e894d",
        ("poisson", "box", "csv"):
            "4d484d6cb56dfedc6adb66fcf4758645569eee479a47f21f1a2b2cb568d60107",
        ("gamma", "box", "json"):
            "5a5637b5cc79fa7e68a4ee914db27b491c5e92794599ebefe9fb5d3d24db46e8",
        ("gamma", "box", "jsonl"):
            "ac87d35b74f9bb7dcda05bb16752036b882d49f746bcdf18226d0505b4f37ef9",
        ("mixed", "box", "jsonl"):
            "1988d2d2bfa63422ca2cddcd17d7483676d75483f9a4317f5b06c3a5c942bcaa",
    }
    VERIFY = {
        "json":
            "936a5e465cb2ef870f8926b3cf89fd45c903dd6b47f5ad1775406c961435f19c",
        "csv":
            "9ddd1022ab95999e0e06b3f7c08d81b0c9ea9d3d85f80bbb6de4e90ffffde238",
    }

    @staticmethod
    def digest(path):
        # the bytes as written: csv rows end in "\r\n"
        data = (without_timestamp(path).encode() if path.suffix == ".json"
                else path.read_bytes())
        return hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("route, window, fmt", sorted(SIMULATE))
    def test_simulate_keeps_its_bits(self, tmp_path, route, window, fmt):
        # the box's rho has two atoms and the sites' rho one, so the
        # direct route merges its draws on both
        window_doc, rho_doc = WRITER_WINDOWS[
            "box-atoms" if window == "box" else "sites"]
        cfg = write_config(tmp_path, {
            "window": window_doc, "rho": rho_doc, "rho0": rho_doc, "z": 0.6,
            "route": route, "mixing": {"atoms": [
                {"z": z, "w": w, "p": p} for z, w, p in WRITER_MIXING]},
            "n": 40, "seed": 21, "eps": 1e-3})
        out = tmp_path / f"out.{fmt}"
        assert main(["simulate", "--config", cfg, "--format", fmt,
                     "--out", str(out)]) == 0
        assert self.digest(out) == self.SIMULATE[route, window, fmt]

    @pytest.mark.parametrize("fmt", sorted(VERIFY))
    def test_verify_keeps_its_bits(self, tmp_path, fmt):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0}, "z": 0.5,
            "f": {"values": [1.0, 0.2, 2.0, 0.7]},
            "g": {"values": [0.5, 0.0, 1.0, 0.3]}, "h": {"const": 0.4}})
        out = tmp_path / f"rep.{fmt}"
        assert main(["verify", "mecke", "polya-ibp", "conjugacy", "--config",
                     cfg, "--n", "300", "--seed", "8", "--format", fmt,
                     "--out", str(out)]) == 0
        assert self.digest(out) == self.VERIFY[fmt]


class TestPosterior:
    def test_worked_update(self, tmp_path):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0}, "z": 0.5,
            "mu": {"points": [{"loc": [0.1], "mult": 1},
                              {"loc": [0.5], "mult": 1},
                              {"loc": [0.9], "mult": 1}]},
        })
        out = tmp_path / "post.json"
        assert main(["posterior", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["posterior"]["z_post"] == pytest.approx(1.0 / 3.0)
        assert doc["posterior"]["a_post"] == pytest.approx(2.0)
        # estimator is z (rho + mu): mass 0.5 * (2 + 3)
        est = doc["estimator"]
        total = sum(est["masses"]) + sum(a["weight"] for a in est["atoms"])
        assert total == pytest.approx(2.5)


class TestEstimateZW:
    def test_happy_path(self, tmp_path):
        points = [{"loc": [0.001 + 0.0008 * i], "mult": 1}
                  for i in range(500)] \
            + [{"loc": [0.5 + 0.0008 * i], "mult": 2} for i in range(250)]
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho0": {"uniform_mass": 1000.0},
            "mu": {"points": points},
        })
        out = tmp_path / "est.json"
        assert main(["estimate-zw", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        est = doc["estimate"]
        assert est["u"] == pytest.approx(1.0)
        assert est["v"] == pytest.approx(0.75)
        assert 0.0 < est["z_hat"] < 1.0
        assert est["converged"]

    def test_infeasible_densities_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho0": {"uniform_mass": 10.0},
            "mu": {"points": [{"loc": [0.5], "mult": 1}]},
        })
        out = tmp_path / "est.json"
        assert main(["estimate-zw", "--config", cfg, "--out", str(out)]) == 1
        assert "error" in json.loads(out.read_text())


class TestVerifyCommand:
    def test_passing_checks_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0}, "z": 0.5,
            "f": {"const": 1.0}, "g": {"values": [0.2, 0.0, 0.5, 1.0]},
        })
        out = tmp_path / "rep.json"
        code = main(["verify", "polya-ibp", "mecke", "transform-identity",
                     "--config", cfg, "--n", "2000", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.count("PASS") == 3
        doc = json.loads(out.read_text())
        assert [r["name"] for r in doc["reports"]] == [
            "polya-ibp", "mecke", "transform-identity"]
        assert all("runtime" not in r for r in doc["reports"])

    def test_deterministic_report_bytes(self, tmp_path):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0}, "z": 0.5,
            "g": {"values": [0.2, 0.0, 0.5, 1.0]}, "h": {"const": 0.5},
        })
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["verify", "conjugacy", "--config", cfg, "--n", "500",
                "--seed", "11"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert strip_timestamp(out1) == strip_timestamp(out2)

    def test_failing_check_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0}, "z": 0.5,
            "f": {"const": 1.0}, "g": {"const": 0.0},
            "kernel_z_factor": 0.5,
        })
        assert main(["verify", "polya-ibp", "--config", cfg,
                     "--n", "2000", "--seed", "5"]) == 1

    def test_unknown_check_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, {"window": BASE_WINDOW})
        assert main(["verify", "nonsense", "--config", cfg]) == 2

    def test_csv_report_rows(self, tmp_path):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0}, "z": 0.5,
        })
        out = tmp_path / "rep.csv"
        assert main(["verify", "polya-ibp", "--config", cfg, "--n", "500",
                     "--seed", "2", "--out", str(out),
                     "--format", "csv"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("name,lhs,")
        assert len(lines) == 2

    def test_mixed_check_via_config(self, tmp_path):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho0": {"uniform_mass": 300.0},
            "mixing": {"atoms": [{"z": 0.3, "w": 1.0, "p": 0.5},
                                 {"z": 0.7, "w": 1.0, "p": 0.5}]},
            "f": {"const": 1.0}, "g": {"const": 0.0},
        })
        assert main(["verify", "mixed-ibp", "--config", cfg,
                     "--n", "400", "--seed", "4"]) == 0

    def test_too_few_plug_in_pairs_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho0": {"uniform_mass": 1e4},
            "mixing": {"atoms": [{"z": 0.001, "w": 1.0, "p": 1.0}]},
        })
        assert main(["verify", "mixed-ibp", "--config", cfg,
                     "--n", "100", "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert re.search(r"error: only [01] of the n=100 replicas admit a "
                         r"plug-in \(z, w\)", err), err


class TestConfigErrors:
    def test_missing_field_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"window": BASE_WINDOW, "n": 5})
        assert main(["simulate", "--config", cfg]) == 2
        assert "'rho'" in capsys.readouterr().err

    def test_invalid_window_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "window": {"mode": "box", "bounds": [[1, 0]], "cells": [2]},
            "rho": {"uniform_mass": 1.0}, "z": 0.5,
        })
        assert main(["simulate", "--config", cfg]) == 2
        assert "'window'" in capsys.readouterr().err

    def test_duplicate_site_labels_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "window": {"mode": "sites", "sites": [1, "1"]},
            "rho": {"uniform_mass": 1.0}, "z": 0.5,
        })
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "'window'" in err and "distinct" in err

    def test_overflowing_total_mass_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "window": {"mode": "box", "bounds": [[0, 1]], "cells": [2]},
            "rho": {"masses": [1e308, 1e308]}, "z": 0.5,
        })
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "'rho'" in err and "overflows" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
    def test_non_finite_kernel_z_factor_exits_two(self, tmp_path, capsys,
                                                  factor):
        # it used to print rhs=nan±nan, or inf with a RuntimeWarning
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 1.0}, "z": 0.5,
            "kernel_z_factor": factor})
        assert main(["verify", "polya-ibp", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "kernel_z_factor must be finite" in err

    def test_infinite_f_exits_two(self, tmp_path, capsys):
        # +inf is a value for exponents: as f it wrote NaN tokens into
        # the report and exited 1
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0}, "z": 0.5,
            "n": 200, "f": {"values": [1.0, "inf", 0.5, 0.2]}})
        assert main(["verify", "mecke", "polya-ibp", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "f must be finite" in err

    def test_command_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"command": "posterior",
                                      "window": BASE_WINDOW})
        assert main(["simulate", "--config", cfg]) == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["simulate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config"),
        ("[1, 2]", "config must be a JSON object"),
    ])
    def test_unusable_config_exits_two(self, tmp_path, capsys, text,
                                       message):
        # a config path that does not exist, and a config that is not
        # an object
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert main(["simulate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_bad_z_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 1.0}, "z": 1.5,
        })
        assert main(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize("command, field, value", [
        ("simulate", "window", [1, 2]),
        ("simulate", "rho", [1, 2]),
        ("posterior", "mu", [1]),
        ("verify mixed-ibp", "fixed_zw", 5),
        ("simulate", "n", 1.7),
        ("simulate", "seed", 1.5),
        ("simulate", "n", "5"),
        ("simulate", "seed", True),
        ("simulate", "eps", None),
        ("verify polya-ibp", "kernel_z_factor", None),
        ("simulate", "out", 7),
        # measure values that float() would cast
        ("simulate", "rho", {"masses": ["1", 0.5, 0.5, 1.0]}),
        ("simulate", "rho", {"masses": [1.0, True, 0.5, 1.0]}),
        ("simulate", "rho", {"atoms": [{"loc": [0.3], "weight": "2"}]}),
        ("simulate", "rho", {"masses": [1.0, 0.0, 0.5, 1.0],
                             "atoms": [{"loc": [0.3], "weight": False}]}),
        ("simulate", "rho", {"uniform_mass": "2"}),
        ("simulate", "rho", {"uniform_mass": True}),
        # numpy's error on a negative seed names no field
        ("simulate", "seed", -1),
        ("simulate --seed -1", "seed", 3),
        ("simulate", "n", 0),
        ("simulate --n 0", "n", 100),
        # routes are read where they are used, each under its own name
        ("simulate", "mixed_route", "x"),
        ("verify polya-ibp", "route", "x"),
        ("verify mixed-ibp", "route", "x"),
        # a mixing atom's (z, w) rules; NaN would reach the report
        ("verify mixed-ibp", "fixed_zw", [float("nan"), 1.0]),
        ("verify mixed-ibp", "fixed_zw", [0.5, float("inf")]),
        ("verify mixed-ibp", "fixed_zw", [1.0, 1.0]),
    ])
    def test_malformed_field_is_named(self, tmp_path, capsys, command,
                                      field, value):
        doc = {"window": BASE_WINDOW, "rho": {"uniform_mass": 1.0},
               "rho0": {"uniform_mass": 30.0}, "z": 0.5, "n": 100,
               "mixing": {"atoms": [{"z": 0.5, "w": 1.0, "p": 1.0}]},
               "route": "mixed" if field == "mixed_route" else "direct"}
        doc[field] = value
        args = command.split() + ["--config", write_config(tmp_path, doc)]
        assert main(args) == 2
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, field, value", [
        ("simulate", "z", "0.5"),
        ("simulate", "z", True),
        ("simulate", "eps", "0.001"),
        ("simulate", "mixing", {"atoms": [{"z": "0.3", "w": 1.0, "p": 1.0}]}),
        ("simulate", "mixing", {"atoms": [{"z": 0.3, "w": True, "p": 1.0}]}),
        ("simulate", "mixing", {"atoms": [{"z": 0.3, "w": 1.0, "p": "1"}]}),
        ("verify mixed-ibp", "fixed_zw", ["0.5", 1.0]),
        ("verify mixed-ibp", "fixed_zw", [0.5, True]),
        ("verify polya-ibp", "kernel_z_factor", "0.5"),
        # test-function values; a string of digits is not a list of them
        ("verify polya-ibp", "f", {"const": "2"}),
        ("verify polya-ibp", "g", {"const": True}),
        ("verify polya-ibp", "f", {"values": "1234"}),
        # location coordinates, of observed points and of atoms
        *((command, "mu", {"points": [{"loc": loc, "mult": 2},
                                      {"loc": [0.6], "mult": 1}]})
          for command in ("posterior", "estimate-zw")
          for loc in (["0.1"], [True])),
        *(("simulate", "rho", {"masses": [1.0, 0.0, 0.5, 1.0],
                               "atoms": [{"loc": loc, "weight": 1.0}]})
          for loc in (["0.1"], [True])),
        # window bounds and cell counts
        ("simulate", "window", {"mode": "box", "bounds": [[False, True]],
                                "cells": [4]}),
        ("simulate", "window", {"mode": "box", "bounds": [[0.0, 1.0]],
                                "cells": [True]}),
    ])
    def test_number_fields_reject_strings_and_bools(self, tmp_path, capsys,
                                                    command, field, value):
        # float() would cast each of these, and the run would go on
        doc = {"window": BASE_WINDOW, "rho": {"uniform_mass": 1.0},
               "rho0": {"uniform_mass": 30.0}, "z": 0.5, "n": 100,
               "route": "mixed" if field == "mixing" else "direct",
               "mixing": {"atoms": [{"z": 0.5, "w": 1.0, "p": 1.0}]},
               "f": {"const": 1.0}, "g": {"const": 0.0}}
        doc[field] = value
        args = command.split() + ["--config", write_config(tmp_path, doc)]
        assert main(args) == 2
        assert f"'{field}'" in capsys.readouterr().err

    def test_mixed_config_of_strings_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho0": {"uniform_mass": 2.0},
            "route": "mixed", "z": "0.5", "eps": "0.001", "n": 5,
            "mixing": {"atoms": [{"z": "0.3", "w": True, "p": "0.5"},
                                 {"z": 0.7, "w": 2.0, "p": 0.5}]}})
        assert main(["simulate", "--config", cfg]) == 2
        assert "'eps'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["posterior", "estimate-zw"])
    @pytest.mark.parametrize("mult", [2.5, True, "3"])
    def test_non_integer_multiplicity_is_named(self, tmp_path, capsys,
                                               command, mult):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 1.0},
            "rho0": {"uniform_mass": 30.0}, "z": 0.5,
            "mu": {"points": [{"loc": [0.1], "mult": mult},
                              {"loc": [0.6], "mult": 1}]},
        })
        assert main([command, "--config", cfg]) == 2
        assert "'mu'" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["", "missing/out.json"])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, out):
        # an existing directory, and a file in a directory that does
        # not exist
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 1.0}, "z": 0.5,
            "n": 3,
        })
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / out)]) == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_integral_float_n_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 1.0}, "z": 0.5,
            "n": 3.0, "seed": 2.0,
        })
        out = tmp_path / "out.jsonl"
        assert main(["simulate", "--config", cfg, "--format", "jsonl",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_mecke_at_g_zero_passes_on_inexact_masses(self, tmp_path,
                                                      capsys):
        # rho(f) = 2.4 is summed inexactly; the constant rhs used to
        # fail as rhs=2.4±3.1e-17 with exit 1
        cfg = write_config(tmp_path, {
            "window": {"mode": "box", "bounds": [[0.0, 1.0], [0.0, 1.0]],
                       "cells": [2, 3]},
            "rho": {"masses": [0.4] * 6}, "n": 200, "seed": 3})
        assert main(["verify", "mecke", "--config", cfg]) == 0
        assert re.search(r"^PASS mecke: .* rhs=2\.4±0 ",
                         capsys.readouterr().out)

    def test_infinite_g_parses(self, tmp_path):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 1.0}, "z": 0.5,
            "f": {"const": 1.0}, "g": {"values": ["inf", 0.0, 0.0, 0.0]},
        })
        assert main(["verify", "polya-ibp", "--config", cfg, "--n", "400",
                     "--seed", "1"]) == 0


class TestFormats:
    """Each subcommand accepts only the formats it writes."""

    DOC = {"window": BASE_WINDOW, "rho": {"uniform_mass": 1.0},
           "rho0": {"uniform_mass": 30.0}, "z": 0.5, "n": 100,
           "mu": {"points": [{"loc": [0.1], "mult": 3},
                             {"loc": [0.6], "mult": 1}]}}
    UNWRITTEN = [("posterior", "csv"), ("posterior", "jsonl"),
                 ("estimate-zw", "csv"), ("estimate-zw", "jsonl"),
                 ("verify mecke", "jsonl")]

    @pytest.mark.parametrize("command, fmt", UNWRITTEN)
    def test_flag_exits_two(self, tmp_path, capsys, command, fmt):
        args = command.split() + ["--config",
                                  write_config(tmp_path, self.DOC),
                                  "--out", str(tmp_path / "out"),
                                  "--format", fmt]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, fmt", UNWRITTEN)
    def test_config_field_exits_two(self, tmp_path, capsys, command, fmt):
        cfg = write_config(tmp_path, {**self.DOC, "format": fmt})
        args = command.split() + ["--config", cfg,
                                  "--out", str(tmp_path / "out")]
        assert main(args) == 2
        assert "'format'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("atoms", [
    # NaN passes p <= 0 and the sum-to-1 check; every replica would
    # come from one component
    [{"z": 0.3, "w": 1.0, "p": float("nan")},
     {"z": 0.7, "w": 1.0, "p": 0.5}],
    [{"z": 0.3, "w": float("inf"), "p": 1.0}],
])
def test_mixing_numbers_out_of_range_are_named(tmp_path, capsys, atoms):
    cfg = write_config(tmp_path, {
        "window": BASE_WINDOW, "rho0": {"uniform_mass": 2.0},
        "route": "mixed", "n": 5, "mixing": {"atoms": atoms}})
    assert main(["simulate", "--config", cfg]) == 2
    assert "'mixing'" in capsys.readouterr().err
