"""The command-line front end: determinism, schemas, exit codes."""

import json

import pytest

from polyasum.cli import main


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def strip_timestamp(path):
    doc = json.loads(path.read_text())
    doc.get("provenance", {}).pop("timestamp", None)
    return json.dumps(doc, sort_keys=True)


BASE_WINDOW = {"mode": "box", "bounds": [[0.0, 1.0]], "cells": [4]}


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

    def test_gamma_route_emits_atomic_measures(self, tmp_path):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 2.0},
            "z": 0.5, "route": "gamma", "n": 3, "seed": 3, "eps": 1e-4,
        })
        out = tmp_path / "out.json"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert all("atoms" in s and s["atoms"] for s in doc["samples"])


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
        code = main(["verify", "polya-ibp", "mecke", "--config", cfg,
                     "--n", "2000", "--seed", "5", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.count("PASS") == 2
        doc = json.loads(out.read_text())
        assert len(doc["reports"]) == 2
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

    def test_command_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"command": "posterior",
                                      "window": BASE_WINDOW})
        assert main(["simulate", "--config", cfg]) == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_bad_z_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 1.0}, "z": 1.5,
        })
        assert main(["simulate", "--config", cfg]) == 2

    def test_infinite_g_parses(self, tmp_path):
        cfg = write_config(tmp_path, {
            "window": BASE_WINDOW, "rho": {"uniform_mass": 1.0}, "z": 0.5,
            "f": {"const": 1.0}, "g": {"values": ["inf", 0.0, 0.0, 0.0]},
        })
        assert main(["verify", "polya-ibp", "--config", cfg, "--n", "400",
                     "--seed", "1"]) == 0
