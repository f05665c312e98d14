"""Command-line runner: configs, reports, determinism, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siolab import cli, forms, measure, splitter
from siolab.errors import NonConvergenceError, ParameterError, SchemaError, UsageError


def run_cli(tmp_path, *argv):
    """Run the CLI in tmp_path-relative mode, returning (exit, parsed report)."""
    out = tmp_path / "report.json"
    code = cli.main([*argv, "--output", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


class TestConfigResolution:
    def test_defaults_file_flags_precedence(self):
        cfg = cli.resolve_config(
            "schur_bound", {"mollifier": "one", "points": 64}, {"points": 128}
        )
        assert cfg["mollifier"] == "one"  # file beats default
        assert cfg["points"] == 128  # flag beats file
        assert cfg["method"] == "wiener"  # untouched default

    def test_method_key_of_restricted_norm_rejected(self, tmp_path):
        # the input picks enumeration or search; there is no method to set
        config = tmp_path / "rn-config.json"
        config.write_text(json.dumps({"method": "exact"}))
        code, data = run_cli(
            tmp_path, "restricted-norm", "--config", str(config), "--kernel", "hilbert",
            "--mu", "random_atoms:n=4", "--nu", "random_atoms:n=4,low=2,high=3",
        )
        assert code == 2
        assert data["error"]["type"] == "SchemaError"

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="unknown configuration key"):
            cli.resolve_config("schur_bound", {"bogus": 1}, {})

    def test_command_mismatch_rejected(self):
        with pytest.raises(SchemaError, match="is for"):
            cli.resolve_config("schur_bound", {"command": "opnorm"}, {})

    @pytest.mark.parametrize("key, value", [
        ("p", "abc"), ("p", [1]), ("p", {"p": 2}),
        ("seed", 1.5),  # int() would run it as seed 1 and record 1.5
    ])
    def test_mistyped_numeric_value_is_a_schema_error(self, tmp_path, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code, data = run_cli(
            tmp_path, "opnorm", "--config", str(config),
            "--mu", "random_atoms:n=3", "--nu", "random_atoms:n=3,low=2,high=3",
        )
        assert code == 2
        assert data["error"]["type"] == "SchemaError"
        assert f"'{key}'" in data["error"]["message"]

    def test_numeric_value_that_converts_is_kept_as_given(self):
        cfg = cli.resolve_config(
            "truncate_compare", {"p": "2", "seed": 3.0, "eps_grid": [0.5, 1.0]}, {}
        )
        assert (cfg["p"], cfg["seed"], cfg["eps_grid"]) == ("2", 3.0, [0.5, 1.0])


class TestJsonEncoding:
    def test_special_floats_and_complex(self):
        blob = cli._jsonify(
            {
                "inf": np.inf,
                "ninf": -np.inf,
                "nan": np.nan,
                "z": 1.0 + 2.0j,
                (1, 2): "tuple-key",
                "arr": np.array([1.0, 2.0]),
            }
        )
        assert blob["inf"] == "Infinity"
        assert blob["ninf"] == "-Infinity"
        assert blob["nan"] == "NaN"
        assert blob["z"] == {"real": 1.0, "imag": 2.0}
        assert blob["1,2"] == "tuple-key"
        assert blob["arr"] == [1.0, 2.0]
        json.dumps(blob, allow_nan=False)  # encodable without NaN support

    def test_float_back_inverse(self):
        assert np.isnan(cli._float_back("NaN"))
        assert cli._float_back("Infinity") == np.inf
        assert cli._float_back("-Infinity") == -np.inf
        assert cli._float_back(1.5) == 1.5

    @pytest.mark.parametrize("token", [None, "NaN", "Infinity", "-Infinity"])
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False)
                | st.integers(-(2**70), 2**70),
                min_size=3, max_size=3,
            ),
            min_size=1, max_size=5,
        ),
        st.integers(0, 14),
    )
    def test_witness_array_matches_element_parser(self, token, rows, at):
        # oracle: the element-by-element parser, run on the same JSON values
        def element_parser(data):
            return np.asarray(
                [cli._float_back(v) for v in np.ravel(data)], float
            ).reshape(np.shape(data))

        if token is not None:
            rows[at // 3 % len(rows)][at % 3] = token
        for data in (rows, rows[0]):  # an (n, m) witness and a 1-D one
            got, want = cli._witness_array(data), element_parser(data)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestGenerateMeasure:
    def test_kinds_deterministic(self):
        for kind, params in [
            ("lebesgue_grid", {"h": 0.25}),
            ("random_atoms", {"n": 7}),
            ("ball_uniform", {"n": 9, "dimension": 2}),
        ]:
            a = measure.generate_measure(kind, params, seed=5)
            b = measure.generate_measure(kind, params, seed=5)
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.weights, b.weights)

    def test_interleaved_pair_shares_no_points(self):
        mu, nu = measure.generate_measure("interleaved_grids", {"h": 2.0**-5}, 0)
        a = {p.tobytes() for p in mu.points}
        b = {p.tobytes() for p in nu.points}
        assert not (a & b)
        assert len(mu) == len(nu) == 32

    def test_ball_uniform_unit_mass_inside_radius(self):
        m = measure.generate_measure(
            "ball_uniform", {"n": 50, "radius": 0.5, "dimension": 2}, 3
        )
        assert m.total_mass == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.linalg.norm(m.points, axis=1) <= 0.5 + 1e-12)

    def test_ball_uniform_dimension(self):
        assert measure.generate_measure("ball_uniform", {"n": 5}, 0).dimension == 2
        for dimension in (1, 3):
            m = measure.generate_measure("ball_uniform", {"n": 5, "dimension": dimension}, 0)
            assert m.dimension == dimension

    def test_unknown_kind_and_extras_rejected(self):
        with pytest.raises(ParameterError):
            measure.generate_measure("mystery", {}, 0)
        with pytest.raises(ParameterError):
            measure.generate_measure("lebesgue_grid", {"volume": 2}, 0)

    def test_integral_float_parameter_is_the_integer(self):
        a = measure.generate_measure("random_atoms", {"n": 4.0, "dimension": 2.0}, 0)
        b = measure.generate_measure("random_atoms", {"n": 4, "dimension": 2}, 0)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)

    def test_cli_writes_measure_files(self, tmp_path):
        out = tmp_path / "m.json"
        code = cli.main([
            "generate-measure", "--kind", "random_atoms",
            "--params", "n=6,low=0,high=2", "--seed", "9",
            "--output", str(out),
            "--report-out", str(tmp_path / "gen.json"),
        ])
        assert code == 0
        m = measure.load_measure(out)
        assert len(m) == 6
        assert np.all((m.points >= 0) & (m.points < 2))

    def test_interleaved_writes_two_files(self, tmp_path):
        out = tmp_path / "pair.json"
        code = cli.main([
            "generate-measure", "--kind", "interleaved_grids",
            "--params", "h=0.125", "--output", str(out),
            "--report-out", str(tmp_path / "gen.json"),
        ])
        assert code == 0
        mu = measure.load_measure(tmp_path / "pair-mu.json")
        nu = measure.load_measure(tmp_path / "pair-nu.json")
        assert len(measure.common_atoms(mu, nu)) == 0
        assert len(mu) == len(nu) == 8


class TestReports:
    def test_report_carries_resolved_config(self, tmp_path):
        code, data = run_cli(
            tmp_path, "schur-bound", "--mollifier", "gaussian"
        )
        assert code == 0
        assert data["command"] == "schur_bound"
        assert data["config"]["mollifier"] == "gaussian"
        assert data["config"]["method"] == "wiener"
        assert data["report"]["bound"] == pytest.approx(2.0, abs=1e-6)

    def test_byte_identical_rerun(self, tmp_path):
        argv = [
            "opnorm", "--kernel", "hilbert",
            "--mu", "random_atoms:n=10", "--nu", "random_atoms:n=8,low=2,high=3",
            "--seed", "4", "--output", str(tmp_path / "r.json"),
        ]
        assert cli.main(argv) == 0
        first = (tmp_path / "r.json").read_bytes()
        assert cli.main(argv) == 0
        assert (tmp_path / "r.json").read_bytes() == first

    def test_config_file_resolves_like_flags(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mollifier": "power:base=gaussian,k=2"}))
        code, via_file = run_cli(tmp_path, "schur-bound", "--config", str(cfg_path))
        assert code == 0
        assert via_file["report"]["bound"] == pytest.approx(4.0, abs=1e-6)

    def test_moment_order_report(self, tmp_path):
        code, data = run_cli(
            tmp_path, "moment-order", "--density", "one_sided_exp"
        )
        assert code == 0
        rep = data["report"]
        assert rep["order"] == 1
        assert abs(rep["fitted_slope"] - 1.0) < 0.05

    def test_csv_table(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        code = cli.main([
            "truncate-compare", "--kernel", "hilbert",
            "--mu", "interleaved_grids:h=0.0625,part=1",
            "--nu", "interleaved_grids:h=0.0625,part=2",
            "--eps-grid", "0.1,0.5",
            "--output", str(tmp_path / "tc.json"),
            "--csv", str(csv_path),
        ])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert "eps" in lines[0] and "norm_truncated" in lines[0]


class TestSplitRoundTrip:
    def test_partition_dict_is_built_once_for_both_files(self, tmp_path):
        part_path = tmp_path / "part.json"
        with mock.patch.object(
            splitter, "partition_to_dict", wraps=splitter.partition_to_dict
        ) as spy:
            code, data = run_cli(
                tmp_path, "split", "--sigma", "lebesgue_grid:h=0.0625,dimension=2",
                "--level", "2", "--partition-out", str(part_path),
            )
        assert code == 0
        assert spy.call_count == 1
        assert json.loads(part_path.read_text()) == data["report"]["partition"]

    def test_split_then_verify(self, tmp_path):
        part_path = tmp_path / "part.json"
        code, data = run_cli(
            tmp_path, "split", "--sigma", "lebesgue_grid:h=0.00390625",
            "--level", "2", "--partition-out", str(part_path),
        )
        assert code == 0
        assert all(ok for ok, _ in data["report"]["verification"].values())

        code2, data2 = run_cli(
            tmp_path, "split-verify", "--partition", str(part_path),
            "--sigma", "lebesgue_grid:h=0.00390625",
        )
        assert code2 == 0
        assert data2["report"]["ok"] is True

    def test_split_report_verifies_as_a_partition_file(self, tmp_path):
        split_path = tmp_path / "split.json"
        cli.main([
            "split", "--sigma", "lebesgue_grid:h=0.00390625", "--level", "2",
            "--output", str(split_path),
        ])
        code, data = run_cli(
            tmp_path, "split-verify", "--partition", str(split_path),
            "--sigma", "lebesgue_grid:h=0.00390625",
        )
        assert code == 0
        assert data["report"]["ok"] is True

    def test_split_of_two_grids_on_offset_lattices(self, tmp_path):
        # sigma sums two grids of one spacing whose cells interleave, so it
        # has no cell_size; the split was refused as a usage error (exit 2)
        split_path = tmp_path / "split.json"
        code = cli.main([
            "split", "--mu", "lebesgue_grid:h=0.00390625",
            "--nu", "lebesgue_grid:h=0.00390625,corner=0.001953125,side=0.99609375",
            "--level", "2", "--output", str(split_path),
        ])
        assert code == 0
        code, data = run_cli(tmp_path, "verify", "--report", str(split_path))
        assert code == 0
        assert data["report"]["ok"] is True

    def test_atomic_sigma_is_pointed_at_mu_and_nu(self, tmp_path):
        code, data = run_cli(tmp_path, "split", "--sigma", "random_atoms:n=5", "--level", "1")
        assert code == 2
        assert "split --mu and --nu" in data["error"]["message"]

    def test_tampered_partition_fails(self, tmp_path):
        part_path = tmp_path / "part.json"
        run_cli(
            tmp_path, "split", "--sigma", "lebesgue_grid:h=0.00390625",
            "--level", "2", "--partition-out", str(part_path),
        )
        blob = json.loads(part_path.read_text())
        # move one fine cube of the first half onto the second half
        blob["e1_indices"][0] = blob["e2_indices"][0]
        part_path.write_text(json.dumps(blob))
        code, data = run_cli(
            tmp_path, "split-verify", "--partition", str(part_path)
        )
        assert code == 1
        assert data["error"]["type"] == "ToleranceError"


class TestVerify:
    def test_verify_accepts_fresh_reports(self, tmp_path):
        r1 = tmp_path / "op.json"
        cli.main([
            "opnorm", "--kernel", "hilbert",
            "--mu", "random_atoms:n=9", "--nu", "random_atoms:n=7,low=2,high=3",
            "--seed", "2", "--output", str(r1),
        ])
        r2 = tmp_path / "mk.json"
        cli.main([
            "muckenhoupt", "--mu", "lebesgue_grid:h=0.015625",
            "--nu", "lebesgue_grid:h=0.015625",
            "--radii", "0.25,0.5,1.0", "--output", str(r2),
        ])
        code, data = run_cli(tmp_path, "verify", "--report", f"{r1},{r2}")
        assert code == 0
        assert data["report"]["ok"] is True

    def test_verify_detects_tampered_value(self, tmp_path):
        r1 = tmp_path / "op.json"
        cli.main([
            "opnorm", "--kernel", "hilbert",
            "--mu", "random_atoms:n=9", "--nu", "random_atoms:n=7,low=2,high=3",
            "--seed", "2", "--output", str(r1),
        ])
        blob = json.loads(r1.read_text())
        blob["report"]["value"] = blob["report"]["value"] * 1.5
        r1.write_text(json.dumps(blob))
        code, data = run_cli(tmp_path, "verify", "--report", str(r1))
        assert code == 1
        assert data["error"]["type"] == "ToleranceError"

    def test_verify_checks_witness_separation(self, tmp_path):
        r1 = tmp_path / "rn.json"
        cli.main([
            "restricted-norm", "--kernel", "hilbert",
            "--mu", "random_atoms:n=6", "--nu", "random_atoms:n=6,low=2,high=3",
            "--output", str(r1),
        ])
        code, data = run_cli(tmp_path, "verify", "--report", str(r1))
        assert code == 0
        names = {c["check"] for r in data["report"]["reports"] for c in r["checks"]}
        assert "witness_supports_separated" in names

    def test_verify_rejects_witnesses_on_a_shared_point(self, tmp_path):
        # mu and nu are one grid: index k is the same point on both sides
        r1 = tmp_path / "rn.json"
        assert cli.main(["restricted-norm", "--kernel", "hilbert", *SHARED_GRID,
                         "--output", str(r1)]) == 0
        blob = json.loads(r1.read_text())
        body = blob["report"]
        k = next(k for k, v in enumerate(body["witness_g"]) if v != 0)
        assert body["witness_f"][k] == 0
        # too small to move the quotient: only the separation check fails
        body["witness_f"][k] = 1e-300
        r1.write_text(json.dumps(blob))
        code, data = run_cli(tmp_path, "verify", "--report", str(r1))
        assert code == 1
        assert "['witness_supports_separated']" in data["error"]["message"]
        # a vector g row is active when any component is nonzero, even one
        # whose Euclidean norm underflows to 0
        r2 = tmp_path / "rv.json"
        assert cli.main(["restricted-norm", "--kernel", "riesz:alpha=1,n=2",
                         "--mu", "lebesgue_grid:h=0.25,dimension=2",
                         "--nu", "lebesgue_grid:h=0.25,dimension=2",
                         "--mollifier", "annulus:delta=0.1", "--eps", "0.3",
                         "--output", str(r2)]) == 0
        blob = json.loads(r2.read_text())
        body = blob["report"]
        k = next(k for k, v in enumerate(body["witness_f"]) if v != 0)
        assert body["witness_g"][k] == [0.0, 0.0]
        body["witness_g"][k] = [1e-200, 1e-200]
        r2.write_text(json.dumps(blob))
        code, data = run_cli(tmp_path, "verify", "--report", str(r2))
        assert code == 1
        assert "['witness_supports_separated']" in data["error"]["message"]

    @pytest.mark.parametrize("key, value", [
        ("domination_margin", -1e-14), ("kappa", -1.0),
    ])
    def test_verify_rechecks_sectorial_domination(self, tmp_path, key, value):
        report = tmp_path / "tc.json"
        assert cli.main([
            "truncate-compare", "--kernel", "cauchy",
            "--mu", "interleaved_grids:h=0.125,dimension=2,part=1",
            "--nu", "interleaved_grids:h=0.125,dimension=2,part=2",
            "--eps-grid", "0.35", "--output", str(report),
        ]) == 0
        code, data = run_cli(tmp_path, "verify", "--report", str(report))
        assert code == 0
        names = [c["check"] for c in data["report"]["reports"][0]["checks"]]
        assert "sectorial_domination_eps_0.35" in names
        blob = json.loads(report.read_text())
        (row,) = blob["report"]["comparisons"]
        assert row["annulus_pairs"] > 0
        row[key] = value  # the allowance for Cauchy (m = 2) is 12 eps, 2.7e-15
        report.write_text(json.dumps(blob))
        code, data = run_cli(tmp_path, "verify", "--report", str(report))
        assert code == 1
        assert "['sectorial_domination_eps_0.35']" in data["error"]["message"]


def _scale(key, factor):
    def tamper(body):
        body[key] = body[key] * factor
    return tamper


def _tamper_partition(body):
    body["partition"]["separation"] *= 2.0


def _tamper_ok(body):
    body["ok"] = False


def _tamper_truncation(body):
    body["comparisons"][0]["norm_truncated"] *= 10.0


def _tamper_growth(body):
    body["growth"]["constant"] *= 1.5


def _tamper_points(body):
    body["files"][0]["points"] += 1


def _tamper_order(body):
    body["order"] += 1


ATOMS = ["--mu", "random_atoms:n=9", "--nu", "random_atoms:n=7,low=2,high=3"]
SHARED_GRID = [
    "--mu", "lebesgue_grid:h=0.125", "--nu", "lebesgue_grid:h=0.125",
    "--mollifier", "annulus:delta=0.1", "--eps", "0.2",
]
SMALL_GRID = "lebesgue_grid:h=0.015625"
GRID_PAIR = [
    "--kernel", "hilbert", "--mu", "interleaved_grids:h=0.25,part=1",
    "--nu", "interleaved_grids:h=0.25,part=2",
]
TWO_GRIDS = ["--mu", "lebesgue_grid:h=0.25", "--nu", "lebesgue_grid:h=0.25"]

# command, its arguments, and a change of one headline value of its report
ROUND_TRIPS = [
    ("schur-bound", ["--mollifier", "gaussian"], _scale("bound", 1.5)),
    ("moment-order", [], _tamper_order),
    ("opnorm", ["--kernel", "hilbert", *ATOMS], _scale("value", 1.5)),
    ("restricted-norm", ["--kernel", "hilbert", *ATOMS], _scale("value", 1.5)),
    ("factor2", ["--kernel", "hilbert", *ATOMS], _scale("ratio", 1.5)),
    ("split", ["--sigma", SMALL_GRID, "--level", "2"], _tamper_partition),
    ("split-verify", ["--partition", "{part}", "--sigma", SMALL_GRID], _tamper_ok),
    ("truncate-compare", ["--kernel", "hilbert",
                          "--mu", "interleaved_grids:h=0.0625,part=1",
                          "--nu", "interleaved_grids:h=0.0625,part=2",
                          "--eps-grid", "0.1,0.5"], _tamper_truncation),
    ("muckenhoupt", ["--mu", SMALL_GRID, "--nu", SMALL_GRID,
                     "--radii", "0.25,0.5,1.0"], _scale("constant", 1.5)),
    ("necessity", ["--kernel", "cauchy", "--mu", "ball_uniform:n=60,radius=0.25",
                   "--nu", "ball_uniform:n=60,radius=0.25", "--eps-grid", "0.25",
                   "--max-balls", "2"], _tamper_growth),
    ("generate-measure", ["--kind", "random_atoms", "--params", "n=6",
                          "--output", "{measure}"], _tamper_points),
]


class TestVerifyRoundTrip:
    @pytest.mark.parametrize(
        "command,args,tamper", ROUND_TRIPS, ids=[r[0] for r in ROUND_TRIPS]
    )
    def test_fresh_report_verifies_and_tampered_fails(
        self, tmp_path, command, args, tamper
    ):
        part = tmp_path / "part.json"
        assert cli.main([
            "split", "--sigma", SMALL_GRID, "--level", "2",
            "--partition-out", str(part), "--output", str(tmp_path / "split.json"),
        ]) == 0
        report = tmp_path / "fresh.json"
        out_flag = "--report-out" if command == "generate-measure" else "--output"
        argv = [a.format(part=part, measure=tmp_path / "m.json") for a in args]
        assert cli.main([command, *argv, out_flag, str(report)]) == 0

        code, data = run_cli(tmp_path, "verify", "--report", str(report))
        assert code == 0, data
        assert data["report"]["ok"] is True

        blob = json.loads(report.read_text())
        tamper(blob["report"])
        report.write_text(json.dumps(blob))
        code, data = run_cli(tmp_path, "verify", "--report", str(report))
        assert code == 1
        assert data["error"]["type"] == "ToleranceError"

    @pytest.mark.parametrize("command, args, part", [
        ("factor2", ["--kernel", "hilbert", *ATOMS], "operator"),
        ("factor2", ["--kernel", "hilbert", *ATOMS], "restricted"),
        ("necessity", ["--kernel", "cauchy", "--mu", "ball_uniform:n=60,radius=0.25",
                       "--nu", "ball_uniform:n=60,radius=0.25", "--eps-grid", "0.25",
                       "--max-balls", "2"], "restricted"),
    ])
    def test_tampered_embedded_witness_fails(self, tmp_path, command, args, part):
        report = tmp_path / "fresh.json"
        assert cli.main([command, *args, "--output", str(report)]) == 0
        blob = json.loads(report.read_text())
        witness = blob["report"][part]["witness_f"]
        blob["report"][part]["witness_f"] = [1.0] * len(witness)
        report.write_text(json.dumps(blob))
        code, data = run_cli(tmp_path, "verify", "--report", str(report))
        assert code == 1
        assert "witness_quotient_matches_value" in data["error"]["message"]

    def test_zero_norm_factor2_ratio_is_rechecked(self, tmp_path):
        report = tmp_path / "f2.json"
        assert cli.main([
            "factor2", "--kernel", "hilbert", "--mu", "random_atoms:n=5",
            "--nu", "random_atoms:n=5", "--mollifier", "annulus:delta=0.1",
            "--eps", "100", "--output", str(report),
        ]) == 0
        blob = json.loads(report.read_text())
        assert blob["report"]["restricted"]["value"] == 0.0
        code, _ = run_cli(tmp_path, "verify", "--report", str(report))
        assert code == 0
        blob["report"]["ratio"] = 123.0
        report.write_text(json.dumps(blob))
        code, data = run_cli(tmp_path, "verify", "--report", str(report))
        assert code == 1
        assert "ratio_consistent" in data["error"]["message"]

    def test_necessity_ball_without_distinct_pairs_verifies(self, tmp_path):
        # one cloud as both measures at a scale below its point spacing: a
        # checked ball holds a single shared point and no pair to sample
        cloud = tmp_path / "cloud.json"
        assert cli.main([
            "generate-measure", "--kind", "ball_uniform", "--params", "n=40",
            "--output", str(cloud), "--report-out", str(tmp_path / "gen.json"),
        ]) == 0
        report = tmp_path / "nc.json"
        assert cli.main([
            "necessity", "--kernel", "cauchy", "--mu", str(cloud), "--nu", str(cloud),
            "--eps-grid", "1e-4", "--max-balls", "2", "--output", str(report),
        ]) == 0
        balls = json.loads(report.read_text())["report"]["balls"]
        assert any(b["checked"] and b["min_entry"] is None for b in balls)
        code, data = run_cli(tmp_path, "verify", "--report", str(report))
        assert code == 0
        assert data["report"]["ok"] is True

    def test_necessity_witness_on_shared_points_is_rechecked(self, tmp_path):
        # the necessity witness comes from K with its diagonal set to 0, so a
        # witness made active on a point both measures share is a failed
        # check, not a singular-kernel error
        cloud = tmp_path / "cloud.json"
        assert cli.main([
            "generate-measure", "--kind", "ball_uniform", "--params", "n=40",
            "--output", str(cloud), "--report-out", str(tmp_path / "gen.json"),
        ]) == 0
        report = tmp_path / "nc.json"
        assert cli.main([
            "necessity", "--kernel", "cauchy", "--mu", str(cloud), "--nu", str(cloud),
            "--eps-grid", "0.25", "--max-balls", "2", "--output", str(report),
        ]) == 0
        code, _ = run_cli(tmp_path, "verify", "--report", str(report))
        assert code == 0
        blob = json.loads(report.read_text())
        restricted = blob["report"]["restricted"]
        for key in ("witness_f", "witness_g"):
            restricted[key] = [1.0] * len(restricted[key])
        report.write_text(json.dumps(blob))
        code, data = run_cli(tmp_path, "verify", "--report", str(report))
        assert code == 1
        assert "witness_supports_separated" in data["error"]["message"]

    def test_disjoint_restricted_norm_is_the_operator_norm(self, tmp_path):
        flags = ["--kernel", "hilbert", "--mu", "random_atoms:n=100",
                 "--nu", "random_atoms:n=100,low=2,high=3", "--seed", "5"]
        _, op = run_cli(tmp_path, "opnorm", *flags)
        _, rn = run_cli(tmp_path, "restricted-norm", *flags)
        assert rn["report"]["kind"] == "restricted_exact"
        assert rn["report"]["iterations"] == 1
        assert rn["report"]["value"] == op["report"]["value"]

    @pytest.mark.parametrize("seed", ["1", "7"])
    def test_disjoint_factor2_is_one_solve_with_the_seed(self, tmp_path, seed):
        # no shared point: the restricted norm is the operator norm's own
        # Lanczos solve with the same seed, so the ratio is exactly 1
        code, data = run_cli(
            tmp_path, "factor2", "--kernel", "cauchy", "--mu", "ball_uniform:n=300",
            "--nu", "ball_uniform:n=300,center=3;0", "--seed", seed,
        )
        assert code == 0
        assert data["report"]["restricted"]["kind"] == "restricted_exact"
        assert data["report"]["ratio"] == 1.0

    def test_restricted_norm_at_p3_is_a_lower_bound(self, tmp_path):
        code, data = run_cli(tmp_path, "restricted-norm", "--kernel", "hilbert",
                             *ATOMS, "--p", "3")
        assert code == 0
        assert data["report"]["kind"] == "restricted_lower_p"
        assert data["report"]["residual"] == "NaN"

    @pytest.mark.parametrize("command, flags", [
        ("opnorm", ["--mu", "random_atoms:n=5", "--nu", "random_atoms:n=4,low=2,high=3",
                    "--mollifier", "complex_shift", "--eps", "0.5"]),
        ("necessity", ["--mu", "random_atoms:n=40", "--nu", "random_atoms:n=40",
                       "--eps-grid", "0.25"]),
        ("truncate-compare", ["--mu", "interleaved_grids:h=0.0625,part=1",
                              "--nu", "interleaved_grids:h=0.0625,part=2",
                              "--eps-grid", "0.1,0.5"]),
    ])
    def test_one_dimensional_riesz_runs_and_verifies(self, tmp_path, command, flags):
        report = tmp_path / "r.json"
        assert cli.main([
            command, "--kernel", "riesz:alpha=1,n=1", *flags, "--output", str(report),
        ]) == 0
        code, data = run_cli(tmp_path, "verify", "--report", str(report))
        assert code == 0
        assert data["report"]["ok"] is True

    @pytest.mark.parametrize("command", ["opnorm", "restricted-norm", "factor2"])
    def test_vector_kernel_at_p3_runs_and_verifies(self, tmp_path, command):
        report = tmp_path / "r.json"
        assert cli.main([
            command, "--kernel", "cauchy", "--mu", "ball_uniform:n=30",
            "--nu", "ball_uniform:n=30,center=3;0", "--p", "3",
            "--output", str(report),
        ]) == 0
        code, data = run_cli(tmp_path, "verify", "--report", str(report))
        assert code == 0
        assert data["report"]["ok"] is True


class TestExitCodes:
    def test_usage_error_is_two(self, tmp_path):
        code, data = run_cli(
            tmp_path, "restricted-norm", "--kernel", "not_a_kernel",
            "--mu", "random_atoms:n=4", "--nu", "random_atoms:n=4",
        )
        assert code == 2
        assert data["error"]["exit_code"] == 2

    def test_non_integral_kernel_dimension_is_two(self, tmp_path):
        # int() would run riesz N=2.5 as N = 2 and record n=2.5
        code, data = run_cli(
            tmp_path, "opnorm", "--kernel", "riesz:alpha=1,n=2.5",
            "--mu", "ball_uniform:n=5", "--nu", "ball_uniform:n=5,center=3",
        )
        assert code == 2
        assert data["error"]["type"] == "ParameterError"

    @pytest.mark.parametrize("argv, named", [
        (["schur-bound", "--mollifier", "gaussian:dimension=2"], "'dimension'"),
        (["schur-bound", "--mollifier", "annulus:delta=0.5,foo=1"], "'foo'"),
        (["schur-bound", "--mollifier", "gaussian:n=0"], "dimension"),
        (["opnorm", "--kernel", "hilbert:alpha=3"], "'alpha'"),
        (["opnorm", "--kernel", "riesz:alpha=inf,N=1"], "alpha"),
    ], ids=lambda v: v[2] if isinstance(v, list) else None)
    def test_bad_kernel_or_mollifier_spec_is_two(self, tmp_path, argv, named):
        # unknown keys were dropped: gaussian:dimension=2 gave the 1-D bound
        pair = ["--mu", "random_atoms:n=3", "--nu", "random_atoms:n=3,low=2,high=3"]
        code, data = run_cli(tmp_path, *argv, *(pair if argv[0] == "opnorm" else []))
        assert code == 2
        assert data["error"]["type"] == "ParameterError"
        assert named in data["error"]["message"]

    def test_missing_file_is_two(self, tmp_path):
        code, data = run_cli(
            tmp_path, "opnorm", "--mu", str(tmp_path / "absent.json"),
            "--nu", "random_atoms:n=4",
        )
        assert code == 2

    def test_data_failure_is_one(self, tmp_path):
        # a resolution too coarse for the requested level
        code, data = run_cli(
            tmp_path, "split", "--sigma", "lebesgue_grid:h=0.25", "--level", "5"
        )
        assert code == 1
        assert data["error"]["type"] == "ResolutionError"

    def test_shrink_retries_exhausted_is_one(self, tmp_path):
        # every point sits 2^-40 below the top of its 2^-8 cell, so no
        # shrink factor of the 20 retries keeps the level-3 balance
        i = np.arange(256)
        sigma = tmp_path / "sigma.json"
        measure.save_measure(
            measure.from_points(((i + 1 - 2.0**-40) / 256)[:, None], np.ones(256)), sigma
        )
        code, data = run_cli(tmp_path, "split", "--sigma", str(sigma), "--level", "3")
        assert code == 1
        assert data["error"]["type"] == "ShrinkRetryError"

    def test_non_convergence_is_three(self, tmp_path, monkeypatch):
        def explode(cfg, base_dir):
            raise NonConvergenceError("iteration cap reached")

        monkeypatch.setitem(
            cli._COMMANDS, "opnorm", cli._COMMANDS["opnorm"]._replace(run=explode)
        )
        code, data = run_cli(
            tmp_path, "opnorm", "--mu", "random_atoms:n=4",
            "--nu", "random_atoms:n=4,low=2,high=3",
        )
        assert code == 3
        assert data["error"]["exit_code"] == 3

    def test_arpack_non_convergence_is_three(self, tmp_path, monkeypatch):
        # 70 + 70 atoms take the Lanczos solve; a 2-vector basis cannot
        # reach its tolerance, so it runs out of restarts
        monkeypatch.setattr(forms, "_LANCZOS_CAP", 2)
        monkeypatch.setattr(forms, "_LANCZOS_RESTARTS", 1)
        code, data = run_cli(
            tmp_path, "opnorm", "--mu", "random_atoms:n=70",
            "--nu", "random_atoms:n=70,low=2,high=3",
        )
        assert code == 3
        assert data["error"]["type"] == "NonConvergenceError"
        assert data["error"]["exit_code"] == 3

    @pytest.mark.parametrize(
        "estimator, cap, code, error, inputs",
        [
            # one grid as both measures: 8 shared points above the cap
            pytest.param(
                "restricted_norm_heuristic", "4", 4, "InconclusiveError", SHARED_GRID,
                id="restricted_norm_heuristic-4-4-InconclusiveError",
            ),
            pytest.param(
                "restricted_norm_exact", "24", 1, "ToleranceError", ATOMS,
                id="restricted_norm_exact-24-1-ToleranceError",
            ),
            # at p = 3 the enumeration is a lower bound too
            pytest.param(
                "restricted_norm_exact", "24", 4, "InconclusiveError", [*ATOMS, "--p", "3"],
                id="restricted_norm_exact-p3-4-InconclusiveError",
            ),
        ],
    )
    def test_factor2_undershoot_exit_code(
        self, tmp_path, monkeypatch, estimator, cap, code, error, inputs
    ):
        # a lower bound that undershoots refutes nothing (exit 4); an exact
        # restricted norm that undershoots violates the inequality
        original = getattr(forms, estimator)

        def undershoot(*args, **kwargs):
            est = original(*args, **kwargs)
            return dataclasses.replace(est, value=est.value / 10)

        monkeypatch.setattr(forms, estimator, undershoot)
        got, data = run_cli(tmp_path, "factor2", "--kernel", "hilbert", *inputs, "--cap", cap)
        assert got == code
        assert data["error"]["type"] == error
        assert data["error"]["exit_code"] == code

    @pytest.mark.parametrize("argv", [
        # scale grids: a non-integral, negative or zero count, a non-number,
        # an empty entry, a zero end and a missing count
        *[["truncate-compare", *GRID_PAIR, "--eps-grid", grid] for grid in (
            "0.1:1:2.5", "abc", "1,,2", "0:1:3", "0.1:1", "0.1:1:-2", "1:0.1:0",
        )],
        ["muckenhoupt", *TWO_GRIDS, "--radii", "abc"],
        ["muckenhoupt", *TWO_GRIDS, "--radii", ""],
        ["muckenhoupt", *TWO_GRIDS, "--radii", "0.5,inf"],
        ["truncate-compare", *GRID_PAIR, "--eps-grid", "inf"],
        ["necessity", "--mu", "ball_uniform:n=20,radius=0.25",
         "--nu", "ball_uniform:n=20,radius=0.25", "--eps-grid", "0.25,inf"],
        ["muckenhoupt", *TWO_GRIDS, "--centers", "abc"],
        ["muckenhoupt", *TWO_GRIDS, "--centers", "0.5;0.5"],
        ["muckenhoupt", *TWO_GRIDS, "--centers", "0.5|0.5,0.5"],
        # NaN fails every range check instead of passing it
        ["moment-order", "--half-width", "nan"],
        ["moment-order", "--half-width", "inf"],
        ["moment-order", "--points", "0"],
        ["moment-order", "--tolerance", "nan"],
        ["schur-bound", "--half-width", "inf"],
        ["opnorm", *TWO_GRIDS, "--diagonal-policy", "nan"],
        ["opnorm", *TWO_GRIDS, "--diagonal-policy", "inf"],
        ["necessity", "--mu", "ball_uniform:n=20,radius=0.25",
         "--nu", "ball_uniform:n=20,radius=0.25", "--alpha", "nan"],
        # a NaN or negative tolerance is refused, not failed against
        ["factor2", "--kernel", "hilbert", *ATOMS, "--tolerance", "nan"],
        ["factor2", "--kernel", "hilbert", *ATOMS, "--tolerance", "-1"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_malformed_number_is_a_parameter_error(self, tmp_path, argv):
        code, data = run_cli(tmp_path, *argv)
        assert code == 2
        assert data["error"]["type"] == "ParameterError"

    @pytest.mark.parametrize("kind, params", [
        ("random_atoms", "n=-3"),
        ("ball_uniform", "n=0"),
        ("ball_uniform", "dimension=0"),
        ("lebesgue_grid", "dimension=-2"),
        ("lebesgue_grid", "h=0"),
        ("lebesgue_grid", "h=nan"),
        ("random_atoms", "low=2,high=1"),
        ("random_atoms", "low=nan"),
        ("random_atoms", "high=inf"),
    ])
    def test_malformed_generator_number_is_a_parameter_error(self, tmp_path, kind, params):
        report = tmp_path / "gen.json"
        code = cli.main([
            "generate-measure", "--kind", kind, "--params", params,
            "--output", str(tmp_path / "m.json"), "--report-out", str(report),
        ])
        assert code == 2
        assert json.loads(report.read_text())["error"]["type"] == "ParameterError"

    def test_no_command_prints_usage(self, capsys):
        assert cli.main([]) == 2

    def test_error_text_prints_plain_floats(self, tmp_path):
        code, data = run_cli(
            tmp_path, "opnorm", "--kernel", "hilbert",
            "--mu", "lebesgue_grid:h=0.25", "--nu", "lebesgue_grid:h=0.25",
        )
        assert code == 1
        assert data["error"]["type"] == "DiagonalSingularityError"
        assert "((0.125,), (0.125,))" in data["error"]["message"]
        assert "np.float64" not in data["error"]["message"]

    @pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
    def test_bad_config_writes_a_schema_error_report(self, tmp_path, text):
        config = tmp_path / "config.json"
        if text is not None:
            config.write_text(text)
        code, data = run_cli(tmp_path, "moment-order", "--config", str(config))
        assert code == 2
        assert data["error"]["type"] == "SchemaError"
        assert "config" in data["error"]["message"]

    def test_error_report_shape(self, tmp_path):
        code, data = run_cli(tmp_path, "muckenhoupt", "--mu", "random_atoms:n=3",
                             "--nu", "random_atoms:n=3,low=2,high=3",
                             "--alpha", "-2")
        assert code == 2
        assert set(data["error"]) == {"type", "message", "exit_code"}

    def test_failed_generate_measure_reports_to_report_out(self, tmp_path):
        # --output names the measure file, so the error report goes to --report-out
        m_path, r_path = tmp_path / "m.json", tmp_path / "r.json"
        code = cli.main([
            "generate-measure", "--kind", "nope",
            "--output", str(m_path), "--report-out", str(r_path),
        ])
        assert code == 2
        assert not m_path.exists()
        error = json.loads(r_path.read_text())["error"]
        assert error["type"] == "ParameterError"
        assert "nope" in error["message"]

    def test_measure_file_as_partition_is_a_schema_error(self, tmp_path):
        path = tmp_path / "g.json"
        measure.save_measure(measure.lebesgue_grid([0.0], 1.0, 0.25, 1), path)
        code, data = run_cli(tmp_path, "split-verify", "--partition", str(path))
        assert code == 2
        assert data["error"]["type"] == "SchemaError"
        assert "'level'" in data["error"]["message"]

    def test_malformed_partition_level_is_a_schema_error(self, tmp_path):
        part_path = tmp_path / "part.json"
        run_cli(
            tmp_path, "split", "--sigma", "lebesgue_grid:h=0.00390625",
            "--level", "2", "--partition-out", str(part_path),
        )
        blob = json.loads(part_path.read_text())
        blob["fine_level"] = "x"
        part_path.write_text(json.dumps(blob))
        code, data = run_cli(tmp_path, "split-verify", "--partition", str(part_path))
        assert code == 2
        assert data["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("command, flag", [
        ("split-verify", "--partition"), ("verify", "--report"),
    ])
    @pytest.mark.parametrize("text", ["3", "[1, 2]"])
    def test_file_without_a_json_object_is_a_schema_error(
        self, tmp_path, command, flag, text
    ):
        path = tmp_path / "in.json"
        path.write_text(text)
        code, data = run_cli(tmp_path, command, flag, str(path))
        assert code == 2
        assert data["error"]["type"] == "SchemaError"

    def test_verify_names_a_report_with_missing_fields(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"command": "opnorm", "config": {}, "report": {}}))
        code, data = run_cli(tmp_path, "verify", "--report", str(bad))
        assert code == 2
        assert data["error"]["type"] == "SchemaError"
        assert str(bad) in data["error"]["message"]
        assert "'kernel'" in data["error"]["message"]

    @pytest.mark.parametrize("field", ["witness_f", "value"])
    def test_verify_names_a_report_with_a_string_field(self, tmp_path, field):
        code, data = run_cli(
            tmp_path, "opnorm", "--kernel", "hilbert", "--mu", "random_atoms:n=10",
            "--nu", "random_atoms:n=9,low=2,high=3", "--seed", "5",
        )
        assert code == 0
        data["report"][field] = "x"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, data = run_cli(tmp_path, "verify", "--report", str(bad))
        assert code == 2
        assert data["error"]["type"] == "SchemaError"
        assert str(bad) in data["error"]["message"]


class TestMeasureSpecs:
    def test_inline_vector_params(self):
        m = measure.generate_measure(
            "lebesgue_grid",
            measure.spec_arguments("corner=0;0,side=1,h=0.25,dimension=2", "measure"),
            0,
        )
        assert m.dimension == 2
        assert len(m) == 16

    def test_pair_generator_needs_part_inline(self, tmp_path):
        with pytest.raises(UsageError, match="part"):
            cli._measure_from_spec("interleaved_grids:h=0.25", 0)

    def test_malformed_inline_spec(self):
        with pytest.raises(ParameterError):
            measure.spec_arguments("n=", "measure")

    @pytest.mark.parametrize("spec", ["random_atoms:n=3,n=5", "random_atoms:n=3, N =5"])
    def test_repeated_key_is_a_usage_error(self, tmp_path, spec):
        # the last value used to win silently: 5 points, exit 0
        code, data = run_cli(
            tmp_path, "opnorm", "--mu", spec, "--nu", "random_atoms:n=3,low=5,high=6"
        )
        assert code == 2
        assert data["error"]["type"] == "ParameterError"
        assert "'n' given twice" in data["error"]["message"]

    @pytest.mark.parametrize("spec, named", [
        ("interleaved_grids:h=0.5,part=3", "part"),
        ("random_atoms:n=3,high=abc", "high"),
        # int() would truncate these: n=3.5 gave 3 points
        ("random_atoms:n=3.5", "parameter n "),
        ("ball_uniform:n=5,dimension=2.5", "dimension"),
        ("interleaved_grids:h=0.5,part=1.5", "part"),
    ])
    def test_malformed_generator_parameter_is_a_usage_error(self, tmp_path, spec, named):
        code, data = run_cli(
            tmp_path, "opnorm", "--mu", spec, "--nu", "random_atoms:n=3,low=5,high=6"
        )
        assert code == 2
        assert data["error"]["type"] == "ParameterError"
        kind = spec.partition(":")[0]
        assert kind in data["error"]["message"] and named in data["error"]["message"]


class TestModuleEntry:
    def test_python_m_siolab_runs_without_runtime_warning(self, tmp_path):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "siolab",
             "moment-order", "--output", str(tmp_path / "report.json")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "report.json").read_text())["command"] == "moment_order"

    @pytest.mark.parametrize("argv", [
        ["opnorm", "--kernel", "hilbert", "--mu", "random_atoms:n=70",
         "--nu", "random_atoms:n=70,low=2,high=3"],
        ["schur-bound", "--mollifier", "gaussian"],
        ["split", "--sigma", "lebesgue_grid:h=0.0625,dimension=2", "--level", "2",
         "--partition-out", "part.json"],
    ], ids=lambda argv: argv[0])
    def test_command_imports_no_numpy_module(self, tmp_path, argv):
        # numpy submodules load with siolab, so start-up pays for them and
        # the command does not (70 + 70 atoms take the Lanczos solve)
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        script = (
            "import sys\n"
            "from siolab import cli\n"
            "before = set(sys.modules)\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.')))\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv, "--output", "report.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("module", ["scipy", "scipy.integrate", "scipy.spatial"])
    def test_import_leaves_scipy_module_out(self, module):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import siolab, sys; sys.exit({module!r} in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
