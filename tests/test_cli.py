import csv
import hashlib
import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from pauli_simplex.cli import cli

README = Path(__file__).resolve().parents[1] / "README.md"

#: SHA-256 of the `scan --n 400` CSV
SCAN_400_SHA256 = "e4078959146d86a6e3016be2bc45d3fee182a7fd7e007a8342de308da8d126d5"


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 0, result.output
    return result


class TestRates:
    def test_symmetric_blend(self, runner):
        result = run_ok(
            runner,
            ["rates", "--a", ".333333", "--b", ".333333", "--c", ".333334", "--p", ".25", "--json"],
        )
        record = json.loads(result.output)
        gx, gy, gz = (record["results"][k] for k in ("gamma_x", "gamma_y", "gamma_z"))
        assert gx == pytest.approx(gy, rel=1e-4) and gy == pytest.approx(gz, rel=1e-4)
        assert min(gx, gy, gz) > 0
        assert record["results"]["fd_delta_max"] < 1e-6

    def test_edge_blend_has_negative_rate(self, runner):
        result = run_ok(
            runner, ["rates", "--a", "0", "--b", ".5", "--c", ".5", "--p", ".45", "--json"]
        )
        record = json.loads(result.output)
        rates = [record["results"][k] for k in ("gamma_x", "gamma_y", "gamma_z")]
        assert sum(g < 0 for g in rates) == 1

    def test_vertex_all_nonnegative(self, runner):
        result = run_ok(
            runner, ["rates", "--a", "1", "--b", "0", "--c", "0", "--p", ".3", "--json"]
        )
        record = json.loads(result.output)
        assert min(record["results"][k] for k in ("gamma_x", "gamma_y", "gamma_z")) >= 0

    def test_physical_convention(self, runner):
        result = run_ok(
            runner,
            ["rates", "--a", ".2", "--b", ".3", "--c", ".5", "--p", ".1",
             "--r", "2.0", "--convention", "physical", "--json"],
        )
        record = json.loads(result.output)
        assert record["params"]["convention"] == "physical"

    def test_physical_without_r_is_usage_error(self, runner):
        result = runner.invoke(
            cli,
            ["rates", "--a", ".2", "--b", ".3", "--c", ".5", "--p", ".1",
             "--convention", "physical"],
        )
        assert result.exit_code == 2
        assert "decay constant" in result.output

    def test_bad_weights_exit_code(self, runner):
        result = runner.invoke(
            cli, ["rates", "--a", ".5", "--b", ".5", "--c", ".5", "--p", ".1"]
        )
        assert result.exit_code == 2
        assert "sum" in result.output

    def test_p_out_of_domain(self, runner):
        result = runner.invoke(
            cli, ["rates", "--a", ".2", "--b", ".3", "--c", ".5", "--p", ".6"]
        )
        assert result.exit_code == 2
        assert "p=" in result.output


class TestClassify:
    def test_centroid(self, runner):
        result = run_ok(
            runner,
            ["classify", "--a", ".3333333333", "--b", ".3333333333", "--c", ".3333333334"],
        )
        assert "MARKOVIAN" in result.output

    def test_nonmarkovian_json(self, runner):
        result = run_ok(
            runner, ["classify", "--a", ".45", "--b", ".1", "--c", ".45", "--json"]
        )
        record = json.loads(result.output)
        assert record["results"]["label"] == "NONMARKOVIAN"
        assert record["results"]["region"] == "Y"
        assert record["results"]["gamma_y"] < 0

    def test_vertex_infinite_rate_token(self, runner):
        result = run_ok(runner, ["classify", "--a", "1", "--b", "0", "--c", "0", "--json"])
        record = json.loads(result.output)
        assert record["results"]["label"] == "MARKOVIAN"
        assert record["results"]["gamma_x"] == "inf"
        # round trip: serializing the parsed record again is stable
        assert json.loads(json.dumps(record)) == record


class TestScan:
    def test_small_grid_csv(self, runner, tmp_path):
        out = tmp_path / "grid.csv"
        run_ok(runner, ["scan", "--n", "20", "--out", str(out)])
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header == ["a", "b", "c", "u", "v", "label", "region",
                          "gamma_x", "gamma_y", "gamma_z"]
        assert len(body) == 21 * 22 // 2
        labels = {row[5] for row in body}
        assert labels == {"MARKOVIAN", "NONMARKOVIAN"}
        # numeric columns parse, with inf tokens allowed in the rate columns
        for row in body:
            floats = [float(v) for v in row[:5]]
            assert all(math.isfinite(v) for v in floats)
            for v in row[7:]:
                float(v)

    def test_lf_line_endings(self, runner, tmp_path):
        out = tmp_path / "grid.csv"
        run_ok(runner, ["scan", "--n", "3", "--out", str(out)])
        data = out.read_bytes()
        assert b"\r" not in data

    def test_deterministic_output(self, runner, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        run_ok(runner, ["scan", "--n", "15", "--out", str(first)])
        run_ok(runner, ["scan", "--n", "15", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_golden_n400(self, runner, tmp_path):
        out = tmp_path / "grid.csv"
        result = run_ok(runner, ["scan", "--n", "400", "--out", str(out)])
        assert result.output == f"wrote 80601 rows to {out} (markovian fraction 0.130308557)\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SCAN_400_SHA256

    def test_io_failure_exit_code(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["scan", "--n", "2", "--out", str(tmp_path / "missing" / "x.csv")]
        )
        assert result.exit_code == 3

    def test_bad_resolution(self, runner, tmp_path):
        result = runner.invoke(cli, ["scan", "--n", "0", "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        assert "grid resolution must be >= 1, got 0" in result.output
        assert not (tmp_path / "x.csv").exists()


class TestMeasure:
    def test_quadrature(self, runner):
        result = run_ok(runner, ["measure", "--method", "quad", "--tol", "1e-8", "--json"])
        record = json.loads(result.output)
        assert record["results"]["region_y"] == pytest.approx(0.2898, abs=1e-3)
        assert record["results"]["total"] == pytest.approx(0.867, abs=3e-3)
        assert record["results"]["markovian"] == pytest.approx(0.133, abs=3e-3)

    def test_monte_carlo_reproducible(self, runner):
        args = ["measure", "--method", "mc", "--samples", "200000", "--seed", "42", "--json"]
        first = run_ok(runner, args).output
        second = run_ok(runner, args).output
        assert first == second
        record = json.loads(first)
        assert record["seed"] == 42
        assert record["results"]["total"] == pytest.approx(0.8694, abs=0.005)

    def test_single_sample_degenerate(self, runner):
        result = run_ok(
            runner, ["measure", "--method", "mc", "--samples", "1", "--seed", "1", "--json"]
        )
        record = json.loads(result.output)
        assert record["results"]["total"] in (0.0, 1.0)
        assert record["results"]["error"] == 0.5

    def test_threads_do_not_change_estimate(self, runner):
        base = ["measure", "--method", "mc", "--samples", "300000", "--seed", "5", "--json"]
        one = json.loads(run_ok(runner, base + ["--threads", "1"]).output)
        four = json.loads(run_ok(runner, base + ["--threads", "4"]).output)
        assert one["results"] == four["results"]

    def test_bad_method(self, runner):
        assert runner.invoke(cli, ["measure", "--method", "exact"]).exit_code == 2

    def test_bad_samples(self, runner):
        result = runner.invoke(cli, ["measure", "--method", "mc", "--samples", "0"])
        assert result.exit_code == 2


class TestBoundary:
    def test_curve_csv(self, runner, tmp_path):
        out = tmp_path / "curve.csv"
        run_ok(runner, ["boundary", "--region", "Y", "--points", "40", "--out", str(out)])
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "b", "c", "u", "v", "branch"]
        body = rows[1:]
        assert len(body) == 80
        # the two branches meet where the band closes
        join_lo = [float(v) for v in body[39][:3]]
        join_hi = [float(v) for v in body[40][:3]]
        assert join_lo == pytest.approx(join_hi, abs=1e-6)
        assert {row[5] for row in body} == {"-1", "1"}

    def test_branch_endpoints_on_simplex_edge(self, runner, tmp_path):
        out = tmp_path / "curve.csv"
        run_ok(runner, ["boundary", "--region", "Y", "--points", "10", "--out", str(out)])
        with open(out, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        first = [float(v) for v in body[0][:3]]
        last = [float(v) for v in body[-1][:3]]
        assert first == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        assert last == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_io_failure_exit_code(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            ["boundary", "--region", "Y", "--points", "5",
             "--out", str(tmp_path / "no" / "x.csv")],
        )
        assert result.exit_code == 3

    def test_too_few_points(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["boundary", "--region", "Y", "--points", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 2
        assert "need at least 2 points per branch, got 1" in result.output
        assert not (tmp_path / "x.csv").exists()


class TestChoi:
    def test_worked_example(self, runner):
        result = run_ok(runner, ["choi", "--a", "0.1", "--q", "0.45", "--p", "0.4", "--json"])
        record = json.loads(result.output)
        assert record["results"]["min_eigenvalue"] == pytest.approx(-0.0839, abs=5e-4)
        assert record["results"]["verdict"] == "NONMARKOVIAN"
        assert record["results"]["cp"] is False

    def test_identity_intermediate_map(self, runner):
        result = run_ok(runner, ["choi", "--a", "0.3", "--q", "0.2", "--p", "0.2", "--json"])
        record = json.loads(result.output)
        eigs = sorted(record["results"]["eigenvalues"])
        assert eigs == pytest.approx([0.0, 0.0, 0.0, 2.0], abs=1e-12)
        assert record["results"]["cp"] is True

    def test_oracle_agreement(self, runner):
        result = run_ok(
            runner, ["choi", "--a", "0.5", "--q", "0.3", "--p", "0.1", "--oracle", "--json"]
        )
        record = json.loads(result.output)
        assert record["results"]["oracle_max_deviation"] < 1e-12

    def test_backward_map_is_usage_error(self, runner):
        result = runner.invoke(cli, ["choi", "--a", "0.1", "--q", "0.3", "--p", "0.4"])
        assert result.exit_code == 2
        assert "forward" in result.output

    def test_human_output_lists_eigenvalues(self, runner):
        result = run_ok(runner, ["choi", "--a", "0.1", "--q", "0.45", "--p", "0.4"])
        assert "eigenvalues" in result.output
        assert "-0.0838509317" in result.output


class TestRecordFormat:
    def test_json_numbers_round_trip(self, runner):
        result = run_ok(
            runner, ["rates", "--a", ".2", "--b", ".3", "--c", ".5", "--p", ".3", "--json"]
        )
        record = json.loads(result.output)
        assert record["command"] == "rates"
        assert record["version"]
        text = json.dumps(record)
        assert json.loads(text) == record

    def test_human_mode_significant_digits(self, runner):
        result = run_ok(runner, ["measure", "--method", "quad"])
        line = [l for l in result.output.splitlines() if l.startswith("region_y")][0]
        value = line.split()[-1]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 9


class TestReadme:
    def test_json_example_is_real_output(self, runner):
        (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        example = json.loads(block)
        params = example["params"]
        args = ["measure", "--method", params["method"], "--samples", str(params["samples"]),
                "--seed", str(params["seed"]), "--json"]
        assert json.loads(run_ok(runner, args).output) == example
