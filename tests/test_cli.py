import json
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from corrbinom import (CBParams, Dataset, EMConfig, FitDegeneracyError, binomial_pmf, bias,
                       child_seed, em_fit, percentile_interval, rmse, sample)
from corrbinom.cli import main
from conftest import GOLDEN_ITERATIONS, GOLDEN_P_HAT, GOLDEN_RHO_HAT, SOYBEAN_COUNTS


@pytest.fixture
def soybean_file(tmp_path):
    path = tmp_path / "soybean.txt"
    path.write_text("# plants selected per plot\n"
                    + "\n".join(str(y) for y in SOYBEAN_COUNTS) + "\n")
    return path


def run_cli(args, capsys):
    status = main(args)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestFit:
    def test_golden_fit_text(self, soybean_file, capsys):
        status, out, _ = run_cli(["fit", "--input", str(soybean_file), "--n", "6",
                                  "--start-p", "0.5", "--start-rho", "0.1"], capsys)
        assert status == 0
        fields = {line.split()[0]: line.split()[1] for line in out.strip().splitlines()}
        assert float(fields["p_hat"]) == pytest.approx(GOLDEN_P_HAT, abs=1e-6)
        assert float(fields["rho_hat"]) == pytest.approx(GOLDEN_RHO_HAT, abs=1e-6)
        assert fields["iterations"] == "55"
        assert fields["converged"] == "true"

    def test_golden_fit_json(self, soybean_file, capsys):
        status, out, _ = run_cli(["fit", "--input", str(soybean_file), "--n", "6",
                                  "--start-p", "0.5", "--start-rho", "0.1",
                                  "--format", "json"], capsys)
        assert status == 0
        report = json.loads(out)
        assert report["command"] == "fit"
        assert report["schema_version"] == 1
        results = report["results"]
        assert results["p_hat"] == pytest.approx(GOLDEN_P_HAT, abs=1e-6)
        assert results["rho_hat"] == pytest.approx(GOLDEN_RHO_HAT, abs=1e-6)
        assert results["iterations"] == GOLDEN_ITERATIONS
        assert results["converged"] is True

    def test_oracle_cross_check(self, soybean_file, capsys):
        status, out, _ = run_cli(["fit", "--input", str(soybean_file), "--n", "6",
                                  "--oracle", "--format", "json"], capsys)
        assert status == 0
        oracle = json.loads(out)["results"]["oracle"]
        assert abs(oracle["log_likelihood_gap"]) <= 1e-6

    def test_interior_only_data(self, tmp_path, capsys):
        path = tmp_path / "threes.txt"
        path.write_text("3 3 3 3 3 3\n")
        status, out, _ = run_cli(["fit", "--input", str(path), "--n", "6",
                                  "--format", "json"], capsys)
        assert status == 0
        results = json.loads(out)["results"]
        assert results["rho_hat"] == 0.0
        assert results["p_hat"] == pytest.approx(0.5, rel=1e-15)

    def test_parse_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\nthree\n")
        status, _, err = run_cli(["fit", "--input", str(path), "--n", "6"], capsys)
        assert status == 2
        assert "line 2" in err
        assert "three" in err

    def test_out_of_range_names_value(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 9\n")
        status, _, err = run_cli(["fit", "--input", str(path), "--n", "6"], capsys)
        assert status == 2
        assert "9" in err

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"\xff\xfe3 4\n")
        status, out, err = run_cli(["fit", "--input", str(path), "--n", "6"], capsys)
        assert status == 2
        assert out == ""
        assert err == f"corrbinom: error: {path}: not UTF-8 text\n"

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        status, _, err = run_cli(["fit", "--input", str(tmp_path / "nope.txt"),
                                  "--n", "6"], capsys)
        assert status == 2

    def test_iteration_cap_exit_status(self, soybean_file, capsys):
        status, out, _ = run_cli(["fit", "--input", str(soybean_file), "--n", "6",
                                  "--maxits", "3"], capsys)
        assert status == 3

    def test_missing_required_flag_is_usage_error(self, soybean_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fit", "--input", str(soybean_file)])
        assert info.value.code == 1

    def test_bad_start_value_is_usage_error(self, soybean_file, capsys):
        status, _, err = run_cli(["fit", "--input", str(soybean_file), "--n", "6",
                                  "--start-rho", "0"], capsys)
        assert status == 1

    def test_report_written_to_file(self, soybean_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        status, out, _ = run_cli(["fit", "--input", str(soybean_file), "--n", "6",
                                  "--format", "json", "--output", str(out_path)], capsys)
        assert status == 0
        assert out == ""
        assert json.loads(out_path.read_text())["command"] == "fit"


class TestSimulate:
    def test_small_run_json(self, capsys):
        args = ["simulate", "--n", "10", "--p", "0.5", "--rho", "0.8",
                "--k", "30", "--reps", "25", "--seed", "4", "--format", "json"]
        status, out, _ = run_cli(args, capsys)
        assert status == 0
        report = json.loads(out)
        assert report["seed"] == 4
        assert report["results"]["degenerate_count"] == 0
        for name, truth in (("p", 0.5), ("rho", 0.8)):
            summary = report["results"][name]
            assert summary["truth"] == truth
            assert summary["rmse"] >= abs(summary["bias"])
            assert 0.0 <= summary["interval_low"] <= summary["interval_high"] <= 1.0

    def test_identical_invocations_identical_bytes(self, capsys):
        args = ["simulate", "--n", "10", "--p", "0.5", "--rho", "0.8",
                "--k", "30", "--reps", "25", "--seed", "4", "--format", "json"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_single_replication_bias_is_estimate_error(self, capsys):
        args = ["simulate", "--n", "10", "--p", "0.5", "--rho", "0.8",
                "--k", "30", "--reps", "1", "--seed", "123", "--format", "json"]
        _, out, _ = run_cli(args, capsys)
        report = json.loads(out)
        data = sample(CBParams(10, 0.5, 0.8), 30, child_seed(123, 0))
        refit = em_fit(data)
        assert report["results"]["p"]["bias"] == refit.p_hat - 0.5
        assert report["results"]["rho"]["bias"] == refit.rho_hat - 0.8

    def test_generated_seed_is_reported(self, capsys):
        args = ["simulate", "--n", "6", "--p", "0.5", "--rho", "0.5",
                "--k", "10", "--reps", "2", "--format", "json"]
        _, out, _ = run_cli(args, capsys)
        assert isinstance(json.loads(out)["seed"], int)

    def test_plot_chaining(self, tmp_path, capsys):
        plot_dir = tmp_path / "figs"
        args = ["simulate", "--n", "10", "--p", "0.5", "--rho", "0.8",
                "--k", "30", "--reps", "40", "--seed", "4", "--plot", str(plot_dir)]
        status, _, _ = run_cli(args, capsys)
        assert status == 0
        assert (plot_dir / "estimates.svg").exists()
        assert (plot_dir / "estimates.csv").exists()
        ET.parse(plot_dir / "estimates.svg")

    def test_invalid_rho_is_usage_error(self, capsys):
        status, _, err = run_cli(["simulate", "--n", "10", "--p", "0.5", "--rho", "1.5",
                                  "--k", "30", "--reps", "5", "--seed", "1"], capsys)
        assert status == 1


class TestPMF:
    def test_binomial_reduction_rows_and_sum(self, capsys):
        status, out, _ = run_cli(["pmf", "--n", "6", "--p", "0.5", "--rho", "0"], capsys)
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("y")
        rows = lines[1:-1]
        assert len(rows) == 7
        for y, row in enumerate(rows):
            assert float(row.split()[1]) == pytest.approx(binomial_pmf(y, 6, 0.5), rel=1e-10)
        assert float(lines[-1].split()[1]) == pytest.approx(1.0, abs=1e-12)

    def test_json_table(self, capsys):
        status, out, _ = run_cli(["pmf", "--n", "10", "--p", "0.2", "--rho", "0.9",
                                  "--format", "json"], capsys)
        report = json.loads(out)
        assert len(report["results"]["pmf"]) == 11
        assert report["results"]["pmf"][0] == pytest.approx(0.7307374182, abs=1e-9)
        assert report["results"]["sum"] == pytest.approx(1.0, abs=1e-12)


class TestSample:
    def test_boundary_only_output(self, tmp_path, capsys):
        out_file = tmp_path / "draws.txt"
        status, out, _ = run_cli(["sample", "--n", "6", "--p", "0.5", "--rho", "1",
                                  "--k", "10", "--seed", "5", "--output", str(out_file)], capsys)
        assert status == 0
        values = [int(tok) for line in out_file.read_text().splitlines()
                  if line.strip() and not line.startswith("#") for tok in line.split()]
        assert set(values) <= {0, 6}
        assert len(values) == 10

    def test_round_trip_into_fit(self, tmp_path, capsys):
        out_file = tmp_path / "draws.txt"
        run_cli(["sample", "--n", "10", "--p", "0.5", "--rho", "0.8",
                 "--k", "30", "--seed", "5", "--output", str(out_file)], capsys)
        status, out, _ = run_cli(["fit", "--input", str(out_file), "--n", "10",
                                  "--format", "json"], capsys)
        assert status in (0, 3)
        data = sample(CBParams(10, 0.5, 0.8), 30, 5)
        refit = em_fit(data)
        assert json.loads(out)["results"]["p_hat"] == refit.p_hat

    def test_same_seed_same_file(self, tmp_path, capsys):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        for path in (first, second):
            run_cli(["sample", "--n", "6", "--p", "0.3", "--rho", "0.4",
                     "--k", "20", "--seed", "9", "--output", str(path)], capsys)
        assert first.read_text() == second.read_text()

    def test_generated_seed_is_printed(self, tmp_path, capsys):
        out_file = tmp_path / "draws.txt"
        status, out, _ = run_cli(["sample", "--n", "6", "--p", "0.3", "--rho", "0.4",
                                  "--k", "5", "--output", str(out_file)], capsys)
        assert status == 0
        assert "seed " in out


class TestPlot:
    def test_svg_and_csv_from_estimates(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        estimates = rng.random(1000)
        est_file = tmp_path / "rho_hats.txt"
        est_file.write_text("\n".join(repr(float(v)) for v in estimates) + "\n")
        out_dir = tmp_path / "figs"
        status, out, _ = run_cli(["plot", "--input", str(est_file), "--output", str(out_dir),
                                  "--resolution", "41", "--format", "json"], capsys)
        assert status == 0
        report = json.loads(out)
        svg = out_dir / "rho_hats.svg"
        csv_path = out_dir / "rho_hats.csv"
        assert svg.exists() and csv_path.exists()
        ET.parse(svg)
        # percentile_interval derives its tail levels as (1 - level) / 2, an
        # ulp away from the polygon's grid levels, so compare approximately
        low, high = percentile_interval(estimates, 0.95)
        rows = [(float(r.split(",")[1]), float(r.split(",")[2]))
                for r in csv_path.read_text().strip().splitlines()[1:]]
        value_near = lambda level: min(rows, key=lambda lv: abs(lv[0] - level))[1]
        assert value_near(0.025) == pytest.approx(low, rel=1e-12)
        assert value_near(0.975) == pytest.approx(high, rel=1e-12)

    def test_bad_estimates_file(self, tmp_path, capsys):
        est_file = tmp_path / "bad.txt"
        est_file.write_text("0.5\nnot-a-number\n")
        status, _, err = run_cli(["plot", "--input", str(est_file),
                                  "--output", str(tmp_path)], capsys)
        assert status == 2
        assert "line 2" in err

    def test_non_utf8_estimates_file_is_data_error(self, tmp_path, capsys):
        est_file = tmp_path / "latin.txt"
        est_file.write_bytes(b"\xff\xfe3 4\n")
        status, out, err = run_cli(["plot", "--input", str(est_file),
                                    "--output", str(tmp_path / "figs")], capsys)
        assert status == 2
        assert out == ""
        assert err == f"corrbinom: error: {est_file}: not UTF-8 text\n"
        assert not (tmp_path / "figs").exists()

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_estimate_is_data_error(self, tmp_path, capsys, token):
        est_file = tmp_path / "estimates.txt"
        est_file.write_text(f"0.5\n0.25\n{token}\n0.75\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out, err = run_cli(["plot", "--input", str(est_file),
                                        "--output", str(tmp_path / "figs")], capsys)
        assert status == 2
        assert out == ""
        assert err == (f"corrbinom: error: {est_file}: line 3: "
                       f"cannot parse {token!r} as a finite number\n")
        assert not (tmp_path / "figs").exists()


class TestSchemaStability:
    def test_fit_reports_share_keys(self, soybean_file, tmp_path, capsys):
        _, first, _ = run_cli(["fit", "--input", str(soybean_file), "--n", "6",
                               "--format", "json"], capsys)
        other = tmp_path / "other.txt"
        other.write_text("2 3 4\n")
        _, second, _ = run_cli(["fit", "--input", str(other), "--n", "6",
                                "--format", "json"], capsys)

        def key_paths(obj, prefix=""):
            paths = set()
            if isinstance(obj, dict):
                for key, value in obj.items():
                    paths.add(f"{prefix}{key}")
                    paths |= key_paths(value, f"{prefix}{key}.")
            return paths

        first_keys = key_paths(json.loads(first))
        second_keys = key_paths(json.loads(second))
        assert first_keys == second_keys


class TestReportDestination:
    def test_sample_json_report_goes_to_stdout_not_over_counts(self, tmp_path, capsys):
        out_file = tmp_path / "draws.txt"
        status, out, _ = run_cli(["sample", "--n", "6", "--p", "0.3", "--rho", "0.4",
                                  "--k", "12", "--seed", "9", "--output", str(out_file),
                                  "--format", "json"], capsys)
        assert status == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("# CB(n=6")
        assert [int(y) for y in lines[1:]] == sample(CBParams(6, 0.3, 0.4), 12, 9).observations.tolist()
        report = json.loads(out)
        assert set(report) == {"command", "schema_version", "params", "seed", "results"}
        assert report["command"] == "sample"
        assert report["results"] == {"count": 12, "path": str(out_file)}

    def test_pmf_report_matches_pointwise_table(self, capsys):
        from corrbinom import cb_pmf
        params = CBParams(12, 0.37, 0.25)
        probs = [cb_pmf(y, params) for y in range(13)]
        _, out, _ = run_cli(["pmf", "--n", "12", "--p", "0.37", "--rho", "0.25",
                             "--format", "json"], capsys)
        assert out == json.dumps({"command": "pmf", "schema_version": 1,
                                  "params": {"n": 12, "p": 0.37, "rho": 0.25}, "seed": None,
                                  "results": {"pmf": probs, "sum": sum(probs)}}, indent=2) + "\n"
        _, out, _ = run_cli(["pmf", "--n", "12", "--p", "0.37", "--rho", "0.25"], capsys)
        assert out.splitlines()[1:] == [f"{y}  {prob:.12g}" for y, prob in enumerate(probs)] \
            + [f"sum  {sum(probs):.12g}"]


class TestFitInputChecks:
    @pytest.mark.parametrize("contents", ["0 0 0\n", "0 1 2\n"])
    def test_n_zero_is_usage_error_whatever_the_data(self, tmp_path, capsys, contents):
        path = tmp_path / "counts.txt"
        path.write_text(contents)
        status, out, err = run_cli(["fit", "--input", str(path), "--n", "0"], capsys)
        assert status == 1
        assert out == ""
        assert err == "corrbinom: error: n must be an integer >= 1, got 0\n"

    @pytest.mark.parametrize("contents, bad", [
        ("1 9 -3 7\n", "9"),
        ("# plot counts\n2 -1\n", "-1"),
        ("3 100000000000000000000000 -5\n", "100000000000000000000000"),
    ])
    def test_out_of_range_is_data_error_naming_first_value(self, tmp_path, capsys, contents, bad):
        path = tmp_path / "counts.txt"
        path.write_text(contents)
        status, out, err = run_cli(["fit", "--input", str(path), "--n", "6"], capsys)
        assert status == 2
        assert out == ""
        assert err == f"corrbinom: error: {path}: observation {bad} outside [0, 6]\n"


class TestSeedOption:
    SIMULATE = ["simulate", "--n", "10", "--p", "0.5", "--rho", "0.8", "--k", "30", "--reps", "5"]

    def sample_args(self, tmp_path):
        return ["sample", "--n", "10", "--p", "0.5", "--rho", "0.8", "--k", "5",
                "--output", str(tmp_path / "draws.txt")]

    def test_negative_seed_is_usage_error_naming_the_option(self, tmp_path, capsys):
        for args in (self.SIMULATE, self.sample_args(tmp_path)):
            status, out, err = run_cli(args + ["--seed", "-1"], capsys)
            assert status == 1
            assert out == ""
            assert err == "corrbinom: error: --seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "draws.txt").exists()

    def test_fractional_seed_is_usage_error_naming_the_option(self, tmp_path, capsys):
        for args in (self.SIMULATE, self.sample_args(tmp_path)):
            with pytest.raises(SystemExit) as info:
                main(args + ["--seed", "1.5"])
            assert info.value.code == 1
            assert "argument --seed: invalid int value: '1.5'" in capsys.readouterr().err

    def test_seed_zero_is_accepted(self, tmp_path, capsys):
        for args in (self.SIMULATE, self.sample_args(tmp_path)):
            status, _, _ = run_cli(args + ["--seed", "0"], capsys)
            assert status == 0


class TestSimulateMatchesPerReplicationFits:
    @pytest.mark.parametrize("n, p, rho, k, reps, seed, extra, config", [
        (10, 0.5, 0.8, 30, 40, 31, [], EMConfig()),
        (20, 0.2, 0.9, 30, 40, 32, [], EMConfig()),
        (10, 0.5, 0.8, 30, 20, 33, ["--maxits", "2"], EMConfig(max_iterations=2)),
        (1, 0.4, 0.3, 12, 25, 34, ["--start-p", "1e-12", "--start-rho", "0.999999999999"],
         EMConfig(start_p=1e-12, start_rho=0.999999999999)),
    ])
    def test_json_results_equal_reference(self, capsys, n, p, rho, k, reps, seed, extra, config):
        args = ["simulate", "--n", str(n), "--p", str(p), "--rho", str(rho), "--k", str(k),
                "--reps", str(reps), "--seed", str(seed), "--format", "json"] + extra
        status, out, _ = run_cli(args, capsys)
        assert status == 0
        estimates = {"p": [], "rho": []}
        degenerate = 0
        for r in range(reps):
            try:
                fit = em_fit(sample(CBParams(n, p, rho), k, child_seed(seed, r)), config)
            except FitDegeneracyError:
                degenerate += 1
                continue
            degenerate += not fit.converged
            estimates["p"].append(fit.p_hat)
            estimates["rho"].append(fit.rho_hat)
        expected = {"degenerate_count": degenerate}
        for name, truth in (("p", p), ("rho", rho)):
            low, high = percentile_interval(estimates[name], 0.95)
            expected[name] = {"truth": truth, "bias": bias(estimates[name], truth),
                              "rmse": rmse(estimates[name], truth),
                              "interval_low": low, "interval_high": high}
        assert json.loads(out)["results"] == expected
