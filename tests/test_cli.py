"""CLI contract: exit codes, reproducibility, output locations."""

import json

import numpy as np
import pytest

from dpsynth.cli import main
from dpsynth.data import GroupedDataset, save_grouped_csv
from dpsynth.harness import load_configs, run_grid
from dpsynth.report import emit_report


@pytest.fixture()
def toy_csv(tmp_path):
    g = np.random.default_rng(1)
    data = GroupedDataset(np.repeat([0, 1], 150), g.normal(50, 2, 300))
    path = tmp_path / "toy.csv"
    save_grouped_csv(data, path)
    return path


@pytest.fixture()
def experiment_config(tmp_path):
    payload = {
        "generator": {"kind": "gaussian", "mode": "null"},
        "synthesizer": "perturbed",
        "epsilons": [0.5, 5.0],
        "original_sizes": [100],
        "repetitions": 8,
        "seed": 11,
        "min_feasible": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestExitCodes:
    def test_unknown_method_is_usage_error(self, toy_csv, tmp_path, capsys):
        code = main(
            ["synth", "--input", str(toy_csv), "--method", "dp-gan", "--epsilon", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self):
        assert main(["synth"]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("workers", ["0", "-1", "two"])
    def test_workers_not_positive_is_usage_error(self, workers, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synthesizer": "none", "epsilons": [1.0], "original_sizes": [20]}))
        assert main(["experiment", "--config", str(path), f"--workers={workers}", "--out", str(tmp_path)]) == 1
        assert "--workers: must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "reports.json").exists()

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code = main(
            ["synth", "--input", str(tmp_path / "nope.csv"), "--method", "perturbed", "--epsilon", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_malformed_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        payload = {
            "generator": {"kind": "gaussian", "mode": "null"},
            "synthesizer": "perturbed",
            "epsilons": "many",
            "original_sizes": [100],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["experiment", "--config", str(path)]) == 2
        assert "epsilons" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["perturbed", "smoothed", "mwem", "marginal_ipf"])
    def test_non_finite_epsilon_named_by_synth(self, toy_csv, tmp_path, capsys, method):
        out = tmp_path / "x.csv"
        argv = ["synth", "--input", str(toy_csv), "--method", method, "--epsilon", "inf", "--out", str(out)]
        assert main(argv + (["--m", "50"] if method == "smoothed" else [])) == 2
        assert "epsilon must be finite and positive, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_epsilon_named_by_dp_test(self, toy_csv, capsys):
        assert main(["dp-test", "--input", str(toy_csv), "--epsilon", "inf", "--seed", "2"]) == 2
        assert "epsilon must be finite and positive, got inf" in capsys.readouterr().err

    def test_smoothed_without_m_is_config_error(self, toy_csv, tmp_path):
        code = main(
            ["synth", "--input", str(toy_csv), "--method", "smoothed", "--epsilon", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


class TestSynthCommand:
    def test_smoothed_writes_exactly_m_rows(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "syn.csv"
        code = main(
            [
                "synth",
                "--input", str(toy_csv),
                "--method", "smoothed",
                "--epsilon", "1",
                "--m", "500",
                "--binning", "gaussian100",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 501
        sidecar = json.loads((tmp_path / "syn.csv.provenance.json").read_text())
        assert sidecar["method"] == "smoothed"
        assert sidecar["synthetic_n"] == 500
        header = capsys.readouterr().out
        assert "# seed: 3" in header

    def test_marginal_ipf_spelled_as_in_reports(self, toy_csv, tmp_path):
        out = tmp_path / "syn.csv"
        code = main(
            ["synth", "--input", str(toy_csv), "--method", "marginal_ipf", "--epsilon", "5", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "syn.csv.provenance.json").read_text())
        assert sidecar["method"] == "marginal_ipf"

    @pytest.mark.parametrize("method", ["perturbed", "smoothed", "mwem", "marginal_ipf"])
    def test_provenance_sidecar_is_exact(self, toy_csv, tmp_path, method):
        out = tmp_path / "syn.csv"
        argv = ["synth", "--input", str(toy_csv), "--method", method, "--epsilon", "5", "--seed", "3", "--out", str(out)]
        assert main(argv + (["--m", "120"] if method == "smoothed" else [])) == 0
        rows = len(out.read_text().strip().splitlines()) - 1
        sidecar = json.loads((tmp_path / "syn.csv.provenance.json").read_text())
        assert sidecar == {
            "method": method,
            "epsilon": 5.0,
            "seed": 3,
            "stream": [],
            "original_n": 300,
            "synthetic_n": rows,
        }
        if method == "smoothed":
            assert rows == 120

    def test_marginal_ipf_writes_its_records_in_cell_order(self, toy_csv, tmp_path):
        out = tmp_path / "syn.csv"
        argv = ["synth", "--input", str(toy_csv), "--method", "marginal_ipf", "--epsilon", "5", "--seed", "3"]
        assert main(argv + ["--binning", "gaussian100", "--out", str(out)]) == 0
        rows = [tuple(map(float, line.split(","))) for line in out.read_text().strip().splitlines()[1:]]
        assert len(rows) == 300
        assert rows == sorted(rows)

    @pytest.mark.parametrize("method", ["perturbed", "mwem", "marginal_ipf"])
    def test_m_rejected_for_methods_that_ignore_it(self, toy_csv, tmp_path, capsys, method):
        out = tmp_path / "syn.csv"
        argv = ["synth", "--input", str(toy_csv), "--method", method, "--epsilon", "2", "--m", "200", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--m" in err and method in err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["perturbed", "smoothed", "marginal_ipf"])
    def test_iterations_rejected_for_methods_that_ignore_it(self, toy_csv, tmp_path, capsys, method):
        out = tmp_path / "syn.csv"
        argv = ["synth", "--input", str(toy_csv), "--method", method, "--epsilon", "2", "--iterations", "5"]
        argv += ["--m", "50"] if method == "smoothed" else []
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--iterations" in err and method in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "method,extra,options",
        [
            ("perturbed", [], {}),
            ("smoothed", ["--m", "50"], {"m": 50}),
            ("mwem", [], {"iterations": 10}),
            ("mwem", ["--iterations", "4"], {"iterations": 4}),
            ("marginal_ipf", [], {}),
        ],
    )
    def test_header_lists_only_the_flags_the_method_reads(self, toy_csv, tmp_path, capsys, method, extra, options):
        out = tmp_path / "syn.csv"
        argv = ["synth", "--input", str(toy_csv), "--method", method, "--epsilon", "2", "--seed", "1", "--out", str(out)]
        assert main(argv + extra) == 0
        line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("# config: "))
        config = json.loads(line[len("# config: ") :])
        assert {k: config[k] for k in ("m", "iterations") if k in config} == options

    def test_seed_resolved_and_printed_when_omitted(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "syn.csv"
        code = main(
            ["synth", "--input", str(toy_csv), "--method", "perturbed", "--epsilon", "5", "--binning", "gaussian100", "--out", str(out)]
        )
        assert code == 0
        assert "# seed: " in capsys.readouterr().out


class TestTestCommands:
    def test_classical_test_outputs_json(self, toy_csv, capsys):
        assert main(["test", "--input", str(toy_csv), "--test", "mw_u"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        payload = json.loads(line)
        assert payload["feasible"] is True

    def test_chi2_on_categorical_column(self, tmp_path, capsys):
        g = np.random.default_rng(2)
        data = GroupedDataset(np.repeat([0, 1], 100), g.normal(50, 2, 200), {"grade": g.integers(1, 4, 200)})
        path = tmp_path / "cat.csv"
        save_grouped_csv(data, path)
        assert main(["test", "--input", str(path), "--test", "chi2", "--variable", "grade"]) == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["feasible"] is True
        assert main(["test", "--input", str(path), "--test", "chi2"]) == 2
        assert "categorical" in capsys.readouterr().err

    def test_cardio_format_detected_from_header(self, tmp_path, capsys):
        g = np.random.default_rng(4)
        rows = [f"{i};{g.integers(150, 190)};{g.integers(50, 110)};{i % 2}" for i in range(40)]
        path = tmp_path / "heart.csv"
        path.write_text("id;height;weight;cardio\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert main(["test", "--input", str(path), "--test", "mw_u"]) == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["feasible"] is True

    def test_no_seed_where_nothing_is_random(self, toy_csv, experiment_config, tmp_path, capsys):
        assert main(["test", "--input", str(toy_csv), "--test", "t"]) == 0
        assert "# seed" not in capsys.readouterr().out
        assert main(["experiment", "--config", str(experiment_config), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        assert main(["report", "--reports", str(tmp_path / "run" / "reports.json"), "--out", str(tmp_path / "re")]) == 0
        assert "# seed" not in capsys.readouterr().out
        assert main(["test", "--input", str(toy_csv), "--test", "t", "--seed", "1"]) == 1

    def test_dp_test_outputs_json(self, toy_csv, capsys):
        code = main(
            ["dp-test", "--input", str(toy_csv), "--epsilon", "1", "--null-samples", "1000", "--seed", "2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 < payload["p_value"] <= 1.0


class TestExperimentCommand:
    def test_reports_byte_identical_across_runs(self, experiment_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "--config", str(experiment_config), "--seed", "7", "--out", str(out_a)]) == 0
        assert main(["experiment", "--config", str(experiment_config), "--seed", "7", "--out", str(out_b)]) == 0
        assert (out_a / "reports.csv").read_bytes() == (out_b / "reports.csv").read_bytes()

    def test_outputs_under_env_outdir(self, experiment_config, tmp_path, monkeypatch):
        monkeypatch.setenv("DPSYNTH_OUTDIR", str(tmp_path / "envout"))
        assert main(["experiment", "--config", str(experiment_config), "--out", "results"]) == 0
        assert (tmp_path / "envout" / "results" / "reports.csv").is_file()

    def test_csv_sizes_beyond_the_file_are_config_errors(self, tmp_path, capsys):
        source = tmp_path / "four.csv"
        save_grouped_csv(GroupedDataset([0, 1, 0, 1], [20.0, 21.0, 22.0, 23.0]), source)
        payload = {
            "generator": {"kind": "csv", "mode": "null", "csv_path": str(source)},
            "synthesizer": "perturbed",
            "epsilons": [1.0],
            "original_sizes": [2, 10],
            "repetitions": 2,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
        assert "original_sizes" in capsys.readouterr().err
        assert not (out / "reports.json").exists() and not (out / "reports.csv").exists()

    def test_report_rerender(self, experiment_config, tmp_path):
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(experiment_config), "--out", str(out)]) == 0
        re_out = tmp_path / "re"
        code = main(
            ["report", "--reports", str(out / "reports.json"), "--formats", "csv,svg", "--out", str(re_out)]
        )
        assert code == 0
        assert (re_out / "reports.csv").read_bytes() == (out / "reports.csv").read_bytes()


class TestExperimentList:
    @pytest.fixture()
    def two_experiments(self, tmp_path):
        base = {"epsilons": [0.5, 5.0], "original_sizes": [100], "repetitions": 6, "seed": 3, "min_feasible": 5}
        payload = [
            {**base, "generator": {"kind": "gaussian", "mode": "null"}, "synthesizer": "perturbed"},
            {**base, "generator": {"kind": "gaussian", "mode": "signal"}, "synthesizer": "none", "seed": 4},
        ]
        path = tmp_path / "list.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_reports_concatenate_each_grid(self, two_experiments, tmp_path):
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(two_experiments), "--workers", "2", "--out", str(out)]) == 0
        reports = [r for config in load_configs(two_experiments) for r in run_grid(config)]
        assert len(reports) == 4
        emit_report(reports, tmp_path / "direct")
        for name in ("reports.json", "reports.csv"):
            assert (out / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()

    def test_printed_array_replays(self, two_experiments, tmp_path, capsys):
        assert main(["experiment", "--config", str(two_experiments), "--out", str(tmp_path / "run")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "# seed: 3, 4" in lines
        printed = next(line for line in lines if line.startswith("# config: "))
        replay = tmp_path / "replay.json"
        replay.write_text(printed.removeprefix("# config: "), encoding="utf-8")
        assert isinstance(json.loads(replay.read_text()), list)
        assert load_configs(replay) == load_configs(two_experiments)

    def test_single_experiment_prints_its_object(self, experiment_config, tmp_path, capsys):
        assert main(["experiment", "--config", str(experiment_config), "--out", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "# seed: 11\n" in out
        printed = next(line for line in out.splitlines() if line.startswith("# config: "))
        assert isinstance(json.loads(printed.removeprefix("# config: ")), dict)
