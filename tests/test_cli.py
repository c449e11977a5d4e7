"""CLI contract: exit codes, reproducibility, output locations."""

import json
import re

import numpy as np
import pytest

from dpsynth.cli import main
from dpsynth.data import GroupedDataset, save_grouped_csv
from dpsynth.harness import load_configs, run_grid
from dpsynth.report import emit_report
from dpsynth.simgen import default_prostate_spec

# One report as ``reports.json`` holds it; the malformed cases break one field of it.
VALID_REPORT = {
    "method": "perturbed",
    "test": "mw_u",
    "error_kind": "type1",
    "epsilon": 1.0,
    "n_original": 100,
    "n_synthetic": None,
    "repetitions": 2,
    "feasible_count": 2,
    "rejections": 1,
    "error_rate": 0.5,
    "suppressed": False,
    "failure_counts": {},
    "type1_context": None,
}


@pytest.fixture()
def toy_csv(tmp_path):
    g = np.random.default_rng(1)
    data = GroupedDataset(np.repeat([0, 1], 150), g.normal(50, 2, 300))
    path = tmp_path / "toy.csv"
    save_grouped_csv(data, path)
    return path


def copula_with(edit) -> dict:
    """The packaged copula spec's JSON form after ``edit`` changed it in place."""
    copula = default_prostate_spec().to_dict()
    edit(copula)
    return copula


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

    @pytest.mark.parametrize(
        "method,flags,named",
        [
            ("smoothed", [], "--m"),
            ("smoothed", ["--m", "0"], "--m"),
            ("smoothed", ["--m", "-3"], "--m"),
            ("mwem", ["--iterations", "0"], "--iterations"),
            ("mwem", ["--iterations", "49"], "--iterations"),
        ],
    )
    def test_method_flag_out_of_range_named_before_the_input_is_read(self, tmp_path, capsys, method, flags, named):
        # The input does not exist: a flag error must come first, before any header.
        out = tmp_path / "x.csv"
        argv = ["synth", "--input", str(tmp_path / "missing.csv"), "--method", method, "--epsilon", "1"]
        assert main(argv + flags + ["--binning", "bmi24", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {named} ") and "missing.csv" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_iterations_up_to_two_per_bin_accepted(self, toy_csv, tmp_path):
        # bmi24 gives 2 x 24 cell queries.
        argv = ["synth", "--input", str(toy_csv), "--method", "mwem", "--epsilon", "1", "--iterations", "48"]
        assert main(argv + ["--binning", "bmi24", "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 0

    def test_unknown_column_message_printed_unquoted(self, toy_csv, capsys):
        assert main(["test", "--input", str(toy_csv), "--test", "mw_u", "--variable", "foo"]) == 2
        assert capsys.readouterr().err == "error: no column named 'foo'\n"


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
            "numpy": np.__version__,
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

    def test_repeated_epsilon_is_a_config_error_before_anything_is_written(self, tmp_path, capsys):
        payload = {
            "generator": {"kind": "gaussian"},
            "synthesizer": "perturbed",
            "epsilons": [1.0, 1.0],
            "original_sizes": [50],
            "repetitions": 2,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "field 'epsilons' repeats [1.0]" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "generator, named",
        [
            ({"kind": "csv", "csv_path": 5}, r"field 'generator\.csv_path' has the wrong type: 5"),
            ({"kind": "copula", "copula_path": 5}, r"field 'generator\.copula_path' has the wrong type: 5"),
            ({"kind": "copula", "variable": 5}, r"field 'generator\.variable' has the wrong type: 5"),
            (
                {"kind": "copula", "mode": "signal", "copula": copula_with(lambda c: c["variables"][0]["marginal"]["params"].update(mu="x"))},
                r"'generator\.copula\.variables\[0\]\.marginal'.*'params\.mu'.*'x'",
            ),
            (
                {"kind": "copula", "copula": copula_with(lambda c: c["variables"][0]["marginal"]["params"].pop("mu"))},
                r"'generator\.copula\.variables\[0\]\.marginal'.*\['mu', 'sigma'\], got \['sigma'\]",
            ),
            (
                {"kind": "copula", "mode": "signal", "copula": copula_with(lambda c: c.update(class_efect=c.pop("class_effect")))},
                r"unknown field\(s\): \['generator\.copula\.class_efect'\]",
            ),
        ],
        ids=["csv-path", "copula-path", "variable", "string-mu", "missing-mu", "misspelt-class-effect"],
    )
    def test_malformed_generator_named_at_load(self, tmp_path, capsys, generator, named):
        payload = {"generator": generator, "synthesizer": "none", "epsilons": [1.0], "original_sizes": [50]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
        printed, err = capsys.readouterr()
        assert re.search(named, err)
        assert printed == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"reports": [{"foo": 1}]}, r"report 1: .*unknown field\(s\): \['foo'\]"),
            ([{"method": "none"}], "expected a JSON object, got list"),
            ({"alpha": 0.05}, "expected a 'reports' list"),
            ({"reports": [{"method": "none"}]}, "report 1: .*field 'test' is required"),
            ({"alpha": None, "reports": [VALID_REPORT]}, "field 'alpha' must be a number, got None"),
            ({"alpha": [1], "reports": [VALID_REPORT]}, r"field 'alpha' must be a number, got \[1\]"),
            ({"alpha": 5, "reports": [VALID_REPORT]}, r"field 'alpha' must be in \(0, 1\), got 5"),
            ({"alpha": 0, "reports": [VALID_REPORT]}, r"field 'alpha' must be in \(0, 1\), got 0"),
            ({"reports": [{**VALID_REPORT, "epsilon": "1"}]}, "report 1: field 'epsilon' has the wrong type: '1'"),
            ({"reports": [VALID_REPORT, {**VALID_REPORT, "failure_counts": []}]}, "report 2: field 'failure_counts'"),
            ({"reports": [VALID_REPORT, {**VALID_REPORT, "epsilon": 0.0}]}, "report 2: field 'epsilon' must be finite and positive"),
            ({"reports": [{**VALID_REPORT, "epsilon": -1.0}]}, "report 1: field 'epsilon' must be finite and positive"),
            ({"reports": [{**VALID_REPORT, "error_kind": "type3"}]}, "report 1: field 'error_kind' must be type1 or type2"),
        ],
        ids=[
            "unknown-field",
            "top-level-array",
            "no-reports",
            "missing-fields",
            "null-alpha",
            "list-alpha",
            "alpha-above-one",
            "zero-alpha",
            "string-epsilon",
            "list-failure-counts",
            "zero-epsilon",
            "negative-epsilon",
            "unknown-error-kind",
        ],
    )
    def test_malformed_reports_json_is_data_error(self, tmp_path, capsys, payload, named):
        path = tmp_path / "reports.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["report", "--reports", str(path), "--out", str(tmp_path / "re")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert re.search(named, err)
        assert not (tmp_path / "re").exists()

    @pytest.mark.parametrize(
        "command, seed",
        [(["synth", "--method", "perturbed", "--out", "x.csv"], "-1"), (["dp-test"], str(2**64))],
        ids=["synth", "dp-test"],
    )
    def test_out_of_range_seed_prints_no_header(self, toy_csv, tmp_path, monkeypatch, capsys, command, seed):
        monkeypatch.setenv("DPSYNTH_OUTDIR", str(tmp_path))
        assert main([*command, "--input", str(toy_csv), "--epsilon", "1", "--seed", seed]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: seed must be in [0, 2**64), got {seed}\n"

    def test_report_rerender(self, experiment_config, tmp_path):
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(experiment_config), "--out", str(out)]) == 0
        re_out = tmp_path / "re"
        code = main(["report", "--reports", str(out / "reports.json"), "--out", str(re_out)])
        assert code == 0
        written = sorted(path.name for path in out.iterdir())
        assert sorted(path.name for path in re_out.iterdir()) == written
        assert any(name.endswith(".svg") for name in written)
        for name in written:
            assert (re_out / name).read_bytes() == (out / name).read_bytes()


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
        assert f"# numpy: {np.__version__}\n" in out
        printed = next(line for line in out.splitlines() if line.startswith("# config: "))
        assert isinstance(json.loads(printed.removeprefix("# config: ")), dict)
