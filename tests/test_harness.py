"""Harness: grid construction, error accounting, determinism, report emission."""

import json
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import dpsynth.harness as harness_mod

from dpsynth.data import GroupedDataset, IngestionError, build_table, from_json, save_grouped_csv, to_json
from dpsynth.harness import (
    Cell,
    ConfigError,
    ErrorRateReport,
    ExperimentConfig,
    GeneratorSpec,
    config_from_dict,
    config_to_dict,
    grid_cells,
    load_config,
    load_configs,
    run_cell,
    run_grid,
)
from dpsynth.report import emit_report, load_reports_json, render_figure
from dpsynth.rng import RandomSource
from dpsynth.simgen import default_prostate_spec
from dpsynth.stattests import TESTS, Outcomes

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def gaussian_config(**overrides) -> ExperimentConfig:
    base = dict(
        generator=GeneratorSpec(kind="gaussian", mode="null"),
        synthesizer="perturbed",
        epsilons=(0.1, 10.0),
        original_sizes=(100, 500),
        repetitions=10,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_smoothed_requires_synthetic_sizes(self):
        with pytest.raises(ConfigError, match="synthetic_sizes"):
            gaussian_config(synthesizer="smoothed")

    def test_smoothed_requires_single_original_size(self):
        with pytest.raises(ConfigError, match="one"):
            gaussian_config(synthesizer="smoothed", synthetic_sizes=(50,), original_sizes=(100, 200))

    def test_other_methods_reject_synthetic_sizes(self):
        with pytest.raises(ConfigError, match="smoothed"):
            gaussian_config(synthetic_sizes=(50,))

    def test_copula_incompatible_with_histogram_methods(self):
        with pytest.raises(ConfigError, match="marginal_ipf"):
            gaussian_config(
                generator=GeneratorSpec(kind="copula", mode="null", copula=default_prostate_spec()),
                synthesizer="mwem",
            )

    def test_dp_mw_baseline_requires_mw_test(self):
        with pytest.raises(ConfigError, match="mw_u"):
            gaussian_config(synthesizer="dp_mw_baseline", test="t")

    def test_unknown_synthesizer_rejected(self):
        with pytest.raises(ConfigError, match="synthesizer"):
            gaussian_config(synthesizer="dp_gan")

    @pytest.mark.parametrize(
        "name, overrides, repeated",
        [
            ("epsilons", {"epsilons": (1.0, 5.0, 1.0)}, "[1.0]"),
            ("original_sizes", {"original_sizes": (100, 500, 100, 500)}, "[100, 500]"),
            (
                "synthetic_sizes",
                {"synthesizer": "smoothed", "original_sizes": (100,), "synthetic_sizes": (50, 80, 50)},
                "[50]",
            ),
        ],
        ids=["epsilons", "original_sizes", "synthetic_sizes"],
    )
    def test_repeated_grid_value_named(self, name, overrides, repeated):
        # Two equal cells would draw on different streams, and a figure keyed by epsilon would show one.
        with pytest.raises(ConfigError, match=re.escape(f"field '{name}' repeats {repeated}")):
            gaussian_config(**overrides)

    def test_unknown_config_field_named(self):
        with pytest.raises(ConfigError, match="mystery"):
            config_from_dict({"mystery": 1, "synthesizer": "none"})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("epsilons", "lots"),
            ("original_sizes", [50.9]),
            ("synthetic_sizes", [True]),
            ("repetitions", 3.7),
            ("repetitions", True),
            ("seed", 5.5),
            ("min_feasible", 2.5),
            ("min_feasible", float("inf")),
            ("mwem_iterations", 10.5),
            ("epsilons", [True]),
            ("epsilons", ["1.5"]),
            ("alpha", "0.05"),
            ("generator.binning", {"count": 10.7, "lo": 40, "hi": 60}),
            ("generator.binning", {"count": 1, "lo": 40, "hi": 60}),
            ("generator.binning", {"count": 10, "lo": True, "hi": 60}),
            ("generator.binning", {"count": 10, "lo": 40, "hi": "2"}),
            ("generator.binning", {"count": 10, "lo": 60, "hi": 40}),
            ("generator.csv_path", 5),
            ("generator.copula_path", 5),
            ("generator.variable", 5),
        ],
        ids=lambda v: str(v).replace(" ", ""),
    )
    def test_malformed_field_named(self, name, value):
        # A non-integral number or a boolean in an integer field is not truncated,
        # and a boolean or a string in a float field is not cast.
        smoothed = gaussian_config(synthesizer="smoothed", original_sizes=(100,), synthetic_sizes=(50,))
        payload = config_to_dict(smoothed)
        if name.startswith("generator."):
            payload["generator"][name.removeprefix("generator.")] = value
        else:
            payload[name] = value
        with pytest.raises(ConfigError, match=name):
            config_from_dict(payload)

    def test_integral_numbers_accepted_for_integer_fields(self):
        payload = {**config_to_dict(gaussian_config()), "original_sizes": [100.0], "repetitions": 10.0}
        config = config_from_dict(payload)
        assert config == gaussian_config(original_sizes=(100,))
        assert type(config.repetitions) is int

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_its_range_named(self, seed, tmp_path):
        payload = config_to_dict(gaussian_config())
        with pytest.raises(ConfigError, match="'seed'"):
            config_from_dict({**payload, "seed": seed})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="'seed'"):
            load_config(path, seed=seed)

    @pytest.mark.parametrize("synthesizer", ["none", "perturbed", "mwem"])
    @pytest.mark.parametrize("text", ["Infinity", "NaN", "-Infinity"])
    def test_non_finite_epsilon_named_at_load(self, synthesizer, text, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(gaussian_config(synthesizer=synthesizer))).replace("10.0", text))
        with pytest.raises(ConfigError, match="epsilons"):
            load_config(path)

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(config, id=f"{path.stem}-{number}")
            for path in sorted(CONFIGS.glob("*.json"))
            for number, config in enumerate(load_configs(path), start=1)
        ],
    )
    def test_round_trip_through_dict(self, config):
        assert config_from_dict(config_to_dict(config)) == config

    def test_none_baseline_needs_positive_epsilon(self):
        # The none baseline spends no budget, but its epsilon is still a point on the plots' log axis.
        with pytest.raises(ConfigError, match="epsilons"):
            config_from_dict(
                {"generator": {}, "synthesizer": "none", "epsilons": [0.0, 1.0], "original_sizes": [100]}
            )

    def test_csv_generator_requires_path(self):
        with pytest.raises(ConfigError, match="csv_path"):
            GeneratorSpec(kind="csv", mode="signal")

    def test_copula_variable_checked(self):
        with pytest.raises(KeyError):
            GeneratorSpec(kind="copula", mode="null", copula=default_prostate_spec(), variable="bmi")

    def test_custom_copula_replays_from_printed_header(self):
        spec = replace(default_prostate_spec(), class_effect={})
        config = gaussian_config(
            generator=GeneratorSpec(kind="copula", mode="null", copula=spec),
            synthesizer="marginal_ipf",
        )
        printed = config_to_dict(config)
        replayed = config_to_dict(config_from_dict(json.loads(json.dumps(printed))))
        assert replayed == printed
        assert replayed["generator"]["copula"]["class_effect"] == {}

    def test_inline_copula_excludes_copula_path(self):
        payload = config_to_dict(
            gaussian_config(
                generator=GeneratorSpec(kind="copula", mode="null", copula=default_prostate_spec()),
                synthesizer="marginal_ipf",
            )
        )
        payload["generator"]["copula_path"] = "default"
        with pytest.raises(ConfigError, match="copula_path"):
            config_from_dict(payload)

    @pytest.mark.parametrize("source", [{}, {"copula_path": "default"}, {"copula_path": "spec.json"}])
    def test_copula_source_is_read_once(self, monkeypatch, source):
        spec = default_prostate_spec()
        monkeypatch.setattr(harness_mod, "default_prostate_spec", lambda: spec)
        monkeypatch.setattr(harness_mod, "load_copula_spec", lambda path: spec)
        payload = {"generator": {"kind": "copula", **source}, "synthesizer": "marginal_ipf", "epsilons": [1.0], "original_sizes": [50]}
        assert config_from_dict(payload).generator.copula is spec

    @pytest.mark.parametrize(
        "name,value",
        [("normalize_perturbed", True), ("dp_mw_delta", 1e-6), ("dp_mw_size_fraction", 0.65), ("dp_mw_null_samples", 10_000)],
    )
    def test_removed_fields_named_at_load(self, name, value):
        payload = {**config_to_dict(gaussian_config()), name: value}
        with pytest.raises(ConfigError, match=name):
            config_from_dict(payload)

    def test_unknown_generator_field_named(self):
        payload = config_to_dict(gaussian_config())
        payload["generator"] = {"kind": "gaussian", "mode": "null", "binnig": "bmi24"}
        with pytest.raises(ConfigError, match="generator.binnig"):
            config_from_dict(payload)

    @pytest.mark.parametrize("kind", ["gaussian", "copula"])
    def test_odd_original_size_named_at_load(self, kind):
        payload = {"generator": {"kind": kind, "mode": "null"}, "synthesizer": "none", "epsilons": [1.0]}
        with pytest.raises(ConfigError, match="original_sizes"):
            config_from_dict({**payload, "original_sizes": [50, 51]})

    def test_unknown_binning_named_at_load(self):
        with pytest.raises(ConfigError, match="generator.binning"):
            GeneratorSpec(kind="gaussian", mode="null", binning="bmi25")

    @pytest.mark.parametrize("iterations", [0, 201, 500])
    def test_mwem_iterations_outside_the_cell_queries_named_at_load(self, iterations):
        # gaussian100 bins give 2 x 100 cell queries.
        payload = {**config_to_dict(gaussian_config(synthesizer="mwem")), "mwem_iterations": iterations}
        with pytest.raises(ConfigError, match="mwem_iterations"):
            config_from_dict(payload)
        assert config_from_dict({**payload, "mwem_iterations": 200}).mwem_iterations == 200

    def test_mwem_iterations_rejected_for_other_synthesizers(self):
        payload = {**config_to_dict(gaussian_config()), "mwem_iterations": 7}
        with pytest.raises(ConfigError, match="mwem_iterations"):
            config_from_dict(payload)

    @pytest.mark.parametrize("size", [0, -5])
    def test_synthetic_size_below_one_named_at_load(self, size):
        payload = config_to_dict(gaussian_config(synthesizer="smoothed", original_sizes=(100,), synthetic_sizes=(50,)))
        with pytest.raises(ConfigError, match="synthetic_sizes"):
            config_from_dict({**payload, "synthetic_sizes": [size]})

    def test_binning_rejected_for_the_copula_generator(self):
        # Each copula variable carries its own bins, so nothing would read it.
        payload = {
            "generator": {"kind": "copula", "mode": "null", "binning": "psa40"},
            "synthesizer": "marginal_ipf",
            "epsilons": [1.0],
            "original_sizes": [50],
        }
        with pytest.raises(ConfigError, match="generator.binning"):
            config_from_dict(payload)
        del payload["generator"]["binning"]
        assert config_from_dict(payload).generator.binning is None

    def test_fractional_copula_bin_count_named_at_load(self):
        copula = default_prostate_spec().to_dict()
        copula["variables"][0]["bins"]["count"] = 10.7
        payload = {
            "generator": {"kind": "copula", "copula": copula},
            "synthesizer": "marginal_ipf",
            "epsilons": [1.0],
            "original_sizes": [50],
        }
        with pytest.raises(ConfigError, match=r"'generator\.copula\.variables\[0\]'.*'age'.*integer"):
            config_from_dict(payload)

    def test_copula_fields_rejected_for_other_generators(self):
        payload = config_to_dict(gaussian_config())
        payload["generator"]["copula_path"] = "default"
        with pytest.raises(ConfigError, match="copula"):
            config_from_dict(payload)


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def write_experiments(path, experiments) -> Path:
    path.write_text(json.dumps(experiments), encoding="utf-8")
    return path


class TestExperimentList:
    def two_experiments(self):
        first = config_to_dict(gaussian_config())
        second = config_to_dict(gaussian_config(synthesizer="none", generator=GeneratorSpec("gaussian", "signal")))
        return [first, second]

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        configs = load_configs(path)
        assert configs
        assert all(isinstance(config, ExperimentConfig) for config in configs)

    def test_array_loads_in_file_order(self, tmp_path):
        path = write_experiments(tmp_path / "list.json", self.two_experiments())
        first, second = load_configs(path)
        assert first == gaussian_config()
        assert second.synthesizer == "none" and second.generator.mode == "signal"

    def test_single_object_is_one_experiment(self, tmp_path):
        path = write_experiments(tmp_path / "one.json", config_to_dict(gaussian_config()))
        assert load_configs(path) == (load_config(path),) == (gaussian_config(),)

    def test_seed_overrides_every_experiment(self, tmp_path):
        path = write_experiments(tmp_path / "list.json", self.two_experiments())
        assert [config.seed for config in load_configs(path, seed=99)] == [99, 99]

    def test_empty_array_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="empty"):
            load_configs(write_experiments(tmp_path / "empty.json", []))

    def test_mismatched_alpha_rejected(self, tmp_path):
        experiments = self.two_experiments()
        experiments[1]["alpha"] = 0.1
        with pytest.raises(ConfigError, match="alpha"):
            load_configs(write_experiments(tmp_path / "alpha.json", experiments))

    def test_bad_field_names_experiment_and_field(self, tmp_path):
        experiments = self.two_experiments()
        experiments[1]["repetitons"] = 5
        with pytest.raises(ConfigError, match="experiment 2: .*repetitons"):
            load_configs(write_experiments(tmp_path / "typo.json", experiments))

    def test_load_config_requires_one_experiment(self, tmp_path):
        path = write_experiments(tmp_path / "list.json", self.two_experiments())
        with pytest.raises(ConfigError, match="2 experiments"):
            load_config(path)


WORKLOADS = sorted((Path(__file__).resolve().parent.parent / "perfbench" / "workloads").glob("*/*.json"))


def round_trips(value) -> bool:
    """Whether ``value`` reads back equal from the JSON text of its JSON form."""
    return from_json(type(value), json.loads(json.dumps(to_json(value)))) == value


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(config, id=f"{path.parent.name}/{path.stem}-{number}")
            for path in [*SHIPPED_CONFIGS, *WORKLOADS]
            for number, config in enumerate(load_configs(path), start=1)
        ],
    )
    def test_config(self, config):
        assert round_trips(config)

    def test_packaged_copula_spec(self):
        assert round_trips(default_prostate_spec())

    def test_reports_of_a_small_grid(self):
        configs = [
            gaussian_config(repetitions=4),
            gaussian_config(
                generator=GeneratorSpec(mode="signal"),
                synthesizer="smoothed",
                original_sizes=(100,),
                synthetic_sizes=(2, 50),
                repetitions=4,
            ),
        ]
        reports = [report for config in configs for report in run_grid(config)]
        assert any(r.failure_counts for r in reports) and any(r.n_synthetic for r in reports)
        assert all(round_trips(report) for report in reports)


class TestErrorRateReport:
    def base(self, **overrides):
        fields = dict(
            method="perturbed",
            test="mw_u",
            error_kind="type1",
            epsilon=1.0,
            n_original=100,
            n_synthetic=None,
            repetitions=10,
            feasible_count=10,
            rejections=2,
            error_rate=0.2,
            suppressed=False,
            failure_counts={},
            type1_context=None,
        )
        fields.update(overrides)
        return ErrorRateReport(**fields)

    def test_type1_rate_is_rejection_fraction(self):
        assert self.base().error_rate == 0.2

    def test_type2_rate_is_complement(self):
        report = self.base(error_kind="type2", error_rate=0.8, type1_context=True)
        assert report.error_rate == 0.8

    def test_inconsistent_rate_rejected(self):
        with pytest.raises(ValueError):
            self.base(error_rate=0.5)

    def test_failure_partition_enforced(self):
        with pytest.raises(ValueError):
            self.base(feasible_count=8, failure_counts={"single-class": 1})

    def test_rejections_bounded_by_feasible(self):
        with pytest.raises(ValueError):
            self.base(rejections=11)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("inf"), float("nan")])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        with pytest.raises(ValueError, match="field 'epsilon' must be finite and positive"):
            self.base(epsilon=epsilon)

    def test_error_kind_must_be_type1_or_type2(self):
        with pytest.raises(ValueError, match="field 'error_kind'"):
            self.base(error_kind="type3")


class TestGrid:
    def test_cell_count(self):
        assert len(grid_cells(gaussian_config())) == 4

    def test_smoothed_grid_uses_synthetic_sizes(self):
        config = gaussian_config(
            synthesizer="smoothed",
            original_sizes=(2000,),
            synthetic_sizes=(50, 100, 500, 1000),
        )
        cells = grid_cells(config)
        assert len(cells) == 8
        assert cells[0] == Cell(0.1, 2000, 50)

    def test_worker_count_does_not_change_results(self):
        config = gaussian_config()
        assert run_grid(config, workers=1) == run_grid(config, workers=2)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_grid(gaussian_config(), workers=workers)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("repetitions", [1, 2, 7, 200])
    def test_chunks_cover_repetitions_once_in_order(self, repetitions, workers):
        from dpsynth import harness

        chunks = harness._chunks(repetitions, workers, block=1)
        assert len(chunks) == min(repetitions, workers)
        assert [rep for chunk in chunks for rep in chunk] == list(range(repetitions))
        assert all(len(chunk) >= 1 for chunk in chunks)
        assert max(map(len, chunks)) - min(map(len, chunks)) <= 1

    @pytest.mark.parametrize("repetitions", [7, 2], ids=["R-not-divisible", "R-below-workers"])
    def test_reports_byte_identical_across_worker_counts(self, repetitions, tmp_path):
        config = gaussian_config(repetitions=repetitions, min_feasible=1)
        runs = {workers: run_grid(config, workers=workers) for workers in (1, 2, 3)}
        assert runs[1] == runs[2] == runs[3]
        written = {}
        for workers, reports in runs.items():
            paths = emit_report(reports, tmp_path / str(workers), formats=("csv", "json"))
            written[workers] = [path.read_bytes() for path in paths]
        assert written[1] == written[2] == written[3]

    def test_failure_counts_merged_across_chunks(self):
        from dpsynth.harness import BLOCK, _chunks

        # Two synthetic records can never pass chi2, whatever the fit, so
        # each repetition fails. One repetition past a block makes two
        # chunks at two workers, a full block and a block of one.
        repetitions = BLOCK + 1
        assert _chunks(repetitions, 2, BLOCK) == [range(0, BLOCK), range(BLOCK, repetitions)]
        config = ExperimentConfig(
            generator=GeneratorSpec(kind="copula", mode="null", copula=default_prostate_spec(), variable="fiveari"),
            synthesizer="marginal_ipf",
            epsilons=(0.1,),
            original_sizes=(2,),
            repetitions=repetitions,
            test="chi2",
            seed=3,
        )
        (serial,) = run_grid(config, workers=1)
        (parallel,) = run_grid(config, workers=2)
        assert serial.feasible_count == 0
        assert sum(serial.failure_counts.values()) == repetitions
        assert parallel == serial

    def test_cell_rerun_in_isolation_matches_grid(self):
        config = gaussian_config()
        reports = run_grid(config, workers=2)
        cells = grid_cells(config)
        lone = run_cell(config, cells[2], RandomSource(config.seed).child(2))
        assert lone == reports[2]

    def test_error_kind_follows_mode(self):
        config = gaussian_config(
            generator=GeneratorSpec(kind="gaussian", mode="signal"),
            epsilons=(10.0,),
            original_sizes=(100,),
        )
        (report,) = run_grid(config)
        assert report.error_kind == "type2"
        assert report.type1_context is True

    def test_suppression_threshold(self):
        config = gaussian_config(epsilons=(10.0,), original_sizes=(100,), repetitions=5, min_feasible=50)
        (report,) = run_grid(config)
        assert report.suppressed

    def test_baseline_none_runs_test_on_original(self):
        config = gaussian_config(synthesizer="none", epsilons=(1.0,), original_sizes=(200,), repetitions=20)
        (report,) = run_grid(config)
        assert report.feasible_count == 20

    def test_synthesizer_cells_draw_no_gaussian_records(self, monkeypatch):
        from dpsynth import harness

        class RecordsDrawn(Exception):
            pass

        def no_records(*args):
            raise RecordsDrawn

        monkeypatch.setattr(harness, "gaussian_bivariate", no_records)
        (report,) = run_grid(gaussian_config(epsilons=(1.0,), original_sizes=(100,), repetitions=3))
        assert report.feasible_count + sum(report.failure_counts.values()) == 3
        with pytest.raises(RecordsDrawn):
            run_grid(gaussian_config(synthesizer="none", epsilons=(1.0,), original_sizes=(100,), repetitions=3))

    def test_csv_generator_subsampling(self, tmp_path):
        g = np.random.default_rng(0)
        data = GroupedDataset(g.integers(0, 2, 500), g.normal(25, 3, 500))
        path = tmp_path / "src.csv"
        save_grouped_csv(data, path)
        config = gaussian_config(
            generator=GeneratorSpec(kind="csv", mode="signal", csv_path=str(path), binning="bmi24"),
            epsilons=(5.0,),
            original_sizes=(100,),
            repetitions=5,
        )
        (report,) = run_grid(config)
        assert report.repetitions == 5

    def test_csv_source_loaded_once_per_grid(self, tmp_path, monkeypatch):
        from dpsynth import harness

        g = np.random.default_rng(1)
        path = tmp_path / "src.csv"
        save_grouped_csv(GroupedDataset(g.integers(0, 2, 400), g.normal(25, 3, 400)), path)
        config = gaussian_config(
            generator=GeneratorSpec(kind="csv", mode="signal", csv_path=str(path), binning="bmi24"),
            epsilons=(1.0, 5.0),
            original_sizes=(50, 100),
            repetitions=3,
        )
        # Each load appends a line to a file, so loads in forked workers count too.
        log = tmp_path / "loads.log"
        load = harness.load_csv

        def counting_load(csv_path):
            with log.open("a") as fh:
                fh.write(f"{csv_path}\n")
            return load(csv_path)

        monkeypatch.setattr(harness, "load_csv", counting_load)
        serial = run_grid(config, workers=1)
        assert log.read_text().splitlines() == [str(path)]
        parallel = run_grid(config, workers=2)
        assert log.read_text().splitlines() == [str(path)] * 2
        assert len(serial) == 4 and serial == parallel
        lone = run_cell(config, grid_cells(config)[3], RandomSource(config.seed).child(3))
        assert lone == serial[3]

    def test_csv_sizes_beyond_the_file_named_before_any_cell_runs(self, tmp_path, monkeypatch):
        from dpsynth import harness

        path = tmp_path / "src.csv"
        save_grouped_csv(GroupedDataset([0, 1, 0, 1], [20.0, 21.0, 22.0, 23.0]), path)
        config = gaussian_config(
            generator=GeneratorSpec(kind="csv", mode="null", csv_path=str(path)),
            epsilons=(1.0,),
            original_sizes=(2, 10),
            repetitions=2,
        )
        blocks = []
        monkeypatch.setattr(harness, "_block", lambda *args: blocks.append(args))
        with pytest.raises(ConfigError, match=r"'original_sizes'.* 4 records, cannot subsample \[10\]"):
            run_grid(config)
        # A lone cell that fits the file still checks every size of its config.
        with pytest.raises(ConfigError, match="'original_sizes'"):
            run_cell(config, grid_cells(config)[0], RandomSource(config.seed))
        assert blocks == []

    def test_malformed_grouped_csv_reports_its_rows(self, tmp_path):
        path = tmp_path / "src.csv"
        path.write_text("group,value\n0,1.5\n1,abc\n1,2.5\n", encoding="utf-8")
        config = gaussian_config(
            generator=GeneratorSpec(kind="csv", mode="null", csv_path=str(path)),
            epsilons=(5.0,),
            original_sizes=(2,),
            repetitions=1,
        )
        with pytest.raises(IngestionError, match="malformed rows: 2"):
            run_grid(config)

    def test_dp_mw_baseline_tests_the_configured_column(self, monkeypatch):
        from dpsynth import harness
        from dpsynth.dpmw import DEFAULT_DELTA, DPMWConfig, dp_mann_whitney
        from dpsynth.simgen import copula_multivariate
        from dpsynth.synth import PrivacyBudget

        spec = default_prostate_spec()
        config = ExperimentConfig(
            generator=GeneratorSpec(kind="copula", mode="signal", copula=spec, variable="fiveari"),
            synthesizer="dp_mw_baseline",
            epsilons=(1.0,),
            original_sizes=(200,),
            repetitions=3,
            seed=2,
        )
        outcomes = []

        def recording(data, cfg, rng):
            outcome = dp_mann_whitney(data, cfg, rng)
            outcomes.append(outcome.to_dict())
            return outcome

        monkeypatch.setattr(harness, "dp_mann_whitney", recording)
        rng = RandomSource(config.seed).child(0)
        run_cell(config, grid_cells(config)[0], rng)
        expected = []
        for rep in range(3):
            original = copula_multivariate(spec, 200, "signal", rng.child(rep, 0))
            fiveari = GroupedDataset(original.groups, original.column("fiveari"))
            cfg = DPMWConfig(PrivacyBudget(1.0, DEFAULT_DELTA))
            expected.append(dp_mann_whitney(fiveari, cfg, rng.child(rep, 1)).to_dict())
        assert outcomes == expected

    def test_multivariate_cell_runs(self):
        config = ExperimentConfig(
            generator=GeneratorSpec(
                kind="copula", mode="null", copula=default_prostate_spec(), variable="fiveari"
            ),
            synthesizer="marginal_ipf",
            epsilons=(10.0,),
            original_sizes=(100,),
            repetitions=3,
            test="chi2",
            seed=1,
        )
        (report,) = run_grid(config)
        assert report.repetitions == 3
        assert report.feasible_count + sum(report.failure_counts.values()) == 3


class TestBatchedCells:
    """Every cell runs its repetitions through ``harness._block``: a synthesizer cell in blocks of
    ``harness.BLOCK`` (50), a baseline cell in blocks of one."""

    @staticmethod
    def two_cells(synthesizer: str, repetitions: int) -> ExperimentConfig:
        if synthesizer == "smoothed":
            return gaussian_config(
                synthesizer="smoothed",
                epsilons=(1.0,),
                original_sizes=(400,),
                synthetic_sizes=(30, 80),
                repetitions=repetitions,
                min_feasible=1,
            )
        return gaussian_config(
            synthesizer=synthesizer, epsilons=(1.0,), original_sizes=(50, 200), repetitions=repetitions, min_feasible=1
        )

    @staticmethod
    def assert_byte_identical_across_workers_and_alone(config: ExperimentConfig, tmp_path):
        runs = {workers: run_grid(config, workers=workers) for workers in (1, 2, 3, 8)}
        written = {
            workers: [path.read_bytes() for path in emit_report(runs[workers], tmp_path / str(workers), ("csv", "json"))]
            for workers in runs
        }
        assert written[1] == written[2] == written[3] == written[8]
        for index, cell in enumerate(grid_cells(config)):
            assert run_cell(config, cell, RandomSource(config.seed).child(index)) == runs[1][index]

    @pytest.mark.parametrize(
        "synthesizer, repetitions",
        [(name, r) for name in ("perturbed", "smoothed", "mwem") for r in (1, 25, 75, 200)]
        # A marginal fit costs more than a histogram release; R = 75 already ends in a partial block.
        + [("marginal_ipf", r) for r in (1, 25, 75)],
    )
    def test_reports_byte_identical_across_workers_and_alone(self, synthesizer, repetitions, tmp_path):
        self.assert_byte_identical_across_workers_and_alone(self.two_cells(synthesizer, repetitions), tmp_path)

    @pytest.mark.parametrize("synthesizer", ["none", "dp_mw_baseline"])
    def test_blocks_of_one_byte_identical_across_workers_and_alone(self, synthesizer, tmp_path):
        self.assert_byte_identical_across_workers_and_alone(self.two_cells(synthesizer, 3), tmp_path)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("repetitions", [1, 25, 50, 75, 200, 201])
    def test_chunks_cut_at_block_boundaries(self, repetitions, workers):
        from dpsynth.harness import BLOCK as block, _chunks

        chunks = _chunks(repetitions, workers, block)
        assert len(chunks) == min(-(-repetitions // block), workers)
        assert [rep for chunk in chunks for rep in chunk] == list(range(repetitions))
        assert all(chunk.start % block == 0 for chunk in chunks)
        blocks = [-(-len(chunk) // block) for chunk in chunks]
        assert max(blocks) - min(blocks) <= 1

    def test_only_batched_cells_are_chunked_by_block(self, monkeypatch):
        import concurrent.futures

        from dpsynth import harness

        class SerialPool:
            """Runs the pool's tasks in this process."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        chunks = []
        task = harness._chunk_task

        def recording(payload):
            chunks.append(payload[-1])
            return task(payload)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(harness, "_chunk_task", recording)
        for repetitions in (200, 25):
            run_grid(gaussian_config(epsilons=(1.0,), original_sizes=(100,), repetitions=repetitions), workers=2)
        # A marginal IPF cell of two repetitions is one block, so one chunk;
        # a baseline cell of two splits over two workers.
        run_grid(gaussian_config(synthesizer="marginal_ipf", epsilons=(10.0,), original_sizes=(100,), repetitions=2), 2)
        run_grid(gaussian_config(synthesizer="none", epsilons=(10.0,), original_sizes=(100,), repetitions=2), 2)
        assert chunks == [range(0, 100), range(100, 200), range(0, 25), range(0, 2), range(0, 1), range(1, 2)]

    def test_more_than_one_worker_runs_even_a_single_chunk_in_a_pool(self, tmp_path, monkeypatch):
        import os

        from dpsynth import harness

        # Each call appends its process id to a file, so calls in forked workers count too.
        log = tmp_path / "pids.log"
        run_blocks = harness._run_blocks

        def recording(*args):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return run_blocks(*args)

        monkeypatch.setattr(harness, "_run_blocks", recording)
        config = gaussian_config(synthesizer="marginal_ipf", epsilons=(10.0,), original_sizes=(100,), repetitions=2)
        serial = run_grid(config, workers=1)
        assert log.read_text().splitlines() == [str(os.getpid())]
        log.unlink()
        assert run_grid(config, workers=2) == serial
        [pid] = log.read_text().splitlines()
        assert pid != str(os.getpid())

    def test_each_block_draws_from_its_own_child_stream(self, monkeypatch):
        from dpsynth import harness

        seen = []
        block = harness._block

        def recording(config, cell, source, size, rng):
            seen.append((rng.path, size))
            return block(config, cell, source, size, rng)

        monkeypatch.setattr(harness, "_block", recording)
        run_grid(gaussian_config(epsilons=(1.0,), original_sizes=(100, 200), repetitions=120))
        assert seen == [((0, 0), 50), ((0, 1), 50), ((0, 2), 20), ((1, 0), 50), ((1, 1), 50), ((1, 2), 20)]
        seen.clear()
        run_grid(gaussian_config(synthesizer="none", epsilons=(1.0,), original_sizes=(100,), repetitions=3))
        assert seen == [((0, 0), 1), ((0, 1), 1), ((0, 2), 1)]

    @pytest.mark.parametrize(
        "reasons",
        [
            ["none", "constant-values", "single-class", "constant-values"],
            ["single-class", "none", "constant-values", "single-class"],
        ],
    )
    def test_failure_reasons_keep_repetition_order_within_a_block(self, reasons, monkeypatch):
        from dpsynth import harness

        def fixed(name, support, counts, levels):
            assert counts.shape[0] == len(reasons)
            feasible = np.array(reasons) == "none"
            return Outcomes(np.where(feasible, 1.0, np.nan), np.where(feasible, 0.01, np.nan), np.array(reasons))

        monkeypatch.setattr(harness, "stack_outcomes", fixed)
        config = gaussian_config(epsilons=(1.0,), original_sizes=(100,), repetitions=len(reasons), min_feasible=1)
        (report,) = run_grid(config)
        first_seen = list(dict.fromkeys(r for r in reasons if r != "none"))
        assert list(report.failure_counts) == first_seen
        assert report.failure_counts == {r: reasons.count(r) for r in first_seen}
        assert report.rejections == report.feasible_count == reasons.count("none")


def stack_of(tables):
    return replace(tables[0], counts=np.stack([table.counts for table in tables]))


def record_form_outcome(config: ExperimentConfig, table, levels) -> dict:
    """The configured test on the table's records, decoded cell by cell and counted at their distinct values."""
    columns = {name: [] for name in table.variables}
    for cell in zip(*np.nonzero(table.counts)):
        for name, lv, code in zip(table.variables, table.levels, cell):
            columns[name].extend([lv[code]] * int(table.counts[cell]))
    tested = columns[config.generator.variable or table.variables[1]]
    observed = build_table(GroupedDataset(np.asarray(columns["group"], dtype=int), tested), [(None, None)])
    return TESTS[config.test](observed.levels[1], observed.counts, levels).to_dict()


class TestRunTest:
    """Each test on the (group, variable) marginal of a stack's table equals that test on the table's records."""

    @pytest.fixture(scope="class")
    def copula_tables(self):
        from dpsynth.simgen import copula_multivariate
        from dpsynth.synth import PrivacyBudget, marginal_ipf

        spec = default_prostate_spec()
        axes = GeneratorSpec(kind="copula", mode="null", copula=spec).table_axes()
        rng = RandomSource(41)
        tables = [
            build_table(copula_multivariate(spec, n, mode, rng.child(n)), axes)
            for n, mode in [(50, "null"), (500, "signal")]
        ]
        tables.append(marginal_ipf(tables[0], PrivacyBudget(1.0), rng.child(1)))
        # Some psa bins (axis 2) stay empty in every table, so their marginal
        # has levels that the records never take.
        assert all(np.any(t.counts.sum(axis=(0, 1, 3, 4, 5)) == 0) for t in tables)
        return tables

    @pytest.mark.parametrize("test", ["mw_u", "t", "chi2", "median"])
    @pytest.mark.parametrize("variable", ["age", "psa", "volume", "fiveari", "pirads"])
    def test_copula_marginal_matches_records(self, copula_tables, variable, test):
        from dpsynth.harness import run_test

        config = ExperimentConfig(
            generator=GeneratorSpec(kind="copula", mode="null", copula=default_prostate_spec(), variable=variable),
            synthesizer="marginal_ipf",
            epsilons=(1.0,),
            original_sizes=(50,),
            test=test,
        )
        levels = config.generator.category_domain()
        outcomes = run_test(config, stack_of(copula_tables))
        for row, table in enumerate(copula_tables):
            assert outcomes.outcome(row).to_dict() == record_form_outcome(config, table, levels)

    @pytest.mark.parametrize("test", ["mw_u", "t", "chi2", "median"])
    def test_two_axis_table_matches_records(self, test):
        from dpsynth.data import gaussian_unit_bins
        from dpsynth.harness import run_test
        from dpsynth.simgen import gaussian_bivariate
        from dpsynth.synth import PrivacyBudget, perturbed_histogram

        config = gaussian_config(synthesizer="perturbed", test=test)
        rng = RandomSource(43)
        for n, mode in [(50, "null"), (500, "signal")]:
            original = build_table(gaussian_bivariate(n, mode, rng.child(n)), [(None, gaussian_unit_bins())])
            tables = [original, perturbed_histogram(original, PrivacyBudget(1.0), rng.child(n, 1))]
            outcomes = run_test(config, stack_of(tables))
            for row, table in enumerate(tables):
                assert outcomes.outcome(row).to_dict() == record_form_outcome(config, table, None)


class TestEmitReport:
    def make_reports(self):
        config = gaussian_config(repetitions=20, min_feasible=10)
        return run_grid(config)

    def test_csv_has_one_row_per_report(self, tmp_path):
        reports = self.make_reports()
        paths = emit_report(reports, tmp_path, formats=("csv",))
        lines = paths[0].read_text().strip().splitlines()
        assert len(lines) == len(reports) + 1

    def test_csv_header_is_the_report_fields_but_failure_counts(self, tmp_path):
        paths = emit_report(self.make_reports(), tmp_path, formats=("csv",))
        header = paths[0].read_text().splitlines()[0].split(",")
        assert header == [f.name for f in fields(ErrorRateReport) if f.name != "failure_counts"]

    def test_json_failure_breakdown_partitions(self, tmp_path):
        reports = self.make_reports()
        emit_report(reports, tmp_path, formats=("json",))
        payload = json.loads((tmp_path / "reports.json").read_text())
        for entry in payload["reports"]:
            assert sum(entry["failure_counts"].values()) == entry["repetitions"] - entry["feasible_count"]

    def test_json_round_trip(self, tmp_path):
        reports = self.make_reports()
        emit_report(reports, tmp_path, formats=("json",), alpha=0.05)
        back, alpha = load_reports_json(tmp_path / "reports.json")
        assert alpha == 0.05
        assert back == reports

    def test_svg_written_per_method_test_kind(self, tmp_path):
        reports = self.make_reports()
        paths = emit_report(reports, tmp_path, formats=("svg",))
        assert [p.name for p in paths] == ["figure_perturbed_mw_u_type1.svg"]

    def test_suppressed_cells_are_gaps(self):
        reports = self.make_reports()
        # Two epsilons, two sizes: suppress one epsilon of one series.
        doctored = []
        for r in reports:
            if r.epsilon == 0.1 and r.n_original == 100:
                doctored.append(
                    ErrorRateReport(**{**r.to_dict(), "suppressed": True})
                )
            else:
                doctored.append(r)
        svg = render_figure(doctored, alpha=0.05)
        # 4 cells, one suppressed: three markers drawn.
        assert svg.count("<circle") == 3

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_report(self.make_reports(), tmp_path, formats=("pdf",))

    def test_byte_identical_across_runs(self, tmp_path):
        reports = self.make_reports()
        emit_report(reports, tmp_path / "a")
        emit_report(reports, tmp_path / "b")
        for name in ("reports.csv", "reports.json", "figure_perturbed_mw_u_type1.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
