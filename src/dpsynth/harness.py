"""Repetition engine: Type I / Type II error rates over (method, epsilon, n) grids.

Each grid cell runs R independent repetitions: generate an original dataset,
synthesize (unless the cell is a baseline), run the configured test, and
record feasibility and rejection at the significance level. The original
becomes a count table through :func:`dpsynth.data.build_table`: binned (or
categorical) for a synthesizer, which releases synthetic counts over the
same cells, and at the tested variable's distinct values for the ``none``
baseline. The test runs on the (group, tested variable) marginal of the
table. Every cell and repetition draws from a child stream derived from the
master seed. :func:`run_grid` splits the work by (cell, repetition chunk),
and a cell's report is built from the summed chunk tallies, so a full-grid
run at any worker count and an isolated re-run of one cell all produce
identical numbers.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .data import (
    BinningSpec,
    CountTable,
    GroupedDataset,
    bmi_bins,
    build_table,
    gaussian_unit_bins,
    load_csv,
    resolve_binning,
)
from .dpmw import DEFAULT_DELTA, DPMWConfig, dp_mann_whitney
from .rng import RandomSource
from .simgen import CopulaSpec, copula_multivariate, default_prostate_spec, gaussian_bivariate, load_copula_spec
from .stattests import TESTS, TestOutcome
from .synth import SYNTHESIZERS, PrivacyBudget

__all__ = [
    "ConfigError",
    "GeneratorSpec",
    "ExperimentConfig",
    "Cell",
    "ErrorRateReport",
    "grid_cells",
    "run_cell",
    "run_grid",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "load_configs",
]

# The synthesizers plus two baselines: the test on the original data, and
# the DP Mann-Whitney test on the original data.
METHODS = ("none", *SYNTHESIZERS, "dp_mw_baseline")


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


# A tally of repetitions: feasible count, rejections, failure counts by reason.
Tally = tuple[int, int, dict[str, int]]


class Cell(NamedTuple):
    epsilon: float
    n_original: int
    n_synthetic: int | None


@dataclass(frozen=True)
class GeneratorSpec:
    """Where original datasets come from and which column gets tested."""

    kind: str
    mode: str
    variable: str | None = None
    csv_path: str | None = None
    copula: CopulaSpec | None = None
    binning: object = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "copula", "csv"):
            raise ConfigError(f"generator.kind must be gaussian, copula, or csv, got {self.kind!r}")
        if self.mode not in ("null", "signal"):
            raise ConfigError(f"generator.mode must be null or signal, got {self.mode!r}")
        if self.kind == "csv" and not self.csv_path:
            raise ConfigError("generator.csv_path is required for the csv generator")
        if self.kind == "copula":
            if self.copula is None:
                raise ConfigError("generator.copula is required for the copula generator")
            if self.variable is not None:
                self.copula.variable(self.variable)
            if self.binning is not None:
                raise ConfigError(
                    "generator.binning does not apply to the copula generator, whose variables carry their own bins"
                )
        elif self.variable is not None or self.copula is not None:
            raise ConfigError("generator.variable and generator.copula only apply to the copula generator")
        else:
            self.table_axes()

    def table_axes(self) -> list[tuple[str | None, BinningSpec | np.ndarray]]:
        """The axes of the original's table that a synthesizer reads, after the group axis.

        They are in the form :func:`build_table` takes. For the copula
        generator, every variable by name: binned when it is continuous, at
        its category levels otherwise. For the gaussian and csv generators,
        the binned value column.
        """
        if self.kind == "copula":
            return [(v.name, v.binning() or v.marginal.category_levels()) for v in self.copula.variables]
        if self.binning is None:
            return [(None, gaussian_unit_bins() if self.kind == "gaussian" else bmi_bins())]
        try:
            return [(None, resolve_binning(self.binning))]
        except ValueError as exc:
            raise ConfigError(f"field 'generator.binning': {exc}") from None

    def category_domain(self) -> np.ndarray | None:
        """Fixed category levels of the tested variable, when it has any."""
        if self.kind != "copula":
            return None
        name = self.variable or self.copula.variables[0].name
        return self.copula.variable(name).marginal.category_levels()


@dataclass(frozen=True)
class ExperimentConfig:
    generator: GeneratorSpec
    synthesizer: str
    epsilons: tuple[float, ...]
    original_sizes: tuple[int, ...]
    synthetic_sizes: tuple[int, ...] = ()
    repetitions: int = 200
    alpha: float = 0.05
    test: str = "mw_u"
    seed: int = 0
    min_feasible: int = 50
    mwem_iterations: int = 10

    def __post_init__(self):
        if self.synthesizer not in METHODS:
            raise ConfigError(f"synthesizer must be one of {METHODS}, got {self.synthesizer!r}")
        if self.test not in TESTS:
            raise ConfigError(f"test must be one of {tuple(TESTS)}, got {self.test!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.epsilons:
            raise ConfigError("epsilons must be non-empty")
        if not np.all(np.isfinite(self.epsilons)):
            raise ConfigError(f"field 'epsilons' must be finite, got {list(self.epsilons)}")
        if any(e <= 0 for e in self.epsilons):
            raise ConfigError(f"field 'epsilons' must be positive, got {list(self.epsilons)}")
        if not self.original_sizes or any(n < 2 for n in self.original_sizes):
            raise ConfigError("original_sizes must be non-empty with entries >= 2")
        odd = [n for n in self.original_sizes if n % 2]
        if self.generator.kind != "csv" and odd:
            raise ConfigError(
                f"original_sizes must be even for the {self.generator.kind} generator, "
                f"which splits n into two equal groups; got {odd}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"field 'seed' must be in [0, 2**64), got {self.seed}")
        if self.min_feasible < 1:
            raise ConfigError("min_feasible must be at least 1")
        if self.synthesizer == "smoothed":
            if not self.synthetic_sizes:
                raise ConfigError(
                    "the smoothed synthesizer draws a chosen number of records from one "
                    "large original dataset: set synthetic_sizes and a single original size"
                )
            if len(self.original_sizes) != 1:
                raise ConfigError(
                    "the smoothed synthesizer grids over synthetic_sizes, so exactly one "
                    "original size must be given"
                )
        elif self.synthetic_sizes:
            raise ConfigError(
                f"synthesizer {self.synthesizer!r} emits datasets sized like the original; "
                "synthetic_sizes only applies to the smoothed synthesizer"
            )
        if self.synthesizer == "dp_mw_baseline" and self.test != "mw_u":
            raise ConfigError("the dp_mw_baseline runs the DP Mann-Whitney test; set test to mw_u")
        if self.generator.kind == "copula" and self.synthesizer in ("perturbed", "smoothed", "mwem"):
            raise ConfigError(
                f"synthesizer {self.synthesizer!r} operates on bivariate histograms; "
                "multivariate copula data requires marginal_ipf (or a baseline)"
            )
        if any(m < 1 for m in self.synthetic_sizes):
            raise ConfigError(f"synthetic_sizes entries must be at least 1, got {list(self.synthetic_sizes)}")
        if self.synthesizer == "mwem":
            # MWEM runs on the (group, binned value) table, one query per cell.
            [(_, spec)] = self.generator.table_axes()
            queries = 2 * spec.bin_count
            if not 1 <= self.mwem_iterations <= queries:
                raise ConfigError(
                    f"mwem_iterations must lie in 1..{queries} (one query per group-by-bin cell), "
                    f"got {self.mwem_iterations}"
                )
        elif self.mwem_iterations != ExperimentConfig.mwem_iterations:
            # The class attribute is the field's default.
            raise ConfigError(
                f"mwem_iterations applies only to the mwem synthesizer, not to {self.synthesizer!r}; "
                f"got {self.mwem_iterations}"
            )

    @property
    def error_kind(self) -> str:
        return "type1" if self.generator.mode == "null" else "type2"


@dataclass(frozen=True)
class ErrorRateReport:
    """Aggregated outcome of one grid cell."""

    method: str
    test: str
    error_kind: str
    epsilon: float
    n_original: int
    n_synthetic: int | None
    repetitions: int
    feasible_count: int
    rejections: int
    error_rate: float | None
    suppressed: bool
    failure_counts: Mapping[str, int] = field(default_factory=dict)
    type1_context: bool | None = None

    def __post_init__(self):
        if not 0 <= self.rejections <= self.feasible_count <= self.repetitions:
            raise ValueError("need rejections <= feasible_count <= repetitions")
        if sum(self.failure_counts.values()) != self.repetitions - self.feasible_count:
            raise ValueError("failure counts must partition the infeasible repetitions")
        if self.feasible_count == 0:
            if self.error_rate is not None:
                raise ValueError("error_rate must be None when nothing was feasible")
        else:
            rate = self.rejections / self.feasible_count
            expected = rate if self.error_kind == "type1" else 1.0 - rate
            if self.error_rate is None or abs(self.error_rate - expected) > 1e-12:
                raise ValueError("error_rate inconsistent with rejections/feasible_count")

    def to_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["failure_counts"] = dict(self.failure_counts)
        return payload


def grid_cells(config: ExperimentConfig) -> list[Cell]:
    """The Cartesian product of grid settings, in deterministic order."""
    cells = []
    for eps in config.epsilons:
        if config.synthesizer == "smoothed":
            for m in config.synthetic_sizes:
                cells.append(Cell(float(eps), int(config.original_sizes[0]), int(m)))
        else:
            for n in config.original_sizes:
                cells.append(Cell(float(eps), int(n), None))
    return cells


def _generate(config: ExperimentConfig, source: GroupedDataset | None, n: int, rng: RandomSource) -> GroupedDataset:
    gen = config.generator
    if gen.kind == "gaussian":
        return gaussian_bivariate(n, gen.mode, rng)
    if gen.kind == "copula":
        return copula_multivariate(gen.copula, n, gen.mode, rng)
    idx = rng.generator.choice(source.n, size=n, replace=False)
    extras = {name: col[idx] for name, col in source.extras.items()}
    return GroupedDataset(source.groups[idx], source.values[idx], extras, source.value_name)


def run_test(config: ExperimentConfig, table: CountTable, levels: np.ndarray | None) -> TestOutcome:
    """Run the configured classical test on the (group, tested variable) marginal of ``table``.

    The marginal sums the counts over every other axis and keeps the tested
    variable's levels. ``levels`` are the tested variable's category
    levels, when it has any (:meth:`GeneratorSpec.category_domain`).
    """
    name = config.generator.variable
    # The group axis comes first, and an unnamed tested variable next.
    axis = 1 if name is None else table.variables.index(name)
    other = tuple(j for j in range(1, table.counts.ndim) if j != axis)
    return TESTS[config.test](table.levels[axis], table.counts.sum(axis=other), levels)


def _tally(
    config: ExperimentConfig, cell: Cell, rng: RandomSource, source: GroupedDataset | None, reps: range
) -> Tally:
    """The tally of the repetitions ``reps`` of one cell.

    Repetition ``rep`` draws only from ``rng.child(rep, 0)`` and
    ``rng.child(rep, 1)``, so a tally does not depend on how a cell's
    repetitions are split.
    """
    gen = config.generator
    axes = gen.table_axes()
    levels = gen.category_domain()
    feasible = 0
    rejections = 0
    failures: dict[str, int] = {}
    for rep in reps:
        original = _generate(config, source, cell.n_original, rng.child(rep, 0))
        if config.synthesizer == "none":
            outcome = run_test(config, build_table(original, [(gen.variable, None)]), levels)
        elif config.synthesizer == "dp_mw_baseline":
            cfg = DPMWConfig(PrivacyBudget(cell.epsilon, DEFAULT_DELTA))
            tested = GroupedDataset(original.groups, original.column(gen.variable))
            outcome = dp_mann_whitney(tested, cfg, rng.child(rep, 1))
        else:
            synthetic = SYNTHESIZERS[config.synthesizer](
                build_table(original, axes),
                PrivacyBudget(cell.epsilon),
                rng.child(rep, 1),
                m=cell.n_synthetic,
                iterations=config.mwem_iterations,
            )
            outcome = run_test(config, synthetic, levels)
        if outcome.feasible:
            feasible += 1
            if outcome.p_value <= config.alpha:
                rejections += 1
        else:
            reason = outcome.failure_reason.value
            failures[reason] = failures.get(reason, 0) + 1
    return feasible, rejections, failures


def _report(
    config: ExperimentConfig, cell: Cell, feasible: int, rejections: int, failures: dict[str, int]
) -> ErrorRateReport:
    """The report of one cell from the tally of all its repetitions."""
    if feasible:
        rate = rejections / feasible
        error_rate = rate if config.error_kind == "type1" else 1.0 - rate
    else:
        error_rate = None
    return ErrorRateReport(
        method=config.synthesizer,
        test=config.test,
        error_kind=config.error_kind,
        epsilon=cell.epsilon,
        n_original=cell.n_original,
        n_synthetic=cell.n_synthetic,
        repetitions=config.repetitions,
        feasible_count=feasible,
        rejections=rejections,
        error_rate=error_rate,
        suppressed=feasible < config.min_feasible,
        failure_counts=failures,
        type1_context=True if config.error_kind == "type2" else None,
    )


def run_cell(
    config: ExperimentConfig, cell: Cell, rng: RandomSource, source: GroupedDataset | None = None
) -> ErrorRateReport:
    """R repetitions of generate, synthesize, test for one grid cell.

    A csv generator subsamples ``source``, the loaded CSV; :func:`run_grid`
    loads it once for all cells, and a lone call loads it when not given.
    """
    if source is None:
        source = _load_source(config)
    return _report(config, cell, *_tally(config, cell, rng, source, range(config.repetitions)))


def _load_source(config: ExperimentConfig) -> GroupedDataset | None:
    """The csv generator's file, which must hold every original size; None for the other generators."""
    gen = config.generator
    if gen.kind != "csv":
        return None
    source = load_csv(gen.csv_path)
    too_large = [n for n in config.original_sizes if n > source.n]
    if too_large:
        raise ConfigError(
            f"field 'original_sizes': {gen.csv_path} holds {source.n} records, cannot subsample {too_large}"
        )
    return source


def _chunks(repetitions: int, workers: int) -> list[range]:
    """``range(repetitions)`` cut into ``min(repetitions, workers)`` contiguous, near-equal parts."""
    k = min(repetitions, workers)
    return [range(repetitions * j // k, repetitions * (j + 1) // k) for j in range(k)]


def _merge(tallies: list[Tally]) -> Tally:
    """The sum of a cell's chunk tallies; failure reasons keep their first-seen order."""
    feasible = rejections = 0
    failures: dict[str, int] = {}
    for part_feasible, part_rejections, part_failures in tallies:
        feasible += part_feasible
        rejections += part_rejections
        for reason, count in part_failures.items():
            failures[reason] = failures.get(reason, 0) + count
    return feasible, rejections, failures


def _chunk_task(payload: tuple[ExperimentConfig, Cell, int, GroupedDataset | None, range]) -> Tally:
    config, cell, index, source, reps = payload
    return _tally(config, cell, RandomSource(config.seed).child(index), source, reps)


def run_grid(config: ExperimentConfig, workers: int = 1) -> list[ErrorRateReport]:
    """Run every grid cell; results are identical for any worker count.

    The unit of work is a contiguous chunk of one cell's repetitions: each
    cell is cut into ``min(repetitions, workers)`` chunks, so a grid of few
    or unevenly slow cells still keeps every worker busy. A cell's report is
    built once from the summed tallies of its chunks. A csv source is read
    once here and handed to every chunk.
    """
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    source = _load_source(config)
    cells = grid_cells(config)
    chunks = _chunks(config.repetitions, workers)
    tasks = [(config, cell, i, source, reps) for i, cell in enumerate(cells) for reps in chunks]
    size = min(workers, len(tasks))
    with ExitStack() as stack:
        # Both maps return results in the order of their inputs: by cell, then by chunk.
        mapper = stack.enter_context(ProcessPoolExecutor(max_workers=size)).map if size > 1 else map
        tallies = list(mapper(_chunk_task, tasks))
    k = len(chunks)
    return [_report(config, cell, *_merge(tallies[i * k : (i + 1) * k])) for i, cell in enumerate(cells)]


def config_from_dict(payload: Mapping) -> ExperimentConfig:
    """Build a validated config from parsed JSON, naming the offending field.

    Every :class:`ExperimentConfig` field except ``generator`` is cast to its
    annotated type: a number field takes only JSON numbers, not booleans or
    strings, and an integer field only integral ones; fields without a
    default are required.
    """
    if not isinstance(payload, Mapping):
        raise ConfigError("experiment config must be a JSON object")
    _reject_unknown(payload, ExperimentConfig, "")
    gen = payload.get("generator")
    if not isinstance(gen, Mapping):
        raise ConfigError("field 'generator' must be an object")
    _reject_unknown(gen, GeneratorSpec, "generator.", extra={"copula_path"})
    copula = _load_copula(gen) if gen.get("kind") == "copula" or {"copula", "copula_path"} & set(gen) else None
    spec = {"kind": "gaussian", "mode": "null", **gen, "copula": copula}
    spec.pop("copula_path", None)
    try:
        generator = GeneratorSpec(**spec)
    except KeyError as exc:
        raise ConfigError(f"field 'generator.variable': unknown variable {exc}") from exc
    hints = get_type_hints(ExperimentConfig)
    values = {}
    for f in fields(ExperimentConfig)[1:]:
        if f.name not in payload:
            if f.default is MISSING:
                raise ConfigError(f"field {f.name!r} is required")
            continue
        kind = hints[f.name]
        try:
            if get_origin(kind) is tuple:
                values[f.name] = tuple(_cast(get_args(kind)[0], v) for v in payload[f.name])
            else:
                values[f.name] = _cast(kind, payload[f.name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"field {f.name!r} is malformed: {exc}") from exc
    return ExperimentConfig(generator=generator, **values)


def _cast(kind: type, value):
    """``kind(value)``; a number field takes only a number, and an integer field only an integral one.

    A boolean or a string is not a number here, although ``float()`` accepts both.
    """
    if kind is not str and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ValueError(f"expected a number, got {value!r}")
    if kind is int and value != int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return kind(value)


def _reject_unknown(payload: Mapping, cls, prefix: str, extra=frozenset()) -> None:
    unknown = set(payload) - {f.name for f in fields(cls)} - set(extra)
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(prefix + name for name in unknown)}")


def _load_copula(gen: Mapping) -> CopulaSpec:
    """The copula spec given inline (``copula``), by path (``copula_path``), or the default."""
    if "copula" in gen and "copula_path" in gen:
        raise ConfigError("fields 'generator.copula' and 'generator.copula_path' exclude each other")
    name = "copula" if "copula" in gen else "copula_path"
    try:
        if name == "copula":
            return CopulaSpec.from_dict(gen["copula"])
        source = gen.get("copula_path", "default")
        return default_prostate_spec() if source in (None, "default") else load_copula_spec(source)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"field 'generator.{name}': {exc}") from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    """The JSON form of a config, which :func:`config_from_dict` reads back."""
    gen = config.generator
    generator = {f.name: getattr(gen, f.name) for f in fields(gen) if f.name != "copula"}
    if gen.kind == "copula":
        generator["copula"] = gen.copula.to_dict()
    payload = {f.name: getattr(config, f.name) for f in fields(config)}
    payload["generator"] = generator
    return {name: list(v) if isinstance(v, tuple) else v for name, v in payload.items()}


def load_configs(path, seed: int | None = None) -> tuple[ExperimentConfig, ...]:
    """Load a config file holding one experiment object or a JSON array of them.

    Errors in an array name the experiment (1-based, in file order) and the
    field. Every experiment must share one ``alpha``, because their reports
    are written together under a single significance level. An explicit seed
    overrides every experiment's.
    """
    try:
        with Path(path).open(encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, list):
        configs = [config_from_dict(payload)]
    elif not payload:
        raise ConfigError("config file holds an empty experiment list")
    else:
        configs = []
        for number, item in enumerate(payload, start=1):
            try:
                configs.append(config_from_dict(item))
            except ConfigError as exc:
                raise ConfigError(f"experiment {number}: {exc}") from exc
    alphas = sorted({config.alpha for config in configs})
    if len(alphas) > 1:
        raise ConfigError(f"field 'alpha' must be equal in every experiment, got {alphas}")
    if seed is not None:
        configs = [replace(config, seed=seed) for config in configs]
    return tuple(configs)


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    """Load a config file of exactly one experiment; an explicit seed overrides the file's."""
    configs = load_configs(path, seed)
    if len(configs) != 1:
        raise ConfigError(f"config file holds {len(configs)} experiments, expected one")
    return configs[0]
