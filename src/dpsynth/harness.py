"""Repetition engine: Type I / Type II error rates over (method, epsilon, n) grids.

Each grid cell runs R independent repetitions: generate an original dataset,
synthesize (unless the cell is a baseline), run the configured test, and
record feasibility and rejection at the significance level. A synthesizer
reads the original's binned (or categorical) count table and releases
synthetic counts over the same cells; for gaussian and csv data that table
is drawn directly from its exact law, and copula records are counted by
:func:`dpsynth.data.build_table`. The ``none`` baseline counts the original
records at the tested variable's distinct values. :func:`run_test` runs the
test on the (group, tested variable) marginal of every table of a stack.

Every cell runs its repetitions in blocks of ``BLOCK[method]``, each drawn
from one child stream of the cell's stream, ``child(block)``, by
:func:`_block`: a synthesizer block draws its originals as one stack of
tables, releases a stack and tests every table of it; a baseline block is
one repetition, whose original comes from the block stream's ``child(0)``
and DP-MW's noise from its ``child(1)``. :func:`run_grid` splits the work
by (cell, repetition chunk), cutting a cell's chunks at block boundaries;
each chunk returns its blocks' outcomes in repetition order, and a cell's
report counts them once, so a full-grid run at any worker count and an
isolated re-run of one cell all produce identical numbers.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .data import (
    BinningSpec,
    CountTable,
    GroupedDataset,
    bmi_bins,
    build_table,
    from_json,
    gaussian_unit_bins,
    load_csv,
    resolve_binning,
    to_json,
)
from .dpmw import DEFAULT_DELTA, DPMWConfig, dp_mann_whitney
from .rng import RandomSource
from .simgen import CopulaSpec, copula_multivariate, default_prostate_spec, gaussian_bivariate, load_copula_spec
from .simgen import gaussian_table, subsample_table
from .special import load_scipy
from .stattests import TESTS, FailureReason, Outcomes, stack_outcomes
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

# Repetitions per block, whatever the worker count. A marginal fit of the
# 24 000-cell copula joint takes up to about half a second, so its cells run
# one per block and still split over workers.
BLOCK = {"none": 1, "perturbed": 50, "smoothed": 50, "mwem": 50, "marginal_ipf": 1, "dp_mw_baseline": 1}


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class Cell(NamedTuple):
    epsilon: float
    n_original: int
    n_synthetic: int | None


@dataclass(frozen=True)
class GeneratorSpec:
    """Where original datasets come from and which column gets tested."""

    kind: str = "gaussian"
    mode: str = "null"
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
        if self.generator.kind == "copula" or self.test != "mw_u":
            # The copula sampler and every test but MW-U call scipy. Load it
            # here, in the parent, so that run_grid's forked workers inherit it.
            load_scipy()

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
        if self.error_kind not in ("type1", "type2"):
            raise ValueError(f"field 'error_kind' must be type1 or type2, got {self.error_kind!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"field 'epsilon' must be finite and positive, got {self.epsilon}")
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
        return to_json(self)


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


def _original_table(
    config: ExperimentConfig, source: CountTable | None, n: int, rng: RandomSource, size: int
) -> CountTable:
    """A stack of ``size`` tables of the original over ``table_axes()``, which is all that a synthesizer reads.

    Gaussian and csv tables (``source`` is the file's table) are drawn at once
    from their exact law; copula records are drawn and counted table by table.
    """
    gen = config.generator
    if gen.kind == "csv":
        return subsample_table(source, n, rng, size)
    axes = gen.table_axes()
    if gen.kind == "gaussian":
        [(_, spec)] = axes
        return gaussian_table(n, gen.mode, spec, rng, size)
    tables = [build_table(_generate(config, None, n, rng), axes) for _ in range(size)]
    return replace(tables[0], counts=np.stack([table.counts for table in tables]))


def run_test(config: ExperimentConfig, tables: CountTable) -> Outcomes:
    """Run the configured classical test on the (group, tested variable) marginal of every table of a stack.

    The marginal sums the counts over every other axis and keeps the tested
    variable's levels; the test takes the variable's category levels, when
    it has any (:meth:`GeneratorSpec.category_domain`).
    """
    name = config.generator.variable
    # After the stack axis, the group axis comes first, and an unnamed tested variable next.
    axis = 1 if name is None else tables.variables.index(name)
    other = tuple(j + 1 for j in range(1, len(tables.variables)) if j != axis)
    marginal = tables.counts.sum(axis=other)
    return stack_outcomes(config.test, tables.levels[axis], marginal, config.generator.category_domain())


def _block(
    config: ExperimentConfig, cell: Cell, source: CountTable | GroupedDataset | None, size: int, rng: RandomSource
) -> Outcomes:
    """The outcomes of a block of ``size`` repetitions of a cell, all drawn from ``rng``.

    A synthesizer block draws its originals as one stack of tables, which the
    synthesizer releases as one stack, and the test runs on every table of
    it. A baseline block is one repetition: its original records come from
    ``rng.child(0)``, and the DP Mann-Whitney test draws from ``rng.child(1)``.
    """
    if config.synthesizer in SYNTHESIZERS:
        original = _original_table(config, source, cell.n_original, rng, size)
        synthetic = SYNTHESIZERS[config.synthesizer](
            original, PrivacyBudget(cell.epsilon), rng, m=cell.n_synthetic, iterations=config.mwem_iterations
        )
        return run_test(config, synthetic)
    original = _generate(config, source, cell.n_original, rng.child(0))
    if config.synthesizer == "none":
        table = build_table(original, [(config.generator.variable, None)])
        return run_test(config, replace(table, counts=table.counts[None]))
    cfg = DPMWConfig(PrivacyBudget(cell.epsilon, DEFAULT_DELTA))
    tested = GroupedDataset(original.groups, original.column(config.generator.variable))
    return Outcomes.of([dp_mann_whitney(tested, cfg, rng.child(1))])


def _run_blocks(
    config: ExperimentConfig, cell: Cell, source: CountTable | GroupedDataset | None, rng: RandomSource, reps: range
) -> list[Outcomes]:
    """The outcomes of the repetitions ``reps`` of one cell, block by block in repetition order.

    With ``k`` the method's ``BLOCK``, block ``b`` holds repetitions ``b*k``
    up to ``(b+1)*k`` (or the cell's last) and draws only from
    ``rng.child(b)``, so ``reps`` must start at a block boundary and end at
    one or at the cell's last repetition. So the outcomes do not depend on
    how a cell's repetitions are split at those boundaries.
    """
    block = BLOCK[config.synthesizer]
    return [
        _block(config, cell, source, min(block, reps.stop - start), rng.child(start // block))
        for start in range(reps.start, reps.stop, block)
    ]


def _report(config: ExperimentConfig, cell: Cell, parts: list[Outcomes]) -> ErrorRateReport:
    """The report of one cell from the outcomes of all its repetitions, in repetition order.

    Failure reasons are counted in the order that they first appear in.
    """
    outcomes = Outcomes(*map(np.concatenate, zip(*parts)))
    ok = outcomes.failure_reason == FailureReason.NONE.value
    feasible = int(ok.sum())
    rejections = int((outcomes.p_value[ok] <= config.alpha).sum())
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
        failure_counts=dict(Counter(outcomes.failure_reason[~ok].tolist())),
        type1_context=True if config.error_kind == "type2" else None,
    )


def run_cell(config: ExperimentConfig, cell: Cell, rng: RandomSource) -> ErrorRateReport:
    """R repetitions of generate, synthesize, test for one grid cell.

    A csv generator's file is loaded here; :func:`run_grid` loads it once for all cells.
    """
    source = _load_source(config)
    return _report(config, cell, _run_blocks(config, cell, source, rng, range(config.repetitions)))


def _load_source(config: ExperimentConfig) -> CountTable | GroupedDataset | None:
    """What a csv cell draws its originals from; None for the other generators.

    That is the file's table over ``table_axes()`` for a synthesizer cell, and
    the file's records for a baseline cell. The file must hold every original size.
    """
    gen = config.generator
    if gen.kind != "csv":
        return None
    records = load_csv(gen.csv_path)
    too_large = [n for n in config.original_sizes if n > records.n]
    if too_large:
        raise ConfigError(
            f"field 'original_sizes': {gen.csv_path} holds {records.n} records, cannot subsample {too_large}"
        )
    return build_table(records, gen.table_axes()) if config.synthesizer in SYNTHESIZERS else records


def _chunks(repetitions: int, workers: int, block: int) -> list[range]:
    """``range(repetitions)`` cut at multiples of ``block`` into at most ``workers`` contiguous parts.

    The parts hold near-equal numbers of blocks, and there are as many as
    there are blocks when fewer than ``workers``; with blocks of one,
    ``min(repetitions, workers)`` parts.
    """
    blocks = -(-repetitions // block)
    k = min(blocks, workers)
    return [range(block * (blocks * j // k), min(repetitions, block * (blocks * (j + 1) // k))) for j in range(k)]


def _chunk_task(
    payload: tuple[ExperimentConfig, Cell, int, CountTable | GroupedDataset | None, range],
) -> list[Outcomes]:
    config, cell, index, source, reps = payload
    return _run_blocks(config, cell, source, RandomSource(config.seed).child(index), reps)


def run_grid(config: ExperimentConfig, workers: int = 1) -> list[ErrorRateReport]:
    """Run every grid cell; results are identical for any worker count.

    The unit of work is a contiguous chunk of one cell's repetitions: each
    cell is cut into ``min(blocks, workers)`` chunks of whole blocks, so a
    grid of few or unevenly slow cells still keeps every worker busy. Each
    chunk returns its blocks' outcomes in repetition order, and a cell's
    report is built once from all of them. A csv source is read once here
    and handed to every chunk.
    """
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    source = _load_source(config)
    cells = grid_cells(config)
    chunks = _chunks(config.repetitions, workers, BLOCK[config.synthesizer])
    tasks = [(config, cell, i, source, reps) for i, cell in enumerate(cells) for reps in chunks]
    size = min(workers, len(tasks))
    with ExitStack() as stack:
        # Both maps return results in the order of their inputs: by cell, then by chunk.
        mapper = stack.enter_context(ProcessPoolExecutor(max_workers=size)).map if size > 1 else map
        results = list(mapper(_chunk_task, tasks))
    k = len(chunks)
    return [
        _report(config, cell, [part for chunk in results[i * k : (i + 1) * k] for part in chunk])
        for i, cell in enumerate(cells)
    ]


def config_from_dict(payload: Mapping) -> ExperimentConfig:
    """Build a validated config from parsed JSON, naming the offending field.

    The generator's copula is given inline (``copula``), by the path of a
    spec file (``copula_path``, ``"default"`` for the packaged spec, which
    the copula generator also takes when given neither), which is read once
    and handed on as read; :func:`from_json` reads everything else against
    the dataclasses' annotations.
    """
    if not isinstance(payload, Mapping):
        raise ConfigError("experiment config must be a JSON object")
    gen = payload.get("generator")
    try:
        if isinstance(gen, Mapping) and ("copula_path" in gen or gen.get("kind") == "copula" and "copula" not in gen):
            if "copula" in gen:
                raise ValueError("fields 'generator.copula' and 'generator.copula_path' exclude each other")
            source = from_json(str, gen.get("copula_path", "default"), "generator.copula_path")
            try:
                spec = default_prostate_spec() if source == "default" else load_copula_spec(source)
            except (OSError, ValueError) as exc:
                raise ValueError(f"field 'generator.copula_path': {exc}") from exc
            generator = {key: value for key, value in gen.items() if key != "copula_path"}
            payload = {**payload, "generator": {**generator, "copula": spec}}
        return from_json(ExperimentConfig, payload)
    except KeyError as exc:
        raise ConfigError(f"field 'generator.variable': unknown variable {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    """The JSON form of a config, with its copula spec inline, which :func:`config_from_dict` reads back."""
    return to_json(config)


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
