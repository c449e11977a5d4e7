"""DP-synthetic tabular data generators and the test error rates they induce."""

from .data import (
    BinningSpec,
    CountTable,
    GroupedDataset,
    IngestionError,
    build_table,
    discretize,
    load_csv,
    samples_from_counts,
)
from .dpmw import DPMWConfig, dp_mann_whitney
from .harness import ConfigError, ErrorRateReport, ExperimentConfig, GeneratorSpec, run_cell, run_grid
from .rng import RandomSource, categorical_sample, discrete_laplace_sample, laplace_sample
from .simgen import CopulaSpec, copula_multivariate, default_prostate_spec, gaussian_bivariate
from .stattests import TESTS, FailureReason, TestOutcome, chi_squared
from .report import emit_report
from .synth import (
    SYNTHESIZERS,
    PrivacyBudget,
    fit_marginal_joint,
    marginal_ipf,
    mwem,
    mwem_weights,
    perturbed_histogram,
    smoothed_histogram,
    smoothed_probabilities,
)

__version__ = "0.1.0"
