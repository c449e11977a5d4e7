"""Random-stream pins: exact outputs of every noisy mechanism at fixed seeds.

Each case hashes a mechanism's output bytes (with dtype and shape). A change
that moves any draw, or any float operation on the way to a released value,
changes a digest here; such a change states its stream change and re-records
these values. Unlike the perfbench digests, these cover the DP-MW null: the
p-value of ``dp_mann_whitney`` counts its 10 000 noised null statistics.
The digests hold for the numpy version that recorded them, whose generators
and float kernels they depend on; under another version a mismatch names both.
"""

import hashlib

import numpy as np
import pytest

from dpsynth.data import CountTable, GroupedDataset, build_table, uniform_bins
from dpsynth.dpmw import DPMWConfig, dp_mann_whitney
from dpsynth.harness import GeneratorSpec
from dpsynth.rng import RandomSource
from dpsynth.simgen import copula_multivariate, default_prostate_spec, gaussian_bivariate
from dpsynth.synth import (
    PrivacyBudget,
    fit_marginal_joint,
    marginal_ipf,
    mwem,
    mwem_weights,
    perturbed_histogram,
    smoothed_histogram,
)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def table(seed: int) -> CountTable:
    return build_table(gaussian_bivariate(400, "signal", RandomSource(seed)), [(None, uniform_bins(40.0, 60.0, 12))])


def stack_of(tables: list[CountTable]) -> CountTable:
    return CountTable(tables[0].variables, tables[0].levels, np.stack([t.counts for t in tables]))


def stack(seed: int) -> CountTable:
    return stack_of([table(seed + i) for i in range(5)])


def copula_table(seed: int) -> CountTable:
    spec = default_prostate_spec()
    axes = GeneratorSpec(kind="copula", mode="null", copula=spec, variable="fiveari").table_axes()
    return build_table(copula_multivariate(spec, 200, "null", RandomSource(seed)), axes)


def copula_joint() -> np.ndarray:
    return fit_marginal_joint(copula_table(4), PrivacyBudget(1.0), RandomSource(5))


def dpmw_outcomes() -> np.ndarray:
    cfg = DPMWConfig(PrivacyBudget(1.0, 1e-6))
    out = []
    for seed in range(6):
        data = gaussian_bivariate(300, "signal" if seed % 2 else "null", RandomSource(100 + seed))
        outcome = dp_mann_whitney(data, cfg, RandomSource(200 + seed))
        out.append([outcome.statistic, outcome.p_value])
    tiny = GroupedDataset([0, 0, 0, 1, 1, 1], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    outcome = dp_mann_whitney(tiny, DPMWConfig(PrivacyBudget(1e6, 1e-6)), RandomSource(1))
    out.append([outcome.statistic, outcome.p_value])
    return np.array(out)


CASES = {
    "perturbed": lambda: perturbed_histogram(table(1), PrivacyBudget(0.5), RandomSource(2)).counts,
    "perturbed stack": lambda: perturbed_histogram(stack(1), PrivacyBudget(0.5), RandomSource(2)).counts,
    "smoothed": lambda: smoothed_histogram(table(3), PrivacyBudget(1.0), 250, RandomSource(4)).counts,
    "smoothed stack": lambda: smoothed_histogram(stack(3), PrivacyBudget(1.0), 250, RandomSource(4)).counts,
    "mwem weights": lambda: mwem_weights(table(5), PrivacyBudget(1.0), 10, RandomSource(6)),
    "mwem weights stack": lambda: mwem_weights(stack(5), PrivacyBudget(1.0), 10, RandomSource(6)),
    "mwem": lambda: mwem(table(7), PrivacyBudget(0.1), 10, RandomSource(8)).counts,
    "mwem stack": lambda: mwem(stack(7), PrivacyBudget(0.1), 10, RandomSource(8)).counts,
    "marginal joint": copula_joint,
    "marginal ipf": lambda: marginal_ipf(copula_table(4), PrivacyBudget(1.0), RandomSource(6)).counts,
    "marginal ipf stack": lambda: marginal_ipf(
        stack_of([copula_table(4 + i) for i in range(3)]), PrivacyBudget(1.0), RandomSource(6)
    ).counts,
    "dp mann-whitney": dpmw_outcomes,
}

# The numpy version under which PINNED was recorded.
PINNED_NUMPY = "2.4.6"

PINNED = {
    "dp mann-whitney": "30d22c7ff68507685e53f5fa290a70e9412acf097aff652d97b04c04af11a8fe",
    "marginal joint": "e50dd9c52e242a648750ecedb9d114b74f3448e2b22a91fc1014e807eba4e35f",
    "marginal ipf": "5ae28fc58ed8d198824915eb02a7a123d045f18589ecb6ae36c08c5096e3a570",
    "marginal ipf stack": "bc85f70291632ee9f2454a5b685bb9120a518e365f4734d50999cfe821e6b37a",
    "mwem": "2dd694268c556eae91548a35e9dad273d5269106e39748adc05f7b9cc1750580",
    "mwem stack": "cbff4796a798d3a2e7ea36361894c753e69627aeca2ecf8f1551c3482ae7503f",
    "mwem weights": "efeaf74264b24e5c8262e51aa2601801588bfea0ead1652accd4201380ac8c6d",
    "mwem weights stack": "e145a9cd3720be3b80d6b9071091d205953ccbbd6c3e231b893e81dfbdb7e1fa",
    "perturbed": "7d8646e2130a86510e4b310875423e28b28cbf3c38cfecd2e86cdf2ce22543eb",
    "perturbed stack": "4442533843d13b0d200a4678fd2790dacd323e1ecee856c8ac62e2cf48361759",
    "smoothed": "e26fc4f0e7848276b8bd39d3549bdc032a2e1573561a4e85d19c31150170250e",
    "smoothed stack": "b758e2b836856d6f802a288fe494ab866556e3d7c6d82708948250d678aba9d3",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_is_pinned(case):
    got = digest(CASES[case]())
    assert got == PINNED[case], f"{case}: {got} under numpy {np.__version__}, pinned under numpy {PINNED_NUMPY}"
