"""Differentially private Mann-Whitney U test run directly on sensitive data.

The mechanism privatizes the smaller group size with part of the budget
(plus all of delta, spent on a high-probability lower bound that caps the
U statistic's sensitivity), privatizes U itself with the rest, and obtains
a two-sided p-value from a Monte Carlo null distribution of equally noised
permutation statistics. The total record count is treated as public.

Under the null every m-subset of the untied ranks 1..N is equally likely to
be the smaller group, so a null statistic needs only the rank sum of a
uniform m-subset, not a permuted rank vector. The sampler draws it exactly
in O(N/b) variates. Split 1..N into consecutive blocks of b = 63 ranks (plus
one shorter block when b does not divide N). Of the C(N, m) subsets, those
with c_j ranks in block j number prod_j C(b_j, c_j): the block counts follow
the multivariate hypergeometric law, and given them the subset is a uniform
c_j-subset of each block, independently across blocks. The rank sum of a
block starting after rank o is c*o plus the sum of a uniform c-subset of
1..b, which is drawn by inverse CDF from an exact integer table of
c-subset-sum counts. b = 63 is the largest block for which that table is
exact in uint64: all its counts, stacked over c, sum to 2**63 < 2**64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .data import GroupedDataset, build_table
from .rng import RandomSource, laplace_sample
from .stattests import TestOutcome, u_statistic
from .synth import BudgetLedger, PrivacyBudget

__all__ = ["DEFAULT_DELTA", "DPMWConfig", "dp_mann_whitney"]

# Ranks per block of the null sampler; see the module docstring for the bound.
_BLOCK = 63
# (row, block) pairs drawn at once: 4 MB per 64-bit array of a chunk.
_CHUNK_PAIRS = 1 << 19

# The budget's delta when a caller sets none; only the size bound spends it.
DEFAULT_DELTA = 1e-6


@dataclass(frozen=True)
class DPMWConfig:
    """Budget split and null-simulation size for the DP Mann-Whitney test.

    ``size_fraction`` of epsilon estimates the smaller group size; the rest
    privatizes the U statistic. delta is consumed only by the size bound.
    """

    budget: PrivacyBudget
    size_fraction: float = 0.65
    null_samples: int = 10_000

    def __post_init__(self):
        if not self.budget.delta > 0:
            raise ValueError("the DP Mann-Whitney test requires delta > 0")
        if not 0.0 < self.size_fraction < 1.0:
            raise ValueError(f"size_fraction must be in (0, 1), got {self.size_fraction}")
        if self.null_samples < 1000:
            raise ValueError(f"null_samples must be at least 1000, got {self.null_samples}")


@lru_cache(maxsize=2)
def _subset_sum_cdf(b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact inverse-CDF table of the sum of a uniform c-subset of 1..b.

    Row c of the count table holds, at column s, the number of c-subsets
    of 1..b that sum to s, for s in 0..b(b+1)/2; row c sums to C(b, c).
    Returns ``(cdf, first, size)``: the running total of the rows laid end
    to end, ``first[c]`` the total before row c and ``size[c] = C(b, c)``.
    A uniform integer in ``[first[c], first[c] + size[c])`` then falls in
    row c at column s with probability count/C(b, c). Everything is exact
    in uint64 while b <= 63, since the grand total is 2**b.
    """
    width = b * (b + 1) // 2 + 1
    counts = np.zeros((b + 1, width), dtype=np.uint64)
    counts[0, 0] = 1
    for rank in range(1, b + 1):
        # Subsets that take `rank`: one more element, sum shifted by rank.
        # The ufunc reads the right side as it was before the update.
        counts[1:, rank:] += counts[:-1, : width - rank]
    cdf = np.cumsum(counts, axis=None, dtype=np.uint64)
    size = counts.sum(axis=1, dtype=np.uint64)
    first = cdf[width - 1 :: width] - size
    for shared in (cdf, first, size):
        shared.flags.writeable = False  # every caller gets the cached arrays
    return cdf, first, size


def _null_rank_sums(n_total: int, m_hat: int, k: int, rng: RandomSource) -> np.ndarray:
    """Rank sums of k uniform m_hat-subsets of the ranks 1..n_total.

    Exact in distribution (see the module docstring): per-block counts from
    one multivariate hypergeometric draw per row, then each block's local
    sum by inverse CDF from ``_subset_sum_cdf``. Offsetting each draw by its
    row's start in the flattened CDF lets one ``searchsorted`` serve every
    (row, block) pair. Rows are drawn in chunks of about ``_CHUNK_PAIRS``
    pairs to bound memory.
    """
    n_full, rest = divmod(n_total, _BLOCK)
    sizes = np.array([_BLOCK] * n_full + ([rest] if rest else []), dtype=np.int64)
    starts = np.arange(sizes.size, dtype=np.int64) * _BLOCK
    tables = [(sizes == b, _subset_sum_cdf(int(b))) for b in np.unique(sizes)]
    gen = rng.generator
    out = np.empty(k, dtype=np.int64)
    chunk = max(1, _CHUNK_PAIRS // sizes.size)
    for lo in range(0, k, chunk):
        rows = min(chunk, k - lo)
        counts = gen.multivariate_hypergeometric(sizes, m_hat, size=rows, method="marginals")
        sums = counts @ starts
        for cols, (cdf, first, size) in tables:
            c = counts[:, cols]
            u = gen.integers(0, size[c], dtype=np.uint64) + first[c]
            flat = np.searchsorted(cdf, u, side="right")
            sums += (flat - c * (cdf.size // size.size)).sum(axis=1)
        out[lo : lo + rows] = sums
    return out


def dp_mann_whitney(data: GroupedDataset, cfg: DPMWConfig, rng: RandomSource) -> TestOutcome:
    """(epsilon, delta)-DP two-sided Mann-Whitney U test on the original data.

    Steps: privatize the minimum group size with Laplace(1/eps1); derive a
    high-probability lower bound on it, which bounds the U sensitivity by
    Delta = N - max(1, lower); release u_tilde = U + Laplace(Delta/eps2);
    compare |u_tilde - mu| against ``null_samples`` permutation statistics
    of sizes (m_hat, N - m_hat), each re-noised with the same Laplace scale.
    """
    n0 = int((data.groups == 0).sum())
    n1 = int((data.groups == 1).sum())
    if n0 == 0 or n1 == 0:
        raise ValueError("both groups must be non-empty")
    n_total = n0 + n1
    eps = cfg.budget.epsilon
    ledger = BudgetLedger(eps)
    size_frac = Fraction(cfg.size_fraction)
    eps1 = ledger.spend(size_frac, "group size")
    eps2 = ledger.spend(1 - size_frac, "u statistic")

    m = min(n0, n1)
    m_tilde = m + laplace_sample(1.0 / eps1, rng)
    m_low = math.floor(m_tilde - math.log(1.0 / (2.0 * cfg.budget.delta)) / eps1)
    m_hat = int(np.clip(round(m_tilde), 1, n_total // 2))
    sensitivity = n_total - max(1, m_low)

    u = u_statistic(build_table(data, [(None, None)]).counts)
    u_tilde = u + laplace_sample(sensitivity / eps2, rng)
    ledger.close()

    # Null distribution: untied ranks split into groups of sizes (m_hat, rest).
    k = cfg.null_samples
    rank_sums = _null_rank_sums(n_total, m_hat, k, rng)
    u_null = rank_sums.astype(float) - m_hat * (m_hat + 1) / 2.0
    u_null += laplace_sample(sensitivity / eps2, rng, size=k)
    mu = m_hat * (n_total - m_hat) / 2.0
    # Both sides of the comparison are snapped back to U's half-integer
    # lattice (identical post-processing, so exchangeability under the null
    # is untouched). Without this, the observed statistic lands within the
    # noise scale of one of the lattice atoms and vanishing noise would
    # break the ties 50/50 instead of recovering the plain permutation test.
    exceed = int(
        np.count_nonzero(np.abs(_half_round(u_null) - mu) >= abs(_half_round(u_tilde) - mu))
    )
    p = (1 + exceed) / (k + 1)
    return TestOutcome(float(u_tilde), p, True)


def _half_round(x):
    return np.round(2.0 * x) / 2.0
